//! Delta-gossip runtime throughput: runs the same taxi-queue workload
//! through the quorum runtime in the full-log baseline configuration and
//! the optimized delta + memoized-view one, at increasing history
//! lengths, checking observable equivalence at every length.
//!
//! Results go to `BENCH_runtime_throughput.json`; CI requires
//! `within_target: true` (delta + memoization ≥ 5× faster and ≥ 10×
//! fewer wire bytes at the deepest history length, with every row
//! observably equivalent).

use relax_bench::experiments::throughput::{run, to_json, TARGET_BYTES_RATIO, TARGET_SPEEDUP};
use relax_trace::metrics::wire;
use relax_trace::Registry;

fn main() {
    println!("== Quorum-runtime throughput: full-log vs delta replication ==\n");
    let (table, rows) = run(&[128, 256, 1024], 0xD317A);
    println!("{table}");

    let gate = rows.last().expect("history lengths nonempty");
    println!(
        "gate: history {} → {:.2}x speedup at {:.0} ns/op on the delta path \
         (target ≥ {TARGET_SPEEDUP:.0}x), {:.1}x fewer bytes (target ≥ \
         {TARGET_BYTES_RATIO:.0}x), equivalent={}",
        gate.history_len,
        gate.speedup,
        gate.optimized_ns_per_op(),
        gate.bytes_ratio,
        gate.equivalent
    );

    let mut reg = Registry::new();
    reg.gauge(wire::BYTES_SHIPPED)
        .set(gate.optimized_bytes as i64);
    reg.gauge(wire::MESSAGES_SENT).set(gate.messages as i64);
    println!(
        "\ngate-run wire metrics (optimized path):\n{}",
        reg.summary()
    );

    let json = to_json(&rows);
    std::fs::write("BENCH_runtime_throughput.json", &json)
        .expect("write BENCH_runtime_throughput.json");
    println!("wrote BENCH_runtime_throughput.json");
}
