//! Sharded wall-clock backend throughput: sweeps shards × batch ×
//! replicas over the taxi-queue and bank-account workloads, with a
//! sim-vs-threaded equivalence probe on every row.
//!
//! Results go to `BENCH_realtime_throughput.json`; CI requires
//! `within_target: true` (best sweep point ≥ 1M ops/sec aggregate, the
//! coordination-free account rows faster than the same stream under
//! all-quorum scheduling, every row observably equivalent to the
//! simulator).

use relax_bench::experiments::realtime::{
    account_calm_over_quorum, best, run, to_json, CALM_OVER_QUORUM_FLOOR, SWEEP, TARGET_OPS_PER_SEC,
};

fn main() {
    println!("== Sharded wall-clock backend: batched brokers, group commit ==\n");
    let (table, rows) = run(SWEEP);
    println!("{table}");

    let top = best(&rows);
    let all_equivalent = rows.iter().all(|r| r.equivalent);
    println!(
        "gate: {} ({} shards × batch {} × {} replicas) → {:.0} ops/sec \
         (target ≥ {TARGET_OPS_PER_SEC:.0}), p50 {:.1}µs, p99 {:.1}µs, \
         coordination-free over quorum {:.2}x (target ≥ {CALM_OVER_QUORUM_FLOOR}), all_equivalent={}",
        top.config.workload.name(),
        top.config.shards,
        top.config.batch,
        top.config.replicas,
        top.ops_per_sec,
        top.p50_nanos as f64 / 1e3,
        top.p99_nanos as f64 / 1e3,
        account_calm_over_quorum(&rows),
        all_equivalent
    );

    let json = to_json(&rows);
    std::fs::write("BENCH_realtime_throughput.json", &json)
        .expect("write BENCH_realtime_throughput.json");
    println!("wrote BENCH_realtime_throughput.json");
}
