//! CALM fast path: coordination-free execution of monotone operations.
//!
//! The monotonicity analyzer classifies the bank account's `Credit`
//! monotone at the `{A2}` lattice level; the scheduling policy then
//! executes credits with no read phase, no quorum wait, and no timer.
//! Sweeps replica counts and workload mixes against the all-quorum
//! baseline under identical seeds: observational equivalence on healthy
//! rows, availability under a quorum-blocking partition. (What the fast
//! path buys in time is measured on the wall clock, by
//! `exp_realtime_throughput`'s `account_calm_over_quorum`.)
//!
//! Results go to `BENCH_calm_fastpath.json`; CI requires
//! `within_target: true` (fast-path availability 1.0 under a
//! quorum-blocking partition, every row equivalent).

use relax_bench::experiments::calm::{gate_availability, run, to_json, SWEEP};

fn main() {
    println!("== CALM fast path: coordination-free monotone operations ==\n");
    let (table, rows) = run(SWEEP);
    println!("{table}");

    let availability = gate_availability(&rows);
    let all_equivalent = rows.iter().all(|r| r.equivalent);
    println!(
        "gate: fast availability under partition {availability:.2}, \
         all_equivalent={all_equivalent}"
    );

    let json = to_json(&rows);
    std::fs::write("BENCH_calm_fastpath.json", &json).expect("write BENCH_calm_fastpath.json");
    println!("wrote BENCH_calm_fastpath.json");
}
