//! Prices the structured-tracing instrumentation on the availability
//! experiment (the workload every quorum measurement runs through).
//!
//! Three configurations of the *same* seeded workload:
//!
//! * `baseline` — tracer absent (the default `Tracer::disabled()` path:
//!   one branch per would-be event);
//! * `enabled` — tracing on with a bounded 4096-event ring buffer per
//!   trial world;
//! * results are written to `BENCH_trace_overhead.json` so successive
//!   PRs can track the overhead trajectory.
//!
//! Targets: enabled ≤ `TARGET_PCT`% slowdown over baseline; the
//! disabled path is the baseline by construction (~0% — it *is* the
//! default).
//!
//! The gate is a ratio, so it moves when the *base* moves: a change that
//! makes the untraced sweep faster raises the percentage at the same
//! absolute tracing cost. That cost — `enabled − baseline` in
//! nanoseconds per operation, the median over the same blocks — is
//! printed and recorded beside the percentage, so the two can be told
//! apart. The quartiles of the per-block ratios are printed and recorded
//! with the median so a reading near the gate shows as one.

use std::time::Instant;

use crate::args::Args;
use crate::experiments::availability::{measure_registry_traced, tradeoff_family};
use crate::experiments::{abba, write_payload};

const N: usize = 5;
const P_UP: f64 = 0.85;
const TRIALS: u32 = 120;
const SEED: u64 = 0x5EED;
const REPS: usize = 52;

/// Invocations a trial submits (`Enq`, `Enq`, `Deq`).
const OPS_PER_TRIAL: usize = 3;

/// The budget, in percent of the untraced sweep.
const TARGET_PCT: f64 = 10.0;

/// Times one full sweep over the trade-off family, returning wall-clock
/// nanoseconds.
fn one_sweep(trace_capacity: usize, rep: usize) -> u128 {
    let family = tradeoff_family(N);
    let start = Instant::now();
    for na in &family {
        let reg = measure_registry_traced(
            N,
            &na.assignment,
            P_UP,
            TRIALS,
            SEED ^ rep as u64,
            trace_capacity,
        );
        std::hint::black_box(reg);
    }
    start.elapsed().as_nanos()
}

/// `relax-bench trace_overhead`: times the sweep untraced and traced,
/// prints the median overhead with its quartiles, and writes
/// `BENCH_trace_overhead.json`.
pub fn main(_: &Args) -> Result<(), String> {
    // Warm-up: touch both code paths once.
    std::hint::black_box(measure_registry_traced(
        N,
        &tradeoff_family(N)[0].assignment,
        P_UP,
        10,
        SEED,
        0,
    ));
    std::hint::black_box(measure_registry_traced(
        N,
        &tradeoff_family(N)[0].assignment,
        P_UP,
        10,
        SEED,
        4096,
    ));

    // ABBA blocks of two reps: a sweep that repeats the seed of the one
    // before it runs warm and one that opens a new seed runs cold, so
    // each side gets one of each per block — with the baseline always
    // first, the enabled sweep was always the warm one and the overhead
    // read low. The gate is the median per-block ratio.
    let sweep_ops = tradeoff_family(N).len() * TRIALS as usize * OPS_PER_TRIAL;
    let timing = abba(REPS / 2, sweep_ops, |traced, rep| {
        one_sweep(if traced { 4096 } else { 0 }, rep)
    });
    let (baseline_ns, enabled_ns) = (timing.baseline_ns, timing.enabled_ns);
    let added_ns_per_op = timing.added_ns_per_op;
    let overhead_pct = 100.0 * (timing.ratio - 1.0);
    let (q1_pct, q3_pct) = (
        100.0 * (timing.quartiles.0 - 1.0),
        100.0 * (timing.quartiles.1 - 1.0),
    );

    println!("== Tracing overhead on the availability sweep ==\n");
    println!(
        "workload: n={N} sites, p_up={P_UP}, {TRIALS} trials x {} assignments, median ratio of {} ABBA blocks of two reps",
        tradeoff_family(N).len(),
        REPS / 2
    );
    println!("tracing disabled (baseline): {baseline_ns:>12} ns (min rep)");
    println!("tracing enabled  (cap 4096): {enabled_ns:>12} ns (min rep)");
    println!(
        "overhead: {overhead_pct:+.2}%  [quartiles {q1_pct:+.2}% .. {q3_pct:+.2}%]  (target: <= {TARGET_PCT}%)"
    );
    println!(
        "enabled - baseline: {added_ns_per_op:+.1} ns per operation (median block, {sweep_ops} operations a sweep)"
    );

    let json = format!(
        "{{\"bench\":\"trace_overhead\",\"workload\":\"availability_sweep\",\
         \"n\":{N},\"p_up\":{P_UP},\"trials\":{TRIALS},\"reps\":{REPS},\
         \"baseline_ns\":{baseline_ns},\"enabled_ns\":{enabled_ns},\
         \"overhead_pct\":{overhead_pct:.3},\"overhead_q1_pct\":{q1_pct:.3},\
         \"overhead_q3_pct\":{q3_pct:.3},\"added_ns_per_op\":{added_ns_per_op:.1},\
         \"ops_per_sweep\":{sweep_ops},\"target_pct\":{TARGET_PCT:.1},\
         \"within_target\":{}}}\n",
        overhead_pct <= TARGET_PCT
    );
    write_payload("BENCH_trace_overhead.json", &json)?;
    println!("\nwrote BENCH_trace_overhead.json");
    Ok(())
}
