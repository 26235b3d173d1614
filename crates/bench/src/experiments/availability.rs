//! Figure 5-1's "Availability" cost, made measurable (§3.3).
//!
//! Two views of the same trade-off:
//!
//! * **analytic** — `operation_availability` per quorum assignment as the
//!   site-up probability varies;
//! * **operational** — the replicated taxi queue on the simulator with
//!   random site crashes, counting timeouts.
//!
//! The assignments swept realize the `Q1` trade-off ("if one operation's
//! quorums are made smaller … the other's must be made larger") and the
//! `Q2` majority consequence.

use relax_automata::SplitMix64;
use relax_core::cost::operation_availability;
use relax_quorum::relation::QueueKind;
use relax_quorum::types::{QueueInv, TaxiQueueType};
use relax_quorum::{queue_relation, ClientConfig, QuorumSystem, VotingAssignment};
use relax_sim::{NetworkConfig, NodeId};
use relax_trace::metrics::wire;
use relax_trace::{read_trace, Registry, TraceAnalysis};

use crate::args::Args;
use crate::experiments::degradation::run_partition_scenario;
use crate::experiments::par::fan_trials;
use crate::experiments::write_file;
use crate::table::Table;

/// A named quorum assignment for the sweep.
#[derive(Debug, Clone)]
pub struct NamedAssignment {
    /// Display label.
    pub label: String,
    /// The assignment.
    pub assignment: VotingAssignment<QueueKind>,
}

/// The `Q1` trade-off family over `n` sites: final Enq quorums of size
/// `f` paired with initial Deq quorums of size `n - f + 1`, with `Q2`
/// satisfied by majority Deq final quorums. Every member satisfies
/// `{Q1, Q2}`.
pub fn tradeoff_family(n: usize) -> Vec<NamedAssignment> {
    let rel = queue_relation(true, true);
    let mut out = Vec::new();
    for enq_final in 1..=n {
        let deq_initial = n - enq_final + 1;
        let deq_final = n - deq_initial + 1; // Q2: deq_init + deq_final > n
        let a = VotingAssignment::new(n)
            .with_initial(QueueKind::Enq, 1)
            .with_final(QueueKind::Enq, enq_final)
            .with_initial(QueueKind::Deq, deq_initial)
            .with_final(QueueKind::Deq, deq_final);
        debug_assert!(a.satisfies(&rel));
        out.push(NamedAssignment {
            label: format!("Enq fin={enq_final} / Deq init={deq_initial}"),
            assignment: a,
        });
    }
    out
}

/// One analytic sweep row.
#[derive(Debug, Clone)]
pub struct AvailabilityRow {
    /// Assignment label.
    pub label: String,
    /// Analytic Enq availability.
    pub enq_analytic: f64,
    /// Analytic Deq availability.
    pub deq_analytic: f64,
    /// Measured Enq availability (simulator).
    pub enq_measured: f64,
    /// Measured Deq availability (simulator).
    pub deq_measured: f64,
}

/// Runs the sweep at one site-up probability.
pub fn sweep(n: usize, p_up: f64, trials: u32, seed: u64) -> Vec<AvailabilityRow> {
    tradeoff_family(n)
        .into_iter()
        .map(|na| {
            let enq_analytic = operation_availability(
                n,
                na.assignment.initial_size(QueueKind::Enq),
                na.assignment.final_size(QueueKind::Enq),
                p_up,
            );
            let deq_analytic = operation_availability(
                n,
                na.assignment.initial_size(QueueKind::Deq),
                na.assignment.final_size(QueueKind::Deq),
                p_up,
            );
            let (enq_measured, deq_measured) = measure(n, &na.assignment, p_up, trials, seed);
            AvailabilityRow {
                label: na.label,
                enq_analytic,
                deq_analytic,
                enq_measured,
                deq_measured,
            }
        })
        .collect()
}

/// Operational measurement: crash each site independently with
/// probability `1 - p_up`, preload one request, then attempt one Enq and
/// one Deq; count completions.
fn measure(
    n: usize,
    assignment: &VotingAssignment<QueueKind>,
    p_up: f64,
    trials: u32,
    seed: u64,
) -> (f64, f64) {
    let reg = measure_registry(n, assignment, p_up, trials, seed);
    let rate = |name: &str| reg.get_counter(name).and_then(|c| c.rate()).unwrap_or(0.0);
    (rate("enq"), rate("deq"))
}

/// Like `measure`, but returns the full metrics registry: availability
/// counters (`enq`, `deq`), completion-latency histograms
/// (`enq_latency`, `deq_latency`), and summed wire gauges
/// (`wire_shipped_bytes`, `wire_messages_sent`).
///
/// Trials fan across scoped threads (everything a trial needs derives
/// from its index) and their registries merge back in trial order, so
/// the result is identical to [`measure_registry_sequential`].
pub fn measure_registry(
    n: usize,
    assignment: &VotingAssignment<QueueKind>,
    p_up: f64,
    trials: u32,
    seed: u64,
) -> Registry {
    let regs = fan_trials(trials, |trial| {
        trial_registry(n, assignment, p_up, trial, seed)
    });
    let mut reg = Registry::new();
    for r in &regs {
        reg.merge_accumulating(r);
    }
    reg
}

/// The sequential reference for [`measure_registry`] (same trials, same
/// merge order, one thread) — pinned equal by test.
pub fn measure_registry_sequential(
    n: usize,
    assignment: &VotingAssignment<QueueKind>,
    p_up: f64,
    trials: u32,
    seed: u64,
) -> Registry {
    let mut reg = Registry::new();
    for trial in 0..trials {
        reg.merge_accumulating(&trial_registry(n, assignment, p_up, trial, seed));
    }
    reg
}

/// One availability trial, self-contained: crash draws come from a
/// per-trial rng (not a shared stream), so trials can run on any thread
/// in any order and still produce identical results.
fn trial_registry(
    n: usize,
    assignment: &VotingAssignment<QueueKind>,
    p_up: f64,
    trial: u32,
    seed: u64,
) -> Registry {
    let mut reg = Registry::new();
    let mut rng = SplitMix64::seed_from_u64(
        seed.rotate_left(17) ^ u64::from(trial).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let mut sys = QuorumSystem::new(
        TaxiQueueType,
        n,
        assignment.clone(),
        ClientConfig::default(),
        NetworkConfig::new(1, 10, 0.0),
        seed ^ (u64::from(trial) * 2_654_435_761),
    )
    .with_wire_accounting();
    // Preload a request while everything is up, so Deq has something
    // to return.
    sys.submit(QueueInv::Enq(5));
    sys.run_to_first_outcome(100_000);

    // Crash sites per p_up.
    for site in 0..n {
        if rng.next_f64() > p_up {
            sys.world_mut().network_mut().crash(NodeId(site));
        }
    }
    sys.submit(QueueInv::Enq(7));
    sys.submit(QueueInv::Deq);
    sys.run_to_quiescence(300_000);
    let outcomes = sys.outcomes();
    // An operation is *available* when its quorum was assembled:
    // Completed, or Refused (a Deq that ran but saw no visible item).
    // Only a timeout counts against availability.
    if let Some(o) = outcomes.get(1) {
        o.record_to(&mut reg, "enq");
    }
    if let Some(o) = outcomes.get(2) {
        o.record_to(&mut reg, "deq");
    }
    reg.gauge(wire::BYTES_SHIPPED)
        .set(sys.world().bytes_sent() as i64);
    reg.gauge(wire::MESSAGES_SENT)
        .set(sys.world().messages_sent() as i64);
    reg
}

/// Renders a sweep.
pub fn render(rows: &[AvailabilityRow]) -> Table {
    let mut t = Table::new([
        "assignment",
        "Enq avail (analytic)",
        "Enq avail (sim)",
        "Deq avail (analytic)",
        "Deq avail (sim)",
    ]);
    for r in rows {
        t.row([
            r.label.clone(),
            format!("{:.3}", r.enq_analytic),
            format!("{:.3}", r.enq_measured),
            format!("{:.3}", r.deq_analytic),
            format!("{:.3}", r.deq_measured),
        ]);
    }
    t
}

/// `relax-bench availability [--trace [PATH]]`: the sweep at three
/// site-up probabilities. With `--trace` it also runs the §3.3
/// degradation scenario (partitions force the taxi queue from `PQ` down
/// to `MPQ`), writes the structured sim-time trace as JSONL to `PATH`
/// (default `availability_trace.jsonl`), prints the metrics registry and
/// the monitor's verdict, and re-ingests the file for the causal
/// analysis `trace_analyze` would print.
pub fn main(args: &Args) -> Result<(), String> {
    println!("== Availability vs quorum assignment (taxi queue, n = 5 sites) ==\n");
    for p_up in [0.95, 0.85, 0.70] {
        println!("site-up probability p = {p_up}: (200 trials each)");
        let rows = sweep(5, p_up, 200, 0x5EED);
        println!("{}", render(&rows));
    }
    println!("shape: shrinking Enq final quorums buys Enq availability at the");
    println!("price of Deq availability (Q1), and Deq quorums stay majorities (Q2).");

    if !args.has("--trace") {
        println!("\n(pass --trace [PATH] to run the degradation scenario and dump a JSONL trace)");
        return Ok(());
    }
    let path = args.value("--trace").unwrap_or("availability_trace.jsonl");
    let mut report = run_partition_scenario(0x5EED);
    write_file(path, &report.trace_jsonl)?;
    println!("\n== Degradation scenario (Q1 held, Q2 dropped) ==\n");
    println!(
        "trace: {} events -> {path} (crashes, partitions, quorum \
         assembly/failure, level transitions)",
        report.events.len()
    );
    println!("\nmetrics registry:\n{}", report.registry.summary());
    for t in &report.transitions {
        println!(
            "level transition at op #{}: left {:?}, now {:?}, witness {}",
            t.op_index, t.left, t.now, t.witness
        );
    }
    println!(
        "history of {} completed ops classifies as: {}",
        report.observed_ops.len(),
        report.current_level.as_deref().unwrap_or("(none)")
    );

    // Close the loop: re-ingest the file we just wrote and run the
    // causal analysis over it, exactly as `trace_analyze` would.
    let written = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let parsed = read_trace(&written).map_err(|e| format!("{path}: {e}"))?;
    let analysis = TraceAnalysis::from_trace(parsed);
    println!("\n== Causal analysis (re-ingested from {path}) ==\n");
    print!("{}", analysis.report());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_satisfies_full_relation() {
        let rel = queue_relation(true, true);
        for na in tradeoff_family(5) {
            assert!(na.assignment.satisfies(&rel), "{}", na.label);
        }
    }

    #[test]
    fn tradeoff_shape_holds() {
        // As Enq final quorums shrink, Enq availability rises and Deq
        // availability falls (analytically).
        let rows = sweep(3, 0.8, 12, 42);
        assert!(rows.first().unwrap().enq_analytic >= rows.last().unwrap().enq_analytic);
        assert!(rows.first().unwrap().deq_analytic <= rows.last().unwrap().deq_analytic);
    }

    #[test]
    fn simulation_tracks_analytic_roughly() {
        let rows = sweep(3, 0.85, 60, 7);
        for r in &rows {
            assert!(
                (r.enq_measured - r.enq_analytic).abs() < 0.2,
                "{}: enq sim {} vs analytic {}",
                r.label,
                r.enq_measured,
                r.enq_analytic
            );
            assert!(
                (r.deq_measured - r.deq_analytic).abs() < 0.2,
                "{}: deq sim {} vs analytic {}",
                r.label,
                r.deq_measured,
                r.deq_analytic
            );
        }
    }

    #[test]
    fn parallel_trials_match_sequential_exactly() {
        let na = &tradeoff_family(3)[1];
        let par = measure_registry(3, &na.assignment, 0.8, 24, 123);
        let seq = measure_registry_sequential(3, &na.assignment, 0.8, 24, 123);
        assert_eq!(par, seq);
    }

    #[test]
    fn wire_gauges_accumulate_across_trials() {
        let na = &tradeoff_family(3)[0];
        let one = measure_registry(3, &na.assignment, 1.0, 1, 9);
        let four = measure_registry(3, &na.assignment, 1.0, 4, 9);
        let bytes = |r: &Registry| r.get_gauge(wire::BYTES_SHIPPED).map_or(0, |g| g.value());
        assert!(bytes(&one) > 0);
        assert!(bytes(&four) > bytes(&one));
    }

    #[test]
    fn render_has_row_per_assignment() {
        let rows = sweep(3, 0.9, 5, 1);
        assert_eq!(render(&rows).len(), 3);
    }
}
