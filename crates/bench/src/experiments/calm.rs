//! CALM fast-path latency and availability (PERF-C).
//!
//! The monotonicity analyzer ([`relax_quorum::calm::analyze_account`])
//! classifies the bank account's `Credit` monotone at the `{A2}`-only
//! lattice level, so a [`SchedulingPolicy`] may execute it
//! coordination-free: respond against the initial value, append to a
//! client WAL, ship to every replica without waiting — no read phase, no
//! quorum, no timer. This experiment shows what the discrete-event
//! simulator can show of that — equivalence and availability. What it
//! buys in time is a wall-clock question (a free operation takes zero
//! sim ticks, so any tick ratio is a floor artefact), which the repo's
//! benchmark answers: workload `account_calm`, `ops_per_s` and
//! `quorum.calm.fast_vs_quorum_ratio`.
//!
//! * **Healthy rows** run the same workload under the all-quorum
//!   baseline and under the analyzer-derived policy with identical
//!   seeds and demand the two runs be *observably equivalent* (same
//!   outcome shapes, merged history, and replica logs). The monotone
//!   ops' p50 latency in sim ticks is reported, not gated.
//! * **Availability rows** partition the client from every replica
//!   before the workload starts and heal afterwards: baseline credits
//!   time out; fast-path credits must stay 100% available and still
//!   converge to every replica once the partition heals and WALs flush.
//!
//! The gate: fast-path availability 1.0 under the quorum-blocking
//! partition, and every row equivalent. A run that misses it fails
//! (exit 1) after printing its table.

use relax_quorum::calm::{analyze_account, SchedulingPolicy};
use relax_quorum::protocol::wire::Outcome;
use relax_quorum::relation::{account_relation, AccountKind};
use relax_quorum::types::{AccountInv, BankAccountType};
use relax_quorum::{outcome_shapes, ClientConfig, LayerCounts, QuorumSystem, VotingAssignment};
use relax_sim::{Fault, FaultSchedule, NetworkConfig, NodeId, Partition, SimTime};

use crate::args::Args;
use crate::experiments::quantile;
use crate::table::Table;

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Replica sites.
    pub replicas: usize,
    /// Invocations the single client submits.
    pub ops: usize,
    /// Every `debit_every`-th invocation is a debit (coordination-
    /// requiring); the rest are credits (monotone).
    pub debit_every: usize,
    /// Partition the client from every replica for the whole workload,
    /// healing afterwards (the availability row).
    pub partitioned: bool,
}

/// The sweep `relax-bench calm_fastpath` runs: healthy latency rows
/// across replica counts and workload mixes, plus one availability row
/// per replica count.
pub const SWEEP: &[Config] = &[
    Config {
        replicas: 3,
        ops: 256,
        debit_every: 16,
        partitioned: false,
    },
    Config {
        replicas: 3,
        ops: 256,
        debit_every: 4,
        partitioned: false,
    },
    Config {
        replicas: 5,
        ops: 256,
        debit_every: 16,
        partitioned: false,
    },
    Config {
        replicas: 3,
        ops: 128,
        debit_every: 8,
        partitioned: true,
    },
    Config {
        replicas: 5,
        ops: 128,
        debit_every: 8,
        partitioned: true,
    },
];

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct CalmRow {
    /// The configuration.
    pub config: Config,
    /// Monotone (fast-path-eligible) invocations in the workload.
    pub free_ops: u64,
    /// Coordination-requiring invocations in the workload.
    pub quorum_ops: u64,
    /// Baseline monotone-op p50 latency (sim ticks; completed ops only).
    pub base_p50: u64,
    /// Fast-path monotone-op p50 latency.
    pub fast_p50: u64,
    /// Completed fraction of monotone ops under the baseline.
    pub availability_base: f64,
    /// Completed fraction of monotone ops under the fast path.
    pub availability_fast: f64,
    /// Healthy rows: the two runs observably identical. Availability
    /// rows: credits completed, baseline credits blocked, and every
    /// fast-path entry reached every replica after heal + flush.
    pub equivalent: bool,
}

/// An assignment realizing the `{A2}`-only relation: single-site credit
/// quorums (no forced intersections), majority debit quorums (Debit
/// initial ∩ Debit final). Credits still pay a read and a write
/// round-trip on the quorum path — exactly what the fast path deletes.
fn a2_assignment(n: usize) -> VotingAssignment<AccountKind> {
    let maj = n / 2 + 1;
    VotingAssignment::new(n)
        .with_initial(AccountKind::Credit, 1)
        .with_final(AccountKind::Credit, 1)
        .with_initial(AccountKind::Debit, maj)
        .with_final(AccountKind::Debit, maj)
}

/// The workload: credits of varying amounts, every `debit_every`-th
/// invocation a debit.
fn inv(i: usize, debit_every: usize) -> AccountInv {
    if i % debit_every == debit_every - 1 {
        AccountInv::Debit(1)
    } else {
        AccountInv::Credit(1 + (i % 3) as u32)
    }
}

/// Everything a run leaves behind that a row inspects.
struct RunResult {
    outcomes: Vec<Outcome<relax_queues::AccountOp>>,
    history: Vec<relax_queues::AccountOp>,
    replica_logs: Vec<relax_quorum::Log<relax_queues::AccountOp>>,
    counts: LayerCounts,
}

fn run_one(policy: SchedulingPolicy<AccountKind>, config: Config) -> RunResult {
    let mut sys = QuorumSystem::new(
        BankAccountType,
        config.replicas,
        a2_assignment(config.replicas),
        ClientConfig::default(),
        NetworkConfig::new(3, 10, 0.0),
        0xCA1A + config.replicas as u64,
    )
    .with_scheduling(policy);

    let horizon = 400 * config.ops as u64;
    if config.partitioned {
        let client = vec![NodeId(config.replicas)];
        let replicas: Vec<NodeId> = (0..config.replicas).map(NodeId).collect();
        sys.world_mut().set_schedule(
            FaultSchedule::new()
                .at(
                    SimTime(0),
                    Fault::Partition(Partition::groups(vec![client, replicas])),
                )
                .at(SimTime(horizon), Fault::Heal),
        );
    }
    for i in 0..config.ops {
        sys.submit(inv(i, config.debit_every));
    }
    sys.run_until(SimTime(horizon + 400));
    // Post-heal: flush WALs so fast-path entries swallowed by the
    // partition converge, then quiesce.
    sys.flush_wals();
    sys.run_until(SimTime(horizon + 800));

    RunResult {
        outcomes: sys.outcomes().to_vec(),
        history: sys.merged_history().into_ops(),
        replica_logs: (0..config.replicas)
            .map(|i| sys.replica_log(i).clone())
            .collect(),
        counts: sys.counts(),
    }
}

/// Latencies (sim ticks) of the completed monotone ops, ascending.
fn credit_latencies(config: Config, outcomes: &[Outcome<relax_queues::AccountOp>]) -> Vec<u64> {
    let mut lat: Vec<u64> = outcomes
        .iter()
        .enumerate()
        .filter(|(i, _)| matches!(inv(*i, config.debit_every), AccountInv::Credit(_)))
        .filter_map(|(_, o)| match o {
            Outcome::Completed { latency, .. } => Some(*latency),
            _ => None,
        })
        .collect();
    lat.sort_unstable();
    lat
}

/// Builds, loads, and runs one sweep point end to end — baseline and
/// fast-path runs over the identical workload and seed.
pub fn measure(config: Config) -> CalmRow {
    let report = analyze_account(&account_relation(false, true));
    let policy = SchedulingPolicy::from_report(&report);
    assert!(policy.is_free(AccountKind::Credit), "analyzer regressed");
    assert!(!policy.is_free(AccountKind::Debit), "analyzer unsound");

    let base = run_one(SchedulingPolicy::all_quorum(), config);
    let fast = run_one(policy, config);

    let free_ops = (0..config.ops)
        .filter(|&i| matches!(inv(i, config.debit_every), AccountInv::Credit(_)))
        .count() as u64;
    let quorum_ops = config.ops as u64 - free_ops;
    debug_assert_eq!(fast.counts.calm_fast_ops, free_ops);
    debug_assert_eq!(fast.counts.calm_quorum_ops, quorum_ops);
    debug_assert_eq!(base.counts.calm_fast_ops, 0);
    debug_assert_eq!(base.counts.calm_quorum_ops, config.ops as u64);

    let base_lat = credit_latencies(config, &base.outcomes);
    let fast_lat = credit_latencies(config, &fast.outcomes);
    let availability_base = base_lat.len() as f64 / free_ops as f64;
    let availability_fast = fast_lat.len() as f64 / free_ops as f64;

    let equivalent = if config.partitioned {
        // Graceful degradation, not bit-equality: fast credits all
        // completed, baseline credits all blocked by the partition, and
        // after heal + flush every replica holds every credit.
        availability_fast == 1.0
            && availability_base == 0.0
            && fast.replica_logs.iter().all(|log| {
                log.to_history()
                    .into_ops()
                    .iter()
                    .filter(|op| matches!(op, relax_queues::AccountOp::Credit(_)))
                    .count() as u64
                    == free_ops
            })
    } else {
        outcome_shapes(&base.outcomes) == outcome_shapes(&fast.outcomes)
            && base.history == fast.history
            && base.replica_logs == fast.replica_logs
    };

    CalmRow {
        config,
        free_ops,
        quorum_ops,
        base_p50: quantile(&base_lat, 0.5),
        fast_p50: quantile(&fast_lat, 0.5),
        availability_base,
        availability_fast,
        equivalent,
    }
}

/// Measures every sweep point and renders the table.
pub fn run(sweep: &[Config]) -> (Table, Vec<CalmRow>) {
    let rows: Vec<CalmRow> = sweep.iter().map(|&c| measure(c)).collect();
    let mut t = Table::new([
        "replicas",
        "ops",
        "debit every",
        "faults",
        "free",
        "quorum",
        "base p50",
        "fast p50",
        "avail base",
        "avail fast",
        "verdict",
    ]);
    for r in &rows {
        t.row([
            r.config.replicas.to_string(),
            r.config.ops.to_string(),
            r.config.debit_every.to_string(),
            if r.config.partitioned {
                "partition".to_string()
            } else {
                "none".to_string()
            },
            r.free_ops.to_string(),
            r.quorum_ops.to_string(),
            r.base_p50.to_string(),
            r.fast_p50.to_string(),
            format!("{:.2}", r.availability_base),
            format!("{:.2}", r.availability_fast),
            if r.equivalent {
                "EQUIVALENT".to_string()
            } else {
                "DIVERGED".to_string()
            },
        ]);
    }
    (t, rows)
}

/// The gate line over `rows`, and whether the gate holds: the worst
/// fast-path availability across the partitioned rows is 1.0 and every
/// row is equivalent.
pub fn gate(rows: &[CalmRow]) -> (String, bool) {
    let availability = (rows.iter())
        .filter(|r| r.config.partitioned)
        .map(|r| r.availability_fast)
        .fold(1.0, f64::min);
    let all_equivalent = rows.iter().all(|r| r.equivalent);
    let line = format!(
        "gate: fast availability under partition {availability:.2}, \
         all_equivalent={all_equivalent}"
    );
    (line, availability == 1.0 && all_equivalent)
}

/// `relax-bench calm_fastpath`: runs [`SWEEP`], prints the table and the
/// gate line, and fails (exit 1) when the [`gate`] does not hold.
pub fn main(_: &Args) -> Result<(), String> {
    println!("== CALM fast path: coordination-free monotone operations ==\n");
    let (table, rows) = run(SWEEP);
    println!("{table}");
    let (line, holds) = gate(&rows);
    println!("{line}");
    if holds {
        Ok(())
    } else {
        Err(format!("{line}: the gate does not hold"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(partitioned: bool) -> Config {
        Config {
            replicas: 3,
            ops: 24,
            debit_every: 8,
            partitioned,
        }
    }

    #[test]
    fn healthy_row_is_equivalent_and_the_fast_path_waits_on_nothing() {
        let row = measure(small(false));
        assert!(row.equivalent, "healthy fast path diverged");
        assert_eq!(row.free_ops + row.quorum_ops, 24);
        assert_eq!(row.fast_p50, 0, "fast path waits on nothing");
        assert!(row.base_p50 > 0, "the quorum path pays round trips");
    }

    #[test]
    fn partitioned_row_keeps_free_ops_available() {
        let row = measure(small(true));
        assert_eq!(row.availability_fast, 1.0);
        assert_eq!(row.availability_base, 0.0);
        assert!(row.equivalent, "post-heal convergence failed");
    }

    /// The sweep `relax-bench calm_fastpath` runs, in full, passes its
    /// gate; a row that diverges fails it.
    #[test]
    fn the_full_sweep_passes_the_gate_and_a_divergence_fails_it() {
        let (_, mut rows) = run(SWEEP);
        let (line, holds) = gate(&rows);
        assert!(holds, "{line}");
        rows[0].equivalent = false;
        let (line, holds) = gate(&rows);
        assert!(!holds && line.ends_with("all_equivalent=false"), "{line}");
    }
}
