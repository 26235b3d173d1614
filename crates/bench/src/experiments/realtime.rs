//! Wall-clock throughput of the sharded threaded backend (PERF-T).
//!
//! Sweeps shard count × group-commit batch × replica count over the
//! taxi-queue and bank-account workloads, each row driving hundreds of
//! thousands of operations through [`ThreadedSystem`] and measuring
//! aggregate operations per wall-clock second plus p50/p99 operation
//! latency from the backend's wall-nanosecond histogram.
//!
//! Every row also runs an *equivalence probe*: a small single-client
//! prefix of the row's workload through both the discrete-event
//! simulator and the threaded backend (same replica count), demanding
//! exactly equal outcome shapes, replica logs, and merged history — the
//! differential-oracle check inlined into the benchmark, so a fast but
//! wrong backend cannot pass the gate. (The full randomized oracle
//! lives in `relax-quorum/tests/backend_oracle.rs`.)
//!
//! The last sweep point is a pair: the account stream on one shard with
//! credits scheduled coordination-free (the CALM analyzer's verdict at
//! `{A2}`) against the same stream under all-quorum scheduling, the two
//! alternated. Their throughput ratio, `account_calm_over_quorum`, is the
//! wall-clock cost of the freed path against the quorum path it skips —
//! the number the sim cannot give, because a free operation there takes
//! zero ticks. On a healthy run it reads about 1.0: a round's read rides
//! the previous round's group commit, so a quorum round blocks on its
//! brokers once, as a free round does, and the read costs a delta, not a
//! round trip. What the freed path buys is availability when quorums
//! are lost (the sim rows of `exp_calm_fastpath`), not wall-clock speed.
//!
//! The gate: the best sweep point must clear
//! [`TARGET_OPS_PER_SEC`], the coordination-free side of the pair must
//! not be slower than the quorum side ([`CALM_OVER_QUORUM_FLOOR`]), and
//! every row must be equivalent.

use relax_quorum::calm::{analyze_account, SchedulingPolicy};
use relax_quorum::relation::{account_relation, AccountKind, QueueKind};
use relax_quorum::runtime::{AccountInv, BankAccountType, QueueInv, TaxiQueueType};
use relax_quorum::{
    outcome_shapes, ClientConfig, ClientTable, Executor, OutcomeShape, QuorumSystem,
    ReplicatedType, ThreadedConfig, ThreadedSystem, VotingAssignment,
};
use relax_sim::NetworkConfig;
use relax_trace::TimeBase;

use crate::table::Table;

/// The gate: aggregate operations per second the best sweep point must
/// reach.
pub const TARGET_OPS_PER_SEC: f64 = 1_000_000.0;

/// The gate on `account_calm_over_quorum`: the freed path is not slower
/// than the quorum path it skips. Both cost one broker visit per round,
/// so the ratio reads about 1.0; the floor leaves room for the spread of
/// [`PAIR_RUNS`] alternations, not for a slower path.
pub const CALM_OVER_QUORUM_FLOOR: f64 = 0.9;

/// Broker flush deadline used by every row (microseconds).
pub const FLUSH_MICROS: u64 = 20;

/// Alternations of the CALM pair; each side reports its median run. A
/// run is 128 rounds, some 15 ms: unpinned, the ratio of two five-run
/// medians reads 0.78–1.36 from one pair to the next, of two
/// twenty-five-run medians 0.95–1.12, which is what lets
/// [`CALM_OVER_QUORUM_FLOOR`] sit a tenth under 1.0.
pub const PAIR_RUNS: usize = 25;

/// Which replicated type a row drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Taxi priority queue: non-commutative bag views (every dequeue
    /// evaluates the view), majority dequeue quorums.
    Taxi,
    /// Bank account: commutative integer views maintained incrementally,
    /// single-site credit quorums.
    Account,
    /// The account stream with `Credit` coordination-free, as
    /// `analyze_account` frees it at `{A2}`. A sweep point of this
    /// workload is measured as a pair — see [`measure_calm_pair`].
    AccountCalm,
}

impl Workload {
    /// Short name used in tables and the JSON payload.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Taxi => "taxi",
            Workload::Account => "account",
            Workload::AccountCalm => "account_calm",
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Shard front-end threads.
    pub shards: usize,
    /// Group-commit batch ceiling (also clients per shard).
    pub batch: usize,
    /// Replica sites.
    pub replicas: usize,
    /// Invocations each client submits.
    pub ops_per_client: usize,
}

/// The sweep the `exp_realtime_throughput` binary runs. Account rows
/// carry the deep batches (the commutative fast path the batching
/// layers exist for: views maintained incrementally, O(1) per op). Taxi
/// rows evaluate the view through `ViewCache` on every non-free op. On
/// one shard the view only ever grows by appends, so each evaluation
/// folds the new entries into the cached bag in place and the row
/// measures the backend; it is gated as `taxi_shard1_ops_per_sec`. On
/// four shards other shards' entries splice in below the cached point,
/// and a splice still copies one checkpointed bag per round — that row
/// is reported as measured and not gated. Both keep the size their
/// baseline was recorded at. The CALM pair closes the sweep, at the
/// benchmark's `account_calm` size.
pub const SWEEP: &[Config] = &[
    Config {
        workload: Workload::Taxi,
        shards: 1,
        batch: 64,
        replicas: 3,
        ops_per_client: 32,
    },
    Config {
        workload: Workload::Taxi,
        shards: 4,
        batch: 64,
        replicas: 3,
        ops_per_client: 32,
    },
    Config {
        workload: Workload::Account,
        shards: 1,
        batch: 256,
        replicas: 3,
        ops_per_client: 512,
    },
    Config {
        workload: Workload::Account,
        shards: 2,
        batch: 256,
        replicas: 3,
        ops_per_client: 256,
    },
    Config {
        workload: Workload::Account,
        shards: 4,
        batch: 256,
        replicas: 3,
        ops_per_client: 128,
    },
    Config {
        workload: Workload::Account,
        shards: 1,
        batch: 512,
        replicas: 3,
        ops_per_client: 256,
    },
    Config {
        workload: Workload::Account,
        shards: 1,
        batch: 256,
        replicas: 5,
        ops_per_client: 256,
    },
    Config {
        workload: Workload::AccountCalm,
        shards: 1,
        batch: 256,
        replicas: 3,
        ops_per_client: 128,
    },
];

/// One measured sweep point.
#[derive(Debug, Clone)]
pub struct RealtimeRow {
    /// The configuration.
    pub config: Config,
    /// Clients (`shards × batch`).
    pub clients: usize,
    /// Operations completed.
    pub ops: u64,
    /// Wall-clock nanoseconds for the whole run.
    pub wall_nanos: u64,
    /// Aggregate operations per second.
    pub ops_per_sec: f64,
    /// Median operation latency in nanoseconds (wall-clock, from the
    /// relax-trace registry's `WallNanos` histogram).
    pub p50_nanos: u64,
    /// 99th-percentile operation latency in nanoseconds.
    pub p99_nanos: u64,
    /// Did the row's equivalence probe find the threaded backend
    /// observably identical to the sim?
    pub equivalent: bool,
}

fn taxi_assignment(n: usize) -> VotingAssignment<QueueKind> {
    let maj = n / 2 + 1;
    VotingAssignment::new(n)
        .with_initial(QueueKind::Deq, maj)
        .with_final(QueueKind::Deq, maj)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, n - maj + 1)
}

fn account_assignment(n: usize) -> VotingAssignment<AccountKind> {
    VotingAssignment::new(n)
        .with_initial(AccountKind::Credit, 1)
        .with_final(AccountKind::Credit, 1)
        .with_initial(AccountKind::Debit, 1)
        .with_final(AccountKind::Debit, n)
}

/// The taxi workload: mostly enqueues (distinct priorities), every
/// eighth invocation a dequeue.
fn taxi_inv(client: usize, i: usize) -> QueueInv {
    if i % 8 == 7 {
        QueueInv::Deq
    } else {
        QueueInv::Enq((client * 1_000 + i) as i64)
    }
}

/// The account workload: credits with every sixteenth invocation a
/// debit (which must record at every site — the expensive write).
fn account_inv(_client: usize, i: usize) -> AccountInv {
    if i % 16 == 15 {
        AccountInv::Debit(1)
    } else {
        AccountInv::Credit(1)
    }
}

/// The scheduling policy of a row: the analyzer's verdict at `{A2}` for
/// [`Workload::AccountCalm`], all-quorum for everything else.
fn account_policy(workload: Workload) -> SchedulingPolicy<AccountKind> {
    match workload {
        Workload::AccountCalm => {
            SchedulingPolicy::from_report(&analyze_account(&account_relation(false, true)))
        }
        _ => SchedulingPolicy::all_quorum(),
    }
}

/// Runs a small single-client prefix of the row's workload through both
/// backends under the row's scheduling policy and compares outcome
/// shapes, per-replica logs, and the merged history exactly.
fn probe_equivalence<T>(
    ttype: T,
    replicas: usize,
    assignment: VotingAssignment<<T::Op as relax_quorum::HasKind>::Kind>,
    policy: SchedulingPolicy<<T::Op as relax_quorum::HasKind>::Kind>,
    invs: &[T::Inv],
) -> bool
where
    T: ReplicatedType + Clone + Sync,
    T::Op: PartialEq + Send + Sync,
    T::Inv: Send,
    T::Value: Send,
    <T::Op as relax_quorum::HasKind>::Kind: Sync,
{
    let mut sim = QuorumSystem::new(
        ttype.clone(),
        replicas,
        assignment.clone(),
        ClientConfig::default(),
        // Fixed delay, no loss: FIFO, so the sim is deterministic and
        // the threaded backend must reproduce it exactly.
        NetworkConfig::new(2, 2, 0.0),
        0xB0A7,
    )
    .with_scheduling(policy.clone());
    let mut thr = ThreadedSystem::new(ttype, replicas, 1, assignment, ThreadedConfig::default())
        .with_scheduling(policy);
    for inv in invs {
        sim.submit_to(0, inv.clone());
        thr.submit_to(0, inv.clone());
    }
    Executor::run_all(&mut sim);
    thr.run_all();
    let sim_shapes: Vec<OutcomeShape<T::Op>> = outcome_shapes(sim.outcomes_of(0));
    let thr_shapes: Vec<OutcomeShape<T::Op>> = outcome_shapes(ClientTable::outcomes_of(&thr, 0));
    sim_shapes == thr_shapes
        && (0..replicas).all(|i| sim.replica_log(i) == Executor::replica_log(&thr, i))
        && sim.merged_history() == Executor::merged_history(&thr)
}

/// Builds, loads, and runs one sweep point end to end.
pub fn measure(config: Config) -> RealtimeRow {
    let clients = config.shards * config.batch;
    let tc = ThreadedConfig {
        shards: config.shards,
        batch: config.batch,
        flush_micros: FLUSH_MICROS,
    };
    let (stats, p50, p99, equivalent) = match config.workload {
        Workload::Taxi => {
            let mut sys = ThreadedSystem::new(
                TaxiQueueType,
                config.replicas,
                clients,
                taxi_assignment(config.replicas),
                tc,
            );
            for c in 0..clients {
                for i in 0..config.ops_per_client {
                    sys.submit_to(c, taxi_inv(c, i));
                }
            }
            let stats = sys.run_all();
            let (p50, p99) = latency_quantiles(sys.registry());
            let probe: Vec<QueueInv> = (0..24).map(|i| taxi_inv(0, i)).collect();
            let eq = probe_equivalence(
                TaxiQueueType,
                config.replicas,
                taxi_assignment(config.replicas),
                SchedulingPolicy::all_quorum(),
                &probe,
            );
            (stats, p50, p99, eq)
        }
        Workload::Account | Workload::AccountCalm => {
            let policy = account_policy(config.workload);
            let mut sys = ThreadedSystem::new(
                BankAccountType,
                config.replicas,
                clients,
                account_assignment(config.replicas),
                tc,
            )
            .with_scheduling(policy.clone());
            for c in 0..clients {
                for i in 0..config.ops_per_client {
                    sys.submit_to(c, account_inv(c, i));
                }
            }
            let stats = sys.run_all();
            let (p50, p99) = latency_quantiles(sys.registry());
            let probe: Vec<AccountInv> = (0..24).map(|i| account_inv(0, i)).collect();
            let eq = probe_equivalence(
                BankAccountType,
                config.replicas,
                account_assignment(config.replicas),
                policy,
                &probe,
            );
            (stats, p50, p99, eq)
        }
    };
    RealtimeRow {
        config,
        clients,
        ops: stats.ops,
        wall_nanos: stats.wall_nanos,
        ops_per_sec: stats.ops_per_sec(),
        p50_nanos: p50,
        p99_nanos: p99,
        equivalent,
    }
}

/// Pulls p50/p99 out of the backend's wall-nanos latency histogram.
fn latency_quantiles(registry: &relax_trace::Registry) -> (u64, u64) {
    let Some(hist) = registry.get_histogram("realtime_op_latency_nanos") else {
        return (0, 0);
    };
    debug_assert_eq!(hist.time_base(), TimeBase::WallNanos);
    let mut hist = hist.clone();
    (
        hist.quantile(0.5).unwrap_or(0),
        hist.quantile(0.99).unwrap_or(0),
    )
}

/// Measures a [`Workload::AccountCalm`] point and the same point under
/// all-quorum scheduling, alternating the two [`PAIR_RUNS`] times so
/// that drift on the machine lands on both sides; each side reports the
/// run with its median throughput, coordination-free side first.
pub fn measure_calm_pair(calm: Config) -> [RealtimeRow; 2] {
    let quorum = Config {
        workload: Workload::Account,
        ..calm
    };
    let (mut fast, mut slow) = (Vec::new(), Vec::new());
    for _ in 0..PAIR_RUNS {
        fast.push(measure(calm));
        slow.push(measure(quorum));
    }
    let median = |mut runs: Vec<RealtimeRow>| {
        runs.sort_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec));
        runs.swap_remove(runs.len() / 2)
    };
    [median(fast), median(slow)]
}

/// Measures every sweep point and renders the table.
pub fn run(sweep: &[Config]) -> (Table, Vec<RealtimeRow>) {
    let mut rows: Vec<RealtimeRow> = Vec::new();
    for &c in sweep {
        match c.workload {
            Workload::AccountCalm => rows.extend(measure_calm_pair(c)),
            _ => rows.push(measure(c)),
        }
    }
    let mut t = Table::new([
        "workload",
        "shards",
        "batch",
        "replicas",
        "clients",
        "ops",
        "wall (ms)",
        "ops/sec",
        "p50 (µs)",
        "p99 (µs)",
        "verdict",
    ]);
    for r in &rows {
        t.row([
            r.config.workload.name().to_string(),
            r.config.shards.to_string(),
            r.config.batch.to_string(),
            r.config.replicas.to_string(),
            r.clients.to_string(),
            r.ops.to_string(),
            format!("{:.1}", r.wall_nanos as f64 / 1e6),
            format!("{:.0}", r.ops_per_sec),
            format!("{:.1}", r.p50_nanos as f64 / 1e3),
            format!("{:.1}", r.p99_nanos as f64 / 1e3),
            if r.equivalent {
                "EQUIVALENT".to_string()
            } else {
                "DIVERGED".to_string()
            },
        ]);
    }
    (t, rows)
}

/// The best (highest-throughput) row.
pub fn best(rows: &[RealtimeRow]) -> &RealtimeRow {
    rows.iter()
        .max_by(|a, b| a.ops_per_sec.total_cmp(&b.ops_per_sec))
        .expect("at least one sweep point")
}

/// Throughput of the first row of `workload` at `shards` shards.
fn ops_per_sec_at(rows: &[RealtimeRow], workload: Workload, shards: usize) -> Option<f64> {
    rows.iter()
        .find(|r| r.config.workload == workload && r.config.shards == shards)
        .map(|r| r.ops_per_sec)
}

/// The shard axis: throughput of the first 2-shard account row over the
/// first 1-shard one (in [`SWEEP`], the same batch and replica count).
/// Zero when the rows hold no such pair.
pub fn account_shard2_over_shard1(rows: &[RealtimeRow]) -> f64 {
    let at = |shards| ops_per_sec_at(rows, Workload::Account, shards);
    match (at(2), at(1)) {
        (Some(two), Some(one)) if one > 0.0 => two / one,
        _ => 0.0,
    }
}

/// Throughput of the one-shard taxi row — the one row whose every
/// dequeue runs `ViewCache` + `Bag` on the append-only (hit) path. Zero
/// when the rows hold none.
pub fn taxi_shard1_ops_per_sec(rows: &[RealtimeRow]) -> f64 {
    ops_per_sec_at(rows, Workload::Taxi, 1).unwrap_or(0.0)
}

/// What the coordination-free path costs on the wall clock beside the
/// quorum path: throughput of the first [`Workload::AccountCalm`] row
/// over the row that ran the same point under all-quorum scheduling (the
/// last such row: the pair's own, measured beside it). Zero when the
/// rows hold no such pair.
pub fn account_calm_over_quorum(rows: &[RealtimeRow]) -> f64 {
    let calm = rows
        .iter()
        .find(|r| r.config.workload == Workload::AccountCalm);
    let quorum = calm.and_then(|c| {
        let same_point = Config {
            workload: Workload::Account,
            ..c.config
        };
        rows.iter().rfind(|r| r.config == same_point)
    });
    match (calm, quorum) {
        (Some(c), Some(q)) if q.ops_per_sec > 0.0 => c.ops_per_sec / q.ops_per_sec,
        _ => 0.0,
    }
}

/// The gate: best row at the target, the coordination-free path not
/// slower than the quorum path it skips, every row equivalent to the sim.
pub fn within_target(rows: &[RealtimeRow]) -> bool {
    best(rows).ops_per_sec >= TARGET_OPS_PER_SEC
        && account_calm_over_quorum(rows) >= CALM_OVER_QUORUM_FLOOR
        && rows.iter().all(|r| r.equivalent)
}

/// Renders the rows as the `BENCH_realtime_throughput.json` payload.
pub fn to_json(rows: &[RealtimeRow]) -> String {
    let top = best(rows);
    let all_equivalent = rows.iter().all(|r| r.equivalent);
    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\":\"{}\",\"shards\":{},\"batch\":{},\"replicas\":{},\
                 \"clients\":{},\"ops\":{},\"wall_nanos\":{},\"ops_per_sec\":{:.0},\
                 \"p50_nanos\":{},\"p99_nanos\":{},\"equivalent\":{}}}",
                r.config.workload.name(),
                r.config.shards,
                r.config.batch,
                r.config.replicas,
                r.clients,
                r.ops,
                r.wall_nanos,
                r.ops_per_sec,
                r.p50_nanos,
                r.p99_nanos,
                r.equivalent
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"realtime_throughput\",\
         \"workloads\":\"taxi_queue,bank_account\",\
         \"flush_micros\":{FLUSH_MICROS},\
         \"rows\":[{}],\
         \"best_workload\":\"{}\",\"best_shards\":{},\"best_batch\":{},\
         \"best_replicas\":{},\"best_ops_per_sec\":{:.0},\
         \"best_p50_nanos\":{},\"best_p99_nanos\":{},\
         \"account_shard2_over_shard1\":{:.3},\
         \"taxi_shard1_ops_per_sec\":{:.0},\
         \"account_calm_over_quorum\":{:.3},\
         \"all_equivalent\":{all_equivalent},\
         \"target_ops_per_sec\":{TARGET_OPS_PER_SEC:.0},\
         \"within_target\":{}}}\n",
        row_json.join(","),
        top.config.workload.name(),
        top.config.shards,
        top.config.batch,
        top.config.replicas,
        top.ops_per_sec,
        top.p50_nanos,
        top.p99_nanos,
        account_shard2_over_shard1(rows),
        taxi_shard1_ops_per_sec(rows),
        account_calm_over_quorum(rows),
        within_target(rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny sweep point exercising both workloads end to end (debug
    /// builds run this; the 1M-ops/sec gate itself is release-only, in
    /// the binary).
    fn small(workload: Workload) -> Config {
        Config {
            workload,
            shards: 2,
            batch: 4,
            replicas: 3,
            ops_per_client: 6,
        }
    }

    #[test]
    fn rows_complete_all_ops_and_probe_equivalence() {
        for workload in [Workload::Taxi, Workload::Account, Workload::AccountCalm] {
            let row = measure(small(workload));
            assert_eq!(row.clients, 8);
            assert_eq!(row.ops, 8 * 6, "{workload:?}");
            assert!(row.equivalent, "{workload:?} probe diverged");
            assert!(row.ops_per_sec > 0.0);
            assert!(row.p99_nanos >= row.p50_nanos);
        }
    }

    #[test]
    fn json_payload_carries_the_gate() {
        let one_shard = Config {
            shards: 1,
            ..small(Workload::Account)
        };
        let one_shard_taxi = Config {
            shards: 1,
            ..small(Workload::Taxi)
        };
        let rows = vec![
            measure(small(Workload::Account)),
            measure(one_shard),
            measure(one_shard_taxi),
        ];
        let ratio = account_shard2_over_shard1(&rows);
        assert_eq!(ratio, rows[0].ops_per_sec / rows[1].ops_per_sec);
        assert_eq!(account_shard2_over_shard1(&rows[..1]), 0.0);
        let json = to_json(&rows);
        assert!(json.contains(&format!("\"account_shard2_over_shard1\":{ratio:.3}")));
        assert_eq!(taxi_shard1_ops_per_sec(&rows), rows[2].ops_per_sec);
        assert_eq!(taxi_shard1_ops_per_sec(&rows[..2]), 0.0);
        assert!(json.contains(&format!(
            "\"taxi_shard1_ops_per_sec\":{:.0},",
            rows[2].ops_per_sec
        )));
        // No CALM pair among them: no ratio, and so no passing gate.
        assert!(json.contains("\"account_calm_over_quorum\":0.000"));
        assert!(!within_target(&rows));
        assert!(json.contains("\"bench\":\"realtime_throughput\""));
        assert!(json.contains("\"best_ops_per_sec\":"));
        assert!(json.contains("\"all_equivalent\":true"));
        assert!(json.contains("\"within_target\":"));
        assert!(json.contains("\"target_ops_per_sec\":1000000"));
    }

    #[test]
    fn the_calm_pair_is_two_rows_and_the_ratio_reads_them() {
        let calm = Config {
            shards: 1,
            ..small(Workload::AccountCalm)
        };
        // An earlier all-quorum row at the same point: the ratio must
        // read the pair's own quorum row, not this one.
        let mut rows = vec![measure(Config {
            workload: Workload::Account,
            ..calm
        })];
        rows.extend(measure_calm_pair(calm));
        assert_eq!(rows[1].config, calm);
        assert_eq!(rows[2].config, rows[0].config);
        assert!(rows.iter().all(|r| r.equivalent && r.ops == 4 * 6));
        let ratio = account_calm_over_quorum(&rows);
        assert_eq!(ratio, rows[1].ops_per_sec / rows[2].ops_per_sec);
        assert_eq!(account_calm_over_quorum(&rows[1..2]), 0.0);
        assert!(to_json(&rows).contains(&format!("\"account_calm_over_quorum\":{ratio:.3}")));
    }
}
