//! Delta-gossip runtime throughput: full-log vs delta replication.
//!
//! Runs the same single-client taxi-queue workload through the quorum
//! runtime twice per history length — once in the retained baseline
//! configuration ([`ReplicationMode::FullLog`], memoized view evaluation
//! off) and once in the optimized one ([`ReplicationMode::Delta`] with
//! memoization) — and records wall-clock time, wire bytes, and message
//! counts for each. Both runs carry the wire-size payload sizer, so the
//! measured path is the instrumented one. (The lattice degradation
//! monitor is *not* attached here: its MPQ frontier can branch on every
//! `Deq`, which is exponential on thousand-op histories; monitor-
//! transition equivalence is covered by the `delta_equivalence`
//! differential tests on monitor-sized workloads.)
//!
//! Every row also checks *observable equivalence*: identical outcomes,
//! identical merged history, and identical message counts. A speedup
//! that changes what the protocol does is not an optimization;
//! `within_target` in the JSON payload requires equivalence alongside
//! the speed and byte gates.
//!
//! The deepest history length is the CI gate: delta + memoization must
//! be at least [`TARGET_SPEEDUP`]× faster and ship at most
//! 1/[`TARGET_BYTES_RATIO`] of the bytes.

use std::time::Instant;

use relax_queues::QueueOp;
use relax_quorum::relation::QueueKind;
use relax_quorum::runtime::{Outcome, QueueInv, TaxiQueueType};
use relax_quorum::{ClientConfig, QuorumSystem, ReplicationMode, VotingAssignment};
use relax_sim::NetworkConfig;

use crate::table::Table;

/// Majority-Deq taxi-queue assignment (the latency experiment's shape):
/// Enq records at `n - maj + 1` sites so every Deq initial quorum sees
/// every earlier Enq.
fn taxi_assignment(n: usize) -> VotingAssignment<QueueKind> {
    let maj = n / 2 + 1;
    VotingAssignment::new(n)
        .with_initial(QueueKind::Deq, maj)
        .with_final(QueueKind::Deq, maj)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, n - maj + 1)
}

/// The gate: optimized-path speedup over the full-log baseline required
/// at the deepest history length.
pub const TARGET_SPEEDUP: f64 = 5.0;

/// The gate: baseline-to-optimized wire-byte ratio required at the
/// deepest history length.
pub const TARGET_BYTES_RATIO: f64 = 10.0;

/// Replica anti-entropy interval used by both runs. Frequent enough
/// that gossip traffic dominates the full-log byte bill on long
/// histories, as it would in a deployed system.
pub const GOSSIP_INTERVAL: u64 = 40;

/// What one configured run of the workload observed.
#[derive(Debug, Clone, PartialEq)]
struct RunObservables {
    outcomes: Vec<Outcome<QueueOp>>,
    history: Vec<QueueOp>,
    messages: u64,
}

/// One measured history length.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Operations submitted (and completed) per run.
    pub history_len: usize,
    /// Baseline (full-log, unmemoized) wall time.
    pub baseline_ns: u128,
    /// Optimized (delta, memoized) wall time.
    pub optimized_ns: u128,
    /// `baseline_ns / optimized_ns`.
    pub speedup: f64,
    /// Wire bytes shipped by the baseline run.
    pub baseline_bytes: u64,
    /// Wire bytes shipped by the optimized run.
    pub optimized_bytes: u64,
    /// `baseline_bytes / optimized_bytes`.
    pub bytes_ratio: f64,
    /// Messages sent (identical across modes when `equivalent`).
    pub messages: u64,
    /// Did the two runs observe identical outcomes, merged history, and
    /// message counts?
    pub equivalent: bool,
}

impl ThroughputRow {
    /// Wall nanoseconds per operation on the optimized path — the
    /// number the speedup's numerator hides: a ratio against full-log
    /// shipping moves whenever the slow side does.
    pub fn optimized_ns_per_op(&self) -> f64 {
        self.optimized_ns as f64 / self.history_len.max(1) as f64
    }
}

/// Runs `history_len` queue operations through one runtime
/// configuration and returns `(observables, wall_ns, wire_bytes)`.
fn run_mode(
    history_len: usize,
    mode: ReplicationMode,
    memoize: bool,
    seed: u64,
) -> (RunObservables, u128, u64) {
    let start = Instant::now();
    let mut sys = QuorumSystem::new(
        TaxiQueueType,
        3,
        taxi_assignment(3),
        ClientConfig::default(),
        NetworkConfig::new(1, 5, 0.0),
        seed,
    )
    .with_replication(mode)
    .with_memoized_views(memoize)
    .with_wire_accounting()
    .with_gossip(GOSSIP_INTERVAL);
    // Distinct payloads (realistic ids), so view values grow with the
    // history and baseline full replays pay their true cost.
    for i in 0..history_len {
        sys.submit(if i % 5 == 4 {
            QueueInv::Deq
        } else {
            QueueInv::Enq(i as i64)
        });
    }
    let done = sys.run_until_outcomes(history_len, 200_000_000);
    assert!(done, "workload of {history_len} ops did not complete");
    let elapsed = start.elapsed().as_nanos();
    let obs = RunObservables {
        outcomes: sys.outcomes().to_vec(),
        history: sys.merged_history().into_ops(),
        messages: sys.world().messages_sent(),
    };
    let bytes = sys.world().bytes_sent();
    (obs, elapsed, bytes)
}

/// Measures one history length with both configurations.
pub fn measure(history_len: usize, seed: u64) -> ThroughputRow {
    let (base_obs, baseline_ns, baseline_bytes) =
        run_mode(history_len, ReplicationMode::FullLog, false, seed);
    let (opt_obs, optimized_ns, optimized_bytes) =
        run_mode(history_len, ReplicationMode::Delta, true, seed);
    ThroughputRow {
        history_len,
        baseline_ns,
        optimized_ns,
        speedup: baseline_ns as f64 / optimized_ns.max(1) as f64,
        baseline_bytes,
        optimized_bytes,
        bytes_ratio: baseline_bytes as f64 / optimized_bytes.max(1) as f64,
        messages: opt_obs.messages,
        equivalent: base_obs == opt_obs,
    }
}

/// Measures every history length and renders the comparison table. The
/// last length is the gate row.
pub fn run(history_lens: &[usize], seed: u64) -> (Table, Vec<ThroughputRow>) {
    let rows: Vec<ThroughputRow> = history_lens.iter().map(|&len| measure(len, seed)).collect();
    let mut t = Table::new([
        "history len",
        "full-log (ms)",
        "delta+memo (ms)",
        "delta ns/op",
        "speedup",
        "full-log bytes",
        "delta bytes",
        "bytes ratio",
        "verdict",
    ]);
    for r in &rows {
        t.row([
            r.history_len.to_string(),
            format!("{:.1}", r.baseline_ns as f64 / 1e6),
            format!("{:.1}", r.optimized_ns as f64 / 1e6),
            format!("{:.0}", r.optimized_ns_per_op()),
            format!("{:.2}x", r.speedup),
            r.baseline_bytes.to_string(),
            r.optimized_bytes.to_string(),
            format!("{:.1}x", r.bytes_ratio),
            if r.equivalent {
                "EQUIVALENT".to_string()
            } else {
                "DIVERGED".to_string()
            },
        ]);
    }
    (t, rows)
}

/// Renders the rows as the `BENCH_runtime_throughput.json` payload; the
/// last row carries the gate.
pub fn to_json(rows: &[ThroughputRow]) -> String {
    let gate = rows.last().expect("at least one history length");
    let row_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"history_len\":{},\"baseline_ns\":{},\"optimized_ns\":{},\
                 \"speedup\":{:.3},\"baseline_bytes\":{},\"optimized_bytes\":{},\
                 \"bytes_ratio\":{:.3},\"messages\":{},\"equivalent\":{}}}",
                r.history_len,
                r.baseline_ns,
                r.optimized_ns,
                r.speedup,
                r.baseline_bytes,
                r.optimized_bytes,
                r.bytes_ratio,
                r.messages,
                r.equivalent
            )
        })
        .collect();
    format!(
        "{{\"bench\":\"runtime_throughput\",\"workload\":\"taxi_queue_delta_vs_full\",\
         \"gossip_interval\":{GOSSIP_INTERVAL},\
         \"rows\":[{}],\
         \"gate_history_len\":{},\"gate_speedup\":{:.3},\"gate_bytes_ratio\":{:.3},\
         \"gate_optimized_ns_per_op\":{:.1},\
         \"target_speedup\":{TARGET_SPEEDUP:.1},\"target_bytes_ratio\":{TARGET_BYTES_RATIO:.1},\
         \"within_target\":{}}}\n",
        row_json.join(","),
        gate.history_len,
        gate.speedup,
        gate.bytes_ratio,
        gate.optimized_ns_per_op(),
        gate.speedup >= TARGET_SPEEDUP
            && gate.bytes_ratio >= TARGET_BYTES_RATIO
            && rows.iter().all(|r| r.equivalent)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_are_equivalent_and_delta_is_lighter_at_small_lengths() {
        let row = measure(60, 11);
        assert!(row.equivalent, "modes diverged at history 60");
        assert!(
            row.optimized_bytes < row.baseline_bytes,
            "delta shipped {} bytes vs full-log {}",
            row.optimized_bytes,
            row.baseline_bytes
        );
    }

    #[test]
    fn json_payload_carries_the_gate() {
        let (_, rows) = run(&[16, 40], 5);
        let json = to_json(&rows);
        assert!(json.contains("\"bench\":\"runtime_throughput\""));
        assert!(json.contains("\"gate_history_len\":40"));
        assert!(json.contains("\"within_target\":"));
    }
}
