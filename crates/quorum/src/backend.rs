//! The backend trait split: protocol core vs. execution substrate.
//!
//! The quorum protocol of §3.1 — merge an initial quorum's logs into a
//! view, choose a response, record the updated view at a final quorum —
//! is independent of *how* messages move and *what* drives the
//! execution loop. This module factors that independence into three
//! traits so the same protocol state machines run over two substrates:
//!
//! * [`Transport`] — the effect interface a protocol handler needs:
//!   identity, clock reading, message sends, timers, peer choice, and
//!   tracing. The discrete-event simulator's [`Ctx`] implements it (the
//!   paper-faithful, fault-injectable substrate), and the threaded
//!   backend's channel transport implements it for wall-clock runs
//!   (see [`crate::threaded`]).
//! * [`ClientTable`] — read access to the per-client outcome tables an
//!   executor maintains.
//! * [`Executor`] — the driving loop: submit invocations, run them to
//!   completion, and expose the replica logs and merged history that
//!   the differential oracle compares across backends.
//!
//! [`LayerCounts`] is what both executors count of the layers they
//! share, published under one set of names.
//!
//! [`crate::protocol::client::ClientState`] and
//! [`crate::protocol::replica::ReplicaState`] handlers are generic over
//! `Transport`, so the sim path monomorphizes to exactly the pre-split
//! code (pinned by the existing equivalence suites), while the threaded
//! backend's shards and brokers step the *same* client and replica state
//! machines over one inbox per thread.

use std::sync::Arc;

use relax_sim::{Ctx, NodeId};
use relax_trace::metrics::{calm, merkle, viewcache};
use relax_trace::{EventKind as TraceEvent, Registry};

use crate::assignment::VotingAssignment;
use crate::log::Log;
use crate::protocol::wire::{Msg, Outcome};
use crate::types::ReplicatedType;
use relax_automata::History;

/// The effect interface of a protocol handler: everything a client or
/// replica state machine does besides mutating its own state.
///
/// Implementations: the simulator's [`Ctx`] (virtual time, seeded rng,
/// simulated network) and the threaded backend's inbox-backed transport
/// (wall clock, OS threads, one inbox per thread).
pub trait Transport<T: ReplicatedType> {
    /// This node's id.
    fn me(&self) -> NodeId;

    /// The current time in the backend's tick domain (virtual ticks on
    /// the sim; wall-clock nanoseconds since the run began on the
    /// threaded backend).
    fn now_ticks(&self) -> u64;

    /// Sends a protocol message to `dst`.
    fn send(&mut self, dst: NodeId, msg: Msg<T>);

    /// Requests a timer callback after `delay` ticks carrying `token`.
    /// Backends without timers may ignore this (the threaded one: a
    /// shard's round closes when every live broker has answered, and
    /// brokers run without gossip).
    fn set_timer(&mut self, delay: u64, token: u64);

    /// Records the structured trace event `make` builds from this node's
    /// index; `make` runs only while tracing is on.
    fn trace(&mut self, make: impl FnOnce(u32) -> TraceEvent);
}

impl<T: ReplicatedType> Transport<T> for Ctx<'_, Msg<T>> {
    fn me(&self) -> NodeId {
        Ctx::me(self)
    }

    fn now_ticks(&self) -> u64 {
        Ctx::now(self).0
    }

    fn send(&mut self, dst: NodeId, msg: Msg<T>) {
        Ctx::send(self, dst, msg);
    }

    fn set_timer(&mut self, delay: u64, token: u64) {
        Ctx::set_timer(self, delay, token);
    }

    #[inline]
    fn trace(&mut self, make: impl FnOnce(u32) -> TraceEvent) {
        let node = Ctx::me(self).0 as u32;
        Ctx::trace(self, || make(node));
    }
}

/// Read access to an executor's per-client outcome tables.
pub trait ClientTable<T: ReplicatedType> {
    /// Number of clients the executor hosts.
    fn n_clients(&self) -> usize;

    /// The outcomes client `ix` has recorded so far, in submission
    /// order.
    fn outcomes_of(&self, ix: usize) -> &[Outcome<T::Op>];
}

/// What one [`Executor::run_all`] call measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Outcomes recorded during this run (completed, refused, or timed
    /// out — every submitted invocation resolves to exactly one).
    pub ops: u64,
    /// Wall-clock nanoseconds the run took, as observed by the caller's
    /// monotone clock (the sim executor reports its real elapsed time
    /// too, so throughput is comparable across backends).
    pub wall_nanos: u64,
}

impl RunStats {
    /// Operations per wall-clock second; 0 when nothing ran.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.ops as f64 * 1e9 / self.wall_nanos as f64
    }
}

/// Declares [`LayerCounts`]: one `u64` per field, each published as the
/// named gauge, with its field-wise `Add` and its one `export`.
macro_rules! layer_counts {
    ($($field:ident => $group:ident::$name:ident,)*) => {
        /// The tallies of the layers both executors share — view
        /// evaluation, CALM scheduling and Merkle repair — kept by each
        /// client, shard, replica and view cache, and summed per executor.
        /// Each field is the gauge of the same name; see
        /// `relax_trace::metrics` for what it counts.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct LayerCounts {
            $(
                #[doc = concat!("The [`", stringify!($group), "::", stringify!($name), "`] tally.")]
                pub $field: u64,
            )*
        }

        impl std::ops::Add for LayerCounts {
            type Output = LayerCounts;

            fn add(self, o: LayerCounts) -> LayerCounts {
                LayerCounts { $($field: self.$field + o.$field,)* }
            }
        }

        impl LayerCounts {
            /// Sets one gauge per tally in `registry`, under the names
            /// both executors publish.
            pub fn export(&self, registry: &mut Registry) {
                $(registry.gauge($group::$name).set(self.$field as i64);)*
            }
        }
    };
}

layer_counts! {
    viewcache_hits => viewcache::HITS,
    viewcache_misses => viewcache::MISSES,
    viewcache_replayed_entries => viewcache::REPLAYED_ENTRIES,
    viewcache_checkpoint_hits => viewcache::CHECKPOINT_HITS,
    calm_fast_ops => calm::FAST_OPS,
    calm_quorum_ops => calm::QUORUM_OPS,
    merkle_sync_rounds => merkle::SYNC_ROUNDS,
    merkle_nodes_exchanged => merkle::NODES_EXCHANGED,
    merkle_leaf_reuses => merkle::LEAF_REUSES,
}

/// An execution backend for the replicated object: accepts invocations,
/// drives them to completion, and exposes the observables the
/// differential oracle compares — outcomes per client, final replica
/// logs, and the merged history.
///
/// Implementations must make repeated `submit_to`/`run_all` cycles
/// legal: state persists across runs, so phased workloads (load, then
/// quiesce, then drain) behave identically on both backends.
pub trait Executor<T: ReplicatedType>: ClientTable<T> {
    /// Number of replica sites.
    fn n_replicas(&self) -> usize;

    /// Queues an invocation on client `ix` (clients run their own
    /// invocations sequentially).
    fn submit_to(&mut self, ix: usize, inv: T::Inv);

    /// Runs every queued invocation to an outcome and returns what was
    /// measured. Requires a quiescing configuration (the sim executor
    /// must not have gossip armed, or the run never drains).
    fn run_all(&mut self) -> RunStats;

    /// The resident log of replica `i`.
    fn replica_log(&self, i: usize) -> &Log<T::Op>;

    /// The union of all replica logs in timestamp order — the system's
    /// "true" history.
    fn merged_history(&self) -> History<T::Op> {
        let mut all = Log::new();
        for i in 0..self.n_replicas() {
            all.merge(self.replica_log(i));
        }
        all.to_history()
    }
}

/// The replica ids `0..n_replicas` of an executor, after the checks both
/// constructors make: at least one client, at most 64 replicas (a round
/// keeps quorum membership as a `u64` mask), and an assignment covering
/// exactly the replicas.
pub(crate) fn replica_ids<K: Copy + Ord + std::fmt::Debug>(
    n_replicas: usize,
    n_clients: usize,
    assignment: &VotingAssignment<K>,
) -> Arc<[NodeId]> {
    assert!(n_clients >= 1, "need at least one client");
    assert!(
        n_replicas <= 64,
        "at most 64 replicas (quorum membership is a u64 mask), got {n_replicas}"
    );
    assert_eq!(
        assignment.n_sites(),
        n_replicas,
        "assignment must cover exactly the replica set"
    );
    (0..n_replicas).map(NodeId).collect()
}

/// An outcome with backend-specific measurements erased: latencies are
/// ticks on the sim and nanoseconds on the threaded backend, so the
/// differential oracle compares outcomes in this normal form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutcomeShape<Op> {
    /// Completed with this recorded operation execution.
    Completed(Op),
    /// The view offered no consistent response.
    Refused,
    /// No quorum could be assembled.
    TimedOut,
}

/// Normalizes a slice of outcomes for cross-backend comparison.
pub fn outcome_shapes<Op: Clone>(outcomes: &[Outcome<Op>]) -> Vec<OutcomeShape<Op>> {
    outcomes
        .iter()
        .map(|o| match o {
            Outcome::Completed { op, .. } => OutcomeShape::Completed(op.clone()),
            Outcome::Refused { .. } => OutcomeShape::Refused,
            Outcome::TimedOut => OutcomeShape::TimedOut,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_stats_throughput() {
        let s = RunStats {
            ops: 1_000,
            wall_nanos: 500_000,
        };
        assert!((s.ops_per_sec() - 2_000_000.0).abs() < 1e-6);
        assert_eq!(RunStats::default().ops_per_sec(), 0.0);
    }

    #[test]
    fn outcome_shapes_erase_latencies() {
        let outcomes: Vec<Outcome<u8>> = vec![
            Outcome::Completed { op: 7, latency: 12 },
            Outcome::Refused { latency: 99 },
            Outcome::TimedOut,
        ];
        let fast = outcome_shapes(&outcomes);
        let slow = outcome_shapes(&[
            Outcome::Completed {
                op: 7,
                latency: 1_000_000,
            },
            Outcome::Refused { latency: 3 },
            Outcome::TimedOut,
        ]);
        assert_eq!(fast, slow);
        assert_eq!(fast[0], OutcomeShape::Completed(7));
    }
}
