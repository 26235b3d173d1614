//! What travels between roles: the protocol's messages and their modeled
//! wire size, an invocation's [`Outcome`], and the client's two settings.

use std::sync::Arc;

use relax_trace::Registry;

use crate::frontier::Frontier;
use crate::log::Log;
use crate::merkle::{MerkleNode, NodeRange};
use crate::types::ReplicatedType;

/// How log contents travel between a client and the replicas. The mode
/// is a property of the *client*: a replica answers what the message asks
/// for (`ReadReq { known }`), and replica-to-replica anti-entropy is the
/// hash-tree walk of [`crate::merkle`] whatever the clients run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicationMode {
    /// The paper-literal reference the tests and the benchmark compare
    /// the production path against: every read response and write
    /// carries the sender's whole log, and every invocation evaluates its
    /// view from scratch ([`ReplicatedType::eval_view`]), sharing no
    /// cache with what it checks. Same messages at the same ticks as the
    /// production path; only payload contents differ.
    FullLog,
    /// The production path. Clients advertise a [`Frontier`] per replica
    /// and receive only the missing entries ([`Log::delta_above`]), ship
    /// only what their record of a replica lacks ([`Log::diff`]), and
    /// evaluate views through a [`crate::viewcache::ViewCache`]. Named for
    /// the anti-entropy it runs beside: replicas exchange hash-tree node
    /// summaries over multiple rounds to *localize* divergence and ship
    /// only the entries in mismatched leaf ranges.
    #[default]
    Merkle,
}

/// Messages of the quorum protocol. Bodies are [`Arc`]-shared so a
/// broadcast of the same log to `n` replicas clones a pointer, not the
/// entries — and so a sender that keeps its `Arc` can refill the body it
/// sent last once everyone else let go of it (`reuse`, below).
#[derive(Debug, Clone)]
pub enum Msg<T: ReplicatedType> {
    /// External kick: the client should run this invocation.
    Start(T::Inv),
    /// Client → replica: send me your log (or the part of it above my
    /// known frontier).
    ReadReq {
        /// Correlates responses with the pending invocation.
        inv_id: u64,
        /// The client's summary of what it already holds of this
        /// replica's log; `None` requests the whole log.
        known: Option<Arc<Frontier>>,
    },
    /// Replica → client: my resident log (or the requested delta).
    ReadResp {
        /// Correlation id.
        inv_id: u64,
        /// The replica's log, or its delta above the requested frontier.
        log: Arc<Log<T::Op>>,
    },
    /// Client → replica: merge this updated view (or just the entries of
    /// it the client believes this replica is missing).
    WriteReq {
        /// Correlation id.
        inv_id: u64,
        /// The updated view (original view plus the new entry), or its
        /// delta against the client's record of this replica's log.
        log: Arc<Log<T::Op>>,
    },
    /// Replica → client: merged.
    WriteAck {
        /// Correlation id.
        inv_id: u64,
    },
    /// Replica → replica anti-entropy (§3's "updates … propagated
    /// asynchronously, perhaps as inaccessible sites rejoin"): node
    /// summaries of the sender's hash tree — the per-site roots on a
    /// probe turn, or the children of requested nodes during a
    /// localization walk. One `Arc` body is shared across every peer of
    /// a broadcast.
    MerkleSummary {
        /// The advertised nodes (identity + count + hash).
        nodes: Arc<Vec<MerkleNode>>,
    },
    /// Replica → replica: the receiver's mismatches from a
    /// [`Msg::MerkleSummary`] — expand these internal nodes, ship the
    /// entries of these leaves.
    MerkleRequest {
        /// Internal nodes whose children should be advertised next.
        expand: Vec<NodeRange>,
        /// Divergent leaves whose entries should ship.
        leaves: Vec<NodeRange>,
    },
    /// Replica → replica: the entries of one divergent leaf range
    /// (Arc-shared with the sender's leaf-payload cache, so serving the
    /// same range to many peers materializes it once).
    MerkleEntries {
        /// The leaf range's entries as a mergeable log.
        log: Arc<Log<T::Op>>,
    },
    /// Control: arm a replica's gossip timer.
    GossipKick,
    /// Control: ask a client to re-ship its coordination-free WAL to
    /// every replica (end-of-run convergence — e.g. after a partition
    /// that swallowed the original fast-path writes heals).
    FlushWal,
}

/// The buffer behind `slot`, to be overwritten with the next message
/// body: the one sent last when the transport and the receiver have both
/// let go of it ([`Arc::get_mut`]), else a fresh one — a message still in
/// flight keeps what it carries. Every body a node sends repeatedly (a
/// write payload, a read request's frontier, a read response) goes
/// through here, so at steady state sending allocates nothing.
pub(crate) fn reuse<B: Default>(slot: &mut Arc<B>) -> &mut B {
    if Arc::get_mut(slot).is_none() {
        *slot = Arc::default();
    }
    Arc::get_mut(slot).expect("sole owner: checked or just made")
}

/// Models the wire size of a protocol message, for the world's payload
/// accounting: 16 bytes of header, ~24 per log entry (timestamp + small
/// operation), ~28 per advertised frontier site or tree node (site +
/// level/index + count + hash), ~16 per requested node range. Install
/// with [`crate::sim_exec::QuorumSystem::with_wire_accounting`].
pub fn msg_wire_bytes<T: ReplicatedType>(msg: &Msg<T>) -> u64 {
    const HEADER: u64 = 16;
    const ENTRY: u64 = 24;
    const SITE: u64 = 28;
    const NODE: u64 = 28;
    const RANGE: u64 = 16;
    let frontier_bytes = |f: &Arc<Frontier>| f.sites().len() as u64 * SITE;
    match msg {
        Msg::Start(_) | Msg::WriteAck { .. } | Msg::GossipKick | Msg::FlushWal => HEADER,
        Msg::ReadReq { known, .. } => HEADER + known.as_ref().map_or(0, frontier_bytes),
        Msg::ReadResp { log, .. } | Msg::WriteReq { log, .. } | Msg::MerkleEntries { log } => {
            HEADER + ENTRY * log.len() as u64
        }
        Msg::MerkleSummary { nodes } => HEADER + NODE * nodes.len() as u64,
        Msg::MerkleRequest { expand, leaves } => {
            HEADER + RANGE * (expand.len() + leaves.len()) as u64
        }
    }
}

/// How one invocation ended, from the client's point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome<Op> {
    /// The operation completed: response chosen and recorded at a final
    /// quorum.
    Completed {
        /// The recorded operation execution.
        op: Op,
        /// Client-observed latency in ticks.
        latency: u64,
    },
    /// The view offered no consistent response (e.g. empty queue).
    Refused {
        /// Client-observed latency in ticks.
        latency: u64,
    },
    /// No quorum could be assembled before the timeout.
    TimedOut,
}

impl<Op> Outcome<Op> {
    /// True for [`Outcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed { .. })
    }

    /// True for [`Outcome::TimedOut`].
    pub fn is_timeout(&self) -> bool {
        matches!(self, Outcome::TimedOut)
    }

    /// Records this outcome into a metrics registry: the counter `name`
    /// counts *availability* (a quorum was assembled: `Completed` or
    /// `Refused` succeed, `TimedOut` fails), and the histogram
    /// `{name}_latency` collects latencies of available operations.
    pub fn record_to(&self, registry: &mut Registry, name: &str) {
        match self {
            Outcome::Completed { latency, .. } | Outcome::Refused { latency } => {
                registry.counter(name).success();
                registry
                    .histogram(&format!("{name}_latency"))
                    .record(*latency);
            }
            Outcome::TimedOut => {
                registry.counter(name).failure();
            }
        }
    }
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Ticks to wait for each phase before declaring the operation
    /// unavailable.
    pub timeout: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig { timeout: 200 }
    }
}
