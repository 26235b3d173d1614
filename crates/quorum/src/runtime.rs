//! An operational replicated object over `relax-sim`.
//!
//! Implements the client protocol of §3.1:
//!
//! 1. merge the logs from an *initial quorum* of sites into a **view**;
//! 2. choose a response consistent with the view and append the new
//!    entry;
//! 3. send the updated view to a *final quorum*, each site merging it
//!    into its resident log.
//!
//! Sites hold logs on stable storage (they survive crashes); clients time
//! out when a quorum cannot be assembled, which is exactly the
//! *availability* cost the paper's Figure 5-1 attributes to quorum
//! intersection constraints. Experiments drive this runtime under fault
//! schedules to measure availability and latency per quorum assignment.
//!
//! ## Replication modes
//!
//! The literal protocol of §3.1 ships whole logs: every read response,
//! commit broadcast, and gossip push carries the full growing log, so
//! bytes-on-the-wire and per-query evaluation grow quadratically with
//! history length. Because log merge is a join on the timestamp lattice
//! (pinned by `log`'s proptests), shipping only the entries the receiver
//! is missing is sound: [`ReplicationMode::Delta`] (the default) has
//! clients and replicas advertise compact per-site [`Frontier`]s and
//! respond with [`Log::delta_above`] suffixes, while
//! [`ReplicationMode::FullLog`] keeps the paper-literal path for
//! differential testing. The two modes exchange the *same messages at
//! the same times* (only payload contents shrink), so fault handling,
//! randomness, outcomes, and degradation transitions are bit-identical —
//! asserted by `tests/delta_equivalence.rs`.
//!
//! [`ReplicationMode::Merkle`] keeps the delta client paths but replaces
//! replica gossip with hash-tree anti-entropy ([`crate::merkle`]):
//! instead of one (count, max, hash) triple per site — which degrades to
//! a full-site resend whenever histories *splice* — replicas walk
//! mismatched tree nodes root-to-leaf over multiple message rounds and
//! ship only divergent leaf ranges. Gossip timing necessarily differs
//! (probes are broadcast, no random peer draw), so equivalence with the
//! oracles is asserted on *outcomes and merged state*, not message
//! counts (see `relax-bench`'s `exp_merkle_antientropy`).

use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

use relax_automata::probe::EngineProbe;
use relax_automata::History;
use relax_sim::{Ctx, NetworkConfig, Node, NodeId, SimTime, World};
use relax_trace::{
    DegradationMonitor, EventKind as TraceEvent, FrontierView, OpLabel, OpOutcome, Probe,
    ProfileReport, QuorumPhase, Registry, SiteCount, SloMonitor, StalenessTracker,
};

use crate::assignment::VotingAssignment;
use crate::backend::{ClientTable, Executor, RunStats, Transport};
use crate::calm::SchedulingPolicy;
use crate::frontier::Frontier;
use crate::log::{DiffScratch, Entry, Log};
use crate::merkle::{MerkleNode, NodeRange};
use crate::relation::HasKind;
use crate::timestamp::LogicalClock;
use crate::viewcache::ViewCache;

/// A replicated data type, as the runtime needs it: evaluation of views
/// plus client-side response choice.
pub trait ReplicatedType: Clone {
    /// Invocations (operation name + arguments, no response yet).
    type Inv: Clone + std::fmt::Debug;
    /// Operation executions recorded in logs.
    type Op: Clone + std::fmt::Debug + HasKind;
    /// The value domain views evaluate to.
    type Value: Clone;

    /// The value of the empty view.
    fn initial_value(&self) -> Self::Value;

    /// Extends a view's value by one operation (the evaluation function
    /// `η`; total).
    fn apply(&self, value: &Self::Value, op: &Self::Op) -> Self::Value;

    /// In-place form of [`ReplicatedType::apply`], used by the replay hot
    /// paths (view cache, shard views) where rebuilding the value per
    /// entry would be quadratic for collection-valued types. The default
    /// delegates to `apply`; concrete types with cheap in-place mutation
    /// should override.
    fn apply_mut(&self, value: &mut Self::Value, op: &Self::Op) {
        *value = self.apply(value, op);
    }

    /// Chooses the response for `inv` against the view's value, yielding
    /// the operation execution to record — or `None` when no response is
    /// consistent (e.g. `Deq` on an apparently empty queue).
    fn execute(&self, value: &Self::Value, inv: &Self::Inv) -> Option<Self::Op>;

    /// The quorum-relevant kind of an invocation.
    fn invocation_kind(&self, inv: &Self::Inv) -> <Self::Op as HasKind>::Kind;

    /// Renders the short trace label for an invocation (provided: the
    /// `Debug` form, truncated to the label's inline capacity).
    ///
    /// This runs once per traced operation on the hot path; concrete
    /// types with cheap-to-render invocations should override it with
    /// direct [`OpLabel::push_str`]/[`OpLabel::push_i64`] calls, which
    /// skip the `fmt` machinery entirely.
    fn op_label(&self, inv: &Self::Inv) -> OpLabel {
        OpLabel::from_debug(inv)
    }

    /// Evaluates a whole view (provided).
    fn eval_view(&self, log: &Log<Self::Op>) -> Self::Value {
        let mut v = self.initial_value();
        for e in log.entries() {
            self.apply_mut(&mut v, &e.op);
        }
        v
    }

    /// Whether `apply` commutes across operations: folding any set of
    /// operations into a value yields the same result in every order.
    /// Backends may then maintain view values incrementally (fold each
    /// arriving entry once) instead of replaying merged views. `false`
    /// is always sound and is the provided default; [`BankAccountType`]
    /// overrides it (integer adds commute), the taxi queues must not
    /// (`Deq` of an absent item is a no-op, so order matters).
    fn apply_commutes(&self) -> bool {
        false
    }
}

/// How log contents travel between nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicationMode {
    /// The paper-literal path: every read response, commit broadcast,
    /// and gossip push carries the sender's whole log.
    FullLog,
    /// Delta replication: receivers advertise a [`Frontier`] and senders
    /// ship only the missing entries ([`Log::delta_above`] /
    /// [`Log::diff`]). Message pattern and timing are identical to
    /// [`ReplicationMode::FullLog`]; only payloads shrink.
    #[default]
    Delta,
    /// Merkle anti-entropy: client read/write paths are identical to
    /// [`ReplicationMode::Delta`], but replica-to-replica gossip
    /// exchanges hash-tree node summaries ([`crate::merkle`]) over
    /// multiple rounds to *localize* divergence, shipping only the
    /// entries in mismatched leaf ranges — where the XOR frontier
    /// degrades to full-site resends on spliced histories. Gossip turns
    /// broadcast one Arc-shared root summary to every peer, and leaf
    /// payloads are cached per log version so each divergent range is
    /// materialized once and reused across peers.
    Merkle,
}

/// Messages of the quorum protocol. Log payloads are [`Arc`]-shared so a
/// broadcast of the same log to `n` replicas clones a pointer, not the
/// entries.
#[derive(Debug, Clone)]
pub enum Msg<T: ReplicatedType> {
    /// External kick: the client should run this invocation.
    Start(T::Inv),
    /// Client → replica: send me your log (or, in delta mode, the part
    /// of it above my known frontier).
    ReadReq {
        /// Correlates responses with the pending invocation.
        inv_id: u64,
        /// In delta mode, the client's summary of what it already holds
        /// of this replica's log; `None` requests the whole log.
        known: Option<Frontier>,
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
    /// Replica → replica anti-entropy: merge my log (§3's "updates …
    /// propagated asynchronously, perhaps as inaccessible sites rejoin").
    Gossip {
        /// The sender's resident log, or its delta above the last
        /// frontier the receiver advertised to the sender.
        log: Arc<Log<T::Op>>,
        /// In delta mode, the sender's current full-log frontier, letting
        /// the receiver push deltas back on its own gossip turns.
        frontier: Option<Frontier>,
    },
    /// Replica → replica ([`ReplicationMode::Merkle`]): node summaries
    /// of the sender's hash tree — the per-site roots on a probe turn,
    /// or the children of requested nodes during a localization walk.
    /// One `Arc` body is shared across every peer of a broadcast.
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

/// Models the wire size of a protocol message, for the world's payload
/// accounting: 16 bytes of header, ~24 per log entry (timestamp + small
/// operation), ~28 per advertised frontier site or tree node (site +
/// level/index + count + hash), ~16 per requested node range. Install
/// with [`QuorumSystem::with_wire_accounting`].
pub fn msg_wire_bytes<T: ReplicatedType>(msg: &Msg<T>) -> u64 {
    const HEADER: u64 = 16;
    const ENTRY: u64 = 24;
    const SITE: u64 = 28;
    const NODE: u64 = 28;
    const RANGE: u64 = 16;
    let frontier_bytes = |f: &Frontier| f.sites().len() as u64 * SITE;
    match msg {
        Msg::Start(_) | Msg::WriteAck { .. } | Msg::GossipKick | Msg::FlushWal => HEADER,
        Msg::ReadReq { known, .. } => HEADER + known.as_ref().map_or(0, frontier_bytes),
        Msg::ReadResp { log, .. } | Msg::WriteReq { log, .. } | Msg::MerkleEntries { log } => {
            HEADER + ENTRY * log.len() as u64
        }
        Msg::Gossip { log, frontier } => {
            HEADER + ENTRY * log.len() as u64 + frontier.as_ref().map_or(0, frontier_bytes)
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

#[derive(Debug, Clone)]
enum Phase<T: ReplicatedType> {
    Read {
        responded: BTreeSet<NodeId>,
        view: Log<T::Op>,
    },
    Write {
        acked: BTreeSet<NodeId>,
        op: T::Op,
    },
}

#[derive(Debug, Clone)]
struct Pending<T: ReplicatedType> {
    inv_id: u64,
    inv: T::Inv,
    /// Start time in the backend's tick domain ([`Transport::now_ticks`]).
    started_at: u64,
    phase: Phase<T>,
}

/// A fire-and-forget write from the coordination-free fast path: the
/// client completed the operation without waiting, but still takes the
/// acks so `known` stays accurate (delta payloads shrink). The WAL is
/// append-only under the client's one clock, so an ack for a shipment
/// says "this replica holds `wal[..wal_len]`"; a record retires once
/// every replica acked that much (16 bytes each while one is cut off).
#[derive(Debug, Clone, Copy)]
struct FastWrite {
    inv_id: u64,
    wal_len: usize,
}

/// A node in the replicated system: either a replica or the client.
#[derive(Debug)]
pub enum RoleNode<T: ReplicatedType> {
    /// A replica site holding a resident log.
    Replica(Box<ReplicaState<T>>),
    /// The client running the three-step protocol.
    Client(Box<ClientState<T>>),
}

/// A replica site's state: the resident log plus gossip bookkeeping.
pub struct ReplicaState<T: ReplicatedType> {
    /// The resident log (stable storage; survives crashes).
    log: Log<T::Op>,
    /// Gossip interval in ticks (`None` disables anti-entropy).
    gossip: Option<u64>,
    /// All replicas (gossip peers; shared, not cloned per node).
    peers: Arc<[NodeId]>,
    /// Timer generation: stale timer tokens are ignored, and received
    /// protocol messages re-arm the timer (so replicas that lost their
    /// timer while crashed resume gossiping on first contact). Merkle
    /// sync messages do *not* re-arm: a probed replica must keep its own
    /// probe cadence, or a chatty peer would starve the reverse
    /// direction of the sync.
    epoch: u64,
    /// How this replica ships its log to peers and clients.
    mode: ReplicationMode,
    /// The last frontier each peer advertised via gossip (indexed by
    /// node id; replicas are nodes `0..n`). `None` → push the whole
    /// log. Lost advertisements only cost redundancy: merge is
    /// idempotent.
    peer_frontiers: Vec<Option<Frontier>>,
    /// Gossip pushes that shipped only a delta suffix (the receiver's
    /// frontier was known).
    gossip_delta: u64,
    /// Gossip pushes that replayed the whole log (frontier unknown, or
    /// [`ReplicationMode::FullLog`]).
    gossip_full: u64,
    /// Merkle sync: probe broadcasts plus localization requests served.
    merkle_rounds: u64,
    /// Merkle sync: node summaries sent (roots and children).
    merkle_nodes: u64,
    /// Merkle sync: leaf payloads served from the batch cache instead of
    /// being re-materialized (Arc reuse across peers).
    merkle_leaf_reuse: u64,
    /// Batched leaf payloads, valid for `leaf_cache_version` only: each
    /// divergent range is materialized once and shared across every peer
    /// that requests it.
    leaf_cache: Vec<(NodeRange, Arc<Log<T::Op>>)>,
    /// The `(len, prefix_hash)` log version `leaf_cache` was built
    /// against; any local change invalidates the whole cache.
    leaf_cache_version: (usize, u64),
    /// Reusable diff buffers for the gossip/read hot paths.
    scratch: DiffScratch,
}

// Manual impl: the derive would demand `T: Debug`, which the trait does
// not require.
impl<T: ReplicatedType> std::fmt::Debug for ReplicaState<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaState")
            .field("log_len", &self.log.len())
            .field("gossip", &self.gossip)
            .field("epoch", &self.epoch)
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

/// Client-side protocol state.
pub struct ClientState<T: ReplicatedType> {
    ttype: T,
    assignment: Arc<VotingAssignment<<T::Op as HasKind>::Kind>>,
    replicas: Arc<[NodeId]>,
    config: ClientConfig,
    clock: LogicalClock,
    next_inv_id: u64,
    pending: Option<Pending<T>>,
    backlog: VecDeque<T::Inv>,
    outcomes: Vec<Outcome<T::Op>>,
    mode: ReplicationMode,
    /// In delta mode, a per-replica lower bound on that replica's log
    /// (`known[r] ⊆ log_r` always): grown from read-response deltas
    /// (after which it equals `log_r` exactly) and accepted write acks.
    known: Vec<Log<T::Op>>,
    /// Memoize view evaluation across invocations (suffix-only replay).
    memoize: bool,
    cache: ViewCache<T::Value>,
    /// Reusable buffers for write-phase `diff_with` calls.
    scratch: DiffScratch,
    /// In delta mode, per replica: the last write payload shipped to it
    /// (the shipped log minus `known[r]`) and `known[r]`'s length when it
    /// was built — `known[r]` only grows, so same length, same set. An
    /// ack folds the payload, not the view; the next shipment extends it.
    sent: Vec<(Arc<Log<T::Op>>, usize)>,
    /// The log last shipped — an updated view or the WAL — as the
    /// invocation it went under, its length and its `prefix_hash`.
    shipped: (u64, usize, u64),
    /// Which invocation kinds skip the quorum protocol (CALM-monotone
    /// kinds; empty by default, so scheduling is pure quorum).
    policy: SchedulingPolicy<<T::Op as HasKind>::Kind>,
    /// The coordination-free write-ahead log: entries appended by the
    /// fast path, merged into every read view (read-your-writes) and
    /// shipped to replicas fire-and-forget.
    wal: Log<T::Op>,
    /// In-flight fast-path writes awaiting (but not blocking on) acks,
    /// oldest first (`inv_id` and `wal_len` both non-decreasing).
    fast_writes: VecDeque<FastWrite>,
    /// Per replica, how much of the WAL it has acked (`wal[..mark]`).
    wal_acked: Vec<usize>,
    /// Invocations that took the coordination-free fast path.
    calm_fast: u64,
    /// Invocations that ran the quorum protocol.
    calm_quorum: u64,
}

// Manual impl: the derive would demand `T::Value: Debug` (via the view
// cache) and `T: Debug`, neither of which the trait requires.
impl<T: ReplicatedType> std::fmt::Debug for ClientState<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientState")
            .field("mode", &self.mode)
            .field("memoize", &self.memoize)
            .field("next_inv_id", &self.next_inv_id)
            .field("pending", &self.pending.is_some())
            .field("backlog", &self.backlog.len())
            .field("outcomes", &self.outcomes.len())
            .finish_non_exhaustive()
    }
}

impl<T: ReplicatedType> ClientState<T> {
    /// The outcomes recorded so far, in submission order.
    pub fn outcomes(&self) -> &[Outcome<T::Op>] {
        &self.outcomes
    }

    fn start_next(&mut self, ctx: &mut impl Transport<T>) {
        if self.pending.is_some() {
            return;
        }
        // A loop, not recursion: consecutive coordination-free
        // invocations complete synchronously and would otherwise recurse
        // once per backlog entry.
        while let Some(inv) = self.backlog.pop_front() {
            self.next_inv_id += 1;
            let inv_id = self.next_inv_id;
            if ctx.trace_enabled() {
                let op = self.ttype.op_label(&inv);
                let node = ctx.me().0 as u32;
                ctx.trace(TraceEvent::OpBegin {
                    node,
                    op_id: inv_id as u32,
                    op,
                });
            }
            let kind = self.ttype.invocation_kind(&inv);
            if self.policy.is_free(kind) {
                self.run_coordination_free(ctx, inv_id, &inv);
                continue;
            }
            self.calm_quorum += 1;
            let needs_read = self.assignment.initial_size(kind) > 0;
            self.pending = Some(Pending {
                inv_id,
                inv,
                started_at: ctx.now_ticks(),
                phase: Phase::Read {
                    responded: BTreeSet::new(),
                    view: Log::new(),
                },
            });
            ctx.set_timer(self.config.timeout, inv_id);
            if needs_read {
                for &r in self.replicas.iter() {
                    let known = match self.mode {
                        ReplicationMode::FullLog => None,
                        // Delta and Merkle both advertise the frontier so
                        // read responses stay O(missing suffix).
                        _ => Some(self.known[r.0].frontier()),
                    };
                    ctx.send(r, Msg::ReadReq { inv_id, known });
                }
            } else {
                // A zero initial quorum: the response does not depend on
                // the state; respond against the empty view immediately.
                self.respond_with_view(ctx);
            }
            return;
        }
    }

    /// Executes a CALM-monotone invocation coordination-free: respond
    /// against the initial value (sound by the analyzer's
    /// response-stability check — no reachable view changes the answer),
    /// append to the local WAL under a fresh timestamp, and ship the
    /// entry to every replica without waiting for acks. No read phase,
    /// no quorum, no timer: the operation completes in zero ticks and is
    /// available under any partition.
    ///
    /// The tick needs no `observe` first, unlike the threaded shard's
    /// fast path: a shard's view holds entries its *other* clients
    /// minted, which this client's clock may never have seen, whereas
    /// everything a sim client holds locally (its WAL, every view it
    /// read) went through its one clock — minted by it, or observed in
    /// `respond_with_view` — so the clock already dominates it all.
    fn run_coordination_free(&mut self, ctx: &mut impl Transport<T>, inv_id: u64, inv: &T::Inv) {
        self.calm_fast += 1;
        let outcome = match self.ttype.execute(&self.ttype.initial_value(), inv) {
            None => Outcome::Refused { latency: 0 },
            Some(op) => {
                let ts = self.clock.tick();
                self.wal.insert(Entry::new(ts, op.clone()));
                self.ship_wal(ctx, inv_id);
                Outcome::Completed { op, latency: 0 }
            }
        };
        if ctx.trace_enabled() {
            let kind = if outcome.is_completed() {
                OpOutcome::Completed
            } else {
                OpOutcome::Refused
            };
            let node = ctx.me().0 as u32;
            ctx.trace(TraceEvent::OpEnd {
                node,
                op_id: inv_id as u32,
                outcome: kind,
                latency: 0,
            });
        }
        self.outcomes.push(outcome);
    }

    /// Ships the WAL to every replica under `inv_id` — to each, the
    /// entries it hasn't acked or shown through the quorum path — and
    /// records the shipment so its acks still fold into `known`.
    fn ship_wal(&mut self, ctx: &mut impl Transport<T>, inv_id: u64) {
        let wal = std::mem::take(&mut self.wal);
        self.ship(ctx, inv_id, &wal);
        let wal_len = wal.len();
        self.fast_writes.push_back(FastWrite { inv_id, wal_len });
        self.wal = wal;
    }

    /// Ships `full` — an updated view, or the WAL — to every replica
    /// under `inv_id`: whole in full-log mode (one shared copy), else the
    /// part of it `known[r]` lacks (`known[r] ⊆ log_r`, so the replica's
    /// merge result is unchanged). That part is the last payload plus
    /// `full`'s new suffix when `known[r]` is as long as it was, the log
    /// shipped last is a prefix of `full` (one prefix hash, the ≈2⁻⁶⁴
    /// trust of [`ViewCache`]) and `known[r]` sorts below the suffix: a
    /// replica that said nothing since — cut off, or acking late — costs
    /// O(suffix), in place once the transport let go of the last message.
    /// An ack, a read response or a spliced view means [`Log::diff_with`].
    fn ship(&mut self, ctx: &mut impl Transport<T>, inv_id: u64, full: &Log<T::Op>) {
        let whole = (self.mode == ReplicationMode::FullLog).then(|| Arc::new(full.clone()));
        let (_, was, hash) = self.shipped;
        let grew = was <= full.len() && full.prefix_hash(was) == hash;
        let replicas = Arc::clone(&self.replicas);
        for &r in replicas.iter() {
            let known = &self.known[r.0];
            let (payload, at) = &mut self.sent[r.0];
            let above = |e: &Entry<T::Op>| known.max_timestamp() < Some(e.ts);
            let log = if let Some(whole) = &whole {
                Arc::clone(whole)
            } else if grew && *at == known.len() && full.entries().get(was).is_none_or(above) {
                Arc::make_mut(payload).merge_range(full, was, full.len());
                Arc::clone(payload)
            } else {
                *payload = Arc::new(full.diff_with(known, &mut self.scratch));
                *at = known.len();
                Arc::clone(payload)
            };
            ctx.send(r, Msg::WriteReq { inv_id, log });
        }
        self.shipped = (inv_id, full.len(), full.prefix_hash(full.len()));
    }

    /// Re-ships the coordination-free WAL to every replica (no-op when
    /// empty): after a partition heals this drives convergence without
    /// waiting for the next fast operation or a gossip turn.
    pub(crate) fn flush_wal(&mut self, ctx: &mut impl Transport<T>) {
        if self.wal.is_empty() {
            return;
        }
        self.next_inv_id += 1;
        let inv_id = self.next_inv_id;
        self.ship_wal(ctx, inv_id);
    }

    /// The initial quorum is assembled (or empty by design): choose a
    /// response against the view and enter the write phase.
    fn respond_with_view(&mut self, ctx: &mut impl Transport<T>) {
        let Some(pending) = self.pending.as_mut() else {
            return;
        };
        let inv_id = pending.inv_id;
        let reads = self
            .assignment
            .initial_size(self.ttype.invocation_kind(&pending.inv))
            > 0;
        let Phase::Read { view, .. } = &mut pending.phase else {
            return;
        };
        // Read-your-writes: fast-path entries not yet recorded at the
        // replicas must still be visible to this client's quorum reads.
        // Zero-initial-quorum invocations don't read — their response
        // must not depend on any state, WAL included.
        if reads && !self.wal.is_empty() {
            view.merge(&self.wal);
        }
        if let Some(ts) = view.max_timestamp() {
            self.clock.observe(ts);
        }
        if ctx.trace_enabled() {
            let node = ctx.me().0 as u32;
            let op_id = inv_id as u32;
            let merged_len = view.len() as u32;
            ctx.trace(TraceEvent::ViewMerged {
                node,
                op_id,
                merged_len,
            });
        }
        let fresh;
        let value = if self.memoize {
            let ttype = &self.ttype;
            self.cache
                .eval_ref(view, ttype.initial_value(), |v, op| ttype.apply_mut(v, op))
        } else {
            fresh = self.ttype.eval_view(view);
            &fresh
        };
        match self.ttype.execute(value, &pending.inv) {
            None => {
                let latency = ctx.now_ticks() - pending.started_at;
                self.finish(ctx, Outcome::Refused { latency });
            }
            Some(op) => {
                let ts = self.clock.tick();
                // The read phase is over: hand its view over, don't copy.
                let mut updated = std::mem::take(view);
                updated.insert(Entry::new(ts, op.clone()));
                pending.phase = Phase::Write {
                    acked: BTreeSet::new(),
                    op,
                };
                self.ship(ctx, inv_id, &updated);
            }
        }
    }

    fn finish(&mut self, ctx: &mut impl Transport<T>, outcome: Outcome<T::Op>) {
        if ctx.trace_enabled() {
            if let Some(pending) = self.pending.as_ref() {
                let (kind, latency) = match &outcome {
                    Outcome::Completed { latency, .. } => (OpOutcome::Completed, *latency),
                    Outcome::Refused { latency } => (OpOutcome::Refused, *latency),
                    Outcome::TimedOut => (OpOutcome::TimedOut, self.config.timeout),
                };
                let node = ctx.me().0 as u32;
                let op_id = pending.inv_id as u32;
                ctx.trace(TraceEvent::OpEnd {
                    node,
                    op_id,
                    outcome: kind,
                    latency,
                });
            }
        }
        self.outcomes.push(outcome);
        self.pending = None;
        self.start_next(ctx);
    }

    /// External kick: queue the invocation and run it if idle.
    pub(crate) fn on_start(&mut self, ctx: &mut impl Transport<T>, inv: T::Inv) {
        self.backlog.push_back(inv);
        self.start_next(ctx);
    }

    /// A replica answered the read phase with its log (or delta).
    pub(crate) fn on_read_resp(
        &mut self,
        ctx: &mut impl Transport<T>,
        from: NodeId,
        inv_id: u64,
        log: &Log<T::Op>,
    ) {
        let Some(pending) = self.pending.as_mut() else {
            return;
        };
        if pending.inv_id != inv_id {
            return;
        }
        let Phase::Read { responded, view } = &mut pending.phase else {
            return;
        };
        if !responded.insert(from) {
            return;
        }
        match self.mode {
            ReplicationMode::FullLog => view.merge(log),
            _ => {
                // The delta answered exactly our advertised frontier, so
                // merging it into `known[from]` reconstructs the
                // replica's log at response time (see
                // `Log::delta_above`).
                let known = &mut self.known[from.0];
                known.merge(log);
                view.merge(known);
            }
        }
        let kind = self.ttype.invocation_kind(&pending.inv);
        if responded.len() < self.assignment.initial_size(kind) {
            return;
        }
        if ctx.trace_enabled() {
            let node = ctx.me().0 as u32;
            let op_id = pending.inv_id as u32;
            let size = responded.len() as u32;
            ctx.trace(TraceEvent::QuorumAssembled {
                node,
                op_id,
                phase: QuorumPhase::Read,
                size,
            });
        }
        // Initial quorum assembled: evaluate and respond.
        self.respond_with_view(ctx);
    }

    /// A replica acknowledged the write phase.
    pub(crate) fn on_write_ack(&mut self, ctx: &mut impl Transport<T>, from: NodeId, inv_id: u64) {
        // Fast-path acks: nothing is waiting on them, but they keep
        // `known` accurate (shrinking future delta payloads): fold the
        // stretch of the WAL this replica had not acked yet, then retire
        // the records every replica has passed.
        if let Ok(ix) = self.fast_writes.binary_search_by_key(&inv_id, |w| w.inv_id) {
            let (mark, upto) = (self.wal_acked[from.0], self.fast_writes[ix].wal_len);
            if mark < upto {
                if self.mode != ReplicationMode::FullLog {
                    self.known[from.0].merge_range(&self.wal, mark, upto);
                }
                self.wal_acked[from.0] = upto;
            }
            let all = *self.wal_acked.iter().min().expect("replicas exist");
            while self.fast_writes.front().is_some_and(|w| w.wal_len <= all) {
                self.fast_writes.pop_front();
            }
            return;
        }
        let Some(pending) = self.pending.as_mut() else {
            return;
        };
        if pending.inv_id != inv_id {
            return;
        }
        let Phase::Write { acked, op } = &mut pending.phase else {
            return;
        };
        if !acked.insert(from) {
            return;
        }
        if self.mode != ReplicationMode::FullLog && self.shipped.0 == inv_id {
            // The replica merged the payload we sent it, and `known[r]`
            // plus that payload *is* the updated view: fold what was sent,
            // an append or a short tail splice. (A WAL flush landing
            // mid-write re-labels `sent`; the acks then fold nothing.)
            self.known[from.0].merge(&self.sent[from.0].0);
        }
        let kind = op.kind();
        if acked.len() >= self.assignment.final_size(kind) {
            if ctx.trace_enabled() {
                let node = ctx.me().0 as u32;
                let op_id = pending.inv_id as u32;
                let size = acked.len() as u32;
                ctx.trace(TraceEvent::QuorumAssembled {
                    node,
                    op_id,
                    phase: QuorumPhase::Write,
                    size,
                });
            }
            let op = op.clone();
            let latency = ctx.now_ticks() - pending.started_at;
            self.finish(ctx, Outcome::Completed { op, latency });
        }
    }

    /// The per-invocation timeout fired: if it matches the pending
    /// invocation, the operation is unavailable.
    pub(crate) fn on_timeout(&mut self, ctx: &mut impl Transport<T>, token: u64) {
        if self.pending.as_ref().is_none_or(|p| p.inv_id != token) {
            return;
        }
        if ctx.trace_enabled() {
            let pending = self.pending.as_ref().expect("checked above");
            let node = ctx.me().0 as u32;
            let op_id = pending.inv_id as u32;
            let (phase, responses, needed) = match &pending.phase {
                Phase::Read { responded, .. } => {
                    let kind = self.ttype.invocation_kind(&pending.inv);
                    (
                        QuorumPhase::Read,
                        responded.len(),
                        self.assignment.initial_size(kind),
                    )
                }
                Phase::Write { acked, op } => (
                    QuorumPhase::Write,
                    acked.len(),
                    self.assignment.final_size(op.kind()),
                ),
            };
            ctx.trace(TraceEvent::QuorumFailed {
                node,
                op_id,
                phase,
                responses: responses as u32,
                needed: needed as u32,
            });
        }
        self.finish(ctx, Outcome::TimedOut);
    }
}

impl<T: ReplicatedType> ReplicaState<T> {
    /// A fresh replica over the given peer set. Both backends construct
    /// their replicas through this: the sim wraps them in [`RoleNode`]s,
    /// the threaded backend hands each to a broker worker thread.
    pub(crate) fn new(peers: Arc<[NodeId]>, mode: ReplicationMode) -> Self {
        let n = peers.len();
        ReplicaState {
            log: Log::new(),
            gossip: None,
            peers,
            epoch: 0,
            mode,
            peer_frontiers: vec![None; n],
            gossip_delta: 0,
            gossip_full: 0,
            merkle_rounds: 0,
            merkle_nodes: 0,
            merkle_leaf_reuse: 0,
            leaf_cache: Vec::new(),
            leaf_cache_version: (0, 0),
            scratch: DiffScratch::default(),
        }
    }

    /// The resident log.
    pub(crate) fn log(&self) -> &Log<T::Op> {
        &self.log
    }

    /// The divergent-leaf payload for `r`, materialized once per log
    /// version and Arc-shared across every peer that requests it.
    fn leaf_payload(&mut self, r: NodeRange) -> Arc<Log<T::Op>> {
        let version = (self.log.len(), self.log.prefix_hash(self.log.len()));
        if self.leaf_cache_version != version {
            self.leaf_cache.clear();
            self.leaf_cache_version = version;
        }
        if let Some((_, payload)) = self.leaf_cache.iter().find(|(k, _)| *k == r) {
            self.merkle_leaf_reuse += 1;
            return Arc::clone(payload);
        }
        let (lo, hi) = r.range();
        let payload = Arc::new(self.log.entries_in_range(r.site, lo, hi));
        self.leaf_cache.push((r, Arc::clone(&payload)));
        payload
    }

    pub(crate) fn on_message(&mut self, ctx: &mut impl Transport<T>, from: NodeId, msg: Msg<T>) {
        // Merkle sync messages don't re-arm the gossip timer: the walk
        // is driven by each side's own probe cadence, and resetting the
        // countdown on every probe would let one talkative peer starve
        // the reverse sync direction forever.
        let rearm = !matches!(
            msg,
            Msg::MerkleSummary { .. } | Msg::MerkleRequest { .. } | Msg::MerkleEntries { .. }
        );
        match msg {
            Msg::ReadReq { inv_id, known } => {
                let payload = match known {
                    // Delta mode: only the entries above the
                    // client's advertised frontier.
                    Some(f) => self.log.delta_above_with(&f, &mut self.scratch),
                    None => self.log.clone(),
                };
                ctx.send(
                    from,
                    Msg::ReadResp {
                        inv_id,
                        log: Arc::new(payload),
                    },
                );
            }
            Msg::WriteReq { inv_id, log: view } => {
                self.log.merge(&view);
                ctx.send(from, Msg::WriteAck { inv_id });
            }
            Msg::Gossip {
                log: peer_log,
                frontier,
            } => {
                self.log.merge(&peer_log);
                if let Some(f) = frontier {
                    // Remember what the peer holds, so our own
                    // pushes to it can ship deltas.
                    self.peer_frontiers[from.0] = Some(f);
                }
            }
            Msg::MerkleSummary { nodes } => {
                // Compare each advertised node against our own tree:
                // matching ranges are settled, mismatched internal nodes
                // get expanded next round, mismatched leaves get shipped.
                let idx = self.log.merkle_index();
                let mut expand: Vec<NodeRange> = Vec::new();
                let mut leaves: Vec<NodeRange> = Vec::new();
                for n in nodes.iter() {
                    if idx.node(n.site, n.level, n.index) == (n.count, n.hash) {
                        continue;
                    }
                    let r = NodeRange {
                        site: n.site,
                        level: n.level,
                        index: n.index,
                    };
                    if n.level == 0 {
                        leaves.push(r);
                    } else {
                        expand.push(r);
                    }
                }
                if !expand.is_empty() || !leaves.is_empty() {
                    ctx.send(from, Msg::MerkleRequest { expand, leaves });
                }
            }
            Msg::MerkleRequest { expand, leaves } => {
                self.merkle_rounds += 1;
                if !expand.is_empty() {
                    let mut children = Vec::new();
                    let idx = self.log.merkle_index();
                    for r in &expand {
                        idx.children_into(r.site, r.level, r.index, &mut children);
                    }
                    self.merkle_nodes += children.len() as u64;
                    ctx.send(
                        from,
                        Msg::MerkleSummary {
                            nodes: Arc::new(children),
                        },
                    );
                }
                for r in leaves {
                    let payload = self.leaf_payload(r);
                    ctx.send(from, Msg::MerkleEntries { log: payload });
                }
            }
            Msg::MerkleEntries { log } => {
                self.log.merge(&log);
            }
            Msg::GossipKick => {}
            _ => {}
        }
        // Any other contact (including the kick) re-arms the gossip
        // timer under a fresh epoch.
        if rearm {
            self.rearm_gossip(ctx);
        }
    }

    /// Re-arms the anti-entropy timer under a fresh epoch — the one
    /// place the re-arm/suppress rule lives, shared by the
    /// contact-triggered and timer-triggered paths across all
    /// replication modes. No-op when gossip is disabled.
    fn rearm_gossip(&mut self, ctx: &mut impl Transport<T>) {
        if let Some(interval) = self.gossip {
            self.epoch += 1;
            ctx.set_timer(interval, self.epoch);
        }
    }

    /// A timer fired: run a gossip turn unless the token is stale.
    pub(crate) fn on_timer(&mut self, ctx: &mut impl Transport<T>, token: u64) {
        if token != self.epoch {
            return; // stale timer from a previous epoch
        }
        self.on_gossip_timer(ctx);
    }

    fn on_gossip_timer(&mut self, ctx: &mut impl Transport<T>) {
        if self.gossip.is_none() {
            return;
        }
        let me = ctx.me();
        match self.mode {
            ReplicationMode::FullLog | ReplicationMode::Delta => {
                // Push the resident log to a random peer.
                let others: Vec<NodeId> = self.peers.iter().copied().filter(|&p| p != me).collect();
                if let Some(peer) = ctx.choose_peer(&others) {
                    let msg = match self.mode {
                        ReplicationMode::FullLog => {
                            self.gossip_full += 1;
                            Msg::Gossip {
                                log: Arc::new(self.log.clone()),
                                frontier: None,
                            }
                        }
                        _ => {
                            // Ship only what the peer last told us it
                            // was missing; never heard from it → the
                            // whole log (merge is idempotent either
                            // way).
                            let payload = match &self.peer_frontiers[peer.0] {
                                Some(f) => {
                                    self.gossip_delta += 1;
                                    self.log.delta_above_with(f, &mut self.scratch)
                                }
                                None => {
                                    self.gossip_full += 1;
                                    self.log.clone()
                                }
                            };
                            Msg::Gossip {
                                log: Arc::new(payload),
                                frontier: Some(self.log.frontier()),
                            }
                        }
                    };
                    ctx.send(peer, msg);
                }
            }
            ReplicationMode::Merkle => {
                // Broadcast one Arc-shared root summary to every peer
                // (carbon's batched-root idiom): each receiver replies
                // only if its own tree disagrees, and the localization
                // walk proceeds within the interval. No randomness is
                // drawn, so gossip cannot perturb the client protocol's
                // rng stream.
                let roots = self.log.merkle_index().roots();
                if !roots.is_empty() {
                    let nodes = Arc::new(roots);
                    self.merkle_rounds += 1;
                    let peers = Arc::clone(&self.peers);
                    for &p in peers.iter().filter(|&&p| p != me) {
                        self.merkle_nodes += nodes.len() as u64;
                        ctx.send(
                            p,
                            Msg::MerkleSummary {
                                nodes: Arc::clone(&nodes),
                            },
                        );
                    }
                }
            }
        }
        self.rearm_gossip(ctx);
    }
}

impl<T: ReplicatedType> Node<Msg<T>> for RoleNode<T> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<T>>, from: NodeId, msg: Msg<T>) {
        match self {
            RoleNode::Replica(replica) => replica.on_message(ctx, from, msg),
            RoleNode::Client(client) => match msg {
                Msg::Start(inv) => client.on_start(ctx, inv),
                Msg::ReadResp { inv_id, log } => client.on_read_resp(ctx, from, inv_id, &log),
                Msg::WriteAck { inv_id } => client.on_write_ack(ctx, from, inv_id),
                Msg::FlushWal => client.flush_wal(ctx),
                _ => {}
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg<T>>, token: u64) {
        match self {
            RoleNode::Client(client) => client.on_timeout(ctx, token),
            RoleNode::Replica(replica) => replica.on_timer(ctx, token),
        }
    }
}

/// A client's write bookkeeping, lent read-only to the invariant tests:
/// [`ClientState`]'s own fields, `fast_writes` by its length.
#[doc(hidden)]
#[derive(Debug)]
pub struct ClientBookkeeping<'a, Op> {
    pub known: &'a [Log<Op>],
    pub sent: &'a [(Arc<Log<Op>>, usize)],
    pub shipped: (u64, usize, u64),
    pub fast_writes: usize,
}

/// A complete replicated system: `n` replicas plus one or more clients,
/// over the discrete-event simulator.
///
/// The paper assumes operations execute atomically (§2); a *single*
/// client issues operations sequentially and satisfies that assumption,
/// so its completed history obeys the lattice point its quorums realize.
/// Multiple concurrent clients (dispatchers and drivers racing) violate
/// the assumption — their read/write phases interleave — which is
/// precisely the regime §4's atomicity machinery exists for; the
/// multi-client mode is provided to *exhibit* those races.
#[derive(Debug)]
pub struct QuorumSystem<T: ReplicatedType> {
    world: World<Msg<T>, RoleNode<T>>,
    clients: Vec<NodeId>,
    n_replicas: usize,
    monitor: Option<DegradationMonitor<T::Op>>,
    monitor_seen: Vec<usize>,
    staleness: Option<StalenessTracker>,
    /// Reusable frontier-snapshot buffers for `sample_staleness` (one
    /// view per replica; inner vectors cleared and refilled per sample).
    staleness_views: Vec<FrontierView>,
    /// Reusable event buffer for `sample_staleness`.
    staleness_scratch: Vec<TraceEvent>,
    slo: Option<SloMonitor>,
    registry: Registry,
    /// The flight-recorder probe (disabled unless
    /// [`QuorumSystem::with_profile`] was called): per-event `step` /
    /// `monitor` spans, `staleness` sampling spans, and the runtime's
    /// cache/gossip tallies as gauges on [`QuorumSystem::flush_profile`].
    probe: Probe,
}

impl<T: ReplicatedType> QuorumSystem<T> {
    /// Builds a system with `n_replicas` replicas (nodes `0..n`) and one
    /// client (node `n`).
    pub fn new(
        ttype: T,
        n_replicas: usize,
        assignment: VotingAssignment<<T::Op as HasKind>::Kind>,
        client_config: ClientConfig,
        network: NetworkConfig,
        seed: u64,
    ) -> Self {
        Self::with_clients(
            ttype,
            n_replicas,
            1,
            assignment,
            client_config,
            network,
            seed,
        )
    }

    /// Builds a system with `n_replicas` replicas (nodes `0..n`) and
    /// `n_clients` clients (nodes `n..n+c`), each running its own copy of
    /// the quorum protocol.
    ///
    /// # Panics
    ///
    /// Panics if `n_clients == 0` or the assignment covers a different
    /// replica count.
    pub fn with_clients(
        ttype: T,
        n_replicas: usize,
        n_clients: usize,
        assignment: VotingAssignment<<T::Op as HasKind>::Kind>,
        client_config: ClientConfig,
        network: NetworkConfig,
        seed: u64,
    ) -> Self
    where
        T: Clone,
    {
        assert!(n_clients >= 1, "need at least one client");
        assert_eq!(
            assignment.n_sites(),
            n_replicas,
            "assignment must cover exactly the replica set"
        );
        let replica_ids: Arc<[NodeId]> = (0..n_replicas).map(NodeId).collect();
        let assignment = Arc::new(assignment);
        let mut nodes: Vec<RoleNode<T>> = (0..n_replicas)
            .map(|_| {
                RoleNode::Replica(Box::new(ReplicaState::new(
                    Arc::clone(&replica_ids),
                    ReplicationMode::default(),
                )))
            })
            .collect();
        let mut clients = Vec::with_capacity(n_clients);
        for c in 0..n_clients {
            let id = NodeId(n_replicas + c);
            clients.push(id);
            nodes.push(RoleNode::Client(Box::new(ClientState {
                ttype: ttype.clone(),
                assignment: Arc::clone(&assignment),
                replicas: Arc::clone(&replica_ids),
                config: client_config.clone(),
                clock: LogicalClock::new(id.0),
                next_inv_id: 0,
                pending: None,
                backlog: VecDeque::new(),
                outcomes: Vec::new(),
                mode: ReplicationMode::default(),
                known: vec![Log::new(); n_replicas],
                memoize: true,
                cache: ViewCache::new(),
                scratch: DiffScratch::default(),
                sent: vec![Default::default(); n_replicas],
                shipped: (0, 0, 0),
                policy: SchedulingPolicy::all_quorum(),
                wal: Log::new(),
                fast_writes: VecDeque::new(),
                wal_acked: vec![0; n_replicas],
                calm_fast: 0,
                calm_quorum: 0,
            })));
        }
        QuorumSystem {
            world: World::new(nodes, network, seed),
            clients,
            n_replicas,
            monitor: None,
            monitor_seen: vec![0; n_clients],
            staleness: None,
            staleness_views: (0..n_replicas)
                .map(|i| FrontierView {
                    replica: i as u32,
                    sites: Vec::new(),
                })
                .collect(),
            staleness_scratch: Vec::new(),
            slo: None,
            registry: Registry::new(),
            probe: Probe::disabled(),
        }
    }

    /// Enables structured tracing on the underlying world with the given
    /// ring-buffer capacity (builder-style).
    #[must_use]
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.world = self.world.with_trace(capacity);
        self
    }

    /// Selects how log contents travel ([`ReplicationMode::Delta`] by
    /// default; [`ReplicationMode::FullLog`] is the paper-literal
    /// baseline). Builder-style; call before running.
    #[must_use]
    pub fn with_replication(mut self, new_mode: ReplicationMode) -> Self {
        for i in 0..self.n_replicas {
            if let RoleNode::Replica(r) = self.world.node_mut(NodeId(i)) {
                r.mode = new_mode;
            }
        }
        for &id in &self.clients.clone() {
            if let RoleNode::Client(c) = self.world.node_mut(id) {
                c.mode = new_mode;
            }
        }
        self
    }

    /// Installs a CALM scheduling policy on every client (builder-style;
    /// the default frees nothing, i.e. pure quorum scheduling). Kinds the
    /// policy marks free execute coordination-free: respond immediately
    /// against the initial value, append to a local WAL, ship to every
    /// replica without waiting for a quorum. Use
    /// [`SchedulingPolicy::from_report`] to derive the policy from the
    /// monotonicity analyzer ([`crate::calm::analyze`]).
    #[must_use]
    pub fn with_scheduling(mut self, policy: SchedulingPolicy<<T::Op as HasKind>::Kind>) -> Self {
        for &id in &self.clients.clone() {
            if let RoleNode::Client(c) = self.world.node_mut(id) {
                c.policy = policy.clone();
            }
        }
        self
    }

    /// Asks every client to re-ship its coordination-free WAL to all
    /// replicas (a [`Msg::FlushWal`] control message per client): drives
    /// convergence of fast-path entries swallowed by a partition after
    /// it heals. Run the world afterwards to deliver the writes.
    pub fn flush_wals(&mut self) {
        for &id in &self.clients.clone() {
            self.world.send_external(id, Msg::FlushWal);
        }
    }

    /// Fast-path vs. quorum-path invocation counts summed across all
    /// clients, as `(calm_fast, calm_quorum)`.
    pub fn calm_op_counts(&self) -> (u64, u64) {
        let mut fast = 0;
        let mut quorum = 0;
        for &id in &self.clients {
            if let RoleNode::Client(c) = self.world.node(id) {
                fast += c.calm_fast;
                quorum += c.calm_quorum;
            }
        }
        (fast, quorum)
    }

    /// Enables or disables memoized view evaluation on every client
    /// (enabled by default; disable for the unmemoized baseline).
    /// Builder-style; call before running.
    #[must_use]
    pub fn with_memoized_views(mut self, on: bool) -> Self {
        for &id in &self.clients.clone() {
            if let RoleNode::Client(c) = self.world.node_mut(id) {
                c.memoize = on;
            }
        }
        self
    }

    /// Installs the protocol's wire-size model ([`msg_wire_bytes`]) on
    /// the underlying world, so `bytes_sent` / `bytes_delivered` track
    /// modeled payload bytes. Builder-style.
    #[must_use]
    pub fn with_wire_accounting(mut self) -> Self {
        self.world = self.world.with_payload_sizer(msg_wire_bytes::<T>);
        self
    }

    /// Attaches an online degradation monitor (builder-style). As
    /// operations complete, they are fed to the monitor in completion
    /// order; level transitions are appended to the world's trace (when
    /// tracing is enabled) with the completed operation as witness.
    #[must_use]
    pub fn with_monitor(mut self, monitor: DegradationMonitor<T::Op>) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// The attached degradation monitor, if any.
    pub fn monitor(&self) -> Option<&DegradationMonitor<T::Op>> {
        self.monitor.as_ref()
    }

    /// Attaches a replica-staleness tracker (builder-style). Each
    /// [`QuorumSystem::sample_staleness`] call then snapshots every
    /// replica's frontier and records per-replica lag and pairwise
    /// divergence events into the trace; the corresponding gauges in
    /// [`QuorumSystem::registry`] reflect the latest sample after
    /// [`QuorumSystem::export_metrics`].
    #[must_use]
    pub fn with_staleness(mut self) -> Self {
        self.staleness = Some(StalenessTracker::new(self.n_replicas));
        self
    }

    /// Attaches a degradation SLO monitor (builder-style). Requires
    /// [`QuorumSystem::with_monitor`] to be of use: each level the
    /// degradation monitor reports as dead starts that level's error
    /// budget clock, and exhaustion is recorded into the trace as an
    /// `SloBudgetExhausted` event (at most once per level).
    #[must_use]
    pub fn with_slo(mut self, slo: SloMonitor) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Enables the profiling flight recorder (builder-style): the run
    /// loops then wrap every simulator event in a `step` span and every
    /// monitor poll in a `monitor` span, [`QuorumSystem::sample_staleness`]
    /// records a `staleness` span per sample, and
    /// [`QuorumSystem::flush_profile`] snapshots the cache/gossip
    /// tallies as gauges. Costs one branch per step when not called.
    #[must_use]
    pub fn with_profile(mut self) -> Self {
        self.probe = Probe::enabled();
        self
    }

    /// The profiling probe (disabled unless
    /// [`QuorumSystem::with_profile`] was called).
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// Writes the runtime's view-cache and gossip tallies into the
    /// profiling probe as gauges, stamped at current sim time. The short
    /// names (`vc_hits`, `gossip_delta`, …) fit the trace's inline
    /// labels; the canonical Prometheus-style names stay in
    /// [`QuorumSystem::registry`]. No-op when profiling is off.
    pub fn flush_profile(&mut self) {
        if !self.probe.is_enabled() {
            return;
        }
        let (delta, full) = self.gossip_send_counts();
        let (hits, misses) = self.viewcache_counts();
        let replayed = self.viewcache_replayed_entries();
        self.probe.set_sim_time(self.world.now().0);
        self.probe.gauge("vc_hits", hits as i64);
        self.probe.gauge("vc_misses", misses as i64);
        self.probe.gauge("vc_replay", replayed as i64);
        self.probe.gauge("gossip_delta", delta as i64);
        self.probe.gauge("gossip_full", full as i64);
        let (rounds, nodes, _) = self.merkle_sync_counts();
        self.probe.gauge("merkle_rounds", rounds as i64);
        self.probe.gauge("merkle_nodes", nodes as i64);
        self.probe
            .gauge("vc_cp_hits", self.viewcache_checkpoint_hits() as i64);
    }

    /// Flushes the runtime tallies ([`QuorumSystem::flush_profile`]) and
    /// builds the profile report over everything recorded so far.
    pub fn profile_report(&mut self) -> Result<ProfileReport, String> {
        self.flush_profile();
        self.probe.report()
    }

    /// The attached staleness tracker, if any.
    pub fn staleness(&self) -> Option<&StalenessTracker> {
        self.staleness.as_ref()
    }

    /// The attached SLO monitor, if any.
    pub fn slo(&self) -> Option<&SloMonitor> {
        self.slo.as_ref()
    }

    /// The observability metrics registry: staleness, gossip-efficiency,
    /// view-cache, and wire gauges, all refreshed by
    /// [`QuorumSystem::export_metrics`] (call it before scraping).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Snapshots every replica's frontier into the staleness tracker and
    /// records `ReplicaLagSampled` / `FrontierDivergence` trace events.
    /// No-op unless [`QuorumSystem::with_staleness`] was called. Purely
    /// observational — sends no messages and draws no randomness, so
    /// sampling cannot perturb a run.
    ///
    /// This is the hot path of high-frequency monitoring, so it reuses
    /// the system's snapshot buffers and defers all gauge refreshes:
    /// [`QuorumSystem::export_metrics`] writes the latest readings into
    /// the registry when a scrape actually wants them.
    pub fn sample_staleness(&mut self) {
        if self.probe.is_enabled() {
            self.probe.set_sim_time(self.world.now().0);
            self.probe.enter("staleness");
            self.sample_staleness_inner();
            self.probe.exit("staleness");
        } else {
            self.sample_staleness_inner();
        }
    }

    fn sample_staleness_inner(&mut self) {
        let Some(tracker) = self.staleness.as_mut() else {
            return;
        };
        for (i, view) in self.staleness_views.iter_mut().enumerate() {
            let log = match self.world.node(NodeId(i)) {
                RoleNode::Replica(r) => &r.log,
                RoleNode::Client(_) => unreachable!("replica ids are 0..n"),
            };
            view.sites.clear();
            view.sites
                .extend(log.site_summaries().iter().map(|s| SiteCount {
                    site: s.site as u32,
                    count: s.count,
                    hash: s.hash,
                }));
        }
        let now = self.world.now().0;
        self.staleness_scratch.clear();
        tracker.sample_into(now, &self.staleness_views, &mut self.staleness_scratch);
        for event in self.staleness_scratch.drain(..) {
            self.world.tracer_mut().record(now, event);
        }
    }

    /// Gossip sends across all replicas as `(delta, full)`: pushes that
    /// shipped only a delta suffix vs. full-log replays (the fallback
    /// when the receiver's frontier is unknown, and the only payload
    /// under [`ReplicationMode::FullLog`]).
    pub fn gossip_send_counts(&self) -> (u64, u64) {
        let mut delta = 0;
        let mut full = 0;
        for i in 0..self.n_replicas {
            if let RoleNode::Replica(r) = self.world.node(NodeId(i)) {
                delta += r.gossip_delta;
                full += r.gossip_full;
            }
        }
        (delta, full)
    }

    /// Merkle anti-entropy counters summed across all replicas, as
    /// `(sync_rounds, nodes_exchanged, leaf_reuses)`: localization
    /// rounds answered, tree nodes shipped in summaries, and divergent
    /// leaf payloads served from the per-version Arc cache instead of
    /// being re-materialized.
    pub fn merkle_sync_counts(&self) -> (u64, u64, u64) {
        let mut rounds = 0;
        let mut nodes = 0;
        let mut reuses = 0;
        for i in 0..self.n_replicas {
            if let RoleNode::Replica(r) = self.world.node(NodeId(i)) {
                rounds += r.merkle_rounds;
                nodes += r.merkle_nodes;
                reuses += r.merkle_leaf_reuse;
            }
        }
        (rounds, nodes, reuses)
    }

    /// How many view-cache misses (across all clients) resumed from a
    /// surviving checkpoint instead of replaying from zero.
    pub fn viewcache_checkpoint_hits(&self) -> u64 {
        let mut hits = 0;
        for &id in &self.clients {
            if let RoleNode::Client(c) = self.world.node(id) {
                hits += c.cache.checkpoint_hits();
            }
        }
        hits
    }

    /// View-cache hits and misses summed across all clients.
    pub fn viewcache_counts(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for &id in &self.clients {
            if let RoleNode::Client(c) = self.world.node(id) {
                hits += c.cache.hits();
                misses += c.cache.misses();
            }
        }
        (hits, misses)
    }

    /// Total log entries folded by the clients' view caches — the
    /// replay depth memoization could not avoid (see
    /// [`ViewCache::entries_replayed`]).
    pub fn viewcache_replayed_entries(&self) -> u64 {
        let mut replayed = 0;
        for &id in &self.clients {
            if let RoleNode::Client(c) = self.world.node(id) {
                replayed += c.cache.entries_replayed();
            }
        }
        replayed
    }

    /// Refreshes the gossip-efficiency, view-cache, and wire gauges in
    /// [`QuorumSystem::registry`] from the current node and world state.
    /// Call before rendering or scraping the registry.
    pub fn export_metrics(&mut self) {
        if let Some(tracker) = &self.staleness {
            tracker.flush_gauges(&mut self.registry);
        }
        let (delta, full) = self.gossip_send_counts();
        let (hits, misses) = self.viewcache_counts();
        self.registry.gauge("gossip_delta_sends").set(delta as i64);
        self.registry.gauge("gossip_full_sends").set(full as i64);
        self.registry.gauge("viewcache_hits").set(hits as i64);
        self.registry.gauge("viewcache_misses").set(misses as i64);
        let replayed = self.viewcache_replayed_entries();
        self.registry
            .gauge("viewcache_replayed_entries")
            .set(replayed as i64);
        let cp_hits = self.viewcache_checkpoint_hits();
        self.registry
            .gauge("viewcache_checkpoint_hits")
            .set(cp_hits as i64);
        let (calm_fast, calm_quorum) = self.calm_op_counts();
        self.registry.gauge("calm_fast_ops").set(calm_fast as i64);
        self.registry
            .gauge("calm_quorum_ops")
            .set(calm_quorum as i64);
        let (rounds, nodes, reuses) = self.merkle_sync_counts();
        self.registry.gauge("merkle_sync_rounds").set(rounds as i64);
        self.registry
            .gauge("merkle_nodes_exchanged")
            .set(nodes as i64);
        self.registry.gauge("merkle_leaf_reuses").set(reuses as i64);
        self.registry
            .gauge(relax_trace::metrics::wire::MESSAGES_SENT)
            .set(self.world.messages_sent() as i64);
        self.registry
            .gauge(relax_trace::metrics::wire::BYTES_SHIPPED)
            .set(self.world.bytes_sent() as i64);
    }

    /// Feeds any newly completed operations (across all clients, in
    /// completion order) to the attached monitor; called automatically by
    /// the run methods after every step.
    fn poll_monitor(&mut self) {
        if self.monitor.is_none() {
            return;
        }
        let mut fresh: Vec<<T as ReplicatedType>::Op> = Vec::new();
        for ix in 0..self.clients.len() {
            let outcomes = self.outcomes_of(ix);
            let seen = self.monitor_seen[ix];
            if outcomes.len() > seen {
                for o in &outcomes[seen..] {
                    if let Outcome::Completed { op, .. } = o {
                        fresh.push(op.clone());
                    }
                }
                self.monitor_seen[ix] = outcomes.len();
            }
        }
        let now = self.world.now().0;
        let mut events: Vec<TraceEvent> = Vec::new();
        if !fresh.is_empty() {
            let monitor = self.monitor.as_mut().expect("checked above");
            for op in fresh {
                if let Some(transition) = monitor.observe(&op) {
                    if let Some(slo) = self.slo.as_mut() {
                        for level in &transition.left {
                            slo.level_died(now, level);
                        }
                    }
                    events.push(transition.to_event());
                }
            }
        }
        if let Some(slo) = self.slo.as_mut() {
            events.extend(slo.advance(now));
        }
        for event in events {
            self.world.tracer_mut().record(now, event);
        }
    }

    /// The clients' node ids.
    pub fn clients(&self) -> &[NodeId] {
        &self.clients
    }

    /// Enables replica-to-replica anti-entropy: every `interval` ticks of
    /// inactivity, each replica pushes its log to one random peer.
    /// (Builder-style; call before running.)
    ///
    /// A gossiping system never quiesces (the timers re-arm forever):
    /// drive it with [`QuorumSystem::run_until`], not
    /// [`QuorumSystem::run_to_quiescence`].
    #[must_use]
    pub fn with_gossip(mut self, interval: u64) -> Self {
        self.enable_gossip(interval);
        self
    }

    /// Non-consuming form of [`QuorumSystem::with_gossip`]: turns
    /// anti-entropy on mid-run (e.g. after a partition heals), so an
    /// experiment can measure the repair traffic in isolation.
    pub fn enable_gossip(&mut self, interval: u64) {
        assert!(interval > 0, "gossip interval must be positive");
        for i in 0..self.n_replicas {
            if let RoleNode::Replica(r) = self.world.node_mut(NodeId(i)) {
                r.gossip = Some(interval);
            }
            // Arm the first timer.
            self.world.send_external(NodeId(i), Msg::GossipKick);
        }
    }

    /// Enables or disables the clients' view-cache checkpoint chains
    /// (enabled by default; disable for the replay-depth baseline).
    /// Builder-style; call before running.
    #[must_use]
    pub fn with_view_checkpoints(mut self, on: bool) -> Self {
        for &id in &self.clients.clone() {
            if let RoleNode::Client(c) = self.world.node_mut(id) {
                c.cache.set_checkpoints(on);
            }
        }
        self
    }

    /// The underlying world (fault injection, clock, …).
    pub fn world_mut(&mut self) -> &mut World<Msg<T>, RoleNode<T>> {
        &mut self.world
    }

    /// Read access to the underlying world.
    pub fn world(&self) -> &World<Msg<T>, RoleNode<T>> {
        &self.world
    }

    /// Submits an invocation to the first client (queued; each client
    /// runs its own invocations sequentially).
    pub fn submit(&mut self, inv: T::Inv) {
        self.submit_to(0, inv);
    }

    /// Submits an invocation to client `ix`.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is not a client index.
    pub fn submit_to(&mut self, ix: usize, inv: T::Inv) {
        let client = self.clients[ix];
        self.world.send_external(client, Msg::Start(inv));
    }

    /// One simulator event plus a monitor poll, wrapped in `step` /
    /// `monitor` profiling spans when the probe is on. Returns whether
    /// the world made progress.
    fn step_once(&mut self) -> bool {
        if self.probe.is_enabled() {
            self.probe.set_sim_time(self.world.now().0);
            self.probe.enter("step");
            let progressed = self.world.step();
            self.probe.set_sim_time(self.world.now().0);
            self.probe.exit("step");
            if progressed {
                self.probe.enter("monitor");
                self.poll_monitor();
                self.probe.exit("monitor");
            }
            progressed
        } else {
            let progressed = self.world.step();
            if progressed {
                self.poll_monitor();
            }
            progressed
        }
    }

    /// Runs the simulation until `t`.
    pub fn run_until(&mut self, t: SimTime) {
        if self.monitor.is_none() && !self.probe.is_enabled() {
            self.world.run_until(t);
            return;
        }
        while self.world.next_event_time().is_some_and(|tn| tn <= t) {
            self.step_once();
        }
        self.world.advance_clock_to(t);
    }

    /// Runs to quiescence (bounded by `max_events`).
    pub fn run_to_quiescence(&mut self, max_events: u64) -> bool {
        if self.monitor.is_none() && !self.probe.is_enabled() {
            return self.world.run_to_quiescence(max_events);
        }
        let mut budget = max_events;
        while budget > 0 {
            if !self.step_once() {
                return true;
            }
            budget -= 1;
        }
        self.world.next_event_time().is_none()
    }

    /// Runs until at least `count` outcomes have been recorded (or the
    /// event budget is exhausted). Returns `true` if the count was
    /// reached.
    pub fn run_until_outcomes(&mut self, count: usize, max_events: u64) -> bool {
        let mut budget = max_events;
        while self.outcomes().len() < count && budget > 0 {
            if !self.step_once() {
                break;
            }
            budget -= 1;
        }
        self.outcomes().len() >= count
    }

    /// Runs until the first outcome is recorded. Returns `true` on
    /// success within the event budget.
    pub fn run_to_first_outcome(&mut self, max_events: u64) -> bool {
        self.run_until_outcomes(1, max_events)
    }

    /// The first client's outcomes.
    pub fn outcomes(&self) -> &[Outcome<T::Op>] {
        self.outcomes_of(0)
    }

    /// The outcomes of client `ix`.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is not a client index.
    pub fn outcomes_of(&self, ix: usize) -> &[Outcome<T::Op>] {
        match self.world.node(self.clients[ix]) {
            RoleNode::Client(c) => c.outcomes(),
            RoleNode::Replica(_) => unreachable!("client ids are fixed"),
        }
    }

    /// Client `ix`'s write bookkeeping, for the invariant tests.
    #[doc(hidden)]
    pub fn client_bookkeeping(&self, ix: usize) -> ClientBookkeeping<'_, T::Op> {
        match self.world.node(self.clients[ix]) {
            RoleNode::Client(c) => ClientBookkeeping {
                known: &c.known,
                sent: &c.sent,
                shipped: c.shipped,
                fast_writes: c.fast_writes.len(),
            },
            RoleNode::Replica(_) => unreachable!("client ids are fixed"),
        }
    }

    /// All clients' completed operations, flattened.
    pub fn completed_ops(&self) -> Vec<T::Op> {
        let mut out = Vec::new();
        for ix in 0..self.clients.len() {
            for o in self.outcomes_of(ix) {
                if let Outcome::Completed { op, .. } = o {
                    out.push(op.clone());
                }
            }
        }
        out
    }

    /// The resident log of replica `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a replica index.
    pub fn replica_log(&self, i: usize) -> &Log<T::Op> {
        assert!(i < self.n_replicas, "replica index out of range");
        match self.world.node(NodeId(i)) {
            RoleNode::Replica(r) => &r.log,
            RoleNode::Client(_) => unreachable!("replica ids are 0..n"),
        }
    }

    /// The union of all replica logs, as a history in timestamp order —
    /// the system's "true" history.
    pub fn merged_history(&self) -> History<T::Op> {
        let mut all = Log::new();
        for i in 0..self.n_replicas {
            all.merge(self.replica_log(i));
        }
        all.to_history()
    }
}

impl<T: ReplicatedType> ClientTable<T> for QuorumSystem<T> {
    fn n_clients(&self) -> usize {
        self.clients.len()
    }

    fn outcomes_of(&self, ix: usize) -> &[Outcome<T::Op>] {
        QuorumSystem::outcomes_of(self, ix)
    }
}

impl<T: ReplicatedType> Executor<T> for QuorumSystem<T> {
    fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    fn submit_to(&mut self, ix: usize, inv: T::Inv) {
        QuorumSystem::submit_to(self, ix, inv);
    }

    /// Drives the simulated world to quiescence. Requires a quiescing
    /// configuration — gossip off — or the run never drains. Wall time
    /// is the host's real elapsed time around the event loop, so sim
    /// throughput is directly comparable to the threaded backend's.
    fn run_all(&mut self) -> RunStats {
        let total = |sys: &Self| -> usize {
            (0..sys.clients.len())
                .map(|ix| QuorumSystem::outcomes_of(sys, ix).len())
                .sum()
        };
        let before = total(self);
        let start = std::time::Instant::now();
        self.run_to_quiescence(u64::MAX);
        RunStats {
            ops: (total(self) - before) as u64,
            wall_nanos: (start.elapsed().as_nanos() as u64).max(1),
        }
    }

    fn replica_log(&self, i: usize) -> &Log<T::Op> {
        QuorumSystem::replica_log(self, i)
    }

    fn merged_history(&self) -> History<T::Op> {
        QuorumSystem::merged_history(self)
    }
}

// ---------------------------------------------------------------------------
// Concrete replicated types
// ---------------------------------------------------------------------------

/// Invocations for the replicated taxi queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueInv {
    /// Enqueue a request with the given priority.
    Enq(relax_queues::Item),
    /// Dequeue the best visible request.
    Deq,
}

/// Renders a [`QueueInv`] label without the `fmt` machinery (hot path;
/// see [`ReplicatedType::op_label`]).
fn queue_inv_label(inv: &QueueInv) -> OpLabel {
    let mut label = OpLabel::default();
    match inv {
        QueueInv::Enq(e) => {
            label.push_str("Enq(");
            label.push_i64(*e);
            label.push_str(")");
        }
        QueueInv::Deq => label.push_str("Deq"),
    }
    label
}

/// The replicated taxi-dispatch priority queue of §3.3, with the paper's
/// evaluation function `η` (views are bags).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaxiQueueType;

impl ReplicatedType for TaxiQueueType {
    type Inv = QueueInv;
    type Op = relax_queues::QueueOp;
    type Value = relax_queues::Bag<relax_queues::Item>;

    fn initial_value(&self) -> Self::Value {
        relax_queues::Bag::new()
    }

    fn apply(&self, value: &Self::Value, op: &Self::Op) -> Self::Value {
        use relax_queues::Eval;
        relax_queues::Eta.apply(value, op)
    }

    fn apply_mut(&self, value: &mut Self::Value, op: &Self::Op) {
        use relax_queues::Eval;
        relax_queues::Eta.apply_mut(value, op);
    }

    fn execute(&self, value: &Self::Value, inv: &QueueInv) -> Option<Self::Op> {
        match inv {
            QueueInv::Enq(e) => Some(relax_queues::QueueOp::Enq(*e)),
            QueueInv::Deq => value.best().map(|b| relax_queues::QueueOp::Deq(*b)),
        }
    }

    fn invocation_kind(&self, inv: &QueueInv) -> crate::relation::QueueKind {
        match inv {
            QueueInv::Enq(_) => crate::relation::QueueKind::Enq,
            QueueInv::Deq => crate::relation::QueueKind::Deq,
        }
    }

    fn op_label(&self, inv: &QueueInv) -> OpLabel {
        queue_inv_label(inv)
    }
}

/// The replicated taxi queue with the *alternative* evaluation function
/// `η′` of §3.3: a dequeue's view discards every pending request with
/// priority above the returned one ("skipped over" requests are ignored
/// forever). Compare with [`TaxiQueueType`] — same invocations, same
/// quorums, different degradation: never out of order, may starve
/// requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaxiQueuePrimeType;

impl ReplicatedType for TaxiQueuePrimeType {
    type Inv = QueueInv;
    type Op = relax_queues::QueueOp;
    type Value = relax_queues::Bag<relax_queues::Item>;

    fn initial_value(&self) -> Self::Value {
        relax_queues::Bag::new()
    }

    fn apply(&self, value: &Self::Value, op: &Self::Op) -> Self::Value {
        use relax_queues::Eval;
        relax_queues::EtaPrime.apply(value, op)
    }

    fn apply_mut(&self, value: &mut Self::Value, op: &Self::Op) {
        use relax_queues::Eval;
        relax_queues::EtaPrime.apply_mut(value, op);
    }

    fn execute(&self, value: &Self::Value, inv: &QueueInv) -> Option<Self::Op> {
        match inv {
            QueueInv::Enq(e) => Some(relax_queues::QueueOp::Enq(*e)),
            QueueInv::Deq => value.best().map(|b| relax_queues::QueueOp::Deq(*b)),
        }
    }

    fn invocation_kind(&self, inv: &QueueInv) -> crate::relation::QueueKind {
        match inv {
            QueueInv::Enq(_) => crate::relation::QueueKind::Enq,
            QueueInv::Deq => crate::relation::QueueKind::Deq,
        }
    }

    fn op_label(&self, inv: &QueueInv) -> OpLabel {
        queue_inv_label(inv)
    }
}

/// A [`DegradationMonitor`] preloaded with the paper's priority-queue
/// relaxation lattice (Figs 3-1 to 3-5), most-constrained first:
///
/// * **PQ** — the faithful FIFO-priority queue (`Q1 ∧ Q2` behaviour);
/// * **MPQ** — duplicates possible, order preserved (only `Q1` held);
/// * **OPQ** — no duplicates, order may be violated (only `Q2` held);
/// * **DegenPQ** — anything enqueued may come out, any number of times.
///
/// Attach it with [`QuorumSystem::with_monitor`] to classify the live
/// completion order of a replicated taxi queue against the lattice.
#[must_use]
pub fn queue_lattice_monitor() -> DegradationMonitor<relax_queues::QueueOp> {
    DegradationMonitor::new()
        .level("PQ", relax_queues::PQueueAutomaton::new())
        .level("MPQ", relax_queues::MpqAutomaton::new())
        .level("OPQ", relax_queues::OpqAutomaton::new())
        .level("DegenPQ", relax_queues::DegenPqAutomaton::new())
}

/// Invocations for the replicated bank account.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccountInv {
    /// Credit the account.
    Credit(u32),
    /// Debit the account (may bounce).
    Debit(u32),
}

/// The replicated ATM bank account of §3.4. A `Debit` against a view with
/// an insufficient *visible* balance completes as `Overdraft` — the
/// spurious bounce the bank tolerates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankAccountType;

impl ReplicatedType for BankAccountType {
    type Inv = AccountInv;
    type Op = relax_queues::AccountOp;
    type Value = i64;

    fn initial_value(&self) -> i64 {
        0
    }

    fn apply(&self, value: &i64, op: &Self::Op) -> i64 {
        use relax_queues::Eval;
        relax_queues::eval::AccountEval.apply(value, op)
    }

    fn apply_mut(&self, value: &mut i64, op: &Self::Op) {
        use relax_queues::Eval;
        relax_queues::eval::AccountEval.apply_mut(value, op);
    }

    fn execute(&self, value: &i64, inv: &AccountInv) -> Option<Self::Op> {
        match inv {
            AccountInv::Credit(n) => Some(relax_queues::AccountOp::Credit(*n)),
            AccountInv::Debit(n) => Some(if *value >= i64::from(*n) {
                relax_queues::AccountOp::DebitOk(*n)
            } else {
                relax_queues::AccountOp::DebitOverdraft(*n)
            }),
        }
    }

    fn invocation_kind(&self, inv: &AccountInv) -> crate::relation::AccountKind {
        match inv {
            AccountInv::Credit(_) => crate::relation::AccountKind::Credit,
            AccountInv::Debit(_) => crate::relation::AccountKind::Debit,
        }
    }

    fn apply_commutes(&self) -> bool {
        // Credits add, debits subtract, overdrafts no-op: integer
        // addition commutes, so views fold in any order.
        true
    }

    fn op_label(&self, inv: &AccountInv) -> OpLabel {
        let mut label = OpLabel::default();
        let (name, amount) = match inv {
            AccountInv::Credit(n) => ("Credit(", n),
            AccountInv::Debit(n) => ("Debit(", n),
        };
        label.push_str(name);
        label.push_u32(*amount);
        label.push_str(")");
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_automata::ObjectAutomaton;
    use relax_queues::{PQueueAutomaton, QueueOp};
    use relax_sim::{Fault, FaultSchedule};

    use crate::relation::QueueKind;

    fn taxi_assignment(n: usize) -> VotingAssignment<QueueKind> {
        // Majority Deq quorums, single-site Enq final... Enq final must
        // intersect Deq initial: deq_init + enq_final > n. Use
        // deq_init = deq_final = majority, enq_final = n - deq_init + 1.
        let maj = n / 2 + 1;
        VotingAssignment::new(n)
            .with_initial(QueueKind::Deq, maj)
            .with_final(QueueKind::Deq, maj)
            .with_initial(QueueKind::Enq, 1)
            .with_final(QueueKind::Enq, n - maj + 1)
    }

    fn healthy_system(seed: u64) -> QuorumSystem<TaxiQueueType> {
        QuorumSystem::new(
            TaxiQueueType,
            3,
            taxi_assignment(3),
            ClientConfig::default(),
            NetworkConfig::default(),
            seed,
        )
    }

    #[test]
    fn healthy_run_is_one_copy_serializable() {
        let mut sys = healthy_system(11);
        sys.submit(QueueInv::Enq(2));
        sys.submit(QueueInv::Enq(9));
        sys.submit(QueueInv::Deq);
        sys.submit(QueueInv::Deq);
        assert!(sys.run_to_quiescence(100_000));

        let outcomes = sys.outcomes();
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(Outcome::is_completed));
        // First Deq returns 9 (the best), second returns 2.
        assert!(matches!(
            outcomes[2],
            Outcome::Completed {
                op: QueueOp::Deq(9),
                ..
            }
        ));
        assert!(matches!(
            outcomes[3],
            Outcome::Completed {
                op: QueueOp::Deq(2),
                ..
            }
        ));

        // The merged replica history is a legal priority-queue history.
        let h = sys.merged_history();
        assert!(PQueueAutomaton::new().accepts(&h));
    }

    #[test]
    fn deq_on_empty_is_refused() {
        let mut sys = healthy_system(5);
        sys.submit(QueueInv::Deq);
        sys.run_to_quiescence(10_000);
        assert!(matches!(sys.outcomes()[0], Outcome::Refused { .. }));
    }

    /// Enq as available as possible (quorums of one), paid for by
    /// initial Deq quorums of all sites — the other end of the Q1
    /// trade-off.
    fn enq_cheap_assignment(n: usize) -> VotingAssignment<QueueKind> {
        VotingAssignment::new(n)
            .with_initial(QueueKind::Enq, 1)
            .with_final(QueueKind::Enq, 1)
            .with_initial(QueueKind::Deq, n)
            .with_final(QueueKind::Deq, 1)
    }

    #[test]
    fn crash_makes_deq_unavailable_but_enq_survives() {
        let mut sys = QuorumSystem::new(
            TaxiQueueType,
            3,
            enq_cheap_assignment(3),
            ClientConfig::default(),
            NetworkConfig::default(),
            7,
        );
        sys.world_mut().network_mut().crash(NodeId(0));
        sys.submit(QueueInv::Enq(4)); // quorums of 1: still fine
        sys.submit(QueueInv::Deq); // needs all 3 sites: unavailable
        sys.run_to_quiescence(100_000);
        let outcomes = sys.outcomes();
        assert!(outcomes[0].is_completed());
        assert!(outcomes[1].is_timeout());
    }

    #[test]
    fn recovery_restores_availability() {
        let mut sys = QuorumSystem::new(
            TaxiQueueType,
            3,
            enq_cheap_assignment(3),
            ClientConfig::default(),
            NetworkConfig::default(),
            3,
        );
        sys.world_mut().set_schedule(
            FaultSchedule::new()
                .down_between(NodeId(0), SimTime(0), SimTime(500))
                .at(SimTime(0), Fault::Crash(NodeId(1)))
                .at(SimTime(500), Fault::Recover(NodeId(1))),
        );
        sys.submit(QueueInv::Enq(4)); // completes at replica 2
        sys.submit(QueueInv::Deq); // needs all sites: times out during outage
        sys.run_until(SimTime(600));
        sys.submit(QueueInv::Deq); // succeeds after recovery
        sys.run_to_quiescence(100_000);
        let outcomes = sys.outcomes();
        assert!(outcomes[0].is_completed());
        assert!(outcomes[1].is_timeout());
        assert!(
            matches!(
                outcomes[2],
                Outcome::Completed {
                    op: QueueOp::Deq(4),
                    ..
                }
            ),
            "got {:?}",
            outcomes[2]
        );
    }

    #[test]
    fn gossip_converges_divergent_replicas() {
        use relax_sim::{Fault, FaultSchedule, Partition};
        // Write lands only at replica 0 (partition isolates {client, 0});
        // after healing, anti-entropy alone (no further client traffic)
        // spreads it to all replicas.
        let assignment = VotingAssignment::new(3)
            .with_initial(QueueKind::Enq, 0)
            .with_final(QueueKind::Enq, 1)
            .with_initial(QueueKind::Deq, 1)
            .with_final(QueueKind::Deq, 1);
        let mut sys = QuorumSystem::new(
            TaxiQueueType,
            3,
            assignment,
            ClientConfig::default(),
            NetworkConfig::default(),
            13,
        )
        .with_gossip(25);
        sys.world_mut().set_schedule(
            FaultSchedule::new()
                .at(
                    SimTime(0),
                    Fault::Partition(Partition::groups(vec![
                        vec![NodeId(3), NodeId(0)],
                        vec![NodeId(1), NodeId(2)],
                    ])),
                )
                .at(SimTime(100), Fault::Heal),
        );
        sys.submit(QueueInv::Enq(7));
        sys.run_until(SimTime(90));
        assert_eq!(sys.replica_log(0).len(), 1);
        assert_eq!(sys.replica_log(1).len(), 0);
        assert_eq!(sys.replica_log(2).len(), 0);
        // Heal and let gossip do its work — no client activity.
        sys.run_until(SimTime(1_000));
        for i in 0..3 {
            assert_eq!(sys.replica_log(i).len(), 1, "replica {i} not converged");
        }
    }

    #[test]
    fn without_gossip_divergence_persists() {
        use relax_sim::{Fault, FaultSchedule, Partition};
        let assignment = VotingAssignment::new(3)
            .with_initial(QueueKind::Enq, 0)
            .with_final(QueueKind::Enq, 1)
            .with_initial(QueueKind::Deq, 1)
            .with_final(QueueKind::Deq, 1);
        let mut sys = QuorumSystem::new(
            TaxiQueueType,
            3,
            assignment,
            ClientConfig::default(),
            NetworkConfig::default(),
            13,
        );
        sys.world_mut().set_schedule(
            FaultSchedule::new()
                .at(
                    SimTime(0),
                    Fault::Partition(Partition::groups(vec![
                        vec![NodeId(3), NodeId(0)],
                        vec![NodeId(1), NodeId(2)],
                    ])),
                )
                .at(SimTime(100), Fault::Heal),
        );
        sys.submit(QueueInv::Enq(7));
        sys.run_until(SimTime(1_000));
        assert_eq!(sys.replica_log(0).len(), 1);
        assert_eq!(sys.replica_log(1).len(), 0, "no anti-entropy configured");
    }

    #[test]
    fn concurrent_drivers_can_duplicate_dispatch() {
        // Two drivers dequeue *concurrently*: their read phases both run
        // before either write lands, so both serve request 5 — the race
        // the paper's §2 atomicity assumption excludes and §4's
        // transactional machinery prevents.
        let mut duplicated = 0;
        for seed in 0..20 {
            let mut sys = QuorumSystem::with_clients(
                TaxiQueueType,
                3,
                2,
                taxi_assignment(3),
                ClientConfig::default(),
                NetworkConfig::default(),
                seed,
            );
            sys.submit_to(0, QueueInv::Enq(5));
            sys.run_to_quiescence(100_000);
            sys.submit_to(0, QueueInv::Deq);
            sys.submit_to(1, QueueInv::Deq);
            sys.run_to_quiescence(100_000);
            let deqs = sys
                .completed_ops()
                .into_iter()
                .filter(|op| matches!(op, QueueOp::Deq(5)))
                .count();
            if deqs == 2 {
                duplicated += 1;
            }
        }
        assert!(duplicated > 0, "expected concurrent duplicate dispatch");
    }

    #[test]
    fn sequential_clients_stay_one_copy() {
        // The same two drivers, but serialized in time: no duplicates —
        // the merged history is a legal priority-queue history.
        for seed in 0..10 {
            let mut sys = QuorumSystem::with_clients(
                TaxiQueueType,
                3,
                2,
                taxi_assignment(3),
                ClientConfig::default(),
                NetworkConfig::default(),
                seed,
            );
            sys.submit_to(0, QueueInv::Enq(5));
            sys.run_to_quiescence(100_000);
            sys.submit_to(0, QueueInv::Deq);
            sys.run_to_quiescence(100_000);
            sys.submit_to(1, QueueInv::Deq);
            sys.run_to_quiescence(100_000);
            let h = sys.merged_history();
            assert!(
                PQueueAutomaton::new().accepts(&h),
                "seed {seed}: {h} not a PQ history"
            );
        }
    }

    #[test]
    fn duplicate_deq_kills_pq_and_opq_in_the_same_step() {
        // PQ forbids duplicates (and order violations); OPQ forbids
        // duplicates but tolerates disorder. A history that serves the
        // same request twice therefore kills both in one step, and the
        // single emitted transition carries both level names with the
        // duplicate Deq as the shared witness. MPQ (duplicates allowed,
        // order kept) survives and becomes the current level.
        let mut m = queue_lattice_monitor();
        assert!(m.observe(&QueueOp::Enq(5)).is_none());
        assert!(m.observe(&QueueOp::Deq(5)).is_none());
        let t = m
            .observe(&QueueOp::Deq(5))
            .expect("duplicate Deq must witness a transition")
            .clone();
        assert_eq!(t.left, vec!["PQ".to_string(), "OPQ".to_string()]);
        assert_eq!(t.now.as_deref(), Some("MPQ"));
        assert_eq!(t.witness, "Deq(5)");
        assert_eq!(t.op_index, 2);
        // Both deaths happened on the same observed op — one shared
        // witness, not two transitions.
        assert_eq!(m.transitions().len(), 1);
        assert_eq!(m.died_at("PQ"), Some(2));
        assert_eq!(m.died_at("OPQ"), Some(2));
        assert_eq!(m.is_alive("MPQ"), Some(true));
        assert_eq!(m.is_alive("DegenPQ"), Some(true));
    }

    #[test]
    fn op_labels_render_without_fmt_and_match_debug() {
        // The manual label builders must agree with the Debug-based
        // default they replace (for values that fit the label).
        for inv in [QueueInv::Enq(5), QueueInv::Enq(-3), QueueInv::Deq] {
            assert_eq!(
                TaxiQueueType.op_label(&inv).as_str(),
                OpLabel::from_debug(&inv).as_str()
            );
            assert_eq!(
                TaxiQueuePrimeType.op_label(&inv).as_str(),
                OpLabel::from_debug(&inv).as_str()
            );
        }
        for inv in [AccountInv::Credit(10), AccountInv::Debit(7)] {
            assert_eq!(
                BankAccountType.op_label(&inv).as_str(),
                OpLabel::from_debug(&inv).as_str()
            );
        }
    }

    /// Runs the same partitioned, gossiping workload in one replication
    /// mode and returns everything observable.
    #[allow(clippy::type_complexity)]
    fn observable_run(
        mode: ReplicationMode,
        memoize: bool,
        seed: u64,
    ) -> (Vec<Outcome<QueueOp>>, Vec<QueueOp>, u64, u64) {
        use relax_sim::Partition;
        let mut sys = QuorumSystem::new(
            TaxiQueueType,
            3,
            taxi_assignment(3),
            ClientConfig::default(),
            NetworkConfig::default(),
            seed,
        )
        .with_replication(mode)
        .with_memoized_views(memoize)
        .with_wire_accounting()
        .with_gossip(30);
        sys.world_mut().set_schedule(
            FaultSchedule::new()
                .at(
                    SimTime(40),
                    Fault::Partition(Partition::groups(vec![
                        vec![NodeId(3), NodeId(0), NodeId(1)],
                        vec![NodeId(2)],
                    ])),
                )
                .at(SimTime(400), Fault::Heal),
        );
        for i in 0..12 {
            sys.submit(if i % 3 == 2 {
                QueueInv::Deq
            } else {
                QueueInv::Enq(i)
            });
        }
        sys.run_until(SimTime(5_000));
        (
            sys.outcomes().to_vec(),
            sys.merged_history().into_ops(),
            sys.world().messages_sent(),
            sys.world().bytes_sent(),
        )
    }

    #[test]
    fn delta_mode_is_observably_identical_to_full_log() {
        // Same messages at the same times → same rng draws → the two
        // modes agree on *everything* except payload bytes.
        for seed in [3, 17, 99] {
            let full = observable_run(ReplicationMode::FullLog, false, seed);
            let delta = observable_run(ReplicationMode::Delta, true, seed);
            assert_eq!(full.0, delta.0, "outcomes diverged (seed {seed})");
            assert_eq!(full.1, delta.1, "merged history diverged (seed {seed})");
            assert_eq!(full.2, delta.2, "message counts diverged (seed {seed})");
            assert!(
                delta.3 <= full.3,
                "delta mode shipped more bytes (seed {seed}): {} > {}",
                delta.3,
                full.3
            );
        }
    }

    #[test]
    fn delta_mode_ships_far_fewer_bytes_on_long_histories() {
        let run = |mode| {
            let mut sys = QuorumSystem::new(
                TaxiQueueType,
                3,
                taxi_assignment(3),
                ClientConfig::default(),
                NetworkConfig::default(),
                42,
            )
            .with_replication(mode)
            .with_wire_accounting()
            .with_gossip(40);
            for i in 0..120 {
                sys.submit(QueueInv::Enq(i));
            }
            assert!(sys.run_until_outcomes(120, 1_000_000));
            sys.world().bytes_sent()
        };
        let full = run(ReplicationMode::FullLog);
        let delta = run(ReplicationMode::Delta);
        assert!(
            delta * 5 < full,
            "expected ≥5× byte reduction at 120 ops: delta={delta} full={full}"
        );
    }

    /// Two clients on opposite sides of a rotating partition, gossip
    /// off: each window lands one client's writes on a different lone
    /// replica, so by the end every replica holds an interleaved subset
    /// of the other client's site — splice-shaped divergence, not a
    /// clean suffix. Returns (outcomes c1, outcomes c2, merged history,
    /// repair bytes after heal+gossip, merkle counters).
    #[allow(clippy::type_complexity)]
    fn splice_run(
        mode: ReplicationMode,
    ) -> (
        Vec<Outcome<QueueOp>>,
        Vec<Outcome<QueueOp>>,
        Vec<QueueOp>,
        u64,
        (u64, u64, u64),
    ) {
        use relax_sim::Partition;
        let mut sys = QuorumSystem::with_clients(
            TaxiQueueType,
            3,
            2,
            taxi_assignment(3),
            ClientConfig::default(),
            NetworkConfig::default(),
            23,
        )
        .with_replication(mode)
        .with_wire_accounting();
        let wait = |sys: &mut QuorumSystem<TaxiQueueType>, a: usize, b: usize| {
            let mut budget = 1_000_000u64;
            while (sys.outcomes_of(0).len() < a || sys.outcomes_of(1).len() < b) && budget > 0 {
                if !sys.step_once() {
                    break;
                }
                budget -= 1;
            }
            assert!(sys.outcomes_of(0).len() >= a && sys.outcomes_of(1).len() >= b);
        };
        // Window A: client 2 (node 4) can only reach replica 2.
        sys.world_mut().set_schedule(FaultSchedule::new().at(
            SimTime(1),
            Fault::Partition(Partition::groups(vec![
                vec![NodeId(3), NodeId(0), NodeId(1)],
                vec![NodeId(4), NodeId(2)],
            ])),
        ));
        for i in 0..8 {
            sys.submit_to(0, QueueInv::Enq(i));
            sys.submit_to(1, QueueInv::Enq(100 + i));
        }
        wait(&mut sys, 8, 8);
        // Window B: client 2 can only reach replica 1, so its later
        // entries land above a hole (replica 1 never saw window A).
        let now = sys.world().now().0;
        sys.world_mut().set_schedule(FaultSchedule::new().at(
            SimTime(now + 1),
            Fault::Partition(Partition::groups(vec![
                vec![NodeId(3), NodeId(0), NodeId(2)],
                vec![NodeId(4), NodeId(1)],
            ])),
        ));
        for i in 0..40 {
            sys.submit_to(0, QueueInv::Enq(200 + i));
            sys.submit_to(1, QueueInv::Enq(300 + i));
        }
        wait(&mut sys, 48, 48);
        assert_ne!(
            sys.replica_log(1),
            sys.replica_log(2),
            "phase 1 must end divergent"
        );
        // Phase 2: heal and turn on anti-entropy, with no client load —
        // everything sent from here on is repair traffic.
        let before = sys.world().bytes_sent();
        let now = sys.world().now().0;
        sys.world_mut()
            .set_schedule(FaultSchedule::new().at(SimTime(now + 1), Fault::Heal));
        sys.enable_gossip(20);
        let mut t = now;
        let deadline = now + 40_000;
        let converged = |sys: &QuorumSystem<TaxiQueueType>| {
            (1..3).all(|i| sys.replica_log(i) == sys.replica_log(0))
        };
        while t < deadline && !converged(&sys) {
            t += 200;
            sys.run_until(SimTime(t));
        }
        assert!(converged(&sys), "anti-entropy must converge ({mode:?})");
        (
            sys.outcomes_of(0).to_vec(),
            sys.outcomes_of(1).to_vec(),
            sys.merged_history().into_ops(),
            sys.world().bytes_sent() - before,
            sys.merkle_sync_counts(),
        )
    }

    #[test]
    fn merkle_anti_entropy_repairs_splices_with_fewer_bytes() {
        let full = splice_run(ReplicationMode::FullLog);
        let delta = splice_run(ReplicationMode::Delta);
        let merkle = splice_run(ReplicationMode::Merkle);
        // Phase 1 is gossip-free, so the client protocol sends the same
        // messages at the same times in every mode: outcomes and the
        // merged history must be bit-identical.
        assert_eq!(full.0, delta.0);
        assert_eq!(full.0, merkle.0);
        assert_eq!(full.1, delta.1);
        assert_eq!(full.1, merkle.1);
        assert_eq!(full.2, delta.2);
        assert_eq!(full.2, merkle.2);
        // The Merkle walk actually ran, and localization beat both the
        // delta fallback (full-site resends on spliced frontiers) and
        // whole-log pushes on repair bytes.
        let (rounds, nodes, _) = merkle.4;
        assert!(rounds > 0, "merkle sync rounds recorded");
        assert!(nodes > 0, "merkle nodes exchanged");
        assert_eq!(delta.4, (0, 0, 0), "delta mode never walks trees");
        assert!(
            merkle.3 < delta.3,
            "merkle repair should undercut delta: {} vs {}",
            merkle.3,
            delta.3
        );
        assert!(
            merkle.3 < full.3,
            "merkle repair should undercut full-log: {} vs {}",
            merkle.3,
            full.3
        );
    }

    /// The benchmark's `sim_partition_heal` phase 1 in small: two
    /// clients, gossip off, a partition rotating through six windows —
    /// client a keeps a majority and mixes dequeues in, client b sits
    /// with one lone replica and enqueues. Returns both clients'
    /// outcomes, the merged history, messages sent and bytes sent.
    #[allow(clippy::type_complexity)]
    fn rotation_run(
        mode: ReplicationMode,
    ) -> (
        Vec<Outcome<QueueOp>>,
        Vec<Outcome<QueueOp>>,
        Vec<QueueOp>,
        u64,
        u64,
    ) {
        use relax_sim::Partition;
        let assignment = VotingAssignment::new(3)
            .with_initial(QueueKind::Deq, 2)
            .with_final(QueueKind::Deq, 2)
            .with_initial(QueueKind::Enq, 1)
            .with_final(QueueKind::Enq, 1);
        let mut sys = QuorumSystem::with_clients(
            TaxiQueueType,
            3,
            2,
            assignment,
            ClientConfig::default(),
            NetworkConfig::new(1, 5, 0.0),
            7,
        )
        .with_replication(mode)
        .with_wire_accounting();
        for w in 0..6 {
            let lone = NodeId(w % 3);
            let mut with_a: Vec<NodeId> = (0..3).map(NodeId).filter(|&r| r != lone).collect();
            with_a.push(NodeId(3));
            let now = sys.world().now().0;
            sys.world_mut().set_schedule(FaultSchedule::new().at(
                SimTime(now + 1),
                Fault::Partition(Partition::groups(vec![with_a, vec![NodeId(4), lone]])),
            ));
            sys.run_until(SimTime(now + 1));
            for i in 0..6 {
                let id = (w * 6 + i) as i64;
                sys.submit_to(
                    0,
                    if i % 4 == 3 {
                        QueueInv::Deq
                    } else {
                        QueueInv::Enq(id)
                    },
                );
                sys.submit_to(1, QueueInv::Enq(100 + id));
            }
            let done = 6 * (w + 1);
            while sys.outcomes_of(0).len() < done || sys.outcomes_of(1).len() < done {
                assert!(sys.step_once(), "window {w} stalled ({mode:?})");
            }
        }
        (
            sys.outcomes_of(0).to_vec(),
            sys.outcomes_of(1).to_vec(),
            sys.merged_history().into_ops(),
            sys.world().messages_sent(),
            sys.world().bytes_sent(),
        )
    }

    #[test]
    fn rotating_partition_run_is_mode_independent_and_its_wire_is_pinned() {
        let full = rotation_run(ReplicationMode::FullLog);
        let delta = rotation_run(ReplicationMode::Delta);
        let merkle = rotation_run(ReplicationMode::Merkle);
        assert!(full.0.iter().chain(&full.1).all(Outcome::is_completed));
        for other in [&delta, &merkle] {
            assert_eq!(full.0, other.0, "client a's outcomes");
            assert_eq!(full.1, other.1, "client b's outcomes");
            assert_eq!(full.2, other.2, "merged history");
            assert_eq!(full.3, other.3, "messages sent");
        }
        // The client paths of Delta and Merkle are one path.
        assert_eq!(delta.4, merkle.4);
        // Counted at the commit before acks folded what was sent and
        // payloads extended: that change may move no message and no byte.
        assert_eq!((full.3, full.4, delta.4), (648, 238_608, 62_760));
    }

    #[test]
    fn account_overdraft_on_stale_view() {
        // A1 relaxed: Credit final quorum = 1, Debit initial quorum = 1 —
        // a debit may read a replica the credit never reached.
        let assignment = VotingAssignment::new(3)
            .with_final(crate::relation::AccountKind::Credit, 1)
            .with_initial(crate::relation::AccountKind::Debit, 1)
            .with_final(crate::relation::AccountKind::Debit, 2)
            .with_initial(crate::relation::AccountKind::Credit, 1);
        let mut bounced = 0;
        for seed in 0..30 {
            let mut sys = QuorumSystem::new(
                BankAccountType,
                3,
                assignment.clone(),
                ClientConfig::default(),
                NetworkConfig::default(),
                seed,
            );
            sys.submit(AccountInv::Credit(10));
            sys.submit(AccountInv::Debit(5));
            sys.run_to_quiescence(100_000);
            if matches!(
                sys.outcomes()[1],
                Outcome::Completed {
                    op: relax_queues::AccountOp::DebitOverdraft(_),
                    ..
                }
            ) {
                bounced += 1;
            }
        }
        // With credit recorded at 1 of 3 replicas and the debit reading 1,
        // stale reads happen often (≈2/3 of seeds); assert we saw some but
        // not all bounce.
        assert!(bounced > 0, "expected some spurious bounces");
        assert!(bounced < 30, "expected some debits to see the credit");
    }

    #[test]
    fn account_with_a2_never_overdraws() {
        // A2 held: Debit quorums are majorities, so debits always see
        // earlier debits — the balance of *completed DebitOk* operations
        // never exceeds credits.
        let assignment = VotingAssignment::new(3)
            .with_final(crate::relation::AccountKind::Credit, 1)
            .with_initial(crate::relation::AccountKind::Debit, 2)
            .with_final(crate::relation::AccountKind::Debit, 2)
            .with_initial(crate::relation::AccountKind::Credit, 1);
        for seed in 0..20 {
            let mut sys = QuorumSystem::new(
                BankAccountType,
                3,
                assignment.clone(),
                ClientConfig::default(),
                NetworkConfig::default(),
                seed,
            );
            sys.submit(AccountInv::Credit(10));
            sys.submit(AccountInv::Debit(6));
            sys.submit(AccountInv::Debit(6));
            sys.run_to_quiescence(100_000);
            let mut credits = 0i64;
            let mut debits = 0i64;
            for o in sys.outcomes() {
                if let Outcome::Completed { op, .. } = o {
                    match op {
                        relax_queues::AccountOp::Credit(n) => credits += i64::from(*n),
                        relax_queues::AccountOp::DebitOk(n) => debits += i64::from(*n),
                        relax_queues::AccountOp::DebitOverdraft(_) => {}
                    }
                }
            }
            assert!(debits <= credits, "overdraft with A2 held (seed {seed})");
        }
    }

    #[test]
    fn staleness_sampling_tracks_lag_and_convergence() {
        use relax_sim::Partition;
        // Same setup as `gossip_converges_divergent_replicas`: one write
        // isolated at replica 0, then gossip spreads it after healing.
        let assignment = VotingAssignment::new(3)
            .with_initial(QueueKind::Enq, 0)
            .with_final(QueueKind::Enq, 1)
            .with_initial(QueueKind::Deq, 1)
            .with_final(QueueKind::Deq, 1);
        let mut sys = QuorumSystem::new(
            TaxiQueueType,
            3,
            assignment,
            ClientConfig::default(),
            NetworkConfig::default(),
            13,
        )
        .with_trace(1024)
        .with_gossip(25)
        .with_staleness();
        sys.world_mut().set_schedule(
            FaultSchedule::new()
                .at(
                    SimTime(0),
                    Fault::Partition(Partition::groups(vec![
                        vec![NodeId(3), NodeId(0)],
                        vec![NodeId(1), NodeId(2)],
                    ])),
                )
                .at(SimTime(100), Fault::Heal),
        );
        sys.submit(QueueInv::Enq(7));
        sys.run_until(SimTime(90));
        sys.sample_staleness();
        sys.export_metrics();
        let lag = |sys: &QuorumSystem<TaxiQueueType>, i: usize| {
            sys.registry()
                .get_gauge(&format!("staleness_lag_entries_r{i}"))
                .map(relax_trace::Gauge::value)
        };
        // Replica 0 holds the write; 1 and 2 are one entry behind.
        assert_eq!(lag(&sys, 0), Some(0));
        assert_eq!(lag(&sys, 1), Some(1));
        assert_eq!(lag(&sys, 2), Some(1));
        assert_eq!(
            sys.registry()
                .get_gauge("frontier_divergence_entries_r0_r1")
                .map(relax_trace::Gauge::value),
            Some(1)
        );
        // Heal + gossip: everyone converges; gauges drop back to zero
        // on the next export.
        sys.run_until(SimTime(1_000));
        sys.sample_staleness();
        sys.export_metrics();
        for i in 0..3 {
            assert_eq!(lag(&sys, i), Some(0), "replica {i} still lagging");
        }
        let tracker = sys.staleness().expect("attached");
        assert_eq!(tracker.samples(), 2);
        assert_eq!(tracker.max_lag(), &[0, 1, 1]);
        // Both samples landed in the trace: 3 lag events each.
        let lag_events = sys
            .world()
            .tracer()
            .events()
            .filter(|e| matches!(e.kind, TraceEvent::ReplicaLagSampled { .. }))
            .count();
        assert_eq!(lag_events, 6);
    }

    #[test]
    fn gossip_counters_split_delta_from_full_replay() {
        let run = |mode| {
            let mut sys = QuorumSystem::new(
                TaxiQueueType,
                3,
                taxi_assignment(3),
                ClientConfig::default(),
                NetworkConfig::default(),
                42,
            )
            .with_replication(mode)
            .with_gossip(40);
            for i in 0..30 {
                sys.submit(QueueInv::Enq(i));
            }
            assert!(sys.run_until_outcomes(30, 1_000_000));
            // Keep gossiping: once frontiers have been exchanged, delta
            // mode pushes suffixes instead of whole logs.
            let t = sys.world().now();
            sys.run_until(SimTime(t.0 + 2_000));
            sys.gossip_send_counts()
        };
        let (delta_d, full_d) = run(ReplicationMode::Delta);
        assert!(
            full_d > 0,
            "first pushes replay in full (no frontier known yet)"
        );
        assert!(delta_d > 0, "later pushes ship deltas");
        let (delta_f, full_f) = run(ReplicationMode::FullLog);
        assert_eq!(delta_f, 0, "full-log mode never ships a delta");
        assert!(full_f > 0);
    }

    #[test]
    fn slo_budget_exhaustion_fires_once_and_is_traced() {
        use relax_sim::Partition;
        use relax_trace::SloMonitor;
        let assignment = VotingAssignment::new(3)
            .with_initial(QueueKind::Enq, 0)
            .with_final(QueueKind::Enq, 1)
            .with_initial(QueueKind::Deq, 1)
            .with_final(QueueKind::Deq, 1);
        let mut sys = QuorumSystem::new(
            TaxiQueueType,
            3,
            assignment,
            ClientConfig::default(),
            NetworkConfig::default(),
            7,
        )
        .with_trace(2048)
        .with_gossip(25)
        .with_monitor(queue_lattice_monitor())
        .with_slo(SloMonitor::new().budget("PQ", 150).budget("DegenPQ", 10));
        sys.world_mut().set_schedule(
            FaultSchedule::new()
                // Isolate {client, r2}: the next write lands only at r2.
                .at(
                    SimTime(50),
                    Fault::Partition(Partition::groups(vec![
                        vec![NodeId(3), NodeId(2)],
                        vec![NodeId(0), NodeId(1)],
                    ])),
                )
                // Then isolate r2: the Deq reads a stale replica.
                .at(
                    SimTime(100),
                    Fault::Partition(Partition::groups(vec![
                        vec![NodeId(3), NodeId(0), NodeId(1)],
                        vec![NodeId(2)],
                    ])),
                ),
        );
        sys.submit(QueueInv::Enq(5));
        sys.run_until(SimTime(60));
        sys.submit(QueueInv::Enq(9));
        sys.run_until(SimTime(110));
        // Deq sees a view without the pending 9 and serves 5 over it —
        // an order violation killing PQ (and MPQ).
        sys.submit(QueueInv::Deq);
        sys.run_until(SimTime(500));
        assert!(matches!(
            sys.outcomes()[2],
            Outcome::Completed {
                op: QueueOp::Deq(5),
                ..
            }
        ));
        let slo = sys.slo().expect("attached");
        assert!(slo.exhausted("PQ"), "PQ budget should have exhausted");
        assert!(slo.spent("PQ").unwrap() >= 150);
        // DegenPQ never died, so its (tiny) budget never starts spending.
        assert!(!slo.exhausted("DegenPQ"));
        let violations: Vec<_> = sys
            .world()
            .tracer()
            .events()
            .filter_map(|e| match &e.kind {
                TraceEvent::SloBudgetExhausted(v) => Some((*v).clone()),
                _ => None,
            })
            .collect();
        assert_eq!(violations.len(), 1, "each budget fires at most once");
        assert_eq!(violations[0].level, "PQ");
        assert_eq!(violations[0].budget, 150);
        assert!(violations[0].spent >= 150);
    }

    #[test]
    fn export_metrics_refreshes_the_pinned_gauge_names() {
        let mut sys = QuorumSystem::new(
            TaxiQueueType,
            3,
            taxi_assignment(3),
            ClientConfig::default(),
            NetworkConfig::default(),
            5,
        )
        .with_wire_accounting()
        .with_gossip(30);
        for i in 0..10 {
            sys.submit(QueueInv::Enq(i));
        }
        assert!(sys.run_until_outcomes(10, 1_000_000));
        sys.export_metrics();
        let (delta, full) = sys.gossip_send_counts();
        let (hits, misses) = sys.viewcache_counts();
        assert!(hits + misses > 0, "memoized clients consult the cache");
        let g = |name: &str| {
            sys.registry()
                .get_gauge(name)
                .unwrap_or_else(|| panic!("gauge {name} missing"))
                .value()
        };
        assert_eq!(g("gossip_delta_sends"), delta as i64);
        assert_eq!(g("gossip_full_sends"), full as i64);
        assert_eq!(g("viewcache_hits"), hits as i64);
        assert_eq!(g("viewcache_misses"), misses as i64);
        assert_eq!(g("wire_messages_sent"), sys.world().messages_sent() as i64);
        assert_eq!(g("wire_shipped_bytes"), sys.world().bytes_sent() as i64);
        assert_eq!(
            g("viewcache_replayed_entries"),
            sys.viewcache_replayed_entries() as i64
        );
        let (rounds, nodes, reuses) = sys.merkle_sync_counts();
        assert_eq!(g("merkle_sync_rounds"), rounds as i64);
        assert_eq!(g("merkle_nodes_exchanged"), nodes as i64);
        assert_eq!(g("merkle_leaf_reuses"), reuses as i64);
        assert_eq!(
            g("viewcache_checkpoint_hits"),
            sys.viewcache_checkpoint_hits() as i64
        );
    }

    #[test]
    fn profiled_run_records_step_spans_and_runtime_gauges() {
        let mut sys = healthy_system(11).with_gossip(30).with_profile();
        for i in 0..6 {
            sys.submit(QueueInv::Enq(i));
        }
        assert!(sys.run_until_outcomes(6, 1_000_000));
        let report = sys.profile_report().expect("balanced spans");
        // Every simulator event ran inside a `step` span.
        let steps = report
            .aggregated_paths()
            .into_iter()
            .find(|h| h.path == "step")
            .expect("step spans recorded");
        assert!(steps.count > 6, "one span per simulator event");
        // The runtime tallies surfaced as probe gauges match the
        // canonical accessors.
        let (hits, _) = sys.viewcache_counts();
        let (delta, _) = sys.gossip_send_counts();
        assert_eq!(report.gauge("vc_hits"), Some(&[hits as i64][..]));
        assert_eq!(report.gauge("gossip_delta"), Some(&[delta as i64][..]));
        assert_eq!(
            report.gauge("vc_replay"),
            Some(&[sys.viewcache_replayed_entries() as i64][..])
        );
        // Exact-sum attribution holds on a live run.
        assert_eq!(report.self_sum_ns(), report.total_ns());
    }

    #[test]
    fn unprofiled_run_records_no_probe_state() {
        let mut sys = healthy_system(11);
        sys.submit(QueueInv::Enq(1));
        assert!(sys.run_to_quiescence(100_000));
        assert!(!sys.probe().is_enabled());
        assert!(sys.probe().events().is_empty());
        assert!(sys.probe().counter_totals().is_empty());
        sys.flush_profile();
        assert!(
            sys.probe().events().is_empty(),
            "flush on disabled is a no-op"
        );
    }
}
