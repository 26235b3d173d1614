//! The client role: the three-step protocol of §3.1 as a state machine
//! over [`Transport`], plus the coordination-free fast path beside it.
//!
//! The view ("merges the logs from an initial quorum") is built in one
//! buffer the production path keeps across invocations, so it costs
//! O(what changed since the last one), not O(view). The `FullLog`
//! reference builds every view from nothing, by merges alone: it checks
//! the kept buffer with code that shares none of it.

use std::collections::VecDeque;
use std::sync::Arc;

use relax_sim::NodeId;
use relax_trace::{EventKind as TraceEvent, OpOutcome, QuorumPhase};

use crate::assignment::VotingAssignment;
use crate::backend::Transport;
use crate::calm::SchedulingPolicy;
use crate::frontier::Frontier;
use crate::log::{DiffScratch, Entry, Log};
use crate::protocol::wire::{reuse, ClientConfig, Msg, Outcome, ReplicationMode};
use crate::relation::HasKind;
use crate::timestamp::LogicalClock;
use crate::types::ReplicatedType;
use crate::viewcache::ViewCache;

/// Where the pending invocation stands. Quorum membership is a bit per
/// replica (at most 64 of them: [`crate::sim_exec::QuorumSystem`] checks).
#[derive(Debug, Clone)]
enum Phase<T: ReplicatedType> {
    Read { responded: u64 },
    Write { acked: u64, op: T::Op },
}

/// Sets `replica`'s bit in a membership mask; `false` if it was set.
fn joins(members: &mut u64, replica: NodeId) -> bool {
    let bit = 1u64 << replica.0;
    let new = *members & bit == 0;
    *members |= bit;
    new
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
    /// The production path, or the paper-literal reference: whole logs
    /// both ways, `known` left empty, views built and evaluated afresh.
    mode: ReplicationMode,
    /// A per-replica lower bound on that replica's log (`known[r] ⊆
    /// log_r` always): grown from read-response deltas (after which it
    /// equals `log_r` exactly) and accepted write acks.
    known: Vec<Log<T::Op>>,
    /// The pending invocation's view. The production path keeps this one
    /// buffer across invocations: successive views extend one another
    /// between faults, so the first read response rebuilds it from the
    /// prefix it shares with `known[from]` ([`Clone::clone_from`]) and the
    /// write phase inserts into its spare capacity. Whatever an invocation
    /// leaves behind — timed out, refused, superseded — is overwritten.
    /// The reference starts each from `Log::new()` and only ever merges.
    view: Log<T::Op>,
    /// Memoized view evaluation across invocations (suffix-only replay).
    cache: ViewCache<T::Value>,
    /// Reusable buffers for write-phase `diff_with` calls.
    scratch: DiffScratch,
    /// Per replica: the last write payload shipped to it (the shipped log
    /// minus `known[r]`) and `known[r]`'s length when it
    /// was built — `known[r]` only grows, so same length, same set. An
    /// ack folds the payload, not the view; the next shipment extends it.
    sent: Vec<(Arc<Log<T::Op>>, usize)>,
    /// Per replica: the frontier its last read request advertised,
    /// refilled from `known[r]` for the next.
    asked: Vec<Arc<Frontier>>,
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
            .field("next_inv_id", &self.next_inv_id)
            .field("pending", &self.pending.is_some())
            .field("backlog", &self.backlog.len())
            .field("outcomes", &self.outcomes.len())
            .finish_non_exhaustive()
    }
}

/// A client's write bookkeeping, lent read-only to the invariant tests:
/// [`ClientState`]'s own fields, `fast_writes` by its length and `cache`
/// by the entries it has folded.
#[doc(hidden)]
#[derive(Debug)]
pub struct ClientBookkeeping<'a, Op> {
    pub known: &'a [Log<Op>],
    pub sent: &'a [(Arc<Log<Op>>, usize)],
    pub shipped: (u64, usize, u64),
    pub fast_writes: usize,
    pub folded: u64,
}

impl<T: ReplicatedType> ClientState<T> {
    /// A fresh client at node `me` of the given replica set, on the
    /// production path with pure quorum scheduling.
    pub(crate) fn new(
        me: NodeId,
        ttype: T,
        assignment: Arc<VotingAssignment<<T::Op as HasKind>::Kind>>,
        replicas: Arc<[NodeId]>,
        config: ClientConfig,
    ) -> Self {
        let n = replicas.len();
        ClientState {
            ttype,
            assignment,
            replicas,
            config,
            clock: LogicalClock::new(me.0),
            next_inv_id: 0,
            pending: None,
            backlog: VecDeque::new(),
            outcomes: Vec::new(),
            mode: ReplicationMode::default(),
            known: vec![Log::new(); n],
            view: Log::new(),
            cache: ViewCache::new(),
            scratch: DiffScratch::default(),
            // Every slot shares one empty body until its first use.
            sent: vec![Default::default(); n],
            asked: vec![Arc::default(); n],
            shipped: (0, 0, 0),
            policy: SchedulingPolicy::all_quorum(),
            wal: Log::new(),
            fast_writes: VecDeque::new(),
            wal_acked: vec![0; n],
            calm_fast: 0,
            calm_quorum: 0,
        }
    }

    /// The outcomes recorded so far, in submission order.
    pub fn outcomes(&self) -> &[Outcome<T::Op>] {
        &self.outcomes
    }

    /// Selects the production path or the reference; call before the
    /// first invocation.
    pub(crate) fn set_mode(&mut self, mode: ReplicationMode) {
        self.mode = mode;
    }

    /// Installs the CALM scheduling policy.
    pub(crate) fn set_policy(&mut self, policy: SchedulingPolicy<<T::Op as HasKind>::Kind>) {
        self.policy = policy;
    }

    /// The view cache (its hit, miss and replay tallies).
    pub(crate) fn cache(&self) -> &ViewCache<T::Value> {
        &self.cache
    }

    /// Invocations that took the fast path and the quorum path.
    pub(crate) fn calm_counts(&self) -> (u64, u64) {
        (self.calm_fast, self.calm_quorum)
    }

    /// The write bookkeeping, for the invariant tests.
    pub(crate) fn bookkeeping(&self) -> ClientBookkeeping<'_, T::Op> {
        ClientBookkeeping {
            known: &self.known,
            sent: &self.sent,
            shipped: self.shipped,
            fast_writes: self.fast_writes.len(),
            folded: self.cache.entries_replayed(),
        }
    }

    /// A message arrived: each handler checks it against the pending
    /// invocation's [`Phase`] and drops what that phase does not await.
    pub(crate) fn on_message(&mut self, ctx: &mut impl Transport<T>, from: NodeId, msg: Msg<T>) {
        match msg {
            Msg::Start(inv) => self.on_start(ctx, inv),
            Msg::ReadResp { inv_id, log } => self.on_read_resp(ctx, from, inv_id, &log),
            Msg::WriteAck { inv_id } => self.on_write_ack(ctx, from, inv_id),
            Msg::FlushWal => self.flush_wal(ctx),
            _ => {}
        }
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
            ctx.trace(|node| TraceEvent::OpBegin {
                node,
                op_id: inv_id as u32,
                op: self.ttype.op_label(&inv),
            });
            let kind = self.ttype.invocation_kind(&inv);
            if self.policy.is_free(kind) {
                self.run_coordination_free(ctx, inv_id, &inv);
                continue;
            }
            self.calm_quorum += 1;
            let needs_read = self.assignment.initial_size(kind) > 0;
            // The reference builds every view from nothing; a zero initial
            // quorum reads nothing, so it empties the buffer it keeps.
            if self.mode == ReplicationMode::FullLog {
                self.view = Log::new();
            } else if !needs_read {
                self.view.clone_from(&Log::new());
            }
            self.pending = Some(Pending {
                inv_id,
                inv,
                started_at: ctx.now_ticks(),
                phase: Phase::Read { responded: 0 },
            });
            ctx.set_timer(self.config.timeout, inv_id);
            if needs_read {
                for &r in self.replicas.iter() {
                    // Advertise the frontier so read responses stay
                    // O(missing suffix); the reference asks for it all.
                    let known = (self.mode != ReplicationMode::FullLog).then(|| {
                        let asked = &mut self.asked[r.0];
                        self.known[r.0].frontier_into(reuse(asked));
                        Arc::clone(asked)
                    });
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
        ctx.trace(|node| TraceEvent::OpEnd {
            node,
            op_id: inv_id as u32,
            outcome: if outcome.is_completed() {
                OpOutcome::Completed
            } else {
                OpOutcome::Refused
            },
            latency: 0,
        });
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
    /// under `inv_id`: whole on the reference (one shared copy), else the
    /// part of it `known[r]` lacks (`known[r] ⊆ log_r`, so the replica's
    /// merge result is unchanged). That part is the last payload plus
    /// `full`'s new suffix when `known[r]` is as long as it was, the log
    /// shipped last is a prefix of `full` (one prefix hash, the ≈2⁻⁶⁴
    /// trust of [`ViewCache`]) and `known[r]` sorts below the suffix: a
    /// replica that said nothing since — cut off, or acking late — costs
    /// O(suffix), in place once the transport let go of the last message.
    /// An ack, a read response or a spliced view means [`Log::diff_into`]
    /// the payload the replica has let go of.
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
                full.diff_into(known, &mut self.scratch, reuse(payload));
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
    fn flush_wal(&mut self, ctx: &mut impl Transport<T>) {
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
        let view = &mut self.view;
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
        let ttype = &self.ttype;
        let response = if self.mode == ReplicationMode::FullLog {
            // The reference shares no cache with what it checks, and
            // evaluates every view whether or not the response reads it.
            ttype.execute(&ttype.eval_view(view), &pending.inv)
        } else {
            // The view is folded only if the response reads its value.
            let (cache, seen) = (&mut self.cache, &*view);
            let fold = move || {
                let cache = cache; // moved out: the value outlives the call
                cache.eval_ref(seen, ttype.initial_value(), |v, op| ttype.apply_mut(v, op))
            };
            ttype.respond(fold, &pending.inv)
        };
        match response {
            None => {
                let latency = ctx.now_ticks() - pending.started_at;
                self.finish(ctx, Outcome::Refused { latency });
            }
            Some(op) => {
                let ts = self.clock.tick();
                view.insert(Entry::new(ts, op.clone()));
                pending.phase = Phase::Write { acked: 0, op };
                // The updated view ships from the buffer it was built in.
                let updated = std::mem::take(&mut self.view);
                self.ship(ctx, inv_id, &updated);
                self.view = updated;
            }
        }
    }

    fn finish(&mut self, ctx: &mut impl Transport<T>, outcome: Outcome<T::Op>) {
        if let Some(pending) = self.pending.as_ref() {
            ctx.trace(|node| {
                let (kind, latency) = match &outcome {
                    Outcome::Completed { latency, .. } => (OpOutcome::Completed, *latency),
                    Outcome::Refused { latency } => (OpOutcome::Refused, *latency),
                    Outcome::TimedOut => (OpOutcome::TimedOut, self.config.timeout),
                };
                TraceEvent::OpEnd {
                    node,
                    op_id: pending.inv_id as u32,
                    outcome: kind,
                    latency,
                }
            });
        }
        self.outcomes.push(outcome);
        self.pending = None;
        self.start_next(ctx);
    }

    /// External kick: queue the invocation and run it if idle.
    fn on_start(&mut self, ctx: &mut impl Transport<T>, inv: T::Inv) {
        self.backlog.push_back(inv);
        self.start_next(ctx);
    }

    /// A replica answered the read phase with its log (or delta).
    fn on_read_resp(
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
        let Phase::Read { responded } = &mut pending.phase else {
            return;
        };
        if !joins(responded, from) {
            return;
        }
        let responded = responded.count_ones() as usize;
        if self.mode == ReplicationMode::FullLog {
            self.view.merge(log);
        } else {
            // The delta answered exactly our advertised frontier, so
            // merging it into `known[from]` reconstructs the replica's
            // log at response time (see `Log::delta_above`).
            let known = &mut self.known[from.0];
            known.merge(log);
            if responded == 1 {
                // The first responder's log *is* the view so far, whatever
                // the last invocation left in the buffer.
                self.view.clone_from(known);
            } else {
                self.view.merge(known);
            }
        }
        let kind = self.ttype.invocation_kind(&pending.inv);
        if responded < self.assignment.initial_size(kind) {
            return;
        }
        ctx.trace(|node| TraceEvent::QuorumAssembled {
            node,
            op_id: pending.inv_id as u32,
            phase: QuorumPhase::Read,
            size: responded as u32,
        });
        // Initial quorum assembled: evaluate and respond.
        self.respond_with_view(ctx);
    }

    /// A replica acknowledged the write phase.
    fn on_write_ack(&mut self, ctx: &mut impl Transport<T>, from: NodeId, inv_id: u64) {
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
        if !joins(acked, from) {
            return;
        }
        let acked = acked.count_ones() as usize;
        if self.mode != ReplicationMode::FullLog && self.shipped.0 == inv_id {
            // The replica merged the payload we sent it, and `known[r]`
            // plus that payload *is* the updated view: fold what was sent,
            // an append or a short tail splice. (A WAL flush landing
            // mid-write re-labels `sent`; the acks then fold nothing.)
            self.known[from.0].merge(&self.sent[from.0].0);
        }
        let kind = op.kind();
        if acked >= self.assignment.final_size(kind) {
            ctx.trace(|node| TraceEvent::QuorumAssembled {
                node,
                op_id: pending.inv_id as u32,
                phase: QuorumPhase::Write,
                size: acked as u32,
            });
            let op = op.clone();
            let latency = ctx.now_ticks() - pending.started_at;
            self.finish(ctx, Outcome::Completed { op, latency });
        }
    }

    /// The per-invocation timeout fired: if it matches the pending
    /// invocation, the operation is unavailable.
    pub(crate) fn on_timer(&mut self, ctx: &mut impl Transport<T>, token: u64) {
        if self.pending.as_ref().is_none_or(|p| p.inv_id != token) {
            return;
        }
        ctx.trace(|node| {
            let pending = self.pending.as_ref().expect("checked above");
            let (phase, responses, needed) = match &pending.phase {
                Phase::Read { responded } => {
                    let kind = self.ttype.invocation_kind(&pending.inv);
                    (
                        QuorumPhase::Read,
                        responded.count_ones(),
                        self.assignment.initial_size(kind),
                    )
                }
                Phase::Write { acked, op } => (
                    QuorumPhase::Write,
                    acked.count_ones(),
                    self.assignment.final_size(op.kind()),
                ),
            };
            TraceEvent::QuorumFailed {
                node,
                op_id: pending.inv_id as u32,
                phase,
                responses,
                needed: needed as u32,
            }
        });
        self.finish(ctx, Outcome::TimedOut);
    }
}
