//! The client role: the three-step protocol of §3.1 as a state machine
//! over [`Transport`], plus the coordination-free fast path beside it.
//!
//! A [`ClientState`] runs *rounds*: one invocation from each of up to
//! `batch` client slots (each with its own clock at site `n + c`, backlog
//! and outcome table), one read phase, execution in slot order against
//! the view, one write phase. The sim runs one slot and rounds of one;
//! a threaded shard runs all its clients (`ClientState::shared`).
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
use crate::backend::{LayerCounts, Transport};
use crate::calm::SchedulingPolicy;
use crate::frontier::Frontier;
use crate::log::{DiffScratch, Entry, Log};
use crate::protocol::wire::{reuse, ClientConfig, Msg, Outcome, ReplicationMode};
use crate::relation::HasKind;
use crate::timestamp::LogicalClock;
use crate::types::ReplicatedType;
use crate::viewcache::ViewCache;

/// Sets `replica`'s bit in a membership mask; `false` if it was set.
fn joins(members: &mut u64, replica: NodeId) -> bool {
    let bit = 1u64 << replica.0;
    let new = *members & bit == 0;
    *members |= bit;
    new
}

/// One client of a [`ClientState`]: its clock, backlog and outcomes.
struct Slot<T: ReplicatedType> {
    clock: LogicalClock,
    backlog: VecDeque<T::Inv>,
    outcomes: Vec<Outcome<T::Op>>,
}

impl<T: ReplicatedType> Slot<T> {
    fn new(site: usize) -> Self {
        Slot {
            clock: LogicalClock::new(site),
            backlog: VecDeque::new(),
            outcomes: Vec::new(),
        }
    }
}

/// An invocation of a round: whether it runs coordination-free, its
/// initial quorum (0 if free) and how it stands — `TimedOut` until it
/// executes, then its outcome so far (a `Completed` write may still time
/// out on its acks; latencies are filled in when it is recorded).
struct Member<T: ReplicatedType> {
    slot: usize,
    inv_id: u64,
    inv: T::Inv,
    free: bool,
    init: usize,
    outcome: Outcome<T::Op>,
}

/// A round in its read or its write phase: the id its messages carry
/// (its first member's), when its clock started in the backend's tick
/// domain ([`Transport::now_ticks`]), the replicas that answered the
/// phase (a bit each: at most 64 of them,
/// [`crate::sim_exec::QuorumSystem`] checks) and how many close it (a
/// shared round: none, it closes at [`ClientState::close`]).
#[derive(Debug, Clone, Copy)]
struct Round {
    inv_id: u64,
    started_at: u64,
    answered: u64,
    needed: usize,
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
    next_inv_id: u64,
    /// The clients this state steps; a round takes one invocation from
    /// each of up to `batch` of them, from `cursor` on, wrapping, so no
    /// slot beyond the ceiling starves.
    slots: Vec<Slot<T>>,
    cursor: usize,
    batch: usize,
    /// Rounds assembled so far.
    rounds: u64,
    /// The round awaiting its read phase, and its members.
    reading: Option<Round>,
    members: Vec<Member<T>>,
    /// The round awaiting its write phase's acks, and its members.
    writing: Option<Round>,
    committing: Vec<Member<T>>,
    /// One view and one frontier for every replica instead of `known`
    /// (see [`ClientState::shared`]).
    shared: bool,
    /// The shared bookkeeping's group commit, kept until it closes.
    commit: Arc<Log<T::Op>>,
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
    /// Shared bookkeeping keeps everything it has read or written here.
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
    /// refilled from `known[r]` for the next (shared: `asked[0]`, from the
    /// view, for every replica).
    asked: Vec<Arc<Frontier>>,
    /// The log last shipped — an updated view or the WAL — as the
    /// invocation it went under, its length and its `prefix_hash`.
    shipped: (u64, usize, u64),
    /// Which invocation kinds skip the quorum protocol (CALM-monotone
    /// kinds; empty by default, so scheduling is pure quorum).
    policy: SchedulingPolicy<<T::Op as HasKind>::Kind>,
    /// The coordination-free write-ahead log: entries appended by the
    /// fast path, merged into every read view (read-your-writes) and
    /// shipped to replicas fire-and-forget. Shared bookkeeping keeps
    /// here only the free entries of commits no replica took.
    wal: Log<T::Op>,
    /// In-flight fast-path writes awaiting (but not blocking on) acks,
    /// oldest first (`inv_id` and `wal_len` both non-decreasing).
    fast_writes: VecDeque<FastWrite>,
    /// Per replica, how much of the WAL it has acked (`wal[..mark]`).
    wal_acked: Vec<usize>,
    /// The `calm_*` tallies (the cache keeps the `viewcache_*` ones).
    counts: LayerCounts,
}

// Manual impl: the derive would demand `T::Value: Debug` (via the view
// cache) and `T: Debug`, neither of which the trait requires.
impl<T: ReplicatedType> std::fmt::Debug for ClientState<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientState")
            .field("mode", &self.mode)
            .field("shared", &self.shared)
            .field("reading", &self.reading)
            .field("writing", &self.writing)
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
    /// A fresh client at node `me` of the given replica set: one slot
    /// (clock at site `me`), rounds of one, on the production path with
    /// pure quorum scheduling.
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
            next_inv_id: 0,
            slots: vec![Slot::new(me.0)],
            cursor: 0,
            batch: 1,
            rounds: 0,
            reading: None,
            members: Vec::new(),
            writing: None,
            committing: Vec::new(),
            shared: false,
            commit: Arc::default(),
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
            counts: LayerCounts::default(),
        }
    }

    /// Turns this client into a threaded shard's front-end: one slot per
    /// client site in `sites`, rounds of up to `batch`, and *shared*
    /// bookkeeping. The view holds all the shard read or wrote, one
    /// frontier of it serves every replica's read, and every replica gets
    /// one group commit of the round's entries, in flight while the next
    /// round reads. Sound only because the driver delivers every commit to
    /// every live replica over a FIFO channel before the next read: the
    /// view less the commit in flight is then a lower bound on every live
    /// replica's log, with no `known` log (a copy of the history each) per
    /// replica. No timer: the driver calls [`ClientState::close`].
    pub(crate) fn shared(mut self, sites: impl IntoIterator<Item = usize>, batch: usize) -> Self {
        self.slots = sites.into_iter().map(Slot::new).collect();
        self.batch = batch;
        self.shared = true;
        self.known = Vec::new();
        self
    }

    /// The first slot's outcomes so far, in submission order.
    pub fn outcomes(&self) -> &[Outcome<T::Op>] {
        self.outcomes_of(0)
    }

    /// Slot `slot`'s outcomes so far, in submission order.
    pub(crate) fn outcomes_of(&self, slot: usize) -> &[Outcome<T::Op>] {
        &self.slots[slot].outcomes
    }

    /// Queues `inv` on slot `slot` without starting anything.
    pub(crate) fn submit(&mut self, slot: usize, inv: T::Inv) {
        self.slots[slot].backlog.push_back(inv);
    }

    /// Rounds assembled so far.
    pub(crate) fn rounds(&self) -> u64 {
        self.rounds
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

    /// This client's view-cache and CALM tallies.
    pub(crate) fn counts(&self) -> LayerCounts {
        self.counts + self.cache.counts
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

    /// A message arrived: each handler checks it against the round it
    /// answers and drops what that round does not await.
    pub(crate) fn on_message(&mut self, ctx: &mut impl Transport<T>, from: NodeId, msg: Msg<T>) {
        match msg {
            Msg::Start(inv) => {
                self.submit(0, inv);
                self.start_next(ctx);
            }
            Msg::ReadResp { inv_id, log } => self.on_read_resp(ctx, from, inv_id, &log),
            Msg::WriteAck { inv_id } => self.on_write_ack(ctx, from, inv_id),
            Msg::FlushWal => self.flush_wal(ctx),
            _ => {}
        }
    }

    /// Assembles and starts rounds until one reads (or, per replica,
    /// writes) or every backlog is empty. A round that reads nothing
    /// executes at once — unless its predecessor's commit is still in
    /// flight, when it executes at [`ClientState::close`]. A loop, not
    /// recursion: coordination-free rounds complete synchronously.
    pub(crate) fn start_next(&mut self, ctx: &mut impl Transport<T>) {
        while self.reading.is_none() && (self.shared || self.writing.is_none()) {
            let (n, mut quorum, mut needed) = (self.slots.len(), false, 0);
            for slot in (self.cursor..self.cursor + n).map(|i| i % n) {
                if self.members.len() == self.batch {
                    break;
                }
                let Some(inv) = self.slots[slot].backlog.pop_front() else {
                    continue;
                };
                self.next_inv_id += 1;
                let inv_id = self.next_inv_id;
                ctx.trace(|node| TraceEvent::OpBegin {
                    node,
                    op_id: inv_id as u32,
                    op: self.ttype.op_label(&inv),
                });
                let kind = self.ttype.invocation_kind(&inv);
                let free = self.policy.is_free(kind);
                let mut init = 0;
                if free {
                    self.counts.calm_fast_ops += 1;
                } else {
                    self.counts.calm_quorum_ops += 1;
                    (quorum, init) = (true, self.assignment.initial_size(kind));
                    needed = needed.max(init);
                }
                self.members.push(Member {
                    slot,
                    inv_id,
                    inv,
                    free,
                    init,
                    outcome: Outcome::TimedOut,
                });
            }
            let Some(last) = self.members.last() else {
                return;
            };
            self.cursor = (last.slot + 1) % n;
            self.rounds += 1;
            let inv_id = self.members[0].inv_id;
            if quorum {
                // The reference builds every view from nothing; a zero
                // initial quorum reads nothing, so it empties the buffer
                // it keeps. The shared view is kept whole.
                if self.mode == ReplicationMode::FullLog {
                    self.view = Log::new();
                } else if needed == 0 && !self.shared {
                    self.view.clone_from(&Log::new());
                }
                ctx.set_timer(self.config.timeout, inv_id);
            }
            self.reading = Some(Round {
                inv_id,
                started_at: ctx.now_ticks(),
                answered: 0,
                needed: if self.shared { usize::MAX } else { needed },
            });
            if needed == 0 {
                if self.writing.is_none() {
                    self.execute(ctx);
                }
                continue;
            }
            // Advertise a frontier so responses stay O(missing suffix):
            // per replica, of `known[r]`; shared, one of the view; the
            // reference asks for it all.
            if self.shared {
                self.view.frontier_into(reuse(&mut self.asked[0]));
            }
            for &r in self.replicas.iter() {
                let known = match (self.shared, self.mode) {
                    (true, _) => Some(Arc::clone(&self.asked[0])),
                    (false, ReplicationMode::FullLog) => None,
                    (false, ReplicationMode::Merkle) => {
                        let asked = &mut self.asked[r.0];
                        self.known[r.0].frontier_into(reuse(asked));
                        Some(Arc::clone(asked))
                    }
                };
                ctx.send(r, Msg::ReadReq { inv_id, known });
            }
        }
    }

    /// Executes the reading round in slot order against the view, on the
    /// responses it counted, and starts its write phase. An initial quorum
    /// above them times out; a zero one responds against the initial value;
    /// a CALM-free invocation (response-stable, by the analyzer) too, and
    /// completes whatever the acks: per replica through the WAL, shared in
    /// the group commit.
    fn execute(&mut self, ctx: &mut impl Transport<T>) {
        let Some(mut round) = self.reading.take() else {
            return;
        };
        let responded = round.answered.count_ones() as usize;
        let initial = self.ttype.initial_value();
        let mut members = std::mem::take(&mut self.members);
        // Shared: the round's entries, kept in the body it last shipped.
        let mut commit = Log::new();
        if self.shared {
            commit = std::mem::take(reuse(&mut self.commit));
            commit.clone_from(&Log::new());
        }
        let (mut needed, mut wal_wanted) = (0, false);
        for m in &mut members {
            let (free, init) = (m.free, m.init);
            if init > responded {
                ctx.trace(|node| TraceEvent::QuorumFailed {
                    node,
                    op_id: m.inv_id as u32,
                    phase: QuorumPhase::Read,
                    responses: responded as u32,
                    needed: init as u32,
                });
                continue;
            }
            let reads = init > 0;
            let slot = &mut self.slots[m.slot];
            // Read-your-writes: fast-path entries not yet recorded at the
            // replicas must still be visible to this client's quorum reads
            // (the shared view holds them already).
            if reads && !self.shared && !self.wal.is_empty() {
                self.view.merge(&self.wal);
            }
            // A free invocation observes what a shard holds — entries of
            // other slots its clock never saw — so a shard mints in
            // strictly increasing order and its entries only append. A
            // lone client's clock already dominates what it holds: it
            // minted or observed all of it.
            if reads || (free && self.shared) {
                if let Some(ts) = self.view.max_timestamp() {
                    slot.clock.observe(ts);
                }
            }
            let ttype = &self.ttype;
            let response = if self.mode == ReplicationMode::FullLog {
                // The reference shares no cache with what it checks, and
                // evaluates every view whether or not the response reads it.
                let empty = Log::new();
                let seen = if free { &empty } else { &self.view };
                ttype.execute(&ttype.eval_view(seen), &m.inv)
            } else {
                // The view is folded only if the response reads its value
                // (per replica, a blind quorum write folds the emptied view).
                let fold = reads || !(free || self.shared);
                let (cache, seen, initial) = (&mut self.cache, &self.view, &initial);
                let lend = move || {
                    if !fold {
                        return initial;
                    }
                    let cache = cache; // moved out: the value outlives the call
                    cache.eval_ref(seen, ttype.initial_value(), |v, op| ttype.apply_mut(v, op))
                };
                ttype.respond(lend, &m.inv)
            };
            let Some(op) = response else {
                m.outcome = Outcome::Refused { latency: 0 };
                continue;
            };
            let entry = Entry::new(slot.clock.tick(), op.clone());
            if self.shared {
                wal_wanted |= free || reads;
                commit.insert(entry.clone());
                self.view.insert(entry);
            } else if free {
                self.wal.insert(entry);
                self.ship_wal(ctx, m.inv_id);
            } else {
                needed = self.assignment.final_size(op.kind()).max(1);
                self.view.insert(entry);
                // The updated view ships from the buffer it was built in.
                let updated = std::mem::take(&mut self.view);
                self.ship(ctx, m.inv_id, &updated);
                self.view = updated;
            }
            m.outcome = Outcome::Completed { op, latency: 0 };
        }
        if self.shared {
            // One group commit for every replica: the round's entries,
            // plus free ones no replica took yet, which ride where §3.1
            // ships a sim client's WAL (with a free write or a reading one).
            if wal_wanted && !self.wal.is_empty() {
                commit.merge(&self.wal);
                self.wal.clone_from(&Log::new());
            }
            needed = if commit.is_empty() { 0 } else { usize::MAX };
            *Arc::get_mut(&mut self.commit).expect("taken just above") = commit;
        }
        if needed > 0 {
            for &r in self.replicas.iter().filter(|_| self.shared) {
                let (inv_id, log) = (round.inv_id, Arc::clone(&self.commit));
                ctx.send(r, Msg::WriteReq { inv_id, log });
            }
            (round.answered, round.needed) = (0, needed);
            self.writing = Some(round);
            self.members = std::mem::replace(&mut self.committing, members);
        } else {
            self.record(ctx, &mut members, round.started_at);
            self.members = members;
        }
    }

    /// Records `members`' outcomes (draining it) now, which it returns:
    /// an available one waited since `since`.
    fn record(&mut self, ctx: &mut impl Transport<T>, ms: &mut Vec<Member<T>>, since: u64) -> u64 {
        let now = ctx.now_ticks();
        for m in ms.drain(..) {
            let (slot, inv_id, mut outcome) = (m.slot, m.inv_id, m.outcome);
            if let Outcome::Completed { latency, .. } | Outcome::Refused { latency } = &mut outcome
            {
                *latency = now - since;
            }
            ctx.trace(|node| {
                let (kind, latency) = match &outcome {
                    Outcome::Completed { latency, .. } => (OpOutcome::Completed, *latency),
                    Outcome::Refused { latency } => (OpOutcome::Refused, *latency),
                    Outcome::TimedOut => (OpOutcome::TimedOut, self.config.timeout),
                };
                TraceEvent::OpEnd {
                    node,
                    op_id: inv_id as u32,
                    outcome: kind,
                    latency,
                }
            });
            self.slots[slot].outcomes.push(outcome);
        }
        now
    }

    /// Closes the round in its write phase on the acks it counted: a
    /// quorum write completes iff they reach its final quorum, and at
    /// least one; a free one completes whatever they are.
    fn close_write(&mut self, ctx: &mut impl Transport<T>) {
        let Some(round) = self.writing.take() else {
            return;
        };
        let acked = round.answered.count_ones() as usize;
        let mut members = std::mem::take(&mut self.committing);
        for m in &mut members {
            let Outcome::Completed { op, .. } = &m.outcome else {
                continue;
            };
            let needed = self.assignment.final_size(op.kind());
            if !m.free && acked < needed.max(1) {
                ctx.trace(|node| TraceEvent::QuorumFailed {
                    node,
                    op_id: m.inv_id as u32,
                    phase: QuorumPhase::Write,
                    responses: acked as u32,
                    needed: needed as u32,
                });
                m.outcome = Outcome::TimedOut;
            }
        }
        if self.shared && acked == 0 {
            // A commit no replica took: its quorum entries leave the view,
            // lost as a sim client's are (its next read rebuilds the view
            // from what replicas hold); its free ones wait in the WAL.
            let (mut lost, mut kept) = (Log::new(), Log::new());
            for e in self.commit.entries() {
                let free = self.policy.is_free(e.op.kind());
                if free { &mut kept } else { &mut lost }.insert(e.clone());
            }
            self.view = self.view.diff(&lost);
            self.wal.merge(&kept);
        }
        let now = self.record(ctx, &mut members, round.started_at);
        self.committing = members;
        // A round assembled while this commit was in flight starts its
        // clock now: the rounds' latencies tile the run, never overlap.
        if let Some(next) = self.reading.as_mut() {
            next.started_at = next.started_at.max(now);
        }
    }

    /// Every live replica has answered the visit — what shared
    /// bookkeeping awaits instead of a quorum or a timer: closes the
    /// commit in flight on the acks it counted, executes the reading
    /// round on the responses it counted, and starts what follows.
    pub(crate) fn close(&mut self, ctx: &mut impl Transport<T>) {
        self.close_write(ctx);
        self.execute(ctx);
        self.start_next(ctx);
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

    /// A replica answered the read phase with its log (or delta).
    fn on_read_resp(
        &mut self,
        ctx: &mut impl Transport<T>,
        from: NodeId,
        inv_id: u64,
        log: &Log<T::Op>,
    ) {
        let Some(round) = self.reading.as_mut() else {
            return;
        };
        if round.inv_id != inv_id || !joins(&mut round.answered, from) {
            return;
        }
        let (responded, needed) = (round.answered.count_ones() as usize, round.needed);
        if self.shared || self.mode == ReplicationMode::FullLog {
            // Shared: deltas from different replicas overlap (each is
            // relative to the same frontier); the merge drops repeats,
            // and the round executes at `close`.
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
        if responded < needed {
            return;
        }
        ctx.trace(|node| TraceEvent::QuorumAssembled {
            node,
            op_id: inv_id as u32,
            phase: QuorumPhase::Read,
            size: responded as u32,
        });
        // Initial quorum assembled: evaluate and respond.
        self.execute(ctx);
        self.start_next(ctx);
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
        let Some(round) = self.writing.as_mut() else {
            return;
        };
        if round.inv_id != inv_id || !joins(&mut round.answered, from) {
            return;
        }
        let (acked, needed) = (round.answered.count_ones() as usize, round.needed);
        // (Never shared: shared bookkeeping ships through no `ship`.)
        if self.mode != ReplicationMode::FullLog && self.shipped.0 == inv_id {
            // The replica merged the payload we sent it, and `known[r]`
            // plus that payload *is* the updated view: fold what was sent,
            // an append or a short tail splice. (A WAL flush landing
            // mid-write re-labels `sent`; the acks then fold nothing.)
            self.known[from.0].merge(&self.sent[from.0].0);
        }
        if acked >= needed {
            ctx.trace(|node| TraceEvent::QuorumAssembled {
                node,
                op_id: inv_id as u32,
                phase: QuorumPhase::Write,
                size: acked as u32,
            });
            self.close_write(ctx);
            self.start_next(ctx);
        }
    }

    /// The per-round timeout fired: if it matches the round in flight,
    /// the phase it is in closes on what it has — which, its quorum not
    /// assembled, times its operation out.
    pub(crate) fn on_timer(&mut self, ctx: &mut impl Transport<T>, token: u64) {
        if self.writing.is_some_and(|r| r.inv_id == token) {
            self.close_write(ctx);
        } else if self.reading.is_some_and(|r| r.inv_id == token) {
            self.execute(ctx);
        } else {
            return;
        }
        self.start_next(ctx);
    }
}
