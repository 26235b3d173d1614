//! The sharded wall-clock execution backend.
//!
//! Runs the quorum protocol of §3.1 over OS threads and a real clock
//! instead of the discrete-event simulator, with three batching layers
//! stacked to push aggregate throughput past a million operations per
//! second while staying observably equivalent to the sim:
//!
//! * **Sharded client front-ends.** Clients are partitioned round-robin
//!   across `shards` worker threads. Each shard owns its clients'
//!   backlogs, logical clocks, and outcome tables outright — no locks —
//!   and runs *rounds*: one read phase and one write phase amortized
//!   over up to `batch` clients.
//! * **Batched request brokers.** Each replica is owned by exactly one
//!   worker thread (lock-light: the only sharing is `mpsc` channels
//!   between shards and brokers). A broker drains its inbox in batches —
//!   flush on size or deadline, in the style of prepare/commit brokers —
//!   and serves *writes before reads* within a batch, so reads observe
//!   the freshest merged state without any extra coordination.
//! * **Group commit.** A shard's whole round of executed operations is
//!   appended to replicas as *one* [`Msg::WriteReq`] carrying one merged
//!   batch log: the replica pays one merge — one frontier/Merkle
//!   refresh — per batch instead of per operation.
//!
//! A round visits each broker once, not twice: round *k*'s `WriteReq` and
//! round *k+1*'s `ReadReq` travel in one packet and their replies come
//! back in one — the replica that has just merged a commit answers the
//! next read from the same log state. Only a run's first read and last
//! write travel alone. With several shards a read is therefore as of its
//! own previous commit's arrival at each broker, not as of the acks'
//! return: still above every write of the same batch, up to one hand-off
//! staler towards other shards' commits.
//!
//! The replica state machine is the *same code* as the sim backend's:
//! replicas run `ReplicaState::on_message` over a channel-backed
//! [`Transport`]. The shard front-end holds the sim client's
//! `ReadReq`/`ReadResp`/`WriteReq`/`WriteAck` conversation and applies
//! its rules to the replies it takes back, counted per visit:
//!
//! * an invocation whose initial quorum exceeds the read responses times
//!   out; one with initial quorum 0 responds against the initial value
//!   without observing the view; any other is lent
//!   [`ViewCache::eval_ref`] over the shard view, as the sim client is;
//! * a round's writes are closed on the next visit's acks: `Completed`
//!   iff the acks reach the op's final quorum and at least one, else
//!   `TimedOut` (the entry still lands wherever it was acked; a commit
//!   no broker acks leaves the shard view too, as a sim client's next
//!   read drops a write that reached no replica);
//! * a CALM-free kind is an invocation with initial quorum 0 that still
//!   observes the view before it ticks, and completes whatever the acks.
//!
//! A down replica is a broker that was never spawned: a packet to it
//! fails at once and nothing answers, so the shard never needs to know
//! in advance which replicas are up. The sim stays the differential
//! oracle: identical op streams produce observably identical outcomes,
//! final replica logs, merged histories, and monitor transitions
//! (exactly, for a single client over a FIFO fixed-delay network;
//! structurally, for racing clients) — pinned by
//! `tests/backend_oracle.rs`.
//!
//! Latencies here are wall-clock **nanoseconds** (recorded into the
//! registry on a [`TimeBase::WallNanos`] histogram), not sim ticks.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use relax_automata::History;
use relax_sim::NodeId;
use relax_trace::metrics::realtime;
use relax_trace::{DegradationMonitor, EventKind as TraceEvent, Registry, TimeBase};

use crate::assignment::VotingAssignment;
use crate::backend::{ClientTable, Executor, LayerCounts, RunStats, Transport};
use crate::calm::SchedulingPolicy;
use crate::frontier::Frontier;
use crate::log::{Entry, Log};
use crate::protocol::replica::ReplicaState;
use crate::protocol::wire::{reuse, Msg, Outcome};
use crate::relation::HasKind;
use crate::timestamp::LogicalClock;
use crate::types::ReplicatedType;
use crate::viewcache::ViewCache;

/// Knobs of the threaded backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadedConfig {
    /// Client front-end worker threads; clients are assigned round-robin
    /// (client `i` lives on shard `i % shards`).
    pub shards: usize,
    /// Maximum operations per shard round — the group-commit batch
    /// ceiling.
    pub batch: usize,
    /// Broker flush deadline in microseconds: the longest a broker holds
    /// a short batch for the shards it has not heard from (they are
    /// mid-execute, or busy with another broker). A batch holding one
    /// packet per running shard is full and never waits, so with one
    /// shard there is no linger at all.
    pub flush_micros: u64,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            shards: 1,
            batch: 64,
            flush_micros: 20,
        }
    }
}

/// One client's protocol-visible state: its backlog, logical clock, and
/// outcome table. Owned by exactly one shard.
struct ClientSlot<T: ReplicatedType> {
    clock: LogicalClock,
    backlog: VecDeque<T::Inv>,
    outcomes: Vec<Outcome<T::Op>>,
}

/// A shard front-end: a set of clients plus the shard's merged view of
/// the replicas, maintained across rounds so each read phase ships only
/// deltas above the view's frontier.
struct ShardState<T: ReplicatedType> {
    clients: Vec<ClientSlot<T>>,
    /// Merged view of everything this shard has read or written. A lower
    /// bound on every up replica's log whenever a round executes (reads
    /// merge the replicas' deltas in; a round's writes land at every
    /// broker before the next round's read is served), so evaluating it
    /// reproduces the sim client's per-op view.
    view: Log<T::Op>,
    /// The view's evaluation, lent to every reading invocation.
    cache: ViewCache<T::Value>,
    /// The frontier the last reading round advertised, refilled from the
    /// view for the next (every broker has answered by then).
    asked: Arc<Frontier>,
    /// Round-robin cursor so clients beyond the batch ceiling are not
    /// starved.
    cursor: usize,
    /// Rounds run so far (doubles as the round's correlation id).
    rounds: u64,
    /// Wall nanoseconds per available (completed or refused) operation.
    latencies: Vec<u64>,
    /// Operations per group commit.
    batch_sizes: Vec<u64>,
    /// The `calm_*` tallies (the cache keeps the `viewcache_*` ones).
    counts: LayerCounts,
}

/// One visit's traffic between a shard and a broker, either way: the
/// sender, the write half (a `WriteReq` out, its `WriteAck` back) and the
/// read half (the next round's `ReadReq` out, its `ReadResp` back). A
/// shard has at most one packet in flight per broker.
type Packet<T> = (NodeId, Option<Msg<T>>, Option<Msg<T>>);

/// The broker side's [`Transport`]: holds the one reply a replica sends
/// the requester of a read or a write until the broker packs it; no
/// timers or tracing (the threaded backend runs replicas without gossip).
struct BrokerTransport<T: ReplicatedType> {
    me: NodeId,
    reply: Option<Msg<T>>,
}

impl<T: ReplicatedType> Transport<T> for BrokerTransport<T> {
    fn me(&self) -> NodeId {
        self.me
    }

    fn now_ticks(&self) -> u64 {
        0
    }

    fn send(&mut self, _requester: NodeId, msg: Msg<T>) {
        self.reply = Some(msg);
    }

    fn set_timer(&mut self, _delay: u64, _token: u64) {}

    fn trace(&mut self, _make: impl FnOnce(u32) -> TraceEvent) {}
}

/// The sharded wall-clock backend: `n` replicas, each owned by a broker
/// thread, and `c` clients spread over shard front-end threads. See the
/// module docs for the dataflow; construct, [`ThreadedSystem::submit_to`],
/// then [`ThreadedSystem::run_all`] (repeatable — state persists across
/// runs, like the sim).
pub struct ThreadedSystem<T: ReplicatedType> {
    ttype: T,
    assignment: VotingAssignment<<T::Op as HasKind>::Kind>,
    config: ThreadedConfig,
    n_replicas: usize,
    n_clients: usize,
    replicas: Vec<ReplicaState<T>>,
    shards: Vec<ShardState<T>>,
    /// Replicas currently down (the wall-clock analogue of a sim crash
    /// or a partition isolating them from every client): no broker.
    down: BTreeSet<usize>,
    monitor: Option<DegradationMonitor<T::Op>>,
    monitor_seen: Vec<usize>,
    registry: Registry,
    /// Which invocation kinds skip the quorum protocol (CALM-monotone
    /// kinds; empty by default, so scheduling is pure quorum).
    policy: SchedulingPolicy<<T::Op as HasKind>::Kind>,
}

impl<T: ReplicatedType> std::fmt::Debug for ThreadedSystem<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedSystem")
            .field("n_replicas", &self.n_replicas)
            .field("n_clients", &self.n_clients)
            .field("config", &self.config)
            .field("down", &self.down)
            .finish_non_exhaustive()
    }
}

impl<T: ReplicatedType> ThreadedSystem<T> {
    /// Builds a system with `n_replicas` replicas and `n_clients`
    /// clients over the given quorum assignment.
    ///
    /// # Panics
    ///
    /// Panics if `n_clients == 0`, the config has zero shards or batch,
    /// or the assignment covers a different replica count.
    pub fn new(
        ttype: T,
        n_replicas: usize,
        n_clients: usize,
        assignment: VotingAssignment<<T::Op as HasKind>::Kind>,
        config: ThreadedConfig,
    ) -> Self {
        assert!(n_clients >= 1, "need at least one client");
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.batch >= 1, "need a positive batch ceiling");
        assert_eq!(
            assignment.n_sites(),
            n_replicas,
            "assignment must cover exactly the replica set"
        );
        let replica_ids: Arc<[NodeId]> = (0..n_replicas).map(NodeId).collect();
        let replicas = (0..n_replicas)
            .map(|_| ReplicaState::new(Arc::clone(&replica_ids)))
            .collect();
        let n_shards = config.shards.min(n_clients);
        let mut shards: Vec<ShardState<T>> = (0..n_shards)
            .map(|_| ShardState {
                clients: Vec::new(),
                view: Log::new(),
                cache: ViewCache::new(),
                asked: Arc::default(),
                cursor: 0,
                rounds: 0,
                latencies: Vec::new(),
                batch_sizes: Vec::new(),
                counts: LayerCounts::default(),
            })
            .collect();
        for c in 0..n_clients {
            // Client c's timestamp site matches the sim's node id n + c,
            // so both backends mint identical timestamps.
            shards[c % n_shards].clients.push(ClientSlot {
                clock: LogicalClock::new(n_replicas + c),
                backlog: VecDeque::new(),
                outcomes: Vec::new(),
            });
        }
        ThreadedSystem {
            ttype,
            assignment,
            config: ThreadedConfig {
                shards: n_shards,
                ..config
            },
            n_replicas,
            n_clients,
            replicas,
            shards,
            down: BTreeSet::new(),
            monitor: None,
            monitor_seen: vec![0; n_clients],
            registry: Registry::new(),
            policy: SchedulingPolicy::all_quorum(),
        }
    }

    /// Installs a CALM scheduling policy (builder-style; the default
    /// frees nothing). Kinds the policy marks free run with initial
    /// quorum 0 and no final quorum: they execute against the initial
    /// value, mint a timestamp above everything the shard's own view
    /// already holds (Lamport's rule applied locally — no message, no
    /// wait), and ride the round's group commit, complete whatever the
    /// acks — a round of only free invocations performs no read
    /// round-trip at all.
    #[must_use]
    pub fn with_scheduling(mut self, policy: SchedulingPolicy<<T::Op as HasKind>::Kind>) -> Self {
        self.policy = policy;
        self
    }

    /// The view-cache and CALM tallies of every shard plus the Merkle
    /// tallies of every replica (zero: brokers run no anti-entropy).
    pub fn counts(&self) -> LayerCounts {
        let shards = self.shards.iter().map(|s| s.counts + s.cache.counts);
        shards
            .chain(self.replicas.iter().map(|r| r.counts))
            .fold(LayerCounts::default(), |a, b| a + b)
    }

    // A tuple read of `counts` the benchmark package still calls; it goes
    // once the benchmark reads the registry by name.
    #[doc(hidden)]
    pub fn calm_op_counts(&self) -> (u64, u64) {
        let c = self.counts();
        (c.calm_fast_ops, c.calm_quorum_ops)
    }

    /// Attaches an online degradation monitor (builder-style): completed
    /// operations are fed to it in client-index order after each
    /// [`ThreadedSystem::run_all`].
    #[must_use]
    pub fn with_monitor(mut self, monitor: DegradationMonitor<T::Op>) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// The attached degradation monitor, if any.
    pub fn monitor(&self) -> Option<&DegradationMonitor<T::Op>> {
        self.monitor.as_ref()
    }

    /// Marks replica `i` down: runs spawn no broker for it, so a shard's
    /// packets to it fail and nothing answers — exactly like a sim client
    /// racing a crashed or partitioned site (requests into the void, no
    /// responses).
    pub fn crash(&mut self, i: usize) {
        assert!(i < self.n_replicas, "replica index out of range");
        self.down.insert(i);
    }

    /// Brings replica `i` back up. Its log still holds everything
    /// from before the crash (stable storage), but nothing written while
    /// it was down.
    pub fn recover(&mut self, i: usize) {
        assert!(i < self.n_replicas, "replica index out of range");
        self.down.remove(&i);
    }

    /// The wall-clock metrics: `realtime_op_latency_nanos` (p50/p99 come
    /// from here), `realtime_commit_batch_ops`, `realtime_shard_rounds`
    /// and `realtime_broker_visits` (batches the brokers have flushed: per
    /// replica, one a round and one more a run when a single shard reads);
    /// beside them [`ThreadedSystem::counts`] under the sim's names.
    /// [`ThreadedSystem::run_all`] refreshes all of them.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The shard→client index mapping: client `ix` is slot
    /// `ix / shards` of shard `ix % shards`.
    fn locate(&self, ix: usize) -> (usize, usize) {
        assert!(ix < self.n_clients, "client index out of range");
        (ix % self.config.shards, ix / self.config.shards)
    }

    /// Feeds newly completed operations (client-index order) to the
    /// attached monitor.
    fn poll_monitor(&mut self) {
        let Some(monitor) = self.monitor.as_mut() else {
            return;
        };
        for ix in 0..self.n_clients {
            let (s, c) = (ix % self.config.shards, ix / self.config.shards);
            let outcomes = &self.shards[s].clients[c].outcomes;
            for o in &outcomes[self.monitor_seen[ix]..] {
                if let Outcome::Completed { op, .. } = o {
                    monitor.observe(op);
                }
            }
            self.monitor_seen[ix] = outcomes.len();
        }
    }
}

impl<T: ReplicatedType> ClientTable<T> for ThreadedSystem<T> {
    fn n_clients(&self) -> usize {
        self.n_clients
    }

    fn outcomes_of(&self, ix: usize) -> &[Outcome<T::Op>] {
        let (s, c) = self.locate(ix);
        &self.shards[s].clients[c].outcomes
    }
}

impl<T> Executor<T> for ThreadedSystem<T>
where
    T: ReplicatedType + Sync,
    T::Op: Send + Sync,
    T::Inv: Send,
    T::Value: Send,
    <T::Op as HasKind>::Kind: Sync,
{
    fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    fn submit_to(&mut self, ix: usize, inv: T::Inv) {
        let (s, c) = self.locate(ix);
        self.shards[s].clients[c].backlog.push_back(inv);
    }

    /// Spawns one broker thread per up replica and one front-end
    /// thread per shard, drains every backlog, and joins. Latency
    /// samples land in [`ThreadedSystem::registry`] under the wall-nanos
    /// time base.
    fn run_all(&mut self) -> RunStats {
        let outcome_total = |sys: &Self| -> usize {
            sys.shards
                .iter()
                .flat_map(|s| s.clients.iter())
                .map(|c| c.outcomes.len())
                .sum()
        };
        let before = outcome_total(self);
        let start = Instant::now();

        let n = self.n_replicas;
        let batch_cap = self.config.batch;
        let linger = Duration::from_micros(self.config.flush_micros);
        // Shard threads still running: the brokers' exact batch bound.
        // Relaxed: the count publishes no data, it only ends a wait early.
        let live = &AtomicUsize::new(self.config.shards);
        let down = &self.down;
        let ttype = &self.ttype;
        let assignment = &self.assignment;
        let policy = &self.policy;

        // Channels: one inbox per replica, one response inbox per shard.
        // A down replica's inbox is dropped unread, so a packet sent to it
        // fails at once and nothing answers it. The main thread moves
        // every sender into a worker, so brokers exit when the last shard
        // drops its senders.
        let (rep_txs, rep_rxs): (Vec<_>, Vec<_>) =
            (0..n).map(|_| mpsc::channel::<Packet<T>>()).unzip();
        let (shard_txs, shard_rxs): (Vec<_>, Vec<_>) = (0..self.config.shards)
            .map(|_| mpsc::channel::<Packet<T>>())
            .unzip();

        let visits: u64 = std::thread::scope(|sc| {
            let mut brokers = Vec::with_capacity(n);
            for ((i, rep), rx) in self.replicas.iter_mut().enumerate().zip(rep_rxs) {
                if down.contains(&i) {
                    continue; // no broker: `rx` drops here
                }
                let shard_txs = shard_txs.clone();
                brokers.push(
                    sc.spawn(move || run_broker(rep, NodeId(i), rx, shard_txs, n, live, linger)),
                );
            }
            drop(shard_txs);
            for ((s, shard), rx) in self.shards.iter_mut().enumerate().zip(shard_rxs) {
                let to_replicas = rep_txs.clone();
                sc.spawn(move || {
                    run_shard(
                        shard,
                        ttype,
                        assignment,
                        policy,
                        &to_replicas,
                        &rx,
                        NodeId(n + s),
                        batch_cap,
                    );
                    live.fetch_sub(1, Ordering::Relaxed);
                });
            }
            drop(rep_txs);
            let flushed = brokers
                .into_iter()
                .map(|b| b.join().expect("broker panicked"));
            flushed.sum()
        });

        let ops = (outcome_total(self) - before) as u64;
        let wall_nanos = (start.elapsed().as_nanos() as u64).max(1);

        let mut rounds = 0;
        for shard in &mut self.shards {
            rounds += shard.rounds;
            let hist = self
                .registry
                .histogram_in(realtime::OP_LATENCY_NANOS, TimeBase::WallNanos);
            for nanos in shard.latencies.drain(..) {
                hist.record(nanos);
            }
            let commits = self.registry.histogram(realtime::COMMIT_BATCH_OPS);
            for size in shard.batch_sizes.drain(..) {
                commits.record(size);
            }
        }
        self.registry
            .gauge(realtime::SHARD_ROUNDS)
            .set(rounds as i64);
        self.registry
            .gauge(realtime::BROKER_VISITS)
            .add(visits as i64);
        self.counts().export(&mut self.registry);
        self.poll_monitor();
        RunStats { ops, wall_nanos }
    }

    fn replica_log(&self, i: usize) -> &Log<T::Op> {
        assert!(i < self.n_replicas, "replica index out of range");
        self.replicas[i].log()
    }

    fn merged_history(&self) -> History<T::Op> {
        let mut all = Log::new();
        for r in &self.replicas {
            all.merge(r.log());
        }
        all.to_history()
    }
}

/// The broker loop: drain the inbox in batches (flush on size or
/// deadline), serve the batch's writes, then its reads, and answer each
/// shard with one packet. The replica's protocol behaviour is
/// [`ReplicaState::on_message`] — the exact state machine the sim runs.
/// Returns the number of batches flushed.
///
/// The size bound is exact: a shard sends a packet to every broker and
/// awaits every reply before it sends the next, so it has at most one
/// packet in flight here and a batch can hold no more than one per shard
/// in `live`. A shard that has drained its backlog is not waited for.
fn run_broker<T: ReplicatedType>(
    rep: &mut ReplicaState<T>,
    me: NodeId,
    rx: mpsc::Receiver<Packet<T>>,
    shard_txs: Vec<mpsc::Sender<Packet<T>>>,
    n_replicas: usize,
    live: &AtomicUsize,
    linger: Duration,
) -> u64 {
    let mut batch: Vec<Packet<T>> = Vec::with_capacity(shard_txs.len());
    let mut ctx = BrokerTransport { me, reply: None };
    let mut serve = |from: NodeId, msg: Option<Msg<T>>| -> Option<Msg<T>> {
        rep.on_message(&mut ctx, from, msg?);
        ctx.reply.take()
    };
    let mut flushed = 0;
    loop {
        let Ok(first) = rx.recv() else {
            return flushed; // every shard finished and dropped its sender
        };
        batch.push(first);
        let mut deadline = None; // read the clock only for a short batch
        while batch.len() < live.load(Ordering::Relaxed) {
            let now = Instant::now();
            let left = deadline.get_or_insert(now + linger).duration_since(now);
            // Takes what is queued even at the deadline, then times out.
            match rx.recv_timeout(left) {
                Ok(m) => batch.push(m),
                Err(_) => break,
            }
        }
        // Every write of the batch before any read of it (each ack takes
        // its request's place in the packet): the batch's reads see every
        // write of the batch — a packet's own among them, which is what
        // lets the next round's read ride this round's commit — and the
        // replica pays one merged-state refresh for the whole group.
        for (from, write, _) in &mut batch {
            *write = serve(*from, write.take());
        }
        for (from, ack, read) in batch.drain(..) {
            // Shard `s` is node `n + s`. A send can only fail if the
            // shard exited, which it cannot do while awaiting us.
            let _ = shard_txs[from.0 - n_replicas].send((me, ack, serve(from, read)));
        }
        flushed += 1;
    }
}

/// The shard front-end loop: rounds of up to `batch_cap` clients, one
/// invocation each — client-order execution against the shard view
/// between two visits to the brokers. Each loop turn assembles a round,
/// pays the one visit that carries the previous round's group commit and
/// this round's read (either may be absent), closes the previous round on
/// the acks it counts, and executes against the responses it counts.
/// Nothing is in flight when it returns.
#[allow(clippy::too_many_arguments)]
fn run_shard<T: ReplicatedType>(
    shard: &mut ShardState<T>,
    ttype: &T,
    assignment: &VotingAssignment<<T::Op as HasKind>::Kind>,
    policy: &SchedulingPolicy<<T::Op as HasKind>::Kind>,
    to_replicas: &[mpsc::Sender<Packet<T>>],
    from_replicas: &mpsc::Receiver<Packet<T>>,
    me: NodeId,
    batch_cap: usize,
) {
    let initial = ttype.initial_value();
    // The round executed last turn: its clients, whose latency is still
    // open, and its group commit, which the next visit carries.
    let mut executed: Vec<usize> = Vec::new();
    let mut commit: Option<Msg<T>> = None;
    // A round's clock runs from the instant the previous round's last
    // reply was taken (the loop's start for the first) to the instant its
    // own last ack is: the rounds' latencies tile the run, never overlap.
    let mut t0 = Instant::now();
    loop {
        // Assemble the round: pending clients from the cursor, wrapping,
        // up to the batch ceiling. Empty once all backlogs are drained:
        // that turn only lands the last commit.
        let n_clients = shard.clients.len();
        let mut round: Vec<usize> = Vec::with_capacity(batch_cap.min(n_clients));
        for off in 0..n_clients {
            let ci = (shard.cursor + off) % n_clients;
            if !shard.clients[ci].backlog.is_empty() {
                round.push(ci);
                if round.len() >= batch_cap {
                    break;
                }
            }
        }
        if let Some(&last) = round.last() {
            shard.cursor = (last + 1) % n_clients;
            shard.rounds += 1;
        }
        let round_id = shard.rounds;

        let ShardState {
            clients,
            view,
            cache,
            asked,
            latencies,
            batch_sizes,
            counts,
            ..
        } = shard;

        // The round reads, once for all its operations, when one of its
        // quorum invocations has a non-empty initial quorum. Zero-size
        // quorums respond against the initial value and CALM-free kinds
        // never read: a round of only those asks the brokers nothing.
        let needs_read = round.iter().any(|&ci| {
            let inv = clients[ci].backlog.front().expect("selected non-empty");
            let kind = ttype.invocation_kind(inv);
            !policy.is_free(kind) && assignment.initial_size(kind) > 0
        });
        // The frontier is taken after the previous round's inserts, so a
        // replica that has merged the commit beside it ships none of it
        // back. One body for every broker: each packet copies a pointer.
        let read = needs_read.then(|| {
            view.frontier_into(reuse(asked));
            Msg::ReadReq {
                inv_id: round_id,
                known: Some(Arc::clone(asked)),
            }
        });
        // The visit: one packet to every replica, one back from each that
        // has a broker; the replies are counted, never presumed. A round
        // that neither follows a commit nor reads pays none.
        let write = commit.take();
        let (mut responses, mut acks) = (0, 0);
        if write.is_some() || read.is_some() {
            let sent = to_replicas
                .iter()
                .filter(|tx| tx.send((me, write.clone(), read.clone())).is_ok())
                .count();
            for _ in 0..sent {
                let Ok((_, ack, resp)) = from_replicas.recv() else {
                    return; // brokers gone: nothing left to await
                };
                acks += usize::from(ack.is_some());
                // Deltas from different replicas overlap (each is relative
                // to the same shard frontier); the merge drops repeats.
                if let Some(Msg::ReadResp { log, .. }) = resp {
                    responses += 1;
                    view.merge(&log);
                }
            }
        }
        // A commit no broker took is lost outright, as the sim client's
        // is (its next read rebuilds the view from what replicas hold):
        // its entries leave the view, so no later invocation sees them.
        if let Some(Msg::WriteReq { log, .. }) = &write {
            if acks == 0 {
                *view = view.diff(log);
            }
        }

        // Close the executed round: a write completes iff its acks reach
        // the op's final quorum, and at least one (free kinds need none),
        // and the round shares one wall-clock latency reading (timeouts
        // carry none).
        if !executed.is_empty() {
            let now = Instant::now();
            let nanos = (now.duration_since(t0).as_nanos() as u64).max(1);
            t0 = now;
            for &ci in &executed {
                let outcome = clients[ci].outcomes.last_mut().expect("one per execution");
                if let Outcome::Completed { op, .. } = outcome {
                    let kind = op.kind();
                    if !policy.is_free(kind) && acks < assignment.final_size(kind).max(1) {
                        *outcome = Outcome::TimedOut;
                    }
                }
                if let Outcome::Completed { latency, .. } | Outcome::Refused { latency } = outcome {
                    *latency = nanos;
                    latencies.push(nanos);
                }
            }
        }
        if round.is_empty() {
            return;
        }

        // Execute the round's invocations in client order against the
        // (evolving) shard view — exactly the sim client's semantics per
        // op: observe the view's max timestamp, evaluate, choose a
        // response, tick, append. A free kind reads nothing but still
        // observes what the shard holds (no message, no wait), so a shard
        // mints in strictly increasing order and its entries only append.
        let mut round_delta: Log<T::Op> = Log::new();
        for &ci in &round {
            let slot = &mut clients[ci];
            let inv = slot.backlog.pop_front().expect("selected non-empty");
            let kind = ttype.invocation_kind(&inv);
            let free = policy.is_free(kind);
            let init = if free {
                counts.calm_fast_ops += 1;
                0
            } else {
                counts.calm_quorum_ops += 1;
                assignment.initial_size(kind)
            };
            if init > responses {
                slot.outcomes.push(Outcome::TimedOut);
                continue;
            }
            // A zero initial quorum by assignment responds against the
            // initial value without observing (the sim's fresh-view path).
            let reads = init > 0;
            if reads || free {
                if let Some(ts) = view.max_timestamp() {
                    slot.clock.observe(ts);
                }
            }
            // The view is folded only if the response reads its value.
            let (seen, cache, initial) = (&*view, &mut *cache, &initial);
            let lend = move || {
                if !reads {
                    return initial;
                }
                let cache = cache; // moved out: the value outlives the call
                cache.eval_ref(seen, ttype.initial_value(), |v, op| ttype.apply_mut(v, op))
            };
            match ttype.respond(lend, &inv) {
                None => slot.outcomes.push(Outcome::Refused { latency: 0 }),
                Some(op) => {
                    // The entry goes to every broker whatever the acks —
                    // the sim's timed-out writes land the same way — and
                    // leaves the view again if none takes it.
                    let ts = slot.clock.tick();
                    round_delta.insert(Entry::new(ts, op.clone()));
                    view.insert(Entry::new(ts, op.clone()));
                    slot.outcomes.push(Outcome::Completed { op, latency: 0 });
                }
            }
        }

        // Group commit: the whole round's appends travel as one
        // WriteReq per replica, on the next visit, and merge in one batch.
        if !round_delta.is_empty() {
            batch_sizes.push(round_delta.len() as u64);
            commit = Some(Msg::WriteReq {
                inv_id: round_id,
                log: Arc::new(round_delta),
            });
        }
        executed = round;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::QueueKind;
    use crate::types::{
        queue_lattice_monitor, AccountInv, BankAccountType, QueueInv, TaxiQueueType,
    };
    use relax_queues::QueueOp;

    fn taxi_assignment(n: usize) -> VotingAssignment<QueueKind> {
        let maj = n / 2 + 1;
        VotingAssignment::new(n)
            .with_initial(QueueKind::Deq, maj)
            .with_final(QueueKind::Deq, maj)
            .with_initial(QueueKind::Enq, 1)
            .with_final(QueueKind::Enq, n - maj + 1)
    }

    #[test]
    fn healthy_taxi_run_matches_the_paper_protocol() {
        let mut sys = ThreadedSystem::new(
            TaxiQueueType,
            3,
            1,
            taxi_assignment(3),
            ThreadedConfig::default(),
        )
        .with_monitor(queue_lattice_monitor());
        sys.submit_to(0, QueueInv::Enq(2));
        sys.submit_to(0, QueueInv::Enq(9));
        sys.submit_to(0, QueueInv::Deq);
        sys.submit_to(0, QueueInv::Deq);
        let stats = sys.run_all();
        assert_eq!(stats.ops, 4);
        let outcomes = sys.outcomes_of(0);
        assert!(outcomes.iter().all(Outcome::is_completed));
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
        // Sequential single-client use degrades nothing.
        assert!(sys.monitor().expect("attached").transitions().is_empty());
        // All three replicas converged on the full log.
        for i in 0..3 {
            assert_eq!(sys.replica_log(i).len(), 4, "replica {i}");
        }
        // Wall-clock latencies landed on the nanos time base.
        let hist = sys
            .registry()
            .get_histogram(realtime::OP_LATENCY_NANOS)
            .expect("recorded");
        assert_eq!(hist.time_base(), TimeBase::WallNanos);
        assert_eq!(hist.len(), 4);
    }

    #[test]
    fn crashed_majority_times_ops_out_but_writes_persist() {
        let mut sys = ThreadedSystem::new(
            TaxiQueueType,
            3,
            1,
            taxi_assignment(3),
            ThreadedConfig::default(),
        );
        sys.crash(0);
        sys.crash(1);
        // Enq reads a quorum of 1 but must record at 2: the write phase
        // times out, yet the entry persists at the reachable replica.
        sys.submit_to(0, QueueInv::Enq(4));
        sys.submit_to(0, QueueInv::Deq); // needs a majority to even read
        sys.run_all();
        let outcomes = sys.outcomes_of(0);
        assert!(outcomes[0].is_timeout());
        assert!(outcomes[1].is_timeout());
        assert_eq!(sys.replica_log(2).len(), 1, "timed-out write still lands");
        assert_eq!(sys.replica_log(0).len(), 0, "crashed replica got nothing");
        // Recovery restores availability; the old write is still there.
        sys.recover(0);
        sys.recover(1);
        sys.submit_to(0, QueueInv::Deq);
        sys.run_all();
        assert!(matches!(
            sys.outcomes_of(0)[2],
            Outcome::Completed {
                op: QueueOp::Deq(4),
                ..
            }
        ));
    }

    #[test]
    #[should_panic(expected = "replica index out of range")]
    fn recovering_a_replica_that_does_not_exist_panics() {
        let mut sys = ThreadedSystem::new(
            TaxiQueueType,
            3,
            1,
            taxi_assignment(3),
            ThreadedConfig::default(),
        );
        sys.recover(99);
    }

    #[test]
    fn sharded_account_run_group_commits() {
        let assignment = VotingAssignment::new(3)
            .with_initial(crate::relation::AccountKind::Credit, 1)
            .with_final(crate::relation::AccountKind::Credit, 1)
            .with_initial(crate::relation::AccountKind::Debit, 1)
            .with_final(crate::relation::AccountKind::Debit, 3);
        let clients = 32;
        let mut sys = ThreadedSystem::new(
            BankAccountType,
            3,
            clients,
            assignment,
            ThreadedConfig {
                shards: 4,
                batch: 8,
                flush_micros: 5,
            },
        );
        for c in 0..clients {
            for _ in 0..8 {
                sys.submit_to(c, AccountInv::Credit(1));
            }
        }
        let stats = sys.run_all();
        assert_eq!(stats.ops, (clients * 8) as u64);
        for c in 0..clients {
            assert_eq!(sys.outcomes_of(c).len(), 8);
            assert!(sys.outcomes_of(c).iter().all(Outcome::is_completed));
        }
        // Every credit reached every replica exactly once.
        for i in 0..3 {
            assert_eq!(sys.replica_log(i).len(), clients * 8, "replica {i}");
        }
        assert_eq!(sys.merged_history().len(), clients * 8);
        // Group commit actually batched: fewer commits than operations.
        let commits = sys
            .registry()
            .get_histogram(realtime::COMMIT_BATCH_OPS)
            .expect("recorded");
        assert!(
            commits.len() < clients * 8,
            "expected multi-op group commits, got {} commits",
            commits.len()
        );
    }

    #[test]
    fn calm_fast_path_skips_the_read_phase_and_survives_lost_quorums() {
        use crate::calm::SchedulingPolicy;
        use crate::relation::AccountKind;
        let assignment = VotingAssignment::new(3)
            .with_initial(AccountKind::Credit, 1)
            .with_final(AccountKind::Credit, 3)
            .with_initial(AccountKind::Debit, 3)
            .with_final(AccountKind::Debit, 1);
        let mut sys =
            ThreadedSystem::new(BankAccountType, 3, 1, assignment, ThreadedConfig::default())
                .with_scheduling(SchedulingPolicy::coordination_free([AccountKind::Credit]));
        // Two replicas down: quorum credits would time out (final quorum
        // of 3), debits cannot even read — but free credits complete.
        sys.crash(0);
        sys.crash(1);
        sys.submit_to(0, AccountInv::Credit(5));
        sys.submit_to(0, AccountInv::Debit(1));
        sys.run_all();
        let outcomes = sys.outcomes_of(0);
        assert!(outcomes[0].is_completed(), "free credit is 100% available");
        assert!(outcomes[1].is_timeout(), "quorum debit still degrades");
        assert_eq!(sys.replica_log(2).len(), 1, "credit rode the group commit");
        let calm = |c: LayerCounts| (c.calm_fast_ops, c.calm_quorum_ops);
        assert_eq!(calm(sys.counts()), (1, 1));
        // After recovery the debit observes the fast-path credit.
        sys.recover(0);
        sys.recover(1);
        sys.submit_to(0, AccountInv::Debit(5));
        sys.run_all();
        assert!(matches!(
            sys.outcomes_of(0)[2],
            Outcome::Completed {
                op: relax_queues::AccountOp::DebitOk(5),
                ..
            }
        ));
        assert_eq!(calm(sys.counts()), (1, 2));
    }

    #[test]
    fn a_shard_mints_in_strictly_increasing_order_whatever_the_policy() {
        use crate::calm::SchedulingPolicy;
        use crate::relation::AccountKind;
        let assignment = VotingAssignment::new(3)
            .with_initial(AccountKind::Credit, 1)
            .with_final(AccountKind::Credit, 1)
            .with_initial(AccountKind::Debit, 2)
            .with_final(AccountKind::Debit, 2);
        let (clients, rounds) = (8, 12);
        let mut sys = ThreadedSystem::new(
            BankAccountType,
            3,
            clients,
            assignment,
            ThreadedConfig {
                shards: 1,
                batch: clients,
                flush_micros: 20,
            },
        )
        .with_scheduling(SchedulingPolicy::coordination_free([AccountKind::Credit]));
        // Every client's op j is the same kind, so rounds alternate: one
        // debit round (read phase, every clock observes the view), then
        // three free rounds that read nothing.
        for c in 0..clients {
            for j in 0..rounds {
                sys.submit_to(
                    c,
                    if j % 4 == 3 {
                        AccountInv::Debit(1)
                    } else {
                        AccountInv::Credit(2)
                    },
                );
            }
        }
        sys.run_all();
        let c = sys.counts();
        assert_eq!((c.calm_fast_ops, c.calm_quorum_ops), (72, 24));
        // One op per client per round: client c's j-th entry is round j.
        let log = sys.replica_log(0);
        assert_eq!(log.len(), clients * rounds);
        let mut by_round = vec![Vec::new(); rounds];
        let mut seen = vec![0; clients];
        for e in log.entries() {
            let c = e.ts.site - 3;
            by_round[seen[c]].push(e.ts);
            seen[c] += 1;
        }
        for (j, pair) in by_round.windows(2).enumerate() {
            assert_eq!(pair[0].len(), clients);
            assert!(
                pair[0].iter().max() < pair[1].iter().min(),
                "round {} mints below round {j}'s {:?}: {:?}",
                j + 1,
                pair[0].iter().max(),
                pair[1].iter().min()
            );
        }
    }

    #[test]
    fn brokers_do_not_wait_for_shards_that_have_finished() {
        use crate::relation::AccountKind;
        // A deadline long enough to count: shard 0 drains after 2 rounds,
        // shard 1 runs 16. While both run, a batch of two is full and
        // flushes at once; once shard 0 is gone, a batch of one is. Only
        // a broker already waiting as shard 0 exits may sit out one
        // deadline. A bound that is not exact waits out two per round.
        let flush_micros = 200_000;
        let assignment = VotingAssignment::new(3)
            .with_initial(AccountKind::Credit, 1)
            .with_final(AccountKind::Credit, 1);
        let mut sys = ThreadedSystem::new(
            BankAccountType,
            3,
            4,
            assignment,
            ThreadedConfig {
                shards: 2,
                batch: 2,
                flush_micros,
            },
        );
        let backlog = |c: usize| [2, 16][c % 2]; // client c lives on shard c % 2
        for c in 0..4 {
            for _ in 0..backlog(c) {
                sys.submit_to(c, AccountInv::Credit(1));
            }
        }
        let stats = sys.run_all();
        assert_eq!(stats.ops, 36);
        assert!(
            stats.wall_nanos < 4 * flush_micros * 1_000,
            "ran {} ms against a {} ms deadline",
            stats.wall_nanos / 1_000_000,
            flush_micros / 1_000
        );
        for c in 0..4 {
            assert_eq!(sys.outcomes_of(c).len(), backlog(c));
            assert!(sys.outcomes_of(c).iter().all(Outcome::is_completed));
        }
        for i in 0..3 {
            assert_eq!(sys.replica_log(i).len(), 36, "replica {i}");
        }
    }

    fn broker_visits<T: ReplicatedType>(sys: &ThreadedSystem<T>) -> i64 {
        let gauge = sys.registry().get_gauge(realtime::BROKER_VISITS);
        gauge.expect("set by run_all").value()
    }

    /// One shard, one client, three replicas: every invocation is a round
    /// of its own, and the run's broker visits can be counted exactly.
    fn visits_of<T>(
        ttype: T,
        assignment: VotingAssignment<<T::Op as HasKind>::Kind>,
        policy: SchedulingPolicy<<T::Op as HasKind>::Kind>,
        crashed: &[usize],
        stream: &[T::Inv],
    ) -> i64
    where
        T: ReplicatedType + Sync,
        T::Op: Send + Sync,
        T::Inv: Send,
        T::Value: Send,
        <T::Op as HasKind>::Kind: Sync,
    {
        let mut sys = ThreadedSystem::new(ttype, 3, 1, assignment, ThreadedConfig::default())
            .with_scheduling(policy);
        for &i in crashed {
            sys.crash(i);
        }
        for inv in stream {
            sys.submit_to(0, inv.clone());
        }
        assert_eq!(sys.run_all().ops, stream.len() as u64);
        let rounds = sys.registry().get_gauge(realtime::SHARD_ROUNDS);
        assert_eq!(rounds.expect("set").value(), stream.len() as i64);
        broker_visits(&sys)
    }

    #[test]
    fn a_reading_round_costs_one_broker_visit() {
        use crate::relation::AccountKind;
        let account = || {
            VotingAssignment::new(3)
                .with_initial(AccountKind::Credit, 1)
                .with_final(AccountKind::Credit, 1)
                .with_initial(AccountKind::Debit, 2)
                .with_final(AccountKind::Debit, 2)
        };
        let r = 9;
        let stream: Vec<AccountInv> = (0..r)
            .map(|j| [AccountInv::Credit(2), AccountInv::Debit(1)][j % 2])
            .collect();
        // R reading rounds: the first read and the last commit travel
        // alone, every commit between them carries the next read.
        let visits = visits_of(
            BankAccountType,
            account(),
            SchedulingPolicy::all_quorum(),
            &[],
            &stream,
        );
        assert_eq!(visits, 3 * (r as i64 + 1));
        // A crashed replica has no broker to visit.
        let visits = visits_of(
            BankAccountType,
            account(),
            SchedulingPolicy::all_quorum(),
            &[1],
            &stream,
        );
        assert_eq!(visits, 2 * (r as i64 + 1));
        // Nothing reads: one visit per commit, as ever.
        let free = SchedulingPolicy::coordination_free([AccountKind::Credit, AccountKind::Debit]);
        let visits = visits_of(BankAccountType, account(), free, &[], &stream);
        assert_eq!(visits, 3 * r as i64);
        // The middle Deq finds the queue empty and commits nothing: the
        // read after it has no commit to ride and travels alone.
        let taxi = [
            QueueInv::Enq(4),
            QueueInv::Deq,
            QueueInv::Deq,
            QueueInv::Enq(6),
            QueueInv::Deq,
        ];
        let visits = visits_of(
            TaxiQueueType,
            taxi_assignment(3),
            SchedulingPolicy::all_quorum(),
            &[],
            &taxi,
        );
        assert_eq!(visits, 3 * (taxi.len() as i64 + 1));
    }

    #[test]
    fn round_latencies_are_positive_and_tile_the_run() {
        // Four clients on one shard, batch 2: eight rounds, refusals among
        // them (the trailing dequeues find the queue empty). A round's
        // clock stops where the next one's starts, so what one client
        // waited in total fits inside the run.
        let mut sys = ThreadedSystem::new(
            TaxiQueueType,
            3,
            4,
            taxi_assignment(3),
            ThreadedConfig {
                shards: 1,
                batch: 2,
                flush_micros: 20,
            },
        );
        for c in 0..4 {
            sys.submit_to(c, QueueInv::Enq(c as i64));
            for _ in 0..3 {
                sys.submit_to(c, QueueInv::Deq);
            }
        }
        let stats = sys.run_all();
        assert_eq!(stats.ops, 16);
        let mut refused = 0;
        for c in 0..4 {
            let mut waited = 0;
            for o in sys.outcomes_of(c) {
                let (Outcome::Completed { latency, .. } | Outcome::Refused { latency }) = o else {
                    panic!("healthy run timed out: {o:?}");
                };
                assert!(*latency > 0, "client {c}: {o:?}");
                waited += latency;
                refused += usize::from(matches!(o, Outcome::Refused { .. }));
            }
            assert!(
                waited <= stats.wall_nanos,
                "client {c} waited {waited} ns in a run of {} ns",
                stats.wall_nanos
            );
        }
        assert_eq!(refused, 8);
    }

    #[test]
    fn nothing_is_in_flight_across_run_all() {
        // Refusals, commits and reads on both sides of the cut.
        let stream = [
            QueueInv::Deq,
            QueueInv::Enq(3),
            QueueInv::Enq(8),
            QueueInv::Deq,
            QueueInv::Deq,
            QueueInv::Deq,
            QueueInv::Enq(5),
        ];
        let system = || {
            ThreadedSystem::new(
                TaxiQueueType,
                3,
                1,
                taxi_assignment(3),
                ThreadedConfig::default(),
            )
        };
        let mut whole = system();
        for inv in stream {
            whole.submit_to(0, inv);
        }
        whole.run_all();
        for cut in 1..stream.len() {
            let mut split = system();
            for inv in &stream[..cut] {
                split.submit_to(0, *inv);
            }
            split.run_all();
            // The first call left every commit at every replica.
            let landed = split.outcomes_of(0).iter().filter(|o| o.is_completed());
            assert_eq!(split.replica_log(0).len(), landed.count(), "cut {cut}");
            for inv in &stream[cut..] {
                split.submit_to(0, *inv);
            }
            split.run_all();
            assert_eq!(
                crate::outcome_shapes(split.outcomes_of(0)),
                crate::outcome_shapes(whole.outcomes_of(0)),
                "cut {cut}"
            );
            for i in 0..3 {
                assert_eq!(split.replica_log(i), whole.replica_log(i), "cut {cut}");
            }
            // Drained backlogs: no round, and no broker is visited.
            let before = broker_visits(&split);
            assert_eq!(split.run_all().ops, 0);
            assert_eq!(broker_visits(&split), before, "cut {cut}");
        }
    }

    /// Multi-shard stress: well past the single-shard sweet spot, mixing
    /// CALM-free credits with quorum debits across 8 shards × 64 clients.
    /// Ignored by default (spins 11 OS threads and ~1.5k ops); CI runs it
    /// explicitly — see `ci.yml`.
    #[test]
    #[ignore = "multi-shard stress; CI runs it explicitly via --ignored"]
    fn multi_shard_stress_converges_with_mixed_scheduling() {
        use crate::calm::SchedulingPolicy;
        use crate::relation::AccountKind;
        let assignment = VotingAssignment::new(3)
            .with_initial(AccountKind::Credit, 1)
            .with_final(AccountKind::Credit, 1)
            .with_initial(AccountKind::Debit, 2)
            .with_final(AccountKind::Debit, 2);
        let clients = 64;
        let per_client_credits = 16u64;
        let per_client_debits = 4u64;
        let mut sys = ThreadedSystem::new(
            BankAccountType,
            3,
            clients,
            assignment,
            ThreadedConfig {
                shards: 8,
                batch: 16,
                flush_micros: 5,
            },
        )
        .with_scheduling(SchedulingPolicy::coordination_free([AccountKind::Credit]));
        for c in 0..clients {
            for i in 0..per_client_credits {
                sys.submit_to(c, AccountInv::Credit(1 + (i % 3) as u32));
            }
            for _ in 0..per_client_debits {
                sys.submit_to(c, AccountInv::Debit(1));
            }
        }
        let total = clients as u64 * (per_client_credits + per_client_debits);
        let stats = sys.run_all();
        assert_eq!(stats.ops, total);
        for c in 0..clients {
            assert!(
                sys.outcomes_of(c).iter().all(Outcome::is_completed),
                "client {c} left degraded outcomes"
            );
        }
        // Every operation (fast or quorum) reached every replica.
        for i in 0..3 {
            assert_eq!(sys.replica_log(i).len(), total as usize, "replica {i}");
        }
        assert_eq!(sys.merged_history().len(), total as usize);
        let c = sys.counts();
        assert_eq!(
            (c.calm_fast_ops, c.calm_quorum_ops),
            (
                clients as u64 * per_client_credits,
                clients as u64 * per_client_debits
            )
        );
    }
}
