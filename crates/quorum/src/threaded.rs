//! The sharded wall-clock execution backend.
//!
//! Runs the quorum protocol of §3.1 over OS threads and a real clock
//! instead of the discrete-event simulator, with three batching layers
//! stacked to push aggregate throughput past a million operations per
//! second while staying observably equivalent to the sim:
//!
//! * **Sharded client front-ends.** Clients are partitioned round-robin
//!   across `shards` worker threads. Each thread steps one [`ClientState`]
//!   — the sim client's state machine — over all its clients in rounds
//!   of up to `batch`, with one view and one frontier for every broker.
//! * **Batched request brokers.** Each replica is owned by one broker
//!   thread running the sim's `ReplicaState` over an inbox-backed
//!   [`Transport`]. It drains its inbox in batches — flush on size or
//!   deadline — and serves *writes before reads* within a batch, so reads
//!   observe the freshest merged state without extra coordination.
//! * **Group commit.** A round's operations reach each replica as *one*
//!   [`Msg::WriteReq`]: one merge, one frontier/Merkle refresh per batch.
//!   The shard writes each entry once, into that commit; its view takes
//!   the commit in bulk, as a response reads it and when the round ends.
//!
//! Round *k*'s `WriteReq` and round *k+1*'s `ReadReq` travel in one
//! packet a broker and their replies in one: the replica that has just
//! merged a commit answers the next read from the same log state. Once
//! every broker still running has answered, the commit closes on the
//! acks and the next round executes on the responses — no run waits on a
//! timer. With several shards a read is as of its own previous commit's
//! arrival at each broker: up to one hand-off staler towards other
//! shards' commits. A down replica is a broker never spawned: a packet to
//! it fails at once. A broker whose thread ends mid-run says so to every
//! shard as it goes, and [`Executor::run_all`] re-raises its panic.
//!
//! Every thread receives through one inbox of its own: a `Mutex` over a
//! `Vec` of packets, and a `Condvar` its one receiver sleeps on. Arrival
//! order is FIFO; a send to an inbox whose receiver is gone (a down or
//! ended broker) fails at once and hands the packet back; a wait ends
//! when every sender is gone. A sender pushes under the lock, notes
//! whether the receiver sleeps, unlocks, and only then wakes it, and only
//! if it slept. A receiver woken under the lock would, on a CPU it shares
//! with the sender, preempt it just to block on that lock, and then run
//! again for the next packet: `std::sync::mpsc`, which wakes under its
//! waker lock, cost a one-shard round about three more context switches
//! on one CPU (8–9 against 5.6–5.8).
//! The receiver takes everything queued in one swap, so a broker's batch
//! and a shard's replies arrive whole.
//!
//! The sim stays the differential oracle: identical op streams produce
//! observably identical outcomes, replica logs and merged histories
//! (exactly for one client over a FIFO fixed-delay network, structurally
//! for racing clients) — `tests/backend_oracle.rs`. No degradation
//! monitor attaches here; a caller grades a client's completed ops with
//! one of its own.
//! Latencies are wall-clock **nanoseconds** (a [`TimeBase::WallNanos`]
//! histogram); a round's clock starts when the previous round closes, so
//! the rounds' latencies tile the run.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use relax_sim::NodeId;
use relax_trace::metrics::realtime;
use relax_trace::{EventKind as TraceEvent, Registry, TimeBase};

use crate::assignment::VotingAssignment;
use crate::backend::{replica_ids, ClientTable, Executor, LayerCounts, RunStats, Transport};
use crate::calm::SchedulingPolicy;
use crate::log::Log;
use crate::protocol::client::ClientState;
use crate::protocol::replica::ReplicaState;
use crate::protocol::wire::{ClientConfig, Msg, Outcome};
use crate::relation::HasKind;
use crate::types::ReplicatedType;

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

/// One visit's traffic between a shard and a broker, either way: a write
/// half (`WriteReq` out, `WriteAck` back) and a read half (`ReadReq` out,
/// `ReadResp` back).
type Halves<T> = (Option<Msg<T>>, Option<Msg<T>>);

/// Halves and their sender, at most one in flight per (shard, broker); a
/// broker whose thread ends sends every shard one with neither half.
type Packet<T> = (NodeId, Halves<T>);

/// One thread's inbox: what its senders pushed, in arrival order, and
/// whether its one receiver sleeps on `wake`.
struct Inbox<P> {
    state: Mutex<InboxState<P>>,
    wake: Condvar,
}

struct InboxState<P> {
    queue: Vec<P>,
    /// The receiver is gone: a send fails and hands its packet back.
    closed: bool,
    /// The receiver waits on `wake`: the next push (or the last sender
    /// leaving) clears this and notifies once.
    asleep: bool,
    /// Live [`Sender`]s: with none left, a wait on an empty queue ends.
    senders: usize,
}

impl<P> Inbox<P> {
    // Every update leaves the state whole, so the guard of a lock that a
    // panicking thread held is still safe to use.
    fn lock(&self) -> MutexGuard<'_, InboxState<P>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Notifies a receiver the caller found asleep. Called only after the
    /// guard is dropped: a receiver woken under the lock would run, on a
    /// shared CPU, only to block on that lock again.
    fn wake_if(&self, asleep: bool) {
        if asleep {
            self.wake.notify_one();
        }
    }
}

/// A sending end of an [`Inbox`]; clones count as further senders.
struct Sender<P>(Arc<Inbox<P>>);

/// The one receiving end of an [`Inbox`]; dropping it closes the inbox.
struct Receiver<P>(Arc<Inbox<P>>);

/// A new inbox with one sender.
fn inbox<P>() -> (Sender<P>, Receiver<P>) {
    let shared = Arc::new(Inbox {
        state: Mutex::new(InboxState {
            queue: Vec::new(),
            closed: false,
            asleep: false,
            senders: 1,
        }),
        wake: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

impl<P> Sender<P> {
    /// Queues `packet` behind everything sent before it and wakes the
    /// receiver if it sleeps; hands the packet back if the receiver is
    /// gone.
    fn send(&self, packet: P) -> Result<(), P> {
        let mut state = self.0.lock();
        if state.closed {
            return Err(packet);
        }
        state.queue.push(packet);
        let asleep = std::mem::take(&mut state.asleep);
        drop(state);
        self.0.wake_if(asleep);
        Ok(())
    }
}

impl<P> Clone for Sender<P> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<P> Drop for Sender<P> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.senders -= 1;
        let asleep = state.senders == 0 && std::mem::take(&mut state.asleep);
        drop(state);
        self.0.wake_if(asleep);
    }
}

impl<P> Receiver<P> {
    /// Moves everything queued onto the end of `into`, in arrival order,
    /// first sleeping while the queue is empty, a sender is left and
    /// `deadline` (if any) has not passed. Returns whether it moved
    /// anything.
    fn take(&self, into: &mut Vec<P>, deadline: Option<Instant>) -> bool {
        let mut state = self.0.lock();
        loop {
            if !state.queue.is_empty() {
                if into.is_empty() {
                    std::mem::swap(into, &mut state.queue);
                } else {
                    into.append(&mut state.queue);
                }
                return true;
            }
            if state.senders == 0 {
                return false;
            }
            let left = match deadline {
                None => None,
                Some(at) => match at.checked_duration_since(Instant::now()) {
                    Some(left) if !left.is_zero() => Some(left),
                    _ => return false,
                },
            };
            state.asleep = true;
            state = match left {
                None => self
                    .0
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(left) => {
                    let woken = self.0.wake.wait_timeout(state, left);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
            };
            state.asleep = false;
        }
    }
}

impl<P> Drop for Receiver<P> {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.closed = true;
        state.queue.clear();
    }
}

/// Either end's inbox-backed [`Transport`]: holds what its node sends
/// each peer — a write half (`WriteReq`, `WriteAck`) and a read half
/// (`ReadReq`, `ReadResp`) per peer `base + i` — until the driver packs
/// them into one packet, and reads the wall clock in nanoseconds since
/// the run began (strictly increasing, so every closed round waited a
/// positive time). No timers: a round closes when every live broker has
/// answered, and brokers run without gossip. No tracing.
struct ChannelTransport<T: ReplicatedType> {
    me: NodeId,
    base: usize,
    epoch: Instant,
    last: Cell<u64>,
    halves: Vec<Halves<T>>,
}

impl<T: ReplicatedType> ChannelTransport<T> {
    fn new(me: NodeId, base: usize, peers: usize) -> Self {
        let (epoch, last) = (Instant::now(), Cell::new(0));
        let halves = (0..peers).map(|_| (None, None)).collect();
        ChannelTransport {
            me,
            base,
            epoch,
            last,
            halves,
        }
    }
}

impl<T: ReplicatedType> Transport<T> for ChannelTransport<T> {
    fn me(&self) -> NodeId {
        self.me
    }

    fn now_ticks(&self) -> u64 {
        let now = (self.epoch.elapsed().as_nanos() as u64).max(self.last.get() + 1);
        self.last.set(now);
        now
    }

    fn send(&mut self, peer: NodeId, msg: Msg<T>) {
        let (write, read) = &mut self.halves[peer.0 - self.base];
        match msg {
            Msg::WriteReq { .. } | Msg::WriteAck { .. } => *write = Some(msg),
            _ => *read = Some(msg),
        }
    }

    fn set_timer(&mut self, _delay: u64, _token: u64) {}

    fn trace(&mut self, _make: impl FnOnce(u32) -> TraceEvent) {}
}

/// The sharded wall-clock backend: `n` replicas, each owned by a broker
/// thread, and `c` clients spread over shard front-end threads. See the
/// module docs for the dataflow; construct, [`ThreadedSystem::submit_to`],
/// then [`ThreadedSystem::run_all`] (repeatable — state persists across
/// runs, like the sim).
#[derive(Debug)]
pub struct ThreadedSystem<T: ReplicatedType> {
    config: ThreadedConfig,
    n_replicas: usize,
    n_clients: usize,
    replicas: Vec<ReplicaState<T>>,
    /// One client state machine per shard; client `ix` is its slot
    /// `ix / shards`.
    shards: Vec<ClientState<T>>,
    /// Replicas currently down (the wall-clock analogue of a sim crash
    /// or a partition isolating them from every client): no broker.
    down: BTreeSet<usize>,
    registry: Registry,
    /// Test-only fault: broker `.0` panics once it has flushed `.1`
    /// batches.
    #[cfg(test)]
    broker_fault: Option<(usize, u64)>,
}

impl<T: ReplicatedType> ThreadedSystem<T> {
    /// Builds a system with `n_replicas` replicas and `n_clients`
    /// clients over the given quorum assignment.
    ///
    /// # Panics
    ///
    /// Panics if `n_clients == 0`, the config has zero shards or batch,
    /// the assignment covers a different replica count, or there are more
    /// than 64 replicas (a round keeps quorum membership as one bit per
    /// replica in a `u64`).
    pub fn new(
        ttype: T,
        n_replicas: usize,
        n_clients: usize,
        assignment: VotingAssignment<<T::Op as HasKind>::Kind>,
        config: ThreadedConfig,
    ) -> Self {
        let replica_ids = replica_ids(n_replicas, n_clients, &assignment);
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.batch >= 1, "need a positive batch ceiling");
        let replicas = (0..n_replicas)
            .map(|_| ReplicaState::new(Arc::clone(&replica_ids)))
            .collect();
        let n_shards = config.shards.min(n_clients);
        let assignment = Arc::new(assignment);
        // Client c's timestamp site matches the sim's node id n + c, so
        // both backends mint identical timestamps.
        let shards = (0..n_shards)
            .map(|s| {
                let ids = Arc::clone(&replica_ids);
                let me = NodeId(n_replicas + s);
                let sites = (s..n_clients).step_by(n_shards).map(|c| n_replicas + c);
                let client = ClientConfig::default();
                ClientState::new(me, ttype.clone(), Arc::clone(&assignment), ids, client)
                    .shared(sites, config.batch)
            })
            .collect();
        ThreadedSystem {
            config: ThreadedConfig {
                shards: n_shards,
                ..config
            },
            n_replicas,
            n_clients,
            replicas,
            shards,
            down: BTreeSet::new(),
            registry: Registry::new(),
            #[cfg(test)]
            broker_fault: None,
        }
    }

    /// Installs a CALM scheduling policy (builder-style; the default
    /// frees nothing). Kinds the policy marks free run with initial
    /// quorum 0 and no final quorum: they execute against the initial
    /// value, mint a timestamp above everything the shard's own view
    /// already holds (Lamport's rule applied locally — no message, no
    /// wait), and ride the round's group commit, complete whatever the
    /// acks — a round of only free invocations performs no read
    /// round-trip at all. A free write no broker took waits in the
    /// shard's WAL and rides its next commit, as a sim client's does.
    #[must_use]
    pub fn with_scheduling(mut self, policy: SchedulingPolicy<<T::Op as HasKind>::Kind>) -> Self {
        for shard in &mut self.shards {
            shard.set_policy(policy.clone());
        }
        self
    }

    /// The view-cache and CALM tallies of every shard plus the Merkle
    /// tallies of every replica (zero: brokers run no anti-entropy).
    pub fn counts(&self) -> LayerCounts {
        let shards = self.shards.iter().map(ClientState::counts);
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
}

impl<T: ReplicatedType> ClientTable<T> for ThreadedSystem<T> {
    fn n_clients(&self) -> usize {
        self.n_clients
    }

    fn outcomes_of(&self, ix: usize) -> &[Outcome<T::Op>] {
        let (s, c) = self.locate(ix);
        self.shards[s].outcomes_of(c)
    }
}

impl<T> Executor<T> for ThreadedSystem<T>
where
    T: ReplicatedType + Send,
    T::Op: Send + Sync,
    T::Inv: Send,
    T::Value: Send,
    <T::Op as HasKind>::Kind: Send + Sync,
{
    fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    fn submit_to(&mut self, ix: usize, inv: T::Inv) {
        let (s, c) = self.locate(ix);
        self.shards[s].submit(c, inv);
    }

    /// Spawns one broker thread per up replica and one front-end
    /// thread per shard, drains every backlog, and joins. Latency
    /// samples land in [`ThreadedSystem::registry`] under the wall-nanos
    /// time base.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a broker thread that panicked.
    fn run_all(&mut self) -> RunStats {
        let before: Vec<usize> = (0..self.n_clients)
            .map(|ix| self.outcomes_of(ix).len())
            .collect();
        let start = Instant::now();

        let n = self.n_replicas;
        let linger = Duration::from_micros(self.config.flush_micros);
        // Shard threads still running: the brokers' exact batch bound.
        // Relaxed: the count publishes no data, it only ends a wait early.
        let live = &AtomicUsize::new(self.config.shards);
        let down = &self.down;
        #[cfg(test)]
        let fault = self.broker_fault;
        #[cfg(not(test))]
        let fault: Option<(usize, u64)> = None;

        // One inbox per replica, one response inbox per shard. A down
        // replica's inbox is dropped unread, so a packet sent to it fails
        // at once and nothing answers it. The main thread moves every
        // sender into a worker, so brokers exit when the last shard drops
        // its senders.
        let (rep_txs, rep_rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| inbox::<Packet<T>>()).unzip();
        let (shard_txs, shard_rxs): (Vec<_>, Vec<_>) = (0..self.config.shards)
            .map(|_| inbox::<Packet<T>>())
            .unzip();

        let (visits, shard_logs) = std::thread::scope(|sc| {
            let mut brokers = Vec::with_capacity(n);
            for ((i, rep), rx) in self.replicas.iter_mut().enumerate().zip(rep_rxs) {
                if down.contains(&i) {
                    continue; // no broker: `rx` drops here
                }
                let shard_txs = shard_txs.clone();
                let crash_after = fault.and_then(|(b, after)| (b == i).then_some(after));
                brokers.push(sc.spawn(move || {
                    let ctx = ChannelTransport::new(NodeId(i), n, shard_txs.len());
                    let run = || run_broker(rep, ctx, &rx, &shard_txs, live, linger, crash_after);
                    let flushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
                    // However the broker ended, its inbox closes first (a
                    // packet sent from then on fails), then every shard
                    // hears so, and none waits on a reply that cannot come.
                    drop(rx);
                    for tx in &shard_txs {
                        let _ = tx.send((NodeId(i), (None, None))); // a finished shard hears nothing
                    }
                    flushed.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                }));
            }
            drop(shard_txs);
            let mut shards = Vec::with_capacity(self.shards.len());
            for ((s, client), rx) in self.shards.iter_mut().enumerate().zip(shard_rxs) {
                let to_replicas = rep_txs.clone();
                shards.push(sc.spawn(move || {
                    let log = drive_shard(client, NodeId(n + s), &to_replicas, &rx);
                    live.fetch_sub(1, Ordering::Relaxed);
                    log
                }));
            }
            drop(rep_txs);
            let shard_logs: Vec<ShardLog> = shards.into_iter().map(join).collect();
            (brokers.into_iter().map(join).sum::<u64>(), shard_logs)
        });

        let wall_nanos = (start.elapsed().as_nanos() as u64).max(1);
        let (reg, shards, mut ops) = (&mut self.registry, self.config.shards, 0);
        let hist = reg.histogram_in(realtime::OP_LATENCY_NANOS, TimeBase::WallNanos);
        for (ix, seen) in before.into_iter().enumerate() {
            let fresh = &self.shards[ix % shards].outcomes_of(ix / shards)[seen..];
            ops += fresh.len() as u64;
            for o in fresh {
                if let Outcome::Completed { latency, .. } | Outcome::Refused { latency } = o {
                    hist.record(*latency);
                }
            }
        }
        for ShardLog { commits, visits } in shard_logs {
            let batches = reg.histogram(realtime::COMMIT_BATCH_OPS);
            commits.into_iter().for_each(|size| batches.record(size));
            let spans = reg.histogram_in(realtime::VISIT_NANOS, TimeBase::WallNanos);
            visits.into_iter().for_each(|span| spans.record(span));
        }
        let rounds: u64 = self.shards.iter().map(ClientState::rounds).sum();
        reg.gauge(realtime::SHARD_ROUNDS).set(rounds as i64);
        reg.gauge(realtime::BROKER_VISITS).add(visits as i64);
        self.counts().export(&mut self.registry);
        RunStats { ops, wall_nanos }
    }

    fn replica_log(&self, i: usize) -> &Log<T::Op> {
        assert!(i < self.n_replicas, "replica index out of range");
        self.replicas[i].log()
    }
}

/// Joins a worker, re-raising its panic with the worker's own payload.
fn join<R>(worker: std::thread::ScopedJoinHandle<'_, R>) -> R {
    worker
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
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
    mut ctx: ChannelTransport<T>,
    rx: &Receiver<Packet<T>>,
    shard_txs: &[Sender<Packet<T>>],
    live: &AtomicUsize,
    linger: Duration,
    crash_after: Option<u64>,
) -> u64 {
    let mut batch: Vec<Packet<T>> = Vec::with_capacity(shard_txs.len());
    let mut flushed = 0;
    loop {
        if !rx.take(&mut batch, None) {
            return flushed; // every shard finished and dropped its sender
        }
        let mut deadline = None; // read the clock only for a short batch
        while batch.len() < live.load(Ordering::Relaxed) {
            let at = *deadline.get_or_insert_with(|| Instant::now() + linger);
            // Takes what is queued even at the deadline, then times out.
            if !rx.take(&mut batch, Some(at)) {
                break;
            }
        }
        if crash_after == Some(flushed) {
            panic!("broker {} failed after {flushed} flushes", ctx.me.0);
        }
        // Every write of the batch before any read of it: the batch's
        // reads see every write of the batch — a packet's own among them,
        // which is what lets the next round's read ride this round's
        // commit — and the replica pays one merged-state refresh for the
        // whole group.
        for (from, (write, _)) in &mut batch {
            if let Some(msg) = write.take() {
                rep.on_message(&mut ctx, *from, msg);
            }
        }
        for (from, (_, read)) in batch.drain(..) {
            if let Some(msg) = read {
                rep.on_message(&mut ctx, from, msg);
            }
            // Shard `s` is node `n + s`. A send can only fail if the
            // shard exited, which it cannot do while awaiting us.
            let s = from.0 - ctx.base;
            let _ = shard_txs[s].send((ctx.me, std::mem::take(&mut ctx.halves[s])));
        }
        flushed += 1;
    }
}

/// What one shard thread's run leaves for the registry.
struct ShardLog {
    /// Every commit's size, in operations.
    commits: Vec<u64>,
    /// Every visit's wall nanoseconds, from sending its packets to
    /// feeding back its last reply.
    visits: Vec<u64>,
}

/// The shard thread: steps `client` over the broker inboxes, one visit
/// a turn — to every broker the packet the client filled for it (a
/// round's commit, the next round's read, or both), back from every
/// broker still running its reply, fed to the client ack first — then
/// [`ClientState::close`]. Ends when a turn has nothing to send: every
/// backlog drained, nothing in flight.
fn drive_shard<T: ReplicatedType>(
    client: &mut ClientState<T>,
    me: NodeId,
    to_replicas: &[Sender<Packet<T>>],
    from_replicas: &Receiver<Packet<T>>,
) -> ShardLog {
    let mut ctx = ChannelTransport::new(me, 0, to_replicas.len());
    let (mut commits, mut visits) = (Vec::new(), Vec::new());
    let mut replies = Vec::with_capacity(to_replicas.len());
    client.start_next(&mut ctx);
    // Every broker gets the same halves: packet 0 speaks for all.
    while !matches!(ctx.halves[0], (None, None)) {
        if let Some(Msg::WriteReq { log, .. }) = &ctx.halves[0].0 {
            commits.push(log.len() as u64);
        }
        let sent = ctx.now_ticks();
        // The replies are counted, never presumed: a broker whose inbox
        // is closed takes nothing and owes nothing.
        let mut awaiting = 0u64;
        for (r, tx) in to_replicas.iter().enumerate() {
            if tx.send((me, std::mem::take(&mut ctx.halves[r]))).is_ok() {
                awaiting |= 1 << r;
            }
        }
        while awaiting != 0 {
            let took = from_replicas.take(&mut replies, None);
            assert!(took, "brokers outlive shards");
            for (from, (ack, resp)) in replies.drain(..) {
                awaiting &= !(1 << from.0);
                for msg in [ack, resp].into_iter().flatten() {
                    client.on_message(&mut ctx, from, msg);
                }
            }
        }
        visits.push(ctx.now_ticks() - sent);
        client.close(&mut ctx);
    }
    ShardLog { commits, visits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::QueueKind;
    use crate::types::{
        queue_lattice_monitor, AccountInv, BankAccountType, QueueInv, TaxiQueueType,
    };
    use relax_queues::QueueOp;
    use std::sync::mpsc;

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
        );
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
        // Sequential single-client use degrades nothing: a monitor fed
        // the client's completed ops sees no transition.
        let mut monitor = queue_lattice_monitor();
        for o in outcomes {
            if let Outcome::Completed { op, .. } = o {
                monitor.observe(op);
            }
        }
        assert!(monitor.transitions().is_empty());
        assert_eq!(monitor.current_level(), Some("PQ"));
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
        T: ReplicatedType + Send,
        T::Op: Send + Sync,
        T::Inv: Send,
        T::Value: Send,
        <T::Op as HasKind>::Kind: Send + Sync,
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

    #[test]
    fn visit_spans_are_one_per_visit_and_fit_in_the_run() {
        // One shard over three live brokers: every visit is one batch
        // at each, so the brokers' flushes count the shard's visits.
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
            sys.submit_to(c, QueueInv::Deq);
        }
        let stats = sys.run_all();
        let spans = sys.registry().get_histogram(realtime::VISIT_NANOS);
        let spans = spans.expect("recorded");
        assert_eq!(spans.time_base(), TimeBase::WallNanos);
        assert_eq!(3 * spans.len() as i64, broker_visits(&sys));
        assert!(spans.min() > Some(0));
        assert!(
            spans.sum() <= stats.wall_nanos,
            "visits took {} ns in a run of {} ns",
            spans.sum(),
            stats.wall_nanos
        );
    }

    #[test]
    fn a_send_to_a_dropped_inbox_returns_its_packet() {
        let (tx, rx) = inbox::<u32>();
        assert_eq!(tx.send(7), Ok(()));
        drop(rx);
        assert_eq!(tx.send(8), Err(8));
    }

    /// Runs `f` on a thread of its own and returns what it returns; a
    /// watchdog turns a hang into a failure.
    fn within_ten_seconds<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(Duration::from_secs(10))
            .expect("hung past the 10-s watchdog")
    }

    #[test]
    fn dropping_the_last_sender_ends_a_blocked_wait() {
        let joined = within_ten_seconds(|| {
            let (tx, rx) = inbox::<u32>();
            let shared = Arc::clone(&rx.0);
            let second = tx.clone();
            let waiter = std::thread::spawn(move || {
                let mut got = Vec::new();
                let first = rx.take(&mut got, None);
                let last = rx.take(&mut got, None);
                (first, last, got)
            });
            assert_eq!(tx.send(1), Ok(()));
            drop(tx);
            // The receiver takes the packet and sleeps again: one sender
            // is left.
            while !shared.lock().asleep {
                std::thread::yield_now();
            }
            drop(second);
            waiter.join().expect("receiver")
        });
        assert_eq!(joined, (true, false, vec![1]));
    }

    #[test]
    fn a_ping_pong_of_100000_packets_finishes_in_order() {
        const PACKETS: u32 = 100_000;
        within_ten_seconds(|| {
            let (to_pong, pong_inbox) = inbox::<u32>();
            let (to_ping, ping_inbox) = inbox::<u32>();
            let replied = Arc::new(AtomicUsize::new(0));
            let seen = Arc::clone(&replied);
            let pong = std::thread::spawn(move || {
                let mut got = Vec::new();
                let mut next = 0;
                while pong_inbox.take(&mut got, None) {
                    for i in got.drain(..) {
                        assert_eq!(i, next, "out of order");
                        next += 1;
                        to_ping.send(i).expect("ping waits for every reply");
                        // Go back to sleep only once ping holds the reply:
                        // the next ping then races this receiver to sleep,
                        // the moment a wake can go missing.
                        while seen.load(Ordering::Acquire) <= i as usize {
                            std::thread::yield_now();
                        }
                    }
                }
                next
            });
            let mut got = Vec::new();
            for i in 0..PACKETS {
                to_pong.send(i).expect("pong outlives the pings");
                assert!(ping_inbox.take(&mut got, None));
                assert_eq!(got, [i]);
                got.clear();
                replied.store(i as usize + 1, Ordering::Release);
            }
            drop(to_pong);
            assert_eq!(pong.join().expect("pong"), PACKETS);
        });
    }

    /// A broker thread that panics mid-run: its shard stops waiting on it,
    /// and `run_all` re-raises the broker's own panic. A watchdog turns a
    /// hang into a failure instead of a stalled run.
    #[test]
    fn a_broker_panic_reaches_the_caller_instead_of_hanging() {
        let message = within_ten_seconds(|| {
            let mut sys = ThreadedSystem::new(
                TaxiQueueType,
                3,
                1,
                taxi_assignment(3),
                ThreadedConfig::default(),
            );
            sys.broker_fault = Some((1, 3));
            for v in 0..16 {
                sys.submit_to(0, QueueInv::Enq(v));
            }
            let run = std::panic::AssertUnwindSafe(|| sys.run_all());
            let panic = std::panic::catch_unwind(run).expect_err("a broker panicked");
            panic.downcast_ref::<String>().cloned()
        });
        assert_eq!(message.as_deref(), Some("broker 1 failed after 3 flushes"));
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
