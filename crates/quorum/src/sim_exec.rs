//! The simulator executor: protocol state machines as `relax-sim` nodes,
//! driven as one [`QuorumSystem`] with its fault injection, monitors and
//! telemetry.

use std::sync::Arc;

use relax_automata::History;
use relax_sim::{Ctx, NetworkConfig, Node, NodeId, SimTime, World};
use relax_trace::{DegradationMonitor, Registry, SloMonitor};

use crate::assignment::VotingAssignment;
use crate::backend::{replica_ids, ClientTable, Executor, LayerCounts, RunStats};
use crate::calm::SchedulingPolicy;
use crate::frontier::Staleness;
use crate::log::Log;
use crate::protocol::client::{ClientBookkeeping, ClientState};
use crate::protocol::replica::ReplicaState;
use crate::protocol::wire::{msg_wire_bytes, ClientConfig, Msg, Outcome, ReplicationMode};
use crate::relation::HasKind;
use crate::types::ReplicatedType;

/// A node in the replicated system: either a replica or the client.
#[derive(Debug)]
pub enum RoleNode<T: ReplicatedType> {
    /// A replica site holding a resident log.
    Replica(Box<ReplicaState<T>>),
    /// The client running the three-step protocol.
    Client(Box<ClientState<T>>),
}

impl<T: ReplicatedType> Node<Msg<T>> for RoleNode<T> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<T>>, from: NodeId, msg: Msg<T>) {
        match self {
            RoleNode::Replica(replica) => replica.on_message(ctx, from, msg),
            RoleNode::Client(client) => client.on_message(ctx, from, msg),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg<T>>, token: u64) {
        match self {
            RoleNode::Client(client) => client.on_timer(ctx, token),
            RoleNode::Replica(replica) => replica.on_timer(ctx, token),
        }
    }
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
    /// Outcomes of the one client the monitor has been fed.
    monitor_seen: usize,
    staleness: Option<Staleness>,
    slo: Option<SloMonitor>,
    registry: Registry,
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
    /// Panics if `n_clients == 0`, the assignment covers a different
    /// replica count, or there are more than 64 replicas (a client keeps
    /// quorum membership as one bit per replica in a `u64`).
    pub fn with_clients(
        ttype: T,
        n_replicas: usize,
        n_clients: usize,
        assignment: VotingAssignment<<T::Op as HasKind>::Kind>,
        client_config: ClientConfig,
        network: NetworkConfig,
        seed: u64,
    ) -> Self {
        let replica_ids = replica_ids(n_replicas, n_clients, &assignment);
        let assignment = Arc::new(assignment);
        let mut nodes: Vec<RoleNode<T>> = (0..n_replicas)
            .map(|_| RoleNode::Replica(Box::new(ReplicaState::new(Arc::clone(&replica_ids)))))
            .collect();
        let clients: Vec<NodeId> = (0..n_clients).map(|c| NodeId(n_replicas + c)).collect();
        for &id in &clients {
            nodes.push(RoleNode::Client(Box::new(ClientState::new(
                id,
                ttype.clone(),
                Arc::clone(&assignment),
                Arc::clone(&replica_ids),
                client_config.clone(),
            ))));
        }
        QuorumSystem {
            world: World::new(nodes, network, seed),
            clients,
            n_replicas,
            monitor: None,
            monitor_seen: 0,
            staleness: None,
            slo: None,
            registry: Registry::new(),
        }
    }

    fn client(&self, ix: usize) -> &ClientState<T> {
        client_at(&self.world, self.clients[ix])
    }

    fn client_mut(&mut self, ix: usize) -> &mut ClientState<T> {
        match self.world.node_mut(self.clients[ix]) {
            RoleNode::Client(c) => c,
            RoleNode::Replica(_) => unreachable!("client ids are fixed"),
        }
    }

    fn replica(&self, i: usize) -> &ReplicaState<T> {
        assert!(i < self.n_replicas, "replica index out of range");
        match self.world.node(NodeId(i)) {
            RoleNode::Replica(r) => r,
            RoleNode::Client(_) => unreachable!("replica ids are 0..n"),
        }
    }

    /// Enables structured tracing on the underlying world with the given
    /// ring-buffer capacity (builder-style).
    #[must_use]
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.world = self.world.with_trace(capacity);
        self
    }

    /// Puts every client on the production path (the default) or makes
    /// each the paper-literal reference ([`ReplicationMode::FullLog`]);
    /// the replicas serve either. Builder-style; call before running.
    #[must_use]
    pub fn with_replication(mut self, mode: ReplicationMode) -> Self {
        for ix in 0..self.clients.len() {
            self.client_mut(ix).set_mode(mode);
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
        for ix in 0..self.clients.len() {
            self.client_mut(ix).set_policy(policy.clone());
        }
        self
    }

    /// Asks every client to re-ship its coordination-free WAL to all
    /// replicas (a [`Msg::FlushWal`] control message per client): drives
    /// convergence of fast-path entries swallowed by a partition after
    /// it heals. Run the world afterwards to deliver the writes.
    pub fn flush_wals(&mut self) {
        for ix in 0..self.clients.len() {
            self.world.send_external(self.clients[ix], Msg::FlushWal);
        }
    }

    /// Installs the protocol's wire-size model ([`msg_wire_bytes`]) on
    /// the underlying world, so `bytes_sent` / `bytes_delivered` track
    /// modeled payload bytes. Builder-style.
    #[must_use]
    pub fn with_wire_accounting(mut self) -> Self {
        self.world = self.world.with_payload_sizer(msg_wire_bytes::<T>);
        self
    }

    /// Attaches an online degradation monitor (builder-style). After
    /// every simulator step the client's newly completed operations are
    /// fed to it in completion order; level transitions are appended to
    /// the world's trace (when tracing is enabled) with the completed
    /// operation as witness.
    ///
    /// # Panics
    ///
    /// Panics on a system with more than one client: completion order is
    /// the merged history's timestamp order only for one client
    /// (DESIGN §6), so racing clients would be graded on a history that
    /// never happened.
    #[must_use]
    pub fn with_monitor(mut self, monitor: DegradationMonitor<T::Op>) -> Self {
        assert_eq!(
            self.clients.len(),
            1,
            "a degradation monitor attaches to a one-client system only: \
             completion order is timestamp order for one client alone"
        );
        self.monitor = Some(monitor);
        self
    }

    /// The attached degradation monitor, if any.
    pub fn monitor(&self) -> Option<&DegradationMonitor<T::Op>> {
        self.monitor.as_ref()
    }

    /// Attaches a replica-staleness sampler (builder-style): a
    /// [`Staleness`], which lives in `frontier.rs` beside the site tables
    /// it reads. Each [`QuorumSystem::sample_staleness`] call then reads
    /// every replica log's site table in place and records per-replica
    /// lag and pairwise divergence events into the trace; the
    /// corresponding gauges in [`QuorumSystem::registry`] reflect the
    /// latest sample after [`QuorumSystem::export_metrics`].
    #[must_use]
    pub fn with_staleness(mut self) -> Self {
        self.staleness = Some(Staleness::new(self.n_replicas));
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

    /// The attached staleness sampler, if any.
    pub fn staleness(&self) -> Option<&Staleness> {
        self.staleness.as_ref()
    }

    /// The attached SLO monitor, if any.
    pub fn slo(&self) -> Option<&SloMonitor> {
        self.slo.as_ref()
    }

    /// The observability metrics registry: staleness, view-cache, CALM,
    /// Merkle and wire gauges, all refreshed by
    /// [`QuorumSystem::export_metrics`] (call it before scraping).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Steps the staleness sampler over every replica log's site table,
    /// read in place ([`crate::Log::site_summaries`]), and records its
    /// `ReplicaLagSampled` / `FrontierDivergence` readings into the
    /// trace. No-op unless [`QuorumSystem::with_staleness`] was called.
    /// Purely observational — sends no messages and draws no randomness,
    /// so sampling cannot perturb a run.
    ///
    /// The same readings are what [`QuorumSystem::export_metrics`] writes
    /// into the registry when a scrape wants them.
    pub fn sample_staleness(&mut self) {
        let Some(staleness) = self.staleness.as_mut() else {
            return;
        };
        let now = self.world.now().0;
        // Not `self.replica(i)`: the sampler is borrowed mutably, so only
        // `world` may be read here.
        let world = &self.world;
        staleness.sample(now, |i| match world.node(NodeId(i)) {
            RoleNode::Replica(r) => r.log().site_summaries(),
            RoleNode::Client(_) => unreachable!("replica ids are 0..n"),
        });
        let tracer = self.world.tracer_mut();
        for event in staleness.readings() {
            tracer.record(now, event);
        }
    }

    /// The view-cache and CALM tallies of every client plus the Merkle
    /// tallies of every replica.
    pub fn counts(&self) -> LayerCounts {
        let nodes = 0..self.n_replicas + self.clients.len();
        let counts = nodes.map(|i| match self.world.node(NodeId(i)) {
            RoleNode::Replica(r) => r.counts,
            RoleNode::Client(c) => c.counts(),
        });
        counts.fold(LayerCounts::default(), |a, b| a + b)
    }

    // Tuple reads of `counts` the benchmark package still calls; they go
    // once it reads the registry by name. `gossip_send_counts` is always
    // `(0, 0)`: replicas only run the Merkle walk.
    #[doc(hidden)]
    pub fn gossip_send_counts(&self) -> (u64, u64) {
        (0, 0)
    }

    #[doc(hidden)]
    pub fn merkle_sync_counts(&self) -> (u64, u64, u64) {
        let c = self.counts();
        (
            c.merkle_sync_rounds,
            c.merkle_nodes_exchanged,
            c.merkle_leaf_reuses,
        )
    }

    #[doc(hidden)]
    pub fn viewcache_checkpoint_hits(&self) -> u64 {
        self.counts().viewcache_checkpoint_hits
    }

    #[doc(hidden)]
    pub fn viewcache_counts(&self) -> (u64, u64) {
        let c = self.counts();
        (c.viewcache_hits, c.viewcache_misses)
    }

    #[doc(hidden)]
    pub fn viewcache_replayed_entries(&self) -> u64 {
        self.counts().viewcache_replayed_entries
    }

    /// Refreshes [`QuorumSystem::registry`]: the staleness gauges from
    /// the last sample, [`QuorumSystem::counts`], and the world's wire
    /// counters. Call before rendering or scraping the registry.
    pub fn export_metrics(&mut self) {
        if let Some(staleness) = &self.staleness {
            staleness.export(&mut self.registry);
        }
        self.counts().export(&mut self.registry);
        self.registry
            .gauge(relax_trace::metrics::wire::MESSAGES_SENT)
            .set(self.world.messages_sent() as i64);
        self.registry
            .gauge(relax_trace::metrics::wire::BYTES_SHIPPED)
            .set(self.world.bytes_sent() as i64);
    }

    /// Enables replica-to-replica anti-entropy: every `interval` ticks of
    /// inactivity, each replica broadcasts its hash-tree roots to its
    /// peers, and any peer whose tree disagrees walks the mismatch down
    /// to the divergent leaf ranges and has their entries shipped
    /// ([`crate::merkle`]). (Builder-style; call before running.)
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
                r.set_gossip(interval);
            }
            // Arm the first timer.
            self.world.send_external(NodeId(i), Msg::GossipKick);
        }
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

    /// [`World::run_with`], with the monitor feed (a no-op while no
    /// monitor is attached) before `stop` after every step.
    fn run_with(
        &mut self,
        limit: SimTime,
        budget: u64,
        stop: impl Fn(&World<Msg<T>, RoleNode<T>>) -> bool,
    ) -> bool {
        let client = self.clients[0];
        let (monitor, slo, seen) = (&mut self.monitor, &mut self.slo, &mut self.monitor_seen);
        self.world.run_with(limit, budget, |world| {
            if let Some(monitor) = monitor {
                feed_monitor(world, client, monitor, slo.as_mut(), seen);
            }
            stop(world)
        })
    }

    /// Runs the simulation until `t`; the clock ends at `t`, or where it
    /// was if that is later.
    pub fn run_until(&mut self, t: SimTime) {
        self.run_with(t, u64::MAX, |_| false);
        self.world.advance_clock_to(t);
    }

    /// Runs to quiescence (bounded by `max_events`).
    pub fn run_to_quiescence(&mut self, max_events: u64) -> bool {
        self.run_with(SimTime(u64::MAX), max_events, |_| false)
            || self.world.next_event_time().is_none()
    }

    /// Runs until the first client has recorded an outcome. Returns
    /// `true` on success within the event budget.
    pub fn run_to_first_outcome(&mut self, max_events: u64) -> bool {
        if self.outcomes().is_empty() {
            let client = self.clients[0];
            let done = |w: &World<_, _>| !client_at(w, client).outcomes().is_empty();
            self.run_with(SimTime(u64::MAX), max_events, done);
        }
        !self.outcomes().is_empty()
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
        self.client(ix).outcomes()
    }

    /// Client `ix`'s write bookkeeping, for the invariant tests.
    #[doc(hidden)]
    pub fn client_bookkeeping(&self, ix: usize) -> ClientBookkeeping<'_, T::Op> {
        self.client(ix).bookkeeping()
    }

    /// The resident log of replica `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a replica index.
    pub fn replica_log(&self, i: usize) -> &Log<T::Op> {
        self.replica(i).log()
    }

    /// The union of all replica logs, as a history in timestamp order —
    /// the system's "true" history.
    pub fn merged_history(&self) -> History<T::Op> {
        Executor::merged_history(self)
    }
}

/// The client at node `id`.
fn client_at<T: ReplicatedType>(world: &World<Msg<T>, RoleNode<T>>, id: NodeId) -> &ClientState<T> {
    match world.node(id) {
        RoleNode::Client(c) => c,
        RoleNode::Replica(_) => unreachable!("client ids are fixed"),
    }
}

/// Feeds the operations the client at `id` completed since `seen` to
/// `monitor`, in completion order, and records each level transition —
/// then whatever `slo` budget the transitions exhausted — in the world's
/// trace.
fn feed_monitor<T: ReplicatedType>(
    world: &mut World<Msg<T>, RoleNode<T>>,
    id: NodeId,
    monitor: &mut DegradationMonitor<T::Op>,
    mut slo: Option<&mut SloMonitor>,
    seen: &mut usize,
) {
    let now = world.now().0;
    while let Some(outcome) = client_at(world, id).outcomes().get(*seen) {
        *seen += 1;
        let Outcome::Completed { op, .. } = outcome else {
            continue;
        };
        if let Some(transition) = monitor.observe(op) {
            if let Some(slo) = slo.as_deref_mut() {
                for level in &transition.left {
                    slo.level_died(now, level);
                }
            }
            world.tracer_mut().record(now, transition.to_event());
        }
    }
    if let Some(slo) = slo {
        for event in slo.advance(now) {
            world.tracer_mut().record(now, event);
        }
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
                .map(|ix| sys.outcomes_of(ix).len())
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_automata::ObjectAutomaton;
    use relax_queues::{PQueueAutomaton, QueueOp};
    use relax_sim::{Fault, FaultSchedule};
    use relax_trace::EventKind as TraceEvent;

    use crate::relation::QueueKind;
    use crate::types::{
        queue_lattice_monitor, AccountInv, BankAccountType, QueueInv, TaxiQueueType,
    };

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

    /// Steps a gossiping system (which never quiesces) until its client
    /// has recorded `count` outcomes, within a million events.
    fn run_until_outcomes(sys: &mut QuorumSystem<TaxiQueueType>, count: usize) -> bool {
        let mut budget = 1_000_000;
        while sys.outcomes().len() < count && budget > 0 && sys.world_mut().step() {
            budget -= 1;
        }
        sys.outcomes().len() >= count
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
        if let Some(i) = PQueueAutomaton::new().first_rejection(&h) {
            panic!("PQ rejects op {i}, {}, of {h}", h.ops()[i]);
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 replicas")]
    fn more_replicas_than_a_membership_mask_holds_are_rejected() {
        let _ = QuorumSystem::new(
            TaxiQueueType,
            65,
            taxi_assignment(65),
            ClientConfig::default(),
            NetworkConfig::default(),
            1,
        );
    }

    #[test]
    #[should_panic(expected = "a degradation monitor attaches to a one-client system only")]
    fn a_monitor_on_racing_clients_is_refused() {
        // Completion order is not the merged history's order once two
        // clients race: a PQ-legal `Enq(1) Enq(9) Deq(9)` fed as
        // `Enq(1) Deq(9) Enq(9)` kills every level.
        let _ = QuorumSystem::with_clients(
            TaxiQueueType,
            3,
            2,
            taxi_assignment(3),
            ClientConfig::default(),
            NetworkConfig::default(),
            1,
        )
        .with_monitor(queue_lattice_monitor());
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
            let deqs = (0..2)
                .flat_map(|ix| sys.outcomes_of(ix))
                .filter(|o| {
                    matches!(
                        o,
                        Outcome::Completed {
                            op: QueueOp::Deq(5),
                            ..
                        }
                    )
                })
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
            if let Some(i) = PQueueAutomaton::new().first_rejection(&h) {
                panic!("seed {seed}: PQ rejects op {i}, {}, of {h}", h.ops()[i]);
            }
        }
    }

    /// Runs the same partitioned, gossiping workload in one replication
    /// mode and returns everything observable.
    #[allow(clippy::type_complexity)]
    fn observable_run(
        mode: ReplicationMode,
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
    fn production_path_is_observably_identical_to_full_log() {
        // Same messages at the same times — gossip included, which
        // depends on replica logs alone — → same rng draws → the two
        // modes agree on *everything* except payload bytes.
        for seed in [3, 17, 99] {
            let full = observable_run(ReplicationMode::FullLog, seed);
            let delta = observable_run(ReplicationMode::Merkle, seed);
            assert_eq!(full.0, delta.0, "outcomes diverged (seed {seed})");
            assert_eq!(full.1, delta.1, "merged history diverged (seed {seed})");
            assert_eq!(full.2, delta.2, "message counts diverged (seed {seed})");
            assert!(
                delta.3 <= full.3,
                "delta payloads shipped more bytes (seed {seed}): {} > {}",
                delta.3,
                full.3
            );
        }
    }

    #[test]
    fn delta_payloads_ship_far_fewer_bytes_on_long_histories() {
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
            assert!(run_until_outcomes(&mut sys, 120));
            sys.world().bytes_sent()
        };
        let full = run(ReplicationMode::FullLog);
        let delta = run(ReplicationMode::Merkle);
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
                if !sys.world_mut().step() {
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
            {
                let c = sys.counts();
                (
                    c.merkle_sync_rounds,
                    c.merkle_nodes_exchanged,
                    c.merkle_leaf_reuses,
                )
            },
        )
    }

    #[test]
    fn anti_entropy_repairs_splices_whatever_the_clients_run() {
        let full = splice_run(ReplicationMode::FullLog);
        let merkle = splice_run(ReplicationMode::Merkle);
        // The client protocol sends the same messages at the same times
        // in both modes: outcomes and the merged history must be
        // bit-identical.
        assert_eq!(full.0, merkle.0);
        assert_eq!(full.1, merkle.1);
        assert_eq!(full.2, merkle.2);
        // The Merkle walk actually ran, and it is the replicas' alone:
        // phase 2 has no client load, so the same divergence costs the
        // same rounds, nodes and repair bytes under either client mode.
        let (rounds, nodes, _) = merkle.4;
        assert!(rounds > 0, "merkle sync rounds recorded");
        assert!(nodes > 0, "merkle nodes exchanged");
        assert_eq!(full.3, merkle.3, "repair bytes");
        assert_eq!(full.4, merkle.4, "merkle counters");
    }

    /// The benchmark's `sim_partition_heal` phase 1 in small: two
    /// clients, gossip off, a partition rotating through six windows —
    /// client a keeps a majority and mixes dequeues in, client b sits
    /// with one lone replica and enqueues; `modes` sets each client's
    /// mode on its own. Returns both clients' outcomes, the merged
    /// history, messages sent, bytes sent and the replica logs.
    #[allow(clippy::type_complexity)]
    fn rotation_run(
        modes: [ReplicationMode; 2],
    ) -> (
        Vec<Outcome<QueueOp>>,
        Vec<Outcome<QueueOp>>,
        Vec<QueueOp>,
        u64,
        u64,
        Vec<Log<QueueOp>>,
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
        .with_wire_accounting();
        for (ix, mode) in modes.into_iter().enumerate() {
            sys.client_mut(ix).set_mode(mode);
        }
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
                assert!(sys.world_mut().step(), "window {w} stalled ({modes:?})");
            }
        }
        (
            sys.outcomes_of(0).to_vec(),
            sys.outcomes_of(1).to_vec(),
            sys.merged_history().into_ops(),
            sys.world().messages_sent(),
            sys.world().bytes_sent(),
            (0..3).map(|i| sys.replica_log(i).clone()).collect(),
        )
    }

    #[test]
    fn rotating_partition_run_is_mode_independent_and_its_wire_is_pinned() {
        let full = rotation_run([ReplicationMode::FullLog; 2]);
        let merkle = rotation_run([ReplicationMode::Merkle; 2]);
        assert!(full.0.iter().chain(&full.1).all(Outcome::is_completed));
        assert_eq!(full.0, merkle.0, "client a's outcomes");
        assert_eq!(full.1, merkle.1, "client b's outcomes");
        assert_eq!(full.2, merkle.2, "merged history");
        assert_eq!(full.3, merkle.3, "messages sent");
        // Counted at the commit before acks folded what was sent and
        // payloads extended: that change may move no message and no byte.
        assert_eq!((full.3, full.4, merkle.4), (648, 238_608, 62_760));
    }

    /// The mode is a client-side property: one set of replicas serves a
    /// reference client and a production client in the same run, and
    /// nothing but the bytes differs from the all-production run.
    #[test]
    fn one_set_of_replicas_serves_a_reference_and_a_production_client() {
        use ReplicationMode::{FullLog, Merkle};
        let production = rotation_run([Merkle; 2]);
        for modes in [[FullLog, Merkle], [Merkle, FullLog]] {
            let mixed = rotation_run(modes);
            assert_eq!(mixed.0, production.0, "client a's outcomes ({modes:?})");
            assert_eq!(mixed.1, production.1, "client b's outcomes ({modes:?})");
            assert_eq!(mixed.2, production.2, "merged history ({modes:?})");
            assert_eq!(mixed.3, production.3, "messages sent ({modes:?})");
            assert_eq!(mixed.5, production.5, "replica logs ({modes:?})");
            assert!(mixed.4 > production.4, "the reference ships whole logs");
        }
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
        let staleness = sys.staleness().expect("attached");
        assert_eq!(staleness.samples(), 2);
        assert_eq!(staleness.max_lag(), &[0, 1, 1]);
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

    /// Ten enqueue/dequeue pairs over three gossiping replicas with wire
    /// accounting, run to completion.
    fn exported_run(staleness: bool) -> QuorumSystem<TaxiQueueType> {
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
        if staleness {
            sys = sys.with_staleness();
        }
        // Enqueues never read the view's value; the dequeues fold it.
        for i in 0..10 {
            sys.submit(QueueInv::Enq(i));
            sys.submit(QueueInv::Deq);
        }
        assert!(run_until_outcomes(&mut sys, 20));
        if staleness {
            sys.sample_staleness();
        }
        sys.export_metrics();
        sys
    }

    /// The whole exposition of one fixed run, byte for byte: a renamed,
    /// dropped or re-valued gauge shows here before any dashboard.
    #[test]
    fn export_metrics_exposition_is_pinned() {
        let sys = exported_run(true);
        // Rendering sorts histogram samples in place, hence the copy.
        assert_eq!(
            sys.registry().clone().render_prometheus(),
            include_str!("../tests/fixtures/sim_exposition.prom")
        );
    }

    #[test]
    fn export_metrics_refreshes_the_pinned_gauge_names() {
        use relax_trace::metrics::{calm, merkle, viewcache, wire};
        let sys = exported_run(false);
        let c = sys.counts();
        assert!(
            c.viewcache_hits + c.viewcache_misses > 0,
            "a dequeue consults the cache"
        );
        let g = |name: &str| {
            sys.registry()
                .get_gauge(name)
                .unwrap_or_else(|| panic!("gauge {name} missing"))
                .value() as u64
        };
        assert_eq!(g(viewcache::HITS), c.viewcache_hits);
        assert_eq!(g(viewcache::MISSES), c.viewcache_misses);
        assert_eq!(g(viewcache::REPLAYED_ENTRIES), c.viewcache_replayed_entries);
        assert_eq!(g(viewcache::CHECKPOINT_HITS), c.viewcache_checkpoint_hits);
        assert_eq!(g(calm::FAST_OPS), c.calm_fast_ops);
        assert_eq!(g(calm::QUORUM_OPS), c.calm_quorum_ops);
        assert_eq!(g(merkle::SYNC_ROUNDS), c.merkle_sync_rounds);
        assert_eq!(g(merkle::NODES_EXCHANGED), c.merkle_nodes_exchanged);
        assert_eq!(g(merkle::LEAF_REUSES), c.merkle_leaf_reuses);
        assert_eq!(g(wire::MESSAGES_SENT), sys.world().messages_sent());
        assert_eq!(g(wire::BYTES_SHIPPED), sys.world().bytes_sent());
    }
}
