//! The simulation world: event queue, clock, nodes, network, faults.
//!
//! The world optionally collects a structured trace (see `relax-trace`):
//! every delivery, drop, timer fire, and injected fault becomes a
//! sim-time-stamped event in a bounded ring buffer, and node handlers
//! can add their own events through [`Ctx::trace`]; a delivery or fire
//! names the [`Origin`] record its sender wrote before it. Tracing is off
//! by default and costs one branch per would-be event when off.

use relax_automata::SplitMix64;
use relax_trace::{DropCause, EventKind as TraceEvent, Origin, Tracer};

use crate::calendar::Calendar;
use crate::network::{Network, NetworkConfig};
use crate::node::{Action, Ctx, Node, NodeId};
use crate::schedule::{Fault, FaultSchedule};
use crate::time::SimTime;

#[derive(Debug, Clone)]
enum EventKind<P> {
    Deliver {
        src: NodeId,
        dst: NodeId,
        payload: P,
        /// World-unique message id.
        msg_id: u32,
        origin: Origin,
    },
    Timer {
        node: NodeId,
        token: u64,
        origin: Origin,
    },
}

/// A simulated distributed system: nodes, network, virtual clock, event
/// queue, an optional fault schedule, and an optional trace collector.
///
/// # Message accounting
///
/// Messages enter the system three ways — node sends
/// ([`World::messages_sent`]), external injections
/// ([`World::messages_injected`]), and network duplication
/// ([`World::messages_duplicated`]) — and leave it two ways — delivery
/// to a handler ([`World::messages_delivered`]) or loss
/// ([`World::messages_lost`]: crash, partition, blocked link, or random
/// drop, whether at send time or in flight). At any instant,
///
/// ```text
/// sent + injected + duplicated == delivered + lost + in_flight
/// ```
///
/// which [`World::messages_in_flight`] makes checkable.
#[derive(Debug)]
pub struct World<P, N> {
    nodes: Vec<N>,
    network: Network,
    rng: SplitMix64,
    now: SimTime,
    /// Pending deliveries and timers, popped by time and FIFO among
    /// simultaneous ones, which makes runs fully deterministic.
    queue: Calendar<EventKind<P>>,
    next_msg_id: u32,
    schedule: FaultSchedule,
    tracer: Tracer,
    events_processed: u64,
    messages_sent: u64,
    messages_injected: u64,
    messages_delivered: u64,
    messages_lost: u64,
    messages_duplicated: u64,
    /// Optional payload wire-size model; when installed, every offered
    /// and delivered payload is sized into the byte counters.
    payload_bytes: Option<fn(&P) -> u64>,
    bytes_sent: u64,
    bytes_delivered: u64,
    /// The action buffer lent to each handler's [`Ctx`] and drained after
    /// it returns: one allocation per world, not one per event.
    actions: Vec<Action<P>>,
}

impl<P: Clone, N: Node<P>> World<P, N> {
    /// Creates a world over the given nodes with a seeded RNG.
    pub fn new(nodes: Vec<N>, config: NetworkConfig, seed: u64) -> Self {
        let n = nodes.len();
        World {
            nodes,
            network: Network::new(config, n),
            rng: SplitMix64::seed_from_u64(seed),
            now: SimTime::ZERO,
            queue: Calendar::new(),
            next_msg_id: 0,
            schedule: FaultSchedule::new(),
            tracer: Tracer::disabled(),
            events_processed: 0,
            messages_sent: 0,
            messages_injected: 0,
            messages_delivered: 0,
            messages_lost: 0,
            messages_duplicated: 0,
            payload_bytes: None,
            bytes_sent: 0,
            bytes_delivered: 0,
            actions: Vec::new(),
        }
    }

    /// Installs a payload wire-size model (builder-style): `sizer` is
    /// applied to every payload a node offers to the network (counted in
    /// [`World::bytes_sent`], whether or not the message survives) and to
    /// every payload handed to a handler ([`World::bytes_delivered`],
    /// which includes external injections). Sizing draws no randomness
    /// and changes no behavior — installing it cannot perturb a run.
    #[must_use]
    pub fn with_payload_sizer(mut self, sizer: fn(&P) -> u64) -> Self {
        self.payload_bytes = Some(sizer);
        self
    }

    /// Installs a fault schedule (builder-style).
    #[must_use]
    pub fn with_schedule(mut self, schedule: FaultSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Enables trace collection with the given ring-buffer capacity
    /// (builder-style).
    #[must_use]
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.tracer = Tracer::bounded(capacity);
        self
    }

    /// Installs a fault schedule on an existing world (replacing any
    /// pending one).
    pub fn set_schedule(&mut self, schedule: FaultSchedule) {
        self.schedule = schedule;
    }

    /// The trace collected so far (empty and disabled unless
    /// [`World::with_trace`] was used).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable trace access (e.g. for the harness to add its own events
    /// or export and clear between phases).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.0]
    }

    /// Mutable access to a node (e.g. to inspect or reset between
    /// experiment phases).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.0]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the world has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The network model (for manual fault injection).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// Mutable network access.
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Messages nodes offered to the network so far (excludes external
    /// injections; see [`World::messages_injected`]).
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Messages injected from outside the simulated system via
    /// [`World::send_external`].
    pub fn messages_injected(&self) -> u64 {
        self.messages_injected
    }

    /// Messages delivered to a handler so far.
    pub fn messages_delivered(&self) -> u64 {
        self.messages_delivered
    }

    /// Messages lost so far (crash, partition, blocked link, or random
    /// loss — at send time or in flight).
    pub fn messages_lost(&self) -> u64 {
        self.messages_lost
    }

    /// Extra copies the network created by message duplication (each
    /// enters the in-flight pool like a send and leaves by delivery or
    /// loss).
    pub fn messages_duplicated(&self) -> u64 {
        self.messages_duplicated
    }

    /// Modeled payload bytes nodes offered to the network (0 unless a
    /// sizer was installed with [`World::with_payload_sizer`]). Counts
    /// lost messages too, mirroring [`World::messages_sent`].
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Modeled payload bytes delivered to handlers (0 unless a sizer was
    /// installed). Includes external injections.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered
    }

    /// Messages currently queued for delivery (neither delivered nor
    /// lost yet). O(queue length).
    pub fn messages_in_flight(&self) -> u64 {
        self.queue
            .iter()
            .filter(|e| matches!(e, EventKind::Deliver { .. }))
            .count() as u64
    }

    /// Injects a message to `dst` from outside the simulated system (no
    /// loss or delay; delivered at the current instant). Used to kick off
    /// client requests.
    pub fn send_external(&mut self, dst: NodeId, payload: P) {
        self.messages_injected += 1;
        let msg_id = self.next_msg_id();
        let deliver = EventKind::Deliver {
            src: dst,
            dst,
            payload,
            msg_id,
            origin: Origin::NONE,
        };
        self.schedule(0, deliver);
    }

    /// The last record written so far ([`Origin::NONE`] while untraced).
    fn last_record(&self) -> Origin {
        Origin::at(self.tracer.next_seq().wrapping_sub(1))
    }

    /// Queues `kind` to happen `delay` ticks from now, after everything
    /// queued for that instant before it.
    fn schedule(&mut self, delay: u64, kind: EventKind<P>) {
        self.queue.push(self.now.0, delay, kind);
    }

    fn next_msg_id(&mut self) -> u32 {
        let id = self.next_msg_id;
        self.next_msg_id += 1;
        id
    }

    /// The time of the next pending event or fault, if any. Useful for
    /// harnesses that interleave their own observation with stepping.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue
            .peek_time()
            .map(SimTime)
            .into_iter()
            .chain(self.schedule.next_time())
            .min()
    }

    /// Advances the clock to `t` without processing anything (a no-op if
    /// the clock is already past `t`).
    pub fn advance_clock_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Processes the next event or fault. Returns `false` when nothing
    /// remains.
    pub fn step(&mut self) -> bool {
        self.step_by(SimTime(u64::MAX))
    }

    /// Processes the next event or fault if it is due by `limit`; faults
    /// go first at a shared instant. Returns whether it processed one.
    fn step_by(&mut self, limit: SimTime) -> bool {
        let next_event_time = self.queue.peek_time().map(SimTime);
        match (next_event_time, self.schedule.next_time()) {
            (event, Some(tf)) if tf <= limit && event.is_none_or(|te| tf <= te) => {
                self.now = tf;
                for fault in self.schedule.drain_due(tf) {
                    self.apply_fault(fault);
                }
                true
            }
            (Some(te), _) if te <= limit => {
                let (time, ev) = self.queue.pop().expect("peeked non-empty");
                self.now = SimTime(time);
                self.dispatch(ev);
                true
            }
            _ => false,
        }
    }

    fn apply_fault(&mut self, fault: Fault) {
        match fault {
            Fault::Crash(n) => {
                self.tracer
                    .record(self.now.0, TraceEvent::NodeCrashed { node: n.0 as u32 });
                self.network.crash(n);
            }
            Fault::Recover(n) => {
                self.tracer
                    .record(self.now.0, TraceEvent::NodeRecovered { node: n.0 as u32 });
                self.network.recover(n);
            }
            Fault::Partition(p) => {
                if self.tracer.is_enabled() {
                    let groups = p
                        .group_list()
                        .iter()
                        .map(|g| g.iter().map(|n| n.0 as u32).collect())
                        .collect();
                    self.tracer
                        .record(self.now.0, TraceEvent::PartitionSet { groups });
                }
                self.network.set_partition(p);
            }
            Fault::Heal => {
                self.tracer.record(self.now.0, TraceEvent::PartitionHealed);
                self.network.heal_partition();
            }
            Fault::SetLoss(p) => {
                self.tracer
                    .record(self.now.0, TraceEvent::LossRateSet { probability: p });
                self.network.set_loss_probability(p);
            }
            Fault::GrayDegrade(n, multiplier) => {
                self.tracer.record(
                    self.now.0,
                    TraceEvent::GrayDegraded {
                        node: n.0 as u32,
                        multiplier,
                    },
                );
                self.network.set_gray(n, multiplier);
            }
            Fault::GrayRestore(n) => {
                self.tracer
                    .record(self.now.0, TraceEvent::GrayRestored { node: n.0 as u32 });
                self.network.restore_gray(n);
            }
            Fault::BlockLink(src, dst) => {
                self.tracer.record(
                    self.now.0,
                    TraceEvent::LinkBlocked {
                        src: src.0 as u32,
                        dst: dst.0 as u32,
                    },
                );
                self.network.block_link(src, dst);
            }
            Fault::UnblockLink(src, dst) => {
                self.tracer.record(
                    self.now.0,
                    TraceEvent::LinkRestored {
                        src: src.0 as u32,
                        dst: dst.0 as u32,
                    },
                );
                self.network.unblock_link(src, dst);
            }
            Fault::SetDuplication(p) => {
                self.tracer.record(
                    self.now.0,
                    TraceEvent::DuplicationRateSet { probability: p },
                );
                self.network.set_duplication_probability(p);
            }
        }
    }

    fn dispatch(&mut self, ev: EventKind<P>) {
        self.events_processed += 1;
        let target = match ev {
            EventKind::Deliver {
                src,
                dst,
                ref payload,
                msg_id,
                origin,
            } => {
                let (src, dst_ix) = (src.0 as u32, dst.0 as u32);
                // Re-check liveness at delivery time: a node that crashed
                // while the message was in flight loses it.
                if !self.network.is_up(dst) {
                    self.messages_lost += 1;
                    self.tracer.record(
                        self.now.0,
                        TraceEvent::MessageDropped {
                            src,
                            dst: dst_ix,
                            cause: DropCause::DestDown,
                            msg_id,
                            origin,
                        },
                    );
                    return;
                }
                self.messages_delivered += 1;
                if let Some(sizer) = self.payload_bytes {
                    self.bytes_delivered += sizer(payload);
                }
                self.tracer.record(
                    self.now.0,
                    TraceEvent::MessageDelivered {
                        node: dst_ix,
                        src,
                        msg_id,
                        origin,
                    },
                );
                dst
            }
            EventKind::Timer {
                node,
                token,
                origin,
            } => {
                if !self.network.is_up(node) {
                    return; // timers are silent on crashed nodes
                }
                self.tracer.record(
                    self.now.0,
                    TraceEvent::TimerFired {
                        node: node.0 as u32,
                        token,
                        origin,
                    },
                );
                node
            }
        };

        let mut ctx = Ctx {
            me: target,
            now: self.now,
            rng: &mut self.rng,
            tracer: &mut self.tracer,
            actions: std::mem::take(&mut self.actions),
        };
        let node = &mut self.nodes[target.0];
        match ev {
            EventKind::Deliver { src, payload, .. } => node.on_message(&mut ctx, src, payload),
            EventKind::Timer { token, .. } => node.on_timer(&mut ctx, token),
        }
        let mut actions = ctx.actions;

        // What the handler sends or arms descends from the last record
        // it wrote (or its dispatch record), and from a send-time drop
        // once one is written; a duplicate copy from its duplication.
        let mut origin = self.last_record();
        for action in actions.drain(..) {
            match action {
                Action::Send { dst, payload } => {
                    self.messages_sent += 1;
                    if let Some(sizer) = self.payload_bytes {
                        self.bytes_sent += sizer(&payload);
                    }
                    let msg_id = self.next_msg_id();
                    match self.network.route(target, dst, &mut self.rng) {
                        Ok(delay) => {
                            // Duplication fault: the network sometimes emits
                            // a second copy of a routed message. The copy
                            // reuses the original's delay (no extra delay
                            // draw keeps rng parity with duplication-free
                            // runs), gets its own msg_id, and its delivery
                            // names the message_duplicated record. The gate
                            // on p > 0 means healthy runs draw nothing.
                            let dup = self.network.duplication_probability();
                            let dup_payload =
                                (dup > 0.0 && self.rng.next_f64() < dup).then(|| payload.clone());
                            let deliver = EventKind::Deliver {
                                src: target,
                                dst,
                                payload,
                                msg_id,
                                origin,
                            };
                            self.schedule(delay, deliver);
                            if let Some(copy) = dup_payload {
                                self.messages_duplicated += 1;
                                let dup_id = self.next_msg_id();
                                self.tracer.record(
                                    self.now.0,
                                    TraceEvent::MessageDuplicated {
                                        src: target.0 as u32,
                                        dst: dst.0 as u32,
                                        msg_id: dup_id,
                                        orig_msg_id: msg_id,
                                    },
                                );
                                let deliver = EventKind::Deliver {
                                    src: target,
                                    dst,
                                    payload: copy,
                                    msg_id: dup_id,
                                    origin: self.last_record(),
                                };
                                self.schedule(delay, deliver);
                            }
                        }
                        Err(cause) => {
                            self.messages_lost += 1;
                            self.tracer.record(
                                self.now.0,
                                TraceEvent::MessageDropped {
                                    src: target.0 as u32,
                                    dst: dst.0 as u32,
                                    cause,
                                    msg_id,
                                    origin: Origin::NONE,
                                },
                            );
                            origin = self.last_record();
                        }
                    }
                }
                Action::Timer { delay, token } => {
                    let timer = EventKind::Timer {
                        node: target,
                        token,
                        origin,
                    };
                    self.schedule(delay, timer);
                }
            }
        }
        self.actions = actions;
    }

    /// Runs until virtual time `t` (inclusive of events at `t`); the clock
    /// ends at exactly `t` even if the queue empties earlier.
    pub fn run_until(&mut self, t: SimTime) {
        while self.step_by(t) {}
        self.now = t;
    }

    /// Runs until no events or faults remain, or `max_events` is hit.
    /// Returns `true` if the system quiesced.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> bool {
        let mut budget = max_events;
        while budget > 0 {
            if !self.step() {
                return true;
            }
            budget -= 1;
        }
        self.queue.is_empty() && self.schedule.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Partition;

    /// Echo node: replies to every message; counts receipts.
    struct Echo {
        received: u32,
        reply_to: Option<NodeId>,
    }

    impl Node<u32> for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, from: NodeId, msg: u32) {
            self.received += 1;
            if let Some(peer) = self.reply_to {
                if msg > 0 {
                    ctx.send(peer, msg - 1);
                }
            } else if msg > 0 {
                ctx.send(from, msg - 1);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_, u32>, _token: u64) {
            self.received += 100;
        }
    }

    fn two_echoes() -> World<u32, Echo> {
        World::new(
            vec![
                Echo {
                    received: 0,
                    reply_to: Some(NodeId(1)),
                },
                Echo {
                    received: 0,
                    reply_to: Some(NodeId(0)),
                },
            ],
            NetworkConfig::default(),
            7,
        )
    }

    fn accounting_balances<P: Clone, N: Node<P>>(w: &World<P, N>) -> bool {
        w.messages_sent() + w.messages_injected() + w.messages_duplicated()
            == w.messages_delivered() + w.messages_lost() + w.messages_in_flight()
    }

    #[test]
    fn ping_pong_runs_to_quiescence() {
        let mut w = two_echoes();
        w.send_external(NodeId(0), 10);
        assert!(w.run_to_quiescence(10_000));
        // 11 deliveries total (10, 9, ..., 0).
        assert_eq!(w.node(NodeId(0)).received + w.node(NodeId(1)).received, 11);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut w = two_echoes();
            w.send_external(NodeId(0), 50);
            w.run_to_quiescence(100_000);
            (w.now(), w.events_processed(), w.messages_sent())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn partition_stops_pong() {
        let mut w = two_echoes().with_schedule(FaultSchedule::new().at(
            SimTime::ZERO,
            Fault::Partition(Partition::groups(vec![vec![NodeId(0)], vec![NodeId(1)]])),
        ));
        w.send_external(NodeId(0), 10);
        w.run_to_quiescence(10_000);
        // Node 0 gets the external message; its reply is dropped.
        assert_eq!(w.node(NodeId(0)).received, 1);
        assert_eq!(w.node(NodeId(1)).received, 0);
        assert_eq!(w.messages_lost(), 1);
    }

    #[test]
    fn crash_mid_flight_loses_message() {
        // Fixed delay 5; crash the receiver at time 2 (message in flight).
        let mut w = World::new(
            vec![
                Echo {
                    received: 0,
                    reply_to: Some(NodeId(1)),
                },
                Echo {
                    received: 0,
                    reply_to: Some(NodeId(0)),
                },
            ],
            NetworkConfig::new(5, 5, 0.0),
            1,
        )
        .with_schedule(FaultSchedule::new().at(SimTime(2), Fault::Crash(NodeId(1))));
        w.send_external(NodeId(0), 3);
        w.run_to_quiescence(1000);
        assert_eq!(w.node(NodeId(1)).received, 0);
        assert_eq!(w.messages_lost(), 1);
    }

    #[test]
    fn recovery_allows_later_traffic() {
        let mut w = two_echoes().with_schedule(FaultSchedule::new().down_between(
            NodeId(1),
            SimTime(0),
            SimTime(50),
        ));
        // Kick at t=0 (lost), run past recovery, kick again.
        w.send_external(NodeId(0), 0);
        w.run_until(SimTime(60));
        w.send_external(NodeId(1), 0);
        w.run_to_quiescence(1000);
        assert_eq!(w.node(NodeId(1)).received, 1);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl Node<()> for TimerNode {
            fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {
                ctx.set_timer(30, 3);
                ctx.set_timer(10, 1);
                ctx.set_timer(20, 2);
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_, ()>, token: u64) {
                self.fired.push(token);
            }
        }
        let mut w = World::new(
            vec![TimerNode { fired: vec![] }],
            NetworkConfig::default(),
            0,
        );
        w.send_external(NodeId(0), ());
        w.run_to_quiescence(100);
        assert_eq!(w.node(NodeId(0)).fired, vec![1, 2, 3]);
    }

    #[test]
    fn far_timers_ties_and_a_clock_set_back_keep_time_then_arrival_order() {
        /// Logs `(now, what)` for every message and timer it handles.
        struct Log(Vec<(u64, u64)>);
        impl Node<u64> for Log {
            fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, msg: u64) {
                self.0.push((ctx.now().0, msg));
                if msg == 0 {
                    // Past the queue's window, a tie across it, and a
                    // tie inside it.
                    for (delay, token) in [(1_000, 1), (3, 2), (300, 3), (1_000, 4), (3, 5)] {
                        ctx.set_timer(delay, token);
                    }
                }
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, token: u64) {
                self.0.push((ctx.now().0, token));
            }
        }
        let mut w = World::new(vec![Log(Vec::new())], NetworkConfig::default(), 0);
        w.send_external(NodeId(0), 0);
        w.run_until(SimTime(10));
        // A fault due in the past fires next and sets the clock back to
        // it, and what is injected then lands ahead of the queued timers.
        w.set_schedule(FaultSchedule::new().at(SimTime(1), Fault::Heal));
        assert!(w.step());
        assert_eq!(w.now(), SimTime(1));
        w.send_external(NodeId(0), 9);
        w.run_to_quiescence(100);
        let log = [
            (0, 0),
            (3, 2),
            (3, 5),
            (1, 9),
            (300, 3),
            (1_000, 1),
            (1_000, 4),
        ];
        assert_eq!(w.node(NodeId(0)).0, log);
    }

    #[test]
    fn run_until_advances_clock_exactly() {
        let mut w = two_echoes();
        w.run_until(SimTime(123));
        assert_eq!(w.now(), SimTime(123));
    }

    #[test]
    fn quiescence_budget_respected() {
        let mut w = two_echoes();
        // An endless ping-pong (every message spawns a reply with count
        // staying positive): force with a large count and a small budget.
        w.send_external(NodeId(0), u32::MAX);
        assert!(!w.run_to_quiescence(10));
    }

    #[test]
    fn message_accounting_balances_through_faults() {
        let mut w = two_echoes().with_schedule(
            FaultSchedule::new()
                .at(
                    SimTime(5),
                    Fault::Partition(Partition::groups(vec![vec![NodeId(0)], vec![NodeId(1)]])),
                )
                .at(SimTime(20), Fault::Heal)
                .at(SimTime(30), Fault::Crash(NodeId(1)))
                .at(SimTime(60), Fault::Recover(NodeId(1))),
        );
        w.send_external(NodeId(0), 40);
        assert!(accounting_balances(&w), "after injection");
        while w.step() {
            assert!(
                accounting_balances(&w),
                "at t={} sent={} injected={} delivered={} lost={} in_flight={}",
                w.now().0,
                w.messages_sent(),
                w.messages_injected(),
                w.messages_delivered(),
                w.messages_lost(),
                w.messages_in_flight()
            );
        }
        assert_eq!(w.messages_in_flight(), 0);
        assert_eq!(w.messages_injected(), 1);
        // External injections are not network sends.
        assert_eq!(
            w.messages_sent() + 1,
            w.messages_delivered() + w.messages_lost()
        );
    }

    #[test]
    fn payload_sizer_counts_sent_and_delivered_bytes() {
        // Without a sizer, byte counters stay 0.
        let mut w = two_echoes();
        w.send_external(NodeId(0), 3);
        w.run_to_quiescence(1000);
        assert_eq!(w.bytes_sent(), 0);
        assert_eq!(w.bytes_delivered(), 0);

        // With a flat 10-byte model: the injected kick is delivered-only;
        // every node send is counted on both sides (lossless network).
        let mut w = two_echoes().with_payload_sizer(|_| 10);
        w.send_external(NodeId(0), 3);
        w.run_to_quiescence(1000);
        assert_eq!(w.bytes_sent(), 10 * w.messages_sent());
        assert_eq!(w.bytes_delivered(), 10 * (w.messages_sent() + 1));

        // Sends into a partition still count toward bytes_sent (they
        // mirror messages_sent), but never toward bytes_delivered.
        let mut w = two_echoes()
            .with_payload_sizer(|_| 7)
            .with_schedule(FaultSchedule::new().at(
                SimTime::ZERO,
                Fault::Partition(Partition::groups(vec![vec![NodeId(0)], vec![NodeId(1)]])),
            ));
        w.send_external(NodeId(0), 3);
        w.run_to_quiescence(1000);
        assert_eq!(w.messages_lost(), 1);
        assert_eq!(w.bytes_sent(), 7);
        assert_eq!(w.bytes_delivered(), 7, "only the injected kick landed");
    }

    #[test]
    fn injected_messages_counted_separately_from_sends() {
        let mut w = two_echoes();
        w.send_external(NodeId(0), 0); // reply chain of length 0
        w.run_to_quiescence(100);
        assert_eq!(w.messages_injected(), 1);
        assert_eq!(w.messages_sent(), 0);
        assert_eq!(w.messages_delivered(), 1);
        assert_eq!(w.messages_lost(), 0);
    }

    #[test]
    fn trace_records_faults_sends_and_drops_in_time_order() {
        use relax_trace::EventKind as TE;
        let mut w = two_echoes().with_trace(4096).with_schedule(
            FaultSchedule::new()
                .at(
                    SimTime(0),
                    Fault::Partition(Partition::groups(vec![vec![NodeId(0)], vec![NodeId(1)]])),
                )
                .at(SimTime(50), Fault::Heal),
        );
        w.send_external(NodeId(0), 10);
        w.run_to_quiescence(10_000);
        let tr = w.tracer();
        assert!(!tr.is_empty());
        // Times are non-decreasing and seq strictly increasing.
        let evs: Vec<_> = tr.events().collect();
        for pair in evs.windows(2) {
            assert!(pair[0].time <= pair[1].time);
            assert!(pair[0].seq < pair[1].seq);
        }
        // The partition, the drop it caused, and the heal all appear.
        assert!(evs
            .iter()
            .any(|e| matches!(&e.kind, TE::PartitionSet { groups } if groups[..] == [vec![0u32], vec![1u32]])));
        assert!(evs.iter().any(|e| matches!(
            &e.kind,
            TE::MessageDropped {
                cause: DropCause::Partitioned,
                ..
            }
        )));
        assert!(evs.iter().any(|e| matches!(e.kind, TE::PartitionHealed)));
        // The injected kick is delivered from node 0 to itself, with no
        // origin.
        assert!(evs.iter().any(|e| matches!(
            e.kind,
            TE::MessageDelivered {
                node: 0,
                src: 0,
                origin: Origin::NONE,
                ..
            }
        )));
    }

    #[test]
    fn sends_and_timers_name_the_last_record_their_sender_wrote() {
        use relax_trace::EventKind as TE;
        /// Node 0, kicked from outside, records one event, sends to 2,
        /// sends to 1 over a blocked link, and arms a timer.
        struct Fan;
        impl Node<()> for Fan {
            fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, from: NodeId, _msg: ()) {
                if from == ctx.me() {
                    ctx.trace(|| TE::NodeRecovered { node: 0 });
                    ctx.send(NodeId(2), ());
                    ctx.send(NodeId(1), ());
                    ctx.set_timer(10, 7);
                }
            }
        }
        let mut w = World::new(vec![Fan, Fan, Fan], NetworkConfig::new(5, 5, 0.0), 3)
            .with_trace(64)
            .with_schedule(
                FaultSchedule::new().at(SimTime(0), Fault::BlockLink(NodeId(0), NodeId(1))),
            );
        w.send_external(NodeId(0), ());
        w.run_to_quiescence(100);
        let kinds: Vec<TE> = w.tracer().events().map(|e| e.kind).collect();
        let o = Origin::at;
        assert_eq!(
            kinds,
            [
                TE::LinkBlocked { src: 0, dst: 1 },
                TE::MessageDelivered {
                    node: 0,
                    src: 0,
                    msg_id: 0,
                    origin: Origin::NONE,
                },
                TE::NodeRecovered { node: 0 },
                // The drop is itself node 0's record: no origin.
                TE::MessageDropped {
                    src: 0,
                    dst: 1,
                    cause: DropCause::LinkBlocked,
                    msg_id: 2,
                    origin: Origin::NONE,
                },
                TE::MessageDelivered {
                    node: 2,
                    src: 0,
                    msg_id: 1,
                    origin: o(2),
                },
                TE::TimerFired {
                    node: 0,
                    token: 7,
                    origin: o(3),
                },
            ]
        );
    }

    #[test]
    fn disabled_trace_stays_empty() {
        let mut w = two_echoes();
        w.send_external(NodeId(0), 10);
        w.run_to_quiescence(10_000);
        assert!(!w.tracer().is_enabled());
        assert_eq!(w.tracer().len(), 0);
    }

    #[test]
    fn crash_during_partition_and_recovery_under_partition() {
        // Node 1 crashes *while* partitioned away from node 0. Recovery
        // alone must not restore connectivity — the partition still
        // stands — and messages must be attributed to the dominant
        // cause (crash checks precede partition checks in routing).
        let mut w = two_echoes().with_trace(256).with_schedule(
            FaultSchedule::new()
                .at(
                    SimTime(10),
                    Fault::Partition(Partition::groups(vec![vec![NodeId(0)], vec![NodeId(1)]])),
                )
                .at(SimTime(20), Fault::Crash(NodeId(1)))
                .at(SimTime(30), Fault::Recover(NodeId(1))),
        );
        w.run_until(SimTime(25));
        // Partition + crashed: dropped as DestDown (crash dominates).
        w.send_external(NodeId(0), 1);
        w.run_until(SimTime(35));
        // Recovered but still partitioned: dropped as Partitioned.
        let before = w.messages_lost();
        w.send_external(NodeId(0), 1);
        w.run_to_quiescence(10_000);
        assert_eq!(w.messages_lost(), before + 1);
        assert_eq!(w.node(NodeId(1)).received, 0, "partition still stands");
        use relax_trace::{DropCause, EventKind as TE};
        let causes: Vec<DropCause> = w
            .tracer()
            .events()
            .filter_map(|e| match e.kind {
                TE::MessageDropped { cause, .. } => Some(cause),
                _ => None,
            })
            .collect();
        assert_eq!(causes, vec![DropCause::DestDown, DropCause::Partitioned]);
        assert!(accounting_balances(&w));
    }

    #[test]
    fn recover_after_heal_restores_service() {
        // Crash inside a partition window, heal first, recover second:
        // only after *both* lift does the ping-pong resume.
        let mut w = two_echoes().with_schedule(
            FaultSchedule::new()
                .at(
                    SimTime(0),
                    Fault::Partition(Partition::groups(vec![vec![NodeId(0)], vec![NodeId(1)]])),
                )
                .at(SimTime(5), Fault::Crash(NodeId(1)))
                .at(SimTime(50), Fault::Heal)
                .at(SimTime(100), Fault::Recover(NodeId(1))),
        );
        // Healed but node 1 still down: message dropped.
        w.run_until(SimTime(60));
        w.send_external(NodeId(0), 3);
        w.run_until(SimTime(90));
        assert_eq!(w.node(NodeId(1)).received, 0, "still crashed after heal");
        // Fully restored: the volley completes.
        w.run_until(SimTime(110));
        w.send_external(NodeId(0), 3);
        w.run_to_quiescence(10_000);
        // The full volley 3→2→1→0 lands (4 receipts) on top of the one
        // absorbed during the outage.
        assert_eq!(w.node(NodeId(0)).received + w.node(NodeId(1)).received, 5);
        assert!(accounting_balances(&w));
    }

    #[test]
    fn duplication_creates_traced_copies_and_accounting_balances() {
        use relax_trace::EventKind as TE;
        let mut w = two_echoes()
            .with_trace(4096)
            .with_schedule(FaultSchedule::new().at(SimTime(0), Fault::SetDuplication(1.0)));
        w.send_external(NodeId(0), 5);
        w.run_to_quiescence(10_000);
        assert!(w.messages_duplicated() > 0, "p=1 duplicates every send");
        assert!(accounting_balances(&w));
        // Every duplication is traced, with its own msg_id, and the copy
        // is actually delivered (extra receipts beyond the volley).
        let evs: Vec<_> = w.tracer().events().collect();
        let dup_ids: Vec<u32> = evs
            .iter()
            .filter_map(|e| match e.kind {
                TE::MessageDuplicated { msg_id, .. } => Some(msg_id),
                _ => None,
            })
            .collect();
        assert_eq!(dup_ids.len() as u64, w.messages_duplicated());
        for id in &dup_ids {
            assert!(
                evs.iter().any(
                    |e| matches!(e.kind, TE::MessageDelivered { msg_id, .. } if msg_id == *id)
                ),
                "copy {id} was delivered"
            );
        }
        assert!(evs.iter().any(
            |e| matches!(e.kind, TE::DuplicationRateSet { probability } if probability == 1.0)
        ));
        let receipts = w.node(NodeId(0)).received + w.node(NodeId(1)).received;
        assert!(receipts > 6, "duplicates land as extra receipts");
    }

    #[test]
    fn zero_duplication_probability_changes_nothing() {
        // Setting p=0 must leave runs bit-identical to never touching
        // duplication at all (the rng draw is gated on p > 0).
        let run = |with_fault: bool| {
            let mut w = two_echoes();
            if with_fault {
                w.set_schedule(FaultSchedule::new().at(SimTime(0), Fault::SetDuplication(0.0)));
            }
            w.send_external(NodeId(0), 50);
            w.run_to_quiescence(100_000);
            (w.now(), w.events_processed(), w.messages_sent())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn gray_failure_slows_but_never_drops() {
        use relax_trace::EventKind as TE;
        // Fixed delay 5; node 1 gray with multiplier 10 for a window.
        let make = |sched: FaultSchedule| {
            let mut w = World::new(
                vec![
                    Echo {
                        received: 0,
                        reply_to: Some(NodeId(1)),
                    },
                    Echo {
                        received: 0,
                        reply_to: Some(NodeId(0)),
                    },
                ],
                NetworkConfig::new(5, 5, 0.0),
                1,
            )
            .with_trace(1024)
            .with_schedule(sched);
            w.send_external(NodeId(0), 3);
            w.run_to_quiescence(10_000);
            w
        };
        let healthy = make(FaultSchedule::new());
        let gray = make(
            FaultSchedule::new()
                .at(SimTime(0), Fault::GrayDegrade(NodeId(1), 10))
                .at(SimTime(200), Fault::GrayRestore(NodeId(1))),
        );
        // Same traffic either way — gray drops nothing...
        assert_eq!(gray.messages_lost(), 0);
        assert_eq!(
            gray.node(NodeId(0)).received + gray.node(NodeId(1)).received,
            healthy.node(NodeId(0)).received + healthy.node(NodeId(1)).received,
        );
        // ...but the volley takes far longer while node 1 crawls.
        assert!(
            gray.now().0 > healthy.now().0 * 5,
            "gray {} vs healthy {}",
            gray.now().0,
            healthy.now().0
        );
        let evs: Vec<_> = gray.tracer().events().collect();
        assert!(evs.iter().any(|e| matches!(
            e.kind,
            TE::GrayDegraded {
                node: 1,
                multiplier: 10
            }
        )));
        assert!(evs
            .iter()
            .any(|e| matches!(e.kind, TE::GrayRestored { node: 1 })));
    }

    #[test]
    fn blocked_link_drops_one_direction_only() {
        use relax_trace::EventKind as TE;
        let mut w = two_echoes().with_trace(1024).with_schedule(
            FaultSchedule::new().at(SimTime(0), Fault::BlockLink(NodeId(0), NodeId(1))),
        );
        // Node 0's reply toward node 1 dies on the blocked direction.
        w.send_external(NodeId(0), 3);
        w.run_to_quiescence(10_000);
        assert_eq!(w.node(NodeId(1)).received, 0);
        assert_eq!(w.messages_lost(), 1);
        // The reverse direction still works: node 1's reply reaches 0.
        let received_0 = w.node(NodeId(0)).received;
        w.send_external(NodeId(1), 1);
        w.run_to_quiescence(10_000);
        assert_eq!(w.node(NodeId(1)).received, 1);
        assert_eq!(w.node(NodeId(0)).received, received_0 + 1);
        let evs: Vec<_> = w.tracer().events().collect();
        assert!(evs
            .iter()
            .any(|e| matches!(e.kind, TE::LinkBlocked { src: 0, dst: 1 })));
        assert!(evs.iter().any(|e| matches!(
            e.kind,
            TE::MessageDropped {
                cause: DropCause::LinkBlocked,
                src: 0,
                dst: 1,
                ..
            }
        )));
        assert!(accounting_balances(&w));
    }

    #[test]
    fn next_event_time_and_advance_clock() {
        let mut w = two_echoes();
        assert_eq!(w.next_event_time(), None);
        w.send_external(NodeId(0), 1);
        assert_eq!(w.next_event_time(), Some(SimTime::ZERO));
        w.advance_clock_to(SimTime(0)); // no-op
        w.run_to_quiescence(100);
        w.advance_clock_to(SimTime(500));
        assert_eq!(w.now(), SimTime(500));
        w.advance_clock_to(SimTime(10)); // never goes backwards
        assert_eq!(w.now(), SimTime(500));
    }
}
