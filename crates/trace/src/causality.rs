//! Happens-before reconstruction over a collected trace.
//!
//! A trace is a flat, time-ordered event stream; this module rebuilds
//! the causal structure the simulator executed:
//!
//! * **program order** — events at the same node are totally ordered by
//!   their sequence numbers (each node is a sequential automaton);
//! * **deliver → origin** — a `message_delivered` (or in-flight
//!   `message_dropped`) is caused by the record its message was sent
//!   after, and a `timer_fired` by the record it was armed after (their
//!   `origin` field; see [`crate::event::Origin`]);
//! * **fault attribution** — a `message_dropped` is caused by the fault
//!   that explains it: the latest `partition_set` (cause `partitioned`),
//!   the latest `node_crashed` of the dead endpoint (`source_down`/
//!   `dest_down`), the latest `loss_rate_set` (`loss`, when one was
//!   scheduled), or the latest `link_blocked` on that directed link
//!   (`link_blocked`); a message sent to or from a gray-degraded
//!   endpoint is caused by the `gray_degraded` that was slowing it when
//!   it left, and a `message_duplicated` by its original's origin plus
//!   the `duplication_rate_set` that enabled it;
//! * **witness** — a `level_transition` is caused by the `op_end` of its
//!   witness operation (the monitor observes completed operations in
//!   completion order, so the witness is the `op_index`-th completed
//!   `op_end` of the stream).
//!
//! On top of the DAG, [`HbGraph::spans`] cuts the client timeline into
//! per-operation [`Span`]s and attributes each span's end-to-end latency
//! to phases ([`LatencyBreakdown`]): the client node is sequential, so
//! every instant between `op_begin` and `op_end` is spent waiting for —
//! and is classified by — the next client-side event. The four phase
//! components sum to the span's wall-clock width *exactly*, which
//! integration tests assert against the latency the runtime measured.

use std::collections::HashMap;

use crate::event::{DropCause, Event, EventKind, OpOutcome, Origin};
use crate::metrics::Registry;

/// The happens-before DAG over one trace: events are indices into the
/// stream (ascending sequence order), edges point from each event to its
/// immediate causes.
#[derive(Debug, Clone)]
pub struct HbGraph {
    events: Vec<Event>,
    preds: Vec<Vec<usize>>,
    locations: Vec<Option<u32>>,
    /// Indices of the completed `op_end`s, in stream order.
    completed_ends: Vec<usize>,
}

/// The node at which an event occurs, or `None` for ambient environment
/// events (partitions, loss-rate changes, monitor transitions) that
/// belong to no node's program order.
fn location(kind: &EventKind) -> Option<u32> {
    match kind {
        EventKind::MessageDelivered { node, .. } | EventKind::TimerFired { node, .. } => Some(*node),
        // An in-flight drop happens at the delivery point; a send-time
        // drop (no origin) happens at the sender, since it never left.
        EventKind::MessageDropped {
            src, dst, origin, ..
        } => Some(if origin.seq().is_some() { *dst } else { *src }),
        EventKind::NodeCrashed { node } | EventKind::NodeRecovered { node } => Some(*node),
        EventKind::GrayDegraded { node, .. } | EventKind::GrayRestored { node } => Some(*node),
        EventKind::OpBegin { node, .. }
        | EventKind::OpEnd { node, .. }
        | EventKind::QuorumAssembled { node, .. }
        | EventKind::QuorumFailed { node, .. } => Some(*node),
        EventKind::PartitionSet { .. }
        | EventKind::PartitionHealed
        | EventKind::LossRateSet { .. }
        | EventKind::LevelTransition(_)
        // Link blocks are properties of the medium, duplication happens
        // inside the network, and telemetry samples observe all nodes:
        // none of these belong to one node's program order.
        | EventKind::LinkBlocked { .. }
        | EventKind::LinkRestored { .. }
        | EventKind::DuplicationRateSet { .. }
        | EventKind::MessageDuplicated { .. }
        | EventKind::ReplicaLagSampled { .. }
        | EventKind::FrontierDivergence { .. }
        | EventKind::SloBudgetExhausted(_)
        // Profiling spans describe the engine/runtime itself, not any
        // simulated node's program order.
        | EventKind::ProfileSpanEnter { .. }
        | EventKind::ProfileSpanExit { .. }
        | EventKind::ProfileCounter { .. }
        | EventKind::ProfileGauge { .. } => None,
    }
}

impl HbGraph {
    /// Reconstructs the DAG from a trace (events must be in sequence
    /// order, as every exporter produces them).
    ///
    /// A message's gray edges are taken as of its origin, when it left.
    /// The sends a sender makes after one record form a chain in program
    /// order, so a message also inherits the gray edges of the sends
    /// before it in that chain, and the sender's next record inherits
    /// them all.
    pub fn build(events: Vec<Event>) -> Self {
        let n = events.len();
        let index_of = |origin: Origin| {
            let seq = origin.seq()?;
            events.binary_search_by_key(&seq, |e| e.seq).ok()
        };
        // Every message whose origin is in the window, as (origin index,
        // id, src, dst), in send order within each origin.
        let mut sent: Vec<(usize, u32, u32, u32)> = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::MessageDelivered {
                    node: dst,
                    src,
                    msg_id,
                    origin,
                }
                | EventKind::MessageDropped {
                    src,
                    dst,
                    msg_id,
                    origin,
                    ..
                } => Some((index_of(origin)?, msg_id, src, dst)),
                _ => None,
            })
            .collect();
        sent.sort_unstable();
        let locations: Vec<Option<u32>> = events.iter().map(|e| location(&e.kind)).collect();

        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut last_at: HashMap<u32, usize> = HashMap::new();
        let mut last_crash: HashMap<u32, usize> = HashMap::new();
        let mut last_partition: Option<usize> = None;
        let mut last_loss: Option<usize> = None;
        let mut last_gray: HashMap<u32, usize> = HashMap::new();
        let mut last_link_block: HashMap<(u32, u32), usize> = HashMap::new();
        let mut last_dup: Option<usize> = None;
        let mut completed_ends: Vec<usize> = Vec::new();
        // Per message id: its origin's index, then the gray events its
        // send chain met; per origin index: the gray events of all its
        // sends, inherited by the sender's next record.
        let mut departed: HashMap<u32, Vec<usize>> = HashMap::new();
        let mut chain_gray: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut next_sent = sent.iter().peekable();

        for i in 0..n {
            let mut gray = Vec::new();
            while let Some(&(_, msg_id, src, dst)) = next_sent.next_if(|s| s.0 == i) {
                gray.extend([src, dst].iter().filter_map(|e| last_gray.get(e)));
                departed.insert(msg_id, [&[i], &gray[..]].concat());
            }
            if !gray.is_empty() {
                chain_gray.insert(i, gray);
            }
            if let Some(loc) = locations[i] {
                if let Some(&p) = last_at.get(&loc) {
                    preds[i].push(p);
                    preds[i].extend(chain_gray.get(&p).into_iter().flatten());
                }
                last_at.insert(loc, i);
            }
            match &events[i].kind {
                EventKind::MessageDelivered { msg_id, .. } => {
                    preds[i].extend(departed.get(msg_id).into_iter().flatten());
                }
                EventKind::MessageDropped {
                    src,
                    dst,
                    cause,
                    msg_id,
                    ..
                } => {
                    preds[i].extend(departed.get(msg_id).into_iter().flatten());
                    let fault = match cause {
                        DropCause::Partitioned => last_partition,
                        DropCause::SourceDown => last_crash.get(src).copied(),
                        DropCause::DestDown => last_crash.get(dst).copied(),
                        // Background loss may come from the network config
                        // with no scheduled loss_rate_set: then no edge.
                        DropCause::Loss => last_loss,
                        DropCause::LinkBlocked => last_link_block.get(&(*src, *dst)).copied(),
                    };
                    if let Some(f) = fault {
                        preds[i].push(f);
                    }
                }
                EventKind::TimerFired { origin, .. } => {
                    preds[i].extend(index_of(*origin));
                }
                EventKind::NodeCrashed { node } => {
                    last_crash.insert(*node, i);
                }
                EventKind::PartitionSet { .. } => {
                    last_partition = Some(i);
                }
                EventKind::LossRateSet { .. } => {
                    last_loss = Some(i);
                }
                EventKind::GrayDegraded { node, .. } => {
                    last_gray.insert(*node, i);
                }
                EventKind::GrayRestored { node } => {
                    last_gray.remove(node);
                }
                EventKind::LinkBlocked { src, dst } => {
                    last_link_block.insert((*src, *dst), i);
                }
                EventKind::LinkRestored { src, dst } => {
                    last_link_block.remove(&(*src, *dst));
                }
                EventKind::DuplicationRateSet { .. } => {
                    last_dup = Some(i);
                }
                EventKind::MessageDuplicated {
                    src,
                    dst,
                    orig_msg_id,
                    ..
                } => {
                    // The copy descends from its original's departure, and
                    // the duplication fault setting explains why it exists.
                    // An original still in flight when the window ends left
                    // after its sender's last record, in the same dispatch.
                    match departed.get(orig_msg_id) {
                        Some(departure) => preds[i].extend(departure),
                        None => {
                            preds[i].extend(last_at.get(src));
                            preds[i].extend([src, dst].iter().filter_map(|e| last_gray.get(e)));
                        }
                    }
                    preds[i].extend(last_dup);
                }
                EventKind::OpEnd {
                    outcome: OpOutcome::Completed,
                    ..
                } => {
                    completed_ends.push(i);
                }
                EventKind::LevelTransition(t) => {
                    preds[i].extend(completed_ends.get(t.op_index));
                }
                _ => {}
            }
            preds[i].sort_unstable();
            preds[i].dedup();
        }

        HbGraph {
            events,
            preds,
            locations,
            completed_ends,
        }
    }

    /// The underlying events, in sequence order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The immediate causes of event `i` (ascending indices).
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// The node event `i` occurs at, if any.
    pub fn location(&self, i: usize) -> Option<u32> {
        self.locations[i]
    }

    /// Every event in the causal past of `i` (excluding `i` itself),
    /// ascending — the backward cone through program order, message, and
    /// fault-attribution edges.
    pub fn causal_past(&self, i: usize) -> Vec<usize> {
        let mut seen = vec![false; self.events.len()];
        let mut stack: Vec<usize> = self.preds[i].to_vec();
        while let Some(j) = stack.pop() {
            if seen[j] {
                continue;
            }
            seen[j] = true;
            stack.extend_from_slice(&self.preds[j]);
        }
        (0..self.events.len()).filter(|&j| seen[j]).collect()
    }

    /// The event index of the `op_index`-th completed `op_end` — the
    /// witness of a [`crate::monitor::LevelTransition`] with that index.
    /// `None` when the trace window no longer holds it.
    pub fn witness_op_end(&self, op_index: usize) -> Option<usize> {
        self.completed_ends.get(op_index).copied()
    }

    /// Cuts each client's timeline into per-operation [`Span`]s (in
    /// `op_begin` order) with critical-path latency attribution.
    pub fn spans(&self) -> Vec<Span> {
        // Partitioned drops involving a node, for stall classification.
        let partitioned_drops: Vec<(u64, u32, u32)> = self
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::MessageDropped {
                    src,
                    dst,
                    cause: DropCause::Partitioned,
                    ..
                } => Some((e.time, *src, *dst)),
                _ => None,
            })
            .collect();

        struct Open {
            begin_ix: usize,
            op_id: u32,
            label: String,
            events: Vec<usize>,
        }
        let mut open: HashMap<u32, Open> = HashMap::new();
        let mut spans = Vec::new();
        for (i, e) in self.events.iter().enumerate() {
            match &e.kind {
                EventKind::OpBegin { node, op_id, op } => {
                    open.insert(
                        *node,
                        Open {
                            begin_ix: i,
                            op_id: *op_id,
                            label: op.as_str().to_string(),
                            events: vec![i],
                        },
                    );
                }
                EventKind::OpEnd {
                    node,
                    op_id,
                    outcome,
                    latency,
                } => {
                    let Some(o) = open.get_mut(node) else {
                        continue;
                    };
                    if o.op_id != *op_id {
                        continue;
                    }
                    let o = open.remove(node).expect("just found");
                    let begin_time = self.events[o.begin_ix].time;
                    let mut events = o.events;
                    events.push(i);
                    let node_val = *node;
                    let partitioned_before = |t: u64| {
                        partitioned_drops.iter().any(|&(dt, src, dst)| {
                            (src == node_val || dst == node_val) && dt >= begin_time && dt <= t
                        })
                    };
                    let breakdown =
                        self.attribute(&events, begin_time, *outcome, &partitioned_before);
                    spans.push(Span {
                        node: node_val,
                        op_id: *op_id,
                        label: o.label,
                        outcome: *outcome,
                        begin_ix: o.begin_ix,
                        end_ix: i,
                        begin_time,
                        end_time: e.time,
                        latency: *latency,
                        events,
                        breakdown,
                    });
                }
                _ => {
                    if let Some(loc) = self.locations[i] {
                        if let Some(o) = open.get_mut(&loc) {
                            o.events.push(i);
                        }
                    }
                }
            }
        }
        spans.sort_by_key(|s| s.begin_ix);
        spans
    }

    /// Classifies each inter-event gap on the client's timeline by the
    /// event that *ends* it: a gap the client spends waiting for a
    /// delivery or quorum is network wait; a gap ended by the timeout
    /// machinery is a stall (partition stall when a partition provably
    /// dropped this client's traffic in the window, quorum-retry stall
    /// otherwise); everything else is local compute. Gap widths sum to
    /// the span's wall-clock width exactly.
    fn attribute(
        &self,
        span_events: &[usize],
        begin_time: u64,
        outcome: OpOutcome,
        partitioned_before: &dyn Fn(u64) -> bool,
    ) -> LatencyBreakdown {
        let mut b = LatencyBreakdown::default();
        let mut prev = begin_time;
        for &ix in span_events {
            let e = &self.events[ix];
            let delta = e.time.saturating_sub(prev);
            prev = e.time.max(prev);
            if delta == 0 {
                continue;
            }
            match &e.kind {
                EventKind::MessageDelivered { .. } | EventKind::QuorumAssembled { .. } => {
                    b.network_wait += delta;
                }
                EventKind::TimerFired { .. } | EventKind::QuorumFailed { .. } => {
                    if partitioned_before(e.time) {
                        b.partition_stall += delta;
                    } else {
                        b.quorum_retry_stall += delta;
                    }
                }
                EventKind::MessageDropped { cause, .. } => {
                    if matches!(cause, DropCause::Partitioned | DropCause::LinkBlocked) {
                        b.partition_stall += delta;
                    } else {
                        b.quorum_retry_stall += delta;
                    }
                }
                EventKind::OpEnd { .. } => {
                    if matches!(outcome, OpOutcome::TimedOut) {
                        if partitioned_before(e.time) {
                            b.partition_stall += delta;
                        } else {
                            b.quorum_retry_stall += delta;
                        }
                    } else {
                        b.local_compute += delta;
                    }
                }
                _ => {
                    b.local_compute += delta;
                }
            }
        }
        b
    }
}

/// One operation's latency, decomposed along the client's critical path.
/// The four components sum to `end_time - begin_time` exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Time spent waiting for message deliveries and quorum assembly.
    pub network_wait: u64,
    /// Time stalled waiting out the quorum timeout with no partition
    /// implicated (slow or insufficient responses).
    pub quorum_retry_stall: u64,
    /// Time stalled while a partition was dropping this client's traffic.
    pub partition_stall: u64,
    /// Everything else: local evaluation between waits.
    pub local_compute: u64,
}

impl LatencyBreakdown {
    /// Sum of the four components.
    pub fn total(&self) -> u64 {
        self.network_wait + self.quorum_retry_stall + self.partition_stall + self.local_compute
    }
}

/// One operation on one client, as a contiguous slice of the client's
/// timeline: its bracketing events, the events in between, and the
/// latency attribution.
#[derive(Debug, Clone)]
pub struct Span {
    /// The client node that ran the operation.
    pub node: u32,
    /// The client-local operation id (`op_begin`/`op_end` correlation).
    pub op_id: u32,
    /// The operation label (from `op_begin`).
    pub label: String,
    /// How the operation ended.
    pub outcome: OpOutcome,
    /// Index of the `op_begin` event.
    pub begin_ix: usize,
    /// Index of the `op_end` event.
    pub end_ix: usize,
    /// Sim time of `op_begin`.
    pub begin_time: u64,
    /// Sim time of `op_end`.
    pub end_time: u64,
    /// The latency the runtime itself measured (from `op_end`).
    pub latency: u64,
    /// Indices of the client-node events in `[begin_ix, end_ix]`.
    pub events: Vec<usize>,
    /// The critical-path decomposition of `end_time - begin_time`.
    pub breakdown: LatencyBreakdown,
}

impl Span {
    /// Wall-clock width of the span (equals `breakdown.total()`).
    pub fn width(&self) -> u64 {
        self.end_time - self.begin_time
    }
}

/// Aggregates spans into a [`Registry`]: the `ops` counter counts
/// availability (timeouts fail), `op_latency` collects measured
/// end-to-end latencies, and one `phase_*` histogram per
/// [`LatencyBreakdown`] component feeds per-phase p50/p95/p99.
pub fn aggregate_spans(spans: &[Span], registry: &mut Registry) {
    for s in spans {
        registry
            .counter("ops")
            .record(!matches!(s.outcome, OpOutcome::TimedOut));
        registry.histogram("op_latency").record(s.latency);
        registry
            .histogram("phase_network_wait")
            .record(s.breakdown.network_wait);
        registry
            .histogram("phase_quorum_retry_stall")
            .record(s.breakdown.quorum_retry_stall);
        registry
            .histogram("phase_partition_stall")
            .record(s.breakdown.partition_stall);
        registry
            .histogram("phase_local_compute")
            .record(s.breakdown.local_compute);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{OpLabel, QuorumPhase};
    use crate::monitor::LevelTransition;

    fn ev(time: u64, seq: u64, kind: EventKind) -> Event {
        Event { time, seq, kind }
    }

    fn label(s: &str) -> OpLabel {
        let mut l = OpLabel::default();
        l.push_str(s);
        l
    }

    /// Message `msg_id` from `src`, sent after record `origin`, lands at
    /// `node`.
    fn delivered(node: u32, src: u32, msg_id: u32, origin: u64) -> EventKind {
        EventKind::MessageDelivered {
            node,
            src,
            msg_id,
            origin: Origin::at(origin),
        }
    }

    /// A hand-built trace: client 9 runs one op against replica 0;
    /// one request is delivered, one response comes back.
    fn tiny_trace() -> Vec<Event> {
        vec![
            ev(
                0,
                0,
                EventKind::OpBegin {
                    node: 9,
                    op_id: 1,
                    op: label("Deq"),
                },
            ),
            ev(5, 1, delivered(0, 9, 0, 0)),
            ev(10, 2, delivered(9, 0, 1, 1)),
            ev(
                10,
                3,
                EventKind::QuorumAssembled {
                    node: 9,
                    op_id: 1,
                    phase: QuorumPhase::Read,
                    size: 1,
                },
            ),
            ev(
                10,
                4,
                EventKind::OpEnd {
                    node: 9,
                    op_id: 1,
                    outcome: OpOutcome::Completed,
                    latency: 10,
                },
            ),
        ]
    }

    #[test]
    fn deliveries_link_to_their_origin() {
        let g = HbGraph::build(tiny_trace());
        // Delivery at the replica (ix 1) is caused by the client's
        // op_begin (ix 0) it was sent after; the reply delivery (ix 2) by
        // the replica's delivery (ix 1).
        assert_eq!(g.preds(1), [0]);
        assert_eq!(g.preds(2), [0, 1], "program order and origin");
        assert!(g.preds(3).contains(&2), "client: deliver -> assembled");
    }

    #[test]
    fn causal_past_crosses_nodes() {
        let g = HbGraph::build(tiny_trace());
        // Everything in this trace is in the op_end's past.
        assert_eq!(g.causal_past(4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn span_breakdown_sums_exactly_and_classifies_waits() {
        let g = HbGraph::build(tiny_trace());
        let spans = g.spans();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.label, "Deq");
        assert_eq!((s.begin_time, s.end_time, s.latency), (0, 10, 10));
        // The whole span is spent waiting for the round trip.
        assert_eq!(s.breakdown.network_wait, 10);
        assert_eq!(s.breakdown.total(), s.width());
        assert_eq!(s.breakdown.total(), s.latency);
    }

    #[test]
    fn partitioned_drop_links_to_latest_partition_and_stalls() {
        let events = vec![
            ev(
                100,
                0,
                EventKind::PartitionSet {
                    groups: crate::event::PartitionGroups::new(vec![vec![9], vec![0]]),
                },
            ),
            ev(
                200,
                1,
                EventKind::OpBegin {
                    node: 9,
                    op_id: 1,
                    op: label("Deq"),
                },
            ),
            // Send-time drop: no origin, it happens at the sender.
            ev(
                200,
                2,
                EventKind::MessageDropped {
                    src: 9,
                    dst: 0,
                    cause: DropCause::Partitioned,
                    msg_id: 7,
                    origin: Origin::NONE,
                },
            ),
            // The timer was armed after the op_begin.
            ev(
                400,
                3,
                EventKind::TimerFired {
                    node: 9,
                    token: 1,
                    origin: Origin::at(1),
                },
            ),
            ev(
                400,
                4,
                EventKind::QuorumFailed {
                    node: 9,
                    op_id: 1,
                    phase: QuorumPhase::Read,
                    responses: 0,
                    needed: 1,
                },
            ),
            ev(
                400,
                5,
                EventKind::OpEnd {
                    node: 9,
                    op_id: 1,
                    outcome: OpOutcome::TimedOut,
                    latency: 200,
                },
            ),
        ];
        let g = HbGraph::build(events);
        // The drop is attributed to the partition, at the sender.
        assert_eq!(g.preds(2), [0, 1]);
        assert_eq!(g.location(2), Some(9));
        // The timer fire links to the record it was armed after.
        assert!(g.preds(3).contains(&1));
        let spans = g.spans();
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!(s.outcome, OpOutcome::TimedOut);
        // The whole wait is a partition stall, and it sums to the width.
        assert_eq!(s.breakdown.partition_stall, 200);
        assert_eq!(s.breakdown.total(), s.width());
    }

    #[test]
    fn level_transition_links_to_the_indexth_completed_op_end() {
        let op_end = |t: u64, seq: u64, op_id: u32, outcome: OpOutcome| {
            ev(
                t,
                seq,
                EventKind::OpEnd {
                    node: 9,
                    op_id,
                    outcome,
                    latency: 1,
                },
            )
        };
        let events = vec![
            op_end(10, 0, 1, OpOutcome::Completed),
            op_end(20, 1, 2, OpOutcome::TimedOut), // not observed by monitor
            op_end(30, 2, 3, OpOutcome::Completed),
            ev(
                30,
                3,
                EventKind::LevelTransition(Box::new(LevelTransition {
                    op_index: 1,
                    left: vec!["PQ".into()],
                    now: Some("MPQ".into()),
                    witness: "Deq(5)".into(),
                })),
            ),
        ];
        let g = HbGraph::build(events);
        assert_eq!(g.witness_op_end(1), Some(2));
        assert!(g.preds(3).contains(&2), "transition -> witness op_end");
        assert!(!g.preds(3).contains(&1), "timeouts are not witnesses");
    }

    #[test]
    fn gray_degradation_is_an_ancestor_of_messages_it_slows() {
        let begin = |op_id| EventKind::OpBegin {
            node: 9,
            op_id,
            op: label("Deq"),
        };
        let events = vec![
            ev(
                10,
                0,
                EventKind::GrayDegraded {
                    node: 0,
                    multiplier: 8,
                },
            ),
            // Client 9 sends 0 -> replica 1, 1 -> gray replica 0, 2 ->
            // replica 1, all after its op_begin.
            ev(20, 1, begin(1)),
            ev(30, 2, EventKind::GrayRestored { node: 0 }),
            // After restoration: message 3 to replica 0 meets no gray.
            ev(40, 3, begin(2)),
            ev(45, 4, delivered(1, 9, 0, 1)),
            ev(45, 5, delivered(0, 9, 3, 3)),
            ev(50, 6, delivered(1, 9, 2, 1)),
            // Delivered after the restore, sent while it was gray.
            ev(100, 7, delivered(0, 9, 1, 1)),
        ];
        let g = HbGraph::build(events);
        assert_eq!(g.preds(4), [1], "sent before the gray send: no edge");
        assert_eq!(g.preds(7), [0, 1, 5], "sent to the gray node: edge");
        assert_eq!(g.preds(6), [0, 1, 4], "after it in the send chain");
        assert!(!g.preds(5).contains(&0), "restored: no gray edge");
        assert!(g.preds(3).contains(&0), "the sender's next record");
    }

    #[test]
    fn link_blocked_drop_links_to_the_latest_block_of_that_direction() {
        let events = vec![
            ev(10, 0, EventKind::LinkBlocked { src: 9, dst: 0 }),
            ev(10, 1, EventKind::LinkBlocked { src: 9, dst: 1 }),
            ev(15, 2, EventKind::LinkRestored { src: 9, dst: 1 }),
            // Send-time drop on the still-blocked 9->0 direction.
            ev(
                20,
                3,
                EventKind::MessageDropped {
                    src: 9,
                    dst: 0,
                    cause: DropCause::LinkBlocked,
                    msg_id: 7,
                    origin: Origin::NONE,
                },
            ),
        ];
        let g = HbGraph::build(events);
        assert!(g.preds(3).contains(&0), "drop <- its direction's block");
        assert!(!g.preds(3).contains(&1), "other direction irrelevant");
    }

    #[test]
    fn duplicated_message_descends_from_original_origin_and_dup_setting() {
        let dup = |msg_id, orig_msg_id| EventKind::MessageDuplicated {
            src: 9,
            dst: 0,
            msg_id,
            orig_msg_id,
        };
        let events = vec![
            ev(0, 0, EventKind::DuplicationRateSet { probability: 0.5 }),
            ev(
                10,
                1,
                EventKind::OpBegin {
                    node: 9,
                    op_id: 1,
                    op: label("Deq"),
                },
            ),
            ev(10, 2, dup(1, 0)),
            // Message 3 is still in flight when the window ends.
            ev(10, 3, dup(4, 3)),
            ev(15, 4, delivered(0, 9, 0, 1)),
            // The copy names the duplication record as its origin.
            ev(15, 5, delivered(0, 9, 1, 2)),
        ];
        let g = HbGraph::build(events);
        assert_eq!(g.preds(2), [0, 1], "copy <- original's origin + setting");
        assert_eq!(g.preds(3), [0, 1], "found through the sender's last record");
        assert!(g.preds(5).contains(&2), "copy delivery <- duplication");
        assert!(g.causal_past(5).contains(&0));
    }

    #[test]
    fn aggregate_spans_fills_phase_histograms() {
        let g = HbGraph::build(tiny_trace());
        let mut reg = Registry::new();
        aggregate_spans(&g.spans(), &mut reg);
        assert_eq!(reg.histogram("op_latency").len(), 1);
        assert_eq!(reg.histogram("phase_network_wait").len(), 1);
        assert_eq!(reg.counter("ops").successes(), 1);
    }
}
