//! Degradation root-cause analysis and trace reports.
//!
//! The paper frames each lattice level as a cost the environment forces
//! on the object; this module closes the loop operationally: given a
//! trace with witnessed [`LevelTransition`]s, it answers *why we
//! degraded*. Starting from a transition's witness `op_end`, it walks
//! the [`HbGraph`] backwards and collects every `message_dropped` in the
//! witness's causal past, then reduces those drops to their
//! fault-attribution causes — the **minimal cut of fault events**
//! (partitions, crashes, loss-rate changes, blocked links, gray
//! degradations, duplication settings) that causally explains the
//! witnessed behavior. Faults that occurred but did not causally precede
//! the witness (e.g. a crash after the duplicate dispatch) are excluded
//! by construction. Gray failures drop nothing and are collected
//! directly from the causal past; duplication faults are reached through
//! the `message_duplicated` events they spawned.
//!
//! [`TraceAnalysis`] bundles the DAG, the per-op [`Span`]s, the
//! root-cause cuts, and an aggregated [`Registry`]; `trace_analyze` in
//! `relax-bench` is a thin CLI over it.

use crate::causality::{aggregate_spans, HbGraph, Span};
use crate::codec::ParsedTrace;
use crate::event::{Event, EventKind};
use crate::metrics::Registry;
use crate::monitor::LevelTransition;
use std::fmt::Write as _;

/// Why one witnessed level transition happened: the fault events in the
/// witness's causal past that explain its dropped messages.
#[derive(Debug, Clone)]
pub struct RootCause {
    /// Event index of the `level_transition` in the trace.
    pub transition_ix: usize,
    /// The transition itself.
    pub transition: LevelTransition,
    /// Event index of the witness `op_end`, when the trace window still
    /// holds it.
    pub witness_ix: Option<usize>,
    /// Event indices of `message_dropped` events in the witness's causal
    /// past (ascending).
    pub dropped: Vec<usize>,
    /// The minimal fault cut: deduplicated event indices of the
    /// `partition_set` / `node_crashed` / `loss_rate_set` /
    /// `link_blocked` / `gray_degraded` / `duplication_rate_set` events
    /// the witnessed behavior is attributed to (ascending).
    pub fault_cut: Vec<usize>,
}

/// A fully analyzed trace: the happens-before DAG, per-operation spans,
/// root causes for every witnessed transition, and aggregated metrics.
#[derive(Debug, Clone)]
pub struct TraceAnalysis {
    graph: HbGraph,
    spans: Vec<Span>,
    root_causes: Vec<RootCause>,
}

impl TraceAnalysis {
    /// Analyzes a typed event stream (must be in sequence order).
    pub fn from_events(events: Vec<Event>) -> Self {
        let graph = HbGraph::build(events);
        let spans = graph.spans();
        let root_causes = find_root_causes(&graph);
        TraceAnalysis {
            graph,
            spans,
            root_causes,
        }
    }

    /// Analyzes a re-ingested trace (see [`crate::codec::read_trace`]).
    pub fn from_trace(parsed: ParsedTrace) -> Self {
        Self::from_events(parsed.events)
    }

    /// The happens-before DAG.
    pub fn graph(&self) -> &HbGraph {
        &self.graph
    }

    /// Per-operation spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One root cause per witnessed level transition, in trace order.
    pub fn root_causes(&self) -> &[RootCause] {
        &self.root_causes
    }

    /// Aggregates the spans into a fresh registry (`ops` availability
    /// counter, `op_latency`, and the four `phase_*` histograms).
    pub fn registry(&self) -> Registry {
        let mut reg = Registry::new();
        aggregate_spans(&self.spans, &mut reg);
        reg
    }

    /// The human-readable report: per-op latency attribution summary and
    /// one "why we degraded" section per witnessed transition.
    pub fn report(&self) -> String {
        let mut out = String::new();
        let events = self.graph.events();
        let _ = writeln!(
            out,
            "trace: {} events, {} ops, {} level transition(s)",
            events.len(),
            self.spans.len(),
            self.root_causes.len()
        );
        let mut reg = self.registry();
        let _ = writeln!(out, "\nper-phase latency attribution:");
        out.push_str(&indent(&reg.summary()));
        for rc in &self.root_causes {
            out.push('\n');
            out.push_str(&self.render_root_cause(rc));
        }
        out
    }

    fn render_root_cause(&self, rc: &RootCause) -> String {
        let events = self.graph.events();
        let mut out = String::new();
        let t = &events[rc.transition_ix];
        let now = rc.transition.now.as_deref().unwrap_or("(none)");
        let _ = writeln!(
            out,
            "why we degraded: left [{}] -> now {} at t={}",
            rc.transition.left.join(", "),
            now,
            t.time
        );
        match rc.witness_ix {
            Some(w) => {
                let we = &events[w];
                let latency = match &we.kind {
                    EventKind::OpEnd { latency, .. } => *latency,
                    _ => 0,
                };
                let _ = writeln!(
                    out,
                    "  witness: {} (op #{}, completed at t={}, latency {})",
                    rc.transition.witness, rc.transition.op_index, we.time, latency
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "  witness: {} (op #{}, evicted from the trace window)",
                    rc.transition.witness, rc.transition.op_index
                );
            }
        }
        let _ = writeln!(
            out,
            "  dropped messages in the causal past: {}",
            rc.dropped.len()
        );
        if rc.fault_cut.is_empty() {
            let _ = writeln!(out, "  causal fault cut: (empty)");
        } else {
            let _ = writeln!(out, "  causal fault cut ({} events):", rc.fault_cut.len());
            for &f in &rc.fault_cut {
                let e = &events[f];
                let _ = writeln!(out, "    t={:<6} {}", e.time, describe(&e.kind));
            }
        }
        out
    }
}

/// One line of plain English per fault kind a causal fault cut holds
/// (used by the degradation report); any other kind renders as `Debug`.
pub fn describe(kind: &EventKind) -> String {
    match kind {
        EventKind::PartitionSet { groups } => {
            let rendered: Vec<String> = groups
                .iter()
                .map(|g| {
                    let ids: Vec<String> = g.iter().map(u32::to_string).collect();
                    format!("{{{}}}", ids.join(","))
                })
                .collect();
            format!("partition set: {}", rendered.join(" | "))
        }
        EventKind::NodeCrashed { node } => format!("node {node} crashed"),
        EventKind::LossRateSet { probability } => {
            format!("loss rate set to {probability}")
        }
        EventKind::GrayDegraded { node, multiplier } => {
            format!("node {node} gray-degraded ({multiplier}x slower)")
        }
        EventKind::LinkBlocked { src, dst } => format!("link {src}->{dst} blocked"),
        EventKind::DuplicationRateSet { probability } => {
            format!("duplication rate set to {probability}")
        }
        other => format!("{other:?}"),
    }
}

/// Walks every `level_transition` in the trace back to its fault cut.
fn find_root_causes(graph: &HbGraph) -> Vec<RootCause> {
    let events = graph.events();
    let mut out = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let EventKind::LevelTransition(t) = &e.kind else {
            continue;
        };
        let witness_ix = graph.witness_op_end(t.op_index);
        let past = graph.causal_past(i);
        let mut dropped = Vec::new();
        let mut fault_cut = Vec::new();
        for &j in &past {
            match events[j].kind {
                EventKind::MessageDropped { .. } => {
                    dropped.push(j);
                    // The drop's fault attribution is one of its immediate
                    // causes; collect the environment-fault preds.
                    for &p in graph.preds(j) {
                        if matches!(
                            events[p].kind,
                            EventKind::PartitionSet { .. }
                                | EventKind::NodeCrashed { .. }
                                | EventKind::LossRateSet { .. }
                                | EventKind::LinkBlocked { .. }
                        ) {
                            fault_cut.push(p);
                        }
                    }
                }
                // Gray failures drop nothing — the degradation *is* the
                // fault, reached through the send edges it slowed.
                EventKind::GrayDegraded { .. } => fault_cut.push(j),
                // A duplicated message in the past implicates the
                // duplication fault setting directly.
                EventKind::MessageDuplicated { .. } => {
                    for &p in graph.preds(j) {
                        if matches!(events[p].kind, EventKind::DuplicationRateSet { .. }) {
                            fault_cut.push(p);
                        }
                    }
                }
                _ => {}
            }
        }
        fault_cut.sort_unstable();
        fault_cut.dedup();
        out.push(RootCause {
            transition_ix: i,
            transition: (**t).clone(),
            witness_ix,
            dropped,
            fault_cut,
        });
    }
    out
}

fn indent(s: &str) -> String {
    let mut out = String::new();
    for line in s.lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropCause, OpLabel, OpOutcome, Origin};

    fn ev(time: u64, seq: u64, kind: EventKind) -> Event {
        Event { time, seq, kind }
    }

    fn label(s: &str) -> OpLabel {
        let mut l = OpLabel::default();
        l.push_str(s);
        l
    }

    /// A condensed flapping-partition story: op 0 completes with a drop
    /// caused by partition A; op 1 (the witness) completes with a drop
    /// caused by partition B; a crash *after* the witness causes a later
    /// drop that must stay out of the cut.
    fn flap_trace() -> Vec<Event> {
        let mut s = 0u64;
        let mut seq = || {
            let v = s;
            s += 1;
            v
        };
        let partition = |groups: Vec<Vec<u32>>| EventKind::PartitionSet {
            groups: crate::event::PartitionGroups::new(groups),
        };
        vec![
            ev(100, seq(), partition(vec![vec![9, 0], vec![1, 2]])),
            ev(
                200,
                seq(),
                EventKind::OpBegin {
                    node: 9,
                    op_id: 1,
                    op: label("Deq"),
                },
            ),
            ev(
                200,
                seq(),
                EventKind::MessageDropped {
                    src: 9,
                    dst: 1,
                    cause: DropCause::Partitioned,
                    msg_id: 0,
                    origin: Origin::NONE,
                },
            ),
            ev(
                210,
                seq(),
                EventKind::OpEnd {
                    node: 9,
                    op_id: 1,
                    outcome: OpOutcome::Completed,
                    latency: 10,
                },
            ),
            ev(300, seq(), partition(vec![vec![9, 1], vec![0, 2]])),
            ev(
                400,
                seq(),
                EventKind::OpBegin {
                    node: 9,
                    op_id: 2,
                    op: label("Deq"),
                },
            ),
            ev(
                400,
                seq(),
                EventKind::MessageDropped {
                    src: 9,
                    dst: 0,
                    cause: DropCause::Partitioned,
                    msg_id: 1,
                    origin: Origin::NONE,
                },
            ),
            ev(
                410,
                seq(),
                EventKind::OpEnd {
                    node: 9,
                    op_id: 2,
                    outcome: OpOutcome::Completed,
                    latency: 10,
                },
            ),
            ev(
                410,
                seq(),
                EventKind::LevelTransition(Box::new(LevelTransition {
                    op_index: 1,
                    left: vec!["PQ".into(), "OPQ".into()],
                    now: Some("MPQ".into()),
                    witness: "Deq(5)".into(),
                })),
            ),
            // After the witness: a crash and a drop it causes. Causally
            // unrelated to the transition; must not appear in the cut.
            ev(600, seq(), EventKind::NodeCrashed { node: 1 }),
            ev(
                610,
                seq(),
                EventKind::MessageDropped {
                    src: 9,
                    dst: 1,
                    cause: DropCause::DestDown,
                    msg_id: 2,
                    origin: Origin::NONE,
                },
            ),
        ]
    }

    #[test]
    fn fault_cut_is_the_flapping_partitions_and_excludes_the_later_crash() {
        let analysis = TraceAnalysis::from_events(flap_trace());
        assert_eq!(analysis.root_causes().len(), 1);
        let rc = &analysis.root_causes()[0];
        assert_eq!(rc.witness_ix, Some(7));
        assert_eq!(rc.dropped, vec![2, 6], "both partitioned drops");
        // The cut is exactly the two partition_set events (ix 0 and 4).
        assert_eq!(rc.fault_cut, vec![0, 4]);
        let events = analysis.graph().events();
        assert!(matches!(
            events[rc.fault_cut[0]].kind,
            EventKind::PartitionSet { .. }
        ));
        assert!(matches!(
            events[rc.fault_cut[1]].kind,
            EventKind::PartitionSet { .. }
        ));
    }

    #[test]
    fn report_names_witness_and_faults() {
        let analysis = TraceAnalysis::from_events(flap_trace());
        let report = analysis.report();
        assert!(report.contains("why we degraded"), "{report}");
        assert!(report.contains("left [PQ, OPQ] -> now MPQ"), "{report}");
        assert!(report.contains("witness: Deq(5)"), "{report}");
        assert!(report.contains("partition set: {9,0} | {1,2}"), "{report}");
        assert!(report.contains("partition set: {9,1} | {0,2}"), "{report}");
        assert!(!report.contains("crashed"), "no crash in the cut: {report}");
    }

    #[test]
    fn transitions_with_no_drops_have_empty_cuts() {
        // A concurrency-caused degradation (no faults at all): the cut
        // is empty and the report says so instead of inventing a cause.
        let events = vec![
            ev(
                10,
                0,
                EventKind::OpEnd {
                    node: 9,
                    op_id: 1,
                    outcome: OpOutcome::Completed,
                    latency: 5,
                },
            ),
            ev(
                10,
                1,
                EventKind::LevelTransition(Box::new(LevelTransition {
                    op_index: 0,
                    left: vec!["PQ".into()],
                    now: Some("MPQ".into()),
                    witness: "Deq(5)".into(),
                })),
            ),
        ];
        let analysis = TraceAnalysis::from_events(events);
        let rc = &analysis.root_causes()[0];
        assert!(rc.fault_cut.is_empty());
        assert!(rc.dropped.is_empty());
        assert!(analysis.report().contains("causal fault cut: (empty)"));
    }

    #[test]
    fn gray_failure_appears_in_the_cut_without_any_drops() {
        let events = vec![
            ev(
                10,
                0,
                EventKind::GrayDegraded {
                    node: 0,
                    multiplier: 50,
                },
            ),
            // Client 9 sends to the gray replica 0 after its op_begin;
            // the gray edge reaches its op_end through program order.
            ev(
                20,
                1,
                EventKind::OpBegin {
                    node: 9,
                    op_id: 1,
                    op: label("Deq"),
                },
            ),
            ev(
                520,
                2,
                EventKind::MessageDelivered {
                    node: 0,
                    src: 9,
                    msg_id: 0,
                    origin: Origin::at(1),
                },
            ),
            ev(
                520,
                3,
                EventKind::OpEnd {
                    node: 9,
                    op_id: 1,
                    outcome: OpOutcome::Completed,
                    latency: 500,
                },
            ),
            ev(
                520,
                4,
                EventKind::LevelTransition(Box::new(LevelTransition {
                    op_index: 0,
                    left: vec!["PQ".into()],
                    now: Some("MPQ".into()),
                    witness: "Deq(5)".into(),
                })),
            ),
        ];
        let analysis = TraceAnalysis::from_events(events);
        let rc = &analysis.root_causes()[0];
        assert!(rc.dropped.is_empty(), "gray failures drop nothing");
        assert_eq!(rc.fault_cut, vec![0], "the gray event is the cut");
        assert!(analysis.report().contains("gray-degraded (50x slower)"));
    }

    #[test]
    fn blocked_link_and_duplication_reach_the_cut() {
        let events = vec![
            ev(0, 0, EventKind::DuplicationRateSet { probability: 0.5 }),
            ev(5, 1, EventKind::LinkBlocked { src: 9, dst: 0 }),
            // Client 9 sends 0 -> replica 1 (duplicated) and 2 -> replica
            // 0 (dropped on the blocked link) after its op_begin.
            ev(
                10,
                2,
                EventKind::OpBegin {
                    node: 9,
                    op_id: 1,
                    op: label("Deq"),
                },
            ),
            ev(
                10,
                3,
                EventKind::MessageDuplicated {
                    src: 9,
                    dst: 1,
                    msg_id: 1,
                    orig_msg_id: 0,
                },
            ),
            ev(
                10,
                4,
                EventKind::MessageDropped {
                    src: 9,
                    dst: 0,
                    cause: DropCause::LinkBlocked,
                    msg_id: 2,
                    origin: Origin::NONE,
                },
            ),
            // Replica 1 answers the copy.
            ev(
                15,
                5,
                EventKind::MessageDelivered {
                    node: 1,
                    src: 9,
                    msg_id: 1,
                    origin: Origin::at(3),
                },
            ),
            ev(
                20,
                6,
                EventKind::MessageDelivered {
                    node: 9,
                    src: 1,
                    msg_id: 3,
                    origin: Origin::at(5),
                },
            ),
            ev(
                20,
                7,
                EventKind::OpEnd {
                    node: 9,
                    op_id: 1,
                    outcome: OpOutcome::Completed,
                    latency: 10,
                },
            ),
            ev(
                20,
                8,
                EventKind::LevelTransition(Box::new(LevelTransition {
                    op_index: 0,
                    left: vec!["PQ".into()],
                    now: Some("MPQ".into()),
                    witness: "Deq(9)".into(),
                })),
            ),
        ];
        let analysis = TraceAnalysis::from_events(events);
        let rc = &analysis.root_causes()[0];
        assert_eq!(rc.dropped, vec![4], "the link-blocked drop");
        assert_eq!(
            rc.fault_cut,
            vec![0, 1],
            "duplication setting + blocked link"
        );
        let report = analysis.report();
        assert!(report.contains("link 9->0 blocked"), "{report}");
        assert!(report.contains("duplication rate set to 0.5"), "{report}");
    }

    #[test]
    fn registry_aggregates_span_phases() {
        let analysis = TraceAnalysis::from_events(flap_trace());
        let mut reg = analysis.registry();
        assert_eq!(reg.get_counter("ops").unwrap().successes(), 2);
        assert_eq!(reg.histogram("op_latency").len(), 2);
    }
}
