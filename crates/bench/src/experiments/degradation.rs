//! The paper's graceful-degradation story, observed live (§3.3 + §5).
//!
//! A replicated taxi queue is configured with quorums that hold `Q1`
//! (every Deq's initial quorum intersects every Enq's final quorum) but
//! deliberately violate `Q2` (Deq quorums need not intersect each
//! other). Per Theorem 4's lattice, the faithful priority queue `PQ`
//! may then degrade to `MPQ` — requests can be served *more than once*
//! — but never further.
//!
//! The scenario drives exactly that degradation with a timed fault
//! schedule, while three observability layers watch:
//!
//! * a structured sim-time trace (sends, drops, faults, quorum
//!   assembly/failure, level transitions) in a bounded ring buffer;
//! * a metrics [`Registry`] (availability counters, latency histograms);
//! * an online [`relax_trace::DegradationMonitor`] classifying the
//!   completion order against the `PQ → MPQ → OPQ → DegenPQ` lattice and
//!   emitting a witnessed transition event the moment `PQ` dies.

use relax_quorum::protocol::wire::Outcome;
use relax_quorum::relation::QueueKind;
use relax_quorum::types::{QueueInv, TaxiQueueType};
use relax_quorum::{queue_lattice_monitor, ClientConfig, QuorumSystem, VotingAssignment};
use relax_sim::{Fault, FaultSchedule, NetworkConfig, NodeId, Partition, SimTime};
use relax_trace::{Event, LevelTransition, Registry};

use relax_queues::QueueOp;

/// Everything the partition scenario produced, for printing or asserting.
#[derive(Debug)]
pub struct ScenarioReport {
    /// The full structured trace, one event per line when exported.
    pub trace_jsonl: String,
    /// The trace as typed events (sim-time order).
    pub events: Vec<Event>,
    /// Availability counters and latency histograms.
    pub registry: Registry,
    /// Level transitions the monitor emitted (expected: `PQ → MPQ`).
    pub transitions: Vec<LevelTransition>,
    /// The completion-order history the monitor classified.
    pub observed_ops: Vec<QueueOp>,
    /// The lattice level the history sits at after the run.
    pub current_level: Option<String>,
    /// Per-client outcome list (one client here).
    pub outcomes: Vec<Outcome<QueueOp>>,
}

/// The quorum assignment that *invites* duplication: `Q1` holds
/// (`enq_final + deq_initial > n`), `Q2` does not
/// (`deq_initial + deq_final <= n`).
#[must_use]
pub fn q1_only_assignment(n: usize) -> VotingAssignment<QueueKind> {
    VotingAssignment::new(n)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, n)
        .with_initial(QueueKind::Deq, 1)
        .with_final(QueueKind::Deq, 1)
}

/// Runs the partition scenario and returns every observable artifact.
///
/// Timeline (3 replicas `0..3`, one client at node `3`; client timeout
/// 200):
///
/// 1. `t=0` — `Enq(5)` while fully connected: written to all three
///    replicas.
/// 2. `t=200` — partition `{client, r0} | {r1, r2}`; `Deq` reads and
///    writes only `r0`, dequeuing request `5`.
/// 3. `t=400` — partition flips to `{client, r1} | {r0, r2}`; the next
///    `Deq`'s initial quorum (`r1`) never saw the first dequeue, so
///    request `5` is served **again** — the monitor kills `PQ` and
///    reports the duplicate `Deq` as witness.
/// 4. `t=600` — `r1` (the client's only reachable replica) crashes; the
///    next `Deq` cannot assemble a quorum and times out
///    (`quorum_failed` in the trace, a failure on the availability
///    counter).
/// 5. `t=900` — heal + recover; a final `Enq(9)` and `Deq` complete,
///    showing the system is available again and still within `MPQ`.
#[must_use]
pub fn run_partition_scenario(seed: u64) -> ScenarioReport {
    let n = 3;
    let client = NodeId(n);
    let schedule = FaultSchedule::new()
        .at(
            SimTime(200),
            Fault::Partition(Partition::groups(vec![
                vec![client, NodeId(0)],
                vec![NodeId(1), NodeId(2)],
            ])),
        )
        .at(
            SimTime(400),
            Fault::Partition(Partition::groups(vec![
                vec![client, NodeId(1)],
                vec![NodeId(0), NodeId(2)],
            ])),
        )
        .at(SimTime(600), Fault::Crash(NodeId(1)))
        .at(SimTime(900), Fault::Heal)
        .at(SimTime(900), Fault::Recover(NodeId(1)));

    let mut sys = QuorumSystem::new(
        TaxiQueueType,
        n,
        q1_only_assignment(n),
        ClientConfig::default(),
        NetworkConfig::new(1, 10, 0.0),
        seed,
    )
    .with_trace(4096)
    .with_monitor(queue_lattice_monitor());
    sys.world_mut().set_schedule(schedule);

    // 1: a request arrives while everything is up.
    sys.submit(QueueInv::Enq(5));
    sys.run_until(SimTime(200));
    // 2: partitioned with r0 only — serve the request.
    sys.submit(QueueInv::Deq);
    sys.run_until(SimTime(400));
    // 3: partitioned with r1 only — serve it *again* (duplicate).
    sys.submit(QueueInv::Deq);
    sys.run_until(SimTime(600));
    // 4: r1 crashes — no quorum, timeout.
    sys.submit(QueueInv::Deq);
    sys.run_until(SimTime(900));
    // 5: healed — normal service resumes.
    sys.submit(QueueInv::Enq(9));
    sys.submit(QueueInv::Deq);
    sys.run_to_quiescence(1_000_000);

    let mut registry = Registry::new();
    let outcomes: Vec<Outcome<QueueOp>> = sys.outcomes().to_vec();
    for o in &outcomes {
        let name = match o {
            Outcome::Completed { op, .. } => match op {
                QueueOp::Enq(_) => "enq",
                QueueOp::Deq(_) => "deq",
            },
            // Refusals and timeouts in this scenario are all dequeues.
            Outcome::Refused { .. } | Outcome::TimedOut => "deq",
        };
        o.record_to(&mut registry, name);
    }

    let monitor = sys.monitor().expect("monitor attached");
    let transitions = monitor.transitions().to_vec();
    let current_level = monitor.current_level().map(str::to_owned);
    let observed_ops = completed_ops(&outcomes);
    let tracer = sys.world().tracer();
    ScenarioReport {
        trace_jsonl: tracer.export_jsonl(),
        events: tracer.events().collect(),
        registry,
        transitions,
        observed_ops,
        current_level,
        outcomes,
    }
}

fn completed_ops(outcomes: &[Outcome<QueueOp>]) -> Vec<QueueOp> {
    outcomes
        .iter()
        .filter_map(|o| match o {
            Outcome::Completed { op, .. } => Some(*op),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_automata::{History, ObjectAutomaton};
    use relax_queues::{MpqAutomaton, PQueueAutomaton};
    use relax_trace::EventKind;

    fn report() -> ScenarioReport {
        run_partition_scenario(0x5EED)
    }

    #[test]
    fn trace_is_valid_jsonl_in_sim_time_order() {
        let r = report();
        assert!(!r.events.is_empty());
        let mut lines = r.trace_jsonl.lines();
        let header = lines.next().expect("header line");
        assert!(header.contains("\"kind\":\"trace_header\""), "{header:?}");
        let mut last = 0;
        for (line, ev) in lines.by_ref().zip(&r.events) {
            assert!(line.starts_with("{\"t\":"), "line {line:?}");
            assert!(line.ends_with('}'), "line {line:?}");
            assert!(ev.time >= last, "out of order at seq {}", ev.seq);
            last = ev.time;
        }
        assert_eq!(r.trace_jsonl.lines().count(), r.events.len() + 1);
        // The exported form re-ingests losslessly.
        let parsed = relax_trace::read_trace(&r.trace_jsonl).expect("re-ingest");
        assert_eq!(parsed.events, r.events);
    }

    #[test]
    fn trace_contains_crash_partition_and_quorum_failure() {
        let r = report();
        let has = |f: &dyn Fn(&EventKind) -> bool| r.events.iter().any(|e| f(&e.kind));
        assert!(has(&|k| matches!(k, EventKind::NodeCrashed { node: 1 })));
        assert!(has(&|k| matches!(k, EventKind::NodeRecovered { node: 1 })));
        assert!(has(&|k| matches!(k, EventKind::PartitionSet { .. })));
        assert!(has(&|k| matches!(k, EventKind::PartitionHealed)));
        assert!(has(&|k| matches!(k, EventKind::QuorumFailed { .. })));
        assert!(has(&|k| matches!(
            k,
            EventKind::MessageDropped {
                cause: relax_trace::DropCause::Partitioned,
                ..
            }
        )));
    }

    #[test]
    fn registry_reports_availability_and_latency_quantiles() {
        let mut r = report();
        let deq = r.registry.get_counter("deq").expect("deq counter");
        // Four Deq attempts: two duplicates complete, one times out, one
        // final post-heal attempt runs (Completed or Refused — both are
        // "available").
        assert_eq!(deq.total(), 4);
        assert_eq!(deq.failures(), 1);
        let enq = r.registry.get_counter("enq").expect("enq counter");
        assert_eq!(enq.total(), 2);
        assert_eq!(enq.failures(), 0);
        let h = r
            .registry
            .get_histogram("deq_latency")
            .cloned()
            .expect("deq latency histogram");
        assert!(!h.is_empty());
        let mut h = h;
        let p50 = h.p50().unwrap();
        let p99 = h.p99().unwrap();
        assert!(p50 <= p99);
        // The summary text mentions both series.
        let summary = r.registry.summary();
        assert!(summary.contains("deq"));
        assert!(summary.contains("deq_latency"));
    }

    #[test]
    fn monitor_reports_pq_to_mpq_transition_with_duplicate_witness() {
        let r = report();
        assert_eq!(r.transitions.len(), 1, "transitions: {:?}", r.transitions);
        let t = &r.transitions[0];
        // A duplicate kills both duplicate-free levels at once: the
        // faithful queue *and* the out-of-order queue.
        assert_eq!(t.left, vec!["PQ".to_string(), "OPQ".to_string()]);
        assert_eq!(t.now.as_deref(), Some("MPQ"));
        assert!(t.witness.contains("Deq"), "witness: {}", t.witness);
        assert_eq!(r.current_level.as_deref(), Some("MPQ"));
        // The transition also landed in the trace.
        assert!(r.events.iter().any(|e| matches!(
            &e.kind,
            EventKind::LevelTransition(t) if t.now.as_deref() == Some("MPQ")
        )));
    }

    #[test]
    fn witness_history_rejected_by_pq_accepted_by_mpq() {
        // The acceptance check behind the transition: replay the observed
        // completion order up to and including the witness op. PQ (the
        // faithful queue) must reject it; MPQ (duplication allowed) must
        // accept it.
        let r = report();
        let t = &r.transitions[0];
        let prefix: Vec<QueueOp> = r.observed_ops[..=t.op_index].to_vec();
        assert_eq!(
            format!("{:?}", prefix[t.op_index]),
            t.witness,
            "witness is the op at op_index"
        );
        let h = History::from(prefix);
        assert!(!PQueueAutomaton::new().accepts(&h), "PQ must reject {h:?}");
        assert!(MpqAutomaton::new().accepts(&h), "MPQ must accept {h:?}");
    }

    #[test]
    fn duplicate_service_is_visible_in_completed_ops() {
        let r = report();
        let dups = r
            .observed_ops
            .iter()
            .filter(|op| matches!(op, QueueOp::Deq(5)))
            .count();
        assert_eq!(dups, 2, "request 5 served twice: {:?}", r.observed_ops);
    }
}
