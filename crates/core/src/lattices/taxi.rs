//! The replicated real-time priority queue lattice (§3.3).
//!
//! An urban taxicab company's dispatch queue, replicated over unreliable
//! sites. The constraints are the quorum intersection requirements
//!
//! * `Q1` — each initial Deq quorum intersects each final Enq quorum;
//! * `Q2` — each initial Deq quorum intersects each final Deq quorum;
//!
//! and the lattice is `{QCA(PQ, R, η) | R ⊆ {Q1, Q2}}`. Each point has a
//! *named* reference behavior:
//!
//! | constraints | behavior |
//! |-------------|----------|
//! | `{Q1, Q2}` | priority queue (preferred) |
//! | `{Q1}` | multi-priority queue (duplicates, never out of order) |
//! | `{Q2}` | out-of-order priority queue (no duplicates) |
//! | `∅` | degenerate priority queue (both anomalies) |

use relax_automata::{
    ConstraintSet, ConstraintUniverse, Environment, ObjectAutomaton, RelaxationMap, Successors,
};
use relax_queues::{
    Bag, DegenPqAutomaton, Eta, Item, Mpq, MpqAutomaton, OpqAutomaton, PQueueAutomaton,
    PqValueSpec, QueueOp,
};
use relax_quorum::repview::{best, del, ins, rank_domain, PackedBag};
use relax_quorum::{queue_relation, QcaAutomaton};

/// A point of the taxi lattice, by which constraints hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaxiPoint {
    /// Does `Q1` (Deq sees Enq) hold?
    pub q1: bool,
    /// Does `Q2` (Deq sees Deq) hold?
    pub q2: bool,
}

impl TaxiPoint {
    /// All four points, strongest first.
    pub fn all() -> [TaxiPoint; 4] {
        [
            TaxiPoint { q1: true, q2: true },
            TaxiPoint {
                q1: true,
                q2: false,
            },
            TaxiPoint {
                q1: false,
                q2: true,
            },
            TaxiPoint {
                q1: false,
                q2: false,
            },
        ]
    }

    /// The paper's name for this point's behavior.
    pub fn behavior_name(&self) -> &'static str {
        match (self.q1, self.q2) {
            (true, true) => "priority queue (preferred)",
            (true, false) => "multi-priority queue",
            (false, true) => "out-of-order priority queue",
            (false, false) => "degenerate priority queue",
        }
    }

    /// The anomalies this point tolerates.
    pub fn anomalies(&self) -> &'static str {
        match (self.q1, self.q2) {
            (true, true) => "none",
            (true, false) => "requests may be serviced multiple times",
            (false, true) => "requests may be serviced out of order",
            (false, false) => "duplicate and out-of-order service",
        }
    }
}

/// The reference automaton for a lattice point: the *specification* the
/// QCA at that point is claimed (and verified) to implement.
#[derive(Debug, Clone, Copy)]
pub struct TaxiReference {
    point: TaxiPoint,
}

impl TaxiReference {
    /// The reference for a point.
    pub fn new(point: TaxiPoint) -> Self {
        TaxiReference { point }
    }
}

/// State of [`TaxiReference`] (a sum over the four behaviors' states).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TaxiRefState {
    /// Priority-queue / OPQ / DegenPQ state: a bag.
    Bag(Bag<Item>),
    /// MPQ state: present/absent record.
    Mpq(Mpq),
}

impl ObjectAutomaton for TaxiReference {
    type State = TaxiRefState;
    type Op = QueueOp;

    fn initial_state(&self) -> TaxiRefState {
        match (self.point.q1, self.point.q2) {
            (true, false) => TaxiRefState::Mpq(Mpq::new()),
            _ => TaxiRefState::Bag(Bag::new()),
        }
    }

    fn step(&self, s: &TaxiRefState, op: &QueueOp) -> Vec<TaxiRefState> {
        match (self.point.q1, self.point.q2, s) {
            (true, true, TaxiRefState::Bag(b)) => PQueueAutomaton::new()
                .step(b, op)
                .into_iter()
                .map(TaxiRefState::Bag)
                .collect(),
            (true, false, TaxiRefState::Mpq(m)) => MpqAutomaton::new()
                .step(m, op)
                .into_iter()
                .map(TaxiRefState::Mpq)
                .collect(),
            (false, true, TaxiRefState::Bag(b)) => OpqAutomaton::new()
                .step(b, op)
                .into_iter()
                .map(TaxiRefState::Bag)
                .collect(),
            (false, false, TaxiRefState::Bag(b)) => DegenPqAutomaton::new()
                .step(b, op)
                .into_iter()
                .map(TaxiRefState::Bag)
                .collect(),
            _ => unreachable!("state variant fixed by the point"),
        }
    }

    /// Each point's own automaton's in-place step, so an acceptor over a
    /// reference never copies a bag or an MPQ record. At the degenerate
    /// point that step keeps a dequeued item (see
    /// [`DegenPqAutomaton::step_in_place`]).
    fn step_in_place(&self, s: &mut TaxiRefState, op: &QueueOp) -> Option<bool> {
        match (self.point.q1, self.point.q2, s) {
            (true, true, TaxiRefState::Bag(b)) => PQueueAutomaton::new().step_in_place(b, op),
            (true, false, TaxiRefState::Mpq(m)) => MpqAutomaton::new().step_in_place(m, op),
            (false, true, TaxiRefState::Bag(b)) => OpqAutomaton::new().step_in_place(b, op),
            (false, false, TaxiRefState::Bag(b)) => DegenPqAutomaton::new().step_in_place(b, op),
            _ => unreachable!("state variant fixed by the point"),
        }
    }
}

/// [`TaxiReference`] over packed bags, for the bounded walk of
/// Theorem 4 (`crate::theorem4`): the same four behaviors, with a state
/// of two integers instead of two trees.
///
/// The state is `(present, absent)`, two [`PackedBag`]s over a domain of
/// at most 8 items. `absent` is MPQ's record of dequeued requests and
/// stays 0 at the other three points. An operation on an item outside
/// the domain has no successor. `TaxiReference` is the oracle: the two
/// accept the same language over the domain's queue alphabet.
#[derive(Debug, Clone)]
pub struct PackedTaxiReference {
    point: TaxiPoint,
    /// Sorted ascending; index = priority rank.
    domain: Vec<Item>,
}

impl PackedTaxiReference {
    /// The packed reference for a point over a finite item domain (see
    /// [`rank_domain`] for its limits). Its language is exact only on
    /// histories of at most 255 operations: a longer one can carry a
    /// [`PackedBag`] byte into the next rank.
    pub fn new(point: TaxiPoint, domain: &[Item]) -> Self {
        PackedTaxiReference {
            point,
            domain: rank_domain(domain),
        }
    }
}

impl ObjectAutomaton for PackedTaxiReference {
    type State = (PackedBag, PackedBag);
    type Op = QueueOp;

    fn initial_state(&self) -> (PackedBag, PackedBag) {
        (0, 0)
    }

    fn step(&self, state: &(PackedBag, PackedBag), op: &QueueOp) -> Vec<Self::State> {
        let mut out = Successors::new();
        self.step_all_into(state, std::slice::from_ref(op), &mut out);
        out.into_vec()
    }

    fn step_all_into(
        &self,
        &(present, absent): &(PackedBag, PackedBag),
        alphabet: &[QueueOp],
        out: &mut Successors<Self::State>,
    ) {
        for op in alphabet {
            let (QueueOp::Enq(e) | QueueOp::Deq(e)) = op;
            // Outside the domain, δ is undefined.
            if let Ok(rank) = self.domain.binary_search(e) {
                let removed = del(present, rank);
                let held = removed != present;
                match (op, self.point.q1, self.point.q2) {
                    (QueueOp::Enq(_), ..) => out.push((ins(present, rank), absent)),
                    // PQ: serve the best item.
                    (_, true, true) if best(present) == Some(rank) => {
                        out.push((removed, absent));
                    }
                    // MPQ (Figure 3-3): re-return an absent item that beats
                    // everything present, or move the best present item to
                    // absent.
                    (_, true, false) => {
                        if del(absent, rank) != absent && best(present).is_none_or(|b| rank > b) {
                            out.push((present, absent));
                        }
                        if best(present) == Some(rank) {
                            out.push((removed, ins(absent, rank)));
                        }
                    }
                    // OPQ: serve any present item.
                    (_, false, true) if held => out.push((removed, absent)),
                    // DegenPQ: serve any present item, keeping or removing it.
                    (_, false, false) if held => {
                        out.push((present, absent));
                        out.push((removed, absent));
                    }
                    _ => {}
                }
            }
            out.end_symbol();
        }
    }
}

/// The taxi-queue relaxation lattice: `φ(R) = QCA(PQ, R, η)` over the
/// universe `{Q1, Q2}`.
#[derive(Debug, Clone)]
pub struct TaxiLattice {
    universe: ConstraintUniverse,
}

impl TaxiLattice {
    /// Builds the lattice.
    pub fn new() -> Self {
        TaxiLattice {
            universe: ConstraintUniverse::new(["Q1", "Q2"]),
        }
    }

    /// Decodes a constraint set into a point.
    pub fn point(&self, c: ConstraintSet) -> TaxiPoint {
        TaxiPoint {
            q1: c.contains(self.universe.id("Q1").expect("Q1 in universe")),
            q2: c.contains(self.universe.id("Q2").expect("Q2 in universe")),
        }
    }

    /// Encodes a point as a constraint set.
    pub fn constraints(&self, point: TaxiPoint) -> ConstraintSet {
        let mut c = self.universe.empty_set();
        if point.q1 {
            c = c.with(self.universe.id("Q1").expect("Q1 in universe"));
        }
        if point.q2 {
            c = c.with(self.universe.id("Q2").expect("Q2 in universe"));
        }
        c
    }

    /// The QCA at a point.
    pub fn qca(&self, point: TaxiPoint) -> QcaAutomaton<PqValueSpec, Eta> {
        QcaAutomaton::new(PqValueSpec, Eta, queue_relation(point.q1, point.q2))
    }

    /// The named reference specification at a point.
    pub fn reference(&self, point: TaxiPoint) -> TaxiReference {
        TaxiReference::new(point)
    }
}

impl Default for TaxiLattice {
    fn default() -> Self {
        TaxiLattice::new()
    }
}

impl RelaxationMap for TaxiLattice {
    type A = QcaAutomaton<PqValueSpec, Eta>;

    fn universe(&self) -> &ConstraintUniverse {
        &self.universe
    }

    fn automaton(&self, c: ConstraintSet) -> Option<Self::A> {
        Some(self.qca(self.point(c)))
    }
}

/// The taxi environment (§2.3, §3.3): crash and communication-failure
/// events are disjoint from the queue's operations. Events abstract the
/// fault patterns of the replicated system: a fault event invalidates a
/// constraint, the matching repair event restores it.
#[derive(Debug, Clone)]
pub struct TaxiEnvironment {
    universe: ConstraintUniverse,
}

/// Environment events for the taxi queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaxiEvent {
    /// Sites or links fail such that Deq/Enq quorums no longer intersect
    /// (e.g. a partition separating dispatchers from recent enqueues).
    Q1Lost,
    /// Repair: Q1 restored.
    Q1Restored,
    /// Sites or links fail such that Deq quorums no longer intersect.
    Q2Lost,
    /// Repair: Q2 restored.
    Q2Restored,
}

impl TaxiEnvironment {
    /// Builds the environment over the taxi universe.
    pub fn new() -> Self {
        TaxiEnvironment {
            universe: ConstraintUniverse::new(["Q1", "Q2"]),
        }
    }
}

impl Default for TaxiEnvironment {
    fn default() -> Self {
        TaxiEnvironment::new()
    }
}

impl Environment for TaxiEnvironment {
    type Event = TaxiEvent;

    fn initial_constraints(&self) -> ConstraintSet {
        self.universe.full_set()
    }

    fn on_event(&self, c: ConstraintSet, event: &TaxiEvent) -> ConstraintSet {
        let q1 = self.universe.id("Q1").expect("Q1 in universe");
        let q2 = self.universe.id("Q2").expect("Q2 in universe");
        match event {
            TaxiEvent::Q1Lost => c.without(q1),
            TaxiEvent::Q1Restored => c.with(q1),
            TaxiEvent::Q2Lost => c.without(q2),
            TaxiEvent::Q2Restored => c.with(q2),
        }
    }
}

/// Derives the environment's event trace from a simulator fault schedule
/// (§2.3's bridge between the concrete environment and the abstract one).
///
/// Semantics: dispatchers and drivers fall back to reading/writing *all
/// reachable* sites. A network **partition** that splits the replica set
/// (two or more groups each holding replicas) breaks both intersection
/// constraints — clients on different sides use disjoint quorums. Healing
/// restores them. Crashes alone do not break the constraints under the
/// all-reachable fallback (operations use the surviving, mutually
/// connected sites); they only cost availability, which the operational
/// experiments measure separately.
pub fn constraint_trace(
    schedule: &relax_sim::FaultSchedule,
    n_replicas: usize,
) -> Vec<(relax_sim::SimTime, TaxiEvent)> {
    let mut out = Vec::new();
    let mut split = false;
    for (t, fault) in schedule.entries() {
        match fault {
            relax_sim::Fault::Partition(p) => {
                let replica_groups = (0..n_replicas)
                    .map(relax_sim::NodeId)
                    .filter(|&r| {
                        // Count the distinct groups replicas land in by
                        // checking mutual connectivity against replica 0.
                        !p.connected(relax_sim::NodeId(0), r)
                    })
                    .count();
                let now_split = replica_groups > 0;
                if now_split && !split {
                    out.push((*t, TaxiEvent::Q1Lost));
                    out.push((*t, TaxiEvent::Q2Lost));
                } else if !now_split && split {
                    out.push((*t, TaxiEvent::Q1Restored));
                    out.push((*t, TaxiEvent::Q2Restored));
                }
                split = now_split;
            }
            relax_sim::Fault::Heal if split => {
                out.push((*t, TaxiEvent::Q1Restored));
                out.push((*t, TaxiEvent::Q2Restored));
                split = false;
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relax_automata::{
        check_reverse_inclusion_lattice, check_step_all_into, equal_upto, CombinedAutomaton,
        History, Input,
    };
    use relax_queues::queue_alphabet;
    use std::collections::HashSet;

    #[test]
    fn lattice_is_a_relaxation_lattice() {
        let lattice = TaxiLattice::new();
        let alphabet = queue_alphabet(&[1, 2]);
        let check = check_reverse_inclusion_lattice(&lattice, &alphabet, 4);
        assert!(check.is_ok(), "violations: {:?}", check.violations);
    }

    #[test]
    fn each_point_matches_its_named_behavior() {
        let lattice = TaxiLattice::new();
        let alphabet = queue_alphabet(&[1, 2]);
        for point in TaxiPoint::all() {
            let qca = lattice.qca(point);
            let reference = lattice.reference(point);
            assert!(
                equal_upto(&qca, &reference, &alphabet, 4).is_ok(),
                "QCA at {point:?} differs from {}",
                point.behavior_name()
            );
        }
    }

    /// The packed reference accepts what the literal one does, length
    /// by length, at every point and over domains whose items are not
    /// their ranks.
    #[test]
    fn packed_reference_matches_the_literal_one() {
        use relax_automata::{compare_upto, CompareOptions};
        for point in TaxiPoint::all() {
            for domain in [&[1, 2][..], &[1, 2, 3], &[5, 9, 40, 41]] {
                let alphabet = queue_alphabet(domain);
                let outcome = compare_upto(
                    &PackedTaxiReference::new(point, domain),
                    &TaxiReference::new(point),
                    &alphabet,
                    7,
                    CompareOptions::counting(),
                );
                assert!(outcome.agree(), "{point:?} over {domain:?}: {outcome:?}");
                assert_eq!(
                    outcome.left_sizes, outcome.right_sizes,
                    "{point:?} over {domain:?}"
                );
            }
        }
    }

    /// The batched step into a reused buffer equals the per-op step
    /// symbol by symbol, at every point.
    #[test]
    fn packed_reference_step_all_into_equals_per_op_step() {
        let domain = [1, 4, 6, 9];
        let alphabet = queue_alphabet(&domain);
        for point in TaxiPoint::all() {
            let reference = PackedTaxiReference::new(point, &domain);
            for seed in 0..64 {
                let check = check_step_all_into(&reference, &alphabet, 24, seed);
                assert_eq!(check, Ok(()), "{point:?}");
            }
        }
    }

    #[test]
    fn point_encoding_round_trips() {
        let lattice = TaxiLattice::new();
        for point in TaxiPoint::all() {
            assert_eq!(lattice.point(lattice.constraints(point)), point);
        }
    }

    #[test]
    fn behavior_names() {
        assert_eq!(
            TaxiPoint { q1: true, q2: true }.behavior_name(),
            "priority queue (preferred)"
        );
        assert!(TaxiPoint {
            q1: false,
            q2: false
        }
        .anomalies()
        .contains("duplicate"));
    }

    #[test]
    fn constraint_trace_follows_partitions() {
        use relax_sim::{Fault, FaultSchedule, NodeId, Partition, SimTime};
        let schedule = FaultSchedule::new()
            .at(SimTime(5), Fault::Crash(NodeId(1))) // crash alone: no event
            .at(
                SimTime(10),
                Fault::Partition(Partition::groups(vec![
                    vec![NodeId(0)],
                    vec![NodeId(1), NodeId(2)],
                ])),
            )
            .at(SimTime(40), Fault::Heal)
            .at(SimTime(50), Fault::Recover(NodeId(1)));
        let trace = constraint_trace(&schedule, 3);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace[0], (SimTime(10), TaxiEvent::Q1Lost));
        assert_eq!(trace[1], (SimTime(10), TaxiEvent::Q2Lost));
        assert_eq!(trace[2], (SimTime(40), TaxiEvent::Q1Restored));
        assert_eq!(trace[3], (SimTime(40), TaxiEvent::Q2Restored));
    }

    #[test]
    fn trace_drives_the_combined_automaton() {
        use relax_sim::{Fault, FaultSchedule, NodeId, Partition, SimTime};
        // A partition window: dequeues inside the window may degrade.
        let schedule = FaultSchedule::new()
            .at(
                SimTime(10),
                Fault::Partition(Partition::groups(vec![
                    vec![NodeId(0)],
                    vec![NodeId(1), NodeId(2)],
                ])),
            )
            .at(SimTime(40), Fault::Heal);
        let trace = constraint_trace(&schedule, 3);
        let combined = CombinedAutomaton::new(TaxiLattice::new(), TaxiEnvironment::new());
        // Interleave: enqueue before the partition, dequeue out of order
        // during it — accepted because the trace has degraded the object.
        let mut inputs = vec![Input::Op(QueueOp::Enq(2)), Input::Op(QueueOp::Enq(9))];
        for (_, ev) in &trace[..2] {
            inputs.push(Input::Event(*ev));
        }
        inputs.push(Input::Op(QueueOp::Deq(2)));
        assert!(combined.accepts(&inputs));
    }

    #[test]
    fn environment_degrades_and_recovers() {
        let combined = CombinedAutomaton::new(TaxiLattice::new(), TaxiEnvironment::new());
        // Preferred: out-of-order Deq rejected.
        let bad = [
            Input::Op(QueueOp::Enq(2)),
            Input::Op(QueueOp::Enq(9)),
            Input::Op(QueueOp::Deq(2)),
        ];
        assert!(!combined.accepts(&bad));
        // After losing Q1, out-of-order service is tolerated.
        let degraded = [
            Input::Op(QueueOp::Enq(2)),
            Input::Op(QueueOp::Enq(9)),
            Input::Event(TaxiEvent::Q1Lost),
            Input::Op(QueueOp::Deq(2)),
        ];
        assert!(combined.accepts(&degraded));
        // Restoration re-tightens future operations. (The accepted
        // history keeps its past: the object replays its whole history
        // through the now-preferred automaton, so a *fresh* anomaly is
        // rejected.)
        let recovered = [
            Input::Op(QueueOp::Enq(2)),
            Input::Event(TaxiEvent::Q1Lost),
            Input::Event(TaxiEvent::Q1Restored),
            Input::Op(QueueOp::Enq(9)),
            Input::Op(QueueOp::Deq(2)),
        ];
        assert!(!combined.accepts(&recovered));
    }

    /// The combined run, stepping the exact `δ*` of each operation under
    /// the automaton `φ` selects there: the set of object states after
    /// `inputs`, or `None` once an operation empties it.
    fn exact_combined_run(
        inputs: &[Input<TaxiEvent, QueueOp>],
    ) -> Option<HashSet<History<QueueOp>>> {
        let (lattice, env) = (TaxiLattice::new(), TaxiEnvironment::new());
        let mut constraints = env.initial_constraints();
        let mut states = HashSet::from([History::empty()]);
        for input in inputs {
            match input {
                Input::Event(e) => constraints = env.on_event(constraints, e),
                Input::Op(op) => {
                    let qca = lattice.automaton(constraints).expect("φ is total");
                    states = states.iter().flat_map(|h| qca.step(h, op)).collect();
                    if states.is_empty() {
                        return None;
                    }
                }
                Input::Both(..) => unreachable!("taxi events are not operations"),
            }
        }
        Some(states)
    }

    proptest! {
        /// Under random losses and repairs of `Q1` and `Q2`, the combined
        /// run's one acceptor reaches exactly the states the exact run
        /// does, and so accepts exactly what it accepts.
        #[test]
        fn combined_run_is_exact_under_degrade_and_recover(
            draws in proptest::collection::vec((0u8..12, 0usize..4), 0..10)
        ) {
            let events = [
                TaxiEvent::Q1Lost,
                TaxiEvent::Q1Restored,
                TaxiEvent::Q2Lost,
                TaxiEvent::Q2Restored,
            ];
            let alphabet = queue_alphabet(&[1, 2]);
            let inputs: Vec<_> = draws
                .iter()
                .map(|&(kind, i)| match kind {
                    0..=3 => Input::Event(events[i]),
                    _ => Input::Op(alphabet[i]),
                })
                .collect();
            let combined = CombinedAutomaton::new(TaxiLattice::new(), TaxiEnvironment::new());
            let run = combined.run(&inputs).ok().map(|end| end.states.into_iter().collect());
            prop_assert_eq!(run, exact_combined_run(&inputs), "{:?}", inputs);
        }
    }
}
