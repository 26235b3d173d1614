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
//!
//! The evaluation function is a parameter of the lattice (§3.3): "When
//! designing a relaxation lattice, the exact way in which the evaluation
//! function η should extend the transition function δ* is application
//! dependent. … The resulting lattice would produce a different set of
//! relaxed behaviors: unlike QCA(PQ, Q2, η), QCA(PQ, Q2, η′) never
//! services requests out of order, but it could ignore certain
//! requests." [`TaxiLattice::with_eta`]`(EtaPrime)` is that ablation:
//! the same constraint universe, the same value spec, `η′` in place of
//! `η`. At the top both lattices coincide with the priority queue (a
//! serial dependency relation makes the evaluation function
//! irrelevant); at `{Q2}` they *diverge*: `η` yields the out-of-order
//! priority queue, `η′` the [`relax_queues::DiscardingPqAutomaton`] — a
//! strictly smaller language trading starvation for order.

use relax_automata::{
    ConstraintSet, ConstraintUniverse, Environment, ObjectAutomaton, RelaxationMap, Successors,
};
use relax_queues::{
    Bag, DegenPqAutomaton, Eta, Eval, Item, Mpq, MpqAutomaton, OpqAutomaton, PQueueAutomaton,
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
///
/// At the degenerate point a `Deq(e)` of a held item keeps it: of
/// Figure 3-5's two branches this writes only the ⊆-greatest one, as
/// [`DegenPqAutomaton::step_in_place`] does. DegenPQ is monotone in the
/// bag (`Enq` is always enabled and `Deq(e)` needs only `isIn(q, e)`),
/// so bag inclusion is a forward simulation of the automaton by itself:
/// the kept bag accepts every history the removing one does, and the
/// language is unchanged. Every point is then deterministic, so a walk
/// over this reference interns singleton sets only.
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

    /// The guards of a `Deq` of the item of rank `rank` at `(present,
    /// absent)`: does it re-return an absent item (MPQ only), and does it
    /// serve a present one? `δ` is defined iff either holds.
    fn deq_guards(&self, present: PackedBag, absent: PackedBag, rank: usize) -> (bool, bool) {
        let serves_best = best(present) == Some(rank);
        let held = del(present, rank) != present;
        match (self.point.q1, self.point.q2) {
            // PQ: serve the best item.
            (true, true) => (false, serves_best),
            // MPQ (Figure 3-3): re-return an absent item that beats
            // everything present, or move the best present item to
            // absent.
            (true, false) => (
                del(absent, rank) != absent && best(present).is_none_or(|b| rank > b),
                serves_best,
            ),
            // OPQ: serve any present item.
            (false, true) => (false, held),
            // DegenPQ: serve any present item (and keep it).
            (false, false) => (false, held),
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
                if let QueueOp::Enq(_) = op {
                    out.push((ins(present, rank), absent));
                } else {
                    let (again, serve) = self.deq_guards(present, absent, rank);
                    if again {
                        out.push((present, absent));
                    }
                    if serve {
                        let removed = del(present, rank);
                        out.push(match (self.point.q1, self.point.q2) {
                            (true, false) => (removed, ins(absent, rank)),
                            // DegenPQ keeps what it serves.
                            (false, false) => (present, absent),
                            _ => (removed, absent),
                        });
                    }
                }
            }
            out.end_symbol();
        }
    }

    /// The guards [`ObjectAutomaton::step_all_into`] steps by, without
    /// the successors.
    fn defined(&self, &(present, absent): &(PackedBag, PackedBag), op: &QueueOp) -> Option<bool> {
        let (QueueOp::Enq(e) | QueueOp::Deq(e)) = op;
        let Ok(rank) = self.domain.binary_search(e) else {
            return Some(false);
        };
        Some(match op {
            QueueOp::Enq(_) => true,
            QueueOp::Deq(_) => {
                let (again, serve) = self.deq_guards(present, absent, rank);
                again || serve
            }
        })
    }
}

/// The taxi-queue relaxation lattice: `φ(R) = QCA(PQ, R, E)` over the
/// universe `{Q1, Q2}`, where `E` is the evaluation function: the
/// paper's `η` unless the lattice is built by [`TaxiLattice::with_eta`].
#[derive(Debug, Clone)]
pub struct TaxiLattice<E = Eta> {
    universe: ConstraintUniverse,
    eta: E,
}

impl TaxiLattice {
    /// Builds the lattice of the paper's `η`.
    pub fn new() -> Self {
        TaxiLattice::with_eta(Eta)
    }

    /// The named reference specification at a point.
    pub fn reference(&self, point: TaxiPoint) -> TaxiReference {
        TaxiReference::new(point)
    }
}

impl<E: Eval<Value = Bag<Item>, Op = QueueOp> + Clone> TaxiLattice<E> {
    /// Builds the lattice of the evaluation function `eta`.
    pub fn with_eta(eta: E) -> Self {
        TaxiLattice {
            universe: ConstraintUniverse::new(["Q1", "Q2"]),
            eta,
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
    pub fn qca(&self, point: TaxiPoint) -> QcaAutomaton<PqValueSpec, E> {
        QcaAutomaton::new(
            PqValueSpec,
            self.eta.clone(),
            queue_relation(point.q1, point.q2),
        )
    }
}

impl Default for TaxiLattice {
    fn default() -> Self {
        TaxiLattice::new()
    }
}

impl<E: Eval<Value = Bag<Item>, Op = QueueOp> + Clone> RelaxationMap for TaxiLattice<E> {
    type A = QcaAutomaton<PqValueSpec, E>;

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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relax_automata::{
        check_defined, check_reverse_inclusion_lattice, check_step_all_into, equal_upto,
        included_upto, CombinedAutomaton, History, Input,
    };
    use relax_queues::{queue_alphabet, DiscardingPqAutomaton, EtaPrime};
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

    /// Figure 3-5's step over packed bags with both of its branches,
    /// keeping the served item and removing it.
    fn two_branch_degen_step(
        domain: &[Item],
        &(present, absent): &(PackedBag, PackedBag),
        op: &QueueOp,
    ) -> Vec<(PackedBag, PackedBag)> {
        let (QueueOp::Enq(e) | QueueOp::Deq(e)) = op;
        let rank = domain.binary_search(e).expect("an op over the domain");
        match op {
            QueueOp::Enq(_) => vec![(ins(present, rank), absent)],
            QueueOp::Deq(_) if del(present, rank) != present => {
                vec![(present, absent), (del(present, rank), absent)]
            }
            QueueOp::Deq(_) => vec![],
        }
    }

    /// Is every byte (item multiplicity) of `small` at most `large`'s?
    fn sub_bag(small: PackedBag, large: PackedBag) -> bool {
        (0..8).all(|rank| (small >> (8 * rank)) & 0xff <= (large >> (8 * rank)) & 0xff)
    }

    /// The packed bottom point's one `Deq` successor loses nothing:
    /// bag inclusion is a forward simulation of the two-branch DegenPQ
    /// by the one-branch one. Over every pair of states the two-branch
    /// step reaches within (3 items, length 8) whose `present` bags are
    /// ordered, every op enabled at the smaller state is enabled at the
    /// larger, and each of the smaller state's two-branch successors
    /// stays within the larger's one successor. At Theorem 4's benchmark
    /// bounds the packed bottom point and the literal two-branch
    /// reference then accept the same histories, length by length.
    #[test]
    fn degen_reference_keeps_what_it_serves() {
        use relax_automata::{compare_upto, CompareOptions};
        use std::collections::BTreeSet;
        let bottom = TaxiPoint {
            q1: false,
            q2: false,
        };
        let domain = [1, 2, 3];
        let alphabet = queue_alphabet(&domain);
        let packed = PackedTaxiReference::new(bottom, &domain);
        let mut reachable = BTreeSet::from([(0, 0)]);
        let mut frontier = vec![(0, 0)];
        for _ in 0..8 {
            frontier = frontier
                .iter()
                .flat_map(|s| {
                    alphabet
                        .iter()
                        .flat_map(|op| two_branch_degen_step(&domain, s, op))
                })
                .filter(|&t| reachable.insert(t))
                .collect();
        }
        let within = |(p, a): (PackedBag, PackedBag), (q, b): (PackedBag, PackedBag)| {
            sub_bag(p, q) && a == b
        };
        let mut pairs = 0;
        for &small in &reachable {
            for &large in reachable.iter().filter(|&&large| within(small, large)) {
                pairs += 1;
                for op in &alphabet {
                    let kept = packed.step(&large, op);
                    assert!(kept.len() <= 1, "{op:?} at {large:x?}: {kept:x?}");
                    if !packed.step(&small, op).is_empty() {
                        assert!(
                            !kept.is_empty(),
                            "{op:?} enabled at {small:x?}, not {large:x?}"
                        );
                    }
                    for t in two_branch_degen_step(&domain, &small, op) {
                        assert!(
                            kept.iter().any(|&k| within(t, k)),
                            "{small:x?} ⊆ {large:x?}, but {op:?} leads to {t:x?} ⊄ {kept:x?}"
                        );
                    }
                }
            }
        }
        assert_eq!(reachable.len(), 165, "every bag of at most 8 of 3 items");
        assert!(pairs > reachable.len(), "only the diagonal: {pairs}");
        for (items, max_len, size) in [(3, 10, 9_594_982), (4, 8, 1_735_153)] {
            let domain: Vec<Item> = (1..=items).collect();
            let outcome = compare_upto(
                &PackedTaxiReference::new(bottom, &domain),
                &TaxiReference::new(bottom),
                &queue_alphabet(&domain),
                max_len,
                CompareOptions::counting(),
            );
            assert!(outcome.agree(), "({items}, {max_len}): {outcome:?}");
            assert_eq!(outcome.left_sizes, outcome.right_sizes);
            assert_eq!(outcome.left_total(), size, "({items}, {max_len})");
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

    /// `defined` answers what `step` does at every state a history of
    /// at most 8 operations over 3 items reaches, at every point, for
    /// every symbol and for both ops on an item outside the domain.
    #[test]
    fn packed_reference_defined_agrees_with_step() {
        let domain = [1, 2, 3];
        let mut alphabet = queue_alphabet(&domain);
        alphabet.extend([QueueOp::Enq(5), QueueOp::Deq(5)]);
        for point in TaxiPoint::all() {
            let checked = check_defined(&PackedTaxiReference::new(point, &domain), &alphabet, 8);
            assert!(matches!(checked, Ok(n) if n > 1), "{point:?}: {checked:?}");
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
    fn eta_prime_lattice_satisfies_the_lattice_laws() {
        let l = TaxiLattice::with_eta(EtaPrime);
        let alphabet = queue_alphabet(&[1, 2]);
        let check = check_reverse_inclusion_lattice(&l, &alphabet, 4);
        assert!(check.is_ok(), "violations: {:?}", check.violations);
    }

    #[test]
    fn eta_prime_top_agrees_with_eta_lattice_and_pq() {
        // With a serial dependency relation the evaluation function is
        // irrelevant: both tops equal the priority queue.
        let alphabet = queue_alphabet(&[1, 2]);
        let top = TaxiLattice::with_eta(EtaPrime).qca(TaxiPoint { q1: true, q2: true });
        assert!(equal_upto(&top, &PQueueAutomaton::new(), &alphabet, 5).is_ok());
    }

    #[test]
    fn eta_prime_q2_point_is_the_discarding_queue() {
        let alphabet = queue_alphabet(&[1, 2, 3]);
        let relaxed = TaxiLattice::with_eta(EtaPrime).qca(TaxiPoint {
            q1: false,
            q2: true,
        });
        assert!(
            equal_upto(&relaxed, &DiscardingPqAutomaton::new(), &alphabet, 4).is_ok(),
            "QCA(PQ, Q2, η′) should equal the discarding priority queue"
        );
    }

    #[test]
    fn eta_prime_is_strictly_stronger_than_eta_at_q2() {
        // L(QCA(PQ,Q2,η′)) ⊊ L(QCA(PQ,Q2,η)): η′ never lets a skipped
        // request be serviced later.
        let alphabet = queue_alphabet(&[1, 2]);
        let point = TaxiPoint {
            q1: false,
            q2: true,
        };
        let eta = TaxiLattice::new().qca(point);
        let eta_prime = TaxiLattice::with_eta(EtaPrime).qca(point);
        assert!(included_upto(&eta_prime, &eta, &alphabet, 5).is_ok());
        let skipped_then_served = History::from(vec![
            QueueOp::Enq(2),
            QueueOp::Enq(1),
            QueueOp::Deq(1),
            QueueOp::Deq(2),
        ]);
        assert!(eta.accepts(&skipped_then_served));
        assert!(!eta_prime.accepts(&skipped_then_served));
    }

    #[test]
    fn eta_prime_starvation_is_the_price_of_order() {
        // η′ ignores the skipped request entirely: after serving 1 with 2
        // pending, no continuation ever serves 2.
        let eta_prime = TaxiLattice::with_eta(EtaPrime).qca(TaxiPoint {
            q1: false,
            q2: true,
        });
        let h = History::from(vec![QueueOp::Enq(2), QueueOp::Enq(1), QueueOp::Deq(1)]);
        assert!(eta_prime.accepts(&h));
        assert!(!eta_prime.accepts(&h.appended(QueueOp::Deq(2))));
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
