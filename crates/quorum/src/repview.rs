//! The Rep-view quotient of the taxi-queue QCA — an exact bisimulation
//! that collapses the QCA's history states.
//!
//! `QcaAutomaton`'s state is the full accepted history (§3.2), so its
//! determinized subset graph never shares anything: every distinct
//! history is a distinct singleton node, and the bounded walk is a pure
//! history enumeration (the `(3 items, len 8)` taxi verification peaks
//! above 200k nodes). But for the taxi relation `{Q1, Q2}` over `η`,
//! enabledness of every operation depends on the history **only through
//! the set of bags `η(G)` achievable over its Deq-views**:
//!
//! * `Enq(e)` is always enabled: its invocation kind relates to nothing
//!   (`queue_relation` only has `(Deq, Enq)` and `(Deq, Deq)` pairs), so
//!   the empty subhistory is a view, `pre` is trivial, and `post` is
//!   automatic because `η` applies exactly the postcondition's insert.
//! * `Deq(e)` is enabled iff some Q-closed view `G` containing the
//!   required positions has `best(η(G)) = e` (the `pre` and the `post`'s
//!   second conjunct follow automatically).
//!
//! A Deq-view must contain every Enq iff `Q1` and every Deq iff `Q2`;
//! Q-closure adds nothing beyond that (Enqs pull nothing). Hence the
//! achievable-bag set `V(H)` evolves **as a function of `(V, op)`**:
//!
//! ```text
//! Enq(e):  V ↦ ins_e(V)            if Q1,  else V ∪ ins_e(V)
//! Deq(e):  V ↦ del_e(V)            if Q2,  else V ∪ del_e(V)
//!          (enabled iff ∃ b ∈ V. best(b) = e)
//! ```
//!
//! so `H ↦ V(H)` is a functional bisimulation and
//! `L(RepView) = L(QCA)` **exactly, at all four lattice points** — which
//! the differential tests below check against the literal Definition-1/2
//! implementation. Distinct histories with equal view sets merge, and
//! the subset walk regains the sharing the QCA lacks.
//!
//! Bags are packed into a `u64` ([`PackedBag`]): 8 bits of multiplicity
//! per item rank, so [`ins`]/[`del`]/[`best`] are shifts and the view set
//! is a sorted `Vec<u64>` with cheap hashing — the state the dense
//! interner of `relax_automata::multiwalk` was built for.
//!
//! Every transition is linear in `|V|` and sorts nothing. `ins_e` adds
//! one constant to every bag, so it keeps `V` sorted and distinct. `del_e`
//! leaves the bags without rank `e` alone and subtracts one constant from
//! the bags with it: two sorted runs, so one merge yields the next sorted
//! set. The runs are iterators over `V`, merged straight into the
//! successor's [`Successors`] slot, so a step allocates nothing once the
//! slot has grown to fit.

use relax_automata::{ObjectAutomaton, Successors};
use relax_queues::{Item, QueueOp};

/// A multiset over an item domain of ≤ 8 ranks, packed 8 bits per rank.
///
/// Rank 0 occupies the low byte; `best` (the maximum item) is the
/// highest nonzero byte. A multiplicity must stay below 256: a 256th
/// occurrence would carry into the next rank. Histories of at most 255
/// operations never reach it, which is the bound the packed automata
/// document and `verify_taxi_lattice` asserts.
pub type PackedBag = u64;

/// Insert one occurrence of `rank`.
#[inline]
pub fn ins(bag: PackedBag, rank: usize) -> PackedBag {
    debug_assert!((bag >> (8 * rank)) & 0xff < 0xff, "bag byte overflow");
    bag + (1u64 << (8 * rank))
}

/// Delete one occurrence of `rank` (no-op when absent — matching
/// `Bag::del`, hence `η` on views lacking the item).
#[inline]
pub fn del(bag: PackedBag, rank: usize) -> PackedBag {
    if (bag >> (8 * rank)) & 0xff != 0 {
        bag - (1u64 << (8 * rank))
    } else {
        bag
    }
}

/// The rank of the best (maximum) item present, if any: the highest
/// nonzero byte.
#[inline]
pub fn best(bag: PackedBag) -> Option<usize> {
    if bag == 0 {
        None
    } else {
        Some((63 - bag.leading_zeros() as usize) / 8)
    }
}

/// A packed-bag item domain: `domain` sorted and deduplicated, so an
/// item's index is its rank (rank order is priority order).
///
/// # Panics
///
/// If the domain is empty or holds more than 8 distinct items (the
/// packed-bag width).
pub fn rank_domain(domain: &[Item]) -> Vec<Item> {
    let mut domain = domain.to_vec();
    domain.sort_unstable();
    domain.dedup();
    assert!(
        !domain.is_empty() && domain.len() <= 8,
        "packed bags support 1..=8 distinct items"
    );
    domain
}

/// Appends the sorted union of two strictly ascending runs to `out`.
fn extend_union(
    out: &mut Vec<PackedBag>,
    a: impl Iterator<Item = PackedBag>,
    b: impl Iterator<Item = PackedBag>,
) {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    while let (Some(&x), Some(&y)) = (a.peek(), b.peek()) {
        out.push(x.min(y));
        if x <= y {
            a.next();
        }
        if y <= x {
            b.next();
        }
    }
    out.extend(a);
    out.extend(b);
}

/// The Rep-view automaton: the taxi-queue `QCA(PQ, {Q1?, Q2?}, η)`
/// quotiented by achievable Deq-view bags (see the module docs for the
/// bisimulation argument). `L(RepViewAutomaton(q1, q2, D)) =
/// L(QcaAutomaton(PqValueSpec, Eta, queue_relation(q1, q2)))` over the
/// queue alphabet of the domain `D`.
#[derive(Debug, Clone)]
pub struct RepViewAutomaton {
    q1: bool,
    q2: bool,
    /// Sorted ascending; index = priority rank.
    domain: Vec<Item>,
}

impl RepViewAutomaton {
    /// Builds the quotient automaton for one lattice point over a finite
    /// item domain (at most 8 items — the packed-bag width, see
    /// [`rank_domain`]). Its language is exact only on histories of at
    /// most 255 operations: a longer one can carry a [`PackedBag`] byte
    /// into the next rank.
    pub fn new(q1: bool, q2: bool, domain: &[Item]) -> Self {
        RepViewAutomaton {
            q1,
            q2,
            domain: rank_domain(domain),
        }
    }

    /// The lattice point `(q1, q2)` this automaton models.
    pub fn point(&self) -> (bool, bool) {
        (self.q1, self.q2)
    }

    fn rank_of(&self, e: Item) -> Option<usize> {
        self.domain.binary_search(&e).ok()
    }
}

/// `Deq` of the item of rank `rank` is enabled at `v` iff some view
/// serves it as the best item.
fn serves(v: &[PackedBag], rank: usize) -> bool {
    v.iter().any(|&b| best(b) == Some(rank))
}

impl ObjectAutomaton for RepViewAutomaton {
    /// The sorted set of achievable Deq-view bags `{ η(G) }`.
    type State = Vec<PackedBag>;
    type Op = QueueOp;

    fn initial_state(&self) -> Vec<PackedBag> {
        vec![0]
    }

    fn step(&self, v: &Vec<PackedBag>, op: &QueueOp) -> Vec<Vec<PackedBag>> {
        let mut out = Successors::new();
        self.step_all_into(v, std::slice::from_ref(op), &mut out);
        out.into_vec()
    }

    fn step_all_into(
        &self,
        v: &Vec<PackedBag>,
        alphabet: &[QueueOp],
        out: &mut Successors<Vec<PackedBag>>,
    ) {
        for op in alphabet {
            let (QueueOp::Enq(e) | QueueOp::Deq(e)) = *op;
            // Outside the domain, δ is undefined.
            if let Some(rank) = self.rank_of(e) {
                match op {
                    QueueOp::Enq(_) => {
                        let next = out.slot();
                        next.clear();
                        let inserted = v.iter().map(|&b| ins(b, rank));
                        if self.q1 {
                            next.extend(inserted);
                        } else {
                            // The new Enq's membership in a view is free.
                            extend_union(next, v.iter().copied(), inserted);
                        }
                    }
                    QueueOp::Deq(_) if serves(v, rank) => {
                        let next = out.slot();
                        next.clear();
                        // `del_e` shifts the bags holding `e` down by one
                        // constant and keeps the rest: two sorted runs.
                        // Under ¬Q2 the kept run is part of `V` already.
                        let shifted = v.iter().filter_map(|&b| {
                            let d = del(b, rank);
                            (d != b).then_some(d)
                        });
                        if self.q2 {
                            let kept = v.iter().copied().filter(|&b| del(b, rank) == b);
                            extend_union(next, kept, shifted);
                        } else {
                            extend_union(next, v.iter().copied(), shifted);
                        }
                    }
                    QueueOp::Deq(_) => {}
                }
            }
            out.end_symbol();
        }
    }

    /// `Enq` is always defined and `Deq` where some view serves its
    /// item, over the domain; outside it, neither is.
    fn defined(&self, v: &Vec<PackedBag>, op: &QueueOp) -> Option<bool> {
        let (QueueOp::Enq(e) | QueueOp::Deq(e)) = *op;
        let rank = self.rank_of(e);
        Some(match op {
            QueueOp::Enq(_) => rank.is_some(),
            QueueOp::Deq(_) => rank.is_some_and(|rank| serves(v, rank)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relax_automata::{
        check_defined, check_step_all_into, compare_upto, random_history, CompareOptions,
    };
    use relax_queues::{queue_alphabet, Eta, PqValueSpec};

    use crate::qca::QcaAutomaton;
    use crate::relation::queue_relation;

    fn qca(q1: bool, q2: bool) -> QcaAutomaton<PqValueSpec, Eta> {
        QcaAutomaton::new(PqValueSpec, Eta, queue_relation(q1, q2))
    }

    #[test]
    fn packed_bag_primitives() {
        let b = ins(ins(ins(0, 0), 2), 2);
        assert_eq!(best(b), Some(2));
        assert_eq!(best(del(del(b, 2), 2)), Some(0));
        assert_eq!(best(0), None);
        // Deleting an absent rank is a no-op, like `Bag::del`.
        assert_eq!(del(b, 1), b);
    }

    /// The sort-based step the merges replaced: build `next` in any
    /// order, then sort and dedup it.
    fn sorted_step(rep: &RepViewAutomaton, v: &[PackedBag], op: &QueueOp) -> Vec<Vec<PackedBag>> {
        let (QueueOp::Enq(e) | QueueOp::Deq(e)) = *op;
        let Some(rank) = rep.rank_of(e) else {
            return Vec::new();
        };
        let (f, keep_old): (fn(PackedBag, usize) -> PackedBag, bool) = match op {
            QueueOp::Enq(_) => (ins, !rep.q1),
            QueueOp::Deq(_) if v.iter().any(|&b| best(b) == Some(rank)) => (del, !rep.q2),
            QueueOp::Deq(_) => return Vec::new(),
        };
        let mut next: Vec<PackedBag> = v.iter().map(|&b| f(b, rank)).collect();
        next.extend(v.iter().filter(|_| keep_old));
        next.sort_unstable();
        next.dedup();
        vec![next]
    }

    proptest! {
        /// The merge-based step equals the sort-based one on every state
        /// a random accepted history passes through, for every op.
        #[test]
        fn merge_step_equals_sorted_step(seed in 0u64..1_000, len in 0usize..24, point in 0usize..4) {
            let (q1, q2) = [(true, true), (true, false), (false, true), (false, false)][point];
            let domain = [1, 4, 6, 9];
            let alphabet = queue_alphabet(&domain);
            let rep = RepViewAutomaton::new(q1, q2, &domain);
            let mut v = rep.initial_state();
            for op in random_history(&rep, &alphabet, len, seed).iter() {
                for probe in &alphabet {
                    prop_assert_eq!(rep.step(&v, probe), sorted_step(&rep, &v, probe));
                }
                v = rep.step(&v, op).pop().expect("the history is accepted");
            }
        }
    }

    proptest! {
        /// The batched step into a reused buffer equals the per-op step
        /// symbol by symbol, at every point.
        #[test]
        fn step_all_into_equals_per_op_step(seed in 0u64..1_000, len in 0usize..24, point in 0usize..4) {
            let (q1, q2) = [(true, true), (true, false), (false, true), (false, false)][point];
            let domain = [1, 4, 6, 9];
            let rep = RepViewAutomaton::new(q1, q2, &domain);
            prop_assert_eq!(check_step_all_into(&rep, &queue_alphabet(&domain), len, seed), Ok(()));
        }
    }

    /// `defined` answers what `step` does at every state a history of
    /// at most 8 operations over 3 items reaches, at every point, for
    /// every symbol and for both ops on an item outside the domain.
    #[test]
    fn defined_agrees_with_step() {
        let domain = [1, 2, 3];
        let mut alphabet = queue_alphabet(&domain);
        alphabet.extend([QueueOp::Enq(5), QueueOp::Deq(5)]);
        for (q1, q2) in [(true, true), (true, false), (false, true), (false, false)] {
            let rep = RepViewAutomaton::new(q1, q2, &domain);
            let checked = check_defined(&rep, &alphabet, 8);
            assert!(
                matches!(checked, Ok(n) if n > 1),
                "({q1}, {q2}): {checked:?}"
            );
        }
    }

    /// The load-bearing equivalence: at every lattice point, the quotient
    /// accepts exactly the QCA's language (checked against the literal
    /// Definition-1/2 view enumeration).
    #[test]
    fn quotient_matches_qca_at_every_point() {
        for &(q1, q2) in &[(true, true), (true, false), (false, true), (false, false)] {
            for (domain, max_len) in [(vec![1, 2], 5), (vec![1, 2, 3], 4)] {
                let alphabet = queue_alphabet(&domain);
                let rep = RepViewAutomaton::new(q1, q2, &domain);
                let outcome = compare_upto(
                    &qca(q1, q2),
                    &rep,
                    &alphabet,
                    max_len,
                    CompareOptions::counting(),
                );
                assert!(
                    outcome.agree(),
                    "point ({q1},{q2}) domain {domain:?}: {:?} / {:?}",
                    outcome.left_not_in_right,
                    outcome.right_not_in_left,
                );
                assert_eq!(
                    outcome.left_sizes, outcome.right_sizes,
                    "point ({q1},{q2}) domain {domain:?} sizes"
                );
            }
        }
    }

    /// The whole point of the quotient: the QCA's history states never
    /// merge, the view states do.
    #[test]
    fn quotient_states_merge() {
        let domain = vec![1, 2];
        let alphabet = queue_alphabet(&domain);
        let rep = RepViewAutomaton::new(true, false, &domain);
        // Each automaton against itself: the walk's levels are the
        // automaton's own reachable state sets.
        let qca = qca(true, false);
        let qca_walk = compare_upto(&qca, &qca, &alphabet, 5, CompareOptions::counting());
        let rep_walk = compare_upto(&rep, &rep, &alphabet, 5, CompareOptions::counting());
        assert_eq!(qca_walk.left_sizes, rep_walk.left_sizes);
        assert!(rep_walk.peak_level_width < qca_walk.peak_level_width);
    }
}
