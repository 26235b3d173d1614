//! Bounded exploration of automaton languages.
//!
//! The paper compares specifications by comparing the languages their
//! automata accept (`L(A)`, §2.1–2.2): a relaxation lattice is ordered by
//! *reverse inclusion* of languages. Languages are infinite in general, so
//! this module enumerates and compares them **up to a length bound over a
//! finite operation alphabet** — sufficient for the paper's inductive
//! arguments (e.g. Theorem 4's proof is an induction on history length),
//! and made explicit in every verdict this module returns.
//!
//! Languages of object automata are prefix-closed (`δ*(H·p) ≠ ∅` implies
//! `δ*(H) ≠ ∅`), which the enumerators exploit: unaccepted branches are
//! pruned immediately.
//!
//! Counting and comparison run on the one bounded walk of
//! [`crate::multiwalk`]: histories reaching the same pair of state sets
//! collapse into one node, and counterexamples are rebuilt
//! from parent pointers. The materializing enumerators survive in
//! [`naive`] as the reference implementation the differential tests
//! compare against; [`language_upto`] is the one of them callers use
//! directly (they iterate the histories), everything else is
//! walk-backed.

use std::marker::PhantomData;

use crate::automaton::ObjectAutomaton;
use crate::history::History;
use crate::multiwalk::{compare_upto, CompareOptions, StopWhen};

pub use naive::language_upto;

/// A counterexample to a language-inclusion claim: a history accepted by
/// the left automaton but not the right.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample<Op> {
    /// The offending history.
    pub history: History<Op>,
}

/// Accepts `Λ` and nothing else: the right side that turns the product
/// walk into a count of the left language alone.
struct OnlyLambda<Op>(PhantomData<Op>);

impl<Op: Clone + Eq + std::hash::Hash + std::fmt::Debug> ObjectAutomaton for OnlyLambda<Op> {
    type State = ();
    type Op = Op;
    fn initial_state(&self) {}
    fn step(&self, _state: &(), _op: &Op) -> Vec<()> {
        Vec::new()
    }
}

/// Counts *distinct* accepted histories per length: `result[n]` is the
/// number of accepted histories of length exactly `n`, for
/// `n = 0..=max_len`. Useful for "behavior complexity" growth curves:
/// relaxing constraints grows every entry.
pub fn language_sizes<A>(automaton: &A, alphabet: &[A::Op], max_len: usize) -> Vec<usize>
where
    A: ObjectAutomaton,
{
    let left_only = CompareOptions {
        walk_right_only: false,
        stop: StopWhen::Never,
    };
    compare_upto(
        automaton,
        &OnlyLambda(PhantomData),
        alphabet,
        max_len,
        left_only,
    )
    .left_sizes
    .into_iter()
    .map(|n| usize::try_from(n).expect("count exceeds usize"))
    .collect()
}

/// Checks `L(left) ⊆ L(right)` for all histories of length ≤ `max_len`
/// over `alphabet`. Returns a shallowest counterexample, if any.
///
/// `left` and `right` may have different state types; only the operation
/// alphabet must coincide.
pub fn included_upto<L, R>(
    left: &L,
    right: &R,
    alphabet: &[L::Op],
    max_len: usize,
) -> Result<(), Counterexample<L::Op>>
where
    L: ObjectAutomaton,
    R: ObjectAutomaton<Op = L::Op>,
{
    match compare_upto(left, right, alphabet, max_len, CompareOptions::inclusion())
        .left_not_in_right
    {
        Some(history) => Err(Counterexample { history }),
        None => Ok(()),
    }
}

/// Checks `L(left) = L(right)` up to `max_len` over `alphabet` in a
/// single walk. On failure reports a shallowest difference
/// (preferring the left-to-right direction on ties).
pub fn equal_upto<L, R>(
    left: &L,
    right: &R,
    alphabet: &[L::Op],
    max_len: usize,
) -> Result<(), LanguageDifference<L::Op>>
where
    L: ObjectAutomaton,
    R: ObjectAutomaton<Op = L::Op>,
{
    let cmp = compare_upto(left, right, alphabet, max_len, CompareOptions::equality());
    match (cmp.left_not_in_right, cmp.right_not_in_left) {
        (None, None) => Ok(()),
        (Some(l), None) => Err(LanguageDifference::LeftNotInRight(l)),
        (None, Some(r)) => Err(LanguageDifference::RightNotInLeft(r)),
        (Some(l), Some(r)) => {
            if l.len() <= r.len() {
                Err(LanguageDifference::LeftNotInRight(l))
            } else {
                Err(LanguageDifference::RightNotInLeft(r))
            }
        }
    }
}

/// Why two languages differ (up to the checked bound).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LanguageDifference<Op> {
    /// A history accepted by the left automaton but not the right.
    LeftNotInRight(History<Op>),
    /// A history accepted by the right automaton but not the left.
    RightNotInLeft(History<Op>),
}

/// Checks that `L(left) ⊊ L(right)` up to the bound: inclusion holds and
/// some witness history is accepted by `right` only. Returns the witness.
pub fn strictly_included_upto<L, R>(
    left: &L,
    right: &R,
    alphabet: &[L::Op],
    max_len: usize,
) -> Result<History<L::Op>, StrictInclusionFailure<L::Op>>
where
    L: ObjectAutomaton,
    R: ObjectAutomaton<Op = L::Op>,
{
    let cmp = compare_upto(left, right, alphabet, max_len, CompareOptions::strictness());
    if let Some(history) = cmp.left_not_in_right {
        return Err(StrictInclusionFailure::NotIncluded(history));
    }
    match cmp.right_not_in_left {
        Some(witness) => Ok(witness),
        None => Err(StrictInclusionFailure::NoWitness),
    }
}

/// Why a strict-inclusion check failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrictInclusionFailure<Op> {
    /// Plain inclusion already fails, with this counterexample.
    NotIncluded(History<Op>),
    /// The languages coincide up to the bound (no strictness witness).
    NoWitness,
}

pub mod naive {
    //! The materializing enumerators, kept as the reference
    //! implementation: a BFS whose frontier holds one cloned `History`
    //! plus a cloned `HashSet<State>` per accepted history. Exponentially
    //! wasteful next to [`crate::multiwalk`], but independently simple —
    //! the differential tests in `tests/language_engine.rs` hold the walk
    //! to this module's answers.

    use std::collections::HashSet;

    use super::{Counterexample, LanguageDifference, StrictInclusionFailure};
    use crate::automaton::ObjectAutomaton;
    use crate::history::History;

    /// The BFS frontier used by the enumerators: accepted histories paired
    /// with their reachable state sets.
    type Frontier<Op, S> = Vec<(History<Op>, HashSet<S>)>;

    /// Enumerates `L(A)` restricted to histories of length at most
    /// `max_len` over the finite `alphabet`, each history once, shortest
    /// first and in `alphabet` order within a length — so a caller that
    /// reports the first history with some property reports a shallowest
    /// one, the same on every run. The empty history always comes first
    /// (every object automaton accepts `Λ`).
    pub fn language_upto<A>(
        automaton: &A,
        alphabet: &[A::Op],
        max_len: usize,
    ) -> Vec<History<A::Op>>
    where
        A: ObjectAutomaton,
    {
        let mut accepted = vec![History::empty()];
        // Frontier of (history, reachable-state-set) pairs.
        let mut frontier: Frontier<A::Op, A::State> =
            vec![(History::empty(), HashSet::from([automaton.initial_state()]))];

        for _ in 0..max_len {
            let mut next_frontier = Vec::new();
            for (h, states) in &frontier {
                for op in alphabet {
                    let mut next_states: HashSet<A::State> = HashSet::new();
                    for s in states {
                        for s2 in automaton.step(s, op) {
                            next_states.insert(s2);
                        }
                    }
                    if !next_states.is_empty() {
                        let h2 = h.appended(op.clone());
                        accepted.push(h2.clone());
                        next_frontier.push((h2, next_states));
                    }
                }
            }
            if next_frontier.is_empty() {
                break;
            }
            frontier = next_frontier;
        }
        accepted
    }

    /// Counts accepted histories per length by frontier width: `result[n]`
    /// is the number of accepted histories of length exactly `n`, for
    /// `n = 0..=max_len`.
    pub fn language_sizes<A>(automaton: &A, alphabet: &[A::Op], max_len: usize) -> Vec<usize>
    where
        A: ObjectAutomaton,
    {
        let mut sizes = vec![1usize]; // the empty history
        let mut frontier: Frontier<A::Op, A::State> =
            vec![(History::empty(), HashSet::from([automaton.initial_state()]))];
        for _ in 0..max_len {
            let mut next_frontier = Vec::new();
            for (h, states) in &frontier {
                for op in alphabet {
                    let mut next_states: HashSet<A::State> = HashSet::new();
                    for s in states {
                        next_states.extend(automaton.step(s, op));
                    }
                    if !next_states.is_empty() {
                        next_frontier.push((h.appended(op.clone()), next_states));
                    }
                }
            }
            sizes.push(next_frontier.len());
            if next_frontier.is_empty() {
                // Pad remaining lengths with zero and stop exploring.
                while sizes.len() <= max_len {
                    sizes.push(0);
                }
                break;
            }
            frontier = next_frontier;
        }
        sizes
    }

    /// Checks `L(left) ⊆ L(right)` for all histories of length ≤
    /// `max_len` over `alphabet`. Returns the first counterexample found,
    /// if any.
    pub fn included_upto<L, R>(
        left: &L,
        right: &R,
        alphabet: &[L::Op],
        max_len: usize,
    ) -> Result<(), Counterexample<L::Op>>
    where
        L: ObjectAutomaton,
        R: ObjectAutomaton<Op = L::Op>,
    {
        // Walk left's accepted tree, tracking right's state sets alongside.
        #[allow(clippy::type_complexity)]
        let mut frontier: Vec<(History<L::Op>, HashSet<L::State>, HashSet<R::State>)> = vec![(
            History::empty(),
            HashSet::from([left.initial_state()]),
            HashSet::from([right.initial_state()]),
        )];

        for _ in 0..max_len {
            let mut next_frontier = Vec::new();
            for (h, lstates, rstates) in &frontier {
                for op in alphabet {
                    let mut lnext: HashSet<L::State> = HashSet::new();
                    for s in lstates {
                        lnext.extend(left.step(s, op));
                    }
                    if lnext.is_empty() {
                        continue; // left rejects; nothing to check
                    }
                    let mut rnext: HashSet<R::State> = HashSet::new();
                    for s in rstates {
                        rnext.extend(right.step(s, op));
                    }
                    let h2 = h.appended(op.clone());
                    if rnext.is_empty() {
                        return Err(Counterexample { history: h2 });
                    }
                    next_frontier.push((h2, lnext, rnext));
                }
            }
            if next_frontier.is_empty() {
                return Ok(());
            }
            frontier = next_frontier;
        }
        Ok(())
    }

    /// Checks `L(left) = L(right)` up to `max_len` over `alphabet` as two
    /// sequential inclusion passes.
    pub fn equal_upto<L, R>(
        left: &L,
        right: &R,
        alphabet: &[L::Op],
        max_len: usize,
    ) -> Result<(), LanguageDifference<L::Op>>
    where
        L: ObjectAutomaton,
        R: ObjectAutomaton<Op = L::Op>,
    {
        if let Err(c) = included_upto(left, right, alphabet, max_len) {
            return Err(LanguageDifference::LeftNotInRight(c.history));
        }
        if let Err(c) = included_upto(right, left, alphabet, max_len) {
            return Err(LanguageDifference::RightNotInLeft(c.history));
        }
        Ok(())
    }

    /// Checks that `L(left) ⊊ L(right)` up to the bound: inclusion holds
    /// and some witness history is accepted by `right` only. Returns the
    /// witness.
    pub fn strictly_included_upto<L, R>(
        left: &L,
        right: &R,
        alphabet: &[L::Op],
        max_len: usize,
    ) -> Result<History<L::Op>, StrictInclusionFailure<L::Op>>
    where
        L: ObjectAutomaton,
        R: ObjectAutomaton<Op = L::Op>,
    {
        if let Err(c) = included_upto(left, right, alphabet, max_len) {
            return Err(StrictInclusionFailure::NotIncluded(c.history));
        }
        match included_upto(right, left, alphabet, max_len) {
            Err(c) => Ok(c.history),
            Ok(()) => Err(StrictInclusionFailure::NoWitness),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIFO queue over a 2-item alphabet.
    #[derive(Debug, Clone)]
    struct Fifo;
    /// Bag over the same alphabet: Deq may remove any present item.
    #[derive(Debug, Clone)]
    struct Bag;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Op {
        Enq(u8),
        Deq(u8),
    }

    fn alphabet() -> Vec<Op> {
        vec![Op::Enq(1), Op::Enq(2), Op::Deq(1), Op::Deq(2)]
    }

    impl ObjectAutomaton for Fifo {
        type State = Vec<u8>;
        type Op = Op;
        fn initial_state(&self) -> Vec<u8> {
            Vec::new()
        }
        fn step(&self, s: &Vec<u8>, op: &Op) -> Vec<Vec<u8>> {
            match op {
                Op::Enq(x) => {
                    let mut s2 = s.clone();
                    s2.push(*x);
                    vec![s2]
                }
                Op::Deq(x) => {
                    if s.first() == Some(x) {
                        vec![s[1..].to_vec()]
                    } else {
                        vec![]
                    }
                }
            }
        }
    }

    impl ObjectAutomaton for Bag {
        type State = Vec<u8>;
        type Op = Op;
        fn initial_state(&self) -> Vec<u8> {
            Vec::new()
        }
        fn step(&self, s: &Vec<u8>, op: &Op) -> Vec<Vec<u8>> {
            match op {
                Op::Enq(x) => {
                    let mut s2 = s.clone();
                    s2.push(*x);
                    s2.sort_unstable();
                    vec![s2]
                }
                Op::Deq(x) => match s.iter().position(|y| y == x) {
                    Some(i) => {
                        let mut s2 = s.clone();
                        s2.remove(i);
                        vec![s2]
                    }
                    None => vec![],
                },
            }
        }
    }

    #[test]
    fn language_counts_small() {
        // Length ≤ 1: Λ, Enq(1), Enq(2). (Deq undefined initially.)
        let lang = language_upto(&Fifo, &alphabet(), 1);
        assert_eq!(lang.len(), 3);
    }

    #[test]
    fn fifo_included_in_bag() {
        assert!(included_upto(&Fifo, &Bag, &alphabet(), 5).is_ok());
    }

    #[test]
    fn bag_not_included_in_fifo() {
        let err = included_upto(&Bag, &Fifo, &alphabet(), 5).unwrap_err();
        // The counterexample dequeues out of FIFO order.
        assert!(Bag.accepts(&err.history));
        assert!(!Fifo.accepts(&err.history));
    }

    #[test]
    fn strict_inclusion_fifo_in_bag() {
        let witness = strictly_included_upto(&Fifo, &Bag, &alphabet(), 5).unwrap();
        assert!(Bag.accepts(&witness));
        assert!(!Fifo.accepts(&witness));
    }

    #[test]
    fn equality_is_reflexive_and_detects_differences() {
        assert!(equal_upto(&Fifo, &Fifo, &alphabet(), 4).is_ok());
        let err = equal_upto(&Fifo, &Bag, &alphabet(), 4).unwrap_err();
        assert!(matches!(err, LanguageDifference::RightNotInLeft(_)));
    }

    #[test]
    fn language_upto_is_distinct_and_in_length_then_alphabet_order() {
        let alphabet = alphabet();
        let lang = language_upto(&Bag, &alphabet, 4);
        let rank = |op: &Op| alphabet.iter().position(|a| a == op).expect("in alphabet");
        let key = |h: &History<Op>| (h.len(), h.iter().map(rank).collect::<Vec<_>>());
        // Strictly increasing keys: sorted, and no history twice.
        for pair in lang.windows(2) {
            assert!(
                key(&pair[0]) < key(&pair[1]),
                "{:?} before {:?}",
                pair[0],
                pair[1]
            );
        }
        assert_eq!(lang, language_upto(&Bag, &alphabet, 4));
    }

    #[test]
    fn language_is_prefix_closed() {
        let lang = language_upto(&Bag, &alphabet(), 4);
        for h in &lang {
            for n in 0..h.len() {
                assert!(lang.contains(&h.prefix(n)), "prefix missing for {h:?}");
            }
        }
    }

    #[test]
    fn strictness_without_witness_reports_no_witness() {
        let err = strictly_included_upto(&Fifo, &Fifo, &alphabet(), 3).unwrap_err();
        assert_eq!(err, StrictInclusionFailure::NoWitness);
    }

    #[test]
    fn walk_finds_shallowest_violation() {
        let cmp = compare_upto(&Bag, &Fifo, &alphabet(), 5, CompareOptions::inclusion());
        let witness = cmp.left_not_in_right.expect("bag not included in fifo");
        // Shallowest possible out-of-FIFO-order history has length 3.
        assert_eq!(witness.len(), 3);
        assert!(Bag.accepts(&witness));
        assert!(!Fifo.accepts(&witness));
        assert!(cmp.right_not_in_left.is_none());
    }

    #[test]
    fn counting_walk_counts_both_sides() {
        let cmp = compare_upto(&Fifo, &Bag, &alphabet(), 4, CompareOptions::counting());
        assert_eq!(
            cmp.left_total() as usize,
            language_upto(&Fifo, &alphabet(), 4).len()
        );
        assert_eq!(
            cmp.right_total() as usize,
            language_upto(&Bag, &alphabet(), 4).len()
        );
        assert!(cmp.left_not_in_right.is_none());
        assert!(cmp.right_not_in_left.is_some());
    }

    #[test]
    fn walk_collapses_merged_state_sets() {
        // In the bag, Enq(1)·Enq(2) and Enq(2)·Enq(1) reach the same
        // multiset: level 2 holds fewer nodes than histories. The naive
        // frontier holds one entry per history instead.
        let cmp = compare_upto(&Bag, &Bag, &alphabet(), 2, CompareOptions::counting());
        assert!((cmp.peak_level_width as u64) < cmp.left_sizes[2]);
    }

    #[test]
    fn intersection_automaton_accepts_common_language() {
        use crate::automaton::IntersectionAutomaton;
        let inter = IntersectionAutomaton::new(Fifo, Bag);
        let bag_lang = language_upto(&Bag, &alphabet(), 4);
        let expected: Vec<_> = language_upto(&Fifo, &alphabet(), 4)
            .into_iter()
            .filter(|h| bag_lang.contains(h))
            .collect();
        assert_eq!(language_upto(&inter, &alphabet(), 4), expected);
    }

    #[test]
    fn engine_matches_naive_on_the_test_automata() {
        for len in 0..=5 {
            assert_eq!(
                language_sizes(&Fifo, &alphabet(), len),
                naive::language_sizes(&Fifo, &alphabet(), len)
            );
            assert_eq!(
                language_sizes(&Bag, &alphabet(), len),
                naive::language_sizes(&Bag, &alphabet(), len)
            );
        }
        assert_eq!(
            included_upto(&Fifo, &Bag, &alphabet(), 5).is_ok(),
            naive::included_upto(&Fifo, &Bag, &alphabet(), 5).is_ok()
        );
        assert_eq!(
            equal_upto(&Fifo, &Bag, &alphabet(), 5).is_err(),
            naive::equal_upto(&Fifo, &Bag, &alphabet(), 5).is_err()
        );
    }
}

#[cfg(test)]
mod size_tests {
    use super::*;
    use crate::automaton::ObjectAutomaton;

    /// Unit automaton accepting only `op 0` forever.
    #[derive(Debug, Clone)]
    struct OneOp;
    impl ObjectAutomaton for OneOp {
        type State = ();
        type Op = u8;
        fn initial_state(&self) {}
        fn step(&self, _s: &(), op: &u8) -> Vec<()> {
            if *op == 0 {
                vec![()]
            } else {
                vec![]
            }
        }
    }

    #[test]
    fn sizes_count_per_length() {
        let sizes = language_sizes(&OneOp, &[0u8, 1u8], 4);
        assert_eq!(sizes, vec![1, 1, 1, 1, 1]);
    }

    #[test]
    fn sizes_sum_to_language_upto() {
        let sizes = language_sizes(&OneOp, &[0u8, 1u8], 3);
        let total: usize = sizes.iter().sum();
        assert_eq!(total, language_upto(&OneOp, &[0u8, 1u8], 3).len());
    }

    /// A dead-end automaton pads with zeros.
    #[derive(Debug, Clone)]
    struct TwoSteps;
    impl ObjectAutomaton for TwoSteps {
        type State = u8;
        type Op = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn step(&self, s: &u8, _op: &u8) -> Vec<u8> {
            if *s < 2 {
                vec![s + 1]
            } else {
                vec![]
            }
        }
    }

    #[test]
    fn dead_ends_pad_zeros() {
        let sizes = language_sizes(&TwoSteps, &[0u8], 5);
        assert_eq!(sizes, vec![1, 1, 1, 0, 0, 0]);
    }
}
