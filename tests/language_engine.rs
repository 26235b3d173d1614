//! Differential tests: the bounded language walk vs the retained naive
//! enumerators, on seeded random automata.
//!
//! The naive module is the executable specification: it materializes
//! every accepted history, so disagreement at any bound is a walk bug.
//! Random automata cover shapes the hand-written queue examples never
//! reach — unreachable operations, dead-end states, heavy
//! nondeterministic fan-out.

use std::collections::HashSet;

use proptest::prelude::*;
use relaxation_lattice::automata::language::naive;
use relaxation_lattice::automata::multiwalk::{
    compare_upto, CompareOptions, LanguageComparison, LanguageWalker, StopWhen,
};
use relaxation_lattice::automata::{
    equal_upto, included_upto, language_sizes, random_history, Acceptor, History,
    LanguageDifference, NoopProbe, ObjectAutomaton, SplitMix64,
};
use relaxation_lattice::core::lattices::taxi::{TaxiPoint, TaxiRefState, TaxiReference};
use relaxation_lattice::queues::{
    queue_alphabet, BagAutomaton, DegenPqAutomaton, MpqAutomaton, OpqAutomaton, PQueueAutomaton,
    QueueOp,
};

/// A random nondeterministic automaton over states `0..states` and
/// operations `0..ops`, with a fixed transition table drawn from a seed.
#[derive(Debug, Clone)]
struct RandomAutomaton {
    states: u8,
    /// `table[s][op]` = successor states of `δ(s, op)` (possibly empty).
    table: Vec<Vec<Vec<u8>>>,
}

impl RandomAutomaton {
    /// Draws a table where each `(state, op)` pair gets each successor
    /// independently with probability `density` (so δ is partial and
    /// nondeterministic in roughly equal measure).
    fn generate(seed: u64, states: u8, ops: u8, density: f64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let table = (0..states)
            .map(|_| {
                (0..ops)
                    .map(|_| {
                        (0..states)
                            .filter(|_| rng.gen_bool(density))
                            .collect::<Vec<u8>>()
                    })
                    .collect()
            })
            .collect();
        RandomAutomaton { states, table }
    }

    fn alphabet(&self) -> Vec<u8> {
        (0..self.table[0].len() as u8).collect()
    }
}

impl ObjectAutomaton for RandomAutomaton {
    type State = u8;
    type Op = u8;

    fn initial_state(&self) -> u8 {
        0
    }

    fn step(&self, s: &u8, op: &u8) -> Vec<u8> {
        debug_assert!(*s < self.states);
        self.table[*s as usize][*op as usize].clone()
    }
}

/// A seeded pair of random automata over a shared alphabet of `ops`
/// operations (drawn from the seed when `None`).
fn random_pair_over(seed: u64, ops: Option<u8>) -> (RandomAutomaton, RandomAutomaton, Vec<u8>) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let states = 2 + (rng.next_u64() % 4) as u8; // 2..=5
    let drawn_ops = 2 + (rng.next_u64() % 2) as u8; // 2..=3
    let ops = ops.unwrap_or(drawn_ops);
    let density = 0.15 + rng.next_f64() * 0.35;
    let a = RandomAutomaton::generate(rng.next_u64(), states, ops, density);
    let b = RandomAutomaton::generate(rng.next_u64(), states, ops, density);
    let alphabet = a.alphabet();
    (a, b, alphabet)
}

fn random_pair(seed: u64) -> (RandomAutomaton, RandomAutomaton, Vec<u8>) {
    random_pair_over(seed, None)
}

const SEEDS: u64 = 60;
const MAX_LEN: usize = 5;

fn by_len<'a>(histories: impl IntoIterator<Item = &'a History<u8>>) -> Vec<u64> {
    let mut counts = vec![0u64; MAX_LEN + 1];
    for h in histories {
        counts[h.len()] += 1;
    }
    counts
}

#[test]
fn engine_sizes_match_naive_enumeration() {
    for seed in 0..SEEDS {
        let (a, _, alphabet) = random_pair(seed);
        let lang = naive::language_upto(&a, &alphabet, MAX_LEN);
        let expected: Vec<usize> = by_len(&lang).into_iter().map(|n| n as usize).collect();
        assert_eq!(
            language_sizes(&a, &alphabet, MAX_LEN),
            expected,
            "seed {seed}"
        );
    }
}

#[test]
fn engine_inclusion_matches_naive_and_witnesses_are_real() {
    for seed in 0..SEEDS {
        let (a, b, alphabet) = random_pair(seed);
        let engine = included_upto(&a, &b, &alphabet, MAX_LEN);
        let naive_verdict = naive::included_upto(&a, &b, &alphabet, MAX_LEN);
        assert_eq!(
            engine.is_ok(),
            naive_verdict.is_ok(),
            "seed {seed}: engine {engine:?} vs naive {naive_verdict:?}"
        );
        if let Err(ce) = engine {
            assert!(ce.history.len() <= MAX_LEN, "seed {seed}");
            assert!(a.accepts(&ce.history), "seed {seed}: left rejects witness");
            assert!(
                !b.accepts(&ce.history),
                "seed {seed}: right accepts witness"
            );
        }
    }
}

#[test]
fn engine_equality_matches_naive_and_differences_are_real() {
    for seed in 0..SEEDS {
        let (a, b, alphabet) = random_pair(seed);
        let engine = equal_upto(&a, &b, &alphabet, MAX_LEN);
        let naive_verdict = naive::equal_upto(&a, &b, &alphabet, MAX_LEN);
        assert_eq!(engine.is_ok(), naive_verdict.is_ok(), "seed {seed}");
        match engine {
            Ok(()) => {}
            Err(LanguageDifference::LeftNotInRight(h)) => {
                assert!(a.accepts(&h) && !b.accepts(&h), "seed {seed}");
            }
            Err(LanguageDifference::RightNotInLeft(h)) => {
                assert!(b.accepts(&h) && !a.accepts(&h), "seed {seed}");
            }
        }
    }
}

#[test]
fn counting_walk_counts_match_naive_on_both_sides() {
    for seed in 0..SEEDS {
        let (a, b, alphabet) = random_pair(seed);
        let cmp = compare_upto(&a, &b, &alphabet, MAX_LEN, CompareOptions::counting());
        assert_eq!(
            cmp.left_total() as usize,
            naive::language_upto(&a, &alphabet, MAX_LEN).len(),
            "seed {seed}"
        );
        assert_eq!(
            cmp.right_total() as usize,
            naive::language_upto(&b, &alphabet, MAX_LEN).len(),
            "seed {seed}"
        );
    }
}

/// `inner` cut off after `cap` operations: accepts exactly the histories
/// of `L(inner)` no longer than `cap`.
struct UpTo<'a> {
    inner: &'a RandomAutomaton,
    cap: usize,
}

impl ObjectAutomaton for UpTo<'_> {
    type State = (u8, usize);
    type Op = u8;

    fn initial_state(&self) -> (u8, usize) {
        (self.inner.initial_state(), 0)
    }

    fn step(&self, &(s, depth): &(u8, usize), op: &u8) -> Vec<(u8, usize)> {
        if depth == self.cap {
            return Vec::new();
        }
        let next = self.inner.step(&s, op);
        next.into_iter().map(|t| (t, depth + 1)).collect()
    }
}

#[test]
fn subset_graph_is_prefix_closed_and_reaches_what_it_claims() {
    // Cutting the right side off at every depth in turn makes the walk
    // rebuild one history per level from its parent pointers.
    for seed in 0..SEEDS / 3 {
        let (a, _, alphabet) = random_pair(seed);
        let lang = naive::language_upto(&a, &alphabet, MAX_LEN);
        let sizes = by_len(&lang);
        for cap in 0..MAX_LEN {
            let cut = UpTo { inner: &a, cap };
            let cmp = compare_upto(&a, &cut, &alphabet, MAX_LEN, CompareOptions::counting());
            assert_eq!(cmp.left_sizes, sizes, "seed {seed} cap {cap}");
            assert_eq!(
                cmp.right_sizes[..=cap],
                sizes[..=cap],
                "seed {seed} cap {cap}"
            );
            assert!(cmp.right_sizes[cap + 1..].iter().all(|&n| n == 0));
            assert_eq!(cmp.right_not_in_left, None, "seed {seed} cap {cap}");
            let Some(h) = cmp.left_not_in_right else {
                assert_eq!(sizes[cap + 1], 0, "seed {seed} cap {cap}: witness missed");
                continue;
            };
            assert_eq!(h.len(), cap + 1, "seed {seed} cap {cap}");
            // Prefix closure: the rebuilt history and all its prefixes
            // are accepted, and it reaches a nonempty state set.
            for n in 0..=h.len() {
                assert!(
                    lang.contains(&h.prefix(n)),
                    "seed {seed} cap {cap}: prefix of length {n} missing"
                );
            }
            assert!(!a.delta_star(&h).is_empty(), "seed {seed} cap {cap}");
        }
    }
}

const PRESETS: [fn() -> CompareOptions; 4] = [
    CompareOptions::inclusion,
    CompareOptions::equality,
    CompareOptions::strictness,
    CompareOptions::counting,
];

/// What the naive enumerators say about one (left, right) pair.
struct Reference {
    left_sizes: Vec<u64>,
    right_sizes: Vec<u64>,
    /// Per-length sizes of `L(left) ∩ L(right)`.
    common_sizes: Vec<u64>,
    /// Length of the shortest history in `L(left) ∖ L(right)`.
    left_only: Option<usize>,
    /// Length of the shortest history in `L(right) ∖ L(left)`.
    right_only: Option<usize>,
}

impl Reference {
    fn of(a: &RandomAutomaton, b: &RandomAutomaton, alphabet: &[u8]) -> Self {
        // Shortest first, so `find` yields a shallowest difference.
        let left = naive::language_upto(a, alphabet, MAX_LEN);
        let right = naive::language_upto(b, alphabet, MAX_LEN);
        let in_left: HashSet<&History<u8>> = left.iter().collect();
        let in_right: HashSet<&History<u8>> = right.iter().collect();
        Reference {
            left_sizes: by_len(&left),
            right_sizes: by_len(&right),
            common_sizes: by_len(left.iter().filter(|h| in_right.contains(h))),
            left_only: left
                .iter()
                .find(|h| !in_right.contains(h))
                .map(History::len),
            right_only: right
                .iter()
                .find(|h| !in_left.contains(h))
                .map(History::len),
        }
    }

    /// The last level a point walks under `options`: where its stop
    /// condition first holds, or the bound.
    fn stop_level(&self, options: CompareOptions) -> usize {
        let right_only = self.right_only.filter(|_| options.walk_right_only);
        let stop = match options.stop {
            StopWhen::AnyViolation => self.left_only.into_iter().chain(right_only).min(),
            StopWhen::BothViolations if options.walk_right_only => {
                self.left_only.zip(right_only).map(|(l, r)| l.max(r))
            }
            StopWhen::BothViolations => self.left_only,
            StopWhen::Never => None,
        };
        stop.unwrap_or(MAX_LEN)
    }

    /// Holds `cmp` — one point of a walk under `options` — to the naive
    /// answers: which witnesses exist, that each is real and shallowest,
    /// and the per-length counts of every level the point walked.
    fn check(
        &self,
        cmp: &LanguageComparison<u8>,
        a: &RandomAutomaton,
        b: &RandomAutomaton,
        options: CompareOptions,
        what: &str,
    ) {
        let stop = self.stop_level(options);
        let upto_stop = |sizes: &[u64]| -> Vec<u64> {
            let mut seen = sizes.to_vec();
            seen[stop + 1..].fill(0);
            seen
        };
        assert_eq!(
            cmp.left_sizes,
            upto_stop(&self.left_sizes),
            "{what}: left sizes"
        );
        let right = if options.walk_right_only {
            &self.right_sizes
        } else {
            &self.common_sizes
        };
        assert_eq!(cmp.right_sizes, upto_stop(right), "{what}: right sizes");

        let within = |len: Option<usize>| len.filter(|&l| l <= stop);
        assert_eq!(
            cmp.left_not_in_right.as_ref().map(History::len),
            within(self.left_only),
            "{what}: left witness depth"
        );
        assert_eq!(
            cmp.right_not_in_left.as_ref().map(History::len),
            within(self.right_only.filter(|_| options.walk_right_only)),
            "{what}: right witness depth"
        );
        if let Some(h) = &cmp.left_not_in_right {
            assert!(a.accepts(h) && !b.accepts(h), "{what}: left witness {h:?}");
        }
        if let Some(h) = &cmp.right_not_in_left {
            assert!(b.accepts(h) && !a.accepts(h), "{what}: right witness {h:?}");
        }
    }
}

#[test]
fn every_preset_matches_naive_at_one_point() {
    for seed in 0..SEEDS {
        let (a, b, alphabet) = random_pair(seed);
        let reference = Reference::of(&a, &b, &alphabet);
        for preset in PRESETS {
            let options = preset();
            let cmp = compare_upto(&a, &b, &alphabet, MAX_LEN, options);
            reference.check(&cmp, &a, &b, options, &format!("seed {seed} {options:?}"));
        }
    }
}

#[test]
fn two_points_sharing_a_walk_each_match_their_own_walk_and_naive() {
    // One walker for every seed, preset and pair, so each walk starts in
    // buffers the walks before it filled: a reset that kept any of their
    // states, sets or rows would answer for the wrong pair. Counts how
    // often the two pairs of a seed stop at different levels, so a walk
    // follows one that stopped earlier or later than it does.
    let mut walker = LanguageWalker::new();
    let mut staggered_stops = 0;
    for seed in 0..SEEDS {
        let (a, b, alphabet) = random_pair(seed);
        let (c, d, _) = random_pair_over(seed + SEEDS, Some(alphabet.len() as u8));
        let references = [
            Reference::of(&a, &b, &alphabet),
            Reference::of(&c, &d, &alphabet),
        ];
        let pairs = [(&a, &b), (&c, &d)];
        for preset in PRESETS {
            let options = preset();
            for (p, (&(l, r), reference)) in pairs.iter().zip(&references).enumerate() {
                let what = format!("seed {seed} {options:?} pair {p}");
                let reused = walker.walk(l, r, &alphabet, MAX_LEN, options, &mut NoopProbe);
                reference.check(&reused, l, r, options, &what);
                let own = compare_upto(l, r, &alphabet, MAX_LEN, options);
                assert_eq!(reused.left_sizes, own.left_sizes, "{what}");
                assert_eq!(reused.right_sizes, own.right_sizes, "{what}");
                assert_eq!(reused.peak_level_width, own.peak_level_width, "{what}");
                assert_eq!(
                    reused.left_not_in_right.as_ref().map(History::len),
                    own.left_not_in_right.as_ref().map(History::len),
                    "{what}"
                );
                assert_eq!(
                    reused.right_not_in_left.as_ref().map(History::len),
                    own.right_not_in_left.as_ref().map(History::len),
                    "{what}"
                );
            }
            if references[0].stop_level(options) != references[1].stop_level(options) {
                staggered_stops += 1;
            }
        }
    }
    assert!(staggered_stops > 0, "no two pairs stopped apart");
}

#[test]
fn shared_taxi_walk_matches_naive_at_small_bounds() {
    use relaxation_lattice::core::theorem4::{verify_taxi_lattice, verify_taxi_lattice_naive};
    let shared = verify_taxi_lattice(&[1, 2], 4);
    let naive_v = verify_taxi_lattice_naive(&[1, 2], 4);
    for (s, n) in shared.points.iter().zip(&naive_v.points) {
        assert_eq!(s.point, n.point);
        assert_eq!(s.language_size, n.language_size, "{:?}", s.point);
        assert!(s.holds() && n.holds(), "{:?}", s.point);
    }
}

/// Steps an [`Acceptor`] along `ops` and holds it to the exact `δ*` after
/// every prefix: it accepts iff `δ*` is non-empty, as `accepts` does, and
/// holds distinct states of `δ*` — all of them when `exact`. Returns the
/// acceptor's states after the whole history.
fn acceptor_against_delta_star<A: ObjectAutomaton>(
    automaton: &A,
    ops: &[A::Op],
    exact: bool,
) -> Result<Vec<A::State>, String> {
    let mut acceptor = Acceptor::new(automaton.initial_state());
    for n in 0..=ops.len() {
        let alive = n == 0 || acceptor.step(automaton, &ops[n - 1]);
        let prefix = History::from(ops[..n].to_vec());
        let delta = automaton.delta_star(&prefix);
        let states = acceptor.states();
        let distinct: HashSet<&A::State> = states.iter().collect();
        let fails = [
            (alive == delta.is_empty(), "verdict differs from δ*"),
            (
                alive != automaton.accepts(&prefix),
                "verdict differs from accepts",
            ),
            (distinct.len() != states.len(), "duplicate states"),
            (
                states.iter().any(|s| !delta.contains(s)),
                "a state outside δ*",
            ),
            (
                exact && states.len() != delta.len(),
                "states missing from δ*",
            ),
        ];
        if let Some((_, why)) = fails.iter().find(|(failed, _)| *failed) {
            return Err(format!("{why} after {prefix:?}: {states:?} vs {delta:?}"));
        }
    }
    Ok(acceptor.states().to_vec())
}

/// A history of up to `len` operations: a random walk of `automaton`
/// (accepted) followed by a few arbitrary operations (mostly rejected).
fn walk_then_noise<A: ObjectAutomaton>(
    automaton: &A,
    alphabet: &[A::Op],
    len: usize,
    seed: u64,
) -> Vec<A::Op> {
    let mut ops = random_history(automaton, alphabet, len, seed)
        .ops()
        .to_vec();
    let mut rng = SplitMix64::seed_from_u64(seed);
    for _ in 0..rng.index(3) {
        ops.push(alphabet[rng.index(alphabet.len())].clone());
    }
    ops
}

proptest! {
    /// Every membership check steps the one acceptor; `δ*` is its oracle.
    #[test]
    fn acceptor_matches_delta_star(seed in 0u64..u64::MAX, len in 0usize..12) {
        let alphabet = queue_alphabet(&[1, 2, 3]);
        let outcomes = [
            ("PQ", at_most_one_state(&PQueueAutomaton::new(), &alphabet, len, seed)),
            ("OPQ", at_most_one_state(&OpqAutomaton::new(), &alphabet, len, seed)),
            ("MPQ", at_most_one_state(&MpqAutomaton::new(), &alphabet, len, seed)),
            ("DegenPQ", greatest_bag_only(&alphabet, len, seed)),
        ];
        for (name, outcome) in outcomes {
            prop_assert!(outcome.is_ok(), "{name}: {outcome:?}");
        }
        let bag = BagAutomaton::new();
        let ops = walk_then_noise(&bag, &alphabet, len, seed);
        let outcome = acceptor_against_delta_star(&bag, &ops, true);
        prop_assert!(outcome.is_ok(), "Bag: {outcome:?}");
        for point in TaxiPoint::all() {
            let reference = TaxiReference::new(point);
            let ops = walk_then_noise(&reference, &alphabet, len, seed);
            let outcome = reference_in_place(&reference, point, &ops);
            prop_assert!(outcome.is_ok(), "{point:?}: {outcome:?}");
        }
        let (a, _, ops) = random_pair(seed);
        let ops = walk_then_noise(&a, &ops, len, seed);
        let outcome = acceptor_against_delta_star(&a, &ops, true);
        prop_assert!(outcome.is_ok(), "random automaton of seed {seed}: {outcome:?}");
    }
}

/// A queue automaton whose in-place step is exact: its acceptor is `δ*`
/// and holds at most one state. These automata take `step` from their
/// in-place step, so this holds the acceptor's in-place path to its
/// copying one; `crates/queues/tests/step_in_place.rs` holds MPQ's
/// transition to Figure 3-3.
fn at_most_one_state<A: ObjectAutomaton<Op = QueueOp>>(
    automaton: &A,
    alphabet: &[QueueOp],
    len: usize,
    seed: u64,
) -> Result<(), String> {
    let ops = walk_then_noise(automaton, alphabet, len, seed);
    match acceptor_against_delta_star(automaton, &ops, true)?.len() {
        0 | 1 => Ok(()),
        n => Err(format!("{ops:?}: {n} states")),
    }
}

/// A taxi reference steps each point's own automaton in place: its
/// acceptor holds at most one state — all of `δ*` at the three exact
/// points, and at the degenerate one the ⊆-greatest bag of `δ*`, as
/// DegenPQ's own acceptor does.
fn reference_in_place(
    reference: &TaxiReference,
    point: TaxiPoint,
    ops: &[QueueOp],
) -> Result<(), String> {
    let states = acceptor_against_delta_star(reference, ops, point.q1 || point.q2)?;
    let delta = reference.delta_star(&History::from(ops.to_vec()));
    let within = |s: &TaxiRefState, greatest: &TaxiRefState| match (s, greatest) {
        (TaxiRefState::Bag(s), TaxiRefState::Bag(g)) => s.is_subbag(g),
        _ => s == greatest,
    };
    match states.as_slice() {
        [] => Ok(()),
        [one] if delta.iter().all(|s| within(s, one)) => Ok(()),
        _ => Err(format!("{ops:?}: {states:?} of {delta:?}")),
    }
}

/// Every point of the taxi reference answers `step_in_place`, so an
/// acceptor over it never clones a bag or an MPQ record per operation.
#[test]
fn every_taxi_reference_point_steps_in_place() {
    let script = [
        (QueueOp::Enq(2), true),
        (QueueOp::Deq(3), false),
        (QueueOp::Deq(2), true),
    ];
    for point in TaxiPoint::all() {
        let reference = TaxiReference::new(point);
        let mut state = reference.initial_state();
        for (op, alive) in &script {
            let stepped = reference.step_in_place(&mut state, op);
            assert_eq!(stepped, Some(*alive), "{point:?} {op:?}");
        }
    }
}

/// DegenPQ's in-place `Deq` keeps the item: its acceptor holds at most
/// one state, the ⊆-greatest bag of `δ*`.
fn greatest_bag_only(alphabet: &[QueueOp], len: usize, seed: u64) -> Result<(), String> {
    let degen = DegenPqAutomaton::new();
    let ops = walk_then_noise(&degen, alphabet, len, seed);
    let states = acceptor_against_delta_star(&degen, &ops, false)?;
    let delta = degen.delta_star(&History::from(ops.clone()));
    match states.as_slice() {
        [] => Ok(()),
        [greatest] if delta.iter().all(|b| b.is_subbag(greatest)) => Ok(()),
        _ => Err(format!("{ops:?}: {states:?} of {delta:?}")),
    }
}
