//! In-place transitions held to an independently written `δ`, at every
//! state a random walk reaches, for every operation of the alphabet.
//! PQ and OPQ write their transition once, in place, and take `step`
//! from it, so only the two whose in-place step needs an argument are
//! checked here: MPQ's one-successor `Deq` against Figure 3-3's two
//! branches, and DegenPQ's keep-the-item `Deq` against its own `step`.

use proptest::prelude::*;
use relax_automata::{ObjectAutomaton, RandomWalk};
use relax_queues::{queue_alphabet, DegenPqAutomaton, Mpq, MpqAutomaton, QueueOp};

/// Figure 3-3's `Deq` as two branches: re-return an absent item that
/// beats everything present, or transfer the best present item.
#[derive(Debug, Clone, Copy)]
struct Figure33;

impl ObjectAutomaton for Figure33 {
    type State = Mpq;
    type Op = QueueOp;

    fn initial_state(&self) -> Mpq {
        Mpq::new()
    }

    fn step(&self, s: &Mpq, op: &QueueOp) -> Vec<Mpq> {
        let mut out = Vec::new();
        match op {
            QueueOp::Enq(e) => {
                let mut s2 = s.clone();
                s2.present.ins(*e);
                out.push(s2);
            }
            QueueOp::Deq(e) => {
                if s.absent.contains(e) && s.present.best().is_none_or(|best| e > best) {
                    out.push(s.clone());
                }
                if s.present.best() == Some(e) {
                    let mut s2 = s.clone();
                    s2.present.del(e);
                    s2.absent.ins(*e);
                    out.push(s2);
                }
            }
        }
        out
    }
}

/// Walks `automaton` for up to `len` operations from `seed`; at each
/// state, `step_in_place` must fail exactly where `reference.step` is
/// empty and otherwise write the state `expected` picks from its
/// successors.
fn in_place_matches<A, R>(
    automaton: &A,
    reference: &R,
    expected: impl Fn(Vec<A::State>) -> Option<A::State>,
    len: usize,
    seed: u64,
) -> Result<(), String>
where
    A: ObjectAutomaton<Op = QueueOp>,
    R: ObjectAutomaton<State = A::State, Op = QueueOp>,
{
    let alphabet = queue_alphabet(&[1, 2, 3]);
    let mut walk = RandomWalk::new(automaton, alphabet.clone(), seed);
    loop {
        for op in &alphabet {
            let state = walk.state();
            let mut in_place = state.clone();
            let wrote = automaton.step_in_place(&mut in_place, op);
            let want = expected(reference.step(state, op));
            let agrees = match (wrote, &want) {
                (Some(false), None) => true,
                (Some(true), Some(want)) => in_place == *want,
                _ => false,
            };
            if !agrees {
                return Err(format!(
                    "{state:?} · {op:?}: {wrote:?} {in_place:?}, want {want:?}"
                ));
            }
        }
        if walk.history().len() == len || walk.step().is_none() {
            return Ok(());
        }
    }
}

proptest! {
    #[test]
    fn step_in_place_writes_the_reference_successor(seed in 0u64..u64::MAX, len in 0usize..16) {
        // Figure 3-3's two branches never both apply.
        let mpq = in_place_matches(
            &MpqAutomaton::new(),
            &Figure33,
            |mut states| {
                assert!(states.len() <= 1, "two successors: {states:?}");
                states.pop()
            },
            len,
            seed,
        );
        prop_assert!(mpq.is_ok(), "MPQ: {mpq:?}");
        // DegenPQ keeps the dequeued item: `step`'s largest bag.
        let degen = DegenPqAutomaton::new();
        let degen = in_place_matches(
            &degen,
            &degen,
            |bags| bags.into_iter().max_by_key(|b| b.len()),
            len,
            seed,
        );
        prop_assert!(degen.is_ok(), "DegenPQ: {degen:?}");
    }
}
