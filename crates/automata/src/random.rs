//! Seeded random walks through automata.
//!
//! The paper pairs its functional specifications with "an additional
//! probabilistic model … to characterize the likelihood that certain sets
//! of constraints would be satisfied" (§2.3). Monte Carlo experiments over
//! automata need reproducible random histories; this module provides
//! seeded random walks (all randomness in the workspace flows through
//! explicit [`SplitMix64`] seeds).

use crate::automaton::{ObjectAutomaton, Successors};
use crate::history::History;
use crate::rng::SplitMix64;

/// A random walk through an automaton: repeatedly picks a uniformly random
/// enabled operation and a uniformly random successor state.
#[derive(Debug)]
pub struct RandomWalk<'a, A: ObjectAutomaton> {
    automaton: &'a A,
    alphabet: Vec<A::Op>,
    state: A::State,
    history: History<A::Op>,
    rng: SplitMix64,
}

impl<'a, A: ObjectAutomaton> RandomWalk<'a, A> {
    /// Starts a walk at the initial state with a seeded RNG.
    pub fn new(automaton: &'a A, alphabet: Vec<A::Op>, seed: u64) -> Self {
        RandomWalk {
            state: automaton.initial_state(),
            automaton,
            alphabet,
            history: History::empty(),
            rng: SplitMix64::seed_from_u64(seed),
        }
    }

    /// The history accepted so far.
    pub fn history(&self) -> &History<A::Op> {
        &self.history
    }

    /// The current (single, concretely chosen) state.
    pub fn state(&self) -> &A::State {
        &self.state
    }

    /// Takes one random enabled step. Returns the operation taken, or
    /// `None` if no operation is enabled (dead end).
    pub fn step(&mut self) -> Option<A::Op> {
        let mut order: Vec<usize> = (0..self.alphabet.len()).collect();
        self.rng.shuffle(&mut order);
        for idx in order {
            let op = &self.alphabet[idx];
            let succs = self.automaton.step(&self.state, op);
            if !succs.is_empty() {
                let i = self.rng.index(succs.len());
                self.state = succs.into_iter().nth(i).expect("index in range");
                let op = op.clone();
                self.history.push(op.clone());
                return Some(op);
            }
        }
        None
    }

    /// Walks up to `len` steps (stops early at a dead end) and returns the
    /// history.
    pub fn walk(mut self, len: usize) -> History<A::Op> {
        for _ in 0..len {
            if self.step().is_none() {
                break;
            }
        }
        self.history
    }
}

/// Generates one random accepted history of length up to `len`.
pub fn random_history<A: ObjectAutomaton>(
    automaton: &A,
    alphabet: &[A::Op],
    len: usize,
    seed: u64,
) -> History<A::Op> {
    RandomWalk::new(automaton, alphabet.to_vec(), seed).walk(len)
}

/// Checks an automaton's [`ObjectAutomaton::step_all_into`] against its
/// per-operation [`ObjectAutomaton::step`] at every state a seeded random
/// walk of up to `len` operations passes through: per symbol, the same
/// successors in the same order, and none where `δ` is undefined. One
/// [`Successors`] buffer serves every call, as in the language walk, so a
/// slot left holding an earlier call's state shows too. Returns the first
/// mismatch.
pub fn check_step_all_into<A: ObjectAutomaton>(
    automaton: &A,
    alphabet: &[A::Op],
    len: usize,
    seed: u64,
) -> Result<(), String> {
    let mut walk = RandomWalk::new(automaton, alphabet.to_vec(), seed);
    let mut out = Successors::new();
    loop {
        let state = walk.state();
        out.clear();
        automaton.step_all_into(state, alphabet, &mut out);
        if out.symbols() != alphabet.len() {
            return Err(format!(
                "at {state:?}: {} runs for {} symbols",
                out.symbols(),
                alphabet.len()
            ));
        }
        for (i, op) in alphabet.iter().enumerate() {
            let expected = automaton.step(state, op);
            if out.symbol(i) != expected.as_slice() {
                return Err(format!(
                    "at {state:?} · {op:?}: step_all_into gave {:?}, step {expected:?}",
                    out.symbol(i)
                ));
            }
        }
        if walk.history().len() == len || walk.step().is_none() {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone)]
    struct Counter;

    impl ObjectAutomaton for Counter {
        type State = i32;
        type Op = i8; // +1 / -1
        fn initial_state(&self) -> i32 {
            0
        }
        fn step(&self, s: &i32, op: &i8) -> Vec<i32> {
            match op {
                1 => vec![s + 1],
                -1 if *s > 0 => vec![s - 1],
                _ => vec![],
            }
        }
    }

    #[test]
    fn walks_are_accepted() {
        for seed in 0..20 {
            let h = random_history(&Counter, &[1, -1], 30, seed);
            assert!(Counter.accepts(&h), "seed {seed} produced rejected history");
            assert_eq!(h.len(), 30);
        }
    }

    #[test]
    fn walks_are_reproducible() {
        let a = random_history(&Counter, &[1, -1], 25, 42);
        let b = random_history(&Counter, &[1, -1], 25, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_history(&Counter, &[1, -1], 25, 1);
        let b = random_history(&Counter, &[1, -1], 25, 2);
        assert_ne!(a, b); // overwhelmingly likely for length 25
    }

    #[test]
    fn dead_end_stops_walk() {
        /// An automaton that dies after two steps.
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
        let h = random_history(&TwoSteps, &[0], 10, 7);
        assert_eq!(h.len(), 2);
    }

    /// A batched step that leaves a slot's earlier contents in place is
    /// caught, though each call alone starts from a fresh-looking buffer.
    #[test]
    fn step_all_into_check_catches_a_stale_slot() {
        #[derive(Debug, Clone)]
        struct Stale;
        impl ObjectAutomaton for Stale {
            type State = Vec<u8>;
            type Op = u8;
            fn initial_state(&self) -> Vec<u8> {
                Vec::new()
            }
            fn step(&self, s: &Vec<u8>, op: &u8) -> Vec<Vec<u8>> {
                let mut next = s.clone();
                next.push(*op);
                vec![next]
            }
            fn step_all_into(&self, s: &Vec<u8>, alphabet: &[u8], out: &mut Successors<Vec<u8>>) {
                for op in alphabet {
                    let next = out.slot();
                    next.extend_from_slice(s); // never cleared
                    next.push(*op);
                    out.end_symbol();
                }
            }
        }
        assert!(check_step_all_into(&Stale, &[0, 1], 0, 1).is_ok());
        assert!(check_step_all_into(&Stale, &[0, 1], 3, 1).is_err());
        assert!(check_step_all_into(&Counter, &[1, -1], 30, 1).is_ok());
    }

    #[test]
    fn stepwise_walk_tracks_state() {
        let mut w = RandomWalk::new(&Counter, vec![1, -1], 3);
        let mut expected = 0;
        for _ in 0..10 {
            let op = w.step().unwrap();
            expected += op as i32;
            assert_eq!(*w.state(), expected);
        }
        assert_eq!(w.history().len(), 10);
    }
}
