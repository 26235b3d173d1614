//! # relax-automata — simple object automata and their languages
//!
//! Implements §2.1–§2.3 of Herlihy & Wing, *Specifying Graceful Degradation
//! in Distributed Systems* (PODC 1987):
//!
//! * [`automaton::ObjectAutomaton`] — a simple object automaton
//!   `<STATE, s0, OP, δ>` with a partial, nondeterministic transition
//!   function; `δ*` extends to histories and a history is *accepted* when
//!   `δ*(H) ≠ ∅` (§2.1), which [`automaton::Acceptor`] decides online.
//! * [`history::History`] — a finite sequence of operation executions.
//! * [`language`] — bounded enumeration of the language `L(A)` over a
//!   finite operation alphabet, with inclusion/equality checks up to a
//!   length bound. Languages of object automata are prefix-closed, which
//!   the enumerator exploits.
//! * [`multiwalk`] — the one bounded walk behind the language layer:
//!   reachable state sets are interned to dense ids, histories leading
//!   to the same (left set, right set) pair collapse into one node
//!   carrying a multiplicity, each automaton steps each state it reaches
//!   once, successor rows are memoized per set, and counterexamples are
//!   rebuilt from parent pointers. Every check in [`language`] and
//!   [`lattice`] is one walk of one pair; a [`LanguageWalker`] walks
//!   several pairs in turn in buffers it keeps.
//! * [`calm`] — bounded response-stability checking, the automata-level
//!   half of the CALM monotonicity analyzer (the quorum layer pairs it
//!   with language equality on quorum consensus automata to decide which
//!   operations may run coordination-free).
//! * [`constraint`] — named constraint universes and constraint sets (the
//!   `2^C` lattice of §2.2), with subset iteration and lattice operations.
//! * [`lattice`] — the `RelaxationMap` abstraction: a lattice homomorphism
//!   `φ : 2^C → A` from constraint sets to automata (§2.2), plus checks
//!   that a candidate family really is a lattice of automata under reverse
//!   inclusion.
//! * [`environment`] — the environment automaton `<2^C, c0, EVENT, δE>`
//!   and the combined automaton that interleaves events and operations
//!   (§2.3), including inputs that are *both* an event and an operation
//!   (as in the bank-account and atomic-queue examples).
//! * [`random`] — seeded random walks through an automaton, for Monte
//!   Carlo experiments.
//! * [`rng`] — the workspace's seeded PRNG ([`rng::SplitMix64`]); all
//!   randomness anywhere in the workspace flows through explicit seeds.
//!
//! ```
//! use relax_automata::prelude::*;
//!
//! // A tiny counter automaton: Inc always enabled, Dec requires > 0.
//! #[derive(Debug, Clone)]
//! struct Counter;
//! #[derive(Debug, Clone, PartialEq, Eq, Hash)]
//! enum Op { Inc, Dec }
//!
//! impl ObjectAutomaton for Counter {
//!     type State = u32;
//!     type Op = Op;
//!     fn initial_state(&self) -> u32 { 0 }
//!     fn step(&self, s: &u32, op: &Op) -> Vec<u32> {
//!         match op {
//!             Op::Inc => vec![s + 1],
//!             Op::Dec if *s > 0 => vec![s - 1],
//!             Op::Dec => vec![], // partial: undefined at 0
//!         }
//!     }
//! }
//!
//! let h = History::from(vec![Op::Inc, Op::Dec]);
//! assert!(Counter.accepts(&h));
//! assert!(!Counter.accepts(&History::from(vec![Op::Dec])));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod automaton;
pub mod calm;
pub mod cons;
pub mod constraint;
pub mod environment;
pub mod history;
pub mod language;
pub mod lattice;
pub mod multiwalk;
pub mod probe;
pub mod random;
pub mod rng;

/// Convenient re-exports of the crate's main types.
pub mod prelude {
    pub use crate::automaton::{Acceptor, IntersectionAutomaton, ObjectAutomaton, Successors};
    pub use crate::calm::{response_stable, ResponseInstability};
    pub use crate::constraint::{ConstraintId, ConstraintSet, ConstraintUniverse};
    pub use crate::environment::{CombinedAutomaton, Environment, Input};
    pub use crate::history::History;
    pub use crate::language::{
        equal_upto, included_upto, language_sizes, language_upto, strictly_included_upto,
        Counterexample, LanguageDifference, StrictInclusionFailure,
    };
    pub use crate::lattice::{check_reverse_inclusion_lattice, LatticeCheck, RelaxationMap};
    pub use crate::multiwalk::{
        compare_upto, compare_upto_probed, CompareOptions, DenseArena, LanguageComparison,
        LanguageWalker, StopWhen,
    };
    pub use crate::probe::{EngineProbe, NoopProbe};
    pub use crate::random::{random_history, RandomWalk};
    pub use crate::rng::SplitMix64;
}

pub use automaton::{Acceptor, IntersectionAutomaton, ObjectAutomaton, Successors};
pub use calm::{response_stable, ResponseInstability};
pub use constraint::{ConstraintId, ConstraintSet, ConstraintUniverse};
pub use environment::{CombinedAutomaton, Environment, Input};
pub use history::History;
pub use language::{
    equal_upto, included_upto, language_sizes, language_upto, strictly_included_upto,
    Counterexample, LanguageDifference, StrictInclusionFailure,
};
pub use lattice::{check_reverse_inclusion_lattice, LatticeCheck, RelaxationMap};
pub use multiwalk::{
    compare_upto, compare_upto_probed, CompareOptions, DenseArena, LanguageComparison,
    LanguageWalker, StopWhen,
};
pub use probe::{EngineProbe, NoopProbe};
pub use random::{check_defined, check_step_all_into, random_history, RandomWalk, StepsOnly};
pub use rng::SplitMix64;
