//! The environment automaton and the combined automaton (§2.3).
//!
//! The environment is an automaton `<2^C, c0, EVENT, δE>` whose state is
//! the set of constraints the object currently satisfies; events (crashes,
//! partitions, premature debits, concurrent dequeues…) move it around the
//! `2^C` lattice. The environment and a relaxation lattice combine into a
//! single automaton over interleaved events and operations:
//!
//! * `δ1(c, p) = δE(c, p)` if `p ∈ EVENT`, else `c`;
//! * `δ2(c, s, p) = δ_{φ(δ1(c, p))}(s, p)` if `p ∈ OP`, else `{s}`.
//!
//! When an input is *both* an event and an operation (the bank-account's
//! premature `Debit`, the atomic queue's `Deq`/`commit`/`abort`), "the
//! environment changes before the transition function is selected".

use crate::automaton::{Acceptor, ObjectAutomaton};
use crate::constraint::ConstraintSet;
use crate::history::History;
use crate::lattice::RelaxationMap;

/// An environment automaton: deterministic transitions over constraint
/// sets.
pub trait Environment {
    /// The environment's input alphabet `EVENT`.
    type Event: Clone + std::fmt::Debug;

    /// The initial constraint state `c0`.
    fn initial_constraints(&self) -> ConstraintSet;

    /// `δE(c, e)`: the constraint set after event `e` (note: maps to a
    /// single state, not a set — §2.3).
    fn on_event(&self, constraints: ConstraintSet, event: &Self::Event) -> ConstraintSet;
}

/// An input symbol of the combined automaton: an event, an operation, or a
/// symbol that is both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input<E, O> {
    /// A pure environment event.
    Event(E),
    /// A pure object operation.
    Op(O),
    /// A symbol in `EVENT ∩ OP`: `E` and `O` are the event- and
    /// operation-facets of the same symbol.
    Both(E, O),
}

/// Why a combined run rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CombinedError {
    /// `φ` was undefined at the constraint set reached before an
    /// operation (the environment left the relaxation map's domain).
    PhiUndefined {
        /// The offending constraint set.
        constraints: ConstraintSet,
        /// Index of the input at which this happened.
        at: usize,
    },
    /// The selected automaton rejected the operation.
    Rejected {
        /// Index of the input at which this happened.
        at: usize,
        /// The constraint set in force when the operation was attempted.
        constraints: ConstraintSet,
    },
}

/// The state of a combined run: current constraints and the set of
/// possible object states.
#[derive(Debug, Clone)]
pub struct CombinedState<S> {
    /// The environment component (an element of `2^C`).
    pub constraints: ConstraintSet,
    /// The object component (an element of `2^STATE`), without
    /// duplicates: exactly `δ*` of the run.
    pub states: Vec<S>,
}

/// The combined automaton `<2^C × STATE, (c0, s0), EVENT ∪ OP, δ>`.
///
/// [`CombinedAutomaton::run`] steps one [`Acceptor`] under whichever
/// automaton `φ` selects at each operation, through
/// [`Acceptor::step_exact`]: an in-place step may keep one state that
/// simulates the others only under the automaton that takes it
/// (DegenPQ keeps a dequeued item, which a priority queue selected
/// after recovery would have to serve).
#[derive(Debug, Clone)]
pub struct CombinedAutomaton<M, Env> {
    map: M,
    env: Env,
}

impl<M, Env> CombinedAutomaton<M, Env>
where
    M: RelaxationMap,
    Env: Environment,
{
    /// Combines a relaxation map and an environment.
    pub fn new(map: M, env: Env) -> Self {
        CombinedAutomaton { map, env }
    }

    /// The relaxation map `φ`.
    pub fn map(&self) -> &M {
        &self.map
    }

    /// The environment automaton.
    pub fn environment(&self) -> &Env {
        &self.env
    }

    /// Runs a sequence of interleaved inputs from the initial state.
    ///
    /// # Errors
    ///
    /// Returns [`CombinedError`] if an operation is attempted where `φ` is
    /// undefined or where the selected automaton rejects it.
    pub fn run(
        &self,
        inputs: &[Input<Env::Event, <M::A as ObjectAutomaton>::Op>],
    ) -> Result<CombinedState<<M::A as ObjectAutomaton>::State>, CombinedError> {
        let mut constraints = self.env.initial_constraints();

        // The object's initial state comes from the preferred automaton
        // (all automata in a lattice share s0 by definition).
        let initial = self
            .map
            .automaton(constraints)
            .or_else(|| self.map.preferred())
            .ok_or(CombinedError::PhiUndefined { constraints, at: 0 })?
            .initial_state();
        let mut acceptor = Acceptor::new(initial);

        for (at, input) in inputs.iter().enumerate() {
            // δ1: event facet updates the environment first.
            let (event, op) = match input {
                Input::Event(e) => (Some(e), None),
                Input::Op(o) => (None, Some(o)),
                Input::Both(e, o) => (Some(e), Some(o)),
            };
            if let Some(e) = event {
                constraints = self.env.on_event(constraints, e);
            }
            // δ2: operation facet steps the object under φ(current c).
            if let Some(op) = op {
                let automaton = self
                    .map
                    .automaton(constraints)
                    .ok_or(CombinedError::PhiUndefined { constraints, at })?;
                if !acceptor.step_exact(&automaton, op) {
                    return Err(CombinedError::Rejected { at, constraints });
                }
            }
        }
        Ok(CombinedState {
            constraints,
            states: acceptor.states().to_vec(),
        })
    }

    /// True if the input sequence is accepted.
    pub fn accepts(&self, inputs: &[Input<Env::Event, <M::A as ObjectAutomaton>::Op>]) -> bool {
        self.run(inputs).is_ok()
    }

    /// Projects the operation facets of an input sequence into an object
    /// history (the subhistory the object itself sees).
    pub fn object_history(
        inputs: &[Input<Env::Event, <M::A as ObjectAutomaton>::Op>],
    ) -> History<<M::A as ObjectAutomaton>::Op> {
        inputs
            .iter()
            .filter_map(|i| match i {
                Input::Op(o) | Input::Both(_, o) => Some(o.clone()),
                Input::Event(_) => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::{ConstraintSet, ConstraintUniverse};

    /// Counter with per-constraint-set bound: with constraint "Tight" the
    /// bound is 1, relaxed it is 3.
    #[derive(Debug, Clone)]
    struct Bounded {
        bound: u32,
    }

    impl ObjectAutomaton for Bounded {
        type State = u32;
        type Op = u8; // 0 = inc
        fn initial_state(&self) -> u32 {
            0
        }
        fn step(&self, s: &u32, op: &u8) -> Vec<u32> {
            if *op == 0 && *s < self.bound {
                vec![s + 1]
            } else {
                vec![]
            }
        }
    }

    struct Fam {
        u: ConstraintUniverse,
    }
    impl RelaxationMap for Fam {
        type A = Bounded;
        fn universe(&self) -> &ConstraintUniverse {
            &self.u
        }
        fn automaton(&self, c: ConstraintSet) -> Option<Bounded> {
            Some(Bounded {
                bound: if c.is_empty() { 3 } else { 1 },
            })
        }
    }

    /// Environment: event 0 = "crash" drops the constraint; event 1 =
    /// "recover" restores it.
    struct Env {
        u: ConstraintUniverse,
    }
    impl Environment for Env {
        type Event = u8;
        fn initial_constraints(&self) -> ConstraintSet {
            self.u.full_set()
        }
        fn on_event(&self, c: ConstraintSet, e: &u8) -> ConstraintSet {
            let id = self.u.id("Tight").unwrap();
            match e {
                0 => c.without(id),
                _ => c.with(id),
            }
        }
    }

    fn combined() -> CombinedAutomaton<Fam, Env> {
        let u = ConstraintUniverse::new(["Tight"]);
        CombinedAutomaton::new(Fam { u: u.clone() }, Env { u })
    }

    #[test]
    fn preferred_behavior_while_constraints_hold() {
        let c = combined();
        // One inc allowed, second rejected under the tight bound.
        assert!(c.accepts(&[Input::Op(0)]));
        let err = c.run(&[Input::Op(0), Input::Op(0)]).unwrap_err();
        assert!(matches!(err, CombinedError::Rejected { at: 1, .. }));
    }

    #[test]
    fn relaxation_after_event_admits_more() {
        let c = combined();
        // After a crash event the bound rises to 3.
        let inputs = [
            Input::Event(0u8),
            Input::Op(0u8),
            Input::Op(0),
            Input::Op(0),
        ];
        let end = c.run(&inputs).unwrap();
        assert!(end.constraints.is_empty());
        assert!(end.states.contains(&3));
    }

    #[test]
    fn recovery_restores_preferred() {
        let c = combined();
        // Crash, inc twice (allowed relaxed), recover, then inc is rejected
        // (already at 2 > bound 1).
        let inputs = [
            Input::Event(0u8),
            Input::Op(0u8),
            Input::Op(0),
            Input::Event(1),
            Input::Op(0),
        ];
        let err = c.run(&inputs).unwrap_err();
        assert!(matches!(err, CombinedError::Rejected { at: 4, .. }));
    }

    #[test]
    fn both_facet_updates_env_before_stepping() {
        let c = combined();
        // A single input that is both "crash" and an inc: the relaxed
        // automaton must be selected for the very same input. Two incs
        // after it prove the bound is 3.
        let inputs = [Input::Both(0u8, 0u8), Input::Op(0), Input::Op(0)];
        let end = c.run(&inputs).unwrap();
        assert!(end.states.contains(&3));
    }

    #[test]
    fn object_history_projects_ops() {
        let inputs = [Input::Event(0u8), Input::Op(7u8), Input::Both(1, 9)];
        let h = CombinedAutomaton::<Fam, Env>::object_history(&inputs);
        assert_eq!(h.ops(), &[7, 9]);
    }

    /// A counter whose `Dec` (1) may or may not decrement, stepped in
    /// place by keeping the count: one successor that simulates the
    /// other, as DegenPQ's `Deq` is.
    #[derive(Debug, Clone)]
    struct KeepOrDec;

    impl ObjectAutomaton for KeepOrDec {
        type State = u32;
        type Op = u8;
        fn initial_state(&self) -> u32 {
            0
        }
        fn step(&self, s: &u32, op: &u8) -> Vec<u32> {
            match (op, *s) {
                (0, _) => vec![s + 1],
                (_, 0) => vec![],
                _ => vec![s - 1, *s],
            }
        }
        fn step_in_place(&self, s: &mut u32, op: &u8) -> Option<bool> {
            match (op, *s) {
                (0, _) => *s += 1,
                (_, 0) => return Some(false),
                _ => {}
            }
            Some(true)
        }
    }

    struct KeepFam {
        u: ConstraintUniverse,
    }
    impl RelaxationMap for KeepFam {
        type A = KeepOrDec;
        fn universe(&self) -> &ConstraintUniverse {
            &self.u
        }
        fn automaton(&self, _: ConstraintSet) -> Option<KeepOrDec> {
            Some(KeepOrDec)
        }
    }

    #[test]
    fn a_combined_run_never_steps_in_place() {
        let u = ConstraintUniverse::new(["Tight"]);
        let c = CombinedAutomaton::new(KeepFam { u: u.clone() }, Env { u });
        let mut end = c.run(&[Input::Op(0), Input::Op(1)]).unwrap();
        end.states.sort_unstable();
        assert_eq!(end.states, [0, 1]);
    }
}
