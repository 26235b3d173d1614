//! Online degradation monitor over a relaxation lattice.
//!
//! The paper's central object is a lattice of automata ordered by
//! language inclusion: as faults accumulate, the observed history may
//! fall out of the strongest specification (e.g. PQ) while remaining in
//! weaker relaxations (MPQ, OPQ, DegenPQ). The monitor tracks language
//! membership *online*: one [`Acceptor`] per level advances the
//! reachable-state frontier past each observed operation, in place
//! while it holds one state, and the moment a frontier empties, that
//! level is dead — the operation that killed it is the *witness*, and
//! the monitor emits a [`LevelTransition`] naming the levels left and
//! the strongest level still inhabited.
//!
//! Levels are registered strongest-first; the lattice need not be a
//! chain (MPQ and OPQ are incomparable), so a single operation can kill
//! several levels at once.

use crate::event::EventKind;
use relax_automata::{Acceptor, ObjectAutomaton};
use std::fmt::Debug;

/// Object-safe view of a level's automaton and its acceptor, so one
/// monitor can hold levels backed by different automaton types (PQ,
/// MPQ, OPQ, … are distinct types sharing an `Op`).
trait LevelChecker<Op>: Debug {
    /// Steps past `op`; `true` while the history is in the language.
    fn observe(&mut self, op: &Op) -> bool;
}

impl<A: ObjectAutomaton + Debug> LevelChecker<A::Op> for (A, Acceptor<A::State>) {
    fn observe(&mut self, op: &A::Op) -> bool {
        self.1.step(&self.0, op)
    }
}

#[derive(Debug)]
struct MonitorLevel<Op> {
    name: String,
    checker: Box<dyn LevelChecker<Op>>,
    alive: bool,
    /// History index of the op that killed this level, once dead.
    died_at: Option<usize>,
}

/// A level-change report: which levels the history just left, the
/// strongest level it still inhabits, and the operation that proved it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelTransition {
    /// Index (into the monitor's observed history) of the witness op.
    pub op_index: usize,
    /// Names of the levels that died on this operation.
    pub left: Vec<String>,
    /// Strongest level still alive, or `None` if every level is dead.
    pub now: Option<String>,
    /// `Debug` rendering of the witness operation.
    pub witness: String,
}

impl LevelTransition {
    /// The trace event corresponding to this transition.
    pub fn to_event(&self) -> EventKind {
        EventKind::LevelTransition(Box::new(self.clone()))
    }
}

/// Classifies an observed operation history against the levels of a
/// relaxation lattice, online.
#[derive(Debug)]
pub struct DegradationMonitor<Op> {
    levels: Vec<MonitorLevel<Op>>,
    observed: usize,
    transitions: Vec<LevelTransition>,
}

impl<Op: Debug> DegradationMonitor<Op> {
    /// An empty monitor; add levels strongest-first with
    /// [`DegradationMonitor::level`].
    pub fn new() -> Self {
        DegradationMonitor {
            levels: Vec::new(),
            observed: 0,
            transitions: Vec::new(),
        }
    }

    /// Registers the next level (call in strongest-to-weakest order).
    /// Builder-style so lattices read as a chain of calls.
    pub fn level<A>(mut self, name: impl Into<String>, automaton: A) -> Self
    where
        A: ObjectAutomaton<Op = Op> + Debug + 'static,
        A::State: 'static,
    {
        let acceptor = Acceptor::new(automaton.initial_state());
        self.levels.push(MonitorLevel {
            name: name.into(),
            checker: Box::new((automaton, acceptor)),
            alive: true,
            died_at: None,
        });
        self
    }

    /// Feeds one observed operation. Returns the transition if any
    /// level died on it.
    pub fn observe(&mut self, op: &Op) -> Option<&LevelTransition> {
        let op_index = self.observed;
        self.observed += 1;
        let mut left = Vec::new();
        for lvl in self.levels.iter_mut().filter(|l| l.alive) {
            if !lvl.checker.observe(op) {
                lvl.alive = false;
                lvl.died_at = Some(op_index);
                left.push(lvl.name.clone());
            }
        }
        if left.is_empty() {
            return None;
        }
        let now = self.levels.iter().find(|l| l.alive).map(|l| l.name.clone());
        self.transitions.push(LevelTransition {
            op_index,
            left,
            now,
            witness: format!("{op:?}"),
        });
        self.transitions.last()
    }

    /// The strongest level the observed history still inhabits.
    pub fn current_level(&self) -> Option<&str> {
        self.levels
            .iter()
            .find(|l| l.alive)
            .map(|l| l.name.as_str())
    }

    /// Whether the named level is still alive.
    pub fn is_alive(&self, name: &str) -> Option<bool> {
        self.levels.iter().find(|l| l.name == name).map(|l| l.alive)
    }

    /// History index at which the named level died, if it has.
    pub fn died_at(&self, name: &str) -> Option<usize> {
        self.levels
            .iter()
            .find(|l| l.name == name)
            .and_then(|l| l.died_at)
    }

    /// Number of operations observed so far.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// All level transitions so far, in observation order.
    pub fn transitions(&self) -> &[LevelTransition] {
        &self.transitions
    }
}

impl<Op: Debug> Default for DegradationMonitor<Op> {
    fn default() -> Self {
        DegradationMonitor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Strict counter: Inc then Dec only while positive.
    #[derive(Debug, Clone)]
    struct Strict;

    /// Relaxed counter: Dec also allowed at zero (saturating).
    #[derive(Debug, Clone)]
    struct Relaxed;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Op {
        Inc,
        Dec,
    }

    impl ObjectAutomaton for Strict {
        type State = i32;
        type Op = Op;
        fn initial_state(&self) -> i32 {
            0
        }
        fn step(&self, s: &i32, op: &Op) -> Vec<i32> {
            match op {
                Op::Inc => vec![s + 1],
                Op::Dec if *s > 0 => vec![s - 1],
                Op::Dec => vec![],
            }
        }
    }

    impl ObjectAutomaton for Relaxed {
        type State = i32;
        type Op = Op;
        fn initial_state(&self) -> i32 {
            0
        }
        fn step(&self, s: &i32, op: &Op) -> Vec<i32> {
            match op {
                Op::Inc => vec![s + 1],
                Op::Dec => vec![(s - 1).max(0)],
            }
        }
    }

    fn monitor() -> DegradationMonitor<Op> {
        DegradationMonitor::new()
            .level("strict", Strict)
            .level("relaxed", Relaxed)
    }

    #[test]
    fn stays_at_strongest_level_while_history_conforms() {
        let mut m = monitor();
        for op in [Op::Inc, Op::Dec, Op::Inc] {
            assert!(m.observe(&op).is_none());
        }
        assert_eq!(m.current_level(), Some("strict"));
        assert!(m.transitions().is_empty());
        assert_eq!(m.observed(), 3);
    }

    #[test]
    fn transition_names_witness_and_remaining_level() {
        let mut m = monitor();
        m.observe(&Op::Inc);
        m.observe(&Op::Dec);
        let t = m.observe(&Op::Dec).expect("strict dies on Dec at zero");
        assert_eq!(t.left, vec!["strict".to_string()]);
        assert_eq!(t.now.as_deref(), Some("relaxed"));
        assert_eq!(t.witness, "Dec");
        assert_eq!(t.op_index, 2);
        assert_eq!(m.current_level(), Some("relaxed"));
        assert_eq!(m.is_alive("strict"), Some(false));
        assert_eq!(m.died_at("strict"), Some(2));
    }

    #[test]
    fn dead_levels_stay_dead_and_do_not_retrigger() {
        let mut m = monitor();
        m.observe(&Op::Dec); // kills strict immediately
        assert_eq!(m.transitions().len(), 1);
        m.observe(&Op::Dec);
        m.observe(&Op::Inc);
        assert_eq!(m.transitions().len(), 1, "no repeat transitions");
        assert_eq!(m.current_level(), Some("relaxed"));
    }

    #[test]
    fn all_levels_dead_reports_none() {
        /// Rejects everything after one step.
        #[derive(Debug, Clone)]
        struct OneShot;
        impl ObjectAutomaton for OneShot {
            type State = u8;
            type Op = Op;
            fn initial_state(&self) -> u8 {
                0
            }
            fn step(&self, s: &u8, _op: &Op) -> Vec<u8> {
                if *s == 0 {
                    vec![1]
                } else {
                    vec![]
                }
            }
        }
        let mut m = DegradationMonitor::new().level("oneshot", OneShot);
        assert!(m.observe(&Op::Inc).is_none());
        let t = m.observe(&Op::Inc).expect("level dies");
        assert_eq!(t.now, None);
        assert_eq!(m.current_level(), None);
    }

    #[test]
    fn one_op_can_kill_multiple_levels() {
        let mut m = DegradationMonitor::new()
            .level("strict-a", Strict)
            .level("strict-b", Strict)
            .level("relaxed", Relaxed);
        let t = m.observe(&Op::Dec).expect("both strict levels die");
        assert_eq!(t.left, vec!["strict-a".to_string(), "strict-b".to_string()]);
        assert_eq!(t.now.as_deref(), Some("relaxed"));
    }

    #[test]
    fn transition_converts_to_trace_event() {
        let mut m = monitor();
        let t = m.observe(&Op::Dec).unwrap().clone();
        match t.to_event() {
            EventKind::LevelTransition(bt) => {
                let LevelTransition {
                    left,
                    now,
                    witness,
                    op_index,
                } = *bt;
                assert_eq!(left, vec!["strict".to_string()]);
                assert_eq!(now.as_deref(), Some("relaxed"));
                assert_eq!(witness, "Dec");
                assert_eq!(op_index, 0);
            }
            other => panic!("wrong event kind: {other:?}"),
        }
    }
}
