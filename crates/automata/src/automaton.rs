//! Simple object automata (§2.1).
//!
//! A simple object automaton is a four-tuple `<STATE, s0, OP, δ>` where `δ
//! : STATE × OP → 2^STATE` is a *partial* transition function. Partiality
//! models preconditions (`Deq` is undefined on an empty queue);
//! multi-valued results model nondeterministic specifications (a bag's
//! `Deq` may remove any present item).

use std::collections::HashSet;
use std::hash::Hash;

use crate::history::History;

/// A simple object automaton.
///
/// Implementors supply the initial state and single-step transition
/// function; `δ*`, acceptance, and related operations are provided.
pub trait ObjectAutomaton {
    /// The automaton's state set `STATE`. `Ord` lets the language walk
    /// canonicalize reachable state sets as sorted slices (see
    /// [`crate::multiwalk`]).
    type State: Clone + Eq + Ord + Hash + std::fmt::Debug;
    /// The automaton's operation alphabet `OP` (operation executions,
    /// i.e. invocation plus response).
    type Op: Clone + Eq + Hash + std::fmt::Debug;

    /// The initial state `s0`.
    fn initial_state(&self) -> Self::State;

    /// The transition function `δ(s, p)`. Returns the empty vector where
    /// `δ` is undefined (the precondition fails), and multiple states when
    /// the specification is nondeterministic. Implementations should not
    /// return duplicate states (harmless but wasteful).
    fn step(&self, state: &Self::State, op: &Self::Op) -> Vec<Self::State>;

    /// `δ(s, p)` for every `p` in `alphabet` at once, written into `out`
    /// one run per symbol: afterwards `out.symbol(i)` is
    /// `step(state, &alphabet[i])`, in the same order. `out` arrives
    /// cleared; its slots keep the heap memory of the states the last
    /// call wrote, so an override that fills [`Successors::slot`] in
    /// place allocates nothing for a successor that fits.
    ///
    /// The default just loops over [`ObjectAutomaton::step`]. Automata
    /// whose transitions share expensive per-state work across operations
    /// (the quorum consensus automaton's Q-view enumeration, for example)
    /// or whose states own heap memory should override this: the
    /// language walk ([`crate::multiwalk`]) calls it exactly once per
    /// state it reaches, however many state sets the state is a member
    /// of, and nothing else steps the automaton during a verification.
    fn step_all_into(
        &self,
        state: &Self::State,
        alphabet: &[Self::Op],
        out: &mut Successors<Self::State>,
    ) {
        for op in alphabet {
            for next in self.step(state, op) {
                out.push(next);
            }
            out.end_symbol();
        }
    }

    /// An optional simulation preorder for frontier pruning: return
    /// `true` only when every history accepted from `weaker` is also
    /// accepted from `stronger`, so a reachable-state frontier that
    /// contains `stronger` may drop `weaker` without changing the
    /// accepted language. Online monitors use this to keep frontiers of
    /// nondeterministic specifications small (a remove-or-keep branch
    /// otherwise doubles the frontier on every operation).
    ///
    /// The default prunes nothing, which is always sound.
    fn subsumes(&self, stronger: &Self::State, weaker: &Self::State) -> bool {
        let _ = (stronger, weaker);
        false
    }

    /// `δ*(s, H)`: the set of states reachable from `s` by the history
    /// `H` (§2.1).
    fn delta_star_from(
        &self,
        state: &Self::State,
        history: &History<Self::Op>,
    ) -> HashSet<Self::State> {
        let mut states: HashSet<Self::State> = HashSet::new();
        states.insert(state.clone());
        for op in history.iter() {
            let mut next = HashSet::new();
            for s in &states {
                for s2 in self.step(s, op) {
                    next.insert(s2);
                }
            }
            states = next;
            if states.is_empty() {
                break;
            }
        }
        states
    }

    /// `δ*(H)`, shorthand for `δ*(s0, H)`.
    fn delta_star(&self, history: &History<Self::Op>) -> HashSet<Self::State> {
        self.delta_star_from(&self.initial_state(), history)
    }

    /// A history `H` is accepted iff `δ*(H) ≠ ∅`.
    fn accepts(&self, history: &History<Self::Op>) -> bool {
        !self.delta_star(history).is_empty()
    }

    /// The operations enabled after `H`: those `p` from `alphabet` with
    /// `δ*(H · p) ≠ ∅`.
    fn enabled_after(&self, history: &History<Self::Op>, alphabet: &[Self::Op]) -> Vec<Self::Op> {
        let states = self.delta_star(history);
        alphabet
            .iter()
            .filter(|op| states.iter().any(|s| !self.step(s, op).is_empty()))
            .cloned()
            .collect()
    }
}

impl<A: ObjectAutomaton + ?Sized> ObjectAutomaton for &A {
    type State = A::State;
    type Op = A::Op;

    fn initial_state(&self) -> Self::State {
        (**self).initial_state()
    }

    fn step(&self, state: &Self::State, op: &Self::Op) -> Vec<Self::State> {
        (**self).step(state, op)
    }

    // Forwarded explicitly so batched overrides survive the indirection.
    fn step_all_into(
        &self,
        state: &Self::State,
        alphabet: &[Self::Op],
        out: &mut Successors<Self::State>,
    ) {
        (**self).step_all_into(state, alphabet, out)
    }
}

/// The successors of one state under each symbol of an alphabet, as
/// [`ObjectAutomaton::step_all_into`] writes them: one run of states per
/// symbol, end to end in one buffer.
///
/// [`Successors::clear`] keeps every state written so far as a slot, so
/// a state that owns heap memory (a `Vec`, a [`History`]) is overwritten
/// in place by the next call instead of dropped and allocated again.
#[derive(Debug, Clone)]
pub struct Successors<S> {
    /// The first `len` hold this call's successors; the rest are spare.
    slots: Vec<S>,
    len: usize,
    /// `ends[i]`: one past symbol `i`'s last successor.
    ends: Vec<usize>,
}

impl<S> Successors<S> {
    /// An empty buffer.
    pub const fn new() -> Self {
        Successors {
            slots: Vec::new(),
            len: 0,
            ends: Vec::new(),
        }
    }

    /// Forgets every successor and symbol, keeping the slots.
    pub fn clear(&mut self) {
        self.len = 0;
        self.ends.clear();
    }

    /// Appends `state` to the current symbol's run.
    pub fn push(&mut self, state: S) {
        match self.slots.get_mut(self.len) {
            Some(slot) => *slot = state,
            None => self.slots.push(state),
        }
        self.len += 1;
    }

    /// Appends the next slot to the current symbol's run and hands it
    /// back to be overwritten in place. It holds whatever an earlier
    /// call left there (or `S::default()`), so the caller resets it.
    pub fn slot(&mut self) -> &mut S
    where
        S: Default,
    {
        if self.len == self.slots.len() {
            self.slots.push(S::default());
        }
        self.len += 1;
        &mut self.slots[self.len - 1]
    }

    /// Closes the current symbol's run (empty if nothing was appended:
    /// `δ` undefined there).
    pub fn end_symbol(&mut self) {
        self.ends.push(self.len);
    }

    /// How many symbols' runs are closed.
    pub fn symbols(&self) -> usize {
        self.ends.len()
    }

    /// Symbol `i`'s successors.
    pub fn symbol(&self, i: usize) -> &[S] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.slots[start..self.ends[i]]
    }

    /// Every successor appended since the last clear, in order: for a
    /// one-symbol alphabet, exactly `δ(s, p)`.
    pub fn into_vec(mut self) -> Vec<S> {
        self.slots.truncate(self.len);
        self.slots
    }
}

impl<S> Default for Successors<S> {
    fn default() -> Self {
        Successors::new()
    }
}

/// An automaton wrapper that renames nothing but fixes the state set of a
/// deterministic automaton to single values, asserting determinism at
/// runtime: useful in proofs like Theorem 4, which exploit that an
/// automaton's postconditions "completely determine the new value".
#[derive(Debug, Clone)]
pub struct Deterministic<A>(pub A);

impl<A: ObjectAutomaton> Deterministic<A> {
    /// `δ*(H)` as a single value.
    ///
    /// # Panics
    ///
    /// Panics if the underlying automaton is observed to be
    /// nondeterministic on this history (more than one successor state).
    pub fn value_after(&self, history: &History<A::Op>) -> Option<A::State> {
        let mut state = self.0.initial_state();
        for op in history.iter() {
            let nexts = self.0.step(&state, op);
            match nexts.len() {
                0 => return None,
                1 => state = nexts.into_iter().next().expect("len checked"),
                n => panic!(
                    "automaton wrapped as deterministic is nondeterministic: \
                     {n} successors for {op:?}"
                ),
            }
        }
        Some(state)
    }
}

/// An automaton accepting exactly `L(A) ∩ L(B)`: the synchronized
/// product. `δ*((a0,b0), H) = δ*_A(H) × δ*_B(H)`, so `H` is accepted iff
/// both components accept it — which is what lets the lattice checks test
/// join preservation (`L(φ(c ∨ d)) = L(φ(c)) ∩ L(φ(d))`) without
/// materializing either language.
#[derive(Debug, Clone)]
pub struct IntersectionAutomaton<A, B> {
    left: A,
    right: B,
}

impl<A, B> IntersectionAutomaton<A, B> {
    /// Builds the synchronized product of two automata over a shared
    /// alphabet.
    pub fn new(left: A, right: B) -> Self {
        IntersectionAutomaton { left, right }
    }
}

impl<A, B> ObjectAutomaton for IntersectionAutomaton<A, B>
where
    A: ObjectAutomaton,
    B: ObjectAutomaton<Op = A::Op>,
{
    type State = (A::State, B::State);
    type Op = A::Op;

    fn initial_state(&self) -> Self::State {
        (self.left.initial_state(), self.right.initial_state())
    }

    fn step(&self, state: &Self::State, op: &Self::Op) -> Vec<Self::State> {
        let lefts = self.left.step(&state.0, op);
        if lefts.is_empty() {
            return Vec::new();
        }
        let rights = self.right.step(&state.1, op);
        let mut out = Vec::with_capacity(lefts.len() * rights.len());
        for l in &lefts {
            for r in &rights {
                out.push((l.clone(), r.clone()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bag automaton over a tiny item domain, used to exercise
    /// nondeterminism: Deq removes *some* item.
    #[derive(Debug, Clone)]
    struct TinyBag;

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum Op {
        Enq(u8),
        Deq(u8),
    }

    impl ObjectAutomaton for TinyBag {
        type State = Vec<u8>; // sorted multiset representation
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
    fn accepts_wellformed_history() {
        let h = History::from(vec![Op::Enq(1), Op::Enq(2), Op::Deq(1)]);
        assert!(TinyBag.accepts(&h));
    }

    #[test]
    fn rejects_deq_of_absent_item() {
        let h = History::from(vec![Op::Enq(1), Op::Deq(2)]);
        assert!(!TinyBag.accepts(&h));
    }

    #[test]
    fn delta_star_tracks_states() {
        let h = History::from(vec![Op::Enq(1), Op::Enq(1)]);
        let states = TinyBag.delta_star(&h);
        assert_eq!(states.len(), 1);
        assert!(states.contains(&vec![1, 1]));
    }

    #[test]
    fn enabled_after_respects_preconditions() {
        let alphabet = vec![Op::Enq(1), Op::Deq(1), Op::Deq(2)];
        let h = History::from(vec![Op::Enq(1)]);
        let enabled = TinyBag.enabled_after(&h, &alphabet);
        assert!(enabled.contains(&Op::Enq(1)));
        assert!(enabled.contains(&Op::Deq(1)));
        assert!(!enabled.contains(&Op::Deq(2)));
    }

    #[test]
    fn deterministic_wrapper_returns_value() {
        let d = Deterministic(TinyBag);
        let h = History::from(vec![Op::Enq(2), Op::Enq(1)]);
        assert_eq!(d.value_after(&h), Some(vec![1, 2]));
        let bad = History::from(vec![Op::Deq(1)]);
        assert_eq!(d.value_after(&bad), None);
    }

    /// A genuinely nondeterministic automaton for testing δ* fan-out.
    #[derive(Debug, Clone)]
    struct Forky;

    impl ObjectAutomaton for Forky {
        type State = u8;
        type Op = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn step(&self, s: &u8, op: &u8) -> Vec<u8> {
            // op 0 forks into two states; op 1 only defined on even states.
            match op {
                0 => vec![s + 1, s + 2],
                1 if s.is_multiple_of(2) => vec![*s],
                _ => vec![],
            }
        }
    }

    #[test]
    fn nondeterministic_fanout_and_pruning() {
        let h = History::from(vec![0]);
        assert_eq!(Forky.delta_star(&h).len(), 2); // {1, 2}
        let h2 = History::from(vec![0, 1]);
        // Only the even branch survives.
        assert_eq!(Forky.delta_star(&h2), HashSet::from([2]));
    }

    #[test]
    #[should_panic(expected = "nondeterministic")]
    fn deterministic_wrapper_panics_on_fanout() {
        let d = Deterministic(Forky);
        let _ = d.value_after(&History::from(vec![0]));
    }
}
