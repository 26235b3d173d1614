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

    /// `δ(s, p)` written over `state` where it holds at most one state:
    /// `Some(true)` once written, `Some(false)` where `δ` is undefined
    /// (`state` is then anything). The default `None` means "use
    /// [`ObjectAutomaton::step`]"; an [`Acceptor`] calls this whenever
    /// its frontier holds one state. An override may instead write one
    /// successor that simulates the others (DegenPQ's `Deq`), which
    /// accepts the same language only while this automaton steps on:
    /// §2.3's combined run, which switches automata, never steps in place.
    fn step_in_place(&self, state: &mut Self::State, op: &Self::Op) -> Option<bool> {
        let _ = (state, op);
        None
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

    /// A history `H` is accepted iff `δ*(H) ≠ ∅`, decided online by an
    /// [`Acceptor`].
    fn accepts(&self, history: &History<Self::Op>) -> bool {
        let mut acceptor = Acceptor::new(self.initial_state());
        history.iter().all(|op| acceptor.step(self, op))
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

    // Forwarded explicitly so overrides survive the indirection.
    fn step_in_place(&self, state: &mut Self::State, op: &Self::Op) -> Option<bool> {
        (**self).step_in_place(state, op)
    }

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

/// The online frontier `δ*(H)` of §2.1, stepped one operation at a
/// time and deduplicated by equality. Every membership check steps one:
/// [`ObjectAutomaton::accepts`], the combined run of §2.3 and the
/// degradation monitor's levels.
///
/// A one-state frontier steps in place through
/// [`ObjectAutomaton::step_in_place`], cloning and allocating nothing; a
/// larger one steps through [`ObjectAutomaton::step`] into a buffer the
/// acceptor keeps (monitored frontiers stay tiny, so a linear scan for
/// duplicates beats hashing whole states). The automaton comes with each
/// step: a run that switches automata steps [`Acceptor::step_exact`].
#[derive(Debug, Clone)]
pub struct Acceptor<S> {
    frontier: Vec<S>,
    /// The previous frontier's buffer, reused by the next wide step.
    scratch: Vec<S>,
}

impl<S: Eq> Acceptor<S> {
    /// The frontier `{initial}`.
    pub fn new(initial: S) -> Self {
        Acceptor {
            frontier: vec![initial],
            scratch: Vec::new(),
        }
    }

    /// Steps the frontier past `op` under `automaton`; `true` while the
    /// history so far is accepted.
    pub fn step<A>(&mut self, automaton: &A, op: &A::Op) -> bool
    where
        A: ObjectAutomaton<State = S> + ?Sized,
    {
        if let [state] = self.frontier.as_mut_slice() {
            if let Some(defined) = automaton.step_in_place(state, op) {
                if !defined {
                    self.frontier.clear();
                }
                return defined;
            }
        }
        self.step_exact(automaton, op)
    }

    /// [`Acceptor::step`] through [`ObjectAutomaton::step`] alone, so the
    /// frontier stays exactly `δ*(H)` whatever `step_in_place` writes.
    pub fn step_exact<A>(&mut self, automaton: &A, op: &A::Op) -> bool
    where
        A: ObjectAutomaton<State = S> + ?Sized,
    {
        let mut next = std::mem::take(&mut self.scratch);
        next.clear();
        for t in self.frontier.iter().flat_map(|s| automaton.step(s, op)) {
            if !next.contains(&t) {
                next.push(t);
            }
        }
        self.scratch = std::mem::replace(&mut self.frontier, next);
        !self.frontier.is_empty()
    }

    /// States the history so far reaches (none once rejected): `δ*(H)`,
    /// or a subset that accepts the same continuations under the same
    /// automaton where its in-place step keeps one simulating state.
    pub fn states(&self) -> &[S] {
        &self.frontier
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
    fn acceptor_frontier_is_delta_star_without_duplicates() {
        let ops = [0, 0, 1, 0, 1, 1];
        let mut acceptor = Acceptor::new(Forky.initial_state());
        for n in 1..=ops.len() {
            let alive = acceptor.step(&Forky, &ops[n - 1]);
            let delta = Forky.delta_star(&History::from(ops[..n].to_vec()));
            let states: HashSet<u8> = acceptor.states().iter().copied().collect();
            assert_eq!(states.len(), acceptor.states().len(), "after {n} ops");
            assert_eq!(states, delta, "after {n} ops");
            assert_eq!(alive, !delta.is_empty());
        }
    }

    /// A counter that steps in place: `Inc` (`true`) always, `Dec` while
    /// positive.
    #[derive(Debug, Clone)]
    struct InPlace;

    impl ObjectAutomaton for InPlace {
        type State = u8;
        type Op = bool;
        fn initial_state(&self) -> u8 {
            0
        }
        fn step(&self, _: &u8, _: &bool) -> Vec<u8> {
            unreachable!("a one-state frontier steps in place")
        }
        fn step_in_place(&self, s: &mut u8, inc: &bool) -> Option<bool> {
            match (inc, *s) {
                (true, _) => *s += 1,
                (false, 0) => return Some(false),
                (false, _) => *s -= 1,
            }
            Some(true)
        }
    }

    #[test]
    fn a_one_state_frontier_steps_in_place_until_it_dies() {
        let mut acceptor = Acceptor::new(0);
        for op in [true, true, false] {
            assert!(acceptor.step(&InPlace, &op));
        }
        assert_eq!(acceptor.states(), [1]);
        assert!(acceptor.step(&InPlace, &false));
        assert!(!acceptor.step(&InPlace, &false));
        assert!(acceptor.states().is_empty());
        assert!(!acceptor.step(&InPlace, &true), "the dead stay dead");
    }

    #[test]
    fn nondeterministic_fanout_and_pruning() {
        let h = History::from(vec![0]);
        assert_eq!(Forky.delta_star(&h).len(), 2); // {1, 2}
        let h2 = History::from(vec![0, 1]);
        // Only the even branch survives.
        assert_eq!(Forky.delta_star(&h2), HashSet::from([2]));
    }
}
