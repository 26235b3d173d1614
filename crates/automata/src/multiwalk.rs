//! The bounded language walk — the one layered walk in the workspace.
//!
//! Every bounded language question (per-length counts, inclusion,
//! equality, strict inclusion, the lattice laws, the CALM analyzer's
//! quorum-insensitivity check, each of Theorem 4's four lattice points)
//! is one walk of a (left, right) pair of automata over one alphabet to
//! a length bound: [`compare_upto`]. Several pairs of the same automaton
//! types walk in turn through one [`LanguageWalker`], which keeps its
//! buffers between walks.
//!
//! The walk determinizes on the fly. A node of level `d` is the (left
//! state set, right state set) pair reached by some class of histories
//! of length `d`; histories collapse whenever the pair matches. Each node
//! carries
//!
//! * a **multiplicity** — how many distinct histories reach it.
//!   Languages of object automata are prefix-closed, so accepted
//!   histories correspond bijectively to root paths and per-level
//!   multiplicity sums are *exact* per-length language sizes;
//! * a **parent pointer** `(node index, alphabet index)` — a node whose
//!   left set is nonempty and right set empty (or the reverse) is a
//!   violation, and its shallowest witness is rebuilt from parent
//!   pointers only then. No history is stored during the walk.
//!
//! Three sharing layers make it cheap, each feeding the next in dense
//! `u32` ids, one of each a side:
//!
//! * [`DenseArena`] — states and state *sets* are interned to dense ids
//!   in flat storage, with single-probe [`ConsTable`] probing, set
//!   payloads packed end-to-end in one `Vec<u32>`, and singleton sets
//!   (all a deterministic automaton ever reaches) found by a direct
//!   `state id → set id` index.
//! * **The state table** — the successor state ids of each state id
//!   under every alphabet symbol, filled by **one**
//!   [`ObjectAutomaton::step_all_into`] per state however many sets it is
//!   a member of, into one reused [`Successors`] buffer; a successor is
//!   cloned only when the arena has not seen it.
//! * **Set rows** — the successor set id of each set id under every
//!   symbol: per symbol, the members' state-table entries gathered into
//!   one buffer and interned. Pure integer work, done once per set and
//!   reused by every node containing that set.
//!
//! Both tables are a `start` offset per id into one flat pool, and every
//! level of nodes sits end to end in one vector. A walk starts by
//! clearing all of it, capacity kept, so a pair walked after another
//! through the same [`LanguageWalker`] regrows nothing. [`CompareOptions`]
//! says which histories the walk follows and when it may stop.
//! `tests/language_engine.rs` holds all of this to
//! [`crate::language::naive`] on seeded random automata.

use std::hash::{Hash, Hasher};

use crate::automaton::{ObjectAutomaton, Successors};
use crate::cons::{ConsTable, Entry, WordHasher};
use crate::history::History;
use crate::probe::{EngineProbe, NoopProbe};

/// "Nothing here yet" in every `u32`-indexed table of this module. Ids
/// and offsets must stay below it.
const NONE: u32 = u32::MAX;

/// Dense interner for states and sorted state-id sets.
///
/// States get dense `u32` ids in insertion order; canonical sets of
/// state ids are packed end-to-end in one flat `u32` buffer and
/// identified by dense set ids. **Set id 0 is always the empty set.**
/// States and sets of two or more members use single-probe
/// [`ConsTable`] interning; a singleton set is found through its one
/// member's id. Ids are positions in the dense stores, so table growth
/// never moves one.
#[derive(Debug, Clone)]
pub struct DenseArena<S> {
    states: Vec<S>,
    state_table: ConsTable,
    data: Vec<u32>,
    spans: Vec<(u32, u32)>,
    /// Sets of two or more members.
    set_table: ConsTable,
    /// `state id → id of the set holding just that state` ([`NONE`]
    /// until first asked for).
    singleton: Vec<u32>,
}

/// The set id of the empty set in every [`DenseArena`].
pub const EMPTY_SET: u32 = 0;

impl<S: Clone + Eq + Ord + Hash> DenseArena<S> {
    /// An arena holding only the empty set (id [`EMPTY_SET`]).
    pub fn new() -> Self {
        DenseArena {
            states: Vec::new(),
            state_table: ConsTable::new(),
            data: Vec::new(),
            spans: vec![(0, 0)],
            set_table: ConsTable::new(),
            singleton: Vec::new(),
        }
    }

    /// Forgets every state and every set but the empty set, keeping the
    /// storage's capacity: ids start again from the first one.
    fn clear(&mut self) {
        self.states.clear();
        self.state_table.clear();
        self.data.clear();
        self.spans.truncate(1);
        self.set_table.clear();
        self.singleton.clear();
    }

    /// Interns a state, returning its dense id (stable thereafter).
    pub fn intern_state(&mut self, s: &S) -> u32 {
        let mut hasher = WordHasher::default();
        s.hash(&mut hasher);
        let states = &self.states;
        match self
            .state_table
            .entry(hasher.finish(), |id| &states[id as usize] == s)
        {
            Entry::Occupied(id) => id,
            Entry::Vacant(slot) => {
                let id = u32::try_from(self.states.len()).expect("arena exceeds u32 state ids");
                slot.insert(id);
                self.states.push(s.clone());
                self.singleton.push(NONE);
                id
            }
        }
    }

    /// Interns a set of state ids, returning its dense set id. `ids` is
    /// canonicalized in place (sorted, deduplicated) and left that way
    /// for the caller to reuse as a buffer.
    pub fn intern_set(&mut self, ids: &mut Vec<u32>) -> u32 {
        if ids.len() > 1 {
            ids.sort_unstable();
            ids.dedup();
        }
        // What a set not seen before is called: its position in `spans`.
        let fresh = u32::try_from(self.spans.len()).expect("arena exceeds u32 set ids");
        match ids[..] {
            [] => return EMPTY_SET,
            [only] => {
                let known = &mut self.singleton[only as usize];
                if *known != NONE {
                    return *known;
                }
                *known = fresh;
            }
            _ => {
                let (data, spans) = (&self.data, &self.spans);
                match self.set_table.entry(WordHasher::hash_ids(ids), |id| {
                    let (start, len) = spans[id as usize];
                    data[start as usize..(start + len) as usize] == ids[..]
                }) {
                    Entry::Occupied(id) => return id,
                    Entry::Vacant(slot) => slot.insert(fresh),
                }
            }
        }
        let start = u32::try_from(self.data.len()).expect("arena data exceeds u32 span");
        let len = u32::try_from(ids.len()).expect("set exceeds u32 members");
        self.data.extend_from_slice(ids);
        self.spans.push((start, len));
        fresh
    }

    /// The member state ids of an interned set.
    pub fn set(&self, id: u32) -> &[u32] {
        let (start, len) = self.spans[id as usize];
        &self.data[start as usize..(start + len) as usize]
    }

    /// The state behind a dense state id.
    pub fn state(&self, id: u32) -> &S {
        &self.states[id as usize]
    }

    /// Number of interned sets (including the empty set).
    pub fn set_count(&self) -> usize {
        self.spans.len()
    }

    /// Number of interned states.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Approximate heap bytes held by the arena: dense state storage,
    /// packed set payloads, spans, the singleton index and both cons
    /// tables. An estimate — states owning further heap memory (e.g.
    /// `Vec` states) count only their inline size.
    pub fn approx_bytes(&self) -> usize {
        self.states.capacity() * std::mem::size_of::<S>()
            + (self.data.capacity() + self.singleton.capacity()) * std::mem::size_of::<u32>()
            + self.spans.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.state_table.approx_bytes()
            + self.set_table.approx_bytes()
    }

    /// `(occupied, slots)` across both cons tables, for load-factor
    /// reporting.
    pub fn table_load(&self) -> (usize, usize) {
        (
            self.state_table.len() + self.set_table.len(),
            self.state_table.capacity() + self.set_table.capacity(),
        )
    }
}

impl<S: Clone + Eq + Ord + Hash> Default for DenseArena<S> {
    fn default() -> Self {
        DenseArena::new()
    }
}

/// Variable-length `u32` rows keyed by dense id: `start[id]` is the
/// row's offset into one flat pool ([`NONE`] until the row is written).
/// Rows are append-only and self-describing, so a row costs no
/// allocation of its own.
#[derive(Debug, Clone, Default)]
struct RowTable {
    start: Vec<u32>,
    pool: Vec<u32>,
}

impl RowTable {
    /// The pool offset of `id`'s row, if it has been written.
    #[inline]
    fn offset(&self, id: u32) -> Option<usize> {
        match self.start.get(id as usize) {
            Some(&start) if start != NONE => Some(start as usize),
            _ => None,
        }
    }

    /// Starts `id`'s row at the end of the pool and returns its offset;
    /// the caller pushes the row's words.
    fn open(&mut self, id: u32) -> usize {
        let index = id as usize;
        if self.start.len() <= index {
            self.start.resize(index + 1, NONE);
        }
        let offset = self.pool.len();
        self.start[index] = u32::try_from(offset)
            .ok()
            .filter(|&o| o != NONE)
            .expect("row pool exceeds u32 offsets");
        offset
    }

    /// Forgets every row, keeping both buffers' capacity.
    fn clear(&mut self) {
        self.start.clear();
        self.pool.clear();
    }

    fn approx_bytes(&self) -> usize {
        (self.start.capacity() + self.pool.capacity()) * std::mem::size_of::<u32>()
    }
}

/// Memo traffic of one side since it was last taken, reported to the
/// probe once per depth.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    row_fills: u64,
    row_hits: u64,
    state_steps: u64,
    state_hits: u64,
}

/// One side (left or right) of the walk: the arena its states and sets
/// are interned in, its state table and its set rows. The automaton is
/// lent per call, so the side outlives the walk.
#[derive(Debug)]
struct Side<S> {
    arena: DenseArena<S>,
    /// `state id →` row of `k` running end counts (one per alphabet
    /// symbol) followed by the successor state ids they delimit, symbol
    /// by symbol.
    state_rows: RowTable,
    /// `set id →` row of `k` successor set ids ([`EMPTY_SET`] where `δ`
    /// is undefined on every member).
    set_rows: RowTable,
    /// Scratch: the state-row offsets of the set being filled.
    members: Vec<usize>,
    /// Scratch: one symbol's gathered successor state ids.
    gathered: Vec<u32>,
    /// Scratch: the successors of the state being stepped.
    successors: Successors<S>,
    tally: Tally,
}

impl<S: Clone + Eq + Ord + Hash> Side<S> {
    fn new() -> Self {
        Side {
            arena: DenseArena::new(),
            state_rows: RowTable::default(),
            set_rows: RowTable::default(),
            members: Vec::new(),
            gathered: Vec::new(),
            successors: Successors::new(),
            tally: Tally::default(),
        }
    }

    /// Forgets the previous walk's states, sets and rows, keeping every
    /// buffer's capacity, and returns the id of `automaton`'s initial
    /// singleton set.
    fn reset<A: ObjectAutomaton<State = S>>(&mut self, automaton: &A) -> u32 {
        self.arena.clear();
        self.state_rows.clear();
        self.set_rows.clear();
        self.tally = Tally::default();
        let state = self.arena.intern_state(&automaton.initial_state());
        self.gathered.clear();
        self.gathered.push(state);
        self.arena.intern_set(&mut self.gathered)
    }

    /// The offset in `state_rows.pool` of `state_id`'s row, written on
    /// first demand by the one `step_all_into` this state gets.
    fn state_row<A>(&mut self, automaton: &A, state_id: u32, alphabet: &[A::Op]) -> usize
    where
        A: ObjectAutomaton<State = S>,
    {
        if let Some(offset) = self.state_rows.offset(state_id) {
            self.tally.state_hits += 1;
            return offset;
        }
        self.tally.state_steps += 1;
        // Successors are interned after the call returns, so it can
        // borrow the arena's own copy of the state.
        self.successors.clear();
        automaton.step_all_into(self.arena.state(state_id), alphabet, &mut self.successors);
        let k = alphabet.len();
        assert_eq!(
            self.successors.symbols(),
            k,
            "step_all_into: one run per symbol"
        );
        let states = &mut self.state_rows;
        let offset = states.open(state_id);
        states.pool.resize(offset + k, 0);
        for i in 0..k {
            for target in self.successors.symbol(i) {
                states.pool.push(self.arena.intern_state(target));
            }
            states.pool[offset + i] = u32::try_from(states.pool.len() - offset - k)
                .expect("state row exceeds u32 successors");
        }
        offset
    }

    /// The offset in `set_rows.pool` of `set_id`'s successor row,
    /// written on first demand: per symbol, the members' successors
    /// gathered from the state table and interned as one set.
    fn row<A>(&mut self, automaton: &A, set_id: u32, alphabet: &[A::Op]) -> usize
    where
        A: ObjectAutomaton<State = S>,
    {
        if let Some(offset) = self.set_rows.offset(set_id) {
            self.tally.row_hits += 1;
            return offset;
        }
        self.tally.row_fills += 1;
        self.members.clear();
        // By index: stepping a member interns states into the arena.
        for m in 0..self.arena.set(set_id).len() {
            let state_id = self.arena.set(set_id)[m];
            let state_row = self.state_row(automaton, state_id, alphabet);
            self.members.push(state_row);
        }
        let k = alphabet.len();
        let offset = self.set_rows.open(set_id);
        for i in 0..k {
            self.gathered.clear();
            for &member in &self.members {
                let row = &self.state_rows.pool[member..];
                let from = if i == 0 { 0 } else { row[i - 1] as usize };
                self.gathered
                    .extend_from_slice(&row[k + from..k + row[i] as usize]);
            }
            let successor = self.arena.intern_set(&mut self.gathered);
            self.set_rows.pool.push(successor);
        }
        offset
    }

    fn approx_bytes(&self) -> usize {
        self.arena.approx_bytes() + self.state_rows.approx_bytes() + self.set_rows.approx_bytes()
    }
}

/// When the walk may stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopWhen {
    /// As soon as either direction has a violation (inclusion/equality
    /// checks that only need one counterexample).
    AnyViolation,
    /// Once both directions have violations, or the frontier dies out
    /// (strict-inclusion checks need a verdict for each direction).
    BothViolations,
    /// Never — walk the whole bounded product (exact per-length counts).
    Never,
}

/// Options for the walk.
#[derive(Debug, Clone, Copy)]
pub struct CompareOptions {
    /// Also explore histories accepted only by the right automaton.
    /// Required to detect `L(right) ⊄ L(left)`; plain one-direction
    /// inclusion checks leave it off and prune right-only nodes.
    pub walk_right_only: bool,
    /// When the walk may stop.
    pub stop: StopWhen,
}

impl CompareOptions {
    /// Options for a one-direction `L(left) ⊆ L(right)` check.
    pub fn inclusion() -> Self {
        CompareOptions {
            walk_right_only: false,
            stop: StopWhen::AnyViolation,
        }
    }

    /// Options for an equality check (stop at the first difference).
    pub fn equality() -> Self {
        CompareOptions {
            walk_right_only: true,
            stop: StopWhen::AnyViolation,
        }
    }

    /// Options for a strict-inclusion check (needs both verdicts).
    pub fn strictness() -> Self {
        CompareOptions {
            walk_right_only: true,
            stop: StopWhen::BothViolations,
        }
    }

    /// Options for an exhaustive walk with exact per-length counts.
    pub fn counting() -> Self {
        CompareOptions {
            walk_right_only: true,
            stop: StopWhen::Never,
        }
    }

    /// Does a walk that has found these violations stop here?
    fn stops(&self, left_violation: bool, right_violation: bool) -> bool {
        match self.stop {
            StopWhen::AnyViolation => left_violation || right_violation,
            StopWhen::BothViolations => {
                left_violation && (right_violation || !self.walk_right_only)
            }
            StopWhen::Never => false,
        }
    }
}

/// The outcome of the walk for one (left, right) pair.
#[derive(Debug, Clone)]
pub struct LanguageComparison<Op> {
    /// A shallowest history in `L(left) ∖ L(right)` within the bound, if
    /// any was found before the walk stopped.
    pub left_not_in_right: Option<History<Op>>,
    /// A shallowest history in `L(right) ∖ L(left)` within the bound, if
    /// any was found before the walk stopped (always `None` when
    /// [`CompareOptions::walk_right_only`] is off).
    pub right_not_in_left: Option<History<Op>>,
    /// Distinct histories of `L(left)` per length. Exact for walks that
    /// ran to the bound ([`StopWhen::Never`]); early stops leave the
    /// tail zero.
    pub left_sizes: Vec<u64>,
    /// Distinct histories of `L(right)` per length: all of them with
    /// `walk_right_only` on, those also in `L(left)` with it off (same
    /// caveat on early stops).
    pub right_sizes: Vec<u64>,
    /// Widest level of the walk, in nodes.
    pub peak_level_width: usize,
    /// The history-length bound walked.
    pub max_len: usize,
}

impl<Op> LanguageComparison<Op> {
    /// Did the two languages agree on everything the walk saw?
    pub fn agree(&self) -> bool {
        self.left_not_in_right.is_none() && self.right_not_in_left.is_none()
    }

    /// Total distinct histories of `L(left)` within the bound.
    pub fn left_total(&self) -> u64 {
        self.left_sizes.iter().sum()
    }

    /// Total distinct histories of `L(right)` within the bound.
    pub fn right_total(&self) -> u64 {
        self.right_sizes.iter().sum()
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One node of the walk: the (left, right) set ids of one class of
/// histories, plus the class's exact history count.
#[derive(Debug, Clone, Copy)]
struct Node {
    l: u32,
    r: u32,
    multiplicity: u64,
    /// Index of the parent node in [`LanguageWalker::nodes`].
    parent: u32,
    op: u16,
}

/// The bounded language walk, reusable across pairs of the same left
/// and right automaton types.
///
/// The walker owns everything a walk builds: both sides' arenas, state
/// tables and set rows, every level's nodes and the per-level index that
/// collapses them. [`LanguageWalker::walk`] clears all of it first and
/// keeps the capacity, so walking several pairs in turn through one
/// walker regrows none of it (Theorem 4's four lattice points). No
/// result outlives the walk that computed it.
#[derive(Debug)]
pub struct LanguageWalker<L: ObjectAutomaton, R: ObjectAutomaton> {
    left: Side<L::State>,
    right: Side<R::State>,
    /// Every level's nodes, end to end in level order.
    nodes: Vec<Node>,
    /// `(l, r) → index in nodes` over the level being built; cleared, not
    /// dropped, between depths.
    index_of: ConsTable,
    /// The successor row of [`EMPTY_SET`]: one empty set per symbol.
    empty_row: Vec<u32>,
}

impl<L, R> Default for LanguageWalker<L, R>
where
    L: ObjectAutomaton,
    R: ObjectAutomaton<Op = L::Op>,
{
    fn default() -> Self {
        LanguageWalker::new()
    }
}

impl<L, R> LanguageWalker<L, R>
where
    L: ObjectAutomaton,
    R: ObjectAutomaton<Op = L::Op>,
{
    /// A walker with empty buffers.
    pub fn new() -> Self {
        LanguageWalker {
            left: Side::new(),
            right: Side::new(),
            nodes: Vec::new(),
            index_of: ConsTable::new(),
            empty_row: Vec::new(),
        }
    }

    /// Walks `L(left)` against `L(right)` over `alphabet` up to
    /// `max_len`, per `options` (see the [`CompareOptions`]
    /// constructors). Per-length counts are exact for walks that run to
    /// the bound, witnesses are shallowest.
    ///
    /// Per depth the probe receives one `multi_depth` span plus gauges
    /// for frontier width (`frontier_nodes`), distinct interned sets per
    /// side (`left_sets`/`right_sets`), arena memory (`arena_bytes`),
    /// cons-table occupancy (`cons_used` of `cons_slots`,
    /// `cons_load_pct`), and counters for the two memo layers, batched
    /// per depth — never incremented per node: set rows written and
    /// reused (`row_fills`/`row_hits`), and, while writing them, member
    /// states stepped and found already stepped
    /// (`state_steps`/`state_hits`). `arena_bytes` counts the arenas and
    /// both layers' pools at their capacity, which a reused walker keeps.
    /// The whole walk sits inside a `multiwalk` span. With [`NoopProbe`]
    /// this monomorphizes to the plain walk.
    pub fn walk<P: EngineProbe>(
        &mut self,
        left: &L,
        right: &R,
        alphabet: &[L::Op],
        max_len: usize,
        options: CompareOptions,
        probe: &mut P,
    ) -> LanguageComparison<L::Op> {
        probe.enter("multiwalk");
        let k = alphabet.len();
        let l0 = self.left.reset(left);
        let r0 = self.right.reset(right);
        self.empty_row.clear();
        self.empty_row.resize(k, EMPTY_SET);
        self.nodes.clear();
        self.nodes.push(Node {
            l: l0,
            r: r0,
            multiplicity: 1,
            parent: NO_PARENT,
            op: 0,
        });
        let mut left_sizes = vec![1u64];
        let mut right_sizes = vec![1u64];
        // Node index of the shallowest violation per direction.
        let mut l_violation: Option<usize> = None;
        let mut r_violation: Option<usize> = None;
        let mut level = 0..1;
        let mut peak = 1usize;

        for _ in 0..max_len {
            probe.enter("multi_depth");
            self.index_of.clear();
            let next_start = self.nodes.len();
            let (mut l_level, mut r_level) = (0u64, 0u64);
            for at in level {
                let node = self.nodes[at];
                // The node's two successor rows, read symbol by symbol.
                let l_row = match node.l {
                    EMPTY_SET => &self.empty_row[..],
                    set => {
                        let start = self.left.row(left, set, alphabet);
                        &self.left.set_rows.pool[start..start + k]
                    }
                };
                let r_row = match node.r {
                    EMPTY_SET => &self.empty_row[..],
                    set => {
                        let start = self.right.row(right, set, alphabet);
                        &self.right.set_rows.pool[start..start + k]
                    }
                };
                for (i, (&l, &r)) in l_row.iter().zip(r_row).enumerate() {
                    let r = if options.walk_right_only || l != EMPTY_SET {
                        r
                    } else {
                        EMPTY_SET
                    };
                    if l == EMPTY_SET && r == EMPTY_SET {
                        continue;
                    }
                    let mult = node.multiplicity;
                    if l != EMPTY_SET {
                        l_level += mult;
                    }
                    if r != EMPTY_SET {
                        r_level += mult;
                    }
                    let mut hasher = WordHasher::default();
                    hasher.word(u64::from(l) << 32 | u64::from(r));
                    let nodes = &mut self.nodes;
                    let index = match self.index_of.entry(hasher.finish(), |index| {
                        let seen = &nodes[index as usize];
                        seen.l == l && seen.r == r
                    }) {
                        Entry::Occupied(index) => {
                            let index = index as usize;
                            nodes[index].multiplicity += mult;
                            index
                        }
                        Entry::Vacant(slot) => {
                            let index = nodes.len();
                            slot.insert(u32::try_from(index).expect("walk exceeds u32 nodes"));
                            nodes.push(Node {
                                l,
                                r,
                                multiplicity: mult,
                                parent: u32::try_from(at).expect("walk exceeds u32 nodes"),
                                op: u16::try_from(i).expect("alphabet exceeds u16 symbols"),
                            });
                            index
                        }
                    };
                    if l != EMPTY_SET && r == EMPTY_SET && l_violation.is_none() {
                        l_violation = Some(index);
                    }
                    if l == EMPTY_SET && r != EMPTY_SET && r_violation.is_none() {
                        r_violation = Some(index);
                    }
                }
            }
            left_sizes.push(l_level);
            right_sizes.push(r_level);
            level = next_start..self.nodes.len();
            peak = peak.max(level.len());
            self.report_depth(level.len(), probe);
            probe.exit("multi_depth");
            if level.is_empty() || options.stops(l_violation.is_some(), r_violation.is_some()) {
                break;
            }
        }

        left_sizes.resize(max_len + 1, 0);
        right_sizes.resize(max_len + 1, 0);
        let comparison = LanguageComparison {
            left_not_in_right: l_violation.map(|index| self.witness(alphabet, index)),
            right_not_in_left: r_violation.map(|index| self.witness(alphabet, index)),
            left_sizes,
            right_sizes,
            peak_level_width: peak,
            max_len,
        };
        probe.exit("multiwalk");
        comparison
    }

    /// Hands the depth's memo traffic and sizes to the probe.
    fn report_depth<P: EngineProbe>(&mut self, frontier: usize, probe: &mut P) {
        let (lt, rt) = (
            std::mem::take(&mut self.left.tally),
            std::mem::take(&mut self.right.tally),
        );
        if !probe.is_enabled() {
            return;
        }
        probe.add("row_fills", lt.row_fills + rt.row_fills);
        probe.add("row_hits", lt.row_hits + rt.row_hits);
        probe.add("state_steps", lt.state_steps + rt.state_steps);
        probe.add("state_hits", lt.state_hits + rt.state_hits);
        probe.gauge("frontier_nodes", frontier as i64);
        probe.gauge("left_sets", self.left.arena.set_count() as i64);
        probe.gauge("right_sets", self.right.arena.set_count() as i64);
        let bytes = self.left.approx_bytes() + self.right.approx_bytes();
        probe.gauge("arena_bytes", bytes as i64);
        let (lu, ls) = self.left.arena.table_load();
        let (ru, rs) = self.right.arena.table_load();
        probe.gauge("cons_used", (lu + ru) as i64);
        probe.gauge("cons_slots", (ls + rs) as i64);
        probe.gauge("cons_load_pct", (100 * (lu + ru) / (ls + rs)) as i64);
    }

    /// O(depth) witness reconstruction: follows `(parent, alphabet
    /// index)` edges from node `index` to the root.
    fn witness(&self, alphabet: &[L::Op], index: usize) -> History<L::Op> {
        let path = std::iter::successors(Some(&self.nodes[index]), |node| {
            self.nodes.get(node.parent as usize)
        });
        let mut ops: Vec<_> = path
            .take_while(|node| node.parent != NO_PARENT)
            .map(|node| alphabet[node.op as usize].clone())
            .collect();
        ops.reverse();
        History::from(ops)
    }
}

/// `L(left)` against `L(right)` up to `max_len` over `alphabet`, per
/// `options`: one walk through a fresh [`LanguageWalker`].
pub fn compare_upto<L, R>(
    left: &L,
    right: &R,
    alphabet: &[L::Op],
    max_len: usize,
    options: CompareOptions,
) -> LanguageComparison<L::Op>
where
    L: ObjectAutomaton,
    R: ObjectAutomaton<Op = L::Op>,
{
    compare_upto_probed(left, right, alphabet, max_len, options, &mut NoopProbe)
}

/// [`compare_upto`] with an [`EngineProbe`] watching the walk (the spans
/// and gauges of [`LanguageWalker::walk`]).
pub fn compare_upto_probed<L, R, P>(
    left: &L,
    right: &R,
    alphabet: &[L::Op],
    max_len: usize,
    options: CompareOptions,
    probe: &mut P,
) -> LanguageComparison<L::Op>
where
    L: ObjectAutomaton,
    R: ObjectAutomaton<Op = L::Op>,
    P: EngineProbe,
{
    LanguageWalker::new().walk(left, right, alphabet, max_len, options, probe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    enum Op {
        Put(u8),
        Take(u8),
    }

    fn alphabet() -> Vec<Op> {
        vec![Op::Put(0), Op::Put(1), Op::Take(0), Op::Take(1)]
    }

    /// A bag over {0, 1} holding at most `cap` items.
    #[derive(Debug, Clone)]
    struct CappedBag {
        cap: usize,
    }

    impl ObjectAutomaton for CappedBag {
        type State = Vec<u8>;
        type Op = Op;
        fn initial_state(&self) -> Vec<u8> {
            Vec::new()
        }
        fn step(&self, s: &Vec<u8>, op: &Op) -> Vec<Vec<u8>> {
            match op {
                Op::Put(x) if s.len() < self.cap => {
                    let mut s2 = s.clone();
                    s2.push(*x);
                    s2.sort_unstable();
                    vec![s2]
                }
                Op::Put(_) => vec![],
                Op::Take(x) => match s.iter().position(|y| y == x) {
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
    fn dense_arena_interns_states_and_sets_stably() {
        let mut arena: DenseArena<Vec<u8>> = DenseArena::new();
        assert_eq!(arena.set(EMPTY_SET), &[] as &[u32]);
        let a = arena.intern_state(&vec![1]);
        let b = arena.intern_state(&vec![2]);
        assert_eq!(arena.intern_state(&vec![1]), a);
        let s1 = arena.intern_set(&mut vec![b, a, a]);
        let s2 = arena.intern_set(&mut vec![a, b]);
        assert_eq!(s1, s2, "canonicalization dedups and sorts");
        assert_eq!(arena.set(s1), &[a, b]);
        assert_eq!(arena.intern_set(&mut Vec::new()), EMPTY_SET);
        assert_eq!(arena.set_count(), 2);
        assert_eq!(arena.state_count(), 2);
    }

    #[test]
    fn dense_arena_ids_stay_stable_across_growth() {
        // Interning enough states and sets to force several growths of
        // both cons tables must not move any id: ids are positions in the
        // dense stores, and growth rehashes the index only.
        let mut arena: DenseArena<u32> = DenseArena::new();
        let states: Vec<u32> = (0..501u32).map(|i| arena.intern_state(&(i * 7))).collect();
        let sets: Vec<u32> = (0..500usize)
            .map(|i| arena.intern_set(&mut vec![states[i + 1], states[i]]))
            .collect();
        assert_eq!(arena.state_count(), 501);
        assert_eq!(arena.set_count(), 501); // empty set + 500
        for i in 0..500usize {
            assert_eq!(
                arena.intern_state(&(i as u32 * 7)),
                states[i],
                "state id moved"
            );
            assert_eq!(*arena.state(states[i]), i as u32 * 7);
            assert_eq!(
                arena.intern_set(&mut vec![states[i], states[i + 1]]),
                sets[i],
                "set id moved"
            );
            assert_eq!(arena.set(sets[i]), &[states[i], states[i + 1]]);
        }
        assert_eq!(arena.state_count(), 501);
        assert_eq!(arena.set_count(), 501);
    }

    proptest::proptest! {
        /// The word hasher and the cons tables are an index only: ids
        /// are first-seen positions, as in a `BTreeMap` model. States
        /// are word vectors that differ in their lowest or their highest
        /// byte alone (the bits a multiply never carries down), sets
        /// arrive unsorted and with repeats.
        #[test]
        fn arena_interns_states_and_sets_like_a_btreemap_model(
            states in proptest::collection::vec(
                proptest::collection::vec((0u64..3, 0u64..3), 0..3),
                1..60,
            ),
            sets in proptest::collection::vec(proptest::collection::vec(0usize..60, 0..5), 1..60),
        ) {
            use std::collections::BTreeMap;
            let mut arena: DenseArena<Vec<u64>> = DenseArena::new();
            let mut state_model: BTreeMap<Vec<u64>, u32> = BTreeMap::new();
            let mut ids = Vec::new();
            for words in &states {
                let state: Vec<u64> = words.iter().map(|&(lo, hi)| lo | hi << 56).collect();
                let fresh = state_model.len() as u32;
                let expected = *state_model.entry(state.clone()).or_insert(fresh);
                let id = arena.intern_state(&state);
                proptest::prop_assert_eq!(id, expected);
                proptest::prop_assert_eq!(arena.state(id), &state);
                ids.push(id);
            }
            proptest::prop_assert_eq!(arena.state_count(), state_model.len());
            let mut set_model: BTreeMap<Vec<u32>, u32> = BTreeMap::from([(Vec::new(), EMPTY_SET)]);
            for picks in &sets {
                let mut set: Vec<u32> = picks.iter().map(|&i| ids[i % ids.len()]).collect();
                let mut canonical = set.clone();
                canonical.sort_unstable();
                canonical.dedup();
                let fresh = set_model.len() as u32;
                let expected = *set_model.entry(canonical.clone()).or_insert(fresh);
                let id = arena.intern_set(&mut set);
                proptest::prop_assert_eq!(id, expected);
                proptest::prop_assert_eq!(arena.set(id), &canonical[..]);
            }
            proptest::prop_assert_eq!(arena.set_count(), set_model.len());
        }
    }

    /// A [`CappedBag`] that tallies its `step_all_into` calls per state.
    struct Counted {
        inner: CappedBag,
        calls: std::cell::RefCell<std::collections::BTreeMap<Vec<u8>, u32>>,
    }

    impl Counted {
        fn new(cap: usize) -> Self {
            Counted {
                inner: CappedBag { cap },
                calls: Default::default(),
            }
        }

        /// The states some history shorter than `max_len` reaches: the
        /// ones a counting walk to `max_len` has to step.
        fn reachable_below(&self, max_len: usize) -> std::collections::BTreeSet<Vec<u8>> {
            let mut seen = std::collections::BTreeSet::new();
            let mut frontier = vec![self.inner.initial_state()];
            for _ in 0..max_len {
                let mut next = Vec::new();
                for state in frontier {
                    if seen.insert(state.clone()) {
                        for op in alphabet() {
                            next.extend(self.inner.step(&state, &op));
                        }
                    }
                }
                frontier = next;
            }
            seen
        }
    }

    impl ObjectAutomaton for Counted {
        type State = Vec<u8>;
        type Op = Op;
        fn initial_state(&self) -> Vec<u8> {
            self.inner.initial_state()
        }
        fn step(&self, s: &Vec<u8>, op: &Op) -> Vec<Vec<u8>> {
            self.inner.step(s, op)
        }
        fn step_all_into(&self, s: &Vec<u8>, alphabet: &[Op], out: &mut Successors<Vec<u8>>) {
            *self.calls.borrow_mut().entry(s.clone()).or_insert(0) += 1;
            self.inner.step_all_into(s, alphabet, out);
        }
    }

    #[test]
    fn each_point_steps_each_of_its_states_exactly_once() {
        // Two pairs in turn through one walker: the second walks in the
        // buffers the first filled, where the empty bag and every bag of
        // up to two items gets the id it had before. Each automaton must
        // still step each state it reaches itself, once; a row kept from
        // the first pair would skip the step and answer for it.
        let lefts = [Counted::new(2), Counted::new(3)];
        let rights = [Counted::new(3), Counted::new(2)];
        let mut walker = LanguageWalker::new();
        let walks = [0, 1].map(|p| {
            walker.walk(
                &lefts[p],
                &rights[p],
                &alphabet(),
                5,
                CompareOptions::counting(),
                &mut NoopProbe,
            )
        });
        for automaton in lefts.iter().chain(&rights) {
            let calls = automaton.calls.borrow();
            let stepped: std::collections::BTreeSet<Vec<u8>> = calls.keys().cloned().collect();
            assert_eq!(stepped, automaton.reachable_below(5));
            assert!(calls.values().all(|&n| n == 1), "stepped twice: {calls:?}");
        }
        // A set row kept from the first pair would show here too.
        let sizes = |cap| language_sizes_of(&CappedBag { cap }, 5);
        assert_eq!(walks[0].left_sizes, sizes(2));
        assert_eq!(walks[0].right_sizes, sizes(3));
        assert_eq!(walks[1].left_sizes, sizes(3));
        assert_eq!(walks[1].right_sizes, sizes(2));
    }

    fn language_sizes_of(a: &CappedBag, max_len: usize) -> Vec<u64> {
        compare_upto(a, a, &alphabet(), max_len, CompareOptions::counting()).left_sizes
    }

    #[test]
    fn witnesses_are_shallowest() {
        let cmp = compare_upto(
            &CappedBag { cap: 3 },
            &CappedBag { cap: 1 },
            &alphabet(),
            5,
            CompareOptions::counting(),
        );
        // The shallowest separating history is Put·Put (length 2).
        let w = cmp.left_not_in_right.as_ref().expect("separated");
        assert_eq!(w.len(), 2);
    }
}
