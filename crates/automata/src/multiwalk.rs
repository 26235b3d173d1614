//! The bounded language walk — the one layered walk in the workspace.
//!
//! Every bounded language question (per-length counts, inclusion,
//! equality, strict inclusion, the lattice laws, the CALM analyzer's
//! quorum-insensitivity check, Theorem 4's four lattice points) is an
//! instance of [`multi_compare_upto`]: `N` pairs of automata over one
//! alphabet, walked together to a length bound. [`compare_upto`] is the
//! walk at `N = 1`.
//!
//! The walk determinizes on the fly. A node of level `d` is the tuple of
//! all `N` points' (left state set, right state set) pairs reached by
//! some class of histories of length `d`; histories collapse whenever
//! the whole tuple matches. Each node carries
//!
//! * a **multiplicity** — how many distinct histories reach it.
//!   Languages of object automata are prefix-closed, so accepted
//!   histories correspond bijectively to root paths and per-level
//!   multiplicity sums are *exact* per-length language sizes;
//! * a **parent pointer** `(node index in the previous level, alphabet
//!   index)` — a point whose left set is nonempty and right set empty
//!   (or the reverse) is a violation, and its shallowest witness is
//!   rebuilt from parent pointers only then. No history is stored during
//!   the walk.
//!
//! Three sharing layers make it cheap, each feeding the next in dense
//! `u32` ids:
//!
//! * [`DenseArena`] — states and state *sets* are interned to dense ids
//!   in flat storage shared by all points on a side, with single-probe
//!   [`ConsTable`] probing, set payloads packed end-to-end in one
//!   `Vec<u32>`, and singleton sets (all a deterministic automaton ever
//!   reaches) found by a direct `state id → set id` index.
//! * **The state table** — per point and side, the successor state ids
//!   of each state id under every alphabet symbol, filled by **one**
//!   [`ObjectAutomaton::step_all_into`] per (point, state) however many
//!   sets the state is a member of, into one [`Successors`] buffer per
//!   side whose slots are reused call after call; a successor is cloned
//!   only when the arena has not seen it. It is the automaton's
//!   transition relation over the states the walk reached, in integers.
//! * **Set rows** — per point and side, the successor set id of each set
//!   id under every symbol: per symbol, the members' state-table entries
//!   gathered into one buffer and interned. Pure integer work, done once
//!   per (point, set) and reused by every node containing that set.
//!
//! Both tables are a `start` offset per id into one flat pool, so a
//! point's rows cost no allocation each.
//!
//! [`CompareOptions`] says which histories a point walks and when it may
//! stop. Each point stops on its own condition and the walk ends when
//! every point has stopped or died out, so a point's result is what its
//! own `N = 1` walk returns (except `peak_level_width`, which reports
//! the one shared walk). `tests/language_engine.rs` holds all of this to
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

/// One side (left or right) of all `N` points: the automata, the arena
/// they share, and each point's state table and set rows.
struct Side<'a, A: ObjectAutomaton, const N: usize> {
    automata: &'a [A; N],
    arena: DenseArena<A::State>,
    /// Per point, `state id →` row of `k` running end counts (one per
    /// alphabet symbol) followed by the successor state ids they
    /// delimit, symbol by symbol. Points never share a row: the same
    /// state steps differently under different automata.
    state_rows: [RowTable; N],
    /// Per point, `set id →` row of `k` successor set ids
    /// ([`EMPTY_SET`] where `δ` is undefined on every member).
    set_rows: [RowTable; N],
    /// Scratch: the state-row offsets of the set being filled.
    members: Vec<usize>,
    /// Scratch: one symbol's gathered successor state ids.
    gathered: Vec<u32>,
    /// Scratch: the successors of the state being stepped.
    successors: Successors<A::State>,
    tally: Tally,
}

impl<'a, A: ObjectAutomaton, const N: usize> Side<'a, A, N> {
    /// The side and its `N` initial singleton sets.
    fn new(automata: &'a [A; N]) -> (Self, [u32; N]) {
        let mut arena = DenseArena::new();
        let initial = std::array::from_fn(|p| {
            let state = arena.intern_state(&automata[p].initial_state());
            arena.intern_set(&mut vec![state])
        });
        let side = Side {
            automata,
            arena,
            state_rows: std::array::from_fn(|_| RowTable::default()),
            set_rows: std::array::from_fn(|_| RowTable::default()),
            members: Vec::new(),
            gathered: Vec::new(),
            successors: Successors::new(),
            tally: Tally::default(),
        };
        (side, initial)
    }

    /// The offset in `state_rows[p].pool` of `state_id`'s row, written
    /// on first demand by the one `step_all_into` this (point, state)
    /// gets.
    fn state_row(&mut self, p: usize, state_id: u32, alphabet: &[A::Op]) -> usize {
        if let Some(offset) = self.state_rows[p].offset(state_id) {
            self.tally.state_hits += 1;
            return offset;
        }
        self.tally.state_steps += 1;
        // Successors are interned after the call returns, so it can
        // borrow the arena's own copy of the state.
        self.successors.clear();
        self.automata[p].step_all_into(self.arena.state(state_id), alphabet, &mut self.successors);
        let k = alphabet.len();
        assert_eq!(
            self.successors.symbols(),
            k,
            "step_all_into: one run per symbol"
        );
        let states = &mut self.state_rows[p];
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

    /// The offset in `set_rows[p].pool` of `set_id`'s successor row,
    /// written on first demand: per symbol, the members' successors
    /// gathered from the state table and interned as one set.
    fn row(&mut self, p: usize, set_id: u32, alphabet: &[A::Op]) -> usize {
        if let Some(offset) = self.set_rows[p].offset(set_id) {
            self.tally.row_hits += 1;
            return offset;
        }
        self.tally.row_fills += 1;
        self.members.clear();
        // By index: stepping a member interns states into the arena.
        for m in 0..self.arena.set(set_id).len() {
            let state_id = self.arena.set(set_id)[m];
            let state_row = self.state_row(p, state_id, alphabet);
            self.members.push(state_row);
        }
        let k = alphabet.len();
        let offset = self.set_rows[p].open(set_id);
        for i in 0..k {
            self.gathered.clear();
            for &member in &self.members {
                let row = &self.state_rows[p].pool[member..];
                let from = if i == 0 { 0 } else { row[i - 1] as usize };
                self.gathered
                    .extend_from_slice(&row[k + from..k + row[i] as usize]);
            }
            let successor = self.arena.intern_set(&mut self.gathered);
            self.set_rows[p].pool.push(successor);
        }
        offset
    }

    fn approx_bytes(&self) -> usize {
        self.arena.approx_bytes()
            + self
                .state_rows
                .iter()
                .chain(&self.set_rows)
                .map(RowTable::approx_bytes)
                .sum::<usize>()
    }
}

/// When a point of the walk may stop.
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

/// Options for the walk, applied to every point.
#[derive(Debug, Clone, Copy)]
pub struct CompareOptions {
    /// Also explore histories accepted only by the right automaton.
    /// Required to detect `L(right) ⊄ L(left)`; plain one-direction
    /// inclusion checks leave it off and prune right-only nodes.
    pub walk_right_only: bool,
    /// When a point may stop.
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
}

/// The outcome of the walk for one (left, right) point.
#[derive(Debug, Clone)]
pub struct LanguageComparison<Op> {
    /// A shallowest history in `L(left) ∖ L(right)` within the bound, if
    /// any was found before the point stopped.
    pub left_not_in_right: Option<History<Op>>,
    /// A shallowest history in `L(right) ∖ L(left)` within the bound, if
    /// any was found before the point stopped (always `None` when
    /// [`CompareOptions::walk_right_only`] is off).
    pub right_not_in_left: Option<History<Op>>,
    /// Distinct histories of `L(left)` per length. Exact for points that
    /// ran to the bound ([`StopWhen::Never`]); early stops leave the
    /// tail zero.
    pub left_sizes: Vec<u64>,
    /// Distinct histories of `L(right)` per length: all of them with
    /// `walk_right_only` on, those also in `L(left)` with it off (same
    /// caveat on early stops).
    pub right_sizes: Vec<u64>,
    /// Widest level of the walk this point rode, in nodes.
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

/// One node of the walk: the `N` points' (left, right) set ids for one
/// class of histories, plus the class's exact history count.
#[derive(Debug, Clone, Copy)]
struct MultiNode<const N: usize> {
    l: [u32; N],
    r: [u32; N],
    multiplicity: u64,
    parent: u32,
    op: u16,
}

/// O(depth) witness reconstruction: walks `(parent, alphabet index)`
/// edges from node `index` of level `depth` to the root.
fn reconstruct_path<Op: Clone, const N: usize>(
    levels: &[Vec<MultiNode<N>>],
    alphabet: &[Op],
    depth: usize,
    index: usize,
) -> History<Op> {
    let mut ops = Vec::with_capacity(depth);
    let mut i = index;
    for d in (1..=depth).rev() {
        let node = &levels[d][i];
        ops.push(alphabet[node.op as usize].clone());
        i = node.parent as usize;
    }
    ops.reverse();
    History::from(ops)
}

/// The outcome of a walk over `N` points.
#[derive(Debug, Clone)]
pub struct MultiComparison<Op> {
    /// Per-point results, in input order (`peak_level_width` reports the
    /// *shared* walk's peak for every point, since there is only one
    /// walk).
    pub points: Vec<LanguageComparison<Op>>,
    /// Widest shared level, in tuple nodes.
    pub peak_level_width: usize,
    /// Distinct left-side state sets interned across all points.
    pub left_sets: usize,
    /// Distinct right-side state sets interned across all points.
    pub right_sets: usize,
}

/// Walks the `N` product languages `L(lefts[p])` vs `L(rights[p])` in
/// **one** shared bounded walk over `alphabet` up to `max_len`, per
/// `options` (see the [`CompareOptions`] constructors). Per-length counts
/// are exact for points that run to the bound, witnesses are shallowest.
///
/// All left automata must share a state type, as must all right
/// automata; the points themselves may differ arbitrarily (the taxi
/// lattice: same Rep-view machine type at four `(q1, q2)` points).
pub fn multi_compare_upto<L, R, const N: usize>(
    lefts: &[L; N],
    rights: &[R; N],
    alphabet: &[L::Op],
    max_len: usize,
    options: CompareOptions,
) -> MultiComparison<L::Op>
where
    L: ObjectAutomaton,
    R: ObjectAutomaton<Op = L::Op>,
{
    multi_compare_upto_probed(lefts, rights, alphabet, max_len, options, &mut NoopProbe)
}

/// [`multi_compare_upto`] with an [`EngineProbe`] watching the walk.
///
/// Per depth the probe receives one `multi_depth` span plus gauges for
/// frontier width (`frontier_nodes`), distinct interned sets per side
/// (`left_sets`/`right_sets`), arena memory (`arena_bytes`), cons-table
/// occupancy (`cons_used` of `cons_slots`, `cons_load_pct`), and
/// counters for the two memo layers, batched per depth — never
/// incremented per node: set rows written and reused
/// (`row_fills`/`row_hits`), and, while writing them, member states
/// stepped and found already stepped (`state_steps`/`state_hits`).
/// `arena_bytes` counts the arenas and both layers' pools. The whole walk
/// sits inside a `multiwalk` span. With [`NoopProbe`] this monomorphizes
/// to the plain walk.
pub fn multi_compare_upto_probed<L, R, P, const N: usize>(
    lefts: &[L; N],
    rights: &[R; N],
    alphabet: &[L::Op],
    max_len: usize,
    options: CompareOptions,
    probe: &mut P,
) -> MultiComparison<L::Op>
where
    L: ObjectAutomaton,
    R: ObjectAutomaton<Op = L::Op>,
    P: EngineProbe,
{
    assert!(N > 0, "multi_compare_upto needs at least one point");
    probe.enter("multiwalk");
    let k = alphabet.len();
    let (mut left, l0) = Side::new(lefts);
    let (mut right, r0) = Side::new(rights);

    let mut levels: Vec<Vec<MultiNode<N>>> = vec![vec![MultiNode {
        l: l0,
        r: r0,
        multiplicity: 1,
        parent: NO_PARENT,
        op: 0,
    }]];
    // `(l, r) → index in the level being built`; cleared, not dropped,
    // between depths.
    let mut index_of = ConsTable::new();
    let mut left_sizes = vec![vec![1u64]; N];
    let mut right_sizes = vec![vec![1u64]; N];
    // (depth, node index) of the shallowest violation per direction.
    let mut l_violation: Vec<Option<(usize, usize)>> = vec![None; N];
    let mut r_violation: Vec<Option<(usize, usize)>> = vec![None; N];
    // A point that stops has its sets emptied in the level it stopped
    // at, so from there on the walk sees it as died out.
    let mut stopped = [false; N];
    let mut peak = 1usize;

    for depth in 0..max_len {
        probe.enter("multi_depth");
        let mut next: Vec<MultiNode<N>> = Vec::new();
        index_of.clear();
        let mut l_level = [0u64; N];
        let mut r_level = [0u64; N];
        for (node_index, &node) in levels[depth].iter().enumerate() {
            // Where each point's two rows start in their pools; unread
            // for an empty set.
            let mut l_row = [0usize; N];
            let mut r_row = [0usize; N];
            for p in 0..N {
                if node.l[p] != EMPTY_SET {
                    l_row[p] = left.row(p, node.l[p], alphabet);
                }
                if node.r[p] != EMPTY_SET {
                    r_row[p] = right.row(p, node.r[p], alphabet);
                }
            }
            for i in 0..k {
                let mut l = [EMPTY_SET; N];
                let mut r = [EMPTY_SET; N];
                let mut alive = false;
                let mut hasher = WordHasher::default();
                for p in 0..N {
                    if node.l[p] != EMPTY_SET {
                        l[p] = left.set_rows[p].pool[l_row[p] + i];
                    }
                    if node.r[p] != EMPTY_SET && (options.walk_right_only || l[p] != EMPTY_SET) {
                        r[p] = right.set_rows[p].pool[r_row[p] + i];
                    }
                    alive |= l[p] != EMPTY_SET || r[p] != EMPTY_SET;
                    hasher.word(u64::from(l[p]) << 32 | u64::from(r[p]));
                }
                if !alive {
                    continue;
                }
                let mult = node.multiplicity;
                for p in 0..N {
                    if l[p] != EMPTY_SET {
                        l_level[p] += mult;
                    }
                    if r[p] != EMPTY_SET {
                        r_level[p] += mult;
                    }
                }
                let index = match index_of.entry(hasher.finish(), |index| {
                    let seen = &next[index as usize];
                    seen.l == l && seen.r == r
                }) {
                    Entry::Occupied(index) => {
                        let index = index as usize;
                        next[index].multiplicity += mult;
                        index
                    }
                    Entry::Vacant(slot) => {
                        let index = next.len();
                        slot.insert(u32::try_from(index).expect("level exceeds u32 nodes"));
                        next.push(MultiNode {
                            l,
                            r,
                            multiplicity: mult,
                            parent: u32::try_from(node_index).expect("level exceeds u32 nodes"),
                            op: u16::try_from(i).expect("alphabet exceeds u16 symbols"),
                        });
                        index
                    }
                };
                for p in 0..N {
                    if l[p] != EMPTY_SET && r[p] == EMPTY_SET && l_violation[p].is_none() {
                        l_violation[p] = Some((depth + 1, index));
                    }
                    if l[p] == EMPTY_SET && r[p] != EMPTY_SET && r_violation[p].is_none() {
                        r_violation[p] = Some((depth + 1, index));
                    }
                }
            }
        }
        for p in 0..N {
            left_sizes[p].push(l_level[p]);
            right_sizes[p].push(r_level[p]);
        }
        peak = peak.max(next.len());
        let (lt, rt) = (
            std::mem::take(&mut left.tally),
            std::mem::take(&mut right.tally),
        );
        if probe.is_enabled() {
            probe.add("row_fills", lt.row_fills + rt.row_fills);
            probe.add("row_hits", lt.row_hits + rt.row_hits);
            probe.add("state_steps", lt.state_steps + rt.state_steps);
            probe.add("state_hits", lt.state_hits + rt.state_hits);
            probe.gauge("frontier_nodes", next.len() as i64);
            probe.gauge("left_sets", left.arena.set_count() as i64);
            probe.gauge("right_sets", right.arena.set_count() as i64);
            let bytes = left.approx_bytes() + right.approx_bytes();
            probe.gauge("arena_bytes", bytes as i64);
            let (lu, ls) = left.arena.table_load();
            let (ru, rs) = right.arena.table_load();
            probe.gauge("cons_used", (lu + ru) as i64);
            probe.gauge("cons_slots", (ls + rs) as i64);
            probe.gauge("cons_load_pct", (100 * (lu + ru) / (ls + rs)) as i64);
        }
        probe.exit("multi_depth");
        for p in 0..N {
            let stop = match options.stop {
                StopWhen::AnyViolation => l_violation[p].is_some() || r_violation[p].is_some(),
                StopWhen::BothViolations => {
                    l_violation[p].is_some()
                        && (r_violation[p].is_some() || !options.walk_right_only)
                }
                StopWhen::Never => false,
            };
            if stop && !stopped[p] {
                stopped[p] = true;
                for node in &mut next {
                    node.l[p] = EMPTY_SET;
                    node.r[p] = EMPTY_SET;
                }
            }
        }
        let dead = next.is_empty();
        levels.push(next);
        if dead || stopped.iter().all(|&s| s) {
            break;
        }
    }

    let reconstruct = |violation: Option<(usize, usize)>| {
        violation.map(|(depth, index)| reconstruct_path(&levels, alphabet, depth, index))
    };

    let points = (0..N)
        .map(|p| {
            let mut ls = left_sizes[p].clone();
            let mut rs = right_sizes[p].clone();
            ls.resize(max_len + 1, 0);
            rs.resize(max_len + 1, 0);
            LanguageComparison {
                left_not_in_right: reconstruct(l_violation[p]),
                right_not_in_left: reconstruct(r_violation[p]),
                left_sizes: ls,
                right_sizes: rs,
                peak_level_width: peak,
                max_len,
            }
        })
        .collect();

    probe.exit("multiwalk");
    MultiComparison {
        points,
        peak_level_width: peak,
        left_sets: left.arena.set_count(),
        right_sets: right.arena.set_count(),
    }
}

/// The walk at `N = 1`: `L(left)` against `L(right)` up to `max_len`
/// over `alphabet`, per `options`.
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
/// and gauges of [`multi_compare_upto_probed`]).
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
    multi_compare_upto_probed(&[left], &[right], alphabet, max_len, options, probe)
        .points
        .pop()
        .expect("one point in, one point out")
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
        // Two points a side share one arena, so the empty bag and every
        // bag of up to two items has one state id for both automata; each
        // must still step it itself, once, whatever sets it is in.
        let lefts = [Counted::new(2), Counted::new(3)];
        let rights = [Counted::new(3), Counted::new(2)];
        let multi = multi_compare_upto(&lefts, &rights, &alphabet(), 5, CompareOptions::counting());
        for automaton in lefts.iter().chain(&rights) {
            let calls = automaton.calls.borrow();
            let stepped: std::collections::BTreeSet<Vec<u8>> = calls.keys().cloned().collect();
            assert_eq!(stepped, automaton.reachable_below(5));
            assert!(calls.values().all(|&n| n == 1), "stepped twice: {calls:?}");
        }
        // A row borrowed from the other point would show here too.
        let sizes = |cap| language_sizes_of(&CappedBag { cap }, 5);
        assert_eq!(multi.points[0].left_sizes, sizes(2));
        assert_eq!(multi.points[0].right_sizes, sizes(3));
        assert_eq!(multi.points[1].left_sizes, sizes(3));
        assert_eq!(multi.points[1].right_sizes, sizes(2));
    }

    fn language_sizes_of(a: &CappedBag, max_len: usize) -> Vec<u64> {
        compare_upto(a, a, &alphabet(), max_len, CompareOptions::counting()).left_sizes
    }

    #[test]
    fn shared_walk_matches_separate_counting_walks() {
        let lefts = [CappedBag { cap: 2 }, CappedBag { cap: 3 }];
        let rights = [CappedBag { cap: 1 }, CappedBag { cap: 3 }];
        let multi = multi_compare_upto(&lefts, &rights, &alphabet(), 6, CompareOptions::counting());
        for p in 0..2 {
            let single = compare_upto(
                &lefts[p],
                &rights[p],
                &alphabet(),
                6,
                CompareOptions::counting(),
            );
            let shared = &multi.points[p];
            assert_eq!(single.left_sizes, shared.left_sizes, "point {p} left sizes");
            assert_eq!(
                single.right_sizes, shared.right_sizes,
                "point {p} right sizes"
            );
            assert_eq!(
                single.left_not_in_right.as_ref().map(History::len),
                shared.left_not_in_right.as_ref().map(History::len),
                "point {p} left witness depth"
            );
            assert_eq!(
                single.right_not_in_left.as_ref().map(History::len),
                shared.right_not_in_left.as_ref().map(History::len),
                "point {p} right witness depth"
            );
        }
        // Point 0: cap-2 accepts Put·Put, cap-1 does not.
        let w = multi.points[0]
            .left_not_in_right
            .as_ref()
            .expect("cap-2 exceeds cap-1");
        assert!(lefts[0].accepts(w));
        assert!(!rights[0].accepts(w));
        // Point 1: identical automata agree.
        assert!(multi.points[1].agree());
    }

    #[test]
    fn shared_walk_witnesses_are_shallowest() {
        let lefts = [CappedBag { cap: 3 }];
        let rights = [CappedBag { cap: 1 }];
        let multi = multi_compare_upto(&lefts, &rights, &alphabet(), 5, CompareOptions::counting());
        // The shallowest separating history is Put·Put (length 2).
        let w = multi.points[0]
            .left_not_in_right
            .as_ref()
            .expect("separated");
        assert_eq!(w.len(), 2);
    }
}
