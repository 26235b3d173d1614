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
//! Two sharing layers make it cheap, the first feeding the second in
//! dense `u32` ids, one of each a side:
//!
//! * [`DenseArena`] — states and state *sets* are interned to dense ids
//!   in flat storage, with single-probe [`ConsTable`] probing, set
//!   payloads packed end-to-end in one `Vec<u32>`, and singleton sets
//!   (all a deterministic automaton ever reaches) found by a direct
//!   `state id → set id` index.
//! * **Set rows** — the successor set id of each set id under every
//!   symbol. A singleton's row is **one**
//!   [`ObjectAutomaton::step_all_into`] of its state, into one reused
//!   [`Successors`] buffer, each symbol's successors interned straight
//!   into a set id (a successor is cloned only when the arena has not
//!   seen it). A larger set's row is, per symbol, the union of its
//!   members' rows: pure integer work. Each row is written once and
//!   reused by every node holding that set.
//!
//! Nothing steps the nodes of the last level, so the walk counts that
//! level instead of building it: each node of the level before reads
//! from its sets' rows only which symbols each side defines, and adds
//! its multiplicity. A singleton first met there gets a *counted* row,
//! which marks where `δ` is defined and interns nothing (a larger set,
//! its members' union). It asks [`ObjectAutomaton::defined`] for every
//! symbol and steps nothing; only where some symbol answers `None` does
//! it step the state once. A violation found there is witnessed by its
//! node's path plus the symbol, the history a built level would give.
//!
//! The rows are a `start` offset per set id into one flat pool, and
//! every built level of nodes sits end to end in one vector. A level
//! finds the node of a `(left set, right set)` pair by its left set id,
//! not by hash:
//! `by_left` holds the level's newest node per left set, and the level's
//! other nodes with that left set are chained behind it, so a lookup
//! walks a short chain comparing right set ids. A walk starts by
//! clearing all of it, capacity kept and the arena's states retired for
//! refilling in place, so a pair walked after another through the same
//! [`LanguageWalker`] regrows and re-clones nothing. Theorem 4's walker
//! (`relax-core`'s `theorem4`) lives in a thread-local slot between
//! calls, so a thread keeps the capacity of the largest walk it ran.
//! [`CompareOptions`] says which histories the walk follows and when it
//! may stop.
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
///
/// Clearing the arena retires its states instead of dropping them: the
/// next states interned overwrite them in place (`clone_from`), so a
/// state that owns heap memory (the Rep-view's bag vectors) reuses the
/// retired one's rather than allocating its own.
#[derive(Debug, Clone)]
pub struct DenseArena<S> {
    /// Interned states by id: the first `live` are this arena's, the
    /// rest retired by [`DenseArena::clear`] and refilled in turn.
    states: Vec<S>,
    live: usize,
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
            live: 0,
            state_table: ConsTable::new(),
            data: Vec::new(),
            spans: vec![(0, 0)],
            set_table: ConsTable::new(),
            singleton: Vec::new(),
        }
    }

    /// Forgets every state and every set but the empty set, keeping the
    /// storage's capacity and the states themselves, retired: ids start
    /// again from the first one.
    fn clear(&mut self) {
        self.live = 0;
        self.state_table.clear();
        self.data.clear();
        self.spans.truncate(1);
        self.set_table.clear();
        self.singleton.clear();
    }

    /// Interns a state, returning its dense id (stable thereafter). A
    /// new state refills the next retired slot, if any, in place.
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
                let id = u32::try_from(self.live).expect("arena exceeds u32 state ids");
                slot.insert(id);
                match self.states.get_mut(self.live) {
                    Some(retired) => retired.clone_from(s),
                    None => self.states.push(s.clone()),
                }
                self.live += 1;
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
        &self.states[..self.live][id as usize]
    }

    /// Number of interned sets (including the empty set).
    pub fn set_count(&self) -> usize {
        self.spans.len()
    }

    /// Number of interned states.
    pub fn state_count(&self) -> usize {
        self.live
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

/// Memo traffic of one side since it was last taken, reported to the
/// probe once per depth.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    row_fills: u64,
    row_hits: u64,
    state_steps: u64,
    state_hits: u64,
}

/// An entry of a counted row: `δ` is defined under the symbol, and its
/// successors were not interned.
const DEFINED: u32 = NONE;

/// One side (left or right) of the walk: the arena its states and sets
/// are interned in, and one successor row per set id. The automaton is
/// lent per call, so the side outlives the walk.
#[derive(Debug)]
struct Side<S> {
    arena: DenseArena<S>,
    /// `set id →` offset of its row in `rows` ([`NONE`] until written).
    row_start: Vec<u32>,
    /// Rows end to end, one entry per alphabet symbol: the successor set
    /// id ([`EMPTY_SET`] where `δ` is undefined on every member), or, in
    /// a counted row, [`DEFINED`] where it is defined.
    rows: Vec<u32>,
    /// Scratch: the row offsets of the members of the set being filled.
    members: Vec<usize>,
    /// Scratch: one symbol's successor state ids.
    gathered: Vec<u32>,
    /// Scratch: the successors of the state being stepped.
    successors: Successors<S>,
    tally: Tally,
}

impl<S: Clone + Eq + Ord + Hash> Side<S> {
    fn new() -> Self {
        Side {
            arena: DenseArena::new(),
            row_start: Vec::new(),
            rows: Vec::new(),
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
        self.row_start.clear();
        self.rows.clear();
        self.tally = Tally::default();
        let state = self.arena.intern_state(&automaton.initial_state());
        self.singleton(state)
    }

    /// The id of the set holding just `state_id`.
    fn singleton(&mut self, state_id: u32) -> u32 {
        self.gathered.clear();
        self.gathered.push(state_id);
        self.arena.intern_set(&mut self.gathered)
    }

    /// The offset in `rows` of `set_id`'s row, if it has been written.
    fn written(&self, set_id: u32) -> Option<usize> {
        let start = *self.row_start.get(set_id as usize)?;
        (start != NONE).then_some(start as usize)
    }

    /// Records that `set_id`'s row starts at `offset` in `rows`.
    fn place(&mut self, set_id: u32, offset: usize) {
        if self.row_start.len() <= set_id as usize {
            self.row_start.resize(self.arena.set_count(), NONE);
        }
        self.row_start[set_id as usize] = u32::try_from(offset)
            .ok()
            .filter(|&o| o != NONE)
            .expect("rows exceed u32 offsets");
    }

    /// The offset in `rows` of `set_id`'s successor row, written on
    /// first demand. A singleton's row is one `step_all_into` of its
    /// state, each symbol's successors interned straight into a set id;
    /// a larger set's row is, per symbol, the union of its members'
    /// rows. A `counted` row, for the level that is counted and not
    /// built, only marks where `δ` is defined, and interns nothing: a
    /// singleton's asks [`ObjectAutomaton::defined`] for each symbol, and
    /// steps its state only where some symbol answers `None`.
    fn row<A>(&mut self, automaton: &A, set_id: u32, alphabet: &[A::Op], counted: bool) -> usize
    where
        A: ObjectAutomaton<State = S>,
    {
        if let Some(offset) = self.written(set_id) {
            self.tally.row_hits += 1;
            return offset;
        }
        self.tally.row_fills += u64::from(!counted);
        let members = self.arena.set(set_id).len();
        if members == 1 {
            let state = self.arena.state(self.arena.set(set_id)[0]);
            if counted {
                // Asked, not stepped, where the automaton can answer for
                // every symbol; the answers go straight into the pool.
                let offset = self.rows.len();
                let rows = &mut self.rows;
                let answered = alphabet
                    .iter()
                    .all(|op| match automaton.defined(state, op) {
                        Some(defined) => {
                            rows.push(if defined { DEFINED } else { EMPTY_SET });
                            true
                        }
                        None => false,
                    });
                if answered {
                    self.place(set_id, offset);
                    return offset;
                }
                self.rows.truncate(offset);
            }
            self.tally.state_steps += 1;
            // Successors are interned after the call returns, so it can
            // borrow the arena's own copy of the state.
            self.successors.clear();
            automaton.step_all_into(state, alphabet, &mut self.successors);
            assert_eq!(
                self.successors.symbols(),
                alphabet.len(),
                "step_all_into: one run per symbol"
            );
        } else {
            // By index: a member's first row interns states and sets.
            self.members.clear();
            for m in 0..members {
                let single = self.singleton(self.arena.set(set_id)[m]);
                self.tally.state_hits += u64::from(self.written(single).is_some());
                let member = self.row(automaton, single, alphabet, counted);
                self.members.push(member);
            }
        }
        let offset = self.rows.len();
        self.place(set_id, offset);
        for i in 0..alphabet.len() {
            self.gathered.clear();
            let defined = if members == 1 {
                let successors = self.successors.symbol(i);
                if !counted {
                    for target in successors {
                        self.gathered.push(self.arena.intern_state(target));
                    }
                }
                !successors.is_empty()
            } else {
                let rows = &self.rows;
                if !counted {
                    for &member in &self.members {
                        self.gathered
                            .extend_from_slice(self.arena.set(rows[member + i]));
                    }
                }
                self.members.iter().any(|&m| rows[m + i] != EMPTY_SET)
            };
            let entry = match (defined, counted) {
                (false, _) => EMPTY_SET,
                (true, true) => DEFINED,
                (true, false) => self.arena.intern_set(&mut self.gathered),
            };
            self.rows.push(entry);
        }
        offset
    }

    fn approx_bytes(&self) -> usize {
        self.arena.approx_bytes()
            + (self.row_start.capacity() + self.rows.capacity()) * std::mem::size_of::<u32>()
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
    /// Widest level the walk built, in nodes. The last level, at
    /// `max_len`, is counted and not built, so it never counts here.
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
    /// Index of the level's previous node with the same left set
    /// ([`NONE`] for the first): the chain [`LanguageWalker::by_left`]
    /// starts.
    next: u32,
    op: u16,
}

/// The bounded language walk, reusable across pairs of the same left
/// and right automaton types.
///
/// The walker owns everything a walk builds: both sides' arenas and set
/// rows, every built level's nodes and the per-level index that
/// collapses them (per left set id, a chain of the level's nodes with
/// that left set). [`LanguageWalker::walk`] clears all of it first and
/// keeps the capacity, so walking several pairs in turn through one
/// walker regrows none of it (Theorem 4's four lattice points). A walker
/// that outlives its caller keeps the capacity of the largest walk it
/// ran: Theorem 4's waits in a thread-local slot between calls, so a
/// repeated verification on one thread walks in the last one's buffers.
/// No result outlives the walk that computed it.
#[derive(Debug)]
pub struct LanguageWalker<L: ObjectAutomaton, R: ObjectAutomaton> {
    left: Side<L::State>,
    right: Side<R::State>,
    /// Every level's nodes, end to end in level order.
    nodes: Vec<Node>,
    /// `left set id → (depth, index in nodes)` of the newest node with
    /// that left set of the level at that depth, whose `next` chain holds
    /// the level's others. An entry counts only for the level being
    /// built, so moving to the next depth clears the index for free.
    by_left: Vec<(u32, u32)>,
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
            by_left: Vec::new(),
            empty_row: Vec::new(),
        }
    }

    /// Walks `L(left)` against `L(right)` over `alphabet` up to
    /// `max_len`, per `options` (see the [`CompareOptions`]
    /// constructors). Per-length counts are exact for walks that run to
    /// the bound, witnesses are shallowest.
    ///
    /// Per depth the probe receives one `multi_depth` span plus gauges
    /// for frontier width (`frontier_nodes`, at built levels only),
    /// distinct interned sets per side (`left_sets`/`right_sets`), arena
    /// memory (`arena_bytes`), cons-table occupancy (`cons_used` of
    /// `cons_slots`, `cons_load_pct`), and counters for the set rows,
    /// batched per depth — never incremented per node: rows written with
    /// interned successors and rows reused (`row_fills`/`row_hits`),
    /// states stepped, one `step_all_into` each (`state_steps`; a counted
    /// row steps only where [`ObjectAutomaton::defined`] cannot answer),
    /// and members of a larger set found with their
    /// singleton's row written (`state_hits`). `arena_bytes` counts the
    /// arenas and the row pools at their capacity, which a reused walker
    /// keeps. The whole walk sits inside a `multiwalk` span. With
    /// [`NoopProbe`] this monomorphizes to the plain walk.
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
            next: NONE,
            op: 0,
        });
        self.by_left.clear();
        let mut left_sizes = vec![1u64];
        let mut right_sizes = vec![1u64];
        // The first violating edge per direction, `(node index, alphabet
        // index)`: a shallowest witness.
        let mut l_violation: Option<(usize, usize)> = None;
        let mut r_violation: Option<(usize, usize)> = None;
        let mut level = 0..1;
        let mut peak = 1usize;

        for depth in 1..=max_len {
            probe.enter("multi_depth");
            // Nothing steps the last level's nodes, so it is counted, not
            // built: its edges only say which symbols each side defines.
            let counted = depth == max_len;
            let depth = u32::try_from(depth).expect("walk exceeds u32 levels");
            let next_start = self.nodes.len();
            let (mut l_level, mut r_level) = (0u64, 0u64);
            for at in level {
                let node = self.nodes[at];
                // The node's two successor rows, read symbol by symbol.
                let l_row = match node.l {
                    EMPTY_SET => &self.empty_row[..],
                    set => {
                        let start = self.left.row(left, set, alphabet, counted);
                        &self.left.rows[start..start + k]
                    }
                };
                let r_row = match node.r {
                    EMPTY_SET => &self.empty_row[..],
                    set => {
                        let start = self.right.row(right, set, alphabet, counted);
                        &self.right.rows[start..start + k]
                    }
                };
                // Every left set id the rows name has an index entry.
                let left_sets = self.left.arena.set_count();
                if self.by_left.len() < left_sets {
                    self.by_left.resize(left_sets, (0, NONE));
                }
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
                    if l != EMPTY_SET && r == EMPTY_SET && l_violation.is_none() {
                        l_violation = Some((at, i));
                    }
                    if l == EMPTY_SET && r != EMPTY_SET && r_violation.is_none() {
                        r_violation = Some((at, i));
                    }
                    if counted {
                        continue;
                    }
                    // The level's nodes with left set `l`, newest first.
                    let nodes = &mut self.nodes;
                    let head = &mut self.by_left[l as usize];
                    let first = if head.0 == depth { head.1 } else { NONE };
                    let mut chain = first;
                    while chain != NONE && nodes[chain as usize].r != r {
                        chain = nodes[chain as usize].next;
                    }
                    if chain == NONE {
                        chain = u32::try_from(nodes.len()).expect("walk exceeds u32 nodes");
                        *head = (depth, chain);
                        nodes.push(Node {
                            l,
                            r,
                            multiplicity: 0,
                            parent: u32::try_from(at).expect("walk exceeds u32 nodes"),
                            next: first,
                            op: u16::try_from(i).expect("alphabet exceeds u16 symbols"),
                        });
                    }
                    nodes[chain as usize].multiplicity += mult;
                }
            }
            left_sizes.push(l_level);
            right_sizes.push(r_level);
            // The counted level leaves `level` empty, and the walk ends.
            level = next_start..self.nodes.len();
            peak = peak.max(level.len());
            self.report_depth((!counted).then_some(level.len()), probe);
            probe.exit("multi_depth");
            if level.is_empty() || options.stops(l_violation.is_some(), r_violation.is_some()) {
                break;
            }
        }

        left_sizes.resize(max_len + 1, 0);
        right_sizes.resize(max_len + 1, 0);
        let comparison = LanguageComparison {
            left_not_in_right: l_violation.map(|edge| self.witness(alphabet, edge)),
            right_not_in_left: r_violation.map(|edge| self.witness(alphabet, edge)),
            left_sizes,
            right_sizes,
            peak_level_width: peak,
            max_len,
        };
        probe.exit("multiwalk");
        comparison
    }

    /// Hands the depth's memo traffic and sizes to the probe.
    /// A counted level has no `frontier` to sample.
    fn report_depth<P: EngineProbe>(&mut self, frontier: Option<usize>, probe: &mut P) {
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
        if let Some(frontier) = frontier {
            probe.gauge("frontier_nodes", frontier as i64);
        }
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

    /// O(depth) witness reconstruction: the `(parent, alphabet index)`
    /// edges from node `at` to the root, then the edge's own symbol.
    fn witness(&self, alphabet: &[L::Op], (at, op): (usize, usize)) -> History<L::Op> {
        let path = std::iter::successors(Some(&self.nodes[at]), |node| {
            self.nodes.get(node.parent as usize)
        });
        let mut ops: Vec<_> = std::iter::once(op)
            .chain(
                path.take_while(|node| node.parent != NO_PARENT)
                    .map(|node| usize::from(node.op)),
            )
            .map(|i| alphabet[i].clone())
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
    use crate::random::StepsOnly;

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

        fn defined(&self, s: &Vec<u8>, op: &Op) -> Option<bool> {
            Some(match op {
                Op::Put(_) => s.len() < self.cap,
                Op::Take(x) => s.contains(x),
            })
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

    #[test]
    fn a_cleared_arena_never_hands_out_a_retired_state() {
        let mut arena: DenseArena<Vec<u8>> = DenseArena::new();
        let retired: Vec<u32> = (0..4u8).map(|i| arena.intern_state(&vec![i; 3])).collect();
        let pair = arena.intern_set(&mut vec![retired[3], retired[0]]);
        arena.clear();
        assert_eq!((arena.state_count(), arena.set_count()), (0, 1));
        // New states take the ids from 0 and refill the retired slots;
        // one equal to a retired state is new again.
        let fresh = [vec![9u8], vec![8; 5], vec![0; 3]];
        for (id, state) in (0u32..).zip(&fresh) {
            assert_eq!(arena.intern_state(state), id);
            assert_eq!(arena.state(id), state);
        }
        assert_eq!(arena.intern_state(&vec![9]), 0);
        assert_eq!(arena.state_count(), 3);
        // The fourth retired slot is past the live ids.
        let past =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| arena.state(3).clone()));
        assert!(past.is_err(), "handed out a retired state");
        // Set ids restart as well.
        assert_eq!(arena.intern_set(&mut vec![2, 0]), pair);
        assert_eq!(arena.set(pair), &[0, 2]);
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

    /// A level holds one node per (left set, right set) pair, however
    /// many nodes of the level share its left set. A bag of at most one
    /// item against one of at most three gives every right-only node the
    /// empty left set, so up to ten right sets share one left set a level
    /// and a pair recurs behind newer ones. Each built level's width must
    /// be its number of distinct (left state, right state) pairs, from a
    /// walk over histories that both sides step deterministically, and
    /// the last level, counted and not built, must still be counted in
    /// full.
    #[test]
    fn a_level_holds_each_pair_once() {
        use std::collections::BTreeSet;
        let (left, right) = (&CappedBag { cap: 1 }, &CappedBag { cap: 3 });
        let max_len = 6;
        let mut walker = LanguageWalker::new();
        let cmp = walker.walk(
            left,
            right,
            &alphabet(),
            max_len,
            CompareOptions::counting(),
            &mut NoopProbe,
        );
        let mut depth = vec![0; walker.nodes.len()];
        let mut widths = vec![0usize; max_len];
        for (at, node) in walker.nodes.iter().enumerate() {
            if node.parent != NO_PARENT {
                depth[at] = depth[node.parent as usize] + 1;
            }
            widths[depth[at]] += 1;
        }
        let step = |a: &CappedBag, s: &Option<Vec<u8>>, op: &Op| {
            s.as_ref().and_then(|s| a.step(s, op).into_iter().next())
        };
        let mut level = BTreeSet::from([(Some(Vec::new()), Some(Vec::new()))]);
        let mut naive = vec![1];
        for _ in 1..max_len {
            level = level
                .iter()
                .flat_map(|(l, r)| {
                    alphabet()
                        .into_iter()
                        .map(move |op| (step(left, l, &op), step(right, r, &op)))
                })
                .filter(|pair| *pair != (None, None))
                .collect();
            naive.push(level.len());
        }
        assert_eq!(widths, naive);
        assert_eq!(cmp.peak_level_width, *naive.iter().max().unwrap());
        assert_eq!(cmp.left_sizes, language_sizes_of(left, max_len));
        assert_eq!(cmp.right_sizes, language_sizes_of(right, max_len));
    }

    /// A bag of at most two items against one of at most three first
    /// differ at `Put·Put·Put`, exactly at a bound of three: on the level
    /// that is counted, not built. Each direction, under every preset,
    /// must still find the difference, witness it with the history a
    /// walk that built the level gave (its first violating edge in
    /// expansion order), and count both languages in full, whether the
    /// counted rows ask [`ObjectAutomaton::defined`] or step.
    #[test]
    fn a_difference_at_the_bound_is_counted_and_witnessed() {
        a_difference_at_the_bound(|cap| CappedBag { cap });
        a_difference_at_the_bound(|cap| StepsOnly(CappedBag { cap }));
    }

    fn a_difference_at_the_bound<A>(bag: impl Fn(usize) -> A)
    where
        A: ObjectAutomaton<Op = Op>,
    {
        let max_len = 3;
        let first_difference = History::from(vec![Op::Put(0); 3]);
        let presets = [
            CompareOptions::inclusion(),
            CompareOptions::equality(),
            CompareOptions::strictness(),
            CompareOptions::counting(),
        ];
        for (left_cap, right_cap) in [(2, 3), (3, 2)] {
            let (left, right) = (bag(left_cap), bag(right_cap));
            for options in presets {
                let what = format!("cap {left_cap} against {right_cap}, {options:?}");
                let cmp = compare_upto(&left, &right, &alphabet(), max_len, options);
                // Only the larger bag holds the witness.
                let (found, missing) = match left_cap > right_cap {
                    true => (&cmp.left_not_in_right, &cmp.right_not_in_left),
                    false => (&cmp.right_not_in_left, &cmp.left_not_in_right),
                };
                assert_eq!(missing, &None, "{what}");
                if left_cap < right_cap && !options.walk_right_only {
                    // An inclusion walk does not look for the other way.
                    assert_eq!(found, &None, "{what}");
                } else {
                    let witness = found.as_ref().expect(&what);
                    assert_eq!(witness.len(), max_len, "{what}");
                    assert_eq!(witness, &first_difference, "{what}");
                }
                // Without right-only histories, the right side counts
                // the intersection: the smaller bag.
                let counted_right = match options.walk_right_only {
                    true => right_cap,
                    false => left_cap.min(right_cap),
                };
                let sizes = |cap| language_sizes_of(&CappedBag { cap }, max_len);
                assert_eq!(cmp.left_sizes, sizes(left_cap), "{what}");
                assert_eq!(cmp.right_sizes, sizes(counted_right), "{what}");
            }
        }
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
