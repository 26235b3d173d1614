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
//! Two sharing layers make it cheap:
//!
//! * [`DenseArena`] — states and state *sets* are interned to dense
//!   `u32` ids in flat storage shared by all points on a side, with
//!   single-probe [`ConsTable`] probing and set payloads packed
//!   end-to-end in one `Vec<u32>`.
//! * **Successor-row memoization** — for each point, the successor
//!   set-ids of each set-id under every alphabet symbol are computed
//!   once ([`ObjectAutomaton::step_all`] per member state) and reused by
//!   every node containing that set.
//!
//! [`CompareOptions`] says which histories a point walks and when it may
//! stop. Each point stops on its own condition and the walk ends when
//! every point has stopped or died out, so a point's result is what its
//! own `N = 1` walk returns (except `peak_level_width`, which reports
//! the one shared walk). `tests/language_engine.rs` holds all of this to
//! [`crate::language::naive`] on seeded random automata.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::automaton::ObjectAutomaton;
use crate::cons::{ConsTable, Entry};
use crate::history::History;
use crate::probe::{EngineProbe, NoopProbe};

/// Dense interner for states and sorted state-id sets.
///
/// States get dense `u32` ids in insertion order; canonical sets of
/// state ids are packed end-to-end in one flat `u32` buffer and
/// identified by dense set ids. **Set id 0 is always the empty set.**
/// Both layers use single-probe [`ConsTable`] interning; ids are
/// positions in the dense stores, so table growth never moves one.
#[derive(Debug, Clone)]
pub struct DenseArena<S> {
    states: Vec<S>,
    state_table: ConsTable,
    data: Vec<u32>,
    spans: Vec<(u32, u32)>,
    set_table: ConsTable,
}

/// The set id of the empty set in every [`DenseArena`].
pub const EMPTY_SET: u32 = 0;

impl<S: Clone + Eq + Ord + Hash> DenseArena<S> {
    /// An arena holding only the empty set (id [`EMPTY_SET`]).
    pub fn new() -> Self {
        let mut arena = DenseArena {
            states: Vec::new(),
            state_table: ConsTable::new(),
            data: Vec::new(),
            spans: Vec::new(),
            set_table: ConsTable::new(),
        };
        let empty = arena.intern_set(Vec::new());
        debug_assert_eq!(empty, EMPTY_SET);
        arena
    }

    fn hash_state(s: &S) -> u64 {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        h.finish()
    }

    fn hash_ids(ids: &[u32]) -> u64 {
        let mut h = DefaultHasher::new();
        ids.hash(&mut h);
        h.finish()
    }

    /// Interns a state, returning its dense id (stable thereafter).
    pub fn intern_state(&mut self, s: &S) -> u32 {
        let hash = Self::hash_state(s);
        let states = &self.states;
        match self.state_table.entry(hash, |id| &states[id as usize] == s) {
            Entry::Occupied(id) => id,
            Entry::Vacant(slot) => {
                let id = u32::try_from(self.states.len()).expect("arena exceeds u32 state ids");
                slot.insert(id);
                self.states.push(s.clone());
                id
            }
        }
    }

    /// Interns a set of state ids (canonicalized in place: sorted,
    /// deduplicated), returning its dense set id.
    pub fn intern_set(&mut self, mut ids: Vec<u32>) -> u32 {
        ids.sort_unstable();
        ids.dedup();
        let hash = Self::hash_ids(&ids);
        let data = &self.data;
        let spans = &self.spans;
        match self.set_table.entry(hash, |id| {
            let (start, len) = spans[id as usize];
            data[start as usize..(start + len) as usize] == *ids
        }) {
            Entry::Occupied(id) => id,
            Entry::Vacant(slot) => {
                let id = u32::try_from(self.spans.len()).expect("arena exceeds u32 set ids");
                slot.insert(id);
                let start = u32::try_from(self.data.len()).expect("arena data exceeds u32 span");
                let len = u32::try_from(ids.len()).expect("set exceeds u32 members");
                self.data.extend_from_slice(&ids);
                self.spans.push((start, len));
                id
            }
        }
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
    /// packed set payloads, spans, and both cons tables. An estimate —
    /// states owning further heap memory (e.g. `Vec` states) count only
    /// their inline size.
    pub fn approx_bytes(&self) -> usize {
        self.states.capacity() * std::mem::size_of::<S>()
            + self.data.capacity() * std::mem::size_of::<u32>()
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

/// The per-point successor set-ids of `set_id` under every alphabet
/// symbol ([`EMPTY_SET`] where `δ` is undefined).
fn compute_row<A: ObjectAutomaton>(
    automaton: &A,
    alphabet: &[A::Op],
    arena: &mut DenseArena<A::State>,
    set_id: u32,
) -> Box<[u32]> {
    let members: Vec<u32> = arena.set(set_id).to_vec();
    let mut per_op: Vec<Vec<u32>> = vec![Vec::new(); alphabet.len()];
    for sid in members {
        // Clone out: interning successors may reallocate the state store.
        let state = arena.state(sid).clone();
        for (i, succs) in automaton.step_all(&state, alphabet).into_iter().enumerate() {
            for t in &succs {
                per_op[i].push(arena.intern_state(t));
            }
        }
    }
    per_op
        .into_iter()
        .map(|ids| arena.intern_set(ids))
        .collect()
}

/// Memoized [`compute_row`]: fills `rows[set_id]` on first demand.
/// Returns true when the row was computed fresh (a memo miss).
fn ensure_row<A: ObjectAutomaton>(
    automaton: &A,
    alphabet: &[A::Op],
    arena: &mut DenseArena<A::State>,
    rows: &mut Vec<Option<Box<[u32]>>>,
    set_id: u32,
) -> bool {
    let idx = set_id as usize;
    if rows.len() <= idx {
        rows.resize_with(idx + 1, || None);
    }
    if rows[idx].is_none() {
        let row = compute_row(automaton, alphabet, arena, set_id);
        rows[idx] = Some(row);
        true
    } else {
        false
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
/// counters for successor-row memoization (`row_fills`/`row_hits`,
/// batched per depth — never incremented per node). The whole walk sits
/// inside a `multiwalk` span. With [`NoopProbe`] this monomorphizes to
/// the plain walk.
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
    let mut left_arena: DenseArena<L::State> = DenseArena::new();
    let mut right_arena: DenseArena<R::State> = DenseArena::new();
    let mut left_rows: Vec<Vec<Option<Box<[u32]>>>> = vec![Vec::new(); N];
    let mut right_rows: Vec<Vec<Option<Box<[u32]>>>> = vec![Vec::new(); N];

    let mut l0 = [EMPTY_SET; N];
    let mut r0 = [EMPTY_SET; N];
    for p in 0..N {
        let ls = left_arena.intern_state(&lefts[p].initial_state());
        l0[p] = left_arena.intern_set(vec![ls]);
        let rs = right_arena.intern_state(&rights[p].initial_state());
        r0[p] = right_arena.intern_set(vec![rs]);
    }

    let mut levels: Vec<Vec<MultiNode<N>>> = vec![vec![MultiNode {
        l: l0,
        r: r0,
        multiplicity: 1,
        parent: NO_PARENT,
        op: 0,
    }]];
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
        let mut row_fills = 0u64;
        let mut row_hits = 0u64;
        let mut next: Vec<MultiNode<N>> = Vec::new();
        let mut index_of: HashMap<([u32; N], [u32; N]), u32> = HashMap::new();
        let mut l_level = [0u64; N];
        let mut r_level = [0u64; N];
        for (node_index, &node) in levels[depth].iter().enumerate() {
            for p in 0..N {
                if node.l[p] != EMPTY_SET {
                    let filled = ensure_row(
                        &lefts[p],
                        alphabet,
                        &mut left_arena,
                        &mut left_rows[p],
                        node.l[p],
                    );
                    if filled {
                        row_fills += 1;
                    } else {
                        row_hits += 1;
                    }
                }
                if node.r[p] != EMPTY_SET {
                    let filled = ensure_row(
                        &rights[p],
                        alphabet,
                        &mut right_arena,
                        &mut right_rows[p],
                        node.r[p],
                    );
                    if filled {
                        row_fills += 1;
                    } else {
                        row_hits += 1;
                    }
                }
            }
            for (i, _) in alphabet.iter().enumerate() {
                let mut l = [EMPTY_SET; N];
                let mut r = [EMPTY_SET; N];
                let mut alive = false;
                for p in 0..N {
                    if node.l[p] != EMPTY_SET {
                        l[p] = left_rows[p][node.l[p] as usize]
                            .as_ref()
                            .expect("row ensured above")[i];
                    }
                    if node.r[p] != EMPTY_SET && (options.walk_right_only || l[p] != EMPTY_SET) {
                        r[p] = right_rows[p][node.r[p] as usize]
                            .as_ref()
                            .expect("row ensured above")[i];
                    }
                    alive |= l[p] != EMPTY_SET || r[p] != EMPTY_SET;
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
                let index = match index_of.entry((l, r)) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let index = *e.get() as usize;
                        next[index].multiplicity += mult;
                        index
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let index = next.len();
                        e.insert(u32::try_from(index).expect("level exceeds u32 nodes"));
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
        if probe.is_enabled() {
            probe.add("row_fills", row_fills);
            probe.add("row_hits", row_hits);
            probe.gauge("frontier_nodes", next.len() as i64);
            probe.gauge("left_sets", left_arena.set_count() as i64);
            probe.gauge("right_sets", right_arena.set_count() as i64);
            let bytes = left_arena.approx_bytes() + right_arena.approx_bytes();
            probe.gauge("arena_bytes", bytes as i64);
            let (lu, ls) = left_arena.table_load();
            let (ru, rs) = right_arena.table_load();
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
        left_sets: left_arena.set_count(),
        right_sets: right_arena.set_count(),
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
        let s1 = arena.intern_set(vec![b, a, a]);
        let s2 = arena.intern_set(vec![a, b]);
        assert_eq!(s1, s2, "canonicalization dedups and sorts");
        assert_eq!(arena.set(s1), &[a, b]);
        assert_eq!(arena.intern_set(Vec::new()), EMPTY_SET);
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
            .map(|i| arena.intern_set(vec![states[i + 1], states[i]]))
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
                arena.intern_set(vec![states[i], states[i + 1]]),
                sets[i],
                "set id moved"
            );
            assert_eq!(arena.set(sets[i]), &[states[i], states[i + 1]]);
        }
        assert_eq!(arena.state_count(), 501);
        assert_eq!(arena.set_count(), 501);
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
