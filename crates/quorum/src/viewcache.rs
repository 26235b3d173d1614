//! Memoized view evaluation keyed by log version.
//!
//! Evaluating a view (§3.1's `eval_view`: fold the view's operations in
//! timestamp order into the object's value) from scratch costs O(n) per
//! query — O(n²) over a run. But a client's view between two queries
//! usually grows by appending entries *above* everything it held: the
//! previously evaluated log is then a strict prefix of the new one, and
//! only the suffix needs replaying.
//!
//! A [`ViewCache`] detects that case in O(1) using the log's incremental
//! prefix hash: the cached state is valid for `log` iff `log` has at
//! least `len` entries, the entry at `len - 1` carries the cached last
//! timestamp, and `log.prefix_hash(len)` matches the cached hash — which
//! identifies the prefix *set* up to XOR collision (≈ 2⁻⁶⁴; same trust
//! model as [`crate::frontier`]). On a miss (the merge introduced
//! entries below the cached point, reordering the fold) it falls back to
//! a full replay, so results are always exactly the fresh evaluation.
//!
//! A miss need not replay from zero, though: the cache also keeps a
//! *checkpoint chain* — snapshots of the folded value at geometric
//! prefix lengths (eight per octave; see `checkpoint_slot`), stored as
//! replays cross those boundaries. A checkpoint at length `L` survives
//! a splice at position `p` iff `p >= L` (checked by the same
//! prefix-hash validity test), so a splice replays from the deepest
//! surviving checkpoint below the splice point instead of from zero.
//! The chain costs O(log n) stored values and never changes results —
//! only replay depth.
//!
//! The chain is insurance against a splice, and the cache starts paying
//! for it when it has seen one: nothing is stored before the first miss.
//! A view that only ever grows by appends (one writer, see
//! [`crate::log`]) never reads a checkpoint and so never copies its value
//! into one; the first miss replays from `initial`, as a chain-less
//! cache would, and stores checkpoints as it goes and from then on.
//!
//! # Cost contract
//!
//! *Nothing is folded that no response reads.* §3.1's client merges an
//! initial quorum's logs into a view and then "chooses a response
//! consistent with the view"; only that second step can need the view's
//! value, and only for an invocation whose response depends on it. The
//! runtime therefore hands [`crate::types::ReplicatedType::respond`] a
//! closure over [`ViewCache::eval_ref`] and the type calls it on demand:
//! an `Enq` or a `Credit` costs this cache nothing — no replay, no
//! checkpoint — and a client that never reads a value never stores one.
//! The cache does not need to have seen the views in between: validity
//! is decided against the log it is handed, so a demand after any
//! stretch of growth and splices resumes from the deepest prefix that
//! survived them.
//!
//! The cache *owns* the folded value and extends it in place;
//! [`ViewCache::eval_ref`] hands out a borrow of it. Counting copies of
//! the value (`V::clone`, the expensive thing for a collection-valued
//! `V`), per evaluation demanded:
//!
//! - **hit** (the log grew by a suffix): O(suffix) applies, no copy;
//! - **splice** (entries landed below the cached point): one copy — of
//!   the surviving checkpoint, none when the replay restarts from
//!   `initial` — plus the replay from there;
//! - **boundary crossing**: one copy, into the chain, per checkpoint
//!   boundary the replay crosses (eight per doubling of the log) — none
//!   before the first miss.
//!
//! [`ViewCache::eval`] is the owned form: the same call plus one copy of
//! the result.

use crate::log::Log;
use crate::timestamp::Timestamp;

#[derive(Clone)]
struct Cached<V> {
    /// Length of the evaluated prefix.
    len: usize,
    /// Timestamp of its last entry.
    last_ts: Timestamp,
    /// `log.prefix_hash(len)` at evaluation time.
    hash: u64,
    /// The folded value over that prefix.
    value: V,
}

/// Smallest prefix length that gets a checkpoint.
const CP_MIN: usize = 16;

/// The chain's slot for prefix length `len`, if `len` is a checkpoint
/// boundary. Boundaries are geometric with eight points per octave —
/// every `m · 2^k` with even `m ∈ {16, 18, …, 30}` — so consecutive
/// boundaries stay within a factor 1.125 of each other (a splice at
/// position `p` then resumes no deeper than `p/1.125`) while the chain
/// still holds only O(log n) snapshots.
fn checkpoint_slot(len: usize) -> Option<usize> {
    if len < CP_MIN {
        return None;
    }
    let k = (len / CP_MIN).ilog2() as usize;
    let m = len >> k;
    if !m.is_multiple_of(2) || (m << k) != len {
        return None;
    }
    Some(8 * k + (m - CP_MIN) / 2)
}

/// True when `c` still names a prefix of `log`: same length-`c.len`
/// entry set (prefix hash) ending in the same timestamp.
fn is_valid<V, Op: Clone>(c: &Cached<V>, log: &Log<Op>) -> bool {
    let entries = log.entries();
    c.len <= entries.len() && entries[c.len - 1].ts == c.last_ts && log.prefix_hash(c.len) == c.hash
}

/// An incremental evaluator for a growing log.
#[derive(Clone)]
pub struct ViewCache<V> {
    cached: Option<Cached<V>>,
    /// The value lent out for an empty log, which has no last timestamp
    /// to cache it under.
    empty: Option<V>,
    /// Checkpoint chain: slot `k` snapshots the fold at the `k`-th
    /// geometric boundary (see `checkpoint_slot`), refreshed whenever
    /// a replay crosses that length once `misses > 0`.
    checkpoints: Vec<Option<Cached<V>>>,
    hits: u64,
    misses: u64,
    checkpoint_hits: u64,
    entries_replayed: u64,
}

// Manual impl so `Debug` does not require `V: Debug` (values may be
// arbitrary user state).
impl<V> std::fmt::Debug for ViewCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ViewCache")
            .field("cached_len", &self.cached.as_ref().map(|c| c.len))
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .field("checkpoint_hits", &self.checkpoint_hits)
            .finish()
    }
}

impl<V> Default for ViewCache<V> {
    fn default() -> Self {
        ViewCache {
            cached: None,
            empty: None,
            checkpoints: Vec::new(),
            hits: 0,
            misses: 0,
            checkpoint_hits: 0,
            entries_replayed: 0,
        }
    }
}

impl<V: Clone> ViewCache<V> {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        ViewCache::default()
    }

    /// Folds `apply` over `log`'s operations in timestamp order starting
    /// from `initial`, replaying only the suffix beyond the cached
    /// prefix when the cache is valid for `log`, and lends out the
    /// result. The cached value itself is the accumulator — taken out,
    /// extended in place, put back — so a hit copies nothing (see the
    /// module's cost contract).
    pub fn eval_ref<Op: Clone>(
        &mut self,
        log: &Log<Op>,
        initial: V,
        mut apply: impl FnMut(&mut V, &Op),
    ) -> &V {
        let entries = log.entries();
        let (start, mut value) = match self.cached.take_if(|c| is_valid(c, log)) {
            Some(c) => {
                self.hits += 1;
                (c.len, c.value)
            }
            None if self.cached.is_some() => {
                self.misses += 1;
                // Splice below the cached point: resume from the
                // deepest checkpoint whose prefix survived the splice.
                match self
                    .checkpoints
                    .iter()
                    .rev()
                    .flatten()
                    .find(|c| is_valid(c, log))
                {
                    Some(c) => {
                        self.checkpoint_hits += 1;
                        (c.len, c.value.clone())
                    }
                    None => (0, initial),
                }
            }
            None => (0, initial),
        };
        self.entries_replayed += (entries.len() - start) as u64;
        // Splice insurance is paid for once a splice has been seen.
        let armed = self.misses > 0;
        for (i, e) in entries.iter().enumerate().skip(start) {
            apply(&mut value, &e.op);
            let len = i + 1;
            if armed {
                if let Some(k) = checkpoint_slot(len) {
                    if self.checkpoints.len() <= k {
                        self.checkpoints.resize_with(k + 1, || None);
                    }
                    self.checkpoints[k] = Some(Cached {
                        len,
                        last_ts: e.ts,
                        hash: log.prefix_hash(len),
                        value: value.clone(),
                    });
                }
            }
        }
        match entries.last() {
            Some(last) => {
                let cached = self.cached.insert(Cached {
                    len: entries.len(),
                    last_ts: last.ts,
                    hash: log.prefix_hash(entries.len()),
                    value,
                });
                &cached.value
            }
            // Nothing to key a cache entry on: park `initial` and leave
            // whatever was cached alone.
            None => self.empty.insert(value),
        }
    }

    /// [`ViewCache::eval_ref`] returning an owned copy of the result.
    pub fn eval<Op: Clone>(
        &mut self,
        log: &Log<Op>,
        initial: V,
        apply: impl FnMut(&mut V, &Op),
    ) -> V {
        self.eval_ref(log, initial, apply).clone()
    }

    /// How many evaluations reused a cached prefix.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// How many evaluations found a stale cache and replayed from a
    /// checkpoint or from zero. First-ever evaluations count as neither.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total log entries folded across all evaluations — the replay
    /// depth the cache could not avoid. A perfect append-only run
    /// replays each entry exactly once; full-replay misses show up here
    /// as the prefix being folded again.
    #[must_use]
    pub fn entries_replayed(&self) -> u64 {
        self.entries_replayed
    }

    /// How many misses resumed from a surviving checkpoint instead of
    /// replaying from zero.
    #[must_use]
    pub fn checkpoint_hits(&self) -> u64 {
        self.checkpoint_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Entry;

    fn e(counter: u64, site: usize, op: i64) -> Entry<i64> {
        Entry::new(Timestamp::new(counter, site), op)
    }

    fn fresh_sum(log: &Log<i64>) -> i64 {
        log.entries().iter().map(|x| x.op).sum()
    }

    #[test]
    fn append_only_growth_hits_the_cache() {
        let mut cache = ViewCache::new();
        let mut log = Log::new();
        for i in 1..=10u64 {
            log.insert(e(i, 0, i as i64));
            let v = cache.eval(&log, 0i64, |acc, op| *acc += op);
            assert_eq!(v, fresh_sum(&log));
        }
        assert_eq!(cache.hits(), 9); // everything after the first eval
        assert_eq!(cache.misses(), 0);
        // Append-only growth folds each entry exactly once.
        assert_eq!(cache.entries_replayed(), 10);
    }

    #[test]
    fn merge_below_cached_point_invalidates() {
        let mut cache = ViewCache::new();
        let mut log = Log::new();
        log.insert(e(2, 0, 10));
        log.insert(e(4, 0, 20));
        assert_eq!(cache.eval(&log, 0i64, |a, op| *a += op), 30);

        // An entry lands *below* the cached prefix: replay must restart.
        log.insert(e(1, 1, 100));
        assert_eq!(cache.eval(&log, 0i64, |a, op| *a += op), 130);
        assert_eq!(cache.misses(), 1);

        // And the rebuilt cache serves appends again.
        log.insert(e(9, 0, 1));
        assert_eq!(cache.eval(&log, 0i64, |a, op| *a += op), 131);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn order_sensitive_fold_stays_exact() {
        // Subtraction is order-sensitive: any prefix confusion would
        // change the result.
        let mut cache = ViewCache::new();
        let mut log = Log::new();
        log.insert(e(3, 0, 7));
        let _ = cache.eval(&log, 100i64, |a, op| *a -= op);
        log.insert(e(1, 0, 5));
        log.insert(e(2, 1, 3));
        let v = cache.eval(&log, 100i64, |a, op| *a -= op);
        assert_eq!(v, 100 - 5 - 3 - 7);
    }

    #[test]
    fn checkpoints_bound_splice_replay_depth() {
        let mut cp = ViewCache::new();
        let mut log = Log::new();
        // 100 entries at even counters, evaluated at every step. The
        // first two arrive in reverse: one early splice, which arms the
        // chain (nothing is stored before it) and folds one entry twice.
        for i in [2, 1].into_iter().chain(3..=100u64) {
            log.insert(e(2 * i, 0, i as i64));
            let v = cp.eval(&log, 0i64, |acc, op| *acc += op);
            assert_eq!(v, fresh_sum(&log));
        }
        assert_eq!(cp.entries_replayed(), 100 + 1);
        assert_eq!((cp.misses(), cp.checkpoint_hits()), (1, 0));
        // Splice at position 64 (counter 129 lands between 128 and 130):
        // the length-64 prefix survives, longer checkpoints do not.
        log.insert(e(129, 1, 1000));
        let v = cp.eval(&log, 0i64, |acc, op| *acc += op);
        assert_eq!(v, fresh_sum(&log));
        assert_eq!(cp.misses(), 2, "a checkpoint resume still counts as a miss");
        assert_eq!(cp.checkpoint_hits(), 1);
        // A replay from zero would read 201 + 1 here.
        assert_eq!(
            cp.entries_replayed(),
            137 + 1,
            "replay resumes at length 64"
        );
    }

    #[test]
    fn checkpoint_resume_preserves_order_sensitive_folds() {
        // Fold must be bit-exact through a checkpoint resume, not just
        // for commutative sums.
        let mut cp = ViewCache::new();
        let mut log = Log::new();
        // The first two in reverse: the early splice that arms the chain.
        for i in [2, 1].into_iter().chain(3..=40u64) {
            log.insert(e(2 * i, 0, i as i64));
            let _ = cp.eval(&log, 1_000_000i64, |acc, op| {
                *acc = *acc * 31 % 999_983 - op
            });
        }
        log.insert(e(33, 1, 777)); // splice above the length-16 checkpoint
        let got = cp.eval(&log, 1_000_000i64, |acc, op| {
            *acc = *acc * 31 % 999_983 - op
        });
        let fresh = log
            .entries()
            .iter()
            .fold(1_000_000i64, |acc, x| acc * 31 % 999_983 - x.op);
        assert_eq!(got, fresh);
        assert_eq!((cp.misses(), cp.checkpoint_hits()), (2, 1));
    }

    #[test]
    fn empty_log_returns_initial() {
        let mut cache = ViewCache::new();
        let log: Log<i64> = Log::new();
        assert_eq!(cache.eval(&log, 42i64, |a, op| *a += op), 42);
        assert_eq!(cache.hits() + cache.misses(), 0);
    }
}
