//! View-cache invalidation: memoized evaluation must equal a fresh
//! replay of the whole log at *every* step of an arbitrary interleaving
//! of appends, out-of-order inserts, merges, and queries.
//!
//! The cache keys on `(length, last timestamp, prefix hash)`; a merge
//! that splices entries below the cached point changes the prefix hash
//! and must force a replay (from the deepest surviving checkpoint, or
//! from zero), while append-only growth extends the cached value in
//! place by the suffix. Every path — borrowed or owned, resumed from a
//! checkpoint or not — must produce the value `η` would.

use proptest::prelude::*;

use relax_queues::QueueOp;
use relax_quorum::types::{ReplicatedType, TaxiQueueType};
use relax_quorum::{Entry, Log, Timestamp, ViewCache};

/// Deterministic op for a timestamp, so the same timestamp always
/// carries the same operation (as the runtime guarantees).
fn op_for(ts: Timestamp) -> QueueOp {
    if ts.counter % 3 == 2 {
        QueueOp::Deq((ts.counter % 5) as i64)
    } else {
        QueueOp::Enq((ts.counter % 7) as i64)
    }
}

fn entry(counter: u64, site: usize) -> Entry<QueueOp> {
    let ts = Timestamp::new(counter, site);
    Entry::new(ts, op_for(ts))
}

type TaxiCache = ViewCache<<TaxiQueueType as ReplicatedType>::Value>;

fn counters(c: &TaxiCache) -> (u64, u64, u64, u64) {
    (
        c.hits(),
        c.misses(),
        c.checkpoint_hits(),
        c.entries_replayed(),
    )
}

/// Runs an insert/merge script — inserts into a main log and a scratch
/// log, merges of scratch into main (the splices) — and after every
/// `every`-th step, starting with the empty log, demands three-way
/// agreement: borrowed `eval_ref` == owned `eval` == fresh fold. The
/// borrowed and owned caches must also count alike: the owned form is
/// the borrowed one plus a copy, nothing else. With `every` above one
/// the caches meet each demand after a stretch of growth and splices
/// they never saw — what a client whose responses seldom read the
/// view's value puts its cache through.
fn check_script(script: Vec<(u8, u64, usize)>, every: usize) -> Result<(), TestCaseError> {
    let ttype = TaxiQueueType;
    let mut main = Log::new();
    let mut scratch = Log::new();
    let mut borrowed = TaxiCache::default();
    let mut owned = TaxiCache::default();
    // A leading merge of the still-empty scratch log is a no-op, so the
    // first evaluation sees the empty log.
    let script = std::iter::once((3, 0, 0)).chain(script);
    for (step, (kind, counter, site)) in script.enumerate() {
        match kind {
            0 | 1 => main.insert(entry(counter, site)),
            2 => scratch.insert(entry(counter, site)),
            _ => main.merge(&scratch),
        }
        if step % every != 0 {
            continue;
        }
        let fresh = ttype.eval_view(&main);
        let b = borrowed.eval_ref(&main, ttype.initial_value(), |v, op| ttype.apply_mut(v, op));
        prop_assert_eq!(b, &fresh, "borrowed diverged after {} entries", main.len());
        let o = owned.eval(&main, ttype.initial_value(), |v, op| ttype.apply_mut(v, op));
        prop_assert_eq!(&o, &fresh, "owned diverged after {} entries", main.len());
        prop_assert_eq!(counters(&borrowed), counters(&owned));
    }
    Ok(())
}

proptest! {
    /// Short scripts over few counters: duplicate timestamps, merges
    /// that add nothing, splices near the front.
    #[test]
    fn memoized_eval_matches_fresh_replay_at_every_step(
        script in proptest::collection::vec((0u8..4, 1u64..40, 0usize..4), 0..40),
    ) {
        check_script(script, 1)?;
    }

    /// Long scripts with big counters, so checkpoint boundaries and
    /// deep splices (resumes from the chain) actually occur.
    #[test]
    fn checkpointed_eval_matches_fresh_at_every_step(
        script in proptest::collection::vec((0u8..4, 1u64..200, 0usize..3), 1..80),
    ) {
        check_script(script.clone(), 1)?;
        // Evaluated at every second and every sixteenth step only.
        check_script(script.clone(), 2)?;
        check_script(script, 16)?;
    }
}

/// Append-only growth must hit the cache on every step after the first,
/// and a merge splicing below the cached point must miss — the cheap
/// path and the invalidation path, exercised through the public API.
#[test]
fn cache_hits_on_growth_and_misses_on_splice() {
    let ttype = TaxiQueueType;
    let mut cache: ViewCache<<TaxiQueueType as ReplicatedType>::Value> = ViewCache::default();
    let mut log = Log::new();

    for c in [10u64, 20, 30, 40, 50] {
        log.insert(entry(c, 0));
        let got = cache.eval(&log, ttype.initial_value(), |v, op| ttype.apply_mut(v, op));
        assert_eq!(got, ttype.eval_view(&log));
    }
    // First eval primes; the next four replay suffixes.
    assert_eq!(cache.hits(), 4);
    assert_eq!(cache.misses(), 0);

    // Splice an entry below the cached point: prefix hash changes.
    let mut other = Log::new();
    other.insert(entry(15, 1));
    log.merge(&other);
    let got = cache.eval(&log, ttype.initial_value(), |v, op| ttype.apply_mut(v, op));
    assert_eq!(got, ttype.eval_view(&log));
    assert_eq!(cache.misses(), 1, "mid-log splice must invalidate");
}
