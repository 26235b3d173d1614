//! Log compaction: bounded-size replica state.
//!
//! Quorum-consensus logs grow without bound — every operation ever
//! executed stays in every replica's log (§3.1 stores "the timestamped
//! record of an operation"). Herlihy's TOCS'86 paper observes that logs
//! can be replaced by more compact representations as long as views can
//! still be evaluated. [`CompactLog`] implements the standard scheme:
//!
//! * a **base value**: the evaluation `η` folded over a *stable prefix*
//!   of the log (all entries with timestamp ≤ the frontier);
//! * a **frontier** timestamp: the upper bound of the compacted prefix;
//! * a **suffix**: ordinary log entries above the frontier.
//!
//! Soundness rests on *stability*: a frontier may only be chosen such
//! that every entry with timestamp ≤ frontier is already present in the
//! log being compacted, **and no such entry can appear later** (in a
//! deployment: a maintenance operation that runs when all replicas are
//! reachable and quiescent, compacting everyone at the same frontier —
//! the intersection of replica logs is always stable in that sense).
//! Entries at or below the frontier arriving afterwards are duplicates
//! by construction and are dropped.
//!
//! Merging two compact logs is defined when their compacted prefixes are
//! *consistent*: the one with the lower frontier must have all its
//! missing `(frontier_low, frontier_high]` entries present in its
//! suffix, so both sides agree on the folded history. The maintenance
//! scheme above guarantees this (everyone compacts at the same
//! frontier); [`CompactLog::merge`] checks what it can and the
//! stable-frontier helper [`stable_frontier`] computes the largest safe
//! frontier across a replica group.

use relax_queues::Eval;

use crate::log::{Entry, Log};
use crate::timestamp::Timestamp;

/// A log with its stable prefix folded into a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactLog<Op, V> {
    base: V,
    frontier: Option<Timestamp>,
    suffix: Log<Op>,
}

impl<Op: Clone, V: Clone> CompactLog<Op, V> {
    /// An empty compact log with the evaluation's initial value as base.
    pub fn new(initial: V) -> Self {
        CompactLog {
            base: initial,
            frontier: None,
            suffix: Log::new(),
        }
    }

    /// Wraps an ordinary log (nothing compacted yet).
    pub fn from_log(initial: V, log: Log<Op>) -> Self {
        CompactLog {
            base: initial,
            frontier: None,
            suffix: log,
        }
    }

    /// The folded base value.
    pub fn base(&self) -> &V {
        &self.base
    }

    /// The compaction frontier, if any.
    pub fn frontier(&self) -> Option<Timestamp> {
        self.frontier
    }

    /// The uncompacted suffix.
    pub fn suffix(&self) -> &Log<Op> {
        &self.suffix
    }

    /// Number of retained (suffix) entries.
    pub fn retained_len(&self) -> usize {
        self.suffix.len()
    }

    /// Inserts an entry. Entries at or below the frontier are stale
    /// duplicates (by the stability contract) and are dropped.
    pub fn insert(&mut self, entry: Entry<Op>) {
        if let Some(f) = self.frontier {
            if entry.ts <= f {
                return;
            }
        }
        self.suffix.insert(entry);
    }

    /// Evaluates the current value under `eval` (base plus suffix fold).
    pub fn value<E>(&self, eval: &E) -> V
    where
        E: Eval<Value = V, Op = Op>,
    {
        let mut v = self.base.clone();
        for e in self.suffix.entries() {
            eval.apply_mut(&mut v, &e.op);
        }
        v
    }

    /// Compacts every suffix entry with timestamp ≤ `frontier` into the
    /// base.
    ///
    /// # Panics
    ///
    /// Panics if `frontier` would move backwards — compaction frontiers
    /// only advance.
    pub fn compact_to<E>(&mut self, eval: &E, frontier: Timestamp)
    where
        E: Eval<Value = V, Op = Op>,
    {
        if let Some(f) = self.frontier {
            assert!(frontier >= f, "compaction frontier may not move backwards");
        }
        let mut rest = Log::new();
        for e in self.suffix.entries() {
            if e.ts <= frontier {
                eval.apply_mut(&mut self.base, &e.op);
            } else {
                rest.insert(e.clone());
            }
        }
        self.suffix = rest;
        self.frontier = Some(frontier);
    }

    /// Merges another compact log into this one.
    ///
    /// Requires consistent compaction: the higher-frontier side's base
    /// must subsume the lower side's (guaranteed when all parties compact
    /// at common stable frontiers). The result takes the higher frontier
    /// and base, and the union of suffix entries above it.
    pub fn merge(&mut self, other: &CompactLog<Op, V>) {
        let take_other_base = match (self.frontier, other.frontier) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some(a), Some(b)) => b > a,
        };
        if take_other_base {
            // Keep our above-frontier suffix entries; adopt other's base.
            let frontier = other.frontier.expect("checked above");
            let mut suffix = Log::new();
            for e in self.suffix.entries() {
                if e.ts > frontier {
                    suffix.insert(e.clone());
                }
            }
            self.base = other.base.clone();
            self.frontier = Some(frontier);
            self.suffix = suffix;
        }
        for e in other.suffix.entries() {
            self.insert(e.clone());
        }
    }
}

/// The largest frontier that is *stable* across a replica group: the
/// greatest timestamp `t` such that every replica holds every entry with
/// timestamp ≤ `t` that any replica holds. Compacting everyone to this
/// frontier is safe during quiescent maintenance (no in-flight writes).
/// Returns `None` if no non-trivial stable prefix exists.
pub fn stable_frontier<Op: Clone + PartialEq>(logs: &[&Log<Op>]) -> Option<Timestamp> {
    let mut all: Vec<Timestamp> = Vec::new();
    for log in logs {
        for e in log.entries() {
            if !all.contains(&e.ts) {
                all.push(e.ts);
            }
        }
    }
    all.sort_unstable();
    let mut frontier = None;
    for ts in all {
        let everywhere = logs
            .iter()
            .all(|log| log.entries().iter().any(|e| e.ts == ts));
        if everywhere {
            frontier = Some(ts);
        } else {
            break; // the prefix property fails from here on
        }
    }
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_queues::{Bag, Eta, Item, QueueOp};

    fn e(c: u64, s: usize, op: QueueOp) -> Entry<QueueOp> {
        Entry::new(Timestamp::new(c, s), op)
    }

    fn full_eval(entries: &[Entry<QueueOp>]) -> Bag<Item> {
        use relax_queues::Eval;
        let mut log = Log::new();
        for x in entries {
            log.insert(x.clone());
        }
        Eta.eval(&log.to_history().into_ops())
    }

    #[test]
    fn compaction_preserves_value() {
        let entries = vec![
            e(1, 0, QueueOp::Enq(5)),
            e(2, 1, QueueOp::Enq(9)),
            e(3, 0, QueueOp::Deq(9)),
            e(4, 2, QueueOp::Enq(2)),
        ];
        let mut cl = CompactLog::new(Bag::new());
        for x in &entries {
            cl.insert(x.clone());
        }
        let before = cl.value(&Eta);
        cl.compact_to(&Eta, Timestamp::new(3, 0));
        assert_eq!(cl.retained_len(), 1);
        assert_eq!(cl.value(&Eta), before);
        assert_eq!(cl.value(&Eta), full_eval(&entries));
    }

    #[test]
    fn stale_entries_dropped_after_compaction() {
        let mut cl = CompactLog::new(Bag::new());
        cl.insert(e(1, 0, QueueOp::Enq(5)));
        cl.compact_to(&Eta, Timestamp::new(1, 0));
        // A duplicate of the compacted entry arrives late: dropped.
        cl.insert(e(1, 0, QueueOp::Enq(5)));
        assert_eq!(cl.retained_len(), 0);
        assert_eq!(cl.value(&Eta), Bag::new().inserted(5));
    }

    #[test]
    fn merge_with_uncompacted_peer() {
        let mut a = CompactLog::new(Bag::new());
        a.insert(e(1, 0, QueueOp::Enq(5)));
        a.compact_to(&Eta, Timestamp::new(1, 0));

        let mut b = CompactLog::new(Bag::new());
        b.insert(e(1, 0, QueueOp::Enq(5))); // the same compacted entry
        b.insert(e(2, 1, QueueOp::Enq(9)));

        a.merge(&b);
        assert_eq!(a.value(&Eta), Bag::new().inserted(5).inserted(9));
        assert_eq!(a.retained_len(), 1); // only the 9 survives as suffix
    }

    #[test]
    fn merge_adopts_higher_frontier() {
        let entries = vec![
            e(1, 0, QueueOp::Enq(5)),
            e(2, 1, QueueOp::Enq(9)),
            e(3, 0, QueueOp::Enq(2)),
        ];
        let mut low = CompactLog::new(Bag::new());
        let mut high = CompactLog::new(Bag::new());
        for x in &entries {
            low.insert(x.clone());
            high.insert(x.clone());
        }
        low.compact_to(&Eta, Timestamp::new(1, 0));
        high.compact_to(&Eta, Timestamp::new(2, 1));

        low.merge(&high);
        assert_eq!(low.frontier(), Some(Timestamp::new(2, 1)));
        assert_eq!(low.value(&Eta), full_eval(&entries));
        assert_eq!(low.retained_len(), 1);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn frontier_never_regresses() {
        let mut cl: CompactLog<QueueOp, Bag<Item>> = CompactLog::new(Bag::new());
        cl.insert(e(1, 0, QueueOp::Enq(1)));
        cl.insert(e(2, 0, QueueOp::Enq(2)));
        cl.compact_to(&Eta, Timestamp::new(2, 0));
        cl.compact_to(&Eta, Timestamp::new(1, 0));
    }

    #[test]
    fn stable_frontier_is_common_prefix() {
        let a: Log<QueueOp> = [
            e(1, 0, QueueOp::Enq(1)),
            e(2, 0, QueueOp::Enq(2)),
            e(3, 0, QueueOp::Enq(3)),
        ]
        .into_iter()
        .collect();
        let b: Log<QueueOp> = [e(1, 0, QueueOp::Enq(1)), e(2, 0, QueueOp::Enq(2))]
            .into_iter()
            .collect();
        let c: Log<QueueOp> = [
            e(1, 0, QueueOp::Enq(1)),
            e(2, 0, QueueOp::Enq(2)),
            e(4, 1, QueueOp::Enq(4)),
        ]
        .into_iter()
        .collect();
        assert_eq!(stable_frontier(&[&a, &b, &c]), Some(Timestamp::new(2, 0)));
    }

    #[test]
    fn stable_frontier_empty_cases() {
        let empty: Log<QueueOp> = Log::new();
        let a: Log<QueueOp> = [e(1, 0, QueueOp::Enq(1))].into_iter().collect();
        assert_eq!(stable_frontier(&[&a, &empty]), None);
        assert_eq!(stable_frontier::<QueueOp>(&[]), None);
    }

    #[test]
    fn group_compaction_roundtrip() {
        // Three replicas with a shared prefix and divergent tails;
        // compacting all at the stable frontier preserves every value and
        // merge still reconciles the tails.
        let shared = vec![e(1, 0, QueueOp::Enq(5)), e(2, 1, QueueOp::Enq(9))];
        let tail_a = e(3, 0, QueueOp::Deq(9));
        let tail_b = e(4, 1, QueueOp::Enq(2));

        let mut logs: Vec<Log<QueueOp>> = (0..3).map(|_| Log::new()).collect();
        for log in logs.iter_mut() {
            for x in &shared {
                log.insert(x.clone());
            }
        }
        logs[0].insert(tail_a.clone());
        logs[1].insert(tail_b.clone());

        let refs: Vec<&Log<QueueOp>> = logs.iter().collect();
        let frontier = stable_frontier(&refs).expect("shared prefix");
        assert_eq!(frontier, Timestamp::new(2, 1));

        let compacts: Vec<CompactLog<QueueOp, Bag<Item>>> = logs
            .iter()
            .map(|log| {
                let mut cl = CompactLog::from_log(Bag::new(), log.clone());
                cl.compact_to(&Eta, frontier);
                cl
            })
            .collect();

        // Values preserved per replica.
        for (cl, log) in compacts.iter().zip(&logs) {
            use relax_queues::Eval;
            assert_eq!(cl.value(&Eta), Eta.eval(&log.to_history().into_ops()));
        }

        // Merging reconciles tails exactly as uncompacted merge would.
        let mut merged = compacts[0].clone();
        merged.merge(&compacts[1]);
        merged.merge(&compacts[2]);
        let mut full = logs[0].clone();
        full.merge(&logs[1]);
        full.merge(&logs[2]);
        use relax_queues::Eval;
        assert_eq!(merged.value(&Eta), Eta.eval(&full.to_history().into_ops()));
    }
}
