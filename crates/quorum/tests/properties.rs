//! Property tests for the quorum substrate: Q-views, QCA monotonicity,
//! the voting mathematics, and `Log::clone_from` against `clone`.

use proptest::prelude::*;

use relax_automata::{History, ObjectAutomaton};
use relax_queues::{Eta, PqValueSpec, QueueOp};
use relax_quorum::relation::{queue_relation, HasKind};
use relax_quorum::view::{is_q_closed_mask, q_views};
use relax_quorum::voting::WeightedVoting;
use relax_quorum::{Entry, Log, QcaAutomaton, Timestamp};

/// Random queue histories over a small item domain (not necessarily
/// legal for any particular queue type — views are defined for all).
fn arb_history() -> impl Strategy<Value = History<QueueOp>> {
    proptest::collection::vec((0u8..2, 0i64..3), 0..7).prop_map(|raw| {
        raw.into_iter()
            .map(|(k, e)| {
                if k == 0 {
                    QueueOp::Enq(e)
                } else {
                    QueueOp::Deq(e)
                }
            })
            .collect()
    })
}

proptest! {
    /// Every view returned by q_views is Q-closed and contains every
    /// operation related to the invocation.
    #[test]
    fn views_are_closed_and_complete(
        h in arb_history(),
        q1 in any::<bool>(),
        q2 in any::<bool>(),
        deq_item in 0i64..3,
    ) {
        let q = queue_relation(q1, q2);
        let p = QueueOp::Deq(deq_item);
        for view in q_views(&h, &p, &q) {
            // Q-closed as a subsequence of h.
            prop_assert!(relax_quorum::view::is_q_closed(&h, &view, &q));
            // Contains every related operation.
            for op in h.iter() {
                if q.relates(p.invocation_kind(), op.kind()) {
                    let count_h = h.iter().filter(|o| *o == op).count();
                    let count_v = view.iter().filter(|o| *o == op).count();
                    prop_assert_eq!(count_h, count_v, "missing {:?}", op);
                }
            }
        }
    }

    /// The full history is always a view of itself, and relaxing the
    /// relation never removes views.
    #[test]
    fn views_monotone_in_relation(h in arb_history(), deq_item in 0i64..3) {
        let p = QueueOp::Deq(deq_item);
        let strong = queue_relation(true, true);
        let weak = queue_relation(false, false);
        let strong_views = q_views(&h, &p, &strong);
        let weak_views = q_views(&h, &p, &weak);
        prop_assert!(strong_views.contains(&h));
        for v in &strong_views {
            prop_assert!(weak_views.contains(v));
        }
        prop_assert!(weak_views.len() >= strong_views.len());
    }

    /// The whole-position mask is always Q-closed.
    #[test]
    fn full_mask_is_closed(h in arb_history(), q1 in any::<bool>(), q2 in any::<bool>()) {
        let q = queue_relation(q1, q2);
        let mask = if h.is_empty() { 0 } else { (1u64 << h.len()) - 1 };
        prop_assert!(is_q_closed_mask(&h, mask, &q));
    }

    /// QCA acceptance is monotone: anything accepted under the full
    /// relation is accepted under any subrelation.
    #[test]
    fn qca_monotone_on_random_histories(h in arb_history()) {
        let full = QcaAutomaton::new(PqValueSpec, Eta, queue_relation(true, true));
        if full.accepts(&h) {
            for (q1, q2) in [(true, false), (false, true), (false, false)] {
                let relaxed = QcaAutomaton::new(PqValueSpec, Eta, queue_relation(q1, q2));
                prop_assert!(relaxed.accepts(&h), "rejected under ({q1},{q2})");
            }
        }
    }

    /// `clone_from` is `clone`, whatever the receiver held: pairs of logs
    /// cut from one pool of entries in the shapes a kept view buffer
    /// meets its next source in. Entries, every prefix hash and the site
    /// summaries come out as the source's, and a Merkle index the
    /// receiver had built is dropped, not kept stale.
    #[test]
    fn clone_from_is_clone(
        raw in proptest::collection::vec((1u64..40, 0usize..4), 0..48),
        cut in 0usize..48,
    ) {
        let pool: Log<QueueOp> = raw
            .iter()
            .map(|&(c, s)| Entry::new(Timestamp::new(c, s), QueueOp::Enq(c as i64)))
            .collect();
        let (n, cut) = (pool.len(), cut.min(pool.len()));
        let pick = |keep: &dyn Fn(usize) -> bool| -> Log<QueueOp> {
            let kept = pool.entries().iter().enumerate().filter(|(i, _)| keep(*i));
            kept.map(|(_, e)| e.clone()).collect()
        };
        let pairs = [
            (pick(&|i| i < cut), pool.clone()), // receiver a prefix of the source
            (pool.clone(), pick(&|i| i < cut)), // an extension of it
            (pool.clone(), pool.clone()),
            (pick(&|i| i + 2 != n), pick(&|i| i + 3 != n)), // spliced near the tail
            (pick(&|i| i != 0), pick(&|i| i != 1)), // spliced at the front
            (pick(&|i| i % 2 == 0), pick(&|i| i % 2 == 1)), // disjoint
            (Log::new(), pick(&|i| i >= cut)),
            (pick(&|i| i >= cut), Log::new()),
        ];
        for (shape, (receiver, b)) in pairs.iter().enumerate() {
            for merkle in [false, true] {
                let mut a = receiver.clone();
                if merkle {
                    let _ = a.merkle_index();
                }
                a.clone_from(b);
                prop_assert_eq!(&a, b, "shape {}", shape);
                for i in 0..=b.len() {
                    prop_assert_eq!(a.prefix_hash(i), b.prefix_hash(i), "shape {}", shape);
                }
                prop_assert_eq!(a.site_summaries(), b.site_summaries(), "shape {}", shape);
                let roots = b.clone().merkle_index().roots();
                prop_assert_eq!(a.merkle_index().roots(), roots, "shape {}", shape);
            }
        }
    }

    /// Voting availability is monotone in the threshold (more votes
    /// needed → less available) and in per-site reliability.
    #[test]
    fn voting_availability_monotone(
        votes in proptest::collection::vec(1u32..4, 1..6),
        p in 0.0f64..1.0,
    ) {
        let w = WeightedVoting::<relax_quorum::relation::QueueKind>::new(votes.clone());
        let n = votes.len();
        let total = w.total_votes();
        let probs = vec![p; n];
        let mut prev = 1.0f64;
        for t in 0..=total {
            let a = w.availability(t, &probs);
            prop_assert!(a <= prev + 1e-12, "not monotone at threshold {t}");
            prev = a;
        }
        // Reliability monotonicity at the majority threshold.
        let majority = total / 2 + 1;
        let lo = w.availability(majority, &vec![0.5; n]);
        let hi = w.availability(majority, &vec![0.9; n]);
        prop_assert!(hi >= lo - 1e-12);
    }

    /// Availability sums the exact distribution: threshold 0 is certain,
    /// and P(≥1 vote) = 1 - P(all down).
    #[test]
    fn voting_availability_boundaries(
        votes in proptest::collection::vec(1u32..4, 1..6),
        p in 0.0f64..1.0,
    ) {
        let w = WeightedVoting::<relax_quorum::relation::QueueKind>::new(votes.clone());
        let probs = vec![p; votes.len()];
        prop_assert!((w.availability(0, &probs) - 1.0).abs() < 1e-12);
        let all_down = (1.0 - p).powi(votes.len() as i32);
        prop_assert!((w.availability(1, &probs) - (1.0 - all_down)).abs() < 1e-9);
    }
}
