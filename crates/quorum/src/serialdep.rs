//! Serial dependency relations (Definition 3) — bounded checking.
//!
//! **Definition 3.** `Q` is a *serial dependency relation* for `A` if, for
//! all histories `G` and `H` in `L(A)` such that `G` is a `Q`-view of `H`
//! for `p`: `G·p ∈ L(A) ⇒ H·p ∈ L(A)`.
//!
//! Quorum consensus guarantees one-copy serializability iff `Q` is a
//! serial dependency relation (§3.2). This module checks the property for
//! all histories up to a length bound over a finite alphabet, and checks
//! *minimality* (no proper subrelation suffices — the premise of the
//! relaxation lattice construction).

use relax_automata::{language_upto, History, ObjectAutomaton};

use crate::relation::{HasKind, IntersectionRelation};
use crate::view::q_views;

/// A violation of Definition 3: a view `G` of `H` for `p` where `G·p` is
/// legal but `H·p` is not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerialDependencyViolation<Op> {
    /// The full history `H`.
    pub history: History<Op>,
    /// The `Q`-view `G`.
    pub view: History<Op>,
    /// The operation `p`.
    pub op: Op,
}

/// Checks whether `relation` is a serial dependency relation for
/// `automaton`, over all `H ∈ L(A)` with `|H| ≤ max_len` and all `p` in
/// `alphabet`. Histories are tried shortest first and in `alphabet` order
/// within a length ([`language_upto`]'s order), so the violation returned
/// has a shallowest `H` and is the same on every run.
///
/// # Errors
///
/// Returns [`SerialDependencyViolation`] describing the counterexample if
/// the property fails within the bound.
pub fn check_serial_dependency<A>(
    automaton: &A,
    relation: &IntersectionRelation<<A::Op as HasKind>::Kind>,
    alphabet: &[A::Op],
    max_len: usize,
) -> Result<(), SerialDependencyViolation<A::Op>>
where
    A: ObjectAutomaton,
    A::Op: HasKind,
{
    let lang = language_upto(automaton, alphabet, max_len);
    for h in &lang {
        for p in alphabet {
            let h_p_legal = automaton.accepts(&h.appended(p.clone()));
            if h_p_legal {
                continue; // implication trivially holds
            }
            // H·p illegal: no Q-view G (itself legal) may make G·p legal.
            for g in q_views(h, p, relation) {
                if !automaton.accepts(&g) {
                    continue; // Definition 3 quantifies over G ∈ L(A)
                }
                if automaton.accepts(&g.appended(p.clone())) {
                    return Err(SerialDependencyViolation {
                        history: h.clone(),
                        view: g,
                        op: p.clone(),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Checks that `relation` is a *minimal* serial dependency relation for
/// `automaton` within the bound: the relation itself passes, and every
/// proper subrelation obtained by dropping one pair fails.
///
/// Returns `Ok(())` when minimal; otherwise reports what went wrong.
///
/// # Errors
///
/// * [`MinimalityFailure::NotSerialDependency`] — the relation itself
///   already fails;
/// * [`MinimalityFailure::SubrelationSuffices`] — some proper subrelation
///   also passes (so the relation is not minimal), at least within this
///   bound.
pub fn is_minimal_serial_dependency<A>(
    automaton: &A,
    relation: &IntersectionRelation<<A::Op as HasKind>::Kind>,
    alphabet: &[A::Op],
    max_len: usize,
) -> Result<(), MinimalityFailure<A::Op, <A::Op as HasKind>::Kind>>
where
    A: ObjectAutomaton,
    A::Op: HasKind,
{
    if let Err(v) = check_serial_dependency(automaton, relation, alphabet, max_len) {
        return Err(MinimalityFailure::NotSerialDependency(v));
    }
    for (p, q) in relation.pairs() {
        let sub = relation.clone().without(p, q);
        if check_serial_dependency(automaton, &sub, alphabet, max_len).is_ok() {
            return Err(MinimalityFailure::SubrelationSuffices(sub));
        }
    }
    Ok(())
}

/// Why a minimality check failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MinimalityFailure<Op, K: Ord> {
    /// The relation is not a serial dependency relation at all.
    NotSerialDependency(SerialDependencyViolation<Op>),
    /// Dropping a pair still yields a serial dependency relation.
    SubrelationSuffices(IntersectionRelation<K>),
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_queues::{queue_alphabet, PQueueAutomaton, QueueOp};

    use crate::relation::{queue_relation, QueueKind};

    #[test]
    fn full_queue_relation_is_serial_dependency_for_pq() {
        // §3.3: {Q1, Q2} is necessary and sufficient for a one-copy
        // serializable replicated priority queue.
        let alphabet = queue_alphabet(&[1, 2]);
        assert!(check_serial_dependency(
            &PQueueAutomaton::new(),
            &queue_relation(true, true),
            &alphabet,
            4
        )
        .is_ok());
    }

    #[test]
    fn dropping_q1_breaks_the_property() {
        let alphabet = queue_alphabet(&[1, 2]);
        let v = check_serial_dependency(
            &PQueueAutomaton::new(),
            &queue_relation(false, true),
            &alphabet,
            4,
        )
        .unwrap_err();
        // The violation dequeues a non-best item through a view that
        // misses an Enq.
        assert!(matches!(v.op, QueueOp::Deq(_)));
    }

    #[test]
    fn dropping_q2_breaks_the_property() {
        let alphabet = queue_alphabet(&[1, 2]);
        let v = check_serial_dependency(
            &PQueueAutomaton::new(),
            &queue_relation(true, false),
            &alphabet,
            4,
        )
        .unwrap_err();
        assert!(matches!(v.op, QueueOp::Deq(_)));
    }

    #[test]
    fn reported_violation_is_shallowest_and_repeats() {
        let alphabet = queue_alphabet(&[1, 2]);
        let pq = PQueueAutomaton::new();
        for (q1, q2) in [(true, false), (false, true), (false, false)] {
            let relation = queue_relation(q1, q2);
            let v = check_serial_dependency(&pq, &relation, &alphabet, 4).unwrap_err();
            assert_eq!(
                check_serial_dependency(&pq, &relation, &alphabet, 4),
                Err(v.clone()),
                "same violation on every call"
            );
            // No violating history is shorter than the reported one.
            let shorter = v.history.len().checked_sub(1).expect("Λ violates nothing");
            assert!(
                check_serial_dependency(&pq, &relation, &alphabet, shorter).is_ok(),
                "({q1},{q2}): a violation below length {} exists",
                v.history.len()
            );
        }
    }

    #[test]
    fn full_queue_relation_is_minimal() {
        let alphabet = queue_alphabet(&[1, 2]);
        assert!(is_minimal_serial_dependency(
            &PQueueAutomaton::new(),
            &queue_relation(true, true),
            &alphabet,
            4
        )
        .is_ok());
    }

    #[test]
    fn padded_relation_is_not_minimal() {
        // Add a superfluous pair (Enq needs to see nothing): still a serial
        // dependency relation, but not minimal.
        let alphabet = queue_alphabet(&[1, 2]);
        let padded = queue_relation(true, true).with(QueueKind::Enq, QueueKind::Enq);
        let err = is_minimal_serial_dependency(&PQueueAutomaton::new(), &padded, &alphabet, 4)
            .unwrap_err();
        assert!(matches!(err, MinimalityFailure::SubrelationSuffices(_)));
    }

    #[test]
    fn empty_relation_fails_for_pq() {
        let alphabet = queue_alphabet(&[1, 2]);
        assert!(check_serial_dependency(
            &PQueueAutomaton::new(),
            &queue_relation(false, false),
            &alphabet,
            3
        )
        .is_err());
    }
}
