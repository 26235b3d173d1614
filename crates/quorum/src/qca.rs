//! The quorum consensus automaton `QCA(A, Q, η)` — §3.2.
//!
//! The automaton's operations are those of the underlying type `A`; its
//! **state is the history it has accepted so far**. A transition for
//! operation `p` exists when some `Q`-view `G` of the current history
//! satisfies `p`'s precondition under the evaluation `η`, with the
//! postcondition witnessed by `η(G · p)`:
//!
//! ```text
//! requires  p.pre_A(η(G))
//! ensures   p.post_A(η(G), η(G·p)) ∧ H' = H · p
//! ```
//!
//! Relaxing `Q` admits more views and hence more histories: for
//! subrelations `R ⊆ Q`, `L(QCA(A, Q, η)) ⊆ L(QCA(A, R, η))`, which makes
//! `{QCA(A, R, η) | R ⊆ Q}` a lattice of automata (§3.2) — the relaxation
//! lattice of the taxi-queue example.

use relax_automata::{History, ObjectAutomaton, Successors};
use relax_queues::{Eval, ValueSpec};

use crate::relation::{HasKind, IntersectionRelation};
use crate::view::{closure_pred_masks, is_q_closed_with_preds, q_views, required_mask};

/// The quorum consensus automaton.
///
/// Type parameters: `S` supplies the underlying type's pre/postconditions
/// over values, `E` the evaluation function `η` (total over arbitrary
/// operation sequences, agreeing with `δ*` on legal histories).
#[derive(Debug, Clone)]
pub struct QcaAutomaton<S, E>
where
    S: ValueSpec,
    S::Op: HasKind,
    E: Eval<Value = S::Value, Op = S::Op>,
{
    spec: S,
    eta: E,
    relation: IntersectionRelation<<S::Op as HasKind>::Kind>,
}

impl<S, E> QcaAutomaton<S, E>
where
    S: ValueSpec,
    S::Op: HasKind,
    E: Eval<Value = S::Value, Op = S::Op>,
{
    /// Builds `QCA(A, Q, η)` from the type's value spec, an evaluation
    /// function, and a quorum intersection relation.
    pub fn new(spec: S, eta: E, relation: IntersectionRelation<<S::Op as HasKind>::Kind>) -> Self {
        QcaAutomaton {
            spec,
            eta,
            relation,
        }
    }

    /// The quorum intersection relation `Q`.
    pub fn relation(&self) -> &IntersectionRelation<<S::Op as HasKind>::Kind> {
        &self.relation
    }

    /// The views of `history` for `p` that satisfy `p`'s precondition
    /// under `η` (diagnostic helper; `step` only needs existence).
    pub fn enabling_views(&self, history: &History<S::Op>, p: &S::Op) -> Vec<History<S::Op>>
    where
        S::Op: Clone,
    {
        q_views(history, p, &self.relation)
            .into_iter()
            .filter(|g| {
                let v = self.eta.eval(g.ops());
                if !self.spec.pre(&v, p) {
                    return false;
                }
                let v2 = self.eta.eval(g.appended(p.clone()).ops());
                self.spec.post(&v, p, &v2)
            })
            .collect()
    }
}

impl<S, E> ObjectAutomaton for QcaAutomaton<S, E>
where
    S: ValueSpec,
    S::Op: HasKind + Clone + Eq + Ord + std::hash::Hash + std::fmt::Debug,
    E: Eval<Value = S::Value, Op = S::Op>,
{
    /// The accepted history so far (§3.2: "the automaton's state is simply
    /// the history it has accepted").
    type State = History<S::Op>;
    type Op = S::Op;

    fn initial_state(&self) -> History<S::Op> {
        History::empty()
    }

    fn step(&self, h: &History<S::Op>, p: &S::Op) -> Vec<History<S::Op>> {
        let enabled = q_views(h, p, &self.relation).into_iter().any(|g| {
            let v = self.eta.eval(g.ops());
            if !self.spec.pre(&v, p) {
                return false;
            }
            let v2 = self.eta.eval(g.appended(p.clone()).ops());
            self.spec.post(&v, p, &v2)
        });
        if enabled {
            vec![h.appended(p.clone())]
        } else {
            vec![]
        }
    }

    /// Batched transition: checks every alphabet operation against the
    /// views of `h` in one pass instead of re-enumerating views per
    /// operation (this is the hot path of the language walk).
    ///
    /// Operations sharing an invocation kind have identical required
    /// masks, so views are enumerated once per kind group; Q-closure is
    /// checked against precomputed per-position predecessor masks; `η(G)`
    /// is folded once per view and extended to `η(G·p)` incrementally via
    /// [`Eval::apply`]; a group stops scanning views as soon as all its
    /// operations are enabled. The enabled operations' successors `H · p`
    /// are then written in alphabet order, each into a reused slot.
    fn step_all_into(
        &self,
        h: &History<S::Op>,
        alphabet: &[S::Op],
        out: &mut Successors<History<S::Op>>,
    ) {
        let ops = h.ops();
        assert!(
            ops.len() < 64,
            "step_all_into is for bounded histories (< 64 ops)"
        );
        let n = ops.len();
        let preds = closure_pred_masks(h, &self.relation);

        // The closure and required masks must commute with item
        // relabeling: they may consult operation *kinds* only (this is
        // what lets the Rep-view quotient preserve views). Debug builds
        // verify by substituting every op with the earliest same-kind op
        // — the universal kind-preserving relabeling — and asserting the
        // masks cannot tell the difference.
        #[cfg(debug_assertions)]
        {
            let substituted: Vec<S::Op> = ops
                .iter()
                .map(|p| {
                    ops.iter()
                        .find(|q| {
                            q.kind() == p.kind() && q.invocation_kind() == p.invocation_kind()
                        })
                        .expect("p matches itself")
                        .clone()
                })
                .collect();
            let sh = History::from(substituted);
            debug_assert_eq!(
                closure_pred_masks(&sh, &self.relation),
                preds,
                "closure predecessor masks depend on more than op kinds"
            );
            for p in alphabet {
                debug_assert_eq!(
                    required_mask(&sh, p.invocation_kind(), &self.relation),
                    required_mask(h, p.invocation_kind(), &self.relation),
                    "required masks depend on more than op kinds"
                );
            }
        }

        let mut enabled = vec![false; alphabet.len()];

        // Group alphabet indices by invocation kind.
        let mut groups: Vec<(<S::Op as HasKind>::Kind, Vec<usize>)> = Vec::new();
        for (i, p) in alphabet.iter().enumerate() {
            let kind = p.invocation_kind();
            match groups.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((kind, vec![i])),
            }
        }

        for (kind, idxs) in groups {
            let required = required_mask(h, kind, &self.relation);
            let free = !required & ((1u64 << n) - 1);
            let mut pending = idxs;
            let mut subset = 0u64;
            loop {
                let mask = required | subset;
                if is_q_closed_with_preds(mask, &preds) {
                    // η(G), folded once and shared by every pending op.
                    let mut v = self.eta.initial();
                    let mut rest = mask;
                    while rest != 0 {
                        let i = rest.trailing_zeros() as usize;
                        self.eta.apply_mut(&mut v, &ops[i]);
                        rest &= rest - 1;
                    }
                    pending.retain(|&ai| {
                        let p = &alphabet[ai];
                        if self.spec.pre(&v, p) {
                            let v2 = self.eta.apply(&v, p);
                            if self.spec.post(&v, p, &v2) {
                                enabled[ai] = true;
                                return false;
                            }
                        }
                        true
                    });
                    if pending.is_empty() {
                        break;
                    }
                }
                if subset == free {
                    break;
                }
                subset = (subset.wrapping_sub(free)) & free;
            }
        }
        for (p, enabled) in alphabet.iter().zip(enabled) {
            if enabled {
                let next = out.slot();
                next.clone_from(h);
                next.push(p.clone());
            }
            out.end_symbol();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_automata::{check_step_all_into, equal_upto, included_upto};
    use relax_queues::{queue_alphabet, Eta, PqValueSpec, QueueOp};

    use crate::relation::queue_relation;

    fn qca(q1: bool, q2: bool) -> QcaAutomaton<PqValueSpec, Eta> {
        QcaAutomaton::new(PqValueSpec, Eta, queue_relation(q1, q2))
    }

    #[test]
    fn full_relation_behaves_like_priority_queue() {
        // One-copy serializability: L(QCA(PQ, {Q1,Q2}, η)) = L(PQ).
        let alphabet = queue_alphabet(&[1, 2, 3]);
        assert!(equal_upto(
            &qca(true, true),
            &relax_queues::PQueueAutomaton::new(),
            &alphabet,
            5
        )
        .is_ok());
    }

    #[test]
    fn q1_only_admits_duplicate_service() {
        let a = qca(true, false);
        let h = History::from(vec![QueueOp::Enq(5), QueueOp::Deq(5), QueueOp::Deq(5)]);
        // The second Deq(5) uses a view that omits the first Deq.
        assert!(a.accepts(&h));
        // But out-of-order service is still impossible: views see all Enqs.
        let bad = History::from(vec![QueueOp::Enq(2), QueueOp::Enq(9), QueueOp::Deq(2)]);
        assert!(!a.accepts(&bad));
    }

    #[test]
    fn q2_only_admits_out_of_order_service() {
        let a = qca(false, true);
        let h = History::from(vec![QueueOp::Enq(2), QueueOp::Enq(9), QueueOp::Deq(2)]);
        // The Deq's view omits Enq(9), so 2 *is* the best visible item.
        assert!(a.accepts(&h));
        // Duplicate service is still impossible: views see all Deqs... so a
        // second Deq(5) sees the first and 5 is gone.
        let dup = History::from(vec![QueueOp::Enq(5), QueueOp::Deq(5), QueueOp::Deq(5)]);
        assert!(!a.accepts(&dup));
    }

    #[test]
    fn empty_relation_admits_both_anomalies() {
        let a = qca(false, false);
        let weird = History::from(vec![
            QueueOp::Enq(2),
            QueueOp::Enq(9),
            QueueOp::Deq(2), // out of order
            QueueOp::Deq(2), // duplicate
        ]);
        assert!(a.accepts(&weird));
        // Items never enqueued still cannot be dequeued: every view
        // evaluates to a bag without that item, failing Deq's post.
        let phantom = History::from(vec![QueueOp::Enq(1), QueueOp::Deq(7)]);
        assert!(!a.accepts(&phantom));
    }

    #[test]
    fn relaxation_is_monotone_in_the_relation() {
        // R ⊆ Q ⇒ L(QCA(PQ,Q,η)) ⊆ L(QCA(PQ,R,η)).
        let alphabet = queue_alphabet(&[1, 2]);
        let full = qca(true, true);
        for (q1, q2) in [(true, false), (false, true), (false, false)] {
            let relaxed = qca(q1, q2);
            assert!(
                included_upto(&full, &relaxed, &alphabet, 5).is_ok(),
                "full not included in ({q1},{q2})"
            );
        }
        let empty = qca(false, false);
        for (q1, q2) in [(true, false), (false, true)] {
            let mid = qca(q1, q2);
            assert!(included_upto(&mid, &empty, &alphabet, 5).is_ok());
        }
    }

    #[test]
    fn enabling_views_diagnostics() {
        let a = qca(true, false);
        let h = History::from(vec![QueueOp::Enq(5), QueueOp::Deq(5)]);
        let views = a.enabling_views(&h, &QueueOp::Deq(5));
        // Exactly the view that omits the earlier Deq enables a duplicate.
        assert_eq!(views.len(), 1);
        assert_eq!(views[0], History::from(vec![QueueOp::Enq(5)]));
    }

    #[test]
    fn step_all_into_matches_per_op_step() {
        // The batched transition (kind-grouped views, incremental η) must
        // agree exactly with the naive per-operation `step` on every
        // reachable history, written into one reused buffer.
        let alphabet = queue_alphabet(&[1, 2]);
        let mut out = Successors::new();
        for (q1, q2) in [(true, true), (true, false), (false, true), (false, false)] {
            let a = qca(q1, q2);
            let mut frontier = vec![History::empty()];
            for _ in 0..4 {
                let mut next = Vec::new();
                for h in &frontier {
                    out.clear();
                    a.step_all_into(h, &alphabet, &mut out);
                    assert_eq!(out.symbols(), alphabet.len());
                    for (i, p) in alphabet.iter().enumerate() {
                        assert_eq!(
                            out.symbol(i),
                            a.step(h, p),
                            "batched/naive disagree on {h:?} · {p:?} under ({q1},{q2})"
                        );
                        next.extend(out.symbol(i).iter().cloned());
                    }
                }
                frontier = next;
            }
            // Longer random histories over a wider domain.
            let wide = queue_alphabet(&[1, 4, 6]);
            for seed in 0..16 {
                assert_eq!(check_step_all_into(&a, &wide, 10, seed), Ok(()));
            }
        }
    }

    #[test]
    fn state_is_the_accepted_history() {
        let a = qca(true, true);
        let h = History::from(vec![QueueOp::Enq(1), QueueOp::Deq(1)]);
        let states = a.delta_star(&h);
        assert_eq!(states.len(), 1);
        assert_eq!(states.into_iter().next().unwrap(), h);
    }
}
