//! CALM monotonicity analyzer and scheduling policy.
//!
//! "Complete CALM" (Hellerstein et al.) proves an operation can execute
//! *coordination-free* — no read quorum, no waiting on other replicas —
//! exactly when it is **monotone**. For the paper's lattice objects the
//! analyzer decides monotonicity of each operation *kind* at a given
//! quorum intersection relation `Q` mechanically, from two checks:
//!
//! 1. **Quorum-insensitivity**: removing every `Q`-pair that mentions the
//!    kind (as invoker or target) leaves the QCA's language unchanged —
//!    `L(QCA(A, Q, η)) = L(QCA(A, Q∖k, η))` up to a depth bound, decided
//!    by the bounded language walk. The kind's legal histories do
//!    not depend on its quorum constraints, so dropping the read phase
//!    admits no new behaviors.
//! 2. **Response stability**: the kind's invocations respond against the
//!    *initial* value exactly as against every view value reachable under
//!    `η` (bounded enumeration via [`relax_automata::response_stable`]).
//!    The response computed without reading anybody else's log is the
//!    response a full view would have produced.
//!
//! Effect-merge commutativity — the third ingredient — holds for free in
//! this runtime: logs merge in timestamp order with duplicate discard, so
//! replaying a log is independent of arrival order (see DESIGN.md).
//!
//! The verdicts here reproduce the paper's intuition: `Credit` is
//! monotone at `{A2}` (the relaxed bank account never blocks deposits)
//! but not at `{A1, A2}`; `Enq` is monotone at `OPQ` and `DegenPQ` but
//! not at `PQ` or `MPQ`; `Deq` and `Debit` always require coordination
//! (their responses read the view).
//!
//! [`SchedulingPolicy`] carries the resulting kind set into the runtime:
//! the sim client ([`crate::protocol::client`]) and the threaded shard
//! ([`crate::threaded`]) both consult it to route monotone invocations
//! onto the coordination-free fast path.

use std::collections::{BTreeMap, BTreeSet};
use std::hash::Hash;

use relax_automata::{equal_upto, response_stable, LanguageDifference, ResponseInstability};
use relax_queues::{
    account_alphabet, queue_alphabet, AccountEval, AccountOp, AccountValueSpec, Eta, Eval,
    PqValueSpec, QueueOp, ValueSpec,
};

use crate::qca::QcaAutomaton;
use crate::relation::{AccountKind, HasKind, IntersectionRelation, QueueKind};

/// Why a kind is (or is not) monotone at the analyzed relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict<Op> {
    /// Both checks passed: the kind may execute coordination-free.
    Monotone,
    /// Removing the kind's quorum constraints changes the QCA's language:
    /// the witness history separates the two automata.
    QuorumSensitive(LanguageDifference<Op>),
    /// The kind's response depends on the view: the witness prefix grows
    /// a view at which some sample invocation answers differently.
    ResponseUnstable(ResponseInstability<Op>),
}

/// The analyzer's output: one [`Verdict`] per operation kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalmReport<K: Ord, Op> {
    verdicts: BTreeMap<K, Verdict<Op>>,
}

impl<K: Copy + Ord, Op> CalmReport<K, Op> {
    /// The verdict for `kind`, if it was analyzed.
    pub fn verdict(&self, kind: K) -> Option<&Verdict<Op>> {
        self.verdicts.get(&kind)
    }

    /// Was `kind` classified monotone?
    pub fn is_monotone(&self, kind: K) -> bool {
        matches!(self.verdicts.get(&kind), Some(Verdict::Monotone))
    }

    /// The monotone kinds, in order.
    pub fn monotone_kinds(&self) -> BTreeSet<K> {
        self.verdicts
            .iter()
            .filter(|(_, v)| matches!(v, Verdict::Monotone))
            .map(|(&k, _)| k)
            .collect()
    }

    /// All `(kind, verdict)` pairs, in kind order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &Verdict<Op>)> {
        self.verdicts.iter().map(|(&k, v)| (k, v))
    }
}

/// Classifies every invocation kind appearing in `alphabet` as monotone
/// or coordination-requiring at `relation`.
///
/// `alphabet` bounds both checks: language equality runs to `depth`,
/// response stability grows views to `stability_depth`. `samples` groups
/// the operation executions of one invocation (e.g. `Debit(1)`'s group is
/// `[DebitOk(1), DebitOverdraft(1)]`); a group's response at a view is
/// the subset of its executions enabled there (precondition holds and the
/// `η`-extended value satisfies the postcondition), which is exactly what
/// the runtime's `execute` consults when choosing a response.
pub fn analyze<S, E>(
    spec: &S,
    eta: &E,
    relation: &IntersectionRelation<<S::Op as HasKind>::Kind>,
    alphabet: &[S::Op],
    depth: usize,
    samples: &[Vec<S::Op>],
    stability_depth: usize,
) -> CalmReport<<S::Op as HasKind>::Kind, S::Op>
where
    S: ValueSpec + Clone,
    E: Eval<Value = S::Value, Op = S::Op> + Clone,
    S::Op: HasKind + Clone + Eq + Ord + Hash + std::fmt::Debug,
{
    let kinds: BTreeSet<<S::Op as HasKind>::Kind> =
        alphabet.iter().map(HasKind::invocation_kind).collect();
    let mut verdicts = BTreeMap::new();
    for kind in kinds {
        verdicts.insert(
            kind,
            classify(
                spec,
                eta,
                relation,
                alphabet,
                depth,
                samples,
                stability_depth,
                kind,
            ),
        );
    }
    CalmReport { verdicts }
}

#[allow(clippy::too_many_arguments)]
fn classify<S, E>(
    spec: &S,
    eta: &E,
    relation: &IntersectionRelation<<S::Op as HasKind>::Kind>,
    alphabet: &[S::Op],
    depth: usize,
    samples: &[Vec<S::Op>],
    stability_depth: usize,
    kind: <S::Op as HasKind>::Kind,
) -> Verdict<S::Op>
where
    S: ValueSpec + Clone,
    E: Eval<Value = S::Value, Op = S::Op> + Clone,
    S::Op: HasKind + Clone + Eq + Ord + Hash + std::fmt::Debug,
{
    // Check 1: quorum-insensitivity. Strip every pair mentioning the kind;
    // if nothing mentions it the check is trivially satisfied, otherwise
    // the two QCAs must agree on all histories up to the depth bound.
    let stripped =
        IntersectionRelation::from_pairs(relation.pairs().filter(|&(p, q)| p != kind && q != kind));
    if stripped != *relation {
        let constrained = QcaAutomaton::new(spec.clone(), eta.clone(), relation.clone());
        let relaxed = QcaAutomaton::new(spec.clone(), eta.clone(), stripped);
        if let Err(diff) = equal_upto(&constrained, &relaxed, alphabet, depth) {
            return Verdict::QuorumSensitive(diff);
        }
    }

    // Check 2: response stability for this kind's sample invocations. A
    // group's response at a view is its enabled subset — the runtime's
    // `execute` picks among exactly these.
    let groups: Vec<&Vec<S::Op>> = samples
        .iter()
        .filter(|g| g.first().map(HasKind::invocation_kind) == Some(kind))
        .collect();
    let enabled = |view: &S::Value, i: usize| -> Vec<bool> {
        groups[i]
            .iter()
            .map(|op| {
                spec.pre(view, op) && {
                    let post = eta.apply(view, op);
                    spec.post(view, op, &post)
                }
            })
            .collect()
    };
    match response_stable(
        eta.initial(),
        alphabet,
        stability_depth,
        groups.len(),
        |v, op| eta.apply_mut(v, op),
        enabled,
    ) {
        Ok(()) => Verdict::Monotone,
        Err(witness) => Verdict::ResponseUnstable(witness),
    }
}

/// Analyzes the taxi queue (§3.3) at `relation`: `PqValueSpec` under `η`,
/// with a two-item alphabet.
pub fn analyze_taxi(relation: &IntersectionRelation<QueueKind>) -> CalmReport<QueueKind, QueueOp> {
    let alphabet = queue_alphabet(&[1, 2]);
    let samples: Vec<Vec<QueueOp>> = vec![
        vec![QueueOp::Enq(1)],
        vec![QueueOp::Enq(2)],
        vec![QueueOp::Deq(1)],
        vec![QueueOp::Deq(2)],
    ];
    analyze(&PqValueSpec, &Eta, relation, &alphabet, 4, &samples, 3)
}

/// Analyzes the bank account (§3.4) at `relation`: `AccountValueSpec`
/// under the running-balance evaluation, with a two-amount alphabet.
pub fn analyze_account(
    relation: &IntersectionRelation<AccountKind>,
) -> CalmReport<AccountKind, AccountOp> {
    let alphabet = account_alphabet(&[1, 2]);
    let samples: Vec<Vec<AccountOp>> = vec![
        vec![AccountOp::Credit(1)],
        vec![AccountOp::Credit(2)],
        vec![AccountOp::DebitOk(1), AccountOp::DebitOverdraft(1)],
        vec![AccountOp::DebitOk(2), AccountOp::DebitOverdraft(2)],
    ];
    analyze(
        &AccountValueSpec,
        &AccountEval,
        relation,
        &alphabet,
        3,
        &samples,
        3,
    )
}

/// Which operation kinds skip the quorum protocol.
///
/// The default (and [`SchedulingPolicy::all_quorum`]) frees nothing, so a
/// system built without an explicit policy behaves exactly as before the
/// fast path existed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulingPolicy<K: Ord> {
    free: BTreeSet<K>,
}

impl<K: Ord> Default for SchedulingPolicy<K> {
    fn default() -> Self {
        SchedulingPolicy {
            free: BTreeSet::new(),
        }
    }
}

impl<K: Copy + Ord> SchedulingPolicy<K> {
    /// Every kind takes the quorum path (the pre-CALM behavior).
    pub fn all_quorum() -> Self {
        SchedulingPolicy {
            free: BTreeSet::new(),
        }
    }

    /// Frees exactly the given kinds. Callers are expected to pass kinds
    /// a [`CalmReport`] classified monotone; [`SchedulingPolicy::from_report`]
    /// does that directly.
    pub fn coordination_free(kinds: impl IntoIterator<Item = K>) -> Self {
        SchedulingPolicy {
            free: kinds.into_iter().collect(),
        }
    }

    /// Frees the report's monotone kinds — the analyzer-driven policy.
    pub fn from_report<Op>(report: &CalmReport<K, Op>) -> Self {
        SchedulingPolicy {
            free: report.monotone_kinds(),
        }
    }

    /// Does `kind` execute coordination-free?
    pub fn is_free(&self, kind: K) -> bool {
        self.free.contains(&kind)
    }

    /// The freed kinds, in order.
    pub fn free_kinds(&self) -> impl Iterator<Item = K> + '_ {
        self.free.iter().copied()
    }

    /// True when no kind is freed (pure quorum scheduling).
    pub fn is_all_quorum(&self) -> bool {
        self.free.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{account_relation, queue_relation};

    #[test]
    fn credit_is_monotone_at_a2_only() {
        // {A2} = {(Debit, Debit)}: no pair mentions Credit, and Credit's
        // response never reads the balance — the paper's "deposits are
        // always safe" lattice level.
        let report = analyze_account(&account_relation(false, true));
        assert!(report.is_monotone(AccountKind::Credit));
        assert!(!report.is_monotone(AccountKind::Debit));
    }

    #[test]
    fn credit_is_coordination_requiring_at_the_full_account_relation() {
        // At {A1, A2} a Debit's view must include all Credits: dropping A1
        // changes the language ([Credit(1), Debit/Overdraft(1)] becomes
        // legal), so Credit's quorum constraints are load-bearing.
        let report = analyze_account(&account_relation(true, true));
        match report.verdict(AccountKind::Credit) {
            Some(Verdict::QuorumSensitive(_)) => {}
            other => panic!("expected QuorumSensitive, got {other:?}"),
        }
        assert!(!report.is_monotone(AccountKind::Debit));
    }

    #[test]
    fn debit_response_reads_the_view_even_unconstrained() {
        // Even at the empty relation, [Credit(n)] flips Debit's response
        // from Overdraft to Ok: never coordination-free.
        let report = analyze_account(&account_relation(false, false));
        match report.verdict(AccountKind::Debit) {
            Some(Verdict::ResponseUnstable(w)) => {
                assert!(!w.prefix.is_empty());
            }
            other => panic!("expected ResponseUnstable, got {other:?}"),
        }
    }

    #[test]
    fn enq_verdicts_across_the_queue_lattice() {
        // Monotone at OPQ ({Q2}) and DegenPQ (∅): no pair mentions Enq.
        assert!(analyze_taxi(&queue_relation(false, true)).is_monotone(QueueKind::Enq));
        assert!(analyze_taxi(&queue_relation(false, false)).is_monotone(QueueKind::Enq));
        // Not at PQ ({Q1,Q2}) or MPQ ({Q1}): dropping Q1 lets a Deq's view
        // omit Enqs, admitting out-of-order service.
        for (q1, q2) in [(true, true), (true, false)] {
            let report = analyze_taxi(&queue_relation(q1, q2));
            match report.verdict(QueueKind::Enq) {
                Some(Verdict::QuorumSensitive(_)) => {}
                other => panic!("expected QuorumSensitive at ({q1},{q2}), got {other:?}"),
            }
        }
    }

    #[test]
    fn deq_is_never_monotone() {
        for (q1, q2) in [(true, true), (true, false), (false, true), (false, false)] {
            let report = analyze_taxi(&queue_relation(q1, q2));
            assert!(
                !report.is_monotone(QueueKind::Deq),
                "Deq must require coordination at ({q1},{q2})"
            );
        }
    }

    #[test]
    fn policy_from_report_frees_exactly_the_monotone_kinds() {
        let report = analyze_account(&account_relation(false, true));
        let policy = SchedulingPolicy::from_report(&report);
        assert!(policy.is_free(AccountKind::Credit));
        assert!(!policy.is_free(AccountKind::Debit));
        assert!(!policy.is_all_quorum());
        assert_eq!(
            policy.free_kinds().collect::<Vec<_>>(),
            vec![AccountKind::Credit]
        );
    }

    #[test]
    fn default_policy_is_all_quorum() {
        let policy: SchedulingPolicy<QueueKind> = SchedulingPolicy::default();
        assert!(policy.is_all_quorum());
        assert!(!policy.is_free(QueueKind::Enq));
        assert_eq!(policy, SchedulingPolicy::all_quorum());
    }
}
