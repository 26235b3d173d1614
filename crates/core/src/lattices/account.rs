//! The replicated bank account lattice (§3.4).
//!
//! Constraints on quorum intersection:
//!
//! * `A1` — every initial Debit quorum intersects every final Credit
//!   quorum;
//! * `A2` — every initial Debit quorum intersects every final Debit
//!   quorum.
//!
//! "To preserve [no-overdraft], the account object may relax constraint
//! A1, but not A2 — the relaxation lattice is defined over a *sublattice*
//! of `2^{A1,A2}`." Relaxing `A1` admits *premature debits* — debits
//! executed before earlier credits propagate — which bounce spuriously;
//! keeping `A2` guarantees debits always see earlier debits, so the true
//! balance never goes negative.
//!
//! Each point has a *named* reference behavior, whose language equals
//! the point's QCA (tested: `{A2}` to length 7 over amounts {0, 1, 2},
//! the top to length 4):
//!
//! | constraints | behavior |
//! |-------------|----------|
//! | `{A1, A2}` | one-copy account, [`relax_queues::AccountAutomaton`] (preferred) |
//! | `{A2}` | bouncing account, [`relax_queues::BouncingAccountAutomaton`]: a debit may bounce while the funds exist |
//!
//! The environment events here **overlap the object's operations**: a
//! premature `Debit` is both an operation and the event that signals `A1`
//! no longer holds (§2.3's non-disjoint `EVENT`/`OP` case).

use relax_automata::{ConstraintSet, ConstraintUniverse, RelaxationMap};
use relax_queues::eval::AccountEval;
use relax_queues::spec::AccountValueSpec;
use relax_quorum::relation::account_relation;
use relax_quorum::QcaAutomaton;

/// The bank-account relaxation lattice: `φ(R) = QCA(Account, R, η)` over
/// the sublattice of `2^{A1, A2}` whose members contain `A2`.
#[derive(Debug, Clone)]
pub struct AccountLattice {
    universe: ConstraintUniverse,
}

impl AccountLattice {
    /// Builds the lattice.
    pub fn new() -> Self {
        AccountLattice {
            universe: ConstraintUniverse::new(["A1", "A2"]),
        }
    }

    /// The QCA for explicit constraint booleans (useful for experiments
    /// that deliberately step outside the sublattice, e.g. to demonstrate
    /// *why* `A2` must never be dropped).
    pub fn qca_unchecked(&self, a1: bool, a2: bool) -> QcaAutomaton<AccountValueSpec, AccountEval> {
        QcaAutomaton::new(AccountValueSpec, AccountEval, account_relation(a1, a2))
    }

    /// Is `c` inside the lattice's domain (contains `A2`)?
    pub fn in_domain(&self, c: ConstraintSet) -> bool {
        c.contains(self.universe.id("A2").expect("A2 in universe"))
    }
}

impl Default for AccountLattice {
    fn default() -> Self {
        AccountLattice::new()
    }
}

impl RelaxationMap for AccountLattice {
    type A = QcaAutomaton<AccountValueSpec, AccountEval>;

    fn universe(&self) -> &ConstraintUniverse {
        &self.universe
    }

    fn domain(&self) -> Vec<ConstraintSet> {
        self.universe
            .subsets()
            .filter(|c| self.in_domain(*c))
            .collect()
    }

    fn automaton(&self, c: ConstraintSet) -> Option<Self::A> {
        if !self.in_domain(c) {
            return None;
        }
        let a1 = c.contains(self.universe.id("A1").expect("A1 in universe"));
        Some(self.qca_unchecked(a1, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_automata::{
        check_reverse_inclusion_lattice, equal_upto, language_sizes, language_upto, History,
        ObjectAutomaton,
    };
    use relax_queues::ops::account_alphabet;
    use relax_queues::{AccountAutomaton, AccountOp, BouncingAccountAutomaton};

    fn alphabet() -> Vec<AccountOp> {
        account_alphabet(&[1, 2])
    }

    /// True running balance of a history (credits minus successful
    /// debits).
    fn true_balance(h: &History<AccountOp>) -> i64 {
        h.iter().fold(0i64, |b, op| match op {
            AccountOp::Credit(n) => b + i64::from(*n),
            AccountOp::DebitOk(n) => b - i64::from(*n),
            AccountOp::DebitOverdraft(_) => b,
        })
    }

    #[test]
    fn domain_is_the_a2_sublattice() {
        let l = AccountLattice::new();
        assert_eq!(l.domain().len(), 2);
        for c in l.domain() {
            assert!(l.in_domain(c));
            assert!(l.automaton(c).is_some());
        }
        let no_a2 = l.universe().set_of(&["A1"]);
        assert!(l.automaton(no_a2).is_none());
    }

    #[test]
    fn sublattice_is_a_relaxation_lattice() {
        let l = AccountLattice::new();
        let check = check_reverse_inclusion_lattice(&l, &alphabet(), 4);
        assert!(check.is_ok(), "violations: {:?}", check.violations);
    }

    #[test]
    fn preferred_point_equals_one_copy_account() {
        let l = AccountLattice::new();
        let preferred = l.preferred().expect("preferred defined");
        assert!(equal_upto(&preferred, &AccountAutomaton::new(), &alphabet(), 4).is_ok());
    }

    /// `L(QCA(Account, {A2}, η)) = L(BouncingAccountAutomaton)` to
    /// length 7 over amounts {0, 1, 2}, with `|L|` per length. Amount 0
    /// is the one that needs the automaton's debited bit.
    #[test]
    fn a2_point_equals_the_bouncing_account() {
        const SIZES: [usize; 8] = [1, 6, 39, 270, 1964, 14857, 115958, 927933];
        let l = AccountLattice::new();
        let alphabet = account_alphabet(&[0, 1, 2]);
        let reference = BouncingAccountAutomaton::new();
        let max_len = SIZES.len() - 1;
        let a2 = l
            .automaton(l.universe().set_of(&["A2"]))
            .expect("{A2} in domain");
        assert_eq!(equal_upto(&a2, &reference, &alphabet, max_len), Ok(()));
        assert_eq!(language_sizes(&reference, &alphabet, max_len), SIZES);
    }

    #[test]
    fn relaxing_a1_admits_spurious_bounces_only() {
        let l = AccountLattice::new();
        let relaxed = l.qca_unchecked(false, true);
        // Spurious bounce: Credit(2) then Debit(1)/Overdraft — the debit's
        // view may omit the credit.
        let bounce = History::from(vec![AccountOp::Credit(2), AccountOp::DebitOverdraft(1)]);
        assert!(relaxed.accepts(&bounce));
        assert!(!AccountAutomaton::new().accepts(&bounce));

        // But the no-overdraft invariant holds on EVERY accepted history:
        // the true balance never dips below zero at any prefix.
        for h in language_upto(&relaxed, &alphabet(), 5) {
            for n in 0..=h.len() {
                assert!(true_balance(&h.prefix(n)) >= 0, "overdraft within {h:?}");
            }
        }
    }

    #[test]
    fn dropping_a2_would_overdraw() {
        // Outside the sublattice: debits no longer see debits, so the
        // same funds can be spent twice — the behavior the bank refuses
        // to admit into its lattice.
        let l = AccountLattice::new();
        let broken = l.qca_unchecked(true, false);
        let double_spend = History::from(vec![
            AccountOp::Credit(1),
            AccountOp::DebitOk(1),
            AccountOp::DebitOk(1),
        ]);
        assert!(broken.accepts(&double_spend));
        assert!(true_balance(&double_spend) < 0);
        // Inside the sublattice this is impossible.
        let relaxed = l.qca_unchecked(false, true);
        assert!(!relaxed.accepts(&double_spend));
    }

    #[test]
    fn premature_debit_is_the_environment_event() {
        // The same invocation, ordered differently: once the credit has
        // "propagated" (is in the view), the debit succeeds; a premature
        // debit bounces. Both live in L(QCA(Account, {A2}, η)).
        let l = AccountLattice::new();
        let relaxed = l.qca_unchecked(false, true);
        let timely = History::from(vec![AccountOp::Credit(2), AccountOp::DebitOk(1)]);
        let premature = History::from(vec![AccountOp::Credit(2), AccountOp::DebitOverdraft(1)]);
        assert!(relaxed.accepts(&timely));
        assert!(relaxed.accepts(&premature));
    }
}
