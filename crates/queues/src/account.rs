//! The replicated bank account object — §3.4.
//!
//! Accounts provide `Credit` and `Debit`, "where Debit returns an
//! exception if the balance would become negative". The semantic
//! consistency property the bank insists on is that **no account can be
//! overdrawn**, although it tolerates spuriously bounced checks: in the
//! relaxation lattice, constraint `A1` (initial-Debit ∩ final-Credit) may
//! be relaxed but `A2` (initial-Debit ∩ final-Debit) may not.

use std::fmt;

use relax_automata::ObjectAutomaton;

use crate::ops::AccountOp;

/// An account value: a non-negative balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Account {
    balance: i64,
}

impl Account {
    /// A fresh account with zero balance.
    pub fn new() -> Self {
        Account::default()
    }

    /// An account holding `balance`.
    ///
    /// # Panics
    ///
    /// Panics on a negative balance — the bank's invariant, enforced at
    /// construction.
    pub fn with_balance(balance: i64) -> Self {
        assert!(balance >= 0, "account balances are never negative");
        Account { balance }
    }

    /// The current balance.
    pub fn balance(&self) -> i64 {
        self.balance
    }

    /// Credits the account.
    #[must_use]
    pub fn credited(self, amount: u32) -> Account {
        Account {
            balance: self.balance + i64::from(amount),
        }
    }

    /// Debits the account if the balance suffices.
    ///
    /// Returns `Some` with the new account on success and `None` when the
    /// debit would overdraw (the `Overdraft` exception of §3.4).
    #[must_use]
    pub fn debited(self, amount: u32) -> Option<Account> {
        let amount = i64::from(amount);
        if self.balance >= amount {
            Some(Account {
                balance: self.balance - amount,
            })
        } else {
            None
        }
    }
}

impl fmt::Display for Account {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acct({})", self.balance)
    }
}

/// The account automaton: the preferred (one-copy) behavior of §3.4.
///
/// `Debit(n)/Ok()` requires a sufficient balance; `Debit(n)/Overdraft()`
/// requires an insufficient one and leaves the state unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccountAutomaton;

impl AccountAutomaton {
    /// Creates the automaton.
    pub fn new() -> Self {
        AccountAutomaton
    }
}

impl ObjectAutomaton for AccountAutomaton {
    type State = Account;
    type Op = AccountOp;

    fn initial_state(&self) -> Account {
        Account::new()
    }

    fn step(&self, s: &Account, op: &AccountOp) -> Vec<Account> {
        match op {
            AccountOp::Credit(n) => vec![s.credited(*n)],
            AccountOp::DebitOk(n) => match s.debited(*n) {
                Some(s2) => vec![s2],
                None => vec![],
            },
            AccountOp::DebitOverdraft(n) => {
                if s.debited(*n).is_none() {
                    vec![*s]
                } else {
                    vec![]
                }
            }
        }
    }
}

/// The account's `{A2}` point (§3.4): the one-copy account, except that
/// a debit may bounce while the funds exist.
///
/// With `A1` relaxed a debit's view holds every earlier debit but any
/// subset of the credits, so its balance ranges from the true balance
/// down to minus the successful debits. `Debit(n)/Ok()` still needs the
/// true balance; `Debit(n)/Overdraft()` needs only a view below `n`,
/// which exists for every `n > 0` and, for `n = 0`, once a positive
/// debit has succeeded. The state is the true balance and that bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BouncingAccountAutomaton;

impl BouncingAccountAutomaton {
    /// Creates the automaton.
    pub fn new() -> Self {
        BouncingAccountAutomaton
    }
}

impl ObjectAutomaton for BouncingAccountAutomaton {
    /// The true balance, and whether a positive debit has succeeded.
    type State = (Account, bool);
    type Op = AccountOp;

    fn initial_state(&self) -> (Account, bool) {
        (Account::new(), false)
    }

    fn step(&self, s: &(Account, bool), op: &AccountOp) -> Vec<(Account, bool)> {
        crate::step_copy(self, s, op)
    }

    fn step_in_place(&self, s: &mut (Account, bool), op: &AccountOp) -> Option<bool> {
        let (account, debited) = s;
        Some(match *op {
            AccountOp::Credit(n) => {
                *account = account.credited(n);
                true
            }
            AccountOp::DebitOk(n) => match account.debited(n) {
                Some(rest) => {
                    *account = rest;
                    *debited |= n > 0;
                    true
                }
                None => false,
            },
            AccountOp::DebitOverdraft(n) => n > 0 || *debited,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relax_automata::History;

    use crate::ops::account_alphabet;

    #[test]
    fn credit_then_debit() {
        let a = AccountAutomaton::new();
        let h = History::from(vec![AccountOp::Credit(10), AccountOp::DebitOk(7)]);
        let states = a.delta_star(&h);
        assert_eq!(states.len(), 1);
        assert_eq!(states.into_iter().next().unwrap().balance(), 3);
    }

    #[test]
    fn overdraft_requires_insufficient_balance() {
        let a = AccountAutomaton::new();
        // Balance 10: a Debit(7)/Overdraft would be a *spurious* bounce and
        // is NOT part of the preferred behavior.
        let h = History::from(vec![AccountOp::Credit(10), AccountOp::DebitOverdraft(7)]);
        assert!(!a.accepts(&h));
        // Debit(20)/Overdraft is legitimate.
        let h2 = History::from(vec![AccountOp::Credit(10), AccountOp::DebitOverdraft(20)]);
        assert!(a.accepts(&h2));
    }

    #[test]
    fn debit_ok_requires_funds() {
        let a = AccountAutomaton::new();
        assert!(!a.accepts(&History::from(vec![AccountOp::DebitOk(1)])));
    }

    #[test]
    fn overdraft_leaves_balance_unchanged() {
        let a = AccountAutomaton::new();
        let h = History::from(vec![
            AccountOp::Credit(5),
            AccountOp::DebitOverdraft(9),
            AccountOp::DebitOk(5),
        ]);
        assert!(a.accepts(&h));
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_balance_rejected_at_construction() {
        Account::with_balance(-1);
    }

    #[test]
    fn alphabet_helper() {
        assert_eq!(account_alphabet(&[1, 2]).len(), 6);
    }

    proptest! {
        /// The balance never goes negative along any accepted history.
        #[test]
        fn balance_invariant(ops in proptest::collection::vec(0u8..3, 0..20)) {
            let a = AccountAutomaton::new();
            let mut h = History::empty();
            for (i, kind) in ops.iter().enumerate() {
                let n = (i % 5 + 1) as u32;
                let op = match kind {
                    0 => AccountOp::Credit(n),
                    1 => AccountOp::DebitOk(n),
                    _ => AccountOp::DebitOverdraft(n),
                };
                h.push(op);
            }
            for s in a.delta_star(&h) {
                prop_assert!(s.balance() >= 0);
            }
        }

        /// credited/debited round-trip.
        #[test]
        fn credit_debit_roundtrip(start in 0i64..1000, n in 0u32..100) {
            let acct = Account::with_balance(start).credited(n);
            let back = acct.debited(n).expect("just credited");
            prop_assert_eq!(back.balance(), start);
        }
    }
}
