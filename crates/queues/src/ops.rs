//! Operation executions shared by the paper's object types.
//!
//! The paper writes an operation execution as `op(args*)/term(res*)` —
//! invocation plus response (§2). The queue family shares one alphabet
//! ([`QueueOp`]) so the languages of FIFO queues, priority queues, bags,
//! semiqueues etc. are directly comparable; the bank account uses
//! [`AccountOp`], whose `Debit` has two termination conditions.

use std::fmt;

/// An item priority/identity. The paper's `E` sort with the assumed total
/// order (`TotalOrder` instantiated at integers): larger is
/// higher-priority.
pub type Item = i64;

/// A queue operation execution: `Enq(e)/Ok()` or `Deq()/Ok(e)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueueOp {
    /// `Enq(e)/Ok()` — the item enqueued.
    Enq(Item),
    /// `Deq()/Ok(e)` — the item returned by the dequeue.
    Deq(Item),
}

impl QueueOp {
    /// The item mentioned by the execution (argument or result).
    pub fn item(&self) -> Item {
        match self {
            QueueOp::Enq(e) | QueueOp::Deq(e) => *e,
        }
    }

    /// True for `Enq` executions.
    pub fn is_enq(&self) -> bool {
        matches!(self, QueueOp::Enq(_))
    }

    /// True for `Deq` executions.
    pub fn is_deq(&self) -> bool {
        matches!(self, QueueOp::Deq(_))
    }
}

impl fmt::Display for QueueOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueOp::Enq(e) => write!(f, "Enq({e})/Ok()"),
            QueueOp::Deq(e) => write!(f, "Deq()/Ok({e})"),
        }
    }
}

/// The full queue alphabet over a finite item domain: `Enq(e)` and
/// `Deq(e)` for each item. Used to bound language enumeration.
pub fn queue_alphabet(items: &[Item]) -> Vec<QueueOp> {
    let mut out = Vec::with_capacity(items.len() * 2);
    for &e in items {
        out.push(QueueOp::Enq(e));
    }
    for &e in items {
        out.push(QueueOp::Deq(e));
    }
    out
}

/// A bank-account operation execution (§3.4). Amounts are non-negative by
/// construction (`u32` widened to `i64` balances).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccountOp {
    /// `Credit(n)/Ok()`.
    Credit(u32),
    /// `Debit(n)/Ok()` — the balance sufficed.
    DebitOk(u32),
    /// `Debit(n)/Overdraft()` — the debit bounced, balance unchanged.
    DebitOverdraft(u32),
}

impl AccountOp {
    /// The amount moved (or attempted).
    pub fn amount(&self) -> u32 {
        match self {
            AccountOp::Credit(n) | AccountOp::DebitOk(n) | AccountOp::DebitOverdraft(n) => *n,
        }
    }
}

impl fmt::Display for AccountOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccountOp::Credit(n) => write!(f, "Credit({n})/Ok()"),
            AccountOp::DebitOk(n) => write!(f, "Debit({n})/Ok()"),
            AccountOp::DebitOverdraft(n) => write!(f, "Debit({n})/Overdraft()"),
        }
    }
}

/// The account alphabet over a finite amount domain.
pub fn account_alphabet(amounts: &[u32]) -> Vec<AccountOp> {
    let mut out = Vec::with_capacity(amounts.len() * 3);
    for &n in amounts {
        out.push(AccountOp::Credit(n));
        out.push(AccountOp::DebitOk(n));
        out.push(AccountOp::DebitOverdraft(n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(QueueOp::Enq(5).to_string(), "Enq(5)/Ok()");
        assert_eq!(QueueOp::Deq(3).to_string(), "Deq()/Ok(3)");
        assert_eq!(AccountOp::Credit(10).to_string(), "Credit(10)/Ok()");
        assert_eq!(
            AccountOp::DebitOverdraft(7).to_string(),
            "Debit(7)/Overdraft()"
        );
    }

    #[test]
    fn queue_alphabet_covers_domain() {
        let a = queue_alphabet(&[1, 2]);
        assert_eq!(a.len(), 4);
        assert!(a.contains(&QueueOp::Enq(1)));
        assert!(a.contains(&QueueOp::Deq(2)));
    }

    #[test]
    fn account_alphabet_covers_domain() {
        let a = account_alphabet(&[1]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn accessors() {
        assert_eq!(QueueOp::Enq(9).item(), 9);
        assert!(QueueOp::Enq(9).is_enq());
        assert!(QueueOp::Deq(9).is_deq());
        assert_eq!(AccountOp::DebitOk(4).amount(), 4);
    }
}
