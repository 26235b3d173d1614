//! What the runtime needs of a replicated data type
//! ([`ReplicatedType`]), and the paper's two worked examples as presets:
//! the taxi-dispatch priority queue of §3.3 and the bank account of §3.4.

use relax_trace::{DegradationMonitor, OpLabel};

use crate::log::Log;
use crate::relation::HasKind;

/// A replicated data type, as the runtime needs it: evaluation of views
/// plus client-side response choice. Every view is folded in timestamp
/// order — through [`crate::ViewCache`] by the sim client and the
/// threaded shard alike — so `apply` need not commute.
pub trait ReplicatedType: Clone {
    /// Invocations (operation name + arguments, no response yet).
    type Inv: Clone + std::fmt::Debug;
    /// Operation executions recorded in logs.
    type Op: Clone + std::fmt::Debug + HasKind;
    /// The value domain views evaluate to.
    type Value: Clone;

    /// The value of the empty view.
    fn initial_value(&self) -> Self::Value;

    /// Extends a view's value by one operation (the evaluation function
    /// `η`; total).
    fn apply(&self, value: &Self::Value, op: &Self::Op) -> Self::Value;

    /// In-place form of [`ReplicatedType::apply`], used by the replay hot
    /// path (the view cache) where rebuilding the value per
    /// entry would be quadratic for collection-valued types. The default
    /// delegates to `apply`; concrete types with cheap in-place mutation
    /// should override.
    fn apply_mut(&self, value: &mut Self::Value, op: &Self::Op) {
        *value = self.apply(value, op);
    }

    /// Chooses the response for `inv` against the view's value, yielding
    /// the operation execution to record — or `None` when no response is
    /// consistent (e.g. `Deq` on an apparently empty queue).
    ///
    /// The value arrives lazily: call `value` only when the response
    /// reads it. §3.1's client "chooses a response consistent with the
    /// view", and an invocation that answers the same against every view
    /// (`Enq`, `Credit` — the response-stable ones of [`crate::calm`])
    /// is consistent with this one unseen; the runtime then never folds
    /// the view at all (see [`crate::viewcache`]'s cost contract).
    fn respond<'v>(
        &self,
        value: impl FnOnce() -> &'v Self::Value,
        inv: &Self::Inv,
    ) -> Option<Self::Op>
    where
        Self::Value: 'v;

    /// [`ReplicatedType::respond`] against a value already in hand
    /// (provided).
    fn execute(&self, value: &Self::Value, inv: &Self::Inv) -> Option<Self::Op> {
        self.respond(|| value, inv)
    }

    /// The quorum-relevant kind of an invocation.
    fn invocation_kind(&self, inv: &Self::Inv) -> <Self::Op as HasKind>::Kind;

    /// Renders the short trace label for an invocation (provided: the
    /// `Debug` form, truncated to the label's inline capacity).
    ///
    /// This runs once per traced operation on the hot path; concrete
    /// types with cheap-to-render invocations should override it with
    /// direct [`OpLabel::push_str`]/[`OpLabel::push_i64`] calls, which
    /// skip the `fmt` machinery entirely.
    fn op_label(&self, inv: &Self::Inv) -> OpLabel {
        OpLabel::from_debug(inv)
    }

    /// Evaluates a whole view (provided).
    fn eval_view(&self, log: &Log<Self::Op>) -> Self::Value {
        let mut v = self.initial_value();
        for e in log.entries() {
            self.apply_mut(&mut v, &e.op);
        }
        v
    }

    /// Always `false`, and read by no backend: the benchmark package's
    /// layer replay still calls it, and it goes with that call.
    #[doc(hidden)]
    fn apply_commutes(&self) -> bool {
        false
    }
}

/// Invocations for the replicated taxi queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueInv {
    /// Enqueue a request with the given priority.
    Enq(relax_queues::Item),
    /// Dequeue the best visible request.
    Deq,
}

/// Renders a [`QueueInv`] label without the `fmt` machinery (hot path;
/// see [`ReplicatedType::op_label`]).
fn queue_inv_label(inv: &QueueInv) -> OpLabel {
    let mut label = OpLabel::default();
    match inv {
        QueueInv::Enq(e) => {
            label.push_str("Enq(");
            label.push_i64(*e);
            label.push_str(")");
        }
        QueueInv::Deq => label.push_str("Deq"),
    }
    label
}

/// The replicated taxi-dispatch priority queue of §3.3, with the paper's
/// evaluation function `η` (views are bags).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaxiQueueType;

impl ReplicatedType for TaxiQueueType {
    type Inv = QueueInv;
    type Op = relax_queues::QueueOp;
    type Value = relax_queues::Bag<relax_queues::Item>;

    fn initial_value(&self) -> Self::Value {
        relax_queues::Bag::new()
    }

    fn apply(&self, value: &Self::Value, op: &Self::Op) -> Self::Value {
        use relax_queues::Eval;
        relax_queues::Eta.apply(value, op)
    }

    fn apply_mut(&self, value: &mut Self::Value, op: &Self::Op) {
        use relax_queues::Eval;
        relax_queues::Eta.apply_mut(value, op);
    }

    fn respond<'v>(
        &self,
        value: impl FnOnce() -> &'v Self::Value,
        inv: &QueueInv,
    ) -> Option<Self::Op> {
        match inv {
            QueueInv::Enq(e) => Some(relax_queues::QueueOp::Enq(*e)),
            QueueInv::Deq => value().best().map(|b| relax_queues::QueueOp::Deq(*b)),
        }
    }

    fn invocation_kind(&self, inv: &QueueInv) -> crate::relation::QueueKind {
        match inv {
            QueueInv::Enq(_) => crate::relation::QueueKind::Enq,
            QueueInv::Deq => crate::relation::QueueKind::Deq,
        }
    }

    fn op_label(&self, inv: &QueueInv) -> OpLabel {
        queue_inv_label(inv)
    }
}

/// The replicated taxi queue with the *alternative* evaluation function
/// `η′` of §3.3: a dequeue's view discards every pending request with
/// priority above the returned one ("skipped over" requests are ignored
/// forever). Compare with [`TaxiQueueType`] — same invocations, same
/// quorums, different degradation: never out of order, may starve
/// requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaxiQueuePrimeType;

impl ReplicatedType for TaxiQueuePrimeType {
    type Inv = QueueInv;
    type Op = relax_queues::QueueOp;
    type Value = relax_queues::Bag<relax_queues::Item>;

    fn initial_value(&self) -> Self::Value {
        relax_queues::Bag::new()
    }

    fn apply(&self, value: &Self::Value, op: &Self::Op) -> Self::Value {
        use relax_queues::Eval;
        relax_queues::EtaPrime.apply(value, op)
    }

    fn apply_mut(&self, value: &mut Self::Value, op: &Self::Op) {
        use relax_queues::Eval;
        relax_queues::EtaPrime.apply_mut(value, op);
    }

    fn respond<'v>(
        &self,
        value: impl FnOnce() -> &'v Self::Value,
        inv: &QueueInv,
    ) -> Option<Self::Op> {
        match inv {
            QueueInv::Enq(e) => Some(relax_queues::QueueOp::Enq(*e)),
            QueueInv::Deq => value().best().map(|b| relax_queues::QueueOp::Deq(*b)),
        }
    }

    fn invocation_kind(&self, inv: &QueueInv) -> crate::relation::QueueKind {
        match inv {
            QueueInv::Enq(_) => crate::relation::QueueKind::Enq,
            QueueInv::Deq => crate::relation::QueueKind::Deq,
        }
    }

    fn op_label(&self, inv: &QueueInv) -> OpLabel {
        queue_inv_label(inv)
    }
}

/// A [`DegradationMonitor`] preloaded with the paper's priority-queue
/// relaxation lattice (Figs 3-1 to 3-5), most-constrained first:
///
/// * **PQ** — the faithful FIFO-priority queue (`Q1 ∧ Q2` behaviour);
/// * **MPQ** — duplicates possible, order preserved (only `Q1` held);
/// * **OPQ** — no duplicates, order may be violated (only `Q2` held);
/// * **DegenPQ** — anything enqueued may come out, any number of times.
///
/// Attach it with [`crate::sim_exec::QuorumSystem::with_monitor`] to classify the live
/// completion order of a replicated taxi queue against the lattice.
#[must_use]
pub fn queue_lattice_monitor() -> DegradationMonitor<relax_queues::QueueOp> {
    DegradationMonitor::new()
        .level("PQ", relax_queues::PQueueAutomaton::new())
        .level("MPQ", relax_queues::MpqAutomaton::new())
        .level("OPQ", relax_queues::OpqAutomaton::new())
        .level("DegenPQ", relax_queues::DegenPqAutomaton::new())
}

/// Invocations for the replicated bank account.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccountInv {
    /// Credit the account.
    Credit(u32),
    /// Debit the account (may bounce).
    Debit(u32),
}

/// The replicated ATM bank account of §3.4. A `Debit` against a view with
/// an insufficient *visible* balance completes as `Overdraft` — the
/// spurious bounce the bank tolerates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankAccountType;

impl ReplicatedType for BankAccountType {
    type Inv = AccountInv;
    type Op = relax_queues::AccountOp;
    type Value = i64;

    fn initial_value(&self) -> i64 {
        0
    }

    fn apply(&self, value: &i64, op: &Self::Op) -> i64 {
        use relax_queues::Eval;
        relax_queues::eval::AccountEval.apply(value, op)
    }

    fn apply_mut(&self, value: &mut i64, op: &Self::Op) {
        use relax_queues::Eval;
        relax_queues::eval::AccountEval.apply_mut(value, op);
    }

    fn respond<'v>(&self, value: impl FnOnce() -> &'v i64, inv: &AccountInv) -> Option<Self::Op> {
        match inv {
            AccountInv::Credit(n) => Some(relax_queues::AccountOp::Credit(*n)),
            AccountInv::Debit(n) => Some(if *value() >= i64::from(*n) {
                relax_queues::AccountOp::DebitOk(*n)
            } else {
                relax_queues::AccountOp::DebitOverdraft(*n)
            }),
        }
    }

    fn invocation_kind(&self, inv: &AccountInv) -> crate::relation::AccountKind {
        match inv {
            AccountInv::Credit(_) => crate::relation::AccountKind::Credit,
            AccountInv::Debit(_) => crate::relation::AccountKind::Debit,
        }
    }

    fn op_label(&self, inv: &AccountInv) -> OpLabel {
        let mut label = OpLabel::default();
        let (name, amount) = match inv {
            AccountInv::Credit(n) => ("Credit(", n),
            AccountInv::Debit(n) => ("Debit(", n),
        };
        label.push_str(name);
        label.push_u32(*amount);
        label.push_str(")");
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_queues::QueueOp;

    #[test]
    fn duplicate_deq_kills_pq_and_opq_in_the_same_step() {
        // PQ forbids duplicates (and order violations); OPQ forbids
        // duplicates but tolerates disorder. A history that serves the
        // same request twice therefore kills both in one step, and the
        // single emitted transition carries both level names with the
        // duplicate Deq as the shared witness. MPQ (duplicates allowed,
        // order kept) survives and becomes the current level.
        let mut m = queue_lattice_monitor();
        assert!(m.observe(&QueueOp::Enq(5)).is_none());
        assert!(m.observe(&QueueOp::Deq(5)).is_none());
        let t = m
            .observe(&QueueOp::Deq(5))
            .expect("duplicate Deq must witness a transition")
            .clone();
        assert_eq!(t.left, vec!["PQ".to_string(), "OPQ".to_string()]);
        assert_eq!(t.now.as_deref(), Some("MPQ"));
        assert_eq!(t.witness, "Deq(5)");
        assert_eq!(t.op_index, 2);
        // Both deaths happened on the same observed op — one shared
        // witness, not two transitions.
        assert_eq!(m.transitions().len(), 1);
        assert_eq!(m.died_at("PQ"), Some(2));
        assert_eq!(m.died_at("OPQ"), Some(2));
        assert_eq!(m.is_alive("MPQ"), Some(true));
        assert_eq!(m.is_alive("DegenPQ"), Some(true));
    }

    #[test]
    fn op_labels_render_without_fmt_and_match_debug() {
        // The manual label builders must agree with the Debug-based
        // default they replace (for values that fit the label).
        for inv in [QueueInv::Enq(5), QueueInv::Enq(-3), QueueInv::Deq] {
            assert_eq!(
                TaxiQueueType.op_label(&inv).as_str(),
                OpLabel::from_debug(&inv).as_str()
            );
            assert_eq!(
                TaxiQueuePrimeType.op_label(&inv).as_str(),
                OpLabel::from_debug(&inv).as_str()
            );
        }
        for inv in [AccountInv::Credit(10), AccountInv::Debit(7)] {
            assert_eq!(
                BankAccountType.op_label(&inv).as_str(),
                OpLabel::from_debug(&inv).as_str()
            );
        }
    }
}
