//! What the runtime needs of a replicated data type
//! ([`ReplicatedType`]), and the paper's two worked examples as presets:
//! the taxi-dispatch priority queue of §3.3 and the bank account of §3.4.

use relax_queues::{AccountEval, AccountOp, Bag, Eta, Eval, Item, QueueOp};
use relax_trace::{DegradationMonitor, OpLabel};

use crate::log::Log;
use crate::relation::HasKind;

/// A replicated data type, as the runtime needs it: evaluation of views
/// plus client-side response choice. Every view is folded in timestamp
/// order through the type's evaluation function [`ReplicatedType::eta`]
/// — by [`crate::ViewCache`] in the sim client and the threaded shard
/// alike — so η need not commute. §3.3 leaves η to the application, and
/// the type declares it once: the fold methods are provided over it.
pub trait ReplicatedType: Clone {
    /// Invocations (operation name + arguments, no response yet).
    type Inv: Clone + std::fmt::Debug;
    /// Operation executions recorded in logs.
    type Op: Clone + std::fmt::Debug + HasKind;
    /// The value domain views evaluate to.
    type Value: Clone;
    /// The evaluation function views are folded through.
    type Eta: Eval<Value = Self::Value, Op = Self::Op>;

    /// The evaluation function `η` (total; §3.2).
    fn eta(&self) -> &Self::Eta;

    /// The value of the empty view: `η(Λ)` (provided).
    fn initial_value(&self) -> Self::Value {
        self.eta().initial()
    }

    /// Extends a view's value in place by one operation: η's step
    /// (provided).
    fn apply_mut(&self, value: &mut Self::Value, op: &Self::Op) {
        self.eta().apply_mut(value, op);
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
    Enq(Item),
    /// Dequeue the best visible request.
    Deq,
}

/// The replicated taxi-dispatch priority queue of §3.3, its views folded
/// through the evaluation function `E`. `TaxiQueue(Eta)` is the paper's
/// queue, [`TaxiQueueType`](type@TaxiQueueType): views are bags, and a
/// driver dequeues the highest-priority request that appears not to have
/// been served. `TaxiQueue(EtaPrime)` folds the alternative `η′` of §3.3: a dequeue's
/// view discards every pending request with priority above the returned
/// one ("skipped over" requests are ignored forever). Same invocations,
/// same quorums, different degradation: never out of order, may starve
/// requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaxiQueue<E>(pub E);

/// The taxi queue with the paper's `η`.
pub type TaxiQueueType = TaxiQueue<Eta>;

/// The taxi queue with the paper's `η`: the one value of
/// [`TaxiQueueType`](type@TaxiQueueType), named as a unit struct's would
/// be.
#[allow(non_upper_case_globals)]
pub const TaxiQueueType: TaxiQueueType = TaxiQueue(Eta);

impl<E: Eval<Value = Bag<Item>, Op = QueueOp> + Clone> ReplicatedType for TaxiQueue<E> {
    type Inv = QueueInv;
    type Op = QueueOp;
    type Value = Bag<Item>;
    type Eta = E;

    fn eta(&self) -> &E {
        &self.0
    }

    fn respond<'v>(
        &self,
        value: impl FnOnce() -> &'v Self::Value,
        inv: &QueueInv,
    ) -> Option<Self::Op> {
        match inv {
            QueueInv::Enq(e) => Some(QueueOp::Enq(*e)),
            QueueInv::Deq => value().best().map(|b| QueueOp::Deq(*b)),
        }
    }

    fn invocation_kind(&self, inv: &QueueInv) -> crate::relation::QueueKind {
        match inv {
            QueueInv::Enq(_) => crate::relation::QueueKind::Enq,
            QueueInv::Deq => crate::relation::QueueKind::Deq,
        }
    }

    fn op_label(&self, inv: &QueueInv) -> OpLabel {
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
pub fn queue_lattice_monitor() -> DegradationMonitor<QueueOp> {
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
    type Op = AccountOp;
    type Value = i64;
    type Eta = AccountEval;

    fn eta(&self) -> &AccountEval {
        &AccountEval
    }

    fn respond<'v>(&self, value: impl FnOnce() -> &'v i64, inv: &AccountInv) -> Option<Self::Op> {
        match inv {
            AccountInv::Credit(n) => Some(AccountOp::Credit(*n)),
            AccountInv::Debit(n) => Some(if *value() >= i64::from(*n) {
                AccountOp::DebitOk(*n)
            } else {
                AccountOp::DebitOverdraft(*n)
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
    use crate::log::Entry;
    use crate::timestamp::Timestamp;
    use relax_queues::EtaPrime;

    #[test]
    fn a_taxi_queue_folds_its_views_through_its_own_eta() {
        // Under η the skipped request 9 stays pending; under η′ serving
        // 2 discards it.
        let ops = [QueueOp::Enq(2), QueueOp::Enq(9), QueueOp::Deq(2)];
        let mut log = Log::new();
        for (i, op) in ops.iter().enumerate() {
            log.insert(Entry::new(Timestamp::new(i as u64 + 1, 0), *op));
        }
        let eta = TaxiQueue(Eta).eval_view(&log);
        assert_eq!((eta.len(), eta.count(&9)), (1, 1));
        assert_eq!(eta, Eta.eval(&ops));
        let eta_prime = TaxiQueue(EtaPrime).eval_view(&log);
        assert!(eta_prime.is_empty());
        assert_eq!(eta_prime, EtaPrime.eval(&ops));
    }

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
        }
        for inv in [AccountInv::Credit(10), AccountInv::Debit(7)] {
            assert_eq!(
                BankAccountType.op_label(&inv).as_str(),
                OpLabel::from_debug(&inv).as_str()
            );
        }
    }
}
