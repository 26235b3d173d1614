//! The out-of-order priority queue automaton — Figure 3-4.
//!
//! `OPQ` is the degraded behavior of the replicated priority queue when
//! constraint `Q1` (Enq/Deq quorum intersection) is relaxed while `Q2`
//! holds: "requests may be serviced out of order, but no request will be
//! serviced more than once" (§3.3). Its behavior is just the bag of
//! Figures 2-1/2-2: `Deq` removes *some* item, not necessarily the best.

use relax_automata::ObjectAutomaton;

use crate::bag::Bag;
use crate::ops::{Item, QueueOp};

/// The out-of-order priority queue automaton: identical behavior to
/// [`crate::bag::BagAutomaton`], kept as a distinct type because the paper
/// treats OPQ as its own specification (the lattice point `{Q2}`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpqAutomaton;

impl OpqAutomaton {
    /// Creates the automaton.
    pub fn new() -> Self {
        OpqAutomaton
    }
}

impl ObjectAutomaton for OpqAutomaton {
    type State = Bag<Item>;
    type Op = QueueOp;

    fn initial_state(&self) -> Bag<Item> {
        Bag::new()
    }

    fn step(&self, s: &Bag<Item>, op: &QueueOp) -> Vec<Bag<Item>> {
        crate::step_copy(self, s, op)
    }

    fn step_in_place(&self, s: &mut Bag<Item>, op: &QueueOp) -> Option<bool> {
        match op {
            QueueOp::Enq(e) => s.ins(*e),
            QueueOp::Deq(e) if s.contains(e) => s.del(e),
            QueueOp::Deq(_) => return Some(false),
        }
        Some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_automata::{equal_upto, included_upto, History};

    use crate::bag::BagAutomaton;
    use crate::ops::queue_alphabet;
    use crate::pqueue::PQueueAutomaton;

    #[test]
    fn out_of_order_service_allowed() {
        let a = OpqAutomaton::new();
        let h = History::from(vec![QueueOp::Enq(2), QueueOp::Enq(9), QueueOp::Deq(2)]);
        assert!(a.accepts(&h));
    }

    #[test]
    fn no_duplicate_service() {
        let a = OpqAutomaton::new();
        let h = History::from(vec![QueueOp::Enq(1), QueueOp::Deq(1), QueueOp::Deq(1)]);
        assert!(!a.accepts(&h));
    }

    #[test]
    fn opq_equals_bag_behavior() {
        // §3.3: "The behavior of an OPQ is just a bag (Figures 2-1 and
        // 2-2)."
        let alphabet = queue_alphabet(&[1, 2, 3]);
        assert!(equal_upto(&OpqAutomaton::new(), &BagAutomaton::new(), &alphabet, 6).is_ok());
    }

    #[test]
    fn pq_included_in_opq() {
        let alphabet = queue_alphabet(&[1, 2, 3]);
        assert!(included_upto(&PQueueAutomaton::new(), &OpqAutomaton::new(), &alphabet, 6).is_ok());
    }
}
