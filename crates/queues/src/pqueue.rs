//! The priority queue automaton — Figures 3-1 and 3-2.
//!
//! The taxicab dispatch queue of §3.3: `Enq` inserts a request, `Deq`
//! returns the *best* (highest-priority) pending request. Values are bags
//! with the `best` observer; the total order on items is the integer
//! order (the `TotalOrder` assumption of Figure 3-1).

use relax_automata::ObjectAutomaton;

use crate::bag::Bag;
use crate::ops::{Item, QueueOp};

/// The priority queue automaton: `Deq()/Ok(e)` is accepted only when `e`
/// is the maximum present item.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PQueueAutomaton;

impl PQueueAutomaton {
    /// Creates the automaton.
    pub fn new() -> Self {
        PQueueAutomaton
    }
}

impl ObjectAutomaton for PQueueAutomaton {
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
            QueueOp::Deq(e) if s.best() == Some(e) => s.del(e),
            QueueOp::Deq(_) => return Some(false),
        }
        Some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relax_automata::{included_upto, History};

    use crate::ops::queue_alphabet;

    #[test]
    fn deq_returns_best() {
        let a = PQueueAutomaton::new();
        let h = History::from(vec![
            QueueOp::Enq(2),
            QueueOp::Enq(9),
            QueueOp::Enq(4),
            QueueOp::Deq(9),
            QueueOp::Deq(4),
            QueueOp::Deq(2),
        ]);
        assert!(a.accepts(&h));
    }

    #[test]
    fn deq_of_non_best_rejected() {
        let a = PQueueAutomaton::new();
        let h = History::from(vec![QueueOp::Enq(2), QueueOp::Enq(9), QueueOp::Deq(2)]);
        assert!(!a.accepts(&h));
    }

    #[test]
    fn deq_on_empty_rejected() {
        let a = PQueueAutomaton::new();
        assert!(!a.accepts(&History::from(vec![QueueOp::Deq(1)])));
    }

    #[test]
    fn duplicates_are_dequeued_once_each() {
        let a = PQueueAutomaton::new();
        let h = History::from(vec![
            QueueOp::Enq(5),
            QueueOp::Enq(5),
            QueueOp::Deq(5),
            QueueOp::Deq(5),
        ]);
        assert!(a.accepts(&h));
        let extra = h.appended(QueueOp::Deq(5));
        assert!(!a.accepts(&extra));
    }

    #[test]
    fn pqueue_language_included_in_bag() {
        // Every legal priority-queue history is a legal bag history
        // (dequeue of a present item).
        let alphabet = queue_alphabet(&[1, 2, 3]);
        assert!(included_upto(
            &PQueueAutomaton::new(),
            &crate::bag::BagAutomaton::new(),
            &alphabet,
            5
        )
        .is_ok());
    }

    proptest! {
        /// Draining a priority queue returns items in descending order.
        #[test]
        fn drain_descending(items in proptest::collection::vec(-20i64..20, 1..10)) {
            let a = PQueueAutomaton::new();
            let mut h: History<QueueOp> = items.iter().map(|&e| QueueOp::Enq(e)).collect();
            let mut sorted = items.clone();
            sorted.sort_unstable_by(|x, y| y.cmp(x));
            for &e in &sorted {
                h.push(QueueOp::Deq(e));
            }
            prop_assert!(a.accepts(&h));
        }

        /// Dequeuing in any order that ever picks a non-maximum is
        /// rejected at that point.
        #[test]
        fn non_best_prefix_rejected(items in proptest::collection::vec(0i64..10, 2..6)) {
            let distinct: std::collections::BTreeSet<i64> = items.iter().copied().collect();
            prop_assume!(distinct.len() >= 2);
            let a = PQueueAutomaton::new();
            let mut h: History<QueueOp> = distinct.iter().map(|&e| QueueOp::Enq(e)).collect();
            // Deq the *minimum* first: must be rejected.
            let min = *distinct.iter().next().unwrap();
            h.push(QueueOp::Deq(min));
            prop_assert!(!a.accepts(&h));
        }
    }
}
