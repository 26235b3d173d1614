//! The degenerate priority queue automaton — Figure 3-5.
//!
//! The bottom of the taxi-queue relaxation lattice (both `Q1` and `Q2`
//! relaxed): "clients may be serviced multiple times and out of order".
//! `Enq` inserts an item and `Deq` returns — but does not necessarily
//! remove — some present item.

use relax_automata::ObjectAutomaton;

use crate::bag::Bag;
use crate::ops::{Item, QueueOp};

/// The degenerate priority queue automaton: `Deq()/Ok(e)` is accepted for
/// any present `e`, nondeterministically removing it or leaving it in
/// place.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegenPqAutomaton;

impl DegenPqAutomaton {
    /// Creates the automaton.
    pub fn new() -> Self {
        DegenPqAutomaton
    }
}

impl ObjectAutomaton for DegenPqAutomaton {
    type State = Bag<Item>;
    type Op = QueueOp;

    fn initial_state(&self) -> Bag<Item> {
        Bag::new()
    }

    fn step(&self, s: &Bag<Item>, op: &QueueOp) -> Vec<Bag<Item>> {
        match op {
            QueueOp::Enq(e) => vec![s.clone().inserted(*e)],
            QueueOp::Deq(e) => {
                if s.contains(e) {
                    // Figure 3-5's postcondition asserts only isIn(q, e):
                    // the value may or may not lose the item.
                    vec![s.clone(), s.clone().deleted(e)]
                } else {
                    vec![]
                }
            }
        }
    }

    /// `Deq(e)` keeps `e`. The keep branch accepts every history the
    /// remove branch does: DegenPQ is monotone in the bag (`Enq` is
    /// always enabled and `Deq(e)` needs only `isIn(q, e)`), so a
    /// superbag accepts whatever a subbag does — bag inclusion is a
    /// forward simulation of the automaton by itself. An [`Acceptor`]
    /// therefore keeps one state, the ⊆-greatest bag of `δ*(H)`, where
    /// stepping both branches would double its frontier on every
    /// dequeue.
    ///
    /// [`Acceptor`]: relax_automata::Acceptor
    fn step_in_place(&self, s: &mut Bag<Item>, op: &QueueOp) -> Option<bool> {
        match op {
            QueueOp::Enq(e) => s.ins(*e),
            QueueOp::Deq(e) if s.contains(e) => {}
            QueueOp::Deq(_) => return Some(false),
        }
        Some(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_automata::{included_upto, History};

    use crate::mpq::MpqAutomaton;
    use crate::opq::OpqAutomaton;
    use crate::ops::queue_alphabet;
    use crate::pqueue::PQueueAutomaton;

    #[test]
    fn duplicate_and_out_of_order_service() {
        let a = DegenPqAutomaton::new();
        let h = History::from(vec![
            QueueOp::Enq(2),
            QueueOp::Enq(9),
            QueueOp::Deq(2), // out of order
            QueueOp::Deq(2), // duplicate
            QueueOp::Deq(9),
        ]);
        assert!(a.accepts(&h));
    }

    #[test]
    fn never_serves_unenqueued_items() {
        let a = DegenPqAutomaton::new();
        let h = History::from(vec![QueueOp::Enq(1), QueueOp::Deq(2)]);
        assert!(!a.accepts(&h));
    }

    #[test]
    fn sits_at_lattice_bottom() {
        // L(PQ), L(MPQ), L(OPQ) ⊆ L(DegenPQ) — everything degrades into
        // the bottom behavior.
        let alphabet = queue_alphabet(&[1, 2, 3]);
        let degen = DegenPqAutomaton::new();
        assert!(included_upto(&PQueueAutomaton::new(), &degen, &alphabet, 5).is_ok());
        assert!(included_upto(&MpqAutomaton::new(), &degen, &alphabet, 5).is_ok());
        assert!(included_upto(&OpqAutomaton::new(), &degen, &alphabet, 5).is_ok());
    }

    #[test]
    fn dequeue_may_or_may_not_remove() {
        let a = DegenPqAutomaton::new();
        let h = History::from(vec![QueueOp::Enq(1), QueueOp::Deq(1)]);
        let states = a.delta_star(&h);
        assert_eq!(states.len(), 2); // {|1|} and {||}
    }
}
