//! The multi-priority queue automaton — Figure 3-3.
//!
//! `MPQ` is the degraded behavior of the replicated priority queue when
//! constraint `Q2` (Deq-quorum intersection) is relaxed while `Q1` holds:
//! "requests may be serviced multiple times … but customers are serviced
//! in turn: no unserviced higher-priority request will ever be passed over
//! in favor of an unserviced lower-priority request" (§3.3).
//!
//! The state is a record of two bags: `present` (enqueued, not yet
//! dequeued) and `absent` (previously dequeued). `Deq` either transfers
//! the best present item to `absent` and returns it, or re-returns an
//! absent item whose priority beats everything present.

use std::fmt;

use relax_automata::ObjectAutomaton;

use crate::bag::Bag;
use crate::ops::{Item, QueueOp};

/// The MPQ value: `record of [present: Q, absent: Q]`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Mpq {
    /// Requests enqueued but not yet dequeued.
    pub present: Bag<Item>,
    /// Previously dequeued requests (may be re-returned).
    pub absent: Bag<Item>,
}

impl Mpq {
    /// The empty MPQ.
    pub fn new() -> Self {
        Mpq::default()
    }

    /// True when both components are empty.
    pub fn is_empty(&self) -> bool {
        self.present.is_empty() && self.absent.is_empty()
    }

    /// The projection `α(m) = m.present` used in the proof of Theorem 4.
    pub fn alpha(&self) -> &Bag<Item> {
        &self.present
    }
}

impl fmt::Display for Mpq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨present: {}, absent: {}⟩", self.present, self.absent)
    }
}

/// The multi-priority queue automaton (Figure 3-3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MpqAutomaton;

impl MpqAutomaton {
    /// Creates the automaton.
    pub fn new() -> Self {
        MpqAutomaton
    }
}

impl ObjectAutomaton for MpqAutomaton {
    type State = Mpq;
    type Op = QueueOp;

    fn initial_state(&self) -> Mpq {
        Mpq::new()
    }

    fn step(&self, s: &Mpq, op: &QueueOp) -> Vec<Mpq> {
        crate::step_copy(self, s, op)
    }

    /// `Deq(e)` has at most one successor: the two branches of Figure
    /// 3-3 never both apply, since an absent item re-returned must beat
    /// the best present one and a transfer takes exactly that one.
    fn step_in_place(&self, s: &mut Mpq, op: &QueueOp) -> Option<bool> {
        match op {
            QueueOp::Enq(e) => s.present.ins(*e),
            // Transfer the best present item to absent.
            QueueOp::Deq(e) if s.present.best() == Some(e) => {
                s.present.del(e);
                s.absent.ins(*e);
            }
            // Re-return an absent item that beats everything present;
            // the state is unchanged.
            QueueOp::Deq(e)
                if s.absent.contains(e) && s.present.best().is_none_or(|best| e > best) => {}
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
    use crate::pqueue::PQueueAutomaton;

    #[test]
    fn behaves_like_pq_without_duplication() {
        let a = MpqAutomaton::new();
        let h = History::from(vec![
            QueueOp::Enq(2),
            QueueOp::Enq(9),
            QueueOp::Deq(9),
            QueueOp::Deq(2),
        ]);
        assert!(a.accepts(&h));
    }

    #[test]
    fn allows_duplicate_service() {
        // Deq(9) twice: the second is a re-return from absent (9 beats the
        // remaining present item 2).
        let a = MpqAutomaton::new();
        let h = History::from(vec![
            QueueOp::Enq(2),
            QueueOp::Enq(9),
            QueueOp::Deq(9),
            QueueOp::Deq(9),
            QueueOp::Deq(2),
        ]);
        assert!(a.accepts(&h));
    }

    #[test]
    fn never_passes_over_higher_priority() {
        // 9 is present and unserviced; returning 2 first is forbidden.
        let a = MpqAutomaton::new();
        let h = History::from(vec![QueueOp::Enq(2), QueueOp::Enq(9), QueueOp::Deq(2)]);
        assert!(!a.accepts(&h));
    }

    #[test]
    fn absent_item_below_present_best_not_returnable() {
        // Serve 9, enqueue 10; 9 is absent but 10 (present) beats it.
        let a = MpqAutomaton::new();
        let h = History::from(vec![
            QueueOp::Enq(9),
            QueueOp::Deq(9),
            QueueOp::Enq(10),
            QueueOp::Deq(9),
        ]);
        assert!(!a.accepts(&h));
    }

    #[test]
    fn pq_language_included_in_mpq() {
        // L(PQ) ⊆ L(MPQ): the preferred behavior sits above in the
        // lattice.
        let alphabet = queue_alphabet(&[1, 2, 3]);
        assert!(included_upto(&PQueueAutomaton::new(), &MpqAutomaton::new(), &alphabet, 6).is_ok());
    }

    #[test]
    fn mpq_strictly_larger_than_pq() {
        let a = MpqAutomaton::new();
        let dup = History::from(vec![QueueOp::Enq(1), QueueOp::Deq(1), QueueOp::Deq(1)]);
        assert!(a.accepts(&dup));
        assert!(!PQueueAutomaton::new().accepts(&dup));
    }

    proptest! {
        /// MPQ accepts every priority-queue drain (descending order).
        #[test]
        fn accepts_pq_drains(items in proptest::collection::vec(-20i64..20, 1..8)) {
            let a = MpqAutomaton::new();
            let mut h: History<QueueOp> = items.iter().map(|&e| QueueOp::Enq(e)).collect();
            let mut sorted = items.clone();
            sorted.sort_unstable_by(|x, y| y.cmp(x));
            for &e in &sorted {
                h.push(QueueOp::Deq(e));
            }
            prop_assert!(a.accepts(&h));
        }

        /// Re-returning the best item arbitrarily many times is accepted.
        #[test]
        fn best_rereturn_accepted(e in 0i64..10, repeats in 1usize..5) {
            let a = MpqAutomaton::new();
            let mut h = History::from(vec![QueueOp::Enq(e), QueueOp::Deq(e)]);
            for _ in 0..repeats {
                h.push(QueueOp::Deq(e));
            }
            prop_assert!(a.accepts(&h));
        }
    }
}
