//! The combined `SSqueue_{j,k}` automaton — §4.2.2.
//!
//! "The stuttering queue and semiqueue behaviors can be combined within a
//! single lattice: the SSqueue_{j,k} behavior would permit any of the
//! first k items to be returned as many as j times. SSqueue_{1,1} is a
//! FIFO queue."
//!
//! The state keeps a per-position return count so each of the first `k`
//! items independently enjoys its stutter allowance.

use std::fmt;

use relax_automata::ObjectAutomaton;

use crate::ops::{Item, QueueOp};

/// The SSqueue value: a sequence of `(item, returns-so-far)` pairs,
/// oldest first.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SsState {
    entries: Vec<(Item, u32)>,
}

impl SsState {
    /// The empty queue.
    pub fn new() -> Self {
        SsState::default()
    }

    /// The queued items (oldest first), ignoring counts.
    pub fn items(&self) -> impl Iterator<Item = Item> + '_ {
        self.entries.iter().map(|(e, _)| *e)
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no items are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for SsState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, (e, c)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}×{c}")?;
        }
        write!(f, "⟩")
    }
}

/// The `SSqueue_{j,k}` automaton: any of the first `k` items may be
/// returned up to `j` times (the removing return included).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsQueueAutomaton {
    j: u32,
    k: usize,
}

impl SsQueueAutomaton {
    /// Creates an `SSqueue_{j,k}`.
    ///
    /// # Panics
    ///
    /// Panics if `j == 0` or `k == 0`.
    pub fn new(j: u32, k: usize) -> Self {
        assert!(j >= 1, "stutter bound j must be positive");
        assert!(k >= 1, "prefix bound k must be positive");
        SsQueueAutomaton { j, k }
    }

    /// The stutter bound `j`.
    pub fn j(&self) -> u32 {
        self.j
    }

    /// The prefix bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl ObjectAutomaton for SsQueueAutomaton {
    type State = SsState;
    type Op = QueueOp;

    fn initial_state(&self) -> SsState {
        SsState::new()
    }

    fn step(&self, s: &SsState, op: &QueueOp) -> Vec<SsState> {
        match op {
            QueueOp::Enq(e) => {
                let mut s2 = s.clone();
                s2.entries.push((*e, 0));
                vec![s2]
            }
            QueueOp::Deq(e) => {
                let mut out: Vec<SsState> = Vec::new();
                for pos in 0..s.entries.len().min(self.k) {
                    let (item, count) = s.entries[pos];
                    if item != *e {
                        continue;
                    }
                    // Stutter this position.
                    if count + 1 < self.j {
                        let mut s2 = s.clone();
                        s2.entries[pos].1 = count + 1;
                        if !out.contains(&s2) {
                            out.push(s2);
                        }
                    }
                    // Remove this position.
                    let mut s2 = s.clone();
                    s2.entries.remove(pos);
                    if !out.contains(&s2) {
                        out.push(s2);
                    }
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_automata::{equal_upto, included_upto, History};

    use crate::fifo::FifoAutomaton;
    use crate::ops::queue_alphabet;
    use crate::semiqueue::SemiqueueAutomaton;
    use crate::stuttering::StutteringAutomaton;

    #[test]
    fn ss11_is_fifo() {
        // §4.2.2: "SSqueue_{1,1} is a FIFO queue."
        let alphabet = queue_alphabet(&[1, 2, 3]);
        assert!(equal_upto(
            &SsQueueAutomaton::new(1, 1),
            &FifoAutomaton::new(),
            &alphabet,
            6
        )
        .is_ok());
    }

    #[test]
    fn ss1k_is_semiqueue() {
        let alphabet = queue_alphabet(&[1, 2]);
        for k in 1..4 {
            assert!(
                equal_upto(
                    &SsQueueAutomaton::new(1, k),
                    &SemiqueueAutomaton::new(k),
                    &alphabet,
                    6
                )
                .is_ok(),
                "SSqueue_{{1,{k}}} should equal Semiqueue_{k}"
            );
        }
    }

    #[test]
    fn ssj1_is_stuttering() {
        let alphabet = queue_alphabet(&[1, 2]);
        for j in 1..4 {
            assert!(
                equal_upto(
                    &SsQueueAutomaton::new(j, 1),
                    &StutteringAutomaton::new(j),
                    &alphabet,
                    6
                )
                .is_ok(),
                "SSqueue_{{{j},1}} should equal Stuttering_{j}"
            );
        }
    }

    #[test]
    fn combined_duplicates_and_reorders_within_bounds() {
        let a = SsQueueAutomaton::new(2, 2);
        // [1, 2]: return 2 (position 1 < k) twice (j = 2), then 1.
        let h = History::from(vec![
            QueueOp::Enq(1),
            QueueOp::Enq(2),
            QueueOp::Deq(2),
            QueueOp::Deq(2),
            QueueOp::Deq(1),
        ]);
        assert!(a.accepts(&h));
        // A third return of 2 exceeds j.
        let h2 = History::from(vec![
            QueueOp::Enq(1),
            QueueOp::Enq(2),
            QueueOp::Deq(2),
            QueueOp::Deq(2),
            QueueOp::Deq(2),
        ]);
        assert!(!a.accepts(&h2));
    }

    #[test]
    fn monotone_in_both_parameters() {
        let alphabet = queue_alphabet(&[1, 2]);
        // Increasing j or k only grows the language.
        assert!(included_upto(
            &SsQueueAutomaton::new(1, 2),
            &SsQueueAutomaton::new(2, 2),
            &alphabet,
            5
        )
        .is_ok());
        assert!(included_upto(
            &SsQueueAutomaton::new(2, 1),
            &SsQueueAutomaton::new(2, 2),
            &alphabet,
            5
        )
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_parameters_panic() {
        SsQueueAutomaton::new(0, 1);
    }
}
