//! Histories: finite sequences of operation executions.
//!
//! The paper models a computation as a *history*, a finite sequence of
//! operation executions on objects (§2). `H · p` denotes appending
//! operation `p`, and `Λ` the empty history.

use std::fmt;

/// A finite sequence of operations.
///
/// `Op` is whatever operation-execution type the automaton uses — for the
/// paper's examples an `op(args*)/term(res*)` record such as
/// `Enq(5)/Ok()`.
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct History<Op> {
    ops: Vec<Op>,
}

// By hand for `clone_from`, which refills the target's buffer: the
// quorum consensus automaton writes successors into reused slots.
impl<Op: Clone> Clone for History<Op> {
    fn clone(&self) -> Self {
        History {
            ops: self.ops.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.ops.clone_from(&source.ops);
    }
}

impl<Op> History<Op> {
    /// The empty history `Λ`.
    pub fn empty() -> Self {
        History { ops: Vec::new() }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for `Λ`.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The operations, in execution order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Appends an operation in place.
    pub fn push(&mut self, op: Op) {
        self.ops.push(op);
    }

    /// Iterates over the operations in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Op> {
        self.ops.iter()
    }

    /// Consumes the history, returning its operations.
    pub fn into_ops(self) -> Vec<Op> {
        self.ops
    }
}

impl<Op: Clone> History<Op> {
    /// `H · p`: the history extended with one operation (returns a new
    /// history, leaving `self` unchanged).
    pub fn appended(&self, op: Op) -> Self {
        let mut ops = self.ops.clone();
        ops.push(op);
        History { ops }
    }

    /// `G · H`: concatenation.
    pub fn concat(&self, other: &Self) -> Self {
        let mut ops = self.ops.clone();
        ops.extend(other.ops.iter().cloned());
        History { ops }
    }

    /// The prefix of length `n` (the whole history if `n ≥ len`).
    pub fn prefix(&self, n: usize) -> Self {
        History {
            ops: self.ops[..n.min(self.ops.len())].to_vec(),
        }
    }

    /// The subhistory of operations satisfying `keep`, in order. Used for
    /// projections such as `H|P` (the operations executed by transaction
    /// `P`) and `perm(H)` (the operations of committed transactions).
    pub fn filtered(&self, mut keep: impl FnMut(&Op) -> bool) -> Self {
        History {
            ops: self.ops.iter().filter(|op| keep(op)).cloned().collect(),
        }
    }

    /// True if `self` is a (not necessarily proper) prefix of `other`.
    pub fn is_prefix_of(&self, other: &Self) -> bool
    where
        Op: PartialEq,
    {
        self.ops.len() <= other.ops.len()
            && self.ops.iter().zip(other.ops.iter()).all(|(a, b)| a == b)
    }

    /// True if `self` is a subsequence of `other` (order-preserving, not
    /// necessarily contiguous). `G` must be a subsequence of `H` to be a
    /// *view* of `H` in the quorum-consensus construction (§3.2).
    pub fn is_subsequence_of(&self, other: &Self) -> bool
    where
        Op: PartialEq,
    {
        let mut it = other.ops.iter();
        self.ops.iter().all(|a| it.any(|b| b == a))
    }
}

impl<Op> Default for History<Op> {
    fn default() -> Self {
        History::empty()
    }
}

impl<Op> From<Vec<Op>> for History<Op> {
    fn from(ops: Vec<Op>) -> Self {
        History { ops }
    }
}

impl<Op> FromIterator<Op> for History<Op> {
    fn from_iter<T: IntoIterator<Item = Op>>(iter: T) -> Self {
        History {
            ops: iter.into_iter().collect(),
        }
    }
}

impl<Op> Extend<Op> for History<Op> {
    fn extend<T: IntoIterator<Item = Op>>(&mut self, iter: T) {
        self.ops.extend(iter);
    }
}

impl<Op> IntoIterator for History<Op> {
    type Item = Op;
    type IntoIter = std::vec::IntoIter<Op>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter()
    }
}

impl<'a, Op> IntoIterator for &'a History<Op> {
    type Item = &'a Op;
    type IntoIter = std::slice::Iter<'a, Op>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

impl<Op: fmt::Display> fmt::Display for History<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.ops.is_empty() {
            return f.write_str("Λ");
        }
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                f.write_str(" · ")?;
            }
            write!(f, "{op}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_history_displays_lambda() {
        let h: History<u8> = History::empty();
        assert_eq!(h.to_string(), "Λ");
        assert!(h.is_empty());
    }

    #[test]
    fn appended_leaves_original() {
        let h = History::from(vec![1, 2]);
        let h2 = h.appended(3);
        assert_eq!(h.len(), 2);
        assert_eq!(h2.ops(), &[1, 2, 3]);
    }

    #[test]
    fn concat_and_prefix() {
        let a = History::from(vec![1, 2]);
        let b = History::from(vec![3]);
        let c = a.concat(&b);
        assert_eq!(c.ops(), &[1, 2, 3]);
        assert_eq!(c.prefix(2), a);
        assert_eq!(c.prefix(99), c);
    }

    #[test]
    fn prefix_relation() {
        let a = History::from(vec![1, 2]);
        let b = History::from(vec![1, 2, 3]);
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_prefix_of(&a));
    }

    #[test]
    fn subsequence_relation() {
        let g = History::from(vec![1, 3]);
        let h = History::from(vec![1, 2, 3]);
        assert!(g.is_subsequence_of(&h));
        let bad = History::from(vec![3, 1]);
        assert!(!bad.is_subsequence_of(&h));
    }

    #[test]
    fn filtered_projection() {
        let h = History::from(vec![1, 2, 3, 4, 5]);
        let evens = h.filtered(|x| x % 2 == 0);
        assert_eq!(evens.ops(), &[2, 4]);
    }

    #[test]
    fn display_interleaves_dots() {
        let h = History::from(vec![1, 2]);
        assert_eq!(h.to_string(), "1 · 2");
    }

    #[test]
    fn collect_and_iterate() {
        let h: History<i32> = (1..=3).collect();
        let doubled: Vec<i32> = h.iter().map(|x| x * 2).collect();
        assert_eq!(doubled, vec![2, 4, 6]);
        let back: Vec<i32> = h.into_iter().collect();
        assert_eq!(back, vec![1, 2, 3]);
    }
}
