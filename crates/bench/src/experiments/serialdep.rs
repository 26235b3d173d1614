//! Definition 3 checks: `{Q1, Q2}` is a minimal serial dependency
//! relation for the priority queue, and `{A1, A2}` for the account.

use relax_automata::ObjectAutomaton;
use relax_queues::ops::account_alphabet;
use relax_queues::{queue_alphabet, AccountAutomaton, PQueueAutomaton};
use relax_quorum::relation::{account_relation, queue_relation, HasKind, IntersectionRelation};
use relax_quorum::serialdep::check_serial_dependency;

use crate::args::Args;
use crate::table::Table;

fn verdict<A>(
    automaton: &A,
    relation: &IntersectionRelation<<A::Op as HasKind>::Kind>,
    alphabet: &[A::Op],
    max_len: usize,
) -> String
where
    A: ObjectAutomaton,
    A::Op: HasKind,
{
    match check_serial_dependency(automaton, relation, alphabet, max_len) {
        Ok(()) => "serial dependency ✓".to_string(),
        Err(v) => format!("violated at H={:?} p={:?}", v.history.ops(), v.op),
    }
}

/// The priority-queue table: each subrelation of `{Q1, Q2}` checked.
pub fn queue_table(max_len: usize) -> Table {
    let alphabet = queue_alphabet(&[1, 2]);
    let a = PQueueAutomaton::new();
    let mut t = Table::new(["relation", "verdict (bounded)"]);
    for (label, q1, q2) in [
        ("{Q1, Q2}", true, true),
        ("{Q1}", true, false),
        ("{Q2}", false, true),
        ("∅", false, false),
    ] {
        t.row([
            label.to_string(),
            verdict(&a, &queue_relation(q1, q2), &alphabet, max_len),
        ]);
    }
    t
}

/// The account table: each subrelation of `{A1, A2}` checked.
pub fn account_table(max_len: usize) -> Table {
    let alphabet = account_alphabet(&[1, 2]);
    let a = AccountAutomaton::new();
    let mut t = Table::new(["relation", "verdict (bounded)"]);
    for (label, a1, a2) in [
        ("{A1, A2}", true, true),
        ("{A1}", true, false),
        ("{A2}", false, true),
        ("∅", false, false),
    ] {
        t.row([
            label.to_string(),
            verdict(&a, &account_relation(a1, a2), &alphabet, max_len),
        ]);
    }
    t
}

/// `relax-bench serialdep`: both tables at histories ≤ 4.
pub fn main(_: &Args) -> Result<(), String> {
    println!("== Serial dependency relations (Definition 3), bounded check ==\n");
    println!("priority queue over items {{1,2}}, histories ≤ 4:");
    println!("{}", queue_table(4));
    println!("bank account over amounts {{1,2}}, histories ≤ 4:");
    println!("{}", account_table(4));
    println!("{{Q1, Q2}} (resp. {{A1, A2}}) passes; every proper subrelation fails —");
    println!("the premise of the relaxation lattices of §3.3 and §3.4.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_full_relation_passes_subrelations_fail() {
        let t = queue_table(4);
        let text = t.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[2].contains('✓'), "{}", lines[2]);
        for line in &lines[3..6] {
            assert!(line.contains("violated"), "{line}");
        }
    }

    #[test]
    fn account_full_relation_passes() {
        let t = account_table(4);
        let text = t.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[2].contains('✓'), "{}", lines[2]);
        // Dropping A2 admits double spends: violated.
        assert!(lines[3].contains("violated"), "{}", lines[3]);
    }
}
