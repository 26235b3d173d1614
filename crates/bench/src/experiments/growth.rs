//! Behavior-complexity growth curves: `|L_n|` per lattice point.
//!
//! The relaxation lattice orders behaviors by language inclusion; this
//! experiment quantifies *how much* behavior each relaxation admits by
//! counting accepted histories per length. The gap between curves is the
//! "size" of the anomaly space each constraint rules out — the
//! complexity cost the paper says must be weighed against the
//! constraint's availability cost (§5: "the designer must compare the
//! costs of satisfying the constraints with the complexity of the
//! unconstrained behavior").

use relax_automata::language_sizes;
use relax_core::lattices::eta_prime::TaxiLatticeEtaPrime;
use relax_core::lattices::taxi::{TaxiLattice, TaxiPoint};
use relax_queues::{queue_alphabet, Item, SemiqueueAutomaton};

use crate::args::Args;
use crate::table::Table;

/// Growth table for the taxi lattice (η and η′ side by side).
pub fn taxi_growth(items: &[Item], max_len: usize) -> Table {
    let alphabet = queue_alphabet(items);
    let eta = TaxiLattice::new();
    let eta_prime = TaxiLatticeEtaPrime::new();
    let mut header = vec!["point".to_string(), "η/η′".to_string()];
    for n in 0..=max_len {
        header.push(format!("n={n}"));
    }
    let mut t = Table::new(header);
    for point in TaxiPoint::all() {
        for (label, sizes) in [
            ("η", language_sizes(&eta.qca(point), &alphabet, max_len)),
            (
                "η′",
                language_sizes(&eta_prime.qca(point), &alphabet, max_len),
            ),
        ] {
            let mut row = vec![
                format!("Q1={} Q2={}", point.q1 as u8, point.q2 as u8),
                label.to_string(),
            ];
            row.extend(sizes.iter().map(usize::to_string));
            t.row(row);
        }
    }
    t
}

/// Growth table for the semiqueue chain `k = 1..=max_k`.
pub fn semiqueue_growth(items: &[Item], max_len: usize, max_k: usize) -> Table {
    let alphabet = queue_alphabet(items);
    let mut header = vec!["behavior".to_string()];
    for n in 0..=max_len {
        header.push(format!("n={n}"));
    }
    let mut t = Table::new(header);
    for k in 1..=max_k {
        let sizes = language_sizes(&SemiqueueAutomaton::new(k), &alphabet, max_len);
        let mut row = vec![format!("Semiqueue_{k}")];
        row.extend(sizes.iter().map(usize::to_string));
        t.row(row);
    }
    t
}

/// `relax-bench growth`: both growth tables over items {1,2}, ≤ 8 ops.
pub fn main(_: &Args) -> Result<(), String> {
    println!("== Behavior complexity: |L_n| per lattice point ==\n");
    println!("taxi lattice over items {{1,2}} (η vs η′):");
    println!("{}", taxi_growth(&[1, 2], 8));
    println!("semiqueue chain over items {{1,2}}:");
    println!("{}", semiqueue_growth(&[1, 2], 8, 4));
    println!("the gap between rows is the anomaly space each constraint rules out —");
    println!("the complexity the designer weighs against the constraint's cost (§5).");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use relax_automata::language_sizes;
    use relax_core::lattices::taxi::TaxiLattice;

    #[test]
    fn growth_is_monotone_down_the_lattice() {
        let alphabet = queue_alphabet(&[1, 2]);
        let lattice = TaxiLattice::new();
        let top = language_sizes(&lattice.qca(TaxiPoint { q1: true, q2: true }), &alphabet, 5);
        let bottom = language_sizes(
            &lattice.qca(TaxiPoint {
                q1: false,
                q2: false,
            }),
            &alphabet,
            5,
        );
        for (t, b) in top.iter().zip(&bottom) {
            assert!(t <= b);
        }
        assert!(top.iter().sum::<usize>() < bottom.iter().sum::<usize>());
    }

    #[test]
    fn semiqueue_growth_monotone_in_k() {
        let alphabet = queue_alphabet(&[1, 2]);
        let s1 = language_sizes(&SemiqueueAutomaton::new(1), &alphabet, 5);
        let s3 = language_sizes(&SemiqueueAutomaton::new(3), &alphabet, 5);
        for (a, b) in s1.iter().zip(&s3) {
            assert!(a <= b);
        }
    }

    #[test]
    fn tables_render() {
        assert_eq!(taxi_growth(&[1, 2], 3).len(), 8);
        assert_eq!(semiqueue_growth(&[1, 2], 3, 3).len(), 3);
    }
}
