//! The lattice diagrams: §3.3's constraint lattice and Figure 4-2.

use relax_automata::{check_reverse_inclusion_lattice, RelaxationMap};
use relax_core::lattices::semiqueue::{SemiqueueLattice, SsQueueLattice};
use relax_core::lattices::taxi::{TaxiLattice, TaxiPoint};
use relax_queues::queue_alphabet;

use crate::args::Args;
use crate::table::Table;

/// The §3.3 taxi lattice as a table: constraint set → behavior →
/// tolerated anomalies, plus the bounded homomorphism check verdict.
pub fn taxi_lattice_table(max_len: usize) -> (Table, bool) {
    let lattice = TaxiLattice::new();
    let mut t = Table::new(["constraints", "behavior", "tolerated anomalies"]);
    for point in TaxiPoint::all() {
        let c = lattice.constraints(point);
        t.row([
            lattice.universe().render(c),
            point.behavior_name().to_string(),
            point.anomalies().to_string(),
        ]);
    }
    let check = check_reverse_inclusion_lattice(&lattice, &queue_alphabet(&[1, 2]), max_len);
    (t, check.is_ok())
}

/// Figure 4-2: the relaxation lattice for an `n`-item semiqueue, plus the
/// bounded homomorphism check verdict.
pub fn figure_4_2(n: usize, max_len: usize) -> (Table, bool) {
    let lattice = SemiqueueLattice::new(n);
    let mut t = Table::new(["Constraints", "Behavior"]);
    for (sets, behavior) in lattice.figure_4_2_table() {
        t.row([sets.join(", "), behavior]);
    }
    let check = check_reverse_inclusion_lattice(&lattice, &queue_alphabet(&[1, 2]), max_len);
    (t, check.is_ok())
}

/// §4.2.2's combined lattice: the `SSqueue_{j,k}` points, plus the
/// bounded homomorphism check verdict.
pub fn ssqueue_lattice_table(m: usize, n: usize, max_len: usize) -> (Table, bool) {
    let lattice = SsQueueLattice::new(m, n);
    let mut t = Table::new(["(j, k)", "behavior"]);
    for j in 1..=m {
        for k in 1..=n {
            let name = match (j, k) {
                (1, 1) => "SSqueue_{1,1} (FIFO queue)".to_string(),
                (1, k) => format!("SSqueue_{{1,{k}}} = Semiqueue_{k}"),
                (j, 1) => format!("SSqueue_{{{j},1}} = Stuttering_{j} Queue"),
                (j, k) => format!("SSqueue_{{{j},{k}}}"),
            };
            t.row([format!("({j}, {k})"), name]);
        }
    }
    let check = check_reverse_inclusion_lattice(&lattice, &queue_alphabet(&[1, 2]), max_len);
    (t, check.is_ok())
}

/// `relax-bench lattices`: the three lattice tables with their bounded
/// homomorphism verdicts.
pub fn main(_: &Args) -> Result<(), String> {
    let verdict = |ok: bool| if ok { "PASS" } else { "FAIL" };
    println!("== §3.3 constraint lattice: replicated taxi priority queue ==\n");
    let (taxi, taxi_ok) = taxi_lattice_table(6);
    println!("{taxi}");
    println!(
        "relaxation-lattice check (monotone + join/meet, histories ≤ 6): {}\n",
        verdict(taxi_ok)
    );

    println!("== Figure 4-2: relaxation lattice for a three-item semiqueue ==\n");
    let (fig, fig_ok) = figure_4_2(3, 6);
    println!("{fig}");
    println!(
        "relaxation-lattice check (φ = min-index homomorphism): {}\n",
        verdict(fig_ok)
    );

    println!("== §4.2.2: the combined SSqueue lattice ==\n");
    // The combined map only preserves joins up to length 4: from length 5
    // on, L(Stuttering_2) ∩ L(Semiqueue_2) strictly contains L(SSqueue_{2,2})
    // (witness below), so the check is recorded at its verified bound and
    // the deeper finding is reported explicitly.
    let (ss, ss_ok) = ssqueue_lattice_table(2, 2, 4);
    println!("{ss}");
    println!(
        "relaxation-lattice check (two-chain homomorphism, histories ≤ 4): {}",
        verdict(ss_ok)
    );
    let (_, ss_deep_ok) = ssqueue_lattice_table(2, 2, 5);
    println!(
        "deeper check (histories ≤ 5): {} — join preservation genuinely fails; \
         e.g. Enq(1)·Enq(2)·Enq(1)·Deq(1)·Deq(1) is accepted by Stuttering_2 \
         and Semiqueue_2, but φ maps their join (the full constraint set) to \
         SSqueue_{{1,1}} = FIFO, which rejects it",
        if ss_deep_ok {
            "PASS"
        } else {
            "FAIL (expected)"
        }
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxi_table_has_four_points_and_passes() {
        let (t, ok) = taxi_lattice_table(4);
        assert_eq!(t.len(), 4);
        assert!(ok);
    }

    #[test]
    fn ssqueue_table_renders_and_passes() {
        let (t, ok) = ssqueue_lattice_table(2, 2, 4);
        assert_eq!(t.len(), 4);
        assert!(ok);
        assert!(t.to_string().contains("FIFO queue"));
    }

    #[test]
    fn ssqueue_join_preservation_genuinely_fails_from_length_5() {
        // Found once the subset-graph engine made bound 5 affordable:
        // Enq(1)·Enq(2)·Enq(1)·Deq(1)·Deq(1) is accepted by Stuttering_2 and
        // Semiqueue_2 separately, but φ maps their join (the full constraint
        // set) to SSqueue_{1,1} = FIFO, which rejects it — so the two-chain
        // map preserves joins only up to length 4. Confirmed against the
        // naive enumerators, so this pins a property of the lattice, not of
        // the engine.
        let (_, ok4) = ssqueue_lattice_table(2, 2, 4);
        assert!(ok4);
        let (_, ok5) = ssqueue_lattice_table(2, 2, 5);
        assert!(!ok5);
    }

    #[test]
    fn figure_4_2_matches_paper() {
        let (t, ok) = figure_4_2(3, 4);
        assert_eq!(t.len(), 3);
        assert!(ok);
        let text = t.to_string();
        assert!(text.contains("Semiqueue_1 (FIFO queue)"));
        assert!(text.contains("Semiqueue_3 (bag)"));
    }
}
