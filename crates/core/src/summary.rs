//! Figure 5-1, regenerated: the paper's summary chart.
//!
//! | Correctness condition | Preferred Behavior | Constraints | Cost | Events |
//! |---|---|---|---|---|
//! | One-copy serializability | Priority Queue | Quorum intersection | Availability | Failures, crashes |
//! | One-copy serializability | Account | Quorum intersection | Latency | Premature Debits |
//! | Atomicity | FIFO Queue | Concurrent Deq's | Concurrency | Deq, commit, abort |
//!
//! The rows are assembled from the three registered lattices rather than
//! hard-coded strings-of-strings, so the chart stays consistent with the
//! code (constraint names come from each lattice's universe).

use relax_automata::RelaxationMap;

use crate::cost::CostDimension;
use crate::lattices::account::AccountLattice;
use crate::lattices::semiqueue::SemiqueueLattice;
use crate::lattices::taxi::TaxiLattice;

/// One row of the summary chart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryRow {
    /// The domain's correctness condition.
    pub correctness: &'static str,
    /// The preferred behavior at the lattice top.
    pub preferred: &'static str,
    /// The kind of constraints parameterizing the lattice.
    pub constraints: &'static str,
    /// The constraint names from the lattice's universe.
    pub constraint_names: Vec<String>,
    /// The cost dimension of moving up the lattice.
    pub cost: CostDimension,
    /// The environment events that move the constraint state.
    pub events: &'static str,
}

/// Builds the three rows of Figure 5-1 from the registered lattices.
pub fn summary_chart() -> Vec<SummaryRow> {
    let taxi = TaxiLattice::new();
    let account = AccountLattice::new();
    let spooler = SemiqueueLattice::new(3);

    let names = |u: &relax_automata::ConstraintUniverse| -> Vec<String> {
        u.ids().map(|id| u.name(id).to_string()).collect()
    };

    vec![
        SummaryRow {
            correctness: "One-copy serializability",
            preferred: "Priority Queue",
            constraints: "Quorum intersection",
            constraint_names: names(taxi.universe()),
            cost: CostDimension::Availability,
            events: "Failures, crashes",
        },
        SummaryRow {
            correctness: "One-copy serializability",
            preferred: "Account",
            constraints: "Quorum intersection",
            constraint_names: names(account.universe()),
            cost: CostDimension::Latency,
            events: "Premature Debits",
        },
        SummaryRow {
            correctness: "Atomicity",
            preferred: "FIFO Queue",
            constraints: "Concurrent Deq's",
            constraint_names: names(spooler.universe()),
            cost: CostDimension::Concurrency,
            events: "Deq, commit, abort",
        },
    ]
}

/// Renders the chart as an aligned text table (the form printed by
/// `relax-bench summary`).
pub fn render_chart(rows: &[SummaryRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:<18} {:<21} {:<13} {}\n",
        "Correctness condition", "Preferred Behavior", "Constraints", "Cost", "Events"
    ));
    out.push_str(&"-".repeat(100));
    out.push('\n');
    for row in rows {
        out.push_str(&format!(
            "{:<26} {:<18} {:<21} {:<13} {}\n",
            row.correctness,
            row.preferred,
            format!("{} {:?}", row.constraints, row.constraint_names),
            row.cost.to_string(),
            row.events
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_matches_figure_5_1() {
        let rows = summary_chart();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].preferred, "Priority Queue");
        assert_eq!(rows[0].cost, CostDimension::Availability);
        assert_eq!(rows[0].constraint_names, vec!["Q1", "Q2"]);
        assert_eq!(rows[1].preferred, "Account");
        assert_eq!(rows[1].constraint_names, vec!["A1", "A2"]);
        assert_eq!(rows[1].events, "Premature Debits");
        assert_eq!(rows[2].correctness, "Atomicity");
        assert_eq!(rows[2].cost, CostDimension::Concurrency);
        assert_eq!(rows[2].constraint_names, vec!["C1", "C2", "C3"]);
    }

    #[test]
    fn render_includes_all_rows() {
        let text = render_chart(&summary_chart());
        assert!(text.contains("Priority Queue"));
        assert!(text.contains("Premature Debits"));
        assert!(text.contains("Concurrency"));
        assert_eq!(text.lines().count(), 5);
    }
}
