//! Ablation: uniform vs weighted voting (Gifford \[10\]) under
//! heterogeneous site reliability.
//!
//! The intersection constraints (`Q2`: majority Deq quorums) don't care
//! *whose* votes make the majority. When one site is far more reliable
//! than the rest, concentrating votes on it buys availability for free —
//! the quorum assignment is a tuning knob the relaxation lattice leaves
//! open.

use relax_quorum::relation::QueueKind;
use relax_quorum::voting::WeightedVoting;

use crate::args::Args;
use crate::table::Table;

/// One row: a vote vector with its Deq-majority availability.
#[derive(Debug, Clone)]
pub struct VotingRow {
    /// Human-readable vote layout.
    pub votes: String,
    /// The majority threshold used.
    pub threshold: u32,
    /// Smallest quorum in sites (latency proxy).
    pub min_sites: usize,
    /// Availability of a majority quorum.
    pub availability: f64,
}

/// Sweeps vote layouts over fixed per-site reliabilities.
pub fn sweep(p_up: &[f64], layouts: &[Vec<u32>]) -> Vec<VotingRow> {
    layouts
        .iter()
        .map(|votes| {
            let w = WeightedVoting::<QueueKind>::new(votes.clone());
            let majority = w.total_votes() / 2 + 1;
            VotingRow {
                votes: format!("{votes:?}"),
                threshold: majority,
                min_sites: w.min_quorum_sites(majority).unwrap_or(usize::MAX),
                availability: w.availability(majority, p_up),
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn render(p_up: &[f64], rows: &[VotingRow]) -> Table {
    let mut t = Table::new([
        "votes per site",
        "majority",
        "min quorum (sites)",
        "availability",
    ]);
    let _ = p_up;
    for r in rows {
        t.row([
            r.votes.clone(),
            r.threshold.to_string(),
            r.min_sites.to_string(),
            format!("{:.4}", r.availability),
        ]);
    }
    t
}

/// `relax-bench voting`: five vote layouts over one reliable and four
/// flaky sites.
pub fn main(_: &Args) -> Result<(), String> {
    println!("== Weighted voting ablation (Deq majority quorums, Q2) ==\n");
    let p = [0.99, 0.7, 0.7, 0.7, 0.7];
    println!("per-site up-probabilities: {p:?}");
    let rows = sweep(
        &p,
        &[
            vec![1, 1, 1, 1, 1],
            vec![2, 1, 1, 1, 1],
            vec![3, 1, 1, 1, 1],
            vec![5, 1, 1, 1, 1],
            vec![7, 1, 1, 1, 1],
        ],
    );
    println!("{}", render(&p, &rows));
    println!("the intersection constraint only fixes *vote* majorities; shifting");
    println!("votes toward the reliable site buys availability and shrinks quorums.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concentrating_votes_on_reliable_site_wins() {
        let p = [0.99, 0.7, 0.7, 0.7, 0.7];
        let rows = sweep(
            &p,
            &[
                vec![1, 1, 1, 1, 1],
                vec![3, 1, 1, 1, 1],
                vec![7, 1, 1, 1, 1],
            ],
        );
        // Availability improves as the reliable site gains votes.
        assert!(rows[1].availability > rows[0].availability);
        assert!(rows[2].availability > rows[1].availability);
        // With 7 of 11 votes, the reliable site is a majority by itself.
        assert_eq!(rows[2].min_sites, 1);
        assert!((rows[2].availability - 0.99) < 1e-9);
    }

    #[test]
    fn render_rows() {
        let p = [0.9, 0.9, 0.9];
        let rows = sweep(&p, &[vec![1, 1, 1]]);
        assert_eq!(render(&p, &rows).len(), 1);
    }
}
