//! §3.3's probabilistic claim: `P(miss top n) = (0.1)^n`.

use relax_core::prob::{top_n_miss_analytic, top_n_miss_monte_carlo};

use crate::args::Args;
use crate::table::Table;

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct TopNRow {
    /// The `n` of "top n".
    pub n: u32,
    /// Analytic probability `(1-p)^n`.
    pub analytic: f64,
    /// Monte Carlo estimate.
    pub simulated: f64,
}

/// Runs the sweep at the paper's `p = 0.9` for `n = 1..=max_n`.
pub fn run(max_n: u32, trials: u32, seed: u64) -> Vec<TopNRow> {
    (1..=max_n)
        .map(|n| TopNRow {
            n,
            analytic: top_n_miss_analytic(0.9, n),
            simulated: top_n_miss_monte_carlo(0.9, n, max_n.max(10), trials, seed + u64::from(n)),
        })
        .collect()
}

/// Renders the rows.
pub fn render(rows: &[TopNRow]) -> Table {
    let mut t = Table::new(["n", "analytic (0.1)^n", "monte carlo", "rel. err"]);
    for r in rows {
        let rel = if r.analytic > 0.0 {
            (r.simulated - r.analytic).abs() / r.analytic
        } else {
            0.0
        };
        t.row([
            r.n.to_string(),
            format!("{:.6}", r.analytic),
            format!("{:.6}", r.simulated),
            format!("{:.1}%", rel * 100.0),
        ]);
    }
    t
}

/// `relax-bench prob_topn`: analytic vs Monte Carlo for n ≤ 4.
pub fn main(_: &Args) -> Result<(), String> {
    println!("== §3.3: P(Deq fails to return an item within the top n) ==");
    println!("model: each pending request visible with independent p = 0.9;");
    println!("Deq returns the best visible request.\n");
    let rows = run(4, 400_000, 2026);
    println!("{}", render(&rows));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_analytic_within_noise() {
        let rows = run(3, 300_000, 7);
        for r in &rows {
            assert!(
                (r.simulated - r.analytic).abs() < r.analytic * 0.25 + 0.0005,
                "n={}: {} vs {}",
                r.n,
                r.simulated,
                r.analytic
            );
        }
        assert!((rows[0].analytic - 0.1).abs() < 1e-12);
        assert!((rows[2].analytic - 0.001).abs() < 1e-12);
    }

    #[test]
    fn renders_all_rows() {
        let rows = run(2, 10_000, 1);
        assert_eq!(render(&rows).len(), 2);
    }
}
