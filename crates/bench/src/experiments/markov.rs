//! The probabilistic interface end-to-end (§2.3): a Markov environment
//! over the taxi lattice's constraint states.
//!
//! "Separate functional and probabilistic models can be combined without
//! compromising the expressive power of either." Here the functional
//! model is the taxi relaxation lattice; the probabilistic model is a
//! Markov chain over its four constraint states (crash/repair processes
//! independently toggling `Q1` and `Q2`). The stationary distribution
//! gives the long-run fraction of time spent in each *behavior*, and the
//! expected quality of a dequeue.

use relax_core::lattices::taxi::TaxiPoint;
use relax_core::prob::MarkovChain;

use crate::args::Args;
use crate::table::Table;

/// Builds the 4-state chain from per-step fault/repair probabilities for
/// each constraint (independent toggling). States are indexed
/// `[{Q1,Q2}, {Q1}, {Q2}, ∅]`.
pub fn taxi_environment_chain(p_fail: f64, p_repair: f64) -> MarkovChain {
    // Per-constraint 2-state chain: up→down with p_fail, down→up with
    // p_repair. The 4-state product chain is the tensor of two copies.
    let up = [1.0 - p_fail, p_fail]; // [stay up, go down]
    let down = [p_repair, 1.0 - p_repair]; // [come up, stay down]
    let step = |held: bool| if held { up } else { down };
    let states = [(true, true), (true, false), (false, true), (false, false)];
    let transition = states
        .iter()
        .map(|&(q1, q2)| {
            states
                .iter()
                .map(|&(r1, r2)| {
                    let t1 = step(q1)[usize::from(!r1)];
                    let t2 = step(q2)[usize::from(!r2)];
                    t1 * t2
                })
                .collect()
        })
        .collect();
    MarkovChain::new(transition)
}

/// One row: a lattice point with its stationary probability.
#[derive(Debug, Clone)]
pub struct MarkovRow {
    /// The constraint state.
    pub point: TaxiPoint,
    /// Long-run fraction of time in this state.
    pub stationary: f64,
}

/// Computes the stationary behavior mix.
pub fn stationary_mix(p_fail: f64, p_repair: f64) -> Vec<MarkovRow> {
    let chain = taxi_environment_chain(p_fail, p_repair);
    let pi = chain.stationary(500);
    let points = [
        TaxiPoint { q1: true, q2: true },
        TaxiPoint {
            q1: true,
            q2: false,
        },
        TaxiPoint {
            q1: false,
            q2: true,
        },
        TaxiPoint {
            q1: false,
            q2: false,
        },
    ];
    points
        .iter()
        .zip(pi)
        .map(|(&point, stationary)| MarkovRow { point, stationary })
        .collect()
}

/// Renders the mix with the behaviors' names and the headline long-run
/// metric: the probability that a random dequeue is served best-first
/// (states where `Q1` holds never serve out of order).
pub fn render(rows: &[MarkovRow]) -> (Table, f64) {
    let mut t = Table::new(["constraint state", "behavior", "long-run fraction"]);
    let mut in_order = 0.0;
    for r in rows {
        if r.point.q1 {
            in_order += r.stationary;
        }
        t.row([
            format!("Q1={} Q2={}", r.point.q1 as u8, r.point.q2 as u8),
            r.point.behavior_name().to_string(),
            format!("{:.4}", r.stationary),
        ]);
    }
    (t, in_order)
}

/// `relax-bench markov`: the long-run behavior mix at three
/// failure/repair rates.
pub fn main(_: &Args) -> Result<(), String> {
    println!("== Markov environment over the taxi lattice (§2.3) ==\n");
    for (p_fail, p_repair) in [(0.05, 0.5), (0.1, 0.5), (0.1, 0.2)] {
        println!("per-step constraint failure {p_fail}, repair {p_repair}:");
        let rows = stationary_mix(p_fail, p_repair);
        let (t, in_order) = render(&rows);
        println!("{t}");
        println!("long-run P(service is never out of order) = {in_order:.4}\n");
    }
    println!("functional behavior (the lattice) and failure statistics (the chain)");
    println!("compose without either model knowing the other's internals.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_chain_is_stochastic_and_converges() {
        let rows = stationary_mix(0.1, 0.5);
        let total: f64 = rows.iter().map(|r| r.stationary).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Per-constraint stationary up-probability is 5/6; product
        // independence gives (5/6)^2 for the top state.
        let top = rows[0].stationary;
        assert!((top - (5.0 / 6.0) * (5.0 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn more_repair_means_more_preferred_behavior() {
        let slow = stationary_mix(0.1, 0.2)[0].stationary;
        let fast = stationary_mix(0.1, 0.8)[0].stationary;
        assert!(fast > slow);
    }

    #[test]
    fn render_reports_in_order_fraction() {
        let rows = stationary_mix(0.1, 0.5);
        let (t, in_order) = render(&rows);
        assert_eq!(t.len(), 4);
        // P(Q1 holds) = 5/6 at stationarity.
        assert!((in_order - 5.0 / 6.0).abs() < 1e-9);
    }
}
