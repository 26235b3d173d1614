//! Figure 5-1's "Latency" cost, made measurable (§3.4).
//!
//! "The larger an operation's quorums, the longer it takes to execute
//! that operation. Rather than forcing customers to wait for all the
//! updates to complete, the bank's ATMs might … announce success as soon
//! as any update is complete." This experiment measures ATM-perceived
//! credit latency as the final Credit quorum grows from 1 (asynchronous
//! propagation, `A1` relaxed) to `n` (fully synchronous), against the
//! analytic order-statistic prediction.

use relax_core::cost::expected_latency;
use relax_quorum::protocol::wire::Outcome;
use relax_quorum::relation::AccountKind;
use relax_quorum::types::{AccountInv, BankAccountType};
use relax_quorum::{ClientConfig, QuorumSystem, VotingAssignment};
use relax_sim::NetworkConfig;

use crate::args::Args;
use crate::table::Table;

/// One latency row.
#[derive(Debug, Clone)]
pub struct LatencyRow {
    /// Final Credit quorum size.
    pub final_quorum: usize,
    /// Mean measured credit latency (ticks).
    pub measured_mean: f64,
    /// Analytic expectation (read phase + write phase, order
    /// statistics of uniform delays).
    pub analytic: f64,
}

/// Sweeps the final Credit quorum size over `1..=n`.
pub fn sweep(n: usize, trials: u32, seed: u64) -> Vec<LatencyRow> {
    let (min_d, max_d) = (1u64, 20u64);
    (1..=n)
        .map(|fq| {
            let maj = n / 2 + 1;
            let assignment = VotingAssignment::new(n)
                .with_initial(AccountKind::Credit, 1)
                .with_final(AccountKind::Credit, fq)
                .with_initial(AccountKind::Debit, maj)
                .with_final(AccountKind::Debit, maj);
            let mut total = 0u64;
            let mut count = 0u32;
            for trial in 0..trials {
                let mut sys = QuorumSystem::new(
                    BankAccountType,
                    n,
                    assignment.clone(),
                    ClientConfig { timeout: 2_000 },
                    NetworkConfig::new(min_d, max_d, 0.0),
                    seed.wrapping_add(u64::from(trial).wrapping_mul(6_364_136_223_846_793_005)),
                );
                sys.submit(AccountInv::Credit(1));
                sys.run_to_quiescence(100_000);
                if let Some(Outcome::Completed { latency, .. }) = sys.outcomes().first() {
                    total += latency;
                    count += 1;
                }
            }
            // Analytic: one round trip to the fastest replica (read
            // quorum 1) plus a write phase waiting for the fq-th ack.
            // Each phase is request+response, so two uniform delays per
            // hop; approximate with 2× the order statistic per phase.
            let read = 2.0 * expected_latency(n, 1, min_d as f64, max_d as f64);
            let write = 2.0 * expected_latency(n, fq, min_d as f64, max_d as f64);
            LatencyRow {
                final_quorum: fq,
                measured_mean: if count > 0 {
                    total as f64 / f64::from(count)
                } else {
                    f64::NAN
                },
                analytic: read + write,
            }
        })
        .collect()
}

/// Renders the sweep.
pub fn render(rows: &[LatencyRow]) -> Table {
    let mut t = Table::new([
        "Credit final quorum",
        "measured mean latency",
        "analytic (order stat)",
    ]);
    for r in rows {
        t.row([
            r.final_quorum.to_string(),
            format!("{:.1}", r.measured_mean),
            format!("{:.1}", r.analytic),
        ]);
    }
    t
}

/// `relax-bench latency`: the sweep at n = 5 replicas, 200 trials.
pub fn main(_: &Args) -> Result<(), String> {
    println!("== Latency vs Credit final quorum size (account, n = 5 replicas) ==\n");
    let rows = sweep(5, 200, 0x1A7E);
    println!("{}", render(&rows));
    println!("final quorum 1 = announce after first ack (background propagation,");
    println!("A1 relaxed); final quorum n = fully synchronous (A1 held).");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_with_final_quorum() {
        let rows = sweep(5, 30, 99);
        assert!(rows.first().unwrap().measured_mean < rows.last().unwrap().measured_mean);
        // Monotone analytic curve.
        for w in rows.windows(2) {
            assert!(w[0].analytic < w[1].analytic);
        }
    }

    #[test]
    fn measured_roughly_matches_analytic() {
        let rows = sweep(3, 60, 3);
        for r in &rows {
            let rel = (r.measured_mean - r.analytic).abs() / r.analytic;
            assert!(
                rel < 0.35,
                "fq={}: measured {} vs analytic {}",
                r.final_quorum,
                r.measured_mean,
                r.analytic
            );
        }
    }

    #[test]
    fn render_rows() {
        let rows = sweep(3, 5, 1);
        assert_eq!(render(&rows).len(), 3);
    }
}
