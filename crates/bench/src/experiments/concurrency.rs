//! Figure 5-1's "Concurrency" cost, made measurable (§4.2).
//!
//! The print spooler under the three strategies, sweeping the number of
//! concurrent printer controllers `d`. The shape the paper predicts:
//!
//! * blocking FIFO throughput stays flat (dequeuers serialize);
//! * optimistic throughput scales with `d`, out-of-order distance
//!   bounded by the concurrency (`Semiqueue_k` with `k = d`);
//! * pessimistic keeps FIFO order but pays in duplicate prints
//!   (`Stuttering_j` with `j = d`).

use relax_atomic::{DequeueStrategy, Spooler, SpoolerConfig};

use crate::args::Args;
use crate::table::Table;

/// One sweep row: a strategy at a concurrency level, averaged over
/// seeds.
#[derive(Debug, Clone)]
pub struct ConcurrencyRow {
    /// Strategy.
    pub strategy: DequeueStrategy,
    /// Number of printers `d`.
    pub printers: usize,
    /// Mean committed prints per round.
    pub throughput: f64,
    /// Mean duplicate prints per run.
    pub duplicates: f64,
    /// Max queue position at dequeue time across runs (the paper's §5
    /// bound: stays below the concurrency).
    pub max_deq_position: usize,
    /// Max concurrent dequeuers observed (the `C_k` state).
    pub max_concurrent: usize,
}

/// Runs the sweep.
pub fn sweep(
    printer_counts: &[usize],
    jobs: usize,
    abort_probability: f64,
    seeds: u32,
) -> Vec<ConcurrencyRow> {
    let mut rows = Vec::new();
    for &strategy in &[
        DequeueStrategy::BlockingFifo,
        DequeueStrategy::Optimistic,
        DequeueStrategy::Pessimistic,
    ] {
        for &printers in printer_counts {
            let mut throughput = 0.0;
            let mut duplicates = 0.0;
            let mut max_deq_position = 0;
            let mut max_concurrent = 0;
            for seed in 0..seeds {
                let report = Spooler::new(SpoolerConfig {
                    strategy,
                    printers,
                    jobs,
                    print_time: 4,
                    abort_probability,
                    seed: u64::from(seed) * 31 + printers as u64,
                })
                .run();
                throughput += report.throughput;
                duplicates += report.duplicates as f64;
                max_deq_position = max_deq_position.max(report.max_deq_position);
                max_concurrent = max_concurrent.max(report.max_concurrent_dequeuers);
            }
            rows.push(ConcurrencyRow {
                strategy,
                printers,
                throughput: throughput / f64::from(seeds),
                duplicates: duplicates / f64::from(seeds),
                max_deq_position,
                max_concurrent,
            });
        }
    }
    rows
}

/// Renders the sweep.
pub fn render(rows: &[ConcurrencyRow]) -> Table {
    let mut t = Table::new([
        "strategy",
        "printers d",
        "throughput (prints/round)",
        "dup prints (mean)",
        "max deq position",
        "max concurrent Deq",
    ]);
    for r in rows {
        t.row([
            format!("{:?}", r.strategy),
            r.printers.to_string(),
            format!("{:.3}", r.throughput),
            format!("{:.2}", r.duplicates),
            r.max_deq_position.to_string(),
            r.max_concurrent.to_string(),
        ]);
    }
    t
}

/// `relax-bench concurrency`: the three strategies at 1–8 printers,
/// without and with aborts.
pub fn main(_: &Args) -> Result<(), String> {
    println!("== Print spooler: throughput & degradation vs concurrency ==\n");
    println!("24 jobs, print time ≤ 4 rounds, no aborts, 8 seeds:");
    let rows = sweep(&[1, 2, 4, 8], 24, 0.0, 8);
    println!("{}", render(&rows));

    println!("with 20% aborts:");
    let rows = sweep(&[4], 24, 0.2, 8);
    println!("{}", render(&rows));

    println!("shape: BlockingFifo is flat; Optimistic scales with d at bounded");
    println!("displacement (< d, Semiqueue_d); Pessimistic keeps FIFO order but");
    println!("pays in duplicate prints (Stuttering_d).");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_for(strategy: DequeueStrategy, rows: &[ConcurrencyRow]) -> Vec<&ConcurrencyRow> {
        rows.iter().filter(|r| r.strategy == strategy).collect()
    }

    #[test]
    fn shapes_match_the_paper() {
        let rows = sweep(&[1, 4], 24, 0.0, 4);

        let blocking = rows_for(DequeueStrategy::BlockingFifo, &rows);
        let optimistic = rows_for(DequeueStrategy::Optimistic, &rows);
        let pessimistic = rows_for(DequeueStrategy::Pessimistic, &rows);

        // Optimistic scales with d; blocking does not (ratio d=4 / d=1).
        let opt_gain = optimistic[1].throughput / optimistic[0].throughput;
        let blk_gain = blocking[1].throughput / blocking[0].throughput;
        assert!(
            opt_gain > 2.0,
            "optimistic should scale, gain {opt_gain:.2}"
        );
        assert!(
            blk_gain < 1.5,
            "blocking should not scale, gain {blk_gain:.2}"
        );

        // Degradation bounds: optimistic disorder < d, no duplicates;
        // pessimistic in order, duplicates appear.
        assert!(optimistic[1].max_deq_position < 4);
        assert_eq!(optimistic[1].duplicates, 0.0);
        assert_eq!(pessimistic[1].max_deq_position, 0);
        assert!(pessimistic[1].duplicates > 0.0);

        // Blocking at any d is FIFO: no anomalies.
        for r in &blocking {
            assert_eq!(r.duplicates, 0.0);
            assert_eq!(r.max_deq_position, 0);
        }
    }

    #[test]
    fn render_has_all_rows() {
        let rows = sweep(&[1, 2], 10, 0.0, 2);
        assert_eq!(render(&rows).len(), 6);
    }
}
