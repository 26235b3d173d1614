//! Ablation: the choice of evaluation function `η` vs `η′` (§3.3).
//!
//! Declaratively, the two lattices share a top (the priority queue) and
//! diverge at relaxed points — `η′`'s languages are strictly smaller at
//! `{Q2}` (no out-of-order service) at the price of starvation.
//! Operationally, the same replicated system under the same partition
//! schedule trades *inversions* (η) against *ignored requests* (η′).

use relax_automata::language_sizes;
use relax_core::lattices::eta_prime::TaxiLatticeEtaPrime;
use relax_core::lattices::taxi::{TaxiLattice, TaxiPoint};
use relax_queues::{queue_alphabet, Item, QueueOp};
use relax_quorum::protocol::wire::Outcome;
use relax_quorum::relation::QueueKind;
use relax_quorum::types::{QueueInv, ReplicatedType, TaxiQueuePrimeType, TaxiQueueType};
use relax_quorum::{ClientConfig, QuorumSystem, VotingAssignment};
use relax_sim::{FaultSchedule, NetworkConfig, NodeId, SimTime};

use crate::args::Args;
use crate::table::Table;

/// Declarative comparison: bounded language sizes per lattice point.
pub fn language_size_table(max_len: usize) -> Table {
    let alphabet = queue_alphabet(&[1, 2]);
    let eta = TaxiLattice::new();
    let eta_prime = TaxiLatticeEtaPrime::new();
    let mut t = Table::new(["point", "|L| with η", "|L| with η′", "relation"]);
    for point in TaxiPoint::all() {
        // Counted on the subset graph — no history materialization.
        let l_eta: usize = language_sizes(&eta.qca(point), &alphabet, max_len)
            .iter()
            .sum();
        let l_prime: usize = language_sizes(&eta_prime.qca(point), &alphabet, max_len)
            .iter()
            .sum();
        let relation = match l_eta.cmp(&l_prime) {
            std::cmp::Ordering::Equal => "equal",
            std::cmp::Ordering::Greater => "η′ stricter",
            std::cmp::Ordering::Less => "η stricter",
        };
        t.row([
            format!("Q1={} Q2={}", point.q1 as u8, point.q2 as u8),
            l_eta.to_string(),
            l_prime.to_string(),
            relation.to_string(),
        ]);
    }
    t
}

/// Operational metrics from one replicated run.
#[derive(Debug, Clone, PartialEq)]
pub struct EtaRunMetrics {
    /// Distinct requests served.
    pub served: usize,
    /// Requests enqueued but never served (starved).
    pub ignored: usize,
    /// Service-order inversions among first services (pairs served in
    /// ascending-priority order).
    pub inversions: usize,
    /// Deq invocations that found an apparently empty queue.
    pub refused: usize,
}

/// Runs the same workload under the same partition for a replicated
/// type.
///
/// The scenario engineers divergent views: while the dispatcher is
/// partitioned with a single site, two *high-priority* requests land on
/// that site only. After the partition heals, dequeues read two of three
/// sites — a view that misses the high-priority requests lets a
/// lower-priority one be served first, after which `η′` discards the
/// skipped requests forever while `η` eventually serves them.
pub fn run_replicated<T>(ttype: T, seed: u64) -> EtaRunMetrics
where
    T: ReplicatedType<Inv = QueueInv, Op = QueueOp>,
{
    // Enq carries no initial quorum (its response is state-independent),
    // so low-priority enqueues do NOT ship merged views around — the
    // divergence persists until a dequeue's view spans it.
    let assignment = VotingAssignment::new(3)
        .with_initial(QueueKind::Enq, 0)
        .with_final(QueueKind::Enq, 1)
        .with_initial(QueueKind::Deq, 2)
        .with_final(QueueKind::Deq, 1);
    let mut sys = QuorumSystem::new(
        ttype,
        3,
        assignment,
        ClientConfig { timeout: 120 },
        NetworkConfig::new(1, 10, 0.0),
        seed,
    );
    // The client (node 3) is cut off with site 0 until t = 300.
    sys.world_mut().set_schedule(
        FaultSchedule::new()
            .at(
                SimTime(0),
                relax_sim::Fault::Partition(relax_sim::Partition::groups(vec![
                    vec![NodeId(3), NodeId(0)],
                    vec![NodeId(1), NodeId(2)],
                ])),
            )
            .at(SimTime(300), relax_sim::Fault::Heal),
    );

    let high: [Item; 2] = [9, 8];
    let low: [Item; 3] = [5, 2, 1];
    for p in high {
        sys.submit(QueueInv::Enq(p)); // recorded at site 0 only
    }
    sys.run_until(SimTime(350));
    for p in low {
        sys.submit(QueueInv::Enq(p)); // recorded everywhere
    }
    for _ in 0..8 {
        sys.submit(QueueInv::Deq);
    }
    sys.run_to_quiescence(1_000_000);
    let priorities: Vec<Item> = high.iter().chain(low.iter()).copied().collect();

    let mut served: Vec<Item> = Vec::new();
    let mut refused = 0usize;
    for o in sys.outcomes() {
        match o {
            Outcome::Completed {
                op: QueueOp::Deq(e),
                ..
            } if !served.contains(e) => {
                served.push(*e);
            }
            Outcome::Refused { .. } => refused += 1,
            _ => {}
        }
    }
    let inversions = served
        .iter()
        .enumerate()
        .flat_map(|(i, a)| served[i + 1..].iter().map(move |b| (a, b)))
        .filter(|(a, b)| a < b)
        .count();
    EtaRunMetrics {
        served: served.len(),
        ignored: priorities.len() - served.len(),
        inversions,
        refused,
    }
}

/// Aggregates the operational comparison over seeds.
pub fn operational_table(seeds: u64) -> Table {
    let mut t = Table::new([
        "evaluation",
        "served (mean)",
        "ignored (mean)",
        "inversions (mean)",
    ]);
    let mut add_row = |label: &str, runs: Vec<EtaRunMetrics>| {
        let n = runs.len() as f64;
        t.row([
            label.to_string(),
            format!(
                "{:.2}",
                runs.iter().map(|r| r.served).sum::<usize>() as f64 / n
            ),
            format!(
                "{:.2}",
                runs.iter().map(|r| r.ignored).sum::<usize>() as f64 / n
            ),
            format!(
                "{:.2}",
                runs.iter().map(|r| r.inversions).sum::<usize>() as f64 / n
            ),
        ]);
    };
    add_row(
        "η  (out-of-order tolerated)",
        (0..seeds)
            .map(|s| run_replicated(TaxiQueueType, s))
            .collect(),
    );
    add_row(
        "η′ (skipped requests ignored)",
        (0..seeds)
            .map(|s| run_replicated(TaxiQueuePrimeType, s))
            .collect(),
    );
    t
}

/// `relax-bench eta_ablation`: the declarative and the operational
/// table.
pub fn main(_: &Args) -> Result<(), String> {
    println!("== Ablation: evaluation function η vs η′ ==\n");
    println!("declarative: bounded language sizes per lattice point (items {{1,2}}, ≤ 4 ops):");
    println!("{}", language_size_table(4));
    println!("operational: same replicated system, same partition (30 seeds):");
    println!("{}", operational_table(30));
    println!("the design choice the paper leaves to the application, quantified:");
    println!("η tolerates out-of-order service but eventually serves everyone;");
    println!("η′ never serves out of order but may ignore skipped requests.");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn language_sizes_diverge_at_relaxed_points() {
        let t = language_size_table(4);
        let text = t.to_string();
        let lines: Vec<&str> = text.lines().collect();
        // Top row equal; Q2-only row strictly smaller under η′.
        assert!(lines[2].contains("equal"), "{}", lines[2]);
        assert!(lines[4].contains("η′ stricter"), "{}", lines[4]);
    }

    #[test]
    fn eta_prime_trades_starvation_for_order() {
        let eta: Vec<EtaRunMetrics> = (0..12).map(|s| run_replicated(TaxiQueueType, s)).collect();
        let prime: Vec<EtaRunMetrics> = (0..12)
            .map(|s| run_replicated(TaxiQueuePrimeType, s))
            .collect();
        let eta_ignored: usize = eta.iter().map(|r| r.ignored).sum();
        let prime_ignored: usize = prime.iter().map(|r| r.ignored).sum();
        // η′ starves at least as much as η, and strictly more in
        // aggregate under this partition schedule.
        assert!(
            prime_ignored > eta_ignored,
            "η′ ignored {prime_ignored} vs η {eta_ignored}"
        );
    }
}
