//! Correctness checks, run outside every timed call. Each takes a plain
//! view of what the program published (outcomes, replica logs, merged
//! history, language sizes), so the unit tests below can hand it a
//! corrupted copy and see it rejected: a fast-but-wrong change must not
//! pass the benchmark.

use std::collections::BTreeSet;

use relax_automata::History;
use relax_queues::QueueOp;
use relax_quorum::runtime::{Outcome, ReplicatedType};
use relax_quorum::{outcome_shapes, Executor, Log};

/// What one finished executor run published, borrowed from the executor.
pub struct Observed<'a, Op> {
    /// Invocations submitted to each client.
    pub submitted: &'a [usize],
    /// Each client's outcome table.
    pub outcomes: Vec<&'a [Outcome<Op>]>,
    /// Each replica's resident log.
    pub replica_logs: Vec<&'a Log<Op>>,
    /// The executor's own `merged_history()`.
    pub merged: History<Op>,
}

/// Reads the public observables of `sys`.
pub fn observe<'a, T, E>(sys: &'a E, submitted: &'a [usize]) -> Observed<'a, T::Op>
where
    T: ReplicatedType,
    E: Executor<T>,
{
    Observed {
        submitted,
        outcomes: (0..sys.n_clients()).map(|c| sys.outcomes_of(c)).collect(),
        replica_logs: (0..sys.n_replicas()).map(|r| sys.replica_log(r)).collect(),
        merged: sys.merged_history(),
    }
}

/// The result of checking one run: how many submitted operations count
/// as failed, and the first violated property, if any.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// `TimedOut` outcomes plus operations left without an outcome.
    /// `Refused` is a specification-level response, not a failure.
    pub failed: u64,
    /// Operations that completed.
    pub completed: u64,
    /// Operations refused.
    pub refused: u64,
    /// The first violated property.
    pub error: Option<String>,
}

/// Checks one run: every submitted operation has an outcome, the merged
/// history holds exactly the completed operations, and every replica log
/// is contained in it.
pub fn check_run<Op: Clone + Ord + std::fmt::Debug>(obs: &Observed<'_, Op>) -> Verdict {
    let mut v = Verdict::default();
    let mut completed: Vec<&Op> = Vec::new();
    for (c, (&want, got)) in obs.submitted.iter().zip(&obs.outcomes).enumerate() {
        if got.len() != want {
            v.failed += want.saturating_sub(got.len()) as u64;
            v.error.get_or_insert_with(|| {
                format!("client {c}: {} outcomes for {want} ops", got.len())
            });
        }
        for o in got.iter() {
            match o {
                Outcome::Completed { op, .. } => completed.push(op),
                Outcome::Refused { .. } => v.refused += 1,
                Outcome::TimedOut => v.failed += 1,
            }
        }
    }
    v.completed = completed.len() as u64;
    if obs.submitted.len() != obs.outcomes.len() {
        v.error
            .get_or_insert_with(|| "client count differs from the submitted table".to_string());
    }

    let mut merged: Vec<&Op> = obs.merged.iter().collect();
    completed.sort_unstable();
    merged.sort_unstable();
    if completed != merged {
        v.error.get_or_insert_with(|| {
            format!(
                "merged history ({} ops) is not exactly the completed ops ({})",
                merged.len(),
                completed.len()
            )
        });
    }
    for (r, log) in obs.replica_logs.iter().enumerate() {
        if !log.to_history().is_subsequence_of(&obs.merged) {
            v.error
                .get_or_insert_with(|| format!("replica {r} log is not contained in the history"));
        }
    }
    v
}

/// The differential oracle: the same one-client stream through the sim
/// and the threaded backend must agree exactly on outcome shapes,
/// replica logs and merged history.
pub fn check_same_run<Op: Clone + PartialEq + std::fmt::Debug>(
    sim: &Observed<'_, Op>,
    threaded: &Observed<'_, Op>,
) -> Result<(), String> {
    if sim.outcomes.len() != threaded.outcomes.len() {
        return Err("backends host different client counts".to_string());
    }
    for (c, (a, b)) in sim.outcomes.iter().zip(&threaded.outcomes).enumerate() {
        if outcome_shapes(a) != outcome_shapes(b) {
            return Err(format!(
                "client {c}: outcome shapes differ between backends"
            ));
        }
    }
    if sim.replica_logs.len() != threaded.replica_logs.len() {
        return Err("backends host different replica counts".to_string());
    }
    for (r, (a, b)) in sim
        .replica_logs
        .iter()
        .zip(&threaded.replica_logs)
        .enumerate()
    {
        if a.entries() != b.entries() {
            return Err(format!("replica {r}: logs differ between backends"));
        }
    }
    if sim.merged != threaded.merged {
        return Err("merged histories differ between backends".to_string());
    }
    Ok(())
}

/// Taxi-queue invariant on a history: every dequeued request was
/// enqueued, and none was dequeued twice.
pub fn check_taxi_history(ops: &[QueueOp]) -> Result<(), String> {
    let mut enqueued = BTreeSet::new();
    let mut dequeued = BTreeSet::new();
    for op in ops {
        if let QueueOp::Enq(e) = op {
            enqueued.insert(*e);
        }
    }
    for op in ops {
        if let QueueOp::Deq(e) = op {
            if !enqueued.contains(e) {
                return Err(format!("request {e} dequeued but never enqueued"));
            }
            if !dequeued.insert(*e) {
                return Err(format!("request {e} dequeued twice"));
            }
        }
    }
    Ok(())
}

/// Lattice verification: every point holds and the per-point language
/// sizes equal the pinned table.
pub fn check_lattice(holds: bool, sizes: &[usize], pinned: &[usize]) -> Result<(), String> {
    if !holds {
        return Err("a lattice point failed to verify".to_string());
    }
    if sizes != pinned {
        return Err(format!(
            "|L| per point {sizes:?} differs from the pinned {pinned:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::{Account, Family, Taxi};
    use relax_quorum::{Entry, ThreadedConfig, ThreadedSystem, Timestamp};

    fn small_run<F: Family>() -> (ThreadedSystem<F::T>, Vec<usize>) {
        let mut sys = ThreadedSystem::new(
            F::TTYPE,
            3,
            2,
            F::assignment(),
            ThreadedConfig {
                shards: 1,
                batch: 2,
                flush_micros: 20,
            },
        );
        let mut rng = relax_automata::SplitMix64::seed_from_u64(5);
        for c in 0..2 {
            for i in 0..16 {
                sys.submit_to(c, F::inv(&mut rng, c, i, 4));
            }
        }
        sys.run_all();
        (sys, vec![16, 16])
    }

    #[test]
    fn a_clean_run_passes() {
        let (sys, submitted) = small_run::<Account>();
        let v = check_run(&observe(&sys, &submitted));
        assert_eq!(v.error, None);
        assert_eq!((v.failed, v.completed, v.refused), (0, 32, 0));
    }

    #[test]
    fn a_dropped_outcome_is_rejected_and_counted() {
        let (sys, submitted) = small_run::<Account>();
        let mut obs = observe(&sys, &submitted);
        obs.outcomes[1] = &obs.outcomes[1][..15];
        let v = check_run(&obs);
        assert_eq!(v.failed, 1);
        assert!(v.error.expect("rejected").contains("15 outcomes for 16"));
    }

    #[test]
    fn a_timed_out_op_counts_as_failed_not_refused() {
        let (sys, submitted) = small_run::<Account>();
        let mut obs = observe(&sys, &submitted);
        let mut table = obs.outcomes[0].to_vec();
        table[3] = Outcome::TimedOut;
        obs.outcomes[0] = &table;
        let v = check_run(&obs);
        assert_eq!((v.failed, v.refused), (1, 0));
        // The op is in the merged history but no longer completed.
        assert!(v.error.expect("rejected").contains("not exactly"));
    }

    #[test]
    fn a_diverging_replica_log_is_rejected() {
        let (sys, submitted) = small_run::<Taxi>();
        let mut obs = observe(&sys, &submitted);
        let mut rogue = obs.replica_logs[2].clone();
        rogue.insert(Entry::new(Timestamp::new(999, 7), QueueOp::Enq(-1)));
        obs.replica_logs[2] = &rogue;
        let v = check_run(&obs);
        assert!(v.error.expect("rejected").contains("replica 2"));
    }

    #[test]
    fn backends_that_disagree_are_rejected() {
        let (a, submitted) = small_run::<Account>();
        let (b, _) = small_run::<Account>();
        let left = observe(&a, &submitted);
        let mut right = observe(&b, &submitted);
        assert_eq!(check_same_run(&left, &right), Ok(()));
        let shorter = right.replica_logs[0].entries()[..5]
            .iter()
            .cloned()
            .collect::<Log<_>>();
        right.replica_logs[0] = &shorter;
        assert!(check_same_run(&left, &right)
            .expect_err("rejected")
            .contains("replica 0"));
    }

    #[test]
    fn taxi_invariant_rejects_phantoms_and_duplicates() {
        use QueueOp::{Deq, Enq};
        assert_eq!(
            check_taxi_history(&[Enq(1), Enq(2), Deq(2), Deq(1)]),
            Ok(())
        );
        assert!(check_taxi_history(&[Enq(1), Deq(3)]).is_err());
        assert!(check_taxi_history(&[Enq(1), Deq(1), Deq(1)]).is_err());
    }

    #[test]
    fn a_wrong_language_size_is_rejected() {
        assert_eq!(check_lattice(true, &[3, 4], &[3, 4]), Ok(()));
        assert!(check_lattice(true, &[3, 5], &[3, 4]).is_err());
        assert!(check_lattice(false, &[3, 4], &[3, 4]).is_err());
    }
}
