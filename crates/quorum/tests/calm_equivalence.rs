//! Differential verification of the CALM fast path: a run that executes
//! monotone kinds coordination-free (local append + WAL shipping, no
//! read phase, no quorum wait) is observably equivalent to the
//! all-quorum baseline.
//!
//! Three layers, from strongest to weakest claim:
//!
//! 1. **Healthy runs** (no faults, no loss): bit-for-bit equality —
//!    same outcome shapes, same merged history, same final replica
//!    logs. The fast path changes *when* the client stops waiting,
//!    never *what* anyone observes.
//! 2. **Faulted runs** (partitions and crashes at stride boundaries):
//!    exact equality is impossible — the baseline loses availability
//!    the fast path exists to keep — so the property splits: free ops
//!    are 100% available in the fast run; coordination-requiring ops
//!    degrade identically in both runs; fast-path entries converge to
//!    every replica after heal + WAL flush; and the fast run's merged
//!    history is accepted by the QCA at the analyzed relation (the
//!    fast path never fabricates a behavior outside the degraded
//!    spec).
//! 3. **Analyzer soundness** (the satellite property): every kind the
//!    analyzer classifies monotone, replayed coordination-free against
//!    30 random histories per lattice level, never changes observable
//!    outcomes vs. the quorum path.
//! 4. **A threaded shard of several clients**: free credits mint above
//!    the shard's view like everything else it executes, so the merged
//!    history holds the same operations as the all-quorum run's and
//!    stays inside the `{A2}` spec.
//! 5. **Laziness agrees with the specification**: `respond` asks for
//!    the view's value exactly for the invocations the analyzer's
//!    response-stability enumeration finds unstable, and answers as
//!    `execute` does at every view it enumerates.

use proptest::prelude::*;

use relax_automata::{response_stable, History, ObjectAutomaton};
use relax_queues::{account_alphabet, queue_alphabet, AccountEval, AccountOp, AccountValueSpec};
use relax_quorum::calm::{analyze_account, SchedulingPolicy};
use relax_quorum::relation::{account_relation, AccountKind, IntersectionRelation};
use relax_quorum::types::{
    AccountInv, BankAccountType, QueueInv, ReplicatedType, TaxiQueuePrimeType, TaxiQueueType,
};
use relax_quorum::{
    outcome_shapes, ClientConfig, ClientTable, Executor, Log, OutcomeShape, QcaAutomaton,
    QuorumSystem, ThreadedConfig, ThreadedSystem, VotingAssignment,
};
use relax_sim::{Fault, FaultSchedule, NetworkConfig, NodeId, Partition, SimTime};

/// Replicas; the single client is `NodeId(N)`.
const N: usize = 3;

/// Submission stride: every fault boundary and every submission lands
/// on a multiple of this, far above timeout (200) + max delay (10), so
/// each operation fully resolves inside its own stride and both runs
/// see identical reachability per operation.
const STRIDE: u64 = 300;

/// An assignment realizing the `{A2}`-only account relation (§3.4's
/// "account that may miss credits"): credits read nothing and record
/// anywhere, debits read and record at majorities, so every Debit
/// initial quorum intersects every Debit final quorum and nothing else
/// is constrained. `analyze_account` classifies Credit monotone at
/// exactly this level.
fn a2_assignment() -> VotingAssignment<AccountKind> {
    VotingAssignment::new(N)
        .with_initial(AccountKind::Credit, 0)
        .with_final(AccountKind::Credit, 1)
        .with_initial(AccountKind::Debit, 2)
        .with_final(AccountKind::Debit, 2)
}

/// An assignment realizing the empty relation: nothing reads, so no
/// initial quorum intersects any final quorum.
fn empty_relation_assignment() -> VotingAssignment<AccountKind> {
    VotingAssignment::new(N)
        .with_initial(AccountKind::Credit, 0)
        .with_final(AccountKind::Credit, 1)
        .with_initial(AccountKind::Debit, 0)
        .with_final(AccountKind::Debit, 1)
}

fn credit_only_policy() -> SchedulingPolicy<AccountKind> {
    let report = analyze_account(&account_relation(false, true));
    let policy = SchedulingPolicy::from_report(&report);
    assert!(policy.is_free(AccountKind::Credit));
    assert!(!policy.is_free(AccountKind::Debit));
    policy
}

/// Everything externally observable about one run.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    shapes: Vec<OutcomeShape<AccountOp>>,
    history: Vec<AccountOp>,
    replica_logs: Vec<Log<AccountOp>>,
}

/// One randomized environment + workload. Faults start and stop at
/// stride boundaries (`*_from`/`*_len` are stride counts).
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    /// Client totally isolated from all replicas for these strides.
    isolate: Option<(u64, u64)>,
    /// One replica down for these strides.
    crash: Option<(usize, u64, u64)>,
    invs: Vec<AccountInv>,
}

fn run_one(
    policy: SchedulingPolicy<AccountKind>,
    assignment: VotingAssignment<AccountKind>,
    s: &Scenario,
) -> (Observed, (u64, u64)) {
    let mut sys = QuorumSystem::new(
        BankAccountType,
        N,
        assignment,
        ClientConfig::default(),
        NetworkConfig::new(1, 10, 0.0),
        s.seed,
    )
    .with_scheduling(policy);

    let horizon = s.invs.len() as u64 * STRIDE;
    let mut sched = FaultSchedule::new();
    if let Some((from, len)) = s.isolate {
        let at = (from * STRIDE).min(horizon);
        let until = (at + len * STRIDE).min(horizon);
        if at < until {
            let client = vec![NodeId(N)];
            let replicas: Vec<NodeId> = (0..N).map(NodeId).collect();
            sched = sched
                .at(
                    SimTime(at),
                    Fault::Partition(Partition::groups(vec![client, replicas])),
                )
                .at(SimTime(until), Fault::Heal);
        }
    }
    if let Some((r, from, len)) = s.crash {
        let at = (from * STRIDE).min(horizon);
        let until = (at + len * STRIDE).min(horizon);
        if at < until {
            sched = sched.down_between(NodeId(r % N), SimTime(at), SimTime(until));
        }
    }
    sys.world_mut().set_schedule(sched);

    // Stride-aligned submission: op `i` enters at `i * STRIDE` and is
    // fully resolved (completed or timed out) before `(i+1) * STRIDE`.
    for (i, inv) in s.invs.iter().enumerate() {
        sys.submit(*inv);
        sys.run_until(SimTime((i as u64 + 1) * STRIDE));
    }
    // Quiesce, then flush WALs post-heal and quiesce again so
    // coordination-free entries swallowed by a fault converge.
    sys.run_until(SimTime(horizon + STRIDE));
    sys.flush_wals();
    sys.run_until(SimTime(horizon + 2 * STRIDE));

    let observed = Observed {
        shapes: outcome_shapes(sys.outcomes()),
        history: sys.merged_history().into_ops(),
        replica_logs: (0..N).map(|i| sys.replica_log(i).clone()).collect(),
    };
    let counts = sys.calm_op_counts();
    (observed, counts)
}

/// The healthy-run property: with no faults, fast ≡ baseline exactly.
fn check_healthy_equivalence(
    policy: SchedulingPolicy<AccountKind>,
    assignment: VotingAssignment<AccountKind>,
    s: &Scenario,
) -> Result<(), proptest::TestCaseError> {
    assert!(s.isolate.is_none() && s.crash.is_none());
    let (base, base_counts) = run_one(SchedulingPolicy::all_quorum(), assignment.clone(), s);
    let (fast, fast_counts) = run_one(policy.clone(), assignment, s);
    prop_assert_eq!(&base, &fast, "observable divergence under {:?}", s);
    let free = s
        .invs
        .iter()
        .filter(|inv| policy.is_free(BankAccountType.invocation_kind(inv)))
        .count() as u64;
    prop_assert_eq!(base_counts, (0, s.invs.len() as u64));
    prop_assert_eq!(fast_counts, (free, s.invs.len() as u64 - free));
    Ok(())
}

proptest! {
    /// Healthy runs are bit-for-bit equivalent: shapes, merged history,
    /// final replica logs.
    #[test]
    fn healthy_fast_path_is_observably_identical(
        seed in 0u64..1_000_000,
        invs_raw in proptest::collection::vec((any::<bool>(), 1u32..5), 1..14),
    ) {
        let s = Scenario {
            seed,
            isolate: None,
            crash: None,
            invs: invs_raw
                .into_iter()
                .map(|(credit, n)| if credit { AccountInv::Credit(n) } else { AccountInv::Debit(n) })
                .collect(),
        };
        check_healthy_equivalence(credit_only_policy(), a2_assignment(), &s)?;
    }

    /// Faulted runs: free ops stay 100% available, coordination-requiring
    /// ops degrade identically, fast-path entries converge everywhere
    /// after heal + flush, and the fast history stays inside the degraded
    /// spec (QCA-accepted at the analyzed relation).
    #[test]
    fn faulted_fast_path_degrades_gracefully_and_stays_in_spec(
        seed in 0u64..1_000_000,
        isolate_raw in (any::<bool>(), 0u64..10, 1u64..4),
        crash_raw in (any::<bool>(), 0usize..3, 0u64..10, 1u64..4),
        invs_raw in proptest::collection::vec((any::<bool>(), 1u32..4), 1..10),
    ) {
        let s = Scenario {
            seed,
            isolate: isolate_raw.0.then_some((isolate_raw.1, isolate_raw.2)),
            crash: crash_raw.0.then_some((crash_raw.1, crash_raw.2, crash_raw.3)),
            invs: invs_raw
                .into_iter()
                .map(|(credit, n)| if credit { AccountInv::Credit(n) } else { AccountInv::Debit(n) })
                .collect(),
        };
        check_faulted(&s)?;
    }
}

/// One threaded shard serving every client, op `i` of the stream going
/// to client `i % clients`: per-client outcome shapes and the merged
/// history. Credits read one site here, so the all-quorum run observes
/// its view before every mint.
fn run_one_shard(
    policy: SchedulingPolicy<AccountKind>,
    clients: usize,
    invs: &[AccountInv],
) -> (Vec<Vec<OutcomeShape<AccountOp>>>, Vec<AccountOp>) {
    let assignment = a2_assignment().with_initial(AccountKind::Credit, 1);
    let config = ThreadedConfig {
        shards: 1,
        batch: clients,
        ..ThreadedConfig::default()
    };
    let mut sys = ThreadedSystem::new(BankAccountType, N, clients, assignment, config)
        .with_scheduling(policy);
    for (i, inv) in invs.iter().enumerate() {
        sys.submit_to(i % clients, *inv);
    }
    sys.run_all();
    let shapes = (0..clients)
        .map(|c| outcome_shapes(sys.outcomes_of(c)))
        .collect();
    (shapes, sys.merged_history().into_ops())
}

proptest! {
    /// Several clients on one threaded shard: the CALM run answers every
    /// client as the all-quorum run does, its merged history holds the
    /// same operations, and the `{A2}` QCA accepts it.
    #[test]
    fn threaded_shard_keeps_the_all_quorum_operations_and_stays_in_spec(
        clients in 2usize..5,
        invs_raw in proptest::collection::vec((0u32..3, 1u32..4), 2..13),
    ) {
        let invs: Vec<AccountInv> = invs_raw
            .into_iter()
            .map(|(k, n)| if k == 0 { AccountInv::Debit(n) } else { AccountInv::Credit(n) })
            .collect();
        let (base_shapes, mut base) = run_one_shard(SchedulingPolicy::all_quorum(), clients, &invs);
        let (fast_shapes, fast) = run_one_shard(credit_only_policy(), clients, &invs);
        prop_assert_eq!(&base_shapes, &fast_shapes);
        prop_assert_eq!(fast.len(), invs.len(), "every op completes and lands once");
        let qca = QcaAutomaton::new(AccountValueSpec, AccountEval, account_relation(false, true));
        prop_assert!(
            qca.accepts(&History::from(fast.clone())),
            "fast history rejected by the {{A2}} QCA: {:?}",
            fast
        );
        let mut fast = fast;
        base.sort_unstable();
        fast.sort_unstable();
        prop_assert_eq!(base, fast);
    }
}

fn check_faulted(s: &Scenario) -> Result<(), proptest::TestCaseError> {
    let policy = credit_only_policy();
    let (base, _) = run_one(SchedulingPolicy::all_quorum(), a2_assignment(), s);
    let (fast, _) = run_one(policy, a2_assignment(), s);

    if s.isolate.is_none() && s.crash.is_none() {
        prop_assert_eq!(&base, &fast, "healthy scenario must be exact: {:?}", s);
    }

    let mut completed = 0u64;
    let mut completed_credits = 0u64;
    for (i, inv) in s.invs.iter().enumerate() {
        match inv {
            AccountInv::Credit(n) => {
                // Availability: free ops never block on an unreachable
                // quorum — and a credit's response never reads the view,
                // so its recorded op is fully determined.
                prop_assert_eq!(
                    &fast.shapes[i],
                    &OutcomeShape::Completed(AccountOp::Credit(*n)),
                    "free op {} not available under {:?}",
                    i,
                    s
                );
                completed += 1;
                completed_credits += 1;
                // The baseline can only lose availability, never respond
                // differently.
                if let OutcomeShape::Completed(op) = &base.shapes[i] {
                    prop_assert_eq!(op, &AccountOp::Credit(*n));
                }
            }
            AccountInv::Debit(_) => {
                // Coordination-requiring ops degrade identically: with
                // stride-aligned faults and zero loss, timing out is a
                // pure function of quorum reachability, which both runs
                // share. (Responses may legitimately differ — the fast
                // run's debits can see credits a healed replica
                // re-received from a WAL flush that the baseline never
                // re-ships.)
                let base_timed_out = matches!(base.shapes[i], OutcomeShape::TimedOut);
                let fast_timed_out = matches!(fast.shapes[i], OutcomeShape::TimedOut);
                prop_assert_eq!(
                    base_timed_out,
                    fast_timed_out,
                    "quorum op {} availability diverged under {:?}",
                    i,
                    s
                );
                if !fast_timed_out {
                    completed += 1;
                }
            }
        }
    }

    // Durability and convergence: every completed op left exactly one
    // entry, and after heal + flush every replica holds every fast-path
    // credit (quorum-path entries follow the usual replication rules).
    prop_assert_eq!(
        fast.history.len() as u64,
        completed,
        "fast history holds exactly the completed ops under {:?}",
        s
    );
    for (r, log) in fast.replica_logs.iter().enumerate() {
        let credits = log
            .to_history()
            .into_ops()
            .iter()
            .filter(|op| matches!(op, AccountOp::Credit(_)))
            .count() as u64;
        prop_assert_eq!(
            credits,
            completed_credits,
            "replica {} missing fast-path credits after flush under {:?}",
            r,
            s
        );
    }

    // Soundness: the fast run's merged history is a behavior of the
    // degraded specification — the QCA at the analyzed relation accepts
    // it.
    let qca = QcaAutomaton::new(AccountValueSpec, AccountEval, account_relation(false, true));
    prop_assert!(
        qca.accepts(&History::from(fast.history.clone())),
        "fast history rejected by the {{A2}} QCA under {:?}: {:?}",
        s,
        fast.history
    );
    Ok(())
}

/// A tiny deterministic generator so the soundness replay is seedable
/// without proptest machinery.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Satellite: analyzer soundness. At every lattice level where the
/// analyzer says a kind is monotone, executing that kind
/// coordination-free is invisible across 30 random histories; where it
/// refuses, we don't (and the refusal is pinned by unit tests in
/// `relax_quorum::calm`).
#[test]
fn analyzer_monotone_verdicts_are_sound_over_30_histories_per_level() {
    let levels: [(
        IntersectionRelation<AccountKind>,
        VotingAssignment<AccountKind>,
    ); 2] = [
        (account_relation(false, false), empty_relation_assignment()),
        (account_relation(false, true), a2_assignment()),
    ];
    for (relation, assignment) in levels {
        let report = analyze_account(&relation);
        let policy = SchedulingPolicy::from_report(&report);
        assert!(
            policy.is_free(AccountKind::Credit),
            "Credit should be monotone at {relation:?}"
        );
        assert!(
            !policy.is_free(AccountKind::Debit),
            "Debit must never be freed at {relation:?}"
        );
        let mut rng = 0x5EED_CA1Au64 ^ relation.len() as u64;
        for trial in 0..30 {
            let len = 1 + (xorshift(&mut rng) % 12) as usize;
            let invs = (0..len)
                .map(|_| {
                    let r = xorshift(&mut rng);
                    let n = 1 + (r % 4) as u32;
                    if r.is_multiple_of(3) {
                        AccountInv::Debit(n)
                    } else {
                        AccountInv::Credit(n)
                    }
                })
                .collect();
            let s = Scenario {
                seed: xorshift(&mut rng),
                isolate: None,
                crash: None,
                invs,
            };
            check_healthy_equivalence(policy.clone(), assignment.clone(), &s)
                .unwrap_or_else(|e| panic!("trial {trial} at {relation:?}: {e:?}"));
        }
    }
}

/// Runs [`response_stable`] for each of `invs` on its own — over the
/// views `alphabet` grows to depth 3, as the analyzer does — answering
/// through `respond` with a value that notes being asked for. Returns,
/// per invocation, whether any enumerated view was demanded and whether
/// the enumeration found the response unstable; at every view the lazy
/// answer must be the eager one.
fn demanded_and_unstable<T>(ttype: &T, alphabet: &[T::Op], invs: &[T::Inv]) -> Vec<(bool, bool)>
where
    T: ReplicatedType,
    T::Op: PartialEq,
{
    invs.iter()
        .map(|inv| {
            let demanded = std::cell::Cell::new(false);
            let verdict = response_stable(
                ttype.initial_value(),
                alphabet,
                3,
                1,
                |v, op| ttype.apply_mut(v, op),
                |v, _| {
                    let lent = || {
                        demanded.set(true);
                        v
                    };
                    let lazy = ttype.respond(lent, inv);
                    assert_eq!(lazy, ttype.execute(v, inv), "{inv:?}: lazy ≠ eager");
                    lazy
                },
            );
            (demanded.get(), verdict.is_err())
        })
        .collect()
}

/// Layer 5: the demand rule is the response-stability half of the CALM
/// criterion, type by type. An invocation that never asks for the value
/// cannot answer differently at two views, so "demanded ⇐ unstable" is
/// free; the content is the other direction — no stable invocation
/// folds a view it does not need.
#[test]
fn respond_demands_the_value_exactly_for_response_unstable_invocations() {
    let queue_invs = [QueueInv::Enq(1), QueueInv::Enq(2), QueueInv::Deq];
    let queue_expect = [(false, false), (false, false), (true, true)];
    let items = queue_alphabet(&[1, 2]);
    assert_eq!(
        demanded_and_unstable(&TaxiQueueType, &items, &queue_invs),
        queue_expect
    );
    assert_eq!(
        demanded_and_unstable(&TaxiQueuePrimeType, &items, &queue_invs),
        queue_expect
    );
    let account_invs = [
        AccountInv::Credit(1),
        AccountInv::Credit(2),
        AccountInv::Debit(1),
        AccountInv::Debit(2),
    ];
    assert_eq!(
        demanded_and_unstable(&BankAccountType, &account_alphabet(&[1, 2]), &account_invs),
        [(false, false), (false, false), (true, true), (true, true)]
    );
}
