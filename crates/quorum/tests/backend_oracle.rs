//! The differential oracle: the sharded wall-clock backend against the
//! discrete-event simulator.
//!
//! Both backends implement [`Executor`], so one generic driver pushes
//! the *same* invocation stream through both and compares everything
//! observable: per-client outcome shapes (latencies erased — they live
//! in different time domains), final per-replica logs, the merged
//! history; a single-client taxi run also compares the sim's online
//! degradation-monitor transitions with a monitor fed offline from the
//! threaded client's completed ops.
//!
//! Equality granularity:
//!
//! * **Single client → exact.** Over a FIFO fixed-delay network with a
//!   static down-set, the sim is deterministic and the threaded backend
//!   mints identical timestamps, so replica logs match *entry for
//!   entry*. Proptest drives random workloads, replica counts, and
//!   down-sets through both.
//! * **Racing clients → structural.** Cross-client interleaving is
//!   scheduler-dependent on both backends (and differs between them),
//!   so the comparison is per-client outcome kinds and op multisets.

use proptest::prelude::*;

use relax_queues::{AccountOp, QueueOp};
use relax_quorum::calm::SchedulingPolicy;
use relax_quorum::relation::{AccountKind, QueueKind};
use relax_quorum::types::{AccountInv, BankAccountType, QueueInv, TaxiQueueType};
use relax_quorum::{
    outcome_shapes, queue_lattice_monitor, ClientConfig, Executor, HasKind, Log, OutcomeShape,
    QuorumSystem, ReplicatedType, ThreadedConfig, ThreadedSystem, VotingAssignment,
};
use relax_sim::{NetworkConfig, NodeId};
use relax_trace::metrics;

/// Majority-Deq taxi-queue assignment (the runtime's canonical shape).
fn taxi_assignment(n: usize) -> VotingAssignment<QueueKind> {
    let maj = n / 2 + 1;
    VotingAssignment::new(n)
        .with_initial(QueueKind::Deq, maj)
        .with_final(QueueKind::Deq, maj)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, n - maj + 1)
}

/// The bank-account assignment of §3.4: cheap credits, debits that must
/// reach every site.
fn account_assignment(n: usize) -> VotingAssignment<AccountKind> {
    VotingAssignment::new(n)
        .with_initial(AccountKind::Credit, 1)
        .with_final(AccountKind::Credit, 1)
        .with_initial(AccountKind::Debit, 1)
        .with_final(AccountKind::Debit, n)
}

/// Everything the oracle compares, in backend-neutral form.
#[derive(Debug, Clone, PartialEq)]
struct Observed<Op> {
    shapes: Vec<Vec<OutcomeShape<Op>>>,
    replica_logs: Vec<Log<Op>>,
    history: Vec<Op>,
}

/// The generic driver the trait split exists for: any [`Executor`] takes
/// the stream and yields comparable observables.
fn drive<T, E>(sys: &mut E, invs: &[(usize, T::Inv)]) -> Observed<T::Op>
where
    T: ReplicatedType,
    E: Executor<T>,
{
    for (c, inv) in invs {
        sys.submit_to(*c, inv.clone());
    }
    sys.run_all();
    Observed {
        shapes: (0..sys.n_clients())
            .map(|c| outcome_shapes(sys.outcomes_of(c)))
            .collect(),
        replica_logs: (0..sys.n_replicas())
            .map(|i| sys.replica_log(i).clone())
            .collect(),
        history: sys.merged_history().into_ops(),
    }
}

/// The fixed-delay, lossless network that makes the sim FIFO and thus
/// exactly reproducible by the threaded backend.
fn fifo_network() -> NetworkConfig {
    NetworkConfig::new(2, 2, 0.0)
}

/// Runs one single-client taxi workload through both backends under a
/// static down-set and demands exact equality.
fn check_taxi_exact(
    n: usize,
    down: &[usize],
    invs: &[QueueInv],
    seed: u64,
) -> Result<(), proptest::TestCaseError> {
    let stream: Vec<(usize, QueueInv)> = invs.iter().map(|&inv| (0, inv)).collect();

    let mut sim = QuorumSystem::new(
        TaxiQueueType,
        n,
        taxi_assignment(n),
        ClientConfig::default(),
        fifo_network(),
        seed,
    )
    .with_monitor(queue_lattice_monitor());
    for &r in down {
        sim.world_mut().network_mut().crash(NodeId(r));
    }
    let sim_seen = drive(&mut sim, &stream);

    let mut thr = ThreadedSystem::new(
        TaxiQueueType,
        n,
        1,
        taxi_assignment(n),
        ThreadedConfig::default(),
    );
    for &r in down {
        thr.crash(r);
    }
    let thr_seen = drive(&mut thr, &stream);
    prop_assert_eq!(
        &sim_seen,
        &thr_seen,
        "backend divergence (n={}, down={:?}, invs={:?})",
        n,
        down,
        invs
    );
    // Both registries publish the shared layers under the same names,
    // and the two schedulers counted the same invocations. The one
    // client evaluates on both backends exactly when it does on either.
    sim.export_metrics();
    let (sim_reg, thr_reg) = (sim.registry(), thr.registry());
    let shared = |reg: &relax_trace::Registry| -> Vec<&str> {
        metrics::EXECUTOR_NAMES
            .iter()
            .copied()
            .filter(|name| {
                ["viewcache_", "calm_", "merkle_"]
                    .iter()
                    .any(|p| name.starts_with(p))
            })
            .filter(|name| reg.get_gauge(name).is_some())
            .collect()
    };
    prop_assert_eq!(shared(sim_reg), shared(thr_reg));
    prop_assert_eq!(shared(thr_reg).len(), 9);
    for name in [metrics::calm::FAST_OPS, metrics::calm::QUORUM_OPS] {
        prop_assert_eq!(sim_reg.get_gauge(name), thr_reg.get_gauge(name), "{}", name);
    }
    let evaluated = |reg: &relax_trace::Registry| {
        let g = |name| reg.get_gauge(name).map_or(0, relax_trace::Gauge::value);
        g(metrics::viewcache::HITS) + g(metrics::viewcache::MISSES) > 0
    };
    prop_assert_eq!(evaluated(sim_reg), evaluated(thr_reg));
    // The sim's monitor, fed online after every step, against one fed
    // offline from the threaded client's completed ops: for one client
    // both see completion order.
    let mut offline = queue_lattice_monitor();
    for shape in &thr_seen.shapes[0] {
        if let OutcomeShape::Completed(op) = shape {
            offline.observe(op);
        }
    }
    let transitions =
        |m: &relax_trace::DegradationMonitor<QueueOp>| -> Vec<(usize, Option<String>)> {
            m.transitions()
                .iter()
                .map(|t| (t.op_index, t.now.clone()))
                .collect()
        };
    prop_assert_eq!(
        transitions(sim.monitor().expect("attached")),
        transitions(&offline),
        "monitor divergence (n={}, down={:?})",
        n,
        down
    );
    Ok(())
}

proptest! {
    /// Random single-client taxi workloads with random static down-sets:
    /// exact observable equality, including write-phase timeouts whose
    /// entries persist and read-phase timeouts whose entries don't.
    #[test]
    fn threaded_taxi_matches_sim_exactly(
        seed in 0u64..1_000_000,
        n in 3usize..6,
        down_mask in 0u8..32,
        invs_raw in proptest::collection::vec((0u8..3, 0i64..8), 1..32),
    ) {
        let down: Vec<usize> = (0..n).filter(|i| down_mask & (1 << i) != 0).collect();
        let invs: Vec<QueueInv> = invs_raw
            .into_iter()
            .map(|(k, v)| if k == 2 { QueueInv::Deq } else { QueueInv::Enq(v) })
            .collect();
        check_taxi_exact(n, &down, &invs, seed)?;
    }

    /// Same property on the bank account, whose debits must reach every
    /// site (any down replica forces the write-phase-timeout path) and
    /// whose overdrafts pin view-value agreement.
    #[test]
    fn threaded_account_matches_sim_exactly(
        seed in 0u64..1_000_000,
        n in 3usize..5,
        down_mask in 0u8..16,
        invs_raw in proptest::collection::vec((any::<bool>(), 1u32..10), 1..32),
    ) {
        let down: Vec<usize> = (0..n).filter(|i| down_mask & (1 << i) != 0).collect();
        let invs: Vec<AccountInv> = invs_raw
            .into_iter()
            .map(|(credit, v)| if credit { AccountInv::Credit(v) } else { AccountInv::Debit(v) })
            .collect();
        let stream: Vec<(usize, AccountInv)> = invs.iter().map(|&inv| (0, inv)).collect();

        let mut sim = QuorumSystem::new(
            BankAccountType,
            n,
            account_assignment(n),
            ClientConfig::default(),
            fifo_network(),
            seed,
        );
        for &r in &down {
            sim.world_mut().network_mut().crash(NodeId(r));
        }
        let sim_seen = drive(&mut sim, &stream);

        let mut thr = ThreadedSystem::new(
            BankAccountType,
            n,
            1,
            account_assignment(n),
            ThreadedConfig::default(),
        );
        for &r in &down {
            thr.crash(r);
        }
        let thr_seen = drive(&mut thr, &stream);

        prop_assert_eq!(
            &sim_seen,
            &thr_seen,
            "backend divergence (n={}, down={:?}, invs={:?})",
            n,
            &down,
            &invs
        );
    }
}

/// Runs one single-client account stream through both backends (three
/// replicas, all reachable) under `policy` and returns what each saw,
/// sim first.
fn account_on_both(
    assignment: VotingAssignment<AccountKind>,
    policy: SchedulingPolicy<AccountKind>,
    invs: &[AccountInv],
) -> (Observed<AccountOp>, Observed<AccountOp>) {
    let stream: Vec<(usize, AccountInv)> = invs.iter().map(|&inv| (0, inv)).collect();
    let mut sim = QuorumSystem::new(
        BankAccountType,
        3,
        assignment.clone(),
        ClientConfig::default(),
        fifo_network(),
        7,
    )
    .with_scheduling(policy.clone());
    let mut thr = ThreadedSystem::new(BankAccountType, 3, 1, assignment, ThreadedConfig::default())
        .with_scheduling(policy);
    (drive(&mut sim, &stream), drive(&mut thr, &stream))
}

/// Zero-size initial quorums take the blind-write path (respond against
/// the fresh empty view, no observation); both backends must agree on
/// it exactly.
#[test]
fn zero_initial_quorum_blind_writes_agree() {
    let assignment = VotingAssignment::new(3)
        .with_initial(AccountKind::Credit, 0)
        .with_final(AccountKind::Credit, 1)
        .with_initial(AccountKind::Debit, 1)
        .with_final(AccountKind::Debit, 3);
    let invs = [
        AccountInv::Credit(2),
        AccountInv::Credit(3),
        AccountInv::Debit(4),
        AccountInv::Credit(1),
        AccountInv::Debit(9),
    ];
    let (sim_seen, thr_seen) = account_on_both(assignment, SchedulingPolicy::all_quorum(), &invs);
    assert_eq!(sim_seen, thr_seen);
    // The debit at index 2 saw both blind credits.
    assert_eq!(
        sim_seen.shapes[0][2],
        OutcomeShape::Completed(AccountOp::DebitOk(4))
    );
}

/// A free round hands the next, reading round a commit to ride: the
/// debits must find every free credit at the replica that merged it in
/// the same visit, and mint the timestamps the sim client mints.
#[test]
fn a_read_riding_a_free_rounds_commit_agrees() {
    let policy = SchedulingPolicy::coordination_free([AccountKind::Credit]);
    let (c, d) = (AccountInv::Credit(3), AccountInv::Debit(2));
    let (sim_seen, thr_seen) = account_on_both(account_assignment(3), policy, &[c, c, d, c, d, d]);
    assert_eq!(sim_seen, thr_seen);
    // 9 credited, 6 debited: the last debit saw all of it.
    assert_eq!(
        sim_seen.shapes[0][5],
        OutcomeShape::Completed(AccountOp::DebitOk(2))
    );
    assert_eq!(thr_seen.replica_logs[0].len(), 6);
}

/// Rounds that commit nothing leave the next read nothing to ride: it
/// travels alone, and still sees what the sim client sees.
#[test]
fn a_read_after_refused_only_rounds_agrees() {
    let invs = [
        QueueInv::Deq,
        QueueInv::Deq,
        QueueInv::Enq(5),
        QueueInv::Deq,
    ];
    check_taxi_exact(3, &[], &invs, 3).expect("exact");
}

/// One replica of three reachable: a dequeue's majority can never
/// assemble — its read rides the enqueue's commit and draws one response
/// — so every operation times out on both backends, and only the
/// enqueues' entries persist.
#[test]
fn an_initial_quorum_beyond_the_reachable_set_agrees() {
    let invs = [
        QueueInv::Deq,
        QueueInv::Enq(1),
        QueueInv::Deq,
        QueueInv::Deq,
        QueueInv::Enq(2),
        QueueInv::Enq(3),
        QueueInv::Deq,
    ];
    check_taxi_exact(3, &[0, 1], &invs, 5).expect("exact");
}

/// Every quorum-size rule a three-replica assignment can give a family,
/// case by case: each (initial 0..=3, final 1..=3) for both of its kinds,
/// under pure quorum scheduling and with the first kind free, with no,
/// one, two and all three replicas down. One fixed single-client
/// `stream` per case; the two backends must agree exactly. Returns the
/// number of cases run.
fn agree_under_every_rule<T>(
    ttype: T,
    kinds: [<T::Op as HasKind>::Kind; 2],
    stream: &[T::Inv],
) -> usize
where
    T: ReplicatedType + Send,
    T::Op: Send + Sync + PartialEq,
    T::Inv: Send,
    T::Value: Send,
    <T::Op as HasKind>::Kind: Send + Sync,
{
    let stream: Vec<(usize, T::Inv)> = stream.iter().map(|inv| (0, inv.clone())).collect();
    let sizes = || (0..=3).flat_map(|init| (1..=3).map(move |fin| (init, fin)));
    let policies = [
        SchedulingPolicy::all_quorum(),
        SchedulingPolicy::coordination_free([kinds[0]]),
    ];
    let down_sets: [&[usize]; 4] = [&[], &[0], &[0, 1], &[0, 1, 2]];
    let mut cases = 0;
    for (i0, f0) in sizes() {
        for (i1, f1) in sizes() {
            let assignment = VotingAssignment::new(3)
                .with_initial(kinds[0], i0)
                .with_final(kinds[0], f0)
                .with_initial(kinds[1], i1)
                .with_final(kinds[1], f1);
            for (free, policy) in policies.iter().enumerate() {
                for down in down_sets {
                    let mut sim = QuorumSystem::new(
                        ttype.clone(),
                        3,
                        assignment.clone(),
                        ClientConfig::default(),
                        fifo_network(),
                        1,
                    )
                    .with_scheduling(policy.clone());
                    let config = ThreadedConfig::default();
                    let mut thr =
                        ThreadedSystem::new(ttype.clone(), 3, 1, assignment.clone(), config)
                            .with_scheduling(policy.clone());
                    for &r in down {
                        sim.world_mut().network_mut().crash(NodeId(r));
                        thr.crash(r);
                    }
                    assert_eq!(
                        drive(&mut sim, &stream),
                        drive(&mut thr, &stream),
                        "{:?} ({i0}, {f0}), {:?} ({i1}, {f1}), first kind free: {}, down {down:?}",
                        kinds[0],
                        kinds[1],
                        free == 1
                    );
                    cases += 1;
                }
            }
        }
    }
    cases
}

/// The rule table over both families: 2 × 144 assignments × 2 policies ×
/// 4 down-sets. Each stream reaches a refusal — a `Deq` of an empty
/// queue, an overdraft — wherever its reads assemble.
#[test]
fn both_backends_agree_under_every_quorum_rule() {
    use QueueInv::{Deq, Enq};
    let taxi = [Deq, Enq(3), Enq(7), Deq, Deq, Deq, Enq(5), Deq];
    let taxi_kinds = [QueueKind::Enq, QueueKind::Deq];
    assert_eq!(
        agree_under_every_rule(TaxiQueueType, taxi_kinds, &taxi),
        1_152
    );
    use AccountInv::{Credit, Debit};
    let account = [
        Debit(2),
        Credit(5),
        Debit(3),
        Credit(1),
        Debit(4),
        Credit(2),
        Debit(9),
        Debit(1),
    ];
    let account_kinds = [AccountKind::Credit, AccountKind::Debit];
    assert_eq!(
        agree_under_every_rule(BankAccountType, account_kinds, &account),
        1_152
    );
}

/// A write that reached no replica stays lost once replicas come back:
/// for each (initial 0..=3, final 1..=3) of both kinds under pure quorum
/// scheduling, `stream` runs with every replica down, then again with
/// every replica up, and the two backends must agree exactly after each
/// run. Returns the number of assignments run.
fn agree_across_a_total_outage<T>(
    ttype: T,
    kinds: [<T::Op as HasKind>::Kind; 2],
    stream: &[T::Inv],
) -> usize
where
    T: ReplicatedType + Send,
    T::Op: Send + Sync + PartialEq,
    T::Inv: Send,
    T::Value: Send,
    <T::Op as HasKind>::Kind: Send + Sync,
{
    let stream: Vec<(usize, T::Inv)> = stream.iter().map(|inv| (0, inv.clone())).collect();
    let sizes = || (0..=3).flat_map(|init| (1..=3).map(move |fin| (init, fin)));
    let mut cases = 0;
    for (i0, f0) in sizes() {
        for (i1, f1) in sizes() {
            let assignment = VotingAssignment::new(3)
                .with_initial(kinds[0], i0)
                .with_final(kinds[0], f0)
                .with_initial(kinds[1], i1)
                .with_final(kinds[1], f1);
            let mut sim = QuorumSystem::new(
                ttype.clone(),
                3,
                assignment.clone(),
                ClientConfig::default(),
                fifo_network(),
                1,
            );
            let config = ThreadedConfig::default();
            let mut thr = ThreadedSystem::new(ttype.clone(), 3, 1, assignment, config);
            for r in 0..3 {
                sim.world_mut().network_mut().crash(NodeId(r));
                thr.crash(r);
            }
            let case = format!("{:?} ({i0}, {f0}), {:?} ({i1}, {f1})", kinds[0], kinds[1]);
            assert_eq!(
                drive(&mut sim, &stream),
                drive(&mut thr, &stream),
                "{case}, all down"
            );
            for r in 0..3 {
                sim.world_mut().network_mut().recover(NodeId(r));
                thr.recover(r);
            }
            assert_eq!(
                drive(&mut sim, &stream),
                drive(&mut thr, &stream),
                "{case}, recovered"
            );
            cases += 1;
        }
    }
    cases
}

/// Both families across a total outage: a `Deq` or a debit after the
/// recovery finds none of the enqueues or credits written while every
/// replica was down.
#[test]
fn writes_that_reached_no_replica_stay_lost_on_both_backends() {
    use QueueInv::{Deq, Enq};
    let taxi = [Enq(3), Enq(7), Deq, Deq, Deq, Enq(5), Deq];
    let taxi_kinds = [QueueKind::Enq, QueueKind::Deq];
    assert_eq!(
        agree_across_a_total_outage(TaxiQueueType, taxi_kinds, &taxi),
        144
    );
    use AccountInv::{Credit, Debit};
    let account = [Credit(5), Debit(3), Credit(1), Debit(4), Debit(9), Debit(1)];
    let account_kinds = [AccountKind::Credit, AccountKind::Debit];
    assert_eq!(
        agree_across_a_total_outage(BankAccountType, account_kinds, &account),
        144
    );
}

/// A CALM-free write that reached no replica waits in the client's WAL
/// on both backends: a credit runs while every replica is down, the
/// replicas recover, and the next run's debit reads it and lands it with
/// its own write, as the credit after it does its own.
#[test]
fn a_free_write_no_replica_took_lands_from_the_wal_after_recovery() {
    let policy = SchedulingPolicy::coordination_free([AccountKind::Credit]);
    let mut sim = QuorumSystem::new(
        BankAccountType,
        3,
        account_assignment(3),
        ClientConfig::default(),
        fifo_network(),
        7,
    )
    .with_scheduling(policy.clone());
    let config = ThreadedConfig::default();
    let mut thr = ThreadedSystem::new(BankAccountType, 3, 1, account_assignment(3), config)
        .with_scheduling(policy);
    for r in 0..3 {
        sim.world_mut().network_mut().crash(NodeId(r));
        thr.crash(r);
    }
    let outage = [(0, AccountInv::Credit(5))];
    let (sim_seen, thr_seen) = (drive(&mut sim, &outage), drive(&mut thr, &outage));
    assert_eq!(sim_seen, thr_seen, "all down");
    assert!(thr_seen.history.is_empty(), "no replica took the credit");
    for r in 0..3 {
        sim.world_mut().network_mut().recover(NodeId(r));
        thr.recover(r);
    }
    let later = [(0, AccountInv::Debit(3)), (0, AccountInv::Credit(1))];
    let (sim_seen, thr_seen) = (drive(&mut sim, &later), drive(&mut thr, &later));
    assert_eq!(sim_seen, thr_seen, "recovered");
    assert_eq!(
        thr_seen.shapes[0][1],
        OutcomeShape::Completed(AccountOp::DebitOk(3)),
        "the debit read the credit"
    );
    for log in &thr_seen.replica_logs {
        assert_eq!(log.len(), 3, "the credit landed from the WAL");
    }
}

/// Racing clients: interleaving is backend-specific, so compare
/// structure — per-client outcome kinds in phase one, then a quiesced
/// single-client drain whose multiset must recover every enqueue.
#[test]
fn racing_clients_agree_structurally() {
    const N: usize = 3;
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 5;

    let mut sim = QuorumSystem::with_clients(
        TaxiQueueType,
        N,
        CLIENTS,
        taxi_assignment(N),
        ClientConfig::default(),
        fifo_network(),
        11,
    );
    let mut thr = ThreadedSystem::new(
        TaxiQueueType,
        N,
        CLIENTS,
        taxi_assignment(N),
        ThreadedConfig {
            shards: 3,
            batch: 2,
            flush_micros: 10,
        },
    );

    // Phase one: every client enqueues distinct values, racing.
    let mut stream: Vec<(usize, QueueInv)> = Vec::new();
    for c in 0..CLIENTS {
        for i in 0..PER_CLIENT {
            stream.push((c, QueueInv::Enq((c * 100 + i) as i64)));
        }
    }
    let sim_phase1 = drive(&mut sim, &stream);
    let thr_phase1 = drive(&mut thr, &stream);
    for seen in [&sim_phase1, &thr_phase1] {
        for (c, shapes) in seen.shapes.iter().enumerate() {
            assert_eq!(shapes.len(), PER_CLIENT, "client {c}");
            assert!(
                shapes
                    .iter()
                    .all(|s| matches!(s, OutcomeShape::Completed(QueueOp::Enq(_)))),
                "client {c}: {shapes:?}"
            );
        }
        assert_eq!(seen.history.len(), CLIENTS * PER_CLIENT);
    }
    let enqueued: std::collections::BTreeSet<i64> = (0..CLIENTS)
        .flat_map(|c| (0..PER_CLIENT).map(move |i| (c * 100 + i) as i64))
        .collect();

    // Phase two: one client drains everything, plus overdraws that both
    // backends must refuse against the then-empty visible bag.
    let total = CLIENTS * PER_CLIENT;
    let drain: Vec<(usize, QueueInv)> = (0..total + 2).map(|_| (0, QueueInv::Deq)).collect();
    let sim_drained = drive(&mut sim, &drain);
    let thr_drained = drive(&mut thr, &drain);
    for seen in [&sim_drained, &thr_drained] {
        let client0 = &seen.shapes[0][PER_CLIENT..];
        let got: std::collections::BTreeSet<i64> = client0
            .iter()
            .filter_map(|s| match s {
                OutcomeShape::Completed(QueueOp::Deq(v)) => Some(*v),
                _ => None,
            })
            .collect();
        assert_eq!(got, enqueued, "the drain must surface every enqueue");
        assert_eq!(
            client0
                .iter()
                .filter(|s| matches!(s, OutcomeShape::Refused))
                .count(),
            2,
            "both extra dequeues refused"
        );
    }
}
