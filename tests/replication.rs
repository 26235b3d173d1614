//! Cross-crate integration: the operational replicated objects against
//! their lattice specifications, under failure injection.

use relaxation_lattice::automata::{History, ObjectAutomaton, SplitMix64};
use relaxation_lattice::core::lattices::taxi::{TaxiLattice, TaxiPoint};
use relaxation_lattice::queues::{
    AccountAutomaton, AccountOp, BouncingAccountAutomaton, PQueueAutomaton, QueueOp,
};
use relaxation_lattice::quorum::protocol::wire::Outcome;
use relaxation_lattice::quorum::relation::{AccountKind, QueueKind};
use relaxation_lattice::quorum::types::{AccountInv, BankAccountType, QueueInv, TaxiQueueType};
use relaxation_lattice::quorum::{queue_relation, ClientConfig, QuorumSystem, VotingAssignment};
use relaxation_lattice::sim::{Fault, FaultSchedule, NetworkConfig, NodeId, Partition, SimTime};

fn preferred_assignment(n: usize) -> VotingAssignment<QueueKind> {
    let maj = n / 2 + 1;
    let a = VotingAssignment::new(n)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, maj)
        .with_initial(QueueKind::Deq, maj)
        .with_final(QueueKind::Deq, maj);
    assert!(a.satisfies(&queue_relation(true, true)));
    a
}

#[test]
fn healthy_runs_are_one_copy_serializable_across_seeds() {
    for seed in 0..15 {
        let mut sys = QuorumSystem::new(
            TaxiQueueType,
            3,
            preferred_assignment(3),
            ClientConfig::default(),
            NetworkConfig::new(1, 15, 0.0),
            seed,
        );
        for i in [4, 9, 1, 7] {
            sys.submit(QueueInv::Enq(i));
        }
        for _ in 0..4 {
            sys.submit(QueueInv::Deq);
        }
        assert!(sys.run_to_quiescence(1_000_000));
        let h = sys.merged_history();
        if let Some(i) = PQueueAutomaton::new().first_rejection(&h) {
            panic!("seed {seed}: PQ rejects op {i}, {}, of {h}", h.ops()[i]);
        }
    }
}

#[test]
fn relaxed_runs_stay_within_the_lattice_bottom() {
    // All-quorums-of-one under crash churn: whatever happens, the merged
    // history is accepted by the degenerate behavior (items are never
    // invented), i.e. degradation stays *within the specified lattice*.
    let lattice = TaxiLattice::new();
    let degen = lattice.reference(TaxiPoint {
        q1: false,
        q2: false,
    });
    for seed in 0..15 {
        let assignment = VotingAssignment::new(3)
            .with_initial(QueueKind::Enq, 1)
            .with_final(QueueKind::Enq, 1)
            .with_initial(QueueKind::Deq, 1)
            .with_final(QueueKind::Deq, 1);
        let mut sys = QuorumSystem::new(
            TaxiQueueType,
            3,
            assignment,
            ClientConfig { timeout: 100 },
            NetworkConfig::new(1, 15, 0.0),
            seed,
        );
        sys.world_mut().set_schedule(
            FaultSchedule::new()
                .down_between(NodeId(0), SimTime(50), SimTime(400))
                .down_between(NodeId(1), SimTime(250), SimTime(600)),
        );
        for i in [3, 8, 5] {
            sys.submit(QueueInv::Enq(i));
        }
        for _ in 0..3 {
            sys.submit(QueueInv::Deq);
        }
        sys.run_to_quiescence(1_000_000);
        let h = sys.merged_history();
        if let Some(i) = degen.first_rejection(&h) {
            panic!(
                "seed {seed}: DegenPQ rejects op {i}, {}, of {h}",
                h.ops()[i]
            );
        }
    }
}

#[test]
fn account_never_overdraws_under_partitions_and_loss() {
    // A2 held (debit finals cover all sites), A1 relaxed, messages lost,
    // one replica flapping: completed DebitOks never exceed credits.
    let mut rejected = Vec::new();
    for seed in 0..10 {
        let assignment = VotingAssignment::new(3)
            .with_initial(AccountKind::Credit, 1)
            .with_final(AccountKind::Credit, 1)
            .with_initial(AccountKind::Debit, 1)
            .with_final(AccountKind::Debit, 3);
        let mut sys = QuorumSystem::new(
            BankAccountType,
            3,
            assignment,
            ClientConfig { timeout: 300 },
            NetworkConfig::new(1, 20, 0.05),
            seed,
        );
        sys.world_mut()
            .set_schedule(FaultSchedule::new().down_between(NodeId(2), SimTime(100), SimTime(450)));
        let invs = [
            AccountInv::Credit(10),
            AccountInv::Debit(4),
            AccountInv::Credit(3),
            AccountInv::Debit(9),
            AccountInv::Debit(2),
        ];
        for inv in invs {
            sys.submit(inv);
        }
        sys.run_to_quiescence(2_000_000);

        let mut credits = 0i64;
        let mut debits = 0i64;
        for o in sys.outcomes() {
            if let Outcome::Completed { op, .. } = o {
                match op {
                    AccountOp::Credit(n) => credits += i64::from(*n),
                    AccountOp::DebitOk(n) => debits += i64::from(*n),
                    AccountOp::DebitOverdraft(_) => {}
                }
            }
        }
        assert!(
            debits <= credits,
            "seed {seed}: overdrew ({debits} > {credits})"
        );

        // The replicas' log is another matter. A debit that timed out
        // may still have landed below its final quorum, where a later
        // debit's view can miss it; the log then overdraws. Each
        // rejection must be of that kind, and the rejected seeds are
        // pinned, so a new kind of rejection fails here.
        let h = sys.merged_history();
        if let Some(i) = BouncingAccountAutomaton::new().first_rejection(&h) {
            let landed = |n: &u32| {
                h.iter().any(|op| {
                    matches!(op, AccountOp::DebitOk(m) | AccountOp::DebitOverdraft(m) if m == n)
                })
            };
            assert!(
                invs.iter().zip(sys.outcomes()).any(|(inv, o)| {
                    matches!((inv, o), (AccountInv::Debit(n), Outcome::TimedOut) if landed(n))
                }),
                "seed {seed}: {{A2}} rejects op {i}, {}, of {h}, and no timed-out debit landed",
                h.ops()[i]
            );
            rejected.push(seed);
        }
    }
    assert_eq!(rejected, [0, 7], "seeds whose replicated log overdraws");
}

#[test]
fn operational_account_histories_live_in_the_declarative_lattice() {
    // Cross-validation of the two sides of the paper: the *operational*
    // replicated account (A1 relaxed, A2 held) only ever produces merged
    // histories that the *declarative* QCA(Account, {A2}, η) accepts. The
    // runtime's actual read-quorum views are existence witnesses for the
    // QCA's Q-views.
    let mut saw_degraded = false;
    for seed in 0..25 {
        let assignment = VotingAssignment::new(3)
            .with_initial(AccountKind::Credit, 0)
            .with_final(AccountKind::Credit, 1)
            .with_initial(AccountKind::Debit, 1)
            .with_final(AccountKind::Debit, 3);
        let mut sys = QuorumSystem::new(
            BankAccountType,
            3,
            assignment,
            ClientConfig::default(),
            NetworkConfig::new(1, 25, 0.0),
            seed,
        );
        sys.submit(AccountInv::Credit(7));
        sys.submit(AccountInv::Debit(5));
        sys.submit(AccountInv::Credit(2));
        sys.submit(AccountInv::Debit(4));
        sys.run_to_quiescence(1_000_000);

        let h = sys.merged_history();
        if let Some(i) = BouncingAccountAutomaton::new().first_rejection(&h) {
            panic!("seed {seed}: {{A2}} rejects op {i}, {}, of {h}", h.ops()[i]);
        }
        // A genuinely degraded (but specified) run.
        saw_degraded |= AccountAutomaton::new().first_rejection(&h).is_some();
    }
    assert!(
        saw_degraded,
        "expected at least one spurious bounce across seeds"
    );
}

/// One client against 3 replicas over 12 windows of 8 random taxi ops;
/// window `w` cuts replica `w % 3` off from the client and the other
/// two, and a heal follows. Returns the merged history.
fn rotating_partition_run(deq_initial: usize, seed: u64) -> History<QueueOp> {
    let assignment = VotingAssignment::new(3)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, 2)
        .with_initial(QueueKind::Deq, deq_initial)
        .with_final(QueueKind::Deq, 2);
    let mut sys = QuorumSystem::new(
        TaxiQueueType,
        3,
        assignment,
        ClientConfig::default(),
        NetworkConfig::new(1, 5, 0.0),
        seed,
    );
    let mut rng = SplitMix64::seed_from_u64(seed);
    for w in 0..12 {
        let lone = NodeId(w % 3);
        let rest = (0..4).map(NodeId).filter(|&r| r != lone).collect();
        let now = sys.world().now().0;
        sys.world_mut().set_schedule(FaultSchedule::new().at(
            SimTime(now + 1),
            Fault::Partition(Partition::groups(vec![rest, vec![lone]])),
        ));
        sys.run_until(SimTime(now + 1));
        for _ in 0..8 {
            sys.submit(if rng.gen_bool(0.5) {
                QueueInv::Enq(rng.range_u64(0, 9) as i64)
            } else {
                QueueInv::Deq
            });
        }
        sys.run_to_quiescence(1_000_000);
    }
    let now = sys.world().now().0;
    sys.world_mut()
        .set_schedule(FaultSchedule::new().at(SimTime(now + 1), Fault::Heal));
    sys.run_to_quiescence(1_000_000);
    sys.merged_history()
}

#[test]
fn the_whole_run_check_catches_what_a_12_op_probe_misses() {
    // At `{Q1,Q2}` (Enq 1/2, Deq 2/2) every merged history is a PQ
    // history, whichever replica the window cuts off.
    for seed in 0..50 {
        let h = rotating_partition_run(2, seed);
        if let Some(i) = PQueueAutomaton::new().first_rejection(&h) {
            panic!("seed {seed}: PQ rejects op {i}, {}, of {h}", h.ops()[i]);
        }
    }
    // A `Deq` initial quorum of 1 drops Q1 and Q2. The whole-run check
    // rejects some seed, and more seeds than a probe of the first 12
    // ops does.
    let rejections: Vec<usize> = (0..50)
        .filter_map(|seed| PQueueAutomaton::new().first_rejection(&rotating_partition_run(1, seed)))
        .collect();
    let within_probe = rejections.iter().filter(|&&i| i < 12).count();
    assert!(!rejections.is_empty(), "no seed rejects the mutant");
    assert!(
        within_probe < rejections.len(),
        "every rejection is within the first 12 ops: {rejections:?}"
    );
}

#[test]
fn availability_ordering_matches_quorum_sizes() {
    // Under the same outage, the enq-cheap assignment completes strictly
    // more Enq operations than the majority assignment completes Deqs.
    let outage = || {
        FaultSchedule::new()
            .down_between(NodeId(0), SimTime(0), SimTime(10_000))
            .down_between(NodeId(1), SimTime(0), SimTime(10_000))
    };
    // Majority assignment: everything needs 2 of 3 — all unavailable.
    let mut majority = QuorumSystem::new(
        TaxiQueueType,
        3,
        preferred_assignment(3),
        ClientConfig { timeout: 100 },
        NetworkConfig::default(),
        5,
    );
    majority.world_mut().set_schedule(outage());
    majority.submit(QueueInv::Enq(1));
    majority.run_until(SimTime(5_000));
    let majority_ok = majority
        .outcomes()
        .iter()
        .filter(|o| o.is_completed())
        .count();

    // Enq-cheap: quorums of one for Enq still work.
    let enq_cheap = VotingAssignment::new(3)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, 1)
        .with_initial(QueueKind::Deq, 3)
        .with_final(QueueKind::Deq, 1);
    let mut cheap = QuorumSystem::new(
        TaxiQueueType,
        3,
        enq_cheap,
        ClientConfig { timeout: 100 },
        NetworkConfig::default(),
        5,
    );
    cheap.world_mut().set_schedule(outage());
    cheap.submit(QueueInv::Enq(1));
    cheap.run_until(SimTime(5_000));
    let cheap_ok = cheap.outcomes().iter().filter(|o| o.is_completed()).count();

    assert_eq!(majority_ok, 0);
    assert_eq!(cheap_ok, 1);
}

#[test]
fn trace_analysis_names_the_flapping_partitions_as_degradation_root_cause() {
    // The §3.3 degradation scenario, closed through the offline pipeline:
    // run with trace + monitor, export JSONL, re-ingest, rebuild the
    // happens-before DAG, and assert (a) per-op latency attribution sums
    // exactly to each measured end-to-end latency, and (b) the causal
    // fault cut behind the witnessed PQ -> MPQ transition is exactly the
    // two flapping partitions — the later crash, which is causally
    // unrelated to the witness, must not appear.
    use relaxation_lattice::quorum::queue_lattice_monitor;
    use relaxation_lattice::trace::{read_trace, EventKind, TraceAnalysis};

    let n = 3;
    let client = NodeId(n);
    let schedule = FaultSchedule::new()
        .at(
            SimTime(200),
            Fault::Partition(Partition::groups(vec![
                vec![client, NodeId(0)],
                vec![NodeId(1), NodeId(2)],
            ])),
        )
        .at(
            SimTime(400),
            Fault::Partition(Partition::groups(vec![
                vec![client, NodeId(1)],
                vec![NodeId(0), NodeId(2)],
            ])),
        )
        .at(SimTime(600), Fault::Crash(NodeId(1)))
        .at(SimTime(900), Fault::Heal)
        .at(SimTime(900), Fault::Recover(NodeId(1)));

    // Q1 holds, Q2 deliberately dropped: duplication (MPQ) is invited.
    let q1_only = VotingAssignment::new(n)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, n)
        .with_initial(QueueKind::Deq, 1)
        .with_final(QueueKind::Deq, 1);
    let mut sys = QuorumSystem::new(
        TaxiQueueType,
        n,
        q1_only,
        ClientConfig::default(),
        NetworkConfig::new(1, 10, 0.0),
        0x5EED,
    )
    .with_trace(4096)
    .with_monitor(queue_lattice_monitor());
    sys.world_mut().set_schedule(schedule);

    sys.submit(QueueInv::Enq(5));
    sys.run_until(SimTime(200));
    sys.submit(QueueInv::Deq); // served by r0
    sys.run_until(SimTime(400));
    sys.submit(QueueInv::Deq); // served *again* by r1 — the witness
    sys.run_until(SimTime(600));
    sys.submit(QueueInv::Deq); // r1 down: timeout
    sys.run_until(SimTime(900));
    sys.submit(QueueInv::Enq(9));
    sys.submit(QueueInv::Deq);
    assert!(sys.run_to_quiescence(1_000_000));

    // Export and re-ingest: the analysis sees only the JSONL bytes.
    let jsonl = sys.world().tracer().export_jsonl();
    let parsed = read_trace(&jsonl).expect("exported trace re-ingests");
    let analysis = TraceAnalysis::from_trace(parsed);

    // (a) Attribution is exact: the four phases partition each op's
    // measured end-to-end latency.
    assert!(!analysis.spans().is_empty());
    for span in analysis.spans() {
        assert_eq!(
            span.breakdown.total(),
            span.latency,
            "attribution must sum to the measured latency for {}",
            span.label.as_str()
        );
    }

    // (b) Exactly one degradation, PQ (and OPQ) -> MPQ, and its causal
    // fault cut is the two flapping partitions at t=200 and t=400.
    assert_eq!(analysis.root_causes().len(), 1);
    let rc = &analysis.root_causes()[0];
    assert!(rc.transition.left.iter().any(|l| l == "PQ"));
    assert_eq!(rc.transition.now.as_deref(), Some("MPQ"));
    assert!(rc.transition.witness.starts_with("Deq"));
    let events = analysis.graph().events();
    let cut: Vec<(u64, &EventKind)> = rc
        .fault_cut
        .iter()
        .map(|&i| (events[i].time, &events[i].kind))
        .collect();
    assert_eq!(cut.len(), 2, "cut should be the two partitions: {cut:?}");
    assert!(matches!(cut[0], (200, EventKind::PartitionSet { .. })));
    assert!(matches!(cut[1], (400, EventKind::PartitionSet { .. })));
    assert!(
        !rc.fault_cut
            .iter()
            .any(|&i| matches!(events[i].kind, EventKind::NodeCrashed { .. })),
        "the crash at t=600 is causally after the witness"
    );

    // The report names the faults in plain language.
    let report = analysis.report();
    assert!(report.contains("why we degraded"));
    assert!(report.contains("partition set"));
}
