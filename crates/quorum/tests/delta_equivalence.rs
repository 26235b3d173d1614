//! Differential verification of delta replication: under random fault
//! schedules, gossip intervals, message loss, and workloads, a
//! production run ([`ReplicationMode::Merkle`]: delta payloads, memoized
//! view evaluation) is observably identical to a
//! [`ReplicationMode::FullLog`] run (whole logs, fresh evaluation) —
//! same outcomes, same merged history, same final replica logs, same
//! degradation-monitor transitions, same message count — while never
//! shipping more bytes.
//!
//! The argument the tests check operationally: delta payloads change
//! only message *contents*, never which messages are sent or when, so
//! the simulator draws the same delays and losses in the same order;
//! every omitted entry is one the receiver provably already holds
//! (logs only grow, and a frontier confirms a site's prefix by count,
//! max, and hash), so every merge lands in the same state; and
//! anti-entropy reads nothing but the replica logs, so the replicas
//! gossip the same tree nodes at the same ticks under either client.
//!
//! The production client also folds a view only when the response reads
//! its value, where the reference evaluates every view of every
//! invocation. The rotating-partition runs vary the share of invocations
//! that read (none, one in sixteen, one in two), so a demand that follows
//! a long unevaluated stretch with splices in it is compared with the
//! eager answer outcome for outcome.
//!
//! The production client also builds every view in one buffer it keeps
//! across invocations, where the reference starts each from a fresh
//! log. Four scripted runs at the end put something in that buffer the
//! next invocation's replicas do not hold, and require that none of it
//! shows: each fails if the first read response merges into the buffer
//! instead of replacing it.

use proptest::prelude::*;

use relax_queues::QueueOp;
use relax_quorum::protocol::wire::Outcome;
use relax_quorum::relation::QueueKind;
use relax_quorum::types::{queue_lattice_monitor, QueueInv, TaxiQueueType};
use relax_quorum::{
    outcome_shapes, ClientConfig, Log, OutcomeShape, QuorumSystem, ReplicationMode,
    VotingAssignment,
};
use relax_sim::{Fault, FaultSchedule, NetworkConfig, NodeId, Partition, SimTime};

/// Replicas; the single client is `NodeId(N)`.
const N: usize = 3;

/// Majority-Deq taxi-queue assignment (the runtime's canonical shape).
fn taxi_assignment(n: usize) -> VotingAssignment<QueueKind> {
    let maj = n / 2 + 1;
    VotingAssignment::new(n)
        .with_initial(QueueKind::Deq, maj)
        .with_final(QueueKind::Deq, maj)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, n - maj + 1)
}

/// Everything externally observable about one run.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    outcomes: Vec<Outcome<QueueOp>>,
    history: Vec<QueueOp>,
    replica_logs: Vec<Log<QueueOp>>,
    transitions: Vec<(usize, Vec<String>, Option<String>)>,
    messages: u64,
}

/// One randomized environment + workload.
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    loss: f64,
    gossip: Option<u64>,
    /// Node `i` (of the `N + 1` nodes) goes in partition group A iff bit
    /// `i` is set; masks leaving a group empty mean "no partition".
    part_mask: u8,
    part_at: u64,
    part_len: u64,
    crash: Option<(usize, u64, u64)>,
    /// The lattice monitor's MPQ frontier can branch on every `Deq`, so
    /// it is only attached on short workloads (the monitor-transition
    /// comparison needs it; long byte-ratio runs don't).
    monitor: bool,
    invs: Vec<QueueInv>,
}

/// One run's observables, bytes sent, and view-cache `(hits, misses)`.
fn run_one(mode: ReplicationMode, s: &Scenario) -> (Observed, u64, (u64, u64)) {
    let mut sys = QuorumSystem::new(
        TaxiQueueType,
        N,
        taxi_assignment(N),
        ClientConfig::default(),
        NetworkConfig::new(1, 10, s.loss),
        s.seed,
    )
    .with_replication(mode)
    .with_wire_accounting();
    if s.monitor {
        sys = sys.with_monitor(queue_lattice_monitor());
    }
    if let Some(g) = s.gossip {
        sys = sys.with_gossip(g);
    }

    let mut sched = FaultSchedule::new();
    let group_a: Vec<NodeId> = (0..=N)
        .filter(|i| s.part_mask & (1 << i) != 0)
        .map(NodeId)
        .collect();
    let group_b: Vec<NodeId> = (0..=N)
        .filter(|i| s.part_mask & (1 << i) == 0)
        .map(NodeId)
        .collect();
    if !group_a.is_empty() && !group_b.is_empty() {
        sched = sched
            .at(
                SimTime(s.part_at),
                Fault::Partition(Partition::groups(vec![group_a, group_b])),
            )
            .at(SimTime(s.part_at + s.part_len), Fault::Heal);
    }
    if let Some((r, from, len)) = s.crash {
        sched = sched.down_between(NodeId(r % N), SimTime(from), SimTime(from + len));
    }
    sys.world_mut().set_schedule(sched);

    for inv in &s.invs {
        sys.submit(*inv);
    }
    sys.run_until(SimTime(3_000));

    let bytes = sys.world().bytes_sent();
    (observed(&sys), bytes, sys.viewcache_counts())
}

fn observed(sys: &QuorumSystem<TaxiQueueType>) -> Observed {
    Observed {
        outcomes: sys.outcomes().to_vec(),
        history: sys.merged_history().into_ops(),
        replica_logs: (0..N).map(|i| sys.replica_log(i).clone()).collect(),
        transitions: sys
            .monitor()
            .map(|m| {
                m.transitions()
                    .iter()
                    .map(|t| (t.op_index, t.left.clone(), t.now.clone()))
                    .collect()
            })
            .unwrap_or_default(),
        messages: sys.world().messages_sent(),
    }
}

fn check_equivalence(s: &Scenario) -> Result<(), proptest::TestCaseError> {
    let (full, full_bytes, _) = run_one(ReplicationMode::FullLog, s);
    let (delta, delta_bytes, _) = run_one(ReplicationMode::Merkle, s);
    prop_assert_eq!(
        &full,
        &delta,
        "observable divergence under {:?} (full {} bytes, delta {} bytes)",
        s,
        full_bytes,
        delta_bytes
    );
    // On tiny histories the frontier metadata (≤ 28 bytes per site per
    // message) can outweigh the entries saved, so the sound bound is
    // full-log bytes plus that overhead; the long-history test below
    // pins the actual reduction.
    let frontier_overhead = delta.messages * (N as u64) * 28;
    prop_assert!(
        delta_bytes <= full_bytes + frontier_overhead,
        "delta shipped more than full-log + frontier overhead \
         ({delta_bytes} > {full_bytes} + {frontier_overhead}) under {s:?}"
    );
    Ok(())
}

proptest! {
    /// The differential property: production ≡ full-log, observably, under
    /// random partitions, crashes, gossip intervals, loss rates, and
    /// workloads.
    #[test]
    fn delta_is_observably_equivalent_to_full_log(
        seed in 0u64..1_000_000,
        loss in 0.0f64..0.3,
        gossip_raw in (any::<bool>(), 5u64..60),
        part_mask in 1u8..15,
        part_at in 10u64..200,
        part_len in 20u64..400,
        crash_raw in ((any::<bool>(), 0usize..3), (10u64..200, 20u64..300)),
        invs_raw in proptest::collection::vec((0u8..3, 0i64..8), 1..24),
    ) {
        let s = Scenario {
            seed,
            loss,
            gossip: gossip_raw.0.then_some(gossip_raw.1),
            part_mask,
            part_at,
            part_len,
            crash: (crash_raw.0).0.then_some(((crash_raw.0).1, (crash_raw.1).0, (crash_raw.1).1)),
            monitor: true,
            invs: invs_raw
                .into_iter()
                .map(|(k, v)| if k == 2 { QueueInv::Deq } else { QueueInv::Enq(v) })
                .collect(),
        };
        check_equivalence(&s)?;
    }
}

/// The benchmark's `sim_partition_heal` phase 1 in small: two clients,
/// gossip off, a partition rotating through `windows` windows of `per`
/// invocations a client. Client a (node `N`) keeps a majority and makes
/// every `deq_every`-th invocation a `Deq`; client b sits with one lone
/// replica and enqueues, so each rotation splices b's entries into what
/// a reads next. Returns both clients' outcomes, the rest of what is
/// observable, and the view caches' `(hits + misses, entries replayed)`.
#[allow(clippy::type_complexity)]
fn rotation_run(
    mode: ReplicationMode,
    seed: u64,
    max_delay: u64,
    deq_every: Option<usize>,
    (windows, per): (usize, usize),
) -> (
    Vec<Outcome<QueueOp>>,
    Vec<Outcome<QueueOp>>,
    Observed,
    (u64, u64),
) {
    let mut sys = QuorumSystem::with_clients(
        TaxiQueueType,
        N,
        2,
        quorums((1, 1), (2, 2)),
        ClientConfig::default(),
        NetworkConfig::new(1, max_delay, 0.0),
        seed,
    )
    .with_replication(mode);
    let mut submitted = 0;
    for w in 0..windows {
        let lone = NodeId(w % N);
        let with_a = (0..N).map(NodeId).filter(|&r| r != lone).chain([NodeId(N)]);
        let now = sys.world().now().0;
        sys.world_mut().set_schedule(FaultSchedule::new().at(
            SimTime(now + 1),
            Fault::Partition(Partition::groups(vec![
                with_a.collect(),
                vec![NodeId(N + 1), lone],
            ])),
        ));
        sys.run_until(SimTime(now + 1));
        for i in 0..per {
            let id = (submitted + i) as i64;
            let reads = deq_every.is_some_and(|k| (submitted + i) % k == k - 1);
            sys.submit_to(
                0,
                if reads {
                    QueueInv::Deq
                } else {
                    QueueInv::Enq(2 * id)
                },
            );
            sys.submit_to(1, QueueInv::Enq(2 * id + 1));
        }
        submitted += per;
        let mut at = now + 1;
        while sys.outcomes_of(0).len() < submitted || sys.outcomes_of(1).len() < submitted {
            at += 500;
            sys.run_until(SimTime(at));
        }
    }
    let (hits, misses) = sys.viewcache_counts();
    (
        sys.outcomes_of(0).to_vec(),
        sys.outcomes_of(1).to_vec(),
        observed(&sys),
        (hits + misses, sys.viewcache_replayed_entries()),
    )
}

proptest! {
    /// Lazy ≡ eager: whatever share of client a's invocations reads the
    /// view's value, the production run (folds on demand) and the
    /// reference (folds every view) agree on everything observable; and
    /// a run in which nothing reads folds nothing.
    #[test]
    fn views_folded_on_demand_answer_as_views_folded_always(
        seed in 0u64..1_000_000,
        max_delay in 1u64..8,
        windows in 3usize..8,
        per in 8usize..20,
    ) {
        for deq_every in [None, Some(16), Some(2)] {
            let shape = (windows, per);
            let full = rotation_run(ReplicationMode::FullLog, seed, max_delay, deq_every, shape);
            let lazy = rotation_run(ReplicationMode::Merkle, seed, max_delay, deq_every, shape);
            prop_assert_eq!(&full.0, &lazy.0, "client a, a Deq every {:?}", deq_every);
            prop_assert_eq!(&full.1, &lazy.1, "client b, a Deq every {:?}", deq_every);
            prop_assert_eq!(&full.2, &lazy.2, "a Deq every {:?}", deq_every);
            prop_assert!(full.0.iter().chain(&full.1).all(|o| !o.is_timeout()));
            prop_assert_eq!(full.3, (0, 0), "the reference consulted the cache");
            // One fold per dequeue, none for anything else.
            let deqs = deq_every.map_or(0, |k| (windows * per / k) as u64);
            prop_assert_eq!(lazy.3.0, deqs.saturating_sub(1), "folds beyond the priming one");
            prop_assert_eq!(lazy.3.1 == 0, deqs == 0, "entries replayed: {}", lazy.3.1);
        }
    }
}

/// A deterministic long-history stress: partition + replica crash +
/// anti-entropy, ending with the byte-reduction the delta path exists
/// for. (A conservative floor; the benchmark's `sim_partition_heal`
/// reports the absolute `wire_bytes_per_op`.)
#[test]
fn long_history_delta_bytes_shrink_under_faults() {
    let s = Scenario {
        seed: 0xFEED,
        loss: 0.0,
        gossip: Some(25),
        part_mask: 0b0101,
        part_at: 100,
        part_len: 300,
        crash: Some((1, 600, 200)),
        monitor: false,
        invs: (0..150)
            .map(|i| {
                if i % 5 == 4 {
                    QueueInv::Deq
                } else {
                    QueueInv::Enq(i)
                }
            })
            .collect(),
    };
    let (full, full_bytes, _) = run_one(ReplicationMode::FullLog, &s);
    let (delta, delta_bytes, _) = run_one(ReplicationMode::Merkle, &s);
    assert_eq!(full, delta, "observable divergence on the long history");
    assert!(
        delta_bytes * 4 < full_bytes,
        "expected ≥4x byte reduction, got {full_bytes} vs {delta_bytes}"
    );
}

/// The reference shares no cache with what it checks: a full-log run
/// evaluates every view from scratch and never consults the view cache,
/// a production run does.
#[test]
fn the_full_log_reference_never_touches_the_view_cache() {
    let s = Scenario {
        seed: 0xABCD,
        loss: 0.1,
        gossip: Some(40),
        part_mask: 0b0011,
        part_at: 50,
        part_len: 250,
        crash: None,
        monitor: true,
        invs: (0..40)
            .map(|i| {
                if i % 3 == 2 {
                    QueueInv::Deq
                } else {
                    QueueInv::Enq(i)
                }
            })
            .collect(),
    };
    let (_, _, reference) = run_one(ReplicationMode::FullLog, &s);
    let (_, _, production) = run_one(ReplicationMode::Merkle, &s);
    assert_eq!(reference, (0, 0));
    assert!(
        production.0 + production.1 > 0,
        "production consults the cache"
    );
}

/// The client's directed link to replica `r`, blocked or restored: a
/// blocked replica hears nothing from the client and so says nothing.
fn cut(r: usize) -> Fault {
    Fault::BlockLink(NodeId(N), NodeId(r))
}
fn join(r: usize) -> Fault {
    Fault::UnblockLink(NodeId(N), NodeId(r))
}

/// `(initial, final)` quorum sizes for `Enq` and for `Deq`.
fn quorums(enq: (usize, usize), deq: (usize, usize)) -> VotingAssignment<QueueKind> {
    VotingAssignment::new(N)
        .with_initial(QueueKind::Enq, enq.0)
        .with_final(QueueKind::Enq, enq.1)
        .with_initial(QueueKind::Deq, deq.0)
        .with_final(QueueKind::Deq, deq.1)
}

/// One client, gossip off, a script of `(tick, faults, invocations)`:
/// at each tick the faults land, then the invocations are submitted.
/// Runs the script on the production path and on the reference, requires
/// the two to be observably identical, and returns the outcome shapes
/// and the final replica logs.
fn scripted(
    assignment: &VotingAssignment<QueueKind>,
    script: &[(u64, &[Fault], &[QueueInv])],
) -> (Vec<OutcomeShape<QueueOp>>, Vec<Log<QueueOp>>) {
    let run = |mode: ReplicationMode| {
        let mut sys = QuorumSystem::new(
            TaxiQueueType,
            N,
            assignment.clone(),
            ClientConfig::default(),
            NetworkConfig::new(1, 10, 0.0),
            0x5EED,
        )
        .with_replication(mode);
        let mut sched = FaultSchedule::new();
        for &(at, faults, _) in script {
            for fault in faults {
                sched = sched.at(SimTime(at), fault.clone());
            }
        }
        sys.world_mut().set_schedule(sched);
        for &(at, _, invs) in script {
            sys.run_until(SimTime(at));
            invs.iter().for_each(|inv| sys.submit(*inv));
        }
        sys.run_until(SimTime(3_000));
        observed(&sys)
    };
    let (full, production) = (run(ReplicationMode::FullLog), run(ReplicationMode::Merkle));
    assert_eq!(full, production, "the kept view buffer shows");
    (
        outcome_shapes(&production.outcomes),
        production.replica_logs,
    )
}

use OutcomeShape::{Completed, Refused, TimedOut};
use QueueOp::{Deq, Enq};

/// Single-site quorums: `Enq(9)` lands at replicas 0 and 1 and never at
/// 2, and the `Deq` after it can reach only replica 2. Its view is that
/// replica's log — empty — not the longer view the buffer still holds.
#[test]
fn a_staler_first_responder_shrinks_the_view() {
    let (outcomes, _) = scripted(
        &quorums((1, 1), (1, 1)),
        &[
            (0, &[cut(2)], &[QueueInv::Enq(9)]),
            (500, &[join(2), cut(0), cut(1)], &[QueueInv::Deq]),
        ],
    );
    assert_eq!(outcomes, [Completed(Enq(9)), Refused]);
}

/// A `Deq` needing two responses gets one — replica 0's, which holds
/// `Enq(5)` — and times out with that view in the buffer. The next `Deq`
/// is served by replicas 1 and 2, which hold nothing.
#[test]
fn a_read_phase_timeout_leaves_nothing_for_the_next_invocation() {
    let (outcomes, _) = scripted(
        &quorums((1, 1), (2, 1)),
        &[
            (0, &[cut(1), cut(2)], &[QueueInv::Enq(5), QueueInv::Deq]),
            (500, &[join(1), join(2), cut(0)], &[QueueInv::Deq]),
        ],
    );
    assert_eq!(outcomes, [Completed(Enq(5)), TimedOut, Refused]);
}

/// Enqueues that read nothing (initial quorum zero). `Enq(3)` follows a
/// `Deq` that read replica 0 and must ship itself alone to replicas 1
/// and 2; the `Deq` after it reads replica 0 again, which never saw
/// `Enq(3)`, and must not find it in the buffer either.
#[test]
fn a_non_reading_invocation_responds_against_the_empty_view() {
    let (outcomes, logs) = scripted(
        &quorums((0, 1), (1, 1)),
        &[
            (
                0,
                &[cut(1), cut(2)],
                &[QueueInv::Enq(1), QueueInv::Enq(2), QueueInv::Deq],
            ),
            (500, &[join(1), join(2), cut(0)], &[QueueInv::Enq(3)]),
            (1_000, &[join(0), cut(1), cut(2)], &[QueueInv::Deq]),
        ],
    );
    let done = [Enq(1), Enq(2), Deq(2), Enq(3), Deq(1)].map(Completed);
    assert_eq!(outcomes, done);
    assert_eq!([logs[0].len(), logs[1].len(), logs[2].len()], [4, 1, 1]);
}

/// A refused `Deq` inserts nothing and leaves its view — `Enq(1)` and
/// its `Deq` — in the buffer. The `Enq` and `Deq` after it are served by
/// replica 2, which must end holding those two entries and no others.
#[test]
fn a_refused_invocation_leaves_nothing_for_the_next_one() {
    let (outcomes, logs) = scripted(
        &quorums((1, 1), (1, 1)),
        &[
            (
                0,
                &[cut(1), cut(2)],
                &[QueueInv::Enq(1), QueueInv::Deq, QueueInv::Deq],
            ),
            (500, &[join(2), cut(0)], &[QueueInv::Enq(2), QueueInv::Deq]),
        ],
    );
    let served = [Enq(1), Deq(1)].map(Completed);
    let after = [Enq(2), Deq(2)].map(Completed);
    assert_eq!(outcomes[..2], served);
    assert_eq!(outcomes[2], Refused);
    assert_eq!(outcomes[3..], after);
    assert_eq!([logs[0].len(), logs[1].len(), logs[2].len()], [2, 0, 2]);
}
