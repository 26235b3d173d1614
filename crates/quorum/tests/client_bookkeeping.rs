//! The invariant delta payloads' soundness rests on, checked after every
//! simulator event instead of argued in comments: each client's record
//! of a replica is a lower bound on that replica's log,
//!
//! ```text
//! known[r] ⊆ log_r        for every client, every replica, always.
//! ```
//!
//! A client ships `view − known[r]` to replica `r`; if `known[r]` ever
//! held an entry the replica lacks, that entry would never be shipped
//! and the write would be recorded short. Everything that grows
//! `known[r]` — a read response, an ack folding the payload that was
//! sent, a fast-path ack folding a stretch of the WAL — must therefore
//! be backed by something the replica provably merged, whatever the
//! network drops, delays, reorders or duplicates.
//!
//! The second half of the contract — the payload a write sends to `r`
//! is `shipped.diff_with(&known[r])`, whether the client built it by
//! extending the last payload or by that very diff — is checked here
//! too, from scratch, after every event. The client does not keep the
//! log it shipped, so the runs carry a *witness*: one more replica,
//! isolated from the first tick, that never answers. The client's
//! record of it stays empty, so its payload is the whole shipped log —
//! authenticated against the `(len, prefix_hash)` the client stamped
//! from the log itself — and every other replica's payload is compared
//! with the diff of that log against `known[r]`.

use proptest::prelude::*;

use relax_quorum::calm::SchedulingPolicy;
use relax_quorum::relation::{AccountKind, QueueKind};
use relax_quorum::types::{AccountInv, BankAccountType, QueueInv, ReplicatedType, TaxiQueueType};
use relax_quorum::{ClientConfig, QuorumSystem, VotingAssignment};
use relax_sim::{Fault, FaultSchedule, NetworkConfig, NodeId, Partition, SimTime};

/// Live replicas are nodes `0..N`, the witness is node `N`, the two
/// clients nodes `N + 1` and `N + 2`.
const N: usize = 3;
const WITNESS: usize = N;
const CLIENTS: usize = 2;

fn client_node(c: usize) -> NodeId {
    NodeId(N + 1 + c)
}

/// How often each client was seen to build a live replica's payload by
/// extension and by re-diff. Both fill the buffer the last payload lay
/// in, so the two are told apart by what decides between them: a
/// `known[r]` still as long as the payload's stamp is a replica that has
/// said nothing since, whose payload extends (the view having grown by a
/// suffix above it, which is what these runs' views do); one that is not
/// declines the extension.
#[derive(Debug, Default)]
struct Paths {
    extended: [u32; CLIENTS],
    rediffed: [u32; CLIENTS],
}

/// The two halves of the contract for client `c`, as of now; the second
/// only when the last event had it ship (`known[r]` is then what the
/// payloads were built against).
fn check<T: ReplicatedType<Op: PartialEq>>(
    sys: &QuorumSystem<T>,
    c: usize,
    shipped_now: bool,
) -> Result<(), String> {
    let at = format!("t={}: client {c}", sys.world().now().0);
    let book = sys.client_bookkeeping(c);
    for (r, k) in book.known.iter().enumerate() {
        if !sys.replica_log(r).contains_log(k) {
            return Err(format!(
                "{at} believes replica {r} holds {} entries, some of which it \
                 lacks (its log has {})",
                k.len(),
                sys.replica_log(r).len()
            ));
        }
    }
    // Once the witness has spoken (the account run heals it to let the
    // fast-write records retire) its payload is a diff like any.
    if !shipped_now || !book.known[WITNESS].is_empty() {
        return Ok(());
    }
    let (_, len, hash) = book.shipped;
    let shipped = &*book.sent[WITNESS].0;
    if shipped.len() != len || shipped.prefix_hash(len) != hash {
        return Err(format!(
            "{at} stamped the log it shipped ({len} entries) unlike the \
             witness's payload ({} entries)",
            shipped.len()
        ));
    }
    for r in 0..N {
        let scratch = shipped.diff(&book.known[r]);
        if *book.sent[r].0 != scratch {
            return Err(format!(
                "{at} sent replica {r} {} entries where the diff from scratch has {}",
                book.sent[r].0.len(),
                scratch.len()
            ));
        }
    }
    Ok(())
}

/// Runs the world up to `until` one event at a time, checking the
/// contract after each and counting the payload paths taken.
fn run_checked<T: ReplicatedType<Op: PartialEq>>(
    sys: &mut QuorumSystem<T>,
    until: u64,
    paths: &mut Paths,
) -> Result<(), String> {
    while sys.world().next_event_time().is_some_and(|t| t.0 <= until) {
        let before: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let book = sys.client_bookkeeping(c);
                let stamps = book.sent.iter().map(|(_, stamp)| *stamp);
                (book.shipped, stamps.collect::<Vec<_>>())
            })
            .collect();
        sys.world_mut().step();
        for (c, (shipped, sent)) in before.into_iter().enumerate() {
            let book = sys.client_bookkeeping(c);
            let shipped_now = book.shipped != shipped;
            check(sys, c, shipped_now)?;
            if !shipped_now {
                continue;
            }
            for (r, &stamp) in sent.iter().enumerate().take(N) {
                if book.known[r].len() == stamp {
                    paths.extended[c] += 1;
                } else {
                    paths.rediffed[c] += 1;
                }
            }
        }
    }
    sys.world_mut().advance_clock_to(SimTime(until));
    Ok(())
}

/// Window `w`'s fault: client b cut off with replica `lone` (client a
/// keeps the other two), or — `lone == N` — everyone together. The
/// witness is in no group, which isolates it.
fn rotate<T: ReplicatedType>(sys: &mut QuorumSystem<T>, lone: usize) {
    let at = SimTime(sys.world().now().0 + 1);
    let (a, b) = (client_node(0), client_node(1));
    let groups = if lone == N {
        vec![(0..N).map(NodeId).chain([a, b]).collect()]
    } else {
        let with_a = (0..N).filter(|&r| r != lone).map(NodeId).chain([a]);
        vec![with_a.collect(), vec![b, NodeId(lone)]]
    };
    let fault = Fault::Partition(Partition::groups(groups));
    sys.world_mut()
        .set_schedule(FaultSchedule::new().at(at, fault));
}

/// The taxi queue under the quorums the paper's example degrades to:
/// enqueues record at one site, so the cut-off client stays available.
fn taxi_system(seed: u64, max_delay: u64) -> QuorumSystem<TaxiQueueType> {
    let assignment = VotingAssignment::new(N + 1)
        .with_initial(QueueKind::Deq, N / 2 + 1)
        .with_final(QueueKind::Deq, N / 2 + 1)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, 1);
    QuorumSystem::with_clients(
        TaxiQueueType,
        N + 1,
        CLIENTS,
        assignment,
        ClientConfig::default(),
        NetworkConfig::new(1, max_delay, 0.0),
        seed,
    )
}

fn taxi_inv(kind: u8, item: i64) -> QueueInv {
    if kind == 3 {
        QueueInv::Deq
    } else {
        QueueInv::Enq(item)
    }
}

proptest! {
    /// Quorum writes only: acks fold what was sent, payloads extend or
    /// re-diff, under rotations, delays, duplication and gossip.
    #[test]
    fn known_stays_a_lower_bound_through_quorum_writes(
        seed in 0u64..1_000_000,
        max_delay in 1u64..12,
        duplication in 0.0f64..0.4,
        gossip in (any::<bool>(), 10u64..60),
        windows in proptest::collection::vec(
            (0usize..N + 1, proptest::collection::vec((0u8..4, 0u8..4), 1..8)),
            1..6,
        ),
    ) {
        let mut sys = taxi_system(seed, max_delay);
        if gossip.0 {
            sys = sys.with_gossip(gossip.1);
        }
        sys.world_mut()
            .network_mut()
            .set_duplication_probability(duplication);
        let (mut item, mut paths) = (0, Paths::default());
        for (lone, ops) in &windows {
            rotate(&mut sys, *lone);
            let now = sys.world().now().0;
            run_checked(&mut sys, now + 1, &mut paths).map_err(TestCaseError::fail)?;
            for &(a, b) in ops {
                item += 2;
                sys.submit_to(0, taxi_inv(a, item));
                sys.submit_to(1, taxi_inv(b, item + 1));
            }
            // Not every window runs dry: the next rotation may land on
            // invocations still in flight.
            let span = 30 * max_delay * ops.len() as u64;
            run_checked(&mut sys, now + 1 + span, &mut paths).map_err(TestCaseError::fail)?;
        }
    }

    /// The coordination-free path beside the quorum path: fast-write
    /// acks fold stretches of the WAL, WAL flushes land anywhere —
    /// mid-write included — and after heal plus one last flush every
    /// fast-write record retires.
    #[test]
    fn known_stays_a_lower_bound_through_fast_writes_and_flushes(
        seed in 0u64..1_000_000,
        max_delay in 1u64..12,
        duplication in 0.0f64..0.4,
        debits_read in any::<bool>(),
        windows in proptest::collection::vec(
            (
                0usize..N + 1,
                proptest::collection::vec((any::<bool>(), any::<bool>()), 1..8),
                (any::<bool>(), 0u64..40),
            ),
            1..6,
        ),
    ) {
        // A debit that reads merges the WAL into its view, so whatever
        // a flush ships the write ships too; one that does not read (the
        // empty relation) is the write a mid-flight flush can overtake.
        let debit_quorum = if debits_read { N / 2 + 1 } else { 0 };
        let assignment = VotingAssignment::new(N + 1)
            .with_initial(AccountKind::Credit, 0)
            .with_final(AccountKind::Credit, 1)
            .with_initial(AccountKind::Debit, debit_quorum)
            .with_final(AccountKind::Debit, debit_quorum.max(1));
        let mut sys = QuorumSystem::with_clients(
            BankAccountType,
            N + 1,
            CLIENTS,
            assignment,
            ClientConfig::default(),
            NetworkConfig::new(1, max_delay, 0.0),
            seed,
        )
        .with_scheduling(SchedulingPolicy::coordination_free([AccountKind::Credit]));
        sys.world_mut()
            .network_mut()
            .set_duplication_probability(duplication);
        let inv = |credit: bool| if credit { AccountInv::Credit(3) } else { AccountInv::Debit(2) };
        let mut paths = Paths::default();
        for (lone, ops, (flush, flush_after)) in &windows {
            rotate(&mut sys, *lone);
            let now = sys.world().now().0;
            run_checked(&mut sys, now + 1, &mut paths).map_err(TestCaseError::fail)?;
            for &(a, b) in ops {
                sys.submit_to(0, inv(a));
                sys.submit_to(1, inv(b));
            }
            let span = 30 * max_delay * ops.len() as u64;
            if *flush {
                let until = now + 1 + flush_after.min(&span);
                run_checked(&mut sys, until, &mut paths).map_err(TestCaseError::fail)?;
                sys.flush_wals();
            }
            run_checked(&mut sys, now + 1 + span, &mut paths).map_err(TestCaseError::fail)?;
        }
        // Heal — the witness too — let every pending invocation resolve,
        // then flush: each replica acks the whole WAL and nothing stays
        // on record.
        let now = sys.world().now().0;
        sys.world_mut()
            .set_schedule(FaultSchedule::new().at(SimTime(now + 1), Fault::Heal));
        run_checked(&mut sys, now + 4_000, &mut paths).map_err(TestCaseError::fail)?;
        sys.flush_wals();
        run_checked(&mut sys, now + 8_000, &mut paths).map_err(TestCaseError::fail)?;
        for c in 0..CLIENTS {
            let in_flight = sys.client_bookkeeping(c).fast_writes;
            prop_assert_eq!(in_flight, 0, "client {} keeps fast-write records after heal + flush", c);
        }
    }
}

/// The benchmark's `sim_partition_heal` shape, checked event by event:
/// both clients must extend payloads (a replica that has said nothing
/// since the last write: cut off, or acking late) and re-diff them (an
/// ack or a read response in between).
#[test]
fn a_rotating_partition_takes_both_the_extension_and_the_rediff() {
    let mut sys = taxi_system(29, 5);
    let (mut item, mut paths) = (0, Paths::default());
    for w in 0..9 {
        rotate(&mut sys, w % N);
        let now = sys.world().now().0;
        run_checked(&mut sys, now + 1, &mut paths).expect("contract");
        for i in 0..8 {
            item += 2;
            sys.submit_to(0, taxi_inv(if i % 4 == 3 { 3 } else { 0 }, item));
            sys.submit_to(1, taxi_inv(0, item + 1));
        }
        run_checked(&mut sys, now + 1_000, &mut paths).expect("contract");
        for c in 0..CLIENTS {
            assert_eq!(
                sys.outcomes_of(c).len(),
                8 * (w + 1),
                "window {w}, client {c}"
            );
        }
    }
    for c in 0..CLIENTS {
        assert!(
            paths.extended[c] > 0,
            "client {c} never extended a payload: {paths:?}"
        );
        assert!(
            paths.rediffed[c] > 0,
            "client {c} never re-diffed a payload: {paths:?}"
        );
    }
}
