//! The QCA as the oracle of each lattice point's reference automaton.
//!
//! Executor tests judge whole merged histories with the reference named
//! at their point, whose step costs the same at any length. The QCA's
//! cost grows exponentially with the history, so it is asked here only
//! about the first 12 ops of faulted sim runs: at all four taxi points
//! and at both account points, the QCA and the reference must reject
//! the same op first. Acceptance is prefix-closed, so that is the same
//! as agreeing on every prefix.
//!
//! Three racing clients, a random assignment, a crash, a partition and
//! message loss make histories that leave every point but the bottom
//! often enough to test both verdicts: over 1,000 cases about 7% are
//! rejected at `{A2}` and 10–27% at the other points. A single client
//! rarely leaves `{A2}`, since each debit's view holds its own earlier
//! debits.

use proptest::prelude::*;

use relaxation_lattice::automata::{History, ObjectAutomaton, RelaxationMap};
use relaxation_lattice::core::lattices::account::AccountLattice;
use relaxation_lattice::core::lattices::taxi::{TaxiLattice, TaxiPoint};
use relaxation_lattice::queues::{AccountAutomaton, BouncingAccountAutomaton};
use relaxation_lattice::quorum::relation::{AccountKind, HasKind, QueueKind};
use relaxation_lattice::quorum::types::{AccountInv, BankAccountType, QueueInv, TaxiQueueType};
use relaxation_lattice::quorum::{ClientConfig, QuorumSystem, ReplicatedType, VotingAssignment};
use relaxation_lattice::sim::{Fault, FaultSchedule, NetworkConfig, NodeId, Partition, SimTime};

/// The QCA's longest history here.
const PROBE_OPS: usize = 12;

/// Replicas are nodes `0..3`, clients `3..6`.
const NODES: usize = 6;

/// `invs`, dealt round-robin to three clients of 3 replicas under
/// `faults` and message loss; the first [`PROBE_OPS`] ops of the merged
/// history.
fn faulted_run<T: ReplicatedType>(
    ttype: T,
    assignment: VotingAssignment<<T::Op as HasKind>::Kind>,
    invs: &[T::Inv],
    faults: &FaultSchedule,
    loss: f64,
    seed: u64,
) -> History<T::Op> {
    let mut sys = QuorumSystem::with_clients(
        ttype,
        3,
        3,
        assignment,
        ClientConfig::default(),
        NetworkConfig::new(1, 40, loss),
        seed,
    );
    sys.world_mut().set_schedule(faults.clone());
    for (i, inv) in invs.iter().enumerate() {
        sys.submit_to(i % 3, inv.clone());
    }
    sys.run_to_quiescence(1_000_000);
    sys.merged_history().prefix(PROBE_OPS)
}

proptest! {
    #[test]
    fn every_reference_rejects_first_where_its_qca_does(
        seed in 0u64..1_000_000,
        quorums in proptest::collection::vec(1usize..4, 8),
        crash in (0..NODES, 0u64..300, 1u64..300),
        cut in (0..NODES, 0u64..300, 1u64..300),
        loss in 0u32..4,
        ops in proptest::collection::vec((0u8..3, 0u32..4), 1..24),
    ) {
        // A crashed or cut-off client leaves the replicas whole, which
        // is a run worth having too.
        let (down, from, len) = crash;
        let (lone, at, lasts) = cut;
        let rest = (0..NODES).map(NodeId).filter(|&r| r != NodeId(lone)).collect();
        let faults = FaultSchedule::new()
            .down_between(NodeId(down), SimTime(from), SimTime(from + len))
            .at(SimTime(at), Fault::Partition(Partition::groups(vec![rest, vec![NodeId(lone)]])))
            .at(SimTime(at + lasts), Fault::Heal);
        let loss = f64::from(loss) * 0.1;

        // Two enqueues to a dequeue; two debits to a credit.
        let taxi = faulted_run(
            TaxiQueueType,
            VotingAssignment::new(3)
                .with_initial(QueueKind::Enq, quorums[0])
                .with_final(QueueKind::Enq, quorums[1])
                .with_initial(QueueKind::Deq, quorums[2])
                .with_final(QueueKind::Deq, quorums[3]),
            &ops.iter()
                .map(|&(k, v)| if k == 0 { QueueInv::Deq } else { QueueInv::Enq(i64::from(v)) })
                .collect::<Vec<_>>(),
            &faults,
            loss,
            seed,
        );
        let lattice = TaxiLattice::new();
        for point in TaxiPoint::all() {
            let (qca, reference) = (
                lattice.qca(point).first_rejection(&taxi),
                lattice.reference(point).first_rejection(&taxi),
            );
            prop_assert_eq!(
                qca,
                reference,
                "{:?}: the QCA rejects op {:?}, the reference op {:?}, of {}",
                point,
                qca,
                reference,
                taxi
            );
        }

        let account = faulted_run(
            BankAccountType,
            VotingAssignment::new(3)
                .with_initial(AccountKind::Credit, quorums[4])
                .with_final(AccountKind::Credit, quorums[5])
                .with_initial(AccountKind::Debit, quorums[6])
                .with_final(AccountKind::Debit, quorums[7]),
            &ops.iter()
                .map(|&(k, n)| if k == 0 { AccountInv::Credit(n + 1) } else { AccountInv::Debit(n) })
                .collect::<Vec<_>>(),
            &faults,
            loss,
            seed,
        );
        let lattice = AccountLattice::new();
        let at = |point: &[&str]| {
            lattice.automaton(lattice.universe().set_of(point)).expect("in the domain")
        };
        for (point, qca, reference) in [
            (
                "{A1,A2}",
                at(&["A1", "A2"]).first_rejection(&account),
                AccountAutomaton::new().first_rejection(&account),
            ),
            (
                "{A2}",
                at(&["A2"]).first_rejection(&account),
                BouncingAccountAutomaton::new().first_rejection(&account),
            ),
        ] {
            prop_assert_eq!(
                qca,
                reference,
                "{}: the QCA rejects op {:?}, the reference op {:?}, of {}",
                point,
                qca,
                reference,
                account
            );
        }
    }
}
