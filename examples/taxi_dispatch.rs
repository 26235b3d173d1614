//! The urban taxicab company of §3.3, operational.
//!
//! Dispatchers enqueue customer requests; drivers dequeue the
//! highest-priority pending one. The queue is replicated over five
//! unreliable sites. We run the same workload twice:
//!
//! * with quorums satisfying `{Q1, Q2}` — one-copy serializable, but
//!   dequeues become unavailable when a majority of sites crashes;
//! * with all quorums shrunk to one site (constraints relaxed) — always
//!   available, but the merged history degrades down the lattice, which
//!   we diagnose by asking *which lattice point* accepts it.
//!
//! Run with `cargo run --example taxi_dispatch`. Pass `--trace` to also
//! dump each run's structured event log (faults, quorum assembly, level
//! transitions) as JSONL next to the working directory.

use relaxation_lattice::automata::ObjectAutomaton;
use relaxation_lattice::core::lattices::taxi::{TaxiLattice, TaxiPoint};
use relaxation_lattice::quorum::protocol::wire::Outcome;
use relaxation_lattice::quorum::relation::QueueKind;
use relaxation_lattice::quorum::types::{QueueInv, TaxiQueueType};
use relaxation_lattice::quorum::{
    queue_lattice_monitor, ClientConfig, QuorumSystem, VotingAssignment,
};
use relaxation_lattice::sim::{Fault, FaultSchedule, NetworkConfig, NodeId, SimTime};

const N: usize = 5;

fn preferred_assignment() -> VotingAssignment<QueueKind> {
    // Majority Deq quorums (Q2), Enq finals intersecting Deq initials (Q1).
    VotingAssignment::new(N)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, 3)
        .with_initial(QueueKind::Deq, 3)
        .with_final(QueueKind::Deq, 3)
}

fn relaxed_assignment() -> VotingAssignment<QueueKind> {
    // Everything from any single available site: maximally available,
    // no intersection guarantees at all.
    VotingAssignment::new(N)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, 1)
        .with_initial(QueueKind::Deq, 1)
        .with_final(QueueKind::Deq, 1)
}

fn outage_schedule() -> FaultSchedule {
    // Three of five sites down between t=300 and t=1500.
    FaultSchedule::new()
        .down_between(NodeId(0), SimTime(300), SimTime(1500))
        .down_between(NodeId(1), SimTime(300), SimTime(1500))
        .at(SimTime(300), Fault::Crash(NodeId(2)))
        .at(SimTime(1500), Fault::Recover(NodeId(2)))
}

fn run(label: &str, slug: &str, assignment: VotingAssignment<QueueKind>, trace: bool) {
    let mut sys = QuorumSystem::new(
        TaxiQueueType,
        N,
        assignment,
        ClientConfig { timeout: 150 },
        NetworkConfig::new(1, 10, 0.0),
        7,
    )
    .with_monitor(queue_lattice_monitor());
    if trace {
        sys = sys.with_trace(8192);
    }
    sys.world_mut().set_schedule(outage_schedule());

    // Rush hour: three requests before the outage, dispatching during it.
    sys.submit(QueueInv::Enq(5)); // ordinary fare
    sys.submit(QueueInv::Enq(9)); // airport run, high priority
    sys.submit(QueueInv::Enq(2)); // short hop
    sys.run_until(SimTime(300));
    sys.submit(QueueInv::Deq);
    sys.submit(QueueInv::Deq);
    sys.run_until(SimTime(1600));
    sys.submit(QueueInv::Deq);
    sys.run_to_quiescence(1_000_000);

    println!("--- {label} ---");
    for (i, o) in sys.outcomes().iter().enumerate() {
        match o {
            Outcome::Completed { op, latency } => {
                println!("  op {i}: {op}  ({latency} ticks)");
            }
            Outcome::Refused { .. } => println!("  op {i}: refused (queue looked empty)"),
            Outcome::TimedOut => println!("  op {i}: UNAVAILABLE (no quorum)"),
        }
    }

    // Diagnose the merged replica history against the lattice.
    let h = sys.merged_history();
    let lattice = TaxiLattice::new();
    println!("  merged history: {h}");
    for point in TaxiPoint::all() {
        if lattice.reference(point).accepts(&h) {
            println!("  behaves as: {}", point.behavior_name());
            break;
        }
    }

    // The online monitor saw the same thing, live, from completion order.
    let monitor = sys.monitor().expect("monitor attached");
    for t in monitor.transitions() {
        println!(
            "  live monitor: left {:?} at op #{}, witness {}",
            t.left, t.op_index, t.witness
        );
    }
    println!(
        "  live monitor level: {}",
        monitor.current_level().unwrap_or("(below DegenPQ)")
    );

    if trace {
        let path = format!("taxi_dispatch_{slug}.jsonl");
        sys.world()
            .tracer()
            .write_jsonl(&path)
            .expect("write trace");
        println!("  trace: {} events -> {path}", sys.world().tracer().len());
    }
    println!();
}

fn main() {
    let trace = std::env::args().any(|a| a == "--trace");
    println!("Taxi dispatch over 5 replicated sites; 3 sites down t=300..1500.\n");
    run(
        "preferred quorums {Q1, Q2}",
        "preferred",
        preferred_assignment(),
        trace,
    );
    run(
        "relaxed quorums (any site)",
        "relaxed",
        relaxed_assignment(),
        trace,
    );
    println!("The preferred assignment refuses service during the outage;");
    println!("the relaxed one keeps dispatching at the cost of degraded order —");
    println!("exactly the trade the relaxation lattice makes explicit.");
}
