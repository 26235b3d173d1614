//! `sim_partition_heal`: the faulted run, on the protocol core through
//! the discrete-event executor.
//!
//! Two clients share a replicated taxi queue over three replicas in
//! `ReplicationMode::Merkle`. Phase 1 (gossip off) rotates a partition
//! through twelve windows: client a keeps a majority and mixes dequeues
//! in, client b sits with one lone replica and enqueues. Phase 2 heals
//! the network and runs Merkle anti-entropy, with no client load, until
//! the replica logs converge.
//!
//! The quorums are the relaxed ones the paper's example degrades to:
//! enqueues record at a single site, so the client cut off with one
//! replica stays available and *no operation times out* (a benchmark
//! workload must not fail operations); dequeue quorums are majorities,
//! so `Q2` holds and the merged history sits at `OPQ` — the level the
//! offline monitor must report.
//!
//! The run is single-threaded and its counts repeat exactly per seed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use relax_automata::{EngineProbe, SplitMix64};
use relax_queues::QueueOp;
use relax_quorum::relation::QueueKind;
use relax_quorum::runtime::{Outcome, QueueInv, TaxiQueueType};
use relax_quorum::{
    merkle, outcome_shapes, queue_lattice_monitor, ClientConfig, Log, OutcomeShape, QuorumSystem,
    ReplicationMode, VotingAssignment,
};
use relax_sim::{Fault, FaultSchedule, NetworkConfig, NodeId, Partition, SimTime};
use relax_trace::{read_trace, Probe, TraceAnalysis};

use crate::check::check_taxi_history;
use crate::metrics::{ratio, Layers};
use crate::stats::{median, quantile};
use crate::sys;
use crate::threaded::REPLICAS as N;
use crate::workload::{Iteration, Size, Workload};

/// Partition windows in phase 1; window `w` pairs client b with replica
/// `w % 3`.
const WINDOWS: usize = 12;

/// Anti-entropy interval of the repair phase, in ticks.
const GOSSIP_INTERVAL: u64 = 20;

/// Trace ring capacity: above the events one scenario emits, so the
/// codec measurements see the whole run.
const TRACE_CAPACITY: usize = 1 << 19;

fn assignment() -> VotingAssignment<QueueKind> {
    let maj = N / 2 + 1;
    VotingAssignment::new(N)
        .with_initial(QueueKind::Deq, maj)
        .with_final(QueueKind::Deq, maj)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, 1)
}

/// Everything one scenario run leaves behind.
pub struct Scenario {
    sys: QuorumSystem<TaxiQueueType>,
    /// Wall nanoseconds of the two timed phases.
    pub wall_ns: u64,
    /// Per window, wall nanoseconds per operation served.
    window_ns_per_op: Vec<f64>,
    /// Operations submitted.
    pub ops: u64,
    /// Did the replica logs converge within the repair budget?
    pub converged: bool,
    /// Ticks from heal to convergence.
    converge_ticks: u64,
    /// Bytes sent during the repair phase.
    repair_bytes: u64,
    /// The replica logs as they stood at heal (only when asked for).
    at_heal: Vec<Log<QueueOp>>,
}

/// Observables that must not depend on the replication mode.
type Shapes = (
    Vec<OutcomeShape<QueueOp>>,
    Vec<OutcomeShape<QueueOp>>,
    Vec<QueueOp>,
);

impl Scenario {
    /// Runs the two-phase scenario. `stream[w]` holds window `w`'s
    /// invocations as (client a, client b) pairs.
    fn run(
        stream: &[Vec<(QueueInv, QueueInv)>],
        mode: ReplicationMode,
        seed: u64,
        telemetry: bool,
        capture_at_heal: bool,
    ) -> Scenario {
        let mut sys = QuorumSystem::with_clients(
            TaxiQueueType,
            N,
            2,
            assignment(),
            ClientConfig::default(),
            NetworkConfig::new(1, 5, 0.0),
            seed,
        )
        .with_replication(mode)
        .with_wire_accounting();
        if telemetry {
            sys = sys.with_trace(TRACE_CAPACITY).with_staleness();
        }

        let start = Instant::now();
        let mut window_ns_per_op = Vec::with_capacity(stream.len());
        let mut submitted = 0usize;
        for (w, invs) in stream.iter().enumerate() {
            let t = Instant::now();
            let lone = NodeId(w % N);
            let now = sys.world().now().0;
            let with_a: Vec<NodeId> = (0..N)
                .map(NodeId)
                .filter(|&r| r != lone)
                .chain([NodeId(N)])
                .collect();
            sys.world_mut().set_schedule(FaultSchedule::new().at(
                SimTime(now + 1),
                Fault::Partition(Partition::groups(vec![with_a, vec![NodeId(N + 1), lone]])),
            ));
            // Let the rotation land before the window's first request
            // leaves: a request sent under the old groups would lose its
            // replies to the new ones and time out.
            sys.run_until(SimTime(now + 1));
            for &(a, b) in invs {
                sys.submit_to(0, a);
                sys.submit_to(1, b);
            }
            submitted += invs.len();
            let mut at = now + 1;
            let deadline = now + 4_000_000;
            while at < deadline
                && (sys.outcomes_of(0).len() < submitted || sys.outcomes_of(1).len() < submitted)
            {
                at += 500;
                sys.run_until(SimTime(at));
                sys.sample_staleness();
            }
            window_ns_per_op.push(t.elapsed().as_nanos() as f64 / (2 * invs.len()) as f64);
        }
        let phase1_ns = start.elapsed().as_nanos() as u64;

        let at_heal = if capture_at_heal {
            (0..N).map(|i| sys.replica_log(i).clone()).collect()
        } else {
            Vec::new()
        };

        let start = Instant::now();
        let repair_start = sys.world().bytes_sent();
        let healed_at = sys.world().now().0;
        sys.world_mut()
            .set_schedule(FaultSchedule::new().at(SimTime(healed_at + 1), Fault::Heal));
        sys.enable_gossip(GOSSIP_INTERVAL);
        let same = |sys: &QuorumSystem<TaxiQueueType>| {
            (1..N).all(|i| sys.replica_log(i) == sys.replica_log(0))
        };
        let mut at = healed_at;
        while at < healed_at + 400_000 && !same(&sys) {
            at += 200;
            sys.run_until(SimTime(at));
            sys.sample_staleness();
        }
        let phase2_ns = start.elapsed().as_nanos() as u64;

        Scenario {
            wall_ns: phase1_ns + phase2_ns,
            window_ns_per_op,
            ops: 2 * submitted as u64,
            converged: same(&sys),
            converge_ticks: at - healed_at,
            repair_bytes: sys.world().bytes_sent() - repair_start,
            at_heal,
            sys,
        }
    }

    fn shapes(&self) -> Shapes {
        (
            outcome_shapes(self.sys.outcomes_of(0)),
            outcome_shapes(self.sys.outcomes_of(1)),
            self.sys.merged_history().into_ops(),
        )
    }

    /// Timed-out plus missing operations, and the first violated
    /// property of this run on its own.
    fn check(&self) -> (u64, Option<String>) {
        let mut failed = 0;
        let mut completed = 0;
        for c in 0..2 {
            let outcomes = self.sys.outcomes_of(c);
            failed += (self.ops / 2).saturating_sub(outcomes.len() as u64);
            failed += outcomes.iter().filter(|o| o.is_timeout()).count() as u64;
            completed += outcomes.iter().filter(|o| o.is_completed()).count();
        }
        let history = self.sys.merged_history();
        let error = if !self.converged {
            Some("replica logs did not converge after heal".to_string())
        } else if history.len() != completed {
            Some(format!(
                "merged history holds {} ops, {completed} completed",
                history.len()
            ))
        } else {
            check_taxi_history(history.ops()).err()
        };
        (failed, error)
    }
}

/// The lattice level the offline monitor reports for `history`, and the
/// nanoseconds one observation took.
fn monitored_level(history: &[QueueOp]) -> (Option<String>, f64) {
    let mut monitor = queue_lattice_monitor();
    let t = Instant::now();
    for op in history {
        let _ = monitor.observe(op);
    }
    let ns = t.elapsed().as_nanos() as f64 / history.len().max(1) as f64;
    (monitor.current_level().map(str::to_string), ns)
}

/// The `sim_partition_heal` workload.
pub struct SimHeal {
    seed: u64,
    history_len: usize,
    stream: Vec<Vec<(QueueInv, QueueInv)>>,
    /// Iterations run since set-up; iteration `i` seeds its network
    /// with `seed + i`.
    iteration: u64,
    warm_up_error: Option<String>,
}

impl SimHeal {
    /// The workload with inputs drawn from `seed` at set-up.
    pub fn new(size: Size, seed: u64) -> Self {
        SimHeal {
            seed,
            history_len: match size {
                Size::Full => 1024,
                Size::Smoke => 96,
            },
            stream: Vec::new(),
            iteration: 0,
            warm_up_error: None,
        }
    }

    fn run_once(&self, mode: ReplicationMode, seed: u64) -> (Iteration, Scenario) {
        let cpu0 = sys::cpu_time_s();
        let s = Scenario::run(&self.stream, mode, seed, false, false);
        let cpu_s = sys::cpu_time_s() - cpu0;
        let (failed, error) = s.check();
        let it = Iteration {
            ops: s.ops,
            wall_ns: s.wall_ns,
            cpu_s,
            op_p50_ns: median(&s.window_ns_per_op),
            failed: if error.is_some() { s.ops } else { failed },
            error,
        };
        (it, s)
    }
}

impl Workload for SimHeal {
    fn set_up(&mut self) {
        let mut rng = SplitMix64::seed_from_u64(self.seed);
        let per = (self.history_len / (2 * WINDOWS)).max(1);
        let mut id = 0u64;
        let mut enq = |rng: &mut SplitMix64| {
            id += 1;
            QueueInv::Enq((((rng.next_u64() >> 34) << 24) | id) as i64)
        };
        self.stream = (0..WINDOWS)
            .map(|_| {
                (0..per)
                    .map(|i| {
                        let a = if i % 8 == 7 {
                            QueueInv::Deq
                        } else {
                            enq(&mut rng)
                        };
                        (a, enq(&mut rng))
                    })
                    .collect()
            })
            .collect();
        self.iteration = 0;
        self.warm_up_error = self.run_once(ReplicationMode::Merkle, self.seed).0.error;
    }

    fn verify_once(&mut self) -> Result<(), String> {
        if let Some(e) = &self.warm_up_error {
            return Err(format!("warm-up iteration: {e}"));
        }
        // The paper-literal full-log run is the oracle: phase 1 is
        // gossip-free, so outcomes and history must not depend on mode.
        let (_, merkle) = self.run_once(ReplicationMode::Merkle, self.seed);
        let (_, full) = self.run_once(ReplicationMode::FullLog, self.seed);
        if let (_, Some(e)) = full.check() {
            return Err(format!("full-log oracle run: {e}"));
        }
        if merkle.shapes() != full.shapes() {
            return Err("Merkle run differs observably from the full-log run".to_string());
        }
        // Majority dequeue quorums keep Q2, single-site enqueues give up
        // Q1: the history must still sit at OPQ.
        let (level, _) = monitored_level(&merkle.shapes().2);
        match level.as_deref() {
            Some("PQ" | "MPQ" | "OPQ") => Ok(()),
            other => Err(format!(
                "monitor places the merged history at {other:?}, below OPQ"
            )),
        }
    }

    fn iterate(&mut self, probe: &mut Probe) -> Iteration {
        let seed = self.seed.wrapping_add(self.iteration);
        self.iteration += 1;
        probe.enter("scenario");
        let (it, _) = self.run_once(ReplicationMode::Merkle, seed);
        probe.exit("scenario");
        it
    }

    fn layers(
        &mut self,
        budget: Duration,
        _run_wall_ns: f64,
        _pin: Option<&sys::Pin>,
        out: &mut Layers,
    ) {
        let started = Instant::now();
        let seed = self.seed;
        let s = Scenario::run(&self.stream, ReplicationMode::Merkle, seed, false, true);
        let ops = s.ops as f64;
        let world = s.sys.world();
        out.set(
            "quorum.runtime.msgs_per_op",
            world.messages_sent() as f64 / ops,
        );
        out.set(
            "quorum.runtime.wire_bytes_per_op",
            world.bytes_sent() as f64 / ops,
        );
        out.set("quorum.runtime.repair_bytes", s.repair_bytes as f64);
        out.set("quorum.runtime.converge_ticks", s.converge_ticks as f64);
        let mut ticks: Vec<f64> = Vec::new();
        let mut timeouts = 0u64;
        for c in 0..2 {
            for o in s.sys.outcomes_of(c) {
                match o {
                    Outcome::Completed { latency, .. } | Outcome::Refused { latency } => {
                        ticks.push(*latency as f64);
                    }
                    Outcome::TimedOut => timeouts += 1,
                }
            }
        }
        out.set("quorum.runtime.op_p50_ticks", quantile(&ticks, 0.5));
        out.set("quorum.runtime.op_p99_ticks", quantile(&ticks, 0.99));
        out.set("quorum.runtime.timeout_share", timeouts as f64 / ops);
        let (rounds, nodes, _) = s.sys.merkle_sync_counts();
        out.set("quorum.runtime.merkle_rounds", rounds as f64);
        out.set("quorum.runtime.merkle_nodes", nodes as f64);
        let (delta, full) = s.sys.gossip_send_counts();
        out.set(
            "quorum.runtime.gossip_delta_share",
            ratio(delta as f64, (delta + full) as f64),
        );
        let events = world.events_processed() as f64;
        out.set("sim.events_per_op", events / ops);
        out.set("sim.event_ns", s.wall_ns as f64 / events);
        let (hits, misses) = s.sys.viewcache_counts();
        out.set(
            "quorum.viewcache.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        out.set(
            "quorum.viewcache.replayed_per_op",
            s.sys.viewcache_replayed_entries() as f64 / ops,
        );
        out.set(
            "quorum.viewcache.checkpoint_hits",
            s.sys.viewcache_checkpoint_hits() as f64,
        );
        let resident: usize = (0..N).map(|i| s.sys.replica_log(i).len()).sum();
        out.set("quorum.log.resident_entries", resident as f64);

        // The repair's building blocks, on the logs as they stood at
        // heal: Merkle localization and the splicing merge, per ordered
        // pair of replicas.
        let (mut localize_us, mut splice_ns, mut spliced) = (Vec::new(), 0u128, 0usize);
        for i in 0..N {
            for j in (0..N).filter(|&j| j != i) {
                let (mut sender, mut receiver) = (s.at_heal[i].clone(), s.at_heal[j].clone());
                sender.merkle_index();
                receiver.merkle_index();
                let t = Instant::now();
                let plan = merkle::localize(sender.merkle_index(), receiver.merkle_index());
                localize_us.push(t.elapsed().as_nanos() as f64 / 1e3);
                black_box(plan);

                let (sender, mut receiver) = (&s.at_heal[i], s.at_heal[j].clone());
                let new = sender.diff(&receiver).len();
                let t = Instant::now();
                receiver.merge(sender);
                splice_ns += t.elapsed().as_nanos();
                spliced += new;
            }
        }
        out.set("quorum.merkle.localize_us", median(&localize_us));
        out.set(
            "quorum.log.merge_splice_ns_per_entry",
            ratio(splice_ns as f64, spliced as f64),
        );

        let history = s.sys.merged_history().into_ops();
        let (_, observe_ns) = monitored_level(&history);
        out.set("trace.monitor.observe_ns_per_op", observe_ns);
        let t = Instant::now();
        let mut value = relax_queues::Bag::new();
        for op in &history {
            use relax_quorum::ReplicatedType;
            TaxiQueueType.apply_mut(&mut value, op);
        }
        out.set(
            "queues.apply_ns_per_entry",
            ratio(t.elapsed().as_nanos() as f64, history.len() as f64),
        );
        black_box(value);
        drop(s);

        // One telemetry-on run through the codec and the analyzer.
        let traced = Scenario::run(&self.stream, ReplicationMode::Merkle, seed, true, false);
        let tracer = traced.sys.world().tracer();
        let n_events = tracer.len() as f64;
        out.set("trace.events_per_op", n_events / ops);
        let t = Instant::now();
        let jsonl = tracer.export_jsonl();
        out.set(
            "trace.codec.encode_ns_per_event",
            ratio(t.elapsed().as_nanos() as f64, n_events),
        );
        let t = Instant::now();
        let parsed = read_trace(&jsonl).expect("the exported trace re-ingests");
        out.set(
            "trace.codec.decode_ns_per_event",
            ratio(t.elapsed().as_nanos() as f64, n_events),
        );
        let t = Instant::now();
        let analysis = TraceAnalysis::from_trace(parsed);
        black_box(analysis.spans().len());
        out.set("trace.analyze.spans_ms", t.elapsed().as_secs_f64() * 1e3);
        drop((analysis, jsonl, traced));

        // Telemetry overhead: the scenario with tracing and staleness
        // sampling on against off, ABBA-interleaved so drift cancels.
        let (mut on, mut off) = (Vec::new(), Vec::new());
        let mut i = 0u64;
        while on.len() < 2 || started.elapsed() < budget {
            let telemetry = matches!(i % 4, 0 | 3);
            let run = Scenario::run(
                &self.stream,
                ReplicationMode::Merkle,
                seed.wrapping_add(i / 2),
                telemetry,
                false,
            );
            (if telemetry { &mut on } else { &mut off }).push(run.wall_ns as f64);
            i += 1;
        }
        out.set(
            "trace.overhead_pct",
            100.0 * (median(&on) / median(&off) - 1.0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run, trace};

    fn exact_counts(seed: u64) -> Vec<f64> {
        let mut w = SimHeal::new(Size::Smoke, seed);
        let mut layers = Layers::new();
        let (r, _) = trace(&mut w, 0.0, None, &mut layers);
        assert_eq!(r.error, None);
        [
            "quorum.runtime.msgs_per_op",
            "quorum.runtime.wire_bytes_per_op",
            "quorum.runtime.repair_bytes",
            "quorum.runtime.converge_ticks",
            "quorum.runtime.op_p50_ticks",
            "quorum.runtime.merkle_nodes",
            "sim.events_per_op",
            "trace.events_per_op",
        ]
        .iter()
        .map(|n| layers.get(n))
        .collect()
    }

    #[test]
    fn smoke_run_is_clean_and_fails_nothing() {
        let mut w = SimHeal::new(Size::Smoke, 29);
        let r = run(&mut w, 0.0);
        assert_eq!(r.error, None);
        assert!(r.correct);
        assert_eq!(r.failed, 0);
    }

    #[test]
    fn layer_counts_repeat_per_seed_and_differ_across_seeds() {
        let a = exact_counts(29);
        assert_eq!(a, exact_counts(29));
        assert_ne!(a, exact_counts(30));
        assert!(a.iter().all(|&v| v > 0.0), "{a:?}");
    }

    #[test]
    fn an_unconverged_or_lossy_run_is_rejected() {
        let mut w = SimHeal::new(Size::Smoke, 5);
        w.set_up();
        let (_, mut s) = w.run_once(ReplicationMode::Merkle, 5);
        assert_eq!(s.check(), (0, None));
        s.converged = false;
        assert!(s.check().1.expect("rejected").contains("converge"));
        s.converged = true;
        s.ops += 2; // two operations nobody answered
        assert_eq!(s.check().0, 2);
    }
}
