//! The four workloads that drive the wall-clock backend
//! (`ThreadedSystem`): `account_1shard`, `account_2shard`,
//! `account_calm`, `taxi_1shard`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use relax_automata::{EngineProbe, History, ObjectAutomaton, SplitMix64};
use relax_queues::{AccountEval, AccountOp, AccountValueSpec, Eta, PqValueSpec, QueueOp};
use relax_quorum::calm::analyze_account;
use relax_quorum::relation::{account_relation, AccountKind, QueueKind};
use relax_quorum::runtime::{
    AccountInv, BankAccountType, Outcome, QueueInv, ReplicatedType, TaxiQueueType,
};
use relax_quorum::{
    queue_relation, ClientConfig, ClientTable, Executor, HasKind, QcaAutomaton, QuorumSystem,
    SchedulingPolicy, ThreadedConfig, ThreadedSystem, VotingAssignment,
};
use relax_sim::NetworkConfig;
use relax_trace::Probe;

use crate::check::{check_run, check_same_run, check_taxi_history, observe};
use crate::metrics::{ratio, Layers};
use crate::replay;
use crate::stats::{median, median_u64, quantile};
use crate::sys;
use crate::workload::{Estimator, Iteration, Size, Workload};

/// Replica sites of every runtime workload.
pub const REPLICAS: usize = 3;

/// Broker flush deadline in microseconds (the backend's default; active
/// only with more than one shard).
const FLUSH_MICROS: u64 = 20;

/// Runs, and replays, the budget table picks its fastest from.
const BUDGET_TRIES: usize = 3;

/// Length of the one-client stream the differential oracle runs through
/// both backends.
const ORACLE_OPS: usize = 256;

/// Length of the history handed to the QCA: its acceptance check
/// enumerates views by bitmask and is exponential in the unconstrained
/// positions, so it takes a short, quorum-dense stream.
const QCA_OPS: usize = 12;

/// The quorum-relevant kind type of `T`'s operations.
pub type KindOf<T> = <<T as ReplicatedType>::Op as HasKind>::Kind;

/// A replicated type the threaded workloads can drive, with the bounds
/// the backend's executor needs spelled once.
pub trait BenchType:
    ReplicatedType<
        Op: Ord + Send + Sync + HasKind<Kind: Send + Sync + Copy + Ord + std::fmt::Debug>,
        Inv: Send + Sync,
        Value: Send,
    > + Copy
    + Send
    + Sync
    + 'static
{
}

impl BenchType for BankAccountType {}
impl BenchType for TaxiQueueType {}

/// One replicated object family: its type, quorum assignment, input
/// generator and specification-level checks.
pub trait Family: 'static {
    /// The replicated type.
    type T: BenchType;
    /// Its value.
    const TTYPE: Self::T;

    /// The quorum assignment over [`REPLICAS`] sites.
    fn assignment() -> VotingAssignment<KindOf<Self::T>>;

    /// Client `client`'s `i`-th invocation; every `quorum_every`-th one
    /// is the kind that reads a quorum (Debit, Deq).
    fn inv(
        rng: &mut SplitMix64,
        client: usize,
        i: usize,
        quorum_every: usize,
    ) -> <Self::T as ReplicatedType>::Inv;

    /// Is `history` a behaviour of the QCA at the relation
    /// [`Family::assignment`] realises?
    fn qca_accepts(history: &History<<Self::T as ReplicatedType>::Op>) -> bool;

    /// Family-specific invariant of a merged history; none by default.
    fn check_history(_ops: &[<Self::T as ReplicatedType>::Op]) -> Result<(), String> {
        Ok(())
    }

    /// The analyzer-derived CALM policy at that relation, for the
    /// family a CALM workload runs.
    fn calm_policy() -> SchedulingPolicy<KindOf<Self::T>> {
        SchedulingPolicy::all_quorum()
    }
}

/// The bank account of §3.4 at the `{A2}` relation: single-site credit
/// quorums, debits read one site and record at all.
pub struct Account;

impl Family for Account {
    type T = BankAccountType;
    const TTYPE: BankAccountType = BankAccountType;

    fn assignment() -> VotingAssignment<AccountKind> {
        VotingAssignment::new(REPLICAS)
            .with_initial(AccountKind::Credit, 1)
            .with_final(AccountKind::Credit, 1)
            .with_initial(AccountKind::Debit, 1)
            .with_final(AccountKind::Debit, REPLICAS)
    }

    fn inv(rng: &mut SplitMix64, _client: usize, i: usize, quorum_every: usize) -> AccountInv {
        let amount = 1 + rng.index(3) as u32;
        if i % quorum_every == quorum_every - 1 {
            AccountInv::Debit(amount)
        } else {
            AccountInv::Credit(amount)
        }
    }

    fn qca_accepts(history: &History<AccountOp>) -> bool {
        QcaAutomaton::new(AccountValueSpec, AccountEval, account_relation(false, true))
            .accepts(history)
    }

    fn calm_policy() -> SchedulingPolicy<AccountKind> {
        SchedulingPolicy::from_report(&analyze_account(&account_relation(false, true)))
    }
}

/// The taxi priority queue of §3.3 at the full `{Q1, Q2}` relation:
/// majority dequeue quorums.
pub struct Taxi;

impl Family for Taxi {
    type T = TaxiQueueType;
    const TTYPE: TaxiQueueType = TaxiQueueType;

    fn assignment() -> VotingAssignment<QueueKind> {
        let maj = REPLICAS / 2 + 1;
        VotingAssignment::new(REPLICAS)
            .with_initial(QueueKind::Deq, maj)
            .with_final(QueueKind::Deq, maj)
            .with_initial(QueueKind::Enq, 1)
            .with_final(QueueKind::Enq, REPLICAS - maj + 1)
    }

    fn inv(rng: &mut SplitMix64, client: usize, i: usize, quorum_every: usize) -> QueueInv {
        // Random priority in the high bits, the request's identity in
        // the low 24: priorities never collide, so a duplicate dequeue
        // is recognisable.
        let priority = ((rng.next_u64() >> 34) << 24) | ((client as u64 & 0xfff) << 12) | i as u64;
        if i % quorum_every == quorum_every - 1 {
            QueueInv::Deq
        } else {
            QueueInv::Enq(priority as i64)
        }
    }

    fn qca_accepts(history: &History<QueueOp>) -> bool {
        QcaAutomaton::new(PqValueSpec, Eta, queue_relation(true, true)).accepts(history)
    }

    fn check_history(ops: &[QueueOp]) -> Result<(), String> {
        check_taxi_history(ops)
    }
}

/// The shape of one threaded workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Shard front-end threads.
    pub shards: usize,
    /// Clients in total (the group-commit ceiling is `clients / shards`,
    /// so every round takes each of a shard's clients once).
    pub clients: usize,
    /// Invocations per client.
    pub ops_per_client: usize,
    /// Every this-many-th invocation reads a quorum.
    pub quorum_every: usize,
    /// Run under the analyzer-derived CALM policy.
    pub calm: bool,
}

impl Spec {
    /// `account_1shard`: 262,144 ops.
    pub fn account_1shard(size: Size) -> Spec {
        Spec {
            shards: 1,
            clients: 256,
            ops_per_client: 1024,
            quorum_every: 16,
            calm: false,
        }
        .at(size)
    }

    /// `account_2shard`: 16,384 ops over two shards of 128 clients.
    pub fn account_2shard(size: Size) -> Spec {
        Spec {
            shards: 2,
            clients: 256,
            ops_per_client: 64,
            quorum_every: 16,
            calm: false,
        }
        .at(size)
    }

    /// `account_calm`: 32,768 ops, credits coordination-free.
    pub fn account_calm(size: Size) -> Spec {
        Spec {
            shards: 1,
            clients: 256,
            ops_per_client: 128,
            quorum_every: 16,
            calm: true,
        }
        .at(size)
    }

    /// `taxi_1shard`: 4,096 ops.
    pub fn taxi_1shard(size: Size) -> Spec {
        Spec {
            shards: 1,
            clients: 64,
            ops_per_client: 64,
            quorum_every: 8,
            calm: false,
        }
        .at(size)
    }

    fn at(self, size: Size) -> Spec {
        match size {
            Size::Full => self,
            Size::Smoke => Spec {
                clients: 8 * self.shards,
                ops_per_client: 2 * self.quorum_every,
                ..self
            },
        }
    }

    /// Invocations per iteration.
    pub fn ops(&self) -> usize {
        self.clients * self.ops_per_client
    }

    fn config(&self) -> ThreadedConfig {
        ThreadedConfig {
            shards: self.shards,
            batch: self.clients / self.shards,
            flush_micros: FLUSH_MICROS,
        }
    }
}

/// A threaded workload over family `F`.
pub struct Threaded<F: Family> {
    spec: Spec,
    seed: u64,
    /// Per client, its invocations in submission order.
    stream: Vec<Vec<<F::T as ReplicatedType>::Inv>>,
    submitted: Vec<usize>,
    policy: SchedulingPolicy<KindOf<F::T>>,
    warm_up_error: Option<String>,
}

/// Latencies (nanoseconds) of every available operation of a finished
/// run, as the backend published them in its outcome tables.
fn latencies<T: ReplicatedType>(sys: &impl ClientTable<T>) -> Vec<u64> {
    let mut out = Vec::new();
    for c in 0..sys.n_clients() {
        for o in sys.outcomes_of(c) {
            if let Outcome::Completed { latency, .. } | Outcome::Refused { latency } = o {
                out.push(*latency);
            }
        }
    }
    out
}

impl<F: Family> Threaded<F> {
    /// The workload at `spec`, its inputs drawn from `seed` at set-up.
    pub fn new(spec: Spec, seed: u64) -> Self {
        assert_eq!(
            spec.clients % spec.shards,
            0,
            "clients split evenly over shards"
        );
        Threaded {
            spec,
            seed,
            stream: Vec::new(),
            submitted: Vec::new(),
            policy: SchedulingPolicy::all_quorum(),
            warm_up_error: None,
        }
    }

    fn build(
        &self,
        clients: usize,
        config: ThreadedConfig,
        policy: &SchedulingPolicy<KindOf<F::T>>,
    ) -> ThreadedSystem<F::T> {
        ThreadedSystem::new(F::TTYPE, REPLICAS, clients, F::assignment(), config)
            .with_scheduling(policy.clone())
    }

    fn build_full(&self, policy: &SchedulingPolicy<KindOf<F::T>>) -> ThreadedSystem<F::T> {
        self.build(self.spec.clients, self.spec.config(), policy)
    }

    fn submit(&self, sys: &mut ThreadedSystem<F::T>) {
        for (c, invs) in self.stream.iter().enumerate() {
            for inv in invs {
                sys.submit_to(c, inv.clone());
            }
        }
    }

    /// One iteration under `policy`; returns the finished system too.
    fn iterate_with(
        &self,
        policy: &SchedulingPolicy<KindOf<F::T>>,
        probe: &mut Probe,
    ) -> (Iteration, ThreadedSystem<F::T>) {
        probe.enter("build");
        let mut sys = self.build_full(policy);
        probe.exit("build");
        probe.enter("submit");
        self.submit(&mut sys);
        probe.exit("submit");

        let cpu0 = sys::cpu_time_s();
        probe.enter("run_all");
        let t = Instant::now();
        sys.run_all();
        let wall_ns = t.elapsed().as_nanos() as u64;
        probe.exit("run_all");
        let cpu_s = sys::cpu_time_s() - cpu0;

        probe.enter("collect");
        let mut lat = latencies(&sys);
        let op_p50_ns = if lat.is_empty() {
            0.0
        } else {
            median_u64(&mut lat) as f64
        };
        probe.exit("collect");

        probe.enter("check");
        let obs = observe(&sys, &self.submitted);
        let mut verdict = check_run(&obs);
        if verdict.error.is_none() {
            verdict.error = F::check_history(obs.merged.ops()).err();
        }
        drop(obs);
        probe.exit("check");

        let ops = self.spec.ops() as u64;
        let iteration = Iteration {
            ops,
            wall_ns,
            cpu_s,
            op_p50_ns,
            failed: if verdict.error.is_some() {
                ops
            } else {
                verdict.failed
            },
            error: verdict.error,
        };
        (iteration, sys)
    }

    /// A one-client stream of `len` invocations from the workload's
    /// generator.
    fn probe_stream(&self, len: usize, quorum_every: usize) -> Vec<<F::T as ReplicatedType>::Inv> {
        let mut rng = SplitMix64::seed_from_u64(self.seed ^ 0x0A_C1E);
        (0..len)
            .map(|i| F::inv(&mut rng, 0, i, quorum_every))
            .collect()
    }

    /// Runs `invs` on one client through the threaded backend.
    fn run_one_client(&self, invs: &[<F::T as ReplicatedType>::Inv]) -> ThreadedSystem<F::T> {
        let mut thr = self.build(1, ThreadedConfig::default(), &self.policy);
        for inv in invs {
            thr.submit_to(0, inv.clone());
        }
        thr.run_all();
        thr
    }

    /// The short quorum-dense history the QCA is asked to accept.
    fn qca_history(&self) -> History<<F::T as ReplicatedType>::Op> {
        self.run_one_client(&self.probe_stream(QCA_OPS, 4))
            .merged_history()
    }
}

impl<F: Family> Workload for Threaded<F> {
    fn set_up(&mut self) {
        let mut rng = SplitMix64::seed_from_u64(self.seed);
        let spec = self.spec;
        self.stream = (0..spec.clients)
            .map(|c| {
                (0..spec.ops_per_client)
                    .map(|i| F::inv(&mut rng, c, i, spec.quorum_every))
                    .collect()
            })
            .collect();
        self.submitted = vec![spec.ops_per_client; spec.clients];
        self.policy = if spec.calm {
            F::calm_policy()
        } else {
            SchedulingPolicy::all_quorum()
        };
        let policy = self.policy.clone();
        let (warm_up, _) = self.iterate_with(&policy, &mut Probe::disabled());
        self.warm_up_error = warm_up.error;
    }

    fn verify_once(&mut self) -> Result<(), String> {
        if let Some(e) = &self.warm_up_error {
            return Err(format!("warm-up iteration: {e}"));
        }
        // Differential oracle: fixed delay, no loss, so the sim is FIFO
        // and deterministic and the threaded backend must reproduce it.
        let invs = self.probe_stream(ORACLE_OPS, self.spec.quorum_every);
        let mut sim = QuorumSystem::new(
            F::TTYPE,
            REPLICAS,
            F::assignment(),
            ClientConfig::default(),
            NetworkConfig::new(2, 2, 0.0),
            self.seed,
        )
        .with_scheduling(self.policy.clone());
        for inv in &invs {
            sim.submit_to(0, inv.clone());
        }
        Executor::run_all(&mut sim);
        let thr = self.run_one_client(&invs);
        let submitted = [invs.len()];
        let sim_obs = observe(&sim, &submitted);
        let thr_obs = observe(&thr, &submitted);
        for (name, obs) in [("sim", &sim_obs), ("threaded", &thr_obs)] {
            let v = check_run(obs);
            if let Some(e) = v.error {
                return Err(format!("oracle stream on the {name} backend: {e}"));
            }
            if v.failed > 0 {
                return Err(format!(
                    "oracle stream on the {name} backend: {} failed",
                    v.failed
                ));
            }
        }
        check_same_run(&sim_obs, &thr_obs)?;
        if !F::qca_accepts(&self.qca_history()) {
            return Err("QCA rejects the threaded backend's history".to_string());
        }
        Ok(())
    }

    fn estimator(&self) -> Estimator {
        // One shard runs its rounds in lock step with the brokers; two
        // shards race each other to them, and iterations of one run
        // differ twofold.
        if self.spec.shards > 1 {
            Estimator::Median
        } else {
            Estimator::Fastest
        }
    }

    fn iterate(&mut self, probe: &mut Probe) -> Iteration {
        let policy = self.policy.clone();
        self.iterate_with(&policy, probe).0
    }

    fn layers(
        &mut self,
        budget: Duration,
        run_wall_ns: f64,
        pin: Option<&sys::Pin>,
        out: &mut Layers,
    ) {
        let started = Instant::now();
        let spec = self.spec;
        let ops = spec.ops() as f64;
        let policy = self.policy.clone();
        let pinned_ops_per_s = ops * 1e9 / run_wall_ns;

        // One finished run to read counters from and to replay: the
        // least disturbed of three, as the replay below is, so that the
        // budget's residual is a floor against a floor.
        let (it, sys) = (0..BUDGET_TRIES)
            .map(|_| self.iterate_with(&policy, &mut Probe::disabled()))
            .min_by_key(|(it, _)| it.wall_ns)
            .expect("at least one run");
        let registry = sys.registry();
        let rounds = registry
            .get_gauge("realtime_shard_rounds")
            .map_or(0, |g| g.value()) as f64;
        out.set("quorum.threaded.rounds_per_kop", ratio(rounds * 1e3, ops));
        if let Some(h) = registry.get_histogram("realtime_commit_batch_ops") {
            out.set(
                "quorum.threaded.commit_batch_p50",
                h.clone().p50().unwrap_or(0) as f64,
            );
        }
        let lat: Vec<f64> = latencies(&sys).iter().map(|&n| n as f64 / 1e3).collect();
        out.set("quorum.threaded.op_p90_us", quantile(&lat, 0.90));
        out.set("quorum.threaded.op_p99_us", quantile(&lat, 0.99));
        let refused = (0..spec.clients)
            .flat_map(|c| sys.outcomes_of(c))
            .filter(|o| matches!(o, Outcome::Refused { .. }))
            .count();
        out.set("quorum.threaded.refused_share", refused as f64 / ops);
        let resident: usize = (0..REPLICAS).map(|r| sys.replica_log(r).len()).sum();
        out.set("quorum.log.resident_entries", resident as f64);
        let (fast, quorum) = sys.calm_op_counts();
        out.set(
            "quorum.calm.fast_share",
            ratio(fast as f64, (fast + quorum) as f64),
        );

        // Layer replay of that run, against the wall time of its own
        // timed call.
        let outcomes: Vec<_> = (0..spec.clients).map(|c| sys.outcomes_of(c)).collect();
        let input = replay::Input {
            ttype: F::TTYPE,
            assignment: F::assignment(),
            policy: &policy,
            shards: spec.shards,
            stream: &self.stream,
            outcomes: &outcomes,
            log: sys.replica_log(0),
        };
        let replayed = (0..BUDGET_TRIES)
            .map(|_| replay::replay(&input))
            .min_by_key(|r| r.report.total_ns())
            .expect("at least one replay");
        replayed.record(it.wall_ns, rounds, out);
        replay::micro(&input, out);
        drop(outcomes);
        drop(sys);

        // Spawn and join alone: one invocation per shard.
        let spawn_join: Vec<f64> = (0..15)
            .map(|_| {
                let mut sys = self.build(spec.shards, spec.config(), &policy);
                for s in 0..spec.shards {
                    sys.submit_to(s, self.stream[s][0].clone());
                }
                let t = Instant::now();
                sys.run_all();
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        out.set("quorum.threaded.spawn_join_us", median(&spawn_join));

        let mut sys = self.build_full(&policy);
        let t = Instant::now();
        self.submit(&mut sys);
        out.set(
            "quorum.threaded.submit_ns_per_op",
            t.elapsed().as_nanos() as f64 / ops,
        );
        drop(sys);

        let history = self.qca_history();
        let t = Instant::now();
        black_box(F::qca_accepts(&history));
        out.set(
            "quorum.qca.accept_us_per_op",
            t.elapsed().as_nanos() as f64 / 1e3 / history.len().max(1) as f64,
        );

        if spec.calm {
            let t = Instant::now();
            black_box(F::calm_policy());
            out.set("quorum.calm.analyze_ms", t.elapsed().as_secs_f64() * 1e3);
            // The wall-clock CALM figure: the same stream under the
            // fast path and under all-quorum scheduling, interleaved.
            let all_quorum = SchedulingPolicy::all_quorum();
            let (mut fast, mut slow) = (Vec::new(), Vec::new());
            for _ in 0..3 {
                fast.push(
                    self.iterate_with(&policy, &mut Probe::disabled())
                        .0
                        .ops_per_s(),
                );
                slow.push(
                    self.iterate_with(&all_quorum, &mut Probe::disabled())
                        .0
                        .ops_per_s(),
                );
            }
            out.set(
                "quorum.calm.fast_vs_quorum_ratio",
                median(&fast) / median(&slow),
            );
        }

        // The multi-CPU view: the same iteration with the pin released.
        if let Some(pin) = pin {
            if pin.release() {
                let left = budget.saturating_sub(started.elapsed()).as_secs_f64();
                let n = ((left * 1e9 / run_wall_ns / 2.0) as usize).clamp(1, 3);
                let unpinned: Vec<f64> = (0..n)
                    .map(|_| {
                        self.iterate_with(&policy, &mut Probe::disabled())
                            .0
                            .ops_per_s()
                    })
                    .collect();
                out.set("bench.smp_ratio", median(&unpinned) / pinned_ops_per_s);
                pin.apply();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run, trace};

    fn smoke<F: Family>(spec: Spec) {
        let mut w = Threaded::<F>::new(spec, 11);
        let r = run(&mut w, 0.0);
        assert_eq!(r.error, None);
        assert!(r.correct);
        assert_eq!(r.failed, 0);
        assert_eq!(r.attempted, (spec.ops() * r.iterations.len()) as u64);
    }

    #[test]
    fn every_threaded_workload_runs_clean_at_smoke_size() {
        smoke::<Account>(Spec::account_1shard(Size::Smoke));
        smoke::<Account>(Spec::account_2shard(Size::Smoke));
        smoke::<Account>(Spec::account_calm(Size::Smoke));
        smoke::<Taxi>(Spec::taxi_1shard(Size::Smoke));
    }

    #[test]
    fn the_calm_workload_frees_exactly_the_credits() {
        let spec = Spec::account_calm(Size::Smoke);
        let mut w = Threaded::<Account>::new(spec, 3);
        let mut layers = Layers::new();
        let (r, _) = trace(&mut w, 0.0, None, &mut layers);
        assert_eq!(r.error, None);
        assert_eq!(layers.get("quorum.calm.fast_share"), 15.0 / 16.0);
        assert!(layers.get("quorum.calm.fast_vs_quorum_ratio") > 0.0);
        assert_eq!(layers.get("budget.probe_self_minus_root_ns"), 0.0);
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let spec = Spec::taxi_1shard(Size::Smoke);
        let stream_of = |seed| {
            let mut w = Threaded::<Taxi>::new(spec, seed);
            w.set_up();
            w.stream
        };
        assert_eq!(stream_of(7), stream_of(7));
        assert_ne!(stream_of(7), stream_of(8));
    }
}
