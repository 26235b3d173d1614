//! Layer replay: the per-layer budget of a threaded run, measured from
//! outside.
//!
//! `ThreadedSystem::run_all` is opaque to the harness, so the traced run
//! takes what a finished run published — every client's outcome table
//! and replica 0's log — cuts the log back into the run's own commit
//! batches, and re-executes on those shapes the public layer calls a
//! shard round makes: the frontier, the replicas' `delta_above_with`,
//! the view merge, execution and `ViewCache::eval`, and each replica's
//! `Log::merge` of the group commit. Every call sits in a
//! [`relax_trace::Probe`] span, so self times telescope to the replay's
//! root exactly. The run's wall time minus the replayed busy time is
//! what the layers do not explain: thread hand-offs.
//!
//! The cut is exact for the shapes the workloads use (every client with
//! the same backlog, one op per client per round): a site's entries in
//! log order are its client's completed operations in submission order.
//! With two shards the real interleaving of the shards' rounds is not
//! recoverable; the replay alternates them.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use relax_automata::EngineProbe;
use relax_quorum::merkle::MerkleIndex;
use relax_quorum::runtime::{Outcome, ReplicatedType};
use relax_quorum::{DiffScratch, Entry, Log, SchedulingPolicy, ViewCache, VotingAssignment};
use relax_trace::{Probe, ProfileReport};

use crate::metrics::{ratio, Layers};
use crate::threaded::{BenchType, KindOf, REPLICAS};

/// What a finished run published, plus the stream it was given.
pub struct Input<'a, T: BenchType> {
    /// The replicated type.
    pub ttype: T,
    /// The run's quorum assignment.
    pub assignment: VotingAssignment<KindOf<T>>,
    /// The run's scheduling policy.
    pub policy: &'a SchedulingPolicy<KindOf<T>>,
    /// Shard count; client `c` lives on shard `c % shards`.
    pub shards: usize,
    /// Per client, the invocations submitted.
    pub stream: &'a [Vec<T::Inv>],
    /// Per client, the outcomes recorded.
    pub outcomes: &'a [&'a [Outcome<T::Op>]],
    /// Replica 0's resident log (complete on a healthy run).
    pub log: &'a Log<T::Op>,
}

/// An invocation with the entry it recorded (none when refused).
type Served<'a, T> = (
    &'a <T as ReplicatedType>::Inv,
    Option<&'a Entry<<T as ReplicatedType>::Op>>,
);

/// One shard round cut out of the log: the invocations in client order.
struct Round<'a, T: BenchType> {
    shard: usize,
    ops: Vec<Served<'a, T>>,
}

/// Cuts the log into rounds, alternating shards.
fn rounds<'a, T: BenchType>(input: &Input<'a, T>) -> Vec<Round<'a, T>> {
    let clients = input.stream.len();
    let mut by_site: Vec<VecDeque<&Entry<T::Op>>> = vec![VecDeque::new(); clients];
    for e in input.log.entries() {
        // Client c stamps with site REPLICAS + c on both backends.
        by_site[e.ts.site - REPLICAS].push_back(e);
    }
    let per_client = input.stream.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    for r in 0..per_client {
        for shard in 0..input.shards {
            let ops = (shard..clients)
                .step_by(input.shards)
                .filter(|&c| r < input.stream[c].len())
                .map(|c| {
                    let entry = match input.outcomes[c].get(r) {
                        Some(Outcome::Completed { .. }) => by_site[c].pop_front(),
                        _ => None,
                    };
                    (&input.stream[c][r], entry)
                })
                .collect();
            out.push(Round { shard, ops });
        }
    }
    out
}

/// A shard front-end's state, as `run_shard` keeps it.
struct ShardView<T: BenchType> {
    view: Log<T::Op>,
    value: T::Value,
    cache: ViewCache<T::Value>,
}

/// What the replay measured.
pub struct Replayed {
    /// The span tree of the replay.
    pub report: ProfileReport,
    /// Operations replayed.
    pub ops: u64,
    /// Entries merged by the append fast path, over all replicas.
    pub appended: u64,
    /// Entries merged below a replica's maximum timestamp.
    pub spliced: u64,
    /// `ViewCache::eval` calls.
    pub evals: u64,
    /// View-cache counters summed over shards: hits, entries replayed,
    /// checkpoint hits.
    pub cache: (u64, u64, u64),
}

/// Re-executes the layer calls of the run described by `input`.
pub fn replay<T: BenchType>(input: &Input<'_, T>) -> Replayed {
    let ttype = input.ttype;
    let commutes = ttype.apply_commutes();
    let cut = rounds(input);
    let mut replicas: Vec<(Log<T::Op>, DiffScratch)> = (0..REPLICAS)
        .map(|_| (Log::new(), DiffScratch::default()))
        .collect();
    let mut shards: Vec<ShardView<T>> = (0..input.shards)
        .map(|_| ShardView {
            view: Log::new(),
            value: ttype.initial_value(),
            cache: ViewCache::new(),
        })
        .collect();
    let (mut ops, mut appended, mut spliced, mut evals) = (0u64, 0u64, 0u64, 0u64);

    let mut probe = Probe::enabled();
    probe.enter("replay");
    for round in &cut {
        let ShardView { view, value, cache } = &mut shards[round.shard];
        let reads = |inv: &T::Inv| {
            let kind = ttype.invocation_kind(inv);
            let init = input.assignment.initial_size(kind);
            !input.policy.is_free(kind) && init > 0 && init <= REPLICAS
        };
        if round.ops.iter().any(|(inv, _)| reads(inv)) {
            probe.enter("frontier");
            let known = view.frontier();
            probe.exit("frontier");
            for (log, scratch) in &mut replicas {
                probe.enter("diff");
                let delta = log.delta_above_with(&known, scratch);
                probe.exit("diff");
                probe.enter("view_merge");
                if commutes {
                    for e in delta.entries() {
                        if view
                            .entries()
                            .binary_search_by_key(&e.ts, |x| x.ts)
                            .is_err()
                        {
                            ttype.apply_mut(value, &e.op);
                        }
                    }
                }
                view.merge(&delta);
                probe.exit("view_merge");
            }
        }

        probe.enter("execute");
        let mut delta: Log<T::Op> = Log::new();
        for &(inv, entry) in &round.ops {
            ops += 1;
            let kind = ttype.invocation_kind(inv);
            let seen = if input.policy.is_free(kind) || input.assignment.initial_size(kind) == 0 {
                ttype.initial_value()
            } else {
                black_box(view.max_timestamp());
                if commutes {
                    value.clone()
                } else {
                    evals += 1;
                    probe.enter("view_eval");
                    let v = cache.eval(view, ttype.initial_value(), |v, op| ttype.apply_mut(v, op));
                    probe.exit("view_eval");
                    v
                }
            };
            black_box(ttype.execute(&seen, inv));
            if let Some(e) = entry {
                delta.insert(e.clone());
                view.insert(e.clone());
                if commutes {
                    ttype.apply_mut(value, &e.op);
                }
            }
        }
        probe.exit("execute");

        if let Some(first) = delta.entries().first() {
            for (log, _) in &mut replicas {
                let append = log.max_timestamp().is_none_or(|max| first.ts > max);
                let span = if append {
                    "merge_append"
                } else {
                    "merge_splice"
                };
                *(if append { &mut appended } else { &mut spliced }) += delta.len() as u64;
                probe.enter(span);
                log.merge(&delta);
                probe.exit(span);
            }
        }
    }
    probe.exit("replay");

    let cache = shards.iter().fold((0, 0, 0), |acc, s| {
        (
            acc.0 + s.cache.hits(),
            acc.1 + s.cache.entries_replayed(),
            acc.2 + s.cache.checkpoint_hits(),
        )
    });
    Replayed {
        report: probe.report().expect("the replay's spans are balanced"),
        ops,
        appended,
        spliced,
        evals,
        cache,
    }
}

impl Replayed {
    /// Summed self nanoseconds of the spans named `name`.
    fn self_ns(&self, name: &str) -> u64 {
        self.report
            .aggregated_paths()
            .iter()
            .filter(|p| p.path.rsplit(';').next() == Some(name))
            .map(|p| p.self_ns)
            .sum()
    }

    /// Writes the replay's layer metrics and prints the per-op budget
    /// table: replayed busy time by layer plus the hand-off residual
    /// equals the wall time of the run's timed call.
    pub fn record(&self, run_wall_ns: u64, rounds: f64, out: &mut Layers) {
        let ops = self.ops as f64;
        let busy = self.report.total_ns();
        // The probe's exactness claim, checked rather than assumed.
        out.set(
            "budget.probe_self_minus_root_ns",
            self.report.self_sum_ns() as f64 - busy as f64,
        );
        let residual = run_wall_ns as i128 - busy as i128;
        out.set("budget.replay_busy_us_per_op", busy as f64 / 1e3 / ops);
        out.set("budget.handoff_us_per_op", residual as f64 / 1e3 / ops);
        out.set(
            "budget.replay_overestimates",
            f64::from(u8::from(residual < 0)),
        );
        out.set(
            "quorum.threaded.handoff_us_per_round",
            ratio(residual as f64 / 1e3, rounds),
        );
        out.set(
            "quorum.log.merge_append_ns_per_entry",
            ratio(self.self_ns("merge_append") as f64, self.appended as f64),
        );
        out.set(
            "quorum.log.merge_splice_ns_per_entry",
            ratio(self.self_ns("merge_splice") as f64, self.spliced as f64),
        );
        out.set(
            "quorum.viewcache.eval_ns_per_call",
            ratio(self.self_ns("view_eval") as f64, self.evals as f64),
        );
        let (hits, replayed, checkpoint_hits) = self.cache;
        out.set("quorum.viewcache.replayed_per_op", replayed as f64 / ops);
        out.set(
            "quorum.viewcache.hit_ratio",
            ratio(hits as f64, self.evals as f64),
        );
        out.set("quorum.viewcache.checkpoint_hits", checkpoint_hits as f64);

        println!("budget per op (ns), run_all wall = replayed layers + handoff:");
        let mut sum = 0i128;
        for p in self.report.aggregated_paths() {
            println!(
                "  {:<28} {:>12.1}  ({} spans)",
                p.path,
                p.self_ns as f64 / ops,
                p.count
            );
            sum += p.self_ns as i128;
        }
        println!(
            "  {:<28} {:>12.1}{}",
            "handoff",
            residual as f64 / ops,
            if residual < 0 {
                "  replay_overestimates"
            } else {
                ""
            }
        );
        sum += residual;
        println!(
            "  {:<28} {:>12.1}",
            "run_all wall",
            run_wall_ns as f64 / ops
        );
        assert_eq!(
            sum, run_wall_ns as i128,
            "budget parts sum to the wall time"
        );
    }
}

/// Layer micro-measurements on the run's own batches, outside the
/// budget: calls the threaded backend does not make on these shapes
/// today but other paths do.
pub fn micro<T: BenchType>(input: &Input<'_, T>, out: &mut Layers) {
    let ttype = input.ttype;
    let cut = rounds(input);

    // A reader one batch behind: the frontier before a batch lands, the
    // delta above it afterwards.
    let mut log: Log<T::Op> = Log::new();
    let mut scratch = DiffScratch::default();
    let mut index = MerkleIndex::new();
    let (mut diff_ns, mut diff_entries, mut note_ns, mut noted) = (0u128, 0u64, 0u128, 0u64);
    for round in &cut {
        let behind = log.frontier();
        let mut batch: Log<T::Op> = Log::new();
        for e in round.ops.iter().filter_map(|(_, e)| *e) {
            batch.insert(e.clone());
        }
        log.merge(&batch);
        let t = Instant::now();
        let delta = log.delta_above_with(&behind, &mut scratch);
        diff_ns += t.elapsed().as_nanos();
        diff_entries += delta.len() as u64;
        black_box(delta);

        let t = Instant::now();
        for e in batch.entries() {
            index.note(e.ts);
        }
        note_ns += t.elapsed().as_nanos();
        noted += batch.len() as u64;
    }
    black_box(index);
    out.set(
        "quorum.log.diff_ns_per_entry",
        ratio(diff_ns as f64, diff_entries as f64),
    );
    out.set(
        "quorum.merkle.note_ns_per_entry",
        ratio(note_ns as f64, noted as f64),
    );

    // The evaluation function alone, folded over the whole history.
    let t = Instant::now();
    let mut value = ttype.initial_value();
    for e in input.log.entries() {
        ttype.apply_mut(&mut value, &e.op);
    }
    let apply_ns = t.elapsed().as_nanos();
    black_box(value);
    out.set(
        "queues.apply_ns_per_entry",
        ratio(apply_ns as f64, input.log.len() as f64),
    );
}
