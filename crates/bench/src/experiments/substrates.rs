//! `relax-bench substrates`: the per-layer micro-benchmarks — replica
//! logs, the view cache, the sim client's view and write bookkeeping and
//! one whole invocation through the simulator, the degradation monitor,
//! the threaded backend's shard–broker round trip, the bounded language
//! walk and the naive enumerator, QCA view search, the term rewriter, the
//! lock manager, the atomicity checker, and the two operational executors
//! (print spooler, replicated taxi queue on the simulator) end to end.
//!
//! A row is a name and a closure that times it on one `Bencher`; each
//! prints its mean wall-clock ns per iteration, and the run writes every
//! row to `BENCH_micro_substrates.json` (`{"<row>": <mean ns>, …}` plus
//! the machine block), where `relax-bench regress` gates some of them.
//! Numbers are indicative means over an adaptive batch, not statistically
//! analysed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use relax_atomic::{
    serializable_in_commit_order, DequeueStrategy, LockManager, LockMode, Spooler, SpoolerConfig,
    TxId,
};
use relax_automata::{
    compare_upto, language_upto, CompareOptions, History, IntersectionAutomaton, ObjectAutomaton,
    Successors,
};
use relax_core::lattices::taxi::{PackedTaxiReference, TaxiLattice, TaxiPoint};
use relax_core::theorem4::verify_taxi_lattice;
use relax_queues::{
    queue_alphabet, PQueueAutomaton, QueueOp, SemiqueueAutomaton, SsQueueAutomaton,
    StutteringAutomaton,
};
use relax_quorum::calm::SchedulingPolicy;
use relax_quorum::relation::{AccountKind, QueueKind};
use relax_quorum::types::{AccountInv, BankAccountType, QueueInv, ReplicatedType, TaxiQueueType};
use relax_quorum::{
    queue_lattice_monitor, ClientConfig, DiffScratch, Entry, Executor, Log, QuorumSystem,
    RepViewAutomaton, ThreadedConfig, ThreadedSystem, Timestamp, ViewCache, VotingAssignment,
};
use relax_sim::{Ctx, NetworkConfig, Node, NodeId, Partition, World};
use relax_spec::{paper_theories, parse_term, Rewriter, Term};

use crate::args::Args;
use crate::experiments::write_payload;

/// The payload `relax-bench substrates` writes into the cwd.
const PAYLOAD: &str = "BENCH_micro_substrates.json";

/// Runs one row's timing loop and keeps its mean.
#[derive(Debug, Default)]
struct Bencher {
    mean_ns: f64,
    iters: u64,
}

impl Bencher {
    /// Times the routine: a short warm-up, then enough iterations to fill
    /// the measurement window, reporting mean wall-clock ns per iteration.
    fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up (also primes caches and the closure's first-call costs).
        let warmup_end = Instant::now() + Duration::from_millis(20);
        let mut warmup_iters: u64 = 0;
        while Instant::now() < warmup_end {
            black_box(routine());
            warmup_iters += 1;
        }
        // Measurement: batches sized from the warm-up rate, ~60ms total.
        let batch = warmup_iters.clamp(1, u64::MAX);
        let window = Duration::from_millis(60);
        let start = Instant::now();
        let mut total_iters: u64 = 0;
        while start.elapsed() < window {
            for _ in 0..batch {
                black_box(routine());
            }
            total_iters += batch;
        }
        let elapsed = start.elapsed();
        self.iters = total_iters;
        self.mean_ns = elapsed.as_nanos() as f64 / total_iters as f64;
    }

    /// Times `routine` on a fresh input from `setup` each iteration, for
    /// routines that consume or mutate their input. Only the routine is
    /// on the clock — not the set-up, nor dropping the routine's output.
    /// Stops after ~60ms of timed work or ~1s of wall time in all.
    fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..3 {
            black_box(routine(setup()));
        }
        let (window, wall_cap) = (Duration::from_millis(60), Duration::from_secs(1));
        let start = Instant::now();
        let mut timed = Duration::ZERO;
        let mut iters: u64 = 0;
        while timed < window && start.elapsed() < wall_cap {
            let input = setup();
            let t = Instant::now();
            let out = routine(input);
            timed += t.elapsed();
            black_box(out);
            iters += 1;
        }
        self.iters = iters;
        self.mean_ns = timed.as_nanos() as f64 / iters as f64;
    }

    /// Hands the clock to the routine: it is called with an iteration
    /// count, runs that many, and returns the time it wants counted — so
    /// it can time one step out of each iteration's many. Batches double
    /// until ~60ms have been counted or ~300ms of wall time have passed.
    fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        black_box(routine(3));
        let (window, wall_cap) = (Duration::from_millis(60), Duration::from_millis(300));
        let start = Instant::now();
        let (mut timed, mut iters, mut batch) = (Duration::ZERO, 0u64, 1u64);
        while timed < window && start.elapsed() < wall_cap {
            timed += routine(batch);
            iters += batch;
            batch *= 2;
        }
        self.iters = iters;
        self.mean_ns = timed.as_nanos() as f64 / iters as f64;
    }
}

/// Where a group hands its rows: a row's name, and the closure that
/// times it on one [`Bencher`].
type Sink<'s> = dyn FnMut(String, &mut dyn FnMut(&mut Bencher)) + 's;

/// Every group, in the order a run measures them.
const GROUPS: [fn(&mut Sink<'_>); 18] = [
    log_merge,
    log_tail_paths,
    log_one_writer,
    viewcache,
    sim_client_write,
    sim_invocation,
    sim_hold,
    monitor_observe,
    threaded_round_trip,
    product_walk,
    taxi_states,
    language_enumeration,
    qca_accept,
    rewrite,
    locking,
    commit_order_check,
    spooler,
    quorum_system,
];

fn make_log(entries: usize, site: usize) -> Log<QueueOp> {
    (0..entries)
        .map(|i| {
            Entry::new(
                Timestamp::new(i as u64 * 2 + site as u64, site),
                QueueOp::Enq(i as i64),
            )
        })
        .collect()
}

fn log_merge(row: &mut Sink<'_>) {
    for size in [100usize, 1000] {
        let a = make_log(size, 0);
        let b = make_log(size, 1);
        row(format!("log_merge/{size}"), &mut |bencher| {
            bencher.iter(|| black_box(a.merged(&b)).len());
        });
    }
}

/// The shard-round shapes of two interleaving writers (the even and the
/// odd of 256 sites, one entry per site per round): a replica holding
/// `history` entries, and the odd writer's next 128-entry batch, which
/// sorts inside the replica's last 256. Both calls cost O(batch), so the
/// three histories must read the same. Beside them, the two shapes that
/// read more than a batch: a delta for a peer whose view has a hole and
/// lacks a site (two plain passes over the history), and one site's
/// entries, shipped whole, merged into a log that holds all but one of
/// them (a gallop over the site's entries, then a 128-entry splice).
fn log_tail_paths(row: &mut Sink<'_>) {
    const SITES: usize = 256;
    for history in [1usize << 10, 1 << 14, 1 << 16] {
        let rounds = history / SITES + 1;
        let mut replica: Log<QueueOp> = Log::new();
        let mut batch: Log<QueueOp> = Log::new();
        for round in 0..rounds {
            for site in 0..SITES {
                let entry = Entry::new(
                    Timestamp::new(round as u64 + 1, site),
                    QueueOp::Enq(site as i64),
                );
                if round + 1 == rounds && site % 2 == 1 {
                    batch.insert(entry);
                } else if round + 1 < rounds || site % 2 == 0 {
                    replica.insert(entry);
                }
            }
        }
        // A clone's vectors are exactly full and the first merge into
        // it would pay to regrow them; a resident log, grown by appends,
        // has headroom. One appended entry buys the clone the same.
        let headroom: Log<QueueOp> = [Entry::new(
            Timestamp::new(rounds as u64 + 1, 0),
            QueueOp::Enq(0),
        )]
        .into_iter()
        .collect();
        row(format!("log_merge_splice_128/{history}"), &mut |bencher| {
            bencher.iter_batched(
                || replica.merged(&headroom),
                |mut log| {
                    log.merge(black_box(&batch));
                    log
                },
            );
        });

        // The even writer's view: one interleaved batch behind.
        let behind = replica.frontier();
        let ahead = replica.merged(&batch);
        let mut scratch = DiffScratch::default();
        row(
            format!("log_delta_one_batch_behind/{history}"),
            &mut |bencher| {
                bencher.iter(|| {
                    ahead
                        .delta_above_with(black_box(&behind), &mut scratch)
                        .len()
                });
            },
        );

        // The same view with a hole in trailing site 1 and site 2 never
        // heard of: both ship whole, site 1 once its confirmation fails,
        // so the delta reads the history twice.
        let holed: Log<QueueOp> = replica
            .entries()
            .iter()
            .filter(|e| e.ts.site != 2 && e.ts != Timestamp::new(rounds as u64 / 2 + 1, 1))
            .cloned()
            .collect();
        let holed = holed.frontier();
        row(format!("log_delta_holed/{history}"), &mut |bencher| {
            bencher.iter(|| {
                ahead
                    .delta_above_with(black_box(&holed), &mut scratch)
                    .len()
            });
        });

        // Site 1 shipped whole into the replica, which holds all of it
        // but the last round's entry: the merge skips what it holds and
        // splices in the one entry it lacks.
        let site: Log<QueueOp> = ahead
            .entries()
            .iter()
            .filter(|e| e.ts.site == 1)
            .cloned()
            .collect();
        row(format!("log_merge_held_site/{history}"), &mut |bencher| {
            bencher.iter_batched(
                || replica.merged(&headroom),
                |mut log| {
                    log.merge(black_box(&site));
                    log
                },
            );
        });
    }
}

/// One writer's shapes: a shard of 256 clients (one site each, one entry
/// per site per round) and a replica holding `resident` of its entries.
/// `log_insert_above_tail` is what the shard does to its own view and
/// round payload — the next round's 256 mints inserted one by one, each
/// above the tail; `log_merge_append_256` is what the replica does with
/// that round's group commit. Neither looks below the tail, so the three
/// sizes must read the same.
///
/// `shard_round_free_after_debit` merges sixteen rounds into the 16k
/// replica in the two shapes a CALM shard can mint them. `observed`:
/// every client's clock observes the shard view before it ticks, free
/// round or not, so round `j` sits wholly above round `j - 1` and every
/// commit appends. `unobserved`: only the first round observes; after
/// it client `c` mints `M + c + 1 + j`, which lands among everything
/// minted since — every later commit is a splice over a growing tail.
fn log_one_writer(row: &mut Sink<'_>) {
    const SITES: u64 = 256;
    let stamp = |counter: u64, site: u64| {
        Entry::new(
            Timestamp::new(counter, site as usize),
            QueueOp::Enq(site as i64),
        )
    };
    let round_from = |base: u64| -> Log<QueueOp> {
        (0..SITES)
            .map(|site| stamp(base + site + 1, site))
            .collect()
    };
    // A replica holding the shard's first `resident / 256` rounds, and the
    // one entry that sorts just above them. A power-of-two log is exactly
    // full, and so is any clone; merging that entry in buys each fresh
    // copy the headroom a log grown by appends normally has (as in
    // `log_tail_paths`).
    let resident_log = |resident: u64| -> (Log<QueueOp>, Log<QueueOp>) {
        let mut replica: Log<QueueOp> = Log::new();
        for r in 0..resident / SITES {
            replica.merge(&round_from(r * SITES));
        }
        (replica, [stamp(resident + 1, 0)].into_iter().collect())
    };
    for resident in [1u64 << 10, 1 << 14, 1 << 16] {
        let (replica, headroom) = resident_log(resident);
        let next = round_from(resident + 1);

        row(
            format!("log_insert_above_tail/{resident}"),
            &mut |bencher| {
                bencher.iter_batched(
                    || replica.merged(&headroom),
                    |mut log| {
                        for entry in black_box(&next).entries() {
                            log.insert(entry.clone());
                        }
                        log
                    },
                );
            },
        );

        row(format!("log_merge_append_256/{resident}"), &mut |bencher| {
            bencher.iter_batched(
                || replica.merged(&headroom),
                |mut log| {
                    log.merge(black_box(&next));
                    log
                },
            );
        });
    }

    let resident = 1u64 << 14;
    let (replica, headroom) = resident_log(resident);
    let sixteen = |stride: u64| -> Vec<Log<QueueOp>> {
        (0..16)
            .map(|j| round_from(resident + 1 + stride * j))
            .collect()
    };
    for (shape, rounds) in [("observed", sixteen(SITES)), ("unobserved", sixteen(1))] {
        row(
            format!("shard_round_free_after_debit/{shape}"),
            &mut |bencher| {
                bencher.iter_batched(
                    || replica.merged(&headroom),
                    |mut log| {
                        for round in black_box(&rounds) {
                            log.merge(round);
                        }
                        log
                    },
                );
            },
        );
    }
}

/// The two `ViewCache` paths over a taxi view of `size` pending
/// requests. `viewcache_eval_append_1`: append one entry to the view and
/// evaluate — a hit, which folds that entry into the cached bag in
/// place, so the three sizes must read the same. (The entry re-enqueues
/// a pending item, so the bag keeps its `size` keys however long the
/// loop runs; the cache never misses, so the growing log crosses its
/// checkpoint boundaries without storing one.)
/// `viewcache_splice_resume`: an entry landed 32 below the top of a
/// view of `size + 64` — a miss that resumes from the checkpoint at
/// `size` (a boundary at all three sizes) and pays one copy of that
/// bag, so this one is linear in `size`. It alternates two such views,
/// each a splice to the cache the other left behind; the chain stores
/// nothing before the cache has seen a miss, so one early splice — the
/// view's first two entries arriving in reverse — arms it.
fn viewcache(row: &mut Sink<'_>) {
    let ttype = TaxiQueueType;
    let eval = |cache: &mut ViewCache<_>, log: &Log<QueueOp>| {
        cache
            .eval_ref(log, ttype.initial_value(), |v, op| ttype.apply_mut(v, op))
            .is_empty()
    };
    for size in [1usize << 10, 1 << 14, 1 << 16] {
        let mut log = make_log(size, 0);
        let mut cache = ViewCache::new();
        eval(&mut cache, &log);
        let mut counter = 2 * size as u64;
        row(format!("viewcache_eval_append_1/{size}"), &mut |bencher| {
            bencher.iter(|| {
                counter += 1;
                log.insert(Entry::new(Timestamp::new(counter, 0), QueueOp::Enq(0)));
                eval(&mut cache, black_box(&log))
            });
        });
        assert_eq!(cache.misses(), 0);

        let base = make_log(size + 64, 0);
        // make_log(_, 0) stamps even counters: an odd one sorts between.
        let spliced = [1, 2].map(|site| {
            let at = Timestamp::new((size as u64 + 32) * 2 - 1, site);
            let mut log = base.clone();
            log.insert(Entry::new(at, QueueOp::Enq(-1)));
            log
        });
        let mut cache = ViewCache::new();
        eval(&mut cache, &base.range(1, 2));
        eval(&mut cache, &base.range(0, 2));
        eval(&mut cache, &base);
        assert_eq!((cache.misses(), cache.checkpoint_hits()), (1, 0));
        let mut turn = 0;
        row(format!("viewcache_splice_resume/{size}"), &mut |bencher| {
            bencher.iter(|| {
                turn ^= 1;
                eval(&mut cache, black_box(&spliced[turn]))
            });
        });
        assert_eq!(cache.checkpoint_hits(), cache.misses() - 1);
    }
}

/// One client of the protocol core with `resident` completed credits
/// behind it, two live replicas and replica 2 cut off from the start, so
/// what it is owed is everything, every time. `free` runs the credits
/// coordination-free (no read phase, the WAL is what ships); otherwise
/// each reads one replica and records at one.
fn sim_client(resident: usize, free: bool) -> QuorumSystem<BankAccountType> {
    let assignment = VotingAssignment::new(3)
        .with_initial(AccountKind::Credit, usize::from(!free))
        .with_final(AccountKind::Credit, 1);
    let mut sys = QuorumSystem::new(
        BankAccountType,
        3,
        assignment,
        ClientConfig::default(),
        NetworkConfig::new(1, 5, 0.0),
        42,
    );
    if free {
        sys = sys.with_scheduling(SchedulingPolicy::coordination_free([AccountKind::Credit]));
    }
    sys.world_mut()
        .network_mut()
        .set_partition(Partition::groups(vec![
            vec![NodeId(3), NodeId(0), NodeId(1)],
            vec![NodeId(2)],
        ]));
    // One at a time: a burst of free credits would each ship all the
    // unacked ones before it.
    for _ in 0..resident {
        sys.submit(AccountInv::Credit(1));
        assert!(sys.run_to_quiescence(u64::MAX));
    }
    sys
}

/// Runs one more credit to its outcome and returns the times of two
/// client steps. `[0]`, the one that ships: on the quorum path it takes
/// the quorum-completing read response, builds the view, responds and
/// ships the write. `[1]`, the one that records the outcome: the
/// completing ack on the quorum path. On the free path the invocation's
/// only step, which ships the WAL, is both.
fn one_write(sys: &mut QuorumSystem<BankAccountType>) -> [Duration; 2] {
    let done = sys.outcomes().len();
    let shipped = sys.client_bookkeeping(0).shipped.0;
    sys.submit(AccountInv::Credit(1));
    let mut steps = [Duration::ZERO; 2];
    while sys.outcomes().len() == done {
        let ships = sys.client_bookkeeping(0).shipped.0 == shipped;
        let t = Instant::now();
        assert!(sys.world_mut().step());
        steps[1] = t.elapsed();
        if ships {
            steps[0] = steps[1];
        }
    }
    assert!(sys.run_to_quiescence(u64::MAX)); // the late response and acks
    steps
}

/// The client's bookkeeping, one step at a time. Rebuilding the view
/// from the prefix it shares with the responder's log, folding an ack
/// and shipping the WAL past a silent replica cost what changed and what
/// is shipped, so their three resident sizes must read the same (cache
/// misses aside). A system is rebuilt once its history has drifted an
/// eighth past `resident`.
fn sim_client_write(row: &mut Sink<'_>) {
    for resident in [1usize << 10, 1 << 14, 1 << 16] {
        for (free, name, step) in [
            (false, "sim_client_read_view", 0),
            (false, "sim_client_write_ack", 1),
            (true, "sim_client_write_payloads", 1),
        ] {
            row(format!("{name}/{resident}"), &mut |bencher| {
                let mut sys = sim_client(resident, free);
                bencher.iter_custom(|iters| {
                    let mut timed = Duration::ZERO;
                    for _ in 0..iters {
                        if sys.outcomes().len() > resident + resident / 8 {
                            sys = sim_client(resident, free);
                        }
                        timed += one_write(&mut sys)[step];
                    }
                    timed
                });
            });
        }
    }
}

/// One whole invocation through the sim executor — submit, read phase,
/// response, write phase, every simulator event in between — on a
/// healthy three-replica taxi queue with a 1,024-entry history behind
/// one client: ns per completed invocation. `enq` answers the same
/// against every view and must pay for nothing that grows with the
/// history: no view folded, no message body allocated afresh. `deq`
/// reads the view's value (a one-entry cache hit) and assembles
/// majorities. The system is rebuilt once its history has drifted an
/// eighth past 1,024.
fn sim_invocation(row: &mut Sink<'_>) {
    const HISTORY: usize = 1 << 10;
    let fresh = || {
        let assignment = VotingAssignment::new(3)
            .with_initial(QueueKind::Deq, 2)
            .with_final(QueueKind::Deq, 2)
            .with_initial(QueueKind::Enq, 1)
            .with_final(QueueKind::Enq, 1);
        let mut sys = QuorumSystem::new(
            TaxiQueueType,
            3,
            assignment,
            ClientConfig::default(),
            NetworkConfig::new(1, 5, 0.0),
            42,
        );
        for i in 0..HISTORY {
            sys.submit(QueueInv::Enq(i as i64));
        }
        assert!(sys.run_to_quiescence(u64::MAX));
        sys
    };
    for (name, inv) in [("enq", QueueInv::Enq(7)), ("deq", QueueInv::Deq)] {
        row(format!("sim_invocation/{name}"), &mut |bencher| {
            let mut sys = fresh();
            bencher.iter_custom(|iters| {
                let mut timed = Duration::ZERO;
                for _ in 0..iters {
                    if sys.outcomes().len() > HISTORY + HISTORY / 8 {
                        sys = fresh();
                    }
                    let t = Instant::now();
                    sys.submit(inv);
                    assert!(sys.run_to_quiescence(u64::MAX));
                    timed += t.elapsed();
                    assert!(sys.outcomes().last().is_some_and(|o| o.is_completed()));
                }
                timed
            });
        });
    }
}

/// Keeps `pending` timers armed: each that fires arms the next one 1–200
/// ticks later (a client timeout's range).
struct Hold;

impl Node<u64> for Hold {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, _from: NodeId, pending: u64) {
        for _ in 0..pending {
            self.on_timer(ctx, 0);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, _token: u64) {
        let delay = 1 + ctx.rng().next_u64() % 200;
        ctx.set_timer(delay, 0);
    }
}

/// The simulator's event queue, in the classic hold model: one
/// `World::step` with `pending` timers queued, on a node that only
/// re-arms, ns per event. The calendar of tick buckets schedules and
/// pops in O(1), so the two sizes read about the same; a binary heap
/// sifts through log2(pending) levels per event.
fn sim_hold(row: &mut Sink<'_>) {
    for pending in [64u64, 16_384] {
        let mut world = World::new(vec![Hold], NetworkConfig::default(), 7);
        world.send_external(NodeId(0), pending);
        assert!(world.step());
        row(format!("sim_hold/{pending}"), &mut |bencher| {
            bencher.iter(|| assert!(world.step()));
        });
    }
}

/// The degradation monitor (`queue_lattice_monitor`: PQ, MPQ, OPQ and
/// DegenPQ, each an acceptor), ns per observed operation over a PQ-legal
/// history: 16 enqueues, then `ops` more, each pair an `Enq` of a new
/// best item and its `Deq`, so 16 items stay live while MPQ's `absent`
/// bag and DegenPQ's one bag grow with the history. A level that clones
/// its state per operation again reads the history's length here: the
/// two sizes must read about the same. A monitor runs the history from
/// the start; a fresh one replaces it, untimed, at the end.
fn monitor_observe(row: &mut Sink<'_>) {
    for ops in [1usize << 10, 1 << 14] {
        let mut history: Vec<QueueOp> = (0..16).map(QueueOp::Enq).collect();
        for i in 0..ops as i64 / 2 {
            history.extend([QueueOp::Enq(16 + i), QueueOp::Deq(16 + i)]);
        }
        let mut monitor = queue_lattice_monitor();
        let mut next = 0;
        row(format!("monitor_observe/{ops}"), &mut |bencher| {
            bencher.iter_custom(|iters| {
                let (mut timed, mut left) = (Duration::ZERO, iters as usize);
                while left > 0 {
                    if next == history.len() {
                        monitor = queue_lattice_monitor();
                        next = 0;
                    }
                    let run = &history[next..history.len().min(next + left)];
                    let t = Instant::now();
                    for op in run {
                        black_box(monitor.observe(op));
                    }
                    timed += t.elapsed();
                    (next, left) = (next + run.len(), left - run.len());
                }
                assert_eq!(monitor.current_level(), Some("PQ"));
                timed
            });
        });
    }
}

/// The hand-off layer of the threaded backend alone: one client, 256
/// credits, each a round of its own over three replicas, so a run is
/// nothing but shard–broker visits around O(1) layer work. Reads µs per
/// round (a run's wall time over its rounds; the spawn and join of its
/// four threads is in there, about half a microsecond a round). `reads`
/// schedules every credit through its quorums — a read and a commit per
/// round, which share one visit; `free` frees them — a commit per round,
/// one visit. Thread wake-ups on a shared box: reported, not gated.
fn threaded_round_trip(row: &mut Sink<'_>) {
    const ROUNDS: u32 = 256;
    let assignment = VotingAssignment::new(3)
        .with_initial(AccountKind::Credit, 1)
        .with_final(AccountKind::Credit, 1);
    for (name, policy) in [
        ("reads", SchedulingPolicy::all_quorum()),
        (
            "free",
            SchedulingPolicy::coordination_free([AccountKind::Credit]),
        ),
    ] {
        row(format!("threaded_round_trip/{name}"), &mut |bencher| {
            bencher.iter_custom(|runs| {
                let mut per_round = Duration::ZERO;
                for _ in 0..runs {
                    let mut sys = ThreadedSystem::new(
                        BankAccountType,
                        3,
                        1,
                        assignment.clone(),
                        ThreadedConfig::default(),
                    )
                    .with_scheduling(policy.clone());
                    for _ in 0..ROUNDS {
                        sys.submit_to(0, AccountInv::Credit(1));
                    }
                    per_round += Duration::from_nanos(sys.run_all().wall_nanos) / ROUNDS;
                }
                per_round
            });
        });
    }
}

/// The one language walk, ns per call, in the three shapes its callers
/// give it: one pair over the raw QCA (whose history states never
/// merge), one pair over a lattice join check (an intersection against
/// its claimed join), and Theorem 4's four Rep-view quotient pairs
/// walked in turn through one reused walker. The last row keeps its
/// `n4_` name, which keys its committed baseline, from when the four
/// pairs rode one tuple walk.
fn product_walk(row: &mut Sink<'_>) {
    let alphabet = queue_alphabet(&[1, 2, 3]);

    let lattice = TaxiLattice::new();
    let theorem_4 = TaxiPoint {
        q1: true,
        q2: false,
    };
    let (qca, mpq) = (lattice.qca(theorem_4), lattice.reference(theorem_4));
    row("product_walk/n1_rawqca_3x6".to_string(), &mut |bencher| {
        bencher.iter(|| compare_upto(&qca, &mpq, &alphabet, 6, CompareOptions::counting()));
    });

    let join = IntersectionAutomaton::new(StutteringAutomaton::new(2), SemiqueueAutomaton::new(2));
    let phi_of_join = SsQueueAutomaton::new(1, 1);
    row("product_walk/n1_join_ssq_3x7".to_string(), &mut |bencher| {
        bencher.iter(|| {
            compare_upto(
                &join,
                &phi_of_join,
                &alphabet,
                7,
                CompareOptions::counting(),
            )
        });
    });

    row("product_walk/n4_taxi_3x8".to_string(), &mut |bencher| {
        bencher.iter(|| verify_taxi_lattice(black_box(&[1, 2, 3]), 8));
    });
}

/// The state layer under Theorem 4's walk: ns per `step_all_into`, into
/// one reused `Successors` buffer as the walk calls it, over every
/// (point, state) pair the (3, 8) walk steps on one side, i.e. every
/// state a history of at most 7 operations reaches at each of the four
/// points. `quotient` is the Rep-view side, `reference` the packed
/// reference side. A step that sorts again, or a state that goes back to
/// trees, shows here before it shows in `product_walk/n4_taxi_3x8`.
fn taxi_states(row: &mut Sink<'_>) {
    let items = [1, 2, 3];
    let alphabet = queue_alphabet(&items);
    let points = TaxiPoint::all();
    step_all_row(
        row,
        "taxi_states/quotient_3x8",
        &points.map(|p| RepViewAutomaton::new(p.q1, p.q2, &items)),
        &alphabet,
    );
    step_all_row(
        row,
        "taxi_states/reference_3x8",
        &points.map(|p| PackedTaxiReference::new(p, &items)),
        &alphabet,
    );
}

/// One `taxi_states` row: `step_all_into` over each automaton's states
/// reachable within 7 operations, round robin, into one buffer.
fn step_all_row<A: ObjectAutomaton<Op = QueueOp>>(
    row: &mut Sink<'_>,
    name: &str,
    automata: &[A],
    alphabet: &[QueueOp],
) {
    row(name.to_string(), &mut |bencher| {
        let pairs: Vec<(&A, A::State)> = automata
            .iter()
            .flat_map(|a| reachable(a, alphabet, 7).into_iter().map(move |s| (a, s)))
            .collect();
        let mut next = 0;
        let mut out = Successors::new();
        bencher.iter_custom(|iters| {
            let start = Instant::now();
            for _ in 0..iters {
                let (a, s) = &pairs[next];
                out.clear();
                a.step_all_into(s, alphabet, &mut out);
                black_box(&out);
                next = (next + 1) % pairs.len();
            }
            start.elapsed()
        });
    });
}

/// Every state of `a` some history of at most `depth` operations over
/// `alphabet` reaches.
fn reachable<A: ObjectAutomaton>(a: &A, alphabet: &[A::Op], depth: usize) -> Vec<A::State> {
    let mut seen = std::collections::BTreeSet::from([a.initial_state()]);
    let mut frontier = vec![a.initial_state()];
    for _ in 0..depth {
        let mut level = Vec::new();
        for s in &frontier {
            for op in alphabet {
                for t in a.step(s, op) {
                    if seen.insert(t.clone()) {
                        level.push(t);
                    }
                }
            }
        }
        frontier = level;
    }
    seen.into_iter().collect()
}

fn language_enumeration(row: &mut Sink<'_>) {
    let alphabet = queue_alphabet(&[1, 2]);
    for len in [4usize, 6] {
        row(format!("language_upto_pqueue/{len}"), &mut |bencher| {
            bencher.iter(|| language_upto(&PQueueAutomaton::new(), &alphabet, len).len());
        });
    }
}

fn qca_accept(row: &mut Sink<'_>) {
    let lattice = TaxiLattice::new();
    for len in [8usize, 12] {
        // A duplicate-heavy history accepted by the Q1 point: Enq then
        // repeated Deqs of the same item.
        let mut ops = vec![QueueOp::Enq(1)];
        for _ in 1..len {
            ops.push(QueueOp::Deq(1));
        }
        let h = History::from(ops);
        let qca = lattice.qca(TaxiPoint {
            q1: true,
            q2: false,
        });
        row(format!("qca_accepts/{len}"), &mut |bencher| {
            bencher.iter(|| black_box(qca.accepts(&h)));
        });
    }
}

fn commit_order_check(row: &mut Sink<'_>) {
    let report = Spooler::new(SpoolerConfig {
        strategy: DequeueStrategy::Optimistic,
        printers: 4,
        jobs: 30,
        print_time: 3,
        abort_probability: 0.1,
        seed: 11,
    })
    .run();
    row(
        "commit_order_serializability_30jobs".to_string(),
        &mut |bencher| {
            bencher.iter(|| {
                black_box(serializable_in_commit_order(
                    &SemiqueueAutomaton::new(4),
                    &report.schedule,
                ))
            });
        },
    );
}

fn spooler(row: &mut Sink<'_>) {
    for strategy in [
        DequeueStrategy::BlockingFifo,
        DequeueStrategy::Optimistic,
        DequeueStrategy::Pessimistic,
    ] {
        row(
            format!("spooler_40jobs_4printers/{strategy:?}"),
            &mut |bencher| {
                bencher.iter(|| {
                    black_box(
                        Spooler::new(SpoolerConfig {
                            strategy,
                            printers: 4,
                            jobs: 40,
                            print_time: 3,
                            abort_probability: 0.1,
                            seed: 3,
                        })
                        .run(),
                    )
                    .printed
                    .len()
                });
            },
        );
    }
}

fn quorum_system(row: &mut Sink<'_>) {
    let assignment = VotingAssignment::new(5)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, 3)
        .with_initial(QueueKind::Deq, 3)
        .with_final(QueueKind::Deq, 3);
    row("quorum_taxi_50ops_5replicas".to_string(), &mut |bencher| {
        bencher.iter(|| {
            let mut sys = QuorumSystem::new(
                TaxiQueueType,
                5,
                assignment.clone(),
                ClientConfig::default(),
                NetworkConfig::default(),
                17,
            );
            for i in 0..25 {
                sys.submit(QueueInv::Enq(i));
            }
            for _ in 0..25 {
                sys.submit(QueueInv::Deq);
            }
            sys.run_to_quiescence(1_000_000);
            black_box(sys.outcomes().len())
        });
    });
}

fn rewrite(row: &mut Sink<'_>) {
    let set = paper_theories().expect("shipped theories parse");
    let bag = set.theory("Bag").expect("Bag present").clone();
    let rw = Rewriter::new(&bag).expect("rewriter builds");
    for size in [10usize, 30] {
        // ins-chain of `size` items, then delete them all.
        let mut t = parse_term(&bag, "emp").expect("parses");
        for i in 0..size {
            t = Term::app("ins", vec![t, Term::Int(i as i64)]);
        }
        let mut d = t;
        for i in 0..size {
            d = Term::app("del", vec![d, Term::Int(i as i64)]);
        }
        row(format!("rewrite_bag_del_chain/{size}"), &mut |bencher| {
            bencher.iter(|| rw.normalize(black_box(&d)).expect("terminates"));
        });
    }
}

fn locking(row: &mut Sink<'_>) {
    row("lock_manager_churn_100tx".to_string(), &mut |bencher| {
        bencher.iter(|| {
            let mut lm: LockManager<u32> = LockManager::new();
            for i in 0..100u32 {
                lm.request(TxId(i), i % 7, LockMode::Exclusive);
            }
            for i in 0..100u32 {
                black_box(lm.release_all(TxId(i)));
            }
        });
    });
}

/// `relax-bench substrates`: times every row of `GROUPS` in order,
/// printing each, and writes them all to `BENCH_micro_substrates.json`.
pub fn main(_: &Args) -> Result<(), String> {
    let mut results: Vec<(String, f64)> = Vec::new();
    for group in GROUPS {
        group(&mut |name, body| {
            let mut bencher = Bencher::default();
            body(&mut bencher);
            println!(
                "bench {name:<50} {:>14.1} ns/iter  ({} iters)",
                bencher.mean_ns, bencher.iters
            );
            results.push((name, bencher.mean_ns));
        });
    }
    let fields: Vec<String> = (results.iter())
        .map(|(name, ns)| format!("{name:?}:{ns:.1}"))
        .collect();
    write_payload(PAYLOAD, &format!("{{{}}}\n", fields.join(",")))?;
    println!("\nwrote {PAYLOAD}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::regress::CHECKS;

    #[test]
    fn iter_batched_hands_every_iteration_a_fresh_input() {
        let mut b = Bencher::default();
        let mut set_ups = 0u64;
        b.iter_batched(
            || {
                set_ups += 1;
                vec![1u8; 4]
            },
            |mut v| {
                assert_eq!(v.len(), 4, "input was reused");
                v.push(0);
                v
            },
        );
        assert_eq!(
            set_ups,
            b.iters + 3,
            "one set-up per call, warm-up included"
        );
        assert!(b.mean_ns > 0.0);
    }

    #[test]
    fn iter_custom_counts_only_what_the_routine_reports() {
        let mut b = Bencher::default();
        let mut ran = 0u64;
        b.iter_custom(|iters| {
            ran += iters;
            std::thread::sleep(Duration::from_millis(1));
            Duration::from_nanos(500 * iters)
        });
        assert_eq!(
            ran,
            b.iters + 3,
            "every requested iteration ran, warm-up included"
        );
        assert!((b.mean_ns - 500.0).abs() < 1e-6, "mean {} ns", b.mean_ns);
    }

    /// The row names a run writes, collected without timing any row: 62
    /// of them, none twice, and every micro-benchmark metric `regress`
    /// gates among them.
    #[test]
    fn every_gated_micro_metric_is_a_row() {
        let mut names: Vec<String> = Vec::new();
        for group in GROUPS {
            group(&mut |name, _| names.push(name));
        }
        assert_eq!(names.len(), 62);
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a row name repeats");
        let gated: Vec<&str> = (CHECKS.iter())
            .filter(|c| c.file == PAYLOAD)
            .map(|c| c.metric)
            .collect();
        assert_eq!(gated.len(), 11);
        for metric in gated {
            assert!(names.iter().any(|n| n == metric), "{metric} is no row");
        }
    }
}
