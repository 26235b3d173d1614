//! Microbenchmarks, the one criterion target: replica logs, the view
//! cache, the sim client's view and write bookkeeping and one whole
//! invocation through the simulator, the threaded
//! backend's shard–broker round trip, the bounded language walk and the
//! naive enumerator, QCA view search, the term rewriter, the lock
//! manager, the atomicity checker, and the two operational executors
//! (print spooler, replicated taxi queue on the simulator) end to end.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
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
    ClientConfig, DiffScratch, Entry, Executor, Log, QuorumSystem, RepViewAutomaton,
    ThreadedConfig, ThreadedSystem, Timestamp, ViewCache, VotingAssignment,
};
use relax_sim::{Ctx, NetworkConfig, Node, NodeId, Partition, World};
use relax_spec::{paper_theories, parse_term, Rewriter, Term};

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

fn bench_log_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("log_merge");
    group.sample_size(20);
    for size in [100usize, 1000] {
        let a = make_log(size, 0);
        let b = make_log(size, 1);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |bencher, _| {
            bencher.iter(|| black_box(a.merged(&b)).len());
        });
    }
    group.finish();
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
fn bench_log_tail_paths(c: &mut Criterion) {
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
        let mut group = c.benchmark_group("log_merge_splice_128");
        group.bench_with_input(BenchmarkId::from_parameter(history), &(), |bencher, ()| {
            bencher.iter_batched(
                || replica.merged(&headroom),
                |mut log| {
                    log.merge(black_box(&batch));
                    log
                },
                BatchSize::LargeInput,
            );
        });
        group.finish();

        // The even writer's view: one interleaved batch behind.
        let behind = replica.frontier();
        let ahead = replica.merged(&batch);
        let mut scratch = DiffScratch::default();
        let mut group = c.benchmark_group("log_delta_one_batch_behind");
        group.bench_with_input(BenchmarkId::from_parameter(history), &(), |bencher, ()| {
            bencher.iter(|| {
                ahead
                    .delta_above_with(black_box(&behind), &mut scratch)
                    .len()
            });
        });
        group.finish();

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
        let mut group = c.benchmark_group("log_delta_holed");
        group.bench_with_input(BenchmarkId::from_parameter(history), &(), |bencher, ()| {
            bencher.iter(|| {
                ahead
                    .delta_above_with(black_box(&holed), &mut scratch)
                    .len()
            });
        });
        group.finish();

        // Site 1 shipped whole into the replica, which holds all of it
        // but the last round's entry: the merge skips what it holds and
        // splices in the one entry it lacks.
        let site: Log<QueueOp> = ahead
            .entries()
            .iter()
            .filter(|e| e.ts.site == 1)
            .cloned()
            .collect();
        let mut group = c.benchmark_group("log_merge_held_site");
        group.bench_with_input(BenchmarkId::from_parameter(history), &(), |bencher, ()| {
            bencher.iter_batched(
                || replica.merged(&headroom),
                |mut log| {
                    log.merge(black_box(&site));
                    log
                },
                BatchSize::LargeInput,
            );
        });
        group.finish();
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
fn bench_log_one_writer(c: &mut Criterion) {
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
    // `bench_log_tail_paths`).
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

        let mut group = c.benchmark_group("log_insert_above_tail");
        group.bench_with_input(BenchmarkId::from_parameter(resident), &(), |bencher, ()| {
            bencher.iter_batched(
                || replica.merged(&headroom),
                |mut log| {
                    for entry in black_box(&next).entries() {
                        log.insert(entry.clone());
                    }
                    log
                },
                BatchSize::LargeInput,
            );
        });
        group.finish();

        let mut group = c.benchmark_group("log_merge_append_256");
        group.bench_with_input(BenchmarkId::from_parameter(resident), &(), |bencher, ()| {
            bencher.iter_batched(
                || replica.merged(&headroom),
                |mut log| {
                    log.merge(black_box(&next));
                    log
                },
                BatchSize::LargeInput,
            );
        });
        group.finish();
    }

    let resident = 1u64 << 14;
    let (replica, headroom) = resident_log(resident);
    let sixteen = |stride: u64| -> Vec<Log<QueueOp>> {
        (0..16)
            .map(|j| round_from(resident + 1 + stride * j))
            .collect()
    };
    let mut group = c.benchmark_group("shard_round_free_after_debit");
    for (shape, rounds) in [("observed", sixteen(SITES)), ("unobserved", sixteen(1))] {
        group.bench_with_input(BenchmarkId::from_parameter(shape), &(), |bencher, ()| {
            bencher.iter_batched(
                || replica.merged(&headroom),
                |mut log| {
                    for round in black_box(&rounds) {
                        log.merge(round);
                    }
                    log
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
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
fn bench_viewcache(c: &mut Criterion) {
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
        let mut group = c.benchmark_group("viewcache_eval_append_1");
        group.bench_with_input(BenchmarkId::from_parameter(size), &(), |bencher, ()| {
            bencher.iter(|| {
                counter += 1;
                log.insert(Entry::new(Timestamp::new(counter, 0), QueueOp::Enq(0)));
                eval(&mut cache, black_box(&log))
            });
        });
        group.finish();
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
        let mut group = c.benchmark_group("viewcache_splice_resume");
        group.bench_with_input(BenchmarkId::from_parameter(size), &(), |bencher, ()| {
            bencher.iter(|| {
                turn ^= 1;
                eval(&mut cache, black_box(&spliced[turn]))
            });
        });
        group.finish();
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
fn bench_sim_client_write(c: &mut Criterion) {
    for resident in [1usize << 10, 1 << 14, 1 << 16] {
        for (free, name, step) in [
            (false, "sim_client_read_view", 0),
            (false, "sim_client_write_ack", 1),
            (true, "sim_client_write_payloads", 1),
        ] {
            let mut sys = sim_client(resident, free);
            let mut group = c.benchmark_group(name);
            group.bench_function(BenchmarkId::from_parameter(resident), |bencher| {
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
            group.finish();
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
fn bench_sim_invocation(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("sim_invocation");
    for (name, inv) in [("enq", QueueInv::Enq(7)), ("deq", QueueInv::Deq)] {
        let mut sys = fresh();
        group.bench_function(BenchmarkId::from_parameter(name), |bencher| {
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
    group.finish();
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
fn bench_sim_hold(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_hold");
    for pending in [64u64, 16_384] {
        let mut world = World::new(vec![Hold], NetworkConfig::default(), 7);
        world.send_external(NodeId(0), pending);
        assert!(world.step());
        group.bench_function(BenchmarkId::from_parameter(pending), |bencher| {
            bencher.iter(|| assert!(world.step()));
        });
    }
    group.finish();
}

/// The hand-off layer of the threaded backend alone: one client, 256
/// credits, each a round of its own over three replicas, so a run is
/// nothing but shard–broker visits around O(1) layer work. Reads µs per
/// round (a run's wall time over its rounds; the spawn and join of its
/// four threads is in there, about half a microsecond a round). `reads`
/// schedules every credit through its quorums — a read and a commit per
/// round, which share one visit; `free` frees them — a commit per round,
/// one visit. Thread wake-ups on a shared box: reported, not gated.
fn bench_threaded_round_trip(c: &mut Criterion) {
    const ROUNDS: u32 = 256;
    let assignment = VotingAssignment::new(3)
        .with_initial(AccountKind::Credit, 1)
        .with_final(AccountKind::Credit, 1);
    let mut group = c.benchmark_group("threaded_round_trip");
    for (name, policy) in [
        ("reads", SchedulingPolicy::all_quorum()),
        (
            "free",
            SchedulingPolicy::coordination_free([AccountKind::Credit]),
        ),
    ] {
        group.bench_function(BenchmarkId::from_parameter(name), |bencher| {
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
    group.finish();
}

/// The one language walk, ns per call, in the three shapes its callers
/// give it: one pair over the raw QCA (whose history states never
/// merge), one pair over a lattice join check (an intersection against
/// its claimed join), and Theorem 4's four Rep-view quotient pairs
/// walked in turn through one reused walker. The last row keeps its
/// `n4_` name, which keys its committed baseline, from when the four
/// pairs rode one tuple walk.
fn bench_product_walk(c: &mut Criterion) {
    let alphabet = queue_alphabet(&[1, 2, 3]);
    let mut group = c.benchmark_group("product_walk");
    group.sample_size(10);

    let lattice = TaxiLattice::new();
    let theorem_4 = TaxiPoint {
        q1: true,
        q2: false,
    };
    let (qca, mpq) = (lattice.qca(theorem_4), lattice.reference(theorem_4));
    group.bench_function(BenchmarkId::from_parameter("n1_rawqca_3x6"), |bencher| {
        bencher.iter(|| compare_upto(&qca, &mpq, &alphabet, 6, CompareOptions::counting()));
    });

    let join = IntersectionAutomaton::new(StutteringAutomaton::new(2), SemiqueueAutomaton::new(2));
    let phi_of_join = SsQueueAutomaton::new(1, 1);
    group.bench_function(BenchmarkId::from_parameter("n1_join_ssq_3x7"), |bencher| {
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

    group.bench_function(BenchmarkId::from_parameter("n4_taxi_3x8"), |bencher| {
        bencher.iter(|| verify_taxi_lattice(black_box(&[1, 2, 3]), 8));
    });
    group.finish();
}

/// The state layer under Theorem 4's walk: ns per `step_all_into`, into
/// one reused `Successors` buffer as the walk calls it, over every
/// (point, state) pair the (3, 8) walk steps on one side, i.e. every
/// state a history of at most 7 operations reaches at each of the four
/// points. `quotient` is the Rep-view side, `reference` the packed
/// reference side. A step that sorts again, or a state that goes back to
/// trees, shows here before it shows in `product_walk/n4_taxi_3x8`.
fn bench_taxi_states(c: &mut Criterion) {
    let items = [1, 2, 3];
    let alphabet = queue_alphabet(&items);
    let mut group = c.benchmark_group("taxi_states");
    let points = TaxiPoint::all();
    bench_step_all(
        &mut group,
        "quotient_3x8",
        &points.map(|p| RepViewAutomaton::new(p.q1, p.q2, &items)),
        &alphabet,
    );
    bench_step_all(
        &mut group,
        "reference_3x8",
        &points.map(|p| PackedTaxiReference::new(p, &items)),
        &alphabet,
    );
    group.finish();
}

/// One `taxi_states` row: `step_all_into` over each automaton's states
/// reachable within 7 operations, round robin, into one buffer.
fn bench_step_all<A: ObjectAutomaton<Op = QueueOp>>(
    group: &mut criterion::BenchmarkGroup<'_>,
    name: &str,
    automata: &[A],
    alphabet: &[QueueOp],
) {
    let pairs: Vec<(&A, A::State)> = automata
        .iter()
        .flat_map(|a| reachable(a, alphabet, 7).into_iter().map(move |s| (a, s)))
        .collect();
    let mut next = 0;
    let mut out = Successors::new();
    group.bench_function(BenchmarkId::from_parameter(name), |bencher| {
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

fn bench_language_enumeration(c: &mut Criterion) {
    let alphabet = queue_alphabet(&[1, 2]);
    let mut group = c.benchmark_group("language_upto_pqueue");
    group.sample_size(10);
    for len in [4usize, 6] {
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |bencher, &len| {
            bencher.iter(|| language_upto(&PQueueAutomaton::new(), &alphabet, len).len());
        });
    }
    group.finish();
}

fn bench_qca_accept(c: &mut Criterion) {
    let lattice = TaxiLattice::new();
    let mut group = c.benchmark_group("qca_accepts");
    group.sample_size(10);
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
        group.bench_with_input(BenchmarkId::from_parameter(len), &h, |bencher, h| {
            bencher.iter(|| black_box(qca.accepts(h)));
        });
    }
    group.finish();
}

fn bench_commit_order_check(c: &mut Criterion) {
    let report = Spooler::new(SpoolerConfig {
        strategy: DequeueStrategy::Optimistic,
        printers: 4,
        jobs: 30,
        print_time: 3,
        abort_probability: 0.1,
        seed: 11,
    })
    .run();
    c.bench_function("commit_order_serializability_30jobs", |bencher| {
        bencher.iter(|| {
            black_box(serializable_in_commit_order(
                &SemiqueueAutomaton::new(4),
                &report.schedule,
            ))
        });
    });
}

fn bench_spooler(c: &mut Criterion) {
    let mut group = c.benchmark_group("spooler_40jobs_4printers");
    group.sample_size(20);
    for strategy in [
        DequeueStrategy::BlockingFifo,
        DequeueStrategy::Optimistic,
        DequeueStrategy::Pessimistic,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{strategy:?}")),
            &strategy,
            |bencher, &strategy| {
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
    group.finish();
}

fn bench_quorum_system(c: &mut Criterion) {
    let assignment = VotingAssignment::new(5)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, 3)
        .with_initial(QueueKind::Deq, 3)
        .with_final(QueueKind::Deq, 3);
    c.bench_function("quorum_taxi_50ops_5replicas", |bencher| {
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

fn bench_rewrite(c: &mut Criterion) {
    let set = paper_theories().expect("shipped theories parse");
    let bag = set.theory("Bag").expect("Bag present").clone();
    let rw = Rewriter::new(&bag).expect("rewriter builds");
    let mut group = c.benchmark_group("rewrite_bag_del_chain");
    group.sample_size(10);
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
        group.bench_with_input(BenchmarkId::from_parameter(size), &d, |bencher, term| {
            bencher.iter(|| rw.normalize(black_box(term)).expect("terminates"));
        });
    }
    group.finish();
}

fn bench_locking(c: &mut Criterion) {
    c.bench_function("lock_manager_churn_100tx", |bencher| {
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

criterion_group!(
    benches,
    bench_log_merge,
    bench_log_tail_paths,
    bench_log_one_writer,
    bench_viewcache,
    bench_sim_client_write,
    bench_sim_invocation,
    bench_sim_hold,
    bench_threaded_round_trip,
    bench_product_walk,
    bench_taxi_states,
    bench_language_enumeration,
    bench_qca_accept,
    bench_rewrite,
    bench_locking,
    bench_commit_order_check,
    bench_spooler,
    bench_quorum_system
);
criterion_main!(benches);
