//! Pins the allocation discipline of the scratch-buffered diff paths.
//!
//! `Log::diff_with` / `Log::delta_above_with` are the write and read
//! hot loops: with a warm [`DiffScratch`] they must allocate only the
//! exactly-sized vectors of the *returned* log (entries, prefix hashes,
//! site summaries — ≤ 3 allocations), and nothing at all when the
//! result is empty. A regression here (per-call temporaries, growth
//! reallocs) shows up as a hard test failure, not a slow benchmark.
//!
//! The same allocator counts bytes, which gates the complexity contract
//! of the shard-round path: a splice merge and a delta for a peer one
//! interleaved batch behind allocate O(tail), not O(history).
//!
//! And the one-writer contract: a round's payload appended to a long
//! log copies into the vectors' spare capacity and allocates nothing;
//! without spare capacity it pays for the vectors' own growth only.
//!
//! It also gates the view cache's cost contract: a warm hit extends the
//! cached bag in place (no copy of it), a splice pays for at most one
//! copy — the checkpoint it resumes from — and a view that has never
//! been spliced stores no checkpoint at all.
//!
//! And the client's bookkeeping: `Log::clone_from` rebuilds a view from
//! the prefix it shares with its source, into spare capacity, so the
//! step that takes the quorum-completing read response against a
//! 16,400-entry history allocates next to nothing; an ack folds the
//! payload that was sent, so the step that takes the completing ack does
//! not either; a coordination-free write with one replica cut off
//! keeps a 16-byte record and extends the silent replica's payload in
//! place, so the client's live bytes grow linearly with the operations
//! and every record retires after heal and a WAL flush.
//!
//! Last, what an operation of a faulted run allocates in all — message
//! bodies, membership, view evaluation, the simulator's own queue — as
//! one exact count over a scripted two-client partitioned run: a view is
//! folded only when a response reads its value and every body a node
//! sends repeatedly is refilled where it lies, so the count is a fraction
//! of what it was, and the client that only enqueues folds nothing.
//!
//! Single `#[test]` on purpose: the counting allocator is process-global
//! and concurrent tests would double-count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use relax_queues::{Bag, Item, QueueOp};
use relax_quorum::calm::SchedulingPolicy;
use relax_quorum::relation::{AccountKind, QueueKind};
use relax_quorum::types::{AccountInv, BankAccountType, QueueInv, ReplicatedType, TaxiQueueType};
use relax_quorum::{
    ClientConfig, DiffScratch, Entry, Log, QuorumSystem, Timestamp, ViewCache, VotingAssignment,
};
use relax_sim::{Fault, FaultSchedule, NetworkConfig, NodeId, Partition, SimTime};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed (wrapping: only differences count).
static LIVE: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn bytes_during(f: impl FnOnce()) -> u64 {
    let before = BYTES.load(Ordering::Relaxed);
    f();
    BYTES.load(Ordering::Relaxed) - before
}

fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// `Enq(counter)` stamped `(counter, site)`, and the size of the taxi
/// bag `log` evaluates to through `cache`.
fn enq(counter: u64, site: usize) -> Entry<QueueOp> {
    Entry::new(Timestamp::new(counter, site), QueueOp::Enq(counter as i64))
}
fn pending(cache: &mut ViewCache<Bag<Item>>, log: &Log<QueueOp>) -> usize {
    let ttype = TaxiQueueType;
    cache
        .eval_ref(log, ttype.initial_value(), |v, op| ttype.apply_mut(v, op))
        .len()
}

fn log_of(counters: impl IntoIterator<Item = u64>, site: usize) -> Log<i64> {
    let mut log = Log::new();
    for c in counters {
        log.insert(Entry::new(Timestamp::new(c, site), c as i64));
    }
    log
}

#[test]
fn warm_scratch_diffs_allocate_only_the_result() {
    // Two-site logs whose difference is non-trivial in both directions:
    // `a` has odd counters `b` lacks, interleaved below b's maximum, so
    // both calls take the general (scratch-using) path.
    let mut a = log_of((1..=200).map(|i| 2 * i), 0);
    a.merge(&log_of((1..=50).map(|i| 4 * i + 1), 1));
    let b = log_of((1..=200).filter(|i| i % 3 != 0).map(|i| 2 * i), 0);

    let mut scratch = DiffScratch::default();
    // Frontiers are built outside the timed sections (constructing one
    // clones the site summaries, which is not the diff path's cost).
    let bf = b.frontier();
    // Warm the scratch buffers (first calls may grow them).
    let _ = a.diff_with(&b, &mut scratch);
    let _ = a.delta_above_with(&bf, &mut scratch);

    let mut out = Log::new();
    let n = allocs_during(|| {
        out = a.diff_with(&b, &mut scratch);
    });
    assert!(!out.is_empty(), "difference must be non-trivial");
    assert!(
        n <= 3,
        "warm diff_with must allocate only the result's three vectors, got {n}"
    );

    let n = allocs_during(|| {
        out = a.delta_above_with(&bf, &mut scratch);
    });
    assert!(!out.is_empty(), "delta must be non-trivial");
    assert!(
        n <= 3,
        "warm delta_above_with must allocate only the result's three vectors, got {n}"
    );

    // Identical logs: the empty result must not allocate at all.
    let c = a.clone();
    let cf = c.frontier();
    let n = allocs_during(|| {
        out = a.diff_with(&c, &mut scratch);
    });
    assert!(out.is_empty());
    assert_eq!(n, 0, "empty diff must be allocation-free, got {n}");

    let n = allocs_during(|| {
        out = a.delta_above_with(&cf, &mut scratch);
    });
    assert!(out.is_empty());
    assert_eq!(n, 0, "empty delta must be allocation-free, got {n}");

    tail_paths_allocate_the_tail_not_the_history(&mut scratch);
    appending_a_round_allocates_nothing_but_growth();
    view_cache_hits_copy_nothing_and_splices_copy_once();
    no_snapshot_before_the_first_miss();
    extending_a_payload_allocates_nothing_but_growth();
    rebuilding_a_view_copies_what_differs_into_spare_capacity();
    a_client_step_allocates_nothing_that_grows_with_the_history();
    fast_writes_under_a_partition_stay_linear_and_retire();
    a_partitioned_run_allocates_a_pinned_number_of_times_per_operation();
}

/// Two writers (sites 0 and 1) with a 65,536-entry history at a
/// replica; writer 0's view trails by writer 1's latest 128-entry batch,
/// which sorts inside the replica's last 256 entries.
fn tail_paths_allocate_the_tail_not_the_history(scratch: &mut DiffScratch) {
    const HISTORY: u64 = 65_536;
    const KIB_64: u64 = 64 * 1024;
    let stamp = |i: u64| Entry::new(Timestamp::new(1 + i / 2, (i % 2) as usize), i as i64);
    // Writer 1's batch: its entries among the last 256 of the grid.
    let in_batch = |i: u64| i >= HISTORY - 256 && i % 2 == 1;
    let mut view: Log<i64> = Log::new();
    let mut batch: Log<i64> = Log::new();
    for i in 0..HISTORY {
        if in_batch(i) {
            batch.insert(stamp(i));
        } else {
            view.insert(stamp(i));
        }
    }
    assert_eq!(batch.len(), 128);
    let mut replica = view.clone();
    // Growth is amortized: a first splice pays for the vectors' headroom.
    replica.merge(&log_of([HISTORY], 1));
    let behind = view.frontier();

    let splice = bytes_during(|| replica.merge(&batch));
    assert_eq!(replica.len() as u64, HISTORY + 1);
    assert!(
        splice < KIB_64,
        "a 128-entry splice into the last 256 of {HISTORY} allocated {splice} bytes"
    );

    let _ = replica.delta_above_with(&behind, scratch); // warm
    let mut delta = Log::new();
    let bytes = bytes_during(|| delta = replica.delta_above_with(&behind, scratch));
    assert_eq!(delta.len(), 129, "the batch and the headroom entry");
    assert!(
        bytes < KIB_64,
        "a delta one interleaved batch behind {HISTORY} allocated {bytes} bytes"
    );
    let n = allocs_during(|| delta = replica.delta_above_with(&behind, scratch));
    assert!(n <= 3, "the tail path allocates only the result, got {n}");
}

/// One shard of 256 clients (sites 0..256) with a 65,536-entry history
/// at a replica, and the shard's next two 256-entry rounds as payloads.
fn appending_a_round_allocates_nothing_but_growth() {
    const HISTORY: u64 = 65_536;
    let stamp = |i: u64| Entry::new(Timestamp::new(1 + i, (i % 256) as usize), i as i64);
    let mut replica: Log<i64> = (0..HISTORY).map(stamp).collect();
    let round = |r: u64| -> Log<i64> {
        (HISTORY + 256 * r..HISTORY + 256 * (r + 1))
            .map(stamp)
            .collect()
    };
    let (first, second) = (round(0), round(1));

    // 65,536 is a power of two: doubling growth left the vectors full,
    // so this append grows `entries` and `prefix` — once each, nothing
    // else (every site is already summarized).
    let n = allocs_during(|| replica.merge(&first));
    assert_eq!(n, 2, "a full log grows its two long vectors, got {n}");

    // Now there is room: the next round copies into it.
    let n = allocs_during(|| replica.merge(&second));
    assert_eq!(n, 0, "an append into spare capacity allocated {n} times");
    assert_eq!(replica.len() as u64, HISTORY + 512);
    assert_eq!(replica.site_summaries().len(), 256);
}

/// A taxi view of 4,096 pending requests evaluated through a warm
/// [`ViewCache`]: one more `Enq` is a hit, a splice above the
/// length-4,096 checkpoint is a resume from it.
fn view_cache_hits_copy_nothing_and_splices_copy_once() {
    const ITEMS: u64 = 4_096;
    const KIB: u64 = 1024;
    let ttype = TaxiQueueType;
    let mut cache = ViewCache::new();
    let mut eval = |log: &Log<QueueOp>| pending(&mut cache, log);
    // Even counters, so a later odd one splices between two of them. The
    // first two arrive in reverse: the chain stores nothing until the
    // cache has seen a miss, and that early splice is one.
    let mut log = Log::new();
    for i in [2, 1] {
        log.insert(enq(2 * i, 0));
        eval(&log);
    }
    for i in 3..=ITEMS {
        log.insert(enq(2 * i, 0));
    }
    assert_eq!(eval(&log) as u64, ITEMS);
    let bag = ttype.eval_view(&log);
    let copy = bytes_during(|| drop(bag.clone()));
    assert!(copy > 100 * KIB, "a {ITEMS}-item bag is only {copy} bytes");

    // Warm hit: fold one `Enq` into the cached bag where it lies.
    log.insert(enq(2 * ITEMS + 2, 0));
    let hit = bytes_during(|| assert_eq!(eval(&log) as u64, ITEMS + 1));
    assert!(hit < KIB, "a one-entry hit allocated {hit} bytes");

    // Splice at position 4,096: the checkpoint at that length survives
    // and the two-entry replay crosses no other boundary.
    log.insert(enq(2 * ITEMS + 1, 1));
    let splice = bytes_during(|| assert_eq!(eval(&log) as u64, ITEMS + 2));
    assert!(
        splice > copy / 2 && splice < copy + 4 * KIB,
        "a splice resumed from a checkpoint allocated {splice} bytes; a copy is {copy}"
    );
}

/// A taxi view that only ever grows by appends — one writer, a shard's
/// own — is evaluated request by request up to 4,095 entries, crossing
/// the 64 checkpoint boundaries from 16 to 3,840, and stores nothing:
/// the cache allocates what folding the bag does. (A copy per boundary
/// is 1.6 MiB on top of the bag's 137 KiB.) The first miss then replays
/// from zero and leaves a chain the second one resumes from.
fn no_snapshot_before_the_first_miss() {
    const ITEMS: u64 = 4_096;
    const KIB: u64 = 1024;
    let ttype = TaxiQueueType;
    let mut cache = ViewCache::new();
    let mut eval = |log: &Log<QueueOp>| pending(&mut cache, log);
    let mut log = Log::new();
    let mut cached = 0;
    for i in 1..ITEMS {
        log.insert(enq(2 * i, 0));
        cached += bytes_during(|| assert_eq!(eval(&log) as u64, i));
    }
    let fold = bytes_during(|| drop(ttype.eval_view(&log)));
    assert!(fold > 100 * KIB, "a {ITEMS}-item bag is only {fold} bytes");
    assert!(
        cached < fold + KIB,
        "an append-only view allocated {cached} bytes; folding its bag is {fold}"
    );

    // Two splices above the boundary at 3,840 (entry 3,840 carries
    // counter 7,680): the first finds no chain and arms one on its way
    // up from zero, the second resumes from that boundary.
    log.insert(enq(7_901, 1));
    assert_eq!(eval(&log) as u64, ITEMS);
    log.insert(enq(7_801, 1));
    assert_eq!(eval(&log) as u64, ITEMS + 1);
    assert_eq!(
        (cache.misses(), cache.checkpoint_hits()),
        (2, 1),
        "the first miss arms the chain, the second resumes from it"
    );
    let replayed = cache.entries_replayed();
    assert_eq!(replayed, (ITEMS - 1) + ITEMS + (ITEMS + 1 - 3_840));
}

/// A silent replica's payload — a whole 16,384-entry view — taking the
/// next view's 16-entry suffix: into spare capacity, nothing; without
/// it, the two long vectors' own growth.
fn extending_a_payload_allocates_nothing_but_growth() {
    const VIEW: u64 = 16_384;
    let view = log_of(1..=VIEW + 32, 0);
    let (view_len, was) = (view.len(), VIEW as usize);
    // A clone is exactly full (16,384 is what doubling leaves, too).
    let mut payload = view.range(0, was);
    let n = allocs_during(|| payload.merge_range(&view, was, was + 16));
    assert_eq!(n, 2, "a full payload grows its two long vectors, got {n}");
    let n = allocs_during(|| payload.merge_range(&view, was + 16, view_len));
    assert_eq!(n, 0, "an extension into spare capacity allocated {n} times");
    assert_eq!(payload, view);
}

/// A kept 16,384-entry view buffer taking a source 16 entries longer, and
/// then one whose last 16 differ: `Log::clone_from` keeps the common
/// prefix where it lies and copies the rest into spare capacity. Only
/// the first rebuild, of an exactly full buffer, grows the long vectors.
fn rebuilding_a_view_copies_what_differs_into_spare_capacity() {
    const VIEW: u64 = 16_384;
    let source = log_of(1..=VIEW + 16, 0);
    let spliced = log_of((1..=VIEW).chain(VIEW + 17..=VIEW + 32), 0);
    let mut view = source.range(0, VIEW as usize);
    let n = allocs_during(|| view.clone_from(&source));
    assert_eq!(n, 2, "a full buffer grows its two long vectors, got {n}");
    for next in [&spliced, &source, &source.range(0, VIEW as usize), &source] {
        let n = allocs_during(|| view.clone_from(next));
        assert_eq!(n, 0, "a rebuild into spare capacity allocated {n} times");
        assert_eq!(&view, next);
    }
}

/// One client, three healthy replicas, a 16,400-entry history. The step
/// that takes the quorum-completing read response rebuilds the kept view
/// from the prefix it shares with `known[from]`, inserts the new entry
/// into spare capacity and ships three one-entry payloads. (Copying the
/// first responder's log into a fresh view and regrowing it for the
/// insert, as the client once did, is the view twice over: 1.5 MiB
/// here.) The step that takes the completing write ack folds one entry
/// into `known[r]`. (Folding the updated view, as the client once did,
/// re-buffers all of `known[r]`: some 650 KiB here.)
fn a_client_step_allocates_nothing_that_grows_with_the_history() {
    const HISTORY: usize = 16_400;
    let assignment = VotingAssignment::new(3)
        .with_initial(AccountKind::Credit, 1)
        .with_final(AccountKind::Credit, 1);
    let mut sys = QuorumSystem::new(
        BankAccountType,
        3,
        assignment,
        ClientConfig::default(),
        NetworkConfig::new(1, 5, 0.0),
        11,
    );
    for _ in 0..HISTORY {
        sys.submit(AccountInv::Credit(1));
    }
    assert!(sys.run_to_quiescence(u64::MAX));
    assert_eq!(sys.replica_log(0).len(), HISTORY);
    for _ in 0..8 {
        let done = sys.outcomes().len();
        let shipped = sys.client_bookkeeping(0).shipped.0;
        sys.submit(AccountInv::Credit(1));
        let (mut read_step, mut ack_step) = (0, 0);
        while sys.outcomes().len() == done {
            let reading = sys.client_bookkeeping(0).shipped.0 == shipped;
            let step = bytes_during(|| assert!(sys.world_mut().step()));
            if reading {
                read_step = step; // the last of these ships the write
            }
            ack_step = step;
        }
        assert!(
            read_step < 4 * 1024,
            "the read view allocated {read_step} bytes against a {HISTORY}-entry history"
        );
        assert!(
            ack_step < 4 * 1024,
            "the acked write allocated {ack_step} bytes against a {HISTORY}-entry view"
        );
        assert!(sys.run_to_quiescence(u64::MAX));
    }
}

/// Coordination-free credits with replica 2 cut off, one at a time (each
/// is acked by the two live replicas before the next): the WAL, the
/// silent replica's payload and a 16-byte record per credit are what
/// grows. (With a WAL snapshot per unacked credit, 8,000 of them held
/// 981 MiB.)
fn fast_writes_under_a_partition_stay_linear_and_retire() {
    const MIB: u64 = 1024 * 1024;
    let assignment = VotingAssignment::new(3)
        .with_initial(AccountKind::Credit, 0)
        .with_final(AccountKind::Credit, 1)
        .with_initial(AccountKind::Debit, 2)
        .with_final(AccountKind::Debit, 2);
    let before = live_bytes();
    let mut sys = QuorumSystem::new(
        BankAccountType,
        3,
        assignment,
        ClientConfig::default(),
        NetworkConfig::new(1, 5, 0.0),
        7,
    )
    .with_scheduling(SchedulingPolicy::coordination_free([AccountKind::Credit]));
    sys.world_mut().set_schedule(FaultSchedule::new().at(
        SimTime(0),
        Fault::Partition(Partition::groups(vec![
            vec![NodeId(3), NodeId(0), NodeId(1)],
            vec![NodeId(2)],
        ])),
    ));
    let credits = |sys: &mut QuorumSystem<BankAccountType>, n: usize| {
        for _ in 0..n {
            sys.submit(AccountInv::Credit(1));
            let now = sys.world().now().0;
            sys.run_until(SimTime(now + 12));
        }
    };
    credits(&mut sys, 2_000);
    let at_2k = live_bytes().wrapping_sub(before);
    credits(&mut sys, 6_000);
    let at_8k = live_bytes().wrapping_sub(before);
    assert!(at_8k < 8 * MIB, "8,000 credits hold {at_8k} live bytes");
    assert!(
        at_8k < 5 * at_2k,
        "live bytes are not linear in the credits: {at_2k} at 2,000, {at_8k} at 8,000"
    );

    // 8,200 to 8,456 entries: no vector doubles in this window, so what
    // a credit allocates is what its messages carry — the silent
    // replica's payload is the last one, extended where it lies.
    credits(&mut sys, 200);
    let window = bytes_during(|| credits(&mut sys, 256));
    assert_eq!(
        sys.client_bookkeeping(0).fast_writes,
        8_456,
        "one record per credit while replica 2 is silent"
    );
    // (A payload re-diffed against the 8,200-entry WAL is some 200 KiB
    // each time.)
    assert!(
        window < 256 * 1024,
        "256 credits against an 8,200-entry WAL allocated {window} bytes"
    );

    let now = sys.world().now().0;
    sys.world_mut()
        .set_schedule(FaultSchedule::new().at(SimTime(now), Fault::Heal));
    sys.run_until(SimTime(now + 1));
    sys.flush_wals();
    assert!(sys.run_to_quiescence(u64::MAX));
    assert_eq!(
        sys.replica_log(2).len(),
        8_456,
        "the flush repairs replica 2"
    );
    let records = sys.client_bookkeeping(0).fast_writes;
    assert_eq!(records, 0, "every record retires after heal + flush");
}

/// The benchmark's `sim_partition_heal` phase 1 in small: two clients,
/// three replicas, gossip off, a partition rotating through twelve
/// windows of sixteen invocations a client. Client a keeps a majority
/// and dequeues every eighth time, client b sits with one lone replica
/// and enqueues. Four windows warm every buffer; the other eight — 256
/// operations — are counted, allocation by allocation, the simulator's
/// own included. The run is deterministic, so the count is exact.
///
/// At the commit before views were folded on demand and message bodies
/// refilled in place the same script counted 6,274 (24.5 an operation):
/// a `Bag` checkpoint copy after every window's splice by either client,
/// three fresh vectors and an `Arc` per write payload and per read
/// response, a frontier clone per read request, two `BTreeSet`s per
/// invocation. A merge that spliced from `other`'s first entry, rather
/// than from the first one it adds, lifted out a longer tail: 960.
fn a_partitioned_run_allocates_a_pinned_number_of_times_per_operation() {
    const WINDOWS: usize = 12;
    const WARM: usize = 4;
    const PER: usize = 16;
    const N: usize = 3;
    let assignment = VotingAssignment::new(N)
        .with_initial(QueueKind::Deq, 2)
        .with_final(QueueKind::Deq, 2)
        .with_initial(QueueKind::Enq, 1)
        .with_final(QueueKind::Enq, 1);
    let mut sys = QuorumSystem::with_clients(
        TaxiQueueType,
        N,
        2,
        assignment,
        ClientConfig::default(),
        NetworkConfig::new(1, 5, 0.0),
        1,
    );
    let mut submitted = 0;
    let mut window = |sys: &mut QuorumSystem<TaxiQueueType>, w: usize| {
        let lone = NodeId(w % N);
        let with_a = (0..N).map(NodeId).filter(|&r| r != lone);
        let now = sys.world().now().0;
        sys.world_mut().set_schedule(FaultSchedule::new().at(
            SimTime(now + 1),
            Fault::Partition(Partition::groups(vec![
                with_a.chain([NodeId(N)]).collect(),
                vec![NodeId(N + 1), lone],
            ])),
        ));
        sys.run_until(SimTime(now + 1));
        for i in 0..PER {
            let id = (submitted + i) as i64;
            let a = if i % 8 == 7 {
                QueueInv::Deq
            } else {
                QueueInv::Enq(2 * id)
            };
            sys.submit_to(0, a);
            sys.submit_to(1, QueueInv::Enq(2 * id + 1));
        }
        submitted += PER;
        let mut at = now + 1;
        while sys.outcomes_of(0).len() < submitted || sys.outcomes_of(1).len() < submitted {
            at += 500;
            sys.run_until(SimTime(at));
        }
    };
    (0..WARM).for_each(|w| window(&mut sys, w));
    let counted = allocs_during(|| (WARM..WINDOWS).for_each(|w| window(&mut sys, w)));
    let ops = 2 * PER * (WINDOWS - WARM);
    let completed = |c| {
        sys.outcomes_of(c)
            .iter()
            .filter(|o| o.is_completed())
            .count()
    };
    assert_eq!((completed(0), completed(1)), (WINDOWS * PER, WINDOWS * PER));
    assert_eq!(
        counted,
        910,
        "{ops} operations allocated {counted} times ({:.1} each)",
        counted as f64 / ops as f64
    );
    assert!(
        sys.client_bookkeeping(0).folded > 0,
        "dequeues read the view"
    );
    assert_eq!(
        sys.client_bookkeeping(1).folded,
        0,
        "a client that only enqueues folds no view, so it stores no checkpoint"
    );
}
