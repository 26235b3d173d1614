//! Property tests for the simulator: determinism, fault-schedule laws,
//! delivery bounds, and metric laws.

use proptest::prelude::*;

use relax_sim::{Ctx, Fault, FaultSchedule, NetworkConfig, Node, NodeId, SimTime, World};
use relax_trace::{Counter, Histogram};

/// A node that relays each message `hops` more times around a ring.
struct Ring {
    n: usize,
    received: u64,
}

impl Node<u32> for Ring {
    fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, hops: u32) {
        self.received += 1;
        if hops > 0 {
            let next = NodeId((ctx.me().0 + 1) % self.n);
            ctx.send(next, hops - 1);
        }
    }
}

fn ring_world(n: usize, config: NetworkConfig, seed: u64) -> World<u32, Ring> {
    World::new(
        (0..n).map(|_| Ring { n, received: 0 }).collect(),
        config,
        seed,
    )
}

proptest! {
    /// Identical seeds and workloads give identical traces; different
    /// seeds may differ but never break conservation.
    #[test]
    fn determinism_and_conservation(
        n in 2usize..6,
        hops in 0u32..40,
        seed in 0u64..100,
    ) {
        let run = |seed: u64| {
            let mut w = ring_world(n, NetworkConfig::default(), seed);
            w.send_external(NodeId(0), hops);
            w.run_to_quiescence(100_000);
            let total: u64 = (0..n).map(|i| w.node(NodeId(i)).received).sum();
            (total, w.now(), w.events_processed())
        };
        let a = run(seed);
        let b = run(seed);
        prop_assert_eq!(a, b);
        // Lossless network: exactly hops+1 deliveries.
        prop_assert_eq!(a.0, u64::from(hops) + 1);
    }

    /// With loss probability 1 every internal send is lost; the external
    /// kick still arrives.
    #[test]
    fn total_loss_delivers_nothing_internal(n in 2usize..6, hops in 1u32..20, seed in 0u64..50) {
        let mut w = ring_world(n, NetworkConfig::new(1, 5, 1.0), seed);
        w.send_external(NodeId(0), hops);
        w.run_to_quiescence(100_000);
        let total: u64 = (0..n).map(|i| w.node(NodeId(i)).received).sum();
        prop_assert_eq!(total, 1);
        prop_assert_eq!(w.messages_lost(), 1); // the one relay attempt
    }

    /// Message delays respect the configured bounds: a `hops`-relay chain
    /// finishes within `hops × max_delay` and no sooner than
    /// `hops × min_delay`.
    #[test]
    fn delay_bounds_respected(hops in 1u32..30, seed in 0u64..50) {
        let (min_d, max_d) = (2u64, 7u64);
        let mut w = ring_world(3, NetworkConfig::new(min_d, max_d, 0.0), seed);
        w.send_external(NodeId(0), hops);
        w.run_to_quiescence(100_000);
        let elapsed = w.now().ticks();
        prop_assert!(elapsed >= u64::from(hops) * min_d);
        prop_assert!(elapsed <= u64::from(hops) * max_d);
    }

    /// Fault schedules drain in time order regardless of insertion order.
    #[test]
    fn schedule_drains_in_order(times in proptest::collection::vec(0u64..100, 0..12)) {
        let mut schedule = FaultSchedule::new();
        for &t in &times {
            schedule = schedule.at(SimTime(t), Fault::Heal);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        // Draining at the median returns exactly the entries ≤ median.
        let cut = sorted.get(sorted.len() / 2).copied().unwrap_or(0);
        let drained = schedule.drain_due(SimTime(cut));
        let expected = sorted.iter().filter(|&&t| t <= cut).count();
        prop_assert_eq!(drained.len(), expected);
        prop_assert!(schedule.next_time().is_none_or(|t| t > SimTime(cut)));
    }

    /// Counter and histogram laws.
    #[test]
    fn metric_laws(outcomes in proptest::collection::vec(any::<bool>(), 0..50),
                   samples in proptest::collection::vec(0u64..10_000, 0..50)) {
        let mut c = Counter::new();
        for &ok in &outcomes {
            c.record(ok);
        }
        prop_assert_eq!(c.total() as usize, outcomes.len());
        prop_assert_eq!(c.successes() as usize, outcomes.iter().filter(|&&b| b).count());
        if let Some(rate) = c.rate() {
            prop_assert!((0.0..=1.0).contains(&rate));
        }

        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        if !samples.is_empty() {
            let mean = h.mean().expect("nonempty");
            let min = h.min().expect("nonempty");
            let max = h.max().expect("nonempty");
            prop_assert!(f64::from(min as u32) <= mean + 1e-9);
            prop_assert!(mean <= max as f64 + 1e-9);
            let med = h.median().expect("nonempty");
            prop_assert!(min <= med && med <= max);
        }
    }
}

/// Crash during an in-flight burst: no delivery to the crashed node, and
/// recovery restores traffic (deterministic regression, not a property).
#[test]
fn crash_window_blocks_exactly_that_window() {
    struct Probe {
        hits: Vec<u64>,
    }
    impl Node<()> for Probe {
        fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {
            self.hits.push(ctx.now().ticks());
        }
    }
    struct Pinger;
    impl Node<()> for Pinger {
        fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, _from: NodeId, _msg: ()) {
            // Ping the probe every 10 ticks, forever (until time horizon).
            ctx.send(NodeId(2), ());
            ctx.set_timer(10, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, _token: u64) {
            ctx.send(NodeId(2), ());
            ctx.set_timer(10, 0);
        }
    }
    // Node ids: 0 unused placeholder (pinger at 1, probe at 2).
    enum N {
        Probe(Probe),
        Pinger(Pinger),
        Idle,
    }
    impl Node<()> for N {
        fn on_message(&mut self, ctx: &mut Ctx<'_, ()>, from: NodeId, msg: ()) {
            match self {
                N::Probe(p) => p.on_message(ctx, from, msg),
                N::Pinger(p) => p.on_message(ctx, from, msg),
                N::Idle => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_, ()>, token: u64) {
            match self {
                N::Probe(_) | N::Idle => {}
                N::Pinger(p) => p.on_timer(ctx, token),
            }
        }
    }

    let mut w = World::new(
        vec![N::Idle, N::Pinger(Pinger), N::Probe(Probe { hits: vec![] })],
        NetworkConfig::new(1, 1, 0.0),
        0,
    )
    .with_schedule(FaultSchedule::new().down_between(NodeId(2), SimTime(30), SimTime(70)));
    w.send_external(NodeId(1), ());
    w.run_until(SimTime(120));

    let hits = match w.node(NodeId(2)) {
        N::Probe(p) => p.hits.clone(),
        _ => unreachable!("node 2 is the probe"),
    };
    assert!(!hits.is_empty());
    assert!(
        hits.iter().all(|&t| !(30..70).contains(&t)),
        "deliveries during the crash window: {hits:?}"
    );
    assert!(hits.iter().any(|&t| t < 30));
    assert!(hits.iter().any(|&t| t >= 70));
}
