//! `lattice_verify`: the specification engine with no runtime involved.
//!
//! One request is one bounded verification of the whole taxi relaxation
//! lattice (`core::theorem4::verify_taxi_lattice`: Theorem 4 and its
//! three siblings in one shared walk). Requests alternate between a
//! deep query over three items and a wide one over four. The seed picks
//! the item priorities; language sizes depend only on their order, so
//! the pinned tables hold for every seed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use relax_automata::{EngineProbe, SplitMix64};
use relax_core::theorem4::{verify_taxi_lattice, verify_taxi_lattice_probed, TaxiVerification};
use relax_queues::Item;
use relax_trace::Probe;

use crate::check::check_lattice;
use crate::metrics::{ratio, Layers};
use crate::stats::median;
use crate::sys;
use crate::workload::{Iteration, Size, Workload};

/// One query shape: how many items, the history-length bound, and the
/// per-point `|L|` it must report (strongest point first).
#[derive(Debug, Clone, Copy)]
struct Query {
    items: usize,
    max_len: usize,
    pinned: [usize; 4],
}

const FULL: [Query; 2] = [
    Query {
        items: 3,
        max_len: 10,
        pinned: [941_326, 1_976_501, 4_749_700, 9_594_982],
    },
    Query {
        items: 4,
        max_len: 8,
        pinned: [368_089, 526_490, 1_164_937, 1_735_153],
    },
];

const SMOKE: [Query; 2] = [
    Query {
        items: 2,
        max_len: 5,
        pinned: [209, 269, 287, 373],
    },
    Query {
        items: 3,
        max_len: 4,
        pinned: [241, 265, 301, 334],
    },
];

fn sizes(v: &TaxiVerification) -> Vec<usize> {
    v.points.iter().map(|p| p.language_size).collect()
}

/// The `lattice_verify` workload.
pub struct LatticeVerify {
    seed: u64,
    queries: [Query; 2],
    /// Four distinct priorities, ascending.
    items: Vec<Item>,
    warm_up_error: Option<String>,
}

impl LatticeVerify {
    /// The workload with items drawn from `seed` at set-up.
    pub fn new(size: Size, seed: u64) -> Self {
        LatticeVerify {
            seed,
            queries: match size {
                Size::Full => FULL,
                Size::Smoke => SMOKE,
            },
            items: Vec::new(),
            warm_up_error: None,
        }
    }

    fn ask(&self, q: &Query) -> (u64, Result<(), String>) {
        let items = &self.items[..q.items];
        let t = Instant::now();
        let v = black_box(verify_taxi_lattice(black_box(items), q.max_len));
        let ns = t.elapsed().as_nanos() as u64;
        (ns, check_lattice(v.holds(), &sizes(&v), &q.pinned))
    }
}

impl Workload for LatticeVerify {
    fn set_up(&mut self) {
        let mut rng = SplitMix64::seed_from_u64(self.seed);
        let mut items: Vec<Item> = Vec::new();
        while items.len() < 4 {
            let candidate = 1 + rng.index(1000) as Item;
            if !items.contains(&candidate) {
                items.push(candidate);
            }
        }
        items.sort_unstable();
        self.items = items;
        self.warm_up_error = self.iterate(&mut Probe::disabled()).error;
    }

    fn verify_once(&mut self) -> Result<(), String> {
        match &self.warm_up_error {
            Some(e) => Err(format!("warm-up iteration: {e}")),
            None => Ok(()),
        }
    }

    fn iterate(&mut self, probe: &mut Probe) -> Iteration {
        let cpu0 = sys::cpu_time_s();
        // One query of each shape: short iterations give the
        // fastest-iteration estimator more chances to land between
        // noise bursts.
        let mut walls = Vec::with_capacity(self.queries.len());
        let mut error = None;
        for q in &self.queries {
            probe.enter("query");
            let (ns, checked) = self.ask(q);
            probe.exit("query");
            walls.push(ns as f64);
            if let Err(e) = checked {
                error.get_or_insert(e);
            }
        }
        let ops = self.queries.len() as u64;
        Iteration {
            ops,
            wall_ns: walls.iter().sum::<f64>() as u64,
            cpu_s: sys::cpu_time_s() - cpu0,
            op_p50_ns: median(&walls),
            failed: if error.is_some() { ops } else { 0 },
            error,
        }
    }

    fn layers(
        &mut self,
        _budget: Duration,
        _run_wall_ns: f64,
        _pin: Option<&sys::Pin>,
        out: &mut Layers,
    ) {
        // One probed pass over both query shapes: times add up, gauges
        // keep their peak.
        let mut probe = Probe::enabled();
        for q in &self.queries {
            black_box(verify_taxi_lattice_probed(
                &self.items[..q.items],
                q.max_len,
                &mut probe,
            ));
        }
        let report = probe.report().expect("engine spans are balanced");
        assert_eq!(report.self_sum_ns(), report.total_ns());
        let total_of = |pred: &dyn Fn(&str) -> bool| -> f64 {
            report
                .aggregated_paths()
                .iter()
                .filter(|p| pred(p.path.rsplit(';').next().unwrap_or("")))
                .map(|p| p.total_ns as f64)
                .sum()
        };
        out.set(
            "core.theorem4.walk_ms",
            total_of(&|n| n == "shared_walk") / 1e6,
        );
        out.set(
            "core.theorem4.assemble_ms",
            total_of(&|n| n.starts_with("point_")) / 1e6,
        );
        let peak = |name: &str| -> f64 {
            report
                .gauge(name)
                .and_then(|s| s.iter().max().copied())
                .unwrap_or(0) as f64
        };
        out.set("automata.multiwalk.peak_frontier", peak("frontier_nodes"));
        out.set("automata.cons.load_pct", peak("cons_load_pct"));
        out.set("automata.multiwalk.arena_bytes", peak("arena_bytes"));
        let hits = report.counter("row_hits").unwrap_or(0) as f64;
        let fills = report.counter("row_fills").unwrap_or(0) as f64;
        out.set(
            "automata.multiwalk.row_hit_ratio",
            ratio(hits, hits + fills),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{run, trace};

    #[test]
    fn smoke_queries_verify_against_their_pinned_tables() {
        let mut w = LatticeVerify::new(Size::Smoke, 4);
        let r = run(&mut w, 0.0);
        assert_eq!(r.error, None);
        assert!(r.correct);
    }

    #[test]
    fn a_wrong_pinned_size_fails_every_query() {
        let mut w = LatticeVerify::new(Size::Smoke, 4);
        w.queries[0].pinned[1] += 1;
        let r = run(&mut w, 0.0);
        assert!(!r.correct);
        assert_eq!(r.failed, r.attempted);
        assert!(r.error.expect("rejected").contains("pinned"));
    }

    #[test]
    fn engine_counts_repeat_exactly_whatever_the_seed() {
        let counts = |seed| {
            let mut w = LatticeVerify::new(Size::Smoke, seed);
            let mut layers = Layers::new();
            let (r, _) = trace(&mut w, 0.0, None, &mut layers);
            assert_eq!(r.error, None);
            [
                "automata.multiwalk.peak_frontier",
                "automata.multiwalk.arena_bytes",
                "automata.multiwalk.row_hit_ratio",
            ]
            .map(|n| layers.get(n))
        };
        // Language sizes and walk shapes depend on the order of the
        // priorities only, so the engine's counts are seed-independent.
        assert_eq!(counts(4), counts(4));
        assert_eq!(counts(4), counts(5));
        assert!(counts(4)[0] > 0.0);
    }
}
