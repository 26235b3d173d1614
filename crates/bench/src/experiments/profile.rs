//! The flight-recorder experiment layer: the probed run the theorem4
//! experiment times its walk with, and the probe-overhead gate
//! (`BENCH_profile_overhead.json`).
//!
//! The overhead experiment answers the question the zero-cost claim
//! begs: what does an *enabled* probe cost? It interleaves baseline
//! (compiled-out `NoopProbe`) and probed runs of the (3, 8) shared
//! taxi-lattice walk in an ABBA pattern — baseline, probed, probed,
//! baseline per rep — so clock drift and thermal state cancel, takes
//! the median per-rep ratio, and gates at ≤ [`TARGET_OVERHEAD_PCT`]%.
//! It also asserts the exact-sum attribution invariant on the live
//! tree: span self-times must sum to the root total to the nanosecond.

use std::hint::black_box;
use std::time::Instant;

use relax_core::theorem4::{verify_taxi_lattice, verify_taxi_lattice_probed, TaxiVerification};
use relax_trace::{Probe, ProfileReport};

use crate::table::Table;

/// The gate: enabled-probe overhead allowed on the (3, 8) shared walk.
pub const TARGET_OVERHEAD_PCT: f64 = 5.0;

/// The shared-walk taxi verification under a fresh recording probe,
/// with the profile reconstructed from it.
///
/// # Panics
///
/// Panics if the verification leaves spans unbalanced (a bug in the
/// instrumented code, not in the caller).
pub fn profiled_shared(items: &[i64], max_len: usize) -> (TaxiVerification, ProfileReport) {
    let mut probe = Probe::enabled();
    let result = verify_taxi_lattice_probed(items, max_len, &mut probe);
    let report = probe.report().expect("profiled run left spans balanced");
    (result, report)
}

/// One probe-overhead measurement.
#[derive(Debug, Clone)]
pub struct OverheadResult {
    /// The item alphabet used.
    pub items: Vec<i64>,
    /// The history-length bound.
    pub max_len: usize,
    /// ABBA repetitions.
    pub reps: usize,
    /// Fastest single baseline (NoopProbe) run.
    pub baseline_min_ns: u128,
    /// Fastest single probed run.
    pub probed_min_ns: u128,
    /// Median per-rep probed/baseline wall-time ratio.
    pub median_ratio: f64,
    /// Every run (both flavors) verified all four lattice points.
    pub all_hold: bool,
    /// The last probed run's profile (for the span tree and folded
    /// export).
    pub report: ProfileReport,
}

impl OverheadResult {
    /// Median overhead of the enabled probe, in percent.
    pub fn overhead_pct(&self) -> f64 {
        100.0 * (self.median_ratio - 1.0)
    }

    /// Does span self-time sum exactly to the root total?
    pub fn exact_attribution(&self) -> bool {
        self.report.self_sum_ns() == self.report.total_ns()
    }

    /// The CI gate: overhead within target, attribution exact, every
    /// run verified.
    pub fn within_target(&self) -> bool {
        self.overhead_pct() <= TARGET_OVERHEAD_PCT && self.exact_attribution() && self.all_hold
    }
}

/// Measures enabled-probe overhead on the shared taxi-lattice walk with
/// `reps` ABBA repetitions.
pub fn measure_overhead(items: &[i64], max_len: usize, reps: usize) -> OverheadResult {
    let baseline = |all_hold: &mut bool| {
        let t = Instant::now();
        let v = black_box(verify_taxi_lattice(items, max_len));
        let ns = t.elapsed().as_nanos();
        *all_hold &= v.holds();
        ns
    };
    let probed_run = |all_hold: &mut bool| {
        let mut probe = Probe::enabled();
        let t = Instant::now();
        let v = black_box(verify_taxi_lattice_probed(items, max_len, &mut probe));
        let ns = t.elapsed().as_nanos();
        *all_hold &= v.holds();
        (ns, probe)
    };

    let mut all_hold = true;
    // Warm-up: fault in code paths and allocator arenas for both flavors.
    for _ in 0..2 {
        let _ = baseline(&mut all_hold);
        let _ = probed_run(&mut all_hold);
    }

    let mut ratios = Vec::with_capacity(reps);
    let mut baseline_min_ns = u128::MAX;
    let mut probed_min_ns = u128::MAX;
    let mut last_probe = None;
    for _ in 0..reps {
        let b1 = baseline(&mut all_hold);
        let (e1, _p) = probed_run(&mut all_hold);
        let (e2, p) = probed_run(&mut all_hold);
        let b2 = baseline(&mut all_hold);
        last_probe = Some(p);
        baseline_min_ns = baseline_min_ns.min(b1).min(b2);
        probed_min_ns = probed_min_ns.min(e1).min(e2);
        ratios.push((e1 + e2) as f64 / (b1 + b2).max(1) as f64);
    }
    ratios.sort_by(f64::total_cmp);
    let median_ratio = ratios[ratios.len() / 2];
    let report = last_probe
        .expect("reps >= 1")
        .report()
        .expect("walk left spans balanced");
    OverheadResult {
        items: items.to_vec(),
        max_len,
        reps,
        baseline_min_ns,
        probed_min_ns,
        median_ratio,
        all_hold,
        report,
    }
}

/// Renders the overhead summary table.
pub fn table(r: &OverheadResult) -> Table {
    let mut t = Table::new(["quantity", "value"]);
    t.row([
        "workload".into(),
        format!("shared walk, items {:?}, len ≤ {}", r.items, r.max_len),
    ]);
    t.row(["reps (ABBA)".into(), r.reps.to_string()]);
    t.row([
        "baseline min".into(),
        format!("{:.3} ms", r.baseline_min_ns as f64 / 1e6),
    ]);
    t.row([
        "probed min".into(),
        format!("{:.3} ms", r.probed_min_ns as f64 / 1e6),
    ]);
    t.row(["median ratio".into(), format!("{:.4}", r.median_ratio)]);
    t.row([
        "overhead".into(),
        format!(
            "{:+.2}% (target ≤ {TARGET_OVERHEAD_PCT:.0}%)",
            r.overhead_pct()
        ),
    ]);
    t.row([
        "exact attribution".into(),
        r.exact_attribution().to_string(),
    ]);
    t.row(["all runs hold".into(), r.all_hold.to_string()]);
    t
}

/// Renders the `BENCH_profile_overhead.json` payload.
pub fn to_json(r: &OverheadResult) -> String {
    format!(
        "{{\"bench\":\"profile_overhead\",\"workload\":\"taxi_shared_walk\",\
         \"items\":{},\"max_len\":{},\"reps\":{},\
         \"baseline_min_ns\":{},\"probed_min_ns\":{},\"median_ratio\":{:.4},\
         \"overhead_pct\":{:.2},\"span_total_ns\":{},\"span_self_sum_ns\":{},\
         \"exact_attribution\":{},\"all_hold\":{},\
         \"target_pct\":{TARGET_OVERHEAD_PCT:.1},\"within_target\":{}}}\n",
        r.items.len(),
        r.max_len,
        r.reps,
        r.baseline_min_ns,
        r.probed_min_ns,
        r.median_ratio,
        r.overhead_pct(),
        r.report.total_ns(),
        r.report.self_sum_ns(),
        r.exact_attribution(),
        r.all_hold,
        r.within_target()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probed_runs_agree_with_unprofiled_results() {
        let (result, report) = profiled_shared(&[1, 2], 5);
        assert!(result.holds());
        let sizes: Vec<usize> = result.points.iter().map(|p| p.language_size).collect();
        assert_eq!(sizes, vec![209, 269, 287, 373]);
        // The probe's wall clock covers the whole verification.
        assert!(report.total_ns() > 0);
        assert_eq!(report.roots[0].name, "theorem4");
    }

    #[test]
    fn overhead_measurement_is_exact_and_renders() {
        let r = measure_overhead(&[1, 2], 4, 3);
        assert!(r.all_hold);
        assert!(r.exact_attribution());
        assert!(r.baseline_min_ns > 0 && r.probed_min_ns > 0);
        let json = to_json(&r);
        assert!(json.contains("\"bench\":\"profile_overhead\""));
        assert!(json.contains("\"within_target\":"));
        assert!(json.contains("\"exact_attribution\":true"));
        assert_eq!(table(&r).len(), 8);
        // The folded export re-parses and sums to the root total.
        let parsed = relax_trace::parse_folded(&r.report.to_folded()).unwrap();
        let sum: u64 = parsed.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, r.report.total_ns());
    }
}
