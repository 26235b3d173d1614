//! Uniform benchmark regression gating: diff fresh `BENCH_*.json`
//! payloads against the committed baselines in `baselines/` with
//! per-metric tolerance bands, and render one report instead of a
//! per-bench pile of `grep '"within_target":true'` CI steps.
//!
//! ```text
//! relax-bench regress [--fresh DIR] [--baselines DIR] [--only SUBSTR] [--bless] [--list]
//! ```
//!
//! * `--fresh DIR` — directory holding the just-produced payloads
//!   (default `.`, where the experiments write them).
//! * `--baselines DIR` — directory holding the committed baselines
//!   (default `baselines`).
//! * `--only SUBSTR` — run only the checks whose payload file or
//!   metric name contains `SUBSTR` (e.g. `--only calm_fastpath` after
//!   rerunning just `relax-bench calm_fastpath`). A filter that matches
//!   nothing is an error, not a vacuous pass.
//! * `--bless` — copy the fresh payloads over the baselines instead of
//!   checking (after an intentional perf change; commit the result).
//! * `--list` — print every registered check and exit.
//!
//! Fails on any regressed check or unreadable payload.
//!
//! Band semantics are asymmetric on purpose — only *regressions* fail:
//!
//! * [`Band::MaxAbsDelta`] guards overhead-percent metrics: the fresh
//!   value may exceed the baseline by at most `delta` points. Getting
//!   cheaper never fails.
//! * [`Band::MaxRatio`] guards cost-style metrics (a micro-benchmark's
//!   ns per iteration): the fresh value may be at most
//!   `baseline × ratio`. The ratio is set between what another machine
//!   adds and what the layer losing its complexity bound adds.
//! * [`Band::MustBeTrue`] pins boolean gate verdicts regardless of the
//!   baseline.
//!
//! The wide ratio/delta bands absorb machine-to-machine noise (CI
//! runners are not the machine the baselines were recorded on); the
//! boolean gates stay strict because each bench already self-judges
//! against its own same-machine target.

use std::path::Path;

use relax_trace::codec::{report_fields, ReportValue};

use crate::args::Args;
use crate::table::Table;

/// A tolerance band for one metric.
#[derive(Debug, Clone, Copy)]
pub enum Band {
    /// Fresh numeric value must be ≤ `baseline + delta`.
    MaxAbsDelta(f64),
    /// Fresh numeric value must be ≤ `baseline × ratio`.
    MaxRatio(f64),
    /// Fresh boolean value must be `true` (baseline must agree).
    MustBeTrue,
}

impl Band {
    fn describe(&self) -> String {
        match self {
            Band::MaxAbsDelta(d) => format!("≤ base {d:+.1}"),
            Band::MaxRatio(r) => format!("≤ {r:.2}× base"),
            Band::MustBeTrue => "must be true".to_string(),
        }
    }
}

/// One gated metric of one benchmark payload.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    /// The payload file name (same in both directories).
    pub file: &'static str,
    /// Top-level metric name inside the payload.
    pub metric: &'static str,
    /// The tolerance band.
    pub band: Band,
}

/// Every gated metric across the workspace's benchmark payloads.
pub const CHECKS: &[Check] = &[
    // What the campaign's tracing and staleness sampling cost, in percent
    // of a run that carries neither them nor the monitor: the median of
    // 301 ABBA blocks (DESIGN §6). It does not move when the monitor
    // does, and unlike added nanoseconds it does not scale with a slow
    // spell of the machine. Thirty pinned runs of each of two binaries
    // read 10.3–12.8 against the baseline's 11.5; a tracer that costs
    // half as much again reads over 17 (EXPERIMENTS MON-A). The payload's
    // `tracing_pct`, tracing alone, is reported beside it ungated.
    Check {
        file: "BENCH_fault_campaign.json",
        metric: "telemetry_pct",
        band: Band::MaxAbsDelta(5.0),
    },
    Check {
        file: "BENCH_fault_campaign.json",
        metric: "all_verdicts_ok",
        band: Band::MustBeTrue,
    },
    // The sim rows of the CALM fast path gate what the sim can show:
    // availability under a quorum-blocking partition and equivalence,
    // both inside `within_target`. Its speed is a wall-clock question,
    // which the repo's benchmark answers (workload `account_calm`).
    Check {
        file: "BENCH_calm_fastpath.json",
        metric: "all_equivalent",
        band: Band::MustBeTrue,
    },
    Check {
        file: "BENCH_calm_fastpath.json",
        metric: "within_target",
        band: Band::MustBeTrue,
    },
    // The sim client's bookkeeping at a 65,536-entry history
    // (`benches/substrates.rs`, written by `cargo bench --bench
    // substrates -- --json`): each step costs what changed and what it
    // ships, a few hundred ns whatever the history. A client that copies
    // the first responder's log into its view again, folds the view into
    // `known[r]`, or re-diffs the WAL for a silent replica, reads
    // hundreds of times the baseline here; another machine, two or three.
    Check {
        file: "BENCH_micro_substrates.json",
        metric: "sim_client_read_view/65536",
        band: Band::MaxRatio(4.0),
    },
    Check {
        file: "BENCH_micro_substrates.json",
        metric: "sim_client_write_ack/65536",
        band: Band::MaxRatio(4.0),
    },
    Check {
        file: "BENCH_micro_substrates.json",
        metric: "sim_client_write_payloads/65536",
        band: Band::MaxRatio(4.0),
    },
    // The replica log's delta for a peer whose view has a hole in one
    // site and lacks another, at a 65,536-entry history: both sites ship
    // whole, in two plain passes over the log. The three-pass scan it
    // replaced read half as much again (EXPERIMENTS PERF-K).
    Check {
        file: "BENCH_micro_substrates.json",
        metric: "log_delta_holed/65536",
        band: Band::MaxRatio(4.0),
    },
    // One whole `Enq` through a healthy three-replica sim system over a
    // 1,024-entry history, ns per completed invocation: the simulator's
    // events plus a client and three replicas that fold no view and
    // refill the message bodies they sent last. An invocation path that
    // evaluates or allocates per invocation again reads half as much
    // again, which another machine does too — the band catches the path
    // growing with the history (`sim_invocation/deq` is recorded beside
    // it, ungated: it reads the view).
    Check {
        file: "BENCH_micro_substrates.json",
        metric: "sim_invocation/enq",
        band: Band::MaxRatio(4.0),
    },
    // The simulator's event queue alone: ns per `World::step` with
    // 16,384 timers pending, each re-armed 1–200 ticks out. The calendar
    // of tick buckets reads what it reads with 64 pending; a queue that
    // sifts a binary heap again reads three to seven times as much here,
    // hence a tighter band than the rows above.
    Check {
        file: "BENCH_micro_substrates.json",
        metric: "sim_hold/16384",
        band: Band::MaxRatio(3.0),
    },
    // The degradation monitor's four levels, ns per observed operation
    // over a 16,400-operation PQ-legal history: each level's acceptor
    // holds one state and steps it in place, so this reads about what
    // the 1,040-operation row does. A level that clones its state per
    // operation again reads over a thousand times the baseline here.
    Check {
        file: "BENCH_micro_substrates.json",
        metric: "monitor_observe/16384",
        band: Band::MaxRatio(4.0),
    },
    // The language walk (`relax-automata::multiwalk`), ns per call, over
    // Theorem 4's four pairs in turn and over one raw-QCA pair. A walk
    // that steps a state once per set it is a member of, or boxes a row
    // per set again, reads under twice the baseline; one whose hasher
    // stops reaching the cons tables' low bits reads tens of times it.
    Check {
        file: "BENCH_micro_substrates.json",
        metric: "product_walk/n4_taxi_3x8",
        band: Band::MaxRatio(4.0),
    },
    Check {
        file: "BENCH_micro_substrates.json",
        metric: "product_walk/n1_rawqca_3x6",
        band: Band::MaxRatio(4.0),
    },
    // The state layer under that walk: ns per `step_all_into`, into one
    // reused `Successors` buffer, over the states the (3, 8) walk reaches
    // on each side. A Rep-view step that sorts its successor again, or a
    // reference whose states go back to trees, reads several times the
    // baseline here before the walk row moves.
    Check {
        file: "BENCH_micro_substrates.json",
        metric: "taxi_states/quotient_3x8",
        band: Band::MaxRatio(4.0),
    },
    Check {
        file: "BENCH_micro_substrates.json",
        metric: "taxi_states/reference_3x8",
        band: Band::MaxRatio(4.0),
    },
];

/// Returns the checks whose payload file or metric name contains
/// `only` (case-sensitive substring; `None` selects everything).
/// Backs `regress --only`, so a local perf iteration can rerun
/// one bench's gates without producing every payload first.
pub fn selected(only: Option<&str>) -> Vec<Check> {
    CHECKS
        .iter()
        .filter(|c| match only {
            Some(needle) => c.file.contains(needle) || c.metric.contains(needle),
            None => true,
        })
        .copied()
        .collect()
}

/// The verdict on one check.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Which check this judges.
    pub check: Check,
    /// Baseline value rendered for the report.
    pub baseline: String,
    /// Fresh value rendered for the report.
    pub fresh: String,
    /// Did the fresh value stay within the band?
    pub pass: bool,
    /// One-line explanation when failing.
    pub detail: String,
}

fn load_metrics(path: &Path) -> Result<Vec<(String, ReportValue)>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e} (run the benches first?)", path.display()))?;
    report_fields(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn lookup<'a>(
    fields: &'a [(String, ReportValue)],
    metric: &str,
    path: &Path,
) -> Result<&'a ReportValue, String> {
    fields
        .iter()
        .find(|(name, _)| name == metric)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("{}: metric {metric:?} missing", path.display()))
}

fn as_number(v: &ReportValue, what: &str) -> Result<f64, String> {
    match v {
        ReportValue::Number(n) => Ok(*n),
        other => Err(format!("{what}: expected a number, found {other:?}")),
    }
}

fn as_bool(v: &ReportValue, what: &str) -> Result<bool, String> {
    match v {
        ReportValue::Bool(b) => Ok(*b),
        other => Err(format!("{what}: expected a bool, found {other:?}")),
    }
}

fn judge(check: &Check, base: &ReportValue, fresh: &ReportValue) -> Result<CheckOutcome, String> {
    let what = format!("{} {}", check.file, check.metric);
    let (baseline_s, fresh_s, pass, detail) = match check.band {
        Band::MaxAbsDelta(delta) => {
            let b = as_number(base, &what)?;
            let f = as_number(fresh, &what)?;
            let ceil = b + delta;
            (
                format!("{b:.2}"),
                format!("{f:.2}"),
                f <= ceil,
                format!("{f:.2} > ceiling {ceil:.2} (baseline {b:.2} {delta:+.1})"),
            )
        }
        Band::MaxRatio(ratio) => {
            let b = as_number(base, &what)?;
            let f = as_number(fresh, &what)?;
            let ceil = b * ratio;
            (
                format!("{b:.1}"),
                format!("{f:.1}"),
                f <= ceil,
                format!("{f:.1} > ceiling {ceil:.1} ({ratio:.2}× baseline {b:.1})"),
            )
        }
        Band::MustBeTrue => {
            let b = as_bool(base, &what)?;
            let f = as_bool(fresh, &what)?;
            (
                b.to_string(),
                f.to_string(),
                f,
                "gate verdict is false".to_string(),
            )
        }
    };
    Ok(CheckOutcome {
        check: *check,
        baseline: baseline_s,
        fresh: fresh_s,
        pass,
        detail: if pass { String::new() } else { detail },
    })
}

/// Runs every check in [`CHECKS`]: fresh payloads from `fresh_dir`,
/// committed baselines from `baseline_dir`. Errors on unreadable or
/// malformed payloads (a missing bench output is a failure, not a
/// skip — silent coverage loss is how regressions hide).
pub fn compare(fresh_dir: &Path, baseline_dir: &Path) -> Result<Vec<CheckOutcome>, String> {
    compare_checks(CHECKS, fresh_dir, baseline_dir)
}

/// Runs an explicit subset of checks (see [`selected`]). An empty
/// subset is an error: a filter that matches nothing would otherwise
/// report a vacuous pass.
pub fn compare_checks(
    checks: &[Check],
    fresh_dir: &Path,
    baseline_dir: &Path,
) -> Result<Vec<CheckOutcome>, String> {
    if checks.is_empty() {
        return Err("no checks selected (filter matched nothing)".to_string());
    }
    type Metrics = Vec<(String, ReportValue)>;
    let mut outcomes = Vec::with_capacity(checks.len());
    let mut last_file: Option<(&str, Metrics, Metrics)> = None;
    for check in checks {
        let reload = match &last_file {
            Some((file, _, _)) => *file != check.file,
            None => true,
        };
        if reload {
            let fresh = load_metrics(&fresh_dir.join(check.file))?;
            let base = load_metrics(&baseline_dir.join(check.file))?;
            last_file = Some((check.file, base, fresh));
        }
        let (_, base, fresh) = last_file.as_ref().expect("loaded above");
        let b = lookup(base, check.metric, &baseline_dir.join(check.file))?;
        let f = lookup(fresh, check.metric, &fresh_dir.join(check.file))?;
        outcomes.push(judge(check, b, f)?);
    }
    Ok(outcomes)
}

/// Renders the uniform regression report.
pub fn report(outcomes: &[CheckOutcome]) -> Table {
    let mut t = Table::new(["payload", "metric", "band", "baseline", "fresh", "verdict"]);
    for o in outcomes {
        t.row([
            o.check.file.to_string(),
            o.check.metric.to_string(),
            o.check.band.describe(),
            o.baseline.clone(),
            o.fresh.clone(),
            if o.pass {
                "OK".to_string()
            } else {
                format!("REGRESSED: {}", o.detail)
            },
        ]);
    }
    t
}

/// Copies every checked payload from `fresh_dir` over the committed
/// baselines — the `--bless` path after an intentional perf change.
pub fn bless(fresh_dir: &Path, baseline_dir: &Path) -> Result<Vec<&'static str>, String> {
    std::fs::create_dir_all(baseline_dir)
        .map_err(|e| format!("{}: {e}", baseline_dir.display()))?;
    let mut files: Vec<&'static str> = CHECKS.iter().map(|c| c.file).collect();
    files.dedup();
    for file in &files {
        let from = fresh_dir.join(file);
        // Validate before blessing: never commit a malformed baseline.
        load_metrics(&from)?;
        std::fs::copy(&from, baseline_dir.join(file))
            .map_err(|e| format!("{}: {e}", from.display()))?;
    }
    Ok(files)
}

/// `relax-bench regress`: lists, blesses or checks, as the module docs
/// describe.
pub fn main(args: &Args) -> Result<(), String> {
    let fresh = Path::new(args.value("--fresh").unwrap_or("."));
    let baselines = Path::new(args.value("--baselines").unwrap_or("baselines"));
    let only = args.value("--only");

    if args.has("--list") {
        let checks = selected(only);
        println!(
            "{} of {} registered checks{}:",
            checks.len(),
            CHECKS.len(),
            only.map_or(String::new(), |o| format!(" matching {o:?}"))
        );
        for c in &checks {
            println!("  {} :: {} ({:?})", c.file, c.metric, c.band);
        }
        return Ok(());
    }

    if args.has("--bless") {
        if only.is_some() {
            return Err(
                "--bless does not combine with --only: baselines are blessed as a set".to_string(),
            );
        }
        let files = bless(fresh, baselines).map_err(|e| format!("bless failed: {e}"))?;
        println!(
            "blessed {} baselines into {}:",
            files.len(),
            baselines.display()
        );
        for f in files {
            println!("  {f}");
        }
        return Ok(());
    }

    println!(
        "== Bench regression gate: {} vs baselines in {} ==\n",
        fresh.display(),
        baselines.display()
    );
    let outcomes = compare_checks(&selected(only), fresh, baselines)
        .map_err(|e| format!("regression check failed: {e}"))?;
    println!("{}", report(&outcomes));
    match outcomes.iter().filter(|o| !o.pass).count() {
        0 => {
            println!("all {} checks OK", outcomes.len());
            Ok(())
        }
        failed => Err(format!("{failed} check(s) REGRESSED")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, file: &str, contents: &str) {
        std::fs::write(dir.join(file), contents).unwrap();
    }

    fn scaffold(dir: &Path, overhead: f64, ok: bool) {
        write(
            dir,
            "BENCH_fault_campaign.json",
            &format!("{{\"telemetry_pct\":{overhead},\"all_verdicts_ok\":{ok}}}\n"),
        );
        write(
            dir,
            "BENCH_calm_fastpath.json",
            &format!("{{\"all_equivalent\":{ok},\"within_target\":{ok}}}\n"),
        );
        // Costs follow the overhead knob: 100 ns per point.
        write(
            dir,
            "BENCH_micro_substrates.json",
            &format!(
                "{{\"sim_client_read_view/65536\":{0},\"sim_client_write_ack/65536\":{0},\
                 \"sim_client_write_payloads/65536\":{0},\"log_delta_holed/65536\":{0},\
                 \"sim_invocation/enq\":{0},\
                 \"sim_hold/16384\":{0},\"monitor_observe/16384\":{0},\
                 \"product_walk/n4_taxi_3x8\":{0},\"product_walk/n1_rawqca_3x6\":{0},\
                 \"taxi_states/quotient_3x8\":{0},\"taxi_states/reference_3x8\":{0}}}\n",
                overhead * 100.0
            ),
        );
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("relax_regress_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn identical_payloads_pass_every_check() {
        let base = tmp("base_ok");
        let fresh = tmp("fresh_ok");
        scaffold(&base, 1.0, true);
        scaffold(&fresh, 1.0, true);
        let outcomes = compare(&fresh, &base).unwrap();
        assert_eq!(outcomes.len(), CHECKS.len());
        assert!(outcomes.iter().all(|o| o.pass));
        let rendered = report(&outcomes).to_string();
        assert!(rendered.contains("OK"));
        assert!(!rendered.contains("REGRESSED"));
    }

    #[test]
    fn fat_overhead_and_slow_micro_regress() {
        let base = tmp("base_reg");
        let fresh = tmp("fresh_reg");
        scaffold(&base, 1.0, true);
        // Overhead grew by more than any delta band.
        scaffold(&fresh, 9.0, true);
        let outcomes = compare(&fresh, &base).unwrap();
        let failed: Vec<&str> = outcomes
            .iter()
            .filter(|o| !o.pass)
            .map(|o| o.check.metric)
            .collect();
        assert!(failed.contains(&"telemetry_pct"));
        // Nine times the baseline's ns per iteration against a 4× band.
        assert!(failed.contains(&"sim_client_read_view/65536"));
        assert!(failed.contains(&"sim_client_write_ack/65536"));
        assert!(failed.contains(&"product_walk/n4_taxi_3x8"));
        assert!(report(&outcomes).to_string().contains("REGRESSED"));
    }

    const MICRO: &str = "BENCH_micro_substrates.json";

    /// The checks that fail when `metric` of payload `file` reads `ns`
    /// against a baseline of 100 and everything else is unchanged.
    fn failing_with(file: &str, metric: &str, ns: u32) -> Vec<&'static str> {
        let name = format!("{}_{ns}", metric.replace('/', "_"));
        let base = tmp(&format!("base_{name}"));
        let fresh = tmp(&format!("fresh_{name}"));
        scaffold(&base, 1.0, true);
        scaffold(&fresh, 1.0, true);
        let slowed = std::fs::read_to_string(fresh.join(file))
            .unwrap()
            .replace(&format!("\"{metric}\":100"), &format!("\"{metric}\":{ns}"));
        write(&fresh, file, &slowed);
        let outcomes = compare(&fresh, &base).unwrap();
        outcomes
            .iter()
            .filter(|o| !o.pass)
            .map(|o| o.check.metric)
            .collect()
    }

    /// Five times a state-layer row against its 4× band fails that row,
    /// and the walk row it sits under (unchanged here) passes.
    #[test]
    fn a_five_fold_state_layer_row_regresses() {
        let failed = failing_with(MICRO, "taxi_states/quotient_3x8", 500);
        assert_eq!(failed, ["taxi_states/quotient_3x8"]);
    }

    /// The event-queue row at three and a half times its baseline, a
    /// binary heap's reading at 16,384 pending, fails its 3× band alone.
    #[test]
    fn a_heap_speed_event_queue_regresses() {
        assert_eq!(
            failing_with(MICRO, "sim_hold/16384", 350),
            ["sim_hold/16384"]
        );
    }

    /// The holed-delta row at five times its baseline fails its 4× band
    /// alone.
    #[test]
    fn a_five_fold_holed_delta_regresses() {
        assert_eq!(
            failing_with(MICRO, "log_delta_holed/65536", 500),
            ["log_delta_holed/65536"]
        );
    }

    /// A monitor at five times its baseline per operation fails its 4×
    /// band alone.
    #[test]
    fn a_five_fold_monitor_regresses() {
        assert_eq!(
            failing_with(MICRO, "monitor_observe/16384", 500),
            ["monitor_observe/16384"]
        );
    }

    /// Telemetry that costs a campaign half as much again, from the
    /// committed baseline's 11.52%, fails the campaign's gate; the
    /// highest pinned reading of either binary passes it.
    #[test]
    fn half_again_campaign_telemetry_regresses() {
        let check = CHECKS.iter().find(|c| c.metric == "telemetry_pct").unwrap();
        let base = ReportValue::Number(11.52);
        let passes = |fresh: f64| {
            judge(check, &base, &ReportValue::Number(fresh))
                .unwrap()
                .pass
        };
        assert!(!passes(11.52 * 1.5));
        assert!(passes(12.82));
    }

    #[test]
    fn improvements_never_fail() {
        let base = tmp("base_imp");
        let fresh = tmp("fresh_imp");
        scaffold(&base, 3.0, true);
        // Cheaper than the baseline.
        scaffold(&fresh, 0.1, true);
        let outcomes = compare(&fresh, &base).unwrap();
        assert!(outcomes.iter().all(|o| o.pass));
    }

    #[test]
    fn false_gate_fails_even_within_bands() {
        let base = tmp("base_gate");
        let fresh = tmp("fresh_gate");
        scaffold(&base, 1.0, true);
        scaffold(&fresh, 1.0, false);
        let outcomes = compare(&fresh, &base).unwrap();
        assert!(outcomes
            .iter()
            .any(|o| o.check.metric == "within_target" && !o.pass));
    }

    #[test]
    fn missing_payload_is_an_error_not_a_skip() {
        let base = tmp("base_missing");
        let fresh = tmp("fresh_missing");
        scaffold(&base, 1.0, true);
        scaffold(&fresh, 1.0, true);
        std::fs::remove_file(fresh.join("BENCH_calm_fastpath.json")).unwrap();
        let err = compare(&fresh, &base).unwrap_err();
        assert!(err.contains("BENCH_calm_fastpath.json"), "{err}");
    }

    #[test]
    fn bless_copies_and_validates() {
        let base = tmp("base_bless");
        let fresh = tmp("fresh_bless");
        scaffold(&fresh, 2.0, true);
        let files = bless(&fresh, &base).unwrap();
        assert_eq!(files.len(), 3);
        let outcomes = compare(&fresh, &base).unwrap();
        assert!(outcomes.iter().all(|o| o.pass));
    }

    #[test]
    fn selection_filters_by_payload_or_metric_substring() {
        let all = selected(None);
        assert_eq!(all.len(), 15);
        let campaign = selected(Some("fault_campaign"));
        assert_eq!(campaign.len(), 2);
        assert!(campaign
            .iter()
            .all(|c| c.file == "BENCH_fault_campaign.json"));
        assert_eq!(selected(Some("calm")).len(), 2);
        assert_eq!(selected(Some("sim_client")).len(), 3);
        assert_eq!(selected(Some("product_walk")).len(), 2);
        assert_eq!(selected(Some("taxi_states")).len(), 2);
        let by_metric = selected(Some("telemetry_pct"));
        assert_eq!(by_metric.len(), 1);
        assert!(by_metric.iter().all(|c| c.metric == "telemetry_pct"));
        assert!(selected(Some("no_such_check")).is_empty());
    }

    #[test]
    fn filtered_compare_only_reads_the_matching_payloads() {
        let base = tmp("base_only");
        let fresh = tmp("fresh_only");
        scaffold(&base, 1.0, true);
        scaffold(&fresh, 1.0, true);
        // Remove an unrelated payload: a campaign-only run must not
        // touch it, and an unfiltered run must still fail on it.
        std::fs::remove_file(fresh.join("BENCH_calm_fastpath.json")).unwrap();
        let outcomes = compare_checks(&selected(Some("fault_campaign")), &fresh, &base).unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.pass));
        assert!(compare(&fresh, &base).is_err());
        let err = compare_checks(&selected(Some("no_such_check")), &fresh, &base).unwrap_err();
        assert!(err.contains("matched nothing"), "{err}");
    }
}
