//! The repository's benchmark: six workloads, four end-to-end metrics,
//! and a per-layer budget measured from outside the program. See
//! `README.md` beside this package for the glossary and the method.
//!
//! ```text
//! benchmark --workload <name|all> --seed <u64> --seconds <s> --trace <0|1>
//! benchmark repeat --sets <n> [--seed <u64>] [--seconds <s>]
//! ```
//!
//! One workload is one process, pinned to one CPU. The last line of
//! standard output is the result object; the lines before it are for
//! the reader. (`benchmark rss --workload <name> --seed <u64>` is the
//! memory probe an untraced run starts as its child.)

mod check;
mod lattice;
mod metrics;
mod repeat;
mod replay;
mod simheal;
mod stats;
mod sys;
mod threaded;
mod workload;

use std::process::{Command, ExitCode};

use metrics::{metrics_json, Layers, END_TO_END, PER_LAYER, WORKLOADS};
use relax_trace::Probe;
use stats::{median, quantile};
use workload::{Size, Workload};

/// What the command line asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Measure one workload, or each in turn.
    Run,
    /// Sets of runs against the bounds.
    Repeat,
    /// The memory probe of one workload.
    Rss,
}

/// Parsed command line of a measuring invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// A workload name, or `all`.
    pub workload: String,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Seconds one run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// `repeat` only: how many sets of runs.
    pub sets: usize,
}

const USAGE: &str = "usage: benchmark --workload <name|all> --seed <u64> --seconds <s> --trace <0|1>\n       benchmark repeat --sets <n> [--seed <u64>] [--seconds <s>]";

fn parse(argv: &[String]) -> Result<(Mode, Args), String> {
    let (mode, flags) = match argv.first().map(String::as_str) {
        Some("repeat") => (Mode::Repeat, &argv[1..]),
        Some("rss") => (Mode::Rss, &argv[1..]),
        _ => (Mode::Run, argv),
    };
    let repeat = mode == Mode::Repeat;
    let mut args = Args {
        workload: if repeat { "all" } else { "" }.to_string(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        sets: 2,
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0 && *s <= 60.0)
                    .ok_or_else(|| bad("a number of seconds from 0 to 60"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--sets" if repeat => {
                args.sets = value
                    .parse()
                    .ok()
                    .filter(|n| (2..=100).contains(n))
                    .ok_or_else(|| bad("a count from 2 to 100"))?;
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let all = args.workload == "all" && mode != Mode::Rss;
    if !all && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload {:?}: expected one of {WORKLOADS:?} or all",
            args.workload
        ));
    }
    Ok((mode, args))
}

/// Builds the named workload at `size` with inputs drawn from `seed`.
pub fn make(name: &str, seed: u64, size: Size) -> Box<dyn Workload> {
    use threaded::{Account, Spec, Taxi, Threaded};
    match name {
        "account_1shard" => Box::new(Threaded::<Account>::new(Spec::account_1shard(size), seed)),
        "account_2shard" => Box::new(Threaded::<Account>::new(Spec::account_2shard(size), seed)),
        "account_calm" => Box::new(Threaded::<Account>::new(Spec::account_calm(size), seed)),
        "taxi_1shard" => Box::new(Threaded::<Taxi>::new(Spec::taxi_1shard(size), seed)),
        "sim_partition_heal" => Box::new(simheal::SimHeal::new(size, seed)),
        "lattice_verify" => Box::new(lattice::LatticeVerify::new(size, seed)),
        other => unreachable!("{other} passed argument checking"),
    }
}

/// Iterations the memory probe runs: memory an iteration frees is
/// reused by the next, so the peak stands after the first few.
const RSS_ITERATIONS: usize = 3;

/// `rss`: sets the workload up, runs a few iterations, and prints the
/// process's peak resident memory in MiB.
fn rss_probe(args: &Args) -> ExitCode {
    let _pin = sys::Pin::highest_cpu();
    let mut w = make(&args.workload, args.seed, Size::Full);
    w.set_up();
    for _ in 0..RSS_ITERATIONS {
        if let Some(e) = w.iterate(&mut Probe::disabled()).error {
            eprintln!("benchmark: {}: check failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    }
    println!("{}", sys::peak_rss_mib());
    ExitCode::SUCCESS
}

/// `peak_rss_mb`: the peak resident memory of a child process that runs
/// the memory probe under one malloc arena. With glibc's default of an
/// arena per thread, which arena an iteration's threads inherit decides
/// how far each grows, and the same run peaks at 7.6 or at 12.4 MiB;
/// under one arena it repeats within 2%. Only the child is so
/// restricted: a single arena costs `account_calm` 7% of its
/// throughput, so the timed process keeps the default.
fn peak_rss_mb(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("no path to this binary: {e}"))?;
    let out = Command::new(exe)
        .env("MALLOC_ARENA_MAX", "1")
        .args(["rss", "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("memory probe did not start: {e}"))?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .ok()
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("memory probe failed ({})", out.status))
}

/// Runs one workload in this process and prints its result line.
fn run_one(args: &Args) -> ExitCode {
    let pin = sys::Pin::highest_cpu();
    println!("{{\"env\":{}}}", sys::env_json(pin.as_ref()));
    let mut w = make(&args.workload, args.seed, Size::Full);

    let (result, metrics) = if args.trace {
        let mut layers = Layers::new();
        let (result, probe) = workload::trace(w.as_mut(), args.seconds, pin.as_ref(), &mut layers);
        let report = probe.report().expect("harness spans are balanced");
        assert_eq!(
            report.self_sum_ns(),
            report.total_ns(),
            "harness self times telescope to the root"
        );
        println!("harness spans over the traced iterations (ns, self):");
        for p in report.aggregated_paths() {
            println!("  {:<28} {:>14}  ({} spans)", p.path, p.self_ns, p.count);
        }
        (result, metrics_json(&PER_LAYER, |n| layers.get(n)))
    } else {
        let mut result = workload::run(w.as_mut(), args.seconds);
        let peak_rss_mb = peak_rss_mb(args).unwrap_or_else(|e| {
            result.correct = false;
            result.error.get_or_insert(e);
            0.0
        });
        let estimator = w.estimator();
        let its = &result.iterations;
        let thr: Vec<f64> = its.iter().map(workload::Iteration::ops_per_s).collect();
        let lat: Vec<f64> = its.iter().map(|i| i.op_p50_ns / 1e3).collect();
        println!(
            "{{\"detail\":{{\"workload\":\"{}\",\"seed\":{},\"iterations\":{},\"ops_per_iteration\":{},\"estimator\":\"{}\",\
             \"ops_per_s\":{{\"p25\":{},\"p50\":{},\"p75\":{}}},\
             \"op_p50_us\":{{\"p25\":{},\"p50\":{},\"p75\":{}}},\"ops_per_s_samples\":{:?},\"op_p50_us_samples\":{:?}}}}}",
            args.workload,
            args.seed,
            its.len(),
            its[0].ops,
            estimator.name(),
            quantile(&thr, 0.25),
            median(&thr),
            quantile(&thr, 0.75),
            quantile(&lat, 0.25),
            median(&lat),
            quantile(&lat, 0.75),
            thr.iter().map(|t| t.round()).collect::<Vec<_>>(),
            lat,
        );
        let value_of = |name: &str| match name {
            "ops_per_s" => estimator.ops_per_s(its),
            "op_p50_us" => estimator.op_p50_us(its),
            "peak_rss_mb" => peak_rss_mb,
            "setup_s" => result.setup_s,
            other => unreachable!("{other} is not an end-to-end metric"),
        };
        let metrics = metrics_json(&END_TO_END, value_of);
        (result, metrics)
    };

    if let Some(e) = &result.error {
        eprintln!("benchmark: {}: check failed: {e}", args.workload);
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        result.correct, result.attempted, result.failed, metrics
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mode, args) = match parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Repeat => repeat::repeat(&args),
        Mode::Rss => rss_probe(&args),
        Mode::Run if args.workload == "all" => repeat::run_all(&args),
        Mode::Run => run_one(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_command_line_parses() {
        let (mode, a) = parse(&argv(
            "--workload taxi_1shard --seed 42 --seconds 7 --trace 1",
        ))
        .expect("valid");
        assert_eq!(mode, Mode::Run);
        assert_eq!(
            a,
            Args {
                workload: "taxi_1shard".to_string(),
                seed: 42,
                seconds: 7.0,
                trace: true,
                sets: 2
            }
        );
        let (mode, a) = parse(&argv("repeat --sets 3")).expect("valid");
        assert_eq!(mode, Mode::Repeat);
        assert_eq!((a.sets, a.workload.as_str()), (3, "all"));
        let (mode, a) = parse(&argv("rss --workload taxi_1shard --seed 9")).expect("valid");
        assert_eq!((mode, a.seed), (Mode::Rss, 9));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--workload taxi_1shard --trace 2",
            "--workload taxi_1shard --seed -1",
            "--workload taxi_1shard --seconds 1e9",
            "--workload taxi_1shard --seed",
            "--sets 3 --workload all",
            "rss --workload all",
            "",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} was accepted");
        }
    }
}
