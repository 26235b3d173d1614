//! `--workload all` and `repeat`: one child process per workload (peak
//! memory and the CPU pin are per process), and the repeatability
//! evidence the bounds in `BENCHMARK.json` are set from.

use std::process::{Command, ExitCode};

use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};
use crate::Args;

/// Runs one workload in a child process, echoes its output, and returns
/// its result line (the last line of its standard output) if it exited
/// with success.
fn child(workload: &str, seed: u64, args: &Args) -> Option<String> {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark can re-execute itself");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    output
        .status
        .success()
        .then(|| stdout.lines().last().map(str::to_string))
        .flatten()
}

/// `--workload all`: every workload once, each in its own process.
pub fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        ok &= child(w, args.seed, args).is_some();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The number after `"<name>":{"value":` in a result line.
fn value_of(line: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

/// The bound `BENCHMARK.json` (in the working directory) sets for an
/// end-to-end metric.
fn bound_of(benchmark_json: &str, name: &str) -> Option<f64> {
    let at = benchmark_json.find(&format!("\"name\": \"{name}\""))?;
    let rest = &benchmark_json[at..];
    let rest = &rest[rest.find("\"bound\":")? + "\"bound\":".len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// `repeat --sets N`: N sets of ten runs per workload, each run with
/// another seed (the acceptance rule's shape). Prints, per end-to-end
/// metric and workload, the widest spread within a set and the largest
/// shift of the median between sets, against the metric's bound.
pub fn repeat(args: &Args) -> ExitCode {
    const RUNS: u64 = 10;
    let spec = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let mut ok = true;
    let mut rows = Vec::new();
    for w in WORKLOADS {
        // medians[metric][set], spreads[metric][set]
        let mut medians = vec![Vec::new(); END_TO_END.len()];
        let mut spreads = vec![Vec::new(); END_TO_END.len()];
        for set in 0..args.sets {
            let mut values = vec![Vec::new(); END_TO_END.len()];
            for run in 0..RUNS {
                println!("== {w} set {set} run {run}");
                let Some(line) = child(w, args.seed + run, args) else {
                    ok = false;
                    continue;
                };
                for (m, &(name, _, _)) in END_TO_END.iter().enumerate() {
                    values[m].extend(value_of(&line, name));
                }
            }
            for m in 0..END_TO_END.len() {
                if values[m].len() >= 2 {
                    medians[m].push(median(&values[m]));
                    spreads[m].push(iqr_share(&values[m]));
                }
            }
        }
        for (m, &(name, _, higher_better)) in END_TO_END.iter().enumerate() {
            let (Some(&first), true) = (medians[m].first(), medians[m].len() == args.sets) else {
                ok = false;
                continue;
            };
            // Worsening of any later set's median against the first.
            let shift = medians[m][1..]
                .iter()
                .map(|&later| {
                    if higher_better {
                        (first - later) / first
                    } else {
                        (later - first) / first
                    }
                })
                .fold(f64::MIN, f64::max);
            let spread = spreads[m].iter().copied().fold(0.0, f64::max);
            rows.push((w, name, spread, shift, bound_of(&spec, name)));
        }
    }

    println!("\nrepeatability over {} sets of {RUNS} seeds:", args.sets);
    println!(
        "{:<20} {:<12} {:>12} {:>14} {:>8}  verdict",
        "workload", "metric", "max IQR/med", "median shift", "bound"
    );
    for (w, name, spread, shift, bound) in rows {
        let verdict = match bound {
            None => "no bound found",
            // The spread rule does not apply to setup_s.
            Some(b) if (name != "setup_s" && spread > b) || shift > b => {
                ok = false;
                "OUTSIDE"
            }
            Some(b) if name != "setup_s" && spread > b / 3.0 => "within (spread above a third)",
            Some(_) => "within",
        };
        println!(
            "{w:<20} {name:<12} {:>11.2}% {:>13.2}% {:>7.0}%  {verdict}",
            100.0 * spread,
            100.0 * shift,
            100.0 * bound.unwrap_or(0.0),
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_and_bounds_parse() {
        let line = "{\"correct\":true,\"attempted\":8,\"failed\":0,\"metrics\":{\"ops_per_s\":{\"value\":12.5,\"unit\":\"1/s\"},\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}}}";
        assert_eq!(value_of(line, "ops_per_s"), Some(12.5));
        assert_eq!(value_of(line, "setup_s"), Some(0.25));
        assert_eq!(value_of(line, "op_p50_us"), None);
        let spec = "{\"name\": \"ops_per_s\", \"unit\": \"1/s\", \"better\": \"higher\", \"bound\": 0.1},\n{\"name\": \"setup_s\", \"bound\": 0.25}";
        assert_eq!(bound_of(spec, "ops_per_s"), Some(0.1));
        assert_eq!(bound_of(spec, "setup_s"), Some(0.25));
        assert_eq!(bound_of(spec, "nope"), None);
    }
}
