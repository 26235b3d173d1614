//! CI perf-regression gate: diff fresh `BENCH_*.json` payloads against
//! the committed baselines with per-metric tolerance bands and render
//! one uniform report.
//!
//! ```text
//! bench_regress [--fresh DIR] [--baselines DIR] [--only SUBSTR] [--bless] [--list]
//! ```
//!
//! * `--fresh DIR` — directory holding the just-produced payloads
//!   (default `.`, where the `exp_*` bins write them).
//! * `--baselines DIR` — directory holding the committed baselines
//!   (default `baselines`).
//! * `--only SUBSTR` — run only the checks whose payload file or
//!   metric name contains `SUBSTR` (e.g. `--only calm_fastpath` after
//!   rerunning just `exp_calm_fastpath`). A filter that matches
//!   nothing is an error, not a vacuous pass.
//! * `--bless` — copy the fresh payloads over the baselines instead of
//!   checking (after an intentional perf change; commit the result).
//! * `--list` — print every registered check and exit.
//!
//! Exits non-zero on any regressed check or unreadable payload.

use std::path::PathBuf;

use relax_bench::experiments::regress::{bless, compare_checks, report, selected, CHECKS};

fn main() {
    let mut fresh = PathBuf::from(".");
    let mut baselines = PathBuf::from("baselines");
    let mut only: Option<String> = None;
    let mut do_bless = false;
    let mut do_list = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fresh" => fresh = PathBuf::from(args.next().expect("--fresh needs a directory")),
            "--baselines" => {
                baselines = PathBuf::from(args.next().expect("--baselines needs a directory"))
            }
            "--only" => only = Some(args.next().expect("--only needs a substring")),
            "--bless" => do_bless = true,
            "--list" => do_list = true,
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: bench_regress [--fresh DIR] [--baselines DIR] \
                     [--only SUBSTR] [--bless] [--list]"
                );
                std::process::exit(2);
            }
        }
    }

    if do_list {
        let checks = selected(only.as_deref());
        println!(
            "{} of {} registered checks{}:",
            checks.len(),
            CHECKS.len(),
            match &only {
                Some(o) => format!(" matching {o:?}"),
                None => String::new(),
            }
        );
        for c in &checks {
            println!("  {} :: {} ({:?})", c.file, c.metric, c.band);
        }
        return;
    }

    if do_bless {
        if only.is_some() {
            eprintln!("--bless does not combine with --only: baselines are blessed as a set");
            std::process::exit(2);
        }
        match bless(&fresh, &baselines) {
            Ok(files) => {
                println!(
                    "blessed {} baselines into {}:",
                    files.len(),
                    baselines.display()
                );
                for f in files {
                    println!("  {f}");
                }
            }
            Err(e) => {
                eprintln!("bless failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    println!(
        "== Bench regression gate: {} vs baselines in {} ==\n",
        fresh.display(),
        baselines.display()
    );
    match compare_checks(&selected(only.as_deref()), &fresh, &baselines) {
        Ok(outcomes) => {
            println!("{}", report(&outcomes));
            let failed = outcomes.iter().filter(|o| !o.pass).count();
            if failed > 0 {
                eprintln!("{failed} check(s) REGRESSED");
                std::process::exit(1);
            }
            println!("all {} checks OK", outcomes.len());
        }
        Err(e) => {
            eprintln!("regression check failed: {e}");
            std::process::exit(1);
        }
    }
}
