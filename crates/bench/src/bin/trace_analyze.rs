//! Offline causal analysis of an exported JSONL trace.
//!
//! Ingests a trace written by `Tracer::write_jsonl` /
//! `relax-bench availability --trace`, rebuilds the happens-before DAG, derives
//! per-operation spans with critical-path latency attribution, and — for
//! every witnessed level transition — walks the DAG backwards to the
//! minimal cut of fault events that caused the degradation.
//!
//! ```text
//! cargo run -p relax-bench --bin trace_analyze -- TRACE.jsonl [--spans] [--staleness] [--prometheus] [--profile]
//! ```
//!
//! With no path, reads JSONL from stdin. `--spans` prints one line per
//! operation span; `--staleness` appends the staleness timeline (lag
//! samples, divergence probes, level deaths, budget exhaustions);
//! `--prometheus` appends the aggregated registry in Prometheus text
//! exposition format; `--profile` reconstructs the flight recorder's
//! hierarchical span tree (hot spans with exact self/child attribution,
//! counters, gauge timelines) from any profile events in the trace.

use relax_bench::args::{usage, Args};
use relax_trace::{read_trace, staleness_report, OpOutcome, ProfileReport, TraceAnalysis};
use std::io::Read as _;
use std::process::ExitCode;

const FLAGS: &[&str] = &["--spans", "--staleness", "--prometheus", "--profile"];

fn main() -> ExitCode {
    // The one positional is the trace; everything else is a flag.
    let (flags, paths): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|a| a.starts_with("--"));
    let parsed = Args::parse(FLAGS, flags).and_then(|args| match paths.len() {
        0 | 1 => Ok(args),
        _ => Err("more than one trace path".to_string()),
    });
    let args = match parsed {
        Ok(args) => args,
        Err(e) => {
            eprintln!("trace_analyze: {e}");
            eprintln!("usage: {}", usage("trace_analyze [TRACE.jsonl]", FLAGS));
            return ExitCode::from(2);
        }
    };
    let show_spans = args.has("--spans");
    let show_staleness = args.has("--staleness");
    let show_prometheus = args.has("--prometheus");
    let show_profile = args.has("--profile");
    let path = paths.first();

    let input = match path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("trace_analyze: cannot read {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => {
            let mut s = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut s) {
                eprintln!("trace_analyze: cannot read stdin: {e}");
                return ExitCode::FAILURE;
            }
            s
        }
    };

    let parsed = match read_trace(&input) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("trace_analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(h) = &parsed.header {
        if h.dropped_oldest > 0 {
            eprintln!(
                "note: ring buffer evicted {} oldest events; causal pasts may be truncated",
                h.dropped_oldest
            );
        }
    }

    let staleness = show_staleness.then(|| staleness_report(&parsed.events));
    let profile = if show_profile {
        match ProfileReport::from_events(&parsed.events) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("trace_analyze: --profile: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    let analysis = TraceAnalysis::from_trace(parsed);
    print!("{}", analysis.report());

    if let Some(s) = staleness {
        // The report starts with its own "staleness timeline:" header.
        println!();
        print!("{s}");
    }

    if show_spans {
        println!("\nspans:");
        for s in analysis.spans() {
            let outcome = match s.outcome {
                OpOutcome::Completed => "completed",
                OpOutcome::Refused => "refused",
                OpOutcome::TimedOut => "timed_out",
            };
            println!(
                "  t={:<6} node {} op #{:<3} {:<14} {:<9} latency {:>5} \
                 (net {} / retry {} / partition {} / local {})",
                s.begin_time,
                s.node,
                s.op_id,
                s.label.as_str(),
                outcome,
                s.latency,
                s.breakdown.network_wait,
                s.breakdown.quorum_retry_stall,
                s.breakdown.partition_stall,
                s.breakdown.local_compute,
            );
        }
    }

    if show_prometheus {
        let mut reg = analysis.registry();
        println!("\nprometheus exposition:");
        print!("{}", reg.render_prometheus());
    }

    if let Some(p) = profile {
        println!();
        print!("{}", p.render(10));
    }

    ExitCode::SUCCESS
}
