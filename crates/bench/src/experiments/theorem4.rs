//! Theorem 4 (and the other lattice points), bounded verification.

use relax_core::theorem4::{
    separating_histories, verify_taxi_lattice, verify_taxi_lattice_probed, TaxiVerification,
};
use relax_trace::Probe;

use crate::args::Args;
use crate::experiments::write_file;
use crate::table::Table;

/// Runs the verification and renders the per-point table.
pub fn run(items: &[i64], max_len: usize) -> (Table, TaxiVerification) {
    let v = verify_taxi_lattice(items, max_len);
    (point_table(&v), v)
}

/// [`run`] under the flight recorder: the same table plus the probe
/// that recorded the four walks — the per-point language sizes and
/// peak frontiers in the table come from the verification, their timing
/// breakdown from the probe's [`report`](Probe::report), one source
/// each.
pub fn run_profiled(items: &[i64], max_len: usize) -> (Table, TaxiVerification, Probe) {
    let mut probe = Probe::enabled();
    let v = verify_taxi_lattice_probed(items, max_len, &mut probe);
    (point_table(&v), v, probe)
}

fn point_table(v: &TaxiVerification) -> Table {
    let mut t = Table::new([
        "point",
        "claimed behavior",
        "|L| (≤ bound)",
        "peak nodes",
        "verdict",
    ]);
    for p in &v.points {
        t.row([
            format!("Q1={} Q2={}", p.point.q1 as u8, p.point.q2 as u8),
            p.behavior.to_string(),
            p.language_size.to_string(),
            p.peak_frontier.to_string(),
            if p.holds() {
                "EQUAL".to_string()
            } else {
                format!("DIFFER: {:?}", p.difference)
            },
        ]);
    }
    t
}

/// Renders the strictness witnesses (histories separating each relaxed
/// point from the preferred behavior).
pub fn witnesses_table() -> Table {
    let mut t = Table::new(["point", "separating history"]);
    for (point, h) in separating_histories() {
        t.row([
            format!("Q1={} Q2={}", point.q1 as u8, point.q2 as u8),
            h.to_string(),
        ]);
    }
    t
}

/// `relax-bench theorem4 [--profile] [--trace PATH]`: the four lattice
/// points at three bounds, then the strictness witnesses. With
/// `--profile` the deep (3, 8) bound runs under the flight recorder:
/// its span tree, hot spans and frontier timelines follow the verdicts,
/// the folded stacks go to `stacks.folded`, and `--trace PATH` writes
/// the recorded events as JSONL for `trace_analyze --profile`.
pub fn main(args: &Args) -> Result<(), String> {
    let profile = args.has("--profile");
    if let (false, Some(path)) = (profile, args.value("--trace")) {
        return Err(format!(
            "--trace {path} exports the profile: pass --profile"
        ));
    }
    println!("== Theorem 4: L(QCA(PQ, Q1, η)) = L(MPQ), and siblings ==\n");
    for (items, max_len) in [(vec![1, 2], 5usize), (vec![1, 2, 3], 4), (vec![1, 2, 3], 8)] {
        println!("items = {items:?}, history length ≤ {max_len}:");
        let v = if profile && max_len == 8 {
            let (table, v, probe) = run_profiled(&items, max_len);
            let report = probe.report()?;
            println!("{table}");
            println!("{}", report.render(10));
            write_file("stacks.folded", &report.to_folded())?;
            println!("wrote stacks.folded");
            if let Some(path) = args.value("--trace") {
                probe
                    .write_jsonl(path)
                    .map_err(|e| format!("{path}: {e}"))?;
                println!("wrote {path}");
            }
            v
        } else {
            let (table, v) = run(&items, max_len);
            println!("{table}");
            v
        };
        println!(
            "overall: {}\n",
            if v.holds() {
                "ALL POINTS EQUAL"
            } else {
                "MISMATCH"
            }
        );
    }
    println!("strictness witnesses (accepted by the relaxed point, rejected by PQ):");
    println!("{}", witnesses_table());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verification_passes_and_renders() {
        let (t, v) = run(&[1, 2], 5);
        assert!(v.holds());
        assert_eq!(t.len(), 4);
        assert!(t.to_string().contains("EQUAL"));
    }

    #[test]
    fn witnesses_render() {
        let t = witnesses_table();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn profiled_run_matches_and_carries_spans() {
        let (t, v, probe) = run_profiled(&[1, 2], 5);
        let report = probe.report().unwrap();
        assert!(v.holds());
        assert_eq!(t.to_string(), run(&[1, 2], 5).0.to_string());
        assert_eq!(report.roots[0].name, "theorem4");
        assert_eq!(report.self_sum_ns(), report.total_ns());
        // The folded export re-parses and sums to the root total.
        let parsed = relax_trace::parse_folded(&report.to_folded()).unwrap();
        let sum: u64 = parsed.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, report.total_ns());
    }
}
