//! Theorem 4 (and the other lattice points), bounded verification.

use relax_core::theorem4::{separating_histories, verify_taxi_lattice, TaxiVerification};
use relax_trace::ProfileReport;

use crate::experiments::profile::profiled_shared;
use crate::table::Table;

/// Runs the verification and renders the per-point table.
pub fn run(items: &[i64], max_len: usize) -> (Table, TaxiVerification) {
    let v = verify_taxi_lattice(items, max_len);
    (point_table(&v), v)
}

/// [`run`] under the flight recorder: the same table plus the
/// reconstructed span tree of the shared walk — the per-point language
/// sizes and peak frontiers in the table come from the verification,
/// their timing breakdown from the profile, one source each.
pub fn run_profiled(items: &[i64], max_len: usize) -> (Table, TaxiVerification, ProfileReport) {
    let (v, report) = profiled_shared(items, max_len);
    (point_table(&v), v, report)
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
        let (t, v, report) = run_profiled(&[1, 2], 5);
        assert!(v.holds());
        assert_eq!(t.len(), 4);
        assert_eq!(report.roots[0].name, "theorem4");
        assert_eq!(report.self_sum_ns(), report.total_ns());
    }
}
