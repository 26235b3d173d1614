//! `trace_analyze --spans --prometheus` on the committed availability
//! export prints exactly its golden, `baselines/trace_analyze_availability_v4.txt`:
//! the spans, the latency attribution, the root cause and the exposition
//! of the §3.3 degradation run cannot move without a reviewed edit to
//! that file.

use std::process::Command;

const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

#[test]
fn the_availability_report_matches_its_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_analyze"))
        .arg(format!(
            "{ROOT}/crates/trace/tests/fixtures/availability_v4.jsonl"
        ))
        .args(["--spans", "--prometheus"])
        .output()
        .expect("run trace_analyze");
    assert!(out.status.success(), "trace_analyze failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let golden = std::fs::read_to_string(format!(
        "{ROOT}/baselines/trace_analyze_availability_v4.txt"
    ))
    .expect("read the golden");
    assert_eq!(stdout, golden);
}
