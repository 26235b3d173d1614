//! `trace_analyze --staleness` on a campaign export: the timeline is
//! printed once, under one header, with one max-lag summary.

use std::process::Command;

use relax_bench::experiments::campaign::export_campaign_trace;

#[test]
fn staleness_timeline_has_one_header_and_one_summary() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("staleness_combined.jsonl");
    export_campaign_trace("combined", 0xCA11, &path).expect("export the combined campaign");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_analyze"))
        .arg(&path)
        .arg("--staleness")
        .output()
        .expect("run trace_analyze");
    assert!(out.status.success(), "trace_analyze failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let count = |prefix: &str| stdout.lines().filter(|l| l.starts_with(prefix)).count();
    assert_eq!(count("staleness timeline:"), 1, "{stdout}");
    assert_eq!(count("max lag per replica:"), 1, "{stdout}");
    // The timeline itself is there: replica lag lines follow the header.
    assert!(stdout.contains(" lag: "), "{stdout}");
}
