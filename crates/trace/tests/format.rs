//! The on-disk trace format, pinned by files earlier writers wrote.
//!
//! The `_v4` fixtures are what the current writer produces: reading one
//! and writing it back must reproduce it byte for byte, so the format
//! cannot drift without a `FORMAT_VERSION` bump and a new fixture.
//! `all_kinds_v4.jsonl` holds one line per kind; a variant added to the
//! table without a line there fails `the_all_kinds_fixture_lists_exactly_the_table`.
//! `availability_v4.jsonl` is what `relax-bench availability --trace`
//! prints on every run (CI `cmp`s a fresh export against it).
//!
//! The `_v3` fixtures were written before a message became one record.
//! They still ingest, and the same seeded run read from either version
//! is the same run: the upgrade and the writer agree event for event.

use relax_trace::analyze::describe;
use relax_trace::{read_trace, Event, EventKind, TraceAnalysis, Tracer};

const ALL_KINDS: &str = include_str!("fixtures/all_kinds_v4.jsonl");
const AVAILABILITY: &str = include_str!("fixtures/availability_v4.jsonl");
const ALL_KINDS_V3: &str = include_str!("fixtures/all_kinds_v3.jsonl");
const AVAILABILITY_V3: &str = include_str!("fixtures/availability_v3.jsonl");

fn events(fixture: &str) -> Vec<Event> {
    read_trace(fixture).unwrap().events
}

#[test]
fn fixtures_read_then_write_back_byte_for_byte() {
    for (name, fixture) in [("all_kinds", ALL_KINDS), ("availability", AVAILABILITY)] {
        let parsed = read_trace(fixture).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut tracer = Tracer::bounded(parsed.events.len());
        for e in parsed.events {
            tracer.record(e.time, e.kind);
        }
        assert_eq!(tracer.export_jsonl(), fixture, "{name}");
    }
}

#[test]
fn the_all_kinds_fixture_lists_exactly_the_table() {
    for fixture in [ALL_KINDS, ALL_KINDS_V3] {
        let in_file: Vec<&str> = events(fixture).iter().map(|e| e.kind.tag()).collect();
        assert_eq!(in_file, EventKind::TAGS);
    }
}

#[test]
fn the_v3_availability_run_reads_as_the_v4_export() {
    assert_eq!(events(AVAILABILITY_V3), events(AVAILABILITY));
}

#[test]
fn the_v3_and_v4_availability_runs_analyze_alike() {
    let [v3, v4] = [AVAILABILITY_V3, AVAILABILITY].map(|f| TraceAnalysis::from_events(events(f)));
    let spans = |a: &TraceAnalysis| -> Vec<_> {
        a.spans()
            .iter()
            .map(|s| {
                let times = (s.begin_time, s.end_time);
                (s.node, s.op_id, s.outcome, times, s.breakdown)
            })
            .collect()
    };
    assert_eq!(spans(&v3), spans(&v4));
    assert_eq!(v4.spans().len(), 6);
    let causes = |a: &TraceAnalysis| -> Vec<Vec<(u64, String)>> {
        let events = a.graph().events();
        a.root_causes()
            .iter()
            .map(|rc| {
                let cut = rc.fault_cut.iter().map(|&f| &events[f]);
                cut.map(|e| (e.time, describe(&e.kind))).collect()
            })
            .collect()
    };
    assert_eq!(causes(&v3), causes(&v4));
    assert_eq!(causes(&v4).len(), 1);
}
