//! The on-disk trace format, pinned by files the previous writer wrote.
//!
//! Both fixtures were exported by the commit before the event table
//! existed (the hand-written `Event::to_json` match): reading one and
//! writing it back must reproduce it byte for byte, so the format cannot
//! drift without a `FORMAT_VERSION` bump and a new fixture.
//! `all_kinds_v3.jsonl` holds one line per kind; a variant added to the
//! table without a line there fails `the_all_kinds_fixture_lists_exactly_the_table`.
//! `availability_v3.jsonl` is what `relax-bench availability --trace`
//! prints on every run (CI `cmp`s a fresh export against it).

use relax_trace::{read_trace, EventKind, Tracer};

const ALL_KINDS: &str = include_str!("fixtures/all_kinds_v3.jsonl");
const AVAILABILITY: &str = include_str!("fixtures/availability_v3.jsonl");

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
    let parsed = read_trace(ALL_KINDS).unwrap();
    let in_file: Vec<&str> = parsed.events.iter().map(|e| e.kind.tag()).collect();
    assert_eq!(in_file, EventKind::TAGS);
}
