//! The trace collector: a bounded ring buffer of [`Event`]s.
//!
//! A [`Tracer`] is either *disabled* (the default — recording is a
//! single branch, so instrumented hot paths cost nothing when tracing is
//! off) or *bounded* with a capacity; when full, the oldest events are
//! evicted and counted in [`Tracer::dropped_oldest`], so a long run
//! keeps its most recent window instead of growing without bound.

use crate::codec::{write_trace, TraceHeader, FORMAT_VERSION};
use crate::event::{Event, EventKind};
use std::path::Path;

/// A stored event: the sequence number is *not* materialised — it is
/// always `seq - len + index` for the index-th oldest held event, so
/// storing it would only widen every slot on the hot path.
#[derive(Debug, Clone)]
struct Stored {
    time: u64,
    kind: EventKind,
}

/// Collects sim-time-stamped events into a bounded ring buffer.
///
/// Implemented as a `Vec` plus a wrap cursor rather than a `VecDeque`:
/// recording is on the simulator's hot path, and overwrite-in-place is
/// measurably cheaper than pop-front/push-back.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    buf: Vec<Stored>,
    /// Index of the oldest event once the buffer has wrapped.
    head: usize,
    /// Events discarded by [`Tracer::clear`] (sequence numbers keep
    /// counting across clears, but these are not eviction losses).
    cleared: u64,
    dropped_oldest: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A tracer that records nothing (near-zero overhead).
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            capacity: 0,
            buf: Vec::new(),
            head: 0,
            cleared: 0,
            dropped_oldest: 0,
        }
    }

    /// A tracer that keeps the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`; use [`Tracer::disabled`] for that.
    pub fn bounded(capacity: usize) -> Self {
        assert!(capacity > 0, "use Tracer::disabled() for capacity 0");
        Tracer {
            enabled: true,
            capacity,
            // One small up-front block: avoids both the realloc chain of
            // growing from empty and the cost of eagerly allocating a
            // huge window for short-lived worlds (one per trial).
            buf: Vec::with_capacity(capacity.min(256)),
            head: 0,
            cleared: 0,
            dropped_oldest: 0,
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Pre-sizes the buffer for an expected event count (clamped to the
    /// ring capacity). [`Tracer::bounded`] deliberately starts small so
    /// short-lived worlds stay cheap; callers that know a run will emit
    /// thousands of events can skip the growth-realloc chain up front.
    pub fn reserve_events(&mut self, expected: usize) {
        let target = expected.min(self.capacity);
        if self.buf.capacity() < target {
            self.buf.reserve_exact(target - self.buf.len());
        }
    }

    /// Records one event at the given sim time. A no-op when disabled.
    ///
    /// The global sequence number is *derived* as
    /// `cleared + dropped_oldest + index`, not counted here — the fast
    /// path is one branch plus a push into the pre-sized buffer, and the
    /// wrap path is kept out of line so the common case stays small
    /// enough to inline everywhere.
    #[inline(always)]
    pub fn record(&mut self, time: u64, kind: EventKind) {
        if !self.enabled {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(Stored { time, kind });
        } else {
            self.record_wrapping(time, kind);
        }
    }

    /// The ring-buffer eviction path, cold by construction: it only runs
    /// once per event *after* the window has filled.
    #[cold]
    fn record_wrapping(&mut self, time: u64, kind: EventKind) {
        self.buf[self.head] = Stored { time, kind };
        self.head += 1;
        if self.head == self.capacity {
            self.head = 0;
        }
        self.dropped_oldest += 1;
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The sequence number the next recorded event will get.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.cleared + self.dropped_oldest + self.buf.len() as u64
    }

    /// Events evicted to keep the buffer within capacity.
    pub fn dropped_oldest(&self) -> u64 {
        self.dropped_oldest
    }

    /// The held events, oldest first, with their global sequence numbers
    /// reattached.
    pub fn events(&self) -> impl Iterator<Item = Event> + '_ {
        let base = self.cleared + self.dropped_oldest;
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
            .enumerate()
            .map(move |(i, st)| Event {
                time: st.time,
                seq: base + i as u64,
                kind: st.kind.clone(),
            })
    }

    /// Discards all held events (sequence numbers keep counting up).
    pub fn clear(&mut self) {
        self.cleared += self.buf.len() as u64;
        self.buf.clear();
        self.head = 0;
    }

    /// The versioned header describing this export (format version plus
    /// collection counters), written as the first JSONL line so readers
    /// know whether the window is complete.
    fn header(&self) -> TraceHeader {
        TraceHeader {
            version: FORMAT_VERSION,
            events: self.buf.len() as u64,
            dropped_oldest: self.dropped_oldest,
        }
    }

    /// Renders a versioned [`TraceHeader`] line followed by the held
    /// events as JSONL — the round-trippable export format that
    /// [`crate::codec::read_trace`] ingests.
    pub fn export_jsonl(&self) -> String {
        let mut out = Vec::new();
        write_trace(&self.header(), self.events(), &mut out).expect("a Vec takes every write");
        String::from_utf8(out).expect("JSONL is UTF-8")
    }

    /// Writes the headered export (see [`Tracer::export_jsonl`]) to a file.
    pub fn write_jsonl(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_trace(
            &self.header(),
            self.events(),
            &mut std::fs::File::create(path)?,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::DropCause;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        t.record(1, EventKind::PartitionHealed);
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn records_in_order_with_monotone_seq() {
        let mut t = Tracer::bounded(16);
        t.record(5, EventKind::NodeCrashed { node: 1 });
        t.record(5, EventKind::NodeRecovered { node: 1 });
        t.record(9, EventKind::PartitionHealed);
        let seqs: Vec<u64> = t.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        let times: Vec<u64> = t.events().map(|e| e.time).collect();
        assert_eq!(times, vec![5, 5, 9]);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut t = Tracer::bounded(3);
        for i in 0..5 {
            t.record(
                i,
                EventKind::TimerFired {
                    node: 0,
                    token: i,
                    origin: crate::event::Origin::NONE,
                },
            );
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped_oldest(), 2);
        let times: Vec<u64> = t.events().map(|e| e.time).collect();
        assert_eq!(times, vec![2, 3, 4]);
        // Sequence numbers are global, not buffer-relative.
        assert_eq!(t.events().next().unwrap().seq, 2);
        assert_eq!(t.next_seq(), 5);
    }

    #[test]
    fn jsonl_has_one_line_per_event() {
        let mut t = Tracer::bounded(8);
        t.record(
            1,
            EventKind::MessageDropped {
                src: 0,
                dst: 1,
                cause: DropCause::Loss,
                msg_id: 0,
                origin: crate::event::Origin::NONE,
            },
        );
        t.record(2, EventKind::PartitionHealed);
        let jsonl = t.export_jsonl();
        let lines: Vec<&str> = jsonl.lines().skip(1).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"t\":1,"));
        assert!(lines[1].contains("\"kind\":\"partition_healed\""));
    }

    #[test]
    fn write_jsonl_round_trips_through_a_file() {
        let mut t = Tracer::bounded(4);
        t.record(3, EventKind::NodeCrashed { node: 2 });
        let dir = std::env::temp_dir();
        let path = dir.join("relax_trace_tracer_test.jsonl");
        t.write_jsonl(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, t.export_jsonl());
        let parsed = crate::codec::read_trace(&back).unwrap();
        assert_eq!(parsed.header, Some(t.header()));
        assert_eq!(parsed.events.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn export_jsonl_leads_with_a_versioned_header() {
        let mut t = Tracer::bounded(2);
        for i in 0..3 {
            t.record(i, EventKind::PartitionHealed);
        }
        let first = t.export_jsonl().lines().next().unwrap().to_string();
        assert!(first.contains("\"kind\":\"trace_header\""), "{first}");
        assert!(first.contains("\"version\":4"), "{first}");
        assert!(first.contains("\"events\":2"), "{first}");
        assert!(first.contains("\"dropped_oldest\":1"), "{first}");
    }

    #[test]
    fn clear_keeps_counting_seq() {
        let mut t = Tracer::bounded(4);
        t.record(1, EventKind::PartitionHealed);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.next_seq(), 1);
        t.record(2, EventKind::PartitionHealed);
        assert_eq!(t.events().next().unwrap().seq, 1);
    }
}
