//! JSONL round-trip: re-ingesting exported traces.
//!
//! The write half lives on [`Event::to_json`](crate::event::Event::to_json)
//! and [`Tracer::export_jsonl`](crate::tracer::Tracer::export_jsonl); this
//! module is the read half. An exported trace is a [`TraceHeader`] line
//! (`{"kind":"trace_header","version":2,…}`) followed by one flat JSON
//! object per event. [`read_trace`] parses either form — headered exports
//! or bare event streams (version-1 traces predate the header) — back
//! into typed [`Event`]s, so any trace a binary wrote can be analyzed by
//! `trace_analyze`, the causality layer, or tests.
//!
//! The parser is a small hand-rolled JSON reader covering exactly the
//! shapes the schema emits (flat objects; arrays only under `groups` and
//! `left`; `null` only under `now`): the workspace builds offline with no
//! external dependencies.

use crate::event::{DropCause, Event, EventKind, OpLabel, OpOutcome, PartitionGroups, QuorumPhase};
use crate::monitor::LevelTransition;
use crate::staleness::SloViolation;

/// The trace format version this crate writes and the newest it reads.
/// Older versions stay readable: version 2 added the gray-failure /
/// asymmetric-partition / duplication fault events and the staleness
/// telemetry events; version 3 added the profiling events
/// (`profile_span_enter`/`exit`, `profile_counter`, `profile_gauge`).
/// Both are strict additions to the version-1 schema.
pub const FORMAT_VERSION: u32 = 3;

/// The first line of an exported trace: format version plus collection
/// counters, so a reader knows whether the window is complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Format version (see [`FORMAT_VERSION`]).
    pub version: u32,
    /// Number of event lines that follow.
    pub events: u64,
    /// Events the bounded ring buffer evicted before export; nonzero
    /// means the trace is a suffix window, not the full run.
    pub dropped_oldest: u64,
}

impl TraceHeader {
    /// Renders the header as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"trace_header\",\"version\":{},\"events\":{},\"dropped_oldest\":{}}}",
            self.version, self.events, self.dropped_oldest
        )
    }
}

/// A re-ingested trace: the header (if the stream had one) and the events.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTrace {
    /// The header line, when present.
    pub header: Option<TraceHeader>,
    /// The events, in stream order.
    pub events: Vec<Event>,
}

/// Why a trace line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

// ---------------------------------------------------------------------------
// Minimal JSON reader (only the shapes the schema emits)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum JVal {
    Int(u64),
    /// A negative integer, parsed exactly (gauge samples are `i64`).
    Neg(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Null,
    Arr(Vec<JVal>),
    /// A nested object (only under report arrays like `campaigns`).
    Obj(Vec<(String, JVal)>),
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(s: &'a str) -> Self {
        Reader {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn fail<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t'))
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected '{}'", b as char))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    /// Parses one `{"key":value,…}` object into key/value pairs.
    fn object(&mut self) -> Result<Vec<(String, JVal)>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(fields);
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(fields);
                }
                _ => return self.fail("expected ',' or '}'"),
            }
        }
    }

    fn value(&mut self) -> Result<JVal, String> {
        match self.peek() {
            Some(b'"') => Ok(JVal::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object().map(JVal::Obj),
            Some(b'n') => self.keyword("null", JVal::Null),
            Some(b't') => self.keyword("true", JVal::Bool(true)),
            Some(b'f') => self.keyword("false", JVal::Bool(false)),
            Some(b'0'..=b'9' | b'-') => self.number(),
            _ => self.fail("expected a JSON value"),
        }
    }

    fn keyword(&mut self, word: &str, val: JVal) -> Result<JVal, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            self.fail(&format!("expected '{word}'"))
        }
    }

    fn array(&mut self) -> Result<JVal, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JVal::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JVal::Arr(items));
                }
                _ => return self.fail("expected ',' or ']'"),
            }
        }
    }

    fn number(&mut self) -> Result<JVal, String> {
        let start = self.pos;
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-UTF-8 number".to_string())?;
        if float {
            text.parse::<f64>()
                .map(JVal::Float)
                .map_err(|e| format!("bad float {text:?}: {e}"))
        } else if text.starts_with('-') {
            // Negative integers parse exactly too (i64 gauge samples).
            text.parse::<i64>()
                .map(JVal::Neg)
                .map_err(|e| format!("bad integer {text:?}: {e}"))
        } else {
            // Integers parse exactly (f64 would lose precision past 2^53).
            text.parse::<u64>()
                .map(JVal::Int)
                .map_err(|e| format!("bad integer {text:?}: {e}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| "non-UTF-8 \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return self.fail("unknown escape"),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: take the whole scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "non-UTF-8 string".to_string())?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Field access helpers
// ---------------------------------------------------------------------------

struct Fields(Vec<(String, JVal)>);

impl Fields {
    fn get(&self, key: &str) -> Result<&JVal, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        match self.get(key)? {
            JVal::Int(n) => Ok(*n),
            other => Err(format!("field {key:?}: expected integer, got {other:?}")),
        }
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.u64(key)?).map_err(|_| format!("field {key:?} overflows u32"))
    }

    fn i64(&self, key: &str) -> Result<i64, String> {
        match self.get(key)? {
            JVal::Int(n) => i64::try_from(*n).map_err(|_| format!("field {key:?} overflows i64")),
            JVal::Neg(n) => Ok(*n),
            other => Err(format!("field {key:?}: expected integer, got {other:?}")),
        }
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        match self.get(key)? {
            JVal::Float(x) => Ok(*x),
            JVal::Int(n) => Ok(*n as f64),
            JVal::Neg(n) => Ok(*n as f64),
            other => Err(format!("field {key:?}: expected number, got {other:?}")),
        }
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key)? {
            JVal::Str(s) => Ok(s),
            other => Err(format!("field {key:?}: expected string, got {other:?}")),
        }
    }
}

fn parse_drop_cause(s: &str) -> Result<DropCause, String> {
    match s {
        "source_down" => Ok(DropCause::SourceDown),
        "dest_down" => Ok(DropCause::DestDown),
        "partitioned" => Ok(DropCause::Partitioned),
        "loss" => Ok(DropCause::Loss),
        "link_blocked" => Ok(DropCause::LinkBlocked),
        other => Err(format!("unknown drop cause {other:?}")),
    }
}

fn parse_outcome(s: &str) -> Result<OpOutcome, String> {
    match s {
        "completed" => Ok(OpOutcome::Completed),
        "refused" => Ok(OpOutcome::Refused),
        "timed_out" => Ok(OpOutcome::TimedOut),
        other => Err(format!("unknown outcome {other:?}")),
    }
}

fn parse_phase(s: &str) -> Result<QuorumPhase, String> {
    match s {
        "read" => Ok(QuorumPhase::Read),
        "write" => Ok(QuorumPhase::Write),
        other => Err(format!("unknown quorum phase {other:?}")),
    }
}

fn parse_kind(tag: &str, f: &Fields) -> Result<EventKind, String> {
    Ok(match tag {
        "message_sent" => EventKind::MessageSent {
            src: f.u32("src")?,
            dst: f.u32("dst")?,
            deliver_at: f.u64("deliver_at")?,
            msg_id: f.u32("msg_id")?,
        },
        "message_injected" => EventKind::MessageInjected {
            dst: f.u32("dst")?,
            deliver_at: f.u64("deliver_at")?,
            msg_id: f.u32("msg_id")?,
        },
        "message_delivered" => EventKind::MessageDelivered {
            node: f.u32("node")?,
            msg_id: f.u32("msg_id")?,
        },
        "message_dropped" => EventKind::MessageDropped {
            src: f.u32("src")?,
            dst: f.u32("dst")?,
            cause: parse_drop_cause(f.str("cause")?)?,
            msg_id: f.u32("msg_id")?,
        },
        "timer_set" => EventKind::TimerSet {
            node: f.u32("node")?,
            token: f.u64("token")?,
            fire_at: f.u64("fire_at")?,
        },
        "timer_fired" => EventKind::TimerFired {
            node: f.u32("node")?,
            token: f.u64("token")?,
        },
        "node_crashed" => EventKind::NodeCrashed {
            node: f.u32("node")?,
        },
        "node_recovered" => EventKind::NodeRecovered {
            node: f.u32("node")?,
        },
        "partition_set" => {
            let JVal::Arr(groups) = f.get("groups")? else {
                return Err("field \"groups\": expected array".into());
            };
            let mut parsed: Vec<Vec<u32>> = Vec::with_capacity(groups.len());
            for g in groups {
                let JVal::Arr(ids) = g else {
                    return Err("partition group: expected array".into());
                };
                let mut out = Vec::with_capacity(ids.len());
                for id in ids {
                    match id {
                        JVal::Int(n) => out.push(
                            u32::try_from(*n).map_err(|_| "node id overflows u32".to_string())?,
                        ),
                        other => return Err(format!("node id: expected integer, got {other:?}")),
                    }
                }
                parsed.push(out);
            }
            EventKind::PartitionSet {
                groups: PartitionGroups::new(parsed),
            }
        }
        "partition_healed" => EventKind::PartitionHealed,
        "loss_rate_set" => EventKind::LossRateSet {
            probability: f.f64("probability")?,
        },
        "op_begin" => {
            let mut op = OpLabel::default();
            op.push_str(f.str("op")?);
            EventKind::OpBegin {
                node: f.u32("node")?,
                op_id: f.u32("op_id")?,
                op,
            }
        }
        "op_end" => EventKind::OpEnd {
            node: f.u32("node")?,
            op_id: f.u32("op_id")?,
            outcome: parse_outcome(f.str("outcome")?)?,
            latency: f.u64("latency")?,
        },
        "quorum_assembled" => EventKind::QuorumAssembled {
            node: f.u32("node")?,
            op_id: f.u32("op_id")?,
            phase: parse_phase(f.str("phase")?)?,
            size: f.u32("size")?,
        },
        "quorum_failed" => EventKind::QuorumFailed {
            node: f.u32("node")?,
            op_id: f.u32("op_id")?,
            phase: parse_phase(f.str("phase")?)?,
            responses: f.u32("responses")?,
            needed: f.u32("needed")?,
        },
        "view_merged" => EventKind::ViewMerged {
            node: f.u32("node")?,
            op_id: f.u32("op_id")?,
            merged_len: f.u32("merged_len")?,
        },
        "level_transition" => {
            let JVal::Arr(left) = f.get("left")? else {
                return Err("field \"left\": expected array".into());
            };
            let mut names = Vec::with_capacity(left.len());
            for l in left {
                match l {
                    JVal::Str(s) => names.push(s.clone()),
                    other => return Err(format!("level name: expected string, got {other:?}")),
                }
            }
            let now = match f.get("now")? {
                JVal::Str(s) => Some(s.clone()),
                JVal::Null => None,
                other => {
                    return Err(format!(
                        "field \"now\": expected string|null, got {other:?}"
                    ))
                }
            };
            EventKind::LevelTransition(Box::new(LevelTransition {
                left: names,
                now,
                witness: f.str("witness")?.to_string(),
                op_index: usize::try_from(f.u64("op_index")?)
                    .map_err(|_| "op_index overflows usize".to_string())?,
            }))
        }
        "gray_degraded" => EventKind::GrayDegraded {
            node: f.u32("node")?,
            multiplier: f.u32("multiplier")?,
        },
        "gray_restored" => EventKind::GrayRestored {
            node: f.u32("node")?,
        },
        "link_blocked" => EventKind::LinkBlocked {
            src: f.u32("src")?,
            dst: f.u32("dst")?,
        },
        "link_restored" => EventKind::LinkRestored {
            src: f.u32("src")?,
            dst: f.u32("dst")?,
        },
        "duplication_rate_set" => EventKind::DuplicationRateSet {
            probability: f.f64("probability")?,
        },
        "message_duplicated" => EventKind::MessageDuplicated {
            src: f.u32("src")?,
            dst: f.u32("dst")?,
            msg_id: f.u32("msg_id")?,
            orig_msg_id: f.u32("orig_msg_id")?,
        },
        "replica_lag_sampled" => EventKind::ReplicaLagSampled {
            site: f.u32("site")?,
            entries_behind: f.u64("entries_behind")?,
            time_behind: f.u64("time_behind")?,
        },
        "frontier_divergence" => EventKind::FrontierDivergence {
            a: f.u32("a")?,
            b: f.u32("b")?,
            entries: f.u64("entries")?,
        },
        "slo_budget_exhausted" => EventKind::SloBudgetExhausted(Box::new(SloViolation {
            level: f.str("level")?.to_string(),
            budget: f.u64("budget")?,
            spent: f.u64("spent")?,
        })),
        "profile_span_enter" => EventKind::ProfileSpanEnter {
            name: parse_label(f.str("name")?),
            wall_ns: f.u64("wall_ns")?,
        },
        "profile_span_exit" => EventKind::ProfileSpanExit {
            name: parse_label(f.str("name")?),
            wall_ns: f.u64("wall_ns")?,
        },
        "profile_counter" => EventKind::ProfileCounter {
            name: parse_label(f.str("name")?),
            total: f.u64("total")?,
        },
        "profile_gauge" => EventKind::ProfileGauge {
            name: parse_label(f.str("name")?),
            value: f.i64("value")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    })
}

fn parse_label(s: &str) -> OpLabel {
    let mut label = OpLabel::default();
    label.push_str(s);
    label
}

/// Parses one event line (as produced by
/// [`Event::to_json`](crate::event::Event::to_json)).
pub fn parse_event(line: &str) -> Result<Event, String> {
    let fields = Fields(Reader::new(line).object()?);
    let kind = parse_kind(fields.str("kind")?, &fields)?;
    Ok(Event {
        time: fields.u64("t")?,
        seq: fields.u64("seq")?,
        kind,
    })
}

/// Parses a header line; `Ok(None)` when the line is not a header.
fn parse_header(line: &str) -> Result<Option<TraceHeader>, String> {
    let fields = Fields(Reader::new(line).object()?);
    if fields.str("kind")? != "trace_header" {
        return Ok(None);
    }
    Ok(Some(TraceHeader {
        version: fields.u32("version")?,
        events: fields.u64("events")?,
        dropped_oldest: fields.u64("dropped_oldest")?,
    }))
}

/// Re-ingests an exported JSONL trace: an optional [`TraceHeader`] first
/// line followed by one event per line. Blank lines are skipped. Fails
/// on malformed lines and on headers from a future format version.
pub fn read_trace(input: &str) -> Result<ParsedTrace, TraceParseError> {
    let mut header = None;
    let mut events = Vec::new();
    for (ix, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |message: String| TraceParseError {
            line: ix + 1,
            message,
        };
        // Only line 1 may be a header; a headerless stream (pre-header
        // export) falls through to event parsing.
        if ix == 0 {
            if let Some(h) = parse_header(line).map_err(err)? {
                if h.version > FORMAT_VERSION {
                    return Err(TraceParseError {
                        line: ix + 1,
                        message: format!(
                            "trace format version {} is newer than supported ({})",
                            h.version, FORMAT_VERSION
                        ),
                    });
                }
                header = Some(h);
                continue;
            }
        }
        events.push(parse_event(line).map_err(err)?);
    }
    Ok(ParsedTrace { header, events })
}

// ---------------------------------------------------------------------------
// Flat report documents (BENCH_*.json gate files)
// ---------------------------------------------------------------------------

/// A top-level field of a flat JSON report document, as surfaced by
/// [`report_fields`]. Gate metrics are numbers and booleans; nested
/// arrays/objects (per-row detail) are marked but not traversed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportValue {
    /// A numeric field (integers are widened to `f64`).
    Number(f64),
    /// A boolean field (e.g. `within_target`).
    Bool(bool),
    /// A string field (e.g. `bench`, `workload`).
    Text(String),
    /// An array or object field, present but not flattened.
    Nested,
}

/// Parses one flat JSON document — the shape every `BENCH_*.json` gate
/// file uses — into its top-level fields, in document order. The
/// regression checker (`relax-bench regress`) diffs these against
/// committed baselines; reusing the trace codec's reader keeps the
/// workspace dependency-free.
pub fn report_fields(input: &str) -> Result<Vec<(String, ReportValue)>, String> {
    let fields = Reader::new(input.trim()).object()?;
    Ok(fields
        .into_iter()
        .map(|(k, v)| {
            let v = match v {
                JVal::Int(n) => ReportValue::Number(n as f64),
                JVal::Neg(n) => ReportValue::Number(n as f64),
                JVal::Float(x) => ReportValue::Number(x),
                JVal::Bool(b) => ReportValue::Bool(b),
                JVal::Str(s) => ReportValue::Text(s),
                JVal::Null | JVal::Arr(_) | JVal::Obj(_) => ReportValue::Nested,
            };
            (k, v)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(e: Event) {
        let json = e.to_json();
        let back = parse_event(&json).unwrap_or_else(|err| panic!("{json}: {err}"));
        assert_eq!(back, e, "round-trip of {json}");
    }

    #[test]
    fn every_event_kind_round_trips() {
        let mut op = OpLabel::default();
        op.push_str("Enq(5)");
        let kinds = vec![
            EventKind::MessageSent {
                src: 0,
                dst: 3,
                deliver_at: 55,
                msg_id: 9,
            },
            EventKind::MessageInjected {
                dst: 1,
                deliver_at: 2,
                msg_id: 3,
            },
            EventKind::MessageDelivered { node: 2, msg_id: 9 },
            EventKind::MessageDropped {
                src: 1,
                dst: 0,
                cause: DropCause::Partitioned,
                msg_id: 10,
            },
            EventKind::TimerSet {
                node: 4,
                token: 17,
                fire_at: 300,
            },
            EventKind::TimerFired { node: 4, token: 17 },
            EventKind::NodeCrashed { node: 1 },
            EventKind::NodeRecovered { node: 1 },
            EventKind::PartitionSet {
                groups: PartitionGroups::new(vec![vec![3, 0], vec![1, 2]]),
            },
            EventKind::PartitionHealed,
            EventKind::LossRateSet { probability: 0.25 },
            EventKind::OpBegin {
                node: 3,
                op_id: 2,
                op,
            },
            EventKind::OpEnd {
                node: 3,
                op_id: 2,
                outcome: OpOutcome::TimedOut,
                latency: 200,
            },
            EventKind::QuorumAssembled {
                node: 3,
                op_id: 2,
                phase: QuorumPhase::Read,
                size: 2,
            },
            EventKind::QuorumFailed {
                node: 3,
                op_id: 2,
                phase: QuorumPhase::Write,
                responses: 1,
                needed: 3,
            },
            EventKind::ViewMerged {
                node: 3,
                op_id: 2,
                merged_len: 7,
            },
            EventKind::LevelTransition(Box::new(LevelTransition {
                left: vec!["PQ".into(), "OPQ".into()],
                now: Some("MPQ".into()),
                witness: "Deq(5)".into(),
                op_index: 2,
            })),
            EventKind::GrayDegraded {
                node: 2,
                multiplier: 10,
            },
            EventKind::GrayRestored { node: 2 },
            EventKind::LinkBlocked { src: 9, dst: 0 },
            EventKind::LinkRestored { src: 9, dst: 0 },
            EventKind::DuplicationRateSet { probability: 0.5 },
            EventKind::MessageDuplicated {
                src: 9,
                dst: 1,
                msg_id: 12,
                orig_msg_id: 11,
            },
            EventKind::ReplicaLagSampled {
                site: 1,
                entries_behind: 4,
                time_behind: 120,
            },
            EventKind::FrontierDivergence {
                a: 0,
                b: 2,
                entries: 3,
            },
            EventKind::SloBudgetExhausted(Box::new(crate::staleness::SloViolation {
                level: "PQ".into(),
                budget: 50,
                spent: 61,
            })),
            EventKind::ProfileSpanEnter {
                name: parse_label("multiwalk"),
                wall_ns: 12_345,
            },
            EventKind::ProfileSpanExit {
                name: parse_label("multiwalk"),
                wall_ns: 99_999,
            },
            EventKind::ProfileCounter {
                name: parse_label("row_hits"),
                total: u64::MAX,
            },
            EventKind::ProfileGauge {
                name: parse_label("frontier_nodes"),
                value: -42,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            round_trip(Event {
                time: 10 * i as u64,
                seq: i as u64,
                kind,
            });
        }
    }

    #[test]
    fn escaped_witness_round_trips() {
        round_trip(Event {
            time: 1,
            seq: 0,
            kind: EventKind::LevelTransition(Box::new(LevelTransition {
                left: vec!["a\"b\\c".into()],
                now: None,
                witness: "line\nbreak\tand \u{1} ctrl".into(),
                op_index: 0,
            })),
        });
    }

    #[test]
    fn header_round_trips_and_gates_versions() {
        let h = TraceHeader {
            version: FORMAT_VERSION,
            events: 2,
            dropped_oldest: 5,
        };
        let body = format!(
            "{}\n{}\n{}\n",
            h.to_json(),
            Event {
                time: 1,
                seq: 0,
                kind: EventKind::PartitionHealed
            }
            .to_json(),
            Event {
                time: 2,
                seq: 1,
                kind: EventKind::NodeCrashed { node: 0 }
            }
            .to_json(),
        );
        let parsed = read_trace(&body).unwrap();
        assert_eq!(parsed.header, Some(h));
        assert_eq!(parsed.events.len(), 2);

        let future = "{\"kind\":\"trace_header\",\"version\":99,\"events\":0,\"dropped_oldest\":0}";
        let err = read_trace(future).unwrap_err();
        assert!(err.message.contains("newer than supported"), "{err}");
    }

    #[test]
    fn headerless_streams_still_parse() {
        let body = "{\"t\":5,\"seq\":0,\"kind\":\"node_crashed\",\"node\":2}\n";
        let parsed = read_trace(body).unwrap();
        assert_eq!(parsed.header, None);
        assert_eq!(parsed.events[0].kind, EventKind::NodeCrashed { node: 2 },);
    }

    /// Property-style round-trip over randomized events (hand-rolled
    /// SplitMix64 generator — the workspace builds with no external
    /// crates, so this plays the role a proptest dependency would).
    #[test]
    fn randomized_events_round_trip() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        for trial in 0..500u64 {
            let a = next();
            let b = next();
            let c = next();
            let kind = match trial % 14 {
                0 => EventKind::GrayDegraded {
                    node: a as u32 % 64,
                    multiplier: 1 + b as u32 % 100,
                },
                1 => EventKind::GrayRestored {
                    node: a as u32 % 64,
                },
                2 => EventKind::LinkBlocked {
                    src: a as u32 % 64,
                    dst: b as u32 % 64,
                },
                3 => EventKind::LinkRestored {
                    src: a as u32 % 64,
                    dst: b as u32 % 64,
                },
                4 => EventKind::DuplicationRateSet {
                    // Dyadic rationals render and re-parse exactly.
                    probability: (a % 1024) as f64 / 1024.0,
                },
                5 => EventKind::MessageDuplicated {
                    src: a as u32 % 64,
                    dst: b as u32 % 64,
                    msg_id: c as u32,
                    orig_msg_id: c as u32 ^ 1,
                },
                6 => EventKind::ReplicaLagSampled {
                    site: a as u32 % 64,
                    entries_behind: b >> 8,
                    time_behind: c >> 8,
                },
                7 => EventKind::FrontierDivergence {
                    a: a as u32 % 64,
                    b: b as u32 % 64,
                    entries: c >> 8,
                },
                8 => EventKind::SloBudgetExhausted(Box::new(crate::staleness::SloViolation {
                    level: format!("L{}", a % 7),
                    budget: b >> 8,
                    spent: c >> 8,
                })),
                9 => EventKind::ProfileSpanEnter {
                    name: parse_label(["multiwalk", "depth", "theorem4"][(a % 3) as usize]),
                    wall_ns: b,
                },
                10 => EventKind::ProfileSpanExit {
                    name: parse_label(["multiwalk", "depth", "theorem4"][(a % 3) as usize]),
                    wall_ns: b,
                },
                11 => EventKind::ProfileCounter {
                    name: parse_label("row_hits"),
                    total: b,
                },
                12 => EventKind::ProfileGauge {
                    // Signed: negative samples must survive the codec.
                    name: parse_label("frontier_nodes"),
                    value: b as i64,
                },
                _ => EventKind::MessageDropped {
                    src: a as u32 % 64,
                    dst: b as u32 % 64,
                    cause: match c % 5 {
                        0 => DropCause::SourceDown,
                        1 => DropCause::DestDown,
                        2 => DropCause::Partitioned,
                        3 => DropCause::Loss,
                        _ => DropCause::LinkBlocked,
                    },
                    msg_id: c as u32,
                },
            };
            round_trip(Event {
                time: a >> 8,
                seq: trial,
                kind,
            });
        }
    }

    /// A version-2 trace (captured before the version-3 profiling
    /// events) must keep parsing byte-for-byte: version 3 is a strict
    /// superset.
    #[test]
    fn version_2_traces_still_ingest() {
        let v2 = "\
{\"kind\":\"trace_header\",\"version\":2,\"events\":3,\"dropped_oldest\":0}
{\"t\":0,\"seq\":0,\"kind\":\"gray_degraded\",\"node\":2,\"multiplier\":10}
{\"t\":4,\"seq\":1,\"kind\":\"replica_lag_sampled\",\"site\":1,\"entries_behind\":4,\"time_behind\":120}
{\"t\":9,\"seq\":2,\"kind\":\"slo_budget_exhausted\",\"level\":\"PQ\",\"budget\":50,\"spent\":61}
";
        let parsed = read_trace(v2).unwrap();
        assert_eq!(parsed.header.as_ref().unwrap().version, 2);
        assert_eq!(parsed.events.len(), 3);
        assert!(matches!(
            parsed.events[1].kind,
            EventKind::ReplicaLagSampled { site: 1, .. }
        ));
    }

    #[test]
    fn report_fields_surface_gate_metrics() {
        let doc = "{\"bench\":\"profile_overhead\",\"reps\":51,\
                   \"campaigns\":[{\"name\":\"gray\",\"ok\":true}],\
                   \"overhead_pct\":-1.25,\"target_pct\":5.0,\
                   \"within_target\":true}\n";
        let fields = report_fields(doc).unwrap();
        let get = |k: &str| fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
        assert_eq!(
            get("bench"),
            Some(ReportValue::Text("profile_overhead".into()))
        );
        assert_eq!(get("reps"), Some(ReportValue::Number(51.0)));
        assert_eq!(get("overhead_pct"), Some(ReportValue::Number(-1.25)));
        assert_eq!(get("target_pct"), Some(ReportValue::Number(5.0)));
        assert_eq!(get("within_target"), Some(ReportValue::Bool(true)));
        assert_eq!(get("campaigns"), Some(ReportValue::Nested));
    }

    /// A version-1 trace (captured before the version-2 event additions)
    /// must keep parsing byte-for-byte: later versions are strict
    /// supersets.
    #[test]
    fn version_1_traces_still_ingest() {
        let v1 = "\
{\"kind\":\"trace_header\",\"version\":1,\"events\":4,\"dropped_oldest\":0}
{\"t\":0,\"seq\":0,\"kind\":\"partition_set\",\"groups\":[[9,0],[1,2]]}
{\"t\":5,\"seq\":1,\"kind\":\"message_dropped\",\"src\":9,\"dst\":1,\"cause\":\"partitioned\",\"msg_id\":0}
{\"t\":9,\"seq\":2,\"kind\":\"op_end\",\"node\":9,\"op_id\":1,\"outcome\":\"completed\",\"latency\":9}
{\"t\":9,\"seq\":3,\"kind\":\"level_transition\",\"op_index\":0,\"left\":[\"PQ\"],\"now\":\"MPQ\",\"witness\":\"Deq(5)\"}
";
        let parsed = read_trace(v1).unwrap();
        assert_eq!(parsed.header.as_ref().unwrap().version, 1);
        assert_eq!(parsed.events.len(), 4);
        assert!(matches!(
            parsed.events[1].kind,
            EventKind::MessageDropped {
                cause: DropCause::Partitioned,
                ..
            }
        ));
        // And the analysis stack still consumes it end to end.
        let analysis = crate::analyze::TraceAnalysis::from_trace(parsed);
        assert_eq!(analysis.root_causes().len(), 1);
        assert_eq!(analysis.root_causes()[0].fault_cut, vec![0]);
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        let body = "{\"t\":5,\"seq\":0,\"kind\":\"node_crashed\",\"node\":2}\nnot json\n";
        let err = read_trace(body).unwrap_err();
        assert_eq!(err.line, 2);
        let err = read_trace("{\"t\":1,\"seq\":0,\"kind\":\"mystery\"}").unwrap_err();
        assert!(err.message.contains("unknown event kind"), "{err}");
    }
}
