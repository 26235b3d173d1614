//! The JSONL trace format: one exporter, one reader, and how each field
//! *type* is written and read back.
//!
//! An exported trace is a [`TraceHeader`] line
//! (`{"kind":"trace_header","version":4,…}`) followed by one flat JSON
//! object per event, `{"t":…,"seq":…,"kind":…,…}`. Which fields a kind
//! carries is declared once, by the event table in [`crate::event`]; this
//! module's `Field` trait says once per field type (`u32`, `String`,
//! `Option<T>`, …) how a value renders and how it parses, so a field that
//! can be written can be read by construction. `write_trace` is the only
//! exporter (the tracer and the profiling probe both call it) and
//! [`read_trace`] the only ingester: headered exports or bare event
//! streams (version-1 traces predate the header) come back as typed
//! [`Event`]s for `trace_analyze`, the causality layer, or tests.
//!
//! The parser is a small hand-rolled JSON reader covering exactly the
//! shapes the schema emits (flat objects; arrays only under `groups` and
//! `left`; `null` only under `now`): the workspace builds offline with no
//! external dependencies.

use std::borrow::Cow;
use std::fmt::Write as _;

use std::collections::HashMap;

use crate::event::{Event, EventKind, OpLabel, Origin, PartitionGroups};

/// The trace format version this crate writes and the newest it reads.
/// Version 2 added the gray-failure / asymmetric-partition / duplication
/// fault events and the staleness telemetry events; version 3 the
/// profiling events; version 4 writes one record per dispatch, with no
/// `message_sent`, `message_injected`, `timer_set` or `view_merged`
/// ([`read_trace`] folds older streams into it). Adding a kind or a
/// field bumps it.
pub const FORMAT_VERSION: u32 = 4;

/// The header line's `kind`.
const HEADER_TAG: &str = "trace_header";

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
// Writing
// ---------------------------------------------------------------------------

/// Appends `s` as a JSON string literal, quotes included.
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Event {
    /// Appends the event as one flat JSON object (no trailing newline).
    pub fn write_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"t\":{},\"seq\":{},\"kind\":\"{}\"",
            self.time,
            self.seq,
            self.kind.tag()
        );
        self.kind.write_fields(out);
        out.push('}');
    }
}

/// The exporter: the header line, then one line per event, handed to
/// `sink` in large blocks (so a `File` needs no `BufWriter` around it).
pub(crate) fn write_trace(
    header: &TraceHeader,
    events: impl Iterator<Item = Event>,
    sink: &mut impl std::io::Write,
) -> std::io::Result<()> {
    const BLOCK: usize = 1 << 16;
    let mut buf = String::with_capacity(BLOCK + 512);
    let _ = writeln!(
        buf,
        "{{\"kind\":\"{HEADER_TAG}\",\"version\":{},\"events\":{},\"dropped_oldest\":{}}}",
        header.version, header.events, header.dropped_oldest
    );
    for e in events {
        e.write_json(&mut buf);
        buf.push('\n');
        if buf.len() >= BLOCK {
            sink.write_all(buf.as_bytes())?;
            buf.clear();
        }
    }
    sink.write_all(buf.as_bytes())
}

// ---------------------------------------------------------------------------
// Minimal JSON reader (only the shapes the schema emits)
// ---------------------------------------------------------------------------

/// A parsed JSON value. Strings borrow from the input line unless they
/// held an escape.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JVal<'a> {
    Int(u64),
    /// A negative integer, parsed exactly (gauge samples are `i64`).
    Neg(i64),
    Float(f64),
    Str(Cow<'a, str>),
    Bool(bool),
    Null,
    Arr(Vec<JVal<'a>>),
    /// A nested object.
    Obj(Vec<(Cow<'a, str>, JVal<'a>)>),
}

impl JVal<'_> {
    pub(crate) fn as_str(&self) -> Result<&str, String> {
        match self {
            JVal::Str(s) => Ok(s),
            other => expected("string", other),
        }
    }
}

fn expected<T>(what: &str, got: &JVal<'_>) -> Result<T, String> {
    Err(format!("expected {what}, got {got:?}"))
}

struct Reader<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn fail<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("{msg} at byte {}", self.pos))
    }

    fn byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek(&mut self) -> Option<u8> {
        while matches!(self.byte(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
        self.byte()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.fail(&format!("expected '{}'", b as char))
        }
    }

    /// Parses one `{"key":value,…}` object into key/value pairs.
    fn object(&mut self) -> Result<Vec<(Cow<'a, str>, JVal<'a>)>, String> {
        self.expect(b'{')?;
        let mut fields = Vec::with_capacity(8);
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

    fn value(&mut self) -> Result<JVal<'a>, String> {
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

    fn keyword(&mut self, word: &str, val: JVal<'a>) -> Result<JVal<'a>, String> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(val)
        } else {
            self.fail(&format!("expected '{word}'"))
        }
    }

    fn array(&mut self) -> Result<JVal<'a>, String> {
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

    fn number(&mut self) -> Result<JVal<'a>, String> {
        let start = self.pos;
        let mut float = false;
        while let Some(b) = self.byte() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        // Only ASCII was consumed, so both ends are char boundaries.
        let text = &self.src[start..self.pos];
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

    /// Parses a string literal, borrowing it from the input unless an
    /// escape forces a copy. `"` and `\` are ASCII, so every slice taken
    /// here starts and ends on a char boundary.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let mut unescaped: Option<String> = None;
        let mut run = self.pos;
        loop {
            match self.byte() {
                None => return self.fail("unterminated string"),
                Some(b'"') => {
                    let tail = &self.src[run..self.pos];
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(tail),
                        Some(mut s) => {
                            s.push_str(tail);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(&self.src[run..self.pos]);
                    self.pos += 1;
                    match self.byte() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                            self.pos += 4;
                        }
                        _ => return self.fail("unknown escape"),
                    }
                    self.pos += 1;
                    run = self.pos;
                }
                Some(_) => self.pos += 1,
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fields: one impl per type, both directions
// ---------------------------------------------------------------------------

/// How one field type appears in a JSONL line. The event table in
/// [`crate::event`] routes every field of every kind through an impl of
/// this trait, in both directions, so the writer and the reader cannot
/// disagree about a type.
pub(crate) trait Field: Sized {
    /// Appends the value's JSON.
    fn write(&self, out: &mut String);
    /// Takes the value back out of its parsed JSON.
    fn read(v: &JVal<'_>) -> Result<Self, String>;
    /// A random value, edge cases included, for the round-trip test.
    #[cfg(test)]
    fn arbitrary(rng: &mut Rng) -> Self;
}

macro_rules! int_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            // `u64::try_from(u64)` is the identity; the other three check.
            #[allow(clippy::useless_conversion)]
            fn read(v: &JVal<'_>) -> Result<Self, String> {
                match v {
                    JVal::Int(n) => <$t>::try_from(*n).ok(),
                    JVal::Neg(n) => <$t>::try_from(*n).ok(),
                    other => return expected("integer", other),
                }
                .ok_or_else(|| format!("overflows {}", stringify!($t)))
            }
            #[cfg(test)]
            fn arbitrary(rng: &mut Rng) -> Self {
                match rng.next() % 4 {
                    0 => <$t>::MIN,
                    1 => <$t>::MAX,
                    _ => rng.next() as $t,
                }
            }
        }
    )*};
}
int_fields!(u32, u64, usize, i64);

impl Field for f64 {
    fn write(&self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn read(v: &JVal<'_>) -> Result<Self, String> {
        match v {
            JVal::Float(x) => Ok(*x),
            JVal::Int(n) => Ok(*n as f64),
            JVal::Neg(n) => Ok(*n as f64),
            other => expected("number", other),
        }
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut Rng) -> Self {
        // Probabilities: dyadic rationals in [0, 1], both ends included
        // (they render as the integers `0` and `1`).
        (rng.next() % 1025) as f64 / 1024.0
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        push_json_str(out, self);
    }
    fn read(v: &JVal<'_>) -> Result<Self, String> {
        v.as_str().map(str::to_string)
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut Rng) -> Self {
        const ALPHABET: [char; 12] = [
            'a', 'Q', '5', '(', ' ', '"', '\\', '\n', '\t', '\u{1}', 'é', '→',
        ];
        (0..rng.next() % 10)
            .map(|_| ALPHABET[(rng.next() % 12) as usize])
            .collect()
    }
}

impl Field for OpLabel {
    fn write(&self, out: &mut String) {
        push_json_str(out, self);
    }
    fn read(v: &JVal<'_>) -> Result<Self, String> {
        let mut label = OpLabel::default();
        label.push_str(v.as_str()?);
        Ok(label)
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut Rng) -> Self {
        let mut label = OpLabel::default();
        label.push_str(&String::arbitrary(rng));
        label
    }
}

impl<T: Field> Field for Option<T> {
    fn write(&self, out: &mut String) {
        match self {
            Some(v) => v.write(out),
            None => out.push_str("null"),
        }
    }
    fn read(v: &JVal<'_>) -> Result<Self, String> {
        match v {
            JVal::Null => Ok(None),
            v => T::read(v).map(Some),
        }
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut Rng) -> Self {
        (!rng.next().is_multiple_of(3)).then(|| T::arbitrary(rng))
    }
}

impl Field for Origin {
    fn write(&self, out: &mut String) {
        self.seq().write(out);
    }
    fn read(v: &JVal<'_>) -> Result<Self, String> {
        Ok(Option::read(v)?.map_or(Origin::NONE, Origin::at))
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut Rng) -> Self {
        Option::arbitrary(rng).map_or(Origin::NONE, Origin::at)
    }
}

fn write_list<T: Field>(items: &[T], out: &mut String) {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write(out);
    }
    out.push(']');
}

impl<T: Field> Field for Vec<T> {
    fn write(&self, out: &mut String) {
        write_list(self, out);
    }
    fn read(v: &JVal<'_>) -> Result<Self, String> {
        match v {
            JVal::Arr(items) => items.iter().map(T::read).collect(),
            other => expected("array", other),
        }
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut Rng) -> Self {
        (0..rng.next() % 4).map(|_| T::arbitrary(rng)).collect()
    }
}

impl Field for PartitionGroups {
    fn write(&self, out: &mut String) {
        write_list(self, out);
    }
    fn read(v: &JVal<'_>) -> Result<Self, String> {
        Vec::read(v).map(PartitionGroups::new)
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut Rng) -> Self {
        PartitionGroups::new(Vec::arbitrary(rng))
    }
}

/// One parsed line: its top-level fields, looked up by key.
pub(crate) struct Fields<'a>(Vec<(Cow<'a, str>, JVal<'a>)>);

impl<'a> Fields<'a> {
    /// Parses a line holding exactly one object: anything but blanks
    /// after the closing `}` (a second object glued on, a torn write) is
    /// an error, not silently dropped.
    fn parse(line: &'a str) -> Result<Self, String> {
        let mut r = Reader { src: line, pos: 0 };
        let fields = r.object()?;
        match r.peek() {
            None => Ok(Fields(fields)),
            Some(_) => r.fail("trailing characters after the object"),
        }
    }

    fn raw(&self, key: &str) -> Result<&JVal<'a>, String> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// The field `key`, read as whatever type the caller's slot has.
    pub(crate) fn get<T: Field>(&self, key: &str) -> Result<T, String> {
        T::read(self.raw(key)?).map_err(|e| format!("field {key:?}: {e}"))
    }

    /// The line's `kind`, held apart from the line.
    fn kind(&self) -> Result<Cow<'a, str>, String> {
        match self.raw("kind")? {
            JVal::Str(s) => Ok(s.clone()),
            other => expected("string", other),
        }
    }
}

/// Folds a version 1–3 stream into version-4 records as it is read: a
/// `message_sent`, `message_injected` or `timer_set` line becomes the
/// `src` and `origin` fields of the record it caused, a `view_merged`
/// line is dropped, and sequence numbers close the gaps the four leave.
#[derive(Default)]
struct Upgrade {
    /// Lines dropped so far.
    retired: u64,
    /// The last kept record other than a `message_duplicated`: the
    /// record a sender wrote before the sends that follow it.
    last: Option<u64>,
    /// Messages in flight by id, timers armed by (node, token): each
    /// with its sender and origin.
    sends: HashMap<u32, (u32, Option<u64>)>,
    timers: HashMap<(u32, u64), (u32, Option<u64>)>,
}

impl Upgrade {
    /// Gives one legacy line the fields version 4 writes, or returns
    /// `false` for a line version 4 does not write at all.
    fn fold(&mut self, tag: &str, f: &mut Fields<'_>, seq: u64) -> Result<bool, String> {
        let (here, last) = (Some(seq.saturating_sub(self.retired)), self.last);
        let caused = match tag {
            "message_sent" | "message_injected" | "timer_set" | "view_merged" => {
                match tag {
                    "message_sent" => self.sends.insert(f.get("msg_id")?, (f.get("src")?, last)),
                    "message_injected" => {
                        self.sends.insert(f.get("msg_id")?, (f.get("dst")?, None))
                    }
                    "timer_set" => self
                        .timers
                        .insert((f.get("node")?, f.get("token")?), (f.get("node")?, last)),
                    _ => None,
                };
                self.retired += 1;
                return Ok(false);
            }
            "message_duplicated" => {
                self.sends.insert(f.get("msg_id")?, (f.get("src")?, here));
                return Ok(true);
            }
            "message_delivered" | "message_dropped" => self.sends.remove(&f.get("msg_id")?),
            "timer_fired" => self.timers.get(&(f.get("node")?, f.get("token")?)).copied(),
            _ => None,
        };
        if matches!(tag, "message_delivered" | "message_dropped" | "timer_fired") {
            // Appended after the line's own fields, so a drop keeps its
            // `src`; a message sent before the window began came from its
            // `node` as far as the file says, and a timer's `src` is unread.
            let (src, origin) = caused.unwrap_or((f.get("node").or_else(|_| f.get("src"))?, None));
            f.0.push((Cow::Borrowed("src"), JVal::Int(src.into())));
            f.0.push((
                Cow::Borrowed("origin"),
                origin.map_or(JVal::Null, JVal::Int),
            ));
        }
        self.last = here;
        Ok(true)
    }
}

/// Re-ingests an exported JSONL trace: an optional [`TraceHeader`] on the
/// first non-blank line, then one event per line. Blank lines are
/// skipped. A stream older than version 4 (a headerless one is from
/// version 1) comes back as the version-4 records its run writes today.
/// Fails — naming the line — on malformed lines, on anything after a
/// line's object, on a header from a future format version or in any
/// later position, and on a header whose `events` count is not the
/// number of event lines that follow (a trace cut off mid-write).
pub fn read_trace(input: &str) -> Result<ParsedTrace, TraceParseError> {
    let mut header: Option<TraceHeader> = None;
    let mut events = Vec::new();
    let mut upgrade = Upgrade::default();
    let mut lines = 0u64;
    let mut last_line = 0;
    for (ix, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        last_line = ix + 1;
        let err = |message: String| TraceParseError {
            line: ix + 1,
            message,
        };
        let mut fields = Fields::parse(line).map_err(err)?;
        let kind = fields.kind().map_err(err)?;
        if kind != HEADER_TAG {
            lines += 1;
            let seq: u64 = fields.get("seq").map_err(err)?;
            let legacy = header.as_ref().is_none_or(|h| h.version < 4);
            if legacy && !upgrade.fold(&kind, &mut fields, seq).map_err(err)? {
                continue;
            }
            events.push(Event {
                time: fields.get("t").map_err(err)?,
                seq: seq.saturating_sub(upgrade.retired),
                kind: EventKind::read(&kind, &fields).map_err(err)?,
            });
            continue;
        }
        // A headerless stream (pre-header export) never gets here; a
        // header further down means two traces were concatenated.
        if header.is_some() || lines > 0 {
            return Err(err(format!(
                "{HEADER_TAG} is only valid on the first non-blank line"
            )));
        }
        let h = TraceHeader {
            version: fields.get("version").map_err(err)?,
            events: fields.get("events").map_err(err)?,
            dropped_oldest: fields.get("dropped_oldest").map_err(err)?,
        };
        if h.version > FORMAT_VERSION {
            return Err(err(format!(
                "trace format version {} is newer than supported ({FORMAT_VERSION})",
                h.version
            )));
        }
        header = Some(h);
    }
    // `dropped_oldest` says the window is a suffix of the run; `events`
    // says how much of the window reached the file.
    if let Some(h) = header.as_ref().filter(|h| h.events != lines) {
        return Err(TraceParseError {
            line: last_line,
            message: format!(
                "header promises {} events, {lines} read: the trace is truncated",
                h.events
            ),
        });
    }
    Ok(ParsedTrace { header, events })
}

/// SplitMix64, for [`Field::arbitrary`] (the workspace builds with no
/// external crates, so this plays the role a proptest dependency would).
#[cfg(test)]
pub(crate) struct Rng(u64);

#[cfg(test)]
impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(e: &Event) -> String {
        let mut out = String::new();
        e.write_json(&mut out);
        out
    }

    fn event(time: u64, seq: u64, kind: EventKind) -> Event {
        Event { time, seq, kind }
    }

    /// Every variant of the event table, every field through its
    /// [`Field::arbitrary`]: write → read must be the identity. (What the
    /// bytes *are* is pinned by `tests/fixtures/all_kinds_v4.jsonl`.)
    #[test]
    fn randomized_events_round_trip() {
        let mut rng = Rng(0x9E3779B97F4A7C15);
        let mut seen = String::new();
        for trial in 0..40 * EventKind::TAGS.len() {
            let kind = EventKind::arbitrary(trial % EventKind::TAGS.len(), &mut rng);
            assert_eq!(kind.tag(), EventKind::TAGS[trial % EventKind::TAGS.len()]);
            let e = event(rng.next(), trial as u64, kind);
            let line = json(&e);
            let v4 = format!("{{\"kind\":\"trace_header\",\"version\":4,\"events\":1,\"dropped_oldest\":0}}\n{line}");
            let back = read_trace(&v4).unwrap_or_else(|err| panic!("{line}: {err}"));
            assert_eq!(back.events, [e], "round-trip of {line}");
            seen.push_str(&line);
        }
        // The edge cases the hand-written tests used to spell out.
        for needle in [
            "\"value\":-",
            "\"total\":18446744073709551615",
            "\"now\":null",
            "\"origin\":null",
            "\\u0001",
            "\\\"",
            "\\\\",
            "\"left\":[]",
        ] {
            assert!(seen.contains(needle), "no draw produced {needle}");
        }
    }

    #[test]
    fn escaping_handles_quotes_and_control() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn header_round_trips_and_gates_versions() {
        let h = TraceHeader {
            version: FORMAT_VERSION,
            events: 2,
            dropped_oldest: 5,
        };
        let events = [
            event(1, 0, EventKind::PartitionHealed),
            event(2, 1, EventKind::NodeCrashed { node: 0 }),
        ];
        let mut body = Vec::new();
        write_trace(&h, events.iter().cloned(), &mut body).unwrap();
        let parsed = read_trace(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(parsed.header, Some(h));
        assert_eq!(parsed.events, events);

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

    const CRASH: &str = "{\"t\":1,\"seq\":0,\"kind\":\"node_crashed\",\"node\":2}";

    #[test]
    fn a_second_object_glued_onto_a_line_is_rejected() {
        let glued = format!("{CRASH}\n{CRASH}{CRASH}\n");
        let err = read_trace(&glued).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("trailing characters"), "{err}");
    }

    #[test]
    fn trailing_garbage_after_the_object_is_rejected() {
        let err = read_trace(&format!("{CRASH} garbage\n")).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("trailing characters"), "{err}");
        // Trailing blanks are not garbage.
        assert_eq!(
            read_trace(&format!("{CRASH} \t\n")).unwrap().events.len(),
            1
        );
    }

    #[test]
    fn the_header_is_the_first_non_blank_line_and_no_other() {
        let header = |version: u32, events: u64| {
            format!("{{\"kind\":\"trace_header\",\"version\":{version},\"events\":{events},\"dropped_oldest\":0}}")
        };
        let blank_led = format!("\n  \n{}\n{CRASH}\n", header(3, 1));
        let parsed = read_trace(&blank_led).unwrap();
        assert_eq!(parsed.header.map(|h| h.events), Some(1));
        assert_eq!(parsed.events.len(), 1);

        let err = read_trace(&format!("\n{}\n", header(99, 0))).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("newer than supported"), "{err}");

        for later in [
            format!("{CRASH}\n{}\n", header(3, 1)),
            format!("{}\n{}\n", header(3, 0), header(3, 0)),
        ] {
            let err = read_trace(&later).unwrap_err();
            assert_eq!(err.line, 2);
            assert!(err.message.contains("first non-blank line"), "{err}");
        }
    }

    #[test]
    fn a_trace_shorter_than_its_header_promises_is_rejected() {
        let cut = format!(
            "{{\"kind\":\"trace_header\",\"version\":3,\"events\":5,\"dropped_oldest\":7}}\n{CRASH}\n"
        );
        let err = read_trace(&cut).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("promises 5 events, 1 read"), "{err}");
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

    /// Version 3 wrote a record per send, injection, timer arming and
    /// view merge; they fold into the records they caused, and the
    /// sequence numbers close up.
    #[test]
    fn version_3_sends_and_timers_fold_into_what_they_caused() {
        let v3 = "\
{\"kind\":\"trace_header\",\"version\":3,\"events\":12,\"dropped_oldest\":0}
{\"t\":0,\"seq\":0,\"kind\":\"message_injected\",\"dst\":3,\"deliver_at\":0,\"msg_id\":0}
{\"t\":0,\"seq\":1,\"kind\":\"message_delivered\",\"node\":3,\"msg_id\":0}
{\"t\":0,\"seq\":2,\"kind\":\"op_begin\",\"node\":3,\"op_id\":1,\"op\":\"Deq\"}
{\"t\":0,\"seq\":3,\"kind\":\"view_merged\",\"node\":3,\"op_id\":1,\"merged_len\":0}
{\"t\":0,\"seq\":4,\"kind\":\"timer_set\",\"node\":3,\"token\":1,\"fire_at\":200}
{\"t\":0,\"seq\":5,\"kind\":\"message_sent\",\"src\":3,\"dst\":0,\"deliver_at\":4,\"msg_id\":1}
{\"t\":0,\"seq\":6,\"kind\":\"message_dropped\",\"src\":3,\"dst\":1,\"cause\":\"partitioned\",\"msg_id\":2}
{\"t\":0,\"seq\":7,\"kind\":\"message_sent\",\"src\":3,\"dst\":2,\"deliver_at\":5,\"msg_id\":3}
{\"t\":0,\"seq\":8,\"kind\":\"message_duplicated\",\"src\":3,\"dst\":2,\"msg_id\":4,\"orig_msg_id\":3}
{\"t\":4,\"seq\":9,\"kind\":\"message_delivered\",\"node\":0,\"msg_id\":1}
{\"t\":5,\"seq\":10,\"kind\":\"message_delivered\",\"node\":2,\"msg_id\":4}
{\"t\":200,\"seq\":11,\"kind\":\"timer_fired\",\"node\":3,\"token\":1}
";
        let delivered = |node, src, msg_id, origin| EventKind::MessageDelivered {
            node,
            src,
            msg_id,
            origin,
        };
        let kinds: Vec<(u64, EventKind)> = read_trace(v3)
            .unwrap()
            .events
            .into_iter()
            .map(|e| (e.seq, e.kind))
            .collect();
        let at = Origin::at;
        assert_eq!(
            kinds[..],
            [
                (0, delivered(3, 3, 0, Origin::NONE)),
                (1, kinds[1].1.clone()),
                (
                    2,
                    EventKind::MessageDropped {
                        src: 3,
                        dst: 1,
                        cause: crate::event::DropCause::Partitioned,
                        msg_id: 2,
                        origin: Origin::NONE,
                    }
                ),
                (3, kinds[3].1.clone()),
                (4, delivered(0, 3, 1, at(1))),
                (5, delivered(2, 3, 4, at(3))),
                (
                    6,
                    EventKind::TimerFired {
                        node: 3,
                        token: 1,
                        origin: at(1),
                    }
                ),
            ]
        );
        assert_eq!(kinds[1].1.tag(), "op_begin");
        assert_eq!(kinds[3].1.tag(), "message_duplicated");
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
                cause: crate::event::DropCause::Partitioned,
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
