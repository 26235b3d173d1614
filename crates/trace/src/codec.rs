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
//! [`read_trace`] the only ingester: an export of this format version
//! comes back as typed [`Event`]s for `trace_analyze`, the causality
//! layer, or tests. The reader reads exactly what the writer writes; a
//! format bump replaces the fixtures that pin it, and git history keeps
//! the old ones.
//!
//! The parser is a small hand-rolled JSON reader covering exactly the
//! shapes the schema emits (flat objects; arrays only under `groups` and
//! `left`; `null` only under `now`): the workspace builds offline with no
//! external dependencies.

use std::borrow::Cow;
use std::fmt::Write as _;

use crate::event::{Event, EventKind, OpLabel, Origin, PartitionGroups};

/// The trace format version this crate writes and the only one it reads.
/// Version 2 added the gray-failure / asymmetric-partition / duplication
/// fault events and the staleness telemetry events; version 3 the
/// profiling events; version 4 writes one record per dispatch, with no
/// `message_sent`, `message_injected`, `timer_set` or `view_merged`.
/// Adding a kind or a field bumps it.
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

/// A re-ingested trace: the header and the events.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedTrace {
    /// The header line.
    pub header: TraceHeader,
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

    /// The line's `kind`.
    fn kind(&self) -> Result<&str, String> {
        self.raw("kind")?.as_str()
    }
}

/// Re-ingests an exported JSONL trace: a [`TraceHeader`] of version
/// [`FORMAT_VERSION`] on the first non-blank line, then one event per
/// line. Blank lines are skipped. Fails — naming the line — on malformed
/// lines, on anything after a line's object, on a first line that is not
/// a header of this version (a headerless stream is a version-1 export),
/// on a header in any later position, and on a header whose `events`
/// count is not the number of event lines that follow (a trace cut off
/// mid-write).
pub fn read_trace(input: &str) -> Result<ParsedTrace, TraceParseError> {
    let at = |ix: usize| {
        move |message: String| TraceParseError {
            line: ix + 1,
            message,
        }
    };
    let mut lines = input
        .lines()
        .map(str::trim)
        .enumerate()
        .filter(|(_, line)| !line.is_empty());
    let (first, line) = lines
        .next()
        .ok_or_else(|| at(0)(format!("no {HEADER_TAG}: the trace is empty")))?;
    let header = read_header(line).map_err(at(first))?;
    let mut events = Vec::new();
    let mut last = first;
    for (ix, line) in lines {
        last = ix;
        let err = at(ix);
        let fields = Fields::parse(line).map_err(err)?;
        let kind = fields.kind().map_err(err)?;
        if kind == HEADER_TAG {
            // A header further down means two traces were concatenated.
            return Err(err(format!(
                "{HEADER_TAG} is only valid on the first non-blank line"
            )));
        }
        events.push(Event {
            time: fields.get("t").map_err(err)?,
            seq: fields.get("seq").map_err(err)?,
            kind: EventKind::read(kind, &fields).map_err(err)?,
        });
    }
    // `dropped_oldest` says the window is a suffix of the run; `events`
    // says how much of the window reached the file.
    if header.events != events.len() as u64 {
        return Err(at(last)(format!(
            "header promises {} events, {} read: the trace is truncated",
            header.events,
            events.len()
        )));
    }
    Ok(ParsedTrace { header, events })
}

/// The first non-blank line, which must be a header of this version.
fn read_header(line: &str) -> Result<TraceHeader, String> {
    let fields = Fields::parse(line)?;
    if fields.kind()? != HEADER_TAG {
        return Err(format!(
            "no {HEADER_TAG}: a headerless stream is trace format version 1, \
             this reader reads version {FORMAT_VERSION} only"
        ));
    }
    let version = fields.get("version")?;
    if version != FORMAT_VERSION {
        return Err(format!(
            "trace format version {version}, this reader reads version {FORMAT_VERSION} only"
        ));
    }
    Ok(TraceHeader {
        version,
        events: fields.get("events")?,
        dropped_oldest: fields.get("dropped_oldest")?,
    })
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
            let back = read_trace(&format!("{}\n{line}", header(FORMAT_VERSION, 1)))
                .unwrap_or_else(|err| panic!("{line}: {err}"));
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
    fn header_round_trips() {
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
        assert_eq!(parsed.header, h);
        assert_eq!(parsed.events, events);
    }

    const CRASH: &str = "{\"t\":1,\"seq\":0,\"kind\":\"node_crashed\",\"node\":2}";

    fn header(version: u32, events: u64) -> String {
        format!("{{\"kind\":\"trace_header\",\"version\":{version},\"events\":{events},\"dropped_oldest\":0}}")
    }

    /// The reader reads the version the writer writes and no other: an
    /// older or a newer header, or none at all, is refused on the line
    /// where the header belongs, naming both versions.
    #[test]
    fn a_stream_of_another_format_version_is_refused() {
        let now = FORMAT_VERSION;
        for version in [now - 1, now + 1] {
            let err = read_trace(&format!("\n{}\n{CRASH}\n", header(version, 1))).unwrap_err();
            assert_eq!(err.line, 2);
            assert_eq!(
                err.message,
                format!("trace format version {version}, this reader reads version {now} only")
            );
        }
        let err = read_trace(&format!("{CRASH}\n")).unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(
            err.message,
            format!(
                "no trace_header: a headerless stream is trace format version 1, \
                 this reader reads version {now} only"
            )
        );
        let err = read_trace(" \n").unwrap_err();
        assert_eq!(
            (err.line, &*err.message),
            (1, "no trace_header: the trace is empty")
        );
    }

    #[test]
    fn a_second_object_glued_onto_a_line_is_rejected() {
        let glued = format!("{}\n{CRASH}{CRASH}\n", header(FORMAT_VERSION, 1));
        let err = read_trace(&glued).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("trailing characters"), "{err}");
    }

    #[test]
    fn trailing_garbage_after_the_object_is_rejected() {
        let head = header(FORMAT_VERSION, 1);
        let err = read_trace(&format!("{head}\n{CRASH} garbage\n")).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("trailing characters"), "{err}");
        // Trailing blanks are not garbage.
        let events = read_trace(&format!("{head} \n{CRASH} \t\n"))
            .unwrap()
            .events;
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn the_header_is_the_first_non_blank_line_and_no_other() {
        let blank_led = format!("\n  \n{}\n{CRASH}\n", header(FORMAT_VERSION, 1));
        let parsed = read_trace(&blank_led).unwrap();
        assert_eq!(parsed.header.events, 1);
        assert_eq!(parsed.events.len(), 1);

        let twice = header(FORMAT_VERSION, 0);
        let err = read_trace(&format!("{twice}\n{twice}\n")).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("first non-blank line"), "{err}");
    }

    #[test]
    fn a_trace_shorter_than_its_header_promises_is_rejected() {
        let cut = format!("{}\n{CRASH}\n", header(FORMAT_VERSION, 5));
        let err = read_trace(&cut).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("promises 5 events, 1 read"), "{err}");
    }

    #[test]
    fn malformed_lines_name_their_line_number() {
        let head = header(FORMAT_VERSION, 1);
        let err = read_trace(&format!("{head}\n{CRASH}\nnot json\n")).unwrap_err();
        assert_eq!(err.line, 3);
        let mystery = "{\"t\":1,\"seq\":0,\"kind\":\"mystery\"}";
        let err = read_trace(&format!("{head}\n{mystery}")).unwrap_err();
        assert!(err.message.contains("unknown event kind"), "{err}");
    }
}
