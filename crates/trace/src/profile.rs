//! Hierarchical profiling spans and resource accounting: the recording
//! [`Probe`] behind [`relax_automata::probe::EngineProbe`], and the
//! [`ProfileReport`] that turns a recorded trace into exact-sum
//! self/child attribution, hot-span rankings, per-depth gauge
//! timelines, and a folded-stack export for flamegraph tooling.
//!
//! Time discipline: wall time is nanoseconds since the probe was
//! enabled, derived from one [`Instant`] anchor — monotone by
//! construction, never `SystemTime`. A probe records into its own
//! [`Tracer`] at sim time 0 (engine walks and harness spans run outside
//! the simulator); a sim run's spans read their sim time off the trace
//! they were exported with ([`SpanNode::begin_sim`]).
//!
//! Exactness: a span's *self* time is its total minus the sum of its
//! children's totals. Children are properly nested, disjoint intervals
//! measured on the same monotone clock, so the subtraction never
//! underflows and self times over any subtree telescope back to the
//! root total **exactly** — `trace_analyze --profile` and the folded
//! export both assert this invariant rather than re-deriving totals.
//!
//! Cost discipline: a disabled probe records nothing and reports
//! `is_enabled() == false`; the engine's hot loops batch counter
//! increments locally and call [`EngineProbe::add`] once per depth, so
//! an *enabled* probe costs a few events per level. The compiled-out
//! baseline is [`relax_automata::probe::NoopProbe`]; the repo's
//! benchmark reports enabled-vs-compiled-out on Theorem 4's walks
//! (`lattice_verify`, `bench.trace_overhead_pct`).

use std::time::Instant;

use relax_automata::probe::EngineProbe;

use crate::event::{Event, EventKind, OpLabel};
use crate::tracer::Tracer;

fn label(name: &str) -> OpLabel {
    debug_assert!(
        name.len() <= OpLabel::CAP,
        "profile name {name:?} exceeds the {}-byte inline label",
        OpLabel::CAP
    );
    let mut l = OpLabel::default();
    l.push_str(name);
    l
}

/// The state behind an enabled probe, boxed so a disabled [`Probe`] is
/// one word and cheap to embed everywhere.
#[derive(Debug)]
struct ProbeInner {
    /// The monotone wall-clock anchor (set when the probe is enabled).
    anchor: Instant,
    /// Recorded span and gauge events, in order: the same recorder the
    /// simulator's world owns, with a window that never wraps.
    tracer: Tracer,
    /// Counter accumulators (totals are emitted as events on export).
    /// A linear scan over a handful of `&'static str` names beats a
    /// hash map at this size and keeps `add` allocation-free.
    counters: Vec<(&'static str, u64)>,
}

/// A recording profiling probe.
///
/// `Probe::disabled()` (the default) swallows everything at the cost of
/// one branch; [`Probe::enabled`] anchors a monotone clock and records
/// spans, counters, and gauges as trace events. Implements
/// [`EngineProbe`], so it plugs directly into the engine's `*_probed`
/// walks.
#[derive(Debug, Default)]
pub struct Probe {
    inner: Option<Box<ProbeInner>>,
}

impl Probe {
    /// A probe that records nothing (the zero-cost default).
    pub fn disabled() -> Self {
        Probe { inner: None }
    }

    /// A recording probe, wall-clock anchored at this call.
    pub fn enabled() -> Self {
        Probe {
            inner: Some(Box::new(ProbeInner {
                anchor: Instant::now(),
                tracer: Tracer::bounded(usize::MAX),
                counters: Vec::new(),
            })),
        }
    }

    /// True when the probe records.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The recorder with one trailing `profile_counter` event per
    /// accumulated counter appended — the complete, self-contained
    /// profile stream, exported and analysed the way any tracer is.
    fn flushed(&self) -> Tracer {
        let Some(i) = self.inner.as_ref() else {
            return Tracer::disabled();
        };
        let mut tracer = i.tracer.clone();
        for &(name, total) in &i.counters {
            let name = label(name);
            tracer.record(0, EventKind::ProfileCounter { name, total });
        }
        tracer
    }

    /// Writes the headered JSONL export of everything recorded — the
    /// same trace format every other exporter writes, so `trace_analyze
    /// --profile` re-ingests it.
    pub fn write_jsonl(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        self.flushed().write_jsonl(path)
    }

    /// Builds the span-tree report over everything recorded so far.
    /// Fails on unbalanced spans (a walk still in progress).
    pub fn report(&self) -> Result<ProfileReport, String> {
        ProfileReport::from_events(&self.flushed().events().collect::<Vec<Event>>())
    }
}

impl EngineProbe for Probe {
    #[inline]
    fn is_enabled(&self) -> bool {
        Probe::is_enabled(self)
    }

    fn enter(&mut self, name: &'static str) {
        if let Some(i) = self.inner.as_mut() {
            let wall_ns = i.anchor.elapsed().as_nanos() as u64;
            let name = label(name);
            i.tracer
                .record(0, EventKind::ProfileSpanEnter { name, wall_ns });
        }
    }

    fn exit(&mut self, name: &'static str) {
        if let Some(i) = self.inner.as_mut() {
            let wall_ns = i.anchor.elapsed().as_nanos() as u64;
            let name = label(name);
            i.tracer
                .record(0, EventKind::ProfileSpanExit { name, wall_ns });
        }
    }

    fn add(&mut self, name: &'static str, delta: u64) {
        if let Some(i) = self.inner.as_mut() {
            match i.counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => *total += delta,
                None => i.counters.push((name, delta)),
            }
        }
    }

    fn gauge(&mut self, name: &'static str, value: i64) {
        if let Some(i) = self.inner.as_mut() {
            let name = label(name);
            i.tracer.record(0, EventKind::ProfileGauge { name, value });
        }
    }
}

/// One span of the reconstructed tree, with exact-sum attribution:
/// `self_ns == total_ns − Σ children.total_ns`, so self times over any
/// subtree sum back to that subtree's total exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The span's name.
    pub name: String,
    /// Wall nanoseconds from enter to exit.
    pub total_ns: u64,
    /// Wall nanoseconds not covered by child spans.
    pub self_ns: u64,
    /// Sim time at enter.
    pub begin_sim: u64,
    /// Sim time at exit.
    pub end_sim: u64,
    /// Child spans, in record order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Sum of `self_ns` over this subtree (equals `total_ns` exactly).
    pub fn self_sum_ns(&self) -> u64 {
        self.self_ns + self.children.iter().map(|c| c.self_sum_ns()).sum::<u64>()
    }
}

/// One aggregated stack path: every span whose enter-stack spelled
/// `path` (root-first, `;`-joined), with call count and summed times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotSpan {
    /// The `;`-joined stack path, e.g. `theorem4;multiwalk;multi_depth`.
    pub path: String,
    /// Number of spans that ran at this path.
    pub count: u64,
    /// Summed total nanoseconds.
    pub total_ns: u64,
    /// Summed self nanoseconds.
    pub self_ns: u64,
}

/// One gauge's samples, in record order. Engine walks sample once per
/// depth, so index *k* is depth *k + 1* — the frontier growth curve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSeries {
    /// Gauge name.
    pub name: String,
    /// Samples in record order.
    pub samples: Vec<i64>,
}

/// The reconstructed profile of one trace: span trees, aggregated
/// paths, counter totals, and gauge timelines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileReport {
    /// Top-level spans, in record order.
    pub roots: Vec<SpanNode>,
    /// Counter totals, in first-seen order.
    pub counters: Vec<(String, u64)>,
    /// Gauge sample series, in first-seen order.
    pub gauges: Vec<GaugeSeries>,
}

impl ProfileReport {
    /// Reconstructs the report from a trace's events. Non-profile
    /// events interleave freely and are ignored. Fails on unbalanced or
    /// misnested spans and on a clock running backwards — a valid
    /// export can't produce either.
    pub fn from_events(events: &[Event]) -> Result<ProfileReport, String> {
        struct Open {
            name: String,
            enter_ns: u64,
            begin_sim: u64,
            children: Vec<SpanNode>,
        }
        let mut stack: Vec<Open> = Vec::new();
        let mut roots: Vec<SpanNode> = Vec::new();
        let mut counters: Vec<(String, u64)> = Vec::new();
        let mut gauges: Vec<GaugeSeries> = Vec::new();
        for e in events {
            match &e.kind {
                EventKind::ProfileSpanEnter { name, wall_ns } => stack.push(Open {
                    name: name.to_string(),
                    enter_ns: *wall_ns,
                    begin_sim: e.time,
                    children: Vec::new(),
                }),
                EventKind::ProfileSpanExit { name, wall_ns } => {
                    let open = stack
                        .pop()
                        .ok_or_else(|| format!("span exit {name:?} without a matching enter"))?;
                    if open.name != name.as_str() {
                        return Err(format!(
                            "span exit {:?} closes span {:?} (misnested)",
                            name.as_str(),
                            open.name
                        ));
                    }
                    let total_ns = wall_ns.checked_sub(open.enter_ns).ok_or_else(|| {
                        format!("span {:?}: clock ran backwards across the span", open.name)
                    })?;
                    let child_ns: u64 = open.children.iter().map(|c| c.total_ns).sum();
                    let self_ns = total_ns.checked_sub(child_ns).ok_or_else(|| {
                        format!("span {:?}: children outlast their parent", open.name)
                    })?;
                    let node = SpanNode {
                        name: open.name,
                        total_ns,
                        self_ns,
                        begin_sim: open.begin_sim,
                        end_sim: e.time,
                        children: open.children,
                    };
                    match stack.last_mut() {
                        Some(parent) => parent.children.push(node),
                        None => roots.push(node),
                    }
                }
                EventKind::ProfileCounter { name, total } => {
                    // Totals are cumulative; a later flush supersedes.
                    match counters.iter_mut().find(|(n, _)| n == name.as_str()) {
                        Some((_, t)) => *t = *total,
                        None => counters.push((name.to_string(), *total)),
                    }
                }
                EventKind::ProfileGauge { name, value } => {
                    match gauges.iter_mut().find(|g| g.name == name.as_str()) {
                        Some(g) => g.samples.push(*value),
                        None => gauges.push(GaugeSeries {
                            name: name.to_string(),
                            samples: vec![*value],
                        }),
                    }
                }
                _ => {}
            }
        }
        if let Some(open) = stack.last() {
            return Err(format!("span {:?} never exited", open.name));
        }
        Ok(ProfileReport {
            roots,
            counters,
            gauges,
        })
    }

    /// Total wall nanoseconds across the top-level spans.
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_ns).sum()
    }

    /// Sum of self times over every span — exactly [`Self::total_ns`].
    pub fn self_sum_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.self_sum_ns()).sum()
    }

    /// One gauge's samples, if recorded.
    pub fn gauge(&self, name: &str) -> Option<&[i64]> {
        self.gauges
            .iter()
            .find(|g| g.name == name)
            .map(|g| g.samples.as_slice())
    }

    /// One counter's total, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| *t)
    }

    /// Aggregates spans by stack path, in first-visit (depth-first)
    /// order. Self times over the aggregate still sum to
    /// [`Self::total_ns`] exactly — aggregation only regroups them.
    pub fn aggregated_paths(&self) -> Vec<HotSpan> {
        fn walk(prefix: &str, node: &SpanNode, out: &mut Vec<HotSpan>) {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix};{}", node.name)
            };
            match out.iter_mut().find(|h| h.path == path) {
                Some(h) => {
                    h.count += 1;
                    h.total_ns += node.total_ns;
                    h.self_ns += node.self_ns;
                }
                None => out.push(HotSpan {
                    path: path.clone(),
                    count: 1,
                    total_ns: node.total_ns,
                    self_ns: node.self_ns,
                }),
            }
            for c in &node.children {
                walk(&path, c, out);
            }
        }
        let mut out = Vec::new();
        for r in &self.roots {
            walk("", r, &mut out);
        }
        out
    }

    /// The top-`k` aggregated paths by self time, descending (ties
    /// break toward first-visit order, keeping the ranking stable).
    pub fn hot_spans(&self, k: usize) -> Vec<HotSpan> {
        let mut all = self.aggregated_paths();
        all.sort_by_key(|s| std::cmp::Reverse(s.self_ns));
        all.truncate(k);
        all
    }

    /// The folded-stack export: one `path value` line per aggregated
    /// stack, values are **self** nanoseconds, so the lines of any root
    /// sum exactly to that root's total — the format standard
    /// flamegraph tooling consumes. Zero-self paths are skipped (their
    /// time lives entirely in their children).
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for h in self.aggregated_paths() {
            if h.self_ns > 0 {
                out.push_str(&h.path);
                out.push(' ');
                out.push_str(&h.self_ns.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Renders the human-readable profile view (`trace_analyze
    /// --profile`): the span tree with exact-sum attribution, top-`k`
    /// hot spans, counters, and gauge timelines.
    pub fn render(&self, top_k: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== Profile ==");
        if self.roots.is_empty() {
            let _ = writeln!(out, "\nno profile spans recorded");
            return out;
        }
        let _ = writeln!(out, "\nspan tree (calls, total, self):");
        for h in self.aggregated_paths() {
            let depth = h.path.matches(';').count();
            let name = h.path.rsplit(';').next().unwrap_or(&h.path);
            let _ = writeln!(
                out,
                "  {:indent$}{name:width$} {:>5}x {:>12} ns {:>12} ns",
                "",
                h.count,
                h.total_ns,
                h.self_ns,
                indent = 2 * depth,
                width = 20usize.saturating_sub(2 * depth),
            );
        }
        let total = self.total_ns();
        let _ = writeln!(out, "\ntop {top_k} spans by self time:");
        for h in self.hot_spans(top_k) {
            let pct = if total > 0 {
                100.0 * h.self_ns as f64 / total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "  {:>12} ns  {pct:>5.1}%  {:>5}x  {}",
                h.self_ns, h.count, h.path
            );
        }
        let _ = writeln!(
            out,
            "\nself-time sum: {} ns == root total: {} ns (exact)",
            self.self_sum_ns(),
            total
        );
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for (name, t) in &self.counters {
                let _ = writeln!(out, "  {name:<16} {t}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "\ngauges (per-depth timelines):");
            for g in &self.gauges {
                let shown: Vec<String> = g.samples.iter().take(32).map(|v| v.to_string()).collect();
                let ellipsis = if g.samples.len() > 32 { " …" } else { "" };
                let _ = writeln!(out, "  {:<16} {}{}", g.name, shown.join(" "), ellipsis);
            }
        }
        out
    }
}

/// Re-parses a folded-stack export ([`ProfileReport::to_folded`]):
/// `(path, self_ns)` per line. Used by tests to close the loop — the
/// parsed values must sum exactly to the root spans' totals.
pub fn parse_folded(text: &str) -> Result<Vec<(String, u64)>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let (path, value) = l
                .rsplit_once(' ')
                .ok_or_else(|| format!("folded line without value: {l:?}"))?;
            let value: u64 = value
                .parse()
                .map_err(|e| format!("folded line {l:?}: {e}"))?;
            Ok((path.to_string(), value))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn enter(seq: u64, name: &str, wall_ns: u64) -> Event {
        Event {
            time: 0,
            seq,
            kind: EventKind::ProfileSpanEnter {
                name: label(name),
                wall_ns,
            },
        }
    }

    fn exit(seq: u64, name: &str, wall_ns: u64) -> Event {
        Event {
            time: 0,
            seq,
            kind: EventKind::ProfileSpanExit {
                name: label(name),
                wall_ns,
            },
        }
    }

    #[test]
    fn disabled_probe_records_nothing() {
        let mut p = Probe::disabled();
        assert!(!EngineProbe::is_enabled(&p));
        p.enter("walk");
        p.add("row_hits", 5);
        p.gauge("frontier_nodes", 3);
        p.exit("walk");
        assert!(p.flushed().is_empty());
        let report = p.report().unwrap();
        assert!(report.roots.is_empty());
        assert!(report.counters.is_empty() && report.gauges.is_empty());
        assert_eq!(report.total_ns(), 0);
    }

    #[test]
    fn enabled_probe_records_balanced_spans_and_counters() {
        let mut p = Probe::enabled();
        assert!(EngineProbe::is_enabled(&p));
        p.enter("outer");
        p.gauge("frontier_nodes", 4);
        p.enter("inner");
        p.add("row_hits", 2);
        p.add("row_hits", 3);
        p.exit("inner");
        assert!(p.report().unwrap_err().contains("never exited"));
        p.exit("outer");
        let report = p.report().unwrap();
        assert_eq!(report.roots.len(), 1);
        assert_eq!(report.roots[0].name, "outer");
        assert_eq!(report.roots[0].children[0].name, "inner");
        assert_eq!(report.counter("row_hits"), Some(5));
        assert_eq!(report.gauge("frontier_nodes"), Some(&[4][..]));
        // Exactness on real (monotone) clock readings.
        assert_eq!(report.self_sum_ns(), report.total_ns());
    }

    #[test]
    fn report_attributes_self_and_child_time_exactly() {
        // root [0,100]: child a [10,30], child b [40,90] → self 30.
        let events = vec![
            enter(0, "root", 0),
            enter(1, "a", 10),
            exit(2, "a", 30),
            enter(3, "b", 40),
            exit(4, "b", 90),
            exit(5, "root", 100),
        ];
        let r = ProfileReport::from_events(&events).unwrap();
        assert_eq!(r.roots[0].total_ns, 100);
        assert_eq!(r.roots[0].self_ns, 30);
        assert_eq!(r.roots[0].children[0].self_ns, 20);
        assert_eq!(r.roots[0].children[1].self_ns, 50);
        assert_eq!(r.self_sum_ns(), 100);
    }

    #[test]
    fn aggregation_merges_same_name_siblings() {
        let events = vec![
            enter(0, "root", 0),
            enter(1, "depth", 0),
            exit(2, "depth", 10),
            enter(3, "depth", 10),
            exit(4, "depth", 40),
            exit(5, "root", 50),
        ];
        let r = ProfileReport::from_events(&events).unwrap();
        let agg = r.aggregated_paths();
        assert_eq!(agg.len(), 2);
        assert_eq!(agg[1].path, "root;depth");
        assert_eq!(agg[1].count, 2);
        assert_eq!(agg[1].total_ns, 40);
        let folded = r.to_folded();
        let parsed = parse_folded(&folded).unwrap();
        let sum: u64 = parsed.iter().map(|(_, v)| v).sum();
        assert_eq!(sum, r.total_ns());
    }

    #[test]
    fn misnested_and_unbalanced_spans_are_rejected() {
        let misnested = vec![enter(0, "a", 0), enter(1, "b", 1), exit(2, "a", 2)];
        assert!(ProfileReport::from_events(&misnested)
            .unwrap_err()
            .contains("misnested"));
        let unbalanced = vec![enter(0, "a", 0)];
        assert!(ProfileReport::from_events(&unbalanced)
            .unwrap_err()
            .contains("never exited"));
        let orphan_exit = vec![exit(0, "a", 5)];
        assert!(ProfileReport::from_events(&orphan_exit)
            .unwrap_err()
            .contains("without a matching enter"));
    }

    #[test]
    fn write_jsonl_round_trips_through_the_codec() {
        let mut p = Probe::enabled();
        p.enter("walk");
        p.gauge("arena_bytes", 1024);
        p.add("row_hits", 9);
        p.exit("walk");
        let path = std::env::temp_dir().join("relax_trace_probe_test.jsonl");
        p.write_jsonl(&path).unwrap();
        let parsed = crate::codec::read_trace(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        let header = parsed.header.as_ref().expect("headered export");
        assert_eq!(
            (header.version, header.events),
            (crate::codec::FORMAT_VERSION, 4)
        );
        let seqs: Vec<u64> = parsed.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3]);
        assert_eq!(ProfileReport::from_events(&parsed.events), p.report());
    }

    /// Strategy: a random balanced span program. Commands walk a
    /// virtual clock forward and push/pop spans from a small name
    /// alphabet; whatever is left open at the end is closed in LIFO
    /// order, so the event stream is always well formed.
    fn span_program() -> impl Strategy<Value = Vec<Event>> {
        // Each command is (op, name index, clock advance): op 0 enters
        // a span, 1 exits the innermost, anything else just idles.
        let cmd = (0u8..3, 0usize..4, 0u64..1000);
        collection::vec(cmd, 0..64).prop_map(|cmds| {
            const NAMES: [&str; 4] = ["walk", "depth", "expand", "intern"];
            let mut clock = 0u64;
            let mut seq = 0u64;
            let mut open: Vec<&str> = Vec::new();
            let mut events = Vec::new();
            for (op, n, dt) in cmds {
                clock += dt;
                match op {
                    0 if open.len() < 8 => {
                        open.push(NAMES[n]);
                        events.push(enter(seq, NAMES[n], clock));
                        seq += 1;
                    }
                    1 => {
                        if let Some(name) = open.pop() {
                            events.push(exit(seq, name, clock));
                            seq += 1;
                        }
                    }
                    _ => {}
                }
            }
            while let Some(name) = open.pop() {
                clock += 1;
                events.push(exit(seq, name, clock));
                seq += 1;
            }
            events
        })
    }

    proptest! {
        /// The tentpole exactness contract: for ANY well-formed span
        /// stream, the folded-stack export re-parses and its values sum
        /// exactly to the report's root total — no rounding, no drift.
        #[test]
        fn folded_export_reparses_and_self_times_sum_to_root(events in span_program()) {
            let report = ProfileReport::from_events(&events).unwrap();
            prop_assert_eq!(report.self_sum_ns(), report.total_ns());
            let parsed = parse_folded(&report.to_folded()).unwrap();
            let sum: u64 = parsed.iter().map(|(_, v)| v).sum();
            prop_assert_eq!(sum, report.total_ns());
            // Aggregation regroups but never loses time either.
            let agg_self: u64 = report.aggregated_paths().iter().map(|h| h.self_ns).sum();
            prop_assert_eq!(agg_self, report.total_ns());
        }
    }
}
