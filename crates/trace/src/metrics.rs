//! Metrics: counters, gauges, exact histograms, and a named registry.
//!
//! [`Counter`] and [`Histogram`] began life in `relax-sim` (which still
//! re-exports them); they live here so the quorum runtime and the
//! experiment binaries can share one [`Registry`] and merge per-trial
//! metrics into sweep-level summaries.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::codec::push_json_str;

/// A monotone event counter with a success/failure split, used for
/// availability measurements (fraction of operations that found a
/// quorum, etc.).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    successes: u64,
    failures: u64,
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Records a success.
    pub fn success(&mut self) {
        self.successes += 1;
    }

    /// Records a failure.
    pub fn failure(&mut self) {
        self.failures += 1;
    }

    /// Records an outcome.
    pub fn record(&mut self, ok: bool) {
        if ok {
            self.success();
        } else {
            self.failure();
        }
    }

    /// Total events recorded.
    pub fn total(&self) -> u64 {
        self.successes + self.failures
    }

    /// Successes recorded.
    pub fn successes(&self) -> u64 {
        self.successes
    }

    /// Failures recorded.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Success fraction in `[0, 1]`; `None` before any event.
    pub fn rate(&self) -> Option<f64> {
        if self.total() == 0 {
            None
        } else {
            Some(self.successes as f64 / self.total() as f64)
        }
    }

    /// Adds another counter's tallies into this one.
    pub fn merge(&mut self, other: &Counter) {
        self.successes += other.successes;
        self.failures += other.failures;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rate() {
            Some(r) => write!(f, "{}/{} ({:.1}%)", self.successes, self.total(), r * 100.0),
            None => write!(f, "0/0"),
        }
    }
}

/// A last-value-wins instantaneous measurement (queue depths, frontier
/// sizes, in-flight message counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    value: i64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the current value.
    pub fn set(&mut self, value: i64) {
        self.value = value;
    }

    /// Adjusts the current value by a delta.
    pub fn add(&mut self, delta: i64) {
        self.value += delta;
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.value
    }
}

/// The unit a histogram's duration samples are measured in.
///
/// Samples are stored as exact raw `u64`s either way, and every
/// statistic — mean, min/max, nearest-rank quantiles — is unit-agnostic
/// arithmetic over those samples, so the time base deliberately does
/// *not* fork the math: the only thing it selects is the default
/// exposition bucket layout (sim ticks cluster in 1..10⁴; wall-clock
/// nanoseconds cluster in 10³..10⁹). A tick histogram and a nanosecond
/// histogram fed identical samples report identical quantiles, pinned
/// by `tick_and_nano_quantile_math_agree`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TimeBase {
    /// Discrete simulator ticks (the default; see [`DEFAULT_BUCKETS`]).
    #[default]
    SimTicks,
    /// Wall-clock nanoseconds from the threaded runtime backend (see
    /// [`WALL_NANOS_BUCKETS`]).
    WallNanos,
}

impl TimeBase {
    /// The default exposition bucket bounds for this base.
    pub fn default_buckets(self) -> &'static [u64] {
        match self {
            TimeBase::SimTicks => DEFAULT_BUCKETS,
            TimeBase::WallNanos => WALL_NANOS_BUCKETS,
        }
    }
}

/// A latency histogram over raw duration samples (exact, not bucketed;
/// the sample counts in this workspace's experiments are small enough
/// that exactness is cheaper than binning). The [`TimeBase`] records
/// which unit the samples carry (set through [`Registry::histogram_in`]);
/// it affects exposition layout only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
    /// The unit of the samples (default: sim ticks).
    time_base: TimeBase,
}

/// Bucket upper bounds used by [`Registry::render_prometheus`] for
/// [`TimeBase::SimTicks`] histograms.
pub const DEFAULT_BUCKETS: &[u64] = &[1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000];

/// Bucket upper bounds used for [`TimeBase::WallNanos`] histograms: 1µs
/// to 1s.
pub const WALL_NANOS_BUCKETS: &[u64] = &[
    1_000,
    5_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The unit the samples carry.
    pub fn time_base(&self) -> TimeBase {
        self.time_base
    }

    /// Cumulative sample counts per bucket bound (Prometheus `le`
    /// semantics: each entry counts samples `<= bound`) over the time
    /// base's layout; the implicit `+Inf` bucket is [`Histogram::len`].
    pub fn bucket_counts(&self) -> Vec<(u64, u64)> {
        self.time_base
            .default_buckets()
            .iter()
            .map(|&b| {
                let n = self.samples.iter().filter(|&&s| s <= b).count() as u64;
                (b, n)
            })
            .collect()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.samples.iter().sum()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True before any sample.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<u64>() as f64 / self.samples.len() as f64)
        }
    }

    /// The `q`-quantile (0 ≤ q ≤ 1, nearest-rank); `None` when empty.
    /// `q = 0` yields the smallest sample, `q = 1` the largest.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let rank = ((q * self.samples.len() as f64).ceil() as usize).clamp(1, self.samples.len());
        Some(self.samples[rank - 1])
    }

    /// Median (p50).
    pub fn median(&mut self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// The 50th percentile.
    pub fn p50(&mut self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// The 95th percentile.
    pub fn p95(&mut self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// The 99th percentile.
    pub fn p99(&mut self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }

    /// Appends all of another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
        // A non-default time base wins (merging mixed bases is a caller
        // bug either way — the samples would be incommensurable).
        if other.time_base != TimeBase::default() {
            self.time_base = other.time_base;
        }
    }
}

/// Declares each group of canonical metric names as a module of `&str`
/// constants, and [`EXECUTOR_NAMES`] as every one of them, so a name is
/// spelled once and the naming test reads the same table.
macro_rules! metric_names {
    ($(
        $(#[$group_doc:meta])*
        $group:ident { $($(#[$doc:meta])* $name:ident = $text:literal,)* }
    )*) => {
        $(
            $(#[$group_doc])*
            pub mod $group {
                $($(#[$doc])* pub const $name: &str = $text;)*
            }
        )*
        /// Every name a quorum executor's registry can hold besides the
        /// per-replica staleness gauges, which `relax_quorum::Staleness`
        /// (beside the replica logs' site tables it reads in place)
        /// names by replica; in declaration order.
        pub const EXECUTOR_NAMES: &[&str] = &[$($($group::$name,)*)*];
    };
}

metric_names! {
    /// Wire-level accounting, set by the sim executor from its world's
    /// byte and message counters and summed across trials with
    /// [`Registry::merge_accumulating`].
    ///
    /// Names follow the Prometheus convention of putting the unit last
    /// (`_bytes`, not `bytes_` mid-name) — see [`lint_name`], which the
    /// naming test applies to every canonical metric name in the workspace.
    wire {
        /// Modeled payload bytes offered to the network.
        BYTES_SHIPPED = "wire_shipped_bytes",
        /// Messages offered to the network.
        MESSAGES_SENT = "wire_messages_sent",
    }
    /// View evaluation (`relax-quorum`'s `ViewCache`), summed over the
    /// sim's clients or the threaded backend's shards.
    viewcache {
        /// Evaluations that extended the cached prefix.
        HITS = "viewcache_hits",
        /// Evaluations that found the cached prefix spliced.
        MISSES = "viewcache_misses",
        /// Log entries folded, the replay memoization could not avoid.
        REPLAYED_ENTRIES = "viewcache_replayed_entries",
        /// Misses that resumed from a surviving checkpoint.
        CHECKPOINT_HITS = "viewcache_checkpoint_hits",
    }
    /// CALM scheduling, in both quorum backends.
    calm {
        /// Invocations that took the coordination-free fast path.
        FAST_OPS = "calm_fast_ops",
        /// Invocations that ran the quorum protocol.
        QUORUM_OPS = "calm_quorum_ops",
    }
    /// Merkle anti-entropy, summed over the replicas.
    merkle {
        /// Probe broadcasts plus localization requests served.
        SYNC_ROUNDS = "merkle_sync_rounds",
        /// Node summaries sent (roots and children).
        NODES_EXCHANGED = "merkle_nodes_exchanged",
        /// Divergent leaf payloads served from the per-version cache.
        LEAF_REUSES = "merkle_leaf_reuses",
    }
    /// The threaded wall-clock backend's own layers (nanosecond time base).
    realtime {
        /// Wall nanoseconds per available operation (histogram).
        OP_LATENCY_NANOS = "realtime_op_latency_nanos",
        /// Operations per group commit (histogram).
        COMMIT_BATCH_OPS = "realtime_commit_batch_ops",
        /// Shard rounds run, cumulative.
        SHARD_ROUNDS = "realtime_shard_rounds",
        /// Batches the brokers have flushed, cumulative.
        BROKER_VISITS = "realtime_broker_visits",
        /// Wall nanoseconds per shard visit, from sending its packets
        /// to feeding back its last reply (histogram).
        VISIT_NANOS = "realtime_visit_nanos",
    }
}

/// Checks a metric base name against the workspace's Prometheus naming
/// rules; returns a violation description, or `None` when the name is
/// clean. The rules:
///
/// * snake_case: lowercase letters, digits, and `_`, starting with a
///   letter;
/// * no reserved suffix — `_total`, `_bucket`, `_sum`, `_count`, and
///   `_quantile` are appended by [`Registry::render_prometheus`], so a
///   base name carrying one would collide with the generated series;
/// * unit last: a name mentioning `bytes` must end in `_bytes` (sim
///   durations use `_ticks` rather than `_seconds` — the simulator's
///   clock is discrete, and mislabeling ticks as seconds would be the
///   real convention violation).
pub fn lint_name(name: &str) -> Option<String> {
    let mut chars = name.chars();
    match chars.next() {
        Some('a'..='z') => {}
        _ => return Some(format!("{name:?}: must start with a lowercase letter")),
    }
    if !chars.all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_')) {
        return Some(format!("{name:?}: not snake_case"));
    }
    for suffix in ["_total", "_bucket", "_sum", "_count", "_quantile"] {
        if name.ends_with(suffix) {
            return Some(format!(
                "{name:?}: reserved suffix {suffix} (generated by the exposition)"
            ));
        }
    }
    if name.contains("bytes") && !name.ends_with("_bytes") {
        return Some(format!("{name:?}: unit must come last (…_bytes)"));
    }
    None
}

/// A named collection of counters, gauges, and histograms.
///
/// Backed by `BTreeMap`s so summaries and JSON render in a stable order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter with this name, created zeroed on first use.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        self.counters.entry(name.to_string()).or_default()
    }

    /// The gauge with this name, created zeroed on first use.
    pub fn gauge(&mut self, name: &str) -> &mut Gauge {
        self.gauges.entry(name.to_string()).or_default()
    }

    /// The histogram with this name, created empty on first use.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        self.histograms.entry(name.to_string()).or_default()
    }

    /// The histogram with this name, created in the given [`TimeBase`]
    /// on first use (an existing histogram keeps its base — the base is
    /// a property of the series, not of the caller).
    pub fn histogram_in(&mut self, name: &str, base: TimeBase) -> &mut Histogram {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram {
                time_base: base,
                ..Histogram::default()
            })
    }

    /// Looks up a counter without creating it.
    pub fn get_counter(&self, name: &str) -> Option<&Counter> {
        self.counters.get(name)
    }

    /// Looks up a gauge without creating it.
    pub fn get_gauge(&self, name: &str) -> Option<&Gauge> {
        self.gauges.get(name)
    }

    /// Looks up a histogram without creating it.
    pub fn get_histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges another registry into this one: counters and histograms
    /// accumulate by name; gauges take the other's (later) value.
    pub fn merge(&mut self, other: &Registry) {
        for (name, c) in &other.counters {
            self.counter(name).merge(c);
        }
        for (name, h) in &other.histograms {
            self.histogram(name).merge(h);
        }
        for (name, g) in &other.gauges {
            self.gauge(name).set(g.value());
        }
    }

    /// Like [`Registry::merge`], but gauges *add* instead of last-wins —
    /// the right semantics when each merged registry carries a per-trial
    /// total (e.g. the [`wire`] byte counts) that should sum across
    /// trials.
    pub fn merge_accumulating(&mut self, other: &Registry) {
        for (name, c) in &other.counters {
            self.counter(name).merge(c);
        }
        for (name, h) in &other.histograms {
            self.histogram(name).merge(h);
        }
        for (name, g) in &other.gauges {
            self.gauge(name).add(g.value());
        }
    }

    /// A human-readable multi-line summary (counters with rates,
    /// histograms with mean/p50/p95/p99/max).
    pub fn summary(&mut self) -> String {
        let mut out = String::new();
        for (name, c) in &self.counters {
            let _ = writeln!(out, "counter   {name:<32} {c}");
        }
        for (name, g) in &self.gauges {
            let _ = writeln!(out, "gauge     {name:<32} {}", g.value());
        }
        let names: Vec<String> = self.histograms.keys().cloned().collect();
        for name in names {
            let h = self.histograms.get_mut(&name).expect("key just listed");
            if h.is_empty() {
                let _ = writeln!(out, "histogram {name:<32} (empty)");
            } else {
                let mean = h.mean().expect("non-empty");
                let p50 = h.p50().expect("non-empty");
                let p95 = h.p95().expect("non-empty");
                let p99 = h.p99().expect("non-empty");
                let max = h.max().expect("non-empty");
                let n = h.len();
                let _ = writeln!(
                    out,
                    "histogram {name:<32} n={n} mean={mean:.1} p50={p50} p95={p95} p99={p99} max={max}"
                );
            }
        }
        out
    }

    /// Renders the registry as one JSON object, with per-histogram
    /// derived statistics rather than raw samples.
    pub fn to_json(&mut self) -> String {
        let mut out = String::from("{\"counters\":{");
        let mut first = true;
        for (name, c) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            push_json_str(&mut out, name);
            let _ = write!(
                out,
                ":{{\"successes\":{},\"failures\":{}}}",
                c.successes(),
                c.failures()
            );
        }
        out.push_str("},\"gauges\":{");
        let mut first = true;
        for (name, g) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            push_json_str(&mut out, name);
            let _ = write!(out, ":{}", g.value());
        }
        out.push_str("},\"histograms\":{");
        let names: Vec<String> = self.histograms.keys().cloned().collect();
        let mut first = true;
        for name in names {
            if !first {
                out.push(',');
            }
            first = false;
            let h = self.histograms.get_mut(&name).expect("key just listed");
            push_json_str(&mut out, &name);
            if h.is_empty() {
                out.push_str(":{\"n\":0}");
            } else {
                let mean = h.mean().expect("non-empty");
                let (p50, p95, p99) = (
                    h.p50().expect("non-empty"),
                    h.p95().expect("non-empty"),
                    h.p99().expect("non-empty"),
                );
                let (min, max) = (h.min().expect("non-empty"), h.max().expect("non-empty"));
                let _ = write!(
                    out,
                    ":{{\"n\":{},\"mean\":{mean},\"p50\":{p50},\"p95\":{p95},\"p99\":{p99},\"min\":{min},\"max\":{max}}}",
                    h.len()
                );
            }
        }
        out.push_str("}}");
        out
    }

    /// Prometheus text exposition (one sample per line, with `# TYPE`
    /// headers, names in stable `BTreeMap` order):
    ///
    /// * counters → `{name}_total{result="success"|"failure"}`;
    /// * gauges → `{name}`;
    /// * histograms → classic cumulative `{name}_bucket{le="…"}` series
    ///   (the time base's layout, e.g. [`DEFAULT_BUCKETS`], plus `+Inf`),
    ///   `{name}_sum`, `{name}_count`, and a nearest-rank quantile
    ///   summary family `{name}_quantile{quantile="0.5"|"0.95"|"0.99"}`
    ///   (omitted while empty, since quantiles are undefined there).
    pub fn render_prometheus(&mut self) -> String {
        let mut out = String::new();
        for (name, c) in &self.counters {
            let _ = writeln!(out, "# TYPE {name}_total counter");
            let _ = writeln!(out, "{name}_total{{result=\"success\"}} {}", c.successes());
            let _ = writeln!(out, "{name}_total{{result=\"failure\"}} {}", c.failures());
        }
        for (name, g) in &self.gauges {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", g.value());
        }
        let names: Vec<String> = self.histograms.keys().cloned().collect();
        for name in names {
            let h = self.histograms.get_mut(&name).expect("key just listed");
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (le, n) in h.bucket_counts() {
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {n}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.len());
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.len());
            if !h.is_empty() {
                let _ = writeln!(out, "# TYPE {name}_quantile gauge");
                for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                    let v = h.quantile(q).expect("non-empty");
                    let _ = writeln!(out, "{name}_quantile{{quantile=\"{label}\"}} {v}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulating_sums_gauges() {
        let mut total = Registry::new();
        for trial in 1..=3i64 {
            let mut r = Registry::new();
            r.gauge(wire::BYTES_SHIPPED).set(100 * trial);
            r.gauge(wire::MESSAGES_SENT).set(trial);
            r.counter("ops").success();
            r.histogram("lat").record(trial as u64);
            total.merge_accumulating(&r);
        }
        assert_eq!(total.gauge(wire::BYTES_SHIPPED).value(), 600);
        assert_eq!(total.gauge(wire::MESSAGES_SENT).value(), 6);
        assert_eq!(total.counter("ops").successes(), 3);
        assert_eq!(total.histogram("lat").len(), 3);
        // Plain merge would have kept only the last trial's gauge.
        let mut last_wins = Registry::new();
        let mut r = Registry::new();
        r.gauge(wire::BYTES_SHIPPED).set(300);
        last_wins.merge(&r);
        assert_eq!(last_wins.gauge(wire::BYTES_SHIPPED).value(), 300);
    }

    #[test]
    fn counter_rates() {
        let mut c = Counter::new();
        assert_eq!(c.rate(), None);
        c.success();
        c.success();
        c.failure();
        assert_eq!(c.total(), 3);
        assert!((c.rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);
        c.record(true);
        assert_eq!(c.successes(), 3);
        assert_eq!(c.failures(), 1);
    }

    #[test]
    fn counter_display() {
        let mut c = Counter::new();
        assert_eq!(c.to_string(), "0/0");
        c.success();
        assert_eq!(c.to_string(), "1/1 (100.0%)");
    }

    #[test]
    fn counter_merge_accumulates() {
        let mut a = Counter::new();
        a.success();
        let mut b = Counter::new();
        b.failure();
        b.failure();
        a.merge(&b);
        assert_eq!(a.successes(), 1);
        assert_eq!(a.failures(), 2);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), None);
        for v in [10, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.len(), 4);
        assert_eq!(h.mean(), Some(25.0));
        assert_eq!(h.median(), Some(20));
        assert_eq!(h.quantile(1.0), Some(40));
        assert_eq!(h.quantile(0.25), Some(10));
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(40));
    }

    #[test]
    fn quantile_after_new_samples_resorts() {
        let mut h = Histogram::new();
        h.record(5);
        assert_eq!(h.median(), Some(5));
        h.record(1);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.median(), Some(1));
    }

    #[test]
    fn quantile_edge_zero_is_minimum() {
        let mut h = Histogram::new();
        for v in [30, 10, 20] {
            h.record(v);
        }
        // ceil(0 * 3) = 0 clamps to rank 1: the smallest sample.
        assert_eq!(h.quantile(0.0), Some(10));
        assert_eq!(h.quantile(0.0), h.min());
    }

    #[test]
    fn quantile_edge_single_sample_is_every_quantile() {
        let mut h = Histogram::new();
        h.record(77);
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(77), "q={q}");
        }
    }

    #[test]
    fn quantile_edge_empty_is_none_for_all_q() {
        let mut h = Histogram::new();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q), None);
        }
    }

    #[test]
    fn merge_resorts_before_quantiles() {
        let mut a = Histogram::new();
        for v in [100, 200] {
            a.record(v);
        }
        assert_eq!(a.median(), Some(100)); // sorts a
        let mut b = Histogram::new();
        for v in [1, 2] {
            b.record(v);
        }
        a.merge(&b);
        // Post-merge ordering: quantiles must see the combined, re-sorted set.
        assert_eq!(a.len(), 4);
        assert_eq!(a.quantile(0.0), Some(1));
        assert_eq!(a.median(), Some(2));
        assert_eq!(a.quantile(1.0), Some(200));
    }

    #[test]
    fn p50_p95_p99_track_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.p50(), Some(50));
        assert_eq!(h.p95(), Some(95));
        assert_eq!(h.p99(), Some(99));
    }

    #[test]
    fn gauge_set_and_add() {
        let mut g = Gauge::new();
        assert_eq!(g.value(), 0);
        g.set(5);
        g.add(-2);
        assert_eq!(g.value(), 3);
    }

    #[test]
    fn registry_creates_on_first_use_and_merges() {
        let mut r = Registry::new();
        r.counter("ops").success();
        r.histogram("latency").record(10);
        r.gauge("inflight").set(2);

        let mut other = Registry::new();
        other.counter("ops").failure();
        other.histogram("latency").record(30);
        other.gauge("inflight").set(7);

        r.merge(&other);
        assert_eq!(r.get_counter("ops").unwrap().total(), 2);
        assert_eq!(r.get_histogram("latency").unwrap().len(), 2);
        assert_eq!(r.get_gauge("inflight").unwrap().value(), 7);
        assert!(r.get_counter("missing").is_none());
    }

    #[test]
    fn availability_ratio_with_zero_ops_is_none_never_nan() {
        // Division by a zero total must surface as None (and render as
        // "0/0"), not as NaN leaking into reports.
        let c = Counter::new();
        assert_eq!(c.rate(), None);
        assert_eq!(c.to_string(), "0/0");
        let mut merged = Counter::new();
        merged.merge(&c);
        assert_eq!(merged.rate(), None, "merging empties stays empty");
    }

    /// The TimeBase satellite's contract: quantile math is sample-exact
    /// and unit-agnostic, so a tick histogram and a nanosecond histogram
    /// fed identical samples agree on every statistic. Only the default
    /// exposition layout differs.
    #[test]
    fn tick_and_nano_quantile_math_agree() {
        let mut r = Registry::new();
        let mut ticks = Histogram::new();
        let nanos = r.histogram_in("nanos", TimeBase::WallNanos);
        assert_eq!(ticks.time_base(), TimeBase::SimTicks);
        assert_eq!(nanos.time_base(), TimeBase::WallNanos);
        // An adversarial sample set: duplicates, a zero, a huge outlier,
        // and values straddling both default bucket layouts.
        let samples = [0u64, 3, 3, 17, 250, 999, 1_000, 75_000, 2_000_000, 7];
        for &s in &samples {
            ticks.record(s);
            nanos.record(s);
        }
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(ticks.quantile(q), nanos.quantile(q), "q={q}");
        }
        assert_eq!(ticks.mean(), nanos.mean());
        assert_eq!(ticks.min(), nanos.min());
        assert_eq!(ticks.max(), nanos.max());
        assert_eq!(ticks.sum(), nanos.sum());
        // The bases differ only in exposition: bucket bounds come from
        // the per-base default layout.
        let tick_bounds: Vec<u64> = ticks.bucket_counts().iter().map(|&(b, _)| b).collect();
        let nano_bounds: Vec<u64> = nanos.bucket_counts().iter().map(|&(b, _)| b).collect();
        assert_eq!(tick_bounds, DEFAULT_BUCKETS.to_vec());
        assert_eq!(nano_bounds, WALL_NANOS_BUCKETS.to_vec());
    }

    #[test]
    fn merge_adopts_the_non_default_time_base() {
        let mut into = Histogram::new();
        into.record(5);
        let mut r = Registry::new();
        let wall = r.histogram_in("wall", TimeBase::WallNanos);
        wall.record(9_000);
        into.merge(wall);
        assert_eq!(into.time_base(), TimeBase::WallNanos);
        assert_eq!(into.len(), 2);
        // Registry helper: first use pins the base, later callers keep it.
        r.histogram_in("lat", TimeBase::WallNanos).record(1_500);
        assert_eq!(r.histogram("lat").time_base(), TimeBase::WallNanos);
        assert_eq!(
            r.histogram_in("lat", TimeBase::SimTicks).time_base(),
            TimeBase::WallNanos,
            "existing series keeps its base"
        );
    }

    #[test]
    fn bucket_counts_default_layout_and_sum() {
        let mut h = Histogram::new();
        h.record(1);
        h.record(3);
        h.record(20_000); // beyond the last default bound: only in +Inf
        let counts = h.bucket_counts();
        assert_eq!(counts.len(), DEFAULT_BUCKETS.len());
        assert_eq!(counts[0], (1, 1));
        assert_eq!(counts[2], (5, 2));
        assert_eq!(counts.last().copied(), Some((10_000, 2)));
        assert_eq!(h.sum(), 20_004);
    }

    #[test]
    fn render_prometheus_golden() {
        let mut r = Registry::new();
        r.counter("ops").record(true);
        r.counter("ops").record(false);
        r.gauge(calm::FAST_OPS).set(12);
        r.gauge(calm::QUORUM_OPS).set(2);
        r.gauge("inflight").set(3);
        r.gauge(wire::BYTES_SHIPPED).set(4096);
        r.gauge(wire::MESSAGES_SENT).set(128);
        r.gauge(merkle::SYNC_ROUNDS).set(7);
        r.gauge(viewcache::REPLAYED_ENTRIES).set(912);
        let h = r.histogram("lat");
        h.record(5);
        h.record(50);
        h.record(500);
        let expected = "\
# TYPE ops_total counter
ops_total{result=\"success\"} 1
ops_total{result=\"failure\"} 1
# TYPE calm_fast_ops gauge
calm_fast_ops 12
# TYPE calm_quorum_ops gauge
calm_quorum_ops 2
# TYPE inflight gauge
inflight 3
# TYPE merkle_sync_rounds gauge
merkle_sync_rounds 7
# TYPE viewcache_replayed_entries gauge
viewcache_replayed_entries 912
# TYPE wire_messages_sent gauge
wire_messages_sent 128
# TYPE wire_shipped_bytes gauge
wire_shipped_bytes 4096
# TYPE lat histogram
lat_bucket{le=\"1\"} 0
lat_bucket{le=\"2\"} 0
lat_bucket{le=\"5\"} 1
lat_bucket{le=\"10\"} 1
lat_bucket{le=\"25\"} 1
lat_bucket{le=\"50\"} 2
lat_bucket{le=\"100\"} 2
lat_bucket{le=\"250\"} 2
lat_bucket{le=\"500\"} 3
lat_bucket{le=\"1000\"} 3
lat_bucket{le=\"2500\"} 3
lat_bucket{le=\"5000\"} 3
lat_bucket{le=\"10000\"} 3
lat_bucket{le=\"+Inf\"} 3
lat_sum 555
lat_count 3
# TYPE lat_quantile gauge
lat_quantile{quantile=\"0.5\"} 50
lat_quantile{quantile=\"0.95\"} 500
lat_quantile{quantile=\"0.99\"} 500
";
        assert_eq!(r.render_prometheus(), expected);
        // Rendering is idempotent (quantile calls sort in place).
        assert_eq!(r.render_prometheus(), expected);
    }

    /// Every canonical metric name the workspace emits, pinned against
    /// the naming rules. A new metric that violates the convention must
    /// be caught here, not in a dashboard.
    #[test]
    fn canonical_metric_names_pass_the_lint() {
        let canonical = [
            // span aggregation (causality.rs)
            "ops",
            "op_latency",
            "phase_network_wait",
            "phase_quorum_retry_stall",
            "phase_partition_stall",
            "phase_local_compute",
            // staleness gauges (relax_quorum::Staleness; per-replica instances)
            "staleness_lag_entries_r0",
            "staleness_lag_ticks_r0",
            "frontier_divergence_entries_r0_r1",
            // engine flight recorder (profile.rs; span/counter/gauge
            // names, each ≤ the trace's 14-byte inline label)
            "frontier_nodes",
            "left_sets",
            "right_sets",
            "arena_bytes",
            "cons_used",
            "cons_slots",
            "cons_load_pct",
            "row_fills",
            "row_hits",
            "state_steps",
            "state_hits",
            "lang_size",
            "peak_frontier",
        ];
        for name in canonical.into_iter().chain(EXECUTOR_NAMES.iter().copied()) {
            assert_eq!(lint_name(name), None, "metric name {name:?} fails lint");
        }
    }

    #[test]
    fn lint_rejects_unconventional_names() {
        for (bad, why) in [
            ("wire_bytes_shipped", "unit not last"),
            ("ops_total", "reserved suffix"),
            ("lat_bucket", "reserved suffix"),
            ("lat_sum", "reserved suffix"),
            ("retry_count", "reserved suffix"),
            ("lat_quantile", "reserved suffix"),
            ("OpsDone", "not snake_case"),
            ("op-latency", "not snake_case"),
            ("_private", "leading underscore"),
            ("9lives", "leading digit"),
        ] {
            assert!(lint_name(bad).is_some(), "{bad:?} should fail ({why})");
        }
    }

    #[test]
    fn render_prometheus_empty_histogram_omits_quantiles() {
        let mut r = Registry::new();
        r.histogram("lat");
        let text = r.render_prometheus();
        assert!(text.contains("lat_bucket{le=\"10\"} 0"), "{text}");
        assert!(text.contains("lat_count 0"), "{text}");
        assert!(!text.contains("quantile"), "{text}");
    }

    #[test]
    fn registry_summary_and_json_are_stable() {
        let mut r = Registry::new();
        r.counter("enq").record(true);
        r.histogram("lat").record(4);
        r.histogram("lat").record(8);
        let s = r.summary();
        assert!(s.contains("counter   enq"));
        assert!(s.contains("p95=8"));
        let j = r.to_json();
        assert!(j.starts_with("{\"counters\":{"));
        assert!(j.contains("\"enq\":{\"successes\":1,\"failures\":0}"));
        assert!(j.contains("\"lat\":{\"n\":2,\"mean\":6,"));
        // Rendering twice gives the same bytes (ordering is stable).
        assert_eq!(j, r.to_json());
    }
}
