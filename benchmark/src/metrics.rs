//! The metric and workload names — the vocabulary later issues cite.
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step.

use std::collections::BTreeMap;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 6] = [
    "account_1shard",
    "account_2shard",
    "account_calm",
    "taxi_1shard",
    "sim_partition_heal",
    "lattice_verify",
];

/// `(name, unit, higher is better)` of one metric.
pub type MetricDef = (&'static str, &'static str, bool);

/// End-to-end metrics: what a user of the system sees. Printed by an
/// untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 4] = [
    ("ops_per_s", "1/s", true),
    ("op_p50_us", "us", false),
    ("peak_rss_mb", "MiB", false),
    ("setup_s", "s", false),
];

/// Per-layer metrics, printed by a traced run (`--trace 1`). Every
/// workload prints every name; one a workload does not exercise reads 0.
pub const PER_LAYER: [MetricDef; 57] = [
    ("bench.cpu_us_per_op", "us", false),
    ("bench.iter_spread_pct", "%", false),
    ("bench.smp_ratio", "ratio", true),
    ("bench.trace_overhead_pct", "%", false),
    ("quorum.threaded.handoff_us_per_round", "us", false),
    ("quorum.threaded.rounds_per_kop", "count", false),
    ("quorum.threaded.commit_batch_p50", "count", true),
    ("quorum.threaded.spawn_join_us", "us", false),
    ("quorum.threaded.submit_ns_per_op", "ns", false),
    ("quorum.threaded.op_p90_us", "us", false),
    ("quorum.threaded.op_p99_us", "us", false),
    ("quorum.threaded.refused_share", "ratio", false),
    ("quorum.log.merge_append_ns_per_entry", "ns", false),
    ("quorum.log.merge_splice_ns_per_entry", "ns", false),
    ("quorum.log.diff_ns_per_entry", "ns", false),
    ("quorum.log.resident_entries", "count", false),
    ("quorum.merkle.note_ns_per_entry", "ns", false),
    ("quorum.merkle.localize_us", "us", false),
    ("quorum.viewcache.eval_ns_per_call", "ns", false),
    ("quorum.viewcache.replayed_per_op", "count", false),
    ("quorum.viewcache.hit_ratio", "ratio", true),
    ("quorum.viewcache.checkpoint_hits", "count", true),
    ("queues.apply_ns_per_entry", "ns", false),
    ("quorum.calm.analyze_ms", "ms", false),
    ("quorum.calm.fast_share", "ratio", true),
    ("quorum.calm.fast_vs_quorum_ratio", "ratio", true),
    ("quorum.runtime.msgs_per_op", "count", false),
    ("quorum.runtime.wire_bytes_per_op", "count", false),
    ("quorum.runtime.repair_bytes", "count", false),
    ("quorum.runtime.converge_ticks", "count", false),
    ("quorum.runtime.op_p50_ticks", "count", false),
    ("quorum.runtime.op_p99_ticks", "count", false),
    ("quorum.runtime.timeout_share", "ratio", false),
    ("quorum.runtime.merkle_rounds", "count", false),
    ("quorum.runtime.merkle_nodes", "count", false),
    ("quorum.runtime.gossip_delta_share", "ratio", true),
    ("sim.events_per_op", "count", false),
    ("sim.event_ns", "ns", false),
    ("quorum.qca.accept_us_per_op", "us", false),
    ("trace.overhead_pct", "%", false),
    ("trace.codec.encode_ns_per_event", "ns", false),
    ("trace.codec.decode_ns_per_event", "ns", false),
    ("trace.analyze.spans_ms", "ms", false),
    ("trace.monitor.observe_ns_per_op", "ns", false),
    ("trace.events_per_op", "count", false),
    ("core.theorem4.walk_ms", "ms", false),
    ("core.theorem4.assemble_ms", "ms", false),
    ("automata.multiwalk.peak_frontier", "count", false),
    ("automata.multiwalk.row_hit_ratio", "ratio", true),
    ("automata.cons.load_pct", "%", false),
    ("automata.multiwalk.arena_bytes", "count", false),
    ("budget.replay_busy_us_per_op", "us", false),
    ("budget.handoff_us_per_op", "us", false),
    ("budget.replay_overestimates", "count", false),
    ("budget.probe_self_minus_root_ns", "ns", false),
    ("bench.iterations", "count", true),
    ("bench.run_wall_ms_p50", "ms", false),
];

/// The per-layer numbers of one traced run: every name of [`PER_LAYER`],
/// 0 until set.
#[derive(Debug)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Every per-layer metric at 0.
    pub fn new() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _, _)| (name, 0.0)).collect())
    }

    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name [`PER_LAYER`] does not list or a value that is
    /// not finite: either is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{name} = {value} is not a number");
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = value;
    }

    /// One metric's current value.
    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// Renders metrics as the `metrics` object of the result line, in table
/// order.
pub fn metrics_json(defs: &[MetricDef], value_of: impl Fn(&str) -> f64) -> String {
    let fields: Vec<String> = defs
        .iter()
        .map(|&(name, unit, _)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                value_of(name)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// a/b, or 0 when nothing was counted (a metric the workload does not
/// exercise).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values of every `"key": "…"` pair in `text`, in order — all
    /// the structure of `BENCHMARK.json` this test needs.
    fn string_values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
        let pat = format!("\"{key}\":");
        text.match_indices(&pat)
            .filter_map(|(at, _)| {
                let rest = text[at + pat.len()..].trim_start().strip_prefix('"')?;
                rest.split('"').next()
            })
            .collect()
    }

    #[test]
    fn names_match_benchmark_json_and_the_charset() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |from: &str, to: &str| -> &str {
            let start = text.find(from).expect(from);
            let end = text[start..].find(to).map_or(text.len(), |e| start + e);
            &text[start..end]
        };
        let listed = |from: &str, to: &str| string_values(section(from, to), "name");
        assert_eq!(listed("\"workloads\"", "\"end_to_end\""), WORKLOADS);
        let names = |defs: &[MetricDef]| defs.iter().map(|d| d.0).collect::<Vec<_>>();
        assert_eq!(
            listed("\"end_to_end\"", "\"per_layer\""),
            names(&END_TO_END)
        );
        assert_eq!(listed("\"per_layer\"", "\u{0}"), names(&PER_LAYER));
        let units = |defs: &[MetricDef]| defs.iter().map(|d| d.1).collect::<Vec<_>>();
        let listed_units = |from: &str, to: &str| string_values(section(from, to), "unit");
        assert_eq!(
            listed_units("\"end_to_end\"", "\"per_layer\""),
            units(&END_TO_END)
        );
        assert_eq!(listed_units("\"per_layer\"", "\u{0}"), units(&PER_LAYER));
        let better = |defs: &[MetricDef]| {
            defs.iter()
                .map(|d| if d.2 { "higher" } else { "lower" })
                .collect::<Vec<_>>()
        };
        let listed_better = |from: &str, to: &str| string_values(section(from, to), "better");
        assert_eq!(
            listed_better("\"end_to_end\"", "\"per_layer\""),
            better(&END_TO_END)
        );
        assert_eq!(listed_better("\"per_layer\"", "\u{0}"), better(&PER_LAYER));

        for name in WORKLOADS
            .iter()
            .chain(names(&END_TO_END).iter())
            .chain(names(&PER_LAYER).iter())
        {
            assert!(name.len() <= 64, "{name} is too long");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} leaves the charset"
            );
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
        }
    }

    #[test]
    fn layers_start_at_zero_and_render_every_name() {
        let mut layers = Layers::new();
        layers.set("sim.event_ns", 12.5);
        let json = metrics_json(&PER_LAYER, |n| layers.get(n));
        assert!(json.contains("\"sim.event_ns\":{\"value\":12.5,\"unit\":\"ns\"}"));
        assert!(json.contains("\"bench.smp_ratio\":{\"value\":0,\"unit\":\"ratio\"}"));
        assert_eq!(json.matches("\"value\"").count(), PER_LAYER.len());
    }
}
