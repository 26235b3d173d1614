//! Adversarial fault campaigns with machine-checked root-cause verdicts.
//!
//! Each named campaign drives the replicated taxi queue through one
//! fault pattern the observability layer must attribute correctly:
//!
//! * `gray_failure` — a replica turns slow-but-alive; nothing is ever
//!   dropped, yet a stale read degrades the queue. The fault cut must
//!   contain the `gray_degraded` event (and nothing else).
//! * `flapping_partition` — a partition installs, heals, and re-installs
//!   on the other side of the system; both `partition_set` events reach
//!   the cut.
//! * `asymmetric_partition` — directed links from the client are blocked
//!   while the reverse directions keep working; the cut is all
//!   `link_blocked`.
//! * `message_duplication` — the network duplicates half of all
//!   messages; idempotent log merges mask the fault completely, so the
//!   verdict is *zero* transitions despite a positive duplicate count.
//! * `combined` — flapping partitions on a gray-degraded, duplicating
//!   network; the cut must name both the partition and the gray failure.
//!
//! A verdict is *machine-checked*: the trace is replayed through the
//! happens-before analysis, the minimal fault cut of every witnessed
//! transition is classified, and the observed fault classes are compared
//! against what the campaign injected (required ⊆ observed ⊆ allowed).
//! Every degrading campaign also arms a degradation SLO (`PQ` may spend
//! at most 100 ticks dead) and checks the budget-exhaustion event fires.
//!
//! Staleness is sampled every 20 ticks throughout (the scrape interval,
//! twice the submission grid); per-campaign lag quantiles come from the
//! recorded `replica_lag_sampled` events.

use std::time::Instant;

use relax_quorum::relation::QueueKind;
use relax_quorum::types::{QueueInv, TaxiQueueType};
use relax_quorum::{queue_lattice_monitor, ClientConfig, QuorumSystem, VotingAssignment};
use relax_sim::{Fault, FaultSchedule, NetworkConfig, NodeId, Partition, SimTime};
use relax_trace::{EventKind, Histogram, SloMonitor, TraceAnalysis};

use crate::args::Args;
use crate::experiments::{abba, write_payload};
use crate::table::Table;

/// The class of an injected fault, as attributed by the root-cause
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultClass {
    /// A `node_crashed` in the cut.
    Crash,
    /// A `partition_set` in the cut.
    Partition,
    /// A `loss_rate_set` in the cut.
    Loss,
    /// A `gray_degraded` in the cut.
    Gray,
    /// A `link_blocked` in the cut.
    LinkBlock,
    /// A `duplication_rate_set` in the cut.
    Duplication,
}

impl FaultClass {
    /// Short lowercase name (used in the JSON artifact).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            FaultClass::Crash => "crash",
            FaultClass::Partition => "partition",
            FaultClass::Loss => "loss",
            FaultClass::Gray => "gray",
            FaultClass::LinkBlock => "link_block",
            FaultClass::Duplication => "duplication",
        }
    }
}

/// Classifies a fault-cut member; `None` for kinds that never appear in
/// cuts.
#[must_use]
pub fn classify(kind: &EventKind) -> Option<FaultClass> {
    match kind {
        EventKind::NodeCrashed { .. } => Some(FaultClass::Crash),
        EventKind::PartitionSet { .. } => Some(FaultClass::Partition),
        EventKind::LossRateSet { .. } => Some(FaultClass::Loss),
        EventKind::GrayDegraded { .. } => Some(FaultClass::Gray),
        EventKind::LinkBlocked { .. } => Some(FaultClass::LinkBlock),
        EventKind::DuplicationRateSet { .. } => Some(FaultClass::Duplication),
        _ => None,
    }
}

/// One campaign's machine-checked outcome.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Campaign name.
    pub name: &'static str,
    /// Level transitions the monitor witnessed.
    pub transitions: usize,
    /// Fault classes found across all transition cuts (sorted, unique).
    pub observed: Vec<FaultClass>,
    /// Classes the campaign's cuts must contain.
    pub required: Vec<FaultClass>,
    /// Classes the cuts may contain (superset of `required`).
    pub allowed: Vec<FaultClass>,
    /// `true` when the injected fault must be *masked*: no transitions
    /// expected even though the fault demonstrably fired.
    pub expect_masked: bool,
    /// Messages the network duplicated during the run.
    pub messages_duplicated: u64,
    /// Whether the `PQ` error budget exhausted (degrading campaigns
    /// expect `true`).
    pub slo_exhausted: bool,
    /// Staleness samples taken.
    pub samples: u64,
    /// Median per-sample replica lag, in entries.
    pub lag_p50: u64,
    /// 95th-percentile replica lag, in entries.
    pub lag_p95: u64,
    /// Maximum replica lag, in entries.
    pub lag_max: u64,
}

impl CampaignOutcome {
    /// The machine-checked verdict: the root-cause engine attributed the
    /// degradation to exactly the injected fault pattern (or, for a
    /// masked campaign, correctly stayed silent while the fault fired).
    #[must_use]
    pub fn verdict_ok(&self) -> bool {
        if self.expect_masked {
            return self.transitions == 0
                && self.observed.is_empty()
                && self.messages_duplicated > 0;
        }
        self.transitions >= 1
            && self.slo_exhausted
            && self.required.iter().all(|c| self.observed.contains(c))
            && self.observed.iter().all(|c| self.allowed.contains(c))
    }
}

/// A campaign recipe: the fault schedule, the timed workload, and the
/// attribution the root-cause engine must produce.
struct Recipe {
    name: &'static str,
    schedule: FaultSchedule,
    /// `(time, invocation)` pairs; times are multiples of the sampling
    /// cadence so submission lands exactly on a sampling boundary.
    submissions: Vec<(u64, QueueInv)>,
    required: Vec<FaultClass>,
    allowed: Vec<FaultClass>,
    expect_masked: bool,
    horizon: u64,
}

/// The five campaign names, in canonical order.
pub const CAMPAIGNS: [&str; 5] = [
    "gray_failure",
    "flapping_partition",
    "asymmetric_partition",
    "message_duplication",
    "combined",
];

const SAMPLE_EVERY: u64 = 10;
const SCRAPE_EVERY: u64 = 2 * SAMPLE_EVERY;
const PQ_BUDGET: u64 = 100;

/// Heartbeat traffic after the interesting prefix of a campaign: an
/// `Enq(k)`/`Deq` pair per two sampling boundaries. It keeps the event
/// loop (and so the SLO clock) ticking, and it makes the workload
/// *sustained* — the overhead gate prices observability against a
/// system doing real work, not an idle tail. Heartbeat priorities
/// (100+) dominate every prefix value, so dequeuing the fresh entry is
/// legal at every lattice level even while stale prefix entries linger
/// in unreachable replicas: heartbeats never add transitions, and the
/// monitor's pending-bag states stay small.
fn with_heartbeats(mut submissions: Vec<(u64, QueueInv)>, horizon: u64) -> Vec<(u64, QueueInv)> {
    let mut t = 100;
    let mut k = 100;
    while t + SAMPLE_EVERY < horizon {
        submissions.push((t, QueueInv::Enq(k)));
        submissions.push((t + SAMPLE_EVERY, QueueInv::Deq));
        t += 2 * SAMPLE_EVERY;
        k += 1;
    }
    submissions
}

fn recipe(name: &str) -> Recipe {
    let client = NodeId(3);
    match name {
        // A healthy write, then replica 0 turns gray (60× slower): the
        // next write's copy to r0 crawls, so after r0 recovers, a Deq
        // reading r0 first sees a stale view and serves 5 over the
        // pending 9. No message is ever dropped.
        "gray_failure" => Recipe {
            name: "gray_failure",
            schedule: FaultSchedule::new()
                .at(SimTime(20), Fault::GrayDegrade(NodeId(0), 60))
                .at(SimTime(50), Fault::GrayRestore(NodeId(0))),
            submissions: with_heartbeats(
                vec![
                    (0, QueueInv::Enq(5)),
                    (30, QueueInv::Enq(9)),
                    (60, QueueInv::Deq),
                ],
                600,
            ),
            required: vec![FaultClass::Gray],
            allowed: vec![FaultClass::Gray],
            expect_masked: false,
            horizon: 600,
        },
        // The partition flips sides: first it isolates {client, r2} (so
        // Enq(9) lands only at r2), then — after a brief heal — it
        // isolates r2, so the Deq reads a replica that never saw 9.
        // Both partition_set events must reach the cut.
        "flapping_partition" => Recipe {
            name: "flapping_partition",
            schedule: FaultSchedule::new()
                .at(
                    SimTime(30),
                    Fault::Partition(Partition::groups(vec![
                        vec![client, NodeId(2)],
                        vec![NodeId(0), NodeId(1)],
                    ])),
                )
                .at(SimTime(60), Fault::Heal)
                .at(
                    SimTime(70),
                    Fault::Partition(Partition::groups(vec![
                        vec![client, NodeId(0), NodeId(1)],
                        vec![NodeId(2)],
                    ])),
                ),
            submissions: with_heartbeats(
                vec![
                    (0, QueueInv::Enq(5)),
                    (40, QueueInv::Enq(9)),
                    (80, QueueInv::Deq),
                ],
                600,
            ),
            required: vec![FaultClass::Partition],
            allowed: vec![FaultClass::Partition],
            expect_masked: false,
            horizon: 600,
        },
        // Directed blocks only — every reverse link keeps working.
        // First the client cannot reach r1/r2 (Enq(9) lands only at
        // r0), then only r0 is unreachable (the Deq reads stale r1).
        "asymmetric_partition" => Recipe {
            name: "asymmetric_partition",
            schedule: FaultSchedule::new()
                .at(SimTime(30), Fault::BlockLink(client, NodeId(1)))
                .at(SimTime(30), Fault::BlockLink(client, NodeId(2)))
                .at(SimTime(60), Fault::UnblockLink(client, NodeId(1)))
                .at(SimTime(60), Fault::UnblockLink(client, NodeId(2)))
                .at(SimTime(60), Fault::BlockLink(client, NodeId(0))),
            submissions: with_heartbeats(
                vec![
                    (0, QueueInv::Enq(5)),
                    (40, QueueInv::Enq(9)),
                    (70, QueueInv::Deq),
                ],
                600,
            ),
            required: vec![FaultClass::LinkBlock],
            allowed: vec![FaultClass::LinkBlock],
            expect_masked: false,
            horizon: 600,
        },
        // Half of all messages are duplicated, but log merges are
        // idempotent: the protocol masks the fault completely. The
        // verdict demands zero transitions *and* a positive duplicate
        // count — silence must be earned, not accidental.
        "message_duplication" => Recipe {
            name: "message_duplication",
            schedule: FaultSchedule::new().at(SimTime(0), Fault::SetDuplication(0.5)),
            submissions: with_heartbeats(
                vec![
                    (0, QueueInv::Enq(5)),
                    (20, QueueInv::Enq(9)),
                    (40, QueueInv::Deq),
                    (60, QueueInv::Deq),
                ],
                600,
            ),
            required: vec![],
            allowed: vec![],
            expect_masked: true,
            horizon: 600,
        },
        // Flapping partitions on a network that is also gray-degraded at
        // r0 and duplicating 30% of messages. The cut must name both the
        // partition and the gray failure; duplication may (or may not)
        // be tangled into the causal past.
        "combined" => Recipe {
            name: "combined",
            schedule: FaultSchedule::new()
                .at(SimTime(0), Fault::GrayDegrade(NodeId(0), 2))
                .at(SimTime(0), Fault::SetDuplication(0.3))
                .at(
                    SimTime(30),
                    Fault::Partition(Partition::groups(vec![
                        vec![client, NodeId(2)],
                        vec![NodeId(0), NodeId(1)],
                    ])),
                )
                .at(SimTime(60), Fault::Heal)
                .at(
                    SimTime(70),
                    Fault::Partition(Partition::groups(vec![
                        vec![client, NodeId(0), NodeId(1)],
                        vec![NodeId(2)],
                    ])),
                ),
            submissions: with_heartbeats(
                vec![
                    (0, QueueInv::Enq(5)),
                    (40, QueueInv::Enq(9)),
                    (80, QueueInv::Deq),
                ],
                600,
            ),
            required: vec![FaultClass::Partition, FaultClass::Gray],
            allowed: vec![
                FaultClass::Partition,
                FaultClass::Gray,
                FaultClass::Duplication,
            ],
            expect_masked: false,
            horizon: 600,
        },
        other => panic!("unknown campaign {other:?}"),
    }
}

/// Quorums of one on both phases: reads hit the first responder, writes
/// commit at any single replica — the most degradation-prone point of
/// the lattice, ideal for observing faults.
fn campaign_assignment() -> VotingAssignment<QueueKind> {
    VotingAssignment::new(3)
        .with_initial(QueueKind::Enq, 0)
        .with_final(QueueKind::Enq, 1)
        .with_initial(QueueKind::Deq, 1)
        .with_final(QueueKind::Deq, 1)
}

/// How much of the observability stack a campaign run carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    /// Nothing attached: the perturbation baseline, and the baseline of
    /// the telemetry's share of a run.
    Bare,
    /// Tracing alone: the tracer's share of the telemetry.
    Tracing,
    /// Tracing and staleness sampling, without the monitor and the SLO
    /// clock: what the telemetry costs whatever the monitor costs.
    Telemetry,
    /// The degradation monitor and the SLO budget clock — the
    /// runtime-verification engine whose verdicts the campaigns exist to
    /// check — plus tracing and staleness sampling.
    Full,
}

/// Builds the campaign system. Fixed 5-tick delays make every run
/// deterministic: equal-delay responses tie-break by send order, so the
/// client's quorum-of-one read always sees replica 0 first.
fn campaign_system(seed: u64, tier: Tier) -> QuorumSystem<TaxiQueueType> {
    let mut sys = QuorumSystem::new(
        TaxiQueueType,
        3,
        campaign_assignment(),
        ClientConfig::default(),
        NetworkConfig::new(5, 5, 0.0),
        seed,
    );
    if tier == Tier::Full {
        sys = sys
            .with_monitor(queue_lattice_monitor())
            .with_slo(SloMonitor::new().budget("PQ", PQ_BUDGET));
    }
    if tier != Tier::Bare {
        sys = sys.with_trace(8192);
        // A campaign emits ~1-2k events; skip the tracer's
        // growth-realloc chain instead of paying it on every rep.
        sys.world_mut().tracer_mut().reserve_events(2048);
    }
    if matches!(tier, Tier::Telemetry | Tier::Full) {
        sys = sys.with_staleness();
    }
    sys
}

/// Drives one recipe to its horizon, stepping on the [`SAMPLE_EVERY`]
/// submission grid and sampling staleness every [`SCRAPE_EVERY`] ticks
/// (a no-op unless the tier attached a tracker).
fn drive(recipe: &Recipe, seed: u64, tier: Tier) -> QuorumSystem<TaxiQueueType> {
    let mut sys = campaign_system(seed, tier);
    sys.world_mut().set_schedule(recipe.schedule.clone());
    let mut t = 0u64;
    loop {
        for &(at, inv) in &recipe.submissions {
            if at == t {
                sys.submit(inv);
            }
        }
        if t >= recipe.horizon {
            break;
        }
        t += SAMPLE_EVERY;
        sys.run_until(SimTime(t));
        if t.is_multiple_of(SCRAPE_EVERY) {
            sys.sample_staleness();
        }
    }
    sys
}

/// Runs every campaign once at `tier` under `seed`, returning wall-clock
/// nanoseconds. The happens-before replay behind the verdicts is a
/// post-mortem tool, not a runtime cost, so no tier runs it.
fn time_suite(tier: Tier, seed: u64) -> u128 {
    let start = Instant::now();
    for c in CAMPAIGNS {
        let sys = drive(&recipe(c), seed, tier);
        std::hint::black_box(sys.outcomes().len());
    }
    start.elapsed().as_nanos()
}

/// Runs one named campaign fully instrumented and returns its
/// machine-checked outcome.
#[must_use]
pub fn run_campaign(name: &str, seed: u64) -> CampaignOutcome {
    let r = recipe(name);
    let sys = drive(&r, seed, Tier::Full);

    // Staleness quantiles from the recorded lag samples.
    let mut lags = Histogram::new();
    for e in sys.world().tracer().events() {
        if let EventKind::ReplicaLagSampled { entries_behind, .. } = e.kind {
            lags.record(entries_behind);
        }
    }

    // Replay the trace through the happens-before analysis and classify
    // every transition's minimal fault cut.
    let analysis = TraceAnalysis::from_events(sys.world().tracer().events().collect());
    let mut observed: Vec<FaultClass> = Vec::new();
    for rc in analysis.root_causes() {
        for &ix in &rc.fault_cut {
            if let Some(c) = classify(&analysis.graph().events()[ix].kind) {
                if !observed.contains(&c) {
                    observed.push(c);
                }
            }
        }
    }
    observed.sort_unstable();

    CampaignOutcome {
        name: r.name,
        transitions: analysis.root_causes().len(),
        observed,
        required: r.required,
        allowed: r.allowed,
        expect_masked: r.expect_masked,
        messages_duplicated: sys.world().messages_duplicated(),
        slo_exhausted: sys.slo().is_some_and(|s| s.exhausted("PQ")),
        samples: sys.staleness().map_or(0, |t| t.samples()),
        lag_p50: lags.p50().unwrap_or(0),
        lag_p95: lags.p95().unwrap_or(0),
        lag_max: lags.max().unwrap_or(0),
    }
}

/// Runs every campaign with the same seed.
#[must_use]
pub fn run_all(seed: u64) -> Vec<CampaignOutcome> {
    CAMPAIGNS.iter().map(|c| run_campaign(c, seed)).collect()
}

/// Runs one named campaign fully instrumented and writes its headered
/// JSONL trace to `path` — the export side of `trace_analyze
/// --staleness` (lag timeline, divergence, SLO exhaustion all come
/// from the recorded events).
pub fn export_campaign_trace(
    name: &str,
    seed: u64,
    path: impl AsRef<std::path::Path>,
) -> std::io::Result<()> {
    let r = recipe(name);
    let sys = drive(&r, seed, Tier::Full);
    sys.world().tracer().write_jsonl(path)
}

/// Renders campaign outcomes as a table.
#[must_use]
pub fn render(outcomes: &[CampaignOutcome]) -> Table {
    let mut t = Table::new([
        "campaign",
        "transitions",
        "cut classes",
        "duplicated",
        "SLO spent",
        "lag p50/p95/max",
        "verdict",
    ]);
    for o in outcomes {
        let classes = if o.observed.is_empty() {
            "-".to_string()
        } else {
            o.observed
                .iter()
                .map(|c| c.as_str())
                .collect::<Vec<_>>()
                .join("+")
        };
        t.row([
            o.name.to_string(),
            o.transitions.to_string(),
            classes,
            o.messages_duplicated.to_string(),
            if o.slo_exhausted { "exhausted" } else { "-" }.to_string(),
            format!("{}/{}/{}", o.lag_p50, o.lag_p95, o.lag_max),
            if o.verdict_ok() { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    t
}

const SEED: u64 = 0xCA11;
const REPS: usize = 301;

/// `relax-bench fault_campaign [--trace NAME PATH]`, in two halves:
///
/// * **verdicts** — every named campaign runs fully instrumented; the
///   trace is replayed through the happens-before analysis and each
///   witnessed transition's minimal fault cut is checked against the
///   injected fault pattern.
/// * **overhead** — the same deterministic workloads run, in ABBA blocks
///   of suites, with nothing attached and with the *online* telemetry —
///   tracing and staleness sampling — alone; the median per-block ratio
///   prices the telemetry (`telemetry_pct`, DESIGN §6). A second pass
///   prices tracing alone against the same bare runs (`tracing_pct`);
///   the staleness sampler's share is the difference. No tier runs the
///   offline happens-before replay behind the verdicts.
///
/// Results land in `BENCH_fault_campaign.json`; `regress` gates on its
/// `telemetry_pct` (at most 5 points over the baseline's) and on
/// `all_verdicts_ok`; `tracing_pct` is reported, not gated.
/// `--trace NAME PATH` first exports the named campaign's full JSONL
/// trace, ready for `trace_analyze PATH --staleness`.
pub fn main(args: &Args) -> Result<(), String> {
    if let Some([name, path]) = args.values("--trace") {
        if !CAMPAIGNS.contains(&name.as_str()) {
            return Err(format!("unknown campaign {name}; one of {CAMPAIGNS:?}"));
        }
        export_campaign_trace(name, SEED, path).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {name} trace to {path}");
    }

    let outcomes = run_all(SEED);
    println!("== Adversarial fault campaigns ==\n");
    print!("{}", render(&outcomes));
    let all_ok = outcomes.iter().all(|o| o.verdict_ok());
    println!(
        "\nverdicts: {}/{} campaigns attributed correctly",
        outcomes.iter().filter(|o| o.verdict_ok()).count(),
        outcomes.len()
    );

    // Warm up every timed tier, then interleave each instrumented tier's
    // suites with bare ones in ABBA blocks so machine-wide noise hits
    // both equally; all four runs of a block share one seed.
    let suite_ops: usize = CAMPAIGNS.iter().map(|c| recipe(c).submissions.len()).sum();
    for tier in [Tier::Bare, Tier::Tracing, Tier::Telemetry] {
        time_suite(tier, SEED);
    }
    let priced = |tier: Tier| {
        let timing = abba(REPS, |instrumented, rep| {
            time_suite(
                if instrumented { tier } else { Tier::Bare },
                SEED ^ (rep / 2) as u64,
            )
        });
        let pct = |ratio: f64| 100.0 * (ratio - 1.0);
        let (q1, q3) = timing.quartiles;
        (pct(timing.ratio), pct(q1), pct(q3), timing.baseline_ns)
    };
    let (telemetry_pct, telemetry_q1, telemetry_q3, bare_ns) = priced(Tier::Telemetry);
    let (tracing_pct, tracing_q1, tracing_q3, _) = priced(Tier::Tracing);

    println!("\n== Observability overhead on the campaign suite ==\n");
    println!(
        "workload: {} campaigns x {REPS} interleaved reps per tier, median per-rep ratio",
        CAMPAIGNS.len()
    );
    println!(
        "telemetry over a run with no monitor: {telemetry_pct:+.2}%  [quartiles {telemetry_q1:+.2}% .. {telemetry_q3:+.2}%]  ({bare_ns} ns bare, min run)"
    );
    println!(
        "tracing alone over the same bare runs: {tracing_pct:+.2}%  [quartiles {tracing_q1:+.2}% .. {tracing_q3:+.2}%]"
    );
    println!(
        "staleness sampling, the difference: {:+.2} points",
        telemetry_pct - tracing_pct
    );

    let campaigns_json: Vec<String> = outcomes
        .iter()
        .map(|o| {
            let classes: Vec<String> = o
                .observed
                .iter()
                .map(|c| format!("\"{}\"", c.as_str()))
                .collect();
            format!(
                "{{\"name\":\"{}\",\"transitions\":{},\"classes\":[{}],\
                 \"duplicated\":{},\"slo_exhausted\":{},\"samples\":{},\
                 \"lag_p50\":{},\"lag_p95\":{},\"lag_max\":{},\"verdict\":{}}}",
                o.name,
                o.transitions,
                classes.join(","),
                o.messages_duplicated,
                o.slo_exhausted,
                o.samples,
                o.lag_p50,
                o.lag_p95,
                o.lag_max,
                o.verdict_ok()
            )
        })
        .collect();
    let json = format!(
        "{{\"bench\":\"fault_campaign\",\"seed\":{SEED},\"reps\":{REPS},\
         \"campaigns\":[{}],\"all_verdicts_ok\":{all_ok},\
         \"telemetry_pct\":{telemetry_pct:.3},\"telemetry_q1_pct\":{telemetry_q1:.3},\
         \"telemetry_q3_pct\":{telemetry_q3:.3},\"tracing_pct\":{tracing_pct:.3},\
         \"tracing_q1_pct\":{tracing_q1:.3},\"tracing_q3_pct\":{tracing_q3:.3},\
         \"ops_per_suite\":{suite_ops}}}\n",
        campaigns_json.join(",")
    );
    write_payload("BENCH_fault_campaign.json", &json)?;
    println!("\nwrote BENCH_fault_campaign.json");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xCA11;

    #[test]
    fn gray_failure_is_attributed_without_any_drops() {
        let o = run_campaign("gray_failure", SEED);
        assert!(o.verdict_ok(), "{o:?}");
        assert_eq!(o.observed, vec![FaultClass::Gray]);
        assert!(o.transitions >= 1);
        assert!(o.slo_exhausted);
    }

    #[test]
    fn flapping_partition_cut_is_partitions_only() {
        let o = run_campaign("flapping_partition", SEED);
        assert!(o.verdict_ok(), "{o:?}");
        assert_eq!(o.observed, vec![FaultClass::Partition]);
    }

    #[test]
    fn asymmetric_partition_cut_is_link_blocks_only() {
        let o = run_campaign("asymmetric_partition", SEED);
        assert!(o.verdict_ok(), "{o:?}");
        assert_eq!(o.observed, vec![FaultClass::LinkBlock]);
    }

    #[test]
    fn duplication_is_masked_but_witnessed() {
        let o = run_campaign("message_duplication", SEED);
        assert!(o.verdict_ok(), "{o:?}");
        assert_eq!(o.transitions, 0);
        assert!(o.messages_duplicated > 0);
    }

    #[test]
    fn combined_campaign_names_both_fault_classes() {
        let o = run_campaign("combined", SEED);
        assert!(o.verdict_ok(), "{o:?}");
        assert!(o.observed.contains(&FaultClass::Partition), "{o:?}");
        assert!(o.observed.contains(&FaultClass::Gray), "{o:?}");
    }

    #[test]
    fn campaigns_sample_staleness_throughout() {
        let o = run_campaign("flapping_partition", SEED);
        assert_eq!(o.samples, 30);
        // Replica 2 holds Enq(9) alone for most of the run: lag shows.
        assert!(o.lag_max >= 1, "{o:?}");
    }

    #[test]
    fn bare_runs_match_instrumented_outcomes() {
        // Every timed tier runs the same deterministic workload as the
        // fully instrumented one (observability must not perturb the
        // system).
        for name in CAMPAIGNS {
            let r = recipe(name);
            let full = drive(&r, SEED, Tier::Full);
            for tier in [Tier::Bare, Tier::Tracing, Tier::Telemetry] {
                assert_eq!(
                    drive(&r, SEED, tier).outcomes(),
                    full.outcomes(),
                    "{tier:?} perturbed campaign {name}"
                );
            }
        }
    }
}
