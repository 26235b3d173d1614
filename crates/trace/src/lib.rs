//! # relax-trace — structured tracing, metrics, and degradation monitoring
//!
//! Observability for the workspace's simulator and quorum runtime:
//!
//! * [`event`] — the trace vocabulary, declared once: one table names
//!   every [`event::EventKind`] variant, its JSONL tag and its fields,
//!   and expands into the enum, its writer and its reader; the shared
//!   string vocabularies ([`event::DropCause`], [`event::OpOutcome`],
//!   [`event::QuorumPhase`]) used by the simulator's network and the
//!   quorum client runtime are declared the same way.
//! * [`tracer`] — the bounded ring-buffer collector ([`tracer::Tracer`]);
//!   disabled by default so instrumented hot paths cost one branch when
//!   tracing is off.
//! * [`metrics`] — counters, gauges, exact histograms with
//!   p50/p95/p99 and `merge`, a named [`metrics::Registry`], and the one
//!   table of names the quorum executors publish.
//! * [`monitor`] — the online degradation monitor
//!   ([`monitor::DegradationMonitor`]): per-level language-membership
//!   frontiers over a relaxation lattice (Herlihy & Wing, PODC 1987),
//!   emitting [`monitor::LevelTransition`]s with witness operations the
//!   moment the observed history falls out of a level.
//! * [`codec`] — the JSONL format itself: how each field type is
//!   written and read back, the one exporter behind
//!   [`tracer::Tracer::export_jsonl`] and [`profile::Probe::write_jsonl`],
//!   a versioned [`codec::TraceHeader`], and [`codec::read_trace`], which
//!   re-ingests any exported trace into typed events.
//! * [`causality`] — the happens-before DAG over a trace
//!   ([`causality::HbGraph`]): program order per node, send→deliver
//!   edges paired by message id, fault-attribution edges; per-operation
//!   [`causality::Span`]s with critical-path latency attribution
//!   ([`causality::LatencyBreakdown`]).
//! * [`analyze`] — degradation root-cause: walk a witnessed
//!   [`monitor::LevelTransition`] backwards through the DAG to the
//!   minimal cut of fault events that caused it, rendered as a
//!   human-readable report ([`analyze::TraceAnalysis`]).
//! * [`profile`] — the engine flight recorder: a recording
//!   [`profile::Probe`] (hierarchical wall-time spans, batched
//!   counters and per-depth gauges, recorded into a
//!   [`tracer::Tracer`]) behind the engine's zero-cost
//!   `EngineProbe` seam, and [`profile::ProfileReport`] with exact-sum
//!   self/child attribution, hot-span rankings, and folded-stack
//!   export.
//! * [`staleness`] — replication staleness telemetry: degradation SLO
//!   error budgets with witnessed exhaustion events
//!   ([`staleness::SloMonitor`]) and the timeline report
//!   ([`staleness::staleness_report`]); the per-replica lag and pairwise
//!   divergence events it reports are sampled in `relax-quorum`
//!   (`relax_quorum::Staleness`), which reads the replica logs' site
//!   tables in place.
//!
//! ```
//! use relax_trace::prelude::*;
//!
//! let mut tracer = Tracer::bounded(1024);
//! tracer.record(5, EventKind::NodeCrashed { node: 2 });
//! tracer.record(9, EventKind::PartitionHealed);
//! assert_eq!(tracer.export_jsonl().lines().count(), 3); // header + 2
//!
//! let mut reg = Registry::new();
//! reg.counter("deq").record(true);
//! reg.histogram("latency").record(42);
//! assert!(reg.to_json().contains("\"deq\""));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod causality;
pub mod codec;
pub mod event;
pub mod metrics;
pub mod monitor;
pub mod profile;
pub mod staleness;
pub mod tracer;

/// Convenient re-exports of the crate's main types.
pub mod prelude {
    pub use crate::analyze::TraceAnalysis;
    pub use crate::causality::{HbGraph, LatencyBreakdown, Span};
    pub use crate::codec::{read_trace, ParsedTrace, TraceHeader};
    pub use crate::event::{
        DropCause, Event, EventKind, OpLabel, OpOutcome, Origin, PartitionGroups, QuorumPhase,
    };
    pub use crate::metrics::{Counter, Gauge, Histogram, Registry, TimeBase};
    pub use crate::monitor::{DegradationMonitor, LevelTransition};
    pub use crate::profile::{parse_folded, GaugeSeries, HotSpan, Probe, ProfileReport, SpanNode};
    pub use crate::staleness::{staleness_report, SloMonitor, SloViolation};
    pub use crate::tracer::Tracer;
}

pub use analyze::TraceAnalysis;
pub use causality::{HbGraph, LatencyBreakdown, Span};
pub use codec::{read_trace, ParsedTrace, TraceHeader};
pub use event::{
    DropCause, Event, EventKind, OpLabel, OpOutcome, Origin, PartitionGroups, QuorumPhase,
};
pub use metrics::{Counter, Gauge, Histogram, Registry, TimeBase};
pub use monitor::{DegradationMonitor, LevelTransition};
pub use profile::{parse_folded, GaugeSeries, HotSpan, Probe, ProfileReport, SpanNode};
pub use staleness::{staleness_report, SloMonitor, SloViolation};
pub use tracer::Tracer;
