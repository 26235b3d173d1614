//! # relax-quorum — quorum-consensus replication and QCA automata
//!
//! Implements §3.1–§3.2 of Herlihy & Wing (PODC 1987), following the
//! quorum-consensus replication method of Herlihy's TOCS'86 paper \[13\]:
//!
//! * [`timestamp`] — logical timestamps (Lamport clocks) identifying log
//!   entries;
//! * [`log`] — replica logs: timestamped operation records, merged in
//!   timestamp order with duplicates discarded;
//! * [`frontier`] — per-site summaries of a log's entry set (the table
//!   delta replication ships against), and [`Staleness`], the sampler
//!   that reads every replica's table in place for per-replica lag and
//!   pairwise divergence;
//! * [`merkle`] — per-site Merkle trees over the timestamp space, the
//!   O(log n) divergence-localizing refinement of [`frontier`] behind
//!   replica-to-replica anti-entropy;
//! * [`relation`] — quorum intersection relations `Q` between invocations
//!   and operations (`inv(p) Q q` ⇔ every initial quorum for `p`
//!   intersects every final quorum for `q`);
//! * [`assignment`] — quorum assignments by weighted voting (Gifford),
//!   with the induced intersection relation and enumeration of all
//!   assignments realizing a given relation;
//! * [`view`] — `Q`-closed subhistories and `Q`-views (Definitions 1–2);
//! * [`qca`] — the quorum consensus automaton `QCA(A, Q, η)`
//!   (§3.2): state = accepted history, transitions via `Q`-views
//!   evaluated through `η` against the type's pre/postconditions;
//! * [`serialdep`] — bounded checking of *serial dependency relations*
//!   (Definition 3) and minimality;
//! * [`protocol`] — the sans-IO protocol core, one file per role:
//!   replicas hold logs, clients run the three-step quorum protocol
//!   (merge an initial quorum's logs into a view; choose a response;
//!   record at a final quorum), `wire` is what travels between them;
//! * [`types`] — the `ReplicatedType` a runtime replicates, with the
//!   taxi-queue and bank-account presets;
//! * [`backend`] — the `Executor` / `Transport` / `ClientTable` trait
//!   split separating the protocol state machines from their execution
//!   substrate, and the `LayerCounts` both executors publish;
//! * [`sim_exec`] — the simulator executor: `QuorumSystem` over
//!   `relax-sim`, used by the availability and latency experiments;
//! * [`runtime`] — six re-exports the benchmark package still imports
//!   by their old path;
//! * [`threaded`] — the sharded wall-clock backend: batching
//!   per-replica brokers, group-committed log appends, one OS thread
//!   per replica and per shard, differentially tested against the sim;
//! * [`calm`] — the CALM monotonicity analyzer (language equality on
//!   QCAs plus response-stability enumeration) and the
//!   `SchedulingPolicy` that routes monotone operation kinds onto a
//!   coordination-free fast path in both backends.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assignment;
pub mod backend;
pub mod calm;
pub mod frontier;
pub mod log;
pub mod merkle;
pub mod protocol;
pub mod qca;
pub mod relation;
pub mod repview;
pub mod runtime;
pub mod serialdep;
pub mod sim_exec;
pub mod threaded;
pub mod timestamp;
pub mod types;
pub mod view;
pub mod viewcache;
pub mod voting;

pub use assignment::VotingAssignment;
pub use backend::{
    outcome_shapes, ClientTable, Executor, LayerCounts, OutcomeShape, RunStats, Transport,
};
pub use calm::{analyze, analyze_account, analyze_taxi, CalmReport, SchedulingPolicy, Verdict};
pub use frontier::{Frontier, SiteSummary, Staleness};
pub use log::{DiffScratch, Entry, Log};
pub use merkle::{MerkleIndex, MerkleNode, NodeRange};
pub use protocol::wire::{ClientConfig, ReplicationMode};
pub use qca::QcaAutomaton;
pub use relation::{queue_relation, HasKind, IntersectionRelation, QueueKind};
pub use repview::RepViewAutomaton;
pub use serialdep::{check_serial_dependency, is_minimal_serial_dependency};
pub use sim_exec::QuorumSystem;
pub use threaded::{ThreadedConfig, ThreadedSystem};
pub use timestamp::{LogicalClock, Timestamp};
pub use types::{queue_lattice_monitor, ReplicatedType};
pub use view::{is_q_closed, q_views};
pub use viewcache::ViewCache;
pub use voting::WeightedVoting;
