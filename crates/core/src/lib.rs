//! # relax-core — the relaxation lattice method
//!
//! This crate packages the contribution of Herlihy & Wing, *Specifying
//! Graceful Degradation in Distributed Systems* (PODC 1987): relaxation
//! lattices — lattices of specifications parameterized by constraint
//! sets, connected to automata by a lattice homomorphism `φ : 2^C → A` —
//! together with the paper's three worked examples, its theorem, and its
//! probabilistic interface:
//!
//! * [`lattices::taxi`] — the replicated real-time priority queue of
//!   §3.3: `{QCA(PQ, R, η) | R ⊆ {Q1, Q2}}` with the four named
//!   behaviors PQueue / MPQ / OPQ / DegenPQ;
//! * [`lattices::account`] — the replicated bank account of §3.4: a
//!   *sublattice* of `2^{A1, A2}` (A2 is never relaxed: no overdrafts,
//!   spurious bounces tolerated);
//! * [`lattices::semiqueue`] — the atomic queue lattices of §4.2:
//!   `Semiqueue_k`, `Stuttering_j`, and the combined `SSqueue_{j,k}`
//!   (Figure 4-2's table is regenerated mechanically);
//! * [`theorem4`] — a bounded verifier for Theorem 4
//!   (`L(QCA(PQ, Q1, η)) = L(MPQ)`) and its `{Q2}` / `∅` analogues;
//! * [`prob`] — the probabilistic interface of §2.3/§3.3: constraint
//!   models, the analytic `(0.1)^n` top-`n` claim with its Monte Carlo
//!   counterpart, and a small Markov-chain environment model;
//! * [`cost`] — the cost dimensions of Figure 5-1 made computable:
//!   quorum availability under site failures, latency proxies,
//!   concurrency throughput;
//! * [`summary`] — Figure 5-1 (the summary chart) regenerated from the
//!   registered lattices.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod lattices;
pub mod prob;
pub mod summary;
pub mod theorem4;

/// Convenient re-exports of the crate's main types.
pub mod prelude {
    pub use crate::cost::{operation_availability, quorum_availability, CostDimension};
    pub use crate::lattices::account::AccountLattice;
    pub use crate::lattices::semiqueue::{SemiqueueLattice, SsQueueLattice, StutteringLattice};
    pub use crate::lattices::taxi::{TaxiLattice, TaxiPoint};
    pub use crate::prob::{
        top_n_miss_analytic, top_n_miss_monte_carlo, ConstraintModel, MarkovChain,
    };
    pub use crate::summary::{summary_chart, SummaryRow};
    pub use crate::theorem4::{verify_taxi_lattice, verify_taxi_lattice_probed, TaxiVerification};
}

pub use cost::{operation_availability, quorum_availability, CostDimension};
pub use lattices::account::AccountLattice;
pub use lattices::semiqueue::{SemiqueueLattice, SsQueueLattice, StutteringLattice};
pub use lattices::taxi::{TaxiLattice, TaxiPoint};
pub use prob::{top_n_miss_analytic, top_n_miss_monte_carlo, ConstraintModel, MarkovChain};
pub use summary::{summary_chart, SummaryRow};
pub use theorem4::{verify_taxi_lattice, verify_taxi_lattice_probed, TaxiVerification};
