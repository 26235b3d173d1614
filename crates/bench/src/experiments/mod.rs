//! Experiment implementations, one module per paper artifact.

pub mod account;
pub mod availability;
pub mod calm;
pub mod campaign;
pub mod concurrency;
pub mod degradation;
pub mod eta_ablation;
pub mod figures;
pub mod growth;
pub mod latency;
pub mod lattices;
pub mod markov;
pub mod par;
pub mod prob;
pub mod profile;
pub mod realtime;
pub mod regress;
pub mod serialdep;
pub mod theorem4;
pub mod voting;
