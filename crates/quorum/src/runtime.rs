//! Six names by their historical path.
//!
//! This module holds no code. The runtime lives one file per role — the
//! protocol core in [`crate::protocol`] (`wire`, `client`, `replica`),
//! the simulator executor in [`crate::sim_exec`], the threaded one in
//! [`crate::threaded`], and [`ReplicatedType`] with the taxi-queue and
//! bank-account presets in [`crate::types`] — and everything in the
//! workspace imports from there or from the crate root. What is left
//! here is what the benchmark package (`benchmark/src`) still imports as
//! `relax_quorum::runtime::…`; the module goes once those imports move.

pub use crate::protocol::wire::Outcome;
pub use crate::types::{AccountInv, BankAccountType, QueueInv, ReplicatedType, TaxiQueueType};
