//! The operational replicated object, by its historical path.
//!
//! This module holds no code. The runtime lives one file per role — the
//! protocol core in [`crate::protocol`] (`wire`, `client`, `replica`),
//! the simulator executor in [`crate::sim_exec`], the threaded one in
//! [`crate::threaded`], and [`ReplicatedType`] with the taxi-queue and
//! bank-account presets in [`crate::types`] — and every name that used
//! to be defined here is re-exported, so `relax_quorum::runtime::…`
//! imports in tests, experiments and the repo's benchmark resolve
//! unchanged.
//!
//! One replication path runs everywhere: clients ship each replica the
//! entries their record of it lacks and read back the entries above
//! their frontier ([`crate::log`]), and replicas repair each other by
//! Merkle walk ([`crate::merkle`]). The other [`ReplicationMode`] turns a
//! client into the paper-literal reference — whole logs, fresh
//! evaluation — that `tests/delta_equivalence.rs` and the benchmark
//! compare the production path against, message for message.

pub use crate::protocol::client::{ClientBookkeeping, ClientState};
pub use crate::protocol::replica::ReplicaState;
pub use crate::protocol::wire::{msg_wire_bytes, ClientConfig, Msg, Outcome, ReplicationMode};
pub use crate::sim_exec::{QuorumSystem, RoleNode};
pub use crate::types::{
    queue_lattice_monitor, AccountInv, BankAccountType, QueueInv, ReplicatedType,
    TaxiQueuePrimeType, TaxiQueueType,
};
