//! # relax-sim — a seeded discrete-event distributed-system simulator
//!
//! The paper's environment automaton (§2.3) abstracts "changes in the
//! environment": site crashes, communication failures, network
//! partitions. This crate supplies a concrete, reproducible source of
//! such events: a discrete-event simulation of message-passing nodes with
//!
//! * virtual time ([`time::SimTime`]) and a deterministic event queue
//!   (FIFO among simultaneous events), a calendar of tick buckets that
//!   schedules and pops in O(1);
//! * a network model ([`network::Network`]) with uniform delay bounds,
//!   message-loss probability, crash/recovery, and group partitions;
//! * actor-style nodes ([`node::Node`]) exchanging typed messages and
//!   setting timers through a context ([`node::Ctx`]);
//! * timed fault schedules ([`schedule::FaultSchedule`]) injecting
//!   crashes, recoveries, partitions and loss-rate changes;
//! * optional structured tracing ([`world::World::with_trace`]): sends,
//!   deliveries, drops (with cause), timers, and injected faults become
//!   sim-time-stamped events in a bounded ring buffer, exportable as
//!   JSONL.
//!
//! All randomness flows through a single seeded
//! [`SplitMix64`](relax_automata::SplitMix64), so every run is
//! reproducible from its seed. Crashed nodes keep their state (stable
//! storage, as quorum-consensus replication assumes) but neither receive
//! nor send while down.
//!
//! ```
//! use relax_sim::prelude::*;
//!
//! // Two nodes play ping-pong until time 100.
//! struct Player { hits: u32 }
//! impl Node<&'static str> for Player {
//!     fn on_message(&mut self, ctx: &mut Ctx<'_, &'static str>, _from: NodeId, _msg: &'static str) {
//!         self.hits += 1;
//!         let me = ctx.me();
//!         let other = NodeId(1 - me.0);
//!         ctx.send(other, "ball");
//!     }
//! }
//!
//! let mut world = World::new(vec![Player { hits: 0 }, Player { hits: 0 }], NetworkConfig::default(), 42);
//! world.send_external(NodeId(0), "serve");
//! world.run_until(SimTime(100));
//! assert!(world.node(NodeId(0)).hits + world.node(NodeId(1)).hits > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod calendar;
pub mod network;
pub mod node;
pub mod schedule;
pub mod time;
pub mod world;

/// Convenient re-exports of the crate's main types.
pub mod prelude {
    pub use crate::network::{NetworkConfig, Partition};
    pub use crate::node::{Ctx, Node, NodeId};
    pub use crate::schedule::{Fault, FaultSchedule};
    pub use crate::time::SimTime;
    pub use crate::world::World;
}

pub use network::{Network, NetworkConfig, Partition};
pub use node::{Ctx, Node, NodeId};
pub use schedule::{Fault, FaultSchedule};
pub use time::SimTime;
pub use world::World;
