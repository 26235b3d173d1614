//! The sans-IO protocol core: §3.1's three steps as two state machines
//! that do nothing but mutate themselves and call a
//! [`crate::backend::Transport`].
//!
//! * [`wire`] — the messages, their modeled size, an invocation's
//!   outcome;
//! * [`client`] — merge an initial quorum's logs into a view, choose a
//!   response, record the updated view at a final quorum;
//! * [`replica`] — hold a log, answer reads, merge writes, repair
//!   divergence with peers by hash-tree walk.
//!
//! Nothing here knows what moves the messages or fires the timers: the
//! simulator ([`crate::sim_exec`]) and the threaded backend
//! ([`crate::threaded`]) drive the same code.

pub mod client;
pub mod replica;
pub mod wire;
