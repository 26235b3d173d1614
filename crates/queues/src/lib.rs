//! # relax-queues — the paper's object types
//!
//! Native Rust value types and simple object automata for every data type
//! in Herlihy & Wing's PODC'87 paper:
//!
//! | Paper artifact | Value type | Automaton |
//! |----------------|------------|-----------|
//! | Fig 2-1/2-2 Bag | [`bag::Bag`] | [`bag::BagAutomaton`] |
//! | Fig 2-3/2-4 FIFO queue | [`fifo::Fifo`] | [`fifo::FifoAutomaton`] |
//! | Fig 3-1/3-2 Priority queue | [`bag::Bag`] + `best` | [`pqueue::PQueueAutomaton`] |
//! | Fig 3-3 Multi-priority queue | [`mpq::Mpq`] | [`mpq::MpqAutomaton`] |
//! | Fig 3-4 Out-of-order priority queue | [`bag::Bag`] | [`opq::OpqAutomaton`] |
//! | Fig 3-5 Degenerate priority queue | [`bag::Bag`] | [`degen::DegenPqAutomaton`] |
//! | §3.4 Bank account | [`account::Account`] | [`account::AccountAutomaton`] |
//! | Fig 4-1 Semiqueue_k | [`fifo::Fifo`] | [`semiqueue::SemiqueueAutomaton`] |
//! | Fig 4-3 Stuttering_j queue | [`stuttering::StutQ`] | [`stuttering::StutteringAutomaton`] |
//! | §4.2.2 SSqueue_{j,k} | [`ssqueue::SsState`] | [`ssqueue::SsQueueAutomaton`] |
//!
//! Operations are *operation executions* — invocation plus response, e.g.
//! `Enq(5)/Ok()` — shared across the queue family as [`ops::QueueOp`] so
//! languages of different automata can be compared directly (§2.2's
//! lattices require a common alphabet).
//!
//! The module [`eval`] provides the evaluation functions `η` (and the
//! alternative `η′`) of §3.3, and [`spec`] the pre/postcondition view of
//! each data type used by the quorum-consensus construction (§3.2).
//! [`to_term`] bridges native values to `relax-spec` terms so the native
//! implementations can be cross-validated against the algebraic theories
//! (tests do this with proptest).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod account;
pub mod bag;
pub mod degen;
pub mod discard;
pub mod eval;
pub mod fifo;
pub mod mpq;
pub mod opq;
pub mod ops;
pub mod pqueue;
pub mod semiqueue;
pub mod spec;
pub mod ssqueue;
pub mod stuttering;
pub mod to_term;

/// Convenient re-exports of the crate's main types.
pub mod prelude {
    pub use crate::account::{Account, AccountAutomaton};
    pub use crate::bag::{Bag, BagAutomaton};
    pub use crate::degen::DegenPqAutomaton;
    pub use crate::discard::DiscardingPqAutomaton;
    pub use crate::eval::{AccountEval, Eta, EtaPrime, Eval};
    pub use crate::fifo::{Fifo, FifoAutomaton};
    pub use crate::mpq::{Mpq, MpqAutomaton};
    pub use crate::opq::OpqAutomaton;
    pub use crate::ops::{account_alphabet, queue_alphabet, AccountOp, Item, QueueOp};
    pub use crate::pqueue::PQueueAutomaton;
    pub use crate::semiqueue::SemiqueueAutomaton;
    pub use crate::spec::{AccountValueSpec, PqValueSpec, ValueSpec};
    pub use crate::ssqueue::{SsQueueAutomaton, SsState};
    pub use crate::stuttering::{StutQ, StutteringAutomaton};
    pub use crate::to_term::ToTerm;
}

pub use account::{Account, AccountAutomaton};
pub use bag::{Bag, BagAutomaton};
pub use degen::DegenPqAutomaton;
pub use discard::DiscardingPqAutomaton;
pub use eval::{AccountEval, Eta, EtaPrime, Eval};
pub use fifo::{Fifo, FifoAutomaton};
pub use mpq::{Mpq, MpqAutomaton};
pub use opq::OpqAutomaton;
pub use ops::{account_alphabet, queue_alphabet, AccountOp, Item, QueueOp};
pub use pqueue::PQueueAutomaton;
pub use semiqueue::SemiqueueAutomaton;
pub use spec::{AccountValueSpec, PqValueSpec, ValueSpec};
pub use ssqueue::{SsQueueAutomaton, SsState};
pub use stuttering::{StutQ, StutteringAutomaton};
pub use to_term::ToTerm;
