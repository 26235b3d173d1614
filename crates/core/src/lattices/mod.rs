//! The paper's three prebuilt relaxation lattices.

pub mod account;
pub mod semiqueue;
pub mod taxi;
