//! Actor-style nodes and their execution context.

use relax_automata::SplitMix64;
use relax_trace::{EventKind, Tracer};

use crate::time::SimTime;

/// Identifies a node in the simulated system (site, client, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An output action a node can request during a handler invocation.
#[derive(Debug, Clone)]
pub(crate) enum Action<P> {
    Send { dst: NodeId, payload: P },
    Timer { delay: u64, token: u64 },
}

/// The context handed to node handlers: send messages, set timers, read
/// the clock, draw randomness, record trace events.
#[derive(Debug)]
pub struct Ctx<'a, P> {
    pub(crate) me: NodeId,
    pub(crate) now: SimTime,
    pub(crate) rng: &'a mut SplitMix64,
    pub(crate) tracer: &'a mut Tracer,
    pub(crate) actions: Vec<Action<P>>,
}

impl<'a, P> Ctx<'a, P> {
    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The world's RNG (seeded; all draws are reproducible).
    pub fn rng(&mut self) -> &mut SplitMix64 {
        self.rng
    }

    /// Records the trace event `make` builds at the current virtual time;
    /// `make` runs only while the world collects a trace.
    #[inline]
    pub fn trace(&mut self, make: impl FnOnce() -> EventKind) {
        if self.tracer.is_enabled() {
            self.tracer.record(self.now.0, make());
        }
    }

    /// Sends `payload` to `dst` (subject to the network model: delay,
    /// loss, partitions, crashes).
    pub fn send(&mut self, dst: NodeId, payload: P) {
        self.actions.push(Action::Send { dst, payload });
    }

    /// Requests a timer callback after `delay` ticks, carrying `token`.
    /// Timers fire even across the node's own crashes only if the node is
    /// up at expiry.
    pub fn set_timer(&mut self, delay: u64, token: u64) {
        self.actions.push(Action::Timer { delay, token });
    }
}

/// A simulated node: message and timer handlers.
///
/// Handlers run atomically at a virtual instant; all effects go through
/// the [`Ctx`].
pub trait Node<P> {
    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, ctx: &mut Ctx<'_, P>, from: NodeId, msg: P);

    /// Called when a timer set via [`Ctx::set_timer`] expires. The default
    /// ignores timers.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, P>, token: u64) {
        let _ = (ctx, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_records_actions() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let mut tracer = Tracer::bounded(8);
        let mut ctx: Ctx<'_, u8> = Ctx {
            me: NodeId(3),
            now: SimTime(17),
            rng: &mut rng,
            tracer: &mut tracer,
            actions: Vec::new(),
        };
        assert_eq!(ctx.me(), NodeId(3));
        assert_eq!(ctx.now(), SimTime(17));
        ctx.send(NodeId(0), 42);
        ctx.set_timer(5, 99);
        ctx.trace(|| EventKind::NodeRecovered { node: 3 });
        assert_eq!(ctx.actions.len(), 2);
        let e = tracer.events().next().unwrap();
        assert_eq!(e.time, 17);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(4).to_string(), "n4");
    }
}
