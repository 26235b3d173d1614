//! The engine-side profiling hook: a zero-cost-when-disabled sink for
//! hierarchical spans, counters, and gauges.
//!
//! The language walk ([`crate::multiwalk`]) accepts any [`EngineProbe`]
//! and reports per-depth frontier sizes, cons-table load, arena bytes,
//! and row-memo hit rates through it. The trait lives *here*, below
//! every other crate in the workspace, so the recording implementation
//! (`relax-trace`'s `profile::Probe`) can depend on the engine rather
//! than the other way around.
//!
//! Every method has an empty default body and the instrumented walks
//! are generic over the probe type, so the un-probed entry points
//! (which pass [`NoopProbe`]) monomorphize to exactly the code they
//! compiled to before instrumentation existed: no branch, no call, no
//! clock read. The repo's benchmark reports the *enabled* path against
//! this compiled-out baseline (`lattice_verify`,
//! `bench.trace_overhead_pct`).
//!
//! Conventions the recording side relies on:
//!
//! * `enter`/`exit` calls are properly nested (LIFO) and carry the same
//!   name on both edges of a span;
//! * names are short `&'static str`s (≤ 14 bytes — the trace layer
//!   stores them in a fixed-width inline label);
//! * hot loops batch their tallies locally and call [`EngineProbe::add`]
//!   once per depth, never once per node.

/// A sink for profiling spans, counters, and gauges emitted by the
/// engine walks. All methods default to no-ops; see the module docs
/// for the nesting and naming conventions.
pub trait EngineProbe {
    /// True when the probe records anything at all. Instrumentation
    /// may use this to skip work that only feeds the probe (it is
    /// *not* required before calling the other methods).
    #[inline]
    fn is_enabled(&self) -> bool {
        false
    }

    /// Opens a span. Must be matched by an [`EngineProbe::exit`] with
    /// the same name, properly nested with other spans.
    #[inline]
    fn enter(&mut self, _name: &'static str) {}

    /// Closes the innermost open span; `name` must match the `enter`.
    #[inline]
    fn exit(&mut self, _name: &'static str) {}

    /// Adds `delta` to the named monotone counter.
    #[inline]
    fn add(&mut self, _name: &'static str, _delta: u64) {}

    /// Records one sample of the named gauge. Samples are attributed
    /// to the innermost span open at the time of the call, so a gauge
    /// recorded once per depth yields a per-depth timeline.
    #[inline]
    fn gauge(&mut self, _name: &'static str, _value: i64) {}
}

/// The disabled probe: every method is an inlined no-op, so walks
/// instantiated with it compile to their un-instrumented form.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProbe;

impl EngineProbe for NoopProbe {}

impl<P: EngineProbe> EngineProbe for &mut P {
    #[inline]
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }
    #[inline]
    fn enter(&mut self, name: &'static str) {
        (**self).enter(name)
    }
    #[inline]
    fn exit(&mut self, name: &'static str) {
        (**self).exit(name)
    }
    #[inline]
    fn add(&mut self, name: &'static str, delta: u64) {
        (**self).add(name, delta)
    }
    #[inline]
    fn gauge(&mut self, name: &'static str, value: i64) {
        (**self).gauge(name, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Recording(Vec<String>);

    impl EngineProbe for Recording {
        fn is_enabled(&self) -> bool {
            true
        }
        fn enter(&mut self, name: &'static str) {
            self.0.push(format!("enter {name}"));
        }
        fn exit(&mut self, name: &'static str) {
            self.0.push(format!("exit {name}"));
        }
        fn add(&mut self, name: &'static str, delta: u64) {
            self.0.push(format!("add {name} {delta}"));
        }
        fn gauge(&mut self, name: &'static str, value: i64) {
            self.0.push(format!("gauge {name} {value}"));
        }
    }

    fn drive(mut probe: impl EngineProbe) -> bool {
        probe.enter("walk");
        probe.add("nodes", 3);
        probe.gauge("frontier_nodes", 3);
        probe.exit("walk");
        probe.is_enabled()
    }

    #[test]
    fn noop_probe_reports_disabled_and_swallows_everything() {
        assert!(!drive(NoopProbe));
    }

    #[test]
    fn mut_ref_forwarding_reaches_the_underlying_probe() {
        let mut rec = Recording::default();
        assert!(drive(&mut rec));
        assert_eq!(
            rec.0,
            vec![
                "enter walk",
                "add nodes 3",
                "gauge frontier_nodes 3",
                "exit walk"
            ]
        );
    }
}
