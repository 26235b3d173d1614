//! Pins the allocation discipline of Theorem 4's language walk.
//!
//! Each point's walk steps every state it reaches once, through
//! `ObjectAutomaton::step_all_into`, into one `Successors` buffer per
//! side whose slots keep their heap memory across calls. The walker
//! itself waits in a thread-local slot between calls, and its arenas
//! refill retired states in place. So a repeated `verify_taxi_lattice`
//! on one thread allocates only for what it returns (the result, the
//! alphabet, the automata): a constant, not one allocation per step or
//! per new state. A step that builds its successors in fresh vectors, a
//! walker built per call, or an arena that clones each new state again
//! fails here.
//!
//! Single `#[test]` on purpose: the counting allocator is process-global
//! and concurrent tests would double-count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use relaxation_lattice::automata::EngineProbe;
use relaxation_lattice::core::theorem4::{
    verify_taxi_lattice, verify_taxi_lattice_probed, TaxiVerification,
};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

/// Sums the walk's `state_steps` counter: one per `step_all_into` call.
#[derive(Default)]
struct StepCount(u64);

impl EngineProbe for StepCount {
    fn is_enabled(&self) -> bool {
        true
    }
    fn enter(&mut self, _name: &'static str) {}
    fn exit(&mut self, _name: &'static str) {}
    fn add(&mut self, name: &'static str, delta: u64) {
        if name == "state_steps" {
            self.0 += delta;
        }
    }
    fn gauge(&mut self, _name: &'static str, _value: i64) {}
}

/// Allocations a repeated (3, 8) verification may make, whatever its
/// step count.
const WARM_CALL_ALLOCS: u64 = 64;

#[test]
fn a_repeated_theorem4_walk_allocates_a_constant_not_per_step() {
    let items = [1, 2, 3];
    let mut steps = StepCount::default();
    let before = ALLOCS.load(Ordering::Relaxed);
    let reference = verify_taxi_lattice_probed(&items, 8, &mut steps);
    let cold = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(steps.0, 1022, "the (3, 8) walk's state_steps moved");

    let before = ALLOCS.load(Ordering::Relaxed);
    let verification = verify_taxi_lattice(&items, 8);
    let warm = ALLOCS.load(Ordering::Relaxed) - before;
    let sizes = |v: &TaxiVerification| v.points.iter().map(|p| p.language_size).collect::<Vec<_>>();
    assert_eq!(sizes(&verification), sizes(&reference));

    // Measured: 48 allocations for the warm call against 856 for the
    // cold one before it, which builds the walker (1,277 while the walk
    // built its last level and kept a state table). With a walker built
    // per call every call made 1,523 (0.94 a step: one clone per new
    // state, plus table growth); with the walker kept but each new state
    // cloned again, the warm call made 1,285. Before the buffered step
    // (`step_all` returning `Vec<Vec<State>>`) the walk made 16,894
    // (10.5 a step).
    assert!(
        warm <= WARM_CALL_ALLOCS,
        "a repeated (3, 8) walk made {warm} allocations (bound {WARM_CALL_ALLOCS}; the cold \
         call made {cold} for {} steps): is the walker rebuilt, or a new state cloned, per call?",
        steps.0
    );
}
