//! Pins the allocation discipline of Theorem 4's language walk.
//!
//! Each point's walk steps every state it reaches once, through
//! `ObjectAutomaton::step_all_into`, into one `Successors` buffer per
//! side whose slots keep their heap memory across calls. So a warm
//! `verify_taxi_lattice` allocates for what it keeps (a state it has not
//! seen before, its tables' growth) and nothing per step. A step that
//! builds its successors in fresh vectors again allocates several times
//! per call and fails here, naming the step.
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

#[test]
fn a_warm_theorem4_walk_allocates_per_new_state_not_per_step() {
    let items = [1, 2, 3];
    let mut steps = StepCount::default();
    let reference = verify_taxi_lattice_probed(&items, 8, &mut steps);
    assert_eq!(steps.0, 1616, "the (3, 8) walk's state_steps moved");

    let before = ALLOCS.load(Ordering::Relaxed);
    let verification = verify_taxi_lattice(&items, 8);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let sizes = |v: &TaxiVerification| v.points.iter().map(|p| p.language_size).collect::<Vec<_>>();
    assert_eq!(sizes(&verification), sizes(&reference));

    // `state_steps` counts the (point, state) pairs the walks interned
    // and stepped. Measured: 1,523 allocations for its 1,616 steps (0.94
    // a step). One walk of all four points in a tuple made 1,440: it
    // interned a state two points share once, where each point's own
    // walk clones it again. One more allocation per Rep-view step read
    // 2,248. Before the buffered step (`step_all` returning
    // `Vec<Vec<State>>`) the same walk made 16,894 (10.5 a step).
    let bound = steps.0 * 5 / 4;
    assert!(
        allocs <= bound,
        "a warm (3, 8) walk made {allocs} allocations for {} steps (bound {bound}): \
         does a step_all_into allocate per call again?",
        steps.0
    );
}
