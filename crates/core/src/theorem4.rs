//! Bounded verification of Theorem 4 and its siblings (§3.3).
//!
//! **Theorem 4.** `L(QCA(PQ, Q1, η)) = L(MPQ)`.
//!
//! The paper proves this by induction on history length; this module
//! checks both inclusions exhaustively for all histories up to a length
//! bound over a finite item alphabet — exercising every case of the
//! induction — and does the same for the other lattice points:
//! `{Q1, Q2} ↔ PQ`, `{Q2} ↔ OPQ`, `∅ ↔ DegenPQ`.
//!
//! The walker the four points walk through outlives the call: it waits in
//! a thread-local slot between verifications, so a thread that verifies
//! again walks in the buffers of its last walk. A thread keeps the
//! capacity of the largest walk it ran until it exits.

use std::cell::RefCell;

use relax_automata::language::naive;
use relax_automata::{
    CompareOptions, EngineProbe, History, LanguageDifference, LanguageWalker, NoopProbe,
};
use relax_queues::{queue_alphabet, Item, QueueOp};
use relax_quorum::repview::RepViewAutomaton;

use crate::lattices::taxi::{PackedTaxiReference, TaxiLattice, TaxiPoint};

thread_local! {
    /// The walker of this thread's last [`verify_taxi_lattice_probed`]
    /// call, empty until the first one returns. A call takes it out for
    /// its four walks and puts it back after them; a call that finds the
    /// slot empty (the first, one nested inside another, one after a
    /// panic mid-walk) builds a fresh walker.
    static WALKER: RefCell<Option<LanguageWalker<RepViewAutomaton, PackedTaxiReference>>> =
        const { RefCell::new(None) };
}

/// Verification result for one lattice point.
#[derive(Debug, Clone)]
pub struct PointVerification {
    /// Which point was verified.
    pub point: TaxiPoint,
    /// The reference behavior's name.
    pub behavior: &'static str,
    /// Number of histories in the (common) language up to the bound.
    pub language_size: usize,
    /// Peak working-set width of the check: for the engine the widest
    /// level this point's own walk built, in *nodes* (the last level is
    /// counted, not built); for the naive enumerator the widest
    /// per-length frontier in *histories*.
    pub peak_frontier: usize,
    /// `None` if the languages agree up to the bound; otherwise the
    /// difference.
    pub difference: Option<LanguageDifference<QueueOp>>,
}

impl PointVerification {
    /// Did this point verify?
    pub fn holds(&self) -> bool {
        self.difference.is_none()
    }
}

/// Verification of the whole taxi lattice.
#[derive(Debug, Clone)]
pub struct TaxiVerification {
    /// Per-point results, strongest point first.
    pub points: Vec<PointVerification>,
    /// The item alphabet used.
    pub items: Vec<Item>,
    /// The history-length bound used.
    pub max_len: usize,
}

impl TaxiVerification {
    /// Did every point verify?
    pub fn holds(&self) -> bool {
        self.points.iter().all(PointVerification::holds)
    }

    /// The widest working set across all points (see
    /// [`PointVerification::peak_frontier`] for units).
    pub fn peak_frontier(&self) -> usize {
        self.points
            .iter()
            .map(|p| p.peak_frontier)
            .max()
            .unwrap_or(0)
    }

    /// The Theorem-4 point (`{Q1}` ↔ MPQ) specifically.
    pub fn theorem_4(&self) -> &PointVerification {
        self.points
            .iter()
            .find(|p| p.point.q1 && !p.point.q2)
            .expect("all four points are present")
    }
}

/// Runs the bounded verification: for each of the four lattice points,
/// checks `L(QCA(PQ, R, η)) = L(reference)` for histories of length
/// ≤ `max_len` over `items` — one walk per point, in turn, through
/// **one reused walker**.
///
/// Three layers keep it small:
///
/// 1. The QCA side of each point is its [`RepViewAutomaton`] quotient —
///    an exact bisimulation (`L(RepView) = L(QCA)`, verified
///    differentially in `relax-quorum`), collapsing the QCA's
///    never-merging history states into achievable-view-bag sets.
/// 2. The reference side is [`PackedTaxiReference`]: the named behavior
///    over packed bags, two integers a state. The literal
///    [`crate::lattices::taxi::TaxiReference`] is its oracle (the two
///    are compared length by length in `lattices::taxi`), and the naive
///    verifier below still walks the literal pair. Its DegenPQ `Deq`
///    keeps the served item, the ⊆-greatest of Figure 3-5's two
///    successors, which accepts the same language (bag inclusion is a
///    forward simulation), so every reference is deterministic, like
///    every quotient: each set either side interns is a singleton.
/// 3. The four `(quotient, reference)` pairs walk in turn through one
///    [`LanguageWalker`]: a dense state/set interner a side and one
///    memoized successor row per (point, set), a singleton's row one
///    `step_all_into` of its state, all cleared between points with
///    their capacity kept, so a point regrows nothing the one before it
///    grew. The last level is counted, not built. The walker is the
///    thread's own and outlives the call (see the module docs), so a
///    repeated verification regrows nothing either. A walk's node is one
///    point's (left set, right set) pair: a node holding all four
///    points' pairs makes levels wider than the widest point's own
///    (3,423 such nodes at (4, 8) against 2,040 while every level was
///    built).
///
/// Verdicts and per-point language sizes are pinned against
/// [`verify_taxi_lattice_naive`] in tests.
///
/// # Panics
///
/// If `max_len` exceeds 255, past which a packed multiplicity can carry
/// into the next rank, or if `items` is empty or holds more than 8
/// distinct items.
pub fn verify_taxi_lattice(items: &[Item], max_len: usize) -> TaxiVerification {
    verify_taxi_lattice_probed(items, max_len, &mut NoopProbe)
}

/// The profiling span name of a lattice point: `point_q1q2` with each
/// relaxation bit spelled as 0/1, e.g. `{Q1}` is `point_10`.
fn point_span(p: TaxiPoint) -> &'static str {
    match (p.q1, p.q2) {
        (true, true) => "point_11",
        (true, false) => "point_10",
        (false, true) => "point_01",
        (false, false) => "point_00",
    }
}

/// [`verify_taxi_lattice`] with a profiling probe: one `theorem4` span
/// wraps the whole verification, the `shared_walk` child covers the
/// four walks (one `multiwalk` span each, in lattice order, with their
/// `multi_depth` spans and frontier gauges inside), and one
/// `point_q1q2` span per lattice point covers that point's result
/// assembly and carries its `lang_size` / `peak_frontier` gauges.
/// Panics as [`verify_taxi_lattice`] does.
pub fn verify_taxi_lattice_probed<P: EngineProbe>(
    items: &[Item],
    max_len: usize,
    probe: &mut P,
) -> TaxiVerification {
    assert!(
        max_len <= 255,
        "packed multiplicities are bytes: histories of at most 255 operations"
    );
    probe.enter("theorem4");
    let alphabet = queue_alphabet(items);
    let point_list = TaxiPoint::all();
    let quotients: [RepViewAutomaton; 4] =
        point_list.map(|p| RepViewAutomaton::new(p.q1, p.q2, items));
    let references: [PackedTaxiReference; 4] =
        point_list.map(|p| PackedTaxiReference::new(p, items));
    probe.enter("shared_walk");
    // Taken out of the slot, not borrowed in it: no borrow is held
    // across a walk.
    let mut walker = WALKER.take().unwrap_or_default();
    let walks: Vec<_> = quotients
        .iter()
        .zip(&references)
        .map(|(quotient, reference)| {
            walker.walk(
                quotient,
                reference,
                &alphabet,
                max_len,
                CompareOptions::counting(),
                &mut *probe,
            )
        })
        .collect();
    WALKER.set(Some(walker));
    probe.exit("shared_walk");

    let points = point_list
        .iter()
        .zip(walks)
        .map(|(&point, cmp)| {
            probe.enter(point_span(point));
            let difference = cmp
                .left_not_in_right
                .clone()
                .map(LanguageDifference::LeftNotInRight)
                .or_else(|| {
                    cmp.right_not_in_left
                        .clone()
                        .map(LanguageDifference::RightNotInLeft)
                });
            let verification = PointVerification {
                point,
                behavior: point.behavior_name(),
                language_size: cmp.left_total() as usize,
                peak_frontier: cmp.peak_level_width,
                difference,
            };
            if probe.is_enabled() {
                probe.gauge("lang_size", verification.language_size as i64);
                probe.gauge("peak_frontier", verification.peak_frontier as i64);
            }
            probe.exit(point_span(point));
            verification
        })
        .collect();
    let out = TaxiVerification {
        points,
        items: items.to_vec(),
        max_len,
    };
    probe.exit("theorem4");
    out
}

/// The pre-engine implementation of [`verify_taxi_lattice`]: a two-pass
/// naive `equal_upto` followed by a full naive language enumeration per
/// point, over the raw QCA. Kept as the reference for differential
/// tests.
pub fn verify_taxi_lattice_naive(items: &[Item], max_len: usize) -> TaxiVerification {
    let lattice = TaxiLattice::new();
    let alphabet = queue_alphabet(items);
    let mut points = Vec::new();
    for point in TaxiPoint::all() {
        let qca = lattice.qca(point);
        let reference = lattice.reference(point);
        let difference = naive::equal_upto(&qca, &reference, &alphabet, max_len).err();
        let language = naive::language_upto(&qca, &alphabet, max_len);
        let mut by_len = vec![0usize; max_len + 1];
        for h in &language {
            by_len[h.len()] += 1;
        }
        points.push(PointVerification {
            point,
            behavior: point.behavior_name(),
            language_size: language.len(),
            peak_frontier: by_len.into_iter().max().unwrap_or(0),
            difference,
        });
    }
    TaxiVerification {
        points,
        items: items.to_vec(),
        max_len,
    }
}

/// A hand-checkable witness for the *strictness* of the lattice: a
/// history separating each relaxed point from the preferred behavior.
pub fn separating_histories() -> Vec<(TaxiPoint, History<QueueOp>)> {
    vec![
        (
            // MPQ but not PQ: duplicate service.
            TaxiPoint {
                q1: true,
                q2: false,
            },
            History::from(vec![QueueOp::Enq(1), QueueOp::Deq(1), QueueOp::Deq(1)]),
        ),
        (
            // OPQ but not PQ: out-of-order service.
            TaxiPoint {
                q1: false,
                q2: true,
            },
            History::from(vec![QueueOp::Enq(1), QueueOp::Enq(2), QueueOp::Deq(1)]),
        ),
        (
            // DegenPQ but neither MPQ nor OPQ: out-of-order *and*
            // duplicate.
            TaxiPoint {
                q1: false,
                q2: false,
            },
            History::from(vec![
                QueueOp::Enq(1),
                QueueOp::Enq(2),
                QueueOp::Deq(1),
                QueueOp::Deq(1),
            ]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relax_automata::{random_history, ObjectAutomaton};
    use relax_queues::{Eta, Eval, MpqAutomaton};

    #[test]
    fn theorem_4_holds_within_bound() {
        let v = verify_taxi_lattice(&[1, 2], 5);
        assert!(v.holds(), "some point failed: {:?}", v.points);
        assert!(v.theorem_4().holds());
        assert_eq!(v.theorem_4().behavior, "multi-priority queue");
    }

    #[test]
    fn language_sizes_match_published_f_table() {
        // Fixed point of record: over items {1, 2} at length ≤ 5 the four
        // lattice languages have exactly these many distinct histories
        // (the F-table recorded in EXPERIMENTS.md since the seed).
        let v = verify_taxi_lattice(&[1, 2], 5);
        assert!(v.holds());
        let sizes: Vec<usize> = v.points.iter().map(|p| p.language_size).collect();
        assert_eq!(sizes, vec![209, 269, 287, 373]);
    }

    #[test]
    fn engine_verification_matches_naive() {
        let engine = verify_taxi_lattice(&[1, 2], 4);
        let naive = verify_taxi_lattice_naive(&[1, 2], 4);
        for (e, n) in engine.points.iter().zip(&naive.points) {
            assert_eq!(e.point, n.point);
            assert_eq!(e.language_size, n.language_size, "{:?}", e.point);
            assert_eq!(e.holds(), n.holds(), "{:?}", e.point);
        }
    }

    /// A 256th occurrence would carry into the next rank's byte, so the
    /// walk refuses a bound that could reach it.
    #[test]
    #[should_panic(expected = "at most 255 operations")]
    fn walk_refuses_histories_a_byte_cannot_count() {
        verify_taxi_lattice(&[1], 256);
    }

    #[test]
    fn language_sizes_grow_down_the_lattice() {
        let v = verify_taxi_lattice(&[1, 2], 4);
        let preferred = v.points[0].language_size;
        for p in &v.points[1..] {
            assert!(
                p.language_size >= preferred,
                "{:?} smaller than preferred",
                p.point
            );
        }
        // The bottom is strictly the largest.
        let bottom = v
            .points
            .iter()
            .find(|p| !p.point.q1 && !p.point.q2)
            .unwrap();
        assert!(bottom.language_size > preferred);
    }

    proptest! {
        /// The key lemma inside Theorem 4's proof: MPQ's postconditions
        /// completely determine the new value (δ* is single-valued on
        /// L(MPQ)), and the projection α(m) = m.present commutes with the
        /// evaluation function: α(δ*(H)) = η(H) for all H ∈ L(MPQ).
        #[test]
        fn alpha_commutes_with_eta_on_mpq_histories(seed in 0u64..300, len in 0usize..12) {
            let mpq = MpqAutomaton::new();
            let alphabet = relax_queues::queue_alphabet(&[1, 2, 3]);
            let h = random_history(&mpq, &alphabet, len, seed);
            let states = mpq.delta_star(&h);
            prop_assert_eq!(states.len(), 1, "δ* not single-valued on {}", h);
            let m = states.into_iter().next().expect("len checked");
            prop_assert_eq!(m.alpha(), &Eta.eval(h.ops()), "α∘δ* ≠ η on {}", h);
        }
    }

    #[test]
    fn probed_shared_walk_yields_an_exact_span_tree() {
        let mut probe = relax_trace::Probe::enabled();
        let v = verify_taxi_lattice_probed(&[1, 2], 5, &mut probe);
        assert!(v.holds());
        let report = probe.report().expect("balanced spans");
        // One theorem4 root; the four walks nest under shared_walk.
        assert_eq!(report.roots.len(), 1);
        assert_eq!(report.roots[0].name, "theorem4");
        let paths: Vec<String> = report
            .aggregated_paths()
            .into_iter()
            .map(|h| h.path)
            .collect();
        // The four points walk in turn, one multiwalk span each.
        let shared_walk = report.roots[0]
            .children
            .iter()
            .find(|c| c.name == "shared_walk")
            .expect("shared_walk under theorem4");
        let walks: Vec<&str> = shared_walk
            .children
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        assert_eq!(walks, ["multiwalk"; 4]);
        for walk in &shared_walk.children {
            assert_eq!(walk.self_sum_ns(), walk.total_ns, "a walk's self times");
        }
        assert_eq!(shared_walk.self_sum_ns(), shared_walk.total_ns);
        for span in ["point_11", "point_10", "point_01", "point_00"] {
            assert!(
                paths.contains(&format!("theorem4;{span}")),
                "missing {span} in {paths:?}"
            );
        }
        // Per-point gauges carry the F-table in lattice order.
        assert_eq!(
            report.gauge("lang_size"),
            Some(&[209i64, 269, 287, 373][..])
        );
        // Each (point, state) pair the walk reached stepped once, and
        // as a singleton set: both sides are deterministic, so no member
        // visit finds a state already stepped.
        assert_eq!(report.counter("state_steps"), Some(150));
        assert_eq!(report.counter("state_hits"), Some(0));
        // Exact-sum attribution holds over the live tree.
        assert_eq!(report.self_sum_ns(), report.total_ns());
        // The per-depth frontier timeline came through the walk.
        assert!(!report.gauge("frontier_nodes").unwrap_or(&[]).is_empty());
    }

    #[test]
    fn each_point_reports_its_own_peak_frontier() {
        let v = verify_taxi_lattice(&[1, 2, 3], 8);
        assert!(v.holds());
        let peaks: Vec<usize> = v.points.iter().map(|p| p.peak_frontier).collect();
        assert_eq!(peaks, [70, 364, 70, 119]);
        assert_eq!(v.peak_frontier(), 364);
    }

    #[test]
    fn separating_histories_separate() {
        let lattice = TaxiLattice::new();
        let preferred = lattice.qca(TaxiPoint { q1: true, q2: true });
        for (point, h) in separating_histories() {
            let relaxed = lattice.qca(point);
            assert!(relaxed.accepts(&h), "{point:?} should accept {h}");
            assert!(!preferred.accepts(&h), "preferred should reject {h}");
        }
    }
}
