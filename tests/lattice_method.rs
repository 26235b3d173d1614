//! Cross-crate integration: the relaxation lattice method end-to-end
//! (spec engine → automata → lattices → verification).

use relaxation_lattice::automata::{
    check_reverse_inclusion_lattice, included_upto, language_upto, strictly_included_upto,
    RelaxationMap,
};
use relaxation_lattice::core::lattices::semiqueue::{SemiqueueLattice, SsQueueLattice};
use relaxation_lattice::core::lattices::taxi::{TaxiLattice, TaxiPoint};
use relaxation_lattice::core::theorem4::{verify_taxi_lattice, verify_taxi_lattice_probed};
use relaxation_lattice::queues::{queue_alphabet, FifoAutomaton, PQueueAutomaton};
use relaxation_lattice::spec::{paper_theories, parse_term, Rewriter};
use relaxation_lattice::trace::Probe;

#[test]
fn theorem_4_and_all_lattice_points_verify() {
    let v = verify_taxi_lattice(&[1, 2], 5);
    assert!(v.holds(), "{:?}", v.points);
    let v3 = verify_taxi_lattice(&[1, 2, 3], 3);
    assert!(v3.holds(), "{:?}", v3.points);
}

/// The memo counters that do not depend on how the walk visits the four
/// lattice points. Each point steps each of its reachable states once
/// (`state_steps`), finds the rest of its set members already stepped
/// (`state_hits`) and writes one successor row per reachable set
/// (`row_fills`), whatever else rides the walk beside it. Only
/// `row_hits`, one per node that reuses a row, follows the node count.
#[test]
fn theorem4_walk_counters_hold_at_the_benchmark_bounds() {
    let cases = [
        (
            3,
            10,
            [941_326, 1_976_501, 4_749_700, 9_594_982],
            [3_672, 3_520, 4_628],
        ),
        (
            4,
            8,
            [368_089, 526_490, 1_164_937, 1_735_153],
            [4_548, 2_868, 5_502],
        ),
    ];
    for (items, max_len, sizes, counters) in cases {
        let items: Vec<_> = (1..=items).collect();
        let mut probe = Probe::enabled();
        let v = verify_taxi_lattice_probed(&items, max_len, &mut probe);
        assert!(v.holds(), "{:?}", v.points);
        let got: Vec<usize> = v.points.iter().map(|p| p.language_size).collect();
        assert_eq!(got, sizes, "|L| at ({}, {max_len})", items.len());
        let report = probe.report().expect("balanced spans");
        let read = ["state_steps", "state_hits", "row_fills"]
            .map(|name| report.counter(name).expect("counted"));
        assert_eq!(
            read,
            counters,
            "state_steps / state_hits / row_fills at ({}, {max_len})",
            items.len()
        );
    }
}

#[test]
fn taxi_lattice_is_strictly_ordered() {
    // Preferred ⊊ each middle point ⊊ bottom (languages strictly grow as
    // constraints relax).
    let lattice = TaxiLattice::new();
    let alphabet = queue_alphabet(&[1, 2]);
    let top = lattice.qca(TaxiPoint { q1: true, q2: true });
    let bottom = lattice.qca(TaxiPoint {
        q1: false,
        q2: false,
    });
    for mid_point in [
        TaxiPoint {
            q1: true,
            q2: false,
        },
        TaxiPoint {
            q1: false,
            q2: true,
        },
    ] {
        let mid = lattice.qca(mid_point);
        strictly_included_upto(&top, &mid, &alphabet, 5)
            .expect("top strictly below mid in language order");
        strictly_included_upto(&mid, &bottom, &alphabet, 5)
            .expect("mid strictly below bottom in language order");
    }
    // The two middle points are incomparable.
    let mpq = lattice.qca(TaxiPoint {
        q1: true,
        q2: false,
    });
    let opq = lattice.qca(TaxiPoint {
        q1: false,
        q2: true,
    });
    assert!(included_upto(&mpq, &opq, &alphabet, 5).is_err());
    assert!(included_upto(&opq, &mpq, &alphabet, 5).is_err());
}

#[test]
fn preferred_behaviors_match_the_plain_specifications() {
    // The top of each lattice is the undegraded object.
    let taxi = TaxiLattice::new();
    let alphabet = queue_alphabet(&[1, 2]);
    let top = taxi.preferred().expect("taxi lattice has a top");
    assert!(
        relaxation_lattice::automata::equal_upto(&top, &PQueueAutomaton::new(), &alphabet, 5)
            .is_ok()
    );
    let semiqueue = SemiqueueLattice::new(3);
    let top = semiqueue.preferred().expect("semiqueue lattice has a top");
    assert!(
        relaxation_lattice::automata::equal_upto(&top, &FifoAutomaton::new(), &alphabet, 5).is_ok()
    );
}

#[test]
fn all_prebuilt_lattices_satisfy_the_lattice_laws() {
    let alphabet = queue_alphabet(&[1, 2]);
    assert!(check_reverse_inclusion_lattice(&TaxiLattice::new(), &alphabet, 4).is_ok());
    assert!(check_reverse_inclusion_lattice(&SemiqueueLattice::new(3), &alphabet, 4).is_ok());
    assert!(check_reverse_inclusion_lattice(&SsQueueLattice::new(2, 2), &alphabet, 4).is_ok());
}

#[test]
fn algebraic_and_operational_views_agree_on_language_membership() {
    // Every history accepted by the native PQ automaton replays cleanly
    // against the Larch PQueue interface. The state is carried as a
    // *term* built by the operations themselves: the Bag trait has no
    // commutativity axiom, so `ins(ins(emp,1),2)` and `ins(ins(emp,2),1)`
    // are distinct normal forms that denote the same multiset — exactly
    // the paper's term/value distinction (§2.4).
    use relaxation_lattice::queues::QueueOp;
    use relaxation_lattice::spec::traits::pqueue_interface;
    use relaxation_lattice::spec::Term;

    let iface = pqueue_interface().expect("interface parses");
    let automaton = PQueueAutomaton::new();
    let alphabet = queue_alphabet(&[1, 2]);

    for h in language_upto(&automaton, &alphabet, 4) {
        let mut state = Term::constant("emp");
        for op in h.iter() {
            match op {
                QueueOp::Enq(e) => {
                    let next = Term::app("ins", vec![state.clone(), Term::Int(*e)]);
                    let enq = iface.operation("Enq").expect("Enq exists").clone();
                    let check = iface
                        .check_transition(&enq, &state, &[Term::Int(*e)], &[], &next)
                        .expect("evaluates");
                    assert!(check.is_accepted(), "Enq rejected in {h}");
                    state = next;
                }
                QueueOp::Deq(e) => {
                    // The post-state is del(state, e), normalized by the
                    // trait's own rewrite rules.
                    let next = iface
                        .rewriter()
                        .normalize(&Term::app("del", vec![state.clone(), Term::Int(*e)]))
                        .expect("normalizes");
                    let deq = iface.operation("Deq").expect("Deq exists").clone();
                    let check = iface
                        .check_transition(&deq, &state, &[], &[Term::Int(*e)], &next)
                        .expect("evaluates");
                    assert!(check.is_accepted(), "Deq rejected in {h}");
                    state = next;
                }
            }
        }
    }
}

#[test]
fn mpq_automaton_agrees_with_its_larch_interface() {
    // Figure 3-3's nondeterministic interface, replayed: for every
    // history accepted by the native MPQ automaton and every transition
    // edge along it, the Larch interface accepts the same edge. State is
    // carried as a pair of *terms* (present, absent) built the way the
    // postconditions build them, mirroring the term/value distinction.
    use relaxation_lattice::queues::{MpqAutomaton, QueueOp};
    use relaxation_lattice::spec::traits::mpqueue_interface;
    use relaxation_lattice::spec::Term;

    let iface = mpqueue_interface().expect("interface parses");
    let rw = iface.rewriter().clone();
    let automaton = MpqAutomaton::new();
    let alphabet = queue_alphabet(&[1, 2]);

    let mpq = |p: &Term, a: &Term| Term::app("mpq", vec![p.clone(), a.clone()]);

    for h in language_upto(&automaton, &alphabet, 4) {
        // Term-level states reachable after each prefix (sets, since the
        // automaton is nondeterministic).
        let mut states: Vec<(Term, Term)> = vec![(Term::constant("emp"), Term::constant("emp"))];
        for op in h.iter() {
            let mut next_states: Vec<(Term, Term)> = Vec::new();
            for (p, a) in &states {
                let pre = mpq(p, a);
                match op {
                    QueueOp::Enq(e) => {
                        let p2 = Term::app("ins", vec![p.clone(), Term::Int(*e)]);
                        let post = mpq(&p2, a);
                        let enq = iface.operation("Enq").expect("Enq").clone();
                        let check = iface
                            .check_transition(&enq, &pre, &[Term::Int(*e)], &[], &post)
                            .expect("evaluates");
                        assert!(check.is_accepted(), "Enq rejected in {h}");
                        next_states.push((p2, a.clone()));
                    }
                    QueueOp::Deq(e) => {
                        let deq = iface.operation("Deq").expect("Deq").clone();
                        // Branch 1: re-return from absent, state unchanged.
                        let same = iface
                            .check_transition(&deq, &pre, &[], &[Term::Int(*e)], &pre)
                            .expect("evaluates");
                        if same.is_accepted() {
                            next_states.push((p.clone(), a.clone()));
                        }
                        // Branch 2: transfer best present to absent.
                        let p2 = rw
                            .normalize(&Term::app("del", vec![p.clone(), Term::Int(*e)]))
                            .expect("normalizes");
                        let a2 = Term::app("ins", vec![a.clone(), Term::Int(*e)]);
                        let post = mpq(&p2, &a2);
                        let moved = iface
                            .check_transition(&deq, &pre, &[], &[Term::Int(*e)], &post)
                            .expect("evaluates");
                        if moved.is_accepted() {
                            next_states.push((p2, a2));
                        }
                    }
                }
            }
            assert!(
                !next_states.is_empty(),
                "interface rejected every branch of {op} along {h}"
            );
            next_states.dedup();
            states = next_states;
        }
    }
}

#[test]
fn semiqueue_and_account_automata_agree_with_their_interfaces() {
    use relaxation_lattice::queues::ops::account_alphabet;
    use relaxation_lattice::queues::{AccountAutomaton, AccountOp, QueueOp, SemiqueueAutomaton};
    use relaxation_lattice::spec::traits::{account_interface, semiqueue_interface};
    use relaxation_lattice::spec::Term;

    // Semiqueue_2 (Figure 4-1): replay each accepted history through the
    // parameterized interface, tracking term state. The native automaton
    // may offer several successors per Deq (different positions); the
    // interface must accept at least the one built by its own
    // postcondition (del = newest-occurrence removal).
    let k = 2;
    let iface = semiqueue_interface(k).expect("interface parses");
    let rw = iface.rewriter().clone();
    let automaton = SemiqueueAutomaton::new(k as usize);
    let alphabet = queue_alphabet(&[1, 2]);
    for h in language_upto(&automaton, &alphabet, 4) {
        let mut state = Term::constant("emp");
        for op in h.iter() {
            match op {
                QueueOp::Enq(e) => {
                    let next = Term::app("ins", vec![state.clone(), Term::Int(*e)]);
                    let enq = iface.operation("Enq").expect("Enq").clone();
                    assert!(iface
                        .check_transition(&enq, &state, &[Term::Int(*e)], &[], &next)
                        .expect("evaluates")
                        .is_accepted());
                    state = next;
                }
                QueueOp::Deq(e) => {
                    let next = rw
                        .normalize(&Term::app("del", vec![state.clone(), Term::Int(*e)]))
                        .expect("normalizes");
                    let deq = iface.operation("Deq").expect("Deq").clone();
                    let check = iface
                        .check_transition(&deq, &state, &[], &[Term::Int(*e)], &next)
                        .expect("evaluates");
                    assert!(check.is_accepted(), "Deq({e}) rejected along {h}");
                    state = next;
                }
            }
        }
    }

    // Account (§3.4): every accepted history replays through the
    // interface, including Overdraft edges.
    let iface = account_interface().expect("interface parses");
    let automaton = AccountAutomaton::new();
    let alphabet = account_alphabet(&[1, 2]);
    for h in language_upto(&automaton, &alphabet, 4) {
        let mut balance: i64 = 0;
        for op in h.iter() {
            let state = Term::app("acct", vec![Term::Int(balance)]);
            let (decl, amount, next_balance) = match op {
                AccountOp::Credit(n) => ("Credit", *n, balance + i64::from(*n)),
                AccountOp::DebitOk(n) => ("Debit", *n, balance - i64::from(*n)),
                AccountOp::DebitOverdraft(n) => ("Debit", *n, balance),
            };
            let termination = match op {
                AccountOp::DebitOverdraft(_) => "Overdraft",
                _ => "Ok",
            };
            let next = Term::app("acct", vec![Term::Int(next_balance)]);
            let op_iface = iface
                .operation_with_termination(decl, termination)
                .expect("declared")
                .clone();
            let check = iface
                .check_transition(
                    &op_iface,
                    &state,
                    &[Term::Int(i64::from(amount))],
                    &[],
                    &next,
                )
                .expect("evaluates");
            assert!(check.is_accepted(), "{op} rejected along {h}");
            balance = next_balance;
        }
    }
}

#[test]
fn rewriting_engine_handles_the_papers_worked_equalities() {
    let set = paper_theories().expect("theories assemble");
    let bag = set.theory("Bag").expect("Bag");
    let rw = Rewriter::new(bag).expect("rewriter");
    let lhs = parse_term(bag, "del(ins(ins(emp, 3), 3), 3)").expect("parses");
    let rhs = parse_term(bag, "ins(emp, 3)").expect("parses");
    assert!(rw.equal(&lhs, &rhs).expect("normalizes"));

    let fifo = set.theory("FifoQ").expect("FifoQ");
    let rw = Rewriter::new(fifo).expect("rewriter");
    let t = parse_term(fifo, "first(ins(ins(emp, 3), 3))").expect("parses");
    assert_eq!(
        rw.normalize(&t).expect("normalizes"),
        relaxation_lattice::spec::Term::Int(3)
    );
}
