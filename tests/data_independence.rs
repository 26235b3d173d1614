//! Theorem 4's data-independence lemma (DESIGN §7): every language of the
//! taxi lattice depends on items only through their order and equality,
//! so a strictly monotone renaming of items keeps a history's acceptance.
//! A history of length L names at most L items, so the bounded walk over
//! items {1..L} to length L covers every history of length ≤ L over any
//! totally ordered item domain.
//!
//! The property runs on PQ, MPQ, OPQ and DegenPQ, on `TaxiReference` and
//! the QCA at each of the four points; a negative control that treats the
//! smallest item specially must fail it.

use proptest::prelude::*;
use relaxation_lattice::automata::{random_history, History, ObjectAutomaton, SplitMix64};
use relaxation_lattice::core::lattices::taxi::{TaxiLattice, TaxiPoint, TaxiReference};
use relaxation_lattice::queues::{
    queue_alphabet, Bag, DegenPqAutomaton, Item, MpqAutomaton, OpqAutomaton, PQueueAutomaton,
    QueueOp,
};

/// The longest history checked, and so the most items one can name.
const MAX_OPS: usize = 8;

/// A random strictly monotone renaming of the items `1..=MAX_OPS`: item
/// `k` becomes `f[k]`, from a start that may be negative, in gaps of one
/// to four.
fn monotone_renaming(rng: &mut SplitMix64) -> [Item; MAX_OPS + 1] {
    let mut f = [0; MAX_OPS + 1];
    let mut next = rng.index(21) as Item - 10;
    for slot in &mut f[1..] {
        *slot = next;
        next += 1 + rng.index(4) as Item;
    }
    f
}

fn renamed(history: &History<QueueOp>, f: &[Item]) -> History<QueueOp> {
    let rename = |op: &QueueOp| match *op {
        QueueOp::Enq(e) => QueueOp::Enq(f[e as usize]),
        QueueOp::Deq(e) => QueueOp::Deq(f[e as usize]),
    };
    History::from(history.iter().map(rename).collect::<Vec<_>>())
}

/// Draws a history of at most `len` ops over the items `1..=MAX_OPS` — a
/// walk `a` accepts, then up to two random ops, so rejected histories are
/// drawn too — and checks that a random strictly monotone renaming keeps
/// its acceptance by `a`.
fn renaming_keeps_acceptance<A>(a: &A, seed: u64, len: usize) -> Result<(), String>
where
    A: ObjectAutomaton<Op = QueueOp>,
{
    let items: Vec<Item> = (1..=MAX_OPS as Item).collect();
    let alphabet = queue_alphabet(&items);
    let mut rng = SplitMix64::seed_from_u64(seed);
    let noise = rng.index(3).min(len);
    let mut ops = random_history(a, &alphabet, len - noise, seed).into_ops();
    for _ in 0..noise {
        ops.push(alphabet[rng.index(alphabet.len())]);
    }
    let history = History::from(ops);
    let f = monotone_renaming(&mut rng);
    let image = renamed(&history, &f);
    let before = a.accepts(&history);
    if a.accepts(&image) == before {
        return Ok(());
    }
    Err(format!(
        "{history} (accepted: {before}) renamed by {f:?} to {image}"
    ))
}

proptest! {
    #[test]
    fn monotone_renaming_keeps_acceptance(seed in 0u64..u64::MAX, len in 0usize..MAX_OPS + 1) {
        let queues = [
            ("PQ", renaming_keeps_acceptance(&PQueueAutomaton::new(), seed, len)),
            ("MPQ", renaming_keeps_acceptance(&MpqAutomaton::new(), seed, len)),
            ("OPQ", renaming_keeps_acceptance(&OpqAutomaton::new(), seed, len)),
            ("DegenPQ", renaming_keeps_acceptance(&DegenPqAutomaton::new(), seed, len)),
        ];
        for (name, outcome) in queues {
            prop_assert!(outcome.is_ok(), "{name}: {outcome:?}");
        }
        let lattice = TaxiLattice::new();
        for point in TaxiPoint::all() {
            let outcome = renaming_keeps_acceptance(&TaxiReference::new(point), seed, len);
            prop_assert!(outcome.is_ok(), "reference at {point:?}: {outcome:?}");
            let outcome = renaming_keeps_acceptance(&lattice.qca(point), seed, len);
            prop_assert!(outcome.is_ok(), "QCA at {point:?}: {outcome:?}");
        }
    }
}

/// PQ, except that item 1, the smallest the walk draws, is served as if
/// it were the best: a language that depends on an item's value, not only
/// on its order.
#[derive(Debug)]
struct SmallestServedFirst;

impl ObjectAutomaton for SmallestServedFirst {
    type State = Bag<Item>;
    type Op = QueueOp;

    fn initial_state(&self) -> Bag<Item> {
        PQueueAutomaton::new().initial_state()
    }

    fn step(&self, s: &Bag<Item>, op: &QueueOp) -> Vec<Bag<Item>> {
        let key = |e: Item| if e == 1 { Item::MAX } else { e };
        let op = match *op {
            QueueOp::Enq(e) => QueueOp::Enq(key(e)),
            QueueOp::Deq(e) => QueueOp::Deq(key(e)),
        };
        PQueueAutomaton::new().step(s, &op)
    }
}

#[test]
fn an_automaton_that_singles_out_the_smallest_item_fails_the_renaming_property() {
    let violations = (0..64u64)
        .filter(|&seed| renaming_keeps_acceptance(&SmallestServedFirst, seed, MAX_OPS).is_err())
        .count();
    assert!(violations > 0, "no renaming told item 1 apart");
}
