//! The world's pending events: a calendar of tick buckets.
//!
//! Events due within [`WINDOW`] ticks of the calendar's base sit in one
//! FIFO bucket per tick, `buckets[time % WINDOW]`, and a bitmap marks the
//! buckets that hold any. Scheduling appends to a bucket and popping
//! takes the front of the first marked one, so both are O(1) (a pop
//! reads `WINDOW / 64` bitmap words at most). Events due further out
//! wait in a map ordered by `(time, seq)` and move into their bucket once
//! the base comes within `WINDOW` of them.
//!
//! A bucket is a list threaded through one slab of slots, and a popped
//! slot is the next one filled: the calendar holds a slot per pending
//! event, as a heap's array does, and reuses the one touched last.
//!
//! Events come out in `(time, seq)` order, `seq` being the order they
//! were scheduled in: the order of a binary heap keyed by `(time, seq)`,
//! so runs are the same as under one, event for event. A bucket is FIFO
//! because the events of one tick arrive in `seq` order: a far event
//! enters its bucket before any event of its tick is scheduled directly
//! into it, since the base has to come within `WINDOW` of the tick first.

use std::collections::BTreeMap;

/// Ticks the buckets span. The sim's network delays and client timeouts
/// (200 ticks by default) fall inside it, so only gray-degraded links and
/// long timers reach the far map.
pub(crate) const WINDOW: usize = 256;

const MASK: u64 = WINDOW as u64 - 1;
const WORDS: usize = WINDOW / 64;

/// The end of a slot list.
const NIL: u32 = u32::MAX;

/// A pending-event queue that pops in `(time, seq)` order.
#[derive(Debug)]
pub(crate) struct Calendar<T> {
    /// Every near event, and the free slots, each in a list.
    slots: Vec<Slot<T>>,
    /// The first free slot.
    free: u32,
    /// The events due at ticks `base .. base + WINDOW`, one list per tick
    /// in scheduling order.
    buckets: Box<[Bucket]>,
    /// Bit `i` is set iff `buckets[i]` is non-empty.
    occupied: [u64; WORDS],
    /// Events held in `buckets`.
    near: usize,
    /// Events due at `base + WINDOW` or later, keyed by `(time, seq)`.
    far: BTreeMap<(u64, u64), T>,
    /// No pending event is due before it, and no push comes before it
    /// unless the clock is set back: the time of the last pop, or the
    /// clock at the first push into an empty calendar.
    base: u64,
    /// Orders the far map's ties in scheduling order.
    seq: u64,
}

#[derive(Debug)]
struct Slot<T> {
    item: Option<T>,
    /// The next slot of the same list.
    next: u32,
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

impl<T> Calendar<T> {
    pub(crate) fn new() -> Self {
        let empty = Bucket {
            head: NIL,
            tail: NIL,
        };
        Calendar {
            slots: Vec::new(),
            free: NIL,
            buckets: vec![empty; WINDOW].into_boxed_slice(),
            occupied: [0; WORDS],
            near: 0,
            far: BTreeMap::new(),
            base: 0,
            seq: 0,
        }
    }

    /// Pending events.
    pub(crate) fn len(&self) -> usize {
        self.near + self.far.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queues `item` at `now + delay`, after everything already queued
    /// for that time. `now` is the clock: no later push comes before it
    /// unless the clock is set back.
    pub(crate) fn push(&mut self, now: u64, delay: u64, item: T) {
        if self.is_empty() {
            self.base = now;
        } else if now < self.base {
            self.rewind(now);
        }
        let time = now + delay;
        if time - self.base < WINDOW as u64 {
            self.push_near(time, item);
        } else {
            self.push_far(time, item);
        }
    }

    /// The time of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<u64> {
        if self.near > 0 {
            Some(self.base + self.first_offset())
        } else {
            self.far.first_key_value().map(|(&(time, _), _)| time)
        }
    }

    /// Removes the earliest pending event (the first scheduled among
    /// those due at its time).
    pub(crate) fn pop(&mut self) -> Option<(u64, T)> {
        if self.near == 0 {
            self.base = self.peek_time()?;
            self.pull_due();
        }
        let offset = self.first_offset();
        let time = self.base + offset;
        let item = self.pop_bucket((time & MASK) as usize);
        self.base = time;
        if offset > 0 {
            self.pull_due();
        }
        Some((time, item))
    }

    /// Every pending event, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots
            .iter()
            .filter_map(|s| s.item.as_ref())
            .chain(self.far.values())
    }

    fn push_near(&mut self, time: u64, item: T) {
        let slot = Slot {
            item: Some(item),
            next: NIL,
        };
        let at = if self.free == NIL {
            self.slots.push(slot);
            (self.slots.len() - 1) as u32
        } else {
            let at = self.free;
            self.free = std::mem::replace(&mut self.slots[at as usize], slot).next;
            at
        };
        let ix = (time & MASK) as usize;
        let bucket = &mut self.buckets[ix];
        if bucket.head == NIL {
            bucket.head = at;
            self.occupied[ix / 64] |= 1 << (ix % 64);
        } else {
            self.slots[bucket.tail as usize].next = at;
        }
        bucket.tail = at;
        self.near += 1;
    }

    /// Takes the front of the non-empty bucket `ix` and frees its slot.
    fn pop_bucket(&mut self, ix: usize) -> T {
        let bucket = &mut self.buckets[ix];
        let at = bucket.head;
        let slot = &mut self.slots[at as usize];
        bucket.head = std::mem::replace(&mut slot.next, self.free);
        if bucket.head == NIL {
            self.occupied[ix / 64] &= !(1 << (ix % 64));
        }
        self.free = at;
        self.near -= 1;
        slot.item.take().expect("a queued slot")
    }

    fn push_far(&mut self, time: u64, item: T) {
        self.seq += 1;
        self.far.insert((time, self.seq), item);
    }

    /// Moves the far events the window now reaches into their buckets,
    /// earliest first.
    fn pull_due(&mut self) {
        let end = self.base + WINDOW as u64;
        while let Some(first) = self.far.first_entry() {
            if first.key().0 >= end {
                break;
            }
            let ((time, _), item) = first.remove_entry();
            self.push_near(time, item);
        }
    }

    /// Offset from `base` of the first non-empty bucket (`near > 0`).
    fn first_offset(&self) -> u64 {
        let start = (self.base & MASK) as usize;
        let (word, bit) = (start / 64, start % 64);
        let ahead = self.occupied[word] & (!0 << bit);
        let ix = if ahead != 0 {
            word * 64 + ahead.trailing_zeros() as usize
        } else {
            // The wrap ends on `word` itself, at the bits below `bit`.
            (1..=WORDS)
                .map(|k| (word + k) % WORDS)
                .find(|&w| self.occupied[w] != 0)
                .map(|w| w * 64 + self.occupied[w].trailing_zeros() as usize)
                .expect("near > 0")
        };
        (ix as u64).wrapping_sub(start as u64) & MASK
    }

    /// Lowers the base to `time`, below every pending event. Only a clock
    /// set back by a fault scheduled in the past gets here, so it may
    /// cost O(WINDOW + n log n): the buckets empty into the far map in
    /// `(time, seq)` order (no far event shares their ticks) and the
    /// window refills from `time`.
    #[cold]
    fn rewind(&mut self, time: u64) {
        for offset in 0..WINDOW as u64 {
            let t = self.base + offset;
            let ix = (t & MASK) as usize;
            while self.buckets[ix].head != NIL {
                let item = self.pop_bucket(ix);
                self.push_far(t, item);
            }
        }
        self.base = time;
        self.pull_due();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The order the calendar keeps: a binary heap keyed by `(time,
    /// seq)`.
    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<(u64, u64)>>,
        seq: u64,
    }

    impl Reference {
        fn push(&mut self, time: u64) -> u64 {
            self.seq += 1;
            self.heap.push(Reverse((time, self.seq)));
            self.seq
        }
        fn pop(&mut self) -> Option<(u64, u64)> {
            self.heap.pop().map(|Reverse(e)| e)
        }
        fn peek_time(&self) -> Option<u64> {
            self.heap.peek().map(|Reverse((t, _))| *t)
        }
    }

    /// One step of a driver: pop, push at `now + delay` (`now` being the
    /// last popped time), or move `now` the way a harness setting the
    /// clock forward, or a fault setting it back, does.
    #[derive(Debug, Clone)]
    enum Op {
        Pop,
        Push(u64),
        Jump(i64),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u32..12, 0u64..3 * WINDOW as u64).prop_map(|(kind, x)| match kind {
            0..=3 => Op::Pop,
            4..=7 => Op::Push(x % 8),
            8 | 9 => Op::Push(x % 300),
            10 => Op::Push(x),
            _ => Op::Jump(x as i64 % 640 - 40),
        })
    }

    proptest! {
        /// Every pop, peek and length agrees with the reference heap's.
        #[test]
        fn pops_in_the_order_of_a_time_seq_heap(
            ops in proptest::collection::vec(op(), 0..400)
        ) {
            let mut cal = Calendar::new();
            let mut reference = Reference::default();
            let mut now = 0u64;
            for op in ops {
                match op {
                    Op::Pop => {
                        let popped = cal.pop();
                        prop_assert_eq!(popped, reference.pop());
                        if let Some((t, _)) = popped {
                            now = t;
                        }
                    }
                    Op::Push(delay) => {
                        let seq = reference.push(now + delay);
                        cal.push(now, delay, seq);
                    }
                    Op::Jump(by) => now = now.saturating_add_signed(by),
                }
                prop_assert_eq!(cal.peek_time(), reference.peek_time());
                prop_assert_eq!(cal.len(), reference.heap.len());
                prop_assert_eq!(cal.iter().count(), cal.len());
            }
            while let Some(want) = reference.pop() {
                prop_assert_eq!(cal.pop(), Some(want));
            }
            prop_assert!(cal.is_empty());
            prop_assert_eq!(cal.pop(), None);
        }
    }

    #[test]
    fn ties_pop_in_scheduling_order_across_the_far_map() {
        // Two events for tick 300, scheduled from base 0, wait in the far
        // map; once the base reaches 50 a third for tick 300 goes
        // straight into its bucket, behind them.
        let mut cal = Calendar::new();
        cal.push(0, 0, 'a');
        cal.push(0, 300, 'b');
        cal.push(0, 300, 'c');
        cal.push(0, 50, 'd');
        assert_eq!(cal.pop(), Some((0, 'a')));
        assert_eq!(cal.pop(), Some((50, 'd')));
        cal.push(50, 250, 'e');
        cal.push(50, 249, 'f');
        let rest: Vec<_> = std::iter::from_fn(|| cal.pop()).collect();
        assert_eq!(rest, [(299, 'f'), (300, 'b'), (300, 'c'), (300, 'e')]);
    }

    #[test]
    fn an_empty_calendar_anchors_at_the_clock_not_the_first_event() {
        // A handler that sends in the order 5, 2, 3 ticks out: anchored
        // at the first event, the second would rewind the window.
        let mut cal = Calendar::new();
        for delay in [5, 2, 3] {
            cal.push(10, delay, delay);
            assert_eq!(cal.base, 10);
        }
        let order: Vec<_> = std::iter::from_fn(|| cal.pop()).collect();
        assert_eq!(order, [(12, 2), (13, 3), (15, 5)]);
    }

    #[test]
    fn a_clock_set_back_rewinds_the_base() {
        let mut cal = Calendar::new();
        for (delay, c) in [(0, 'a'), (WINDOW as u64, 'b'), (2, 'c')] {
            cal.push(10, delay, c);
        }
        assert_eq!(cal.pop(), Some((10, 'a')));
        cal.push(3, 0, 'd');
        assert_eq!(cal.base, 3);
        cal.push(3, 9, 'e');
        let rest: Vec<_> = std::iter::from_fn(|| cal.pop()).collect();
        let far = 10 + WINDOW as u64;
        assert_eq!(rest, [(3, 'd'), (12, 'c'), (12, 'e'), (far, 'b')]);
    }

    #[test]
    fn freed_slots_are_refilled_before_the_slab_grows() {
        let mut cal = Calendar::new();
        for now in 0..100 {
            cal.push(now, 0, 'a');
            cal.push(now, 1, 'b');
            assert!(cal.pop().is_some());
            assert!(cal.pop().is_some());
        }
        assert_eq!(cal.slots.len(), 2);
    }
}
