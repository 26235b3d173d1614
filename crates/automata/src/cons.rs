//! A single-probe hash-consing table.
//!
//! `std::collections::HashMap` offers no stable entry API keyed by a
//! precomputed hash, so the arena's original `lookup`-then-`insert`
//! interning hashed every set twice (and probed twice). [`ConsTable`] is
//! a minimal open-addressing table storing `(hash, id)` pairs: callers
//! hash a candidate **once**, probe **once** via [`ConsTable::entry`],
//! and either get the existing id back or fill the vacant slot they were
//! handed — the classic raw-entry pattern, with the keys themselves held
//! in the caller's own dense storage (a `Vec` indexed by id).
//!
//! Growth rehashes from the stored hashes alone, so no key access (and
//! no re-hashing of keys) is ever needed after insertion.

use std::hash::Hasher;

/// The hasher every key of a [`ConsTable`] in this crate goes through:
/// one rotate, xor and multiply per 64-bit word.
///
/// A multiply only carries differences upward, and [`ConsTable`] picks a
/// slot from the *low* bits, so [`Hasher::finish`] folds the high half
/// down, multiplies once more and folds again: keys that differ only in
/// the top byte of their last word (packed bags do) still spread over
/// the low bits. Keys come from the program's own automata, never from
/// outside input, so no collision resistance is needed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WordHasher(u64);

impl WordHasher {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Mixes one 64-bit word in.
    #[inline]
    pub(crate) fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(Self::K);
    }

    /// The hash of a slice of dense ids (length first, then one word
    /// per id).
    #[inline]
    pub(crate) fn hash_ids(ids: &[u32]) -> u64 {
        let mut h = WordHasher::default();
        h.word(ids.len() as u64);
        for &id in ids {
            h.word(u64::from(id));
        }
        h.finish()
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let h = (self.0 ^ (self.0 >> 32)).wrapping_mul(Self::K);
        h ^ (h >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(
                chunk.try_into().expect("chunks_exact(8) yields 8 bytes"),
            ));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }
}

/// The sentinel id marking a vacant slot. Ids must stay below this.
const VACANT: u32 = u32::MAX;

/// One slot: the full 64-bit hash (cheap early-out on probe collisions)
/// plus the caller's id for the key.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u64,
    id: u32,
}

const EMPTY_SLOT: Slot = Slot {
    hash: 0,
    id: VACANT,
};

/// An open-addressing (linear probing) index from 64-bit hashes to
/// caller-owned `u32` ids, with a single-probe entry API.
#[derive(Debug, Clone)]
pub struct ConsTable {
    /// Power-of-two slot array.
    slots: Vec<Slot>,
    /// Number of occupied slots.
    len: usize,
}

/// The result of probing a [`ConsTable`] for a hash: either the id of an
/// existing matching key, or the vacant slot where it belongs.
pub enum Entry<'a> {
    /// A key with this hash for which `is_match` returned true is already
    /// present, under the contained id.
    Occupied(u32),
    /// No matching key; insert through the handle without re-probing.
    Vacant(VacantEntry<'a>),
}

/// A claim on the vacant slot found by [`ConsTable::entry`].
pub struct VacantEntry<'a> {
    table: &'a mut ConsTable,
    index: usize,
    hash: u64,
}

impl VacantEntry<'_> {
    /// Records `id` in the claimed slot. The caller stores the key itself
    /// at `id` in its own dense storage.
    pub fn insert(self, id: u32) {
        debug_assert!(id < VACANT, "id space exhausted");
        self.table.slots[self.index] = Slot {
            hash: self.hash,
            id,
        };
        self.table.len += 1;
    }
}

impl ConsTable {
    /// An empty table.
    pub fn new() -> Self {
        ConsTable {
            slots: vec![EMPTY_SLOT; 16],
            len: 0,
        }
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys are interned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of slots in the probe array. `len() / capacity()` is the
    /// live load factor (kept below 7/8 by [`ConsTable::entry`]); the
    /// profiling layer reports it as table occupancy.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Approximate heap bytes held by the slot array.
    pub fn approx_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }

    /// Forgets every key and keeps the slot array, so a table refilled
    /// to a similar size (the walk's per-level index) never regrows.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY_SLOT);
        self.len = 0;
    }

    /// Single-probe intern: finds the id of a present matching key, or
    /// hands back the vacant slot to fill — the hash is computed by the
    /// caller exactly once per candidate, and the probe sequence is
    /// walked exactly once.
    pub fn entry(&mut self, hash: u64, mut is_match: impl FnMut(u32) -> bool) -> Entry<'_> {
        // Keep the load factor below 7/8 *before* probing, so the vacant
        // slot we hand out stays valid.
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == VACANT {
                return Entry::Vacant(VacantEntry {
                    table: self,
                    index: i,
                    hash,
                });
            }
            if slot.hash == hash && is_match(slot.id) {
                return Entry::Occupied(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the slot array, reinserting from stored hashes (keys are
    /// never touched).
    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; new_cap]);
        let mask = new_cap - 1;
        for slot in old {
            if slot.id == VACANT {
                continue;
            }
            let mut i = slot.hash as usize & mask;
            while self.slots[i].id != VACANT {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

impl Default for ConsTable {
    fn default() -> Self {
        ConsTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = WordHasher::default();
        value.hash(&mut h);
        h.finish()
    }

    /// Intern `value` into `(table, keys)`, returning (id, was_new).
    fn intern(table: &mut ConsTable, keys: &mut Vec<String>, value: &str) -> (u32, bool) {
        let hash = hash_of(&value);
        match table.entry(hash, |id| keys[id as usize] == value) {
            Entry::Occupied(id) => (id, false),
            Entry::Vacant(slot) => {
                let id = keys.len() as u32;
                keys.push(value.to_string());
                slot.insert(id);
                (id, true)
            }
        }
    }

    #[test]
    fn word_hasher_spreads_high_bit_differences_over_the_low_bits() {
        // Keys differing only above bit 48 (packed bags differ in their
        // top bytes): a bare multiply would leave the low ten bits of
        // every hash equal and pile all of them on one slot.
        let low_bits: std::collections::BTreeSet<u64> = (0..1024u64)
            .map(|i| {
                let mut h = WordHasher::default();
                h.write_u64(i << 48);
                h.finish() & 1023
            })
            .collect();
        assert!(low_bits.len() > 512, "{} of 1024 slots", low_bits.len());
    }

    #[test]
    fn cleared_table_forgets_keys_and_keeps_its_slots() {
        let mut table = ConsTable::new();
        let mut keys = Vec::new();
        for i in 0..100 {
            intern(&mut table, &mut keys, &format!("key-{i}"));
        }
        let slots = table.capacity();
        table.clear();
        assert!(table.is_empty());
        assert_eq!(table.capacity(), slots);
        keys.clear();
        assert_eq!(intern(&mut table, &mut keys, "key-7"), (0, true));
    }

    #[test]
    fn interning_is_stable_across_growth() {
        let mut table = ConsTable::new();
        let mut keys = Vec::new();
        // Enough keys to force several growths past the initial 16 slots.
        let ids: Vec<u32> = (0..1000)
            .map(|i| intern(&mut table, &mut keys, &format!("key-{i}")).0)
            .collect();
        assert_eq!(table.len(), 1000);
        // Every id is dense and stable: re-interning returns the
        // original id after all the growth.
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(id as usize, i);
            let key = format!("key-{i}");
            let (again, new) = intern(&mut table, &mut keys, &key);
            assert_eq!(again, id);
            assert!(!new);
        }
        assert_eq!(table.len(), 1000);
    }

    #[test]
    fn entry_distinguishes_colliding_hashes() {
        // Force two different keys through the same hash by lying about
        // the hash: the is_match callback must disambiguate.
        let mut table = ConsTable::new();
        let keys = ["a", "b"];
        let probe = |table: &mut ConsTable, hash: u64, key: &str| match table
            .entry(hash, |id| keys[id as usize] == key)
        {
            Entry::Occupied(id) => Some(id),
            Entry::Vacant(_) => None,
        };
        match table.entry(42, |_| false) {
            Entry::Vacant(v) => v.insert(0),
            Entry::Occupied(_) => unreachable!(),
        }
        match table.entry(42, |id| keys[id as usize] == "b") {
            Entry::Vacant(v) => v.insert(1),
            Entry::Occupied(_) => panic!("should not match"),
        }
        assert_eq!(probe(&mut table, 42, "a"), Some(0));
        assert_eq!(probe(&mut table, 42, "b"), Some(1));
        assert_eq!(probe(&mut table, 42, "c"), None);
        assert_eq!(probe(&mut table, 7, "a"), None);
        assert_eq!(table.len(), 2);
    }
}
