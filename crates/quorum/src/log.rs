//! Replica logs: timestamped operation records.
//!
//! "The queue's current value … can be reconstructed by merging the
//! entries in timestamp order, discarding duplicates" (§3.1). A [`Log`]
//! keeps entries sorted by timestamp with no duplicates, so `merge` is a
//! sorted-set union; `to_history` reads the operations back out in
//! timestamp order.
//!
//! Beyond the entry vector, a log maintains two cheap incremental
//! indices that the delta-replication runtime relies on:
//!
//! * a per-site [`SiteSummary`] table (count, max counter, XOR set hash)
//!   from which [`Log::frontier`] is read off in O(sites), and against
//!   which [`Log::delta_above`] computes the exact set of entries a peer
//!   advertising that frontier is missing;
//! * a prefix-XOR array of mixed timestamps, giving [`Log::prefix_hash`]
//!   in O(1) — the validity check behind memoized view evaluation.
//!
//! Both indices are deterministic functions of the entry set, so
//! equality and hashing remain defined by the entries alone.
//!
//! # Cost of the shard-round operations
//!
//! A replica's log and a shard's view are long; what a round moves is a
//! batch. Each operation tries its O(1) *fast paths* first and then a
//! *tail path* costing O(|delta| + |tail| + sites), where the tail is
//! the receiver's entries at or above the lowest timestamp touched — so
//! a round's cost does not grow with the resident history:
//!
//! | operation | fast paths | tail path | O(history) only when |
//! |---|---|---|---|
//! | [`Log::insert`] | above the tail: O(1), no search | binary search, then shift `entries[p..]` and re-hash `prefix[p..]` | the entry sorts at our start |
//! | [`Log::merge`] | disjoint suffix, the empty receiver included (one bulk append, O(\|other\| + sites(other))), exact prefix | gallop past what we hold (O(log d) per entry of `other`, `d` slots on; a subset — a shard's read deltas after the first of a visit, each repeating it — ends here), then a two-pointer union over `entries[p..]`, `p` = the slot of the first entry we lack | the first entry we lack sorts at our start |
//! | [`Log::delta_above_into`] | empty, advertised set = our prefix (suffix) | settle every site from the summaries, one pass over `entries` from the lowest `max + 1` of a trailing site | a site ships whole — unadvertised, ahead of us, or holed (one plain pass from our start) |
//! | [`Log::diff_into`] | `other` = our prefix (suffix) | two-pointer pass from the longest common prefix ([`Clone::clone_from`]'s binary search): O(log n + what follows it in both) — the sim client's write path, per replica whose record is not a prefix of the view (one cut off, or trailing under interleaved writers), unless the payload extends, below | the two logs differ at their start |
//! | [`Clone::clone_from`] | the longest common prefix stays (binary search over the two prefix-hash arrays), the source's entries above it are copied into spare capacity: O(log n + what differs) — a client's next view over its last | — | the two logs differ at their start |
//! | [`Log::merge_range`] | the range sorts above our tail (appends in place: a payload extended by its view's new suffix, an ack folding the WAL's next stretch) | one [`Log::range`] copy, then [`Log::merge`]'s | never |
//!
//! The two `_into` rows name the forms the runtime calls: they clear and
//! refill a log the caller keeps (the message body it sent last, see
//! [`crate::protocol::wire`]), so at steady state they allocate nothing;
//! [`Log::delta_above_with`] and [`Log::diff_with`] are the same over a
//! fresh log.
//!
//! One writer never leaves the fast paths — and a shard is one writer,
//! whatever its scheduling policy: every entry it mints carries a
//! timestamp above its own view, so its inserts, its round payloads and
//! its commits at the replicas are all appends. Two writers whose clocks
//! interleave never hit the fast paths after the first round, which is
//! what the tail paths are for.

use std::fmt;
use std::hash::{Hash, Hasher};

use relax_automata::History;

use crate::frontier::{mix_ts, Frontier, SiteSummary};
use crate::merkle::MerkleIndex;
use crate::timestamp::Timestamp;

/// A timestamped record of an operation execution.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Entry<Op> {
    /// The entry's logical timestamp (unique per operation).
    pub ts: Timestamp,
    /// The recorded operation execution.
    pub op: Op,
}

impl<Op> Entry<Op> {
    /// Creates an entry.
    pub fn new(ts: Timestamp, op: Op) -> Self {
        Entry { ts, op }
    }
}

impl<Op: fmt::Display> fmt::Display for Entry<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.ts, self.op)
    }
}

/// A log: entries sorted by timestamp, duplicates (same timestamp)
/// discarded.
#[derive(Debug)]
pub struct Log<Op> {
    entries: Vec<Entry<Op>>,
    /// `prefix[i]` = XOR of [`mix_ts`] over `entries[..=i]`.
    prefix: Vec<u64>,
    /// Per-site summaries, sorted by site id; only sites with entries.
    sites: Vec<SiteSummary>,
    /// Per-site Merkle tree over the timestamp set, built lazily on the
    /// first [`Log::merkle_index`] call and maintained incrementally
    /// from then on. `None` for logs that never sync via Merkle
    /// anti-entropy (payloads, client views, a replica that never
    /// gossips), so those paths pay nothing for it.
    merkle: Option<Box<MerkleIndex>>,
}

/// A clone is a payload — entries, prefix hashes and site summaries.
/// The Merkle index stays behind: whoever receives the copy builds and
/// maintains its own, if it ever syncs by Merkle anti-entropy at all.
impl<Op: Clone> Clone for Log<Op> {
    fn clone(&self) -> Self {
        Log {
            entries: self.entries.clone(),
            prefix: self.prefix.clone(),
            sites: self.sites.clone(),
            merkle: None,
        }
    }

    /// `*self = source.clone()`, keeping what the two already share: the
    /// longest common prefix (a binary search over the two prefix-hash
    /// arrays, `common_prefix`) stays where it lies and only `source`'s
    /// entries above it are copied, into our spare capacity. Equal
    /// prefixes have equal hashes, so nothing is re-based.
    fn clone_from(&mut self, source: &Self) {
        let keep = self.common_prefix(source);
        self.entries.truncate(keep);
        self.prefix.truncate(keep);
        self.entries.extend_from_slice(&source.entries[keep..]);
        self.prefix.extend_from_slice(&source.prefix[keep..]);
        self.sites.clone_from(&source.sites);
        self.merkle = None;
    }
}

// The indices are functions of the entry set: identity is the entries.
impl<Op: PartialEq> PartialEq for Log<Op> {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}
impl<Op: Eq> Eq for Log<Op> {}
impl<Op: Hash> Hash for Log<Op> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.entries.hash(state);
    }
}

impl<Op> Default for Log<Op> {
    fn default() -> Self {
        Log {
            entries: Vec::new(),
            prefix: Vec::new(),
            sites: Vec::new(),
            merkle: None,
        }
    }
}

/// Reusable buffers for [`Log::diff_into`] / [`Log::delta_above_into`],
/// so the read-response and client write hot loops do not allocate fresh
/// per-site vectors on every call. All buffers are cleared, never
/// shrunk: at steady state a scratch owned by a client or replica stops
/// allocating entirely (pinned by `tests/diff_alloc.rs`).
#[derive(Debug, Clone, Default)]
pub struct DiffScratch {
    /// Per own site: what the delta ships of it.
    settle: Vec<Settle>,
    /// Per own entry above the common prefix: whether it is absent from
    /// the other log.
    missing: Vec<bool>,
}

/// What [`Log::delta_above_into`] ships of one of our sites, settled
/// from our summary of it and the peer's.
#[derive(Debug, Clone, Copy)]
struct Settle {
    /// The entries with counters above this ship; `None`: all of them.
    above: Option<u64>,
    /// How many entries ship.
    ship: u64,
    /// The count and XOR hash the shipped entries must add up to,
    /// counted down as they ship: both 0 once the site is confirmed.
    left: u64,
    hash: u64,
}

impl Settle {
    fn whole(s: &SiteSummary) -> Self {
        Settle::new(None, s.count, s.hash)
    }

    fn new(above: Option<u64>, count: u64, hash: u64) -> Self {
        Settle {
            above,
            ship: count,
            left: count,
            hash,
        }
    }
}

impl<Op: Clone> Log<Op> {
    /// An empty log.
    pub fn new() -> Self {
        Log::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the log has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in timestamp order.
    pub fn entries(&self) -> &[Entry<Op>] {
        &self.entries
    }

    /// XOR of [`mix_ts`] over the first `len` entries, in O(1) — an
    /// order-independent hash of the length-`len` prefix *set*.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the log's length.
    pub fn prefix_hash(&self, len: usize) -> u64 {
        if len == 0 {
            0
        } else {
            self.prefix[len - 1]
        }
    }

    /// Folds `ts` into the site-summary table.
    fn note_site(sites: &mut Vec<SiteSummary>, ts: Timestamp) {
        match sites.binary_search_by_key(&ts.site, |s| s.site) {
            Ok(i) => {
                let s = &mut sites[i];
                s.count += 1;
                s.max = s.max.max(ts.counter);
                s.hash ^= mix_ts(ts);
            }
            Err(i) => sites.insert(
                i,
                SiteSummary {
                    site: ts.site,
                    count: 1,
                    max: ts.counter,
                    hash: mix_ts(ts),
                },
            ),
        }
    }

    /// Folds a new timestamp into the Merkle index, if one is built.
    fn note_merkle(&mut self, ts: Timestamp) {
        if let Some(m) = &mut self.merkle {
            m.note(ts);
        }
    }

    /// Empties the log, keeping its vectors, and reserves room in them
    /// for `entries` entries over `sites` sites — with [`Log::push_back`]
    /// this fills an output buffer with at most one allocation per
    /// vector (none when it already has the room, or `entries == 0`).
    fn reset(&mut self, entries: usize, sites: usize) {
        self.entries.clear();
        self.prefix.clear();
        self.sites.clear();
        self.merkle = None;
        self.entries.reserve(entries);
        self.prefix.reserve(entries);
        self.sites.reserve(if entries == 0 { 0 } else { sites });
    }

    /// Appends an entry known to sort strictly above everything present.
    fn push_back(&mut self, entry: Entry<Op>) {
        Self::note_site(&mut self.sites, entry.ts);
        self.note_merkle(entry.ts);
        self.push_known(entry);
    }

    /// [`Log::push_back`] for an entry the site summaries and the Merkle
    /// index already count (our own tail, re-seated by a splice).
    fn push_known(&mut self, entry: Entry<Op>) {
        debug_assert!(self.entries.last().is_none_or(|e| e.ts < entry.ts));
        let acc = self.prefix.last().copied().unwrap_or(0) ^ mix_ts(entry.ts);
        self.prefix.push(acc);
        self.entries.push(entry);
    }

    /// Inserts an entry, keeping timestamp order; an entry with an
    /// already-present timestamp is discarded as a duplicate. O(1) above
    /// the tail — the only place a shard's own mints ever land — and a
    /// binary search plus an O(tail) shift below it.
    pub fn insert(&mut self, entry: Entry<Op>) {
        if self.entries.last().is_none_or(|e| e.ts < entry.ts) {
            return self.push_back(entry);
        }
        match self.entries.binary_search_by_key(&entry.ts, |e| e.ts) {
            Ok(_) => {} // duplicate timestamp: already recorded
            Err(pos) => {
                let h = mix_ts(entry.ts);
                let base = if pos == 0 { 0 } else { self.prefix[pos - 1] };
                self.prefix.insert(pos, base ^ h);
                for p in &mut self.prefix[pos + 1..] {
                    *p ^= h;
                }
                Self::note_site(&mut self.sites, entry.ts);
                self.note_merkle(entry.ts);
                self.entries.insert(pos, entry);
            }
        }
    }

    /// Appends `other.entries()[lo..hi]`, known to sort strictly above
    /// everything present, in bulk: entries and prefix hashes are copied
    /// (the hashes re-based from `other`'s `lo` onto our last one). All of
    /// `other` folds its site table into ours in one sorted pass, no search
    /// per entry — O(|other| + sites(other)); a part of it has no table and
    /// notes each entry's site. A built Merkle index takes each timestamp.
    fn append(&mut self, other: &Log<Op>, lo: usize, hi: usize) {
        let slice = &other.entries[lo..hi];
        debug_assert!(slice.is_empty() || self.max_timestamp() < Some(slice[0].ts));
        let rebase = self.prefix.last().copied().unwrap_or(0) ^ other.prefix_hash(lo);
        self.entries.extend_from_slice(slice);
        self.prefix
            .extend(other.prefix[lo..hi].iter().map(|p| p ^ rebase));
        if slice.len() < other.entries.len() {
            (slice.iter()).for_each(|e| Self::note_site(&mut self.sites, e.ts));
        } else if self.sites.is_empty() {
            // Empty receiver: adopt the table at its exact size.
            self.sites.clone_from(&other.sites);
        } else {
            let mut i = 0;
            for t in &other.sites {
                // Equal site sets (a shard's rounds) never search.
                if self.sites.get(i).is_none_or(|s| s.site != t.site) {
                    i += self.sites[i..].partition_point(|s| s.site < t.site);
                }
                match self.sites.get_mut(i) {
                    Some(s) if s.site == t.site => {
                        s.count += t.count;
                        s.max = s.max.max(t.max);
                        s.hash ^= t.hash;
                    }
                    _ => self.sites.insert(i, *t),
                }
                i += 1;
            }
        }
        if let Some(m) = &mut self.merkle {
            slice.iter().for_each(|e| m.note(e.ts));
        }
    }

    /// Merges another log into this one (sorted union, duplicates
    /// discarded) — the fundamental replica/view operation of §3.1.
    ///
    /// Fast paths for the common protocol shapes: a disjoint suffix
    /// (appending fresh entries, the empty receiver included: one bulk
    /// copy) and an exact prefix (one prefix-hash compare, same ≈2⁻⁶⁴
    /// trust model as [`Log::delta_above`]). Otherwise a gallop through
    /// our entries skips what we already hold, O(log d) per entry of
    /// `other` that lies `d` slots past the last one — a subset
    /// (anti-entropy at steady state, where nothing is new) returns there
    /// — and a two-pointer union splices the rest in over our *tail*
    /// only: the entries sorting at or above the first new one.
    /// Everything below it, and its prefix hashes, stay where they are,
    /// so a merge costs what it adds plus that tail, whatever the
    /// resident history.
    pub fn merge(&mut self, other: &Log<Op>) {
        let Some(first) = other.entries.first() else {
            return;
        };
        // Disjoint-suffix fast path: everything in `other` sorts above us.
        if self.entries.last().is_none_or(|e| e.ts < first.ts) {
            self.append(other, 0, other.entries.len());
            return;
        }
        // Prefix fast path: `other` is exactly our first `m` entries
        // (one hash compare — the steady-state view merge, where the
        // second initial-quorum log repeats what the first delivered).
        let m = other.entries.len();
        if m <= self.entries.len() && self.prefix_hash(m) == other.prefix_hash(m) {
            return;
        }
        // Gallop past what we hold: `other.entries[j]` is the first entry
        // we lack, and `p` the slot it sorts into.
        let (mut p, mut j) = (0, 0);
        loop {
            let Some(b) = other.entries.get(j) else {
                return; // a subset: nothing new
            };
            p = self.gallop(p, b.ts);
            if self.entries.get(p).is_none_or(|a| a.ts != b.ts) {
                break;
            }
            (p, j) = (p + 1, j + 1);
        }
        // Splice: lift our tail out and union it back in with the rest.
        let tail = self.entries.split_off(p);
        self.prefix.truncate(p);
        self.entries.reserve(tail.len() + m - j);
        self.prefix.reserve(tail.len() + m - j);
        let mut ours = tail.into_iter().peekable();
        let mut theirs = other.entries[j..].iter().peekable();
        loop {
            match (ours.peek(), theirs.peek()) {
                (None, None) => break,
                (Some(a), Some(b)) if a.ts <= b.ts => {
                    if a.ts == b.ts {
                        theirs.next(); // duplicate: keep ours
                    }
                    self.push_known(ours.next().expect("peeked"));
                }
                (Some(_), None) => self.push_known(ours.next().expect("peeked")),
                (_, Some(_)) => self.push_back(theirs.next().expect("peeked").clone()),
            }
        }
    }

    /// The first slot at or after `lo` whose entry does not sort below
    /// `ts`: probes `lo`, `lo + 1`, `lo + 3`, `lo + 7`, … in doubling
    /// strides, then binary-searches the last stride — O(log d) for an
    /// answer `d` slots past `lo`.
    fn gallop(&self, lo: usize, ts: Timestamp) -> usize {
        let rest = &self.entries[lo..];
        let (mut base, mut step) = (0, 1);
        while base + step <= rest.len() && rest[base + step - 1].ts < ts {
            base += step;
            step *= 2;
        }
        let end = rest.len().min(base + step);
        lo + base + rest[base..end].partition_point(|e| e.ts < ts)
    }

    /// The length of the longest prefix the two logs share. Prefixes of
    /// sorted logs agree as sets iff as sequences, so agreement is
    /// monotone in the length and a binary search over the two
    /// prefix-hash arrays finds it in O(log n) (hash and boundary
    /// timestamp: the [`crate::ViewCache`] validity test, its ≈2⁻⁶⁴
    /// trust).
    fn common_prefix(&self, other: &Self) -> usize {
        let agree = |n: usize| {
            self.prefix[n - 1] == other.prefix[n - 1]
                && self.entries[n - 1].ts == other.entries[n - 1].ts
        };
        let (mut keep, mut differ) = (0, self.len().min(other.len()) + 1);
        while differ - keep > 1 {
            let mid = keep + (differ - keep) / 2;
            if agree(mid) {
                keep = mid;
            } else {
                differ = mid;
            }
        }
        keep
    }

    /// `entries()[lo..hi]` as a log of its own, at exact capacity: at
    /// most three allocations, none for an empty range.
    #[must_use]
    pub fn range(&self, lo: usize, hi: usize) -> Log<Op> {
        let mut out = Log::new();
        self.range_into(lo, hi, &mut out);
        out
    }

    /// [`Log::range`] into `out`'s buffers, whatever they held.
    fn range_into(&self, lo: usize, hi: usize, out: &mut Log<Op>) {
        out.reset(hi - lo, self.sites.len());
        out.append(self, lo, hi);
    }

    /// Merges `other.entries()[lo..hi]`. A range sorting above our tail
    /// — a payload taking its view's new suffix, an ack folding the
    /// WAL's next stretch — is [`Log::merge`]'s bulk append and
    /// allocates nothing but our own growth; any other is one splice of
    /// [`Log::range`].
    pub fn merge_range(&mut self, other: &Log<Op>, lo: usize, hi: usize) {
        let first = other.entries[lo..hi].first();
        if first.is_none_or(|f| self.max_timestamp() < Some(f.ts)) {
            self.append(other, lo, hi);
        } else {
            self.merge(&other.range(lo, hi));
        }
    }

    /// A merged copy of two logs.
    #[must_use]
    pub fn merged(&self, other: &Log<Op>) -> Log<Op> {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// The per-site summary table behind [`Log::frontier`], borrowed
    /// without the copy (sorted by site id; only sites with entries).
    #[must_use]
    pub fn site_summaries(&self) -> &[SiteSummary] {
        &self.sites
    }

    /// The per-site summary of this log's entry set (O(sites)).
    #[must_use]
    pub fn frontier(&self) -> Frontier {
        let mut f = Frontier::empty();
        self.frontier_into(&mut f);
        f
    }

    /// [`Log::frontier`] into `f`'s buffer, whatever it held.
    pub fn frontier_into(&self, f: &mut Frontier) {
        f.refill(&self.sites);
    }

    /// The entries a peer advertising frontier `f` is missing, such that
    /// merging the result into *any* superset `K` of the summarized set
    /// (with `K ⊆ self`) yields exactly `K ∪ self` — in the runtime's
    /// use, exactly `self`.
    ///
    /// Per site: if our entries with counters up to the advertised
    /// maximum match the advertised (count, max, hash) summary exactly,
    /// only entries above the maximum are included; otherwise (the peer
    /// has per-site holes we cannot see through the summary, or claims
    /// entries we lack) the site's entries are included wholesale —
    /// redundancy is safe because merge is idempotent.
    #[must_use]
    pub fn delta_above(&self, f: &Frontier) -> Log<Op> {
        self.delta_above_with(f, &mut DiffScratch::default())
    }

    /// [`Log::delta_above`] with caller-owned scratch buffers: the
    /// per-site summary vectors are reused across calls, and the output
    /// log's vectors are reserved to exact size, so a warm call performs
    /// at most three allocations (zero for an empty delta).
    #[must_use]
    pub fn delta_above_with(&self, f: &Frontier, scratch: &mut DiffScratch) -> Log<Op> {
        let mut out = Log::new();
        self.delta_above_into(f, scratch, &mut out);
        out
    }

    /// [`Log::delta_above_with`] into `out`'s buffers, whatever they
    /// held: a replica answering one client's reads refills the response
    /// it sent last and allocates nothing once the buffers have grown.
    ///
    /// O(|delta| + |tail| + sites) whenever the peer holds a prefix of
    /// each of our sites (the tail path, `delta_tail`); a site it lacks
    /// altogether, is ahead of us on, or holds with a hole ships whole,
    /// which takes one plain pass from our start.
    pub fn delta_above_into(&self, f: &Frontier, scratch: &mut DiffScratch, out: &mut Log<Op>) {
        if f.is_empty() || self.is_empty() {
            return out.clone_from(self);
        }
        let fsites = f.sites();
        // Suffix fast path (one hash compare): when the advertised set
        // is exactly our first `claimed` entries, every advertised site
        // is confirmed — timestamps sort by (counter, site), so a site's
        // entries above its advertised max are precisely its entries
        // past the prefix — and the delta is our suffix, O(delta). This
        // is the steady-state gossip shape: the peer trails us by a
        // contiguous batch or not at all.
        let claimed: usize = fsites.iter().map(|s| s.count as usize).sum();
        let claimed_hash = fsites.iter().fold(0u64, |h, s| h ^ s.hash);
        if claimed <= self.entries.len() && self.prefix_hash(claimed) == claimed_hash {
            return self.range_into(claimed, self.entries.len(), out);
        }
        self.delta_tail(f, scratch, out);
    }

    /// The tail path of [`Log::delta_above_into`]. Settles every site
    /// from the two summaries alone (O(sites)), the way a full scan of
    /// our entries would: a site the peer does not advertise, or
    /// advertises at or past our max with a different summary, ships
    /// whole; an equal one ships nothing; one the peer trails us on ships
    /// its entries above the advertised max. Then reads only our entries
    /// at or above the lowest counter a site ships from.
    ///
    /// A trailing site is confirmed by subtraction: our summary minus
    /// the entries above the advertised max must leave the advertised
    /// (count, hash) — what adding up the entries below it would give,
    /// under the same ≈2⁻⁶⁴ trust in the XOR hash. A site that fails
    /// (the peer holds it with a hole) turns whole, and a second pass
    /// from our start ships it.
    fn delta_tail(&self, f: &Frontier, scratch: &mut DiffScratch, out: &mut Log<Op>) {
        scratch.settle.clear();
        // What ships, and the lowest counter it ships from.
        let (mut n, mut floor) = (0, u64::MAX);
        let mut adv = f.sites().iter().peekable();
        for s in &self.sites {
            while adv.next_if(|a| a.site < s.site).is_some() {}
            let settle = match adv.next_if(|a| a.site == s.site) {
                Some(a) if a == s => Settle::new(Some(s.max), 0, 0),
                Some(a) if a.max < s.max && a.count < s.count => {
                    Settle::new(Some(a.max), s.count - a.count, s.hash ^ a.hash)
                }
                _ => Settle::whole(s),
            };
            if settle.ship > 0 {
                n += settle.ship;
                floor = floor.min(settle.above.map_or(0, |max| max + 1));
            }
            scratch.settle.push(settle);
        }
        if self.delta_pass(n, floor, scratch, out) {
            return;
        }
        n = 0;
        for (b, s) in scratch.settle.iter_mut().zip(&self.sites) {
            if b.left != 0 || b.hash != 0 {
                *b = Settle::whole(s);
            }
            n += b.ship;
        }
        // Every site now ships whole or is confirmed, so this pass's
        // own verdict says nothing.
        self.delta_pass(n, 0, scratch, out);
    }

    /// Refills `out` with the `n` entries `scratch.settle` ships, reading
    /// ours from counter `floor` on; true when every site's shipped
    /// entries add up to what it owes.
    fn delta_pass(&self, n: u64, floor: u64, scratch: &mut DiffScratch, out: &mut Log<Op>) -> bool {
        let settle = &mut scratch.settle;
        out.reset(n as usize, self.sites.len());
        let start = self.entries.partition_point(|e| e.ts.counter < floor);
        for e in &self.entries[start..] {
            let ix = self.sites.binary_search_by_key(&e.ts.site, |s| s.site);
            let b = &mut settle[ix.expect("every entry's site is summarized")];
            if b.above.is_none_or(|max| e.ts.counter > max) {
                b.left = b.left.wrapping_sub(1);
                b.hash ^= mix_ts(e.ts);
                out.push_back(e.clone());
            }
        }
        settle.iter().all(|b| b.left == 0 && b.hash == 0)
    }

    /// The entries of `self` absent from `other` (two-pointer set
    /// difference; both logs are sorted).
    #[must_use]
    pub fn diff(&self, other: &Log<Op>) -> Log<Op> {
        self.diff_with(other, &mut DiffScratch::default())
    }

    /// [`Log::diff`] with caller-owned scratch: one two-pointer pass
    /// marks missing entries in a reused flag buffer, then the output is
    /// built with exact capacity — at most three allocations on a warm
    /// scratch, zero when nothing is missing.
    #[must_use]
    pub fn diff_with(&self, other: &Log<Op>, scratch: &mut DiffScratch) -> Log<Op> {
        let mut out = Log::new();
        self.diff_into(other, scratch, &mut out);
        out
    }

    /// [`Log::diff_with`] into `out`'s buffers, whatever they held: a
    /// client refills the write payload a replica has acked and allocates
    /// nothing once the buffers have grown.
    ///
    /// O(|self| − p + |other| − p + log n), `p` the two logs' longest
    /// common prefix: below it `other` holds all of ours.
    pub fn diff_into(&self, other: &Log<Op>, scratch: &mut DiffScratch, out: &mut Log<Op>) {
        // Prefix fast path (one hash compare): `other` is exactly our
        // first `m` entries, so the difference is our suffix — the
        // steady-state write shape, where the replica already holds
        // everything but the entry being recorded.
        let m = other.entries.len();
        if m <= self.entries.len() && self.prefix_hash(m) == other.prefix_hash(m) {
            return self.range_into(m, self.entries.len(), out);
        }
        // Otherwise a two-pointer pass from the longest common prefix:
        // a record cut off mid-view, or trailing under interleaved
        // writers, shares most of its start with the view.
        let p = self.common_prefix(other);
        let (ours, theirs) = (&self.entries[p..], &other.entries[p..]);
        scratch.missing.clear();
        let mut n = 0usize;
        let mut j = 0;
        for e in ours {
            while j < theirs.len() && theirs[j].ts < e.ts {
                j += 1;
            }
            let missing = !(j < theirs.len() && theirs[j].ts == e.ts);
            if !missing {
                j += 1;
            }
            n += usize::from(missing);
            scratch.missing.push(missing);
        }
        out.reset(n, self.sites.len());
        for (e, &missing) in ours.iter().zip(&scratch.missing) {
            if missing {
                out.push_back(e.clone());
            }
        }
    }

    /// The operations in timestamp order, as a history.
    pub fn to_history(&self) -> History<Op> {
        self.entries.iter().map(|e| e.op.clone()).collect()
    }

    /// The largest timestamp present, if any.
    pub fn max_timestamp(&self) -> Option<Timestamp> {
        self.entries.last().map(|e| e.ts)
    }

    /// The per-site Merkle index of this log's timestamp set, built
    /// from scratch on first use (O(n log n)) and maintained
    /// incrementally (O(log n) per new entry) from then on. Logs that
    /// never call this pay nothing.
    pub fn merkle_index(&mut self) -> &MerkleIndex {
        if self.merkle.is_none() {
            self.merkle = Some(Box::new(MerkleIndex::from_timestamps(
                self.entries.iter().map(|e| e.ts),
            )));
        }
        self.merkle.as_deref().expect("just built")
    }

    /// The entries of `site` with counters in `[lo, hi)` as a log — the
    /// payload for one divergent Merkle leaf. Counter ranges are
    /// contiguous in the (counter, site) sort order, so this is two
    /// binary searches plus a scan of the range.
    #[must_use]
    pub fn entries_in_range(&self, site: usize, lo: u64, hi: u64) -> Log<Op> {
        let start = self.entries.partition_point(|e| e.ts.counter < lo);
        let end = self.entries.partition_point(|e| e.ts.counter < hi);
        let slice = &self.entries[start..end];
        let n = slice.iter().filter(|e| e.ts.site == site).count();
        let mut out = Log::new();
        out.reset(n, 1);
        for e in slice.iter().filter(|e| e.ts.site == site) {
            out.push_back(e.clone());
        }
        out
    }

    /// True if this log contains every entry of `other`.
    pub fn contains_log(&self, other: &Log<Op>) -> bool {
        other
            .entries
            .iter()
            .all(|e| self.entries.binary_search_by_key(&e.ts, |x| x.ts).is_ok())
    }
}

impl<Op: Clone> FromIterator<Entry<Op>> for Log<Op> {
    fn from_iter<I: IntoIterator<Item = Entry<Op>>>(iter: I) -> Self {
        let mut log = Log::new();
        for e in iter {
            log.insert(e);
        }
        log
    }
}

impl<Op: fmt::Display> fmt::Display for Log<Op> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "log[")?;
        for e in &self.entries {
            writeln!(f, "  {e}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use relax_automata::SplitMix64;

    fn e(counter: u64, site: usize, op: &str) -> Entry<String> {
        Entry::new(Timestamp::new(counter, site), op.to_string())
    }

    /// The pre-optimization merge (repeated inserts), kept as the oracle.
    fn naive_merged(a: &Log<String>, b: &Log<String>) -> Log<String> {
        let mut out = a.clone();
        for entry in b.entries() {
            out.insert(entry.clone());
        }
        out
    }

    /// The tail path, filling a buffer that held something else (the
    /// log itself) — what a reused response does.
    fn delta_tail_of(log: &Log<String>, f: &Frontier) -> Log<String> {
        let mut out = log.clone();
        log.delta_tail(f, &mut DiffScratch::default(), &mut out);
        out
    }

    /// The oracle of the tail path: a full scan, three passes over the
    /// whole log. Per advertised site it sums our entries at or below the
    /// advertised max; a site whose sum matches the advertised summary
    /// ships the entries above it, any other ships whole.
    fn delta_scan_of(log: &Log<String>, f: &Frontier) -> Log<String> {
        let fsites = f.sites();
        let mut below: Vec<SiteSummary> = fsites
            .iter()
            .map(|s| SiteSummary {
                site: s.site,
                count: 0,
                max: 0,
                hash: 0,
            })
            .collect();
        for e in log.entries() {
            if let Some(ix) = f.index_of(e.ts.site) {
                if e.ts.counter <= fsites[ix].max {
                    let b = &mut below[ix];
                    b.count += 1;
                    b.max = b.max.max(e.ts.counter);
                    b.hash ^= mix_ts(e.ts);
                }
            }
        }
        let confirmed: Vec<bool> = fsites.iter().zip(&below).map(|(s, b)| s == b).collect();
        let include = |e: &Entry<String>| match f.index_of(e.ts.site) {
            None => true,
            Some(ix) => !confirmed[ix] || e.ts.counter > fsites[ix].max,
        };
        log.entries()
            .iter()
            .filter(|e| include(e))
            .cloned()
            .collect()
    }

    /// Recomputes the indices from scratch and checks them against the
    /// incrementally maintained ones.
    fn check_indices(log: &Log<String>) {
        let mut acc = 0u64;
        for (i, entry) in log.entries().iter().enumerate() {
            acc ^= mix_ts(entry.ts);
            assert_eq!(log.prefix_hash(i + 1), acc, "prefix[{i}]");
        }
        let mut fresh: Vec<SiteSummary> = Vec::new();
        for entry in log.entries() {
            Log::<String>::note_site(&mut fresh, entry.ts);
        }
        assert_eq!(log.sites, fresh, "site summaries");
        if log.merkle.is_some() {
            let rebuilt = MerkleIndex::from_timestamps(log.entries().iter().map(|e| e.ts));
            assert_eq!(
                log.merkle.as_deref(),
                Some(&rebuilt),
                "incrementally maintained merkle index"
            );
        }
    }

    #[test]
    fn merkle_index_is_maintained_through_insert_and_merge() {
        let mut log: Log<String> = [e(1, 0, "a"), e(9, 1, "b")].into_iter().collect();
        let _ = log.merkle_index(); // build; from here on it is incremental
        log.insert(e(40, 0, "c")); // push_back path (grows the tree)
        log.insert(e(3, 0, "d")); // middle-insert path
        let other: Log<String> = [e(3, 0, "d"), e(5, 1, "x"), e(200, 2, "y")]
            .into_iter()
            .collect();
        log.merge(&other); // general merge path with a duplicate
        check_indices(&log);
        assert_eq!(log.merkle_index().roots().len(), 3);
    }

    #[test]
    fn payloads_carry_no_merkle_index_and_receivers_keep_their_own() {
        let mut sender: Log<String> = [e(1, 0, "a"), e(2, 1, "b"), e(40, 0, "c")]
            .into_iter()
            .collect();
        let _ = sender.merkle_index();
        assert!(sender.clone().merkle.is_none(), "a clone is a payload");
        assert!(sender.delta_above(&Frontier::empty()).merkle.is_none());

        // Index built on the receiver only: merging into the empty log
        // keeps it, and keeps it right.
        let mut receiver: Log<String> = Log::new();
        let _ = receiver.merkle_index();
        receiver.merge(&sender.clone());
        assert!(receiver.merkle.is_some(), "the receiver's index survives");
        check_indices(&receiver);
        assert_eq!(receiver, sender);

        // Index built on the sender only: the receiver does not adopt it.
        let mut receiver: Log<String> = Log::new();
        receiver.merge(&sender);
        assert!(receiver.merkle.is_none(), "nobody asked for an index here");
        check_indices(&receiver);
        receiver.insert(e(3, 1, "d"));
        assert_eq!(receiver.merkle_index().roots().len(), 2);
        check_indices(&receiver);
    }

    #[test]
    fn tail_delta_settles_every_peer_shape() {
        // Two writers interleave: sites 0 and 1. The peer wrote site 0
        // itself and trails on site 1.
        let ours: Log<String> = (1..=40u64)
            .flat_map(|c| [e(c, 0, "x"), e(c, 1, "y")])
            .collect();
        let peer_with = |site1_upto: u64| -> Log<String> {
            ours.entries()
                .iter()
                .filter(|x| x.ts.site == 0 || x.ts.counter <= site1_upto)
                .cloned()
                .collect()
        };
        let trailing = peer_with(30);
        // A hole below the advertised max, an unadvertised site, and a
        // peer ahead of us settle too: the site ships whole.
        let holed: Log<String> = trailing
            .entries()
            .iter()
            .filter(|x| x.ts != Timestamp::new(7, 1))
            .cloned()
            .collect();
        let one_site = peer_with(0);
        let mut ahead = peer_with(30);
        ahead.insert(e(99, 0, "z"));
        let mut scratch = DiffScratch::default();
        for (peer, ships) in [(trailing, 10), (holed, 40), (one_site, 40), (ahead, 50)] {
            let f = peer.frontier();
            let got = delta_tail_of(&ours, &f);
            assert_eq!(got, delta_scan_of(&ours, &f));
            assert_eq!(got.len(), ships);
            assert_eq!(ours.delta_above_with(&f, &mut scratch), got);
            assert_eq!(peer.merged(&got), peer.merged(&ours));
            check_indices(&got);
        }
    }

    #[test]
    fn entries_in_range_selects_one_site_counter_window() {
        let log: Log<String> = [e(1, 0, "a"), e(2, 1, "b"), e(2, 0, "c"), e(9, 0, "d")]
            .into_iter()
            .collect();
        let got = log.entries_in_range(0, 2, 9);
        assert_eq!(got.len(), 1);
        assert_eq!(got.entries()[0].op, "c");
        assert_eq!(log.entries_in_range(0, 0, 100).len(), 3);
        assert!(log.entries_in_range(2, 0, 100).is_empty());
    }

    #[test]
    fn paper_replicated_queue_example() {
        // The three-site schematic of §3.1: merging reconstructs
        // Enq(x) · Enq(y) · Enq(z) in timestamp order.
        let s1: Log<String> = [e(1, 1, "Enq(x)"), e(2, 2, "Enq(z)")].into_iter().collect();
        let s2: Log<String> = [e(1, 1, "Enq(x)"), e(1, 3, "Enq(y)")].into_iter().collect();
        let s3: Log<String> = [e(1, 3, "Enq(y)"), e(2, 2, "Enq(z)")].into_iter().collect();

        let merged = s1.merged(&s2).merged(&s3);
        assert_eq!(merged.len(), 3);
        let ops: Vec<String> = merged.to_history().into_ops();
        assert_eq!(ops, vec!["Enq(x)", "Enq(y)", "Enq(z)"]);
        check_indices(&merged);
    }

    #[test]
    fn insert_keeps_order_and_discards_duplicates() {
        let mut log = Log::new();
        log.insert(e(2, 1, "b"));
        log.insert(e(1, 1, "a"));
        log.insert(e(2, 1, "DUPLICATE"));
        assert_eq!(log.len(), 2);
        assert_eq!(log.entries()[0].op, "a");
        assert_eq!(log.entries()[1].op, "b");
        check_indices(&log);
    }

    #[test]
    fn insert_above_the_tail_skips_the_search_and_nothing_else_changes() {
        // The insert before the tail check: always a binary search.
        fn insert_by_search(entries: &mut Vec<Entry<String>>, entry: Entry<String>) {
            if let Err(pos) = entries.binary_search_by_key(&entry.ts, |x| x.ts) {
                entries.insert(pos, entry);
            }
        }
        let script = [
            e(5, 1, "first"),
            e(5, 2, "above the tail, same counter"),
            e(9, 0, "above the tail"),
            e(7, 3, "in the middle"),
            e(1, 0, "at the start"),
            e(9, 0, "DUPLICATE of the tail"),
            e(7, 3, "DUPLICATE in the middle"),
            e(9, 1, "above the tail again"),
        ];
        for merkle in [false, true] {
            let mut log: Log<String> = Log::new();
            let mut oracle = Vec::new();
            if merkle {
                let _ = log.merkle_index();
            }
            for entry in &script {
                log.insert(entry.clone());
                insert_by_search(&mut oracle, entry.clone());
                assert_eq!(log.entries(), &oracle[..]);
                check_indices(&log);
            }
            assert_eq!(log.len(), 6);
        }
    }

    #[test]
    fn contains_log_relation() {
        let small: Log<String> = [e(1, 1, "a")].into_iter().collect();
        let big: Log<String> = [e(1, 1, "a"), e(2, 1, "b")].into_iter().collect();
        assert!(big.contains_log(&small));
        assert!(!small.contains_log(&big));
        assert!(big.contains_log(&big));
    }

    #[test]
    fn max_timestamp() {
        let log: Log<String> = [e(3, 0, "c"), e(1, 0, "a")].into_iter().collect();
        assert_eq!(log.max_timestamp(), Some(Timestamp::new(3, 0)));
        assert_eq!(Log::<String>::new().max_timestamp(), None);
    }

    #[test]
    fn delta_above_ships_only_the_missing_suffix() {
        let replica: Log<String> = [e(1, 0, "a"), e(2, 0, "b"), e(3, 1, "c"), e(4, 0, "d")]
            .into_iter()
            .collect();
        let known: Log<String> = [e(1, 0, "a"), e(2, 0, "b")].into_iter().collect();
        let delta = replica.delta_above(&known.frontier());
        // Site 0 confirmed up to counter 2 → only (4,0); site 1 unknown →
        // all of it.
        assert_eq!(delta.len(), 2);
        assert_eq!(known.merged(&delta), replica);
    }

    #[test]
    fn delta_above_detects_per_site_holes() {
        // The peer holds {1,5} of site 0 — a hole at 3. Its summary
        // (count 2, max 5) cannot match our below-set {1,3,5}, so the
        // whole site is resent and the merge still reconstructs us.
        let replica: Log<String> = [e(1, 0, "a"), e(3, 0, "h"), e(5, 0, "z")]
            .into_iter()
            .collect();
        let known: Log<String> = [e(1, 0, "a"), e(5, 0, "z")].into_iter().collect();
        let delta = replica.delta_above(&known.frontier());
        assert_eq!(delta.len(), 3, "hole forces a full-site resend");
        assert_eq!(known.merged(&delta), replica);

        // Without the hole the same maximum yields a minimal delta.
        let known: Log<String> = [e(1, 0, "a"), e(3, 0, "h")].into_iter().collect();
        let delta = replica.delta_above(&known.frontier());
        assert_eq!(delta.len(), 1);
        assert_eq!(known.merged(&delta), replica);
    }

    #[test]
    fn delta_against_empty_frontier_is_the_whole_log() {
        let replica: Log<String> = [e(1, 0, "a"), e(2, 1, "b")].into_iter().collect();
        assert_eq!(replica.delta_above(&Frontier::empty()), replica);
        assert_eq!(
            replica.delta_above(&Log::<String>::new().frontier()),
            replica
        );
    }

    #[test]
    fn diff_is_set_difference() {
        let a: Log<String> = [e(1, 0, "a"), e(2, 0, "b"), e(3, 1, "c")]
            .into_iter()
            .collect();
        let b: Log<String> = [e(2, 0, "b")].into_iter().collect();
        let d = a.diff(&b);
        assert_eq!(d.len(), 2);
        assert_eq!(b.merged(&d), a);
        assert!(a.diff(&a).is_empty());
        assert_eq!(a.diff(&Log::new()), a);
    }

    proptest! {
        /// Merge is commutative and associative, and idempotent.
        #[test]
        fn merge_is_a_join(
            a in proptest::collection::vec((1u64..6, 0usize..3), 0..8),
            b in proptest::collection::vec((1u64..6, 0usize..3), 0..8),
            c in proptest::collection::vec((1u64..6, 0usize..3), 0..8),
        ) {
            let to_log = |v: &Vec<(u64, usize)>| -> Log<String> {
                v.iter()
                    .map(|&(ct, s)| Entry::new(Timestamp::new(ct, s), format!("op{ct}:{s}")))
                    .collect()
            };
            let (la, lb, lc) = (to_log(&a), to_log(&b), to_log(&c));
            prop_assert_eq!(la.merged(&lb), lb.merged(&la));
            prop_assert_eq!(la.merged(&lb).merged(&lc), la.merged(&lb.merged(&lc)));
            prop_assert_eq!(la.merged(&la), la);
        }

        /// A merged log contains both inputs.
        #[test]
        fn merge_is_upper_bound(
            a in proptest::collection::vec((1u64..6, 0usize..3), 0..8),
            b in proptest::collection::vec((1u64..6, 0usize..3), 0..8),
        ) {
            let to_log = |v: &Vec<(u64, usize)>| -> Log<String> {
                v.iter()
                    .map(|&(ct, s)| Entry::new(Timestamp::new(ct, s), format!("op{ct}:{s}")))
                    .collect()
            };
            let (la, lb) = (to_log(&a), to_log(&b));
            let m = la.merged(&lb);
            prop_assert!(m.contains_log(&la));
            prop_assert!(m.contains_log(&lb));
        }

        /// The two-pointer merge agrees with the repeated-insert oracle,
        /// and the incremental indices agree with a from-scratch rebuild.
        #[test]
        fn merge_matches_naive_and_indices_hold(
            a in proptest::collection::vec((1u64..10, 0usize..4), 0..16),
            b in proptest::collection::vec((1u64..10, 0usize..4), 0..16),
        ) {
            let to_log = |v: &Vec<(u64, usize)>| -> Log<String> {
                v.iter()
                    .map(|&(ct, s)| Entry::new(Timestamp::new(ct, s), format!("op{ct}:{s}")))
                    .collect()
            };
            let (la, lb) = (to_log(&a), to_log(&b));
            let m = la.merged(&lb);
            prop_assert_eq!(&m, &naive_merged(&la, &lb));
            check_indices(&m);
            check_indices(&la);
        }

        /// The bulk append is the repeated-insert oracle and leaves every
        /// index (entries, `prefix`, `sites`, Merkle) as a from-scratch
        /// rebuild would — for a payload on sites the receiver has never
        /// seen, on sites it has, and on both; into an empty receiver
        /// and a resident one; Merkle index built and not.
        #[test]
        fn bulk_append_matches_naive_over_seen_and_unseen_sites(
            resident in proptest::collection::vec((1u64..10, 0usize..4), 0..16),
            payload in proptest::collection::vec((10u64..20, 0usize..4), 1..16),
            site_map in 0usize..3,
            merkle in any::<bool>(),
        ) {
            // The receiver writes sites {1, 3, 5, 7}; the payload's site
            // `s` lands on an unseen even site, the seen odd one, or
            // alternates between the two.
            let payload_site = |s: usize| match site_map {
                0 => 2 * s,
                1 => 2 * s + 1,
                _ => 2 * s + s % 2,
            };
            let mut receiver: Log<String> =
                resident.iter().map(|&(ct, s)| e(ct, 2 * s + 1, "ours")).collect();
            let other: Log<String> =
                payload.iter().map(|&(ct, s)| e(ct, payload_site(s), "theirs")).collect();
            let expect = naive_merged(&receiver, &other);
            if merkle {
                let _ = receiver.merkle_index();
            }
            receiver.merge(&other);
            prop_assert_eq!(&receiver, &expect);
            prop_assert_eq!(receiver.merkle.is_some(), merkle);
            check_indices(&receiver);
        }

        /// `range` is the slice as a log with rebuilt indices, and
        /// `merge_range` is the merge of it — a range above the
        /// receiver's tail (appended in place) and one that interleaves
        /// (spliced) alike, Merkle index built and not.
        #[test]
        fn merge_range_is_the_merge_of_the_range(
            resident in proptest::collection::vec((1u64..14, 0usize..3), 0..16),
            source in proptest::collection::vec((1u64..20, 0usize..3), 1..16),
            cut in (0usize..16, 0usize..16),
            above in any::<bool>(),
            merkle in any::<bool>(),
        ) {
            // `above` lifts the source past every resident counter.
            let lift = if above { 14 } else { 0 };
            let mut receiver: Log<String> =
                resident.iter().map(|&(ct, s)| e(ct, s, "ours")).collect();
            let other: Log<String> =
                source.iter().map(|&(ct, s)| e(ct + lift, s, "theirs")).collect();
            let (lo, hi) = (cut.0.min(cut.1).min(other.len()), cut.0.max(cut.1).min(other.len()));
            let range = other.range(lo, hi);
            prop_assert_eq!(range.entries(), &other.entries()[lo..hi]);
            check_indices(&range);
            let expect = naive_merged(&receiver, &range);
            if merkle {
                let _ = receiver.merkle_index();
            }
            receiver.merge_range(&other, lo, hi);
            prop_assert_eq!(&receiver, &expect);
            check_indices(&receiver);
        }

        /// Exactness of delta shipping: for any replica log and any
        /// subset the peer already knows, `known ∪ delta == replica`.
        #[test]
        fn delta_reconstructs_exactly(
            entries in proptest::collection::vec((1u64..12, 0usize..4), 0..20),
            keep in proptest::collection::vec(any::<bool>(), 20),
        ) {
            let replica: Log<String> = entries
                .iter()
                .map(|&(ct, s)| Entry::new(Timestamp::new(ct, s), format!("op{ct}:{s}")))
                .collect();
            let known: Log<String> = replica
                .entries()
                .iter()
                .enumerate()
                .filter(|(i, _)| keep[*i % keep.len()])
                .map(|(_, entry)| entry.clone())
                .collect();
            let delta = replica.delta_above(&known.frontier());
            prop_assert_eq!(&known.merged(&delta), &replica);
            // The scratch-threaded form is the same function, warm or cold.
            let mut scratch = DiffScratch::default();
            let d1 = replica.delta_above_with(&known.frontier(), &mut scratch);
            let d2 = replica.delta_above_with(&known.frontier(), &mut scratch);
            prop_assert_eq!(&d1, &delta);
            prop_assert_eq!(&d2, &delta);
            // And the same into a buffer that held something else.
            let mut out = replica.clone();
            replica.delta_above_into(&known.frontier(), &mut scratch, &mut out);
            prop_assert_eq!(&out, &delta);
            check_indices(&out);
            // The delta never ships entries the peer provably has: every
            // confirmed site's below-max entries are excluded, so the
            // delta is disjoint from `known` on confirmed sites. At
            // minimum it is never larger than the replica log.
            prop_assert!(delta.len() <= replica.len());
        }

        /// diff is exact: `other ∪ (self \ other) == self ∪ other`.
        #[test]
        fn diff_reconstructs(
            a in proptest::collection::vec((1u64..10, 0usize..3), 0..16),
            b in proptest::collection::vec((1u64..10, 0usize..3), 0..16),
        ) {
            let to_log = |v: &Vec<(u64, usize)>| -> Log<String> {
                v.iter()
                    .map(|&(ct, s)| Entry::new(Timestamp::new(ct, s), format!("op{ct}:{s}")))
                    .collect()
            };
            let (la, lb) = (to_log(&a), to_log(&b));
            prop_assert_eq!(lb.merged(&la.diff(&lb)), lb.merged(&la));
            let mut scratch = DiffScratch::default();
            let d1 = la.diff_with(&lb, &mut scratch);
            let d2 = la.diff_with(&lb, &mut scratch);
            prop_assert_eq!(&d1, &la.diff(&lb));
            prop_assert_eq!(&d1, &d2);
            // And the same into a buffer that held something else.
            let mut out = lb.clone();
            la.diff_into(&lb, &mut scratch, &mut out);
            prop_assert_eq!(&out, &d1);
            check_indices(&out);
        }

        /// The tail path of `delta_above_with` is the full scan: on two
        /// writers interleaving over 8–12 sites, with the peer trailing,
        /// holed, missing whole sites, or ahead of us, the tail path
        /// settles every site and the same `Log` comes out, warm scratch
        /// or cold. Four scenarios a case.
        #[test]
        fn delta_tail_matches_the_full_scan(seeds in proptest::collection::vec(0u64..u64::MAX, 4)) {
            for seed in seeds {
                let mut rng = SplitMix64::seed_from_u64(seed);
                let n_sites = 8 + rng.index(5);
                // Writer A owns the even sites, writer B the odd ones;
                // each round one of them stamps a batch off a shared
                // Lamport floor, so their counters interleave.
                let mut ours: Log<String> = Log::new();
                let mut floor = [1u64; 2];
                for _ in 0..4 + rng.index(12) {
                    let w = rng.index(2);
                    for site in (w..n_sites).step_by(2) {
                        ours.insert(e(floor[w] + rng.index(3) as u64, site, "op"));
                    }
                    floor[w] += 3;
                    floor[1 - w] = floor[1 - w].max(floor[w].saturating_sub(6));
                }
                // The peer: per site a prefix of ours (at least one
                // entry), then maybe one fault.
                let fault = rng.index(6); // 0 hole, 1 unadvertised, 2 ahead, else clean
                let victim = rng.index(n_sites);
                let mut peer: Log<String> = Log::new();
                for s in ours.site_summaries() {
                    let own: Vec<&Entry<String>> =
                        ours.entries().iter().filter(|x| x.ts.site == s.site).collect();
                    let keep = 1 + rng.index(own.len());
                    let hole = (fault == 0 && s.site == victim && keep >= 2)
                        .then(|| rng.index(keep - 1));
                    for (i, x) in own[..keep].iter().enumerate() {
                        if Some(i) != hole && !(fault == 1 && s.site == victim) {
                            peer.insert((*x).clone());
                        }
                    }
                    if fault == 2 && s.site == victim {
                        peer.insert(e(s.max + 1 + rng.index(4) as u64, s.site, "theirs"));
                    }
                }
                let f = peer.frontier();
                let oracle = delta_scan_of(&ours, &f);
                let mut scratch = DiffScratch::default();
                let cold = ours.delta_above_with(&f, &mut scratch);
                let warm = ours.delta_above_with(&f, &mut scratch);
                prop_assert_eq!(&cold, &oracle);
                prop_assert_eq!(&warm, &oracle);
                let tail = delta_tail_of(&ours, &f);
                prop_assert_eq!(&tail, &oracle);
                check_indices(&tail);
                prop_assert_eq!(&peer.merged(&oracle), &peer.merged(&ours));
            }
        }

        /// The tail-bounded splice is the repeated-insert oracle, and
        /// leaves every index (Merkle built) as a from-scratch rebuild
        /// would: a resident prefix of ≥ 2,048 entries, `other` landing
        /// inside the receiver's last 256. Four scenarios a case.
        #[test]
        fn splice_merge_matches_naive_under_a_long_prefix(
            seeds in proptest::collection::vec(0u64..u64::MAX, 4),
        ) {
            for seed in seeds {
                let mut rng = SplitMix64::seed_from_u64(seed);
                // Entry i of the grid is (1 + i / 8, i % 8): unique, sorted.
                let grid = |i: u64| e(1 + i / 8, (i % 8) as usize, "op");
                let n = 2048 + 256 + rng.index(512) as u64;
                let mut receiver: Log<String> = Log::new();
                let mut other: Log<String> = Log::new();
                for i in 0..n {
                    let in_tail = i >= n - 256;
                    if !in_tail || rng.index(3) > 0 {
                        receiver.insert(grid(i));
                    }
                    if in_tail && rng.index(3) == 0 {
                        other.insert(grid(i)); // some we hold, some we lack
                    }
                }
                for i in n..n + rng.index(8) as u64 {
                    other.insert(grid(i)); // and a few past our end
                }
                let expect = naive_merged(&receiver, &other);
                let _ = receiver.merkle_index();
                receiver.merge(&other);
                prop_assert_eq!(&receiver, &expect);
                check_indices(&receiver);
            }
        }

        /// The galloping merge is the repeated-insert oracle when `other`
        /// repeats most of ours: a peer's log with holes of its own, plus
        /// one site shipped whole, entries we lack included. The receiver
        /// has holes too; Merkle index built and not. Four scenarios a
        /// case.
        #[test]
        fn gallop_merge_matches_naive_over_a_mostly_held_log(
            seeds in proptest::collection::vec(0u64..u64::MAX, 4),
        ) {
            for seed in seeds {
                let mut rng = SplitMix64::seed_from_u64(seed);
                let sites = 2 + rng.index(6);
                let whole = rng.index(sites);
                let n = 1 + rng.index(600) as u64;
                let mut receiver: Log<String> = Log::new();
                let mut other: Log<String> = Log::new();
                for c in 1..=n {
                    for site in 0..sites {
                        let x = e(c, site, "op");
                        let held = rng.index(16) > 0;
                        if held {
                            receiver.insert(x.clone());
                        }
                        if site == whole || (held && rng.index(8) > 0) {
                            other.insert(x);
                        }
                    }
                }
                let expect = naive_merged(&receiver, &other);
                if rng.index(2) == 0 {
                    let _ = receiver.merkle_index();
                }
                receiver.merge(&other);
                prop_assert_eq!(&receiver, &expect);
                check_indices(&receiver);
            }
        }

        /// `diff_into` from the common prefix is the naive set
        /// difference: two logs that share a long prefix, then diverge —
        /// each holding entries the other lacks (`other ⊄ self`), or
        /// `other` a mere subset or extension — into a warm scratch and
        /// a buffer that held something else. Four scenarios a case.
        #[test]
        fn diff_from_a_long_common_prefix_is_the_set_difference(
            seeds in proptest::collection::vec(0u64..u64::MAX, 4),
        ) {
            let mut scratch = DiffScratch::default();
            for seed in seeds {
                let mut rng = SplitMix64::seed_from_u64(seed);
                let grid = |i: u64| e(1 + i / 4, (i % 4) as usize, "op");
                let shared = 256 + rng.index(1024) as u64;
                let end = shared + 1 + rng.index(64) as u64;
                // 0: both diverge, 1: `other` only lacks, 2: `other` only adds.
                let shape = rng.index(3);
                let mut ours: Log<String> = (0..shared).map(grid).collect();
                let mut other = ours.clone();
                for i in shared..end {
                    match rng.index(3) {
                        0 if shape != 2 => ours.insert(grid(i)),
                        1 if shape != 1 => other.insert(grid(i)),
                        _ => {
                            ours.insert(grid(i));
                            other.insert(grid(i));
                        }
                    }
                }
                let expect: Log<String> = ours
                    .entries()
                    .iter()
                    .filter(|x| other.entries().binary_search_by_key(&x.ts, |y| y.ts).is_err())
                    .cloned()
                    .collect();
                let mut out = other.clone();
                ours.diff_into(&other, &mut scratch, &mut out);
                prop_assert_eq!(&out, &expect);
                check_indices(&out);
                prop_assert_eq!(&other.merged(&out), &other.merged(&ours));
            }
        }
    }
}
