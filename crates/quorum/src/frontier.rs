//! Compact per-site summaries of a log's entry set, used by delta
//! replication.
//!
//! A replica's log is a set of timestamped entries; because timestamps
//! are `(counter, site)` pairs, the set factors into per-site subsets. A
//! [`Frontier`] summarizes each per-site subset by three numbers — entry
//! count, maximum counter, and a commutative XOR hash of the (mixed)
//! timestamps — so a peer can decide, per site, whether the requester's
//! claimed entries are exactly its own entries with counters up to that
//! maximum. If so, only entries *above* the maximum are shipped; if not
//! (per-site "holes" are possible when final quorums are small and
//! partitions interleave writes), the whole site's entries are resent.
//!
//! Soundness does not depend on the hash: a false *mismatch* only causes
//! a redundant full-site resend, and log merge is idempotent. A false
//! *match* requires an XOR collision between distinct timestamp sets with
//! equal counts and maxima (probability ≈ 2⁻⁶⁴ per comparison), the same
//! trust model as content-addressed anti-entropy protocols.

use crate::timestamp::Timestamp;

/// Mixes a timestamp into a 64-bit hash with the SplitMix64 finalizer,
/// so XOR over a set of timestamps is an order-independent set hash.
#[must_use]
pub fn mix_ts(ts: Timestamp) -> u64 {
    fn mix64(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }
    mix64(
        ts.counter
            .wrapping_add(mix64(ts.site as u64 ^ 0x9e37_79b9_7f4a_7c15)),
    )
}

/// The summary of one site's entries in a log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteSummary {
    /// The generating site.
    pub site: usize,
    /// How many of its entries the log holds.
    pub count: u64,
    /// The largest counter among them.
    pub max: u64,
    /// XOR of [`mix_ts`] over them (order-independent).
    pub hash: u64,
}

/// A per-site summary of a whole log: one [`SiteSummary`] per site with
/// entries, sorted by site id. Empty sites are omitted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Frontier {
    sites: Vec<SiteSummary>,
}

impl Frontier {
    /// Overwrites this frontier with per-site summaries (must be sorted
    /// by site, one per site, counts positive — as maintained by `Log`),
    /// in the buffer it already has.
    pub(crate) fn refill(&mut self, sites: &[SiteSummary]) {
        debug_assert!(sites.windows(2).all(|w| w[0].site < w[1].site));
        debug_assert!(sites.iter().all(|s| s.count > 0));
        self.sites.clear();
        self.sites.extend_from_slice(sites);
    }

    /// An empty frontier (claims no entries; a delta against it is the
    /// full log).
    #[must_use]
    pub fn empty() -> Self {
        Frontier::default()
    }

    /// The per-site summaries, sorted by site id.
    #[must_use]
    pub fn sites(&self) -> &[SiteSummary] {
        &self.sites
    }

    /// True when no site is summarized.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The index of `site`'s summary, if present.
    #[must_use]
    pub fn index_of(&self, site: usize) -> Option<usize> {
        self.sites.binary_search_by_key(&site, |s| s.site).ok()
    }

    /// The summary for `site`, if present.
    #[must_use]
    pub fn summary(&self, site: usize) -> Option<&SiteSummary> {
        self.index_of(site).map(|i| &self.sites[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_injective_on_small_grid() {
        let mut seen = std::collections::BTreeSet::new();
        for counter in 1..200u64 {
            for site in 0..8usize {
                assert!(seen.insert(mix_ts(Timestamp::new(counter, site))));
            }
        }
    }

    #[test]
    fn xor_of_mixes_is_order_independent() {
        let a = mix_ts(Timestamp::new(1, 0));
        let b = mix_ts(Timestamp::new(2, 0));
        let c = mix_ts(Timestamp::new(3, 1));
        assert_eq!(a ^ b ^ c, c ^ a ^ b);
        // And distinguishes sets differing in one element.
        assert_ne!(a ^ b, a ^ c);
    }

    #[test]
    fn lookup_by_site() {
        let mut f = Frontier::empty();
        f.refill(&[
            SiteSummary {
                site: 1,
                count: 2,
                max: 5,
                hash: 7,
            },
            SiteSummary {
                site: 4,
                count: 1,
                max: 1,
                hash: 9,
            },
        ]);
        assert_eq!(f.summary(1).map(|s| s.max), Some(5));
        assert_eq!(f.summary(4).map(|s| s.count), Some(1));
        assert!(f.summary(2).is_none());
        assert!(!f.is_empty());
        assert!(Frontier::empty().is_empty());
    }
}
