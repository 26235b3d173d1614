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
//!
//! The same tables are what staleness telemetry reads: [`Staleness`]
//! samples every replica log's [`SiteSummary`] table in place for
//! per-replica lag and pairwise divergence.

use std::cmp::Ordering;

use relax_trace::{EventKind, Registry};

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

/// Replica staleness, read off the logs' own site tables: per-replica
/// lag behind the merged frontier (the per-site maximum over all
/// replicas) and pairwise divergence, remembering when each replica
/// last held the merged frontier so `time_behind` counts ticks of
/// continuous staleness.
#[derive(Debug, Clone)]
pub struct Staleness {
    /// Last time each replica held the merged frontier.
    caught_up: Vec<u64>,
    /// Largest `entries_behind` ever sampled per replica.
    max_lag: Vec<u64>,
    samples: u64,
    /// The last sample's readings, in the order they are recorded: one
    /// lag per replica, then one divergence per pair `(a, b)`, `a < b`.
    readings: Vec<Reading>,
    /// Scratch `(site, max count)` table, sorted by site.
    merged: Vec<(usize, u64)>,
}

impl Staleness {
    /// A sampler for `n_replicas` replicas, all caught up at time zero.
    #[must_use]
    pub fn new(n_replicas: usize) -> Self {
        Staleness {
            caught_up: vec![0; n_replicas],
            max_lag: vec![0; n_replicas],
            samples: 0,
            readings: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// Number of samples taken so far.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Largest `entries_behind` ever sampled for each replica.
    #[must_use]
    pub fn max_lag(&self) -> &[u64] {
        &self.max_lag
    }

    /// The last sample's readings as `ReplicaLagSampled` and
    /// `FrontierDivergence` events (none before the first sample).
    pub fn readings(&self) -> impl Iterator<Item = EventKind> + '_ {
        self.readings.iter().map(|r| r.event())
    }

    /// Takes one sample at `now`; `table(i)` is replica `i`'s site table
    /// (sorted by site, counts positive, as [`crate::Log`] keeps it).
    ///
    /// A replica's lag is the merged total minus its own total, since
    /// none of its per-site counts exceeds the merged maximum.
    pub fn sample<'a>(&mut self, now: u64, table: impl Fn(usize) -> &'a [SiteSummary]) {
        let n = self.caught_up.len();
        self.samples += 1;
        self.merged.clear();
        for i in 0..n {
            for s in table(i) {
                match self.merged.binary_search_by_key(&s.site, |&(site, _)| site) {
                    Ok(k) => self.merged[k].1 = self.merged[k].1.max(s.count),
                    Err(k) => self.merged.insert(k, (s.site, s.count)),
                }
            }
        }
        let merged_total: u64 = self.merged.iter().map(|&(_, count)| count).sum();
        self.readings.clear();
        for i in 0..n {
            let entries_behind = merged_total - table(i).iter().map(|s| s.count).sum::<u64>();
            if entries_behind == 0 {
                self.caught_up[i] = now;
            }
            self.max_lag[i] = self.max_lag[i].max(entries_behind);
            self.readings.push(Reading::Lag {
                replica: i as u32,
                entries: entries_behind,
                ticks: now - self.caught_up[i],
            });
        }
        for a in 0..n {
            for b in a + 1..n {
                self.readings.push(Reading::Divergence {
                    a: a as u32,
                    b: b as u32,
                    entries: divergence(table(a), table(b)),
                });
            }
        }
    }

    /// Writes the last sample's readings into `reg` as last-value gauges
    /// (`staleness_lag_entries_r{i}`, `staleness_lag_ticks_r{i}`,
    /// `frontier_divergence_entries_r{a}_r{b}`); a no-op before the first
    /// sample.
    pub fn export(&self, reg: &mut Registry) {
        for &reading in &self.readings {
            match reading {
                Reading::Lag {
                    replica,
                    entries,
                    ticks,
                } => {
                    reg.gauge(&format!("staleness_lag_entries_r{replica}"))
                        .set(entries as i64);
                    reg.gauge(&format!("staleness_lag_ticks_r{replica}"))
                        .set(ticks as i64);
                }
                Reading::Divergence { a, b, entries } => {
                    reg.gauge(&format!("frontier_divergence_entries_r{a}_r{b}"))
                        .set(entries as i64);
                }
            }
        }
    }
}

/// One reading of a sample. Plain data, so the buffer is refilled
/// without the drop and clone work of the event enum.
#[derive(Debug, Clone, Copy)]
enum Reading {
    Lag {
        replica: u32,
        entries: u64,
        ticks: u64,
    },
    Divergence {
        a: u32,
        b: u32,
        entries: u64,
    },
}

impl Reading {
    fn event(self) -> EventKind {
        match self {
            Reading::Lag {
                replica,
                entries,
                ticks,
            } => EventKind::ReplicaLagSampled {
                site: replica,
                entries_behind: entries,
                time_behind: ticks,
            },
            Reading::Divergence { a, b, entries } => {
                EventKind::FrontierDivergence { a, b, entries }
            }
        }
    }
}

/// Entries two site tables (each sorted by site) disagree on, in one
/// merge-join: the count difference per site, plus one per site whose
/// counts agree but whose hashes do not (same length, other contents).
fn divergence(a: &[SiteSummary], b: &[SiteSummary]) -> u64 {
    let (mut i, mut j, mut entries) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].site.cmp(&b[j].site) {
            Ordering::Less => {
                entries += a[i].count;
                i += 1;
            }
            Ordering::Greater => {
                entries += b[j].count;
                j += 1;
            }
            Ordering::Equal => {
                let (x, y) = (a[i], b[j]);
                entries +=
                    x.count.abs_diff(y.count) + u64::from(x.count == y.count && x.hash != y.hash);
                i += 1;
                j += 1;
            }
        }
    }
    entries + a[i..].iter().chain(&b[j..]).map(|s| s.count).sum::<u64>()
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
