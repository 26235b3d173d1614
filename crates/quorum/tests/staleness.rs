//! The staleness sampler (`relax_quorum::Staleness`) against the
//! tracker it replaced, restated here as a naive oracle: per-replica
//! lag, time behind, max lag and pairwise divergence must agree on every
//! sample, over 1–5 replicas with site tables of 0–6 sites.

use proptest::prelude::*;
use relax_quorum::{SiteSummary, Staleness};
use relax_trace::{EventKind, Registry};

/// The sampler `Staleness` replaced, restated as its oracle: the
/// merged frontier and every replica's count of each merged site are
/// found by linear search, in tables of any order.
struct NaiveStaleness {
    caught_up: Vec<u64>,
    max_lag: Vec<u64>,
}

impl NaiveStaleness {
    fn new(n_replicas: usize) -> Self {
        NaiveStaleness {
            caught_up: vec![0; n_replicas],
            max_lag: vec![0; n_replicas],
        }
    }

    fn sample(&mut self, now: u64, tables: &[Vec<SiteSummary>]) -> Vec<EventKind> {
        let find = |t: &[SiteSummary], site| t.iter().find(|s| s.site == site).copied();
        let count_of = |t: &[SiteSummary], site| find(t, site).map_or(0, |s| s.count);
        let mut merged: Vec<(usize, u64)> = Vec::new();
        for s in tables.iter().flatten() {
            match merged.iter_mut().find(|(site, _)| *site == s.site) {
                Some((_, max)) => *max = (*max).max(s.count),
                None => merged.push((s.site, s.count)),
            }
        }
        let merged_total: u64 = merged.iter().map(|(_, n)| n).sum();
        let mut out = Vec::new();
        for (i, t) in tables.iter().enumerate() {
            let held: u64 = merged.iter().map(|&(site, _)| count_of(t, site)).sum();
            let entries_behind = merged_total - held;
            if entries_behind == 0 {
                self.caught_up[i] = now;
            }
            self.max_lag[i] = self.max_lag[i].max(entries_behind);
            out.push(EventKind::ReplicaLagSampled {
                site: i as u32,
                entries_behind,
                time_behind: now - self.caught_up[i],
            });
        }
        for a in 0..tables.len() {
            for b in a + 1..tables.len() {
                let (ta, tb) = (&tables[a], &tables[b]);
                let mut entries = 0;
                for &(site, _) in &merged {
                    let (ca, cb) = (count_of(ta, site), count_of(tb, site));
                    entries += ca.abs_diff(cb);
                    if ca == cb
                        && ca > 0
                        && find(ta, site).map(|s| s.hash) != find(tb, site).map(|s| s.hash)
                    {
                        entries += 1;
                    }
                }
                out.push(EventKind::FrontierDivergence {
                    a: a as u32,
                    b: b as u32,
                    entries,
                });
            }
        }
        out
    }
}

fn table(sites: &[(usize, u64, u64)]) -> Vec<SiteSummary> {
    sites
        .iter()
        .map(|&(site, count, hash)| SiteSummary {
            site,
            count,
            max: count,
            hash,
        })
        .collect()
}

/// Samples both samplers and checks they agree; returns the readings.
fn sample_both(
    s: &mut Staleness,
    naive: &mut NaiveStaleness,
    now: u64,
    tables: &[Vec<SiteSummary>],
) -> Vec<EventKind> {
    s.sample(now, |i| &tables[i]);
    let readings: Vec<EventKind> = s.readings().collect();
    assert_eq!(readings, naive.sample(now, tables));
    assert_eq!(s.max_lag(), naive.max_lag);
    readings
}

fn lag(site: u32, entries_behind: u64, time_behind: u64) -> EventKind {
    EventKind::ReplicaLagSampled {
        site,
        entries_behind,
        time_behind,
    }
}

proptest! {
    /// Over 1–5 replicas with tables of 0–6 sites (sites only some
    /// replicas hold, equal counts under different hashes), every
    /// sample's lag, time behind, max lag and divergence are the
    /// naive sampler's.
    #[test]
    fn staleness_matches_the_naive_sampler(
        n in 1usize..6,
        steps in proptest::collection::vec(
            (0u64..40, 0usize..7, proptest::collection::vec((0u64..4, 0u64..3), 30)),
            1..6,
        ),
    ) {
        let (mut s, mut naive) = (Staleness::new(n), NaiveStaleness::new(n));
        let mut now = 0;
        for (dt, n_sites, cells) in &steps {
            now += dt;
            // Replica r holds site 2k+1 with cells[6r+k]; count 0 is absent.
            let tables: Vec<Vec<SiteSummary>> = (0..n)
                .map(|r| {
                    let held: Vec<_> = (0..*n_sites)
                        .map(|k| (2 * k + 1, cells[6 * r + k]))
                        .filter(|&(_, (count, _))| count > 0)
                        .map(|(site, (count, hash))| (site, count, hash))
                        .collect();
                    table(&held)
                })
                .collect();
            sample_both(&mut s, &mut naive, now, &tables);
        }
        prop_assert_eq!(s.samples(), steps.len() as u64);
    }
}

#[test]
fn lag_measures_entries_and_time_behind_the_merged_frontier() {
    let (mut s, mut naive) = (Staleness::new(2), NaiveStaleness::new(2));
    // Replica 1 is two entries behind from t=10 onward.
    let ahead = table(&[(0, 3, 7), (1, 1, 8)]);
    let behind = table(&[(0, 1, 5), (1, 1, 8)]);
    let evs = sample_both(&mut s, &mut naive, 10, &[ahead.clone(), behind.clone()]);
    assert_eq!(evs[..2], [lag(0, 0, 0), lag(1, 2, 10)]);
    // Still behind 30 ticks later: time_behind grows, entries stay.
    let evs = sample_both(&mut s, &mut naive, 40, &[ahead.clone(), behind]);
    assert_eq!(evs[1], lag(1, 2, 40));
    // Caught up: lag resets, and time_behind restarts from here.
    let caught = table(&[(0, 3, 7), (1, 1, 8)]);
    let evs = sample_both(&mut s, &mut naive, 50, &[ahead, caught]);
    assert_eq!(evs[1], lag(1, 0, 0));
    assert_eq!(s.max_lag(), &[0, 2]);
    assert_eq!(s.samples(), 3);
}

#[test]
fn divergence_counts_entry_distance_and_hash_mismatches() {
    let (mut s, mut naive) = (Staleness::new(3), NaiveStaleness::new(3));
    // Same counts on site 0 but different hashes (+1), two entries
    // apart on site 1 (+2); replica 2 alone holds site 5 (+4 against
    // either).
    let a = table(&[(0, 2, 111), (1, 4, 9)]);
    let b = table(&[(0, 2, 222), (1, 2, 3)]);
    let c = table(&[(0, 2, 111), (1, 4, 9), (5, 4, 6)]);
    let evs = sample_both(&mut s, &mut naive, 5, &[a, b, c]);
    let divergence = |a, b, entries| EventKind::FrontierDivergence { a, b, entries };
    assert_eq!(
        evs[3..],
        [
            divergence(0, 1, 3),
            divergence(0, 2, 4),
            divergence(1, 2, 7)
        ]
    );
}

#[test]
fn export_sets_the_last_samples_gauges() {
    let mut s = Staleness::new(2);
    let mut reg = Registry::new();
    s.export(&mut reg);
    assert!(reg.get_gauge("staleness_lag_entries_r1").is_none());
    let tables = [table(&[(0, 3, 1)]), table(&[(0, 1, 1)])];
    s.sample(20, |i| &tables[i]);
    s.export(&mut reg);
    let gauge = |name| reg.get_gauge(name).unwrap().value();
    assert_eq!(gauge("staleness_lag_entries_r1"), 2);
    assert_eq!(gauge("staleness_lag_ticks_r1"), 20);
    assert_eq!(gauge("frontier_divergence_entries_r0_r1"), 2);
}
