//! Staleness telemetry: degradation SLO error budgets and the report
//! of a recorded staleness timeline.
//!
//! The lattice monitor witnesses *that* a level died; the
//! [`EventKind::ReplicaLagSampled`] and [`EventKind::FrontierDivergence`]
//! events show the replica-level cause. They are sampled where the
//! frontiers live: `relax_quorum::Staleness` reads every replica log's
//! site table in place, so this crate keeps only the event kinds and
//! stays dependency-free. An [`SloMonitor`] turns "how long have we been
//! degraded" into an error budget: each level gets a budget of ticks it
//! may spend dead, and the first tick past the budget emits a witnessed
//! [`EventKind::SloBudgetExhausted`] event. [`staleness_report`] renders
//! all of it from a trace.

use crate::event::{Event, EventKind};
use std::fmt::Write as _;

/// A witnessed SLO violation: the named level has been dead for `spent`
/// ticks against a budget of `budget`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloViolation {
    /// The relaxation-lattice level whose budget ran out.
    pub level: String,
    /// Ticks the level was allowed to spend dead.
    pub budget: u64,
    /// Ticks actually spent dead when the budget exhausted.
    pub spent: u64,
}

#[derive(Debug, Clone)]
struct SloBudget {
    level: String,
    budget: u64,
    died_at: Option<u64>,
    spent: u64,
    fired: bool,
}

/// Tracks time-above-level-k error budgets: each registered level may
/// spend at most `budget` ticks dead; the first [`SloMonitor::advance`]
/// past the budget emits one [`EventKind::SloBudgetExhausted`].
///
/// Levels die monotonically in this workspace (a `DegradationMonitor`
/// never resurrects a level within a run), so spent time is simply
/// `now - died_at`.
#[derive(Debug, Clone, Default)]
pub struct SloMonitor {
    budgets: Vec<SloBudget>,
}

impl SloMonitor {
    /// An SLO monitor with no budgets registered.
    pub fn new() -> Self {
        SloMonitor::default()
    }

    /// Registers an error budget: `level` may spend `budget_ticks` dead
    /// before the budget exhausts. Builder-style.
    pub fn budget(mut self, level: &str, budget_ticks: u64) -> Self {
        self.budgets.push(SloBudget {
            level: level.to_string(),
            budget: budget_ticks,
            died_at: None,
            spent: 0,
            fired: false,
        });
        self
    }

    /// Marks a level dead as of `now` (idempotent: later calls for the
    /// same level keep the earliest death time). Levels without a
    /// registered budget are ignored.
    pub fn level_died(&mut self, now: u64, level: &str) {
        if let Some(b) = self.budgets.iter_mut().find(|b| b.level == level) {
            if b.died_at.is_none() {
                b.died_at = Some(now);
            }
        }
    }

    /// Advances the clock: accrues spent time for dead levels and
    /// returns one [`EventKind::SloBudgetExhausted`] for each budget that
    /// crossed its limit since the last call (each fires at most once).
    pub fn advance(&mut self, now: u64) -> Vec<EventKind> {
        let mut out = Vec::new();
        for b in &mut self.budgets {
            let Some(died_at) = b.died_at else { continue };
            b.spent = now.saturating_sub(died_at);
            if !b.fired && b.spent >= b.budget {
                b.fired = true;
                out.push(EventKind::SloBudgetExhausted(Box::new(SloViolation {
                    level: b.level.clone(),
                    budget: b.budget,
                    spent: b.spent,
                })));
            }
        }
        out
    }

    /// Ticks the named level has spent dead; `None` when no budget is
    /// registered for it.
    pub fn spent(&self, level: &str) -> Option<u64> {
        self.budgets
            .iter()
            .find(|b| b.level == level)
            .map(|b| b.spent)
    }

    /// Whether the named level's budget has exhausted.
    pub fn exhausted(&self, level: &str) -> bool {
        self.budgets
            .iter()
            .find(|b| b.level == level)
            .is_some_and(|b| b.fired)
    }
}

/// Renders a staleness timeline from a recorded trace: lag samples,
/// divergence probes, level deaths, and budget exhaustions in time
/// order, followed by a per-replica max-lag summary.
pub fn staleness_report(events: &[Event]) -> String {
    let mut out = String::new();
    let mut max_lag: Vec<(u32, u64)> = Vec::new();
    let mut lines = 0usize;
    for e in events {
        match &e.kind {
            EventKind::ReplicaLagSampled {
                site,
                entries_behind,
                time_behind,
            } => {
                let _ = writeln!(
                    out,
                    "  t={:<6} replica {site} lag: {entries_behind} entries, {time_behind} ticks behind",
                    e.time
                );
                match max_lag.iter_mut().find(|(s, _)| s == site) {
                    Some((_, m)) => *m = (*m).max(*entries_behind),
                    None => max_lag.push((*site, *entries_behind)),
                }
                lines += 1;
            }
            EventKind::FrontierDivergence { a, b, entries } => {
                let _ = writeln!(
                    out,
                    "  t={:<6} divergence r{a}<->r{b}: {entries} entries",
                    e.time
                );
                lines += 1;
            }
            EventKind::LevelTransition(t) => {
                let _ = writeln!(
                    out,
                    "  t={:<6} level(s) {} died (witness: {})",
                    e.time,
                    t.left.join(", "),
                    t.witness
                );
                lines += 1;
            }
            EventKind::SloBudgetExhausted(v) => {
                let _ = writeln!(
                    out,
                    "  t={:<6} SLO BUDGET EXHAUSTED for {}: spent {}/{} ticks dead",
                    e.time, v.level, v.spent, v.budget
                );
                lines += 1;
            }
            _ => {}
        }
    }
    if lines == 0 {
        return "no staleness telemetry in trace (run with staleness sampling enabled)\n"
            .to_string();
    }
    let mut report = String::from("staleness timeline:\n");
    report.push_str(&out);
    max_lag.sort_unstable();
    report.push_str("max lag per replica:");
    for (site, m) in &max_lag {
        let _ = write!(report, " r{site}={m}");
    }
    report.push('\n');
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slo_budget_fires_once_at_exhaustion() {
        let mut slo = SloMonitor::new().budget("PQ", 50).budget("MPQ", 500);
        assert!(slo.advance(10).is_empty(), "nothing dead yet");
        slo.level_died(30, "PQ");
        slo.level_died(40, "PQ"); // idempotent: earliest death wins
        assert!(slo.advance(60).is_empty(), "spent 30 < budget 50");
        let fired = slo.advance(90);
        assert_eq!(fired.len(), 1);
        assert_eq!(
            fired[0],
            EventKind::SloBudgetExhausted(Box::new(SloViolation {
                level: "PQ".into(),
                budget: 50,
                spent: 60,
            }))
        );
        assert!(slo.exhausted("PQ"));
        assert!(!slo.exhausted("MPQ"));
        assert_eq!(slo.spent("PQ"), Some(60));
        assert!(slo.advance(1000).is_empty(), "fires at most once");
        assert_eq!(slo.spent("MPQ"), Some(0));
    }

    #[test]
    fn unbudgeted_levels_are_ignored() {
        let mut slo = SloMonitor::new().budget("PQ", 10);
        slo.level_died(0, "OPQ");
        assert!(slo.advance(100).is_empty());
        assert_eq!(slo.spent("OPQ"), None);
    }

    #[test]
    fn report_renders_a_timeline_and_max_lag_summary() {
        let events = vec![
            Event {
                time: 30,
                seq: 0,
                kind: EventKind::ReplicaLagSampled {
                    site: 1,
                    entries_behind: 2,
                    time_behind: 10,
                },
            },
            Event {
                time: 30,
                seq: 1,
                kind: EventKind::FrontierDivergence {
                    a: 0,
                    b: 1,
                    entries: 2,
                },
            },
            Event {
                time: 90,
                seq: 2,
                kind: EventKind::SloBudgetExhausted(Box::new(SloViolation {
                    level: "PQ".into(),
                    budget: 50,
                    spent: 60,
                })),
            },
        ];
        let r = staleness_report(&events);
        assert!(
            r.contains("replica 1 lag: 2 entries, 10 ticks behind"),
            "{r}"
        );
        assert!(r.contains("divergence r0<->r1: 2 entries"), "{r}");
        assert!(
            r.contains("SLO BUDGET EXHAUSTED for PQ: spent 60/50"),
            "{r}"
        );
        assert!(r.contains("max lag per replica: r1=2"), "{r}");
    }

    #[test]
    fn empty_trace_reports_no_telemetry() {
        assert!(staleness_report(&[]).contains("no staleness telemetry"));
    }
}
