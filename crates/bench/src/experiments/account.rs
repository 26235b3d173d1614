//! §3.4 operational experiments: premature debits and the no-overdraft
//! invariant.
//!
//! The bank announces a credit as soon as *any* replica records it and
//! lets the remaining updates propagate in the background (final Credit
//! quorum of one — `A1` effectively relaxed). A debit issued too soon
//! after a credit may miss it and bounce spuriously; "the probability
//! that an ATM performing a debit would fail to observe an earlier credit
//! would diminish in time".

use relax_queues::AccountOp;
use relax_quorum::protocol::wire::Outcome;
use relax_quorum::relation::AccountKind;
use relax_quorum::types::{AccountInv, BankAccountType};
use relax_quorum::{ClientConfig, QuorumSystem, VotingAssignment};
use relax_sim::NetworkConfig;

use crate::args::Args;
use crate::experiments::par::fan_trials;
use crate::table::Table;

/// One row of the premature-debit decay experiment.
#[derive(Debug, Clone)]
pub struct DecayRow {
    /// Virtual-time gap between the credit completing and the debit
    /// being issued.
    pub gap: u64,
    /// Fraction of trials in which the debit bounced spuriously.
    pub bounce_rate: f64,
    /// Trials run.
    pub trials: u32,
}

/// The A1-relaxed assignment of §3.4: credits announce after one replica
/// (final Credit quorum 1 — the rest propagates in the background, so
/// `A1` is *not* guaranteed: 1 + 1 ≤ n); debits read any single replica
/// but record at **all** sites, which keeps `A2` (1 + n > n: every read
/// sees every earlier debit).
fn atm_assignment(n: usize) -> VotingAssignment<AccountKind> {
    let a = VotingAssignment::new(n)
        .with_initial(AccountKind::Credit, 1)
        .with_final(AccountKind::Credit, 1)
        .with_initial(AccountKind::Debit, 1)
        .with_final(AccountKind::Debit, n);
    debug_assert!(a.satisfies(&relax_quorum::relation::account_relation(false, true)));
    debug_assert!(!a.satisfies(&relax_quorum::relation::account_relation(true, true)));
    a
}

/// Sweeps the credit→debit gap, measuring the spurious bounce rate.
pub fn premature_debit_decay(gaps: &[u64], trials: u32, n_replicas: usize) -> Vec<DecayRow> {
    premature_debit_decay_with_gossip(gaps, trials, n_replicas, None)
}

/// As [`premature_debit_decay`], with optional replica anti-entropy:
/// gossip shortens the stale window, so the decay curve drops faster.
pub fn premature_debit_decay_with_gossip(
    gaps: &[u64],
    trials: u32,
    n_replicas: usize,
    gossip_interval: Option<u64>,
) -> Vec<DecayRow> {
    let mut rows = Vec::new();
    for &gap in gaps {
        // Each trial is self-contained (its seed derives from the trial
        // index), so the sweep fans across threads; the bounce count is
        // a sum, so merge order cannot matter.
        let bounces = fan_trials(trials, |trial| {
            let mut sys = QuorumSystem::new(
                BankAccountType,
                n_replicas,
                atm_assignment(n_replicas),
                ClientConfig::default(),
                NetworkConfig::new(1, 20, 0.0),
                0xACC0 + u64::from(trial) * 7919 + gap,
            );
            if let Some(interval) = gossip_interval {
                sys = sys.with_gossip(interval);
            }
            sys.submit(AccountInv::Credit(10));
            // Let the credit complete and propagate for `gap` ticks
            // beyond its announcement...
            sys.run_to_first_outcome(200_000);
            let announce = sys.world().now();
            sys.run_until(relax_sim::SimTime(announce.ticks() + gap));
            // ...then issue the debit. (Gossiping systems never quiesce;
            // a generous time bound covers the debit round trips.)
            sys.submit(AccountInv::Debit(5));
            let deadline = sys.world().now().ticks() + 2_000;
            sys.run_until(relax_sim::SimTime(deadline));
            u32::from(matches!(
                sys.outcomes().get(1),
                Some(Outcome::Completed {
                    op: AccountOp::DebitOverdraft(_),
                    ..
                })
            ))
        });
        let bounced: u32 = bounces.iter().sum();
        rows.push(DecayRow {
            gap,
            bounce_rate: f64::from(bounced) / f64::from(trials),
            trials,
        });
    }
    rows
}

/// Renders the decay rows.
pub fn render_decay(rows: &[DecayRow]) -> Table {
    let mut t = Table::new(["gap (ticks)", "spurious bounce rate", "trials"]);
    for r in rows {
        t.row([
            r.gap.to_string(),
            format!("{:.3}", r.bounce_rate),
            r.trials.to_string(),
        ]);
    }
    t
}

/// The invariant demonstration: across many seeds with the A1-relaxed
/// assignment, completed `DebitOk` totals never exceed completed credits
/// (the no-overdraft property `A2` buys), while bounces — spurious ones
/// from stale views plus legitimate insufficient-funds ones — occur.
/// Returns `(overdrafts, bounces, runs)`.
pub fn overdraft_invariant(trials: u32, n_replicas: usize) -> (u32, u32, u32) {
    let per_trial = fan_trials(trials, |trial| {
        let mut sys = QuorumSystem::new(
            BankAccountType,
            n_replicas,
            atm_assignment(n_replicas),
            ClientConfig::default(),
            NetworkConfig::new(1, 20, 0.0),
            0xBEEF + u64::from(trial) * 104_729,
        );
        sys.submit(AccountInv::Credit(10));
        sys.submit(AccountInv::Debit(6));
        sys.submit(AccountInv::Debit(6));
        sys.run_to_quiescence(300_000);
        let mut credits = 0i64;
        let mut debits = 0i64;
        let mut spurious = 0u32;
        for o in sys.outcomes() {
            if let Outcome::Completed { op, .. } = o {
                match op {
                    AccountOp::Credit(n) => credits += i64::from(*n),
                    AccountOp::DebitOk(n) => debits += i64::from(*n),
                    AccountOp::DebitOverdraft(_) => spurious += 1,
                }
            }
        }
        (u32::from(debits > credits), spurious)
    });
    let overdrafts = per_trial.iter().map(|(o, _)| o).sum();
    let spurious = per_trial.iter().map(|(_, s)| s).sum();
    (overdrafts, spurious, trials)
}

/// `relax-bench account`: the decay sweeps (plain and with gossip) and
/// the invariant sweep.
pub fn main(_: &Args) -> Result<(), String> {
    println!("== §3.4: replicated ATM account (A1 relaxed, A2 held) ==\n");
    println!("spurious bounce rate vs credit→debit gap (3 replicas, delays 1–20):");
    let rows = premature_debit_decay(&[0, 5, 10, 20, 40, 60], 200, 3);
    println!("{}", render_decay(&rows));

    println!("same sweep with replica anti-entropy (gossip every 5 ticks):");
    let rows = premature_debit_decay_with_gossip(&[0, 5, 10, 20], 200, 3, Some(5));
    println!("{}", render_decay(&rows));

    let (overdrafts, spurious, runs) = overdraft_invariant(200, 3);
    println!("invariant sweep over {runs} runs (credit 10, two debits of 6):");
    println!("  true overdrafts: {overdrafts}   (A2 ⇒ must be 0)");
    println!("  bounces (spurious + legitimate): {spurious}  (tolerated degradation)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounce_rate_decays_with_gap() {
        let rows = premature_debit_decay(&[0, 60], 40, 3);
        assert!(
            rows[0].bounce_rate > rows[1].bounce_rate,
            "gap 0 rate {} should exceed gap 60 rate {}",
            rows[0].bounce_rate,
            rows[1].bounce_rate
        );
        // At a 60-tick gap (3× max delay) every background write has
        // landed: no bounces.
        assert_eq!(rows[1].bounce_rate, 0.0);
    }

    #[test]
    fn no_overdrafts_some_bounces() {
        let (overdrafts, spurious, _) = overdraft_invariant(25, 3);
        assert_eq!(overdrafts, 0, "A2 must prevent overdrafts");
        assert!(spurious > 0, "expected some spurious bounces");
    }

    #[test]
    fn render_works() {
        let rows = premature_debit_decay(&[0], 5, 3);
        assert_eq!(render_decay(&rows).len(), 1);
    }
}
