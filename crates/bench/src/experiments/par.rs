//! Deterministic trial fan-out over scoped threads.
//!
//! Experiment sweeps repeat independent trials with per-trial seeds;
//! [`fan_trials`] runs them across `std::thread::scope` workers in
//! contiguous chunks and stitches the results back **in trial order**, so
//! the output `Vec` — and anything folded from it in order, including
//! `Registry` histogram sample order — is identical to a sequential run.

use std::thread;

/// Worker count: available parallelism, capped (the trials are short;
/// more threads than ~8 just adds scheduling noise), floored at 1.
pub fn auto_threads() -> usize {
    thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// Runs `run(0..trials)` across scoped threads and returns the results
/// in trial order. `run` must derive everything from the trial index
/// (per-trial seeds) — it gets no shared mutable state, which is what
/// makes the parallel result bit-identical to the sequential one.
pub fn fan_trials<R, F>(trials: u32, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(u32) -> R + Sync,
{
    let threads = auto_threads().min(trials.max(1) as usize);
    if threads <= 1 || trials <= 1 {
        return (0..trials).map(run).collect();
    }
    let chunk = (trials as usize).div_ceil(threads);
    let mut out = Vec::with_capacity(trials as usize);
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for start in (0..trials).step_by(chunk) {
            let end = (start + chunk as u32).min(trials);
            let run = &run;
            handles.push(scope.spawn(move || (start..end).map(run).collect::<Vec<R>>()));
        }
        for h in handles {
            out.extend(h.join().expect("trial worker panicked"));
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_trial_order() {
        let got = fan_trials(100, |t| t * 3);
        let want: Vec<u32> = (0..100).map(|t| t * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn zero_and_one_trials() {
        assert_eq!(fan_trials(0, |t| t), Vec::<u32>::new());
        assert_eq!(fan_trials(1, |t| t + 7), vec![7]);
    }

    #[test]
    fn matches_sequential_for_stateful_per_trial_work() {
        // Each trial runs its own rng from its own seed; parallel and
        // sequential must agree exactly.
        let work = |t: u32| {
            let mut x = u64::from(t).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            for _ in 0..50 {
                x ^= x >> 13;
                x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
            }
            x
        };
        let seq: Vec<u64> = (0..37).map(work).collect();
        assert_eq!(fan_trials(37, work), seq);
    }

    #[test]
    fn parallel_registry_equals_sequential() {
        // The guarantee the experiment sweeps lean on: folding per-trial
        // samples into a Registry in trial order yields a Registry equal
        // to the sequential run's — same histograms, same sample order,
        // same quantiles.
        use relax_trace::Registry;
        let work = |t: u32| -> Vec<u64> { (0..8).map(|i| (u64::from(t) * 31 + i) % 97).collect() };
        let fold = |per_trial: Vec<Vec<u64>>| -> Registry {
            let mut reg = Registry::new();
            for samples in per_trial {
                let hist = reg.histogram("trial_latency");
                for s in samples {
                    hist.record(s);
                }
            }
            reg
        };
        let parallel = fold(fan_trials(23, work));
        let sequential = fold((0..23).map(work).collect());
        assert_eq!(parallel, sequential);
    }
}
