//! The method every workload shares: set up several times, check once,
//! then run closed-loop iterations of fixed work for the requested time
//! and report the fast edge of their distribution.

use std::time::{Duration, Instant};

use relax_automata::EngineProbe;
use relax_trace::Probe;

use crate::metrics::{ratio, Layers};
use crate::stats::{median, quantile};
use crate::sys;

/// How much work a workload does per iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured size.
    Full,
    /// A size the unit tests finish in well under a second, debug build.
    Smoke,
}

/// Set-ups per run, at least. Set-up repeats until a tenth of the run's
/// measuring time has gone by, so that a cheap set-up is estimated from
/// as much time as an expensive one.
pub const MIN_SETUPS: usize = 5;

/// Fewest timed iterations a run reports on, however short `--seconds`.
pub const MIN_ITERATIONS: usize = 5;

/// What one iteration measured.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Client-visible requests submitted.
    pub ops: u64,
    /// Wall nanoseconds of the one timed call.
    pub wall_ns: u64,
    /// Process CPU seconds (all threads) across the timed call, read
    /// outside the timed window at the clock's 10 ms tick: meaningful
    /// only summed over many iterations.
    pub cpu_s: f64,
    /// Median per-op latency within the iteration, nanoseconds.
    pub op_p50_ns: f64,
    /// Requests that timed out or were left without an outcome; every
    /// request when `error` is set.
    pub failed: u64,
    /// The first violated correctness property.
    pub error: Option<String>,
}

impl Iteration {
    /// Requests per second of the timed call.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// One benchmark workload. A run is one process: [`Workload::set_up`]
/// several times, [`Workload::verify_once`], then iterations.
pub trait Workload {
    /// Everything before the first timed iteration: input generation
    /// from the seed, system construction, analysis, one warm-up
    /// iteration. Repeatable; the run times each call.
    fn set_up(&mut self);

    /// Checks that need no repetition (differential oracles, acceptance
    /// by the specification), outside every timing.
    fn verify_once(&mut self) -> Result<(), String>;

    /// Which iteration stands for a run of this workload.
    fn estimator(&self) -> Estimator {
        Estimator::Fastest
    }

    /// One iteration: build a fresh system, submit the stream, time one
    /// call, check the outputs. `probe` records harness spans around
    /// each step when enabled.
    fn iterate(&mut self, probe: &mut Probe) -> Iteration;

    /// The traced run's layer measurements beyond what iterations give:
    /// replays and counters, within `budget` wall time. `run_wall_ns` is
    /// the median timed call of the iterations just run.
    fn layers(
        &mut self,
        budget: Duration,
        run_wall_ns: f64,
        pin: Option<&sys::Pin>,
        out: &mut Layers,
    );
}

/// The result line's fields.
#[derive(Debug)]
pub struct RunResult {
    /// Every check passed.
    pub correct: bool,
    /// Requests submitted over the timed iterations.
    pub attempted: u64,
    /// Requests failed over the timed iterations.
    pub failed: u64,
    /// First violated property, for the human reader.
    pub error: Option<String>,
    /// Timed iterations.
    pub iterations: Vec<Iteration>,
    /// Set-up seconds, estimated over the run's set-ups.
    pub setup_s: f64,
}

fn set_up_and_verify(w: &mut dyn Workload, seconds: f64) -> (f64, Option<String>) {
    let start = Instant::now();
    let mut setups = Vec::new();
    while setups.len() < MIN_SETUPS || start.elapsed().as_secs_f64() < seconds / 10.0 {
        let t = Instant::now();
        w.set_up();
        setups.push(t.elapsed().as_secs_f64());
    }
    (w.estimator().seconds(&setups), w.verify_once().err())
}

fn tally(iterations: Vec<Iteration>, setup_s: f64, mut error: Option<String>) -> RunResult {
    let attempted = iterations.iter().map(|i| i.ops).sum();
    let failed = iterations.iter().map(|i| i.failed).sum();
    if error.is_none() {
        error = iterations.iter().find_map(|i| i.error.clone());
    }
    RunResult {
        correct: error.is_none() && failed == 0,
        attempted,
        failed,
        error,
        iterations,
        setup_s,
    }
}

/// The untraced run: iterations until `seconds` have passed (at least
/// [`MIN_ITERATIONS`]), tracing off.
pub fn run(w: &mut dyn Workload, seconds: f64) -> RunResult {
    let (setup_s, error) = set_up_and_verify(w, seconds);
    let mut probe = Probe::disabled();
    let mut iterations = Vec::new();
    let start = Instant::now();
    while iterations.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < seconds {
        iterations.push(w.iterate(&mut probe));
    }
    tally(iterations, setup_s, error)
}

/// Which iteration stands for the run. Host noise on a shared box only
/// ever slows an iteration down, for seconds or for minutes at a time,
/// so every quantile inside the distribution moves with the host; what
/// repeats from run to run is the distribution's fast edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// The fastest iteration: for workloads whose iterations do the
    /// same work in the same order, so the fastest one is the program's
    /// cost with the least interference.
    Fastest,
    /// The median iteration: for workloads whose threads race, where
    /// the fastest iteration is a lucky interleaving, not a floor.
    Median,
}

impl Estimator {
    /// The name printed with the samples.
    pub fn name(self) -> &'static str {
        match self {
            Estimator::Fastest => "fastest",
            Estimator::Median => "median",
        }
    }

    /// The quantile of iteration throughput the run reports; latency
    /// takes the mirrored one.
    fn quantile(self) -> f64 {
        match self {
            Estimator::Fastest => 1.0,
            Estimator::Median => 0.5,
        }
    }

    /// Estimate of a duration sampled several times in a run.
    pub fn seconds(self, samples: &[f64]) -> f64 {
        quantile(samples, 1.0 - self.quantile())
    }

    /// Throughput estimate of a run, requests per second.
    pub fn ops_per_s(self, iterations: &[Iteration]) -> f64 {
        let v: Vec<f64> = iterations.iter().map(Iteration::ops_per_s).collect();
        quantile(&v, self.quantile())
    }

    /// Latency estimate of a run: over iterations, of the iteration's
    /// median per-op latency, in microseconds.
    pub fn op_p50_us(self, iterations: &[Iteration]) -> f64 {
        let v: Vec<f64> = iterations.iter().map(|i| i.op_p50_ns / 1e3).collect();
        quantile(&v, 1.0 - self.quantile())
    }
}

/// The traced run: half of `seconds` on iterations that alternate the
/// harness probe on and off (ABBA, so drift cancels), then the
/// workload's layer replays, then more of the same iterations until
/// `seconds` have passed.
pub fn trace(
    w: &mut dyn Workload,
    seconds: f64,
    pin: Option<&sys::Pin>,
    out: &mut Layers,
) -> (RunResult, Probe) {
    let (setup_s, error) = set_up_and_verify(w, seconds);
    let mut probe = Probe::enabled();
    let mut off = Probe::disabled();
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut replayed = false;
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if !replayed && iterations.len() >= MIN_ITERATIONS && elapsed >= seconds / 2.0 {
            let walls: Vec<f64> = iterations.iter().map(|i| i.wall_ns as f64).collect();
            let left = Duration::from_secs_f64((seconds - elapsed).max(0.5));
            w.layers(left, median(&walls), pin, out);
            replayed = true;
            continue;
        }
        if replayed && elapsed >= seconds {
            break;
        }
        let on = matches!(iterations.len() % 4, 0 | 3);
        if on {
            probe.enter("iteration");
        }
        let it = w.iterate(if on { &mut probe } else { &mut off });
        if on {
            probe.exit("iteration");
        }
        (if on { &mut traced } else { &mut untraced }).push(it.ops_per_s());
        iterations.push(it);
    }
    let cpu: f64 = iterations.iter().map(|i| i.cpu_s).sum();
    let ops: u64 = iterations.iter().map(|i| i.ops).sum();

    let thr: Vec<f64> = iterations.iter().map(Iteration::ops_per_s).collect();
    let walls: Vec<f64> = iterations.iter().map(|i| i.wall_ns as f64).collect();
    out.set("bench.iterations", iterations.len() as f64);
    out.set("bench.run_wall_ms_p50", median(&walls) / 1e6);
    out.set("bench.cpu_us_per_op", ratio(cpu * 1e6, ops as f64));
    out.set(
        "bench.iter_spread_pct",
        100.0 * (quantile(&thr, 0.75) - quantile(&thr, 0.25)) / median(&thr),
    );
    if !traced.is_empty() && !untraced.is_empty() {
        out.set(
            "bench.trace_overhead_pct",
            100.0 * (median(&untraced) / median(&traced) - 1.0),
        );
    }
    (tally(iterations, setup_s, error), probe)
}
