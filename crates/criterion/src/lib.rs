//! A self-contained, offline stand-in for the `criterion` crate.
//!
//! The workspace's benches were written against the real criterion API;
//! this crate reimplements exactly the subset they use — `Criterion`,
//! `benchmark_group`/`bench_function`/`bench_with_input`, `BenchmarkId`,
//! `Bencher::iter`/`iter_batched`/`iter_custom`, and the
//! `criterion_group!`/`criterion_main!` macros — with a simple wall-clock
//! measurement loop, so `cargo bench` needs no network access. Numbers
//! are indicative (mean ns/iter over an adaptive batch), not
//! statistically analysed.
//!
//! One thing the real crate does differently: `cargo bench --bench NAME
//! -- --json PATH` writes every result of the run to `PATH` as one flat
//! JSON object, `{"<group>/<id>": <mean ns/iter>, …}` — the shape
//! `relax-bench regress` reads, so a micro-benchmark can carry a band.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter value.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An id made of a parameter value alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

/// How many inputs real criterion sets up per timed batch; accepted for
/// API compatibility (the shim always sets up one per iteration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Inputs small enough to keep many in memory.
    SmallInput,
    /// Inputs large enough that few fit in memory.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Runs one benchmark's timing loop.
#[derive(Debug)]
pub struct Bencher {
    mean_ns: f64,
    iters: u64,
}

impl Bencher {
    fn new() -> Self {
        Bencher {
            mean_ns: 0.0,
            iters: 0,
        }
    }

    /// Times the routine: a short warm-up, then enough iterations to fill
    /// the measurement window, reporting mean wall-clock ns per iteration.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up (also primes caches and the closure's first-call costs).
        let warmup_end = Instant::now() + Duration::from_millis(20);
        let mut warmup_iters: u64 = 0;
        while Instant::now() < warmup_end {
            black_box(routine());
            warmup_iters += 1;
        }
        // Measurement: batches sized from the warm-up rate, ~60ms total.
        let batch = warmup_iters.clamp(1, u64::MAX);
        let window = Duration::from_millis(60);
        let start = Instant::now();
        let mut total_iters: u64 = 0;
        while start.elapsed() < window {
            for _ in 0..batch {
                black_box(routine());
            }
            total_iters += batch;
        }
        let elapsed = start.elapsed();
        self.iters = total_iters;
        self.mean_ns = elapsed.as_nanos() as f64 / total_iters as f64;
    }

    /// Times `routine` on a fresh input from `setup` each iteration, for
    /// routines that consume or mutate their input. Only the routine is
    /// on the clock — not the set-up, nor dropping the routine's output.
    /// Stops after ~60ms of timed work or ~1s of wall time in all.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..3 {
            black_box(routine(setup()));
        }
        let (window, wall_cap) = (Duration::from_millis(60), Duration::from_secs(1));
        let start = Instant::now();
        let mut timed = Duration::ZERO;
        let mut iters: u64 = 0;
        while timed < window && start.elapsed() < wall_cap {
            let input = setup();
            let t = Instant::now();
            let out = routine(input);
            timed += t.elapsed();
            black_box(out);
            iters += 1;
        }
        self.iters = iters;
        self.mean_ns = timed.as_nanos() as f64 / iters as f64;
    }

    /// Hands the clock to the routine: it is called with an iteration
    /// count, runs that many, and returns the time it wants counted — so
    /// it can time one step out of each iteration's many. Batches double
    /// until ~60ms have been counted or ~300ms of wall time have passed.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        black_box(routine(3));
        let (window, wall_cap) = (Duration::from_millis(60), Duration::from_millis(300));
        let start = Instant::now();
        let (mut timed, mut iters, mut batch) = (Duration::ZERO, 0u64, 1u64);
        while timed < window && start.elapsed() < wall_cap {
            timed += routine(batch);
            iters += batch;
            batch *= 2;
        }
        self.iters = iters;
        self.mean_ns = timed.as_nanos() as f64 / iters as f64;
    }
}

/// A named collection of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Sets the target sample count (accepted for API compatibility; the
    /// shim's adaptive loop ignores it).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Sets the measurement time (accepted for API compatibility).
    pub fn measurement_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Benchmarks `routine` against `input` under the given id.
    pub fn bench_with_input<I: ?Sized, R>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: R,
    ) -> &mut Self
    where
        R: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::new();
        routine(&mut b, input);
        self.criterion
            .report(&format!("{}/{}", self.name, id.label), &b);
        self
    }

    /// Benchmarks `routine` under the given id with no explicit input.
    pub fn bench_function<R: FnMut(&mut Bencher)>(
        &mut self,
        id: BenchmarkId,
        mut routine: R,
    ) -> &mut Self {
        let mut b = Bencher::new();
        routine(&mut b);
        self.criterion
            .report(&format!("{}/{}", self.name, id.label), &b);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// The top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    results: Vec<(String, f64)>,
}

impl Criterion {
    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }

    /// Benchmarks a single named routine.
    pub fn bench_function<R: FnMut(&mut Bencher)>(&mut self, name: &str, mut routine: R) {
        let mut b = Bencher::new();
        routine(&mut b);
        let name = name.to_string();
        self.report(&name, &b);
    }

    fn report(&mut self, name: &str, b: &Bencher) {
        println!(
            "bench {name:<50} {:>14.1} ns/iter  ({} iters)",
            b.mean_ns, b.iters
        );
        self.results.push((name.to_string(), b.mean_ns));
    }

    /// All `(name, mean ns/iter)` results reported so far.
    pub fn results(&self) -> &[(String, f64)] {
        &self.results
    }

    /// The results as one flat JSON object, `{"<name>": <mean ns>, …}`.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = (self.results.iter())
            .map(|(name, ns)| format!("{name:?}:{ns:.1}"))
            .collect();
        format!("{{{}}}\n", fields.join(","))
    }

    /// Writes [`Criterion::to_json`] to the path following a `--json`
    /// argument, if the process was given one (`criterion_main!` calls
    /// this after the last group).
    ///
    /// # Panics
    ///
    /// Panics if the path cannot be written.
    pub fn write_json_if_asked(&self) {
        let mut args = std::env::args().skip_while(|a| a != "--json").skip(1);
        if let Some(path) = args.next() {
            std::fs::write(&path, self.to_json()).expect("the --json path is writable");
        }
    }
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(criterion: &mut $crate::Criterion) {
            $($target(criterion);)+
        }
    };
}

/// Declares `main` from group-runner functions.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut criterion = $crate::Criterion::default();
            $($group(&mut criterion);)+
            criterion.write_json_if_asked();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bench(c: &mut Criterion) {
        c.bench_function("sum_to_100", |b| b.iter(|| (0u64..100).sum::<u64>()));
    }

    #[test]
    fn iter_batched_hands_every_iteration_a_fresh_input() {
        let mut b = Bencher::new();
        let mut set_ups = 0u64;
        b.iter_batched(
            || {
                set_ups += 1;
                vec![1u8; 4]
            },
            |mut v| {
                assert_eq!(v.len(), 4, "input was reused");
                v.push(0);
                v
            },
            BatchSize::SmallInput,
        );
        assert_eq!(
            set_ups,
            b.iters + 3,
            "one set-up per call, warm-up included"
        );
        assert!(b.mean_ns > 0.0);
    }

    criterion_group!(benches, tiny_bench);

    #[test]
    fn group_runner_runs_and_records() {
        let mut c = Criterion::default();
        benches(&mut c);
        assert_eq!(c.results().len(), 1);
        assert!(c.results()[0].1 > 0.0, "measured a positive mean");
        // One flat object, names quoted, means as plain numbers.
        let json = c.to_json();
        assert!(json.starts_with("{\"sum_to_100\":") && json.ends_with("}\n"));
        assert!(json[14..json.len() - 2].parse::<f64>().unwrap() > 0.0);
    }

    #[test]
    fn iter_custom_counts_only_what_the_routine_reports() {
        let mut b = Bencher::new();
        let mut ran = 0u64;
        b.iter_custom(|iters| {
            ran += iters;
            std::thread::sleep(Duration::from_millis(1));
            Duration::from_nanos(500 * iters)
        });
        assert_eq!(
            ran,
            b.iters + 3,
            "every requested iteration ran, warm-up included"
        );
        assert!((b.mean_ns - 500.0).abs() < 1e-6, "mean {} ns", b.mean_ns);
    }

    #[test]
    fn group_api_shape_compiles() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shape");
        g.sample_size(10);
        g.bench_with_input(BenchmarkId::from_parameter(4u32), &4u32, |b, &n| {
            b.iter(|| black_box(n) * 2)
        });
        g.bench_with_input(BenchmarkId::new("named", 8u32), &8u32, |b, &n| {
            b.iter(|| black_box(n) + 1)
        });
        g.finish();
        assert_eq!(c.results().len(), 2);
    }
}
