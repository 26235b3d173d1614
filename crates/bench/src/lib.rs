//! # relax-bench — experiments and benchmarks
//!
//! Every figure and table of Herlihy & Wing (PODC 1987) is regenerated by
//! an experiment in [`experiments`]; the one binary, `relax-bench <name>
//! [flags]`, dispatches through [`experiments::EXPERIMENTS`] and
//! `relax-bench list` prints it (see `EXPERIMENTS.md` at the workspace
//! root for the recorded outputs). `trace_analyze` reads a JSONL trace
//! from any producer.
//!
//! | Command | What it regenerates |
//! |---------|---------------------|
//! | `relax-bench figures` | Figures 2-1…2-4, 3-1…3-5, 4-1, 4-3 (the specification figures) |
//! | `relax-bench lattices` | §3.3 constraint-lattice diagram; Figure 4-2 |
//! | `relax-bench theorem4` | Theorem 4 and the other three lattice points (`--profile`: under the flight recorder) |
//! | `relax-bench serialdep` | Definition 3: {Q1,Q2} necessary & sufficient (and {A1,A2}) |
//! | `relax-bench prob_topn` | §3.3's `(0.1)^n` claim, analytic vs Monte Carlo |
//! | `relax-bench account` | §3.4: no-overdraft invariant; premature-debit decay |
//! | `relax-bench availability` | Figure 5-1 "Availability": quorum assignments under failures (`--trace`: the §3.3 degradation scenario) |
//! | `relax-bench latency` | Figure 5-1 "Latency": quorum size vs ATM latency |
//! | `relax-bench concurrency` | Figure 5-1 "Concurrency": spooler strategies |
//! | `relax-bench summary` | Figure 5-1 (the chart itself) |
//! | `relax-bench eta_ablation` | §3.3's design remark: evaluation function η vs η′ |
//! | `relax-bench voting` | Gifford weighted voting vs uniform voting |
//! | `relax-bench growth` | accepted histories per length, per lattice point |
//! | `relax-bench markov` | §2.3: a Markov environment over the taxi lattice |
//! | `relax-bench calm_fastpath` | coordination-free credits on the sim: equivalence and availability (exit 1 when either fails) |
//! | `relax-bench fault_campaign` | five fault campaigns: root-cause verdicts (exit 1 when one fails) and the telemetry overhead, `telemetry_pct` (exit 1 over its ceiling), with tracing's share of it (`BENCH_fault_campaign.json`) |
//! | `relax-bench substrates` | the per-layer micro-benchmarks, ns per iteration of each of 72 rows, and 11 gates, each a row's ratio over a denominator timed in the same run (exit 1 when one is over its bound; `BENCH_micro_substrates.json`) |
//! | `relax-bench compare` | two builds of the repository's benchmark on one workload, in alternated pairs: per end-to-end metric the median ratio B/A, B's wins and a sign-test p |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod experiments;
pub mod table;

pub use args::Args;
pub use table::Table;
