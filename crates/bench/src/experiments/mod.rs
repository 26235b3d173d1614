//! Experiment implementations, one module per paper artifact, and the
//! table `relax-bench <name>` dispatches through.

use std::path::Path;

use crate::args::{usage, Args};

pub mod account;
pub mod availability;
pub mod calm;
pub mod campaign;
pub mod compare;
pub mod concurrency;
pub mod degradation;
pub mod eta_ablation;
pub mod figures;
pub mod growth;
pub mod latency;
pub mod lattices;
pub mod markov;
pub mod par;
pub mod prob;
pub mod regress;
pub mod serialdep;
pub mod substrates;
pub mod summary;
pub mod theorem4;
pub mod voting;

/// One row of [`EXPERIMENTS`]: name, one-line summary, accepted flags
/// (as [`Args::parse`] reads them), and the body.
pub type Experiment = (
    &'static str,
    &'static str,
    &'static [&'static str],
    fn(&Args) -> Result<(), String>,
);

/// Everything `relax-bench` runs. All but `fault_campaign` (which times
/// itself), `substrates` (which times every layer), `compare` (which
/// times two benchmark builds) and `regress` (which reads files) print
/// the same bytes on every run.
pub const EXPERIMENTS: &[Experiment] = &[
    (
        "figures",
        "the specification figures, 2-1 … 4-3",
        &[],
        figures::main,
    ),
    (
        "lattices",
        "§3.3 constraint lattice, Figure 4-2, SSqueue lattice",
        &[],
        lattices::main,
    ),
    (
        "theorem4",
        "Theorem 4 and the other three lattice points",
        &["--profile", "--trace PATH"],
        theorem4::main,
    ),
    (
        "serialdep",
        "Definition 3: {Q1,Q2} and {A1,A2} necessary & sufficient",
        &[],
        serialdep::main,
    ),
    (
        "prob_topn",
        "§3.3's (0.1)^n claim, analytic vs Monte Carlo",
        &[],
        prob::main,
    ),
    (
        "account",
        "§3.4: no-overdraft invariant, premature-debit decay",
        &[],
        account::main,
    ),
    (
        "availability",
        "Figure 5-1 availability: quorum assignments under failures",
        &["--trace [PATH]"],
        availability::main,
    ),
    (
        "latency",
        "Figure 5-1 latency: quorum size vs ATM latency",
        &[],
        latency::main,
    ),
    (
        "concurrency",
        "Figure 5-1 concurrency: spooler strategies",
        &[],
        concurrency::main,
    ),
    (
        "summary",
        "Figure 5-1, the chart itself",
        &[],
        summary::main,
    ),
    (
        "eta_ablation",
        "evaluation function η vs η′",
        &[],
        eta_ablation::main,
    ),
    (
        "voting",
        "Gifford weighted voting vs uniform voting",
        &[],
        voting::main,
    ),
    (
        "growth",
        "accepted histories per length, per lattice point",
        &[],
        growth::main,
    ),
    (
        "markov",
        "§2.3: a Markov environment over the taxi lattice",
        &[],
        markov::main,
    ),
    (
        "calm_fastpath",
        "coordination-free credits on the sim: equivalence, availability",
        &[],
        calm::main,
    ),
    (
        "fault_campaign",
        "five fault campaigns: root-cause verdicts, telemetry overhead",
        &["--trace NAME PATH"],
        campaign::main,
    ),
    (
        "substrates",
        "per-layer micro-benchmarks, ns per iteration",
        &[],
        substrates::main,
    ),
    (
        "compare",
        "two benchmark builds on one workload in alternated pairs",
        &[
            "--a BIN",
            "--b BIN",
            "--workload W",
            "--pairs N",
            "--seconds S",
            "--seed N",
        ],
        compare::main,
    ),
    (
        "regress",
        "fresh BENCH_*.json payloads against the committed baselines",
        &[
            "--fresh DIR",
            "--baselines DIR",
            "--only SUBSTR",
            "--bless",
            "--list",
        ],
        regress::main,
    ),
];

/// The row named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.0 == name)
}

/// What `relax-bench list` prints: each experiment's usage line, then
/// its summary.
pub fn list() -> String {
    let mut out = String::from("usage: relax-bench <name> [flags]\n\n");
    for (name, summary, flags, _) in EXPERIMENTS {
        out += &format!("  {}\n      {summary}\n", usage(name, flags));
    }
    out
}

/// Writes `contents` to `path`; the error names the path.
pub(crate) fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))
}

/// Writes a `BENCH_*.json` payload: the one-line JSON object `json`
/// with the machine it was measured on as its last field,
/// `"machine":{"nproc":…,"cpus_allowed":…,"rustc":"…","commit":"…"}`.
/// `nproc` counts the machine's online CPUs, and `cpus_allowed` those
/// this process may run on, so a payload written under `taskset` shows
/// both the machine and the pin. `commit` is the `HEAD` of the checkout
/// this binary was built from, whatever the cwd, and `unknown` when its
/// source is no git checkout.
pub(crate) fn write_payload(path: &str, json: &str) -> Result<(), String> {
    let source = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let first_line = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .current_dir(&source)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".to_string())
    };
    let body = json.trim_end().strip_suffix('}').expect("a JSON object");
    // The standard library's parallelism follows the affinity mask.
    let allowed = std::thread::available_parallelism().map_or(0, |n| n.get());
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online")
        .ok()
        .and_then(|list| cpu_list_len(&list));
    let machine = format!(
        "{{\"nproc\":{},\"cpus_allowed\":{allowed},\"rustc\":\"{}\",\"commit\":\"{}\"}}",
        online.unwrap_or(allowed),
        first_line("rustc", &["-V"]),
        if source.join(".git").exists() {
            first_line("git", &["rev-parse", "HEAD"])
        } else {
            "unknown".to_string()
        },
    );
    write_file(path, &format!("{body},\"machine\":{machine}}}\n"))
}

/// How many CPUs a kernel CPU list names: `0-1` two, `0,2-3` three.
/// `None` when `list` is not one.
fn cpu_list_len(list: &str) -> Option<usize> {
    let number = |s: &str| s.parse::<usize>().ok();
    (list.trim().split(','))
        .map(|range| match range.split_once('-') {
            Some((lo, hi)) => number(hi)?.checked_sub(number(lo)?).map(|d| d + 1),
            None => number(range).map(|_| 1),
        })
        .sum()
}

/// The `q`-quantile of ascending `sorted` by nearest rank (the sample at
/// rank `round((len − 1) · q)`); the default value when there are none.
pub(crate) fn quantile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// One metric's readings of two sides, A and B, taken in alternated
/// pairs: `compare`'s runs of two benchmark builds, `fault_campaign`'s
/// ABBA blocks of bare and instrumented suites.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Readings {
    /// A's reading in each pair.
    pub a: Vec<f64>,
    /// B's reading in each pair.
    pub b: Vec<f64>,
}

/// What one metric's pairs say.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Verdict {
    /// A's lower quartile, median and upper quartile.
    pub a: [f64; 3],
    /// B's lower quartile, median and upper quartile.
    pub b: [f64; 3],
    /// The lower quartile, median and upper quartile of the per-pair
    /// ratios B/A.
    pub ratio: [f64; 3],
    /// Pairs in which B reads better.
    pub wins: usize,
    /// Pairs in which both read the same.
    pub ties: usize,
    /// Two-sided sign-test p of `wins` over the untied pairs.
    pub p: f64,
}

/// The lower quartile, median and upper quartile of `values`.
fn quartiles(values: impl IntoIterator<Item = f64>) -> [f64; 3] {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|q| quantile(&v, q))
}

impl Readings {
    /// The verdict on these pairs for a metric where higher reads better
    /// when `higher_is_better`.
    pub fn verdict(&self, higher_is_better: bool) -> Verdict {
        let pairs = || self.a.iter().zip(&self.b);
        let wins = pairs()
            .filter(|(a, b)| if higher_is_better { b > a } else { b < a })
            .count();
        let ties = pairs().filter(|(a, b)| a == b).count();
        Verdict {
            a: quartiles(self.a.iter().copied()),
            b: quartiles(self.b.iter().copied()),
            ratio: quartiles(pairs().map(|(a, b)| b / a)),
            wins,
            ties,
            p: sign_test_p(wins, self.a.len() - ties),
        }
    }
}

/// Two-sided sign test: the chance that `n` tosses of a fair coin land
/// at least as far from `n / 2` heads as `wins` did.
fn sign_test_p(wins: usize, n: usize) -> f64 {
    let k = wins.min(n - wins);
    // C(n, i) / 2^n, term by term.
    let mut term = 0.5f64.powi(n as i32);
    let mut tail = 0.0;
    for i in 0..=k {
        tail += term;
        term *= (n - i) as f64 / (i + 1) as f64;
    }
    (2.0 * tail).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names() -> Vec<&'static str> {
        EXPERIMENTS.iter().map(|e| e.0).collect()
    }

    /// The backticked `relax-bench <name>` mentions in the lines of
    /// `text` that start with `prefix`, in order, repeats dropped.
    fn documented(text: &str, prefix: &str) -> Vec<String> {
        let mut found: Vec<String> = Vec::new();
        for line in text.lines().filter(|l| l.starts_with(prefix)) {
            for mention in line.split("`relax-bench ").skip(1) {
                let name = mention.split(['`', ' ']).next().expect("split yields");
                if !found.iter().any(|f| f == name) {
                    found.push(name.to_string());
                }
            }
        }
        found
    }

    #[test]
    fn names_are_unique_and_the_docs_list_exactly_them() {
        let mut sorted = names();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), EXPERIMENTS.len(), "duplicate name");
        assert_eq!(sorted.len(), 19);

        // The crate's doc table lists them in table order.
        let lib_rows = documented(include_str!("../lib.rs"), "//! | `relax-bench ");
        assert_eq!(lib_rows, names());

        // EXPERIMENTS.md has a section heading for each, and for nothing
        // that is not an experiment.
        let mut headings = documented(include_str!("../../../../EXPERIMENTS.md"), "## ");
        headings.sort_unstable();
        assert_eq!(headings, sorted);
    }

    #[test]
    fn every_experiment_rejects_a_bogus_flag_and_list_shows_the_real_ones() {
        let listing = list();
        for (name, _, flags, _) in EXPERIMENTS {
            let err = Args::parse(flags, ["--no-such-flag".to_string()]).unwrap_err();
            assert!(err.contains("--no-such-flag"), "{name}: {err}");
            let line = listing
                .lines()
                .find(|l| l.strip_prefix("  ").and_then(|l| l.split(' ').next()) == Some(name))
                .unwrap_or_else(|| panic!("{name} missing from list"));
            for flag in *flags {
                assert!(line.contains(flag), "{name}: {flag} not in {line:?}");
            }
        }
    }

    #[test]
    fn a_payload_with_its_machine_block_keeps_every_checked_metric() {
        use relax_trace::codec::{report_fields, ReportValue};
        let dir = std::env::temp_dir().join(format!("relax_payload_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let committed = [
            (
                "BENCH_fault_campaign.json",
                include_str!("../../../../baselines/BENCH_fault_campaign.json"),
            ),
            (
                "BENCH_micro_substrates.json",
                include_str!("../../../../baselines/BENCH_micro_substrates.json"),
            ),
        ];
        for (file, json) in committed {
            let path = dir.join(file).display().to_string();
            write_payload(&path, json).unwrap();
            let written = std::fs::read_to_string(&path).unwrap();
            let fields = report_fields(&written).unwrap_or_else(|e| panic!("{file}: {e}"));
            for check in regress::CHECKS.iter().filter(|c| c.file == file) {
                assert!(
                    fields.iter().any(|(name, _)| name == check.metric),
                    "{file}: {} lost",
                    check.metric
                );
            }
            let last = fields.last().expect("fields");
            assert_eq!(
                (last.0.as_str(), &last.1),
                ("machine", &ReportValue::Nested)
            );
            for key in ["\"nproc\":", "\"rustc\":\"", "\"commit\":\""] {
                assert!(written.contains(key), "{file}: {key} missing");
            }
            let count = |key: &str| -> usize {
                let rest = written.split(key).nth(1).expect(key);
                rest[..rest.find(',').expect("a later field")]
                    .parse()
                    .expect(key)
            };
            let (nproc, allowed) = (count("\"nproc\":"), count("\"cpus_allowed\":"));
            assert!(nproc >= allowed && allowed >= 1, "{file}: {written}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_cpu_list_counts_its_ranges_and_singletons() {
        assert_eq!(cpu_list_len("0-1\n"), Some(2));
        assert_eq!(cpu_list_len("0,2-3"), Some(3));
        assert_eq!(cpu_list_len("5"), Some(1));
        for bad in ["", "0-", "3-1", "a", "0,,1"] {
            assert_eq!(cpu_list_len(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn a_payload_names_the_commit_of_its_source_from_any_cwd() {
        let dir = std::env::temp_dir().join(format!("relax_cwd_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let back = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let written = write_payload("BENCH_cwd.json", "{\"x\":1}\n")
            .and_then(|()| std::fs::read_to_string("BENCH_cwd.json").map_err(|e| e.to_string()));
        std::env::set_current_dir(back).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let written = written.unwrap();
        let commit = (written.split("\"commit\":\"").nth(1))
            .and_then(|rest| rest.split('"').next())
            .expect("a commit field");
        if Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../.git")
            .exists()
        {
            assert_eq!(commit.len(), 40, "{written}");
            assert!(commit.bytes().all(|b| b.is_ascii_hexdigit()), "{written}");
        } else {
            assert_eq!(commit, "unknown");
        }
    }

    #[test]
    fn the_sign_test_is_two_sided_and_exact() {
        assert_eq!(sign_test_p(10, 10), 2.0 / 1024.0);
        assert_eq!(sign_test_p(0, 10), 2.0 / 1024.0);
        assert_eq!(sign_test_p(9, 10), 22.0 / 1024.0);
        assert_eq!(sign_test_p(5, 10), 1.0);
        assert_eq!(sign_test_p(0, 0), 1.0);
        assert_eq!(sign_test_p(1, 1), 1.0);
    }

    #[test]
    fn a_verdict_reads_wins_in_the_metric_s_own_direction() {
        let r = Readings {
            a: vec![100.0, 110.0, 90.0, 100.0, 120.0],
            b: vec![120.0, 110.0, 99.0, 130.0, 108.0],
        };
        let faster = r.verdict(true);
        assert_eq!((faster.wins, faster.ties), (3, 1));
        assert_eq!(faster.p, 10.0 / 16.0);
        assert_eq!(faster.ratio, [1.0, 1.1, 1.2]);
        assert_eq!(faster.a, [100.0, 100.0, 110.0]);
        assert_eq!(faster.b, [108.0, 110.0, 120.0]);
        // The same readings of a lower-is-better metric.
        assert_eq!(r.verdict(false).wins, 1);
    }

    #[test]
    fn unwritable_trace_path_is_an_error_naming_the_path() {
        let dir = std::env::temp_dir().join(format!("relax_no_such_dir_{}", std::process::id()));
        let path = dir.join("t.jsonl").display().to_string();
        let (_, _, flags, run) = find("availability").unwrap();
        let args = Args::parse(flags, ["--trace".to_string(), path.clone()]).unwrap();
        let err = run(&args).unwrap_err();
        assert!(err.starts_with(&path), "{err}");
        assert!(!dir.exists());
    }
}
