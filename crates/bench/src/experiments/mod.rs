//! Experiment implementations, one module per paper artifact, and the
//! table `relax-bench <name>` dispatches through.

use crate::args::{usage, Args};

pub mod account;
pub mod availability;
pub mod calm;
pub mod campaign;
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
/// itself) and `regress` (which reads files) print the same bytes on
/// every run.
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
/// `"machine":{"nproc":…,"rustc":"…","commit":"…"}` — the fields the
/// benchmark package prints, `commit` being `unknown` outside git.
pub(crate) fn write_payload(path: &str, json: &str) -> Result<(), String> {
    let first_line = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_string))
            .unwrap_or_else(|| "unknown".to_string())
    };
    let body = json.trim_end().strip_suffix('}').expect("a JSON object");
    let machine = format!(
        "{{\"nproc\":{},\"rustc\":\"{}\",\"commit\":\"{}\"}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        first_line("rustc", &["-V"]),
        first_line("git", &["rev-parse", "HEAD"]),
    );
    write_file(path, &format!("{body},\"machine\":{machine}}}\n"))
}

/// An instrumented configuration timed against its baseline by [`abba`].
pub(crate) struct Abba {
    /// The median per-block ratio, instrumented over baseline.
    pub ratio: f64,
    /// The lower and upper quartiles of the per-block ratios.
    pub quartiles: (f64, f64),
    /// The fastest single baseline run, in nanoseconds.
    pub baseline_ns: u128,
}

/// Times `blocks` blocks of four runs in ABBA order — baseline,
/// instrumented, instrumented, baseline — so that machine-wide noise and
/// monotone drift hit both sides alike. `run(instrumented, rep)` times
/// one run in nanoseconds; block `b` runs rep `2b` and then rep `2b + 1`,
/// so when a rep repeats the input of the one before it, each side gets
/// one cold and one warm run per block.
pub(crate) fn abba(blocks: usize, mut run: impl FnMut(bool, usize) -> u128) -> Abba {
    let mut baseline_ns = u128::MAX;
    let mut ratios: Vec<f64> = (0..blocks)
        .map(|block| {
            let b1 = run(false, 2 * block);
            let e1 = run(true, 2 * block);
            let e2 = run(true, 2 * block + 1);
            let b2 = run(false, 2 * block + 1);
            baseline_ns = baseline_ns.min(b1).min(b2);
            (e1 + e2) as f64 / (b1 + b2) as f64
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let quartile = |q: usize| ratios[ratios.len() * q / 4];
    Abba {
        ratio: quartile(2),
        quartiles: (quartile(1), quartile(3)),
        baseline_ns,
    }
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
        assert_eq!(sorted.len(), 17);

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
                include_str!("../../../../BENCH_fault_campaign.json"),
            ),
            (
                "BENCH_calm_fastpath.json",
                include_str!("../../../../BENCH_calm_fastpath.json"),
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
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn abba_alternates_the_sides_and_takes_block_medians() {
        let mut calls = Vec::new();
        let t = abba(3, |instrumented, rep| {
            calls.push((instrumented, rep));
            if instrumented {
                1_100 + rep as u128
            } else {
                1_000
            }
        });
        assert_eq!(calls[..4], [(false, 0), (true, 0), (true, 1), (false, 1)]);
        assert_eq!(calls[8..], [(false, 4), (true, 4), (true, 5), (false, 5)]);
        // Block b reads (2201 + 4b) / 2000.
        assert_eq!(t.ratio, 2205.0 / 2000.0);
        assert_eq!(t.quartiles, (2201.0 / 2000.0, 2209.0 / 2000.0));
        assert_eq!(t.baseline_ns, 1_000);
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
