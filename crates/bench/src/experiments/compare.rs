//! `relax-bench compare`: two builds of the repository's benchmark timed
//! against each other on one workload, in alternated pairs.
//!
//! `--a` and `--b` name two benchmark binaries, each built from its own
//! checkout (`cargo build --release --manifest-path benchmark/Cargo.toml`
//! into its own `CARGO_TARGET_DIR`). Pair `i` runs A then B when `i` is
//! even and B then A when it is odd, so over two pairs each side runs
//! first once (ABBA) and a drift in the host's load hits both alike. A
//! run is one child process, `BIN --workload W --seed N --seconds S
//! --trace 0`, which pins itself to one CPU as every benchmark run does;
//! the last line of its standard output is the result object, whose four
//! end-to-end metrics are read. A run that is not `"correct":true` stops
//! the comparison.
//!
//! Per metric it prints each side's median and quartiles, the median of
//! the per-pair ratios B/A, B's wins out of the pairs (a
//! pair where B reads better in the metric's own direction; equal
//! readings are ties and count for neither side) and the two-sided
//! sign-test p of those wins against a fair coin, over the pairs that
//! did not tie. An A/A run (`--a X --b X`) calibrates the method on the
//! host at hand: how far one binary "differs" from itself.

use std::process::Command;

use crate::args::Args;
use crate::experiments::Readings;
use crate::table::Table;

/// The benchmark's end-to-end metrics, and whether higher reads better.
const METRICS: [(&str, bool); 4] = [
    ("ops_per_s", true),
    ("op_p50_us", false),
    ("peak_rss_mb", false),
    ("setup_s", false),
];

/// The value of end-to-end metric `name` in a benchmark result line
/// (`…"name":{"value":V,…`).
fn metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// One benchmark run of `bin`: the result line's metrics, in
/// `METRICS` order.
fn run_once(bin: &str, flags: &[&str]) -> Result<[f64; 4], String> {
    let out = Command::new(bin)
        .args(flags)
        .output()
        .map_err(|e| format!("{bin}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !out.status.success() || !line.contains("\"correct\":true") {
        return Err(format!("{bin} ({}): {line}", out.status));
    }
    let mut values = [0.0; 4];
    for (value, (name, _)) in values.iter_mut().zip(METRICS) {
        *value = metric(line, name).ok_or_else(|| format!("{bin}: no {name} in {line}"))?;
    }
    Ok(values)
}

/// Runs `pairs` alternated pairs of `a` and `b` with the benchmark flags
/// `flags` and returns each end-to-end metric's readings (`ops_per_s`,
/// `op_p50_us`, `peak_rss_mb`, `setup_s`, in that order).
/// `report(pair, b_first, a_values, b_values)` sees every pair as it
/// completes.
fn measure(
    a: &str,
    b: &str,
    flags: &[&str],
    pairs: usize,
    mut report: impl FnMut(usize, bool, &[f64; 4], &[f64; 4]),
) -> Result<Vec<Readings>, String> {
    let mut readings = vec![Readings::default(); METRICS.len()];
    for pair in 0..pairs {
        let b_first = pair % 2 == 1;
        let (first, second) = if b_first { (b, a) } else { (a, b) };
        let first = run_once(first, flags)?;
        let second = run_once(second, flags)?;
        let (a_values, b_values) = if b_first {
            (second, first)
        } else {
            (first, second)
        };
        report(pair, b_first, &a_values, &b_values);
        for (r, (a, b)) in readings.iter_mut().zip(a_values.into_iter().zip(b_values)) {
            r.a.push(a);
            r.b.push(b);
        }
    }
    Ok(readings)
}

/// `v` to four significant digits.
fn num(v: f64) -> String {
    let digits = if v == 0.0 {
        0
    } else {
        v.abs().log10().floor() as i32
    };
    format!("{v:.*}", (3 - digits).max(0) as usize)
}

/// `median [q1, q3]`.
fn spread([q1, median, q3]: [f64; 3]) -> String {
    format!("{} [{}, {}]", num(median), num(q1), num(q3))
}

/// Entry point of `relax-bench compare`.
pub fn main(args: &Args) -> Result<(), String> {
    let required = |flag: &str| {
        args.value(flag)
            .ok_or_else(|| format!("{flag} is required"))
    };
    let (a, b, workload) = (required("--a")?, required("--b")?, required("--workload")?);
    let pairs = args.value("--pairs").unwrap_or("10");
    let pairs = pairs
        .parse::<usize>()
        .ok()
        .filter(|n| (1..=100).contains(n))
        .ok_or_else(|| format!("--pairs {pairs}: not a count from 1 to 100"))?;
    let seconds = args.value("--seconds").unwrap_or("3");
    let seed = args.value("--seed").unwrap_or("1");
    let flags = [
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        seconds,
        "--trace",
        "0",
    ];
    println!("compare {workload}, seed {seed}, {pairs} pairs of {seconds}-s runs");
    println!("  A = {a}\n  B = {b}");
    let readings = measure(a, b, &flags, pairs, |pair, b_first, a_values, b_values| {
        println!(
            "pair {pair:>2} ({}): ops_per_s A {} B {}",
            if b_first { "B A" } else { "A B" },
            num(a_values[0]),
            num(b_values[0])
        );
    })?;
    let mut t = Table::new([
        "metric",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "B/A median",
        "B wins",
        "sign-test p",
    ]);
    for ((name, higher_is_better), r) in METRICS.iter().zip(&readings) {
        let v = r.verdict(*higher_is_better);
        t.row([
            name.to_string(),
            spread(v.a),
            spread(v.b),
            format!("{:.4}", v.ratio[1]),
            format!("{}/{pairs} ({} tied)", v.wins, v.ties),
            format!("{:.4}", v.p),
        ]);
    }
    print!("{t}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_are_read_from_a_result_line() {
        let line = r#"{"correct":true,"attempted":8,"failed":0,"metrics":{"ops_per_s":{"value":236.5,"unit":"1/s"},"setup_s":{"value":8.4e-3,"unit":"s"}}}"#;
        assert_eq!(metric(line, "ops_per_s"), Some(236.5));
        assert_eq!(metric(line, "setup_s"), Some(0.0084));
        assert_eq!(metric(line, "op_p50_us"), None);
    }

    /// Two stand-in benchmarks that log their turns: the pairs alternate
    /// A B, B A, and each reading lands on its own side.
    #[cfg(unix)]
    #[test]
    fn pairs_alternate_and_keep_their_sides() {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("relax_compare_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = dir.join("turns");
        let script = |name: &str, ops: u32, correct: bool| {
            let path = dir.join(name);
            let line = format!(
                r#"{{"correct":{correct},"failed":0,"metrics":{{"ops_per_s":{{"value":{ops}}},"op_p50_us":{{"value":4000}},"peak_rss_mb":{{"value":3.8}},"setup_s":{{"value":0.008}}}}}}"#
            );
            let body = format!(
                "#!/bin/sh\necho \"{name} $*\" >> '{}'\necho '{{\"env\":{{}}}}'\necho '{line}'\n",
                log.display()
            );
            std::fs::write(&path, body).unwrap();
            std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
            path.display().to_string()
        };
        let (a, b) = (script("a", 100, true), script("b", 120, true));
        let mut seen = Vec::new();
        let readings = measure(&a, &b, &["--workload", "w"], 3, |pair, b_first, _, _| {
            seen.push((pair, b_first))
        })
        .unwrap();
        assert_eq!(seen, [(0, false), (1, true), (2, false)]);
        let turns = std::fs::read_to_string(&log).unwrap();
        let order: Vec<&str> = turns.lines().map(|l| &l[..1]).collect();
        assert_eq!(order, ["a", "b", "b", "a", "a", "b"]);
        assert!(turns.lines().all(|l| l.ends_with(" --workload w")));
        assert_eq!(readings[0].a, [100.0; 3]);
        assert_eq!(readings[0].b, [120.0; 3]);
        assert_eq!(readings[0].verdict(true).wins, 3);
        assert_eq!(readings[3].verdict(false).ties, 3);

        let wrong = script("wrong", 120, false);
        let err = measure(&a, &wrong, &[], 1, |_, _, _, _| {}).unwrap_err();
        assert!(err.starts_with(&wrong), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
