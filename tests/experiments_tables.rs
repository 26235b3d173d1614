//! EXPERIMENTS.md quotes the committed stdout of the deterministic
//! experiments, and this test keeps the quotes honest. A block tagged
//! `<!-- golden: baselines/stdout/<name>.txt -->` on the line before
//! its fence must consist of lines of that golden, whitespace
//! normalized. A table typed by hand, or left behind when an
//! experiment's output moves, fails here.

use std::collections::HashSet;
use std::path::Path;

const TAG: &str = "<!-- golden: ";

/// The tagged blocks of EXPERIMENTS.md the test expects: one per
/// paper-claim block (F*, L3-3, T4, SD, P3-3, A3-4, C-*, EXT-*).
const TAGGED_BLOCKS: usize = 15;

fn normalized(line: &str) -> String {
    line.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// Each line of a tagged block that its golden lacks, as
/// `EXPERIMENTS.md:<line>: ...`, and the number of tagged blocks.
fn mismatches(doc: &str, golden: impl Fn(&str) -> String) -> (Vec<String>, usize) {
    let lines: Vec<&str> = doc.lines().collect();
    let (mut out, mut blocks) = (Vec::new(), 0);
    for (at, line) in lines.iter().enumerate() {
        let Some(name) = line.strip_prefix(TAG).and_then(|t| t.strip_suffix(" -->")) else {
            continue;
        };
        blocks += 1;
        assert!(
            lines.get(at + 1).is_some_and(|l| l.starts_with("```")),
            "EXPERIMENTS.md:{}: a golden tag must sit on the line before a fence",
            at + 1
        );
        let known: HashSet<String> = golden(name).lines().map(normalized).collect();
        for (i, quoted) in lines[at + 2..].iter().enumerate() {
            if quoted.starts_with("```") {
                break;
            }
            if !quoted.trim().is_empty() && !known.contains(&normalized(quoted)) {
                out.push(format!(
                    "EXPERIMENTS.md:{}: not in {name}: {quoted}",
                    at + 3 + i
                ));
            }
        }
    }
    (out, blocks)
}

fn read(path: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_tagged_block_quotes_its_golden() {
    let (missing, blocks) = mismatches(&read("EXPERIMENTS.md"), read);
    assert!(missing.is_empty(), "{}", missing.join("\n"));
    assert_eq!(blocks, TAGGED_BLOCKS, "tagged blocks in EXPERIMENTS.md");
}

/// An edited number in any tagged block is caught: here one digit in
/// the T4 table and one in the P3-3 table.
#[test]
fn an_edited_number_in_a_tagged_block_fails() {
    let doc = read("EXPERIMENTS.md");
    let edited = doc
        .replacen("59236", "59237", 1)
        .replacen("0.000997", "0.000998", 1);
    assert_ne!(edited, doc);
    let (missing, _) = mismatches(&edited, read);
    assert_eq!(missing.len(), 2, "{missing:?}");
    assert!(missing[0].contains("59237") && missing[1].contains("0.000998"));
}
