//! `relax-bench <name> [flags]`: the one launcher for every experiment
//! in [`relax_bench::experiments::EXPERIMENTS`]. `relax-bench list`
//! (or no argument) prints the table.
//!
//! Exits 2 on an unknown name, an unknown flag or a missing value —
//! after printing that experiment's usage line — and 1 when the
//! experiment itself fails (an unwritable output, a false verdict, a
//! gate over its bound).

use std::process::ExitCode;

use relax_bench::args::{usage, Args};
use relax_bench::experiments::{find, list};

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next().filter(|name| name != "list") else {
        print!("{}", list());
        return ExitCode::SUCCESS;
    };
    let Some((name, _, flags, run)) = find(&name) else {
        eprintln!("relax-bench: no experiment named {name:?}\n\n{}", list());
        return ExitCode::from(2);
    };
    let args = match Args::parse(flags, argv) {
        Ok(args) => args,
        Err(e) => {
            let command = format!("relax-bench {name}");
            eprintln!("{command}: {e}\nusage: {}", usage(&command, flags));
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("relax-bench {name}: {e}");
            ExitCode::FAILURE
        }
    }
}
