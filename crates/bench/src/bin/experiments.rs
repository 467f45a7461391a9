//! `experiments` — runs experiments of the DESIGN.md index and prints
//! their reports.
//!
//! ```text
//! experiments [--jobs N] <ID…|all>
//! ```
//!
//! Each ID (`FIG3-SAT`, `EQ1-YIELD`, `SAT-YIELD`, …) runs in the order
//! given; `all` runs the whole index, which is what EXPERIMENTS.md is
//! produced from. Every experiment also writes its CSV series under
//! `experiments/`. `--jobs N` evaluates FIG4-CAS and SAT-YIELD on the
//! supervised worker pool; the output is identical for every job count.
//! An unknown ID or a malformed flag exits 2 and lists the valid IDs.

use ctsdac_bench::{Experiment, EXPERIMENTS};
use std::process::ExitCode;

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<(usize, Vec<Experiment>), String> {
    let mut jobs = 1;
    let mut selected = Vec::new();
    while let Some(arg) = argv.next() {
        if arg == "--jobs" {
            jobs = match argv.next().map(|v| v.parse::<usize>()) {
                Some(Ok(n)) if n >= 1 => n,
                _ => return Err("--jobs needs a positive integer".into()),
            };
        } else if arg == "all" {
            selected.extend(EXPERIMENTS);
        } else if let Some(&experiment) = EXPERIMENTS.iter().find(|(id, _)| *id == arg) {
            selected.push(experiment);
        } else {
            return Err(format!("unknown experiment '{arg}'"));
        }
    }
    if selected.is_empty() {
        return Err("no experiment given".into());
    }
    Ok((jobs, selected))
}

fn main() -> ExitCode {
    let (jobs, selected) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
            eprintln!("error: {msg}");
            eprintln!("usage: experiments [--jobs N] <ID…|all>");
            eprintln!("experiment IDs: {}", ids.join(" "));
            return ExitCode::from(2);
        }
    };
    for (id, run) in selected {
        eprintln!(">> running {id}");
        println!("{}", run(jobs));
    }
    ExitCode::SUCCESS
}
