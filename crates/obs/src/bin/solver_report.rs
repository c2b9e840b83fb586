//! `solver_report` — ingest a bcast-obs journal and print the per-phase
//! time/pivot breakdown, or compare the kernel tables of two journals.
//!
//! ```text
//! solver_report <journal.jsonl>             validate + print the breakdown
//! solver_report <journal.jsonl> --check     validate only (CI schema gate)
//! solver_report --diff <A.jsonl> <B.jsonl>  calls and ms per call of every
//!                                           span name in A and in B, with
//!                                           their ratio, largest change in
//!                                           total time first
//! ```
//!
//! Exits non-zero when a journal fails schema validation.

use bcast_obs::report::CheckSummary;
use std::process::ExitCode;

const USAGE: &str =
    "usage: solver_report <journal.jsonl> [--check] | solver_report --diff <A.jsonl> <B.jsonl>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--diff") {
        let [before, after] = &args[1..] else {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        };
        let (Some((before, _)), Some((after, _))) = (load(before), load(after)) else {
            return ExitCode::FAILURE;
        };
        let (before, after) = (
            bcast_obs::report::build_report(&before),
            bcast_obs::report::build_report(&after),
        );
        print!("{}", bcast_obs::report::render_diff(&before, &after));
        return ExitCode::SUCCESS;
    }
    let mut path: Option<&str> = None;
    let mut check_only = false;
    for arg in &args {
        match arg.as_str() {
            "--check" => check_only = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() => path = Some(other),
            other => {
                eprintln!("solver_report: unexpected argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some((text, summary)) = load(path) else {
        return ExitCode::FAILURE;
    };
    if check_only {
        let types: Vec<String> = summary
            .by_type
            .iter()
            .map(|(t, n)| format!("{t}:{n}"))
            .collect();
        println!(
            "journal OK: {} records ({})",
            summary.records,
            types.join(", ")
        );
        return ExitCode::SUCCESS;
    }
    let report = bcast_obs::report::build_report(&text);
    print!("{}", bcast_obs::report::render(&report));
    ExitCode::SUCCESS
}

/// Reads the journal at `path` and validates its schema, or says on stderr
/// why it cannot.
fn load(path: &str) -> Option<(String, CheckSummary)> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("solver_report: cannot read {path}: {e}");
            return None;
        }
    };
    match bcast_obs::report::check(&text) {
        Ok(summary) => Some((text, summary)),
        Err(e) => {
            eprintln!("solver_report: {path}: schema violation: {e}");
            None
        }
    }
}
