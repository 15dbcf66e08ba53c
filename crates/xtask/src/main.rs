//! Workspace automation tasks, invoked as `cargo xtask <task>`.
//!
//! * `analyze [--ci|--update]` — the determinism / cast-safety /
//!   concurrency-discipline / panic-freedom analyzer with
//!   `lmpr_verify`-style JSON certificates ([`analyze`]): six lexical
//!   passes over the masked lexer in [`lexer`], one allowlist, one
//!   ratchet — exact per-file pins that fail on increases *and*
//!   decreases, with deny-listed directories that can never be pinned.

#![forbid(unsafe_code)]

mod analyze;
mod lexer;
mod report;
mod workspace;

use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask <task>\n\
    \x20 analyze [--ci|--update]  determinism/cast/concurrency/panic analyzer";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("analyze") => match args.next().as_deref() {
            Some("--update") => analyze::analyze(true),
            // `--ci` is the explicit gate spelling; bare `analyze`
            // behaves identically.
            Some("--ci") | None => analyze::analyze(false),
            Some(other) => {
                eprintln!("unknown analyze flag: {other}\n{USAGE}");
                ExitCode::from(2)
            }
        },
        Some(other) => {
            eprintln!("unknown task: {other}\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
