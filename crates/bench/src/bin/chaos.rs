//! E13 — chaos harness CLI. The experiment bodies live in
//! [`lmpr_bench::chaos`] so the golden-equivalence test can run them
//! in-process; this binary only parses flags, serializes the document
//! and turns violations into the exit code.
//!
//! Usage: `chaos [--quick] [--json PATH]`
//!
//! The sweep is deterministic and short (about 30 s in full, 2 s at
//! `--quick`), so a killed run is simply rerun: the rerun writes the
//! same document byte for byte.

#![forbid(unsafe_code)]

use lmpr_bench::{chaos, document_to_json, usage_error, write_json, CommonArgs};

fn main() {
    let args = CommonArgs::from_env(&[]).unwrap_or_else(|e| usage_error("chaos", &e));
    let out = chaos::run(args.quick);
    match &args.json {
        Some(path) => {
            write_json(
                "chaos",
                path,
                &document_to_json(&out.records, &out.failures),
            );
            println!(
                "wrote {} records and {} failures to {path}",
                out.records.len(),
                out.failures.len()
            );
        }
        None => println!("{}", document_to_json(&out.records, &out.failures)),
    }
    if out.violations > 0 || !out.failures.is_empty() {
        eprintln!(
            "chaos: {} invariant violations, {} failed runs",
            out.violations,
            out.failures.len()
        );
        std::process::exit(1);
    }
}
