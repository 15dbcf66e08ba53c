//! E11 — degraded-mode routing CLI. The experiment body lives in
//! [`lmpr_bench::faults`] so the golden-equivalence test can run it
//! in-process; this binary only parses flags and serializes the
//! document.
//!
//! Usage: `faults [--quick] [--json PATH]`
//! (without `--json` the document is printed as JSON after the table).

#![forbid(unsafe_code)]

use lmpr_bench::{document_to_json, faults, usage_error, write_json, CommonArgs};

fn main() {
    let args = CommonArgs::from_env(&[]).unwrap_or_else(|e| usage_error("faults", &e));
    let out = faults::run(args.quick);
    match args.json {
        Some(path) => {
            write_json(
                "faults",
                &path,
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
    if !out.failures.is_empty() {
        eprintln!("faults: {} failed replays", out.failures.len());
        std::process::exit(1);
    }
}
