//! Golden-equivalence tests: run the chaos and faults harnesses
//! in-process and byte-compare their serialized documents against the
//! committed `results/chaos_quick.json`, `results/chaos.json` and
//! `results/faults_quick.json`.
//!
//! These are the refactor tripwires for the routing/selection stack:
//! the documents embed every seeded simulation outcome (throughput,
//! latency percentiles, reconvergence lag, retransmit ratios, fault
//! replays), so any behavioral drift in the simulator, the
//! `SelectionEngine`, the fault schedules or the RNG consumption order
//! shows up as a byte diff. Regenerate deliberately with
//! `cargo run --release -p lmpr-bench --bin chaos -- --quick --json results/chaos_quick.json`
//! (resp. without `--quick` into `results/chaos.json`, or `faults`) and
//! commit the new goldens alongside the change that explains them.
//!
//! Marked `#[ignore]` because each takes tens of seconds unoptimized;
//! CI runs the quick ones in release via
//! `cargo test -q --release -p lmpr-bench --test golden -- --ignored quick`
//! and the full chaos sweep as a step of its own.

use lmpr_bench::{chaos, document_to_json, faults};

#[test]
#[ignore = "slow; CI runs it in release"]
fn chaos_quick_document_is_byte_identical_to_golden() {
    let out = chaos::run(true);
    assert_eq!(out.violations, 0, "chaos quick run tripped invariants");
    assert!(
        out.failures.is_empty(),
        "chaos quick run had failed runs: {:?}",
        out.failures
    );
    let golden = include_str!("../../../results/chaos_quick.json");
    let got = document_to_json(&out.records, &out.failures);
    assert_eq!(
        got, golden,
        "chaos --quick document drifted from results/chaos_quick.json"
    );
}

#[test]
#[ignore = "slow; CI runs it in release"]
fn chaos_full_document_is_byte_identical_to_golden() {
    // The full sweep has no checkpoint: a killed run is rerun, and this
    // pins what the rerun must write, byte for byte.
    let out = chaos::run(false);
    assert_eq!(out.violations, 0, "chaos full run tripped invariants");
    assert!(
        out.failures.is_empty(),
        "chaos full run had failed runs: {:?}",
        out.failures
    );
    let golden = include_str!("../../../results/chaos.json");
    let got = document_to_json(&out.records, &out.failures);
    assert_eq!(
        got, golden,
        "chaos document drifted from results/chaos.json"
    );
}

#[test]
#[ignore = "slow; CI runs it in release"]
fn faults_quick_document_is_byte_identical_to_golden() {
    let out = faults::run(true);
    assert!(
        out.failures.is_empty(),
        "faults quick run had failed runs: {:?}",
        out.failures
    );
    let golden = include_str!("../../../results/faults_quick.json");
    let got = document_to_json(&out.records, &out.failures);
    assert_eq!(
        got, golden,
        "faults --quick document drifted from results/faults_quick.json"
    );
}
