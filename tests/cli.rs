//! The `lmpr` binary's input contract: out-of-range command-line input
//! is a typed error on stderr, the usage text and exit code 2 — never a
//! panic.

use std::process::Command;

fn assert_rejected(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_lmpr"))
        .args(args)
        .output()
        .expect("the lmpr binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.starts_with("lmpr: "), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn out_of_range_traffic_is_a_typed_error() {
    for traffic in [
        "alltoone:99",
        "hotspot:99:0.5",
        "hotspot:3:1.5",
        "hotspot:3:NaN",
    ] {
        assert_rejected(&["loads", "xgft:4,4;1,4", "dmodk", traffic]);
    }
    for traffic in ["uniform", "hotspot:0:0.5"] {
        assert_rejected(&["loads", "xgft:1;1", "dmodk", traffic]);
    }
}

#[test]
fn unrealizable_table_budget_is_a_typed_error() {
    for k in ["0", "129"] {
        assert_rejected(&["tables", "mport:8,2", k]);
    }
}

#[test]
fn in_range_input_still_runs() {
    let out = Command::new(env!("CARGO_BIN_EXE_lmpr"))
        .args(["loads", "xgft:4,4;1,4", "dmodk", "hotspot:15:1"])
        .output()
        .expect("the lmpr binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
