//! The experiment binaries' input contract: a positional argument a
//! binary does not use, a flag its mode ignores, or a path budget that
//! is not a positive integer, is an error on stderr prefixed with the binary's name and
//! exit code 2 — never a panic, never silently ignored. Every input here
//! is refused before any work starts, so the test is fast. A `--json`
//! path that cannot be written is the same kind of error, reported once
//! the results are ready.

use std::process::Command;

fn assert_rejected(bin: &str, exe: &str, args: &[&str]) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.starts_with(&format!("{bin}: ")),
        "{bin} {args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} started work");
}

#[test]
fn levels_rejects_a_budget_that_is_not_a_positive_integer() {
    let exe = env!("CARGO_BIN_EXE_levels");
    for k in ["x", "0", "-1", "2.5"] {
        assert_rejected("levels", exe, &[k, "--quick"]);
    }
    assert_rejected("levels", exe, &["4", "bogus", "--quick"]);
}

#[test]
fn stray_positional_arguments_are_rejected() {
    for (bin, exe, args) in [
        (
            "chaos",
            env!("CARGO_BIN_EXE_chaos"),
            &["bogus", "--quick"][..],
        ),
        (
            "faults",
            env!("CARGO_BIN_EXE_faults"),
            &["bogus", "--quick"],
        ),
        ("fig5", env!("CARGO_BIN_EXE_fig5"), &["bogus", "--quick"]),
        ("theorems", env!("CARGO_BIN_EXE_theorems"), &["bogus"]),
        ("fig4", env!("CARGO_BIN_EXE_fig4"), &["bogus"]),
        ("fig4", env!("CARGO_BIN_EXE_fig4"), &["a", "e", "--quick"]),
        ("table1", env!("CARGO_BIN_EXE_table1"), &["bogus"]),
    ] {
        assert_rejected(bin, exe, args);
    }
}

#[test]
fn verify_modes_refuse_what_they_would_ignore() {
    let exe = env!("CARGO_BIN_EXE_verify");
    for args in [
        &["--ci", "bogus"][..],
        &["fig3", "dmodk", "--ci"],
        &["--ci", "--faults", "0.05:3"],
        &["--demo-cycle", "fig3"],
        &["--demo-cycle", "--faults", "0.05:3"],
        &["--demo-cycle", "--json", "out.json"],
        &["--ci", "--demo-cycle"],
    ] {
        assert_rejected("verify", exe, args);
    }
}

#[test]
fn an_unwritable_json_path_is_an_error_not_a_panic() {
    let out = Command::new(env!("CARGO_BIN_EXE_theorems"))
        .args(["--json", "/nonexistent-dir/x.json"])
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("theorems: cannot write /nonexistent-dir/x.json: "),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
