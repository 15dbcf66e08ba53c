//! `ctl_soak` refuses a bad command line — an `--out` it cannot write,
//! or a flag it does not take — before it starts a daemon, rather than
//! after every phase has run.

use std::process::Command;

#[test]
fn an_unwritable_out_path_fails_before_any_phase() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("ctl_soak-no-such-dir")
        .join("x.json");
    let out = out.to_str().expect("utf-8 temp path");
    let run = Command::new(env!("CARGO_BIN_EXE_ctl_soak"))
        .args(["--seed", "1", "--out", out])
        .output()
        .expect("ctl_soak runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains(&format!("ctl_soak: cannot write {out}: ")),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("ctl_soak: phase"), "stderr: {stderr}");
}

/// The quotas, the batch cap and the query-worker count are constants
/// of the soak, not options: the run is a function of `--seed` alone.
#[test]
fn the_retired_tuning_flags_are_refused_before_any_phase() {
    for flag in [
        "--queries",
        "--min-faults",
        "--min-crashes",
        "--max-batches",
        "--min-promotions",
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_ctl_soak"))
            .args(["--seed", "1", flag, "3"])
            .output()
            .expect("ctl_soak runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{flag}: stderr: {stderr}");
        assert!(stderr.contains(flag), "{flag}: stderr: {stderr}");
        assert!(
            !stderr.contains("ctl_soak: phase"),
            "{flag}: stderr: {stderr}"
        );
    }
}
