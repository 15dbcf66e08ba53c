//! Workspace discovery for `analyze`: root location, source
//! enumeration, and the deny-listed directories that can never buy
//! their way into the allowlist.

use std::path::{Path, PathBuf};

/// Directories whose files may never appear in any allowlist: the
/// modules decomposed out of the old `sim.rs` monolith started
/// panic-free and deterministic, and the controller daemon — a
/// long-running service whose whole point is surviving faults and
/// re-publishing byte-identical epochs — was born under the same rule,
/// as was the codec, which parses that daemon's untrusted socket bytes.
/// A finding there is always a gate failure, never a vetting candidate.
pub const DENY_DIRS: &[&str] = &["crates/flitsim/src", "crates/ctld/src", "crates/codec/src"];

/// Whether an allowlist entry for `file` is categorically forbidden.
pub fn denied(file: &str) -> bool {
    DENY_DIRS
        .iter()
        .any(|d| file.starts_with(&format!("{d}/")) || file == *d)
}

/// `CARGO_MANIFEST_DIR` is `crates/xtask`; the workspace root is two up.
pub fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or(manifest)
}

/// Recursively collect `.rs` files under `dir`.
pub fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Workspace-relative display path.
pub fn rel(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deny_list_covers_the_simulator_sources_exactly() {
        assert!(denied("crates/flitsim/src/engine.rs"));
        assert!(denied("crates/flitsim/src/sweep.rs"));
        assert!(denied("crates/ctld/src/controller.rs"));
        assert!(denied("crates/ctld/src/bin/ctld.rs"));
        assert!(denied("crates/codec/src/json.rs"));
        assert!(!denied("crates/flitsim/srcx/other.rs"));
        assert!(!denied("crates/core/src/selection.rs"));
        assert!(!denied("crates/flowsim/src/loads.rs"));
    }

    #[test]
    fn workspace_root_holds_the_manifest() {
        assert!(workspace_root().join("Cargo.toml").is_file());
    }
}
