//! The benchmark's working files: everything it writes lives under
//! `benchmark/out/`, which `benchmark/.gitignore` names.

use std::io;
use std::path::{Path, PathBuf};

/// `benchmark/out/`, next to this package's manifest.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process directory for controller state and sockets, removed
/// when dropped.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn new() -> io::Result<Self> {
        let root = out_dir().join(format!("run-{}", std::process::id()));
        // A Unix socket address holds about a hundred bytes: address the
        // directory relative to the working directory when it is below
        // it, as it is when run from the repository root.
        let root = std::env::current_dir()
            .ok()
            .and_then(|cwd| root.strip_prefix(cwd).ok().map(Path::to_path_buf))
            .unwrap_or(root);
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root })
    }

    /// An empty directory `name` (whatever it held before is removed).
    pub fn fresh_dir(&self, name: &str) -> io::Result<PathBuf> {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// A path for a socket named `name`.
    pub fn socket(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}
