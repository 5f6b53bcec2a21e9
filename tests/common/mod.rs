//! Helpers shared by the integration tests that write files.

use std::ops::Deref;
use std::path::{Path, PathBuf};

/// A fresh, empty directory `watter_<tag>_<pid>` under the system temp
/// directory, removed with everything in it when dropped — also when the
/// test panics. The process id keeps concurrent test runs on one host apart;
/// `tag` keeps the tests of one run apart.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("watter_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }
}

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
