//! The environment a run is measured in: what is refused, what is cleared,
//! and what is stamped on every output.

use crate::json::Json;
use std::path::{Path, PathBuf};

/// Product settings read from the environment; a stray one would change the
/// configuration being measured without showing in the output.
pub const SCRUBBED_ENV: [&str; 7] = [
    "VERDICT_PARALLELISM",
    "VERDICT_SERVER_SHARDS",
    "VERDICT_SERVER_WORKERS",
    "VERDICT_QUEUE_CAP",
    "VERDICT_DATA_DIR",
    "VERDICT_BACKEND",
    "VERDICT_EXAMPLE_SCALE",
];

/// Call first in `main`, before any thread exists: refuses debug builds and
/// clears the product's environment overrides.
pub fn prepare() {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build; build with --release");
        std::process::exit(2);
    }
    for name in SCRUBBED_ENV {
        std::env::remove_var(name);
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in MiB (Linux; 0 when unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Facts about the build and the box; the runner passes what a process
/// cannot see for itself (`rustc` version, git commit) in `VBENCH_*`.
pub fn stamp() -> Json {
    let var = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    Json::obj(vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::str(var("VBENCH_RUSTC"))),
        ("commit", Json::str(var("VBENCH_COMMIT"))),
        ("profile", Json::str("release, lto=thin, debug=false")),
    ])
}

/// A scratch directory under `out`, removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(out: &Path, tag: &str) -> std::io::Result<TempDir> {
        let dir = out.join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
