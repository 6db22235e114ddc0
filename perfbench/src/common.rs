//! What every workload is given and returns, and the helpers they share.

use crate::trace::Span;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The paper's device→edge uplink cap (Mbps).
pub const UPLINK_MBPS: f64 = 40.0;

/// How to run one workload.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Workload seed: every input of the run derives from it.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: f64,
    /// Set-up repeats; `setup_s` is their median.
    pub setups: usize,
    /// Record spans and fill the per-layer figures.
    pub traced: bool,
    /// Keep measuring past the budget until every reported percentile
    /// has enough samples (off for short probes).
    pub full: bool,
}

/// How one workload run went.
#[derive(Default)]
pub struct Outcome {
    /// Median untimed set-up time over the run's set-up repeats.
    pub setup_s: f64,
    /// The workload's generic end-to-end figures (`p50_ms`, `p90_ms`,
    /// `rate_per_s`); `None` when too few samples were taken to report one.
    pub p50_ms: Option<f64>,
    pub p90_ms: Option<f64>,
    pub rate_per_s: f64,
    /// Unit operations timed (searches, one-frame calls, open-loop
    /// sessions): a traced run charges its tracing cost per operation.
    pub ops: usize,
    /// The same run in the terms of its own workload (e.g.
    /// `search_wall_s`): `(name, value, unit, samples)`.
    pub named: Vec<(&'static str, f64, &'static str, usize)>,
    /// Per-layer figures by metric name (filled on traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed (deploys, frames, sessions).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub problems: Vec<String>,
    /// Spans recorded on a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

/// Scratch directory for files a run writes (cache logs, span dumps):
/// next to the benchmark executable, inside the build directory.
pub fn work_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark executable");
    let dir = exe
        .parent()
        .and_then(|p| p.parent())
        .map_or_else(|| PathBuf::from("."), |p| p.to_path_buf())
        .join("perfbench-work");
    std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
    dir
}

/// Mixes a workload seed with a per-purpose salt so each input stream is
/// independent but fixed by the seed.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 29)
}
