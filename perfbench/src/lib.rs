//! Benchmark harness for the edm paper flows and the `edm-serve` scoring
//! service. The binary (`src/main.rs`) runs one workload per process;
//! this library holds the pieces it is built from, so the self-tests
//! under `tests/` can exercise them directly.
//!
//! See `METRICS.md` beside this crate for the workloads, every metric,
//! and which end-to-end number each per-layer metric should move.

pub mod client;
pub mod flows;
pub mod serve;
pub mod stats;
pub mod trace;

use std::time::Instant;

/// FNV-1a over 64-bit words: the fingerprint a flow result is reduced
/// to, so two runs can be compared bit for bit (floats enter through
/// `f64::to_bits`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes a float in by its bit pattern.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Mixes a length-prefixed run of words in.
    pub fn words(&mut self, ws: impl ExactSizeIterator<Item = u64>) {
        self.word(ws.len() as u64);
        for w in ws {
            self.word(w);
        }
    }

    /// The fingerprint as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Seconds elapsed since `t0`.
pub fn secs_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Where the benchmark writes span files and scratch model
/// directories, relative to the working directory.
pub const OUT_DIR: &str = ".perfbench";

/// The run's provenance: enough to tell two hosts or two builds apart
/// before comparing their numbers.
pub fn provenance(trace_level: &str) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let rev = command_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "none (not a git checkout)".into());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    let threads = std::env::var("EDM_NUM_THREADS").unwrap_or_else(|_| "unset".into());
    vec![
        ("nproc", nproc.to_string()),
        ("rustc", rustc),
        ("git_rev", rev),
        ("build_profile", profile.to_string()),
        ("EDM_NUM_THREADS", threads),
        ("trace_level", trace_level.to_string()),
    ]
}

/// First line of a command's standard output, when it runs and
/// succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string()).filter(|l| !l.is_empty())
}
