//! The host stamp every result carries: cores, toolchain, source
//! revision, decode-pool shape and the memcpy reference rate.

use std::path::Path;
use std::process::Command;

use cachegen_codec::pool::bounded_workers;

use crate::common;

/// Bytes of one decoded 30-token `llama7b_sim` stream chunk (K and V,
/// 6 layers × 64 channels, f32): the buffer size of the memcpy reference.
pub const CHUNK_OUTPUT_BYTES: usize = 2 * 6 * 30 * 64 * 4;

/// What a result is measured on.
pub struct Stamp {
    /// Available parallelism.
    pub nproc: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// Git commit, or a digest of the source tree when the checkout is
    /// not a git repository.
    pub revision: String,
    /// Workers `codec::pool` uses for one stream chunk's decode.
    pub pool_workers: usize,
    /// In-process memcpy rate over one decoded chunk's bytes.
    pub memcpy_bytes_per_sec: f64,
}

impl Stamp {
    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"rustc\": \"{}\", \"revision\": \"{}\", \
             \"decode_pool\": {{\"workers\": {}, \"jobs_per_chunk\": {}}}, \
             \"memcpy_gb_per_s\": {:.3}}}",
            self.nproc,
            self.rustc.replace('"', "'"),
            self.revision,
            self.pool_workers,
            JOBS_PER_CHUNK,
            self.memcpy_bytes_per_sec / 1e9
        )
    }
}

/// Entropy chunks in one 30-token stream chunk: K and V × 6 layers × 3
/// anchor groups of 10 tokens.
const JOBS_PER_CHUNK: usize = 2 * 6 * 3;

/// Runs a command to completion and returns its trimmed standard output.
fn output_of(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// FNV-1a digest of every `.rs` and `Cargo.toml` file under `crates/`,
/// in sorted path order.
fn source_digest(root: &Path) -> Option<String> {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".rs") || n == "Cargo.toml")
            {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    if files.is_empty() {
        return None;
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        for b in std::fs::read(f).ok()? {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    Some(format!("src-{h:016x}"))
}

/// Cumulative (steal, total) CPU ticks of all cores from `/proc/stat`,
/// where available: the time a hypervisor ran other guests on this one's
/// virtual CPUs.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time stolen by the hypervisor between two `cpu_ticks`
/// readings; 0 where unavailable.
pub fn steal_frac(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((s0, t0)), Some((s1, t1))) => {
            common::ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
        }
        _ => 0.0,
    }
}

/// Stamps the host. Runs from the repository root.
pub fn stamp() -> Stamp {
    // Only a checkout that is itself a git work tree names a commit; one
    // nested in an unrelated repository must not borrow that one's.
    let revision = Path::new(".git")
        .exists()
        .then(|| output_of("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .or_else(|| source_digest(Path::new(".")))
        .unwrap_or_else(|| "unknown".to_string());
    Stamp {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        rustc: output_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string()),
        revision,
        pool_workers: bounded_workers(JOBS_PER_CHUNK),
        memcpy_bytes_per_sec: common::memcpy_bytes_per_sec(CHUNK_OUTPUT_BYTES),
    }
}
