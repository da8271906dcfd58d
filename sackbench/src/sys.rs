//! Facts about the benchmark process and the machine it runs on.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use crate::stats::Samples;

/// Median cost of one `Instant::now()` pair, in nanoseconds: the floor
/// under every sub-microsecond timing this benchmark reports.
pub fn timer_overhead_ns() -> f64 {
    let mut s = Samples::new();
    for _ in 0..20_001 {
        let a = Instant::now();
        let b = black_box(Instant::now());
        s.push(b.duration_since(a).as_nanos() as u64);
    }
    s.quantile(0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Identifies the code under test: the git commit when the checkout has
/// one, else `none`.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h,
        Err(_) => return "none".to_string(),
    };
    match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| "none".to_string(), |c| c.trim().to_string()),
        None => head.trim().to_string(),
    }
}

/// FNV-1a digest over every source file of the program and the benchmark
/// (`crates/**`, `sackbench/src/**`), so runs of the same code can be
/// matched even where the checkout carries no git metadata.
pub fn source_digest() -> String {
    let mut files = Vec::new();
    for root in ["crates", "sackbench/src"] {
        collect_files(Path::new(root), &mut files);
    }
    if files.is_empty() {
        return "unknown".to_string();
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
