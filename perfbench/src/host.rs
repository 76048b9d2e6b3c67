//! Host fingerprint for the run record, and the process's peak memory.

use std::path::Path;

use lpat_core::trace::JsonWriter;

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
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

/// All-CPU (steal, total) jiffies from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of all CPU time between two [`cpu_ticks`] readings that the
/// hypervisor gave to other guests.
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        return 0.0;
    }
    after.0.saturating_sub(before.0) as f64 / total as f64
}

/// Filesystem type of the mount holding `dir` (it sets the cost of the
/// store's fsyncs).
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, ty) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(at).then(|| (at.len(), ty.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, ty)| ty)
}

/// Write the host fingerprint fields into the enclosing object.
pub fn write_fingerprint(w: &mut JsonWriter, store_dir: &Path) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    w.field_u64("nproc", nproc as u64);
    w.field_str("rustc", env!("PERFBENCH_RUSTC"));
    w.field_str("kernel", kernel.trim());
    w.field_str("store_fs", &fs_type(store_dir));
    w.field_u64(
        "pass_manager_jobs",
        lpat_transform::pm::default_jobs() as u64,
    );
}
