//! Host fingerprint and process memory.

use crate::workload::Workload;

/// One JSON object naming the host and build a result was taken on, and
/// the share of the host's CPU time the hypervisor stole during the timed
/// region (`null` where `/proc/stat` has no steal column). A run taken in a
/// steal episode reads slow without the program being slower.
pub fn fingerprint(w: Workload, steal_share: Option<f64>) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steal = steal_share.map_or("null".to_string(), |s| format!("{s:.4}"));
    format!(
        "{{\"nproc\": {nproc}, \"simd\": \"{}\", \"lanes\": {}, \"workload\": \"{}\", \
         \"commit\": \"{}\", \"rustc\": \"{}\", \"steal_share\": {steal}}}",
        pipefisher_tensor::kernel::simd_name(),
        w.lanes(),
        w.name(),
        commit(),
        env!("PERFBENCH_RUSTC"),
    )
}

/// Host-wide CPU time from the `cpu` line of `/proc/stat`: (steal, total),
/// in clock ticks.
pub fn cpu_times() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user and nice.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Stolen share of the CPU time between two `cpu_times` readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
}

/// The checked-out commit, read from `.git` in the working directory;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(".git/HEAD");
    let hash = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        }),
        None => head,
    };
    hash.filter(|h| h.len() == 40 && h.bytes().all(|b| b.is_ascii_hexdigit()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}
