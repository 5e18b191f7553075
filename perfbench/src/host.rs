//! Process-level readings from `/proc`: CPU time over all threads and
//! peak resident memory.

use std::fs;

/// CPU time (ns) consumed so far by every live thread of this process,
/// from each task's `schedstat` (nanosecond resolution, unlike the
/// clock-tick counts of `/proc/self/stat`).
pub fn cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .map(|t| schedstat_ns(&t.path().join("schedstat")))
        .sum()
}

/// CPU time (ns) consumed so far by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns(std::path::Path::new("/proc/thread-self/schedstat"))
}

fn schedstat_ns(path: &std::path::Path) -> u64 {
    fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .unwrap_or(0)
}

/// A `kB` field of `/proc/self/status`, such as `RssAnon`, in MB.
pub fn status_mb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size (MB) of this process so far (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
