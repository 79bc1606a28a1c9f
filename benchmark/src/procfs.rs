//! Readings from `/proc` for the process the workload runs in. Every
//! reader returns 0 where the file is missing (non-Linux), so a metric built
//! on it reads 0 instead of failing the run.

fn status_field(status: &str, key: &str) -> f64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key)?.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

fn self_status() -> String {
    std::fs::read_to_string("/proc/self/status").unwrap_or_default()
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn vm_hwm_mib() -> f64 {
    status_field(&self_status(), "VmHWM:") / 1024.0
}

/// Live OS threads of this process (`Threads:`).
pub fn threads() -> f64 {
    status_field(&self_status(), "Threads:")
}

/// Voluntary + involuntary context switches summed over the live threads.
/// Threads that have exited take their counts with them, so take deltas
/// only across a window in which no thread ends.
pub fn ctx_switches() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches:")
                + status_field(&s, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// `(user, system)` CPU seconds from a `stat` file (fields 14 and 15, in
/// clock ticks of 1/100 s on Linux).
fn cpu_of(stat_path: &str) -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string(stat_path) else {
        return (0.0, 0.0);
    };
    // The command name (field 2) may contain spaces; fields resume after ')'.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return (0.0, 0.0);
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
            / 100.0
    };
    (tick(11), tick(12))
}

/// `(user, system)` CPU seconds consumed by the whole process so far.
pub fn process_cpu() -> (f64, f64) {
    cpu_of("/proc/self/stat")
}

/// CPU seconds (user + system) consumed by the calling thread so far.
pub fn thread_cpu() -> f64 {
    let (u, s) = cpu_of("/proc/thread-self/stat");
    u + s
}
