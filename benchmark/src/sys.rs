//! Process CPU time and peak memory, read from `/proc/self`.

use std::fs;

/// CPU seconds (user plus system) the process's live threads have run
/// so far: worker, reporter, relay and frontend threads alike.
///
/// Summed from `/proc/self/task/*/schedstat`, whose first field is the
/// thread's on-CPU time in nanoseconds. `/proc/self/stat` counts in
/// 10 ms ticks, which is ±4 % of one 250 ms slice of one busy thread. A
/// thread's time leaves the sum when it exits, so differences are taken
/// only over windows in which no thread ends.
pub fn cpu_seconds() -> f64 {
    let tasks = fs::read_dir("/proc/self/task").expect("/proc/self/task is readable");
    let ns: u64 = tasks
        .filter_map(|entry| fs::read_to_string(entry.ok()?.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_ascii_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}

/// CPU seconds the calling thread has run so far. A load thread takes
/// this from the process's total to leave the threads behind it.
pub fn thread_cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    let ns: u64 = stat
        .split_ascii_whitespace()
        .next()
        .and_then(|ns| ns.parse().ok())
        .expect("schedstat starts with on-CPU nanoseconds");
    ns as f64 / 1e9
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = cpu_seconds();
        let begin = std::time::Instant::now();
        let mut x = 0u64;
        while begin.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spent = cpu_seconds() - before;
        assert!(
            (0.01..1.0).contains(&spent),
            "30 ms of spinning read as {spent} s"
        );
        assert!(thread_cpu_seconds() >= 0.01);
        assert!(peak_rss_mb() > 0.5);
    }
}
