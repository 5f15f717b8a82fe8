//! CPU time and peak memory read from `/proc`.

use std::time::Duration;

/// Clock ticks per second of `/proc/<pid>/stat` CPU fields (`USER_HZ`,
/// 100 on every Linux ABI this runs on).
const TICKS_PER_SEC: u64 = 100;

/// CPU time (user + system) of this process, all threads, from
/// `/proc/self/stat`.
pub fn self_cpu() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; fields count from after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, 12 and 13
    // after the pid and command name.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    Duration::from_millis(ticks * 1000 / TICKS_PER_SEC)
}

/// Peak resident set (`VmHWM`) of process `pid` in KiB, if it is
/// still running.
pub fn peak_rss_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}
