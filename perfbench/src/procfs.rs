//! Process counters read from outside the program, through `/proc`.

use std::collections::BTreeMap;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed at
/// 100 by the Linux ABI on every architecture this runs on).
const USER_HZ: f64 = 100.0;

fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status_field(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// User plus system CPU time of every thread of this process, living or
/// exited, in seconds (`utime` + `stime` of `/proc/self/stat`).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the whole line; `rest`
    // starts at field 3.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (tick(11) + tick(12)) as f64 / USER_HZ
}

/// Bytes this process passed to `write`-family calls (`wchar`).
pub fn write_chars() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    status_field(&io, "wchar").unwrap_or(0)
}

fn switches_in(status: &str) -> u64 {
    status_field(status, "voluntary_ctxt_switches").unwrap_or(0)
        + status_field(status, "nonvoluntary_ctxt_switches").unwrap_or(0)
}

/// Context switches of the calling thread so far.
pub fn thread_switches() -> u64 {
    switches_in(&std::fs::read_to_string("/proc/thread-self/status").unwrap_or_default())
}

/// Context switches of every living thread, by thread id.
pub fn task_switches() -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Ok(status) = std::fs::read_to_string(entry.path().join("status")) {
            out.insert(tid, switches_in(&status));
        }
    }
    out
}

/// CPU time and context switches over one measured phase. Threads that
/// exit inside the phase are not visible in `/proc/self/task` at its end,
/// so they report their own count ([`thread_switches`]) through
/// [`PhaseCounters::finish`].
#[derive(Debug)]
pub struct PhaseCounters {
    cpu_s: f64,
    tasks: BTreeMap<u64, u64>,
}

impl PhaseCounters {
    /// Read the counters at the start of a phase.
    pub fn start() -> Self {
        PhaseCounters {
            cpu_s: cpu_seconds(),
            tasks: task_switches(),
        }
    }

    /// CPU seconds and context switches since [`PhaseCounters::start`].
    /// `exited_thread_switches` is the sum the phase's own, already
    /// exited, threads reported.
    pub fn finish(&self, exited_thread_switches: u64) -> (f64, u64) {
        let living: u64 = task_switches()
            .iter()
            .map(|(tid, n)| n - self.tasks.get(tid).copied().unwrap_or(0).min(*n))
            .sum();
        (cpu_seconds() - self.cpu_s, living + exited_thread_switches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t    2048 kB\nvoluntary_ctxt_switches:\t5\nnonvoluntary_ctxt_switches:\t2\n";
        assert_eq!(status_field(text, "VmHWM"), Some(2048));
        assert_eq!(switches_in(text), 7);
        assert_eq!(status_field(text, "Missing"), None);
    }

    #[test]
    fn counters_read_this_process() {
        assert!(peak_rss_mib() > 0.0);
        let phase = PhaseCounters::start();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let (cpu, _) = phase.finish(0);
        assert!(cpu >= 0.0);
    }
}
