//! Process and per-thread CPU, peak memory and the host record, read from
//! `/proc` with the standard library only.

use std::collections::BTreeMap;
use std::collections::HashMap;

/// Kernel clock ticks per second in `/proc/*/stat` (`USER_HZ`, which Linux
/// fixes at 100 for every user-visible interface).
const TICKS_PER_SEC: f64 = 100.0;

/// Thread-name prefixes the runtime gives its threads, grouped the way the
/// per-layer CPU metrics report them. `/proc` truncates names to 15 bytes.
pub const THREAD_GROUPS: [&str; 8] = [
    "driver",
    "ledger",
    "net-shard",
    "net-verify",
    "net-ingest",
    "net-dial",
    "introspect",
    "batch-assembler",
];

/// utime + stime of a `/proc/.../stat` line, in ticks, and the thread name.
fn parse_stat(line: &str) -> Option<(String, u64)> {
    // The name is parenthesised and may itself contain spaces or ')'.
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let name = line[open + 1..close].to_string();
    let fields: Vec<&str> = line[close + 1..].split_whitespace().collect();
    // Fields after the name start at field 3 (state); utime and stime are
    // fields 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((name, utime + stime))
}

/// Process CPU time (all threads, live and exited) in seconds.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map(|(_, ticks)| ticks as f64 / TICKS_PER_SEC)
        .unwrap_or(0.0)
}

/// Resets the peak resident set size to the current one (Linux 4.0+), so
/// that [`peak_rss_mb`] covers only what follows. Best effort: on failure
/// the peak simply keeps covering the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The group a thread name is charged to. The benchmark's own main thread
/// drives the load generator, so it is `gen`.
fn group_of(name: &str, main_name: &str) -> &'static str {
    if let Some(g) = THREAD_GROUPS.iter().find(|g| name.starts_with(**g)) {
        return g;
    }
    if name == main_name {
        "gen"
    } else {
        "other"
    }
}

/// Per-thread CPU over a window. Threads can exit inside the window (a
/// killed node's driver, a stopped cluster's pool), so the sampler keeps
/// the last value it saw for every thread id; call [`CpuSampler::sample`]
/// often and right before anything that ends threads.
#[derive(Debug)]
pub struct CpuSampler {
    main_name: String,
    /// tid -> (group, ticks at first sight, ticks at last sight).
    threads: HashMap<u64, (&'static str, u64, u64)>,
    process_start_s: f64,
    process_end_s: f64,
}

impl CpuSampler {
    /// Starts the window: every thread alive now is charged only for CPU
    /// it uses from here on; threads born later are charged from zero.
    pub fn start() -> CpuSampler {
        let main_name = std::fs::read_to_string("/proc/self/comm")
            .map(|s| s.trim().to_string())
            .unwrap_or_default();
        let mut s = CpuSampler {
            main_name,
            threads: HashMap::new(),
            process_start_s: process_cpu_s(),
            process_end_s: 0.0,
        };
        for (tid, name, ticks) in read_threads() {
            let g = group_of(&name, &s.main_name);
            s.threads.insert(tid, (g, ticks, ticks));
        }
        s
    }

    /// Records every live thread's CPU so far.
    pub fn sample(&mut self) {
        for (tid, name, ticks) in read_threads() {
            let g = group_of(&name, &self.main_name);
            let e = self.threads.entry(tid).or_insert((g, 0, 0));
            e.2 = ticks;
        }
    }

    /// Ends the window (takes a last sample).
    pub fn finish(&mut self) {
        self.sample();
        self.process_end_s = process_cpu_s();
    }

    /// Process CPU seconds over the window.
    pub fn process_s(&self) -> f64 {
        self.process_end_s - self.process_start_s
    }

    /// CPU seconds per thread group over the window.
    pub fn groups_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for g in THREAD_GROUPS.iter().chain(["gen", "other"].iter()) {
            out.insert(g, 0.0);
        }
        for (g, first, last) in self.threads.values() {
            *out.entry(g).or_default() += last.saturating_sub(*first) as f64 / TICKS_PER_SEC;
        }
        out
    }
}

fn read_threads() -> Vec<(u64, String, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| {
            let tid: u64 = e.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(e.path().join("stat")).ok()?;
            let (name, ticks) = parse_stat(&stat)?;
            Some((tid, name, ticks))
        })
        .collect()
}

/// Host cores (as the process may use them) and the CPU model name.
pub fn host() -> (usize, String) {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    (cores, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_lines_with_odd_names() {
        let line = "1234 (net shard) 0) S 1 1 1 0 -1 4194560 100 0 0 0 37 5 0 0 20 0 1 0";
        assert_eq!(parse_stat(line), Some(("net shard) 0".to_string(), 42)));
    }

    #[test]
    fn groups_by_prefix() {
        assert_eq!(group_of("driver-3", "runbench"), "driver");
        assert_eq!(group_of("batch-assembler", "runbench"), "batch-assembler");
        assert_eq!(group_of("net-shard-0", "runbench"), "net-shard");
        assert_eq!(group_of("runbench", "runbench"), "gen");
        assert_eq!(group_of("mystery", "runbench"), "other");
    }

    #[test]
    fn own_process_is_readable() {
        let s = CpuSampler::start();
        assert!(s.threads.values().any(|(g, _, _)| *g == "gen"));
        assert!(peak_rss_mb() > 0.0);
    }
}
