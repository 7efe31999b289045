//! Readers for the kernel's accounting files: process CPU time, peak
//! resident memory, CPU steal and per-thread runqueue wait. Every
//! reader degrades to `None` where the file is missing or unreadable,
//! so the benchmark still runs (and says so) on kernels without them.

use std::collections::BTreeMap;
use std::fs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Clock ticks per second of the `/proc/*/stat` time fields. Linux
/// fixes `USER_HZ` at 100 for userspace on every mainstream
/// architecture.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, including threads that
/// have already exited (the kernel folds their time into the process
/// totals). Fields 14 and 15 of `/proc/self/stat`.
pub fn process_cpu_secs() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields resume
    // after its closing parenthesis, starting at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset this process's peak resident set size to its current size
/// (`5` written to `/proc/self/clear_refs`, Linux 4.0+), so
/// [`peak_rss_mb`] then reports the peak of what follows. Returns false
/// where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Machine-wide CPU time counters from the `cpu` line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuStat {
    total: u64,
    steal: u64,
}

impl CpuStat {
    /// Read the current counters.
    pub fn read() -> Option<CpuStat> {
        let stat = fs::read_to_string("/proc/stat").ok()?;
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        let vals: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest ...];
        // guest time is already inside user, so it is not added again.
        let total = vals.iter().take(8).sum();
        Some(CpuStat {
            total,
            steal: *vals.get(7)?,
        })
    }

    /// Share of machine CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_frac_since(&self, earlier: &CpuStat) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// Runqueue wait of this process's threads, in nanoseconds, from the
/// second field of `/proc/self/task/<tid>/schedstat`. Campaign worker
/// threads live only for one run, so a background thread samples every
/// task periodically and keeps the last value it saw for each; wait a
/// thread accrues after the last sample before it exits is missed.
pub struct RunqueueSampler {
    /// tid → (run_delay when first seen, last run_delay seen).
    tasks: Mutex<BTreeMap<u64, (u64, u64)>>,
    stop: AtomicBool,
    readable: bool,
}

impl RunqueueSampler {
    /// Sampling period of the background thread.
    pub const PERIOD: Duration = Duration::from_millis(25);

    /// A sampler whose baseline is every task alive now.
    pub fn new() -> RunqueueSampler {
        let readable = fs::read_to_string("/proc/thread-self/schedstat").is_ok();
        let sampler = RunqueueSampler {
            tasks: Mutex::new(BTreeMap::new()),
            stop: AtomicBool::new(false),
            readable,
        };
        sampler.poll();
        sampler
    }

    /// Whether the kernel exposes per-thread schedstat at all.
    pub fn readable(&self) -> bool {
        self.readable
    }

    /// Read every live task once. Tasks first seen after construction
    /// started life inside the measured window, so their baseline is 0.
    pub fn poll(&self) {
        if !self.readable {
            return;
        }
        let Ok(dir) = fs::read_dir("/proc/self/task") else {
            return;
        };
        let mut tasks = self.tasks.lock().expect("sampler map poisoned");
        let first = tasks.is_empty();
        for entry in dir.flatten() {
            let Some(tid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            let Ok(text) = fs::read_to_string(entry.path().join("schedstat")) else {
                continue;
            };
            let Some(delay) = text.split_whitespace().nth(1).and_then(|v| v.parse().ok()) else {
                continue;
            };
            let base = if first { delay } else { 0 };
            tasks.entry(tid).or_insert((base, delay)).1 = delay;
        }
    }

    /// Total runqueue wait observed since construction, nanoseconds.
    pub fn wait_ns(&self) -> u64 {
        self.poll();
        let tasks = self.tasks.lock().expect("sampler map poisoned");
        tasks
            .values()
            .map(|&(base, last)| last.saturating_sub(base))
            .sum()
    }

    /// Poll every [`Self::PERIOD`] until [`Self::stop`] is called. Run
    /// it on a scoped thread next to the measured work.
    pub fn run(&self) {
        while !self.stop.load(Ordering::Relaxed) {
            self.poll();
            std::thread::sleep(Self::PERIOD);
        }
    }

    /// Make [`Self::run`] return.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}
