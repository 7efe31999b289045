//! The untraced run: the five end-to-end metrics of one workload, with
//! the run-health record of every repeat.

use crate::stats::{json_str, median, ratio, Metric};
use crate::sys::{self, CpuStat, RunqueueSampler};
use crate::workload::{self, RunOutput, Size, Workload};
use crate::Outcome;
use reorder_core::telemetry::TelemetryMode;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// A repeat is *disturbed* when the hypervisor stole more than this
/// share of machine CPU time during it...
const STEAL_DISTURBED: f64 = 0.02;
/// ...or the process's threads waited on a runqueue for more than this
/// share of their wall time (wall × worker threads; the ordered JSONL
/// path runs a collector thread next to the two workers, so up to a
/// third of that wait is the workload competing with itself)...
const RUNQ_DISTURBED: f64 = 0.40;
/// ...or the speed probe before it ran this much slower than the run's
/// median probe: the machine itself was slower (a busy sibling
/// hyperthread, a lower clock), which steal time does not show. Across
/// runs, the median probe tracks the same drift: on the 2-vCPU reference
/// box it correlated at -0.74 to -0.88 with `hosts_per_sec` over ten
/// seeds.
const SPEED_DISTURBED: f64 = 1.25;

/// Microseconds of a fixed single-thread integer kernel that shares no
/// code with the repository: FNV-1a over a 64 KiB table, 16 passes.
/// Its time tracks how fast the machine runs at that moment.
fn speed_probe_us() -> f64 {
    let table: Vec<u8> = (0..65_536u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
        .collect();
    let t0 = Instant::now();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..16 {
        for &b in black_box(&table) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    black_box(h);
    t0.elapsed().as_secs_f64() * 1e6
}

/// Health of one timed interval. Recorded and reported, never gated.
#[derive(Debug, Clone, Copy)]
struct Health {
    speed_us: f64,
    wall_s: f64,
    steal_frac: f64,
    runq_wait_ms: f64,
    disturbed: bool,
}

impl Health {
    fn measure<T>(sampler: &RunqueueSampler, f: impl FnOnce() -> T) -> (T, Health) {
        let speed_us = speed_probe_us();
        let stat0 = CpuStat::read();
        let wait0 = sampler.wait_ns();
        let t0 = Instant::now();
        let out = f();
        let wall_s = t0.elapsed().as_secs_f64();
        let runq_wait_ms = sampler.wait_ns().saturating_sub(wait0) as f64 * 1e-6;
        let steal_frac = match (stat0, CpuStat::read()) {
            (Some(a), Some(b)) => b.steal_frac_since(&a),
            _ => 0.0,
        };
        let runq_frac = ratio(runq_wait_ms * 1e-3, wall_s * workload::WORKERS as f64);
        let disturbed = steal_frac > STEAL_DISTURBED || runq_frac > RUNQ_DISTURBED;
        let health = Health {
            speed_us,
            wall_s,
            steal_frac,
            runq_wait_ms,
            disturbed,
        };
        (out, health)
    }

    fn json(&self) -> String {
        format!(
            "{{\"speed_us\": {}, \"wall_s\": {}, \"steal_frac\": {}, \"runq_wait_ms\": {}, \
             \"disturbed\": {}}}",
            self.speed_us, self.wall_s, self.steal_frac, self.runq_wait_ms, self.disturbed
        )
    }
}

/// One timed repeat's figures.
struct Repeat {
    hosts: u64,
    hosts_per_sec: f64,
    cpu_s: f64,
    /// Peak RSS during this repeat alone (when the kernel lets the
    /// peak be reset), else the process peak so far.
    peak_rss_mb: f64,
    health: Health,
}

/// Set-up runs per measurement (their median is `setup_s`).
fn setup_runs(w: Workload, tiny: bool) -> usize {
    match (w, tiny) {
        (_, true) => 2,
        (Workload::CampaignChaos, false) => 15,
        (_, false) => 101,
    }
}

/// Run `w` untimed-then-timed for about `seconds` and report the
/// end-to-end metrics.
pub fn run(w: Workload, seed: u64, seconds: u64, tiny: bool, out_dir: &Path) -> Outcome {
    let mut o = Outcome::default();
    let size = Size::of(w, tiny);
    let work = out_dir.join(format!("work-{}", w.name()));
    let sampler = RunqueueSampler::new();
    let mut repeats: Vec<Repeat> = Vec::new();
    let mut setup: Vec<f64> = Vec::new();
    let mut reference: Option<RunOutput> = None;
    let mut errored_runs = 0u64;
    let mut phase = Health {
        speed_us: 0.0,
        wall_s: 0.0,
        steal_frac: 0.0,
        runq_wait_ms: 0.0,
        disturbed: false,
    };

    std::thread::scope(|s| {
        s.spawn(|| sampler.run());
        let ((), whole) = Health::measure(&sampler, || {
            // Fixed costs: the same configuration over one host per
            // worker or shard.
            let setup_size = Size::setup(w, size);
            for _ in 0..setup_runs(w, tiny) {
                if let Some(out) = o.attempt(w, setup_size, seed, TelemetryMode::Off, &work) {
                    setup.push(out.wall_s);
                }
            }
            // Warm-up run: fills the allocator and page cache, and its
            // output is the reference every timed repeat must match.
            reference = o.attempt(w, size, seed, TelemetryMode::Off, &work);
            let Some(reference) = reference.as_ref() else {
                errored_runs += 1;
                return;
            };
            let min_repeats = if tiny { 2 } else { 5 };
            let t0 = Instant::now();
            while repeats.len() < min_repeats || t0.elapsed().as_secs() < seconds {
                sys::reset_peak_rss();
                let cpu0 = sys::process_cpu_secs();
                let (out, health) = Health::measure(&sampler, || {
                    o.attempt(w, size, seed, TelemetryMode::Off, &work)
                });
                let Some(out) = out else {
                    errored_runs += 1;
                    break;
                };
                let cpu_s = match (cpu0, sys::process_cpu_secs()) {
                    (Some(a), Some(b)) => b - a,
                    _ => 0.0,
                };
                if out.digest() != reference.digest() {
                    o.fail(format!(
                        "{}: repeat {} output differs from the reference run",
                        w.name(),
                        repeats.len() + 1
                    ));
                }
                repeats.push(Repeat {
                    hosts: out.hosts,
                    hosts_per_sec: out.hosts as f64 / out.wall_s,
                    cpu_s,
                    peak_rss_mb: sys::peak_rss_mb().unwrap_or(0.0),
                    health,
                });
            }
        });
        phase = whole;
        sampler.stop();
    });

    // CPU time is read in 10 ms clock ticks, too coarse for one repeat,
    // so it is pooled over every repeat.
    let cpu_s: f64 = repeats.iter().map(|r| r.cpu_s).sum();
    let khosts = repeats.iter().map(|r| r.hosts).sum::<u64>() as f64 / 1e3;
    let mut hosts_per_sec: Vec<f64> = repeats.iter().map(|r| r.hosts_per_sec).collect();
    let mut peak_rss: Vec<f64> = repeats.iter().map(|r| r.peak_rss_mb).collect();
    // Every full-size run has the reference's outcomes (the digest check
    // holds them equal), except a run that errored: all of its hosts
    // count as failed.
    let runs_ok = repeats.len() as u64 + u64::from(reference.is_some());
    let (ok_frac, fail_frac) = reference.as_ref().map_or((0.0, 1.0), |r| {
        let hosts = (r.hosts * (runs_ok + errored_runs)) as f64;
        let complete = (r.complete() * runs_ok) as f64;
        (ratio(complete, hosts), ratio(hosts - complete, hosts))
    });
    o.metrics = vec![
        Metric {
            name: "hosts_per_sec",
            value: median(&mut hosts_per_sec),
            unit: "1/s",
        },
        Metric {
            name: "cpu_ms_per_khost",
            value: ratio(cpu_s * 1e3, khosts),
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: median(&mut setup),
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: median(&mut peak_rss),
            unit: "MiB",
        },
        Metric {
            name: "host_ok_frac",
            value: ok_frac,
            unit: "ratio",
        },
    ];

    // Run health: the whole phase plus every repeat, disturbed ones
    // included and flagged.
    let mut speed: Vec<f64> = repeats.iter().map(|r| r.health.speed_us).collect();
    let speed_us = median(&mut speed);
    for r in &mut repeats {
        r.health.disturbed |= r.health.speed_us > SPEED_DISTURBED * speed_us;
    }
    let disturbed = repeats.iter().filter(|r| r.health.disturbed).count();
    // The run as a whole is disturbed when the phase crossed a threshold
    // or at least half its repeats did, which can shift the median.
    let run_disturbed = phase.disturbed || 2 * disturbed >= repeats.len().max(1);
    let rows: Vec<String> = repeats
        .iter()
        .map(|r| {
            format!(
                "{{\"hosts_per_sec\": {}, \"cpu_s\": {}, \"peak_rss_mb\": {}, \"health\": {}}}",
                r.hosts_per_sec,
                r.cpu_s,
                r.peak_rss_mb,
                r.health.json()
            )
        })
        .collect();
    o.health = format!(
        "{{\"run.steal_frac\": {}, \"run.runq_wait_ms\": {}, \"run.speed_probe_us\": {}, \
         \"run.disturbed\": {run_disturbed}, \
         \"runq_readable\": {}, \"repeats\": {}, \"disturbed_repeats\": {disturbed}, \
         \"host_fail_frac\": {fail_frac}, \"thresholds\": {{\"steal_frac\": {STEAL_DISTURBED}, \
         \"runq_wait_frac\": {RUNQ_DISTURBED}, \"speed_vs_median\": {SPEED_DISTURBED}}}}}",
        phase.steal_frac,
        phase.runq_wait_ms,
        speed_us,
        sampler.readable(),
        repeats.len(),
    );
    let setup_list: Vec<String> = setup.iter().map(|v| v.to_string()).collect();
    o.record = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"hosts_per_run\": {}, \"setup_s\": [{}], \
         \"repeats\": [{}]}}",
        json_str(w.name()),
        size.hosts,
        setup_list.join(", "),
        rows.join(", ")
    );
    o
}
