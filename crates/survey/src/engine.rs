//! The campaign engine: population → chunked scheduler → per-host
//! pipeline → worker-side aggregation and rendering → in-order sinks.
//!
//! Determinism invariants (asserted by `tests/determinism.rs`):
//!
//! * host `i`'s spec and measurement seed depend only on `(model,
//!   master seed, i)` — never on the worker that ran it;
//! * each worker folds its hosts into its own [`ShardAggregator`], an
//!   exactly mergeable commutative monoid, so the merged summary does
//!   not depend on which worker ran which host;
//! * per-host output (JSONL lines, table rows) is rendered on the
//!   worker into contiguous id chunks that the scheduler hands to the
//!   sink in chunk order;
//! * therefore campaign output is byte-identical across reruns *and*
//!   worker counts.

use crate::aggregate::{CampaignSummary, ShardAggregator};
use crate::metrics::{progress_line, CampaignTelemetry};
use crate::pipeline::{survey_host_traced, HostJob, HostReport, TechniqueChoice};
use crate::population::PopulationModel;
use crate::report::jsonl_line;
use crate::scheduler::{resolve_workers, run_chunked, PoolStats, RunProbe};
use reorder_core::scenario::{ScenarioPool, SimVersion};
use reorder_core::telemetry::{intern_label, TelemetryMode, WorkerTelemetry};
use reorder_core::Budget;
use reorder_netsim::rng as simrng;
use std::io::{self, Write};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Everything a campaign needs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Hosts to survey.
    pub hosts: usize,
    /// Worker threads (0 = all available cores).
    pub workers: usize,
    /// Master seed; every host seed derives from it.
    pub seed: u64,
    /// Samples per technique run.
    pub samples: usize,
    /// Measurement rounds per host.
    pub rounds: usize,
    /// Technique selection (default: the paper's auto protocol).
    pub technique: TechniqueChoice,
    /// Take the data-transfer reverse-path baseline.
    pub baseline: bool,
    /// Amenability verdicts only, no measurement (§IV-B survey mode).
    pub amenability_only: bool,
    /// Inter-packet gaps (µs) for a campaign-level gap profile.
    pub gaps_us: Vec<u64>,
    /// Share one scenario + connection-caching session across each
    /// host's phases (amenability, rounds, baseline, gap sweep) — see
    /// [`crate::pipeline`]. On by default; off reproduces the PR 2
    /// per-phase protocol.
    pub reuse: bool,
    /// Inert compatibility field (see [`SimVersion`]): never read.
    /// Campaigns have one format; striping hosts draw their
    /// cross-traffic backlog from the stationary M/G/1 distribution.
    pub sim_version: SimVersion,
    /// Telemetry mode: `Off` (default) measures nothing; `Summary`
    /// collects counters and phase-span moments; `Full` adds
    /// [`reorder_core::stats::QuantileSketch`] latency distributions.
    /// Telemetry observes and never participates — campaign output is
    /// byte-identical in every mode.
    pub telemetry: TelemetryMode,
    /// Print a throttled heartbeat line to stderr while the campaign
    /// runs (hosts done, hosts/sec, ETA, per-worker utilization).
    /// Never touches stdout, so JSONL piping stays clean.
    pub progress: bool,
    /// Run only shard `k` of `n` (1-based `Some((k, n))`): the
    /// contiguous host-id slice [`shard_bounds`] computes. `None` runs
    /// everything. Concatenating the JSONL outputs of shards 1..=n (in
    /// shard order) is byte-identical to the unsharded campaign, so N
    /// processes or machines can split one master seed's id space.
    pub shard: Option<(usize, usize)>,
    /// Population distributions.
    pub model: PopulationModel,
    /// Per-host probe budget: deadline, retry count and backoff. The
    /// default (generous deadline, no retries) never bites cooperative
    /// hosts, so chaos-free campaigns keep their exact bytes.
    pub budget: Budget,
}

/// The contiguous id range `[lo, hi)` of shard `k` of `n` (1-based)
/// over `hosts` ids. Slices concatenate exactly: shard boundaries are
/// `floor(k * hosts / n)`, so every id lands in exactly one shard and
/// shard order equals id order.
///
/// # Panics
///
/// When `n == 0`, `k == 0` or `k > n` — an invalid shard spec is a
/// configuration bug worth failing loudly on (the CLI validates its
/// `--shard K/N` input before building a config).
pub fn shard_bounds(hosts: usize, k: usize, n: usize) -> (usize, usize) {
    assert!(
        n >= 1 && (1..=n).contains(&k),
        "invalid shard {k}/{n}: want 1 <= K <= N"
    );
    (hosts * (k - 1) / n, hosts * k / n)
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            hosts: 50,
            workers: 0,
            seed: 77,
            samples: 15,
            rounds: 1,
            technique: TechniqueChoice::Auto,
            baseline: true,
            amenability_only: false,
            gaps_us: Vec::new(),
            reuse: true,
            sim_version: SimVersion,
            telemetry: TelemetryMode::Off,
            progress: false,
            shard: None,
            model: PopulationModel::default(),
            budget: Budget::default(),
        }
    }
}

/// What a finished campaign hands back.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Streaming aggregates.
    pub summary: CampaignSummary,
    /// Scheduler counters (workers used, cross-shard steals).
    pub stats: PoolStats,
    /// Total simulator events dispatched across every host — with wall
    /// time this gives a campaign's events/sec.
    pub events: u64,
    /// Campaign telemetry: per-worker counters and span stats,
    /// exactly mergeable ([`CampaignTelemetry::merged`]). Empty when
    /// [`CampaignConfig::telemetry`] was [`TelemetryMode::Off`].
    pub telemetry: CampaignTelemetry,
}

/// Run a campaign. When `jsonl` is given, one JSON line per host is
/// written to it, in host-id order, as results stream in. The only
/// error source is the sink; its first write failure aborts the
/// campaign (remaining hosts are not simulated) and is returned here.
/// A campaign without a sink cannot fail.
///
/// This is [`run_campaign_with`] rendering each host's JSONL line into
/// its chunk's byte buffer on the worker; the calling thread only
/// writes whole chunks.
pub fn run_campaign<W: Write>(
    cfg: &CampaignConfig,
    jsonl: Option<&mut W>,
) -> io::Result<CampaignOutcome> {
    match jsonl {
        Some(w) => run_campaign_with(
            cfg,
            |report, buf: &mut Vec<u8>| {
                buf.extend_from_slice(jsonl_line(&report).as_bytes());
                buf.push(b'\n');
            },
            |buf| w.write_all(&buf),
        ),
        None => run_campaign_with(cfg, |_, _: &mut ()| {}, |()| Ok(())),
    }
}

/// Run a campaign, handing every host's [`HostReport`] to `render` on
/// the worker that simulated it and the rendered chunks to `emit` on
/// the calling thread, in host-id order.
///
/// Hosts run in contiguous id chunks (see [`run_chunked`]). Each
/// worker folds its reports into its own [`ShardAggregator`] and
/// telemetry, then calls `render(report, &mut payload)` to append
/// whatever the caller wants in order — JSONL bytes, table rows, the
/// reports themselves. `emit(payload)` receives the chunks in id
/// order; its first error aborts the campaign (remaining hosts are
/// not simulated) and is returned. The summary is a commutative monoid
/// merged at the end, so it is bit-identical whatever the worker
/// count — the determinism suite asserts it.
pub fn run_campaign_with<P, R, E>(
    cfg: &CampaignConfig,
    render: R,
    mut emit: E,
) -> io::Result<CampaignOutcome>
where
    P: Default + Send,
    R: Fn(HostReport, &mut P) + Sync,
    E: FnMut(P) -> io::Result<()>,
{
    let job = HostJob {
        samples: cfg.samples.max(1),
        rounds: cfg.rounds.max(1),
        technique: cfg.technique,
        baseline: cfg.baseline,
        amenability_only: cfg.amenability_only,
        gaps_us: cfg.gaps_us.clone(),
        reuse: cfg.reuse,
        telemetry: cfg.telemetry,
        budget: cfg.budget,
    };
    // Host ids this process measures. Specs and seeds key on the
    // absolute id, so a shard's slice of the report is byte-identical
    // to the same lines of the unsharded run.
    let (lo, hi) = match cfg.shard {
        Some((k, n)) => shard_bounds(cfg.hosts, k, n),
        None => (0, cfg.hosts),
    };
    let mode = cfg.telemetry;

    // One simulator pool per worker: recycled allocations, never
    // shared results (simulations are !Send anyway).
    let mk_worker = |_w: usize| {
        (
            ScenarioPool::new(),
            (ShardAggregator::default(), WorkerTelemetry::new()),
        )
    };
    // The per-host pipeline: a pure function of (config, master seed,
    // absolute id) — never of the worker that runs it. Telemetry
    // observes into `tel` and never feeds back into the report.
    let job = &job;
    let step = |pool: &mut ScenarioPool,
                (agg, tel): &mut (ShardAggregator, WorkerTelemetry),
                payload: &mut P,
                i: usize| {
        let id = (lo + i) as u64;
        let spec = cfg.model.host(id, cfg.seed);
        let host_seed = simrng::derive_seed(cfg.seed, &format!("survey.run.{id}"));
        let report = survey_host_traced(id, &spec, host_seed, job, pool, tel);
        agg.absorb(&report);
        // Outcome counters ride the worker's own telemetry, so they
        // merge partition-invariantly and surface in the
        // `reorder.metrics/1` export.
        if mode.is_enabled() {
            let key = intern_label(&format!("host.outcome.{}", report.outcome.label()));
            tel.count(key, 1);
            tel.count("agg.absorbs", 1);
        }
        render(report, payload);
    };

    // Live observation surface: `done` always counts completed hosts;
    // timing (busy/idle splits, live utilization) turns on when either
    // telemetry or the progress heartbeat needs it. The slot count
    // mirrors the scheduler's own worker resolution.
    let jobs = hi - lo;
    let timed = mode.is_enabled() || cfg.progress;
    let probe = RunProbe::new(timed, resolve_workers(cfg.workers).min(jobs.max(1)));
    let probe = &probe;

    let mut run = move || -> io::Result<CampaignOutcome> {
        let mut emit_err: Option<io::Error> = None;
        let (shards, stats) = run_chunked(
            jobs,
            cfg.workers,
            mk_worker,
            step,
            |payload| match emit(payload) {
                Ok(()) => ControlFlow::Continue(()),
                // A dead sink (full disk, closed pipe) aborts the
                // campaign instead of burning the remaining hosts'
                // simulation time on a report that will be Err anyway.
                Err(e) => {
                    emit_err = Some(e);
                    ControlFlow::Break(())
                }
            },
            probe,
        );
        if let Some(e) = emit_err {
            return Err(e);
        }
        // Merge shard aggregators in worker order (any order gives the
        // same bits); worker telemetry rides the fold state.
        let mut merged = ShardAggregator::default();
        let mut telemetry = CampaignTelemetry {
            mode,
            ..CampaignTelemetry::default()
        };
        for (agg, tel) in shards {
            merged.merge(&agg);
            if mode.is_enabled() {
                telemetry.campaign.count("agg.merges", 1);
                telemetry.per_worker.push(tel);
            }
        }
        attach_scheduler_counters(&mut telemetry, &stats);
        Ok(CampaignOutcome {
            summary: merged.summary,
            stats,
            events: merged.events,
            telemetry,
        })
    };

    if !cfg.progress {
        return run();
    }

    // Heartbeat: a watcher thread reads the probe and prints a
    // throttled progress line to stderr. stderr only — stdout belongs
    // to pinned report bytes — and nothing here feeds back into the
    // campaign, so output stays byte-identical with the flag on.
    // reorder-lint: allow(wall-clock, progress heartbeat timing; stderr-only and never feeds report bytes)
    let started = Instant::now();
    let total = jobs as u64;
    let stop = AtomicBool::new(false);
    let stop = &stop;
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut last = 0.0f64;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(50));
                let elapsed = started.elapsed().as_secs_f64();
                if elapsed - last >= 0.5 {
                    last = elapsed;
                    let busy: Vec<u64> = (0..probe.slots()).map(|w| probe.busy_ns(w)).collect();
                    let done = probe.done.load(Ordering::Relaxed);
                    eprintln!("{}", progress_line(done, total, elapsed, &busy));
                }
            }
        });
        let result = run();
        stop.store(true, Ordering::Relaxed);
        result
    })
}

/// Fold the scheduler's per-worker counters ([`crate::scheduler::WorkerStats`])
/// into the matching worker's telemetry, under `sched.*` keys. No-op
/// when telemetry is off.
fn attach_scheduler_counters(tel: &mut CampaignTelemetry, stats: &PoolStats) {
    if !tel.mode.is_enabled() {
        return;
    }
    for (tel_w, ws) in tel.per_worker.iter_mut().zip(&stats.per_worker) {
        tel_w.count("sched.tasks", ws.tasks);
        tel_w.count("sched.steal_attempts", ws.steal_attempts);
        tel_w.count("sched.steals", ws.steals);
        tel_w.count("sched.busy_ns", ws.busy_ns);
        tel_w.count("sched.idle_ns", ws.idle_ns);
        tel_w.count("sched.wall_ns", ws.wall_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Condvar, Mutex, PoisonError};
    use std::time::Duration;

    fn quick_cfg(hosts: usize, workers: usize) -> CampaignConfig {
        CampaignConfig {
            hosts,
            workers,
            seed: 11,
            samples: 4,
            baseline: false,
            ..CampaignConfig::default()
        }
    }

    fn quick(hosts: usize, workers: usize) -> (Vec<u8>, CampaignOutcome) {
        let mut buf = Vec::new();
        let out = run_campaign(&quick_cfg(hosts, workers), Some(&mut buf)).expect("in-memory sink");
        (buf, out)
    }

    /// Every host's report, in emit order.
    fn reports(cfg: &CampaignConfig) -> (Vec<HostReport>, CampaignOutcome) {
        let mut all = Vec::new();
        let out = run_campaign_with(
            cfg,
            |r, chunk: &mut Vec<HostReport>| chunk.push(r),
            |chunk| {
                all.extend(chunk);
                Ok(())
            },
        )
        .expect("infallible emit");
        (all, out)
    }

    #[test]
    fn reports_arrive_in_id_order() {
        let (all, out) = reports(&quick_cfg(12, 3));
        assert_eq!(all.len(), 12);
        assert!(all.iter().enumerate().all(|(k, r)| r.id == k as u64));
        assert_eq!(out.summary.hosts, 12);
        let (buf, _) = quick(12, 3);
        assert_eq!(
            buf.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count(),
            12
        );
    }

    #[test]
    fn worker_count_does_not_change_output() {
        // Chunk edges: at 1 worker, 16 hosts are four 4-id chunks and
        // 17 and 23 leave 1- and 3-id tails; at 2 workers, 16 are eight
        // 2-id chunks; 15 and small counts run 1-id chunks; 0 and 1
        // leave workers without a chunk.
        for hosts in [0, 1, 15, 16, 17, 23] {
            let (serial, out) = quick(hosts, 1);
            let summary = out.summary.render();
            assert_eq!(serial.iter().filter(|&&b| b == b'\n').count(), hosts);
            for workers in [2, 3, 7] {
                let (bytes, out) = quick(hosts, workers);
                assert!(
                    bytes == serial,
                    "JSONL differs: {hosts} hosts, {workers} workers"
                );
                assert_eq!(
                    out.summary.render(),
                    summary,
                    "{hosts} hosts, {workers} workers"
                );
            }
            let mut stitched = Vec::new();
            for k in 1..=3 {
                let cfg = CampaignConfig {
                    shard: Some((k, 3)),
                    ..quick_cfg(hosts, 2)
                };
                run_campaign(&cfg, Some(&mut stitched)).expect("in-memory sink");
            }
            assert!(stitched == serial, "shards differ: {hosts} hosts");
        }
    }

    #[test]
    fn dead_sink_aborts_early() {
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.0 == 0 {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "sink full"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let cfg = CampaignConfig {
            hosts: 128,
            workers: 2,
            seed: 4,
            samples: 3,
            baseline: false,
            amenability_only: true,
            ..CampaignConfig::default()
        };
        // One write per chunk: the first chunk lands, the second fails.
        let mut sink = FailAfter(1);
        let err = run_campaign(&cfg, Some(&mut sink)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);

        // The remaining hosts are not simulated. Every host past the
        // first two chunks is held in `render` until the failing write
        // (chunk 1's) has happened, and then for a grace period in
        // which the calling thread, which has nothing left to do but
        // publish the stop, owns a core. So how the threads share the
        // cores does not change the count: each worker finishes the
        // host it holds, then sees the stop.
        let held_from = 2 * crate::scheduler::chunk_len(cfg.hosts, cfg.workers) as u64;
        let failed = (Mutex::new(false), Condvar::new());
        let simulated = AtomicUsize::new(0);
        let after_failure = AtomicUsize::new(0);
        let mut sink = FailAfter(1);
        let err = run_campaign_with(
            &cfg,
            |report, _: &mut ()| {
                simulated.fetch_add(1, Ordering::Relaxed);
                if report.id >= held_from {
                    let (lock, cvar) = &failed;
                    let guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
                    let (guard, _) = cvar
                        .wait_timeout_while(guard, Duration::from_secs(60), |f| !*f)
                        .unwrap_or_else(PoisonError::into_inner);
                    assert!(*guard, "the second chunk's write never happened");
                    drop(guard);
                    std::thread::sleep(Duration::from_millis(20));
                    after_failure.fetch_add(1, Ordering::Relaxed);
                }
            },
            |()| {
                let written = sink.write(b"chunk").map(drop);
                if written.is_err() {
                    let (lock, cvar) = &failed;
                    *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
                    cvar.notify_all();
                }
                written
            },
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let after_failure = after_failure.into_inner();
        assert!(
            after_failure <= cfg.workers,
            "{after_failure} of {} hosts simulated after the sink died ({} workers)",
            cfg.hosts,
            cfg.workers
        );
        assert_eq!(
            simulated.into_inner() as u64,
            held_from + after_failure as u64,
            "every host of the first two chunks, and only the held ones after"
        );
    }

    #[test]
    fn shard_bounds_partition_exactly() {
        for hosts in [0usize, 1, 7, 100, 101] {
            for n in [1usize, 2, 3, 7] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for k in 1..=n {
                    let (lo, hi) = shard_bounds(hosts, k, n);
                    assert_eq!(lo, prev_hi, "shards must be contiguous");
                    assert!(hi >= lo);
                    covered += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(prev_hi, hosts, "last shard must end at hosts");
                assert_eq!(covered, hosts, "every id in exactly one shard");
            }
        }
    }

    #[test]
    #[should_panic(expected = "invalid shard")]
    fn shard_zero_of_n_rejected() {
        shard_bounds(10, 0, 4);
    }

    #[test]
    #[should_panic(expected = "invalid shard")]
    fn shard_k_above_n_rejected() {
        shard_bounds(10, 5, 4);
    }

    #[test]
    fn sharded_campaign_reports_only_its_slice() {
        let cfg = CampaignConfig {
            hosts: 10,
            workers: 2,
            seed: 21,
            samples: 3,
            baseline: false,
            amenability_only: true,
            shard: Some((2, 3)),
            ..CampaignConfig::default()
        };
        let (all, out) = reports(&cfg);
        let (lo, hi) = shard_bounds(10, 2, 3);
        assert_eq!(all.len(), hi - lo);
        assert!(all.iter().enumerate().all(|(k, r)| r.id == (lo + k) as u64));
        assert_eq!(out.summary.hosts, (hi - lo) as u64);
    }

    #[test]
    fn telemetry_never_changes_output() {
        // Telemetry observes; campaign bytes must be identical across
        // every mode (and with the progress heartbeat armed).
        let base = CampaignConfig {
            hosts: 8,
            workers: 2,
            seed: 31,
            samples: 4,
            baseline: false,
            ..CampaignConfig::default()
        };
        let mut runs = Vec::new();
        for (telemetry, progress) in [
            (TelemetryMode::Off, false),
            (TelemetryMode::Summary, false),
            (TelemetryMode::Full, true),
        ] {
            let cfg = CampaignConfig {
                telemetry,
                progress,
                ..base.clone()
            };
            let mut buf = Vec::new();
            let out = run_campaign(&cfg, Some(&mut buf)).expect("in-memory sink");
            runs.push((buf, out.summary.render()));
        }
        assert_eq!(runs[0], runs[1], "Summary mode changed output");
        assert_eq!(runs[0], runs[2], "Full mode + progress changed output");
    }

    #[test]
    fn telemetry_counters_are_worker_count_invariant() {
        // The mergeable-monoid contract end to end: however hosts are
        // partitioned across workers (and whether or not a sink is
        // attached), the merged counters are identical.
        let run = |workers: usize, sink: bool| {
            let cfg = CampaignConfig {
                hosts: 12,
                workers,
                seed: 5,
                samples: 4,
                baseline: false,
                telemetry: TelemetryMode::Summary,
                ..CampaignConfig::default()
            };
            if sink {
                run_campaign(&cfg, Some(&mut Vec::new())).expect("in-memory sink")
            } else {
                run_campaign(&cfg, None::<&mut Vec<u8>>).expect("no sink")
            }
        };
        let baseline = run(1, true);
        let merged = baseline.telemetry.merged();
        assert_eq!(merged.counter("netsim.events"), baseline.events);
        assert_eq!(merged.counter("agg.absorbs"), 12);
        assert_eq!(merged.counter("sched.tasks"), 12);
        assert!(merged.counter("pool.hits") > 0, "pooled run must recycle");
        for workers in [2, 4] {
            for sink in [true, false] {
                let out = run(workers, sink);
                let m = out.telemetry.merged();
                for key in [
                    "netsim.events",
                    "netsim.stage_passes",
                    "pool.hits",
                    "pool.misses",
                    "agg.absorbs",
                    "sched.tasks",
                ] {
                    // Pool misses are per-worker first builds, so they
                    // scale with the worker count — but hits + misses
                    // (total checkouts) must not.
                    if key == "pool.misses" || key == "pool.hits" {
                        continue;
                    }
                    assert_eq!(
                        m.counter(key),
                        merged.counter(key),
                        "{key} must be partition-invariant (workers={workers}, sink={sink})"
                    );
                }
                assert_eq!(
                    m.counter("pool.hits") + m.counter("pool.misses"),
                    merged.counter("pool.hits") + merged.counter("pool.misses"),
                    "total checkouts invariant (workers={workers})"
                );
                let span = m.span_stats("host").expect("host span recorded");
                assert_eq!(span.count(), 12, "one host span per host");
            }
        }
    }

    #[test]
    fn telemetry_off_records_nothing() {
        let cfg = CampaignConfig {
            hosts: 4,
            workers: 2,
            seed: 9,
            samples: 3,
            baseline: false,
            ..CampaignConfig::default()
        };
        let out = run_campaign(&cfg, None::<&mut Vec<u8>>).expect("no sink");
        assert_eq!(out.telemetry, crate::metrics::CampaignTelemetry::disabled());
        assert!(out.telemetry.merged().is_empty());
    }

    #[test]
    fn summary_matches_reports() {
        let (all, out) = reports(&quick_cfg(10, 2));
        let reachable = all.iter().filter(|r| r.reachable).count() as u64;
        assert_eq!(out.summary.reachable, reachable);
        let techniques: u64 = out.summary.by_technique.values().map(|g| g.hosts).sum();
        assert_eq!(techniques, 10);
    }
}
