//! The traced run: per-layer metrics of one workload.
//!
//! Part 1 runs the workload's engine call with `TelemetryMode::Full`
//! (alternating with untraced runs, which gives the tracing overhead)
//! and takes the engine's own counters and phase sketches. Part 2
//! replays the same hosts on one thread through the public per-layer
//! calls, with the benchmark's spans around each call, then checks the
//! replay produced the engine's exact aggregate bytes.

use crate::stats::{json_str, median, metrics_json, ratio, Metric};
use crate::trace::Tracer;
use crate::workload::{self, JsonlDigest, RunOutput, Size, Workload, WORKERS};
use crate::{probes, Outcome};
use reorder_campaign::atomic_write;
use reorder_core::scenario::{internet_host, ScenarioPool};
use reorder_core::telemetry::{TelemetryMode, WorkerTelemetry};
use reorder_netsim::rng as simrng;
use reorder_survey::pipeline::survey_host_traced;
use reorder_survey::report::jsonl_line;
use reorder_survey::{seal, shard_bounds, unseal, HostJob, ShardAggregator, ShardState};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What the replay measured beyond its spans.
#[derive(Default)]
struct Replay {
    agg: ShardAggregator,
    jsonl: JsonlDigest,
    /// Host pipeline ns by chosen technique and by outcome class.
    by_tech: BTreeMap<&'static str, (u64, u64)>,
    by_outcome: BTreeMap<&'static str, (u64, u64)>,
    /// Measurement rounds that returned a measurement.
    ok_rounds: u64,
    /// Determinate samples across all hosts.
    valid_samples: u64,
    /// Served-object bytes of hosts that ran the transfer baseline.
    baseline_bytes: u64,
    /// Samples requested per measurement attempt.
    samples: u64,
    /// Sealed shard-state documents: (bytes, to_json ns, from_json ns,
    /// seal ns, unseal ns).
    states: Vec<(usize, u64, u64, u64, u64)>,
    errors: Vec<String>,
}

fn add(map: &mut BTreeMap<&'static str, (u64, u64)>, key: &'static str, ns: u64) {
    let e = map.entry(key).or_default();
    e.0 += 1;
    e.1 += ns;
}

/// Mean µs of a `(count, ns)` group; 0 when empty.
fn group_us(map: &BTreeMap<&'static str, (u64, u64)>, key: &str) -> f64 {
    map.get(key)
        .map_or(0.0, |&(n, ns)| ratio(ns as f64, n as f64) * 1e-3)
}

/// Replay every host of `w` on one thread with spans around each call.
fn replay(w: Workload, size: Size, seed: u64, tr: &mut Tracer) -> Replay {
    let cfg = workload::config(w, size, seed, TelemetryMode::Off);
    let job = HostJob {
        samples: cfg.samples.max(1),
        rounds: cfg.rounds.max(1),
        technique: cfg.technique,
        baseline: cfg.baseline,
        amenability_only: cfg.amenability_only,
        gaps_us: cfg.gaps_us.clone(),
        reuse: cfg.reuse,
        telemetry: TelemetryMode::Full,
        budget: cfg.budget,
    };
    // The engine's partition: shards for the orchestrated workload,
    // one contiguous slice per worker otherwise.
    let parts = if w == Workload::CampaignChaos {
        size.shards
    } else {
        WORKERS
    };
    let mut rp = Replay {
        samples: job.samples as u64,
        ..Replay::default()
    };
    let mut pool = ScenarioPool::new();
    let mut states = Vec::new();
    for k in 1..=parts {
        let (lo, hi) = shard_bounds(cfg.hosts, k, parts);
        let mut agg = ShardAggregator::default();
        let mut tel = WorkerTelemetry::new();
        for id in lo as u64..hi as u64 {
            let host = Some(id);
            let root = tr.begin("host", None, host);
            let host_seed = tr.time("derive_seed", Some(root), host, || {
                simrng::derive_seed(cfg.seed, &format!("survey.run.{id}"))
            });
            let spec = tr.time("population", Some(root), host, || {
                let mut spec = cfg.model.host(id, cfg.seed);
                spec.sim_version = cfg.sim_version;
                spec
            });
            let baselines = tel.span_stats("baseline").map_or(0, |s| s.count());
            let pipe = tr.begin("pipeline", Some(root), host);
            let report = survey_host_traced(id, &spec, host_seed, &job, &mut pool, &mut tel);
            tr.end(pipe);
            let ns = tr.spans[pipe].dur_ns();
            tr.time("absorb", Some(root), host, || agg.absorb(&report));
            let line = tr.time("jsonl", Some(root), host, || jsonl_line(&report));
            tr.end(root);

            add(&mut rp.by_tech, report.technique, ns);
            let class = match report.outcome.label().split('/').next() {
                Some("complete") => "complete",
                Some("degraded") => "degraded",
                _ => "failed",
            };
            add(&mut rp.by_outcome, class, ns);
            if !job.amenability_only {
                rp.ok_rounds += (job.rounds as u64).saturating_sub(report.failures as u64);
            }
            rp.valid_samples += report.fwd.total.max(report.rev.total) as u64;
            if tel.span_stats("baseline").map_or(0, |s| s.count()) > baselines {
                rp.baseline_bytes += spec.object_size as u64;
            }
            // Every host's line is rendered and sized; only the workloads
            // that keep JSONL compare it with the engine's.
            let _ = writeln!(rp.jsonl, "{line}");
        }
        states.push(ShardState {
            shard: k,
            shards: parts,
            agg,
            telemetry: tel,
            steals: 0,
        });
    }

    // Shard-state codec: to/from JSON (sealed) and the seal itself.
    for state in &states {
        let doc = tr.time("state.to_json", None, None, || state.to_json());
        let back = tr.time("state.from_json", None, None, || {
            ShardState::from_json(&doc)
        });
        match back {
            Ok(back) if back.to_json() == doc => {}
            _ => rp
                .errors
                .push(format!("shard state {} does not round-trip", state.shard)),
        }
        let payload = tr.time("unseal", None, None, || unseal(&doc));
        let Ok(payload) = payload else {
            rp.errors
                .push(format!("shard state {} does not unseal", state.shard));
            continue;
        };
        let resealed = tr.time("seal", None, None, || seal(&payload));
        if resealed != doc {
            rp.errors
                .push(format!("shard state {} does not reseal", state.shard));
        }
        let n = tr.spans.len();
        let ns = |back: usize| tr.spans[n - back].dur_ns();
        rp.states.push((doc.len(), ns(4), ns(3), ns(1), ns(2)));
    }
    for state in &states {
        tr.time("merge", None, None, || rp.agg.merge(&state.agg));
    }
    for _ in 0..5 {
        let text = tr.time("render", None, None, || rp.agg.summary.render());
        std::hint::black_box(text);
    }
    rp
}

/// Mean µs of a fresh (unpooled) `internet_host` build over the
/// workload's first hosts.
fn build_us(w: Workload, size: Size, seed: u64) -> f64 {
    let cfg = workload::config(w, size, seed, TelemetryMode::Off);
    let n = cfg.hosts.min(200) as u64;
    let mut ns = 0u128;
    for id in 0..n {
        let mut spec = cfg.model.host(id, cfg.seed);
        spec.sim_version = cfg.sim_version;
        let host_seed = simrng::derive_seed(cfg.seed, &format!("survey.run.{id}"));
        let t0 = Instant::now();
        let sc = internet_host(&spec, simrng::derive_seed(host_seed, "session"));
        ns += t0.elapsed().as_nanos();
        drop(std::hint::black_box(sc));
    }
    ns as f64 / n.max(1) as f64 * 1e-3
}

/// Median ms of an atomic write of a checkpoint-sized document.
fn checkpoint_write_ms(doc: &[u8], dir: &Path, errors: &mut Vec<String>) -> f64 {
    let path = dir.join("checkpoint-probe.json");
    let mut ms: Vec<f64> = (0..7)
        .map(|_| {
            let t0 = Instant::now();
            if let Err(e) = atomic_write(&path, doc) {
                errors.push(format!("atomic_write {}: {e}", path.display()));
            }
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut ms)
}

/// Run the traced measurement of `w` and report every per-layer metric.
pub fn run(w: Workload, seed: u64, seconds: u64, tiny: bool, out_dir: &Path) -> Outcome {
    let mut o = Outcome::default();
    let size = Size::of(w, tiny);
    let work = out_dir.join(format!("work-{}", w.name()));

    // Part 1: untraced/traced pairs over about half the run.
    let mut overhead: Vec<f64> = Vec::new();
    let mut self_fracs: Vec<f64> = Vec::new();
    let mut untraced: Option<RunOutput> = None;
    let mut traced: Option<RunOutput> = None;
    let t0 = Instant::now();
    while overhead.is_empty() || (t0.elapsed().as_secs_f64() < seconds as f64 / 2.0 && !tiny) {
        let Some(off) = o.attempt(w, size, seed, TelemetryMode::Off, &work) else {
            break;
        };
        let Some(full) = o.attempt(w, size, seed, TelemetryMode::Full, &work) else {
            break;
        };
        if full.digest() != off.digest() {
            o.fail(format!("{}: traced output differs from untraced", w.name()));
        }
        overhead.push(full.wall_s / off.wall_s - 1.0);
        if let Some(c) = &full.campaign {
            self_fracs.push(ratio(full.wall_s - c.shard_wall_s, full.wall_s));
        }
        if let Some(prev) = &untraced {
            if prev.digest() != off.digest() {
                o.fail(format!("{}: untraced repeats differ", w.name()));
            }
        }
        untraced = Some(off);
        traced = Some(full);
    }
    let Some(eng) = traced else {
        return o;
    };

    // Part 2: the single-thread replay of the same hosts.
    let mut tr = Tracer::new();
    let rp = replay(w, size, seed, &mut tr);
    for e in &rp.errors {
        o.fail(e.clone());
    }
    if rp.agg.to_json() != eng.agg.to_json() {
        o.fail(format!(
            "{}: replay aggregate differs from the engine's",
            w.name()
        ));
    }
    if w.jsonl() && rp.jsonl != eng.jsonl {
        o.fail(format!(
            "{}: replay JSONL differs from the engine's",
            w.name()
        ));
    }
    let mut probe_errors = Vec::new();
    let probe_metrics = probes::run(&mut probe_errors);
    let build = build_us(w, size, seed);
    let campaign = eng.campaign.as_ref();
    let ckpt_ms = match campaign {
        Some(c) => match std::fs::read(&c.checkpoint_path) {
            Ok(doc) => checkpoint_write_ms(&doc, out_dir, &mut probe_errors),
            Err(e) => {
                probe_errors.push(format!("reading {}: {e}", c.checkpoint_path.display()));
                0.0
            }
        },
        None => 0.0,
    };
    for e in probe_errors {
        o.fail(e);
    }

    // Engine telemetry → pipeline, core, netsim, scheduler metrics.
    let hosts = size.hosts as f64;
    let tel = &eng.telemetry;
    let counter = |k: &str| tel.counter(k) as f64;
    let span_total_us = |k: &str| tel.span_stats(k).map_or(0.0, |s| s.total_secs() * 1e6);
    let span_count = |k: &str| tel.span_stats(k).map_or(0.0, |s| s.count() as f64);
    let host_q = |q: f64| {
        tel.span_stats("host")
            .and_then(|s| s.sketch.quantile(q))
            .unwrap_or(0.0)
            * 1e6
    };
    let phases = ["amenability", "measure", "baseline", "gap_sweep"];
    let phase_us: f64 = phases.iter().map(|p| span_total_us(p)).sum();
    let attempts = span_count("measure");
    let events = eng.agg.events as f64;
    let totals = tr.totals();
    let mean_ns = |k: &str| totals.get(k).map_or(0.0, |t| t.mean_ns());
    let mut render_ns: Vec<f64> = tr
        .spans
        .iter()
        .filter(|s| s.name == "render")
        .map(|s| s.dur_ns() as f64)
        .collect();
    let render_us = median(&mut render_ns);
    let state_mean = |f: fn(&(usize, u64, u64, u64, u64)) -> f64| {
        ratio(rp.states.iter().map(f).sum(), rp.states.len() as f64)
    };

    let m = |name, value, unit| Metric { name, value, unit };
    let mut metrics = vec![
        m("population.host_us", mean_ns("population") * 1e-3, "us"),
        m(
            "scenario.pool_hit_ratio",
            ratio(
                counter("pool.hits"),
                counter("pool.hits") + counter("pool.misses"),
            ),
            "ratio",
        ),
        m("scenario.build_us", build, "us"),
        m("pipeline.host_us.p50", host_q(0.5), "us"),
        m("pipeline.host_us.p99", host_q(0.99), "us"),
        m(
            "pipeline.amenability_us",
            span_total_us("amenability") / hosts,
            "us",
        ),
        m(
            "pipeline.measure_us",
            span_total_us("measure") / hosts,
            "us",
        ),
        m(
            "pipeline.baseline_us",
            span_total_us("baseline") / hosts,
            "us",
        ),
        m(
            "pipeline.self_us",
            (span_total_us("host") - phase_us) / hosts,
            "us",
        ),
        m("pipeline.tech_us.dual", group_us(&rp.by_tech, "dual"), "us"),
        m("pipeline.tech_us.syn", group_us(&rp.by_tech, "syn"), "us"),
        m("pipeline.tech_us.none", group_us(&rp.by_tech, "none"), "us"),
        m(
            "pipeline.outcome_us.complete",
            group_us(&rp.by_outcome, "complete"),
            "us",
        ),
        m(
            "pipeline.outcome_us.degraded",
            group_us(&rp.by_outcome, "degraded"),
            "us",
        ),
        m(
            "pipeline.outcome_us.failed",
            group_us(&rp.by_outcome, "failed"),
            "us",
        ),
        m("core.measure_attempts_per_host", attempts / hosts, "count"),
        m(
            "core.round_yield",
            ratio(rp.ok_rounds as f64, attempts),
            "ratio",
        ),
        m(
            "core.sample_yield",
            ratio(rp.valid_samples as f64, attempts * rp.samples as f64),
            "ratio",
        ),
        m("netsim.events_per_host", events / hosts, "count"),
        m(
            "netsim.ns_per_event",
            ratio(span_total_us("host") * 1e3, events),
            "ns",
        ),
        m(
            "netsim.calendar_overflow_per_khost",
            counter("netsim.calendar_overflow") * 1e3 / hosts,
            "count",
        ),
    ];
    metrics.extend(probe_metrics.into_iter().map(|(n, v, u)| m(n, v, u)));
    metrics.extend([
        m(
            "tcpstack.baseline_ns_per_byte",
            ratio(span_total_us("baseline") * 1e3, rp.baseline_bytes as f64),
            "ns/B",
        ),
        m(
            "sched.busy_frac",
            ratio(counter("sched.busy_ns"), counter("sched.wall_ns")),
            "ratio",
        ),
        m("sched.idle_ms", counter("sched.idle_ns") * 1e-6, "ms"),
        m(
            "sched.steals_per_ktask",
            ratio(counter("sched.steals") * 1e3, counter("sched.tasks")),
            "count",
        ),
        m("aggregate.absorb_ns", mean_ns("absorb"), "ns"),
        m("aggregate.merge_us", mean_ns("merge") * 1e-3, "us"),
        m("state.json_bytes", state_mean(|s| s.0 as f64), "B"),
        m("state.to_json_us", state_mean(|s| s.1 as f64) * 1e-3, "us"),
        m(
            "state.from_json_us",
            state_mean(|s| s.2 as f64) * 1e-3,
            "us",
        ),
        m("state.seal_us", state_mean(|s| s.3 as f64) * 1e-3, "us"),
        m("state.unseal_us", state_mean(|s| s.4 as f64) * 1e-3, "us"),
        m("report.jsonl_ns", mean_ns("jsonl"), "ns"),
        m("report.jsonl_bytes", rp.jsonl.bytes as f64 / hosts, "B"),
        m("report.render_us", render_us * 1e-3, "us"),
    ]);
    // Orchestrator metrics exist only where the orchestrator ran; the
    // other workloads print them as 0 and leave them out of the ledger.
    let c = campaign;
    metrics.extend([
        m("campaign.self_frac", median(&mut self_fracs), "ratio"),
        m(
            "checkpoint.writes",
            c.map_or(0.0, |c| c.checkpoint_writes as f64),
            "count",
        ),
        m(
            "checkpoint.bytes",
            c.map_or(0.0, |c| c.checkpoint_bytes as f64),
            "B",
        ),
        m("checkpoint.write_ms", ckpt_ms, "ms"),
        m("trace.overhead_frac", median(&mut overhead), "ratio"),
    ]);

    // The ledger file: metrics, self-time table, engine telemetry.
    let present: Vec<Metric> = metrics
        .iter()
        .filter(|m| {
            c.is_some() || !(m.name.starts_with("campaign.") || m.name.starts_with("checkpoint."))
        })
        .cloned()
        .collect();
    let table: Vec<String> = totals
        .iter()
        .map(|(name, t)| {
            format!(
                "{}: {{\"count\": {}, \"total_us\": {}, \"self_us\": {}, \"mean_us\": {}}}",
                json_str(name),
                t.count,
                t.total_ns as f64 * 1e-3,
                t.self_ns as f64 * 1e-3,
                t.mean_ns() * 1e-3
            )
        })
        .collect();
    let spans_path = out_dir.join(format!("spans-{}-seed{seed}.jsonl", w.name()));
    if let Err(e) = tr.write_jsonl(&spans_path) {
        o.fail(format!("writing {}: {e}", spans_path.display()));
    }
    o.record = format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"hosts\": {}, \"samples\": {{\"host_span\": {}, \
         \"measure_span\": {}, \"replay_hosts\": {}, \"overhead_pairs\": {}}}, \"metrics\": {}, \
         \"self_time\": {{{}}}, \"engine_telemetry\": {}, \"spans\": {}}}",
        json_str(w.name()),
        size.hosts,
        span_count("host"),
        attempts,
        totals.get("host").map_or(0, |t| t.count),
        overhead.len(),
        metrics_json(&present),
        table.join(", "),
        tel.to_json(),
        json_str(&spans_path.display().to_string()),
    );
    o.metrics = metrics;
    o
}
