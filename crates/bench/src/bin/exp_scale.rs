//! `exp_scale` — the campaign perf harness: runs the survey pipeline at
//! scale, measures hosts/sec and events/sec per configuration
//! (including the pooling and connection-reuse ablations), and records
//! the result as `BENCH_campaign.json` so this and future PRs leave a
//! perf trajectory instead of anecdotes.
//!
//! Since campaign format v2 every scale runs *per simulation version*:
//! the full pipeline under `--sim-version` 1 (replayed cross traffic)
//! and 2 (stationary O(1) draws), so the sampler redesign's win is a
//! recorded ratio, not a claim. The ablation arms run under v2 (the
//! default format).
//!
//! * `REORDER_SCALE=quick|std|full` picks 120 / 1000 / 5000 hosts.
//! * `REORDER_BENCH_RUNS=<n>` takes the min-of-n wall time per config
//!   (default 1; the checked-in `BENCH_campaign.json` is blessed with
//!   10 so the recorded trajectory is noise-floored).
//! * `REORDER_BENCH_OUT` overrides the output path.
//! * `REORDER_BENCH_FLOOR=<path>` enables the regression gate: the
//!   floor file holds the worst acceptable full-pipeline hosts/sec per
//!   version for the current scale; the run fails (exit 1) when either
//!   version's throughput lands more than 30% below its floor. CI runs
//!   the quick scale with the checked-in `BENCH_floor.json`.

use reorder_bench::{rule, Scale};
use reorder_campaign::{start, CampaignOptions, CampaignSpec, InProcessRunner};
use reorder_core::scenario::SimVersion;
use reorder_survey::{
    run_campaign, CampaignConfig, CampaignOutcome, PopulationModel, TelemetryMode,
};
use std::fmt::Write as _;
use std::time::Instant;

struct Row {
    name: &'static str,
    hosts: usize,
    wall_s: f64,
    hosts_per_sec: f64,
    events: u64,
    events_per_sec: f64,
}

fn measure(name: &'static str, cfg: &CampaignConfig, runs: usize) -> Row {
    let mut wall = f64::INFINITY;
    let mut events = 0;
    for _ in 0..runs.max(1) {
        let started = Instant::now();
        let out: CampaignOutcome =
            run_campaign(cfg, None::<&mut Vec<u8>>).expect("no sink, no error");
        wall = wall.min(started.elapsed().as_secs_f64());
        assert_eq!(out.summary.hosts, cfg.hosts as u64);
        events = out.events;
    }
    Row {
        name,
        hosts: cfg.hosts,
        wall_s: wall,
        hosts_per_sec: cfg.hosts as f64 / wall,
        events,
        events_per_sec: events as f64 / wall,
    }
}

/// Peak resident set size in kB (Linux `VmHWM`) — a proxy, not a
/// measurement of any single campaign, but enough to catch an
/// allocation blow-up between PRs.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Extract `"key": <number>` from a JSON-ish text without a parser
/// (the floor file is written by this binary, so the shape is fixed).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let at = text.find(&format!("\"{key}\""))?;
    let rest = &text[at..];
    let colon = rest.find(':')?;
    let tail = rest[colon + 1..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

fn main() {
    let scale = Scale::from_env();
    let hosts = scale.pick(5000, 1000, 120);
    let seed = 1u64;
    let workers = 1usize; // fixed for comparable trajectories
    let runs: usize = std::env::var("REORDER_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let base = CampaignConfig {
        hosts,
        workers,
        seed,
        ..CampaignConfig::default()
    };
    let v1 = CampaignConfig {
        sim_version: SimVersion::V1,
        ..base.clone()
    };

    println!(
        "exp_scale: campaign throughput at {hosts} hosts (seed {seed}, 1 worker, \
         min-of-{runs}, v1 = replay, v2 = stationary)"
    );
    rule(84);

    let base_scaling = base.clone();
    let rows = [
        measure("v1_full", &v1.clone(), runs),
        measure(
            "v1_no_baseline",
            &CampaignConfig {
                baseline: false,
                ..v1.clone()
            },
            runs,
        ),
        measure(
            "v1_amenability_only",
            &CampaignConfig {
                amenability_only: true,
                ..v1
            },
            runs,
        ),
        measure("v2_full", &base.clone(), runs),
        measure(
            "v2_no_baseline",
            &CampaignConfig {
                baseline: false,
                ..base.clone()
            },
            runs,
        ),
        measure(
            "v2_amenability_only",
            &CampaignConfig {
                amenability_only: true,
                ..base.clone()
            },
            runs,
        ),
        // Telemetry overhead arm: the same full v2 pipeline with
        // summary-mode instrumentation on — gated against `v2_full`
        // below so observation stays within its ≤5% budget.
        measure(
            "v2_full_telemetry",
            &CampaignConfig {
                telemetry: TelemetryMode::Summary,
                ..base.clone()
            },
            runs,
        ),
        // Chaos arm: the same v2 full pipeline over a 20%-hostile
        // population (all five fault classes) — hostile hosts burn
        // their budget and abort early, so this row tracks what a
        // survey of an uncooperative internet actually costs.
        measure(
            "v2_chaos20",
            &CampaignConfig {
                model: PopulationModel {
                    chaos_ppm: 200_000,
                    ..Default::default()
                },
                ..base.clone()
            },
            runs,
        ),
        // Ablations (v2): each turns one hot-path contribution off.
        measure(
            "v2_full_no_pool",
            &CampaignConfig {
                pool: false,
                ..base.clone()
            },
            runs,
        ),
        measure(
            "v2_full_no_reuse",
            &CampaignConfig {
                reuse: false,
                ..base.clone()
            },
            runs,
        ),
    ];

    println!(
        "{:<20} {:>7} {:>9} {:>11} {:>12} {:>13}",
        "config", "hosts", "wall s", "hosts/sec", "events", "events/sec"
    );
    rule(84);
    for r in &rows {
        println!(
            "{:<20} {:>7} {:>9.3} {:>11.0} {:>12} {:>13.0}",
            r.name, r.hosts, r.wall_s, r.hosts_per_sec, r.events, r.events_per_sec
        );
    }
    // Looked up by name: the speedup ratio and the floor gate must not
    // silently follow a reordering of the rows array.
    let row = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("missing bench row `{name}`"))
    };
    let v1_full = row("v1_full");
    let v2_full = row("v2_full");
    let speedup = v1_full.wall_s / v2_full.wall_s;
    println!(
        "v2/v1 full-pipeline wall ratio: {:.2}x faster (v1 {:.3}s -> v2 {:.3}s)",
        speedup, v1_full.wall_s, v2_full.wall_s
    );
    // Fraction of the uninstrumented throughput that survives
    // summary-mode telemetry (1.0 = free; the floor gate wants ≥0.95).
    // Measured as alternating off/summary pairs, min-of-n each, so
    // shared-runner drift hits both arms equally — comparing two rows
    // timed minutes apart swings ±40% on a busy box, the paired ratio
    // does not.
    let telemetry_frac = {
        let summary_cfg = CampaignConfig {
            telemetry: TelemetryMode::Summary,
            ..base.clone()
        };
        let time_one = |cfg: &CampaignConfig| {
            let started = Instant::now();
            run_campaign(cfg, None::<&mut Vec<u8>>).expect("no sink, no error");
            started.elapsed().as_secs_f64()
        };
        // Median of the per-pair wall ratios: each ratio cancels
        // whatever drift its own pair saw, and the median discards the
        // pairs an interference spike hit — min-of-n per arm proved
        // ±5% flaky here, which a 0.95 gate cannot afford.
        let mut ratios: Vec<f64> = (0..runs.max(9))
            .map(|_| time_one(&base) / time_one(&summary_cfg))
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    };
    println!(
        "telemetry overhead (summary vs off, paired): {:.1}% ({:.3} of off throughput)",
        (1.0 - telemetry_frac) * 100.0,
        telemetry_frac
    );

    // Chaos-off overhead: the hostile-host machinery must be free when
    // nobody is hostile. `chaos_ppm: 0` skips the chaos stream
    // entirely; 1 ppm arms it (one extra RNG draw per host, ~0 hostile
    // hosts at this scale), so the pair isolates exactly what arming
    // the feature costs a cooperative campaign. Same paired
    // median-of-ratios discipline as the telemetry arm.
    let chaos_off_frac = {
        let armed = CampaignConfig {
            model: PopulationModel {
                chaos_ppm: 1,
                ..Default::default()
            },
            ..base.clone()
        };
        let time_one = |cfg: &CampaignConfig| {
            let started = Instant::now();
            run_campaign(cfg, None::<&mut Vec<u8>>).expect("no sink, no error");
            started.elapsed().as_secs_f64()
        };
        let mut ratios: Vec<f64> = (0..runs.max(9))
            .map(|_| time_one(&base) / time_one(&armed))
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    };
    println!(
        "chaos-off overhead (armed 1ppm vs off, paired): {:.1}% ({:.3} of off throughput)",
        (1.0 - chaos_off_frac) * 100.0,
        chaos_off_frac
    );

    // Orchestration overhead: the same v2 full pipeline driven by the
    // campaign orchestrator — shard planning, in-process supervision,
    // and a sealed checkpoint written at every shard boundary — vs the
    // plain engine call. Same paired median-of-ratios discipline as the
    // telemetry arm: per-pair ratios cancel shared-runner drift, the
    // median discards interference spikes.
    let campaign_shards = 4usize;
    let (campaign_frac, campaign_wall) = {
        let dir =
            std::env::temp_dir().join(format!("reorder_exp_scale_campaign_{}", std::process::id()));
        let spec = CampaignSpec {
            hosts,
            seed,
            samples: base.samples,
            rounds: base.rounds,
            technique: base.technique,
            baseline: base.baseline,
            amenability_only: base.amenability_only,
            gaps_us: base.gaps_us.clone(),
            reuse: base.reuse,
            sim_version: base.sim_version,
            shards: campaign_shards,
            jsonl: false,
            // Chaos off, default per-host budget: the overhead arm
            // times orchestration, not hostile-host handling.
            ..CampaignSpec::default()
        };
        let opts = CampaignOptions {
            inflight: 1, // serial shards, comparable to the 1-worker engine call
            ..CampaignOptions::default()
        };
        let runner = InProcessRunner {
            workers,
            telemetry: TelemetryMode::Off,
        };
        let time_plain = |cfg: &CampaignConfig| {
            let started = Instant::now();
            run_campaign(cfg, None::<&mut Vec<u8>>).expect("no sink, no error");
            started.elapsed().as_secs_f64()
        };
        let orchestrated = |wall_min: &mut f64| {
            let _ = std::fs::remove_dir_all(&dir);
            let started = Instant::now();
            let report = start(&dir, spec.clone(), &opts, &runner).expect("orchestrated run");
            let wall = started.elapsed().as_secs_f64();
            assert!(!report.interrupted && report.failed.is_empty());
            assert_eq!(report.checkpoint.agg.summary.hosts, hosts as u64);
            *wall_min = wall_min.min(wall);
            wall
        };
        let mut wall_min = f64::INFINITY;
        let mut ratios: Vec<f64> = (0..runs.max(9))
            .map(|_| time_plain(&base) / orchestrated(&mut wall_min))
            .collect();
        ratios.sort_by(f64::total_cmp);
        let _ = std::fs::remove_dir_all(&dir);
        (ratios[ratios.len() / 2], wall_min)
    };
    println!(
        "campaign orchestration overhead ({campaign_shards} shards, checkpoint per shard, \
         paired): {:.1}% ({:.3} of plain throughput, best {:.3}s)",
        (1.0 - campaign_frac) * 100.0,
        campaign_frac,
        campaign_wall
    );
    let rss = peak_rss_kb();
    if let Some(kb) = rss {
        println!("peak RSS (VmHWM proxy): {} kB", kb);
    }

    // Multi-core scaling: the same v2 full pipeline, summary-only (no
    // sink), at increasing worker counts. Recorded per worker count so
    // the scaling curve is a trajectory, not a claim.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!();
    println!("scaling (v2 full, summary-only / funnel-free; {cores} core(s) available):");
    rule(84);
    let scaling: Vec<(usize, Row)> = [
        ("scale_w1", 1),
        ("scale_w2", 2),
        ("scale_w4", 4),
        ("scale_w8", 8),
    ]
    .into_iter()
    .map(|(name, w)| {
        let cfg = CampaignConfig {
            workers: w,
            ..base_scaling.clone()
        };
        (w, measure(name, &cfg, runs))
    })
    .collect();
    println!(
        "{:<20} {:>7} {:>9} {:>11} {:>13}",
        "workers", "hosts", "wall s", "hosts/sec", "vs 1 worker"
    );
    rule(84);
    let w1_rate = scaling[0].1.hosts_per_sec;
    for (w, r) in &scaling {
        println!(
            "{:<20} {:>7} {:>9.3} {:>11.0} {:>12.2}x",
            w,
            r.hosts,
            r.wall_s,
            r.hosts_per_sec,
            r.hosts_per_sec / w1_rate
        );
    }

    // One traced run (summary telemetry, multi-worker where the box
    // allows) for the phase/worker breakdown the JSON record embeds —
    // separate from the perf rows above so instrumentation never
    // contaminates the recorded throughput trajectory.
    let traced_workers = cores.min(4);
    let traced_cfg = CampaignConfig {
        workers: traced_workers,
        telemetry: TelemetryMode::Summary,
        ..base_scaling
    };
    let traced_started = Instant::now();
    let traced = run_campaign(&traced_cfg, None::<&mut Vec<u8>>).expect("no sink, no error");
    let traced_wall = traced_started.elapsed().as_secs_f64();
    let merged = traced.telemetry.merged();
    println!();
    println!("phase breakdown ({traced_workers} worker(s), summary telemetry):");
    rule(84);
    println!(
        "{:<16} {:>9} {:>11} {:>13}",
        "span", "count", "total s", "mean ms"
    );
    rule(84);
    for (key, s) in merged.spans() {
        println!(
            "{:<16} {:>9} {:>11.3} {:>13.4}",
            key,
            s.count(),
            s.total_secs(),
            s.secs.mean() * 1e3
        );
    }
    let telemetry_doc = traced.telemetry.to_json(
        traced.summary.hosts,
        seed,
        traced.events,
        traced.stats.steals,
        traced_wall,
    );

    // Emit the JSON record.
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"scale\": \"{}\",\n  \"hosts\": {hosts},\n  \"seed\": {seed},\n  \"workers\": {workers},\n  \"peak_rss_kb\": {},\n  \"v2_speedup_over_v1\": {speedup:.2},\n  \"configs\": {{\n",
        scale.pick("full", "std", "quick"),
        rss.map_or("null".to_string(), |k| k.to_string()),
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"{}\": {{\"wall_s\": {:.4}, \"hosts_per_sec\": {:.1}, \"events\": {}, \"events_per_sec\": {:.0}}}{}",
            r.name,
            r.wall_s,
            r.hosts_per_sec,
            r.events,
            r.events_per_sec,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"available_cores\": {cores},");
    json.push_str("  \"scaling\": {\n");
    for (i, (w, r)) in scaling.iter().enumerate() {
        let _ = writeln!(
            json,
            "    \"workers_{w}\": {{\"wall_s\": {:.4}, \"hosts_per_sec\": {:.1}, \"speedup_vs_w1\": {:.2}}}{}",
            r.wall_s,
            r.hosts_per_sec,
            r.hosts_per_sec / w1_rate,
            if i + 1 < scaling.len() { "," } else { "" },
        );
    }
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"telemetry_overhead_frac\": {telemetry_frac:.3},");
    let _ = writeln!(json, "  \"chaos_off_overhead_frac\": {chaos_off_frac:.3},");
    let _ = writeln!(
        json,
        "  \"campaign\": {{\"shards\": {campaign_shards}, \"wall_s\": {campaign_wall:.4}, \
         \"hosts_per_sec\": {:.1}, \"overhead_frac\": {campaign_frac:.3}}},",
        hosts as f64 / campaign_wall
    );
    let _ = writeln!(json, "  \"telemetry\": {}", telemetry_doc.trim_end());
    json.push_str("}\n");
    let out_path =
        std::env::var("REORDER_BENCH_OUT").unwrap_or_else(|_| "BENCH_campaign.json".to_string());
    std::fs::write(&out_path, &json).expect("writing BENCH_campaign.json");
    println!("wrote {out_path}");

    // Regression gate against the checked-in floor, when asked. Both
    // versions are gated: v2 so the stationary sampler's win cannot
    // silently erode, v1 so the frozen replay path stays usable.
    if let Ok(floor_path) = std::env::var("REORDER_BENCH_FLOOR") {
        let floor_text = std::fs::read_to_string(&floor_path)
            .unwrap_or_else(|e| panic!("reading floor {floor_path}: {e}"));
        let mut failed = false;
        for (name, row) in [
            ("v1_full", v1_full),
            ("v2_full", v2_full),
            ("v2_chaos20", row("v2_chaos20")),
        ] {
            let key = format!(
                "{}_{name}_hosts_per_sec",
                scale.pick("full", "std", "quick")
            );
            let floor = json_number(&floor_text, &key)
                .unwrap_or_else(|| panic!("floor {floor_path} missing `{key}`"));
            let got = row.hosts_per_sec;
            let limit = floor * 0.7;
            println!(
                "floor gate [{name}]: {got:.0} hosts/sec vs floor {floor:.0} (fail under {limit:.0})"
            );
            if got < limit {
                eprintln!(
                    "FAIL: {name} pipeline throughput regressed more than 30% below \
                     the floor ({got:.0} < {limit:.0} hosts/sec; floor {floor:.0} from {floor_path})"
                );
                failed = true;
            }
        }
        // Scaling gate: the funnel-free path must never make adding
        // workers a net loss. The floor is a fraction of the summary-only
        // 1-worker rate that the *best* multi-worker run must clear —
        // honest on a 1-core runner (where the best achievable is ~1x
        // minus scheduling overhead) while still catching a contended
        // merge or a reintroduced funnel (which would tank every
        // multi-worker row, not just dent it).
        let frac_key = format!("{}_scaling_floor_frac", scale.pick("full", "std", "quick"));
        if let Some(frac) = json_number(&floor_text, &frac_key) {
            let w1 = scaling[0].1.hosts_per_sec;
            let best = scaling[1..]
                .iter()
                .map(|(_, r)| r.hosts_per_sec)
                .fold(f64::NEG_INFINITY, f64::max);
            let limit = w1 * frac;
            println!(
                "floor gate [scaling]: best multi-worker {best:.0} hosts/sec vs \
                 {frac:.2} x w1 ({w1:.0}) = {limit:.0}"
            );
            if best < limit {
                eprintln!(
                    "FAIL: multi-worker throughput collapsed ({best:.0} < {limit:.0} \
                     hosts/sec; w1 {w1:.0}, frac {frac} from {floor_path})"
                );
                failed = true;
            }
        }
        // Telemetry gate: summary-mode instrumentation must keep at
        // least `frac` of the uninstrumented full-pipeline throughput
        // (the tentpole's ≤5% overhead budget, as a recorded floor
        // rather than a claim). Both rows are min-of-n from the same
        // process, so the ratio is far less runner-noisy than the
        // absolute hosts/sec floors above.
        let tel_key = format!(
            "{}_telemetry_floor_frac",
            scale.pick("full", "std", "quick")
        );
        if let Some(frac) = json_number(&floor_text, &tel_key) {
            println!(
                "floor gate [telemetry]: {telemetry_frac:.3} of off throughput vs floor {frac:.2}"
            );
            if telemetry_frac < frac {
                eprintln!(
                    "FAIL: summary telemetry costs too much ({:.1}% > {:.1}% overhead \
                     budget; frac {frac} from {floor_path})",
                    (1.0 - telemetry_frac) * 100.0,
                    (1.0 - frac) * 100.0,
                );
                failed = true;
            }
        }
        // Campaign gate: orchestration (supervision + a checkpoint per
        // shard boundary) must keep at least `frac` of the plain
        // engine's throughput — the tentpole's ≤5% resume-overhead
        // budget as a recorded floor. Paired median-of-ratios, same
        // noise argument as the telemetry gate.
        let camp_key = format!("{}_campaign_floor_frac", scale.pick("full", "std", "quick"));
        if let Some(frac) = json_number(&floor_text, &camp_key) {
            println!(
                "floor gate [campaign]: {campaign_frac:.3} of plain throughput vs floor {frac:.2}"
            );
            if campaign_frac < frac {
                eprintln!(
                    "FAIL: campaign orchestration costs too much ({:.1}% > {:.1}% overhead \
                     budget; frac {frac} from {floor_path})",
                    (1.0 - campaign_frac) * 100.0,
                    (1.0 - frac) * 100.0,
                );
                failed = true;
            }
        }
        // Chaos-off gate: arming the hostile-host machinery with ~0
        // hostile hosts must keep at least `frac` of the chaos-off
        // throughput — the tentpole's "chaos-off hot path unchanged"
        // claim as a recorded floor (≤1% on the standard row). Same
        // paired median-of-ratios noise argument as the telemetry gate.
        let chaos_key = format!("{}_chaos_floor_frac", scale.pick("full", "std", "quick"));
        if let Some(frac) = json_number(&floor_text, &chaos_key) {
            println!(
                "floor gate [chaos-off]: {chaos_off_frac:.3} of off throughput vs floor {frac:.2}"
            );
            if chaos_off_frac < frac {
                eprintln!(
                    "FAIL: chaos-off overhead too high ({:.1}% > {:.1}% budget; \
                     frac {frac} from {floor_path})",
                    (1.0 - chaos_off_frac) * 100.0,
                    (1.0 - frac) * 100.0,
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
}
