//! `exp_scale` — the campaign perf gates. perfbench (`perfbench/`,
//! declared in `BENCHMARK.json`) is the record of throughput, with run
//! health and an output check on every run; this binary keeps only the
//! six gates CI runs against the checked-in `BENCH_floor.json`:
//!
//! * `v2_full` and `v2_chaos20`: hosts/sec of the full pipeline over a
//!   cooperative and a 20%-hostile population, min-of-n wall time;
//!   each fails more than 30% below `{scale}_{row}_hosts_per_sec`. The
//!   rows keep their `v2_` names from when a replayed-cross-traffic v1
//!   format ran beside them, so the floors stay comparable.
//! * `scaling`: the best 2/4/8-worker hosts/sec must clear
//!   `{scale}_scaling_floor_frac` × the 1-worker rate.
//! * `telemetry`, `chaos-off` and `campaign`: paired ratios (see
//!   [`paired_ratio`]) that must clear their `{scale}_*_floor_frac`.
//!
//! `REORDER_SCALE=quick|std|full` picks 120 / 1000 / 5000 hosts;
//! `REORDER_BENCH_RUNS=<n>` sets n for the min-of-n rows (default 1).
//! Without `REORDER_BENCH_FLOOR=<path>` the measurements are printed
//! and nothing is gated; with it, any gate under its bound exits 1.

use reorder_bench::{rule, Scale};
use reorder_campaign::{start, CampaignOptions, CampaignSpec, InProcessRunner};
use reorder_survey::{run_campaign, CampaignConfig, PopulationModel, TelemetryMode};
use std::time::Instant;

/// Wall seconds of one plain engine run (no sink, so it cannot fail).
fn plain(cfg: &CampaignConfig) -> f64 {
    let started = Instant::now();
    let out = run_campaign(cfg, None::<&mut Vec<u8>>).expect("no sink, no error");
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(out.summary.hosts, cfg.hosts as u64);
    wall
}

/// Hosts/sec of `cfg` from its min-of-`runs` wall time.
fn hosts_per_sec(cfg: &CampaignConfig, runs: usize) -> f64 {
    let wall = (0..runs.max(1))
        .map(|_| plain(cfg))
        .fold(f64::INFINITY, f64::min);
    cfg.hosts as f64 / wall
}

/// The throughput of arm `b` as a fraction of arm `a`'s: the median of
/// `wall(a) / wall(b)` over `max(runs, 9)` alternating pairs. Each
/// pair's ratio cancels whatever drift that pair saw, and the median
/// discards the pairs an interference spike hit; comparing two min-of-n
/// rows timed apart swings ±5% on a shared box, which a 0.95 gate
/// cannot afford.
fn paired_ratio(runs: usize, mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> f64 {
    let mut ratios: Vec<f64> = (0..runs.max(9)).map(|_| a() / b()).collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// Extract `"key": <number>` from a JSON-ish text without a parser
/// (the floor file is written by hand in a fixed shape).
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
    let scale_name = scale.pick("full", "std", "quick");
    let hosts = scale.pick(5000, 1000, 120);
    let seed = 1u64;
    let runs: usize = std::env::var("REORDER_BENCH_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let base = CampaignConfig {
        hosts,
        workers: 1,
        seed,
        ..CampaignConfig::default()
    };
    let chaos = |chaos_ppm| CampaignConfig {
        model: PopulationModel {
            chaos_ppm,
            ..Default::default()
        },
        ..base.clone()
    };

    println!("exp_scale: campaign gates at {hosts} hosts (seed {seed}, 1 worker, min-of-{runs})");
    rule(84);
    let full = hosts_per_sec(&base, runs);
    // Hostile hosts burn their budget and abort early, so this row
    // tracks what a survey of an uncooperative internet costs.
    let chaos20 = hosts_per_sec(&chaos(200_000), runs);
    println!("v2_full:    {full:.0} hosts/sec");
    println!("v2_chaos20: {chaos20:.0} hosts/sec");

    // Summary-mode instrumentation against none: observation must stay
    // within its ≤5% budget.
    let summary = CampaignConfig {
        telemetry: TelemetryMode::Summary,
        ..base.clone()
    };
    let telemetry_frac = paired_ratio(runs, || plain(&base), || plain(&summary));
    println!(
        "telemetry overhead (summary vs off, paired): {:.1}% ({telemetry_frac:.3} of off throughput)",
        (1.0 - telemetry_frac) * 100.0
    );

    // The hostile-host machinery must be free when nobody is hostile:
    // `chaos_ppm: 0` skips the chaos stream entirely, 1 ppm arms it
    // (one extra RNG draw per host, ~0 hostile hosts at this scale).
    let armed = chaos(1);
    let chaos_off_frac = paired_ratio(runs, || plain(&base), || plain(&armed));
    println!(
        "chaos-off overhead (armed 1ppm vs off, paired): {:.1}% ({chaos_off_frac:.3} of off throughput)",
        (1.0 - chaos_off_frac) * 100.0
    );

    // The same pipeline driven by the orchestrator — shard planning,
    // in-process supervision and a sealed checkpoint at every shard
    // boundary — against the plain engine call.
    let campaign_shards = 4usize;
    let dir =
        std::env::temp_dir().join(format!("reorder_exp_scale_campaign_{}", std::process::id()));
    let spec = CampaignSpec {
        hosts,
        seed,
        shards: campaign_shards,
        jsonl: false,
        // Chaos off, default per-host budget: the arm times
        // orchestration, not hostile-host handling.
        ..CampaignSpec::default()
    };
    let opts = CampaignOptions {
        inflight: 1, // serial shards, comparable to the 1-worker engine call
        ..CampaignOptions::default()
    };
    let runner = InProcessRunner {
        workers: 1,
        telemetry: TelemetryMode::Off,
    };
    let orchestrated = || {
        let _ = std::fs::remove_dir_all(&dir);
        let started = Instant::now();
        let report = start(&dir, spec.clone(), &opts, &runner).expect("orchestrated run");
        let wall = started.elapsed().as_secs_f64();
        assert!(!report.interrupted && report.failed.is_empty());
        assert_eq!(report.checkpoint.agg.summary.hosts, hosts as u64);
        wall
    };
    let campaign_frac = paired_ratio(runs, || plain(&base), orchestrated);
    let _ = std::fs::remove_dir_all(&dir);
    println!(
        "campaign orchestration overhead ({campaign_shards} shards, checkpoint per shard, \
         paired): {:.1}% ({campaign_frac:.3} of plain throughput)",
        (1.0 - campaign_frac) * 100.0
    );

    // The same full pipeline, summary-only (no sink), at increasing
    // worker counts.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!();
    println!("scaling (full pipeline, summary-only; {cores} core(s) available):");
    rule(84);
    let scaling: Vec<(usize, f64)> = [1, 2, 4, 8]
        .into_iter()
        .map(|workers| {
            let cfg = CampaignConfig {
                workers,
                ..base.clone()
            };
            (workers, hosts_per_sec(&cfg, runs))
        })
        .collect();
    let w1 = scaling[0].1;
    for (workers, rate) in &scaling {
        println!(
            "{workers} worker(s): {rate:>8.0} hosts/sec  {:.2}x",
            rate / w1
        );
    }

    let Ok(floor_path) = std::env::var("REORDER_BENCH_FLOOR") else {
        return;
    };
    let floor_text = std::fs::read_to_string(&floor_path)
        .unwrap_or_else(|e| panic!("reading floor {floor_path}: {e}"));
    let floor = |key: &str| json_number(&floor_text, &format!("{scale_name}_{key}"));
    let mut failed = false;

    for (name, got) in [("v2_full", full), ("v2_chaos20", chaos20)] {
        let key = format!("{name}_hosts_per_sec");
        let bound = floor(&key)
            .unwrap_or_else(|| panic!("floor {floor_path} missing `{scale_name}_{key}`"));
        let limit = bound * 0.7;
        println!(
            "floor gate [{name}]: {got:.0} hosts/sec vs floor {bound:.0} (fail under {limit:.0})"
        );
        if got < limit {
            eprintln!(
                "FAIL: {name} pipeline throughput regressed more than 30% below \
                 the floor ({got:.0} < {limit:.0} hosts/sec; floor {bound:.0} from {floor_path})"
            );
            failed = true;
        }
    }

    // The funnel-free path must never make adding workers a net loss.
    // A fraction of the 1-worker rate is runner-portable: on a 1-core
    // box the best multi-worker run is ~1x minus scheduling overhead,
    // while a contended merge or a reintroduced funnel tanks every
    // multi-worker row.
    if let Some(frac) = floor("scaling_floor_frac") {
        let best = scaling[1..]
            .iter()
            .map(|&(_, rate)| rate)
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

    for (name, key, got, arm, what) in [
        (
            "telemetry",
            "telemetry_floor_frac",
            telemetry_frac,
            "off",
            "summary telemetry costs too much",
        ),
        (
            "campaign",
            "campaign_floor_frac",
            campaign_frac,
            "plain",
            "campaign orchestration costs too much",
        ),
        (
            "chaos-off",
            "chaos_floor_frac",
            chaos_off_frac,
            "off",
            "chaos-off overhead too high",
        ),
    ] {
        let Some(frac) = floor(key) else { continue };
        println!("floor gate [{name}]: {got:.3} of {arm} throughput vs floor {frac:.2}");
        if got < frac {
            eprintln!(
                "FAIL: {what} ({:.1}% > {:.1}% overhead budget; frac {frac} from {floor_path})",
                (1.0 - got) * 100.0,
                (1.0 - frac) * 100.0,
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
