//! Subcommand implementations.

use crate::args::{ArgError, Args};
use reorder_campaign::{
    atomic_write, AtomicFile, CampaignOptions, CampaignSpec, InProcessRunner, ProcessRunner,
    ShardRunner,
};
use reorder_core::metrics::ReorderEstimate;
use reorder_core::sample::TestConfig;
use reorder_core::scenario;
use reorder_core::validate::validate_run;
use reorder_core::{technique, Measurer, Session, TestKind};
use reorder_netsim::pipes::{ArqConfig, CrossTraffic};
use reorder_survey::report::jsonl_line;
use reorder_survey::scheduler::{run_chunked, RunProbe};
use reorder_survey::{
    run_campaign_with, Budget, CampaignConfig, CampaignTelemetry, PopulationModel, ShardAggregator,
    ShardState, TechniqueChoice, TelemetryMode,
};
use reorder_tcpstack::HostPersonality;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn personality(name: &str) -> Result<HostPersonality, ArgError> {
    Ok(match name {
        "freebsd4" => HostPersonality::freebsd4(),
        "linux22" => HostPersonality::linux22(),
        "linux24" => HostPersonality::linux24(),
        "openbsd3" => HostPersonality::openbsd3(),
        "solaris8" => HostPersonality::solaris8(),
        "windows2000" => HostPersonality::windows2000(),
        "hardened" => HostPersonality::hardened(),
        other => return Err(ArgError(format!("unknown personality `{other}`"))),
    })
}

/// The techniques `measure` accepts (no `auto` — a canned rig has no
/// amenability question). Parsing goes through `TestKind::from_str`,
/// the registry's one string-keyed entry point; an unknown value is an
/// [`ArgError`] listing the accepted set, never silently ignored. Both
/// single-connection variants are explicit: `single` is the in-order
/// variant, `single-rev` the delayed-ACK-proof reversed one.
fn measure_technique(name: &str) -> Result<TestKind, ArgError> {
    name.parse()
        .map_err(|e: reorder_core::UnknownTestKind| ArgError(e.to_string()))
}

fn fmt_estimate(label: &str, e: ReorderEstimate) -> String {
    let (lo, hi) = e.wilson_ci(1.96);
    format!(
        "{label}: {:.2}% [{:.2}%, {:.2}%] ({}/{})",
        e.rate() * 100.0,
        lo * 100.0,
        hi * 100.0,
        e.reordered,
        e.total
    )
}

/// `reorder measure`.
pub fn measure(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "technique",
        "fwd",
        "rev",
        "samples",
        "gap-us",
        "personality",
        "lb",
        "seed",
    ])?;
    let kind = measure_technique(args.get("technique").unwrap_or("single"))?;
    let fwd: f64 = args.get_or("fwd", 0.10)?;
    let rev: f64 = args.get_or("rev", 0.05)?;
    let samples: usize = args.get_or("samples", 100)?;
    let gap_us: u64 = args.get_or("gap-us", 0)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let backends: usize = args.get_or("lb", 1)?;
    let pers = personality(args.get("personality").unwrap_or("freebsd4"))?;

    let mut sc = if backends > 1 {
        scenario::load_balanced(fwd, rev, backends, pers, seed)
    } else {
        scenario::validation_rig_with(fwd, rev, pers, seed)
    };
    let cfg = if kind == TestKind::DataTransfer {
        TestConfig::default() // object size, not `samples`, sets the count
    } else {
        TestConfig {
            samples,
            gap: Duration::from_micros(gap_us),
            ..TestConfig::default()
        }
    };
    println!(
        "path: swap fwd {:.1}% / rev {:.1}%, {} backend(s), seed {}",
        fwd * 100.0,
        rev * 100.0,
        backends,
        seed
    );
    let mut session = Session::new(&mut sc.prober, sc.target, 80);
    match Measurer::new(kind).with_config(cfg).run(&mut session) {
        Ok(m) => {
            println!("technique: {kind}, {} samples", m.samples);
            println!("  {}", fmt_estimate("forward", m.fwd));
            println!("  {}", fmt_estimate("reverse", m.rev));
            Ok(())
        }
        Err(e) => Err(ArgError(format!("measurement failed: {e}"))),
    }
}

/// Parse `--workers` for every worker-taking command: `auto` (the
/// default — resolve to all available cores via
/// `std::thread::available_parallelism`) or a positive thread count.
/// `0` and anything unparseable get an error naming the accepted
/// forms rather than being silently coerced.
fn parse_workers(args: &Args) -> Result<usize, ArgError> {
    match args.get("workers") {
        // A bare `--workers` parses as a switch; don't let it silently
        // mean auto.
        None if args.switch("workers") => Err(ArgError(
            "--workers needs a value (accepted: auto | positive thread count)".into(),
        )),
        None | Some("auto") => Ok(0), // engine convention: 0 = all cores
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(ArgError(format!(
                "invalid --workers `{v}` (accepted: auto | positive thread count)"
            ))),
        },
    }
}

/// `reorder profile`. Sweep points are independent path realizations
/// (each gap seeds its own scenario), so the sweep fans out across
/// `--workers` threads; results print in gap order regardless of
/// completion order, making the output identical to a serial sweep.
pub fn profile(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "mechanism",
        "samples",
        "max-us",
        "step-us",
        "seed",
        "workers",
        "csv",
    ])?;
    let mechanism = args.get("mechanism").unwrap_or("striping").to_string();
    if !["striping", "multipath", "arq"].contains(&mechanism.as_str()) {
        return Err(ArgError(format!("unknown mechanism `{mechanism}`")));
    }
    let samples: usize = args.get_or("samples", 300)?;
    let max_us: u64 = args.get_or("max-us", 300)?;
    let step_us: u64 = args.get_or("step-us", 25)?.max(1);
    let seed: u64 = args.get_or("seed", 1)?;
    let workers = parse_workers(args)?;
    let csv = args.switch("csv");

    if csv {
        println!("gap_us,reordered,samples,rate");
    } else {
        println!("gap profile over `{mechanism}` path ({samples} samples/point)");
        println!("{:>8} {:>8}  bar", "gap(us)", "rate");
    }
    let gaps: Vec<u64> = (0..=max_us / step_us).map(|i| i * step_us).collect();
    let mechanism = &mechanism;
    let mut sweep_err: Option<ArgError> = None;
    run_chunked(
        gaps.len(),
        workers,
        |_| ((), ()),
        |_, _, rows: &mut Vec<Result<String, String>>, i| {
            let gap = gaps[i];
            let mut sc = match mechanism.as_str() {
                "striping" => scenario::striped_path_with(
                    2,
                    1_000_000_000,
                    CrossTraffic::backbone(),
                    HostPersonality::freebsd4(),
                    seed + gap,
                ),
                "multipath" => scenario::multipath_path(Duration::from_micros(80), seed + gap),
                "arq" => scenario::wireless_path(ArqConfig::default(), seed + gap),
                _ => unreachable!("mechanism validated above"),
            };
            let cfg = TestConfig {
                samples,
                gap: Duration::from_micros(gap),
                pace: Duration::from_millis(2),
                reply_timeout: Duration::from_millis(900),
                ..TestConfig::default()
            };
            let mut session = Session::new(&mut sc.prober, sc.target, 80);
            let row = Measurer::new(TestKind::DualConnection)
                .with_config(cfg)
                .run(&mut session)
                .map(|m| {
                    let est = m.fwd;
                    if csv {
                        format!("{gap},{},{},{:.6}", est.reordered, est.total, est.rate())
                    } else {
                        format!(
                            "{gap:>8} {:>7.2}%  {}",
                            est.rate() * 100.0,
                            "#".repeat((est.rate() * 300.0).round() as usize)
                        )
                    }
                })
                .map_err(|e| format!("measurement failed at gap {gap}us: {e}"));
            rows.push(row);
        },
        |rows| {
            for row in rows {
                match row {
                    Ok(line) => println!("{line}"),
                    Err(e) => {
                        sweep_err = Some(ArgError(e));
                        return std::ops::ControlFlow::Break(());
                    }
                }
            }
            std::ops::ControlFlow::Continue(())
        },
        &RunProbe::disabled(),
    );
    match sweep_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Parse `--shard K/N` ("2/4"): 1-based shard K of N. The engine's
/// contiguous split guarantees that concatenating the JSONL outputs of
/// shards 1..=N reproduces the unsharded report byte-for-byte. Every
/// rejection — missing `/`, non-integers, `N = 0`, `K = 0`, `K > N` —
/// names the accepted form, mirroring [`parse_workers`].
fn parse_shard(s: &str) -> Result<(usize, usize), ArgError> {
    let bad = || {
        ArgError(format!(
            "invalid --shard `{s}` (accepted: K/N, the 1-based shard K of N \
             with 1 <= K <= N, e.g. 2/4)"
        ))
    };
    let (k, n) = s.split_once('/').ok_or_else(bad)?;
    let k: usize = k.trim().parse().map_err(|_| bad())?;
    let n: usize = n.trim().parse().map_err(|_| bad())?;
    if n >= 1 && (1..=n).contains(&k) {
        Ok((k, n))
    } else {
        Err(bad())
    }
}

/// Parse a comma-separated list of µs gaps ("0,100,300").
fn parse_gaps(s: &str) -> Result<Vec<u64>, ArgError> {
    s.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.parse()
                .map_err(|_| ArgError(format!("invalid gap `{t}` in --gaps-us (want µs integers)")))
        })
        .collect()
}

/// The `--jsonl` sink: stdout streams directly, files stage through an
/// [`AtomicFile`] so an interrupted survey leaves the previous report
/// (or nothing) rather than a truncated, valid-looking prefix.
enum JsonlSink {
    Stdout(std::io::BufWriter<std::io::Stdout>),
    File(AtomicFile),
}

impl std::io::Write for JsonlSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            JsonlSink::Stdout(w) => w.write(buf),
            JsonlSink::File(w) => w.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            JsonlSink::Stdout(w) => w.flush(),
            JsonlSink::File(w) => w.flush(),
        }
    }
}

/// `reorder survey` — the sharded campaign engine (`reorder-survey`)
/// run over a generated host population. Output on stdout is
/// byte-identical across reruns and worker counts for a fixed seed;
/// timing goes to stderr.
pub fn survey(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "hosts",
        "workers",
        "rounds",
        "samples",
        "seed",
        "technique",
        "jsonl",
        "gaps-us",
        "no-baseline",
        "no-reuse",
        "amenability-only",
        "per-host",
        "shard",
        "shard-state",
        "chaos",
        "host-deadline-ms",
        "host-retries",
        "host-backoff-ms",
        "telemetry",
        "metrics",
        "progress",
    ])?;
    let metrics = args.get("metrics");
    let telemetry = match args.get("telemetry") {
        Some(name) => {
            let mode = TelemetryMode::parse(name).map_err(ArgError)?;
            if metrics.is_some() && !mode.is_enabled() {
                return Err(ArgError(
                    "--metrics needs telemetry: drop `--telemetry off` or pass summary/full"
                        .to_string(),
                ));
            }
            mode
        }
        // `--metrics` without an explicit mode means "measure, cheaply".
        None if metrics.is_some() => TelemetryMode::Summary,
        None => TelemetryMode::Off,
    };
    let cfg = CampaignConfig {
        hosts: args.get_or("hosts", 50)?,
        workers: parse_workers(args)?,
        rounds: args.get_or("rounds", 1)?,
        samples: args.get_or("samples", 15)?,
        seed: args.get_or("seed", 77)?,
        technique: TechniqueChoice::parse(args.get("technique").unwrap_or("auto"))
            .map_err(ArgError)?,
        baseline: !args.switch("no-baseline"),
        reuse: !args.switch("no-reuse"),
        amenability_only: args.switch("amenability-only"),
        gaps_us: parse_gaps(args.get("gaps-us").unwrap_or(""))?,
        shard: args.get("shard").map(parse_shard).transpose()?,
        telemetry,
        progress: args.switch("progress"),
        model: PopulationModel {
            chaos_ppm: parse_chaos(args)?,
            ..Default::default()
        },
        budget: {
            let (deadline_ms, retries, backoff_ms) = parse_budget(args)?;
            Budget {
                deadline: Duration::from_millis(deadline_ms),
                max_retries: retries,
                backoff: Duration::from_millis(backoff_ms),
            }
        },
        ..CampaignConfig::default()
    };

    let started = std::time::Instant::now();
    // `--jsonl -` streams the per-host lines to stdout; human-facing
    // output (per-host table, summary) then moves to stderr so the
    // JSONL stream stays machine-parseable byte-for-byte.
    let jsonl_on_stdout = args.get("jsonl") == Some("-");
    let mut sink: Option<JsonlSink> = match args.get("jsonl") {
        Some("-") => Some(JsonlSink::Stdout(
            std::io::BufWriter::new(std::io::stdout()),
        )),
        Some(path) => Some(JsonlSink::File(
            AtomicFile::create(Path::new(path))
                .map_err(|e| ArgError(format!("creating {path}: {e}")))?,
        )),
        None => None,
    };
    // Workers render each host's JSONL line and `--per-host` table row
    // into their chunk; this thread only writes the JSONL bytes and
    // collects the rows, both in host-id order.
    let per_host = args.switch("per-host");
    let jsonl = sink.is_some();
    let mut table = String::new();
    let out = run_campaign_with(
        &cfg,
        |r, (lines, rows): &mut (Vec<u8>, String)| {
            if jsonl {
                lines.extend_from_slice(jsonl_line(&r).as_bytes());
                lines.push(b'\n');
            }
            if per_host {
                use std::fmt::Write as _;
                let _ = writeln!(
                    rows,
                    "{:<22} {:<12} {:<13} {:>10} {:>8.2}% {:>8.2}% {:>12}",
                    r.spec.name,
                    r.spec.personality.name,
                    r.verdict.map_or("probe-failed", |v| v.label()),
                    r.technique,
                    r.fwd.rate() * 100.0,
                    r.rev.rate() * 100.0,
                    if r.reachable { "ok" } else { "unreachable" }
                );
            }
        },
        |(lines, rows)| {
            use std::io::Write as _;
            table.push_str(&rows);
            sink.as_mut().map_or(Ok(()), |w| w.write_all(&lines))
        },
    )
    .map_err(|e| ArgError(format!("writing JSONL report: {e}")))?;
    match sink {
        Some(JsonlSink::Stdout(mut w)) => {
            use std::io::Write as _;
            w.flush()
                .map_err(|e| ArgError(format!("writing JSONL report: {e}")))?;
        }
        // The file only appears once every line is in it.
        Some(JsonlSink::File(f)) => f
            .commit()
            .map_err(|e| ArgError(format!("writing JSONL report: {e}")))?,
        None => {}
    }
    let wall = started.elapsed();

    // `--shard-state` turns this invocation into a campaign worker: the
    // sealed exact state goes to the file (atomically), and the human
    // rendering is suppressed — the orchestrator merges and renders.
    let shard_state = args.get("shard-state");
    if let Some(path) = shard_state {
        let (shard, shards) = cfg.shard.unwrap_or((1, 1));
        let state = ShardState {
            shard,
            shards,
            agg: ShardAggregator {
                summary: out.summary.clone(),
                events: out.events,
            },
            telemetry: out.telemetry.merged(),
            steals: out.stats.steals,
        };
        atomic_write(Path::new(path), format!("{}\n", state.to_json()).as_bytes())
            .map_err(|e| ArgError(format!("writing shard state {path}: {e}")))?;
    }

    let mut human = String::new();
    if per_host {
        use std::fmt::Write as _;
        let _ = writeln!(
            human,
            "{:<22} {:<12} {:<13} {:>10} {:>9} {:>9} {:>12}",
            "host", "personality", "verdict", "technique", "fwd", "rev", "status"
        );
        human.push_str(&table);
    }
    human.push_str(&out.summary.render());
    if shard_state.is_some() {
        // Worker mode: no human rendering; the state file is the output.
    } else if jsonl_on_stdout {
        eprint!("{human}");
    } else {
        print!("{human}");
    }
    eprintln!(
        "campaign: {} hosts in {:.2}s on {} worker(s), {} steal(s), {} event(s), {:.0} events/s",
        cfg.hosts,
        wall.as_secs_f64(),
        out.stats.workers,
        out.stats.steals,
        out.events,
        out.events as f64 / wall.as_secs_f64().max(1e-9),
    );

    if let Some(target) = metrics {
        let doc = out.telemetry.to_json(
            out.summary.hosts,
            cfg.seed,
            out.events,
            out.stats.steals,
            wall.as_secs_f64(),
        );
        if target == "-" {
            println!("{doc}");
        } else {
            atomic_write(Path::new(target), (doc + "\n").as_bytes())
                .map_err(|e| ArgError(format!("writing {target}: {e}")))?;
        }
    }
    Ok(())
}

/// Parse `--fail-after-shards` / `REORDER_FAIL_AFTER_SHARDS` (flag
/// wins): the deterministic fault-injection hook — the supervisor
/// stops, as a crash would, after that many checkpoint writes.
fn parse_fail_after(args: &Args) -> Result<Option<usize>, ArgError> {
    let (origin, value) = match args.get("fail-after-shards") {
        Some(v) => ("--fail-after-shards".to_string(), v.to_string()),
        None => match std::env::var("REORDER_FAIL_AFTER_SHARDS") {
            Ok(v) => ("REORDER_FAIL_AFTER_SHARDS".to_string(), v),
            Err(_) => return Ok(None),
        },
    };
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(ArgError(format!(
            "invalid {origin} `{value}` (accepted: positive shard count)"
        ))),
    }
}

/// Parse a fraction-or-percent value (`0.2` or `20%`) in `0..=1`.
fn parse_fraction(flag: &str, raw: &str) -> Result<f64, ArgError> {
    let bad = || {
        ArgError(format!(
            "invalid --{flag} `{raw}` (accepted: a fraction like 0.2, or a \
             percentage like 20%, between 0 and 1)"
        ))
    };
    let f = match raw.trim().strip_suffix('%') {
        Some(pct) => pct.trim().parse::<f64>().map_err(|_| bad())? / 100.0,
        None => raw.trim().parse::<f64>().map_err(|_| bad())?,
    };
    if f.is_finite() && (0.0..=1.0).contains(&f) {
        Ok(f)
    } else {
        Err(bad())
    }
}

/// Parse `--chaos MIX`: the hostile-host fraction of the generated
/// population, stored as integer parts-per-million so equal mixes
/// hash to equal campaign fingerprints. Absent (or zero) means the
/// population generator never touches its chaos stream.
fn parse_chaos(args: &Args) -> Result<u32, ArgError> {
    match args.get("chaos") {
        None if args.switch("chaos") => Err(ArgError(
            "--chaos needs a value (accepted: a fraction like 0.2, or a percentage like 20%)"
                .into(),
        )),
        None => Ok(0),
        Some(raw) => Ok((parse_fraction("chaos", raw)? * 1e6).round() as u32),
    }
}

/// Parse the per-host budget flags shared by `survey` and `campaign`:
/// `--host-deadline-ms` (simulated time one host may consume),
/// `--host-retries` (transient-failure retries per round) and
/// `--host-backoff-ms` (base backoff, doubled per retry). Defaults are
/// [`Budget::default`], generous enough that cooperative hosts never
/// notice them.
fn parse_budget(args: &Args) -> Result<(u64, u32, u64), ArgError> {
    let d = Budget::default();
    let deadline_ms: u64 = args.get_or("host-deadline-ms", d.deadline.as_millis() as u64)?;
    if deadline_ms == 0 {
        return Err(ArgError(
            "invalid --host-deadline-ms `0` (accepted: positive milliseconds of \
             simulated time)"
                .into(),
        ));
    }
    Ok((
        deadline_ms,
        args.get_or("host-retries", d.max_retries)?,
        args.get_or("host-backoff-ms", d.backoff.as_millis() as u64)?,
    ))
}

/// Parse `--max-host-failures FRAC`: the honest-exit threshold. A
/// finished campaign whose failed-host fraction exceeds it still
/// finalizes every output, then exits nonzero.
fn parse_max_host_failures(args: &Args) -> Result<Option<f64>, ArgError> {
    match args.get("max-host-failures") {
        None if args.switch("max-host-failures") => Err(ArgError(
            "--max-host-failures needs a value (accepted: a fraction like 0.05, \
             or a percentage like 5%)"
                .into(),
        )),
        None => Ok(None),
        Some(raw) => parse_fraction("max-host-failures", raw).map(Some),
    }
}

/// `reorder campaign` — the crash-safe orchestrator
/// (`reorder-campaign`) around the survey engine: plans `--hosts` as
/// `--shards` shard tasks, fans them out across worker processes
/// (spawned `reorder survey --shard K/N --shard-state FILE`
/// invocations; `--in-process` supervises library calls instead),
/// retries failures with backoff, and checkpoints after every shard so
/// `--resume DIR` continues losslessly — the merged summary and
/// concatenated JSONL are byte-identical to an uninterrupted run.
pub fn campaign(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "dir",
        "resume",
        "hosts",
        "seed",
        "samples",
        "rounds",
        "technique",
        "gaps-us",
        "no-baseline",
        "no-reuse",
        "amenability-only",
        "chaos",
        "host-deadline-ms",
        "host-retries",
        "host-backoff-ms",
        "shards",
        "jsonl",
        "workers",
        "inflight",
        "retries",
        "backoff-ms",
        "max-host-failures",
        "in-process",
        "fail-after-shards",
        "telemetry",
        "metrics",
        "progress",
    ])?;
    let metrics = args.get("metrics");
    let telemetry = match args.get("telemetry") {
        Some(name) => {
            let mode = TelemetryMode::parse(name).map_err(ArgError)?;
            if metrics.is_some() && !mode.is_enabled() {
                return Err(ArgError(
                    "--metrics needs telemetry: drop `--telemetry off` or pass summary/full"
                        .to_string(),
                ));
            }
            mode
        }
        None if metrics.is_some() => TelemetryMode::Summary,
        None => TelemetryMode::Off,
    };
    if args.get("jsonl").is_some() {
        return Err(ArgError(
            "--jsonl takes no value here: the campaign report lands in DIR/campaign.jsonl"
                .to_string(),
        ));
    }

    let resuming = args.get("resume").is_some();
    let dir: PathBuf = match (args.get("resume"), args.get("dir")) {
        (Some(_), Some(_)) => {
            return Err(ArgError(
                "--resume DIR already names the campaign directory; drop --dir".to_string(),
            ))
        }
        (Some(d), None) | (None, Some(d)) => PathBuf::from(d),
        (None, None) => {
            return Err(ArgError(
                "campaign needs --dir DIR (or --resume DIR)".to_string(),
            ))
        }
    };
    if resuming {
        // The checkpoint is the plan; silently accepting plan flags
        // here would invite a divergent resume.
        for flag in [
            "hosts",
            "seed",
            "samples",
            "rounds",
            "technique",
            "gaps-us",
            "chaos",
            "host-deadline-ms",
            "host-retries",
            "host-backoff-ms",
            "shards",
        ] {
            if args.get(flag).is_some() {
                return Err(ArgError(format!(
                    "--resume restores the checkpointed plan; drop --{flag}"
                )));
            }
        }
        for switch in ["no-baseline", "no-reuse", "amenability-only", "jsonl"] {
            if args.switch(switch) {
                return Err(ArgError(format!(
                    "--resume restores the checkpointed plan; drop --{switch}"
                )));
            }
        }
    }
    let (deadline_ms, host_retries, host_backoff_ms) = parse_budget(args)?;
    let spec = CampaignSpec {
        hosts: args.get_or("hosts", 50)?,
        seed: args.get_or("seed", 77)?,
        samples: args.get_or("samples", 15)?,
        rounds: args.get_or("rounds", 1)?,
        technique: TechniqueChoice::parse(args.get("technique").unwrap_or("auto"))
            .map_err(ArgError)?,
        baseline: !args.switch("no-baseline"),
        amenability_only: args.switch("amenability-only"),
        gaps_us: parse_gaps(args.get("gaps-us").unwrap_or(""))?,
        reuse: !args.switch("no-reuse"),
        chaos_ppm: parse_chaos(args)?,
        deadline_ms,
        host_retries,
        backoff_ms: host_backoff_ms,
        shards: args.get_or("shards", 8)?,
        jsonl: args.switch("jsonl"),
    };
    if spec.shards == 0 {
        return Err(ArgError(
            "invalid --shards `0` (accepted: positive shard count)".to_string(),
        ));
    }
    let opts = CampaignOptions {
        inflight: args.get_or("inflight", 0)?,
        retries: args.get_or("retries", 2)?,
        backoff_ms: args.get_or("backoff-ms", 250)?,
        telemetry,
        fail_after_shards: parse_fail_after(args)?,
        max_host_failures: parse_max_host_failures(args)?,
        progress: args.switch("progress"),
    };
    let workers = parse_workers(args)?;

    let in_process_runner;
    let process_runner;
    let runner: &dyn ShardRunner = if args.switch("in-process") {
        in_process_runner = InProcessRunner { workers, telemetry };
        &in_process_runner
    } else {
        let exe = std::env::current_exe()
            .map_err(|e| ArgError(format!("locating the reorder binary: {e}")))?;
        let state_dir = dir.join("state");
        std::fs::create_dir_all(&state_dir)
            .map_err(|e| ArgError(format!("creating {}: {e}", state_dir.display())))?;
        process_runner = ProcessRunner {
            exe,
            workers,
            telemetry,
            state_dir,
        };
        &process_runner
    };

    let started = std::time::Instant::now();
    let report = if resuming {
        reorder_campaign::resume(&dir, &opts, runner)
    } else {
        reorder_campaign::start(&dir, spec, &opts, runner)
    }
    .map_err(|e| ArgError(format!("campaign: {e}")))?;
    let wall = started.elapsed();
    let ckpt = &report.checkpoint;

    // A finished campaign prints its summary exactly as `survey` would.
    if let Some(path) = &report.summary_path {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ArgError(format!("reading {}: {e}", path.display())))?;
        print!("{text}");
    }
    let failed_note = if report.failed.is_empty() {
        String::new()
    } else {
        let ids = report
            .failed
            .iter()
            .map(|(shard, _)| shard.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(", FAILED shards [{ids}]")
    };
    eprintln!(
        "campaign: {}/{} shard(s) done ({} resumed, {} this run), {} retry(s), \
         {} steal(s), {} event(s) in {:.2}s{failed_note}; dir {}",
        ckpt.completed.len(),
        ckpt.spec.shards,
        report.resumed,
        report.completed_now,
        report.retries,
        ckpt.steals,
        ckpt.agg.events,
        wall.as_secs_f64(),
        dir.display(),
    );

    if let Some(target) = metrics {
        // The checkpoint carries the exact merged worker telemetry; the
        // orchestrated document has no per-worker residency (workers
        // are transient processes), so `per_worker` is empty.
        let tel = CampaignTelemetry {
            mode: telemetry,
            per_worker: Vec::new(),
            campaign: ckpt.telemetry.clone(),
        };
        let doc = tel.to_json(
            ckpt.agg.summary.hosts,
            ckpt.spec.seed,
            ckpt.agg.events,
            ckpt.steals,
            wall.as_secs_f64(),
        );
        if target == "-" {
            println!("{doc}");
        } else {
            atomic_write(Path::new(target), (doc + "\n").as_bytes())
                .map_err(|e| ArgError(format!("writing {target}: {e}")))?;
        }
    }

    if report.interrupted {
        return Err(ArgError(format!(
            "campaign interrupted by fault injection after {} shard(s); \
             resume with `reorder campaign --resume {}`",
            report.completed_now,
            dir.display()
        )));
    }
    if !report.failed.is_empty() {
        for (shard, error) in &report.failed {
            eprintln!("campaign: shard {shard} permanently failed: {error}");
        }
        let ids = report
            .failed
            .iter()
            .map(|(shard, _)| shard.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        return Err(ArgError(format!(
            "{} shard(s) permanently failed after retries: {ids}; fix the cause \
             and `reorder campaign --resume {}`",
            report.failed.len(),
            dir.display()
        )));
    }
    if report.host_failures_exceeded {
        let s = &ckpt.agg.summary;
        return Err(ArgError(format!(
            "campaign finished (outputs in {}) but {} of {} host(s) failed \
             ({:.2}%), over the --max-host-failures threshold",
            dir.display(),
            s.failed,
            s.hosts,
            s.failed as f64 * 100.0 / s.hosts.max(1) as f64,
        )));
    }
    Ok(())
}

/// `reorder validate`.
pub fn validate(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["fwd", "rev", "samples", "seed"])?;
    let fwd: f64 = args.get_or("fwd", 0.10)?;
    let rev: f64 = args.get_or("rev", 0.05)?;
    let samples: usize = args.get_or("samples", 100)?;
    let seed: u64 = args.get_or("seed", 1)?;
    // The reversed single-connection variant is the deployable one for
    // two-sided validation (immediate ACKs in both directions).
    for kind in [
        TestKind::SingleConnectionReversed,
        TestKind::DualConnection,
        TestKind::Syn,
    ] {
        let mut sc = scenario::validation_rig(fwd, rev, seed);
        let run = {
            let mut session = Session::new(&mut sc.prober, sc.target, 80);
            technique(kind, TestConfig::samples(samples))
                .execute(&mut session)
                .map_err(|e| ArgError(format!("{kind}: {e}")))?
        };
        let rep = validate_run(
            &run,
            &sc.merged_server_rx(),
            &sc.merged_server_tx(),
            &sc.prober_trace(),
        );
        println!(
            "{:<10} fwd: {}/{} verdicts match trace (err {:+}); rev: {}/{} (err {:+})",
            kind.label(),
            rep.fwd.agree,
            rep.fwd.checked,
            rep.fwd.count_error(),
            rep.rev.agree,
            rep.rev.checked,
            rep.rev.count_error(),
        );
    }
    Ok(())
}

/// `reorder pcap`.
pub fn pcap(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["out", "fwd", "rev", "samples", "seed"])?;
    let out = args
        .get("out")
        .ok_or_else(|| ArgError("--out FILE is required".into()))?
        .to_string();
    let fwd: f64 = args.get_or("fwd", 0.10)?;
    let rev: f64 = args.get_or("rev", 0.05)?;
    let samples: usize = args.get_or("samples", 50)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let mut sc = scenario::validation_rig(fwd, rev, seed);
    let run = {
        let mut session = Session::new(&mut sc.prober, sc.target, 80);
        technique(
            TestKind::SingleConnectionReversed,
            TestConfig::samples(samples),
        )
        .execute(&mut session)
        .map_err(|e| ArgError(format!("measurement failed: {e}")))?
    };
    let trace = sc.merged_server_rx();
    reorder_netsim::pcap::write_pcap(&trace, std::path::Path::new(&out))
        .map_err(|e| ArgError(format!("writing {out}: {e}")))?;
    println!(
        "wrote {} packets (server-side receive trace of {} samples) to {out}",
        trace.len(),
        run.samples.len()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn measure_runs_and_reports() {
        measure(&parse("measure --samples 20 --seed 3")).expect("measure");
    }

    #[test]
    fn measure_rejects_unknown_option() {
        assert!(measure(&parse("measure --bogus 1")).is_err());
    }

    #[test]
    fn measure_dual_against_openbsd_fails_cleanly() {
        let e = measure(&parse(
            "measure --technique dual --personality openbsd3 --samples 5",
        ))
        .unwrap_err();
        assert!(e.0.contains("unsuitable") || e.0.contains("non-monotonic"));
    }

    #[test]
    fn personality_names_resolve() {
        for n in [
            "freebsd4",
            "linux22",
            "linux24",
            "openbsd3",
            "solaris8",
            "windows2000",
            "hardened",
        ] {
            personality(n).unwrap();
        }
        assert!(personality("beos").is_err());
    }

    #[test]
    fn validate_command_runs() {
        validate(&parse("validate --samples 20 --seed 5")).expect("validate");
    }

    #[test]
    fn profile_command_runs_small() {
        profile(&parse(
            "profile --mechanism multipath --samples 30 --max-us 50 --step-us 50",
        ))
        .expect("profile");
    }

    #[test]
    fn survey_command_runs_small() {
        survey(&parse("survey --hosts 3 --rounds 1")).expect("survey");
    }

    #[test]
    fn workers_accepts_auto_and_positive_counts() {
        assert_eq!(parse_workers(&parse("survey")).unwrap(), 0);
        assert_eq!(parse_workers(&parse("survey --workers auto")).unwrap(), 0);
        assert_eq!(parse_workers(&parse("survey --workers 3")).unwrap(), 3);
    }

    #[test]
    fn workers_rejects_zero_and_malformed_values() {
        for bad in ["0", "-2", "2.5", "many", ""] {
            let e = parse_workers(&parse(&format!("survey --workers {bad}")))
                .expect_err(&format!("--workers {bad} must be rejected"));
            assert!(
                e.0.contains("auto | positive thread count"),
                "error must list the accepted forms: {}",
                e.0
            );
        }
    }

    #[test]
    fn profile_parallel_sweep_matches_serial_output() {
        // The sweep prints through stdout, so compare the estimates
        // directly: per-gap scenarios are seeded independently, so a
        // parallel sweep must measure the same numbers as a serial one.
        // (CI also cmp's the rendered output across --workers values.)
        profile(&parse(
            "profile --mechanism arq --samples 20 --max-us 50 --step-us 25 --workers 4",
        ))
        .expect("parallel profile");
    }

    #[test]
    fn survey_full_flag_set_runs() {
        let path = std::env::temp_dir().join("reorder_cli_survey_test.jsonl");
        let cmd = format!(
            "survey --hosts 4 --workers 2 --samples 4 --seed 9 --technique auto \
             --gaps-us 0,50 --per-host --jsonl {}",
            path.display()
        );
        survey(&parse(&cmd)).expect("survey");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().all(|l| l.starts_with("{\"id\":")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn measure_rejects_unknown_technique_with_accepted_set() {
        let e = measure(&parse("measure --technique warp")).unwrap_err();
        assert!(e.0.contains("unknown technique `warp`"), "{e}");
        for t in TestKind::ACCEPTED {
            assert!(e.0.contains(t), "error must list `{t}`: {e}");
        }
    }

    #[test]
    fn measure_accepts_both_single_variants_explicitly() {
        // The historical inconsistency: `single` silently ran the
        // reversed variant. Now each spelling names its own variant.
        measure(&parse("measure --technique single --samples 10 --seed 3")).expect("single");
        measure(&parse(
            "measure --technique single-rev --samples 10 --seed 3",
        ))
        .expect("single-rev");
    }

    #[test]
    fn survey_runs_one_format_and_rejects_sim_version() {
        survey(&parse("survey --hosts 3 --samples 3")).expect("the one campaign format");
        // Campaign format v1 is gone, and with it the switch between
        // formats: naming any version is an unknown flag.
        let e = survey(&parse("survey --hosts 3 --sim-version 1")).unwrap_err();
        assert_eq!(e.0, "unknown option --sim-version");
        let e = campaign(&parse("campaign --dir unused --sim-version 2")).unwrap_err();
        assert_eq!(e.0, "unknown option --sim-version");
    }

    #[test]
    fn profile_rejects_sim_version() {
        profile(&parse(
            "profile --mechanism striping --samples 20 --max-us 25 --step-us 25",
        ))
        .expect("striping profile");
        let e = profile(&parse(
            "profile --mechanism striping --samples 20 --max-us 25 --step-us 25 \
             --sim-version 2",
        ))
        .unwrap_err();
        assert_eq!(e.0, "unknown option --sim-version");
    }

    #[test]
    fn survey_accepts_shard_and_no_reuse() {
        survey(&parse(
            "survey --hosts 6 --shard 2/3 --no-reuse --samples 3",
        ))
        .expect("shard");
    }

    #[test]
    fn shard_parsing_is_strict() {
        assert_eq!(parse_shard("1/1").unwrap(), (1, 1));
        assert_eq!(parse_shard("2/4").unwrap(), (2, 4));
        assert_eq!(parse_shard(" 3 / 4 ").unwrap(), (3, 4));
        let e = survey(&parse("survey --hosts 4 --shard 9/2")).unwrap_err();
        assert!(e.0.contains("invalid --shard"), "{e}");
    }

    #[test]
    fn shard_rejections_each_name_the_accepted_form() {
        // One case per rejection class, mirroring the `parse_workers`
        // error style: the message must name the accepted form.
        for (class, bad) in [
            ("empty", ""),
            ("missing slash", "3"),
            ("k = 0", "0/4"),
            ("k > n", "5/4"),
            ("non-integer k", "a/4"),
            ("missing n", "4/"),
            ("missing k", "/4"),
            ("n = 0", "1/0"),
            ("fractional", "2.5/4"),
            ("negative", "-1/4"),
        ] {
            let e = parse_shard(bad).expect_err(&format!("{class}: `{bad}` must be rejected"));
            assert!(
                e.0.contains("accepted: K/N"),
                "{class}: error must name the accepted form: {}",
                e.0
            );
            assert!(
                e.0.contains(bad),
                "{class}: error must echo the input: {}",
                e.0
            );
        }
    }

    #[test]
    fn survey_rejects_unknown_technique_with_accepted_set() {
        let e = survey(&parse("survey --hosts 2 --technique warp")).unwrap_err();
        assert!(e.0.contains("unknown technique `warp`"), "{e}");
        for t in TechniqueChoice::ACCEPTED {
            assert!(e.0.contains(t), "error must list `{t}`: {e}");
        }
    }

    #[test]
    fn survey_rejects_bad_gaps() {
        assert!(survey(&parse("survey --hosts 2 --gaps-us 0,x")).is_err());
        assert_eq!(parse_gaps("0, 50,300").unwrap(), vec![0, 50, 300]);
        assert_eq!(parse_gaps("").unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn pcap_requires_out() {
        assert!(pcap(&parse("pcap")).is_err());
    }

    fn campaign_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("reorder_cli_campaign_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn campaign_in_process_writes_summary_and_jsonl() {
        let dir = campaign_dir("ok");
        let cmd = format!(
            "campaign --dir {} --hosts 9 --shards 3 --samples 3 --seed 11 \
             --no-baseline --jsonl --in-process --workers 1 --inflight 2",
            dir.display()
        );
        campaign(&parse(&cmd)).expect("campaign");
        let summary = std::fs::read_to_string(dir.join("summary.txt")).expect("summary.txt");
        assert!(summary.contains("campaign summary: 9 hosts"), "{summary}");
        let jsonl = std::fs::read_to_string(dir.join("campaign.jsonl")).expect("campaign.jsonl");
        assert_eq!(jsonl.lines().count(), 9, "one JSONL line per host");

        // Resuming a finished campaign is an idempotent no-op.
        let resume_cmd = format!(
            "campaign --resume {} --in-process --workers 1",
            dir.display()
        );
        campaign(&parse(&resume_cmd)).expect("resume of finished campaign");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_fault_injection_then_resume_is_byte_identical() {
        let dir_a = campaign_dir("ref");
        let dir_b = campaign_dir("crash");
        let plan = |dir: &std::path::Path, extra: &str| {
            format!(
                "campaign --dir {} --hosts 8 --shards 4 --samples 3 --seed 12 \
                 --no-baseline --jsonl --in-process --workers 1 --inflight 1{extra}",
                dir.display()
            )
        };
        campaign(&parse(&plan(&dir_a, ""))).expect("uninterrupted run");

        let e = campaign(&parse(&plan(&dir_b, " --fail-after-shards 2"))).unwrap_err();
        assert!(e.0.contains("interrupted"), "{e}");
        assert!(
            e.0.contains("--resume"),
            "the error must say how to continue: {e}"
        );
        assert!(
            !dir_b.join("summary.txt").exists(),
            "an interrupted campaign must not finalize"
        );

        let resume_cmd = format!(
            "campaign --resume {} --in-process --workers 1",
            dir_b.display()
        );
        campaign(&parse(&resume_cmd)).expect("resume");
        assert_eq!(
            std::fs::read(dir_a.join("summary.txt")).unwrap(),
            std::fs::read(dir_b.join("summary.txt")).unwrap(),
            "resumed summary must be byte-identical"
        );
        assert_eq!(
            std::fs::read(dir_a.join("campaign.jsonl")).unwrap(),
            std::fs::read(dir_b.join("campaign.jsonl")).unwrap(),
            "resumed JSONL must be byte-identical"
        );
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn campaign_rejects_misuse() {
        let e = campaign(&parse("campaign")).unwrap_err();
        assert!(e.0.contains("--dir"), "{e}");
        let e = campaign(&parse("campaign --dir a --resume b")).unwrap_err();
        assert!(e.0.contains("drop --dir"), "{e}");
        let e = campaign(&parse("campaign --resume a --hosts 9")).unwrap_err();
        assert!(e.0.contains("drop --hosts"), "{e}");
        let e = campaign(&parse("campaign --dir a --shards 0")).unwrap_err();
        assert!(e.0.contains("--shards"), "{e}");
        let e = campaign(&parse("campaign --dir a --fail-after-shards 0")).unwrap_err();
        assert!(e.0.contains("accepted: positive shard count"), "{e}");
        let e = campaign(&parse("campaign --dir a --jsonl out.jsonl")).unwrap_err();
        assert!(e.0.contains("campaign.jsonl"), "{e}");
    }

    #[test]
    fn chaos_parses_fractions_and_percentages() {
        assert_eq!(parse_chaos(&parse("survey")).unwrap(), 0);
        assert_eq!(parse_chaos(&parse("survey --chaos 0")).unwrap(), 0);
        assert_eq!(parse_chaos(&parse("survey --chaos 0.2")).unwrap(), 200_000);
        assert_eq!(parse_chaos(&parse("survey --chaos 20%")).unwrap(), 200_000);
        assert_eq!(parse_chaos(&parse("survey --chaos 1")).unwrap(), 1_000_000);
        assert_eq!(parse_chaos(&parse("survey --chaos 0.000123")).unwrap(), 123);
        for bad in [
            "--chaos 1.5",
            "--chaos -0.1",
            "--chaos 120%",
            "--chaos many",
        ] {
            let e = parse_chaos(&parse(&format!("survey {bad}")))
                .expect_err(&format!("`{bad}` must be rejected"));
            assert!(e.0.contains("fraction like 0.2"), "{e}");
        }
        // A bare `--chaos` parses as a switch; don't let it mean zero.
        assert!(parse_chaos(&parse("survey --chaos")).is_err());
    }

    #[test]
    fn budget_flags_parse_and_reject_zero_deadline() {
        let d = Budget::default();
        assert_eq!(
            parse_budget(&parse("survey")).unwrap(),
            (
                d.deadline.as_millis() as u64,
                d.max_retries,
                d.backoff.as_millis() as u64
            )
        );
        assert_eq!(
            parse_budget(&parse(
                "survey --host-deadline-ms 45000 --host-retries 2 --host-backoff-ms 125"
            ))
            .unwrap(),
            (45_000, 2, 125)
        );
        let e = parse_budget(&parse("survey --host-deadline-ms 0")).unwrap_err();
        assert!(e.0.contains("positive milliseconds"), "{e}");
    }

    #[test]
    fn survey_chaos_mix_classifies_hostile_hosts_in_jsonl() {
        let path = std::env::temp_dir().join(format!(
            "reorder_cli_chaos_survey_{}.jsonl",
            std::process::id()
        ));
        let cmd = format!(
            "survey --hosts 20 --samples 3 --seed 77 --chaos 0.5 --workers 2 --jsonl {}",
            path.display()
        );
        survey(&parse(&cmd)).expect("chaos survey");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 20);
        assert!(
            text.lines().all(|l| l.contains("\"outcome\":\"")),
            "every JSONL line must carry an outcome"
        );
        assert!(
            text.contains("\"outcome\":\"failed/") || text.contains("\"outcome\":\"degraded/"),
            "a 50% hostile mix must classify some hosts: {text}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn campaign_max_host_failures_drives_honest_nonzero_exit() {
        let dir = campaign_dir("chaos");
        let plan = format!(
            "campaign --dir {} --hosts 10 --shards 2 --samples 3 --seed 77 --chaos 1 \
             --no-baseline --in-process --workers 1 --max-host-failures 0",
            dir.display()
        );
        let e = campaign(&parse(&plan)).unwrap_err();
        assert!(e.0.contains("--max-host-failures"), "{e}");
        assert!(
            dir.join("summary.txt").exists(),
            "a breached threshold must still finalize the outputs"
        );
        let summary = std::fs::read_to_string(dir.join("summary.txt")).unwrap();
        assert!(summary.contains("failure taxonomy"), "{summary}");
        let _ = std::fs::remove_dir_all(&dir);

        // The same hostile plan under a tolerant threshold exits zero.
        let dir = campaign_dir("chaos_ok");
        let plan = format!(
            "campaign --dir {} --hosts 10 --shards 2 --samples 3 --seed 77 --chaos 1 \
             --no-baseline --in-process --workers 1 --max-host-failures 1",
            dir.display()
        );
        campaign(&parse(&plan)).expect("tolerant threshold passes");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn campaign_resume_rejects_chaos_and_budget_plan_flags() {
        for flag in [
            "--chaos 0.2",
            "--host-deadline-ms 1000",
            "--host-retries 1",
            "--host-backoff-ms 10",
        ] {
            let e = campaign(&parse(&format!("campaign --resume a {flag}"))).unwrap_err();
            let name = flag.split_whitespace().next().unwrap();
            assert!(
                e.0.contains(&format!("drop {name}")),
                "resume must reject the plan flag {name}: {e}"
            );
        }
        // Runtime knobs stay legal on resume; this one fails later, on
        // the missing checkpoint, not on flag validation.
        let e = campaign(&parse(
            "campaign --resume /nonexistent --max-host-failures 0.5",
        ))
        .unwrap_err();
        assert!(!e.0.contains("drop --"), "{e}");
    }

    #[test]
    fn survey_shard_state_suppresses_summary_and_round_trips() {
        let path = std::env::temp_dir().join(format!(
            "reorder_cli_shard_state_{}.json",
            std::process::id()
        ));
        let cmd = format!(
            "survey --hosts 6 --samples 3 --seed 4 --shard 2/3 --shard-state {}",
            path.display()
        );
        survey(&parse(&cmd)).expect("worker-mode survey");
        let text = std::fs::read_to_string(&path).expect("state file");
        let state = ShardState::from_json(&text).expect("sealed state parses");
        assert_eq!((state.shard, state.shards), (2, 3));
        assert_eq!(state.agg.summary.hosts, 2, "shard 2/3 of 6 hosts holds 2");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pcap_writes_file() {
        let path = std::env::temp_dir().join("reorder_cli_test.pcap");
        let cmd = format!("pcap --out {} --samples 5 --seed 2", path.display());
        pcap(&parse(&cmd)).expect("pcap");
        let bytes = std::fs::read(&path).unwrap();
        assert!(reorder_netsim::pcap::parse_pcap(&bytes).unwrap().len() > 10);
        let _ = std::fs::remove_file(&path);
    }
}
