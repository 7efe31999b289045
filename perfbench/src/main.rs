//! perfbench — the campaign engine's benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload survey-full --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of the workload, measured
//! untraced; `--trace 1` prints the per-layer metrics from a separate
//! traced run and a single-thread replay. Either way the last stdout
//! line is one JSON object `{"correct", "attempted", "failed",
//! "metrics"}`, an earlier line carries the run-health record, and the
//! full record (every repeat, or the span ledger) lands in
//! `.bench_out/` (`--out DIR` moves it). An *operation* is one engine
//! run (a `run_campaign` or `start` call); hosts a run classifies as
//! failed are outcomes, not failed operations. `--tiny` shrinks every
//! run to a few hosts for the smoke test.

#![forbid(unsafe_code)]

mod ledger;
mod probes;
mod stats;
mod sys;
mod timed;
mod trace;
mod workload;

use stats::Metric;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use workload::{RunOutput, Size, Workload};

/// The seed used when `--seed` is not given (`predictions.json` also
/// names a held-out seed for confirming claimed gains).
const DEFAULT_SEED: u64 = 1;

/// The result of one benchmark invocation.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Run-health JSON object (timed runs).
    pub health: String,
    /// The full record written to the output directory.
    pub record: String,
}

impl Outcome {
    /// One checked engine run; `None` (and a failed operation) on error.
    pub fn attempt(
        &mut self,
        w: Workload,
        size: Size,
        seed: u64,
        mode: reorder_core::telemetry::TelemetryMode,
        dir: &Path,
    ) -> Option<RunOutput> {
        self.attempted += 1;
        let out = workload::run(w, size, seed, mode, dir)
            .and_then(|out| workload::check_run(w, &out).map(|()| out));
        match out {
            Ok(out) => Some(out),
            Err(e) => {
                self.failed += 1;
                self.errors.push(e);
                None
            }
        }
    }

    /// Record a failed output check.
    pub fn fail(&mut self, msg: String) {
        self.errors.push(msg);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload survey-full|census-jsonl|campaign-chaos \
                     [--seed N] [--seconds N] [--trace 0|1] [--tiny] [--out DIR]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20;
    let mut trace = false;
    let mut tiny = false;
    let mut out = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = num(&value)?,
            "--seconds" => seconds = num(&value)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value}")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tiny,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: creating {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let w = args.workload;
    let mut o = if args.trace {
        ledger::run(w, args.seed, args.seconds, args.tiny, &args.out)
    } else {
        timed::run(w, args.seed, args.seconds, args.tiny, &args.out)
    };
    let kind = if args.trace { "ledger" } else { "timed" };
    let record = args
        .out
        .join(format!("{kind}-{}-seed{}.json", w.name(), args.seed));
    if let Err(e) = std::fs::write(&record, &o.record) {
        o.fail(format!("writing {}: {e}", record.display()));
    }
    // Campaign work directories are scratch: remove them on the way out.
    let _ = std::fs::remove_dir_all(args.out.join(format!("work-{}", w.name())));
    for e in &o.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    if !o.health.is_empty() {
        println!("{{\"run_health\": {}}}", o.health);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.errors.is_empty(),
        o.attempted.max(1),
        o.failed,
        stats::metrics_json(&o.metrics)
    );
    ExitCode::SUCCESS
}
