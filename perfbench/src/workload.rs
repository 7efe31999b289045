//! The three workloads and one engine run of each, driven through the
//! library's public entry points exactly as a caller outside the
//! repository would: `reorder_survey::run_campaign` for the two survey
//! workloads, `reorder_campaign::start` with an `InProcessRunner` for
//! the orchestrated one.

use reorder_campaign::{
    start, CampaignOptions, CampaignReport, CampaignSpec, InProcessRunner, ShardRunner,
};
use reorder_core::jsonx::fnv1a64;
use reorder_core::telemetry::{TelemetryMode, WorkerTelemetry};
use reorder_survey::{run_campaign, CampaignConfig, ShardAggregator, ShardState};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Worker threads every workload runs with (the reference box has two
/// cores; more would only measure oversubscription).
pub const WORKERS: usize = 2;

/// Hostile-host rate of `campaign-chaos`, parts per million (20%).
const CHAOS_PPM: u32 = 200_000;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's full auto protocol with baseline, summary only.
    SurveyFull,
    /// Amenability verdicts only, every host streamed as JSONL.
    CensusJsonl,
    /// The crash-safe orchestrator over a 20%-hostile population.
    CampaignChaos,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SurveyFull,
        Workload::CensusJsonl,
        Workload::CampaignChaos,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SurveyFull => "survey-full",
            Workload::CensusJsonl => "census-jsonl",
            Workload::CampaignChaos => "campaign-chaos",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload `{name}` (accepted: {})", names.join(", "))
            })
    }

    /// Whether the workload writes per-host JSONL.
    pub fn jsonl(self) -> bool {
        self != Workload::SurveyFull
    }
}

/// How big one engine run is.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Hosts per run.
    pub hosts: usize,
    /// Shard tasks per run (`campaign-chaos` only).
    pub shards: usize,
}

impl Size {
    /// The measured size of `w`: about half a second of engine time per
    /// run on a 2-vCPU box, so a run holds many repeats and reports
    /// their median. `tiny` is the smoke-test size.
    pub fn of(w: Workload, tiny: bool) -> Size {
        let (hosts, shards) = match (w, tiny) {
            (Workload::SurveyFull, false) => (2_000, 1),
            (Workload::CensusJsonl, false) => (12_000, 1),
            (Workload::CampaignChaos, false) => (8_000, 32),
            (Workload::SurveyFull, true) => (12, 1),
            (Workload::CensusJsonl, true) => (40, 1),
            (Workload::CampaignChaos, true) => (40, 4),
        };
        Size { hosts, shards }
    }

    /// The set-up size: the same configuration over one host per worker
    /// (survey workloads) or per shard (`campaign-chaos`), so a run is
    /// all fixed cost.
    pub fn setup(w: Workload, size: Size) -> Size {
        match w {
            Workload::CampaignChaos => Size {
                hosts: size.shards,
                shards: size.shards,
            },
            _ => Size {
                hosts: WORKERS,
                shards: 1,
            },
        }
    }
}

/// The campaign plan of a workload. The survey workloads use its
/// [`CampaignSpec::config`] as their engine configuration, so all three
/// draw from one population model definition.
pub fn spec(w: Workload, size: Size, seed: u64) -> CampaignSpec {
    let base = CampaignSpec {
        hosts: size.hosts,
        seed,
        shards: size.shards,
        ..CampaignSpec::default()
    };
    match w {
        Workload::SurveyFull => base,
        Workload::CensusJsonl => CampaignSpec {
            amenability_only: true,
            jsonl: true,
            ..base
        },
        Workload::CampaignChaos => CampaignSpec {
            chaos_ppm: CHAOS_PPM,
            jsonl: true,
            ..base
        },
    }
}

/// The engine configuration one survey-workload run uses (and the
/// configuration the single-thread replay re-derives every host from).
pub fn config(w: Workload, size: Size, seed: u64, telemetry: TelemetryMode) -> CampaignConfig {
    spec(w, size, seed).config(WORKERS, telemetry)
}

/// A JSONL sink that keeps only an FNV-1a digest and counts of what was
/// written, so the benchmark's own buffer never shows in the run's
/// memory or time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonlDigest {
    pub hash: u64,
    pub lines: u64,
    pub bytes: u64,
}

impl Default for JsonlDigest {
    fn default() -> Self {
        JsonlDigest {
            hash: fnv1a64(b""),
            lines: 0,
            bytes: 0,
        }
    }
}

impl Write for JsonlDigest {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // FNV-1a folds bytes one at a time, so hashing in pieces equals
        // hashing the concatenation.
        for &b in buf {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
        self.lines += buf.iter().filter(|&&b| b == b'\n').count() as u64;
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What one engine run produced.
pub struct RunOutput {
    /// Wall time of the library call, seconds.
    pub wall_s: f64,
    /// Hosts the run attempted.
    pub hosts: u64,
    /// The exact merged aggregation state.
    pub agg: ShardAggregator,
    /// Digest of the per-host JSONL (empty for `survey-full`).
    pub jsonl: JsonlDigest,
    /// The rendered summary.
    pub summary: String,
    /// Merged telemetry (empty unless traced).
    pub telemetry: WorkerTelemetry,
    /// Orchestrator facts (`campaign-chaos` only).
    pub campaign: Option<CampaignFacts>,
}

impl RunOutput {
    /// Digest of everything the run outputs: summary, JSONL and the
    /// exact aggregation state.
    pub fn digest(&self) -> u64 {
        let parts = format!(
            "{:016x}{:016x}{:016x}",
            fnv1a64(self.summary.as_bytes()),
            self.jsonl.hash,
            fnv1a64(self.agg.to_json().as_bytes())
        );
        fnv1a64(parts.as_bytes())
    }

    /// Hosts whose outcome is `complete`.
    pub fn complete(&self) -> u64 {
        let s = &self.agg.summary;
        s.hosts.saturating_sub(s.failed + s.degraded)
    }
}

/// What the orchestrator did in one `campaign-chaos` run.
pub struct CampaignFacts {
    /// Summed wall time of every `ShardRunner::run` call, seconds.
    pub shard_wall_s: f64,
    /// Checkpoint documents written: the plan, then one per shard.
    pub checkpoint_writes: u64,
    /// Size of the final checkpoint document.
    pub checkpoint_bytes: u64,
    /// The final checkpoint document's path.
    pub checkpoint_path: PathBuf,
}

/// One engine run of `w`. Campaign runs work in `dir`, which is
/// emptied first; the returned wall time covers only the library call.
pub fn run(
    w: Workload,
    size: Size,
    seed: u64,
    telemetry: TelemetryMode,
    dir: &Path,
) -> Result<RunOutput, String> {
    match w {
        Workload::CampaignChaos => run_campaign_chaos(size, seed, telemetry, dir),
        _ => {
            let cfg = config(w, size, seed, telemetry);
            let mut jsonl = JsonlDigest::default();
            let t0 = Instant::now();
            let out = if w.jsonl() {
                run_campaign(&cfg, Some(&mut jsonl))
            } else {
                run_campaign(&cfg, None::<&mut JsonlDigest>)
            }
            .map_err(|e| format!("{}: run_campaign failed: {e}", w.name()))?;
            let wall_s = t0.elapsed().as_secs_f64();
            Ok(RunOutput {
                wall_s,
                hosts: size.hosts as u64,
                summary: out.summary.render(),
                telemetry: out.telemetry.merged(),
                agg: ShardAggregator {
                    summary: out.summary,
                    events: out.events,
                },
                jsonl,
                campaign: None,
            })
        }
    }
}

/// An [`InProcessRunner`] that also sums the wall time of its shard
/// runs, so the orchestrator's own share of `start()` can be told apart.
struct TimedRunner {
    inner: InProcessRunner,
    shard_ns: AtomicU64,
}

impl ShardRunner for TimedRunner {
    fn run(
        &self,
        spec: &CampaignSpec,
        shard: usize,
        part: Option<&Path>,
    ) -> Result<ShardState, String> {
        let t0 = Instant::now();
        let out = self.inner.run(spec, shard, part);
        self.shard_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

fn run_campaign_chaos(
    size: Size,
    seed: u64,
    telemetry: TelemetryMode,
    dir: &Path,
) -> Result<RunOutput, String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    let spec = spec(Workload::CampaignChaos, size, seed);
    // One shard at a time, each on both worker threads: the checkpoint
    // written at every shard boundary sits on the critical path.
    let opts = CampaignOptions {
        inflight: 1,
        telemetry,
        ..CampaignOptions::default()
    };
    let runner = TimedRunner {
        inner: InProcessRunner {
            workers: WORKERS,
            telemetry,
        },
        shard_ns: AtomicU64::new(0),
    };
    let t0 = Instant::now();
    let report = start(dir, spec.clone(), &opts, &runner)
        .map_err(|e| format!("campaign-chaos: start failed: {e}"))?;
    let wall_s = t0.elapsed().as_secs_f64();
    check_report(&report, &spec)?;
    let path = |p: &Option<PathBuf>| -> Result<PathBuf, String> {
        p.clone()
            .ok_or_else(|| "campaign finished without finalized outputs".to_string())
    };
    let summary_path = path(&report.summary_path)?;
    let summary = fs::read_to_string(&summary_path)
        .map_err(|e| format!("reading {}: {e}", summary_path.display()))?;
    let jsonl_path = path(&report.jsonl_path)?;
    let mut jsonl = JsonlDigest::default();
    fs::File::open(&jsonl_path)
        .and_then(|mut f| io::copy(&mut f, &mut jsonl))
        .map_err(|e| format!("reading {}: {e}", jsonl_path.display()))?;
    let checkpoint_path = reorder_campaign::checkpoint_path(dir);
    let checkpoint_bytes = fs::metadata(&checkpoint_path)
        .map_err(|e| format!("reading {}: {e}", checkpoint_path.display()))?
        .len();
    Ok(RunOutput {
        wall_s,
        hosts: size.hosts as u64,
        summary,
        jsonl,
        telemetry: report.checkpoint.telemetry.clone(),
        campaign: Some(CampaignFacts {
            shard_wall_s: runner.shard_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            checkpoint_writes: 1 + report.completed_now as u64,
            checkpoint_bytes,
            checkpoint_path,
        }),
        agg: report.checkpoint.agg,
    })
}

/// The orchestrator-level output checks: nothing interrupted, no shard
/// failed, every shard completed.
fn check_report(report: &CampaignReport, spec: &CampaignSpec) -> Result<(), String> {
    if report.interrupted {
        return Err("campaign-chaos: orchestrator report is interrupted".into());
    }
    if let Some((shard, err)) = report.failed.first() {
        return Err(format!("campaign-chaos: shard {shard} failed: {err}"));
    }
    if report.checkpoint.completed.len() != spec.shards {
        return Err(format!(
            "campaign-chaos: {} of {} shards completed",
            report.checkpoint.completed.len(),
            spec.shards
        ));
    }
    Ok(())
}

/// The output checks every run must pass: the summary accounts for
/// every host attempted.
pub fn check_run(w: Workload, out: &RunOutput) -> Result<(), String> {
    if out.agg.summary.hosts != out.hosts {
        return Err(format!(
            "{}: summary.hosts {} != hosts attempted {}",
            w.name(),
            out.agg.summary.hosts,
            out.hosts
        ));
    }
    if w.jsonl() && out.jsonl.lines != out.hosts {
        return Err(format!(
            "{}: {} JSONL lines for {} hosts",
            w.name(),
            out.jsonl.lines,
            out.hosts
        ));
    }
    Ok(())
}
