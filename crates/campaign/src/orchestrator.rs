//! The supervisor: plan shards, fan them out with a bounded in-flight
//! window, retry with backoff, checkpoint at every shard boundary.
//!
//! The orchestrator owns all durable state. Shard runners (threads
//! driving in-process shard runs or spawned `reorder survey --shard`
//! worker processes) only ever produce a [`ShardState`] and, when the
//! plan wants JSONL, an atomically-written part file; the supervisor
//! thread alone merges results into the [`Checkpoint`] and persists it
//! — write-temp-then-rename — after each completion. A crash between
//! any two instructions therefore loses at most the shards in flight,
//! and [`resume`] re-runs exactly those: every accumulator is a
//! commutative monoid with exact serialization, so the resumed merge
//! is bit-identical to an uninterrupted run's. Fault injection
//! ([`CampaignOptions::fail_after_shards`]) stops the supervisor after
//! N checkpoint writes, leaving the directory exactly as a `kill -9`
//! would — the CI crash-recovery smoke is built on it.

use crate::checkpoint::{atomic_write, AtomicFile, Checkpoint};
use crate::spec::CampaignSpec;
use reorder_core::telemetry::TelemetryMode;
use reorder_survey::{run_shard, ShardState};
use std::collections::VecDeque;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Runtime knobs of one orchestrated run. None of these can change
/// campaign bytes — they shape scheduling, supervision and telemetry
/// only (the output-affecting knobs live in [`CampaignSpec`]).
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Max shard tasks in flight at once (0 = all available cores).
    pub inflight: usize,
    /// Re-attempts per shard after its first failure.
    pub retries: u32,
    /// Base retry backoff in ms, doubled per attempt (capped at 2^6×).
    pub backoff_ms: u64,
    /// Telemetry mode shard runs record under.
    pub telemetry: TelemetryMode,
    /// Fault injection: stop the supervisor (as a crash would) after
    /// this many checkpoint writes in this run.
    pub fail_after_shards: Option<usize>,
    /// Honest-exit threshold: when the finished campaign's failed-host
    /// fraction exceeds this, [`CampaignReport::host_failures_exceeded`]
    /// is set so the caller exits nonzero. Outputs are still finalized
    /// — the threshold judges the campaign, it never truncates it.
    pub max_host_failures: Option<f64>,
    /// Print shard completion/retry lines to stderr.
    pub progress: bool,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            inflight: 0,
            retries: 2,
            backoff_ms: 250,
            telemetry: TelemetryMode::Off,
            fail_after_shards: None,
            max_host_failures: None,
            progress: false,
        }
    }
}

/// Runs one shard of the plan. Implementations must be shareable
/// across supervisor worker threads.
pub trait ShardRunner: Sync {
    /// Run shard `shard` (1-based) of `spec`, returning its state.
    /// When `part` is given, the shard's JSONL lines must end up there
    /// atomically (whole file or nothing).
    fn run(
        &self,
        spec: &CampaignSpec,
        shard: usize,
        part: Option<&Path>,
    ) -> Result<ShardState, String>;
}

/// Supervisor-mode runner: each shard runs on the calling thread via
/// the survey library entry point. No process boundary — the test and
/// benchmark harness, and the CLI's `--in-process` mode.
#[derive(Debug, Clone)]
pub struct InProcessRunner {
    /// Worker threads per shard run (0 = all cores; 1 is the sensible
    /// default when shards themselves run concurrently).
    pub workers: usize,
    /// Telemetry mode for the shard run.
    pub telemetry: TelemetryMode,
}

impl ShardRunner for InProcessRunner {
    fn run(
        &self,
        spec: &CampaignSpec,
        shard: usize,
        part: Option<&Path>,
    ) -> Result<ShardState, String> {
        let cfg = spec.config(self.workers, self.telemetry);
        match part {
            Some(path) => {
                let mut buf = Vec::new();
                let state = run_shard(&cfg, shard, spec.shards, Some(&mut buf))
                    .map_err(|e| e.to_string())?;
                atomic_write(path, &buf).map_err(|e| format!("writing {}: {e}", path.display()))?;
                Ok(state)
            }
            None => {
                run_shard(&cfg, shard, spec.shards, None::<&mut Vec<u8>>).map_err(|e| e.to_string())
            }
        }
    }
}

/// Process-mode runner: each shard is a spawned `reorder survey
/// --shard K/N --shard-state FILE` worker process. The child writes
/// its sealed [`ShardState`] and JSONL part atomically, so a killed
/// worker leaves no partial outputs; the parent reads the state file
/// back and verifies it names the expected shard.
#[derive(Debug, Clone)]
pub struct ProcessRunner {
    /// The `reorder` binary to spawn (usually `std::env::current_exe`).
    pub exe: PathBuf,
    /// `--workers` per worker process (0 = auto).
    pub workers: usize,
    /// Telemetry mode passed to workers.
    pub telemetry: TelemetryMode,
    /// Scratch directory for shard-state files.
    pub state_dir: PathBuf,
}

impl ShardRunner for ProcessRunner {
    fn run(
        &self,
        spec: &CampaignSpec,
        shard: usize,
        part: Option<&Path>,
    ) -> Result<ShardState, String> {
        let state_path = self.state_dir.join(format!("state-{shard:05}.json"));
        let _ = fs::remove_file(&state_path);
        let mut cmd = Command::new(&self.exe);
        cmd.arg("survey")
            .arg("--hosts")
            .arg(spec.hosts.to_string())
            .arg("--seed")
            .arg(spec.seed.to_string())
            .arg("--samples")
            .arg(spec.samples.to_string())
            .arg("--rounds")
            .arg(spec.rounds.to_string())
            .arg("--technique")
            .arg(spec.technique.to_string())
            .arg("--chaos")
            // Shortest-round-trip f64 display: the worker's
            // `(f * 1e6).round()` recovers the exact ppm value.
            .arg((spec.chaos_ppm as f64 / 1e6).to_string())
            .arg("--host-deadline-ms")
            .arg(spec.deadline_ms.to_string())
            .arg("--host-retries")
            .arg(spec.host_retries.to_string())
            .arg("--host-backoff-ms")
            .arg(spec.backoff_ms.to_string())
            .arg("--shard")
            .arg(format!("{shard}/{}", spec.shards))
            .arg("--shard-state")
            .arg(&state_path)
            .arg("--workers")
            .arg(if self.workers == 0 {
                "auto".to_string()
            } else {
                self.workers.to_string()
            });
        if !spec.baseline {
            cmd.arg("--no-baseline");
        }
        if !spec.reuse {
            cmd.arg("--no-reuse");
        }
        if spec.amenability_only {
            cmd.arg("--amenability-only");
        }
        if !spec.gaps_us.is_empty() {
            let gaps = spec
                .gaps_us
                .iter()
                .map(|g| g.to_string())
                .collect::<Vec<_>>()
                .join(",");
            cmd.arg("--gaps-us").arg(gaps);
        }
        if self.telemetry.is_enabled() {
            cmd.arg("--telemetry").arg(self.telemetry.to_string());
        }
        if let Some(part) = part {
            cmd.arg("--jsonl").arg(part);
        }
        let out = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .output()
            .map_err(|e| format!("spawning {}: {e}", self.exe.display()))?;
        if !out.status.success() {
            let stderr = String::from_utf8_lossy(&out.stderr);
            let tail = stderr
                .lines()
                .rev()
                .take(3)
                .collect::<Vec<_>>()
                .into_iter()
                .rev()
                .collect::<Vec<_>>()
                .join(" | ");
            return Err(format!(
                "shard {shard} worker exited with {}: {tail}",
                out.status
            ));
        }
        let text = fs::read_to_string(&state_path)
            .map_err(|e| format!("reading shard state {}: {e}", state_path.display()))?;
        let state = ShardState::from_json(&text)?;
        if state.shard != shard || state.shards != spec.shards {
            return Err(format!(
                "shard state {} is for shard {}/{}, wanted {shard}/{}",
                state_path.display(),
                state.shard,
                state.shards,
                spec.shards
            ));
        }
        let _ = fs::remove_file(&state_path);
        Ok(state)
    }
}

/// What one orchestrated run (fresh or resumed) hands back.
#[derive(Debug)]
pub struct CampaignReport {
    /// The final durable state (merged aggregation, telemetry, plan).
    pub checkpoint: Checkpoint,
    /// Shards already completed when this run started (resume credit).
    pub resumed: usize,
    /// Shards completed during this run.
    pub completed_now: usize,
    /// Retry attempts consumed across all shards.
    pub retries: u64,
    /// Shards that exhausted their retry budget, with the last error.
    /// Non-empty ⇒ the campaign is incomplete and the caller must exit
    /// nonzero.
    pub failed: Vec<(usize, String)>,
    /// Fault injection tripped: the supervisor stopped as a crash
    /// would. Resume with the same directory to continue.
    pub interrupted: bool,
    /// The finished campaign's failed-host fraction breached
    /// [`CampaignOptions::max_host_failures`]. Outputs were finalized
    /// anyway; the caller owes the user a nonzero exit.
    pub host_failures_exceeded: bool,
    /// Rendered summary file, written only when the campaign finished.
    pub summary_path: Option<PathBuf>,
    /// Concatenated campaign JSONL, written only when the campaign
    /// finished and the plan wants JSONL.
    pub jsonl_path: Option<PathBuf>,
}

/// The checkpoint document's path inside a campaign directory.
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.json")
}

/// Shard `shard`'s JSONL part file inside a campaign directory.
pub fn part_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join("shards").join(format!("shard-{shard:05}.jsonl"))
}

/// Start a campaign in `dir`. If `dir` already holds a checkpoint for
/// the same plan (equal fingerprint), the run resumes it — starting
/// twice is safe. A checkpoint for a *different* plan is an error, not
/// an overwrite.
pub fn start(
    dir: &Path,
    spec: CampaignSpec,
    opts: &CampaignOptions,
    runner: &dyn ShardRunner,
) -> io::Result<CampaignReport> {
    fs::create_dir_all(dir)?;
    let path = checkpoint_path(dir);
    let ckpt = if path.exists() {
        let existing = Checkpoint::load(&path)?;
        if existing.spec.fingerprint() != spec.fingerprint() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "{} holds a different campaign (fingerprint {:016x}, this plan {:016x}); \
                     use a fresh --dir or --resume it without plan flags",
                    dir.display(),
                    existing.spec.fingerprint(),
                    spec.fingerprint()
                ),
            ));
        }
        existing
    } else {
        // Persist the plan before any work: a kill before the first
        // shard completes still leaves a resumable directory.
        let ckpt = Checkpoint::new(spec);
        ckpt.store(&path)?;
        ckpt
    };
    drive(dir, ckpt, opts, runner)
}

/// Resume the campaign checkpointed in `dir`: verify the checkpoint's
/// integrity, skip completed shards, run the rest. Resuming a finished
/// campaign just re-finalizes its outputs (idempotent).
pub fn resume(
    dir: &Path,
    opts: &CampaignOptions,
    runner: &dyn ShardRunner,
) -> io::Result<CampaignReport> {
    let ckpt = Checkpoint::load(&checkpoint_path(dir))?;
    drive(dir, ckpt, opts, runner)
}

/// Supervision events workers report to the collector.
enum Event {
    Done {
        shard: usize,
        state: Box<ShardState>,
    },
    Retry {
        shard: usize,
        attempt: u32,
        error: String,
    },
    Failed {
        shard: usize,
        error: String,
    },
}

fn drive(
    dir: &Path,
    mut ckpt: Checkpoint,
    opts: &CampaignOptions,
    runner: &dyn ShardRunner,
) -> io::Result<CampaignReport> {
    let n = ckpt.spec.shards;
    let resumed = ckpt.completed.len();
    if ckpt.spec.jsonl {
        fs::create_dir_all(dir.join("shards"))?;
    }
    let pending: VecDeque<usize> = (1..=n).filter(|s| !ckpt.completed.contains(s)).collect();
    let todo = pending.len();
    let inflight = if opts.inflight == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        opts.inflight
    }
    .min(todo.max(1));

    let spec = ckpt.spec.clone();
    let queue = Mutex::new(pending);
    let abort = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Event>();

    let mut failed: Vec<(usize, String)> = Vec::new();
    let mut retries = 0u64;
    let mut completed_now = 0usize;
    let mut interrupted = false;

    std::thread::scope(|scope| -> io::Result<()> {
        for _ in 0..inflight {
            let tx = tx.clone();
            let spec = &spec;
            let queue = &queue;
            let abort = &abort;
            scope.spawn(move || loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let Some(shard) = queue.lock().expect("shard queue poisoned").pop_front() else {
                    break;
                };
                let part = spec.jsonl.then(|| part_path(dir, shard));
                let mut attempt = 0u32;
                loop {
                    match runner.run(spec, shard, part.as_deref()) {
                        Ok(state) => {
                            let _ = tx.send(Event::Done {
                                shard,
                                state: Box::new(state),
                            });
                            break;
                        }
                        Err(error) if attempt < opts.retries => {
                            let _ = tx.send(Event::Retry {
                                shard,
                                attempt,
                                error,
                            });
                            let backoff = opts.backoff_ms.saturating_mul(1u64 << attempt.min(6));
                            std::thread::sleep(Duration::from_millis(backoff));
                            attempt += 1;
                        }
                        Err(error) => {
                            let _ = tx.send(Event::Failed { shard, error });
                            break;
                        }
                    }
                }
            });
        }
        drop(tx);

        // The collector: the only code that touches the checkpoint.
        let mut settled = 0usize;
        while settled < todo {
            let Ok(event) = rx.recv() else {
                break;
            };
            match event {
                Event::Done { shard, state } => {
                    settled += 1;
                    completed_now += 1;
                    ckpt.completed.insert(shard);
                    ckpt.agg.merge(&state.agg);
                    ckpt.telemetry.merge(&state.telemetry);
                    ckpt.steals += state.steals;
                    ckpt.store(&checkpoint_path(dir))?;
                    if opts.progress {
                        eprintln!(
                            "campaign: shard {shard}/{n} done ({}/{n} total)",
                            ckpt.completed.len()
                        );
                    }
                    if opts.fail_after_shards == Some(completed_now) {
                        // Simulated crash: stop supervising. Workers
                        // drain (their results are discarded, exactly
                        // as a kill would discard them) and the
                        // directory is left as the crash left it.
                        interrupted = true;
                        abort.store(true, Ordering::Relaxed);
                        queue.lock().expect("shard queue poisoned").clear();
                        break;
                    }
                }
                Event::Retry {
                    shard,
                    attempt,
                    error,
                } => {
                    retries += 1;
                    if opts.progress {
                        eprintln!(
                            "campaign: shard {shard} attempt {} failed, retrying: {error}",
                            attempt + 1
                        );
                    }
                }
                Event::Failed { shard, error } => {
                    settled += 1;
                    failed.push((shard, error));
                }
            }
        }
        Ok(())
    })?;

    failed.sort_by_key(|&(shard, _)| shard);
    let finished = !interrupted && failed.is_empty() && ckpt.completed.len() == n;
    let (summary_path, jsonl_path) = if finished {
        (
            Some(finalize_summary(dir, &ckpt)?),
            finalize_jsonl(dir, &ckpt)?,
        )
    } else {
        (None, None)
    };
    let host_failures_exceeded = finished
        && opts.max_host_failures.is_some_and(|frac| {
            let s = &ckpt.agg.summary;
            s.hosts > 0 && (s.failed as f64) > frac * s.hosts as f64
        });
    Ok(CampaignReport {
        checkpoint: ckpt,
        resumed,
        completed_now,
        retries,
        failed,
        interrupted,
        host_failures_exceeded,
        summary_path,
        jsonl_path,
    })
}

/// Write the rendered campaign summary (atomic). Pure function of the
/// merged aggregation state, so a resumed campaign's file is
/// byte-identical to an uninterrupted one's.
fn finalize_summary(dir: &Path, ckpt: &Checkpoint) -> io::Result<PathBuf> {
    let path = dir.join("summary.txt");
    atomic_write(&path, ckpt.agg.summary.render().as_bytes())?;
    Ok(path)
}

/// Concatenate the shard part files, in shard order, into the campaign
/// JSONL (atomic). Shard slices are contiguous id ranges, so the
/// concatenation is byte-identical to an unsharded `reorder survey
/// --jsonl` of the same spec.
fn finalize_jsonl(dir: &Path, ckpt: &Checkpoint) -> io::Result<Option<PathBuf>> {
    if !ckpt.spec.jsonl {
        return Ok(None);
    }
    let path = dir.join("campaign.jsonl");
    let mut out = AtomicFile::create(&path)?;
    for shard in 1..=ckpt.spec.shards {
        let part = part_path(dir, shard);
        let bytes = fs::read(&part).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("shard part {} missing or unreadable: {e}", part.display()),
            )
        })?;
        out.write_all(&bytes)?;
    }
    out.commit()?;
    Ok(Some(path))
}
