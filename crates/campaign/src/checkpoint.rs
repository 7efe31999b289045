//! The crash-safety layer: atomic file writes and the sealed,
//! schema-versioned `reorder.checkpoint/1` document.
//!
//! Every file the orchestrator (or the CLI's `--jsonl`/`--metrics`
//! sinks) persists goes through write-temp-then-rename: a reader can
//! observe the old file or the new file, never a truncated hybrid.
//! The checkpoint document embeds the campaign spec, the
//! completed-shard set, the exact merged aggregation state and
//! telemetry, and is sealed with a trailing FNV-1a integrity hash —
//! a flipped byte is rejected on load, not merged silently.

use crate::spec::CampaignSpec;
use reorder_core::jsonx;
use reorder_core::telemetry::WorkerTelemetry;
use reorder_survey::{seal, unseal, ShardAggregator};
use std::collections::BTreeSet;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Version tag of the checkpoint document. Bump on any shape change;
/// readers reject other versions before parsing further.
pub const CHECKPOINT_SCHEMA: &str = "reorder.checkpoint/1";

/// The temp-file path `atomic_write` and [`AtomicFile`] stage into:
/// same directory as the destination (rename must not cross a
/// filesystem), name suffixed so a crashed writer's leftovers are
/// recognizable and never mistaken for the real file.
fn staging_path(dst: &Path) -> PathBuf {
    let mut name = dst.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}", std::process::id()));
    dst.with_file_name(name)
}

/// Write `bytes` to `dst` atomically: stage into a same-directory temp
/// file, flush it to disk, then rename over the destination. An
/// interrupt at any point leaves either the previous `dst` or no
/// `dst` — never a truncated, valid-looking file.
pub fn atomic_write(dst: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = staging_path(dst);
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    fs::rename(&tmp, dst)?;
    Ok(())
}

/// A streaming atomic file: writes buffer into the staging temp file
/// and only [`AtomicFile::commit`] renames it into place. Dropping
/// without committing removes the temp file, leaving any previous
/// destination untouched — the streaming counterpart of
/// [`atomic_write`] for sinks like `--jsonl` that are fed
/// incrementally.
#[derive(Debug)]
pub struct AtomicFile {
    dst: PathBuf,
    file: BufWriter<File>,
    staging: StagingGuard,
}

/// Deletes the staging file on drop unless [`AtomicFile::commit`]
/// renamed it into place: any exit short of a successful commit leaves
/// the destination untouched and no temp file behind.
#[derive(Debug)]
struct StagingGuard {
    tmp: PathBuf,
    committed: bool,
}

impl Drop for StagingGuard {
    fn drop(&mut self) {
        if !self.committed {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

impl AtomicFile {
    /// Open a staging file for `dst`.
    pub fn create(dst: &Path) -> io::Result<AtomicFile> {
        let tmp = staging_path(dst);
        let file = File::create(&tmp)?;
        Ok(AtomicFile {
            dst: dst.to_path_buf(),
            file: BufWriter::new(file),
            staging: StagingGuard {
                tmp,
                committed: false,
            },
        })
    }

    /// Flush, sync and rename the staged bytes into place. Consuming
    /// `self` makes a write after commit unrepresentable.
    pub fn commit(mut self) -> io::Result<()> {
        let file = self
            .file
            .into_inner()
            .map_err(|e| io::Error::other(e.to_string()))?;
        file.sync_all()?;
        drop(file);
        fs::rename(&self.staging.tmp, &self.dst)?;
        self.staging.committed = true;
        Ok(())
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// The durable state of a campaign in flight: the plan, which shards
/// have completed, and the exact merged result of those shards.
/// Persisted at every shard boundary; a resumed campaign merges the
/// remaining shards into this state and — because every accumulator is
/// a commutative monoid with exact serialization — produces bytes
/// identical to an uninterrupted run.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The campaign plan this state belongs to.
    pub spec: CampaignSpec,
    /// 1-based ids of shards whose state is merged in `agg`.
    pub completed: BTreeSet<usize>,
    /// Exact merged aggregation state of the completed shards.
    pub agg: ShardAggregator,
    /// Merged telemetry of the completed shards.
    pub telemetry: WorkerTelemetry,
    /// Scheduler steals summed over completed shards.
    pub steals: u64,
}

impl Checkpoint {
    /// A fresh checkpoint: plan recorded, nothing completed.
    pub fn new(spec: CampaignSpec) -> Checkpoint {
        Checkpoint {
            spec,
            completed: BTreeSet::new(),
            agg: ShardAggregator::default(),
            telemetry: WorkerTelemetry::new(),
            steals: 0,
        }
    }

    /// Serialize as a sealed `reorder.checkpoint/1` document.
    pub fn to_json(&self) -> String {
        let completed = self
            .completed
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(",");
        seal(&format!(
            "{{\"schema\":\"{CHECKPOINT_SCHEMA}\",\"fingerprint\":\"{:016x}\",\
             \"spec\":{},\"completed\":[{completed}],\"steals\":{},\"agg\":{},\
             \"telemetry\":{}}}",
            self.spec.fingerprint(),
            self.spec.to_json(),
            self.steals,
            self.agg.to_json(),
            self.telemetry.state_json(),
        ))
    }

    /// Parse a sealed checkpoint: integrity hash first, then schema
    /// version, then the spec (whose recomputed fingerprint must match
    /// the stored one), then the exact state.
    pub fn from_json(text: &str) -> Result<Checkpoint, String> {
        let payload = unseal(text)?;
        let doc = jsonx::parse(&payload)?;
        let schema = doc.get("schema")?.as_str()?;
        if schema != CHECKPOINT_SCHEMA {
            return Err(format!(
                "unsupported checkpoint schema `{schema}` (this build reads {CHECKPOINT_SCHEMA})"
            ));
        }
        let spec = CampaignSpec::from_value(doc.get("spec")?)?;
        let stored = doc.get("fingerprint")?.as_str()?;
        let expect = format!("{:016x}", spec.fingerprint());
        if stored != expect {
            return Err(format!(
                "checkpoint fingerprint {stored} does not match its spec ({expect})"
            ));
        }
        let mut completed = BTreeSet::new();
        for shard in doc.get("completed")?.items()? {
            let shard: usize = shard.as_int()?;
            if shard == 0 || shard > spec.shards {
                return Err(format!(
                    "completed shard {shard} outside plan 1..={}",
                    spec.shards
                ));
            }
            if completed.last().is_some_and(|&last| last >= shard) {
                return Err(format!("completed shard {shard} out of order"));
            }
            completed.insert(shard);
        }
        Ok(Checkpoint {
            spec,
            completed,
            steals: doc.int("steals")?,
            agg: ShardAggregator::from_value(doc.get("agg")?)?,
            telemetry: WorkerTelemetry::from_state_value(doc.get("telemetry")?)?,
        })
    }

    /// Persist atomically at `path`.
    pub fn store(&self, path: &Path) -> io::Result<()> {
        atomic_write(path, format!("{}\n", self.to_json()).as_bytes())
    }

    /// Load and verify a checkpoint from `path`.
    pub fn load(path: &Path) -> io::Result<Checkpoint> {
        let text = fs::read_to_string(path)?;
        Checkpoint::from_json(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("reorder_ckpt_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_replaces_whole_files() {
        let dir = tmpdir("aw");
        let dst = dir.join("out.json");
        atomic_write(&dst, b"first version\n").unwrap();
        atomic_write(&dst, b"second\n").unwrap();
        assert_eq!(fs::read_to_string(&dst).unwrap(), "second\n");
        // No staging leftovers after a successful write.
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_file_commits_or_vanishes() {
        let dir = tmpdir("af");
        let dst = dir.join("stream.jsonl");
        // Dropped uncommitted: destination never appears.
        {
            let mut f = AtomicFile::create(&dst).unwrap();
            f.write_all(b"partial").unwrap();
        }
        assert!(!dst.exists(), "uncommitted stream must not materialize");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0, "no temp leftovers");
        // Committed: all bytes, exactly once.
        let mut f = AtomicFile::create(&dst).unwrap();
        f.write_all(b"line1\nline2\n").unwrap();
        f.commit().unwrap();
        assert_eq!(fs::read_to_string(&dst).unwrap(), "line1\nline2\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_round_trips_through_disk() {
        let dir = tmpdir("rt");
        let path = dir.join("checkpoint.json");
        let mut ckpt = Checkpoint::new(CampaignSpec {
            shards: 4,
            hosts: 40,
            ..CampaignSpec::default()
        });
        ckpt.completed.insert(2);
        ckpt.completed.insert(4);
        ckpt.steals = 3;
        ckpt.store(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.spec, ckpt.spec);
        assert_eq!(loaded.completed, ckpt.completed);
        assert_eq!(loaded.steals, 3);
        assert_eq!(loaded.to_json(), ckpt.to_json());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rejects_corruption_and_mismatches() {
        let ckpt = Checkpoint::new(CampaignSpec::default());
        let good = ckpt.to_json();
        // Flipped byte in the middle of the payload: integrity hash.
        let mut corrupt = good.clone().into_bytes();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x20;
        if let Ok(s) = std::str::from_utf8(&corrupt) {
            assert!(Checkpoint::from_json(s).is_err(), "flip must be rejected");
        }
        // A doctored spec with a re-sealed document: fingerprint check.
        let tampered = seal(
            &unseal(&good)
                .unwrap()
                .replace("\"hosts\":50", "\"hosts\":51"),
        );
        let err = Checkpoint::from_json(&tampered).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        // Completed shard outside the plan.
        let bad_shard = seal(
            &unseal(&good)
                .unwrap()
                .replace("\"completed\":[]", "\"completed\":[9]"),
        );
        assert!(Checkpoint::from_json(&bad_shard).is_err());
    }
}
