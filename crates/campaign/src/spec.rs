//! The campaign plan: every knob that affects output bytes, and
//! nothing that doesn't.
//!
//! A [`CampaignSpec`] is the identity of a campaign. It serializes to
//! canonical JSON whose FNV-1a hash is the campaign **fingerprint**:
//! two invocations with equal fingerprints produce byte-identical
//! merged output, so a resume is only allowed against a checkpoint
//! whose fingerprint matches. Runtime knobs — worker threads, in-flight
//! window, retry budget, telemetry mode — are deliberately excluded:
//! they change how fast the bytes arrive, never which bytes.

use reorder_core::jsonx::{self, Value};
use reorder_core::telemetry::TelemetryMode;
use reorder_survey::{Budget, CampaignConfig, PopulationModel, TechniqueChoice};
use std::time::Duration;

/// The campaign format marker, written as `"sim_version"` so every
/// fingerprint and checkpoint from before format v1 was retired stays
/// valid. A spec naming any other format is refused.
const FORMAT: &str = "2";

/// The output-affecting configuration of one campaign, plus its shard
/// plan. Field set mirrors [`CampaignConfig`] minus the runtime knobs
/// (`workers`, `telemetry`, `progress`) that cannot change campaign
/// bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Hosts to survey across all shards.
    pub hosts: usize,
    /// Master seed; every host seed derives from it.
    pub seed: u64,
    /// Samples per technique run.
    pub samples: usize,
    /// Measurement rounds per host.
    pub rounds: usize,
    /// Technique selection.
    pub technique: TechniqueChoice,
    /// Take the data-transfer reverse-path baseline.
    pub baseline: bool,
    /// Amenability verdicts only, no measurement.
    pub amenability_only: bool,
    /// Inter-packet gaps (µs) for a campaign-level gap profile.
    pub gaps_us: Vec<u64>,
    /// Share one session across each host's phases (affects the
    /// measurement protocol, hence bytes).
    pub reuse: bool,
    /// Hostile-host rate in parts per million (the CLI's `--chaos`).
    /// Changes which hosts are hostile, hence bytes.
    pub chaos_ppm: u32,
    /// Per-host budget deadline, milliseconds of simulated time.
    /// Changes which phases a slow host completes, hence bytes.
    pub deadline_ms: u64,
    /// Transient-failure retries per measurement round.
    pub host_retries: u32,
    /// Base retry backoff, milliseconds (doubled per retry, charged
    /// against the deadline).
    pub backoff_ms: u64,
    /// Number of shard tasks the campaign is planned as.
    pub shards: usize,
    /// Whether shards produce JSONL part files (concatenated at
    /// finalize into the campaign report).
    pub jsonl: bool,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        let base = CampaignConfig::default();
        let budget = Budget::default();
        CampaignSpec {
            hosts: base.hosts,
            seed: base.seed,
            samples: base.samples,
            rounds: base.rounds,
            technique: base.technique,
            baseline: base.baseline,
            amenability_only: base.amenability_only,
            gaps_us: base.gaps_us,
            reuse: base.reuse,
            chaos_ppm: 0,
            deadline_ms: budget.deadline.as_millis() as u64,
            host_retries: budget.max_retries,
            backoff_ms: budget.backoff.as_millis() as u64,
            shards: 1,
            jsonl: false,
        }
    }
}

impl CampaignSpec {
    /// Canonical JSON form — fixed key order, no whitespace — whose
    /// bytes define the campaign [`CampaignSpec::fingerprint`].
    pub fn to_json(&self) -> String {
        let gaps = self
            .gaps_us
            .iter()
            .map(|g| g.to_string())
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"hosts\":{},\"seed\":{},\"samples\":{},\"rounds\":{},\"technique\":\"{}\",\
             \"baseline\":{},\"amenability_only\":{},\"gaps_us\":[{gaps}],\"reuse\":{},\
             \"sim_version\":\"{FORMAT}\",\"chaos_ppm\":{},\"deadline_ms\":{},\"host_retries\":{},\
             \"backoff_ms\":{},\"shards\":{},\"jsonl\":{}}}",
            self.hosts,
            self.seed,
            self.samples,
            self.rounds,
            self.technique,
            self.baseline,
            self.amenability_only,
            self.reuse,
            self.chaos_ppm,
            self.deadline_ms,
            self.host_retries,
            self.backoff_ms,
            self.shards,
            self.jsonl,
        )
    }

    /// Parse a [`CampaignSpec::to_json`] document. Every field is
    /// required; an out-of-range shard count is rejected here so no
    /// planner downstream sees `shards == 0`.
    pub fn from_json(text: &str) -> Result<CampaignSpec, String> {
        CampaignSpec::from_value(&jsonx::parse(text)?)
    }

    /// [`CampaignSpec::from_json`] for a document already parsed, e.g.
    /// the `spec` member of a checkpoint.
    pub(crate) fn from_value(v: &Value) -> Result<CampaignSpec, String> {
        let flag = |key: &str| v.get(key)?.as_bool().map_err(|e| format!("`{key}`: {e}"));
        let format = v.get("sim_version")?.as_str()?;
        if format != FORMAT {
            return Err(format!(
                "campaign format `{format}` is not supported (v1 was removed; accepted: {FORMAT})"
            ));
        }
        let spec = CampaignSpec {
            hosts: v.int("hosts")?,
            seed: v.int("seed")?,
            samples: v.int("samples")?,
            rounds: v.int("rounds")?,
            technique: TechniqueChoice::parse(v.get("technique")?.as_str()?)?,
            baseline: flag("baseline")?,
            amenability_only: flag("amenability_only")?,
            gaps_us: v
                .get("gaps_us")?
                .items()?
                .iter()
                .map(Value::as_int)
                .collect::<Result<_, _>>()?,
            reuse: flag("reuse")?,
            chaos_ppm: v.int("chaos_ppm")?,
            deadline_ms: v.int("deadline_ms")?,
            host_retries: v.int("host_retries")?,
            backoff_ms: v.int("backoff_ms")?,
            shards: v.int("shards")?,
            jsonl: flag("jsonl")?,
        };
        if spec.shards == 0 {
            return Err("campaign wants at least 1 shard".into());
        }
        Ok(spec)
    }

    /// The campaign identity hash: FNV-1a over the canonical JSON.
    /// Equal fingerprints ⇒ byte-identical merged output; a resume
    /// against a different fingerprint is refused.
    pub fn fingerprint(&self) -> u64 {
        jsonx::fnv1a64(self.to_json().as_bytes())
    }

    /// Materialize the engine configuration for one shard run,
    /// attaching the runtime knobs the spec deliberately omits.
    pub fn config(&self, workers: usize, telemetry: TelemetryMode) -> CampaignConfig {
        CampaignConfig {
            hosts: self.hosts,
            workers,
            seed: self.seed,
            samples: self.samples,
            rounds: self.rounds,
            technique: self.technique,
            baseline: self.baseline,
            amenability_only: self.amenability_only,
            gaps_us: self.gaps_us.clone(),
            reuse: self.reuse,
            telemetry,
            model: PopulationModel {
                chaos_ppm: self.chaos_ppm,
                ..PopulationModel::default()
            },
            budget: Budget {
                deadline: Duration::from_millis(self.deadline_ms),
                max_retries: self.host_retries,
                backoff: Duration::from_millis(self.backoff_ms),
            },
            ..CampaignConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_json_round_trips() {
        let spec = CampaignSpec {
            hosts: 1234,
            seed: 42,
            samples: 7,
            rounds: 2,
            technique: TechniqueChoice::parse("syn").unwrap(),
            baseline: false,
            amenability_only: true,
            gaps_us: vec![0, 50, 300],
            reuse: false,
            chaos_ppm: 200_000,
            deadline_ms: 45_000,
            host_retries: 2,
            backoff_ms: 125,
            shards: 16,
            jsonl: true,
        };
        let restored = CampaignSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(restored, spec);
        assert_eq!(restored.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn fingerprint_tracks_output_affecting_fields() {
        let base = CampaignSpec::default();
        for (label, tweaked) in [
            (
                "hosts",
                CampaignSpec {
                    hosts: 51,
                    ..base.clone()
                },
            ),
            (
                "seed",
                CampaignSpec {
                    seed: 78,
                    ..base.clone()
                },
            ),
            (
                "shards",
                CampaignSpec {
                    shards: 2,
                    ..base.clone()
                },
            ),
            (
                "jsonl",
                CampaignSpec {
                    jsonl: true,
                    ..base.clone()
                },
            ),
            (
                "reuse",
                CampaignSpec {
                    reuse: false,
                    ..base.clone()
                },
            ),
            (
                "chaos_ppm",
                CampaignSpec {
                    chaos_ppm: 200_000,
                    ..base.clone()
                },
            ),
            (
                "deadline_ms",
                CampaignSpec {
                    deadline_ms: 1_000,
                    ..base.clone()
                },
            ),
            (
                "host_retries",
                CampaignSpec {
                    host_retries: 3,
                    ..base.clone()
                },
            ),
        ] {
            assert_ne!(
                tweaked.fingerprint(),
                base.fingerprint(),
                "{label} must change the fingerprint"
            );
        }
    }

    #[test]
    fn config_carries_chaos_and_budget() {
        let spec = CampaignSpec {
            chaos_ppm: 123,
            deadline_ms: 5_000,
            host_retries: 2,
            backoff_ms: 100,
            ..CampaignSpec::default()
        };
        let cfg = spec.config(2, TelemetryMode::Off);
        assert_eq!(cfg.model.chaos_ppm, 123);
        assert_eq!(cfg.budget.deadline, Duration::from_secs(5));
        assert_eq!(cfg.budget.max_retries, 2);
        assert_eq!(cfg.budget.backoff, Duration::from_millis(100));
        // The default spec materializes the default engine budget.
        let plain = CampaignSpec::default().config(1, TelemetryMode::Off);
        assert_eq!(plain.budget, Budget::default());
        assert_eq!(plain.model.chaos_ppm, 0);
    }

    #[test]
    fn spec_rejects_zero_shards_and_malformed_fields() {
        let zero = CampaignSpec::default()
            .to_json()
            .replace("\"shards\":1", "\"shards\":0");
        assert!(CampaignSpec::from_json(&zero).is_err());
        assert!(CampaignSpec::from_json("{}").is_err());
        let bad = CampaignSpec::default()
            .to_json()
            .replace("\"technique\":\"auto\"", "\"technique\":\"warp\"");
        assert!(CampaignSpec::from_json(&bad).is_err());
        // The retired campaign format v1 is refused, not run as v2.
        let v1 = CampaignSpec::default()
            .to_json()
            .replace("\"sim_version\":\"2\"", "\"sim_version\":\"1\"");
        let e = CampaignSpec::from_json(&v1).unwrap_err();
        assert!(e.contains("v1 was removed"), "{e}");
    }
}
