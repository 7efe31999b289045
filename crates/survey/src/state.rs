//! Portable shard state: the sealed, schema-versioned document one
//! campaign shard hands back to an orchestrator, and the library entry
//! point that produces it.
//!
//! A multi-process campaign (`reorder campaign`) runs each shard as a
//! `reorder survey --shard K/N`-equivalent; instead of printing, the
//! shard serializes its exact aggregation state ([`ShardAggregator`])
//! and merged telemetry into a `reorder.shard/1` document. Every
//! accumulator in that state is a commutative monoid with an exact
//! JSON round-trip, so the orchestrator can merge restored shards in
//! any order — completion order, resume order — and obtain bits
//! identical to a single uninterrupted run. Documents are sealed with
//! a trailing FNV-1a hash ([`seal`]/[`unseal`]): a truncated or
//! bit-flipped file is rejected loudly instead of merged silently.

use crate::aggregate::ShardAggregator;
use crate::engine::{run_campaign, CampaignConfig};
use reorder_core::jsonx;
use reorder_core::telemetry::WorkerTelemetry;
use std::io::{self, Write};

/// Version tag of the shard-state document. Bump on any shape change;
/// readers reject other versions before parsing further.
pub(crate) const SHARD_SCHEMA: &str = "reorder.shard/1";

/// Seal a JSON object document with a trailing integrity hash: the
/// FNV-1a of every byte of `doc` is appended as a final `fnv1a64`
/// field. `doc` must be a JSON object (`{...}`).
pub fn seal(doc: &str) -> String {
    assert!(
        doc.starts_with('{') && doc.ends_with('}'),
        "seal() wants a JSON object"
    );
    let hash = jsonx::fnv1a64(doc.as_bytes());
    format!("{},\"fnv1a64\":\"{hash:016x}\"}}", &doc[..doc.len() - 1])
}

/// Verify and strip a [`seal`]ed document's integrity trailer,
/// returning the original payload. Any mismatch — missing trailer,
/// malformed hex, or a hash that does not match the payload bytes —
/// is an error: corruption is surfaced, never absorbed.
pub fn unseal(text: &str) -> Result<String, String> {
    // The trailer has a fixed shape and length, so it is stripped from
    // the end rather than searched for.
    let body = text
        .trim_end()
        .strip_suffix("\"}")
        .ok_or("malformed integrity trailer")?;
    let (head, hex) = (body.len().checked_sub(16))
        .and_then(|at| body.split_at_checked(at))
        .ok_or("malformed integrity hash")?;
    let head = head
        .strip_suffix(",\"fnv1a64\":\"")
        .ok_or("missing integrity hash")?;
    let stored = u64::from_str_radix(hex, 16).map_err(|_| "non-hex integrity hash")?;
    let payload = format!("{head}}}");
    let computed = jsonx::fnv1a64(payload.as_bytes());
    if computed != stored {
        return Err(format!(
            "integrity hash mismatch (stored {hex}, computed {computed:016x}): document is corrupt"
        ));
    }
    Ok(payload)
}

/// One completed shard's portable result: the exact aggregation state
/// plus the shard process's merged telemetry and scheduler steal
/// count. Serialized (sealed) with [`ShardState::to_json`]; an
/// orchestrator restores and merges any subset in any order.
#[derive(Debug, Clone)]
pub struct ShardState {
    /// 1-based shard index within the campaign plan.
    pub shard: usize,
    /// Total shards in the plan.
    pub shards: usize,
    /// The shard's exact aggregation state (summary + events).
    pub agg: ShardAggregator,
    /// The shard run's merged worker telemetry.
    pub telemetry: WorkerTelemetry,
    /// Work-stealing events inside the shard's scheduler.
    pub steals: u64,
}

impl ShardState {
    /// Serialize as a sealed `reorder.shard/1` document.
    pub fn to_json(&self) -> String {
        seal(&format!(
            "{{\"schema\":\"{SHARD_SCHEMA}\",\"shard\":{},\"shards\":{},\"steals\":{},\
             \"agg\":{},\"telemetry\":{}}}",
            self.shard,
            self.shards,
            self.steals,
            self.agg.to_json(),
            self.telemetry.state_json(),
        ))
    }

    /// Parse a sealed [`ShardState::to_json`] document: integrity hash
    /// first, then schema version, then the exact state.
    pub fn from_json(text: &str) -> Result<ShardState, String> {
        let payload = unseal(text)?;
        let doc = jsonx::parse(&payload)?;
        let schema = doc.get("schema")?.as_str()?;
        if schema != SHARD_SCHEMA {
            return Err(format!(
                "unsupported shard-state schema `{schema}` (this build reads {SHARD_SCHEMA})"
            ));
        }
        let shard: usize = doc.int("shard")?;
        let shards: usize = doc.int("shards")?;
        if shards == 0 || shard == 0 || shard > shards {
            return Err(format!("invalid shard index {shard}/{shards}"));
        }
        Ok(ShardState {
            shard,
            shards,
            steals: doc.int("steals")?,
            agg: ShardAggregator::from_value(doc.get("agg")?)?,
            telemetry: WorkerTelemetry::from_state_value(doc.get("telemetry")?)?,
        })
    }
}

/// Run shard `k` of `n` of a campaign and return its portable state —
/// the library entry point a campaign orchestrator (or a worker
/// process) uses instead of the printing CLI path. `base.shard` is
/// overridden by `(k, n)`. When `jsonl` is given the shard's report
/// lines stream to it in host-id order; shard outputs concatenated in
/// shard order are byte-identical to the unsharded campaign.
pub fn run_shard<W: Write>(
    base: &CampaignConfig,
    k: usize,
    n: usize,
    jsonl: Option<&mut W>,
) -> io::Result<ShardState> {
    let cfg = CampaignConfig {
        shard: Some((k, n)),
        ..base.clone()
    };
    let out = run_campaign(&cfg, jsonl)?;
    Ok(ShardState {
        shard: k,
        shards: n,
        agg: ShardAggregator {
            summary: out.summary,
            events: out.events,
        },
        telemetry: out.telemetry.merged(),
        steals: out.stats.steals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorder_core::telemetry::TelemetryMode;

    fn quick_cfg() -> CampaignConfig {
        CampaignConfig {
            hosts: 12,
            workers: 2,
            seed: 99,
            samples: 3,
            baseline: false,
            telemetry: TelemetryMode::Summary,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn seal_round_trips_and_detects_flips() {
        let doc = "{\"k\":1,\"s\":\"txt\"}";
        let sealed = seal(doc);
        assert_eq!(unseal(&sealed).unwrap(), doc);
        // Every single-byte flip anywhere in the sealed document must
        // be detected (either as a broken trailer or a hash mismatch).
        let bytes = sealed.as_bytes();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.to_vec();
            corrupt[i] ^= 0x01;
            if let Ok(s) = std::str::from_utf8(&corrupt) {
                assert!(unseal(s).is_err(), "flip at byte {i} went undetected: {s}");
            }
        }
    }

    #[test]
    fn shard_state_round_trips_exactly() {
        let cfg = quick_cfg();
        let mut jsonl = Vec::new();
        let state = run_shard(&cfg, 1, 2, Some(&mut jsonl)).expect("in-memory sink");
        assert!(state.agg.summary.hosts > 0);
        assert!(!jsonl.is_empty());
        let doc = state.to_json();
        let restored = ShardState::from_json(&doc).expect("sealed doc must parse");
        assert_eq!(restored.to_json(), doc);
        assert_eq!(
            restored.agg.summary.render(),
            state.agg.summary.render(),
            "restored state must render identically"
        );
        assert_eq!(restored.telemetry, state.telemetry);
    }

    #[test]
    fn shard_states_merge_to_the_unsharded_summary() {
        let cfg = quick_cfg();
        let whole = run_campaign(&cfg, None::<&mut Vec<u8>>).expect("no sink");
        let mut merged = ShardAggregator::default();
        // Merge shard 3, then 1, then 2 — completion order, not id
        // order — through a serialize/restore cycle.
        for k in [3usize, 1, 2] {
            let state = run_shard(&cfg, k, 3, None::<&mut Vec<u8>>).expect("no sink");
            let restored = ShardState::from_json(&state.to_json()).expect("parse");
            merged.merge(&restored.agg);
        }
        assert_eq!(merged.summary.render(), whole.summary.render());
        assert_eq!(merged.events, whole.events);
    }

    #[test]
    fn shard_state_rejects_foreign_schema_and_bad_index() {
        let cfg = quick_cfg();
        let state = run_shard(&cfg, 1, 1, None::<&mut Vec<u8>>).expect("no sink");
        let doc = state.to_json();
        let foreign = seal(
            &unseal(&doc)
                .unwrap()
                .replace(SHARD_SCHEMA, "reorder.shard/9"),
        );
        assert!(ShardState::from_json(&foreign)
            .unwrap_err()
            .contains("schema"));
        let bad = seal(&unseal(&doc).unwrap().replace("\"shard\":1", "\"shard\":7"));
        assert!(ShardState::from_json(&bad).is_err());
    }
}
