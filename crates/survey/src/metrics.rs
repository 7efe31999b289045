//! Campaign-level telemetry: per-worker [`WorkerTelemetry`] collected
//! by the engine, the schema-versioned metrics JSON document the CLI's
//! `--metrics` flag emits, and the `--progress` heartbeat line.
//!
//! The document is hand-rolled JSON like every other sink in this
//! workspace (no serde offline) and deterministic *in shape*: keys,
//! their order, and the integer counters are pinned by the schema
//! golden test, while wall-clock durations are declared
//! nondeterministic output and never feed back into campaign reports.
//! Merging is exact — [`CampaignTelemetry::merged`] folds the workers'
//! states with [`WorkerTelemetry::merge`], so any partition of hosts
//! across workers or shards produces identical merged counters.

use reorder_core::telemetry::{TelemetryMode, WorkerTelemetry};

/// Version tag of the metrics JSON document. Bump on any
/// key/shape change; consumers must check it before parsing further.
pub const METRICS_SCHEMA: &str = "reorder.metrics/1";

/// Telemetry a finished campaign hands back: one [`WorkerTelemetry`]
/// per worker (index order), tagged with the mode that recorded it.
/// Empty (no workers) when the campaign ran with
/// [`TelemetryMode::Off`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignTelemetry {
    /// Mode the campaign recorded under.
    pub mode: TelemetryMode,
    /// Per-worker telemetry, in worker-index order.
    pub per_worker: Vec<WorkerTelemetry>,
    /// Engine/collector-side telemetry that belongs to no single
    /// worker (e.g. the final shard-merge's `agg.merges`). Folded into
    /// [`CampaignTelemetry::merged`].
    pub campaign: WorkerTelemetry,
}

impl CampaignTelemetry {
    /// The `Off`-mode value: nothing recorded.
    #[cfg(test)]
    pub(crate) fn disabled() -> Self {
        CampaignTelemetry::default()
    }

    /// Exact merge of every worker's telemetry (counters add, span
    /// moments and sketches merge) — independent of worker order and
    /// of how hosts were partitioned.
    pub fn merged(&self) -> WorkerTelemetry {
        let mut all = self.campaign.clone();
        for tel in &self.per_worker {
            all.merge(tel);
        }
        all
    }

    /// Render the schema-versioned metrics document. `hosts`, `seed`,
    /// `events` and `steals` come from the campaign outcome; `wall_s`
    /// is the measured campaign wall time (nondeterministic, like
    /// every duration in here).
    pub fn to_json(&self, hosts: u64, seed: u64, events: u64, steals: u64, wall_s: f64) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"schema\":\"{METRICS_SCHEMA}\",\"mode\":\"{}\",\"hosts\":{hosts},\
             \"workers\":{},\"seed\":{seed},\"wall_s\":{wall_s:.9},\"events\":{events},\
             \"steals\":{steals},\"merged\":",
            self.mode,
            self.per_worker.len(),
        ));
        out.push_str(&self.merged().to_json());
        out.push_str(",\"per_worker\":[");
        for (i, tel) in self.per_worker.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&tel.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// One `--progress` heartbeat line (without trailing newline):
/// hosts done, completion rate, ETA, and per-worker utilization
/// (busy/elapsed, from the scheduler probe) when timing is on. Pure
/// formatting — testable without a clock.
pub(crate) fn progress_line(done: u64, total: u64, elapsed_s: f64, busy_ns: &[u64]) -> String {
    let pct = if total > 0 {
        100.0 * done as f64 / total as f64
    } else {
        100.0
    };
    let rate = if elapsed_s > 0.0 {
        done as f64 / elapsed_s
    } else {
        0.0
    };
    let eta = if rate > 0.0 {
        (total.saturating_sub(done)) as f64 / rate
    } else {
        f64::INFINITY
    };
    let mut line = format!(
        "progress: {done}/{total} hosts ({pct:.1}%) | {rate:.1} hosts/s | eta {}",
        if eta.is_finite() {
            format!("{eta:.1}s")
        } else {
            "?".to_string()
        }
    );
    if !busy_ns.is_empty() && elapsed_s > 0.0 {
        line.push_str(" | util");
        let shown = busy_ns.len().min(8);
        for &ns in &busy_ns[..shown] {
            let util = (ns as f64 / 1e9 / elapsed_s * 100.0).min(100.0);
            line.push_str(&format!(" {util:.0}%"));
        }
        if busy_ns.len() > shown {
            line.push('…');
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker(events: u64, span_s: f64) -> WorkerTelemetry {
        let mut tel = WorkerTelemetry::new();
        tel.count("netsim.events", events);
        tel.record_span("host", TelemetryMode::Summary, span_s);
        tel
    }

    #[test]
    fn merged_is_partition_invariant() {
        let tel = CampaignTelemetry {
            mode: TelemetryMode::Summary,
            per_worker: vec![worker(10, 0.5), worker(20, 1.5), worker(5, 1.0)],
            ..CampaignTelemetry::default()
        };
        let swapped = CampaignTelemetry {
            mode: TelemetryMode::Summary,
            per_worker: vec![worker(5, 1.0), worker(10, 0.5), worker(20, 1.5)],
            ..CampaignTelemetry::default()
        };
        assert_eq!(tel.merged(), swapped.merged());
        assert_eq!(tel.merged().counter("netsim.events"), 35);
        assert_eq!(tel.merged().span_stats("host").unwrap().count(), 3);
    }

    #[test]
    fn document_has_required_keys() {
        let tel = CampaignTelemetry {
            mode: TelemetryMode::Summary,
            per_worker: vec![worker(10, 0.5), worker(20, 1.5)],
            ..CampaignTelemetry::default()
        };
        let json = tel.to_json(30, 7, 30, 2, 1.25);
        for key in [
            "\"schema\":\"reorder.metrics/1\"",
            "\"mode\":\"summary\"",
            "\"hosts\":30",
            "\"workers\":2",
            "\"seed\":7",
            "\"wall_s\":1.250000000",
            "\"events\":30",
            "\"steals\":2",
            "\"merged\":{",
            "\"per_worker\":[",
            "\"counters\":{",
            "\"spans\":{",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn progress_line_shape() {
        let line = progress_line(42, 100, 2.0, &[1_900_000_000, 1_000_000_000]);
        assert!(line.starts_with("progress: 42/100 hosts (42.0%)"), "{line}");
        assert!(line.contains("21.0 hosts/s"), "{line}");
        assert!(line.contains("eta 2.8s"), "{line}");
        assert!(line.contains("util 95% 50%"), "{line}");
    }

    #[test]
    fn progress_line_degenerate_inputs() {
        let line = progress_line(0, 10, 0.0, &[]);
        assert!(line.contains("eta ?"), "{line}");
        assert!(!line.contains("util"), "{line}");
        // Never divide by a zero total.
        let line = progress_line(0, 0, 1.0, &[]);
        assert!(line.contains("(100.0%)"), "{line}");
    }
}
