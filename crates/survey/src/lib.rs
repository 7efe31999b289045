//! # reorder-survey
//!
//! A sharded, streaming campaign engine that scales the §IV-B host
//! survey of *Measuring Packet Reordering* (Bellardo & Savage, IMC
//! 2002) from the paper's 50 hosts to 100k+ simulated ones.
//!
//! Four layers:
//!
//! 1. [`population`] — generates diverse simulated hosts from
//!    configurable distributions over OS personalities, IPID schemes
//!    and path conditions (loss, jitter, dummynet swaps, striping,
//!    multipath, wireless ARQ, load balancing). Every host is derived
//!    independently from the master seed, so generation is
//!    embarrassingly parallel and shard-count-independent.
//! 2. [`scheduler`] — a work-stealing `std::thread` pool over contiguous
//!    chunks of host ids. Each host simulation stays
//!    single-threaded-deterministic; parallelism is *across* hosts, and
//!    idle workers steal chunks from busy ones so slow scenarios
//!    (load-balanced paths, big transfers) don't straggle.
//! 3. [`pipeline`] — the paper's live-host protocol per host, driven
//!    through `reorder_core`'s unified [`Technique`](reorder_core::Technique)
//!    registry: IPID validation first, Dual Connection Test where
//!    amenable, SYN-test fallback, data-transfer baseline; recorded as
//!    an amenability verdict plus per-direction estimates. By default
//!    each host's phases share one connection-caching
//!    [`Session`](reorder_core::Session) (amenability probe,
//!    measurement, baseline and gap sweep reuse handshakes and the
//!    validation verdict — the per-host fast path).
//! 4. [`aggregate`] + [`report`] — sharded, mergeable streaming
//!    aggregation (order-independent mean/CI via
//!    `reorder_core::stats::Moments`, mergeable quantile sketches over
//!    per-host rates via `reorder_core::stats::QuantileSketch`,
//!    per-personality / per-technique / per-mechanism breakdowns, an
//!    optional campaign gap profile) and report sinks (JSONL per host,
//!    a rendered summary table). Memory is O(hosts), never O(samples):
//!    workers reduce each `MeasurementRun` to counts before reporting.
//!
//! The [`engine`] ties them together. Results are byte-identical across
//! reruns *and* worker counts for a fixed master seed: host seeds are
//! derived per host id (not per worker), and every piece of summary
//! state merges exactly (commutative monoids all the way down), so
//! per-worker [`ShardAggregator`]s fold results in completion order
//! and still merge to the same bytes. Per-host output is rendered on
//! the workers into contiguous id chunks, which reach the sink in
//! chunk order.
//!
//! ```
//! use reorder_survey::{run_campaign_with, CampaignConfig, HostReport};
//!
//! let cfg = CampaignConfig {
//!     hosts: 8,
//!     workers: 2,
//!     seed: 42,
//!     samples: 5,
//!     ..CampaignConfig::default()
//! };
//! let mut reports = Vec::new();
//! let out = run_campaign_with(
//!     &cfg,
//!     |r, chunk: &mut Vec<HostReport>| chunk.push(r),
//!     |chunk| Ok(reports.extend(chunk)),
//! )
//! .unwrap();
//! assert_eq!(reports.len(), 8);
//! assert_eq!(out.summary.hosts, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod engine;
pub mod metrics;
pub mod pipeline;
pub mod population;
pub mod report;
pub mod scheduler;
pub mod state;

pub use aggregate::{CampaignSummary, FailureAgg, ShardAggregator};
pub use engine::{run_campaign, run_campaign_with, shard_bounds, CampaignConfig, CampaignOutcome};
pub use metrics::{CampaignTelemetry, METRICS_SCHEMA};
pub use pipeline::{HostJob, HostOutcome, HostReport, TechniqueChoice};
pub use population::PopulationModel;
pub use reorder_core::telemetry::{TelemetryMode, WorkerTelemetry};
pub use reorder_core::{Budget, HostErrorKind};
pub use state::{run_shard, seal, unseal, ShardState};
