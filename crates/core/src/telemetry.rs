//! Zero-dependency campaign telemetry: monotonic counters and span
//! timers behind a runtime [`TelemetryMode`], accumulated into a
//! [`WorkerTelemetry`] that is an exactly mergeable monoid.
//!
//! The design borrows the aggregation layer's contract wholesale:
//! telemetry state is integer counters plus [`Moments`] /
//! [`QuantileSketch`] accumulators, all of which merge associatively
//! and commutatively down to the last bit. Each campaign worker owns
//! one [`WorkerTelemetry`]; any partitioning of the same observations
//! across workers merges to identical state, so a metrics document is
//! independent of the worker count and steal schedule — the same law
//! `ShardAggregator` obeys for campaign results.
//!
//! Cost contract: with [`TelemetryMode::Off`] nothing is measured — a
//! [`TelemetryMode::start`] is a branch returning an empty
//! [`Stopwatch`], never a clock syscall, and recording an empty
//! stopwatch is another branch. `Summary` records counters and span
//! moments (one `Instant::now` pair per span); `Full` additionally
//! feeds every span duration into a [`QuantileSketch`] for latency
//! distributions. Wall-clock durations are inherently nondeterministic,
//! so they live only in telemetry output — never in campaign reports,
//! whose bytes stay pinned regardless of mode.

use crate::jsonx::{self, Value};
use crate::stats::{Moments, QuantileSketch};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// Intern a dynamic label as `&'static str` — the checkpoint-restore
/// path for telemetry and aggregate maps, whose keys are static by
/// construction everywhere else. Each distinct label leaks exactly
/// once (deduplicated through a global set), so memory growth is
/// bounded by the label vocabulary, which is finite: restored
/// documents carry only labels some build emitted.
pub fn intern_label(label: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock, PoisonError};
    static INTERNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    // The set is only ever inserted into, so a holder that panicked
    // cannot have left it half-updated: recover rather than propagate.
    let mut set = INTERNED
        .get_or_init(|| Mutex::new(BTreeSet::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    match set.get(label) {
        Some(&interned) => interned,
        None => {
            let leaked: &'static str = Box::leak(label.to_owned().into_boxed_str());
            set.insert(leaked);
            leaked
        }
    }
}

/// How much the telemetry layer measures. Runtime-selected (the CLI's
/// `--telemetry`), default [`TelemetryMode::Off`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TelemetryMode {
    /// Measure nothing. The instrumented code paths reduce to a few
    /// well-predicted branches; no clock is read.
    #[default]
    Off,
    /// Counters plus per-span count/mean/stddev ([`Moments`]).
    Summary,
    /// Everything in `Summary`, plus a [`QuantileSketch`] latency
    /// distribution per span label.
    Full,
}

impl TelemetryMode {
    /// Every accepted spelling, for error messages and usage text.
    pub(crate) const ACCEPTED: [&'static str; 3] = ["off", "summary", "full"];

    /// Exhaustive, case-sensitive parse; the error lists the accepted
    /// set.
    pub fn parse(name: &str) -> Result<TelemetryMode, String> {
        match name {
            "off" => Ok(TelemetryMode::Off),
            "summary" => Ok(TelemetryMode::Summary),
            "full" => Ok(TelemetryMode::Full),
            other => Err(format!(
                "unknown telemetry mode `{other}` (accepted: {})",
                TelemetryMode::ACCEPTED.join(", ")
            )),
        }
    }

    /// Whether anything is measured at all.
    pub fn is_enabled(self) -> bool {
        self != TelemetryMode::Off
    }

    /// Start timing a span: reads the clock when enabled, otherwise
    /// returns an empty [`Stopwatch`] without any syscall.
    pub fn start(self) -> Stopwatch {
        if self.is_enabled() {
            // reorder-lint: allow(wall-clock, span timing is observability-only; telemetry never feeds report bytes — proven by the pinned-hash determinism suite)
            Stopwatch(Some(Instant::now()))
        } else {
            Stopwatch(None)
        }
    }
}

impl fmt::Display for TelemetryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TelemetryMode::Off => "off",
            TelemetryMode::Summary => "summary",
            TelemetryMode::Full => "full",
        })
    }
}

/// A started (or deliberately empty) span timer — the value
/// [`TelemetryMode::start`] hands out. Copyable and inert: dropping it
/// records nothing; hand it to [`WorkerTelemetry::span`] to record.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Seconds since [`TelemetryMode::start`], or `None` for an empty
    /// stopwatch.
    pub(crate) fn elapsed_secs(self) -> Option<f64> {
        self.0.map(|t| t.elapsed().as_secs_f64())
    }
}

/// Mergeable duration statistics for one span label: count, mean and
/// stddev via [`Moments`] (seconds), plus a [`QuantileSketch`] latency
/// distribution populated in [`TelemetryMode::Full`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Span durations in seconds (count / mean / stddev).
    pub secs: Moments,
    /// Latency distribution (empty unless recorded under `Full`).
    pub sketch: QuantileSketch,
}

impl SpanStats {
    /// Fold in one span duration.
    pub(crate) fn record(&mut self, mode: TelemetryMode, secs: f64) {
        self.secs.push(secs);
        if mode == TelemetryMode::Full {
            self.sketch.push(secs);
        }
    }

    /// Spans recorded.
    pub fn count(&self) -> u64 {
        self.secs.count()
    }

    /// Total seconds across recorded spans.
    pub fn total_secs(&self) -> f64 {
        self.secs.mean() * self.secs.count() as f64
    }

    /// Combine two accumulators — exactly associative and commutative
    /// ([`Moments::merge`] / [`QuantileSketch::merge`]).
    pub(crate) fn merge(&mut self, other: &SpanStats) {
        self.secs = self.secs.merge(&other.secs);
        self.sketch.merge(&other.sketch);
    }

    /// Serialize the exact accumulator state (integer fixed-point
    /// moments plus sketch buckets) — the checkpoint form, distinct
    /// from the rounded display document in `WorkerTelemetry::to_json`.
    pub(crate) fn state_json(&self) -> String {
        format!(
            "{{\"secs\":{},\"sketch\":{}}}",
            self.secs.to_json(),
            self.sketch.to_json()
        )
    }

    fn from_state_value(v: &Value) -> Result<SpanStats, String> {
        Ok(SpanStats {
            secs: Moments::from_value(v.get("secs")?)?,
            sketch: QuantileSketch::from_value(v.get("sketch")?)?,
        })
    }
}

/// One worker's telemetry: monotonic counters and per-label span
/// statistics, both keyed by `&'static str` labels. An exactly
/// mergeable monoid: [`WorkerTelemetry::new`] is the identity and
/// [`WorkerTelemetry::merge`] is associative and commutative, so any
/// partition of observations across workers merges to identical state
/// (asserted by `tests/prop_telemetry.rs`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerTelemetry {
    counters: BTreeMap<&'static str, u64>,
    spans: BTreeMap<&'static str, SpanStats>,
}

impl WorkerTelemetry {
    /// The empty telemetry state (the monoid identity).
    pub fn new() -> Self {
        WorkerTelemetry::default()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty()
    }

    /// Add `n` to the monotonic counter `key`. Zero-valued adds still
    /// materialize the counter, so a document always carries the full
    /// key set its producer observed.
    pub fn count(&mut self, key: &'static str, n: u64) {
        *self.counters.entry(key).or_insert(0) += n;
    }

    /// Current value of counter `key` (0 when never counted).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// All span statistics, in key order.
    pub fn spans(&self) -> impl Iterator<Item = (&'static str, &SpanStats)> + '_ {
        self.spans.iter().map(|(&k, v)| (k, v))
    }

    /// Span statistics for `key`, when any were recorded.
    pub fn span_stats(&self, key: &str) -> Option<&SpanStats> {
        self.spans.get(key)
    }

    /// Record a finished span: a no-op for an empty stopwatch (the
    /// `Off`-mode fast path — one branch, no map lookup).
    pub fn span(&mut self, key: &'static str, mode: TelemetryMode, sw: Stopwatch) {
        if let Some(secs) = sw.elapsed_secs() {
            self.record_span(key, mode, secs);
        }
    }

    /// Fold an explicit span duration (seconds) into `key` — the
    /// testable core of [`WorkerTelemetry::span`].
    pub fn record_span(&mut self, key: &'static str, mode: TelemetryMode, secs: f64) {
        self.spans.entry(key).or_default().record(mode, secs);
    }

    /// Absorb another worker's telemetry. Counters add; span stats
    /// merge bucket by bucket. Exactly associative and
    /// commutative with [`WorkerTelemetry::new`] as identity.
    pub fn merge(&mut self, other: &WorkerTelemetry) {
        for (&k, &v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (&k, s) in &other.spans {
            self.spans.entry(k).or_default().merge(s);
        }
    }

    /// Hand-rolled JSON object: `{"counters":{...},"spans":{...}}`.
    /// Keys are emitted in sorted order and floats with fixed
    /// 9-decimal precision, so equal state renders equal bytes — the
    /// schema golden test pins this format.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        }
        out.push_str("},\"spans\":{");
        for (i, (k, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{k}\":{{\"count\":{},\"total_s\":{:.9},\"mean_s\":{:.9},\"stddev_s\":{:.9}",
                s.count(),
                s.total_secs(),
                s.secs.mean(),
                s.secs.stddev()
            ));
            if s.sketch.count() > 0 {
                for (label, q) in [("p50_s", 0.5), ("p90_s", 0.9), ("p99_s", 0.99)] {
                    if let Some(v) = s.sketch.quantile(q) {
                        out.push_str(&format!(",\"{label}\":{v:.9}"));
                    }
                }
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// Serialize the exact telemetry state for checkpoints. Unlike the
    /// display document [`WorkerTelemetry::to_json`] (whose floats are
    /// rounded to 9 decimals and golden-pinned), this emits the raw
    /// integer accumulator state and round-trips bit-exactly through
    /// [`WorkerTelemetry::from_state_json`]: merging restored state
    /// equals merging the originals.
    pub fn state_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{v}"));
        }
        out.push_str("},\"spans\":{");
        for (i, (k, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{k}\":{}", s.state_json()));
        }
        out.push_str("}}");
        out
    }

    /// Parse a [`WorkerTelemetry::state_json`] document back into the
    /// exact state, interning restored labels via [`intern_label`].
    /// Rejects malformed documents rather than defaulting fields.
    pub fn from_state_json(text: &str) -> Result<WorkerTelemetry, String> {
        WorkerTelemetry::from_state_value(&jsonx::parse(text)?)
    }

    /// [`WorkerTelemetry::from_state_json`] for a document already
    /// parsed, e.g. the `telemetry` member of a checkpoint.
    pub fn from_state_value(v: &Value) -> Result<WorkerTelemetry, String> {
        let mut tel = WorkerTelemetry::new();
        for (key, n) in v.get("counters")?.members()? {
            let n = n.as_int().map_err(|e| format!("counter `{key}`: {e}"))?;
            tel.counters.insert(intern_label(key), n);
        }
        for (key, span) in v.get("spans")?.members()? {
            let span =
                SpanStats::from_state_value(span).map_err(|e| format!("span `{key}`: {e}"))?;
            tel.spans.insert(intern_label(key), span);
        }
        Ok(tel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parse_round_trips() {
        for name in TelemetryMode::ACCEPTED {
            let mode = TelemetryMode::parse(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(mode.to_string(), name);
        }
        let err = TelemetryMode::parse("verbose").unwrap_err();
        for name in TelemetryMode::ACCEPTED {
            assert!(err.contains(name), "error must list `{name}`: {err}");
        }
    }

    #[test]
    fn off_mode_stopwatch_is_empty() {
        let sw = TelemetryMode::Off.start();
        assert!(sw.elapsed_secs().is_none());
        let mut tel = WorkerTelemetry::new();
        tel.span("host", TelemetryMode::Off, sw);
        assert!(tel.is_empty(), "Off must record nothing");
    }

    #[test]
    fn summary_records_moments_not_sketch() {
        let mut tel = WorkerTelemetry::new();
        tel.record_span("host", TelemetryMode::Summary, 0.25);
        tel.record_span("host", TelemetryMode::Summary, 0.75);
        let s = tel.span_stats("host").expect("recorded");
        assert_eq!(s.count(), 2);
        assert!((s.secs.mean() - 0.5).abs() < 1e-12);
        assert_eq!(s.sketch.count(), 0, "sketch is Full-only");
    }

    #[test]
    fn full_feeds_the_sketch() {
        let mut tel = WorkerTelemetry::new();
        for i in 1..=100 {
            tel.record_span("measure", TelemetryMode::Full, i as f64 * 1e-3);
        }
        let s = tel.span_stats("measure").expect("recorded");
        assert_eq!(s.sketch.count(), 100);
        // Zero-based rank round(0.5·99) = 50 → the 51st value, 51ms,
        // within the sketch's 0.39% relative error.
        let p50 = s.sketch.quantile(0.5).expect("non-empty");
        assert!((p50 - 0.051).abs() / 0.051 < 0.01, "p50 ≈ 51ms, got {p50}");
    }

    #[test]
    fn counters_add_and_merge() {
        let mut a = WorkerTelemetry::new();
        a.count("netsim.events", 10);
        a.count("netsim.events", 5);
        let mut b = WorkerTelemetry::new();
        b.count("netsim.events", 7);
        b.count("pool.hits", 3);
        a.merge(&b);
        assert_eq!(a.counter("netsim.events"), 22);
        assert_eq!(a.counter("pool.hits"), 3);
        assert_eq!(a.counter("absent"), 0);
    }

    #[test]
    fn live_stopwatch_records_a_span() {
        let mode = TelemetryMode::Summary;
        let sw = mode.start();
        let mut tel = WorkerTelemetry::new();
        tel.span("host", mode, sw);
        let s = tel.span_stats("host").expect("recorded");
        assert_eq!(s.count(), 1);
        assert!(s.secs.mean() >= 0.0);
    }

    #[test]
    fn state_json_round_trips_exactly() {
        let mut tel = WorkerTelemetry::new();
        tel.count("netsim.events", 12345);
        tel.count("pool.hits", 0);
        for i in 0..50 {
            tel.record_span("host", TelemetryMode::Full, 0.001 + i as f64 * 1e-4);
            tel.record_span("measure", TelemetryMode::Summary, 0.3125 * (i + 1) as f64);
        }
        let restored = WorkerTelemetry::from_state_json(&tel.state_json())
            .expect("state_json must parse back");
        assert_eq!(restored, tel, "state round-trip must be bit-exact");
        assert_eq!(restored.state_json(), tel.state_json());
    }

    #[test]
    fn state_json_rejects_malformed_documents() {
        assert!(WorkerTelemetry::from_state_json("{}").is_err());
        assert!(WorkerTelemetry::from_state_json("{\"counters\":{\"k\":x},\"spans\":{}}").is_err());
        assert!(
            WorkerTelemetry::from_state_json("{\"counters\":{},\"spans\":{\"k\":{}}}").is_err(),
            "span without accumulators must be rejected"
        );
    }

    #[test]
    fn intern_label_dedupes() {
        let a = intern_label("campaign.test.label");
        let b = intern_label(&String::from("campaign.test.label"));
        assert!(std::ptr::eq(a, b), "same label must intern to one slice");
    }

    #[test]
    fn json_shape_is_stable() {
        let mut tel = WorkerTelemetry::new();
        tel.count("pool.hits", 2);
        tel.record_span("host", TelemetryMode::Summary, 0.5);
        let json = tel.to_json();
        assert!(json.starts_with("{\"counters\":{\"pool.hits\":2}"));
        assert!(json.contains("\"spans\":{\"host\":{\"count\":1,"));
        assert!(json.contains("\"total_s\":0.500000000"));
        assert!(!json.contains("p50_s"), "no quantiles without a sketch");
    }
}
