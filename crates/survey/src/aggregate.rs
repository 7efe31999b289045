//! Layer 4a: sharded, mergeable streaming aggregation.
//!
//! An aggregator absorbs [`HostReport`]s one at a time and keeps only
//! O(1) state per breakdown key: merged `(reordered, total)` counts,
//! order-independent mean/CI via [`reorder_core::stats::Moments`], and
//! a mergeable quantile sketch ([`reorder_core::stats::QuantileSketch`])
//! over per-host rates. Nothing per-sample is ever retained.
//!
//! Since the sharded-aggregation refactor every piece of summary state
//! is a **commutative monoid**: integer counters, integer-state
//! sketches, and fixed-point `Moments`. Absorbing reports in any order
//! — or folding disjoint subsets into separate [`ShardAggregator`]s
//! and merging — produces bit-identical state. That law is what lets
//! every campaign keep its summary on the workers (each worker folds
//! the hosts it happened to run; the final merge is associative), and
//! it is the persistence primitive for
//! checkpoint/resume: a shard's summary can be serialized, reloaded
//! and merged losslessly.

use crate::pipeline::{HostOutcome, HostReport};
use reorder_core::jsonx::{self, Value};
use reorder_core::metrics::ReorderEstimate;
use reorder_core::stats::{Moments, QuantileSketch, SKETCH_RELATIVE_ERROR};
use reorder_core::techniques::IpidVerdict;
use reorder_core::telemetry::intern_label;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Serialize a pooled estimate as the two-element array the checkpoint
/// format uses: `[reordered,total]`.
fn est_json(e: &ReorderEstimate) -> String {
    format!("[{},{}]", e.reordered, e.total)
}

/// Read an estimate from its two count values, rejecting
/// `reordered > total` (the invariant [`ReorderEstimate::new`]
/// asserts) instead of panicking on corrupt input.
fn est(reordered: &Value, total: &Value) -> Result<ReorderEstimate, String> {
    let (reordered, total) = (reordered.as_int()?, total.as_int()?);
    if reordered > total {
        return Err(format!("estimate {reordered}/{total} exceeds its total"));
    }
    Ok(ReorderEstimate { reordered, total })
}

/// Read an [`est_json`] pair.
fn est_pair(v: &Value) -> Result<ReorderEstimate, String> {
    match v.items()? {
        [reordered, total] => est(reordered, total),
        _ => Err("estimate wants [reordered,total]".into()),
    }
}

/// Upper bucket bounds of the rendered Fig. 5 rate histogram (a first
/// bucket catches exact zero). Chosen to resolve the Fig. 5 range:
/// most hosts near zero, a tail out to tens of percent.
const RATE_BUCKETS: [f64; 8] = [0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0];

/// The Fig. 5 histogram rows, `(label, hosts)`, zero bucket first,
/// read straight from the per-host rate sketch. Each sketch bucket's
/// count lands in the rate bucket containing its representative
/// value, so a row can differ from bucketing the raw rates only for
/// rates within the sketch's ε of a bucket edge. NaN rates are
/// quarantined by the sketch and appear in no row (every `NaN <=
/// bound` is false, so bucketing one would fatten the top bucket);
/// negative mass, which nothing upstream produces, files under zero.
fn fig5_rows(sketch: &QuantileSketch) -> Vec<(String, u64)> {
    let mut counts = [0u64; RATE_BUCKETS.len()];
    let mut positive = 0;
    for (rep, count) in sketch.positive_buckets() {
        positive += count;
        let i = RATE_BUCKETS
            .iter()
            .position(|&ub| rep <= ub)
            .unwrap_or(RATE_BUCKETS.len() - 1);
        counts[i] += count;
    }
    let mut rows = vec![("0".to_string(), sketch.count() - positive)];
    let mut lo = 0.0;
    for (&ub, &count) in RATE_BUCKETS.iter().zip(&counts) {
        rows.push((format!("({:.1}%, {:.1}%]", lo * 100.0, ub * 100.0), count));
        lo = ub;
    }
    rows
}

/// Per-breakdown-key accumulator. Every field is order-independent
/// (integer counts or fixed-point [`Moments`]), so group rows merge
/// exactly across shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupAgg {
    /// Hosts in the group.
    pub hosts: u64,
    /// Pooled forward estimate (sums of counts — order-independent).
    pub fwd: ReorderEstimate,
    /// Pooled reverse estimate.
    pub rev: ReorderEstimate,
    /// Order-independent stats over per-host forward rates.
    pub fwd_rates: Moments,
}

impl GroupAgg {
    fn absorb(&mut self, r: &HostReport) {
        self.hosts += 1;
        self.fwd = self.fwd.merge(&r.fwd);
        self.rev = self.rev.merge(&r.rev);
        if r.fwd.total > 0 {
            self.fwd_rates.push(r.fwd.rate());
        }
    }

    fn merge(&mut self, other: &GroupAgg) {
        self.hosts += other.hosts;
        self.fwd = self.fwd.merge(&other.fwd);
        self.rev = self.rev.merge(&other.rev);
        self.fwd_rates = self.fwd_rates.merge(&other.fwd_rates);
    }

    /// Serialize the exact group state (integer counts and fixed-point
    /// moments) for the campaign checkpoint format.
    pub(crate) fn to_json(self) -> String {
        format!(
            "{{\"hosts\":{},\"fwd\":{},\"rev\":{},\"fwd_rates\":{}}}",
            self.hosts,
            est_json(&self.fwd),
            est_json(&self.rev),
            self.fwd_rates.to_json()
        )
    }

    fn from_value(v: &Value) -> Result<GroupAgg, String> {
        Ok(GroupAgg {
            hosts: v.int("hosts")?,
            fwd: est_pair(v.get("fwd")?)?,
            rev: est_pair(v.get("rev")?)?,
            fwd_rates: Moments::from_value(v.get("fwd_rates")?)?,
        })
    }
}

/// Per-failure-class accumulator: how many hosts landed in one
/// [`HostErrorKind`] bucket, split by terminal severity and broken
/// down by path mechanism and OS personality. Integer counters only,
/// so shards merge exactly.
///
/// [`HostErrorKind`]: reorder_core::HostErrorKind
#[derive(Debug, Clone, Default)]
pub struct FailureAgg {
    /// Hosts classified under this failure kind (failed + degraded).
    pub hosts: u64,
    /// Hosts that produced no usable measurement at all.
    pub failed: u64,
    /// Hosts that completed with partial results.
    pub degraded: u64,
    /// Mechanism label → hosts of this failure kind on that mechanism.
    pub by_mechanism: BTreeMap<&'static str, u64>,
    /// Personality name → hosts of this failure kind with that stack.
    pub by_personality: BTreeMap<&'static str, u64>,
}

impl FailureAgg {
    fn absorb(&mut self, r: &HostReport, failed: bool) {
        self.hosts += 1;
        if failed {
            self.failed += 1;
        } else {
            self.degraded += 1;
        }
        *self
            .by_mechanism
            .entry(r.spec.mechanism.label())
            .or_default() += 1;
        *self
            .by_personality
            .entry(r.spec.personality.name)
            .or_default() += 1;
    }

    fn merge(&mut self, other: &FailureAgg) {
        self.hosts += other.hosts;
        self.failed += other.failed;
        self.degraded += other.degraded;
        for (&key, &n) in &other.by_mechanism {
            *self.by_mechanism.entry(key).or_default() += n;
        }
        for (&key, &n) in &other.by_personality {
            *self.by_personality.entry(key).or_default() += n;
        }
    }

    /// Serialize the exact state for the campaign checkpoint format.
    pub(crate) fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"hosts\":{},\"failed\":{},\"degraded\":{}",
            self.hosts, self.failed, self.degraded
        );
        for (name, map) in [
            ("by_mechanism", &self.by_mechanism),
            ("by_personality", &self.by_personality),
        ] {
            let _ = write!(s, ",\"{name}\":{{");
            for (i, (key, n)) in map.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{key}\":{n}");
            }
            s.push('}');
        }
        s.push('}');
        s
    }

    fn from_value(v: &Value) -> Result<FailureAgg, String> {
        let mut agg = FailureAgg {
            hosts: v.int("hosts")?,
            failed: v.int("failed")?,
            degraded: v.int("degraded")?,
            ..FailureAgg::default()
        };
        for (name, map) in [
            ("by_mechanism", &mut agg.by_mechanism),
            ("by_personality", &mut agg.by_personality),
        ] {
            for (key, n) in v.get(name)?.members()? {
                map.insert(intern_label(key), n.as_int()?);
            }
        }
        if agg.failed.checked_add(agg.degraded) != Some(agg.hosts) {
            return Err(format!(
                "failure class counts {}+{} disagree with hosts {}",
                agg.failed, agg.degraded, agg.hosts
            ));
        }
        Ok(agg)
    }
}

/// Campaign-wide streaming summary.
#[derive(Debug, Clone, Default)]
pub struct CampaignSummary {
    /// Hosts surveyed.
    pub hosts: u64,
    /// Hosts with at least one successful measurement round (or, in
    /// amenability-only mode, a verdict).
    pub reachable: u64,
    /// Amenability tallies: amenable / constant-zero / non-monotonic /
    /// probe-failed.
    pub amenable: u64,
    /// Constant-zero IPID verdicts (paper: "likely Linux 2.4").
    pub constant_zero: u64,
    /// Non-monotonic IPID verdicts (paper: "likely load balancers").
    pub non_monotonic: u64,
    /// Amenability probes that failed outright.
    pub probe_failed: u64,
    /// Hosts whose measured fwd or rev rate was nonzero.
    pub reordering_hosts: u64,
    /// Order-independent stats over per-host forward rates.
    pub fwd_rates: Moments,
    /// Order-independent stats over per-host reverse rates.
    pub rev_rates: Moments,
    /// Pooled forward estimate over all samples of all hosts.
    pub fwd_pooled: ReorderEstimate,
    /// Pooled reverse estimate.
    pub rev_pooled: ReorderEstimate,
    /// Pooled reverse estimate of the transfer baseline.
    pub baseline_pooled: ReorderEstimate,
    /// Mergeable quantile sketch over per-host forward rates — the
    /// source of truth for the Fig. 5 CDF points and the rendered rate
    /// histogram.
    pub fwd_sketch: QuantileSketch,
    /// Breakdown by measuring technique.
    pub by_technique: BTreeMap<&'static str, GroupAgg>,
    /// Breakdown by OS personality.
    pub by_personality: BTreeMap<&'static str, GroupAgg>,
    /// Breakdown by path mechanism.
    pub by_mechanism: BTreeMap<&'static str, GroupAgg>,
    /// Campaign gap profile: gap µs → pooled forward estimate.
    pub gap_profile: BTreeMap<u64, ReorderEstimate>,
    /// Hosts whose outcome was `Failed` — no usable measurement.
    pub failed: u64,
    /// Hosts whose outcome was `Degraded` — partial results kept.
    pub degraded: u64,
    /// Total failed measurement rounds across all hosts (each host's
    /// JSONL `failures` counter, summed).
    pub failure_rounds: u64,
    /// Failure taxonomy: [`HostErrorKind`] label → per-class breakdown.
    /// Only failed/degraded hosts appear; a clean campaign's taxonomy
    /// is empty.
    ///
    /// [`HostErrorKind`]: reorder_core::HostErrorKind
    pub failure_taxonomy: BTreeMap<&'static str, FailureAgg>,
}

impl CampaignSummary {
    /// Fold in one host's report. Absorption is order-independent
    /// (every field is a commutative monoid), so workers may fold
    /// reports in completion order and still render a byte-identical
    /// summary — [`ShardAggregator`] and the determinism suite build
    /// on exactly this law.
    pub fn absorb(&mut self, r: &HostReport) {
        self.hosts += 1;
        if r.reachable {
            self.reachable += 1;
        }
        match r.verdict {
            Some(IpidVerdict::Amenable) => self.amenable += 1,
            Some(IpidVerdict::ConstantZero) => self.constant_zero += 1,
            Some(IpidVerdict::NonMonotonic) => self.non_monotonic += 1,
            None => self.probe_failed += 1,
        }
        if r.fwd.reordered > 0 || r.rev.reordered > 0 {
            self.reordering_hosts += 1;
        }
        if r.fwd.total > 0 {
            self.fwd_rates.push(r.fwd.rate());
            self.fwd_sketch.push(r.fwd.rate());
        }
        if r.rev.total > 0 {
            self.rev_rates.push(r.rev.rate());
        }
        self.fwd_pooled = self.fwd_pooled.merge(&r.fwd);
        self.rev_pooled = self.rev_pooled.merge(&r.rev);
        if let Some(b) = r.baseline_rev {
            self.baseline_pooled = self.baseline_pooled.merge(&b);
        }
        self.by_technique.entry(r.technique).or_default().absorb(r);
        self.by_personality
            .entry(r.spec.personality.name)
            .or_default()
            .absorb(r);
        self.by_mechanism
            .entry(r.spec.mechanism.label())
            .or_default()
            .absorb(r);
        for &(gap, est) in &r.gap_points {
            let e = self.gap_profile.entry(gap).or_default();
            *e = e.merge(&est);
        }
        self.failure_rounds += r.failures as u64;
        let failed = matches!(r.outcome, HostOutcome::Failed { .. });
        if failed {
            self.failed += 1;
        } else if matches!(r.outcome, HostOutcome::Degraded { .. }) {
            self.degraded += 1;
        }
        if let Some(class) = r.outcome.taxonomy() {
            self.failure_taxonomy
                .entry(class)
                .or_default()
                .absorb(r, failed);
        }
    }

    /// Fold another summary into this one — the associative merge that
    /// combines per-worker [`ShardAggregator`]s (and, cross-process,
    /// per-shard checkpoints) into the campaign total. Merging shard
    /// summaries is bit-identical to absorbing every report into one
    /// summary, in any order; the determinism suite asserts this end
    /// to end.
    pub fn merge(&mut self, other: &CampaignSummary) {
        self.hosts += other.hosts;
        self.reachable += other.reachable;
        self.amenable += other.amenable;
        self.constant_zero += other.constant_zero;
        self.non_monotonic += other.non_monotonic;
        self.probe_failed += other.probe_failed;
        self.reordering_hosts += other.reordering_hosts;
        self.fwd_rates = self.fwd_rates.merge(&other.fwd_rates);
        self.rev_rates = self.rev_rates.merge(&other.rev_rates);
        self.fwd_pooled = self.fwd_pooled.merge(&other.fwd_pooled);
        self.rev_pooled = self.rev_pooled.merge(&other.rev_pooled);
        self.baseline_pooled = self.baseline_pooled.merge(&other.baseline_pooled);
        self.fwd_sketch.merge(&other.fwd_sketch);
        for (&key, g) in &other.by_technique {
            self.by_technique.entry(key).or_default().merge(g);
        }
        for (&key, g) in &other.by_personality {
            self.by_personality.entry(key).or_default().merge(g);
        }
        for (&key, g) in &other.by_mechanism {
            self.by_mechanism.entry(key).or_default().merge(g);
        }
        for (&gap, est) in &other.gap_profile {
            let e = self.gap_profile.entry(gap).or_default();
            *e = e.merge(est);
        }
        self.failed += other.failed;
        self.degraded += other.degraded;
        self.failure_rounds += other.failure_rounds;
        for (&key, f) in &other.failure_taxonomy {
            self.failure_taxonomy.entry(key).or_default().merge(f);
        }
    }

    /// Serialize the exact summary state as one JSON object — every
    /// field an integer, fixed-point moments document, sketch document
    /// or map thereof, so [`CampaignSummary::from_json`] restores state
    /// that merges and renders bit-identically to the original. This is
    /// the `reorder.checkpoint/1` payload; the human table stays in
    /// [`CampaignSummary::render`].
    pub(crate) fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\"hosts\":{},\"reachable\":{},\"amenable\":{},\"constant_zero\":{},\
             \"non_monotonic\":{},\"probe_failed\":{},\"reordering_hosts\":{},\
             \"fwd_rates\":{},\"rev_rates\":{},\"fwd_pooled\":{},\"rev_pooled\":{},\
             \"baseline_pooled\":{},\"fwd_sketch\":{}",
            self.hosts,
            self.reachable,
            self.amenable,
            self.constant_zero,
            self.non_monotonic,
            self.probe_failed,
            self.reordering_hosts,
            self.fwd_rates.to_json(),
            self.rev_rates.to_json(),
            est_json(&self.fwd_pooled),
            est_json(&self.rev_pooled),
            est_json(&self.baseline_pooled),
            self.fwd_sketch.to_json(),
        );
        for (name, map) in [
            ("by_technique", &self.by_technique),
            ("by_personality", &self.by_personality),
            ("by_mechanism", &self.by_mechanism),
        ] {
            let _ = write!(s, ",\"{name}\":{{");
            for (i, (key, g)) in map.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{key}\":{}", g.to_json());
            }
            s.push('}');
        }
        let _ = write!(
            s,
            ",\"failed\":{},\"degraded\":{},\"failure_rounds\":{},\"failure_taxonomy\":{{",
            self.failed, self.degraded, self.failure_rounds
        );
        for (i, (key, f)) in self.failure_taxonomy.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{key}\":{}", f.to_json());
        }
        s.push('}');
        s.push_str(",\"gap_profile\":[");
        for (i, (gap, est)) in self.gap_profile.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "[{gap},{},{}]", est.reordered, est.total);
        }
        s.push_str("]}");
        s
    }

    /// Parse a [`CampaignSummary::to_json`] document back into the
    /// exact state. Malformed documents are rejected field-by-field;
    /// nothing is defaulted.
    #[cfg(test)]
    pub(crate) fn from_json(text: &str) -> Result<CampaignSummary, String> {
        CampaignSummary::from_value(&jsonx::parse(text)?)
    }

    fn from_value(v: &Value) -> Result<CampaignSummary, String> {
        let mut sum = CampaignSummary {
            hosts: v.int("hosts")?,
            reachable: v.int("reachable")?,
            amenable: v.int("amenable")?,
            constant_zero: v.int("constant_zero")?,
            non_monotonic: v.int("non_monotonic")?,
            probe_failed: v.int("probe_failed")?,
            reordering_hosts: v.int("reordering_hosts")?,
            fwd_rates: Moments::from_value(v.get("fwd_rates")?)?,
            rev_rates: Moments::from_value(v.get("rev_rates")?)?,
            fwd_pooled: est_pair(v.get("fwd_pooled")?)?,
            rev_pooled: est_pair(v.get("rev_pooled")?)?,
            baseline_pooled: est_pair(v.get("baseline_pooled")?)?,
            fwd_sketch: QuantileSketch::from_value(v.get("fwd_sketch")?)?,
            failed: v.int("failed")?,
            degraded: v.int("degraded")?,
            failure_rounds: v.int("failure_rounds")?,
            ..CampaignSummary::default()
        };
        for (key, f) in v.get("failure_taxonomy")?.members()? {
            sum.failure_taxonomy
                .insert(intern_label(key), FailureAgg::from_value(f)?);
        }
        for (name, map) in [
            ("by_technique", &mut sum.by_technique),
            ("by_personality", &mut sum.by_personality),
            ("by_mechanism", &mut sum.by_mechanism),
        ] {
            for (key, g) in v.get(name)?.members()? {
                map.insert(intern_label(key), GroupAgg::from_value(g)?);
            }
        }
        for row in v.get("gap_profile")?.items()? {
            let [gap, reordered, total] = row.items()? else {
                return Err("gap_profile row wants [gap,reordered,total]".into());
            };
            let gap: u64 = gap.as_int()?;
            if sum
                .gap_profile
                .last_key_value()
                .is_some_and(|(&last, _)| last >= gap)
            {
                return Err(format!("gap_profile row {gap} out of order"));
            }
            sum.gap_profile.insert(gap, est(reordered, total)?);
        }
        Ok(sum)
    }

    /// Render the summary table (deterministic: every map is a
    /// `BTreeMap`, every float printed with fixed precision).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let rule = "-".repeat(66);
        let _ = writeln!(s, "campaign summary: {} hosts", self.hosts);
        let _ = writeln!(s, "{rule}");
        let _ = writeln!(
            s,
            "reachable: {}   unreachable: {}   reordering observed: {}",
            self.reachable,
            self.hosts - self.reachable,
            self.reordering_hosts
        );
        let _ = writeln!(
            s,
            "ipid verdicts: amenable {}  constant-zero {}  non-monotonic {}  failed {}",
            self.amenable, self.constant_zero, self.non_monotonic, self.probe_failed
        );
        if self.fwd_rates.count() > 0 {
            let (lo, hi) = self.fwd_rates.ci(0.95);
            let _ = writeln!(
                s,
                "fwd rate/host: mean {:.4}% (95% CI [{:.4}%, {:.4}%], n={})   pooled {:.4}% ({}/{})",
                self.fwd_rates.mean() * 100.0,
                lo.max(0.0) * 100.0,
                hi * 100.0,
                self.fwd_rates.count(),
                self.fwd_pooled.rate() * 100.0,
                self.fwd_pooled.reordered,
                self.fwd_pooled.total,
            );
        }
        if self.rev_rates.count() > 0 {
            let _ = writeln!(
                s,
                "rev rate/host: mean {:.4}%   pooled {:.4}% ({}/{})   transfer baseline {:.4}% ({}/{})",
                self.rev_rates.mean() * 100.0,
                self.rev_pooled.rate() * 100.0,
                self.rev_pooled.reordered,
                self.rev_pooled.total,
                self.baseline_pooled.rate() * 100.0,
                self.baseline_pooled.reordered,
                self.baseline_pooled.total,
            );
        }
        if self.fwd_sketch.count() > 0 {
            // Fig. 5 CDF points, read from the sketch: exact to its
            // documented relative error instead of bucket-floor
            // granularity.
            let _ = writeln!(s, "{rule}");
            let mut line = format!(
                "fwd rate/host quantiles (sketch, rel err <= {:.2}%):",
                SKETCH_RELATIVE_ERROR * 100.0
            );
            for (label, q) in [
                ("p25", 0.25),
                ("p50", 0.50),
                ("p75", 0.75),
                ("p90", 0.90),
                ("p99", 0.99),
            ] {
                let v = self.fwd_sketch.quantile(q).unwrap_or(0.0);
                let _ = write!(line, "  {label} {:.4}%", v * 100.0);
            }
            let _ = writeln!(s, "{line}");
            let rows = fig5_rows(&self.fwd_sketch);
            let _ = writeln!(s, "fwd rate histogram (hosts)");
            let max = rows.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
            for (label, count) in rows {
                let bar = "#".repeat((count * 40 / max) as usize);
                let _ = writeln!(s, "{label:>16} {count:>7}  {bar}");
            }
        }
        for (title, map) in [
            ("technique", &self.by_technique),
            ("personality", &self.by_personality),
            ("mechanism", &self.by_mechanism),
        ] {
            let _ = writeln!(s, "{rule}");
            let _ = writeln!(
                s,
                "{:<14} {:>7} {:>12} {:>12} {:>12}",
                format!("by {title}"),
                "hosts",
                "fwd pooled",
                "fwd mean",
                "rev pooled"
            );
            for (key, g) in map.iter() {
                let _ = writeln!(
                    s,
                    "{key:<14} {:>7} {:>11.4}% {:>11.4}% {:>11.4}%",
                    g.hosts,
                    g.fwd.rate() * 100.0,
                    g.fwd_rates.mean() * 100.0,
                    g.rev.rate() * 100.0,
                );
            }
        }
        if !self.gap_profile.is_empty() {
            let _ = writeln!(s, "{rule}");
            let _ = writeln!(s, "{:>8} {:>12} {:>12}", "gap(us)", "fwd pooled", "samples");
            for (gap, est) in &self.gap_profile {
                let _ = writeln!(
                    s,
                    "{gap:>8} {:>11.4}% {:>12}",
                    est.rate() * 100.0,
                    est.total
                );
            }
        }
        if !self.failure_taxonomy.is_empty() {
            let _ = writeln!(s, "{rule}");
            let _ = writeln!(
                s,
                "{:<22} {:>7} {:>7} {:>8}",
                "failure taxonomy", "hosts", "failed", "degraded"
            );
            for (class, f) in &self.failure_taxonomy {
                let _ = writeln!(
                    s,
                    "{class:<22} {:>7} {:>7} {:>8}",
                    f.hosts, f.failed, f.degraded
                );
                for (title, map) in [
                    ("mechanisms", &f.by_mechanism),
                    ("personalities", &f.by_personality),
                ] {
                    let mut line = format!("  {title}:");
                    for (key, n) in map.iter() {
                        let _ = write!(line, " {key} {n}");
                    }
                    let _ = writeln!(s, "{line}");
                }
            }
        }
        let _ = writeln!(s, "{rule}");
        let _ = writeln!(
            s,
            "host outcomes: complete {}  degraded {}  failed {}   failed rounds: {}",
            self.hosts - self.degraded - self.failed,
            self.degraded,
            self.failed,
            self.failure_rounds
        );
        s
    }
}

/// One worker's (or one process-shard's) aggregation state: a summary
/// plus the simulator event count. Workers fold whichever hosts the
/// work-stealing scheduler hands them; because every summary field
/// merges exactly (see
/// [`CampaignSummary::merge`]), the final fold over shard aggregators
/// is independent of the nondeterministic host-to-worker assignment.
#[derive(Debug, Clone, Default)]
pub struct ShardAggregator {
    /// The shard's streaming summary.
    pub summary: CampaignSummary,
    /// Simulator events dispatched by this shard's hosts.
    pub events: u64,
}

impl ShardAggregator {
    /// Fold in one host's report.
    pub fn absorb(&mut self, r: &HostReport) {
        self.events += r.events;
        self.summary.absorb(r);
    }

    /// Fold another shard's state into this one (associative).
    pub fn merge(&mut self, other: &ShardAggregator) {
        self.events += other.events;
        self.summary.merge(&other.summary);
    }

    /// Serialize the exact shard state — the unit the campaign
    /// orchestrator checkpoints at every shard boundary.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"events\":{},\"summary\":{}}}",
            self.events,
            self.summary.to_json()
        )
    }

    /// Parse a [`ShardAggregator::to_json`] document back bit-exactly:
    /// restored state merges and renders identically to the original
    /// (asserted by the checkpoint property suite).
    pub fn from_json(text: &str) -> Result<ShardAggregator, String> {
        ShardAggregator::from_value(&jsonx::parse(text)?)
    }

    /// [`ShardAggregator::from_json`] for a document already parsed,
    /// e.g. the `agg` member of a shard state or checkpoint.
    pub fn from_value(v: &Value) -> Result<ShardAggregator, String> {
        Ok(ShardAggregator {
            events: v.int("events")?,
            summary: CampaignSummary::from_value(v.get("summary")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{survey_host, HostJob};
    use reorder_core::scenario::HostSpec;
    use reorder_tcpstack::HostPersonality;

    fn sketch_of(rates: &[f64]) -> QuantileSketch {
        let mut sketch = QuantileSketch::new();
        for &r in rates {
            sketch.push(r);
        }
        sketch
    }

    fn counts(rows: &[(String, u64)]) -> Vec<u64> {
        rows.iter().map(|&(_, c)| c).collect()
    }

    #[test]
    fn histogram_rejects_nan_instead_of_top_bucketing() {
        // Regression: `NaN <= 0.0` and every `NaN <= bound` are false,
        // so a NaN rate used to fall through the scan into the top
        // (25%, 100%] bucket — a phantom heavy-reordering host.
        let rows = fig5_rows(&sketch_of(&[f64::NAN]));
        assert_eq!(counts(&rows), [0; 9], "NaN must not land in any row");
        // Real rates keep bucketing as before around the quarantine.
        let rows = fig5_rows(&sketch_of(&[f64::NAN, 0.5]));
        assert_eq!(counts(&rows), [0, 0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn histogram_buckets() {
        let rows = fig5_rows(&sketch_of(&[0.0, 0.0005, 0.004, 0.02, 0.3, 0.9, 0.0]));
        let labels: Vec<&str> = rows.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(
            labels,
            [
                "0",
                "(0.0%, 0.1%]",
                "(0.1%, 0.5%]",
                "(0.5%, 1.0%]",
                "(1.0%, 2.5%]",
                "(2.5%, 5.0%]",
                "(5.0%, 10.0%]",
                "(10.0%, 25.0%]",
                "(25.0%, 100.0%]",
            ]
        );
        // Zero bucket 2, (0, 0.1%] 1, (0.1%, 0.5%] 1, (1%, 2.5%] 1,
        // top bucket 2.
        assert_eq!(counts(&rows), [2, 1, 1, 0, 1, 0, 0, 0, 2]);
    }

    #[test]
    fn histogram_from_sketch_matches_direct_pushes() {
        // Away from bucket edges the sketch-derived rows equal bucketing
        // the raw rates directly; the rates below sit mid-bucket, far
        // beyond the sketch's 0.39% ε. The NaN is in no row.
        let rates = [0.0, 0.0005, 0.004, 0.02, 0.3, 0.9, 0.0, f64::NAN, 0.07];
        let rows = fig5_rows(&sketch_of(&rates));
        assert_eq!(counts(&rows), [2, 1, 1, 0, 1, 0, 1, 0, 2]);
        // Negative mass (never produced upstream) files under zero.
        let rows = fig5_rows(&sketch_of(&[-0.2, 0.0]));
        assert_eq!(counts(&rows), [2, 0, 0, 0, 0, 0, 0, 0, 0]);
    }

    fn reports(n: usize, seed: u64) -> Vec<HostReport> {
        let job = HostJob {
            samples: 4,
            gaps_us: vec![0, 50],
            ..HostJob::default()
        };
        let personalities = [
            HostPersonality::freebsd4(),
            HostPersonality::openbsd3(),
            HostPersonality::linux24(),
        ];
        (0..n)
            .map(|i| {
                let spec = HostSpec {
                    fwd_reorder: 0.05 + 0.03 * (i % 4) as f64,
                    ..HostSpec::clean("agg", personalities[i % 3].clone())
                };
                survey_host(i as u64, &spec, seed + i as u64, &job)
            })
            .collect()
    }

    /// The sharded-merge law end to end: any partition of reports into
    /// shard aggregators, merged in any order, renders the same bytes
    /// as one summary absorbing everything in id order.
    #[test]
    fn shard_merge_renders_identically_to_single_absorb() {
        let rs = reports(18, 900);
        let mut whole = CampaignSummary::default();
        for r in &rs {
            whole.absorb(r);
        }
        for shards in [2usize, 3, 5] {
            let mut parts = vec![ShardAggregator::default(); shards];
            // Deal round-robin AND absorb within each shard in reverse,
            // so neither the partition nor the intra-shard order is the
            // id order.
            for (i, r) in rs.iter().enumerate().rev() {
                parts[i % shards].absorb(r);
            }
            let mut merged = ShardAggregator::default();
            for p in parts.iter().rev() {
                merged.merge(p);
            }
            assert_eq!(merged.summary.hosts, whole.hosts);
            assert_eq!(
                merged.summary.render(),
                whole.render(),
                "{shards} shards must render identically"
            );
            assert_eq!(
                merged.events,
                rs.iter().map(|r| r.events).sum::<u64>(),
                "events must merge"
            );
        }
    }

    /// The checkpoint round-trip law at the unit level: a serialized
    /// shard restores to state whose merge and render are bit-equal.
    #[test]
    fn shard_json_round_trips_exactly() {
        let rs = reports(16, 4242);
        let mut shard = ShardAggregator::default();
        for r in &rs {
            shard.absorb(r);
        }
        let restored =
            ShardAggregator::from_json(&shard.to_json()).expect("shard JSON must parse back");
        assert_eq!(restored.events, shard.events);
        assert_eq!(restored.to_json(), shard.to_json());
        assert_eq!(restored.summary.render(), shard.summary.render());
        // Merging a restored half equals merging the original half.
        let mut via_restored = ShardAggregator::default();
        via_restored.merge(&restored);
        via_restored.merge(&shard);
        let mut via_original = ShardAggregator::default();
        via_original.merge(&shard);
        via_original.merge(&shard);
        assert_eq!(via_restored.to_json(), via_original.to_json());
    }

    #[test]
    fn shard_json_rejects_corruption() {
        let mut shard = ShardAggregator::default();
        for r in reports(6, 77) {
            shard.absorb(&r);
        }
        let good = shard.to_json();
        assert!(ShardAggregator::from_json("{}").is_err());
        assert!(ShardAggregator::from_json(&good.replace("\"events\"", "\"evnts\"")).is_err());
        // An estimate whose reordered count exceeds its total must be
        // rejected, not silently merged (ReorderEstimate's invariant).
        let bad = "{\"events\":0,\"summary\":".to_string()
            + &CampaignSummary::default()
                .to_json()
                .replace("\"fwd_pooled\":[0,0]", "\"fwd_pooled\":[5,2]")
            + "}";
        assert!(ShardAggregator::from_json(&bad).is_err());
        // A nested `events` key earlier in the document must not
        // shadow the real one: lookups are scoped to their object.
        let nested = good.replacen("{\"events\":", "{\"x\":{\"events\":7},\"events\":", 1);
        let events = ShardAggregator::from_json(&nested).map(|s| s.events);
        assert!(matches!(events, Ok(e) if e == shard.events), "{events:?}");
        assert_ne!(shard.events, 7);
        // Failure counts whose sum overflows u64 are an error, not a
        // panic.
        let overflow = "{\"events\":0,\"summary\":".to_string()
            + &CampaignSummary::default().to_json().replace(
                "\"failure_taxonomy\":{}",
                &format!(
                    "\"failure_taxonomy\":{{\"refused\":{{\"hosts\":0,\"failed\":{},\
                     \"degraded\":1,\"by_mechanism\":{{}},\"by_personality\":{{}}}}}}",
                    u64::MAX
                ),
            )
            + "}";
        assert!(overflow.contains("\"refused\""));
        assert!(ShardAggregator::from_json(&overflow).is_err());
    }

    #[test]
    fn render_reads_quantiles_from_the_sketch() {
        let rs = reports(12, 41);
        let mut sum = CampaignSummary::default();
        for r in &rs {
            sum.absorb(r);
        }
        let rendered = sum.render();
        assert!(
            rendered.contains("fwd rate/host quantiles (sketch"),
            "{rendered}"
        );
        assert!(rendered.contains("p50"));
        assert!(rendered.contains("p99"));
    }

    /// Hostile reports land in the failure taxonomy with their
    /// mechanism/personality breakdowns, survive the checkpoint JSON
    /// round trip bit-exactly, and render both the per-class table and
    /// the always-on outcome footer.
    #[test]
    fn failure_taxonomy_absorbs_round_trips_and_renders() {
        use crate::pipeline::HostOutcome;
        use reorder_core::scenario::FaultClass;
        use reorder_core::HostErrorKind;
        let job = HostJob {
            samples: 5,
            ..HostJob::default()
        };
        let mut sum = CampaignSummary::default();
        // One cooperative host, one blackholed, one dead-mid-measurement.
        let clean = HostSpec::clean("coop", HostPersonality::freebsd4());
        sum.absorb(&survey_host(0, &clean, 31, &job));
        let dark = HostSpec {
            fault: Some(FaultClass::Blackhole),
            ..HostSpec::clean("dark", HostPersonality::freebsd4())
        };
        let blackholed = survey_host(1, &dark, 32, &job);
        assert!(matches!(blackholed.outcome, HostOutcome::Failed { .. }));
        sum.absorb(&blackholed);
        let dying = HostSpec {
            fault: Some(FaultClass::DeadAfter { packets: 50 }),
            ..HostSpec::clean("dying", HostPersonality::freebsd4())
        };
        let died = survey_host(2, &dying, 33, &HostJob::default());
        assert_eq!(
            died.outcome,
            HostOutcome::Degraded {
                kind: HostErrorKind::DiedMidMeasurement
            }
        );
        sum.absorb(&died);

        assert_eq!(sum.failed, 1);
        assert_eq!(sum.degraded, 1);
        assert!(sum.failure_rounds >= 1, "blackhole rounds count");
        let unreachable = &sum.failure_taxonomy[HostErrorKind::Unreachable.label()];
        assert_eq!((unreachable.hosts, unreachable.failed), (1, 1));
        assert_eq!(unreachable.by_mechanism["dummynet"], 1);
        assert_eq!(unreachable.by_personality["freebsd4"], 1);
        let dieds = &sum.failure_taxonomy[HostErrorKind::DiedMidMeasurement.label()];
        assert_eq!((dieds.hosts, dieds.degraded), (1, 1));

        let restored =
            CampaignSummary::from_json(&sum.to_json()).expect("taxonomy JSON must parse back");
        assert_eq!(restored.to_json(), sum.to_json());
        assert_eq!(restored.render(), sum.render());

        let rendered = sum.render();
        assert!(rendered.contains("failure taxonomy"), "{rendered}");
        assert!(rendered.contains("unreachable"), "{rendered}");
        assert!(rendered.contains("died-mid-measurement"), "{rendered}");
        assert!(
            rendered.contains("host outcomes: complete 1  degraded 1  failed 1"),
            "{rendered}"
        );
    }

    /// The taxonomy tables render in sorted key order regardless of
    /// insertion order — pinned here as a behavioral contract,
    /// independent of the reorder-lint rule that forbids the unsorted
    /// (HashMap-backed) form at the source level.
    #[test]
    fn failure_taxonomy_render_order_is_insertion_independent() {
        let build = |order: &[&'static str]| {
            let mut sum = CampaignSummary {
                hosts: order.len() as u64,
                ..Default::default()
            };
            for (i, &class) in order.iter().enumerate() {
                let agg = sum.failure_taxonomy.entry(class).or_default();
                agg.hosts = 1;
                agg.failed = 1;
                // Adversarial inner-map order too: rotate so each
                // class inserts mechanisms/personalities differently.
                let mechs = ["tc-netem", "dummynet", "nistnet"];
                let persos = ["winxp", "freebsd4", "linux24"];
                for k in 0..mechs.len() {
                    let j = (i + k) % mechs.len();
                    *agg.by_mechanism.entry(mechs[j]).or_default() += 1;
                    *agg.by_personality.entry(persos[j]).or_default() += 1;
                }
            }
            sum
        };
        let forward = build(&["blackhole", "tarpit", "unreachable"]);
        let reverse = build(&["unreachable", "tarpit", "blackhole"]);
        let rendered = forward.render();
        assert_eq!(
            rendered,
            reverse.render(),
            "taxonomy render must not depend on insertion order"
        );
        // The class rows and the inner mechanism/personality labels
        // appear lexicographically sorted in the rendered table.
        // (Search inside the taxonomy block only — labels like
        // "unreachable" also occur in the summary header above it.)
        let table = &rendered[rendered
            .find("failure taxonomy")
            .expect("taxonomy table present")..];
        for window in [
            ["blackhole", "tarpit", "unreachable"],
            ["dummynet", "nistnet", "tc-netem"],
            ["freebsd4", "linux24", "winxp"],
        ] {
            let at = |label: &str| {
                table
                    .find(label)
                    .unwrap_or_else(|| panic!("{label} missing from:\n{rendered}"))
            };
            assert!(
                at(window[0]) < at(window[1]) && at(window[1]) < at(window[2]),
                "expected sorted order {window:?} in:\n{rendered}"
            );
        }
        // JSON export shares the ordering contract: byte-identical
        // across insertion orders, so checkpoint merges stay exact.
        assert_eq!(forward.to_json(), reverse.to_json());
    }

    /// A clean campaign renders the outcome footer but no taxonomy
    /// table, and rejects checkpoints missing the failure fields
    /// (pre-taxonomy checkpoints must not silently load as zero).
    #[test]
    fn clean_summary_has_footer_but_no_taxonomy() {
        let mut sum = CampaignSummary::default();
        for r in reports(6, 55) {
            sum.absorb(&r);
        }
        assert_eq!(sum.failed + sum.degraded, 0);
        assert!(sum.failure_taxonomy.is_empty());
        let rendered = sum.render();
        assert!(!rendered.contains("failure taxonomy"));
        assert!(rendered.contains("host outcomes: complete 6"), "{rendered}");
        let json = sum.to_json();
        let stripped = json.replace(",\"failure_rounds\":0", "");
        assert!(
            CampaignSummary::from_json(&stripped).is_err(),
            "missing failure fields must be rejected, not defaulted"
        );
    }

    #[test]
    fn summary_absorbs_and_renders() {
        let job = HostJob {
            samples: 5,
            ..HostJob::default()
        };
        let mut sum = CampaignSummary::default();
        for (i, p) in [
            HostPersonality::freebsd4(),
            HostPersonality::openbsd3(),
            HostPersonality::linux24(),
        ]
        .into_iter()
        .enumerate()
        {
            let spec = HostSpec {
                fwd_reorder: 0.2,
                ..HostSpec::clean("agg", p)
            };
            sum.absorb(&survey_host(i as u64, &spec, 700 + i as u64, &job));
        }
        assert_eq!(sum.hosts, 3);
        assert_eq!(sum.amenable, 1);
        assert_eq!(sum.non_monotonic, 1);
        assert_eq!(sum.constant_zero, 1);
        assert!(sum.by_technique.contains_key("dual"));
        assert!(sum.by_technique.contains_key("syn"));
        assert_eq!(sum.by_personality.len(), 3);
        let rendered = sum.render();
        assert!(rendered.contains("campaign summary: 3 hosts"));
        assert!(rendered.contains("by technique"));
        assert!(rendered.contains("by personality"));
        assert!(rendered.contains("by mechanism"));
    }
}
