//! Descriptive statistics and the paired-difference test of §IV-B.
//!
//! "We compute a standard pair-difference test statistic [Jain, *The Art
//! of Computer Systems Performance Analysis*] for each host, comparing
//! the results of each pair of tests. The null hypothesis is that the
//! difference between tests can be explained purely in terms of
//! intra-test variability."

use crate::jsonx::{self, Value};

/// Arithmetic mean (0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Unbiased sample variance (0 for n < 2).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Two-sided critical value of the standard normal for the given
/// confidence level. Only the levels used by the experiments are
/// tabulated; anything else panics loudly rather than silently
/// approximating.
pub(crate) fn z_critical(confidence: f64) -> f64 {
    // (confidence, z)
    const TABLE: &[(f64, f64)] = &[
        (0.90, 1.6449),
        (0.95, 1.9600),
        (0.99, 2.5758),
        (0.995, 2.8070),
        (0.999, 3.2905),
    ];
    for &(c, z) in TABLE {
        if (confidence - c).abs() < 1e-9 {
            return z;
        }
    }
    panic!("untabulated confidence level {confidence}");
}

/// Mantissa bits per octave sub-bucket of [`QuantileSketch`]: 2^7 =
/// 128 log-spaced buckets per power of two.
const SKETCH_SUB_BITS: u32 = 7;

/// Worst-case relative error of a [`QuantileSketch`] quantile: a
/// bucket spans a relative width of 2^-7 of its octave and the
/// reported representative is the bucket midpoint, so the answer is
/// within 2^-8 ≈ 0.39% (relative) of a value holding the exact rank.
pub const SKETCH_RELATIVE_ERROR: f64 = 1.0 / (1u64 << (SKETCH_SUB_BITS + 1)) as f64;

/// Bucket key of a strictly positive, normal `f64`: the exponent field
/// concatenated with the top [`SKETCH_SUB_BITS`] mantissa bits.
/// `f64::to_bits` is monotone on positive floats, so equal keys bound
/// a bucket whose width is 2^-7 of its octave — the DDSketch
/// log-bucket scheme, computed from raw bits instead of `ln` (no libm
/// in the hot path, and bit-exact across platforms).
fn sketch_key(magnitude: f64) -> i32 {
    (magnitude.to_bits() >> (52 - SKETCH_SUB_BITS)) as i32
}

/// Midpoint of the bucket `key` addresses — the value [`QuantileSketch`]
/// reports for every observation that landed in the bucket.
fn sketch_rep(key: i32) -> f64 {
    let lo = f64::from_bits((key as u64) << (52 - SKETCH_SUB_BITS));
    let hi = f64::from_bits(((key as u64) + 1) << (52 - SKETCH_SUB_BITS));
    if hi.is_finite() {
        0.5 * (lo + hi)
    } else {
        lo
    }
}

/// A mergeable quantile sketch over `f64` observations — the
/// DDSketch-style summary that replaces fixed-bucket histograms in
/// campaign aggregation (true Fig. 5 CDFs that survive a shard merge).
///
/// * **Bounded relative error.** `quantile(q)` is within
///   [`SKETCH_RELATIVE_ERROR`] (relative) of a value holding the exact
///   zero-based rank `round(q·(n−1))`. Values with magnitude below
///   [`f64::MIN_POSITIVE`] (zero and subnormals) collapse into an
///   exact zero bucket.
/// * **Exactly mergeable.** The state is integer bucket counts, so
///   [`QuantileSketch::merge`] is associative *and* commutative down
///   to the last bit: any partitioning of a stream across shards, in
///   any order, merges to the same sketch. That is what makes a
///   sharded campaign summary independent of the worker count.
/// * **NaN quarantine.** NaN observations land in [`QuantileSketch::nans`]
///   and never a bucket, so the Fig. 5 rows `reorder-survey` renders
///   from the sketch never count one (a NaN must not fatten the heavy
///   tail).
/// * **Checkpointable.** [`QuantileSketch::to_json`] /
///   [`QuantileSketch::from_json`] round-trip the exact state, the
///   persistence primitive for interrupted-campaign resume.
///
/// Memory is O(distinct buckets): observations spanning the rate range
/// `[1e-6, 1]` touch at most ~20 octaves × 128 buckets, stored sparsely.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Observations with |x| < `f64::MIN_POSITIVE` (exact zeros and
    /// subnormals — below the sketch's relative-error regime).
    zero: u64,
    /// Quarantined NaN observations.
    nan: u64,
    /// Bucket counts for negative observations, keyed by magnitude.
    neg: std::collections::BTreeMap<i32, u64>,
    /// Bucket counts for positive observations.
    pos: std::collections::BTreeMap<i32, u64>,
    /// Total non-NaN observations (cached; equals zero + Σneg + Σpos).
    count: u64,
}

impl QuantileSketch {
    /// Empty sketch.
    pub fn new() -> Self {
        QuantileSketch::default()
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        if x.is_nan() {
            self.nan += 1;
            return;
        }
        self.count += 1;
        let mag = x.abs();
        if mag < f64::MIN_POSITIVE {
            self.zero += 1;
        } else if x < 0.0 {
            *self.neg.entry(sketch_key(mag)).or_insert(0) += 1;
        } else {
            *self.pos.entry(sketch_key(mag)).or_insert(0) += 1;
        }
    }

    /// Non-NaN observations absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations that were exactly zero (or subnormal).
    #[cfg(test)]
    pub(crate) fn zeros(&self) -> u64 {
        self.zero
    }

    /// Quarantined NaN observations — never part of any quantile.
    pub fn nans(&self) -> u64 {
        self.nan
    }

    /// Fold `other` into `self`. Pure integer bucket addition:
    /// associative, commutative, and lossless, so shard sketches merge
    /// to the exact sketch of the concatenated stream.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.zero += other.zero;
        self.nan += other.nan;
        self.count += other.count;
        for (&k, &c) in &other.neg {
            *self.neg.entry(k).or_insert(0) += c;
        }
        for (&k, &c) in &other.pos {
            *self.pos.entry(k).or_insert(0) += c;
        }
    }

    /// The value at zero-based rank `round(q·(n−1))` of the sorted
    /// stream, to within [`SKETCH_RELATIVE_ERROR`] relative error
    /// (exact for zeros). `None` on an empty sketch. `q` is clamped to
    /// [0, 1].
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * (self.count - 1) as f64).round() as u64;
        let mut cum = 0u64;
        // Ascending value order: most-negative first (largest
        // magnitude key), then zero, then positives.
        for (&k, &c) in self.neg.iter().rev() {
            cum += c;
            if cum > rank {
                return Some(-sketch_rep(k));
            }
        }
        cum += self.zero;
        if cum > rank {
            return Some(0.0);
        }
        for (&k, &c) in &self.pos {
            cum += c;
            if cum > rank {
                return Some(sketch_rep(k));
            }
        }
        // Unreachable when the cached count matches the buckets; the
        // max bucket is the honest fallback.
        self.pos.keys().next_back().map(|&k| sketch_rep(k))
    }

    /// `(representative value, count)` rows of the positive buckets in
    /// ascending value order — the hook breakdown views (rate
    /// histograms, CDF tables) derive their rows from.
    pub fn positive_buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.pos.iter().map(|(&k, &c)| (sketch_rep(k), c))
    }

    /// Serialize the exact sketch state as one JSON object (stable key
    /// order, integers only — the checkpoint format).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(64 + 16 * (self.neg.len() + self.pos.len()));
        let _ = write!(
            s,
            "{{\"sub_bits\":{SKETCH_SUB_BITS},\"zero\":{},\"nan\":{},\"neg\":[",
            self.zero, self.nan
        );
        for (i, (k, c)) in self.neg.iter().enumerate() {
            let _ = write!(s, "{}[{k},{c}]", if i > 0 { "," } else { "" });
        }
        s.push_str("],\"pos\":[");
        for (i, (k, c)) in self.pos.iter().enumerate() {
            let _ = write!(s, "{}[{k},{c}]", if i > 0 { "," } else { "" });
        }
        s.push_str("]}");
        s
    }

    /// Parse a [`QuantileSketch::to_json`] string back into the exact
    /// sketch state. Rejects malformed input and a `sub_bits` stamp
    /// other than this build's (bucket keys are not comparable across
    /// resolutions, so a silent cross-resolution merge would corrupt
    /// quantiles).
    pub fn from_json(text: &str) -> Result<QuantileSketch, String> {
        QuantileSketch::from_value(&jsonx::parse(text)?)
    }

    /// [`QuantileSketch::from_json`] for a sketch already parsed, e.g.
    /// one nested inside a checkpoint document. Bucket pairs must be in
    /// the ascending key order the writer emits, and the derived total
    /// count must fit a `u64`.
    pub fn from_value(v: &Value) -> Result<QuantileSketch, String> {
        fn buckets(v: &Value) -> Result<std::collections::BTreeMap<i32, u64>, String> {
            let mut map = std::collections::BTreeMap::new();
            for pair in v.items()? {
                let [key, count] = pair.items()? else {
                    return Err("sketch bucket wants [key,count]".into());
                };
                let key: i32 = key.as_int()?;
                if map.last_key_value().is_some_and(|(&last, _)| last >= key) {
                    return Err(format!("sketch bucket {key} out of order"));
                }
                map.insert(key, count.as_int()?);
            }
            Ok(map)
        }
        let sub_bits: u64 = v.int("sub_bits")?;
        if sub_bits != u64::from(SKETCH_SUB_BITS) {
            return Err(format!(
                "sketch resolution mismatch: file has sub_bits={sub_bits}, build uses {SKETCH_SUB_BITS}"
            ));
        }
        let mut sk = QuantileSketch {
            zero: v.int("zero")?,
            nan: v.int("nan")?,
            neg: buckets(v.get("neg")?)?,
            pos: buckets(v.get("pos")?)?,
            count: 0,
        };
        sk.count = sk
            .neg
            .values()
            .chain(sk.pos.values())
            .try_fold(sk.zero, |acc, &c| acc.checked_add(c))
            .ok_or("sketch count overflows u64")?;
        Ok(sk)
    }
}

/// Scale of the [`Moments`] fixed-point domain: 2^80. Power-of-two, so
/// `x * MOMENTS_SCALE` is exact for every representable input.
const MOMENTS_SCALE: f64 = (1u128 << 80) as f64;

/// Order-independent streaming moments: count, mean, variance and CI
/// over a bounded-range series, accumulated as **fixed-point integers**
/// so that [`Moments::merge`] and [`Moments::push`] commute *exactly* —
/// unlike a floating-point Welford state, whose merge is associative
/// only to rounding error.
///
/// The campaign aggregation spine needs this stronger law: per-worker
/// shard aggregators fold whichever hosts the work-stealing scheduler
/// hands them, so the partition of hosts across shards is
/// nondeterministic. With `Moments`, any partition merges to
/// bit-identical state, which is what lets the rendered summary stay
/// byte-identical across worker counts without an id-order funnel.
///
/// Inputs quantize to multiples of 2^-80 (far below any rendered
/// precision) and must be finite with |x| ≤ 2^20 — the domain of
/// per-host rates (∈ [0, 1]) and second-scale latencies. Out-of-range
/// inputs panic rather than silently saturating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Moments {
    n: u64,
    /// Σx in fixed point (units of 2^-80).
    sum: i128,
    /// Σx² in fixed point (x² computed in f64, then quantized).
    sumsq: i128,
}

impl Moments {
    /// Empty accumulator.
    pub fn new() -> Self {
        Moments::default()
    }

    fn fixed(x: f64) -> i128 {
        // x ≤ 2^40 (an in-domain input or its square) times the 2^80
        // scale stays below i128::MAX (2^127).
        debug_assert!(x.is_finite() && x.abs() <= (1u64 << 40) as f64);
        (x * MOMENTS_SCALE).round() as i128
    }

    /// Fold in one observation.
    pub fn push(&mut self, x: f64) {
        assert!(
            x.is_finite() && x.abs() <= (1u64 << 20) as f64,
            "Moments input out of domain: {x}"
        );
        self.n += 1;
        self.sum += Self::fixed(x);
        self.sumsq += Self::fixed(x * x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean (0 when empty, matching [`mean`]).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.sum as f64 / MOMENTS_SCALE) / self.n as f64
        }
    }

    /// Unbiased sample variance (0 for n < 2, matching [`variance`]).
    /// Computed from the exact integer sums; clamped at zero against
    /// cancellation on near-constant series.
    pub(crate) fn variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as f64;
        let s = self.sum as f64 / MOMENTS_SCALE;
        let ss = self.sumsq as f64 / MOMENTS_SCALE;
        ((ss - s * s / n) / (n - 1.0)).max(0.0)
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Normal-approximation confidence interval for the mean at a
    /// tabulated `confidence` level: 0.90, 0.95, 0.99, 0.995 or 0.999;
    /// any other level panics.
    pub fn ci(&self, confidence: f64) -> (f64, f64) {
        if self.n == 0 {
            return (0.0, 0.0);
        }
        let se = self.stddev() / (self.n as f64).sqrt();
        let z = z_critical(confidence);
        let m = self.mean();
        (m - z * se, m + z * se)
    }

    /// Combine two accumulators. Integer addition of the fixed-point
    /// sums: exactly associative and commutative, so any partitioning
    /// of a series across shards merges to identical state.
    pub fn merge(&self, other: &Moments) -> Moments {
        Moments {
            n: self.n + other.n,
            sum: self.sum + other.sum,
            sumsq: self.sumsq + other.sumsq,
        }
    }

    /// Serialize the exact accumulator state as one JSON object. The
    /// fixed-point sums are integers, so the round-trip through
    /// [`Moments::from_json`] is bit-exact — the checkpoint primitive
    /// the campaign orchestrator persists at shard boundaries.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"n\":{},\"sum\":{},\"sumsq\":{}}}",
            self.n, self.sum, self.sumsq
        )
    }

    /// Parse a [`Moments::to_json`] string back into the exact state.
    /// Rejects malformed input rather than defaulting any field.
    pub fn from_json(text: &str) -> Result<Moments, String> {
        Moments::from_value(&jsonx::parse(text)?)
    }

    /// [`Moments::from_json`] for a document already parsed, e.g. one
    /// nested inside a checkpoint.
    pub fn from_value(v: &Value) -> Result<Moments, String> {
        Ok(Moments {
            n: v.int("n")?,
            sum: v.int("sum")?,
            sumsq: v.int("sumsq")?,
        })
    }
}

/// Result of a paired-difference analysis.
#[derive(Debug, Clone, Copy)]
pub struct PairDifference {
    /// Number of paired observations.
    pub n: usize,
    /// Mean of the differences a_i − b_i.
    pub mean_diff: f64,
    /// Confidence interval for the mean difference.
    pub ci: (f64, f64),
    /// Whether the CI contains zero — i.e. the observed difference is
    /// explainable by intra-test variability (the null hypothesis).
    pub supports_null: bool,
}

/// Paired-difference test at `confidence` on equal-length observation
/// series (Jain §13.4.1). Observations are paired index-wise; callers
/// align them by measurement round. Panics if the series lengths differ
/// or fewer than 2 pairs exist.
pub fn pair_difference(a: &[f64], b: &[f64], confidence: f64) -> PairDifference {
    assert_eq!(a.len(), b.len(), "paired series must align");
    assert!(a.len() >= 2, "need at least two pairs");
    let diffs: Vec<f64> = a.iter().zip(b).map(|(x, y)| x - y).collect();
    let n = diffs.len();
    let md = mean(&diffs);
    let se = stddev(&diffs) / (n as f64).sqrt();
    let z = z_critical(confidence);
    let ci = (md - z * se, md + z * se);
    PairDifference {
        n,
        mean_diff: md,
        ci,
        supports_null: ci.0 <= 0.0 && 0.0 <= ci.1,
    }
}

/// Lag-`k` sample autocorrelation. The §IV-B pair-difference analysis
/// assumes "the reordering process is stationary over the time-period
/// between measurements"; autocorrelation of a measurement series is
/// the standard first check on that assumption.
pub fn autocorrelation(xs: &[f64], k: usize) -> f64 {
    if xs.len() <= k + 1 {
        return 0.0;
    }
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    // reorder-lint: allow(float-eq, exact-zero divisor guard; any nonzero sum of squares is valid)
    if denom == 0.0 {
        return 0.0;
    }
    let num: f64 = xs.windows(k + 1).map(|w| (w[0] - m) * (w[k] - m)).sum();
    num / denom
}

/// Pearson correlation of two equal-length series.
pub fn correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "series must align");
    let ma = mean(a);
    let mb = mean(b);
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma) * (x - ma)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb) * (y - mb)).sum();
    // reorder-lint: allow(float-eq, exact-zero divisor guard; any nonzero sum of squares is valid)
    if va == 0.0 || vb == 0.0 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

/// Wald–Wolfowitz runs test against the series median: returns the
/// z-statistic of the observed number of runs. |z| ≫ 2 suggests the
/// series is not exchangeable (trend or strong oscillation) — i.e. the
/// stationarity assumption of §IV-B deserves suspicion.
pub fn runs_test_z(xs: &[f64]) -> f64 {
    if xs.len() < 4 {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = sorted.len();
    // Midpoint median (average of the middle two for even n) so that a
    // two-valued series splits cleanly instead of tying with the median.
    let median = if n.is_multiple_of(2) {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    } else {
        sorted[n / 2]
    };
    // Classify above/below, dropping exact ties.
    let signs: Vec<bool> = xs
        .iter()
        .filter(|&&x| x != median)
        .map(|&x| x > median)
        .collect();
    let n1 = signs.iter().filter(|&&s| s).count() as f64;
    let n2 = signs.len() as f64 - n1;
    // reorder-lint: allow(float-eq, counts cast from integers; zero is exactly representable)
    if n1 == 0.0 || n2 == 0.0 {
        return 0.0;
    }
    let runs = 1.0 + signs.windows(2).filter(|w| w[0] != w[1]).count() as f64;
    let expected = 2.0 * n1 * n2 / (n1 + n2) + 1.0;
    let var = 2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2) / ((n1 + n2) * (n1 + n2) * (n1 + n2 - 1.0));
    if var <= 0.0 {
        return 0.0;
    }
    (runs - expected) / var.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_var_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((stddev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn sketch_quantiles_hit_exact_ranks_within_epsilon() {
        let mut sk = QuantileSketch::new();
        let mut vals: Vec<f64> = (0..1000)
            .map(|i| ((i * 193) % 997) as f64 / 997.0)
            .collect();
        for &v in &vals {
            sk.push(v);
        }
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sk.count(), 1000);
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let rank = (q * 999.0f64).round() as usize;
            let exact = vals[rank];
            let got = sk.quantile(q).unwrap();
            if exact == 0.0 {
                assert_eq!(got, 0.0, "q={q}");
            } else {
                assert!(
                    (got - exact).abs() / exact <= SKETCH_RELATIVE_ERROR,
                    "q={q}: got {got}, exact {exact}"
                );
            }
        }
        assert_eq!(QuantileSketch::new().quantile(0.5), None);
    }

    #[test]
    fn sketch_handles_zero_negative_and_nan() {
        let mut sk = QuantileSketch::new();
        for v in [0.0, -2.5, 4.0, f64::NAN, 0.0] {
            sk.push(v);
        }
        assert_eq!(sk.count(), 4);
        assert_eq!(sk.zeros(), 2);
        assert_eq!(sk.nans(), 1);
        // Sorted stream: -2.5, 0, 0, 4 → q=0 is the most negative.
        let lo = sk.quantile(0.0).unwrap();
        assert!((lo + 2.5).abs() / 2.5 <= SKETCH_RELATIVE_ERROR, "{lo}");
        assert_eq!(sk.quantile(0.4), Some(0.0));
        let hi = sk.quantile(1.0).unwrap();
        assert!((hi - 4.0).abs() / 4.0 <= SKETCH_RELATIVE_ERROR, "{hi}");
    }

    #[test]
    fn sketch_merge_is_exact_and_commutative() {
        let mut whole = QuantileSketch::new();
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for i in 0..500 {
            let v = ((i * 37) % 251) as f64 * 0.004;
            whole.push(v);
            if i % 3 == 0 {
                a.push(v);
            } else {
                b.push(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole, "merge must equal the unsplit sketch");
        assert_eq!(ab, ba, "merge must commute");
    }

    #[test]
    fn sketch_json_roundtrip_is_lossless() {
        let mut sk = QuantileSketch::new();
        for v in [0.0, 0.013, 0.5, -1.25, f64::NAN, 3e-4, 0.013] {
            sk.push(v);
        }
        let json = sk.to_json();
        let back = QuantileSketch::from_json(&json).expect("roundtrip");
        assert_eq!(back, sk);
        assert_eq!(back.to_json(), json);
        // Empty sketch round-trips too.
        let empty = QuantileSketch::new();
        assert_eq!(QuantileSketch::from_json(&empty.to_json()).unwrap(), empty);
        // Malformed input and resolution mismatches are rejected.
        assert!(QuantileSketch::from_json("{}").is_err());
        assert!(
            QuantileSketch::from_json(&json.replace("\"sub_bits\":7", "\"sub_bits\":5"))
                .unwrap_err()
                .contains("resolution")
        );
        // Counts whose total overflows u64 are an error, not a panic.
        let huge = format!(
            "{{\"sub_bits\":{SKETCH_SUB_BITS},\"zero\":{},\"nan\":0,\"neg\":[],\"pos\":[[0,1]]}}",
            u64::MAX
        );
        assert!(QuantileSketch::from_json(&huge)
            .unwrap_err()
            .contains("overflow"));
        // Buckets out of key order would not re-encode to the same bytes.
        let swapped = format!(
            "{{\"sub_bits\":{SKETCH_SUB_BITS},\"zero\":0,\"nan\":0,\"neg\":[],\"pos\":[[5,1],[2,1]]}}"
        );
        assert!(QuantileSketch::from_json(&swapped).is_err());
    }

    #[test]
    fn moments_match_batch_statistics() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut m = Moments::new();
        for &x in &xs {
            m.push(x);
        }
        assert_eq!(m.count(), 8);
        assert!((m.mean() - mean(&xs)).abs() < 1e-9);
        assert!((m.variance() - variance(&xs)).abs() < 1e-9);
        let (lo, hi) = m.ci(0.95);
        assert!(lo < m.mean() && m.mean() < hi);
        let e = Moments::new();
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.variance(), 0.0);
        assert_eq!(e.ci(0.95), (0.0, 0.0));
    }

    #[test]
    fn moments_merge_is_partition_invariant_bitwise() {
        // The law a float Welford state cannot give: ANY partition of
        // the series merges to bit-identical state.
        let xs: Vec<f64> = (0..200).map(|i| ((i * 37) % 17) as f64 * 0.25).collect();
        let mut whole = Moments::new();
        for &x in &xs {
            whole.push(x);
        }
        for stride in [2usize, 3, 7] {
            let mut parts = vec![Moments::new(); stride];
            for (i, &x) in xs.iter().enumerate() {
                parts[i % stride].push(x);
            }
            // Left fold and right fold must agree exactly.
            let l = parts.iter().fold(Moments::new(), |acc, p| acc.merge(p));
            let r = parts
                .iter()
                .rev()
                .fold(Moments::new(), |acc, p| p.merge(&acc));
            assert_eq!(l, whole, "stride {stride}");
            assert_eq!(r, whole, "stride {stride} (reversed)");
        }
    }

    #[test]
    fn moments_json_round_trips_and_rejects_malformed() {
        let mut m = Moments::new();
        for x in [0.25, -3.5, 1e-6] {
            m.push(x);
        }
        let json = m.to_json();
        assert_eq!(Moments::from_json(&json).unwrap(), m);
        for bad in [
            "{\"n\":5x,\"sum\":0,\"sumsq\":0}",
            "{\"n\":5,\"sum\":0,\"sumsq\":0",
            "{\"n\":-1,\"sum\":0,\"sumsq\":0}",
            "{\"sum\":0,\"sumsq\":0}",
        ] {
            assert!(Moments::from_json(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn moments_reject_out_of_domain_input() {
        Moments::new().push(f64::INFINITY);
    }

    #[test]
    fn z_table() {
        assert!((z_critical(0.95) - 1.96).abs() < 1e-3);
        assert!((z_critical(0.999) - 3.2905).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "untabulated")]
    fn z_unknown_level_panics() {
        z_critical(0.42);
    }

    #[test]
    fn identical_series_support_null() {
        let a = [0.1, 0.2, 0.15, 0.12, 0.18, 0.2];
        let d = pair_difference(&a, &a, 0.999);
        assert!(d.supports_null);
        assert_eq!(d.mean_diff, 0.0);
        assert_eq!(d.n, 6);
    }

    #[test]
    fn noisy_equal_means_support_null() {
        // Same underlying rate, independent noise.
        let a: Vec<f64> = (0..40)
            .map(|i| 0.1 + 0.01 * ((i * 7 % 13) as f64 - 6.0))
            .collect();
        let b: Vec<f64> = (0..40)
            .map(|i| 0.1 + 0.01 * ((i * 11 % 13) as f64 - 6.0))
            .collect();
        let d = pair_difference(&a, &b, 0.999);
        assert!(d.supports_null, "mean_diff={} ci={:?}", d.mean_diff, d.ci);
    }

    #[test]
    fn shifted_series_reject_null() {
        let a: Vec<f64> = (0..40).map(|i| 0.30 + 0.001 * (i % 5) as f64).collect();
        let b: Vec<f64> = (0..40).map(|i| 0.10 + 0.001 * (i % 7) as f64).collect();
        let d = pair_difference(&a, &b, 0.999);
        assert!(!d.supports_null);
        assert!(d.mean_diff > 0.15);
        assert!(d.ci.0 > 0.0);
    }

    #[test]
    #[should_panic(expected = "paired series must align")]
    fn mismatched_lengths_panic() {
        pair_difference(&[1.0, 2.0], &[1.0], 0.95);
    }

    #[test]
    fn autocorrelation_of_constant_is_zero() {
        assert_eq!(autocorrelation(&[3.0; 10], 1), 0.0);
    }

    #[test]
    fn autocorrelation_detects_persistence() {
        // Slow sine: strongly positively correlated at lag 1.
        let xs: Vec<f64> = (0..64).map(|i| (i as f64 / 10.0).sin()).collect();
        assert!(autocorrelation(&xs, 1) > 0.8);
        // Alternating series: strongly negative at lag 1.
        let alt: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(autocorrelation(&alt, 1) < -0.8);
    }

    #[test]
    fn correlation_bounds_and_sign() {
        let a: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let b: Vec<f64> = a.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((correlation(&a, &b) - 1.0).abs() < 1e-12);
        let c: Vec<f64> = a.iter().map(|x| -x).collect();
        assert!((correlation(&a, &c) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&a, &[5.0; 32]), 0.0);
    }

    #[test]
    fn runs_test_flags_trend_but_not_noise() {
        // A monotone trend has exactly 2 runs: far fewer than expected.
        let trend: Vec<f64> = (0..40).map(|i| i as f64).collect();
        assert!(runs_test_z(&trend) < -3.0);
        // Perfect alternation has the maximum number of runs.
        let alt: Vec<f64> = (0..40)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        assert!(runs_test_z(&alt) > 3.0);
        // A fixed scrambled series stays well within bounds (a plain
        // multiplicative sequence would be a sawtooth and rightly get
        // flagged; xor-mixing breaks the periodicity).
        let noise: Vec<f64> = (0u64..40)
            .map(|i| (((i * 2_654_435_761) ^ (i << 7) ^ 0x9e37_79b9) % 1000) as f64)
            .collect();
        assert!(runs_test_z(&noise).abs() < 2.5);
    }
}
