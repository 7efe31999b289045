//! Reordering metrics.
//!
//! The paper's primitive metric is "the number of exchanges between
//! pairs of test packets ... for a known load" (§I), reported as the
//! probability that a back-to-back pair is exchanged, and generalized by
//! parameterizing on inter-packet delay (§IV-C) — the [`GapProfile`].
//! For comparison with prior work we also implement the Bennett et al.
//! SACK-block metric \[2\] and the non-reversing-sequence metrics that the
//! IETF IPPM draft \[8\] (later RFC 4737) standardized.

use std::time::Duration;

/// A reordering-rate estimate: `reordered` events out of `total`
/// determinate samples. `Default` is the empty estimate (0/0).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorderEstimate {
    /// Reordered (exchanged) samples.
    pub reordered: usize,
    /// Determinate samples (discarded ones excluded, per §III-B).
    pub total: usize,
}

impl ReorderEstimate {
    /// New estimate.
    pub fn new(reordered: usize, total: usize) -> Self {
        assert!(reordered <= total, "more events than samples");
        ReorderEstimate { reordered, total }
    }

    /// Point estimate of the reordering probability (0 when no samples).
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.reordered as f64 / self.total as f64
        }
    }

    /// Wilson score interval at critical value `z` (e.g. 1.96 for 95%).
    /// Well-behaved at the extremes (0 or all samples reordered), unlike
    /// the normal approximation.
    pub fn wilson_ci(&self, z: f64) -> (f64, f64) {
        let n = self.total as f64;
        if self.total == 0 {
            return (0.0, 1.0);
        }
        let p = self.rate();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let center = (p + z2 / (2.0 * n)) / denom;
        let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        ((center - half).max(0.0), (center + half).min(1.0))
    }

    /// Merge two estimates (e.g. across measurement rounds).
    pub fn merge(&self, other: &ReorderEstimate) -> ReorderEstimate {
        ReorderEstimate {
            reordered: self.reordered + other.reordered,
            total: self.total + other.total,
        }
    }
}

/// The paper's primitive metric applied to an arbitrary arrival
/// sequence: the number of adjacent exchanges (bubble-sort swaps) needed
/// to restore sent order. For a 2-packet sample this is 0 or 1.
/// Computed as an O(n log n) merge count of inversions
/// ([`reorder_netsim::capture::count_inversions`]), which equals the
/// bubble-sort swap count exactly.
pub fn exchanges(arrival_order: &[u64]) -> usize {
    reorder_netsim::capture::count_inversions(arrival_order)
}

/// Non-reversing-order classification (IPPM draft \[8\] / RFC 4737
/// Type-P-Reordered): a packet is reordered iff its sequence value is
/// smaller than one already received. Returns a flag per arrival.
pub fn non_reversing_reordered(arrivals: &[u64]) -> Vec<bool> {
    let mut max_seen: Option<u64> = None;
    arrivals
        .iter()
        .map(|&s| {
            let reordered = max_seen.is_some_and(|m| s < m);
            if !reordered {
                max_seen = Some(s);
            }
            reordered
        })
        .collect()
}

/// RFC-4737-style reordering *extent* of each reordered packet: the
/// distance (in arrivals) back to the earliest arrived packet with a
/// larger sequence value. Ordered packets get extent 0.
pub fn reordering_extents(arrivals: &[u64]) -> Vec<usize> {
    arrivals
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            arrivals[..i]
                .iter()
                .position(|&earlier| earlier > s)
                .map(|j| i - j)
                .unwrap_or(0)
        })
        .collect()
}

/// The Bennett et al. SACK metric \[2\]: the maximum number of SACK blocks
/// a receiver would simultaneously hold while receiving `arrivals`
/// (sequence values, 1 unit apart, starting at `first`). "The number of
/// SACK blocks covering a reordered sequence is highly TCP-dependent" —
/// which is exactly why the paper replaced it — but it is the natural
/// point of comparison.
pub fn max_sack_blocks(arrivals: &[u64], first: u64) -> usize {
    let mut next = first;
    let mut blocks: Vec<(u64, u64)> = Vec::new(); // [start, end) disjoint sorted
    let mut max_blocks = 0;
    for &s in arrivals {
        if s == next {
            next += 1;
            // Coalesce queued blocks the edge reaches.
            while let Some(&(bs, be)) = blocks.first() {
                if bs <= next {
                    next = next.max(be);
                    blocks.remove(0);
                } else {
                    break;
                }
            }
        } else if s > next {
            // Insert [s, s+1) into the block set, merging neighbors.
            let mut merged = (s, s + 1);
            blocks.retain(|&(bs, be)| {
                if be >= merged.0 && bs <= merged.1 {
                    merged.0 = merged.0.min(bs);
                    merged.1 = merged.1.max(be);
                    false
                } else {
                    true
                }
            });
            blocks.push(merged);
            blocks.sort_unstable();
        }
        max_blocks = max_blocks.max(blocks.len());
    }
    max_blocks
}

/// An empirical CDF over reordering rates — Figure 5's presentation.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from raw values (NaNs rejected).
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(values.iter().all(|v| !v.is_nan()), "NaN in CDF input");
        values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Cdf { sorted: values }
    }

    /// Fraction of observations ≤ `x`.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), by the nearest-rank method.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[rank - 1]
    }

    /// `(value, cumulative_fraction)` steps for plotting.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n))
            .collect()
    }
}

/// One point of a time-domain reordering profile (Fig. 7).
#[derive(Debug, Clone, Copy)]
pub struct GapPoint {
    /// Inter-packet spacing of the sample pairs.
    pub gap: Duration,
    /// Measured exchange probability at that spacing.
    pub estimate: ReorderEstimate,
}

/// The reordering process as a function of inter-packet time — "strictly
/// more powerful than a traditional summary statistic" (§IV-C).
#[derive(Debug, Clone, Default)]
pub struct GapProfile {
    /// Points in sweep order (ascending gap by construction).
    pub points: Vec<GapPoint>,
}

impl GapProfile {
    /// Add a measured point.
    pub fn push(&mut self, gap: Duration, estimate: ReorderEstimate) {
        self.points.push(GapPoint { gap, estimate });
    }

    /// Linear interpolation of the reordering probability at `gap`.
    /// Panics when the profile is empty; clamps outside the measured
    /// range.
    pub fn interpolate(&self, gap: Duration) -> f64 {
        assert!(!self.points.is_empty(), "empty profile");
        let xs = &self.points;
        if gap <= xs[0].gap {
            return xs[0].estimate.rate();
        }
        if gap >= xs[xs.len() - 1].gap {
            return xs[xs.len() - 1].estimate.rate();
        }
        for w in xs.windows(2) {
            if gap >= w[0].gap && gap <= w[1].gap {
                let x0 = w[0].gap.as_nanos() as f64;
                let x1 = w[1].gap.as_nanos() as f64;
                let x = gap.as_nanos() as f64;
                let y0 = w[0].estimate.rate();
                let y1 = w[1].estimate.rate();
                if x1 == x0 {
                    return y0;
                }
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
            }
        }
        unreachable!("windows cover the range");
    }

    /// Predict the exchange probability for a packet pair whose leading
    /// edges are separated by the serialization time of `bytes` at
    /// `bits_per_sec` — the §IV-C argument for why 1500-byte data
    /// packets reorder less than 40-byte probes.
    pub fn predict_for_size(&self, bytes: usize, bits_per_sec: u64) -> f64 {
        self.interpolate(reorder_netsim::serialization_delay(bytes, bits_per_sec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_rate_and_ci() {
        let e = ReorderEstimate::new(10, 100);
        assert!((e.rate() - 0.1).abs() < 1e-12);
        let (lo, hi) = e.wilson_ci(1.96);
        assert!(lo > 0.04 && lo < 0.1, "lo={lo}");
        assert!(hi > 0.1 && hi < 0.19, "hi={hi}");
        // Extremes stay in [0,1].
        let z = ReorderEstimate::new(0, 50).wilson_ci(1.96);
        assert!(z.0 >= 0.0 && z.1 <= 1.0 && z.1 > 0.0);
        let o = ReorderEstimate::new(50, 50).wilson_ci(1.96);
        assert!(o.0 < 1.0 && o.1 == 1.0);
    }

    #[test]
    fn estimate_empty_is_zero() {
        let e = ReorderEstimate::new(0, 0);
        assert_eq!(e.rate(), 0.0);
        assert_eq!(e.wilson_ci(1.96), (0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "more events than samples")]
    fn estimate_rejects_impossible() {
        ReorderEstimate::new(5, 4);
    }

    #[test]
    fn merge_adds() {
        let a = ReorderEstimate::new(1, 10).merge(&ReorderEstimate::new(2, 5));
        assert_eq!(a, ReorderEstimate::new(3, 15));
    }

    #[test]
    fn exchanges_counts() {
        assert_eq!(exchanges(&[1, 2, 3, 4]), 0);
        assert_eq!(exchanges(&[2, 1]), 1);
        assert_eq!(exchanges(&[1, 3, 2, 4]), 1);
        assert_eq!(exchanges(&[4, 3, 2, 1]), 6);
        assert_eq!(exchanges(&[]), 0);
        assert_eq!(exchanges(&[9]), 0);
    }

    #[test]
    fn non_reversing_flags() {
        assert_eq!(
            non_reversing_reordered(&[1, 2, 4, 3, 5]),
            vec![false, false, false, true, false]
        );
        // A burst advanced past 5; 2,3,4 are all late.
        assert_eq!(
            non_reversing_reordered(&[1, 5, 2, 3, 4]),
            vec![false, false, true, true, true]
        );
    }

    #[test]
    fn extents() {
        assert_eq!(reordering_extents(&[1, 2, 3]), vec![0, 0, 0]);
        // 3 arrives, then 2: extent of 2 is distance back to 3 (1).
        assert_eq!(reordering_extents(&[1, 3, 2]), vec![0, 0, 1]);
        // 5 first, everything after is late by its distance to pos 0.
        assert_eq!(reordering_extents(&[5, 1, 2]), vec![0, 1, 2]);
    }

    #[test]
    fn sack_blocks_simple_swap_needs_one() {
        // Sent 1,2; received 2,1: one block while waiting for 1.
        assert_eq!(max_sack_blocks(&[2, 1], 1), 1);
        // In order: never any blocks.
        assert_eq!(max_sack_blocks(&[1, 2, 3], 1), 0);
    }

    #[test]
    fn sack_blocks_interleaved() {
        // 1,3,5 then 2,4: after 5 arrive blocks {3},{5} = 2 blocks.
        assert_eq!(max_sack_blocks(&[1, 3, 5, 2, 4], 1), 2);
        // Adjacent OOO coalesce: 1,3,4,5,2 → block {3,4,5} only.
        assert_eq!(max_sack_blocks(&[1, 3, 4, 5, 2], 1), 1);
    }

    #[test]
    fn cdf_basics() {
        let c = Cdf::new(vec![0.0, 0.1, 0.1, 0.4]);
        assert_eq!(c.sorted.len(), 4);
        assert!((c.fraction_at_most(0.0) - 0.25).abs() < 1e-12);
        assert!((c.fraction_at_most(0.1) - 0.75).abs() < 1e-12);
        assert!((c.fraction_at_most(1.0) - 1.0).abs() < 1e-12);
        assert!((c.fraction_at_most(-0.5) - 0.0).abs() < 1e-12);
        assert!((c.quantile(0.5) - 0.1).abs() < 1e-12);
        assert!((c.quantile(1.0) - 0.4).abs() < 1e-12);
        let pts = c.points();
        assert_eq!(pts.len(), 4);
        assert!((pts[3].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn cdf_rejects_nan() {
        Cdf::new(vec![f64::NAN]);
    }

    #[test]
    fn profile_interpolates_and_predicts() {
        let mut p = GapProfile::default();
        p.push(Duration::ZERO, ReorderEstimate::new(10, 100)); // 0.10
        p.push(Duration::from_micros(50), ReorderEstimate::new(2, 100)); // 0.02
        p.push(Duration::from_micros(250), ReorderEstimate::new(0, 100)); // 0.00
        assert!((p.interpolate(Duration::ZERO) - 0.10).abs() < 1e-12);
        assert!((p.interpolate(Duration::from_micros(25)) - 0.06).abs() < 1e-12);
        assert!((p.interpolate(Duration::from_micros(500)) - 0.0).abs() < 1e-12);
        // 1500 bytes at 100 Mbit/s = 120 us → between 50 and 250 us.
        let pred = p.predict_for_size(1500, 100_000_000);
        assert!(pred < 0.02 && pred > 0.0);
        // 40-byte probes at the same rate are near back-to-back.
        let small = p.predict_for_size(40, 100_000_000);
        assert!(small > pred, "small packets must reorder more");
    }
}
