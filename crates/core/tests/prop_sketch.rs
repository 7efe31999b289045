//! Property tests for the mergeable aggregation primitives behind the
//! sharded campaign summary: the algebraic laws of
//! [`QuantileSketch`] (merge is an exact commutative monoid, quantiles
//! stay within the declared relative error of a sorted reference, NaNs
//! are quarantined) and the partition invariance of [`Moments`]. These
//! laws are what let per-worker aggregators fold results in completion
//! order and still produce byte-identical summaries.

use proptest::prelude::*;
use reorder_core::stats::{Moments, QuantileSketch, SKETCH_RELATIVE_ERROR};

fn sketch_of(xs: &[f64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &x in xs {
        s.push(x);
    }
    s
}

/// Observation streams: magnitudes spanning many octaves, both signs,
/// with exact zeros mixed in.
fn arb_stream(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    // Repetition stands in for weights (the vendored `prop_oneof` is
    // unweighted): mostly positive, some negative, occasional zeros.
    proptest::collection::vec(
        prop_oneof![
            1e-6f64..1e6,
            1e-6f64..1e6,
            1e-6f64..1e6,
            -1e6f64..-1e-6,
            Just(0.0f64),
        ],
        0..max_len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Merge is associative, commutative, and lossless: any grouping or
    /// ordering of sub-sketches equals the sketch of the concatenated
    /// stream, down to the exact state (`Eq`, not quantile-approximate).
    #[test]
    fn sketch_merge_is_an_exact_commutative_monoid(
        a in arb_stream(50),
        b in arb_stream(50),
        c in arb_stream(50),
    ) {
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
        // (a ∪ b) ∪ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ∪ (b ∪ c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right, "merge must be associative");
        // b ∪ a == a ∪ b
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb;
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba, "merge must be commutative");
        // The empty sketch is the identity.
        let mut with_empty = left.clone();
        with_empty.merge(&QuantileSketch::new());
        prop_assert_eq!(&with_empty, &left, "empty sketch must be the identity");
        // Merging sub-sketches equals sketching the whole stream.
        let whole: Vec<f64> = a.iter().chain(&b).chain(&c).copied().collect();
        prop_assert_eq!(&left, &sketch_of(&whole), "merge must be lossless");
    }

    /// `quantile(q)` lands within [`SKETCH_RELATIVE_ERROR`] (relative)
    /// of the value holding rank `round(q·(n−1))` in the exact sorted
    /// stream — the sketch's headline accuracy contract, checked
    /// against a from-scratch sorted reference.
    #[test]
    fn sketch_quantile_within_declared_relative_error(
        xs in arb_stream(200),
        q in 0.0f64..=1.0,
    ) {
        prop_assume!(!xs.is_empty());
        let s = sketch_of(&xs);
        prop_assert_eq!(s.count(), xs.len() as u64);
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (q * (xs.len() - 1) as f64).round() as usize;
        let exact = sorted[rank];
        let got = s.quantile(q).expect("non-empty sketch");
        prop_assert!(
            (got - exact).abs() <= SKETCH_RELATIVE_ERROR * exact.abs() + 1e-300,
            "q {} rank {} exact {} got {}",
            q, rank, exact, got
        );
        // The reported value keeps the exact value's sign class.
        prop_assert_eq!(got == 0.0, exact == 0.0);
    }

    /// NaNs are quarantined: they count in `nans()`, never in `count()`,
    /// and never move any quantile (a NaN must not fatten the heavy
    /// tail of the Fig. 5 rows). Quarantine survives merge.
    #[test]
    fn sketch_quarantines_nans(xs in arb_stream(60), nans in 0usize..6) {
        let clean = sketch_of(&xs);
        let mut dirty = clean.clone();
        for _ in 0..nans {
            dirty.push(f64::NAN);
        }
        prop_assert_eq!(dirty.nans(), nans as u64);
        prop_assert_eq!(dirty.count(), clean.count());
        for q in [0.0, 0.25, 0.5, 0.9, 1.0] {
            prop_assert_eq!(dirty.quantile(q), clean.quantile(q));
        }
        let mut merged = clean.clone();
        merged.merge(&dirty);
        prop_assert_eq!(merged.nans(), nans as u64);
        prop_assert_eq!(merged.count(), clean.count() * 2);
    }

    /// The JSON checkpoint round-trips the exact state for arbitrary
    /// streams (including quarantined NaNs).
    #[test]
    fn sketch_json_roundtrip_is_exact(xs in arb_stream(80), nans in 0usize..3) {
        let mut s = sketch_of(&xs);
        for _ in 0..nans {
            s.push(f64::NAN);
        }
        let back = QuantileSketch::from_json(&s.to_json()).expect("own JSON must parse");
        prop_assert_eq!(back, s);
    }

    /// `Moments` is partition-invariant: splitting a stream at any
    /// point and merging the halves reproduces the serial fold exactly
    /// (`Eq` on the fixed-point state), and merge commutes — the
    /// property float Welford merges only approximate.
    #[test]
    fn moments_merge_is_partition_invariant(
        xs in proptest::collection::vec(-1e4f64..1e4, 1..80),
        cut in 0usize..80,
    ) {
        let cut = cut.min(xs.len());
        let fold = |slice: &[f64]| {
            let mut m = Moments::new();
            for &x in slice {
                m.push(x);
            }
            m
        };
        let serial = fold(&xs);
        let (lo, hi) = (fold(&xs[..cut]), fold(&xs[cut..]));
        prop_assert_eq!(lo.merge(&hi), serial, "split/merge must equal the serial fold");
        prop_assert_eq!(hi.merge(&lo), serial, "merge must commute");
        prop_assert_eq!(serial.merge(&Moments::new()), serial, "empty is the identity");
        prop_assert_eq!(serial.count(), xs.len() as u64);
        // The fixed-point mean tracks the naive f64 mean closely.
        let naive = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((serial.mean() - naive).abs() <= 1e-9 * (1.0 + naive.abs()));
    }
}
