//! Property tests for the checkpoint serialization contract: the
//! aggregation and telemetry state that rides inside
//! `reorder.checkpoint/1` must survive a to_json/from_json round trip
//! *exactly* (merging restored states equals merging the originals),
//! and a sealed document with any single flipped bit must be rejected
//! by the integrity hash rather than merged silently. These two laws
//! are what let `--resume` promise byte-identical output instead of
//! "approximately the same numbers".
//!
//! A third law covers the decoders on their own, below the seal: fed
//! any truncation or single-byte mutation of a valid document, each
//! returns `Err` or a value that re-encodes to exactly the bytes it was
//! given, and none panics.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use reorder_campaign::{CampaignSpec, Checkpoint};
use reorder_core::metrics::ReorderEstimate;
use reorder_core::stats::{Moments, QuantileSketch};
use reorder_core::telemetry::{TelemetryMode, WorkerTelemetry};
use reorder_core::TestKind;
use reorder_survey::aggregate::GroupAgg;
use reorder_survey::{unseal, CampaignSummary, FailureAgg, ShardAggregator, TechniqueChoice};
use std::collections::BTreeMap;

const LABELS: [&str; 6] = ["dual", "syn", "transfer", "striping", "freebsd4", "linux"];
const COUNTERS: [&str; 3] = ["netsim.events", "pool.hits", "sched.tasks"];
const SPANS: [&str; 3] = ["host", "measure", "baseline"];

/// One observation a worker might record mid-campaign (same op
/// language as `prop_telemetry.rs` in core).
#[derive(Clone, Debug)]
enum Op {
    Count(usize, u64),
    Span(usize, f64),
}

fn arb_ops(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0usize..COUNTERS.len(), 0u64..10_000).prop_map(|(k, n)| Op::Count(k, n)),
            (0usize..SPANS.len(), 1e-6f64..1e3).prop_map(|(k, s)| Op::Span(k, s)),
        ],
        0..max_len,
    )
}

fn apply(ops: &[Op]) -> WorkerTelemetry {
    let mut tel = WorkerTelemetry::new();
    for op in ops {
        match *op {
            Op::Count(k, n) => tel.count(COUNTERS[k], n),
            Op::Span(k, s) => tel.record_span(SPANS[k], TelemetryMode::Full, s),
        }
    }
    tel
}

fn arb_est() -> impl Strategy<Value = ReorderEstimate> {
    (0usize..5_000, 0usize..5_000).prop_map(|(a, b)| {
        let (reordered, total) = if a <= b { (a, b) } else { (b, a) };
        ReorderEstimate { reordered, total }
    })
}

/// Moments built from pushed observations — the only way real code
/// builds them, so round trips cover genuinely reachable states.
fn arb_moments() -> impl Strategy<Value = Moments> {
    proptest::collection::vec(1e-6f64..1e3, 0..12).prop_map(|vs| {
        let mut m = Moments::new();
        for v in vs {
            m.push(v);
        }
        m
    })
}

fn arb_group() -> impl Strategy<Value = GroupAgg> {
    (0u64..10_000, arb_est(), arb_est(), arb_moments()).prop_map(|(hosts, fwd, rev, fwd_rates)| {
        GroupAgg {
            hosts,
            fwd,
            rev,
            fwd_rates,
        }
    })
}

/// A full shard aggregation state: counters, rate moments, pooled
/// estimates, quantile sketch, grouped breakdowns and a gap profile.
fn arb_shard() -> impl Strategy<Value = ShardAggregator> {
    (
        proptest::collection::vec(0u64..1_000_000, 7),
        (
            arb_moments(),
            arb_moments(),
            proptest::collection::vec(0.0f64..1.0, 0..16),
        ),
        (arb_est(), arb_est(), arb_est()),
        proptest::collection::vec((0usize..LABELS.len(), arb_group()), 0..5),
        proptest::collection::vec((0u64..2_000, arb_est()), 0..5),
        0u64..1_000_000_000,
    )
        .prop_map(|(counts, rates, pooled, groups, gaps, events)| {
            let (fwd_rates, rev_rates, sketch_vals) = rates;
            let mut fwd_sketch = QuantileSketch::new();
            for v in &sketch_vals {
                fwd_sketch.push(*v);
            }
            let mut by_technique = BTreeMap::new();
            let mut by_personality = BTreeMap::new();
            let mut by_mechanism = BTreeMap::new();
            for (i, (slot, group)) in groups.into_iter().enumerate() {
                let label = LABELS[slot];
                match i % 3 {
                    0 => by_technique.insert(label, group),
                    1 => by_personality.insert(label, group),
                    _ => by_mechanism.insert(label, group),
                };
            }
            // `render` computes `hosts - reachable`, so keep the
            // generated state semantically valid: hosts bounds every
            // other counter.
            let hosts = counts.iter().copied().max().unwrap_or(0);
            let summary = CampaignSummary {
                hosts,
                reachable: counts[1],
                amenable: counts[2],
                constant_zero: counts[3],
                non_monotonic: counts[4],
                probe_failed: counts[5],
                reordering_hosts: counts[6],
                fwd_rates,
                rev_rates,
                fwd_pooled: pooled.0,
                rev_pooled: pooled.1,
                baseline_pooled: pooled.2,
                fwd_sketch,
                by_technique,
                by_personality,
                by_mechanism,
                failed: counts[5].min(hosts),
                degraded: counts[4].min(hosts - counts[5].min(hosts)),
                failure_rounds: counts[3],
                failure_taxonomy: BTreeMap::new(),
                gap_profile: gaps.into_iter().collect(),
            };
            ShardAggregator { summary, events }
        })
}

/// `shard` with a two-class failure taxonomy, so the strictness law
/// also covers `FailureAgg`'s nested label maps.
fn with_failures(mut shard: ShardAggregator, n: u64) -> ShardAggregator {
    for (class, failed) in [("refused", n), ("unreachable", n / 3)] {
        let agg = FailureAgg {
            hosts: failed + 2,
            failed,
            degraded: 2,
            by_mechanism: [("striping", failed), ("multipath", 2)]
                .into_iter()
                .collect(),
            by_personality: [("linux", failed + 2)].into_iter().collect(),
        };
        shard.summary.failure_taxonomy.insert(class, agg);
    }
    shard
}

fn arb_spec() -> impl Strategy<Value = CampaignSpec> {
    (
        (0usize..1_000_000, any::<u64>(), 0usize..6, 1usize..64),
        proptest::collection::vec(0u64..5_000, 0..4),
        (any::<bool>(), any::<bool>(), 0u32..1_000_000),
    )
        .prop_map(
            |((hosts, seed, kind, shards), gaps_us, (baseline, jsonl, chaos_ppm))| CampaignSpec {
                hosts,
                seed,
                technique: match TestKind::all().get(kind) {
                    Some(&k) => TechniqueChoice::Fixed(k),
                    None => TechniqueChoice::Auto,
                },
                baseline,
                gaps_us,
                chaos_ppm,
                shards,
                jsonl,
                ..CampaignSpec::default()
            },
        )
}

/// Seeded single-byte mutations: `(position, replacement)` pairs. The
/// replacement is ASCII, so the mutated document stays a `&str`.
fn arb_mutations() -> impl Strategy<Value = Vec<(usize, u8)>> {
    proptest::collection::vec((any::<usize>(), 0u8..128), 48)
}

/// The strictness law for one decoder: every proper prefix of `doc`
/// and every mutation of it decodes to `Err` or to a value whose
/// encoding is exactly the input. `roundtrip` decodes and re-encodes.
fn assert_strict(
    doc: &str,
    mutations: &[(usize, u8)],
    roundtrip: impl Fn(&str) -> Result<String, String>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        roundtrip(doc).as_deref(),
        Ok(doc),
        "sanity: the valid document"
    );
    for end in 0..doc.len() {
        let prefix = &doc[..end];
        prop_assert!(roundtrip(prefix).is_err(), "prefix accepted: {}", prefix);
    }
    for &(pos, byte) in mutations {
        let mut bytes = doc.as_bytes().to_vec();
        let i = pos % bytes.len();
        if bytes[i] == byte {
            continue;
        }
        bytes[i] = byte;
        let mutated = String::from_utf8(bytes).expect("ascii stays utf8");
        if let Ok(again) = roundtrip(&mutated) {
            prop_assert_eq!(
                again,
                mutated,
                "mutation at byte {} changed on re-encode",
                i
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Truncated or mutated state documents never panic a decoder and
    /// never decode to a value that encodes differently.
    #[test]
    fn decoders_reject_or_reproduce_every_mutation(
        shard in arb_shard(),
        failures in 0u64..1_000,
        ops in arb_ops(30),
        spec in arb_spec(),
        sketch_vals in proptest::collection::vec(-2.0f64..2.0, 0..12),
        mutations in arb_mutations(),
    ) {
        let mut sketch = QuantileSketch::new();
        for v in sketch_vals {
            sketch.push(v);
        }
        sketch.push(0.0);
        sketch.push(f64::NAN);
        let shard = with_failures(shard, failures);
        let tel = apply(&ops);
        assert_strict(&shard.summary.fwd_rates.to_json(), &mutations, |s| {
            Moments::from_json(s).map(|v| v.to_json())
        })?;
        assert_strict(&sketch.to_json(), &mutations, |s| {
            QuantileSketch::from_json(s).map(|v| v.to_json())
        })?;
        assert_strict(&tel.state_json(), &mutations, |s| {
            WorkerTelemetry::from_state_json(s).map(|v| v.state_json())
        })?;
        assert_strict(&shard.to_json(), &mutations, |s| {
            ShardAggregator::from_json(s).map(|v| v.to_json())
        })?;
        assert_strict(&spec.to_json(), &mutations, |s| {
            CampaignSpec::from_json(s).map(|v| v.to_json())
        })?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A restored `ShardAggregator` is indistinguishable from the one
    /// that was saved: identical JSON, identical rendered report, and
    /// — the property resume actually relies on — merging restored
    /// states produces the same bits as merging the originals.
    #[test]
    fn shard_aggregator_round_trips_exactly(a in arb_shard(), b in arb_shard()) {
        let ra = ShardAggregator::from_json(&a.to_json()).expect("round trip a");
        let rb = ShardAggregator::from_json(&b.to_json()).expect("round trip b");
        prop_assert_eq!(ra.to_json(), a.to_json());
        prop_assert_eq!(ra.summary.render(), a.summary.render());

        let mut originals = ShardAggregator::default();
        originals.merge(&a);
        originals.merge(&b);
        let mut restored = ShardAggregator::default();
        restored.merge(&ra);
        restored.merge(&rb);
        prop_assert_eq!(restored.to_json(), originals.to_json());
        prop_assert_eq!(restored.summary.render(), originals.summary.render());
    }

    /// `WorkerTelemetry` checkpoint state is exact: restored equals the
    /// original on the full state (`Eq`, not a rendered view), and
    /// merging restored shards equals merging the live ones.
    #[test]
    fn telemetry_checkpoint_round_trips_exactly(ops in arb_ops(60), cut in 0usize..60) {
        let whole = apply(&ops);
        let restored = WorkerTelemetry::from_state_json(&whole.state_json())
            .expect("round trip");
        prop_assert_eq!(&restored, &whole);

        let cut = cut.min(ops.len());
        let (a, b) = (apply(&ops[..cut]), apply(&ops[cut..]));
        let ra = WorkerTelemetry::from_state_json(&a.state_json()).expect("shard a");
        let rb = WorkerTelemetry::from_state_json(&b.state_json()).expect("shard b");
        let mut merged_restored = ra.clone();
        merged_restored.merge(&rb);
        prop_assert_eq!(&merged_restored, &whole, "restored shards must merge to the serial build");
    }

    /// Corruption detection: flip any single bit of any byte of a
    /// sealed checkpoint and the load must fail — whether the flip
    /// lands in the payload, the schema tag, or the hash itself.
    #[test]
    fn any_flipped_bit_is_rejected(
        shard in arb_shard(),
        ops in arb_ops(20),
        pos in 0usize..100_000,
        bit in 0u32..6,
    ) {
        let mut ckpt = Checkpoint::new(CampaignSpec { shards: 3, ..CampaignSpec::default() });
        ckpt.completed.insert(2);
        ckpt.agg = shard;
        ckpt.telemetry = apply(&ops);
        ckpt.steals = 17;
        let good = ckpt.to_json();
        prop_assert!(Checkpoint::from_json(&good).is_ok(), "sanity: untouched doc loads");

        let mut bytes = good.clone().into_bytes();
        let i = pos % bytes.len();
        // Documents are ASCII, so flipping a low bit keeps the string
        // valid UTF-8 while guaranteeing the byte actually changed.
        bytes[i] ^= 1 << bit;
        let corrupt = String::from_utf8(bytes).expect("ascii stays utf8");
        prop_assert!(corrupt != good, "flip must change the document");
        prop_assert!(
            Checkpoint::from_json(&corrupt).is_err(),
            "flipped bit at byte {} must be rejected",
            i
        );
        prop_assert!(unseal(&corrupt).is_err() || Checkpoint::from_json(&corrupt).is_err());
    }
}
