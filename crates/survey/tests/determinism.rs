//! The campaign engine's headline guarantee: a campaign's output is a
//! pure function of its config — the worker count changes wall-clock
//! time, never a byte of the report.

use reorder_core::scenario::ScenarioPool;
use reorder_netsim::rng::derive_seed;
use reorder_survey::pipeline::survey_host_traced;
use reorder_survey::report::jsonl_line;
use reorder_survey::{
    run_campaign, shard_bounds, CampaignConfig, CampaignOutcome, HostJob, ShardAggregator,
    TechniqueChoice, TelemetryMode, WorkerTelemetry,
};

fn campaign_jsonl(hosts: usize, workers: usize, seed: u64) -> (Vec<u8>, String) {
    let cfg = CampaignConfig {
        hosts,
        workers,
        seed,
        samples: 4,
        technique: TechniqueChoice::Auto,
        baseline: true,
        ..CampaignConfig::default()
    };
    let mut buf = Vec::new();
    let out = run_campaign(&cfg, Some(&mut buf)).expect("in-memory sink");
    assert_eq!(buf.iter().filter(|&&b| b == b'\n').count(), hosts);
    (buf, out.summary.render())
}

/// A campaign's JSONL bytes and rendered summary.
fn campaign_output(cfg: &CampaignConfig) -> (Vec<u8>, String) {
    let mut buf = Vec::new();
    let out = run_campaign(cfg, Some(&mut buf)).expect("in-memory sink");
    (buf, out.summary.render())
}

/// The fresh-construction reference for `cfg`: its hosts surveyed one
/// at a time, in id order, through the public per-host pipeline on a
/// [`ScenarioPool::disabled`] (a new simulator for every scenario),
/// with the engine's per-host seed derivation. Campaign workers always
/// recycle their simulators, so this is what a campaign's JSONL bytes
/// and summary must equal.
fn fresh_reference(cfg: &CampaignConfig) -> (Vec<u8>, String) {
    let job = HostJob {
        samples: cfg.samples.max(1),
        rounds: cfg.rounds.max(1),
        technique: cfg.technique,
        baseline: cfg.baseline,
        amenability_only: cfg.amenability_only,
        gaps_us: cfg.gaps_us.clone(),
        reuse: cfg.reuse,
        telemetry: cfg.telemetry,
        budget: cfg.budget,
    };
    let (lo, hi) = match cfg.shard {
        Some((k, n)) => shard_bounds(cfg.hosts, k, n),
        None => (0, cfg.hosts),
    };
    let mut pool = ScenarioPool::disabled();
    let mut jsonl = Vec::new();
    let mut agg = ShardAggregator::default();
    for id in lo as u64..hi as u64 {
        let spec = cfg.model.host(id, cfg.seed);
        let host_seed = derive_seed(cfg.seed, &format!("survey.run.{id}"));
        let report = survey_host_traced(
            id,
            &spec,
            host_seed,
            &job,
            &mut pool,
            &mut WorkerTelemetry::new(),
        );
        agg.absorb(&report);
        jsonl.extend_from_slice(jsonl_line(&report).as_bytes());
        jsonl.push(b'\n');
    }
    (jsonl, agg.summary.render())
}

/// A 200-host campaign with `--workers 8` produces a byte-identical
/// JSONL report (and summary) to `--workers 1` under the same master
/// seed — as do 2, 3 and 7 workers, whose 16-, 16- and 7-host chunks
/// leave 8-, 8- and 4-host tails.
#[test]
fn workers_8_matches_workers_1_byte_for_byte() {
    let (serial, serial_summary) = campaign_jsonl(200, 1, 1);
    for workers in [2, 3, 7, 8] {
        let (parallel, parallel_summary) = campaign_jsonl(200, workers, 1);
        assert!(
            serial == parallel,
            "JSONL reports differ between 1 and {workers} workers"
        );
        assert_eq!(serial_summary, parallel_summary, "{workers} workers");
    }
}

/// Reruns with the same seed are identical; a different seed is not.
#[test]
fn seed_controls_the_report() {
    let (a, _) = campaign_jsonl(40, 3, 9);
    let (b, _) = campaign_jsonl(40, 3, 9);
    let (c, _) = campaign_jsonl(40, 3, 10);
    assert_eq!(a, b);
    assert_ne!(a, c);
}

/// The `--shard K/N` contract: concatenating the JSONL outputs of
/// shards 1..=N (in shard order) is byte-identical to the unsharded
/// campaign — N processes can split one master seed's id space and
/// `cat` their reports back together.
#[test]
fn concatenated_shards_equal_the_unsharded_report() {
    let run = |shard: Option<(usize, usize)>| -> Vec<u8> {
        let cfg = CampaignConfig {
            hosts: 31, // deliberately not divisible by the shard count
            workers: 2,
            seed: 5,
            samples: 3,
            technique: TechniqueChoice::Auto,
            baseline: false,
            shard,
            ..CampaignConfig::default()
        };
        let mut buf = Vec::new();
        run_campaign(&cfg, Some(&mut buf)).expect("in-memory sink");
        buf
    };
    let whole = run(None);
    let mut stitched = Vec::new();
    for k in 1..=4 {
        stitched.extend(run(Some((k, 4))));
    }
    assert_eq!(
        whole, stitched,
        "shard concatenation must reproduce the unsharded JSONL byte-for-byte"
    );
    // A single shard covering everything is also the whole report.
    assert_eq!(whole, run(Some((1, 1))));
}

/// Connection reuse is a per-host speed path: it must not break the
/// worker-count determinism guarantee, and reuse-off output must also
/// be deterministic.
#[test]
fn reuse_off_is_deterministic_across_workers_too() {
    let run = |workers: usize| -> Vec<u8> {
        let cfg = CampaignConfig {
            hosts: 40,
            workers,
            seed: 3,
            samples: 4,
            reuse: false,
            ..CampaignConfig::default()
        };
        let mut buf = Vec::new();
        run_campaign(&cfg, Some(&mut buf)).expect("in-memory sink");
        buf
    };
    assert_eq!(run(1), run(6));
}

/// The simulator pool only recycles allocations: a campaign on pooled
/// (reset) simulators is byte-identical to fresh construction, across
/// worker counts and shard splits — `Simulator::reset`'s contract,
/// asserted end to end.
#[test]
fn pooled_and_fresh_construction_are_byte_identical() {
    let cfg = |workers: usize, shard: Option<(usize, usize)>| CampaignConfig {
        hosts: 60,
        workers,
        seed: 12,
        samples: 4,
        shard,
        ..CampaignConfig::default()
    };
    let fresh = fresh_reference(&cfg(1, None));
    // Serial: every host after the worker's first rides a reset
    // simulator.
    assert_eq!(
        campaign_output(&cfg(1, None)),
        fresh,
        "pooled vs fresh (1 worker)"
    );
    // Parallel: each worker recycles its own pool.
    assert_eq!(
        campaign_output(&cfg(4, None)),
        fresh,
        "pooled vs fresh (4 workers)"
    );
    // Sharded: concatenated pooled shards equal the fresh whole, and
    // each shard equals its own fresh reference.
    let mut stitched = Vec::new();
    for k in 1..=3 {
        let shard = cfg(2, Some((k, 3)));
        let pooled = campaign_output(&shard);
        assert_eq!(
            pooled,
            fresh_reference(&shard),
            "pooled vs fresh (shard {k}/3)"
        );
        stitched.extend(pooled.0);
    }
    assert_eq!(stitched, fresh.0, "pooled shards vs fresh whole");
}

/// The campaign format's determinism contract, on a striping-heavy
/// population so the stationary cross-traffic draws are exercised:
/// the report is byte-identical across worker counts, shard splits
/// and simulator pooling.
#[test]
fn each_sim_version_is_deterministic_across_workers_shards_and_pool() {
    let cfg = |workers: usize, shard: Option<(usize, usize)>| CampaignConfig {
        hosts: 48,
        workers,
        seed: 14,
        samples: 4,
        shard,
        ..CampaignConfig::default()
    };
    let run = |workers: usize, shard: Option<(usize, usize)>| campaign_output(&cfg(workers, shard));
    let (whole, summary) = run(1, None);
    // The seed must draw striping hosts, or the check proves nothing
    // about the cross-traffic model.
    assert!(
        String::from_utf8_lossy(&whole).contains("\"mechanism\":\"striping\""),
        "seed 14 must draw at least one striping host"
    );
    // Workers must not change a byte.
    assert_eq!(run(6, None), (whole.clone(), summary.clone()));
    // Pooling must not change a byte.
    assert_eq!(
        fresh_reference(&cfg(2, None)),
        (whole.clone(), summary),
        "pool"
    );
    // Concatenated shards must reproduce the whole report.
    let mut stitched = Vec::new();
    for k in 1..=3 {
        stitched.extend(run(2, Some((k, 3))).0);
    }
    assert_eq!(stitched, whole, "shards");
}

/// FNV-1a 64 over a byte stream — the pinned-golden fingerprint.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The JSONL bytes of the pinned reference config (40 hosts, 2
/// workers, seed 1, stationary cross-traffic draws).
const PINNED_JSONL_FNV1A: u64 = 0x5834_53a5_b0b1_1bf7;
/// The rendered summary bytes of the same reference config.
const PINNED_SUMMARY_FNV1A: u64 = 0xc36a_7952_5db8_fd2c;

/// Run the pinned reference config and hash its JSONL and summary.
fn pinned_reference(telemetry: TelemetryMode) -> (u64, u64, CampaignOutcome) {
    let cfg = CampaignConfig {
        hosts: 40,
        workers: 2,
        seed: 1,
        telemetry,
        ..CampaignConfig::default()
    };
    let mut buf = Vec::new();
    let out = run_campaign(&cfg, Some(&mut buf)).expect("in-memory sink");
    (fnv1a64(&buf), fnv1a64(out.summary.render().as_bytes()), out)
}

/// The pinned smoke: the campaign format's bytes for a reference
/// config are pinned by hash, not merely compared run-to-run. The
/// JSONL pin dates from the hostile-host landing (every line gained an
/// `"outcome"` field, a declared break); the summary pin was captured
/// when campaign format v1 was retired, from the build before it.
/// Re-bless deliberately, never casually: these constants are what
/// makes a report from one build comparable to another's.
#[test]
fn pinned_v2_smoke_reproduces_historical_bytes() {
    let (jsonl, summary, _) = pinned_reference(TelemetryMode::Off);
    assert_eq!(
        jsonl, PINNED_JSONL_FNV1A,
        "JSONL bytes moved — if this is an intended declared break, \
         re-bless the pinned hash"
    );
    assert_eq!(
        summary, PINNED_SUMMARY_FNV1A,
        "summary bytes moved — if this is an intended declared break, \
         re-bless the pinned hash"
    );
}

/// The summary never passes through the in-order hand-off: each
/// worker folds its own `ShardAggregator` and the shards merge at the
/// end. It must render the same as the fresh-construction reference's
/// one in-order fold, with a sink attached or not, for every worker
/// count: summary state is a commutative monoid, so the
/// nondeterministic work-stealing partition cannot leak into the
/// output, and recycled simulators cannot either.
#[test]
fn funnel_free_summary_matches_ordered_path_across_workers() {
    let cfg = |workers: usize| CampaignConfig {
        hosts: 48,
        workers,
        seed: 14,
        samples: 4,
        ..CampaignConfig::default()
    };
    let run = |workers: usize, sink: bool| -> String {
        let out = if sink {
            run_campaign(&cfg(workers), Some(&mut Vec::new())).expect("in-memory sink")
        } else {
            run_campaign(&cfg(workers), None::<&mut Vec<u8>>).expect("no sink")
        };
        assert_eq!(out.summary.hosts, 48);
        out.summary.render()
    };
    let (_, reference) = fresh_reference(&cfg(1));
    for workers in [1, 2, 8] {
        for sink in [true, false] {
            assert_eq!(
                run(workers, sink),
                reference,
                "summary diverged (workers {workers}, sink {sink})"
            );
        }
    }
}

/// Shard campaigns merge: running K/N shards separately and folding
/// their summaries through `CampaignSummary::merge` reproduces the
/// unsharded summary — the associative-merge contract at the process
/// level (N machines can split a campaign and combine summaries).
#[test]
fn merged_shard_summaries_equal_the_unsharded_summary() {
    let run = |shard: Option<(usize, usize)>| {
        let cfg = CampaignConfig {
            hosts: 31,
            workers: 2,
            seed: 5,
            samples: 3,
            shard,
            ..CampaignConfig::default()
        };
        run_campaign(&cfg, None::<&mut Vec<u8>>)
            .expect("no sink")
            .summary
    };
    let whole = run(None);
    // Fold shards out of order — merge is commutative, not just
    // associative.
    let mut merged = run(Some((3, 4)));
    for k in [1, 4, 2] {
        merged.merge(&run(Some((k, 4))));
    }
    assert_eq!(merged.render(), whole.render());
    assert_eq!(merged.hosts, whole.hosts);
}

/// Telemetry observes, never participates: the pinned reference
/// bytes must not move under `Full` instrumentation — the strongest
/// form of the "`--metrics` changes no output byte" contract, checked
/// against the pinned hashes rather than a sibling run.
#[test]
fn full_telemetry_reproduces_the_pinned_bytes() {
    let (jsonl, summary, out) = pinned_reference(TelemetryMode::Full);
    assert_eq!(
        (jsonl, summary),
        (PINNED_JSONL_FNV1A, PINNED_SUMMARY_FNV1A),
        "telemetry must not change a byte of the report"
    );
    // And it did actually record: every host leaves a span.
    assert_eq!(
        out.telemetry.merged().span_stats("host").map(|s| s.count()),
        Some(40)
    );
}

/// The reuse-off (per-phase scenario) protocol builds many scenarios
/// per host — the pool's busiest recycling pattern must be inert too.
#[test]
fn pooled_matches_fresh_under_reuse_off() {
    let cfg = CampaignConfig {
        hosts: 24,
        workers: 2,
        seed: 8,
        samples: 3,
        reuse: false,
        ..CampaignConfig::default()
    };
    assert_eq!(campaign_output(&cfg), fresh_reference(&cfg));
}

/// The JSONL bytes of the pinned gap-sweep config (200 hosts, seed 1,
/// three rounds, gaps 0/100/300 µs), captured from the build before
/// packets bound for the prober began to cut through the path stages.
const PINNED_GAP_SWEEP_JSONL_FNV1A: u64 = 0x52d2_3048_dfce_828b;
/// The rendered summary bytes of the same gap-sweep config.
const PINNED_GAP_SWEEP_SUMMARY_FNV1A: u64 = 0xef94_a827_1973_cf79;

/// A second pin, on the configuration most sensitive to same-instant
/// event order: repeated rounds and a gap sweep send bursts whose
/// packets meet retransmissions at the wireless-ARQ hosts in the same
/// nanosecond, so any change to how ties toward those hosts break
/// shows up here even when the default pin holds.
#[test]
fn pinned_gap_sweep_reproduces_historical_bytes() {
    let cfg = CampaignConfig {
        hosts: 200,
        workers: 2,
        seed: 1,
        rounds: 3,
        gaps_us: vec![0, 100, 300],
        ..CampaignConfig::default()
    };
    let mut buf = Vec::new();
    let out = run_campaign(&cfg, Some(&mut buf)).expect("in-memory sink");
    assert!(
        String::from_utf8_lossy(&buf).contains("\"mechanism\":\"arq\""),
        "seed 1 must draw at least one wireless-ARQ host"
    );
    assert_eq!(
        (fnv1a64(&buf), fnv1a64(out.summary.render().as_bytes())),
        (PINNED_GAP_SWEEP_JSONL_FNV1A, PINNED_GAP_SWEEP_SUMMARY_FNV1A),
        "gap-sweep bytes moved — if this is an intended declared break, \
         re-bless the pinned hashes"
    );
}
