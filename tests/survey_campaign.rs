//! End-to-end campaign test through the facade: the engine's verdicts
//! and estimates must line up with the generated ground truth, across
//! every layer (population → scheduler → pipeline → aggregation).

use reorder::core::techniques::{IpidVerdict, TestKind};
use reorder::survey::{
    run_campaign_with, shard_bounds, CampaignConfig, CampaignOutcome, HostReport, TechniqueChoice,
};

/// Run a campaign, collecting every host's report in host-id order.
fn run_with_reports(cfg: &CampaignConfig) -> (Vec<HostReport>, CampaignOutcome) {
    let mut reports = Vec::new();
    let out = run_campaign_with(
        cfg,
        |r, chunk: &mut Vec<HostReport>| chunk.push(r),
        |chunk| {
            reports.extend(chunk);
            Ok(())
        },
    )
    .expect("infallible emit");
    (reports, out)
}
use reorder::tcpstack::IpidScheme;

#[test]
fn campaign_verdicts_track_ground_truth() {
    let cfg = CampaignConfig {
        hosts: 60,
        workers: 2,
        seed: 0xCAFE,
        samples: 6,
        baseline: false,
        ..CampaignConfig::default()
    };
    let (reports, out) = run_with_reports(&cfg);
    assert_eq!(reports.len(), 60);
    assert_eq!(out.summary.hosts, 60);

    // Ground truth drives the amenability verdict for the clear-cut
    // IPID schemes (unbalanced hosts, successful probes).
    let mut checked = 0;
    for r in &reports {
        let Some(v) = r.verdict else { continue };
        if r.spec.backends > 1 {
            continue; // either verdict defensible (Fig. 3)
        }
        match r.spec.personality.ipid {
            IpidScheme::ConstantZero => {
                assert_eq!(v, IpidVerdict::ConstantZero, "{}", r.spec.name);
                checked += 1;
            }
            IpidScheme::Random => {
                assert_eq!(v, IpidVerdict::NonMonotonic, "{}", r.spec.name);
                checked += 1;
            }
            _ => {}
        }
    }
    assert!(
        checked > 0,
        "population must include zero/random IPID hosts"
    );

    // Auto-selection: amenable hosts measured by dual, the rest by syn
    // (or nothing, if every round failed).
    for r in &reports {
        match (r.verdict, r.technique) {
            (Some(IpidVerdict::Amenable), t) => assert!(t == "dual" || t == "syn" || t == "none"),
            (_, t) => assert!(t == "syn" || t == "none", "{}: {t}", r.spec.name),
        }
    }

    // Pooled totals are exactly the sum of per-host counts.
    let fwd_reordered: usize = reports.iter().map(|r| r.fwd.reordered).sum();
    let fwd_total: usize = reports.iter().map(|r| r.fwd.total).sum();
    assert_eq!(out.summary.fwd_pooled.reordered, fwd_reordered);
    assert_eq!(out.summary.fwd_pooled.total, fwd_total);
}

#[test]
fn forced_technique_applies_to_every_host() {
    let cfg = CampaignConfig {
        hosts: 10,
        workers: 2,
        seed: 3,
        samples: 5,
        technique: TechniqueChoice::Fixed(TestKind::Syn),
        baseline: false,
        ..CampaignConfig::default()
    };
    let (reports, _) = run_with_reports(&cfg);
    assert!(reports
        .iter()
        .all(|r| r.technique == "syn" || r.technique == "none"));
}

/// The façade-level `--shard` contract: per-host reports of a sharded
/// campaign are exactly the same slice of the unsharded campaign's
/// reports (ids, verdicts, estimates — not just line counts).
#[test]
fn sharded_reports_are_a_slice_of_the_whole() {
    let cfg = |shard| CampaignConfig {
        hosts: 24,
        workers: 2,
        seed: 0xD0,
        samples: 4,
        baseline: false,
        shard,
        ..CampaignConfig::default()
    };
    let (whole, _) = run_with_reports(&cfg(None));
    for k in 1..=3 {
        let (part, _) = run_with_reports(&cfg(Some((k, 3))));
        let (lo, hi) = shard_bounds(24, k, 3);
        assert_eq!(part.len(), hi - lo);
        for (r, w) in part.iter().zip(&whole[lo..hi]) {
            assert_eq!(r.id, w.id);
            assert_eq!(r.verdict, w.verdict);
            assert_eq!(r.technique, w.technique);
            assert_eq!(r.fwd, w.fwd);
            assert_eq!(r.rev, w.rev);
        }
    }
}
