//! E6 — §IV-B host amenability to the Dual Connection Test.
//!
//! "Not all tests were able to work with all hosts. In particular, the
//! dual connection test was ruled out due to non-monotonic IPID
//! behavior from 8 hosts (likely due to transparent load balancers) and
//! a constant IPID value of 0 from another 9 hosts (likely running
//! Linux 2.4)."
//!
//! Runs through the `reorder-survey` campaign engine in
//! amenability-only mode: the population generator draws the hosts,
//! the work-stealing pool fans the probes out, and the streaming
//! aggregator tallies the verdicts. `REORDER_SCALE=quick|std|full`
//! trades population size for time.

use reorder_bench::{rule, Scale};
use reorder_core::techniques::IpidVerdict;
use reorder_survey::{run_campaign_with, CampaignConfig, HostReport};
use reorder_tcpstack::IpidScheme;

fn main() {
    let scale = Scale::from_env();
    let cfg = CampaignConfig {
        hosts: scale.pick(2000, 50, 12),
        seed: 0xF165,
        amenability_only: true,
        ..CampaignConfig::default()
    };
    println!("E6: dual-connection-test amenability across the population (§IV-B)");
    rule(84);

    let mut reports: Vec<HostReport> = Vec::new();
    let out = run_campaign_with(
        &cfg,
        |r, chunk: &mut Vec<HostReport>| chunk.push(r),
        |chunk| {
            reports.extend(chunk);
            Ok(())
        },
    )
    .expect("infallible emit");

    // Per-host table at survey scale; at campaign scale show the head.
    let shown = reports.len().min(50);
    println!(
        "{:<26} {:<14} {:>9} {:<26}",
        "host", "ipid scheme", "backends", "validator verdict"
    );
    rule(84);
    for r in &reports[..shown] {
        let scheme = match r.spec.personality.ipid {
            IpidScheme::GlobalCounter { .. } => "global",
            IpidScheme::GlobalCounterByteSwapped => "global-bswap",
            IpidScheme::PerDestination { .. } => "per-dest",
            IpidScheme::Random => "random",
            IpidScheme::ConstantZero => "zero",
        };
        let v = r.verdict.map_or("probe-failed", IpidVerdict::label);
        println!(
            "{:<26} {:<14} {:>9} {:<26}",
            r.spec.name, scheme, r.spec.backends, v
        );
    }
    if shown < reports.len() {
        println!("... ({} more hosts)", reports.len() - shown);
    }
    rule(84);
    let s = &out.summary;
    println!("amenable:            {}", s.amenable);
    println!(
        "constant IPID zero:  {}    (paper: 9 hosts, \"likely Linux 2.4\")",
        s.constant_zero
    );
    println!(
        "non-monotonic:       {}    (paper: 8 hosts, \"likely load balancers\")",
        s.non_monotonic
    );
    println!("probe failed:        {}", s.probe_failed);

    // Cross-check the verdicts against the ground-truth host configs.
    let mut correct = 0;
    let mut checked = 0;
    for r in &reports {
        let Some(v) = r.verdict else { continue };
        checked += 1;
        let expected = match (r.spec.personality.ipid, r.spec.backends) {
            (IpidScheme::ConstantZero, _) => IpidVerdict::ConstantZero,
            (IpidScheme::Random, _) => IpidVerdict::NonMonotonic,
            // A balanced site *may* pass if both connections hash to
            // one backend; count either verdict as defensible.
            (_, b) if b > 1 => v,
            _ => IpidVerdict::Amenable,
        };
        if v == expected {
            correct += 1;
        }
    }
    println!("verdicts consistent with ground-truth host configs: {correct}/{checked}");
}
