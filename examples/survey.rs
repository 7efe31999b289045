//! Survey a population of simulated Internet hosts, the way §IV-B
//! surveyed 50 real ones — now through the `reorder-survey` campaign
//! engine: the population generator draws the hosts, a work-stealing
//! pool fans them out across cores, the pipeline IPID-validates each
//! host and picks the right technique (dual where amenable, SYN
//! fallback, transfer baseline), and the streaming aggregator renders
//! the campaign summary.
//!
//! ```sh
//! cargo run --release --example survey -- [hosts] [workers]
//! ```

use reorder::survey::{run_campaign_with, CampaignConfig, HostReport};

fn main() {
    let mut args = std::env::args().skip(1);
    let hosts: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12);
    let workers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(0);

    let cfg = CampaignConfig {
        hosts,
        workers,
        seed: 77,
        samples: 15,
        ..CampaignConfig::default()
    };
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

    println!(
        "{:<22} {:<12} {:<13} {:>9} {:>9} {:>9} {:>9}",
        "host", "personality", "verdict", "technique", "fwd", "rev", "baseline"
    );
    println!("{}", "-".repeat(91));
    for r in &reports {
        let show = |e: reorder::core::metrics::ReorderEstimate| {
            if e.total == 0 {
                format!("{:>9}", "-")
            } else {
                format!("{:>8.1}%", e.rate() * 100.0)
            }
        };
        println!(
            "{:<22} {:<12} {:<13} {:>9} {} {} {}",
            r.spec.name,
            r.spec.personality.name,
            r.verdict.map_or("probe-failed", |v| v.label()),
            r.technique,
            show(r.fwd),
            show(r.rev),
            show(r.baseline_rev.unwrap_or_default()),
        );
    }
    println!();
    print!("{}", out.summary.render());
    println!(
        "('non-monotonic' = IPID validation rejected the host — random IPIDs or a \
         load balancer — so the SYN test measured it instead.)"
    );
    // Scheduler counters vary run to run; keep stdout byte-identical.
    eprintln!(
        "campaign: {} worker(s), {} steal(s)",
        out.stats.workers, out.stats.steals
    );
}
