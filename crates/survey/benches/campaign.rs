//! The connection-reuse ablation. perfbench is the record of campaign
//! throughput; this pair measures the one user-facing mode it does not:
//! `--no-reuse`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use reorder_survey::{run_campaign, CampaignConfig, TechniqueChoice};

fn bench_campaign(c: &mut Criterion) {
    let hosts = 32usize;
    let mut g = c.benchmark_group("campaign");
    g.sample_size(10);
    g.throughput(Throughput::Elements(hosts as u64));

    // The same campaign with the per-host session fast path on (one
    // scenario, shared handshakes, one IPID validation) vs. off (the
    // per-phase protocol). The full pipeline — amenability +
    // measurement + transfer baseline — is where reuse pays; `reuse_on`
    // should come in well under `reuse_off` per host.
    for (label, reuse) in [("reuse_on", true), ("reuse_off", false)] {
        g.bench_function(BenchmarkId::new("full_pipeline_32_hosts", label), |b| {
            b.iter(|| {
                let cfg = CampaignConfig {
                    hosts,
                    workers: 1,
                    seed: 0xBE,
                    samples: 8,
                    technique: TechniqueChoice::Auto,
                    baseline: true,
                    reuse,
                    ..CampaignConfig::default()
                };
                black_box(run_campaign(&cfg, None::<&mut Vec<u8>>).unwrap())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_campaign);
criterion_main!(benches);
