//! Criterion benches for the campaign aggregation and telemetry
//! primitives. The wire, checksum, event-engine and pipe costs are
//! perfbench probes (`perfbench/`), recorded with run health, so they
//! are not timed here.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use reorder_core::stats::QuantileSketch;

/// The aggregation primitive behind every per-host rate the campaign
/// absorbs: the mergeable quantile sketch, its push and its shard-merge
/// cost, the one step the funnel-free path added.
fn bench_stats(c: &mut Criterion) {
    // A deterministic rate stream shaped like campaign output: mostly
    // small positive rates, some exact zeros.
    let rates: Vec<f64> = (0..4096u32)
        .map(|i| {
            if i % 7 == 0 {
                0.0
            } else {
                f64::from(i % 997) / 997.0
            }
        })
        .collect();
    let mut g = c.benchmark_group("stats");
    g.throughput(Throughput::Elements(rates.len() as u64));
    g.bench_function("sketch_push_4096", |b| {
        b.iter(|| {
            let mut s = QuantileSketch::new();
            for &r in &rates {
                s.push(black_box(r));
            }
            black_box(s.count())
        })
    });
    let (mut left, mut right) = (QuantileSketch::new(), QuantileSketch::new());
    for (i, &r) in rates.iter().enumerate() {
        if i % 2 == 0 {
            left.push(r);
        } else {
            right.push(r);
        }
    }
    g.bench_function("sketch_merge", |b| {
        b.iter(|| {
            let mut s = left.clone();
            s.merge(black_box(&right));
            black_box(s.count())
        })
    });
    g.finish();
}

/// The telemetry primitives on the campaign hot path: counter bumps,
/// the span enter/exit pair per mode (Off must be branch-cheap — it
/// never reads the clock), and the per-worker state merge the metrics
/// document folds at campaign end.
fn bench_telemetry(c: &mut Criterion) {
    use reorder_core::telemetry::{TelemetryMode, WorkerTelemetry};

    let mut g = c.benchmark_group("telemetry");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("counter_bump_1024", |b| {
        b.iter(|| {
            let mut tel = WorkerTelemetry::new();
            for i in 0..1024u64 {
                tel.count("netsim.events", black_box(i & 7));
            }
            black_box(tel.counter("netsim.events"))
        })
    });
    for mode in [
        TelemetryMode::Off,
        TelemetryMode::Summary,
        TelemetryMode::Full,
    ] {
        g.bench_function(format!("span_enter_exit_1024_{mode}"), |b| {
            b.iter(|| {
                let mut tel = WorkerTelemetry::new();
                for _ in 0..1024 {
                    let sw = black_box(mode).start();
                    tel.span("host", mode, sw);
                }
                black_box(tel.span_stats("host").map(|s| s.count()))
            })
        });
    }
    // Merge two workers' worth of a realistic campaign shape: a few
    // counters, a few spans with thousands of observations each.
    let worker = |salt: u64| {
        let mut tel = WorkerTelemetry::new();
        tel.count("netsim.events", 1_000_000 + salt);
        tel.count("pool.hits", 5_000 + salt);
        tel.count("sched.tasks", 5_000 + salt);
        for key in ["host", "measure", "baseline", "amenability"] {
            for i in 0..4096u64 {
                let secs = 1e-4 + (((i ^ salt) % 997) as f64) * 1e-6;
                tel.record_span(key, TelemetryMode::Full, secs);
            }
        }
        tel
    };
    let (left, right) = (worker(1), worker(2));
    g.bench_function("worker_merge", |b| {
        b.iter(|| {
            let mut tel = left.clone();
            tel.merge(black_box(&right));
            black_box(tel.counter("netsim.events"))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_stats, bench_telemetry);
criterion_main!(benches);
