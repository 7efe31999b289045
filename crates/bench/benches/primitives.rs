//! Criterion perf benches for the substrate hot paths: wire
//! encode/decode, checksums, the event engine, the pipes, and the
//! campaign aggregation primitives.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use reorder_core::stats::QuantileSketch;
use reorder_netsim::pipes::{
    CrossTraffic, CrossTrafficModel, DummynetConfig, DummynetReorder, StripingLink,
};
use reorder_netsim::{Ctx, Device, LinkParams, Port, SimTime, Simulator};
use reorder_survey::RateHistogram;
use reorder_wire::{checksum, Ipv4Addr4, Packet, PacketBuilder, TcpFlags, TcpOption};
use std::cell::RefCell;
use std::rc::Rc;

fn probe_packet(n: u16, payload: usize) -> Packet {
    PacketBuilder::tcp()
        .src(Ipv4Addr4::new(10, 0, 0, 1), 1000)
        .dst(Ipv4Addr4::new(10, 0, 0, 2), 80)
        .seq(u32::from(n))
        .ack(1)
        .flags(TcpFlags::ACK | TcpFlags::PSH)
        .option(TcpOption::Mss(1460))
        .ipid(n)
        .data(vec![0xAB; payload])
        .build()
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    for payload in [0usize, 512, 1460] {
        let pkt = probe_packet(7, payload);
        let bytes = pkt.encode();
        g.throughput(Throughput::Bytes(bytes.len() as u64));
        g.bench_with_input(BenchmarkId::new("encode", payload), &pkt, |b, p| {
            b.iter(|| black_box(p.encode()))
        });
        g.bench_with_input(BenchmarkId::new("decode", payload), &bytes, |b, bs| {
            b.iter(|| Packet::decode(black_box(bs)).unwrap())
        });
    }
    g.finish();

    let mut g = c.benchmark_group("checksum");
    for size in [40usize, 576, 1500] {
        let data: Vec<u8> = (0..size).map(|i| (i * 31) as u8).collect();
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("internet", size), &data, |b, d| {
            b.iter(|| checksum::internet(black_box(d)))
        });
    }
    g.finish();
}

/// Ping-pong device pair used to saturate the event engine.
struct Echo;
impl Device for Echo {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
        let mut p = pkt;
        std::mem::swap(&mut p.ip.src, &mut p.ip.dst);
        ctx.transmit(port, p);
    }
}
struct Sink(Rc<RefCell<usize>>);
impl Device for Sink {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: Port, _: Packet) {
        *self.0.borrow_mut() += 1;
    }
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("deliver_1000_events", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(1);
            let count = Rc::new(RefCell::new(0usize));
            let sink = sim.add_node(Box::new(Sink(count.clone())));
            let echo = sim.add_node(Box::new(Echo));
            sim.connect(sink, Port(0), echo, Port(0), LinkParams::lan());
            for i in 0..500u16 {
                sim.transmit_from(sink, Port(0), probe_packet(i, 0));
            }
            sim.run_until_idle(SimTime::from_secs(10));
            assert_eq!(*count.borrow(), 500);
        })
    });
    g.finish();

    let mut g = c.benchmark_group("pipes");
    g.throughput(Throughput::Elements(500));
    g.bench_function("dummynet_500_packets", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(1);
            let count = Rc::new(RefCell::new(0usize));
            let src = sim.add_node(Box::new(Sink(Rc::new(RefCell::new(0)))));
            let pipe = sim.add_node(Box::new(DummynetReorder::new(
                DummynetConfig {
                    fwd_swap: 0.2,
                    ..Default::default()
                },
                1,
                "b",
            )));
            let dst = sim.add_node(Box::new(Sink(count.clone())));
            sim.connect(src, Port(0), pipe, Port(0), LinkParams::lan());
            sim.connect(pipe, Port(1), dst, Port(0), LinkParams::lan());
            for i in 0..500u16 {
                sim.transmit_from(src, Port(0), probe_packet(i, 0));
            }
            sim.run_until_idle(SimTime::from_secs(10));
            assert_eq!(*count.borrow(), 500);
        })
    });
    // The cross-traffic pair: replay is the per-arrival Poisson
    // reconstruction (the stationary sampler's test oracle), stationary
    // the O(1) workload draw every scenario runs.
    for model in [CrossTrafficModel::Replay, CrossTrafficModel::Stationary] {
        g.bench_function(format!("striping_{}_500_packets", model.label()), |b| {
            b.iter(|| {
                let mut sim = Simulator::new(1);
                let count = Rc::new(RefCell::new(0usize));
                let src = sim.add_node(Box::new(Sink(Rc::new(RefCell::new(0)))));
                let pipe = sim.add_node(Box::new(StripingLink::new(
                    2,
                    1_000_000_000,
                    Some(CrossTraffic::backbone()),
                    model,
                    1,
                    "b",
                )));
                let dst = sim.add_node(Box::new(Sink(count.clone())));
                sim.connect(src, Port(0), pipe, Port(0), LinkParams::lan());
                sim.connect(pipe, Port(1), dst, Port(0), LinkParams::lan());
                for i in 0..500u16 {
                    sim.transmit_from(src, Port(0), probe_packet(i, 0));
                }
                sim.run_until_idle(SimTime::from_secs(10));
                assert_eq!(*count.borrow(), 500);
            })
        });
    }
    g.finish();
}

/// The aggregation-primitive pair behind every per-host rate the
/// campaign absorbs: the mergeable quantile sketch vs the fixed-bucket
/// histogram it replaced as the summary's source of truth. Also the
/// shard-merge cost, the one step the funnel-free path added.
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
    g.bench_function("histogram_push_4096", |b| {
        b.iter(|| {
            let mut h = RateHistogram::default();
            for &r in &rates {
                h.push(black_box(r));
            }
            black_box(h.total())
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

criterion_group!(
    benches,
    bench_wire,
    bench_engine,
    bench_stats,
    bench_telemetry
);
criterion_main!(benches);
