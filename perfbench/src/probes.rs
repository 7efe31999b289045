//! Primitive probes of the lowest layers — wire codec and checksum,
//! the event engine, and the two pipes the workloads cross most — built
//! from the packet shapes the workloads actually send: a 40-byte
//! SYN/ACK-sized probe (IPv4 + TCP headers, no options or payload) and
//! a 1500-byte MSS data segment (1460 payload bytes).

use reorder_core::scenario::SimVersion;
use reorder_netsim::pipes::{CrossTraffic, DummynetConfig, DummynetReorder, StripingLink};
use reorder_netsim::{Ctx, Device, LinkParams, Port, SimTime, Simulator};
use reorder_wire::{checksum, Ipv4Addr4, Packet, PacketBuilder, TcpFlags};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Timed batches per probe; the probe reports their median.
const BATCHES: usize = 11;

/// Packets per simulated train (engine and pipe probes).
const TRAIN: u16 = 500;

/// The 40-byte SYN/ACK-sized probe.
pub fn syn_ack(n: u16) -> Packet {
    PacketBuilder::tcp()
        .src(Ipv4Addr4::new(10, 0, 0, 2), 80)
        .dst(Ipv4Addr4::new(10, 0, 0, 1), 40_000)
        .seq(u32::from(n))
        .ack(1)
        .flags(TcpFlags::SYN | TcpFlags::ACK)
        .ipid(n)
        .build()
}

/// The 1500-byte MSS data segment.
pub fn mss_segment(n: u16) -> Packet {
    PacketBuilder::tcp()
        .src(Ipv4Addr4::new(10, 0, 0, 2), 80)
        .dst(Ipv4Addr4::new(10, 0, 0, 1), 40_000)
        .seq(1 + 1460 * u32::from(n))
        .ack(1)
        .flags(TcpFlags::ACK | TcpFlags::PSH)
        .ipid(n)
        .data(vec![0x5A; 1460])
        .build()
}

/// Packet `n` of a train: probes and segments alternate, as a
/// measurement's probes interleave with a transfer's segments.
fn train_packet(n: u16) -> Packet {
    if n.is_multiple_of(2) {
        syn_ack(n)
    } else {
        mss_segment(n)
    }
}

/// Median over [`BATCHES`] batches of `ops` calls of `f`, ns per call.
fn ns_per_op(ops: usize, mut f: impl FnMut()) -> f64 {
    let mut per_op: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..ops {
                f();
            }
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    crate::stats::median(&mut per_op)
}

/// Bounces every packet back out of the port it came in on.
struct Echo;
impl Device for Echo {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, mut pkt: Packet) {
        std::mem::swap(&mut pkt.ip.src, &mut pkt.ip.dst);
        ctx.transmit(port, pkt);
    }
}

/// Counts arrivals.
struct Sink(Rc<Cell<usize>>);
impl Device for Sink {
    fn on_packet(&mut self, _: &mut Ctx<'_>, _: Port, _: Packet) {
        self.0.set(self.0.get() + 1);
    }
}

/// One simulated train through `mid` (or an echo pair when `None`):
/// returns (wall ns, events dispatched, packets that arrived).
fn run_train(mid: Option<Box<dyn Device>>) -> (f64, u64, usize) {
    let mut sim = Simulator::new(1);
    let count = Rc::new(Cell::new(0usize));
    let src = sim.add_node(Box::new(Sink(count.clone())));
    match mid {
        None => {
            let echo = sim.add_node(Box::new(Echo));
            sim.connect(src, Port(0), echo, Port(0), LinkParams::lan());
        }
        Some(pipe) => {
            let pipe = sim.add_node(pipe);
            let dst = sim.add_node(Box::new(Sink(count.clone())));
            sim.connect(src, Port(0), pipe, Port(0), LinkParams::lan());
            sim.connect(pipe, Port(1), dst, Port(0), LinkParams::lan());
        }
    }
    let packets: Vec<Packet> = (0..TRAIN).map(train_packet).collect();
    let t0 = Instant::now();
    for p in packets {
        sim.transmit_from(src, Port(0), p);
    }
    sim.run_until_idle(SimTime::from_secs(10));
    let ns = t0.elapsed().as_nanos() as f64;
    (ns, sim.events_processed(), count.get())
}

/// Median ns per unit of a train probe, checking every packet arrived.
fn train_probe(
    mut mk: impl FnMut() -> Option<Box<dyn Device>>,
    per_event: bool,
    errors: &mut Vec<String>,
    name: &str,
) -> f64 {
    let mut vals: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let (ns, events, arrived) = run_train(mk());
            if arrived != usize::from(TRAIN) {
                errors.push(format!("{name}: {arrived} of {TRAIN} packets arrived"));
            }
            if per_event {
                ns / events.max(1) as f64
            } else {
                ns / f64::from(TRAIN)
            }
        })
        .collect();
    crate::stats::median(&mut vals)
}

/// Every probe metric, `(name, value, unit)`. Shape or delivery errors
/// land in `errors`.
pub fn run(errors: &mut Vec<String>) -> Vec<(&'static str, f64, &'static str)> {
    let small = syn_ack(7);
    let big = mss_segment(7);
    let (small_bytes, big_bytes) = (small.encode(), big.encode());
    if small_bytes.len() != 40 || big_bytes.len() != 1500 {
        errors.push(format!(
            "probe shapes are {} and {} bytes, want 40 and 1500",
            small_bytes.len(),
            big_bytes.len()
        ));
    }
    for (pkt, bytes) in [(&small, &small_bytes), (&big, &big_bytes)] {
        if Packet::decode(bytes).as_ref() != Ok(pkt) {
            errors.push(format!("{}-byte probe does not round-trip", bytes.len()));
        }
    }
    let encode = |p: &Packet| ns_per_op(2_000, || drop(black_box(black_box(p).encode())));
    let decode = |b: &[u8]| ns_per_op(2_000, || drop(black_box(Packet::decode(black_box(b)))));
    let csum = |b: &[u8]| {
        ns_per_op(5_000, || {
            black_box(checksum::internet(black_box(b)));
        })
    };
    let model = SimVersion::default().cross_traffic_model();
    vec![
        ("wire.encode_ns.40B", encode(&small), "ns"),
        ("wire.decode_ns.40B", decode(&small_bytes), "ns"),
        ("wire.encode_ns.1500B", encode(&big), "ns"),
        ("wire.decode_ns.1500B", decode(&big_bytes), "ns"),
        ("wire.checksum_ns.40B", csum(&small_bytes), "ns"),
        ("wire.checksum_ns.1500B", csum(&big_bytes), "ns"),
        (
            "netsim.deliver_ns",
            train_probe(|| None, true, errors, "deliver"),
            "ns",
        ),
        (
            "pipes.dummynet_ns_per_pkt",
            train_probe(
                || {
                    let cfg = DummynetConfig {
                        fwd_swap: 0.2,
                        ..Default::default()
                    };
                    Some(Box::new(DummynetReorder::new(cfg, 1, "probe")))
                },
                false,
                errors,
                "dummynet",
            ),
            "ns",
        ),
        (
            "pipes.striping_ns_per_pkt",
            train_probe(
                || {
                    let cross = Some(CrossTraffic::backbone());
                    Some(Box::new(StripingLink::new(
                        2,
                        1_000_000_000,
                        cross,
                        model,
                        1,
                        "probe",
                    )))
                },
                false,
                errors,
                "striping",
            ),
            "ns",
        ),
    ]
}
