//! In-path devices ("pipes", after dummynet's terminology).
//!
//! Every pipe is a two-or-more-port [`crate::Device`] that forwards
//! traffic while perturbing it: swapping, striping, balancing, dropping
//! or delaying. Pipes compose by chaining links, exactly like
//! the authors' FreeBSD router sat between their probe host and the
//! measured path.

mod balancer;
mod dummynet;
mod fault;
mod forward;
mod jitter;
mod loss;
mod multipath;
mod stationary;
mod striping;
mod token;
mod wireless;

pub use balancer::{BalanceMode, LoadBalancer};
pub use dummynet::{DummynetConfig, DummynetReorder};
pub use fault::{FaultClass, FaultGate};
pub use forward::Forwarder;
pub use jitter::DelayJitter;
pub use loss::RandomLoss;
pub use multipath::{MultipathRoute, SplitMode};
pub use stationary::CrossTrafficModel;
pub use striping::{CrossTraffic, StripingLink};
pub use wireless::{ArqConfig, WirelessArq};

use crate::engine::Port;

/// Conventional upstream port of a two-port pipe.
pub const UP: Port = Port(0);
/// Conventional downstream port of a two-port pipe.
pub const DOWN: Port = Port(1);

/// The opposite port of a two-port pipe, if `p` is one of its ports —
/// the exit of a two-port stage.
pub(crate) fn two_port_exit(p: Port) -> Option<Port> {
    match p {
        Port(0) => Some(DOWN),
        Port(1) => Some(UP),
        _ => None,
    }
}

/// The opposite port of a two-port pipe.
pub(crate) fn other(p: Port) -> Port {
    two_port_exit(p).unwrap_or_else(|| panic!("two-port pipe has no port {p:?}"))
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::capture::TraceHandle;
    use crate::engine::{Ctx, Device, NodeId, Port, Simulator};
    use crate::link::LinkParams;
    use reorder_wire::{Ipv4Addr4, Packet, PacketBuilder, TcpFlags};
    use std::time::Duration;

    /// Absorbs everything (endpoint for pipe tests; observe via taps).
    pub struct Blackhole;
    impl Device for Blackhole {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: Port, _: Packet) {}
        fn name(&self) -> &str {
            "blackhole"
        }
    }

    /// A minimal 40-byte probe with `n` stamped in seq and IPID.
    pub fn probe(n: u16) -> Packet {
        PacketBuilder::tcp()
            .src(Ipv4Addr4::new(10, 0, 0, 1), 1000)
            .dst(Ipv4Addr4::new(10, 0, 0, 2), 80)
            .seq(u32::from(n))
            .flags(TcpFlags::ACK)
            .ipid(n)
            .build()
    }

    /// Harness: src --(fast)--> [pipe] --(fast)--> dst. Returns
    /// (sim, src node, pipe node, dst node, rx tap on dst).
    pub fn rig(
        pipe: Box<dyn Device>,
        seed: u64,
    ) -> (Simulator, NodeId, NodeId, NodeId, TraceHandle) {
        let mut sim = Simulator::new(seed);
        let src = sim.add_node(Box::new(Blackhole));
        let p = sim.add_node(pipe);
        let dst = sim.add_node(Box::new(Blackhole));
        // Fast, near-zero-delay links so the pipe dominates behavior.
        let fast = LinkParams {
            bits_per_sec: 100_000_000_000,
            propagation: Duration::from_nanos(1),
            queue_limit: None,
        };
        sim.connect(src, Port(0), p, super::UP, fast);
        sim.connect(p, super::DOWN, dst, Port(0), fast);
        let tap = sim.tap_rx(dst);
        (sim, src, p, dst, tap)
    }

    /// Send `n` back-to-back probes downstream and return arrival order
    /// of their sequence numbers at dst.
    pub fn send_and_collect(
        sim: &mut Simulator,
        src: NodeId,
        tap: &TraceHandle,
        n: u16,
        gap: Duration,
    ) -> Vec<u32> {
        for i in 0..n {
            sim.transmit_from(src, Port(0), probe(i));
            if gap > Duration::ZERO {
                sim.run_for(gap);
            }
        }
        sim.run_until_idle(crate::time::SimTime::from_secs(10));
        tap.borrow()
            .iter()
            .map(|r| r.pkt.tcp().unwrap().seq.raw())
            .collect()
    }
}
