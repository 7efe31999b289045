//! Transparent load balancer — the adversary of the Dual Connection Test
//! (§III-C, Fig. 3) and the raison d'être of the SYN Test (§III-D).
//!
//! "Load balancers cannot operate on a per-packet basis, but instead
//! must balance requests per-flow or at larger granularities. [...] The
//! most common implementation strategy to ensure per-flow granularity is
//! to hash on the four-tuple."
//!
//! Port 0 faces the network; ports `1..=k` face the backend hosts. The
//! balancer is *transparent*: it does not rewrite addresses (all backends
//! are configured with the virtual IP), so the probe host cannot tell
//! which backend answered — except via IPID discontinuities, which is
//! exactly the artifact the paper's IPID validation detects.

use crate::engine::{Ctx, Device, Port};
use reorder_wire::Packet;

/// Flow-pinning policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalanceMode {
    /// Hash the TCP 4-tuple; every packet of a flow goes to the same
    /// backend. The common case the SYN Test relies on.
    PerFlow,
    /// Round-robin each packet — pathological, violates flow pinning;
    /// kept for failure-injection tests.
    PerPacket,
}

/// Transparent `k`-backend load balancer.
pub struct LoadBalancer {
    mode: BalanceMode,
    backends: usize,
    rr: usize,
    /// Observability: packets forwarded to each backend.
    pub per_backend: Vec<u64>,
}

impl LoadBalancer {
    /// New balancer with `backends` downstream ports (wired at ports
    /// `1..=backends`).
    pub fn new(mode: BalanceMode, backends: usize) -> Self {
        assert!(backends >= 1, "need at least one backend");
        LoadBalancer {
            mode,
            backends,
            rr: 0,
            per_backend: vec![0; backends],
        }
    }

    /// The backend port a flow would be pinned to (for test assertions).
    pub(crate) fn pin(&self, pkt: &Packet) -> usize {
        match pkt.flow() {
            Some(f) => (f.stable_hash() % self.backends as u64) as usize,
            // Non-TCP traffic (e.g. ICMP) hashes on addresses only.
            None => {
                (u64::from(pkt.ip.src.to_u32()) ^ u64::from(pkt.ip.dst.to_u32())) as usize
                    % self.backends
            }
        }
    }
}

impl Device for LoadBalancer {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
        if port == Port(0) {
            // Upstream → pick a backend.
            let b = match self.mode {
                BalanceMode::PerFlow => self.pin(&pkt),
                BalanceMode::PerPacket => {
                    let b = self.rr % self.backends;
                    self.rr += 1;
                    b
                }
            };
            self.per_backend[b] += 1;
            ctx.transmit(Port(1 + b), pkt);
        } else {
            // Any backend → upstream.
            assert!(
                port.0 >= 1 && port.0 <= self.backends,
                "unexpected balancer port {port:?}"
            );
            ctx.transmit(Port(0), pkt);
        }
    }

    fn name(&self) -> &str {
        "load-balancer"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::Blackhole;
    use super::*;
    use crate::engine::Simulator;
    use crate::link::LinkParams;
    use crate::time::SimTime;
    use reorder_wire::{Ipv4Addr4, PacketBuilder, TcpFlags};

    fn pkt(src_port: u16) -> Packet {
        PacketBuilder::tcp()
            .src(Ipv4Addr4::new(10, 0, 0, 1), src_port)
            .dst(Ipv4Addr4::new(10, 9, 9, 9), 80)
            .seq(1)
            .flags(TcpFlags::SYN)
            .build()
    }

    fn rig(
        mode: BalanceMode,
        k: usize,
    ) -> (
        Simulator,
        crate::engine::NodeId,
        Vec<crate::capture::TraceHandle>,
    ) {
        let mut sim = Simulator::new(0);
        let up = sim.add_node(Box::new(Blackhole));
        let lb = sim.add_node(Box::new(LoadBalancer::new(mode, k)));
        sim.connect(up, Port(0), lb, Port(0), LinkParams::lan());
        let mut taps = Vec::new();
        for b in 0..k {
            let backend = sim.add_node(Box::new(Blackhole));
            sim.connect(lb, Port(1 + b), backend, Port(0), LinkParams::lan());
            taps.push(sim.tap_rx(backend));
        }
        (sim, up, taps)
    }

    #[test]
    fn per_flow_pins_connections() {
        let (mut sim, up, taps) = rig(BalanceMode::PerFlow, 4);
        // Ten packets of the same flow: all land on one backend.
        for _ in 0..10 {
            sim.transmit_from(up, Port(0), pkt(5555));
        }
        sim.run_until_idle(SimTime::from_secs(1));
        let counts: Vec<usize> = taps.iter().map(|t| t.borrow().len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 10);
        assert_eq!(counts.iter().filter(|&&c| c > 0).count(), 1);
    }

    #[test]
    fn different_flows_spread() {
        let (mut sim, up, taps) = rig(BalanceMode::PerFlow, 4);
        for p in 0..200 {
            sim.transmit_from(up, Port(0), pkt(1000 + p));
        }
        sim.run_until_idle(SimTime::from_secs(1));
        let nonempty = taps.iter().filter(|t| !t.borrow().is_empty()).count();
        assert!(nonempty >= 3, "200 flows should hit ≥3 of 4 backends");
    }

    #[test]
    fn per_packet_round_robins() {
        let (mut sim, up, taps) = rig(BalanceMode::PerPacket, 3);
        for _ in 0..9 {
            sim.transmit_from(up, Port(0), pkt(7777));
        }
        sim.run_until_idle(SimTime::from_secs(1));
        for t in &taps {
            assert_eq!(t.borrow().len(), 3);
        }
    }

    #[test]
    fn identical_syn_pairs_share_backend() {
        // The SYN Test property: two SYNs identical except for their
        // starting sequence number hash to the same backend.
        let lb = LoadBalancer::new(BalanceMode::PerFlow, 8);
        let a = PacketBuilder::tcp()
            .src(Ipv4Addr4::new(1, 2, 3, 4), 4242)
            .dst(Ipv4Addr4::new(5, 6, 7, 8), 80)
            .seq(1000)
            .flags(TcpFlags::SYN)
            .build();
        let b = PacketBuilder::tcp()
            .src(Ipv4Addr4::new(1, 2, 3, 4), 4242)
            .dst(Ipv4Addr4::new(5, 6, 7, 8), 80)
            .seq(1001) // only the sequence number differs
            .flags(TcpFlags::SYN)
            .build();
        assert_eq!(lb.pin(&a), lb.pin(&b));
    }

    #[test]
    fn reverse_traffic_goes_upstream() {
        let mut sim = Simulator::new(0);
        let up = sim.add_node(Box::new(Blackhole));
        let lb = sim.add_node(Box::new(LoadBalancer::new(BalanceMode::PerFlow, 2)));
        let b0 = sim.add_node(Box::new(Blackhole));
        let b1 = sim.add_node(Box::new(Blackhole));
        sim.connect(up, Port(0), lb, Port(0), LinkParams::lan());
        sim.connect(lb, Port(1), b0, Port(0), LinkParams::lan());
        sim.connect(lb, Port(2), b1, Port(0), LinkParams::lan());
        let up_tap = sim.tap_rx(up);
        sim.transmit_from(b1, Port(0), pkt(1));
        sim.run_until_idle(SimTime::from_secs(1));
        assert_eq!(up_tap.borrow().len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn zero_backends_rejected() {
        LoadBalancer::new(BalanceMode::PerFlow, 0);
    }
}
