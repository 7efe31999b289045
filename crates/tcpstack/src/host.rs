//! [`TcpHost`]: a simulated remote endpoint — "any host exporting a
//! TCP/IP service \[becomes\] a de facto measurement server" (§III).
//!
//! The host demultiplexes TCP flows to [`crate::Conn`] state machines,
//! answers ICMP echoes (unless the personality filters them), RSTs
//! closed ports, stamps every outgoing packet with an IPID from the
//! personality's generator, and optionally simulates background traffic
//! advancing the IPID counter between replies.

use crate::conn::{Conn, ConnCfg, ConnState, SegmentOut, TimerReq};
use crate::ipid_gen::IpidGenerator;
use crate::personality::HostPersonality;
use rand::rngs::SmallRng;
use rand::Rng;
use reorder_netsim::{rng, Ctx, Device, Port};
use reorder_wire::{
    Bytes, Ipv4Addr4, Ipv4Header, Packet, Payload, Protocol, SeqNum, TcpFlags, TcpHeader,
};

/// Configuration of a simulated host.
#[derive(Debug, Clone)]
pub struct TcpHostConfig {
    /// The host's (or, behind a transparent load balancer, the virtual)
    /// IPv4 address.
    pub addr: Ipv4Addr4,
    /// Behavioral profile.
    pub personality: HostPersonality,
    /// Listening TCP ports.
    pub ports: Vec<u16>,
    /// Size of the object served to `GET` requests (0 = none; a
    /// redirect-only site per §III-E would be `object_size < 2 * MSS`).
    pub object_size: usize,
    /// Mean number of background packets the host sends between our
    /// observations (advances a global IPID counter like a busy server).
    /// 0.0 = idle host.
    pub background_load: f64,
}

impl TcpHostConfig {
    /// A quiet web server with the given personality.
    pub fn web_server(addr: Ipv4Addr4, personality: HostPersonality) -> Self {
        TcpHostConfig {
            addr,
            personality,
            ports: vec![80],
            object_size: 16 * 1024,
            background_load: 0.0,
        }
    }
}

/// Flow demux key from the host's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LocalFlow {
    remote: Ipv4Addr4,
    remote_port: u16,
    local_port: u16,
}

/// The host device. Single-homed: all traffic on port 0.
pub struct TcpHost {
    cfg: TcpHostConfig,
    conns: Vec<Option<Conn>>,
    // Linear flow demux: a host holds a handful of live connections,
    // and this lookup runs per received segment.
    by_flow: Vec<(LocalFlow, usize)>,
    ipid: IpidGenerator,
    rng: SmallRng,
    iss_counter: u32,
    /// Observability: segments received / transmitted.
    pub rx_segments: u64,
    /// Observability: packets transmitted.
    pub tx_packets: u64,
}

impl TcpHost {
    /// Build a host; randomness derives from the simulation master seed
    /// and the host label (its address).
    pub fn new(cfg: TcpHostConfig, master_seed: u64) -> Self {
        let label = format!("host.{}", cfg.addr);
        let mut rng = rng::stream(master_seed, &label);
        let ipid_rng = rng::stream(master_seed, &format!("{label}.ipid"));
        let iss_counter = rng.gen();
        TcpHost {
            ipid: IpidGenerator::new(cfg.personality.ipid, ipid_rng),
            cfg,
            conns: Vec::new(),
            by_flow: Vec::new(),
            rng,
            iss_counter,
            rx_segments: 0,
            tx_packets: 0,
        }
    }

    fn conn_cfg(&self) -> ConnCfg {
        ConnCfg {
            delayed_ack: self.cfg.personality.delayed_ack,
            second_syn: self.cfg.personality.second_syn,
            mss: self.cfg.personality.mss,
            window: self.cfg.personality.window,
            object_size: self.cfg.object_size,
            sack: true,
        }
    }

    fn next_iss(&mut self) -> SeqNum {
        // RFC-793-style clock-driven ISS, coarsened: advance by a random
        // stride per connection.
        self.iss_counter = self
            .iss_counter
            .wrapping_add(64_000 + self.rng.gen_range(0..4096));
        SeqNum(self.iss_counter)
    }

    fn send_segment(
        &mut self,
        ctx: &mut Ctx<'_>,
        to: Ipv4Addr4,
        ports: (u16, u16),
        seg: SegmentOut,
    ) {
        // Background load advances a shared IPID counter between our
        // packets, as on a real busy server.
        if self.cfg.background_load > 0.0 {
            let lambda = self.cfg.background_load;
            // Geometric approximation of a Poisson count: cheap and
            // monotone in lambda, which is all the experiments need.
            let mut n = 0u16;
            while self.rng.gen::<f64>() < lambda / (1.0 + lambda) && n < 1000 {
                n += 1;
            }
            self.ipid.background(n);
        }
        let header = TcpHeader {
            src_port: ports.0,
            dst_port: ports.1,
            seq: seg.seq,
            ack: seg.ack,
            flags: seg.flags,
            window: seg.window,
            urgent: 0,
            options: seg.options,
        };
        let pkt = Packet {
            ip: Ipv4Header {
                ident: self.ipid.next(to),
                protocol: Protocol::Tcp,
                src: self.cfg.addr,
                dst: to,
                ..Ipv4Header::default()
            },
            payload: Payload::Tcp {
                header,
                data: seg.data,
            },
        };
        self.tx_packets += 1;
        ctx.transmit(Port(0), pkt);
    }

    fn send_rst_for(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let Some(tcp) = pkt.tcp() else { return };
        if tcp.flags.contains(TcpFlags::RST) {
            return; // never RST a RST
        }
        let data_len = pkt.tcp_data().map(|d| d.len() as u32).unwrap_or(0);
        let seg = SegmentOut {
            seq: if tcp.flags.contains(TcpFlags::ACK) {
                tcp.ack
            } else {
                SeqNum(0)
            },
            ack: tcp.seq + data_len + u32::from(tcp.flags.contains(TcpFlags::SYN)),
            flags: TcpFlags::RST | TcpFlags::ACK,
            window: 0,
            data: Bytes::new(),
            options: Vec::new(),
        };
        self.send_segment(ctx, pkt.ip.src, (tcp.dst_port, tcp.src_port), seg);
    }

    fn handle_tcp(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        let tcp = pkt.tcp().expect("caller checked");
        self.rx_segments += 1;
        let flow = LocalFlow {
            remote: pkt.ip.src,
            remote_port: tcp.src_port,
            local_port: tcp.dst_port,
        };
        let mut out: Vec<SegmentOut> = Vec::new();
        let mut timer = TimerReq::None;
        let mut timer_token = 0u64;
        if let Some(idx) = self
            .by_flow
            .iter()
            .find_map(|&(f, i)| (f == flow).then_some(i))
        {
            let mut conn = self.conns[idx].take().expect("indexed conn");
            timer = conn.on_segment(tcp, pkt.tcp_data().unwrap_or(&[]), &mut out);
            timer_token = (idx as u64) << 32 | (conn.ack_timer_gen & 0xffff_ffff);
            let closed = conn.state == ConnState::Closed;
            self.conns[idx] = Some(conn);
            if closed {
                self.by_flow.retain(|&(f, _)| f != flow);
                self.conns[idx] = None;
            }
        } else if tcp.flags.contains(TcpFlags::SYN)
            && !tcp.flags.contains(TcpFlags::ACK)
            && self.cfg.ports.contains(&tcp.dst_port)
        {
            let iss = self.next_iss();
            let conn = Conn::accept(tcp, iss, self.conn_cfg(), &mut out);
            let idx = self.conns.iter().position(Option::is_none).unwrap_or({
                self.conns.push(None);
                self.conns.len() - 1
            });
            self.conns[idx] = Some(conn);
            self.by_flow.push((flow, idx));
        } else if self.cfg.personality.rst_closed_ports {
            self.send_rst_for(ctx, pkt);
            return;
        } else {
            return;
        }
        for seg in out {
            self.send_segment(ctx, flow.remote, (flow.local_port, flow.remote_port), seg);
        }
        if timer == TimerReq::ArmAckTimer {
            ctx.set_timer(self.cfg.personality.delayed_ack.max_delay, timer_token);
        }
    }
}

impl Device for TcpHost {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: Port, pkt: Packet) {
        if pkt.ip.dst != self.cfg.addr {
            return; // not ours (mis-balanced or stray)
        }
        match &pkt.payload {
            Payload::Tcp { .. } => self.handle_tcp(ctx, &pkt),
            Payload::Icmp { header, data } => {
                if self.cfg.personality.answers_icmp
                    && header.icmp_type == reorder_wire::IcmpType::EchoRequest
                {
                    let reply = Packet {
                        ip: Ipv4Header {
                            ident: self.ipid.next(pkt.ip.src),
                            protocol: Protocol::Icmp,
                            src: self.cfg.addr,
                            dst: pkt.ip.src,
                            ..Ipv4Header::default()
                        },
                        payload: Payload::Icmp {
                            header: header.reply_to(),
                            data: data.clone(),
                        },
                    };
                    self.tx_packets += 1;
                    ctx.transmit(Port(0), reply);
                }
            }
            Payload::Raw(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let idx = (token >> 32) as usize;
        let generation = token & 0xffff_ffff;
        let Some(slot) = self.conns.get_mut(idx) else {
            return;
        };
        let Some(conn) = slot else { return };
        if conn.ack_timer_gen & 0xffff_ffff != generation {
            return; // stale timer
        }
        let mut out = Vec::new();
        conn.on_ack_timer(&mut out);
        // Find the flow for addressing.
        let flow = self
            .by_flow
            .iter()
            .find(|&&(_, i)| i == idx)
            .map(|&(f, _)| f);
        if let Some(flow) = flow {
            for seg in out {
                self.send_segment(ctx, flow.remote, (flow.local_port, flow.remote_port), seg);
            }
        }
    }

    fn name(&self) -> &str {
        self.cfg.personality.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorder_netsim::{drain, LinkParams, Mailbox, SimTime, Simulator};
    use reorder_wire::PacketBuilder;
    use std::time::Duration;

    const ME: Ipv4Addr4 = Ipv4Addr4::new(10, 0, 0, 1);
    const SRV: Ipv4Addr4 = Ipv4Addr4::new(10, 0, 0, 2);

    fn rig(
        personality: HostPersonality,
    ) -> (
        Simulator,
        reorder_netsim::NodeId,
        reorder_netsim::MailboxQueue,
    ) {
        let mut sim = Simulator::new(5);
        let (mb, q) = Mailbox::new();
        let me = sim.add_node(Box::new(mb));
        let host = TcpHost::new(
            TcpHostConfig::web_server(SRV, personality),
            sim.master_seed(),
        );
        let srv = sim.add_node(Box::new(host));
        sim.connect(me, Port(0), srv, Port(0), LinkParams::lan());
        (sim, me, q)
    }

    fn syn(seq: u32, sport: u16) -> Packet {
        PacketBuilder::tcp()
            .src(ME, sport)
            .dst(SRV, 80)
            .seq(seq)
            .flags(TcpFlags::SYN)
            .build()
    }

    #[test]
    fn responds_synack_then_serves_handshake() {
        let (mut sim, me, q) = rig(HostPersonality::freebsd4());
        sim.transmit_from(me, Port(0), syn(1000, 4000));
        sim.run_until_idle(SimTime::from_secs(1));
        let got = drain(&q);
        assert_eq!(got.len(), 1);
        let sa = got[0].pkt.tcp().unwrap();
        assert_eq!(sa.flags, TcpFlags::SYN | TcpFlags::ACK);
        assert_eq!(sa.ack, SeqNum(1001));
        assert!(sa.mss().is_some());
    }

    #[test]
    fn rst_to_closed_port() {
        let (mut sim, me, q) = rig(HostPersonality::freebsd4());
        sim.transmit_from(me, Port(0), syn(1, 9999).clone());
        // Port 81 is closed.
        let p = PacketBuilder::tcp()
            .src(ME, 5000)
            .dst(SRV, 81)
            .seq(7)
            .flags(TcpFlags::SYN)
            .build();
        sim.transmit_from(me, Port(0), p);
        sim.run_until_idle(SimTime::from_secs(1));
        let got = drain(&q);
        let rsts: Vec<_> = got
            .iter()
            .filter(|r| r.pkt.tcp().unwrap().flags.contains(TcpFlags::RST))
            .collect();
        assert_eq!(rsts.len(), 1);
        assert_eq!(rsts[0].pkt.tcp().unwrap().ack, SeqNum(8), "RST acks SYN+1");
    }

    #[test]
    fn hardened_host_is_silent_on_closed_ports_and_icmp() {
        let (mut sim, me, q) = rig(HostPersonality::hardened());
        let p = PacketBuilder::tcp()
            .src(ME, 5000)
            .dst(SRV, 81)
            .seq(7)
            .flags(TcpFlags::SYN)
            .build();
        sim.transmit_from(me, Port(0), p);
        let echo = PacketBuilder::icmp_echo(9, 1)
            .src(ME, 0)
            .dst(SRV, 0)
            .build();
        sim.transmit_from(me, Port(0), echo);
        sim.run_until_idle(SimTime::from_secs(1));
        assert!(drain(&q).is_empty());
    }

    #[test]
    fn answers_icmp_echo() {
        let (mut sim, me, q) = rig(HostPersonality::freebsd4());
        let echo = PacketBuilder::icmp_echo(77, 3)
            .src(ME, 0)
            .dst(SRV, 0)
            .data(vec![1, 2, 3])
            .build();
        sim.transmit_from(me, Port(0), echo);
        sim.run_until_idle(SimTime::from_secs(1));
        let got = drain(&q);
        assert_eq!(got.len(), 1);
        let icmp = got[0].pkt.icmp().unwrap();
        assert_eq!(icmp.icmp_type, reorder_wire::IcmpType::EchoReply);
        assert_eq!(icmp.ident, 77);
        assert_eq!(got[0].pkt.tcp_data(), None);
    }

    #[test]
    fn full_handshake_probe_and_teardown() {
        let (mut sim, me, q) = rig(HostPersonality::freebsd4());
        sim.transmit_from(me, Port(0), syn(100, 4000));
        sim.run_until_idle(SimTime::from_secs(1));
        let synack = drain(&q).pop().expect("synack");
        let sa = synack.pkt.tcp().unwrap();
        let iss = sa.seq;
        // Complete the handshake.
        let ack = PacketBuilder::tcp()
            .src(ME, 4000)
            .dst(SRV, 80)
            .seq(101)
            .ack(iss.raw().wrapping_add(1))
            .flags(TcpFlags::ACK)
            .build();
        sim.transmit_from(me, Port(0), ack);
        sim.run_until_idle(SimTime::from_secs(1));
        assert!(drain(&q).is_empty(), "plain ACK elicits nothing");
        // Out-of-order probe byte → immediate dup ACK.
        let probe = PacketBuilder::tcp()
            .src(ME, 4000)
            .dst(SRV, 80)
            .seq(102)
            .ack(iss.raw().wrapping_add(1))
            .flags(TcpFlags::ACK)
            .data(b"X".to_vec())
            .build();
        sim.transmit_from(me, Port(0), probe);
        sim.run_until_idle(SimTime::from_secs(1));
        let dup = drain(&q).pop().expect("dup ack");
        assert_eq!(dup.pkt.tcp().unwrap().ack, SeqNum(101));
        // FIN teardown.
        let fin = PacketBuilder::tcp()
            .src(ME, 4000)
            .dst(SRV, 80)
            .seq(101)
            .ack(iss.raw().wrapping_add(1))
            .flags(TcpFlags::FIN | TcpFlags::ACK)
            .build();
        sim.transmit_from(me, Port(0), fin);
        sim.run_until_idle(SimTime::from_secs(1));
        let got = drain(&q);
        assert!(got
            .iter()
            .any(|r| r.pkt.tcp().unwrap().flags.contains(TcpFlags::FIN)));
    }

    #[test]
    fn delayed_ack_fires_on_timer() {
        let (mut sim, me, q) = rig(HostPersonality::freebsd4());
        sim.transmit_from(me, Port(0), syn(100, 4000));
        sim.run_until_idle(SimTime::from_secs(1));
        let iss = drain(&q).pop().unwrap().pkt.tcp().unwrap().seq;
        let mk = |seq: u32, data: &[u8]| {
            PacketBuilder::tcp()
                .src(ME, 4000)
                .dst(SRV, 80)
                .seq(seq)
                .ack(iss.raw().wrapping_add(1))
                .flags(TcpFlags::ACK)
                .data(data.to_vec())
                .build()
        };
        sim.transmit_from(me, Port(0), mk(101, b""));
        sim.run_until_idle(SimTime::from_secs(1));
        drain(&q);
        // One in-order data segment: the ACK must arrive only after the
        // delayed-ack timeout (200ms for freebsd4 preset).
        sim.transmit_from(me, Port(0), mk(101, b"A"));
        sim.run_for(Duration::from_millis(100));
        assert!(drain(&q).is_empty(), "ACK withheld before timeout");
        sim.run_for(Duration::from_millis(250));
        let got = drain(&q);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].pkt.tcp().unwrap().ack, SeqNum(102));
    }

    #[test]
    fn ipid_monotone_for_global_counter_host() {
        let (mut sim, me, q) = rig(HostPersonality::freebsd4());
        // Two parallel connections; replies must share one IPID space.
        sim.transmit_from(me, Port(0), syn(100, 4000));
        sim.transmit_from(me, Port(0), syn(200, 4001));
        sim.run_until_idle(SimTime::from_secs(1));
        let got = drain(&q);
        assert_eq!(got.len(), 2);
        let a = got[0].pkt.ip.ident;
        let b = got[1].pkt.ip.ident;
        assert!(a.before(b), "global counter must be monotone: {a} vs {b}");
    }

    #[test]
    fn ipid_zero_for_linux24() {
        let (mut sim, me, q) = rig(HostPersonality::linux24());
        sim.transmit_from(me, Port(0), syn(100, 4000));
        sim.run_until_idle(SimTime::from_secs(1));
        assert_eq!(drain(&q).pop().unwrap().pkt.ip.ident.raw(), 0);
    }

    #[test]
    fn wrong_destination_ignored() {
        let (mut sim, me, q) = rig(HostPersonality::freebsd4());
        let p = PacketBuilder::tcp()
            .src(ME, 4000)
            .dst(Ipv4Addr4::new(9, 9, 9, 9), 80)
            .seq(1)
            .flags(TcpFlags::SYN)
            .build();
        sim.transmit_from(me, Port(0), p);
        sim.run_until_idle(SimTime::from_secs(1));
        assert!(drain(&q).is_empty());
    }
}
