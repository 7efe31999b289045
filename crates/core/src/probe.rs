//! The raw-packet probing harness — the simulated counterpart of the
//! sting tool's packet-filter arrangement (§IV: "programmable packet
//! filters and firewall filters were used to allow a user-level test
//! program to generate and receive arbitrary IP packets without
//! conflicting with the kernel's network stack").
//!
//! [`Prober`] owns the simulation and a [`Mailbox`](reorder_netsim::Mailbox) attachment point. The
//! measurement tests drive it synchronously: craft a segment, transmit,
//! advance simulated time, and collect matching replies.

use reorder_netsim::{MailboxQueue, NodeId, Port, RxPacket, SimTime, Simulator};
use reorder_wire::{FlowKey, IpId, Ipv4Addr4, Packet, PacketBuilder, SeqNum, TcpFlags, TcpOption};
use std::fmt;
use std::time::Duration;

/// Errors a measurement can hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeError {
    /// No (or not enough) replies before the deadline.
    Timeout {
        /// What was being waited for.
        waiting_for: &'static str,
    },
    /// The remote host reset the connection during setup.
    ConnectionReset,
    /// The target failed a precondition (e.g. IPID validation, missing
    /// web object).
    HostUnsuitable(String),
    /// The per-host [`crate::budget::Budget`] deadline ran out before
    /// this phase could start (or finish): the session refuses further
    /// work so one pathological host cannot stall its shard.
    DeadlineExceeded,
}

impl fmt::Display for ProbeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProbeError::Timeout { waiting_for } => write!(f, "timed out waiting for {waiting_for}"),
            ProbeError::ConnectionReset => write!(f, "connection reset by target"),
            ProbeError::HostUnsuitable(why) => write!(f, "host unsuitable: {why}"),
            ProbeError::DeadlineExceeded => write!(f, "per-host budget deadline exceeded"),
        }
    }
}

impl std::error::Error for ProbeError {}

/// Client-side view of an established TCP connection (the prober speaks
/// raw packets; this is just bookkeeping, not a socket).
#[derive(Debug, Clone)]
pub struct ClientConn {
    /// Flow 4-tuple from the prober's perspective.
    pub flow: FlowKey,
    /// Our initial sequence number.
    pub iss: SeqNum,
    /// Server's initial sequence number (from the SYN/ACK).
    pub irs: SeqNum,
    /// Next sequence number we would send in-order.
    pub snd_nxt: SeqNum,
    /// Next sequence number we expect from the server.
    pub rcv_nxt: SeqNum,
    /// Server's advertised MSS.
    pub server_mss: u16,
}

/// The probing agent: owns the simulator and the probe host attachment.
pub struct Prober {
    /// The simulation (public: scenarios and experiments reach in for
    /// taps and extra nodes before probing starts).
    pub sim: Simulator,
    node: NodeId,
    queue: MailboxQueue,
    /// Probe host source address.
    pub local_addr: Ipv4Addr4,
    buffer: Vec<RxPacket>,
    next_port: u16,
    next_ipid: u16,
    iss_counter: u32,
    handshakes: usize,
}

impl Prober {
    /// Wrap a built simulation. `node`/`queue` come from the scenario's
    /// [`reorder_netsim::Mailbox`].
    pub fn new(sim: Simulator, node: NodeId, queue: MailboxQueue, local_addr: Ipv4Addr4) -> Self {
        Prober {
            sim,
            node,
            queue,
            local_addr,
            buffer: Vec::new(),
            next_port: 33000,
            next_ipid: 1,
            iss_counter: 0x1000_0000,
            handshakes: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Tear the prober down and hand the simulator back — the path a
    /// [`crate::scenario::ScenarioPool`] uses to recycle a finished
    /// scenario's allocations into the next host's build.
    pub(crate) fn into_sim(self) -> Simulator {
        self.sim
    }

    /// Successful three-way handshakes performed so far. The
    /// conformance suite cross-checks this wire-level counter against
    /// [`crate::measurer::SessionStats::handshakes`] to prove the
    /// session's connection-reuse accounting is real.
    pub fn handshakes_performed(&self) -> usize {
        self.handshakes
    }

    /// Allocate an ephemeral source port.
    pub(crate) fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = if self.next_port >= 60000 {
            33000
        } else {
            self.next_port + 1
        };
        p
    }

    /// Allocate a probe IPID. The prober stamps sequential IPIDs on its
    /// own packets so capture traces can identify each probe uniquely
    /// (the validation analysis of §IV-A keys on this).
    pub(crate) fn alloc_ipid(&mut self) -> IpId {
        let id = IpId(self.next_ipid);
        self.next_ipid = self.next_ipid.wrapping_add(1);
        if self.next_ipid == 0 {
            self.next_ipid = 1;
        }
        id
    }

    /// Allocate an initial sequence number.
    pub(crate) fn alloc_iss(&mut self) -> SeqNum {
        self.iss_counter = self.iss_counter.wrapping_add(0x0001_0000);
        SeqNum(self.iss_counter)
    }

    /// Transmit a raw packet now.
    pub fn send(&mut self, pkt: Packet) {
        self.sim.transmit_from(self.node, Port(0), pkt);
    }

    /// Let the simulation advance by `d`.
    pub fn run_for(&mut self, d: Duration) {
        self.sim.run_for(d);
        self.drain_into_buffer();
    }

    fn drain_into_buffer(&mut self) {
        let mut q = self.queue.borrow_mut();
        self.buffer.extend(q.drain(..));
    }

    /// Wait until `deadline` for a packet matching `pred`, consuming it
    /// from the receive buffer. Non-matching packets stay buffered for
    /// later calls.
    pub(crate) fn recv_where<F>(&mut self, mut pred: F, timeout: Duration) -> Option<RxPacket>
    where
        F: FnMut(&Packet) -> bool,
    {
        let deadline = self.sim.now() + timeout;
        self.drain_into_buffer();
        if let Some(pos) = self.buffer.iter().position(|r| pred(&r.pkt)) {
            return Some(self.buffer.remove(pos));
        }
        // Everything buffered so far failed `pred`; while stepping the
        // simulation, only inspect *new* arrivals instead of rescanning
        // the buffer every event.
        let mut scanned = self.buffer.len();
        loop {
            match self.sim.next_event_time() {
                Some(t) if t <= deadline => self.sim.run_until(t),
                _ => {
                    self.sim.run_until(deadline);
                    self.drain_into_buffer();
                    if let Some(pos) = self.buffer[scanned..].iter().position(|r| pred(&r.pkt)) {
                        return Some(self.buffer.remove(scanned + pos));
                    }
                    return None;
                }
            }
            if !self.queue.borrow().is_empty() {
                self.drain_into_buffer();
                if let Some(pos) = self.buffer[scanned..].iter().position(|r| pred(&r.pkt)) {
                    return Some(self.buffer.remove(scanned + pos));
                }
                scanned = self.buffer.len();
            }
        }
    }

    /// Collect up to `n` packets matching `pred` before `timeout`
    /// elapses; returns what arrived (possibly fewer).
    pub(crate) fn recv_n_where<F>(
        &mut self,
        mut pred: F,
        n: usize,
        timeout: Duration,
    ) -> Vec<RxPacket>
    where
        F: FnMut(&Packet) -> bool,
    {
        let deadline = self.sim.now() + timeout;
        let mut got = Vec::with_capacity(n);
        while got.len() < n {
            let remaining = deadline.since(self.sim.now());
            if remaining.is_zero() {
                break;
            }
            match self.recv_where(&mut pred, remaining) {
                Some(r) => got.push(r),
                None => break,
            }
        }
        got
    }

    /// Discard everything buffered (start of a fresh sample).
    pub fn flush(&mut self) {
        self.drain_into_buffer();
        self.buffer.clear();
    }

    /// Build a TCP packet from `conn`'s 4-tuple with a fresh probe IPID.
    pub(crate) fn tcp_pkt(&mut self, conn: &ClientConn) -> PacketBuilder {
        let ipid = self.alloc_ipid();
        PacketBuilder::tcp()
            .src(conn.flow.src, conn.flow.src_port)
            .dst(conn.flow.dst, conn.flow.dst_port)
            .ipid(ipid)
    }

    /// Perform a client three-way handshake with retries. Advertises
    /// `mss` and `window` (the Data Transfer Test clamps these).
    pub fn handshake(
        &mut self,
        remote: Ipv4Addr4,
        remote_port: u16,
        mss: u16,
        window: u16,
        timeout: Duration,
    ) -> Result<ClientConn, ProbeError> {
        let local_port = self.alloc_port();
        let iss = self.alloc_iss();
        let flow = FlowKey {
            src: self.local_addr,
            src_port: local_port,
            dst: remote,
            dst_port: remote_port,
        };
        for _attempt in 0..3 {
            let ipid = self.alloc_ipid();
            let syn = PacketBuilder::tcp()
                .src(flow.src, flow.src_port)
                .dst(flow.dst, flow.dst_port)
                .seq(iss)
                .flags(TcpFlags::SYN)
                .window(window)
                .option(TcpOption::Mss(mss))
                .ipid(ipid)
                .build();
            self.send(syn);
            let reply = self.recv_where(
                |p| {
                    p.flow() == Some(flow.reversed())
                        && p.tcp().is_some_and(|t| {
                            t.flags.contains(TcpFlags::SYN | TcpFlags::ACK)
                                || t.flags.contains(TcpFlags::RST)
                        })
                },
                timeout,
            );
            match reply {
                Some(r) => {
                    let tcp = r.pkt.tcp().expect("matched tcp");
                    if tcp.flags.contains(TcpFlags::RST) {
                        return Err(ProbeError::ConnectionReset);
                    }
                    if tcp.ack != iss + 1 {
                        // SYN/ACK for a stale attempt; ignore and retry.
                        continue;
                    }
                    let irs = tcp.seq;
                    let server_mss = tcp.mss().unwrap_or(536);
                    let mut conn = ClientConn {
                        flow,
                        iss,
                        irs,
                        snd_nxt: iss + 1,
                        rcv_nxt: irs + 1,
                        server_mss,
                    };
                    // Complete the handshake.
                    let ack = self
                        .tcp_pkt(&conn)
                        .seq(conn.snd_nxt)
                        .ack(conn.rcv_nxt)
                        .flags(TcpFlags::ACK)
                        .window(window)
                        .build();
                    let _ = &mut conn;
                    self.send(ack);
                    self.handshakes += 1;
                    return Ok(conn);
                }
                None => continue,
            }
        }
        Err(ProbeError::Timeout {
            waiting_for: "SYN/ACK",
        })
    }

    /// Politely close a connection: FIN, await the server's FIN, ACK it.
    /// Best-effort — errors are swallowed because teardown hygiene must
    /// not fail a measurement.
    pub fn close(&mut self, conn: &mut ClientConn, timeout: Duration) {
        let fin = self
            .tcp_pkt(conn)
            .seq(conn.snd_nxt)
            .ack(conn.rcv_nxt)
            .flags(TcpFlags::FIN | TcpFlags::ACK)
            .build();
        conn.snd_nxt = conn.snd_nxt + 1;
        self.send(fin);
        let flow = conn.flow;
        if let Some(r) = self.recv_where(
            |p| {
                p.flow() == Some(flow.reversed())
                    && p.tcp()
                        .is_some_and(|t| t.flags.intersects(TcpFlags::FIN | TcpFlags::RST))
            },
            timeout,
        ) {
            let tcp = r.pkt.tcp().expect("tcp");
            if tcp.flags.contains(TcpFlags::FIN) {
                conn.rcv_nxt = tcp.seq + 1;
                let ack = self
                    .tcp_pkt(conn)
                    .seq(conn.snd_nxt)
                    .ack(conn.rcv_nxt)
                    .flags(TcpFlags::ACK)
                    .build();
                self.send(ack);
                self.run_for(Duration::from_millis(1));
            }
        }
    }

    /// Abort a connection with a RST (used after SYN-test trials whose
    /// server side is already gone).
    pub fn abort(&mut self, conn: &ClientConn) {
        let rst = self
            .tcp_pkt(conn)
            .seq(conn.snd_nxt)
            .ack(conn.rcv_nxt)
            .flags(TcpFlags::RST | TcpFlags::ACK)
            .build();
        self.send(rst);
        self.sim.run_for(Duration::from_millis(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorder_netsim::{LinkParams, Mailbox};
    use reorder_tcpstack::{HostPersonality, TcpHost, TcpHostConfig};

    const ME: Ipv4Addr4 = Ipv4Addr4::new(10, 0, 0, 1);
    const SRV: Ipv4Addr4 = Ipv4Addr4::new(10, 0, 0, 2);

    fn prober() -> Prober {
        let mut sim = Simulator::new(1);
        let (mb, q) = Mailbox::new();
        let me = sim.add_node(Box::new(mb));
        let host = TcpHost::new(
            TcpHostConfig::web_server(SRV, HostPersonality::freebsd4()),
            sim.master_seed(),
        );
        let srv = sim.add_node(Box::new(host));
        sim.connect(me, Port(0), srv, Port(0), LinkParams::wan());
        Prober::new(sim, me, q, ME)
    }

    #[test]
    fn handshake_succeeds() {
        let mut p = prober();
        let conn = p
            .handshake(SRV, 80, 1460, 65535, Duration::from_secs(1))
            .expect("handshake");
        assert_eq!(conn.flow.dst, SRV);
        assert_eq!(conn.snd_nxt, conn.iss + 1);
        assert_eq!(conn.rcv_nxt, conn.irs + 1);
        assert_eq!(conn.server_mss, 1460);
    }

    #[test]
    fn handshake_to_closed_port_is_reset() {
        let mut p = prober();
        let err = p
            .handshake(SRV, 81, 1460, 65535, Duration::from_secs(1))
            .unwrap_err();
        assert_eq!(err, ProbeError::ConnectionReset);
    }

    #[test]
    fn handshake_to_black_hole_times_out() {
        let mut p = prober();
        // 10.0.0.9 does not exist; the host ignores wrong destinations.
        let err = p
            .handshake(
                Ipv4Addr4::new(10, 0, 0, 9),
                80,
                1460,
                65535,
                Duration::from_millis(100),
            )
            .unwrap_err();
        assert!(matches!(err, ProbeError::Timeout { .. }));
    }

    #[test]
    fn recv_where_filters_and_buffers() {
        let mut p = prober();
        let mut conn = p
            .handshake(SRV, 80, 1460, 65535, Duration::from_secs(1))
            .expect("handshake");
        // Two out-of-order probes → two dup ACKs.
        for off in [2u32, 4] {
            let pkt = p
                .tcp_pkt(&conn)
                .seq(conn.snd_nxt + off)
                .ack(conn.rcv_nxt)
                .flags(TcpFlags::ACK)
                .data(b"X".to_vec())
                .build();
            p.send(pkt);
        }
        let flow = conn.flow;
        let acks = p.recv_n_where(
            |pkt| pkt.flow() == Some(flow.reversed()),
            2,
            Duration::from_secs(1),
        );
        assert_eq!(acks.len(), 2);
        for a in &acks {
            // Both are duplicate ACKs pointing at the hole (snd_nxt).
            assert_eq!(a.pkt.tcp().unwrap().ack, conn.snd_nxt);
        }
        p.close(&mut conn, Duration::from_secs(1));
    }

    #[test]
    fn close_elicits_fin_and_cleans_up() {
        let mut p = prober();
        let mut conn = p
            .handshake(SRV, 80, 1460, 65535, Duration::from_secs(1))
            .expect("handshake");
        p.close(&mut conn, Duration::from_secs(1));
        // After close, further probes to the flow are met with RST
        // (connection is gone server-side).
        let pkt = p
            .tcp_pkt(&conn)
            .seq(conn.snd_nxt + 5)
            .ack(conn.rcv_nxt)
            .flags(TcpFlags::ACK)
            .data(b"Z".to_vec())
            .build();
        p.send(pkt);
        let flow = conn.flow;
        let r = p.recv_where(
            |pkt| {
                pkt.flow() == Some(flow.reversed())
                    && pkt.tcp().is_some_and(|t| t.flags.contains(TcpFlags::RST))
            },
            Duration::from_secs(1),
        );
        assert!(r.is_some(), "probe to closed connection should be RST");
    }

    #[test]
    fn port_and_ipid_allocation_cycle() {
        let mut p = prober();
        let a = p.alloc_port();
        let b = p.alloc_port();
        assert_ne!(a, b);
        let i1 = p.alloc_ipid();
        let i2 = p.alloc_ipid();
        assert!(i1.before(i2));
    }
}
