//! Whole-datagram model: an IPv4 header plus a typed payload, with a
//! fluent [`PacketBuilder`] used throughout the probing code.

use crate::error::WireError;
use crate::icmp::IcmpHeader;
use crate::ipid::IpId;
use crate::ipv4::{Ipv4Addr4, Ipv4Header, Protocol};
use crate::seq::SeqNum;
use crate::tcp::{TcpFlags, TcpHeader, TcpOption};
use bytes::{Bytes, BytesMut};

/// Typed payload of an IPv4 datagram.
///
/// Payload bytes are [`Bytes`]: cloning a packet (per-hop forwarding,
/// trace taps, capture snapshots) bumps a refcount instead of copying
/// the application data, so the simulation hot path stays
/// allocation-free per hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// A TCP segment: header plus application data.
    Tcp {
        /// TCP header (checksummed against the enclosing IP addresses).
        header: TcpHeader,
        /// Application payload bytes (shared, copy-on-construct).
        data: Bytes,
    },
    /// An ICMP message: header plus echo payload.
    Icmp {
        /// ICMP header.
        header: IcmpHeader,
        /// Payload bytes (shared, copy-on-construct).
        data: Bytes,
    },
    /// An uninterpreted payload (unsupported protocol).
    Raw(Bytes),
}

/// A complete IPv4 datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Network-layer header.
    pub ip: Ipv4Header,
    /// Transport payload.
    pub payload: Payload,
}

/// The 4-tuple that identifies a TCP flow — exactly the key a per-flow
/// load balancer hashes (§III-D), and the key the prober uses to match
/// replies to connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source address.
    pub src: Ipv4Addr4,
    /// Source port.
    pub src_port: u16,
    /// Destination address.
    pub dst: Ipv4Addr4,
    /// Destination port.
    pub dst_port: u16,
}

impl FlowKey {
    /// The flow key for the opposite direction.
    pub fn reversed(self) -> FlowKey {
        FlowKey {
            src: self.dst,
            src_port: self.dst_port,
            dst: self.src,
            dst_port: self.src_port,
        }
    }

    /// A stable, endianness-independent hash of the 4-tuple (FNV-1a).
    /// Load balancers use this to pin flows to backends; keeping it
    /// in-crate makes the pinning reproducible across platforms.
    pub fn stable_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for b in self.src.0 {
            feed(b);
        }
        for b in self.src_port.to_be_bytes() {
            feed(b);
        }
        for b in self.dst.0 {
            feed(b);
        }
        for b in self.dst_port.to_be_bytes() {
            feed(b);
        }
        h
    }
}

impl Packet {
    /// The flow key, if this is a TCP packet.
    pub fn flow(&self) -> Option<FlowKey> {
        match &self.payload {
            Payload::Tcp { header, .. } => Some(FlowKey {
                src: self.ip.src,
                src_port: header.src_port,
                dst: self.ip.dst,
                dst_port: header.dst_port,
            }),
            _ => None,
        }
    }

    /// The TCP header, if this is a TCP packet.
    pub fn tcp(&self) -> Option<&TcpHeader> {
        match &self.payload {
            Payload::Tcp { header, .. } => Some(header),
            _ => None,
        }
    }

    /// The TCP payload bytes, if this is a TCP packet.
    pub fn tcp_data(&self) -> Option<&[u8]> {
        match &self.payload {
            Payload::Tcp { data, .. } => Some(data),
            _ => None,
        }
    }

    /// The ICMP header, if this is an ICMP packet.
    pub fn icmp(&self) -> Option<&IcmpHeader> {
        match &self.payload {
            Payload::Icmp { header, .. } => Some(header),
            _ => None,
        }
    }

    /// Total encoded length in bytes, including the IP header. This is
    /// the length the simulator uses for serialization delay, so it must
    /// match `encode().len()` exactly (asserted by property tests).
    pub fn wire_len(&self) -> usize {
        self.ip.header_len()
            + match &self.payload {
                Payload::Tcp { header, data } => header.header_len() + data.len(),
                Payload::Icmp { data, .. } => crate::icmp::MIN_HEADER_LEN + data.len(),
                Payload::Raw(data) => data.len(),
            }
    }

    /// Encode to wire bytes with all checksums valid.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = BytesMut::with_capacity(self.wire_len());
        self.encode_into(&mut out);
        out.to_vec()
    }

    /// Encode into (the end of) `out`, reserving exactly the wire
    /// length up front. Callers on a hot path reuse one cleared buffer
    /// across packets instead of allocating per encode.
    pub(crate) fn encode_into(&self, out: &mut BytesMut) {
        out.reserve(self.wire_len());
        // Every sub-encoder appends relative to the buffer's current
        // end, so header and payload share the single reservation.
        self.ip.encode(self.wire_len() - self.ip.header_len(), out);
        match &self.payload {
            Payload::Tcp { header, data } => header.encode(self.ip.src, self.ip.dst, data, out),
            Payload::Icmp { header, data } => header.encode(data, out),
            Payload::Raw(data) => out.extend_from_slice(data),
        }
    }

    /// Decode from wire bytes, verifying every checksum.
    pub fn decode(buf: &[u8]) -> Result<Packet, WireError> {
        let (ip, total_len) = Ipv4Header::decode(buf)?;
        let body = &buf[ip.header_len()..total_len];
        let payload = match ip.protocol {
            Protocol::Tcp => {
                let (header, off) = TcpHeader::decode(body, ip.src, ip.dst)?;
                Payload::Tcp {
                    header,
                    data: Bytes::copy_from_slice(&body[off..]),
                }
            }
            Protocol::Icmp => {
                let (header, off) = IcmpHeader::decode(body)?;
                Payload::Icmp {
                    header,
                    data: Bytes::copy_from_slice(&body[off..]),
                }
            }
            Protocol::Other(_) => Payload::Raw(Bytes::copy_from_slice(body)),
        };
        Ok(Packet { ip, payload })
    }
}

/// Fluent builder for probe packets.
///
/// ```
/// use reorder_wire::{Ipv4Addr4, PacketBuilder, TcpFlags};
/// let probe = PacketBuilder::tcp()
///     .src(Ipv4Addr4::new(10, 0, 0, 1), 33000)
///     .dst(Ipv4Addr4::new(10, 0, 0, 2), 80)
///     .seq(2).ack(700)
///     .flags(TcpFlags::ACK | TcpFlags::PSH)
///     .data(b"A".to_vec())
///     .build();
/// assert_eq!(probe.tcp_data().unwrap(), b"A");
/// ```
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    ip: Ipv4Header,
    tcp: Option<TcpHeader>,
    icmp: Option<IcmpHeader>,
    data: Bytes,
}

impl PacketBuilder {
    /// Start a TCP packet.
    pub fn tcp() -> Self {
        PacketBuilder {
            ip: Ipv4Header {
                protocol: Protocol::Tcp,
                ..Ipv4Header::default()
            },
            tcp: Some(TcpHeader::default()),
            icmp: None,
            data: Bytes::new(),
        }
    }

    /// Start an ICMP echo request packet.
    pub fn icmp_echo(ident: u16, seq: u16) -> Self {
        PacketBuilder {
            ip: Ipv4Header {
                protocol: Protocol::Icmp,
                ..Ipv4Header::default()
            },
            tcp: None,
            icmp: Some(IcmpHeader::echo_request(ident, seq)),
            data: Bytes::new(),
        }
    }

    /// Set source address (and port, for TCP).
    pub fn src(mut self, addr: Ipv4Addr4, port: u16) -> Self {
        self.ip.src = addr;
        if let Some(t) = &mut self.tcp {
            t.src_port = port;
        }
        self
    }

    /// Set destination address (and port, for TCP).
    pub fn dst(mut self, addr: Ipv4Addr4, port: u16) -> Self {
        self.ip.dst = addr;
        if let Some(t) = &mut self.tcp {
            t.dst_port = port;
        }
        self
    }

    /// Set the IP identification field.
    pub fn ipid(mut self, id: impl Into<IpId>) -> Self {
        self.ip.ident = id.into();
        self
    }

    /// Set the TCP sequence number.
    pub fn seq(mut self, seq: impl Into<SeqNum>) -> Self {
        if let Some(t) = &mut self.tcp {
            t.seq = seq.into();
        }
        self
    }

    /// Set the TCP acknowledgment number (and the ACK flag).
    pub fn ack(mut self, ack: impl Into<SeqNum>) -> Self {
        if let Some(t) = &mut self.tcp {
            t.ack = ack.into();
            t.flags = t.flags.union(TcpFlags::ACK);
        }
        self
    }

    /// Set the TCP flags (replacing any previously set).
    pub fn flags(mut self, flags: TcpFlags) -> Self {
        if let Some(t) = &mut self.tcp {
            t.flags = flags;
        }
        self
    }

    /// Set the advertised receive window.
    pub fn window(mut self, window: u16) -> Self {
        if let Some(t) = &mut self.tcp {
            t.window = window;
        }
        self
    }

    /// Append a TCP option.
    pub fn option(mut self, opt: TcpOption) -> Self {
        if let Some(t) = &mut self.tcp {
            t.options.push(opt);
        }
        self
    }

    /// Set the payload bytes. Accepts owned bytes or an existing
    /// [`Bytes`] view (the latter is zero-copy, so a sender can slice
    /// one shared object buffer into many packets).
    pub fn data(mut self, data: impl Into<Bytes>) -> Self {
        self.data = data.into();
        self
    }

    /// Pad the packet payload so the total wire length is at least
    /// `target` bytes (used to study size-dependent reordering, §IV-C).
    pub fn pad_to(mut self, target: usize) -> Self {
        let tcp_hlen = self.tcp.as_ref().map_or(0, TcpHeader::header_len);
        let icmp_hlen = if self.icmp.is_some() {
            crate::icmp::MIN_HEADER_LEN
        } else {
            0
        };
        let base = self.ip.header_len() + tcp_hlen + icmp_hlen + self.data.len();
        if target > base {
            let mut grown = Vec::with_capacity(self.data.len() + target - base);
            grown.extend_from_slice(&self.data);
            grown.extend(std::iter::repeat_n(0, target - base));
            self.data = Bytes::from(grown);
        }
        self
    }

    /// Finalize into a [`Packet`].
    pub fn build(self) -> Packet {
        let payload = if let Some(header) = self.tcp {
            Payload::Tcp {
                header,
                data: self.data,
            }
        } else if let Some(header) = self.icmp {
            Payload::Icmp {
                header,
                data: self.data,
            }
        } else {
            Payload::Raw(self.data)
        };
        Packet {
            ip: self.ip,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tcp_packet() -> Packet {
        PacketBuilder::tcp()
            .src(Ipv4Addr4::new(10, 0, 0, 1), 1234)
            .dst(Ipv4Addr4::new(10, 0, 0, 2), 80)
            .seq(100)
            .ack(200)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .ipid(0x42)
            .data(b"abc".to_vec())
            .build()
    }

    #[test]
    fn tcp_roundtrip() {
        let p = tcp_packet();
        let bytes = p.encode();
        let back = Packet::decode(&bytes).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn wire_len_matches_encode() {
        let p = tcp_packet();
        assert_eq!(p.wire_len(), p.encode().len());
        let icmp = PacketBuilder::icmp_echo(1, 2)
            .src(Ipv4Addr4::new(1, 1, 1, 1), 0)
            .dst(Ipv4Addr4::new(2, 2, 2, 2), 0)
            .data(vec![0; 48])
            .build();
        assert_eq!(icmp.wire_len(), icmp.encode().len());
    }

    #[test]
    fn minimum_tcp_probe_is_40_bytes() {
        // "the other tests consist of minimum sized packets of roughly
        // 40 bytes" — a bare ACK probe must be exactly 20 + 20.
        let p = PacketBuilder::tcp()
            .src(Ipv4Addr4::new(1, 0, 0, 1), 1)
            .dst(Ipv4Addr4::new(1, 0, 0, 2), 2)
            .seq(0)
            .flags(TcpFlags::ACK)
            .build();
        assert_eq!(p.wire_len(), 40);
    }

    #[test]
    fn pad_to_grows_small_packets_only() {
        let p = PacketBuilder::tcp()
            .src(Ipv4Addr4::new(1, 0, 0, 1), 1)
            .dst(Ipv4Addr4::new(1, 0, 0, 2), 2)
            .pad_to(1500)
            .build();
        assert_eq!(p.wire_len(), 1500);
        let q = PacketBuilder::tcp()
            .src(Ipv4Addr4::new(1, 0, 0, 1), 1)
            .dst(Ipv4Addr4::new(1, 0, 0, 2), 2)
            .data(vec![0; 100])
            .pad_to(40)
            .build();
        assert_eq!(q.wire_len(), 140);
    }

    #[test]
    fn flow_key_and_reverse() {
        let p = tcp_packet();
        let f = p.flow().unwrap();
        assert_eq!(f.src_port, 1234);
        assert_eq!(f.dst_port, 80);
        let r = f.reversed();
        assert_eq!(r.src, f.dst);
        assert_eq!(r.dst_port, 1234);
        assert_eq!(r.reversed(), f);
    }

    #[test]
    fn stable_hash_distinguishes_ports() {
        let p = tcp_packet();
        let f = p.flow().unwrap();
        let mut g = f;
        g.src_port += 1;
        assert_ne!(f.stable_hash(), g.stable_hash());
        assert_eq!(f.stable_hash(), f.stable_hash());
    }

    #[test]
    fn icmp_roundtrip() {
        let p = PacketBuilder::icmp_echo(77, 3)
            .src(Ipv4Addr4::new(9, 9, 9, 9), 0)
            .dst(Ipv4Addr4::new(8, 8, 8, 8), 0)
            .ipid(900)
            .data(vec![1, 2, 3, 4])
            .build();
        let back = Packet::decode(&p.encode()).unwrap();
        assert_eq!(back, p);
        assert!(back.flow().is_none());
        assert_eq!(back.icmp().unwrap().ident, 77);
    }

    #[test]
    fn accessors_none_for_wrong_protocol() {
        let p = PacketBuilder::icmp_echo(1, 1).build();
        assert!(p.tcp().is_none());
        assert!(p.tcp_data().is_none());
        let t = tcp_packet();
        assert!(t.icmp().is_none());
    }
}
