//! IPv4 header encode/decode (RFC 791).
//!
//! Only the fields the measurement tools exercise are modeled richly
//! (identification, flags/fragment offset, protocol, TTL, addresses);
//! options are carried opaquely. Decoding verifies the header checksum.

use crate::checksum;
use crate::error::WireError;
use crate::ipid::IpId;
use bytes::{BufMut, BytesMut};
use std::fmt;

/// Minimum (and, without options, actual) IPv4 header length in bytes.
pub(crate) const MIN_HEADER_LEN: usize = 20;

/// An IPv4 address. A thin wrapper (rather than `std::net::Ipv4Addr`) so
/// the simulator can treat addresses as plain keys and construct them in
/// `const` contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv4Addr4(pub [u8; 4]);

impl Ipv4Addr4 {
    /// Build from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr4([a, b, c, d])
    }

    /// The unspecified address 0.0.0.0.
    pub(crate) const UNSPECIFIED: Ipv4Addr4 = Ipv4Addr4([0; 4]);

    /// Big-endian u32 form (useful for hashing and checksums).
    pub const fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }
}

impl fmt::Display for Ipv4Addr4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// IP protocol numbers this toolkit understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// ICMP (1), used by the Bennett baseline.
    Icmp,
    /// TCP (6), used by all four measurement tests.
    Tcp,
    /// Anything else, carried opaquely.
    Other(u8),
}

impl Protocol {
    /// Wire value.
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Other(v) => v,
        }
    }

    /// From wire value.
    pub(crate) fn from_u8(v: u8) -> Self {
        match v {
            1 => Protocol::Icmp,
            6 => Protocol::Tcp,
            other => Protocol::Other(other),
        }
    }
}

/// A decoded IPv4 header (options carried opaquely, rarely present).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services byte.
    pub dscp_ecn: u8,
    /// Identification field — the star of the Dual Connection Test.
    pub ident: IpId,
    /// Don't-fragment flag.
    pub dont_frag: bool,
    /// More-fragments flag.
    pub more_frags: bool,
    /// Fragment offset in 8-byte units.
    pub frag_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub protocol: Protocol,
    /// Source address.
    pub src: Ipv4Addr4,
    /// Destination address.
    pub dst: Ipv4Addr4,
    /// Raw options bytes (already padded to a multiple of 4).
    pub options: Vec<u8>,
}

impl Default for Ipv4Header {
    fn default() -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            ident: IpId(0),
            dont_frag: true,
            more_frags: false,
            frag_offset: 0,
            ttl: 64,
            protocol: Protocol::Tcp,
            src: Ipv4Addr4::UNSPECIFIED,
            dst: Ipv4Addr4::UNSPECIFIED,
            options: Vec::new(),
        }
    }
}

impl Ipv4Header {
    /// Header length in bytes (20 + options).
    pub(crate) fn header_len(&self) -> usize {
        MIN_HEADER_LEN + self.options.len()
    }

    /// Encode this header followed by nothing; `payload_len` sets the
    /// total-length field. The checksum is computed and written.
    pub fn encode(&self, payload_len: usize, out: &mut BytesMut) {
        let hlen = self.header_len();
        debug_assert_eq!(hlen % 4, 0, "options must be padded");
        debug_assert!(hlen / 4 <= 0xf, "header too long");
        let total_len = hlen + payload_len;
        debug_assert!(total_len <= 0xffff, "datagram too long");

        let start = out.len();
        out.put_u8(0x40 | (hlen / 4) as u8);
        out.put_u8(self.dscp_ecn);
        out.put_u16(total_len as u16);
        out.put_u16(self.ident.raw());
        let mut flags_frag = self.frag_offset & 0x1fff;
        if self.dont_frag {
            flags_frag |= 0x4000;
        }
        if self.more_frags {
            flags_frag |= 0x2000;
        }
        out.put_u16(flags_frag);
        out.put_u8(self.ttl);
        out.put_u8(self.protocol.to_u8());
        out.put_u16(0); // checksum placeholder
        out.put_slice(&self.src.0);
        out.put_slice(&self.dst.0);
        out.put_slice(&self.options);

        let ck = checksum::internet(&out[start..start + hlen]);
        out[start + 10..start + 12].copy_from_slice(&ck.to_be_bytes());
    }

    /// Decode a header from the front of `buf`. Returns the header and
    /// the *total length* field value, so the caller can locate the
    /// payload (`&buf[header_len..total_len]`). Verifies the checksum.
    pub fn decode(buf: &[u8]) -> Result<(Ipv4Header, usize), WireError> {
        if buf.len() < MIN_HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "ipv4",
                needed: MIN_HEADER_LEN,
                available: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(WireError::BadField {
                layer: "ipv4",
                field: "version",
                value: u32::from(version),
            });
        }
        let hlen = usize::from(buf[0] & 0x0f) * 4;
        if hlen < MIN_HEADER_LEN {
            return Err(WireError::BadField {
                layer: "ipv4",
                field: "ihl",
                value: (hlen / 4) as u32,
            });
        }
        if buf.len() < hlen {
            return Err(WireError::Truncated {
                layer: "ipv4",
                needed: hlen,
                available: buf.len(),
            });
        }
        let carried = u16::from_be_bytes([buf[10], buf[11]]);
        let computed = checksum::internet(&buf[..hlen]);
        if computed != 0 {
            // Recompute what the checksum *should* be for the error report.
            let mut zeroed = buf[..hlen].to_vec();
            zeroed[10] = 0;
            zeroed[11] = 0;
            return Err(WireError::BadChecksum {
                layer: "ipv4",
                expected: carried,
                computed: checksum::internet(&zeroed),
            });
        }
        let total_len = usize::from(u16::from_be_bytes([buf[2], buf[3]]));
        if total_len < hlen {
            return Err(WireError::BadField {
                layer: "ipv4",
                field: "total_length",
                value: total_len as u32,
            });
        }
        if buf.len() < total_len {
            return Err(WireError::Truncated {
                layer: "ipv4",
                needed: total_len,
                available: buf.len(),
            });
        }
        let flags_frag = u16::from_be_bytes([buf[6], buf[7]]);
        Ok((
            Ipv4Header {
                dscp_ecn: buf[1],
                ident: IpId(u16::from_be_bytes([buf[4], buf[5]])),
                dont_frag: flags_frag & 0x4000 != 0,
                more_frags: flags_frag & 0x2000 != 0,
                frag_offset: flags_frag & 0x1fff,
                ttl: buf[8],
                protocol: Protocol::from_u8(buf[9]),
                src: Ipv4Addr4([buf[12], buf[13], buf[14], buf[15]]),
                dst: Ipv4Addr4([buf[16], buf[17], buf[18], buf[19]]),
                options: buf[MIN_HEADER_LEN..hlen].to_vec(),
            },
            total_len,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header {
            dscp_ecn: 0x10,
            ident: IpId(0xabcd),
            dont_frag: true,
            more_frags: false,
            frag_offset: 0,
            ttl: 57,
            protocol: Protocol::Tcp,
            src: Ipv4Addr4::new(10, 1, 2, 3),
            dst: Ipv4Addr4::new(192, 168, 0, 9),
            options: Vec::new(),
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let mut buf = BytesMut::new();
        h.encode(11, &mut buf);
        buf.put_slice(&[0u8; 11]); // payload
        let (back, total) = Ipv4Header::decode(&buf).unwrap();
        assert_eq!(back, h);
        assert_eq!(total, 31);
    }

    #[test]
    fn checksum_detects_corruption() {
        let h = sample();
        let mut buf = BytesMut::new();
        h.encode(0, &mut buf);
        buf[8] ^= 0xff; // flip TTL
        match Ipv4Header::decode(&buf) {
            Err(WireError::BadChecksum { layer: "ipv4", .. }) => {}
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_short_buffer() {
        assert!(matches!(
            Ipv4Header::decode(&[0x45; 5]),
            Err(WireError::Truncated { layer: "ipv4", .. })
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = BytesMut::new();
        sample().encode(0, &mut buf);
        buf[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Header::decode(&buf),
            Err(WireError::BadField {
                field: "version",
                ..
            })
        ));
    }

    #[test]
    fn rejects_bad_ihl() {
        let mut buf = BytesMut::new();
        sample().encode(0, &mut buf);
        buf[0] = 0x44; // ihl = 16 bytes < 20
        assert!(matches!(
            Ipv4Header::decode(&buf),
            Err(WireError::BadField { field: "ihl", .. })
        ));
    }

    #[test]
    fn total_length_shorter_than_buffer_is_honored() {
        // Ethernet-style trailing padding: decode reports the true total.
        let h = sample();
        let mut buf = BytesMut::new();
        h.encode(4, &mut buf);
        buf.put_slice(&[1, 2, 3, 4]);
        buf.put_slice(&[0u8; 7]); // padding
        let (_, total) = Ipv4Header::decode(&buf).unwrap();
        assert_eq!(total, 24);
    }

    #[test]
    fn options_roundtrip() {
        let mut h = sample();
        h.options = vec![1, 1, 1, 1]; // four NOPs
        let mut buf = BytesMut::new();
        h.encode(0, &mut buf);
        let (back, _) = Ipv4Header::decode(&buf).unwrap();
        assert_eq!(back.options, vec![1, 1, 1, 1]);
        assert_eq!(back.header_len(), 24);
    }

    #[test]
    fn fragment_fields_roundtrip() {
        let mut h = sample();
        h.dont_frag = false;
        h.more_frags = true;
        h.frag_offset = 0x123;
        let mut buf = BytesMut::new();
        h.encode(0, &mut buf);
        let (back, _) = Ipv4Header::decode(&buf).unwrap();
        assert!(!back.dont_frag);
        assert!(back.more_frags);
        assert_eq!(back.frag_offset, 0x123);
    }

    #[test]
    fn addr_display_and_u32() {
        let a = Ipv4Addr4::new(1, 2, 3, 4);
        assert_eq!(a.to_string(), "1.2.3.4");
        assert_eq!(a.to_u32(), 0x0102_0304);
    }
}
