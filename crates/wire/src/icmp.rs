//! ICMP echo request/reply (RFC 792) — the probe primitive of the
//! Bennett et al. baseline that this paper's techniques supersede.

use crate::checksum;
use crate::error::WireError;
use bytes::{BufMut, BytesMut};

/// Minimum ICMP header length (echo messages).
pub(crate) const MIN_HEADER_LEN: usize = 8;

/// ICMP message types this toolkit understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpType {
    /// Echo reply (0).
    EchoReply,
    /// Echo request (8).
    EchoRequest,
    /// Destination unreachable (3); carried opaquely.
    DestUnreachable,
    /// Any other type.
    Other(u8),
}

impl IcmpType {
    /// Wire value.
    pub(crate) fn to_u8(self) -> u8 {
        match self {
            IcmpType::EchoReply => 0,
            IcmpType::DestUnreachable => 3,
            IcmpType::EchoRequest => 8,
            IcmpType::Other(v) => v,
        }
    }

    /// From wire value.
    pub(crate) fn from_u8(v: u8) -> Self {
        match v {
            0 => IcmpType::EchoReply,
            3 => IcmpType::DestUnreachable,
            8 => IcmpType::EchoRequest,
            other => IcmpType::Other(other),
        }
    }
}

/// An ICMP echo-style message header. For echo request/reply the
/// rest-of-header is (identifier, sequence); for other types the two
/// 16-bit words are carried through uninterpreted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpHeader {
    /// Message type.
    pub icmp_type: IcmpType,
    /// Code (0 for echo).
    pub code: u8,
    /// Identifier (echo) or first rest-of-header word.
    pub ident: u16,
    /// Sequence number (echo) or second rest-of-header word. The Bennett
    /// baseline orders replies by this field.
    pub seq: u16,
}

impl IcmpHeader {
    /// Build an echo request with the given identifier and sequence.
    pub(crate) fn echo_request(ident: u16, seq: u16) -> Self {
        IcmpHeader {
            icmp_type: IcmpType::EchoRequest,
            code: 0,
            ident,
            seq,
        }
    }

    /// Build the matching echo reply.
    pub fn reply_to(&self) -> Self {
        IcmpHeader {
            icmp_type: IcmpType::EchoReply,
            code: 0,
            ident: self.ident,
            seq: self.seq,
        }
    }

    /// Encode header + payload with a valid checksum.
    pub fn encode(&self, payload: &[u8], out: &mut BytesMut) {
        let start = out.len();
        out.put_u8(self.icmp_type.to_u8());
        out.put_u8(self.code);
        out.put_u16(0); // checksum placeholder
        out.put_u16(self.ident);
        out.put_u16(self.seq);
        out.put_slice(payload);
        let ck = checksum::internet(&out[start..]);
        out[start + 2..start + 4].copy_from_slice(&ck.to_be_bytes());
    }

    /// Decode from `buf` (spanning the whole ICMP message). Returns the
    /// header and payload offset. Verifies the checksum.
    pub fn decode(buf: &[u8]) -> Result<(IcmpHeader, usize), WireError> {
        if buf.len() < MIN_HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "icmp",
                needed: MIN_HEADER_LEN,
                available: buf.len(),
            });
        }
        if checksum::internet(buf) != 0 {
            let carried = u16::from_be_bytes([buf[2], buf[3]]);
            let mut zeroed = buf.to_vec();
            zeroed[2] = 0;
            zeroed[3] = 0;
            return Err(WireError::BadChecksum {
                layer: "icmp",
                expected: carried,
                computed: checksum::internet(&zeroed),
            });
        }
        Ok((
            IcmpHeader {
                icmp_type: IcmpType::from_u8(buf[0]),
                code: buf[1],
                ident: u16::from_be_bytes([buf[4], buf[5]]),
                seq: u16::from_be_bytes([buf[6], buf[7]]),
            },
            MIN_HEADER_LEN,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_roundtrip() {
        let h = IcmpHeader::echo_request(0x1234, 7);
        let mut buf = BytesMut::new();
        h.encode(b"ping-payload", &mut buf);
        let (back, off) = IcmpHeader::decode(&buf).unwrap();
        assert_eq!(back, h);
        assert_eq!(&buf[off..], b"ping-payload");
    }

    #[test]
    fn reply_mirrors_request() {
        let req = IcmpHeader::echo_request(42, 99);
        let rep = req.reply_to();
        assert_eq!(rep.icmp_type, IcmpType::EchoReply);
        assert_eq!(rep.ident, 42);
        assert_eq!(rep.seq, 99);
    }

    #[test]
    fn corruption_detected() {
        let h = IcmpHeader::echo_request(1, 2);
        let mut buf = BytesMut::new();
        h.encode(&[], &mut buf);
        buf[6] ^= 0x01;
        assert!(matches!(
            IcmpHeader::decode(&buf),
            Err(WireError::BadChecksum { layer: "icmp", .. })
        ));
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            IcmpHeader::decode(&[8, 0, 0]),
            Err(WireError::Truncated { layer: "icmp", .. })
        ));
    }

    #[test]
    fn type_wire_values() {
        for t in [
            IcmpType::EchoReply,
            IcmpType::EchoRequest,
            IcmpType::DestUnreachable,
            IcmpType::Other(0x7f),
        ] {
            assert_eq!(IcmpType::from_u8(t.to_u8()), t);
        }
    }
}
