//! TCP header encode/decode (RFC 793), including the options the
//! measurement tools read or clamp (MSS, window scale, SACK, timestamps).
//!
//! The TCP checksum covers a pseudo-header, so encoding and verification
//! take the IP source/destination addresses as parameters.

use crate::checksum::Accumulator;
use crate::error::WireError;
use crate::ipv4::Ipv4Addr4;
use crate::seq::SeqNum;
use bytes::{BufMut, BytesMut};
use std::fmt;

/// Minimum TCP header length (no options).
pub(crate) const MIN_HEADER_LEN: usize = 20;

/// TCP flag bits.
///
/// A tiny bitflags implementation — pulled in-crate to stay within the
/// allowed dependency set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// No flags set.
    pub const EMPTY: TcpFlags = TcpFlags(0);
    /// FIN: sender is done sending.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: acknowledgment field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG: urgent pointer is significant.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// Set union.
    pub const fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    /// Whether every flag in `other` is set in `self`.
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether any flag in `other` is set in `self`.
    pub const fn intersects(self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        self.union(rhs)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::URG, "URG"),
        ];
        let mut first = true;
        for (bit, name) in names {
            if self.contains(bit) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// A decoded TCP option.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpOption {
    /// Maximum segment size (kind 2). The Data Transfer Test advertises a
    /// clamped MSS to force small segments.
    Mss(u16),
    /// Window scale shift (kind 3).
    WindowScale(u8),
    /// SACK permitted (kind 4).
    SackPermitted,
    /// SACK blocks (kind 5) — used by the Bennett-style baseline metric.
    Sack(Vec<(SeqNum, SeqNum)>),
    /// Timestamps (kind 8): TSval, TSecr.
    Timestamp(u32, u32),
    /// Any other option, carried opaquely (kind, payload).
    Unknown(u8, Vec<u8>),
}

impl TcpOption {
    fn encoded_len(&self) -> usize {
        match self {
            TcpOption::Mss(_) => 4,
            TcpOption::WindowScale(_) => 3,
            TcpOption::SackPermitted => 2,
            TcpOption::Sack(blocks) => 2 + blocks.len() * 8,
            TcpOption::Timestamp(..) => 10,
            TcpOption::Unknown(_, data) => 2 + data.len(),
        }
    }

    fn encode(&self, out: &mut BytesMut) {
        match self {
            TcpOption::Mss(mss) => {
                out.put_u8(2);
                out.put_u8(4);
                out.put_u16(*mss);
            }
            TcpOption::WindowScale(shift) => {
                out.put_u8(3);
                out.put_u8(3);
                out.put_u8(*shift);
            }
            TcpOption::SackPermitted => {
                out.put_u8(4);
                out.put_u8(2);
            }
            TcpOption::Sack(blocks) => {
                out.put_u8(5);
                out.put_u8((2 + blocks.len() * 8) as u8);
                for (left, right) in blocks {
                    out.put_u32(left.raw());
                    out.put_u32(right.raw());
                }
            }
            TcpOption::Timestamp(val, ecr) => {
                out.put_u8(8);
                out.put_u8(10);
                out.put_u32(*val);
                out.put_u32(*ecr);
            }
            TcpOption::Unknown(kind, data) => {
                out.put_u8(*kind);
                out.put_u8((2 + data.len()) as u8);
                out.put_slice(data);
            }
        }
    }
}

/// A decoded TCP header plus its options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: SeqNum,
    /// Acknowledgment number (meaningful when ACK flag set).
    pub ack: SeqNum,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Advertised receive window (unscaled wire value).
    pub window: u16,
    /// Urgent pointer (carried, unused by this toolkit).
    pub urgent: u16,
    /// Options in wire order.
    pub options: Vec<TcpOption>,
}

impl Default for TcpHeader {
    fn default() -> Self {
        TcpHeader {
            src_port: 0,
            dst_port: 0,
            seq: SeqNum(0),
            ack: SeqNum(0),
            flags: TcpFlags::EMPTY,
            window: 65535,
            urgent: 0,
            options: Vec::new(),
        }
    }
}

impl TcpHeader {
    /// Length of the encoded header including padded options.
    pub fn header_len(&self) -> usize {
        let opt_len: usize = self.options.iter().map(TcpOption::encoded_len).sum();
        MIN_HEADER_LEN + opt_len.div_ceil(4) * 4
    }

    /// Find the MSS option, if present.
    pub fn mss(&self) -> Option<u16> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Mss(v) => Some(*v),
            _ => None,
        })
    }

    /// Find the SACK blocks, if present.
    #[cfg(test)]
    pub(crate) fn sack_blocks(&self) -> Option<&[(SeqNum, SeqNum)]> {
        self.options.iter().find_map(|o| match o {
            TcpOption::Sack(blocks) => Some(blocks.as_slice()),
            _ => None,
        })
    }

    /// Encode header + `payload` with a valid checksum over the
    /// pseudo-header for `src`/`dst`.
    pub fn encode(&self, src: Ipv4Addr4, dst: Ipv4Addr4, payload: &[u8], out: &mut BytesMut) {
        let hlen = self.header_len();
        debug_assert!(hlen / 4 <= 0xf, "too many TCP options");
        let start = out.len();
        out.put_u16(self.src_port);
        out.put_u16(self.dst_port);
        out.put_u32(self.seq.raw());
        out.put_u32(self.ack.raw());
        out.put_u8(((hlen / 4) as u8) << 4);
        out.put_u8(self.flags.0);
        out.put_u16(self.window);
        out.put_u16(0); // checksum placeholder
        out.put_u16(self.urgent);
        for opt in &self.options {
            opt.encode(out);
        }
        // Pad options to a 4-byte boundary with EOL (0).
        while !(out.len() - start).is_multiple_of(4) {
            out.put_u8(0);
        }
        out.put_slice(payload);

        let seg_len = out.len() - start;
        let mut acc = Accumulator::new();
        pseudo_header(&mut acc, src, dst, seg_len);
        acc.add_bytes(&out[start..]);
        let ck = acc.finish();
        out[start + 16..start + 18].copy_from_slice(&ck.to_be_bytes());
    }

    /// Decode a TCP segment (`buf` spans exactly the TCP header +
    /// payload). Returns the header and the payload offset. The checksum
    /// is verified against the pseudo-header.
    pub fn decode(
        buf: &[u8],
        src: Ipv4Addr4,
        dst: Ipv4Addr4,
    ) -> Result<(TcpHeader, usize), WireError> {
        if buf.len() < MIN_HEADER_LEN {
            return Err(WireError::Truncated {
                layer: "tcp",
                needed: MIN_HEADER_LEN,
                available: buf.len(),
            });
        }
        let data_off = usize::from(buf[12] >> 4) * 4;
        if data_off < MIN_HEADER_LEN {
            return Err(WireError::BadField {
                layer: "tcp",
                field: "data_offset",
                value: (data_off / 4) as u32,
            });
        }
        if buf.len() < data_off {
            return Err(WireError::Truncated {
                layer: "tcp",
                needed: data_off,
                available: buf.len(),
            });
        }
        // Verify checksum over pseudo-header + whole segment.
        let mut acc = Accumulator::new();
        pseudo_header(&mut acc, src, dst, buf.len());
        acc.add_bytes(buf);
        if acc.finish() != 0 {
            let carried = u16::from_be_bytes([buf[16], buf[17]]);
            let mut zeroed = buf.to_vec();
            zeroed[16] = 0;
            zeroed[17] = 0;
            let mut acc = Accumulator::new();
            pseudo_header(&mut acc, src, dst, buf.len());
            acc.add_bytes(&zeroed);
            return Err(WireError::BadChecksum {
                layer: "tcp",
                expected: carried,
                computed: acc.finish(),
            });
        }
        let options = decode_options(&buf[MIN_HEADER_LEN..data_off])?;
        Ok((
            TcpHeader {
                src_port: u16::from_be_bytes([buf[0], buf[1]]),
                dst_port: u16::from_be_bytes([buf[2], buf[3]]),
                seq: SeqNum(u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]])),
                ack: SeqNum(u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]])),
                flags: TcpFlags(buf[13] & 0x3f),
                window: u16::from_be_bytes([buf[14], buf[15]]),
                urgent: u16::from_be_bytes([buf[18], buf[19]]),
                options,
            },
            data_off,
        ))
    }
}

fn pseudo_header(acc: &mut Accumulator, src: Ipv4Addr4, dst: Ipv4Addr4, seg_len: usize) {
    acc.add_u32(src.to_u32());
    acc.add_u32(dst.to_u32());
    acc.add_u16(6); // protocol TCP
    acc.add_u16(seg_len as u16);
}

fn decode_options(mut buf: &[u8]) -> Result<Vec<TcpOption>, WireError> {
    let mut opts = Vec::new();
    while let Some((&kind, rest)) = buf.split_first() {
        match kind {
            0 => break, // EOL: remainder is padding
            1 => {
                buf = rest; // NOP — not materialized; it's pure padding
                continue;
            }
            _ => {}
        }
        let Some(&len) = rest.first() else {
            return Err(WireError::BadOption { kind, len: 0 });
        };
        let len = usize::from(len);
        if len < 2 || buf.len() < len {
            return Err(WireError::BadOption {
                kind,
                len: len as u8,
            });
        }
        let body = &buf[2..len];
        let opt = match (kind, body.len()) {
            (2, 2) => TcpOption::Mss(u16::from_be_bytes([body[0], body[1]])),
            (3, 1) => TcpOption::WindowScale(body[0]),
            (4, 0) => TcpOption::SackPermitted,
            (5, n) if n % 8 == 0 => {
                let blocks = body
                    .chunks_exact(8)
                    .map(|c| {
                        (
                            SeqNum(u32::from_be_bytes([c[0], c[1], c[2], c[3]])),
                            SeqNum(u32::from_be_bytes([c[4], c[5], c[6], c[7]])),
                        )
                    })
                    .collect();
                TcpOption::Sack(blocks)
            }
            (8, 8) => TcpOption::Timestamp(
                u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
            ),
            (2 | 3 | 4 | 5 | 8, _) => {
                return Err(WireError::BadOption {
                    kind,
                    len: len as u8,
                })
            }
            _ => TcpOption::Unknown(kind, body.to_vec()),
        };
        opts.push(opt);
        buf = &buf[len..];
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr4 = Ipv4Addr4::new(1, 2, 3, 4);
    const DST: Ipv4Addr4 = Ipv4Addr4::new(5, 6, 7, 8);

    fn sample() -> TcpHeader {
        TcpHeader {
            src_port: 4321,
            dst_port: 80,
            seq: SeqNum(0xdead_beef),
            ack: SeqNum(0x0102_0304),
            flags: TcpFlags::SYN | TcpFlags::ACK,
            window: 8192,
            urgent: 0,
            options: vec![
                TcpOption::Mss(536),
                TcpOption::SackPermitted,
                TcpOption::WindowScale(3),
            ],
        }
    }

    #[test]
    fn roundtrip_with_options_and_payload() {
        let h = sample();
        let mut buf = BytesMut::new();
        h.encode(SRC, DST, b"hello", &mut buf);
        let (back, off) = TcpHeader::decode(&buf, SRC, DST).unwrap();
        assert_eq!(back, h);
        assert_eq!(&buf[off..], b"hello");
    }

    #[test]
    fn roundtrip_no_options() {
        let h = TcpHeader {
            options: vec![],
            ..sample()
        };
        let mut buf = BytesMut::new();
        h.encode(SRC, DST, &[], &mut buf);
        assert_eq!(buf.len(), MIN_HEADER_LEN);
        let (back, off) = TcpHeader::decode(&buf, SRC, DST).unwrap();
        assert_eq!(back, h);
        assert_eq!(off, MIN_HEADER_LEN);
    }

    #[test]
    fn checksum_binds_pseudo_header() {
        let h = sample();
        let mut buf = BytesMut::new();
        h.encode(SRC, DST, b"x", &mut buf);
        // Decoding with a different destination must fail the checksum.
        assert!(matches!(
            TcpHeader::decode(&buf, SRC, Ipv4Addr4::new(9, 9, 9, 9)),
            Err(WireError::BadChecksum { layer: "tcp", .. })
        ));
    }

    #[test]
    fn checksum_detects_payload_corruption() {
        let h = sample();
        let mut buf = BytesMut::new();
        h.encode(SRC, DST, b"payload", &mut buf);
        let n = buf.len();
        buf[n - 1] ^= 0x40;
        assert!(matches!(
            TcpHeader::decode(&buf, SRC, DST),
            Err(WireError::BadChecksum { .. })
        ));
    }

    #[test]
    fn sack_blocks_roundtrip() {
        let h = TcpHeader {
            options: vec![TcpOption::Sack(vec![
                (SeqNum(100), SeqNum(200)),
                (SeqNum(300), SeqNum(400)),
            ])],
            ..sample()
        };
        let mut buf = BytesMut::new();
        h.encode(SRC, DST, &[], &mut buf);
        let (back, _) = TcpHeader::decode(&buf, SRC, DST).unwrap();
        assert_eq!(
            back.sack_blocks().unwrap(),
            &[(SeqNum(100), SeqNum(200)), (SeqNum(300), SeqNum(400))]
        );
    }

    #[test]
    fn timestamp_roundtrip() {
        let h = TcpHeader {
            options: vec![TcpOption::Timestamp(0x11223344, 0x55667788)],
            ..sample()
        };
        let mut buf = BytesMut::new();
        h.encode(SRC, DST, &[], &mut buf);
        let (back, _) = TcpHeader::decode(&buf, SRC, DST).unwrap();
        assert_eq!(back.options, h.options);
    }

    #[test]
    fn unknown_option_roundtrip() {
        let h = TcpHeader {
            options: vec![TcpOption::Unknown(0xfe, vec![1, 2, 3])],
            ..sample()
        };
        let mut buf = BytesMut::new();
        h.encode(SRC, DST, &[], &mut buf);
        let (back, _) = TcpHeader::decode(&buf, SRC, DST).unwrap();
        assert_eq!(back.options, h.options);
    }

    #[test]
    fn malformed_option_len_rejected() {
        let h = TcpHeader {
            options: vec![],
            ..sample()
        };
        let mut buf = BytesMut::new();
        h.encode(SRC, DST, &[], &mut buf);
        // Manually splice a bad option: claim data_offset includes 4 bytes
        // of options, put kind=2 len=10 (truncated).
        let mut raw = buf.to_vec();
        raw[12] = 6 << 4; // 24-byte header
        raw.splice(20..20, [2u8, 10, 0, 0]);
        // Fix checksum so we reach option parsing.
        raw[16] = 0;
        raw[17] = 0;
        let mut acc = Accumulator::new();
        super::pseudo_header(&mut acc, SRC, DST, raw.len());
        acc.add_bytes(&raw);
        let ck = acc.finish();
        raw[16..18].copy_from_slice(&ck.to_be_bytes());
        assert!(matches!(
            TcpHeader::decode(&raw, SRC, DST),
            Err(WireError::BadOption { kind: 2, .. })
        ));
    }

    #[test]
    fn flags_display() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::EMPTY.to_string(), "-");
        assert_eq!(TcpFlags::RST.to_string(), "RST");
    }

    #[test]
    fn flags_set_ops() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN));
        assert!(f.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert!(!f.contains(TcpFlags::RST));
        assert!(f.intersects(TcpFlags::ACK | TcpFlags::RST));
        assert!(!f.intersects(TcpFlags::FIN));
    }

    #[test]
    fn mss_accessor() {
        assert_eq!(sample().mss(), Some(536));
        let h = TcpHeader {
            options: vec![],
            ..sample()
        };
        assert_eq!(h.mss(), None);
    }
}
