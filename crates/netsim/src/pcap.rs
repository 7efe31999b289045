//! Classic libpcap export of capture traces, so simulated measurement
//! runs can be inspected in Wireshark/tcpdump exactly like the authors'
//! router traces. Uses the original pcap format (magic `0xa1b2c3d4`)
//! with `LINKTYPE_RAW` (101): each record is a bare IPv4 datagram.

use crate::capture::{Trace, TraceRecord};
use bytes::{BufMut, BytesMut};

/// pcap global-header magic, native byte order, microsecond timestamps.
const MAGIC: u32 = 0xa1b2_c3d4;
/// LINKTYPE_RAW: packets begin with the IP header.
const LINKTYPE_RAW: u32 = 101;
/// Generous snap length (we never truncate).
const SNAPLEN: u32 = 65_535;

/// Serialize a trace to pcap bytes (records in trace order).
pub(crate) fn to_pcap_bytes(trace: &Trace) -> Vec<u8> {
    let mut out = BytesMut::with_capacity(24 + trace.0.len() * 64);
    out.put_u32_le(MAGIC);
    out.put_u16_le(2); // version major
    out.put_u16_le(4); // version minor
    out.put_i32_le(0); // thiszone
    out.put_u32_le(0); // sigfigs
    out.put_u32_le(SNAPLEN);
    out.put_u32_le(LINKTYPE_RAW);
    for rec in &trace.0 {
        put_record(&mut out, rec);
    }
    out.to_vec()
}

fn put_record(out: &mut BytesMut, rec: &TraceRecord) {
    let bytes = rec.pkt.encode();
    let us = rec.time.as_nanos() / 1_000;
    out.put_u32_le((us / 1_000_000) as u32); // ts_sec
    out.put_u32_le((us % 1_000_000) as u32); // ts_usec
    out.put_u32_le(bytes.len() as u32); // incl_len
    out.put_u32_le(bytes.len() as u32); // orig_len
    out.put_slice(&bytes);
}

/// Write a trace to a pcap file.
pub fn write_pcap(trace: &Trace, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, to_pcap_bytes(trace))
}

/// Minimal pcap reader (for round-trip tests and for re-analyzing
/// exported traces): returns `(timestamp_micros, packet_bytes)` pairs.
pub fn parse_pcap(bytes: &[u8]) -> Result<Vec<(u64, Vec<u8>)>, String> {
    if bytes.len() < 24 {
        return Err("truncated global header".into());
    }
    let magic = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    if magic != MAGIC {
        return Err(format!("bad magic {magic:#x}"));
    }
    let linktype = u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]);
    if linktype != LINKTYPE_RAW {
        return Err(format!("unexpected linktype {linktype}"));
    }
    let mut records = Vec::new();
    let mut off = 24;
    while off < bytes.len() {
        if bytes.len() - off < 16 {
            return Err("truncated record header".into());
        }
        let f = |i: usize| {
            u32::from_le_bytes([
                bytes[off + i],
                bytes[off + i + 1],
                bytes[off + i + 2],
                bytes[off + i + 3],
            ])
        };
        let ts_sec = u64::from(f(0));
        let ts_usec = u64::from(f(4));
        let incl = f(8) as usize;
        off += 16;
        if bytes.len() - off < incl {
            return Err("truncated record body".into());
        }
        records.push((
            ts_sec * 1_000_000 + ts_usec,
            bytes[off..off + incl].to_vec(),
        ));
        off += incl;
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::Dir;
    use crate::engine::{NodeId, Port};
    use crate::time::SimTime;
    use reorder_wire::{Ipv4Addr4, Packet, PacketBuilder, TcpFlags};

    fn rec(seq: u32, t_us: u64) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_micros(t_us),
            node: NodeId(0),
            port: Port(0),
            dir: Dir::Rx,
            pkt: PacketBuilder::tcp()
                .src(Ipv4Addr4::new(10, 0, 0, 1), 1000)
                .dst(Ipv4Addr4::new(10, 0, 0, 2), 80)
                .seq(seq)
                .flags(TcpFlags::ACK)
                .data(b"x".to_vec())
                .build(),
        }
    }

    #[test]
    fn global_header_layout() {
        let bytes = to_pcap_bytes(&Trace(vec![]));
        assert_eq!(bytes.len(), 24);
        assert_eq!(&bytes[0..4], &0xa1b2_c3d4u32.to_le_bytes());
        assert_eq!(&bytes[4..6], &2u16.to_le_bytes());
        assert_eq!(&bytes[6..8], &4u16.to_le_bytes());
        assert_eq!(&bytes[20..24], &101u32.to_le_bytes());
    }

    #[test]
    fn roundtrip_preserves_packets_and_times() {
        let trace = Trace(vec![
            rec(1, 1_500_000),
            rec(2, 1_500_123),
            rec(3, 2_000_001),
        ]);
        let bytes = to_pcap_bytes(&trace);
        let parsed = parse_pcap(&bytes).expect("parse");
        assert_eq!(parsed.len(), 3);
        assert_eq!(parsed[0].0, 1_500_000);
        assert_eq!(parsed[1].0, 1_500_123);
        assert_eq!(parsed[2].0, 2_000_001);
        for (rec, (_, body)) in trace.0.iter().zip(&parsed) {
            let back = Packet::decode(body).expect("decode");
            assert_eq!(&back, &rec.pkt);
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_pcap(&[]).is_err());
        assert!(parse_pcap(&[0u8; 24]).is_err()); // bad magic
        let mut ok = to_pcap_bytes(&Trace(vec![rec(1, 10)]));
        ok.truncate(ok.len() - 3); // truncate record body
        assert!(parse_pcap(&ok).is_err());
    }

    #[test]
    fn write_to_disk() {
        let dir = std::env::temp_dir().join("reorder_pcap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pcap");
        write_pcap(&Trace(vec![rec(7, 42)]), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(parse_pcap(&bytes).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
