//! The Internet checksum (RFC 1071) and incremental update (RFC 1624).
//!
//! Used by the IPv4 header, TCP (with pseudo-header) and ICMP. The
//! measurement tools must emit correctly-checksummed probes — remote
//! stacks silently drop anything else — and the capture analyzer verifies
//! checksums when establishing ground truth.

/// One's-complement sum accumulator for the Internet checksum.
///
/// Feed arbitrary byte slices with [`Accumulator::add_bytes`]; odd-length
/// slices are handled per RFC 1071 by padding the final byte with zero
/// *only at finish time for the final fragment*, so callers must feed
/// even-length chunks except for the last one. In this crate every layer
/// feeds a single contiguous slice, so the restriction never bites.
#[derive(Debug, Default, Clone, Copy)]
pub struct Accumulator {
    sum: u32,
    /// Carried odd byte from a previous `add_bytes` call, if any.
    pending: Option<u8>,
}

impl Accumulator {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a big-endian 16-bit word.
    pub(crate) fn add_u16(&mut self, word: u16) {
        debug_assert!(self.pending.is_none(), "add_u16 after odd-length add_bytes");
        self.sum += u32::from(word);
    }

    /// Add a big-endian 32-bit word (as two 16-bit words).
    pub(crate) fn add_u32(&mut self, word: u32) {
        self.add_u16((word >> 16) as u16);
        self.add_u16(word as u16);
    }

    /// Add a byte slice, handling a straddling odd byte from the previous
    /// call so that arbitrary chunking produces the same checksum as one
    /// contiguous slice.
    pub fn add_bytes(&mut self, mut bytes: &[u8]) {
        if let Some(hi) = self.pending.take() {
            if let Some((&lo, rest)) = bytes.split_first() {
                self.sum += u32::from(u16::from_be_bytes([hi, lo]));
                bytes = rest;
            } else {
                self.pending = Some(hi);
                return;
            }
        }
        let mut chunks = bytes.chunks_exact(2);
        for c in &mut chunks {
            self.sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
        }
        if let [last] = chunks.remainder() {
            self.pending = Some(*last);
        }
    }

    /// Fold carries and return the one's-complement checksum.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            self.sum += u32::from(u16::from_be_bytes([hi, 0]));
        }
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// Compute the Internet checksum of a contiguous byte slice.
pub fn internet(bytes: &[u8]) -> u16 {
    let mut acc = Accumulator::new();
    acc.add_bytes(bytes);
    acc.finish()
}

/// Verify a slice whose checksum field is already in place: a correct
/// packet sums (including the embedded checksum) to zero.
#[cfg(test)]
pub(crate) fn verify(bytes: &[u8]) -> bool {
    internet(bytes) == 0
}

/// RFC 1624 incremental checksum update: given the old checksum and an
/// old/new 16-bit field value, return the new checksum without re-summing
/// the packet. Used by simulated middleboxes that rewrite single fields
/// (e.g. a NAT-ish load balancer rewriting the destination address).
pub fn incremental_update(old_checksum: u16, old_field: u16, new_field: u16) -> u16 {
    // RFC 1624 eqn. 3: HC' = ~(~HC + ~m + m')
    let mut sum = u32::from(!old_checksum) + u32::from(!old_field) + u32::from(new_field);
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from RFC 1071 §3.
    #[test]
    fn rfc1071_example() {
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold -> 0xddf2
        assert_eq!(internet(&data), !0xddf2u16);
    }

    #[test]
    fn zero_filled_buffer_checksums_to_ffff() {
        assert_eq!(internet(&[0u8; 20]), 0xffff);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        // [0xab] is treated as the word 0xab00.
        assert_eq!(internet(&[0xab]), !0xab00u16);
    }

    #[test]
    fn empty_slice() {
        assert_eq!(internet(&[]), 0xffff);
    }

    #[test]
    fn verify_roundtrip() {
        let mut pkt = vec![
            0x45, 0x00, 0x00, 0x14, 0xde, 0xad, 0x00, 0x00, 0x40, 0x06, 0, 0, 1, 2, 3, 4, 5, 6, 7,
            8,
        ];
        let ck = internet(&pkt);
        pkt[10] = (ck >> 8) as u8;
        pkt[11] = ck as u8;
        assert!(verify(&pkt));
        pkt[0] ^= 0x01;
        assert!(!verify(&pkt));
    }

    #[test]
    fn chunked_equals_contiguous() {
        let data: Vec<u8> = (0u16..97).map(|x| (x * 31 % 251) as u8).collect();
        let whole = internet(&data);
        // Feed in awkward odd-sized chunks.
        let mut acc = Accumulator::new();
        for chunk in data.chunks(3) {
            acc.add_bytes(chunk);
        }
        assert_eq!(acc.finish(), whole);

        let mut acc = Accumulator::new();
        acc.add_bytes(&data[..1]);
        acc.add_bytes(&data[1..]);
        assert_eq!(acc.finish(), whole);
    }

    #[test]
    fn incremental_matches_recompute() {
        let mut pkt = vec![0u8; 20];
        for (i, b) in pkt.iter_mut().enumerate() {
            *b = (i * 7 + 1) as u8;
        }
        // Zero out a checksum field at offset 10..12, compute, then mutate
        // the word at offset 4..6 and compare incremental vs full.
        pkt[10] = 0;
        pkt[11] = 0;
        let old_ck = internet(&pkt);
        let old_field = u16::from_be_bytes([pkt[4], pkt[5]]);
        let new_field = 0xbeef;
        pkt[4] = 0xbe;
        pkt[5] = 0xef;
        let new_ck = internet(&pkt);
        assert_eq!(incremental_update(old_ck, old_field, new_field), new_ck);
    }

    #[test]
    fn add_u32_equals_bytes() {
        let mut a = Accumulator::new();
        a.add_u32(0xdead_beef);
        let mut b = Accumulator::new();
        b.add_bytes(&[0xde, 0xad, 0xbe, 0xef]);
        assert_eq!(a.finish(), b.finish());
    }
}
