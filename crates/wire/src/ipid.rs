//! The 16-bit IP identification (IPID) space.
//!
//! The Dual Connection Test (§III-C of the paper) infers the order in
//! which a remote host *transmitted* two packets from their IPID values,
//! under the hypothesis that the host uses the traditional
//! single-global-counter generator. Because the space is only 16 bits it
//! wraps quickly (a busy server wraps in seconds), so all comparisons use
//! serial-number arithmetic, and the paper's validation step must
//! tolerate benign wraparound while still flagging random generators.

use std::cmp::Ordering;
use std::fmt;
use std::ops::Add;

/// An IP identification field value: a point on the 16-bit circle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct IpId(pub u16);

impl IpId {
    /// Raw wire value.
    pub const fn raw(self) -> u16 {
        self.0
    }

    /// Signed circular distance from `self` to `other`: positive iff
    /// `other` was generated later by a monotone counter, assuming fewer
    /// than 2^15 packets were sent in between. This is the exact quantity
    /// the paper's "difference of the IPID values between each pair of
    /// adjacent packets" analysis compares (§III-C).
    pub fn distance_to(self, other: IpId) -> i16 {
        other.0.wrapping_sub(self.0) as i16
    }

    /// Whether a monotone counter would emit `self` strictly before
    /// `other` (modulo wraparound, which "is easily detected" per §III-A).
    pub fn before(self, other: IpId) -> bool {
        self.distance_to(other) > 0
    }
}

impl PartialOrd for IpId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IpId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance_to(*other).cmp(&0).reverse()
    }
}

impl Add<u16> for IpId {
    type Output = IpId;
    fn add(self, rhs: u16) -> IpId {
        IpId(self.0.wrapping_add(rhs))
    }
}

impl From<u16> for IpId {
    fn from(v: u16) -> Self {
        IpId(v)
    }
}

impl fmt::Display for IpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#06x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotone_order() {
        assert!(IpId(1).before(IpId(2)));
        assert!(!IpId(2).before(IpId(1)));
        assert!(!IpId(5).before(IpId(5)));
    }

    #[test]
    fn wraparound_order() {
        let a = IpId(0xfffe);
        let b = IpId(0x0003); // 5 increments later across the wrap
        assert!(a.before(b));
        assert!(!b.before(a));
        assert_eq!(a.distance_to(b), 5);
        assert_eq!(b.distance_to(a), -5);
    }

    #[test]
    fn half_space_is_the_horizon() {
        let a = IpId(0);
        assert!(a.before(IpId(0x7fff)));
        // Exactly half the space away is "behind" by convention
        // (distance is i16::MIN, negative).
        assert!(!a.before(IpId(0x8000)));
    }

    #[test]
    fn add_wraps() {
        assert_eq!(IpId(0xffff) + 1, IpId(0));
        assert_eq!(IpId(0xfff0) + 0x20, IpId(0x0010));
    }

    #[test]
    fn ord_sorts_serially() {
        let mut v = vec![IpId(2), IpId(0xffff), IpId(0), IpId(1)];
        v.sort();
        assert_eq!(v, vec![IpId(0xffff), IpId(0), IpId(1), IpId(2)]);
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(IpId(0xbeef).to_string(), "0xbeef");
    }
}
