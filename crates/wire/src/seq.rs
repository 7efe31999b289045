//! Wrap-around-safe TCP sequence number arithmetic (RFC 793 / RFC 1982).
//!
//! The Single Connection Test reasons about sequence numbers that
//! straddle a deliberately-created hole; all comparisons must behave
//! correctly when the 32-bit space wraps mid-measurement.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Sub};

/// A TCP sequence number: a point on the 32-bit circle.
///
/// Ordering is *serial-number arithmetic*: `a < b` iff the signed
/// distance from `a` to `b` is positive, which is well-defined when the
/// two numbers are within half the space of each other (always true for
/// the window sizes used here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNum(pub u32);

impl SeqNum {
    /// Raw wire value.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Signed circular distance from `self` to `other` (how many bytes
    /// `other` is ahead of `self`).
    pub fn distance_to(self, other: SeqNum) -> i32 {
        other.0.wrapping_sub(self.0) as i32
    }

    /// `self <= x < self + len` on the circle.
    pub fn contains(self, len: u32, x: SeqNum) -> bool {
        let off = x.0.wrapping_sub(self.0);
        off < len
    }

    /// The immediately following sequence number.
    pub fn next(self) -> SeqNum {
        self + 1
    }
}

impl PartialOrd for SeqNum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SeqNum {
    fn cmp(&self, other: &Self) -> Ordering {
        self.distance_to(*other).cmp(&0).reverse()
    }
}

impl Add<u32> for SeqNum {
    type Output = SeqNum;
    fn add(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_add(rhs))
    }
}

impl Sub<u32> for SeqNum {
    type Output = SeqNum;
    fn sub(self, rhs: u32) -> SeqNum {
        SeqNum(self.0.wrapping_sub(rhs))
    }
}

impl Sub<SeqNum> for SeqNum {
    type Output = i32;
    /// Signed circular distance `self - rhs`.
    fn sub(self, rhs: SeqNum) -> i32 {
        rhs.distance_to(self)
    }
}

impl From<u32> for SeqNum {
    fn from(v: u32) -> Self {
        SeqNum(v)
    }
}

impl fmt::Display for SeqNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_ordering() {
        assert!(SeqNum(1) < SeqNum(2));
        assert!(SeqNum(100) > SeqNum(2));
        assert_eq!(SeqNum(7), SeqNum(7));
    }

    #[test]
    fn wraparound_ordering() {
        let before = SeqNum(u32::MAX - 1);
        let after = SeqNum(3); // 5 bytes later, across the wrap
        assert!(before < after);
        assert!(after > before);
        assert_eq!(before.distance_to(after), 5);
        assert_eq!(after - before, 5);
        assert_eq!(before - after, -5);
    }

    #[test]
    fn add_wraps() {
        assert_eq!(SeqNum(u32::MAX) + 1, SeqNum(0));
        assert_eq!(SeqNum(u32::MAX) + 10, SeqNum(9));
        assert_eq!(SeqNum(0) - 1, SeqNum(u32::MAX));
    }

    #[test]
    fn contains_window() {
        let base = SeqNum(u32::MAX - 2);
        // Window of 10 bytes starting 2 before the wrap.
        assert!(base.contains(10, SeqNum(u32::MAX - 2)));
        assert!(base.contains(10, SeqNum(0)));
        assert!(base.contains(10, SeqNum(6)));
        assert!(!base.contains(10, SeqNum(7)));
        assert!(!base.contains(10, SeqNum(u32::MAX - 3)));
    }

    #[test]
    fn next_is_plus_one() {
        assert_eq!(SeqNum(41).next(), SeqNum(42));
        assert_eq!(SeqNum(u32::MAX).next(), SeqNum(0));
    }

    #[test]
    fn sort_uses_serial_order() {
        let mut v = vec![SeqNum(3), SeqNum(u32::MAX), SeqNum(0), SeqNum(1)];
        v.sort();
        assert_eq!(v, vec![SeqNum(u32::MAX), SeqNum(0), SeqNum(1), SeqNum(3)]);
    }
}
