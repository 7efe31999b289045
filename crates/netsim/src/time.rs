//! Simulated time with nanosecond resolution.
//!
//! Figure 7 of the paper sweeps inter-packet gaps in 1 µs increments, so
//! the clock must resolve well below a microsecond; nanoseconds in a
//! `u64` cover ~584 simulated years, far beyond the 20-day measurement
//! campaign of §IV-B.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant on the simulation clock (nanoseconds since simulation
/// start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// From seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    #[cfg(test)]
    pub(crate) fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_nanos() as u64))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0 / 1_000;
        let frac = self.0 % 1_000;
        if frac == 0 {
            write!(f, "{us}us")
        } else {
            write!(f, "{us}.{frac:03}us")
        }
    }
}

/// Duration of serializing `bytes` onto a link of `bits_per_sec`.
///
/// This is the quantity §IV-C identifies as the reason 1500-byte data
/// packets see less reordering than 40-byte probes: the serialization
/// delay spreads the leading edges apart.
pub fn serialization_delay(bytes: usize, bits_per_sec: u64) -> Duration {
    assert!(bits_per_sec > 0, "link rate must be positive");
    // Fast path in u64 when `bits * 1e9` cannot overflow (packets up to
    // ~2.3 GB — everything real). The quotient is identical to the u128
    // form; the wide division is a libcall and this sits on the
    // per-arrival hot path of the striping pipe's workload replay.
    if bytes <= (u64::MAX / 8_000_000_000) as usize {
        let ns = bytes as u64 * 8_000_000_000 / bits_per_sec;
        return Duration::from_nanos(ns);
    }
    let bits = bytes as u128 * 8;
    let ns = bits * 1_000_000_000 / bits_per_sec as u128;
    Duration::from_nanos(ns as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10);
        let u = t + Duration::from_micros(5);
        assert_eq!(u, SimTime::from_micros(15));
        assert_eq!(u - t, Duration::from_micros(5));
        assert_eq!(t - u, Duration::ZERO); // saturating
    }

    #[test]
    fn max_picks_later() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
    }

    #[test]
    fn display_microseconds() {
        assert_eq!(SimTime::from_micros(42).to_string(), "42us");
        assert_eq!(SimTime::from_nanos(1500).to_string(), "1.500us");
    }

    #[test]
    fn serialization_delay_examples() {
        // 1500 bytes at 100 Mbit/s = 120 us.
        assert_eq!(
            serialization_delay(1500, 100_000_000),
            Duration::from_micros(120)
        );
        // 40 bytes at 100 Mbit/s = 3.2 us.
        assert_eq!(
            serialization_delay(40, 100_000_000),
            Duration::from_nanos(3200)
        );
        // 40 bytes at 1 Gbit/s = 320 ns.
        assert_eq!(
            serialization_delay(40, 1_000_000_000),
            Duration::from_nanos(320)
        );
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn zero_rate_panics() {
        serialization_delay(1, 0);
    }

    #[test]
    fn secs_f64() {
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-12);
    }
}
