//! Point-to-point link model: bandwidth (serialization delay),
//! propagation delay, and a drop-tail transmit queue.

use crate::time::{serialization_delay, SimTime};
use std::time::Duration;

/// Static parameters of one direction of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    /// Link rate in bits per second; determines serialization delay.
    pub bits_per_sec: u64,
    /// One-way propagation delay.
    pub propagation: Duration,
    /// Maximum number of packets queued awaiting transmission (beyond the
    /// one being serialized). `None` = unbounded. Overflow drops the
    /// packet (drop-tail), like a router output queue.
    pub queue_limit: Option<usize>,
}

impl LinkParams {
    /// A fast LAN-ish default: 1 Gbit/s, 50 µs propagation, unbounded.
    pub const fn lan() -> Self {
        LinkParams {
            bits_per_sec: 1_000_000_000,
            propagation: Duration::from_micros(50),
            queue_limit: None,
        }
    }

    /// A WAN-ish default: 100 Mbit/s, 20 ms propagation, unbounded.
    pub const fn wan() -> Self {
        LinkParams {
            bits_per_sec: 100_000_000,
            propagation: Duration::from_millis(20),
            queue_limit: None,
        }
    }

    /// Override the rate.
    #[cfg(test)]
    pub(crate) fn with_rate(mut self, bits_per_sec: u64) -> Self {
        self.bits_per_sec = bits_per_sec;
        self
    }

    /// Override the propagation delay.
    #[cfg(test)]
    pub(crate) fn with_propagation(mut self, d: Duration) -> Self {
        self.propagation = d;
        self
    }

    /// Override the queue limit.
    #[cfg(test)]
    pub(crate) fn with_queue_limit(mut self, pkts: usize) -> Self {
        self.queue_limit = Some(pkts);
        self
    }
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams::lan()
    }
}

/// Dynamic state of one direction of a link.
#[derive(Debug, Clone)]
pub(crate) struct LinkState {
    /// Parameters.
    pub params: LinkParams,
    /// Time at which the transmitter finishes everything queued so far.
    pub busy_until: SimTime,
    /// Number of packets currently queued (not yet begun serializing).
    pub queued: usize,
    /// Packets dropped by queue overflow (observability for tests).
    pub drops: u64,
    /// Exact ns-per-byte multiplier when the rate divides 8×10⁹ (every
    /// rate this workspace uses); turns the per-offer serialization
    /// division into a multiply.
    ns_per_byte: Option<u64>,
}

/// Outcome of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Offer {
    /// Packet accepted; it will arrive at the far end at this time.
    Arrives(SimTime),
    /// Queue full; packet dropped.
    Dropped,
}

impl LinkState {
    /// New idle link.
    pub fn new(params: LinkParams) -> Self {
        LinkState {
            ns_per_byte: exact_ns_per_byte(params.bits_per_sec),
            params,
            busy_until: SimTime::ZERO,
            queued: 0,
            drops: 0,
        }
    }

    /// Offer a packet of `wire_len` bytes at time `now`. Computes FIFO
    /// departure honoring serialization delay, updates queue accounting,
    /// and returns the arrival time at the far end (or `Dropped`).
    pub fn offer(&mut self, now: SimTime, wire_len: usize) -> Offer {
        if self.busy_until > now {
            if let Some(limit) = self.params.queue_limit {
                if self.queued >= limit {
                    self.drops += 1;
                    return Offer::Dropped;
                }
            }
            self.queued += 1;
        } else {
            self.queued = 0;
        }
        let start = self.busy_until.max(now);
        let done = start + ser_delay_cached(self.ns_per_byte, wire_len, self.params.bits_per_sec);
        self.busy_until = done;
        Offer::Arrives(done + self.params.propagation)
    }
}

/// `Some(8e9 / rate)` when the division is exact — then
/// `serialization_delay(bytes, rate)` equals `bytes * that` for every
/// byte count (`⌊bytes·8e9/rate⌋ = bytes·(8e9/rate)` when `rate | 8e9`),
/// so callers on per-packet paths can multiply instead of divide.
pub(crate) fn exact_ns_per_byte(bits_per_sec: u64) -> Option<u64> {
    assert!(bits_per_sec > 0, "link rate must be positive");
    (8_000_000_000 % bits_per_sec == 0).then(|| 8_000_000_000 / bits_per_sec)
}

/// Serialization delay using a cached [`exact_ns_per_byte`] multiplier
/// when one exists — the shared fast path of the link offer and the
/// striping replay.
pub(crate) fn ser_delay_cached(
    ns_per_byte: Option<u64>,
    bytes: usize,
    bits_per_sec: u64,
) -> Duration {
    match ns_per_byte {
        Some(m) => Duration::from_nanos(bytes as u64 * m),
        None => serialization_delay(bytes, bits_per_sec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_link_delivers_after_ser_plus_prop() {
        let mut l = LinkState::new(LinkParams {
            bits_per_sec: 8_000_000, // 1 byte per microsecond
            propagation: Duration::from_micros(100),
            queue_limit: None,
        });
        match l.offer(SimTime::from_micros(10), 40) {
            Offer::Arrives(t) => assert_eq!(t, SimTime::from_micros(10 + 40 + 100)),
            Offer::Dropped => panic!("dropped"),
        }
    }

    #[test]
    fn back_to_back_packets_serialize_fifo() {
        let mut l = LinkState::new(LinkParams {
            bits_per_sec: 8_000_000,
            propagation: Duration::ZERO,
            queue_limit: None,
        });
        let a = l.offer(SimTime::ZERO, 100);
        let b = l.offer(SimTime::ZERO, 100);
        assert_eq!(a, Offer::Arrives(SimTime::from_micros(100)));
        // Second packet waits for the first to finish serializing.
        assert_eq!(b, Offer::Arrives(SimTime::from_micros(200)));
    }

    #[test]
    fn queue_limit_drops_tail() {
        let mut l = LinkState::new(LinkParams {
            bits_per_sec: 8_000_000,
            propagation: Duration::ZERO,
            queue_limit: Some(1),
        });
        assert!(matches!(l.offer(SimTime::ZERO, 1000), Offer::Arrives(_))); // serializing
        assert!(matches!(l.offer(SimTime::ZERO, 1000), Offer::Arrives(_))); // queued (1)
        assert_eq!(l.offer(SimTime::ZERO, 1000), Offer::Dropped);
        assert_eq!(l.drops, 1);
    }

    #[test]
    fn queue_drains_when_idle() {
        let mut l = LinkState::new(LinkParams {
            bits_per_sec: 8_000_000,
            propagation: Duration::ZERO,
            queue_limit: Some(1),
        });
        let _ = l.offer(SimTime::ZERO, 1000);
        let _ = l.offer(SimTime::ZERO, 1000);
        assert_eq!(l.offer(SimTime::ZERO, 1000), Offer::Dropped);
        // After busy_until passes, the queue resets.
        assert!(matches!(
            l.offer(SimTime::from_micros(5000), 1000),
            Offer::Arrives(_)
        ));
        assert_eq!(l.queued, 0);
    }

    #[test]
    fn builders() {
        let p = LinkParams::wan()
            .with_rate(42)
            .with_propagation(Duration::from_millis(1))
            .with_queue_limit(9);
        assert_eq!(p.bits_per_sec, 42);
        assert_eq!(p.propagation, Duration::from_millis(1));
        assert_eq!(p.queue_limit, Some(9));
    }
}
