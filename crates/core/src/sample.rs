//! Sample outcome types shared by all four measurement techniques.
//!
//! A *sample* is one pair of test packets (§III). Each test classifies
//! each direction independently as ordered, reordered ("exchanged"), or
//! indeterminate (loss, delayed-ACK collapse, or a lone ambiguous
//! reply — the cases §III-B says must be discarded).

use reorder_netsim::SimTime;
use reorder_wire::{FlowKey, IpId, SeqNum, TcpFlags};
use std::time::Duration;

/// Classification of one direction of one sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// The pair arrived in the order it was sent.
    Ordered,
    /// The pair was exchanged in flight.
    Reordered,
    /// Cannot tell (loss, single merged ACK, ambiguous reply).
    Indeterminate,
}

impl Order {
    /// True for `Reordered`.
    pub(crate) fn is_reordered(self) -> bool {
        self == Order::Reordered
    }

    /// True unless `Indeterminate`.
    pub fn is_determinate(self) -> bool {
        self != Order::Indeterminate
    }
}

/// The verdict of one sample, both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleOutcome {
    /// Probe-host → target direction.
    pub fwd: Order,
    /// Target → probe-host direction.
    pub rev: Order,
}

impl SampleOutcome {
    /// Entirely indeterminate sample (discarded by estimators).
    pub(crate) const DISCARD: SampleOutcome = SampleOutcome {
        fwd: Order::Indeterminate,
        rev: Order::Indeterminate,
    };
}

/// Matches one specific packet in a capture trace (see
/// [`crate::validate`]). Fields set to `None` are wildcards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketMatcher {
    /// Flow the packet belongs to (exact direction).
    pub flow: FlowKey,
    /// IP identification, if the sender controlled it (probe packets).
    pub ipid: Option<IpId>,
    /// TCP sequence number.
    pub seq: Option<SeqNum>,
    /// TCP acknowledgment number.
    pub ack: Option<SeqNum>,
    /// Flags that must all be present.
    pub flags_all: TcpFlags,
    /// Flags that must all be absent.
    pub flags_none: TcpFlags,
    /// Minimum payload length.
    pub min_data: usize,
}

impl PacketMatcher {
    /// Matcher for any packet of `flow`.
    pub fn flow(flow: FlowKey) -> Self {
        PacketMatcher {
            flow,
            ipid: None,
            seq: None,
            ack: None,
            flags_all: TcpFlags::EMPTY,
            flags_none: TcpFlags::EMPTY,
            min_data: 0,
        }
    }

    /// Require this probe IPID.
    pub fn ipid(mut self, id: IpId) -> Self {
        self.ipid = Some(id);
        self
    }

    /// Require this sequence number.
    pub fn seq(mut self, s: SeqNum) -> Self {
        self.seq = Some(s);
        self
    }

    /// Require this acknowledgment number.
    pub fn ack(mut self, a: SeqNum) -> Self {
        self.ack = Some(a);
        self
    }

    /// Require all of `flags` set.
    pub fn flags(mut self, flags: TcpFlags) -> Self {
        self.flags_all = flags;
        self
    }

    /// Require all of `flags` clear.
    pub fn without(mut self, flags: TcpFlags) -> Self {
        self.flags_none = flags;
        self
    }

    /// Require at least `n` payload bytes.
    pub(crate) fn min_data(mut self, n: usize) -> Self {
        self.min_data = n;
        self
    }

    /// Does `pkt` satisfy every constraint?
    pub fn matches(&self, pkt: &reorder_wire::Packet) -> bool {
        if pkt.flow() != Some(self.flow) {
            return false;
        }
        let tcp = match pkt.tcp() {
            Some(t) => t,
            None => return false,
        };
        if let Some(id) = self.ipid {
            if pkt.ip.ident != id {
                return false;
            }
        }
        if let Some(s) = self.seq {
            if tcp.seq != s {
                return false;
            }
        }
        if let Some(a) = self.ack {
            if tcp.ack != a {
                return false;
            }
        }
        if !tcp.flags.contains(self.flags_all) {
            return false;
        }
        if tcp.flags.intersects(self.flags_none) {
            return false;
        }
        pkt.tcp_data().map_or(0, <[u8]>::len) >= self.min_data
    }
}

/// Everything needed to check one sample against capture traces.
#[derive(Debug, Clone)]
pub struct SampleForensics {
    /// Simulation time the sample began (trace matching starts here).
    pub started: SimTime,
    /// The two probe packets, in send order.
    pub fwd: [PacketMatcher; 2],
    /// The two reply packets, in the order the remote host (should
    /// have) generated them; `None` when the sample saw < 2 replies.
    pub rev: Option<[PacketMatcher; 2]>,
}

/// One completed sample.
#[derive(Debug, Clone)]
pub struct SampleRecord {
    /// The test's verdict.
    pub outcome: SampleOutcome,
    /// Trace-matching metadata for validation.
    pub forensics: SampleForensics,
}

/// A full measurement: many samples of one test against one target.
#[derive(Debug, Clone, Default)]
pub struct MeasurementRun {
    /// All samples, in execution order.
    pub samples: Vec<SampleRecord>,
}

impl MeasurementRun {
    /// Count of samples whose forward verdict is determinate.
    pub fn fwd_determinate(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.outcome.fwd.is_determinate())
            .count()
    }

    /// Count of forward reorder events.
    pub fn fwd_reordered(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.outcome.fwd.is_reordered())
            .count()
    }

    /// Count of samples whose reverse verdict is determinate.
    pub fn rev_determinate(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.outcome.rev.is_determinate())
            .count()
    }

    /// Count of reverse reorder events.
    pub fn rev_reordered(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.outcome.rev.is_reordered())
            .count()
    }

    /// Count of samples indeterminate in both directions — the §III-B
    /// "discard" outcome. Reported by [`crate::measurer::Measurement`].
    pub fn discarded(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| !s.outcome.fwd.is_determinate() && !s.outcome.rev.is_determinate())
            .count()
    }

    /// Forward reordering estimate.
    pub fn fwd_estimate(&self) -> crate::metrics::ReorderEstimate {
        crate::metrics::ReorderEstimate::new(self.fwd_reordered(), self.fwd_determinate())
    }

    /// Reverse reordering estimate.
    pub fn rev_estimate(&self) -> crate::metrics::ReorderEstimate {
        crate::metrics::ReorderEstimate::new(self.rev_reordered(), self.rev_determinate())
    }
}

/// Common knobs shared by all tests.
#[derive(Debug, Clone, Copy)]
pub struct TestConfig {
    /// Number of samples to take (the paper used 15 per measurement in
    /// the wild and 100 in validation).
    pub samples: usize,
    /// Inter-packet gap between the two packets of a sample — the
    /// §IV-C time-domain parameter.
    pub gap: Duration,
    /// Idle time between samples (politeness/pacing; the paper was
    /// "very careful to limit the rate at which SYNs are generated").
    pub pace: Duration,
    /// Per-reply wait deadline. Must exceed the remote's delayed-ACK
    /// timer (500 ms worst case) plus a round trip.
    pub reply_timeout: Duration,
    /// Data-transfer keep-alive: request a persistent connection and
    /// check the clamped-MSS connection back into the session after
    /// the fetch, so repeated transfers (multi-round transfer
    /// campaigns) skip the per-round handshake. Off by default — a
    /// keep-alive request changes the bytes on the wire, and single
    /// fetches must stay packet-identical to the historical protocol.
    pub keep_alive: bool,
}

impl Default for TestConfig {
    fn default() -> Self {
        TestConfig {
            samples: 15,
            gap: Duration::ZERO,
            pace: Duration::from_millis(20),
            reply_timeout: Duration::from_millis(900),
            keep_alive: false,
        }
    }
}

impl TestConfig {
    /// `n` samples, otherwise default.
    pub fn samples(n: usize) -> Self {
        TestConfig {
            samples: n,
            ..Default::default()
        }
    }

    /// Set the inter-packet gap.
    pub fn with_gap(mut self, gap: Duration) -> Self {
        self.gap = gap;
        self
    }

    /// Toggle transfer keep-alive (see the field docs).
    pub fn with_keep_alive(mut self, keep_alive: bool) -> Self {
        self.keep_alive = keep_alive;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorder_wire::{Ipv4Addr4, PacketBuilder};

    fn flow() -> FlowKey {
        FlowKey {
            src: Ipv4Addr4::new(1, 1, 1, 1),
            src_port: 10,
            dst: Ipv4Addr4::new(2, 2, 2, 2),
            dst_port: 80,
        }
    }

    fn pkt(seq: u32, ack: u32, flags: TcpFlags, ipid: u16, data: &[u8]) -> reorder_wire::Packet {
        PacketBuilder::tcp()
            .src(Ipv4Addr4::new(1, 1, 1, 1), 10)
            .dst(Ipv4Addr4::new(2, 2, 2, 2), 80)
            .seq(seq)
            .flags(flags)
            .ack(ack)
            .ipid(ipid)
            .data(data.to_vec())
            .build()
    }

    #[test]
    fn matcher_constraints() {
        let p = pkt(5, 9, TcpFlags::ACK | TcpFlags::PSH, 42, b"xy");
        assert!(PacketMatcher::flow(flow()).matches(&p));
        assert!(PacketMatcher::flow(flow()).seq(SeqNum(5)).matches(&p));
        assert!(!PacketMatcher::flow(flow()).seq(SeqNum(6)).matches(&p));
        assert!(PacketMatcher::flow(flow()).ack(SeqNum(9)).matches(&p));
        assert!(PacketMatcher::flow(flow()).ipid(IpId(42)).matches(&p));
        assert!(!PacketMatcher::flow(flow()).ipid(IpId(43)).matches(&p));
        assert!(PacketMatcher::flow(flow()).flags(TcpFlags::PSH).matches(&p));
        assert!(!PacketMatcher::flow(flow()).flags(TcpFlags::RST).matches(&p));
        assert!(!PacketMatcher::flow(flow())
            .without(TcpFlags::PSH)
            .matches(&p));
        assert!(PacketMatcher::flow(flow()).min_data(2).matches(&p));
        assert!(!PacketMatcher::flow(flow()).min_data(3).matches(&p));
        // Wrong direction.
        let rev = PacketMatcher::flow(flow().reversed());
        assert!(!rev.matches(&p));
    }

    #[test]
    fn run_counters() {
        let f = SampleForensics {
            started: SimTime::ZERO,
            fwd: [PacketMatcher::flow(flow()), PacketMatcher::flow(flow())],
            rev: None,
        };
        let mk = |fwd, rev| SampleRecord {
            outcome: SampleOutcome { fwd, rev },
            forensics: f.clone(),
        };
        let run = MeasurementRun {
            samples: vec![
                mk(Order::Ordered, Order::Ordered),
                mk(Order::Reordered, Order::Indeterminate),
                mk(Order::Indeterminate, Order::Reordered),
                mk(Order::Reordered, Order::Ordered),
            ],
        };
        assert_eq!(run.fwd_determinate(), 3);
        assert_eq!(run.fwd_reordered(), 2);
        assert_eq!(run.rev_determinate(), 3);
        assert_eq!(run.rev_reordered(), 1);
        assert!((run.fwd_estimate().rate() - 2.0 / 3.0).abs() < 1e-12);
        // No sample above is indeterminate in BOTH directions.
        assert_eq!(run.discarded(), 0);
        let discarded = MeasurementRun {
            samples: vec![mk(Order::Indeterminate, Order::Indeterminate)],
        };
        assert_eq!(discarded.discarded(), 1);
    }

    #[test]
    fn order_helpers() {
        assert!(Order::Reordered.is_reordered());
        assert!(!Order::Ordered.is_reordered());
        assert!(Order::Ordered.is_determinate());
        assert!(!Order::Indeterminate.is_determinate());
    }
}
