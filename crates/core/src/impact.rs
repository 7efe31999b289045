//! Protocol-impact analysis — the *reason* the paper wants reordering
//! measured at all (§I): "Using the distribution it is possible to
//! predict how different protocols and applications would be impacted
//! by the reordering process, without needing to construct a unique
//! test (e.g., SACK blocks) for each protocol."
//!
//! Two consumers are modeled:
//!
//! * **TCP fast retransmit** ([`tcp`]): a reordering event whose extent
//!   reaches the duplicate-ACK threshold is misread as a loss, forcing
//!   a spurious retransmission and a congestion-window cut. Includes a
//!   Blanton-Allman-style adaptive threshold (the class of "proposals
//!   to create protocols that adapt to reordering" the paper says need
//!   this data).
//! * **Interactive media playout** ([`voip`]): late (reordered) packets
//!   miss their playout deadline unless the jitter buffer is deepened
//!   ("interactive streaming media protocols ... assume that sequencing
//!   errors are sufficiently rare", §I).
//!
//! Both consume a [`StreamObservation`]: a numbered packet stream
//! pushed through a simulated path, with ground-truth arrival order and
//! timing from the capture taps.

use crate::scenario::Scenario;
use reorder_netsim::SimTime;
use reorder_wire::{PacketBuilder, TcpFlags};
use std::time::Duration;

/// A transmitted stream and what arrived: sequence values in arrival
/// order with arrival timestamps, plus the send schedule.
#[derive(Debug, Clone)]
pub struct StreamObservation {
    /// Number of packets sent (sequence values `0..sent`).
    pub sent: usize,
    /// Inter-packet send gap.
    pub gap: Duration,
    /// Send time of packet `k` (index = k).
    pub send_times: Vec<SimTime>,
    /// `(sequence, arrival_time)` in arrival order.
    pub arrivals: Vec<(u64, SimTime)>,
}

impl StreamObservation {
    /// Arrival order of sequence values.
    pub fn arrival_order(&self) -> Vec<u64> {
        self.arrivals.iter().map(|&(s, _)| s).collect()
    }

    /// Fraction of packets lost in transit.
    pub fn loss_fraction(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            1.0 - self.arrivals.len() as f64 / self.sent as f64
        }
    }

    /// One-way transit time of each arrived packet.
    pub(crate) fn transits(&self) -> Vec<Duration> {
        self.arrivals
            .iter()
            .map(|&(s, at)| at.since(self.send_times[s as usize]))
            .collect()
    }
}

/// Push `n` equally-sized, `gap`-spaced packets through a scenario's
/// path and observe them at the target via the capture tap. Packets are
/// raw numbered segments (sequence = index), so the observation is a
/// pure property of the path, untangled from any transport dynamics —
/// precisely the controlled load the paper's metric is defined over.
pub fn observe_stream(
    sc: &mut Scenario,
    n: usize,
    gap: Duration,
    wire_size: usize,
) -> StreamObservation {
    let target = sc.target;
    let local = sc.prober.local_addr;
    let mut send_times = Vec::with_capacity(n);
    for k in 0..n {
        let ipid = sc.prober.alloc_ipid();
        let pkt = PacketBuilder::tcp()
            .src(local, 40_000)
            .dst(target, 33_333) // not a listening port: host stays silent
            .seq(k as u32)
            .flags(TcpFlags::ACK)
            .ipid(ipid)
            .pad_to(wire_size)
            .build();
        send_times.push(sc.prober.now());
        sc.prober.send(pkt);
        if !gap.is_zero() {
            sc.prober.run_for(gap);
        }
    }
    sc.prober.run_for(Duration::from_millis(500));
    let trace = sc.merged_server_rx();
    let arrivals = trace
        .0
        .iter()
        .filter(|r| {
            r.pkt
                .tcp()
                .is_some_and(|t| t.dst_port == 33_333 && t.src_port == 40_000)
        })
        .map(|r| (u64::from(r.pkt.tcp().expect("tcp").seq.raw()), r.time))
        .collect();
    StreamObservation {
        sent: n,
        gap,
        send_times,
        arrivals,
    }
}

/// TCP fast-retransmit impact.
pub mod tcp {
    /// For every packet, the number of *later-sent* packets that
    /// arrived before it — each such packet generates one duplicate
    /// ACK at a TCP receiver while the late packet is missing.
    pub(crate) fn dup_acks_per_packet(arrival_order: &[u64]) -> Vec<(u64, usize)> {
        arrival_order
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let dups = arrival_order[..i].iter().filter(|&&e| e > s).count();
                (s, dups)
            })
            .collect()
    }

    /// Count reordering events that a sender with duplicate-ACK
    /// threshold `dupthresh` would misinterpret as losses — the
    /// spurious fast retransmits of §I ("reordering events can be
    /// misinterpreted as congestion signals").
    pub fn spurious_fast_retransmits(arrival_order: &[u64], dupthresh: usize) -> usize {
        dup_acks_per_packet(arrival_order)
            .iter()
            .filter(|&&(_, dups)| dups >= dupthresh)
            .count()
    }

    /// Outcome of the adaptive-threshold simulation.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct AdaptiveOutcome {
        /// Spurious fast retransmits still triggered.
        pub spurious: usize,
        /// Final threshold after adaptation.
        pub final_dupthresh: usize,
    }

    /// Blanton-Allman-style adaptation ("On Making TCP More Robust to
    /// Packet Reordering"): start at `initial`; each time a
    /// retransmission is discovered to be spurious (the "lost" packet
    /// arrives after all), raise the threshold to one more than the
    /// duplicate-ACK count that triggered it.
    pub fn adaptive_fast_retransmits(arrival_order: &[u64], initial: usize) -> AdaptiveOutcome {
        let mut thresh = initial;
        let mut spurious = 0;
        for (_, dups) in dup_acks_per_packet(arrival_order) {
            if dups >= thresh {
                spurious += 1;
                thresh = dups + 1; // the packet did arrive: adapt upward
            }
        }
        AdaptiveOutcome {
            spurious,
            final_dupthresh: thresh,
        }
    }

    /// First-order goodput multiplier for a window-limited sender that
    /// halves its congestion window on each (spurious) fast retransmit
    /// and grows it back linearly: with a spurious-event probability
    /// `p` per packet and window `w`, the classic 1/sqrt rule gives
    /// throughput ∝ 1/sqrt(p) capped at the window-limited rate. The
    /// returned value is in (0, 1]: the fraction of loss-free goodput
    /// retained.
    pub fn relative_goodput(spurious_per_packet: f64, window_pkts: f64) -> f64 {
        assert!((0.0..=1.0).contains(&spurious_per_packet));
        assert!(window_pkts >= 1.0);
        // reorder-lint: allow(float-eq, exact-zero fast path; caller-supplied probability of exactly 0.0 means no spurious events)
        if spurious_per_packet == 0.0 {
            return 1.0;
        }
        // Standard TCP throughput ≈ (1/RTT) * sqrt(3/(2p)); the
        // window-limited ceiling is w/RTT. Ratio, capped at 1.
        let unconstrained = (3.0 / (2.0 * spurious_per_packet)).sqrt();
        (unconstrained / window_pkts).min(1.0)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn in_order_stream_has_no_dup_acks() {
            let order: Vec<u64> = (0..50).collect();
            assert!(dup_acks_per_packet(&order).iter().all(|&(_, d)| d == 0));
            assert_eq!(spurious_fast_retransmits(&order, 3), 0);
        }

        #[test]
        fn simple_swap_generates_one_dup_ack() {
            // 0,2,1,3: while 1 is missing, 2 arrives → one dup ACK.
            let order = [0u64, 2, 1, 3];
            let d = dup_acks_per_packet(&order);
            assert_eq!(d[2], (1, 1));
            assert_eq!(spurious_fast_retransmits(&order, 3), 0, "below threshold");
            assert_eq!(spurious_fast_retransmits(&order, 1), 1);
        }

        #[test]
        fn deep_reordering_triggers_fast_retransmit() {
            // 1 is overtaken by 2,3,4: three dup ACKs = default thresh.
            let order = [0u64, 2, 3, 4, 1, 5];
            assert_eq!(spurious_fast_retransmits(&order, 3), 1);
        }

        #[test]
        fn adaptive_threshold_learns() {
            // Repeated extent-3 events: static thresh 3 fires each time;
            // adaptive fires once then raises to 4.
            let mut order = Vec::new();
            for b in 0..5u64 {
                let base = b * 5;
                order.extend([base, base + 2, base + 3, base + 4, base + 1]);
            }
            assert_eq!(spurious_fast_retransmits(&order, 3), 5);
            let a = adaptive_fast_retransmits(&order, 3);
            assert_eq!(a.spurious, 1);
            assert_eq!(a.final_dupthresh, 4);
        }

        #[test]
        fn goodput_model_monotone() {
            let g0 = relative_goodput(0.0, 64.0);
            let g1 = relative_goodput(0.001, 64.0);
            let g2 = relative_goodput(0.05, 64.0);
            assert_eq!(g0, 1.0);
            assert!(g1 > g2);
            assert!(g2 > 0.0 && g2 < 1.0);
        }

        #[test]
        #[should_panic]
        fn goodput_rejects_bad_probability() {
            relative_goodput(1.5, 10.0);
        }
    }
}

/// Interactive media (VoIP) playout impact.
pub mod voip {
    use super::StreamObservation;
    use std::time::Duration;

    /// Fraction of *sent* packets unusable at playout depth `depth`:
    /// lost packets plus packets whose transit exceeded the minimum
    /// observed transit by more than `depth`.
    pub fn unusable_fraction(obs: &StreamObservation, depth: Duration) -> f64 {
        if obs.sent == 0 {
            return 0.0;
        }
        let transits = obs.transits();
        let Some(&base) = transits.iter().min() else {
            return 1.0; // everything lost
        };
        let late = transits.iter().filter(|&&t| t > base + depth).count();
        let lost = obs.sent - transits.len();
        (late + lost) as f64 / obs.sent as f64
    }

    /// Smallest playout depth keeping the unusable fraction at or below
    /// `target` (ignoring outright loss, which no buffer fixes).
    /// Returns `None` if even the maximum observed lateness cannot meet
    /// the target (i.e. loss alone exceeds it).
    pub fn min_depth_for(obs: &StreamObservation, target: f64) -> Option<Duration> {
        let transits = obs.transits();
        let base = *transits.iter().min()?;
        let mut lateness: Vec<Duration> = transits.iter().map(|&t| t - base).collect();
        lateness.sort_unstable();
        // Depth d admits all packets with lateness <= d. Walk candidate
        // depths (the observed lateness values) from small to large.
        lateness
            .iter()
            .find(|&&d| unusable_fraction(obs, d) <= target)
            .copied()
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use reorder_netsim::SimTime;

        fn obs(sent: usize, arrivals: Vec<(u64, u64)>) -> StreamObservation {
            StreamObservation {
                sent,
                gap: Duration::from_millis(20),
                send_times: (0..sent)
                    .map(|k| SimTime::from_millis(20 * k as u64))
                    .collect(),
                arrivals: arrivals
                    .into_iter()
                    .map(|(s, ms)| (s, SimTime::from_millis(ms)))
                    .collect(),
            }
        }

        #[test]
        fn punctual_stream_needs_no_buffer() {
            // Every packet takes exactly 50 ms.
            let o = obs(5, vec![(0, 50), (1, 70), (2, 90), (3, 110), (4, 130)]);
            assert_eq!(unusable_fraction(&o, Duration::ZERO), 0.0);
            assert_eq!(min_depth_for(&o, 0.0), Some(Duration::ZERO));
        }

        #[test]
        fn late_packet_counted_until_buffer_absorbs_it() {
            // Packet 1 takes 90 ms instead of 50.
            let o = obs(3, vec![(0, 50), (2, 90), (1, 110)]);
            assert!((unusable_fraction(&o, Duration::ZERO) - 1.0 / 3.0).abs() < 1e-9);
            assert_eq!(unusable_fraction(&o, Duration::from_millis(40)), 0.0);
            assert_eq!(min_depth_for(&o, 0.0), Some(Duration::from_millis(40)));
        }

        #[test]
        fn loss_cannot_be_buffered_away() {
            let o = obs(4, vec![(0, 50), (1, 70), (3, 110)]); // 2 lost
            assert!((unusable_fraction(&o, Duration::from_secs(1)) - 0.25).abs() < 1e-9);
            assert_eq!(min_depth_for(&o, 0.1), None);
            assert_eq!(min_depth_for(&o, 0.25), Some(Duration::ZERO));
        }

        #[test]
        fn empty_observation() {
            let o = obs(0, vec![]);
            assert_eq!(unusable_fraction(&o, Duration::ZERO), 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use reorder_netsim::pipes::CrossTraffic;

    #[test]
    fn observe_stream_counts_and_orders() {
        let mut sc = scenario::validation_rig(0.0, 0.0, 300);
        let obs = observe_stream(&mut sc, 40, Duration::from_micros(50), 200);
        assert_eq!(obs.sent, 40);
        assert_eq!(obs.arrivals.len(), 40);
        assert_eq!(obs.arrival_order(), (0..40).collect::<Vec<u64>>());
        assert_eq!(obs.loss_fraction(), 0.0);
        // Transit times are positive and identical on a clean path.
        let t = obs.transits();
        assert!(t.iter().all(|&d| d > Duration::ZERO));
        assert_eq!(t.iter().min(), t.iter().max());
    }

    #[test]
    fn reordered_stream_shows_dup_acks_end_to_end() {
        let mut sc = scenario::validation_rig(0.4, 0.0, 301);
        let obs = observe_stream(&mut sc, 200, Duration::ZERO, 40);
        let order = obs.arrival_order();
        let spurious1 = tcp::spurious_fast_retransmits(&order, 1);
        assert!(spurious1 > 20, "swaps must show up ({spurious1})");
        // A single adjacent swap yields exactly one dup ACK, so the
        // default threshold of 3 fires rarely on this channel.
        let spurious3 = tcp::spurious_fast_retransmits(&order, 3);
        assert!(spurious3 < spurious1 / 4);
    }

    #[test]
    fn striped_path_impact_depends_on_spacing() {
        let mut sc = scenario::striped_path(CrossTraffic::backbone(), 302);
        let close = observe_stream(&mut sc, 400, Duration::ZERO, 40);
        let mut sc = scenario::striped_path(CrossTraffic::backbone(), 303);
        let spread = observe_stream(&mut sc, 400, Duration::from_micros(100), 40);
        let c = tcp::spurious_fast_retransmits(&close.arrival_order(), 1);
        let s = tcp::spurious_fast_retransmits(&spread.arrival_order(), 1);
        assert!(
            c > s,
            "back-to-back stream must suffer more reordering ({c} vs {s})"
        );
    }
}
