//! The prior-art baselines of §II, implemented for comparison:
//!
//! * **Bennett et al.** \[2\] — bursts of ICMP echo requests; reordering
//!   judged from the order of the echo replies. Cannot attribute an
//!   exchange to the forward or reverse path, and falls apart when ICMP
//!   is filtered or rate-limited.
//! * **Paxson** \[10\] — passive analysis of the TCP sequence numbers in
//!   a data transfer's packet trace. Unidirectional, but entangled with
//!   TCP's own sending dynamics and requiring (in the real world)
//!   cooperation from both endpoints; here we reuse the Data Transfer
//!   Test's machinery and report the session-level statistics Paxson
//!   reported.

use crate::metrics::{self, ReorderEstimate};
use crate::probe::{ProbeError, Prober};
use crate::sample::TestConfig;
use crate::techniques::DataTransferTest;
use reorder_wire::{Ipv4Addr4, PacketBuilder};
use std::time::Duration;

/// Result of one ICMP burst (Bennett-style).
#[derive(Debug, Clone)]
pub(crate) struct IcmpBurstResult {
    /// Echo sequence numbers in reply arrival order.
    pub arrival_order: Vec<u16>,
}

impl IcmpBurstResult {
    /// Did the burst see at least one reordering event? (The metric
    /// Bennett et al. report for 5-packet bursts.)
    pub(crate) fn any_reordered(&self) -> bool {
        self.exchanges() > 0
    }

    /// Round-trip exchange count. Note the inherent ambiguity the paper
    /// criticizes: an exchange may have happened on the request path,
    /// the reply path, or both — this number cannot say.
    pub fn exchanges(&self) -> usize {
        let seq: Vec<u64> = self.arrival_order.iter().map(|&s| u64::from(s)).collect();
        metrics::exchanges(&seq)
    }
}

/// Bennett-style ICMP burst prober.
#[derive(Debug, Clone)]
pub struct IcmpBurstTest {
    /// Packets per burst (Bennett et al. used 5 and 100).
    pub burst: usize,
    /// Payload size per request (their experiments: 56 and 512 bytes).
    pub payload: usize,
    /// Gap between requests within a burst.
    pub gap: Duration,
    /// How long to wait for stragglers after the burst.
    pub collect_timeout: Duration,
}

impl Default for IcmpBurstTest {
    fn default() -> Self {
        IcmpBurstTest {
            burst: 5,
            payload: 56,
            gap: Duration::ZERO,
            collect_timeout: Duration::from_millis(900),
        }
    }
}

impl IcmpBurstTest {
    /// Fire one burst at `target` and collect replies.
    pub(crate) fn run_burst(
        &self,
        p: &mut Prober,
        target: Ipv4Addr4,
        ident: u16,
    ) -> Result<IcmpBurstResult, ProbeError> {
        p.flush();
        for i in 0..self.burst {
            let ipid = p.alloc_ipid();
            let pkt = PacketBuilder::icmp_echo(ident, i as u16)
                .src(p.local_addr, 0)
                .dst(target, 0)
                .ipid(ipid)
                .data(vec![0xA5; self.payload])
                .build();
            p.send(pkt);
            if !self.gap.is_zero() {
                p.run_for(self.gap);
            }
        }
        let local = p.local_addr;
        let replies = p.recv_n_where(
            move |pkt| {
                pkt.ip.dst == local
                    && pkt.icmp().is_some_and(|h| {
                        h.icmp_type == reorder_wire::IcmpType::EchoReply && h.ident == ident
                    })
            },
            self.burst,
            self.collect_timeout,
        );
        if replies.is_empty() {
            return Err(ProbeError::HostUnsuitable(
                "no ICMP echo replies (filtered?)".to_string(),
            ));
        }
        Ok(IcmpBurstResult {
            arrival_order: replies
                .iter()
                .map(|r| r.pkt.icmp().expect("icmp").seq)
                .collect(),
        })
    }

    /// Run `bursts` bursts and estimate the fraction with ≥ 1 exchange
    /// (the headline Bennett number: "for bursts of five 56-byte packets
    /// ... over 90 percent saw at least one reordering event").
    pub fn run(
        &self,
        p: &mut Prober,
        target: Ipv4Addr4,
        bursts: usize,
        pace: Duration,
    ) -> Result<ReorderEstimate, ProbeError> {
        let mut with_event = 0;
        let mut completed = 0;
        for b in 0..bursts {
            p.run_for(pace);
            match self.run_burst(p, target, 0x4000 + b as u16) {
                Ok(res) => {
                    completed += 1;
                    if res.any_reordered() {
                        with_event += 1;
                    }
                }
                Err(ProbeError::HostUnsuitable(e)) => return Err(ProbeError::HostUnsuitable(e)),
                Err(_) => {}
            }
        }
        Ok(ReorderEstimate::new(with_event, completed))
    }
}

/// Paxson-style passive session statistics from one observed transfer.
#[derive(Debug, Clone)]
pub struct PaxsonSessionStats {
    /// Data packets observed.
    pub packets: usize,
    /// Packets flagged reordered by the non-reversing-sequence rule.
    pub reordered_packets: usize,
    /// Whether the session had any reordering event.
    pub any_event: bool,
}

impl PaxsonSessionStats {
    /// Fraction of packets delivered out of order.
    pub fn packet_rate(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.reordered_packets as f64 / self.packets as f64
        }
    }
}

/// Run one Paxson-style observation: perform a TCP transfer and apply
/// the trace-analysis rule to the arrival sequence. (Paxson reported,
/// across sessions: the fraction of sessions with ≥ 1 event, and the
/// fraction of packets reordered.)
pub fn paxson_session(
    p: &mut Prober,
    target: Ipv4Addr4,
    port: u16,
) -> Result<PaxsonSessionStats, ProbeError> {
    let run = crate::measurer::Technique::execute(
        &DataTransferTest::new(TestConfig::default()),
        &mut crate::measurer::Session::new(p, target, port),
    )?;
    // Reconstruct the arrival sequence from the pairwise samples: the
    // first element of each pair plus the final pair's second element.
    let mut arrivals: Vec<u64> = Vec::with_capacity(run.samples.len() + 1);
    for (i, s) in run.samples.iter().enumerate() {
        let rev = s.forensics.rev.as_ref().expect("transfer samples have rev");
        // Samples store (min, max); recover arrival order from verdict.
        let (first, second) = if s.outcome.rev == crate::sample::Order::Reordered {
            (rev[1].seq.expect("seq"), rev[0].seq.expect("seq"))
        } else {
            (rev[0].seq.expect("seq"), rev[1].seq.expect("seq"))
        };
        if i == 0 {
            arrivals.push(u64::from(first.raw()));
        }
        arrivals.push(u64::from(second.raw()));
    }
    let flags = metrics::non_reversing_reordered(&arrivals);
    let reordered = flags.iter().filter(|&&f| f).count();
    Ok(PaxsonSessionStats {
        packets: arrivals.len(),
        reordered_packets: reordered,
        any_event: reordered > 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use reorder_tcpstack::HostPersonality;

    #[test]
    fn icmp_burst_on_clean_path_sees_nothing() {
        let mut sc = scenario::validation_rig(0.0, 0.0, 100);
        let est = IcmpBurstTest::default()
            .run(&mut sc.prober, sc.target, 20, Duration::from_millis(5))
            .expect("run");
        assert_eq!(est.reordered, 0);
        assert_eq!(est.total, 20);
    }

    #[test]
    fn icmp_burst_sees_swaps_but_cannot_attribute() {
        // Forward-only swaps...
        let mut sc = scenario::validation_rig(0.5, 0.0, 101);
        let fwd_only = IcmpBurstTest::default()
            .run(&mut sc.prober, sc.target, 30, Duration::from_millis(5))
            .expect("run");
        // ...and reverse-only swaps...
        let mut sc = scenario::validation_rig(0.0, 0.5, 102);
        let rev_only = IcmpBurstTest::default()
            .run(&mut sc.prober, sc.target, 30, Duration::from_millis(5))
            .expect("run");
        // ...both show up, indistinguishably (the §II criticism).
        assert!(fwd_only.rate() > 0.3, "fwd {:?}", fwd_only);
        assert!(rev_only.rate() > 0.3, "rev {:?}", rev_only);
    }

    #[test]
    fn icmp_filtered_host_unusable() {
        let mut sc = scenario::validation_rig_with(0.0, 0.0, HostPersonality::hardened(), 103);
        let err = IcmpBurstTest::default()
            .run(&mut sc.prober, sc.target, 3, Duration::from_millis(5))
            .unwrap_err();
        assert!(matches!(err, ProbeError::HostUnsuitable(_)));
    }

    #[test]
    fn burst_metrics() {
        let r = IcmpBurstResult {
            arrival_order: vec![0, 2, 1, 3, 4],
        };
        assert!(r.any_reordered());
        assert_eq!(r.exchanges(), 1);
        let clean = IcmpBurstResult {
            arrival_order: vec![0, 1, 2],
        };
        assert!(!clean.any_reordered());
    }

    #[test]
    fn paxson_session_counts_events() {
        let mut sc = scenario::validation_rig(0.0, 0.3, 104);
        let stats = paxson_session(&mut sc.prober, sc.target, 80).expect("session");
        assert!(stats.packets >= 60);
        assert!(stats.any_event);
        assert!(stats.packet_rate() > 0.02);
        // Clean path: no events.
        let mut sc = scenario::validation_rig(0.0, 0.0, 105);
        let stats = paxson_session(&mut sc.prober, sc.target, 80).expect("session");
        assert!(!stats.any_event);
        assert_eq!(stats.packet_rate(), 0.0);
    }
}
