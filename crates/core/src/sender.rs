//! A closed-loop TCP sender over the simulated network — the evaluation
//! rig for the reordering-robust TCP proposals of the related work
//! (§II: "several researchers have used [existing studies] to justify
//! modifications to TCP designed to better tolerate packet reordering
//! ... Most of these approaches dynamically change the fast retransmit
//! threshold"; the paper argues such projects need exactly the
//! measurements this toolkit produces).
//!
//! The sender implements Reno-style congestion control driven entirely
//! by the acknowledgment stream a [`reorder_tcpstack::TcpHost`]
//! receiver generates: slow start, congestion avoidance, fast
//! retransmit at a configurable (or adaptive) duplicate-ACK threshold,
//! halving on fast retransmit, and a coarse retransmission timeout.
//! Running it across a reordering path measures the §I claim directly:
//! reordering misread as loss halves the window and clamps goodput, and
//! raising/adapting `dupthresh` wins it back.

use crate::probe::{ProbeError, Prober};
use reorder_wire::{Ipv4Addr4, TcpFlags};
use std::time::Duration;

/// Fast-retransmit threshold policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DupThresh {
    /// Fixed threshold (standard TCP uses 3).
    Fixed(usize),
    /// Blanton-Allman-style: start at the given value; each time a fast
    /// retransmission is discovered to be spurious, raise the threshold
    /// to the duplicate-ACK count that triggered it plus one.
    Adaptive(usize),
    /// Never fast-retransmit (timeout-only recovery) — the upper bound
    /// a reordering-tolerant sender could reach on a loss-free path.
    Never,
}

/// Sender configuration.
#[derive(Debug, Clone, Copy)]
pub struct SenderConfig {
    /// Bytes to transfer.
    pub bytes: usize,
    /// Segment size.
    pub mss: usize,
    /// Threshold policy.
    pub dupthresh: DupThresh,
    /// Initial congestion window in segments.
    pub initial_cwnd: usize,
    /// Slow-start threshold in segments.
    pub initial_ssthresh: usize,
    /// Retransmission timeout (coarse, fixed — fine for a controlled
    /// path whose RTT is stable).
    pub rto: Duration,
    /// Hard wall-clock limit on the transfer (simulated time).
    pub deadline: Duration,
}

impl Default for SenderConfig {
    fn default() -> Self {
        SenderConfig {
            bytes: 256 * 1024,
            mss: 1000,
            dupthresh: DupThresh::Fixed(3),
            initial_cwnd: 2,
            initial_ssthresh: 64,
            rto: Duration::from_millis(300),
            deadline: Duration::from_secs(600),
        }
    }
}

/// Transfer outcome.
#[derive(Debug, Clone, Copy)]
pub struct TransferStats {
    /// Bytes acknowledged.
    pub bytes_acked: usize,
    /// Simulated transfer duration.
    pub elapsed: Duration,
    /// Fast retransmissions fired.
    pub fast_retransmits: usize,
    /// Fast retransmissions that were spurious (the "lost" segment had
    /// actually been delivered — detectable here because the receiver's
    /// cumulative ACK after recovery jumps past data we never
    /// re-sent... tracked directly via duplicate delivery accounting).
    pub spurious_retransmits: usize,
    /// Timeout-based retransmissions.
    pub timeouts: usize,
    /// Final duplicate-ACK threshold (interesting for `Adaptive`).
    pub final_dupthresh: usize,
}

impl TransferStats {
    /// Goodput in bits per second of simulated time.
    pub fn goodput_bps(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.bytes_acked as f64 * 8.0 / self.elapsed.as_secs_f64()
    }
}

/// Drive a full transfer to `target:port` (which must be a
/// [`reorder_tcpstack::TcpHost`]-style receiver; data to a listening
/// port is ACKed per its stack rules even though the payload is
/// discarded above the HTTP trigger check).
pub fn run_transfer(
    p: &mut Prober,
    target: Ipv4Addr4,
    port: u16,
    cfg: SenderConfig,
) -> Result<TransferStats, ProbeError> {
    let mut conn = p.handshake(target, port, cfg.mss as u16, 65535, Duration::from_secs(2))?;
    let flow = conn.flow;
    let base = conn.snd_nxt;
    let total_segs = cfg.bytes.div_ceil(cfg.mss);
    let seg_len = cfg.mss as u32;

    let mut cwnd = cfg.initial_cwnd as f64;
    let mut ssthresh = cfg.initial_ssthresh as f64;
    let (mut thresh, adaptive) = match cfg.dupthresh {
        DupThresh::Fixed(n) => (n, false),
        DupThresh::Adaptive(n) => (n, true),
        DupThresh::Never => (usize::MAX, false),
    };

    let mut snd_una = 0usize; // segment index of first unacked
    let mut snd_nxt = 0usize; // next new segment index
    let mut dupacks = 0usize;
    let mut fast_retransmits = 0usize;
    let mut spurious = 0usize;
    let mut timeouts = 0usize;
    // Recovery bookkeeping: after a fast retransmit, if the next
    // cumulative ACK advances past *more* than the retransmitted
    // segment without further retransmissions, the original had been
    // delivered and the retransmit was spurious (DSACK-style
    // inference, simplified for a single-retransmit recovery).
    let mut in_recovery: Option<(usize, usize)> = None; // (seg, dupacks at trigger)
    let mut last_progress = p.now();

    let start = p.now();
    let deadline = start + cfg.deadline;

    let seg_seq = |i: usize| base + (i as u32) * seg_len;

    while snd_una < total_segs {
        if p.now() >= deadline {
            break;
        }
        // Fill the window.
        let window = cwnd.floor().max(1.0) as usize;
        while snd_nxt < total_segs && snd_nxt - snd_una < window {
            let data = vec![(snd_nxt % 251) as u8; cfg.mss];
            let pkt = p
                .tcp_pkt(&conn)
                .seq(seg_seq(snd_nxt))
                .ack(conn.rcv_nxt)
                .flags(TcpFlags::ACK)
                .data(data)
                .build();
            p.send(pkt);
            snd_nxt += 1;
        }
        // Await an ACK (or run into the RTO).
        let ack_pkt = p.recv_where(
            |pkt| {
                pkt.flow() == Some(flow.reversed())
                    && pkt.tcp().is_some_and(|t| {
                        t.flags.contains(TcpFlags::ACK)
                            && !t.flags.intersects(TcpFlags::SYN | TcpFlags::RST)
                    })
            },
            cfg.rto,
        );
        match ack_pkt {
            Some(r) => {
                let ack = r.pkt.tcp().expect("tcp").ack;
                let acked_segs = ((ack - base) / seg_len as i32).max(0) as usize;
                if acked_segs > snd_una {
                    // New data acknowledged.
                    if let Some((seg, trigger_dups)) = in_recovery.take() {
                        // If the ACK jumped beyond the retransmitted
                        // segment immediately, everything (including
                        // the original) had arrived: spurious.
                        if acked_segs > seg + 1 {
                            spurious += 1;
                            if adaptive {
                                thresh = (trigger_dups + 1).max(thresh);
                            }
                        }
                    }
                    snd_una = acked_segs;
                    // After a go-back-N rewind, a retransmission that
                    // plugs a hole can coalesce with queued segments and
                    // jump the cumulative ACK past the rewound send
                    // point; never send below snd_una again.
                    snd_nxt = snd_nxt.max(snd_una);
                    dupacks = 0;
                    last_progress = p.now();
                    if cwnd < ssthresh {
                        cwnd += 1.0; // slow start
                    } else {
                        cwnd += 1.0 / cwnd; // congestion avoidance
                    }
                } else if snd_nxt > snd_una {
                    // Duplicate ACK.
                    dupacks += 1;
                    if dupacks >= thresh && in_recovery.is_none() {
                        // Fast retransmit of the first unacked segment.
                        fast_retransmits += 1;
                        in_recovery = Some((snd_una, dupacks));
                        ssthresh = (cwnd / 2.0).max(2.0);
                        cwnd = ssthresh;
                        let data = vec![(snd_una % 251) as u8; cfg.mss];
                        let pkt = p
                            .tcp_pkt(&conn)
                            .seq(seg_seq(snd_una))
                            .ack(conn.rcv_nxt)
                            .flags(TcpFlags::ACK)
                            .data(data)
                            .build();
                        p.send(pkt);
                        dupacks = 0;
                    }
                }
            }
            None => {
                // RTO fired with nothing in flight acked recently.
                if p.now().since(last_progress) >= cfg.rto && snd_una < snd_nxt {
                    timeouts += 1;
                    in_recovery = None;
                    ssthresh = (cwnd / 2.0).max(2.0);
                    cwnd = cfg.initial_cwnd as f64;
                    snd_nxt = snd_una; // go-back-N from the hole
                    dupacks = 0;
                    last_progress = p.now();
                }
            }
        }
    }
    let elapsed = p.now().since(start);
    p.close(&mut conn, Duration::from_secs(1));
    Ok(TransferStats {
        bytes_acked: (snd_una * cfg.mss).min(cfg.bytes),
        elapsed,
        fast_retransmits,
        spurious_retransmits: spurious,
        timeouts,
        final_dupthresh: thresh,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;
    use reorder_tcpstack::{DelayedAck, HostPersonality};

    /// Receiver that ACKs every segment. A delaying receiver stalls
    /// 200 ms whenever the in-flight parity leaves one segment pending
    /// (the classic odd-window/delayed-ACK interaction), which swamps
    /// the congestion-control effects these tests compare.
    fn eager_receiver() -> HostPersonality {
        HostPersonality {
            delayed_ack: DelayedAck::disabled(),
            ..HostPersonality::freebsd4()
        }
    }

    fn transfer(fwd_swap: f64, rev_swap: f64, policy: DupThresh, seed: u64) -> TransferStats {
        let mut sc = scenario::validation_rig_with(fwd_swap, rev_swap, eager_receiver(), seed);
        let cfg = SenderConfig {
            bytes: 64 * 1024,
            dupthresh: policy,
            ..SenderConfig::default()
        };
        run_transfer(&mut sc.prober, sc.target, 80, cfg).expect("transfer")
    }

    #[test]
    fn clean_path_completes_without_retransmits() {
        let s = transfer(0.0, 0.0, DupThresh::Fixed(3), 1);
        assert_eq!(s.bytes_acked, 64 * 1024);
        assert_eq!(s.fast_retransmits, 0);
        assert_eq!(s.timeouts, 0);
        assert!(s.goodput_bps() > 1e6, "goodput {}", s.goodput_bps());
    }

    #[test]
    fn reordering_causes_spurious_fast_retransmits_at_thresh_one() {
        // dupthresh=1 misfires on every exchange.
        let s = transfer(0.3, 0.0, DupThresh::Fixed(1), 2);
        assert_eq!(s.bytes_acked, 64 * 1024);
        assert!(s.fast_retransmits > 5, "{s:?}");
        assert!(s.spurious_retransmits > 0, "{s:?}");
    }

    #[test]
    fn higher_threshold_restores_goodput() {
        let low = transfer(0.3, 0.0, DupThresh::Fixed(1), 3);
        let never = transfer(0.3, 0.0, DupThresh::Never, 3);
        assert!(
            never.goodput_bps() > low.goodput_bps(),
            "never {} <= low {}",
            never.goodput_bps(),
            low.goodput_bps()
        );
        assert_eq!(never.fast_retransmits, 0);
    }

    #[test]
    fn adaptive_threshold_converges_and_beats_static() {
        let fixed = transfer(0.3, 0.0, DupThresh::Fixed(1), 4);
        let adaptive = transfer(0.3, 0.0, DupThresh::Adaptive(1), 4);
        assert!(
            adaptive.final_dupthresh > 1,
            "adaptive threshold must rise: {adaptive:?}"
        );
        assert!(adaptive.spurious_retransmits <= fixed.spurious_retransmits);
    }

    #[test]
    fn deadline_bounds_pathological_paths() {
        // Heavy loss without working retransmission limits: still ends.
        let mut sc = scenario::lossy_rig(0.4, 0.4, 5);
        let cfg = SenderConfig {
            bytes: 32 * 1024,
            deadline: Duration::from_secs(5),
            ..SenderConfig::default()
        };
        let s = run_transfer(&mut sc.prober, sc.target, 80, cfg);
        if let Ok(s) = s {
            assert!(s.elapsed <= Duration::from_secs(6));
        } // handshake failure under 40% loss is also acceptable
    }
}
