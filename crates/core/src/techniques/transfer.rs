//! The TCP Data Transfer Test (§III-E) — the baseline the new
//! techniques are compared against.
//!
//! Fetch an object over HTTP-ish TCP and watch the sequence numbers of
//! the arriving data segments. To suppress congestion-control dynamics
//! the client (a) acknowledges **the largest sequence number received,
//! even if intermediate data is lost**, and (b) clamps the advertised
//! MSS and receive window so the server emits a steady stream of small
//! segments.
//!
//! Only the reverse path (server → probe) is measurable, the remote
//! must run a public data service, and the object must span at least
//! two segments ("this is a problem in practice for sites that use
//! HTTP redirects, which fit in a single packet").

use crate::measurer::{Requirements, Session, Technique};
use crate::probe::ProbeError;
use crate::sample::{
    MeasurementRun, Order, PacketMatcher, SampleForensics, SampleOutcome, SampleRecord, TestConfig,
};
use crate::techniques::TestKind;
use reorder_wire::{SeqNum, TcpFlags};
use std::time::Duration;

/// The TCP Data Transfer Test.
#[derive(Debug, Clone)]
pub struct DataTransferTest {
    /// Shared knobs. `samples` and `gap` are ignored: the object size
    /// determines the sample count ("a variable number of samples
    /// depending on the number of packets required to transfer the root
    /// Web object").
    pub cfg: TestConfig,
    /// MSS to advertise (clamped small to get many segments).
    pub clamp_mss: u16,
    /// Receive window to advertise (limits the in-flight burst).
    pub clamp_window: u16,
}

impl DataTransferTest {
    /// Default clamps: 256-byte MSS, 2-segment window.
    pub fn new(cfg: TestConfig) -> Self {
        DataTransferTest {
            cfg,
            clamp_mss: 256,
            clamp_window: 512,
        }
    }

    fn fetch(&self, session: &mut Session<'_>) -> Result<MeasurementRun, ProbeError> {
        // Without keep-alive the clamped connection is consumed by the
        // transfer (FIN or RST), so it is checked out but never checked
        // back in. With `cfg.keep_alive` the request asks the server
        // for a persistent connection and a cleanly finished fetch is
        // returned to the session for the next round — on a reusing
        // session, multi-round transfer baselines share one handshake.
        let mut conn = session.checkout(
            "transfer",
            self.clamp_mss,
            self.clamp_window,
            self.cfg.reply_timeout,
        )?;
        let keep_alive = self.cfg.keep_alive;
        let p = session.prober();
        let flow = conn.flow;
        let started = p.now();
        let req: reorder_wire::Bytes = if keep_alive {
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".into()
        } else {
            b"GET / HTTP/1.0\r\n\r\n".into()
        };
        let req_len = req.len() as u32;
        let get = p
            .tcp_pkt(&conn)
            .seq(conn.snd_nxt)
            .ack(conn.rcv_nxt)
            .flags(TcpFlags::ACK | TcpFlags::PSH)
            .window(self.clamp_window)
            .data(req)
            .build();
        conn.snd_nxt = conn.snd_nxt + req_len;
        p.send(get);

        // Collect data segments, ACKing the highest byte seen.
        let mut arrivals: Vec<SeqNum> = Vec::new();
        let mut highest_end = conn.rcv_nxt;
        let mut fin_seen = false;
        let mut rst_seen = false;
        let mut done_seen = false;
        loop {
            let got = p.recv_where(
                |pkt| {
                    pkt.flow() == Some(flow.reversed())
                        && pkt.tcp().is_some_and(|t| {
                            t.flags.contains(TcpFlags::FIN)
                                || t.flags.contains(TcpFlags::RST)
                                || pkt.tcp_data().is_some_and(|d| !d.is_empty())
                                // Keep-alive completion marker: empty
                                // PSH|ACK from the server (see
                                // `Conn::pump_tx`).
                                || (keep_alive
                                    && t.flags.contains(TcpFlags::PSH | TcpFlags::ACK)
                                    && pkt.tcp_data().is_some_and(<[u8]>::is_empty))
                        })
                },
                self.cfg.reply_timeout,
            );
            let Some(r) = got else {
                break; // idle: transfer stalled or finished silently
            };
            let Some(tcp) = r.pkt.tcp() else {
                break; // never taken: the filter admits only TCP segments
            };
            if tcp.flags.contains(TcpFlags::RST) {
                rst_seen = true;
                break;
            }
            if keep_alive
                && tcp.flags.contains(TcpFlags::PSH | TcpFlags::ACK)
                && r.pkt.tcp_data().is_some_and(<[u8]>::is_empty)
            {
                // Positive completion: the whole object was served and
                // acknowledged; the connection is reusable.
                done_seen = true;
                break;
            }
            let dlen = r.pkt.tcp_data().map_or(0, <[u8]>::len) as u32;
            if dlen > 0 {
                arrivals.push(tcp.seq);
                let end = tcp.seq + dlen;
                if end > highest_end {
                    highest_end = end;
                }
                // "generating acknowledgments for the largest sequence
                // number received, even if intermediate data is lost"
                let ack = p
                    .tcp_pkt(&conn)
                    .seq(conn.snd_nxt)
                    .ack(highest_end)
                    .flags(TcpFlags::ACK)
                    .window(self.clamp_window)
                    .build();
                p.send(ack);
            }
            if tcp.flags.contains(TcpFlags::FIN) {
                fin_seen = true;
                conn.rcv_nxt = tcp.seq + dlen + 1;
                let ack = p
                    .tcp_pkt(&conn)
                    .seq(conn.snd_nxt)
                    .ack(conn.rcv_nxt)
                    .flags(TcpFlags::ACK)
                    .window(self.clamp_window)
                    .build();
                p.send(ack);
                break;
            }
        }
        // A persistent fetch ends with the server's completion marker,
        // the client's positive signal to hand the connection back to
        // the session. A fetch that instead ended by RST, FIN or idle
        // timeout (tail loss leaves the server's transmit stalled with
        // no marker) is NOT reusable — checking it in would poison the
        // next round, so it takes the teardown paths below and the
        // next round handshakes afresh.
        let keep = done_seen && !fin_seen && !rst_seen && arrivals.len() >= 2;
        if keep {
            conn.rcv_nxt = highest_end;
            session.checkin(
                "transfer",
                self.clamp_mss,
                self.clamp_window,
                conn,
                self.cfg.reply_timeout,
            );
        } else if !fin_seen {
            // Stalled (loss without retransmission, or no object): shut
            // the connection down hard.
            p.abort(&conn);
        } else {
            // Our side still owes a FIN.
            let fin = p
                .tcp_pkt(&conn)
                .seq(conn.snd_nxt)
                .ack(conn.rcv_nxt)
                .flags(TcpFlags::FIN | TcpFlags::ACK)
                .build();
            p.send(fin);
            p.run_for(Duration::from_millis(2));
        }

        if arrivals.len() < 2 {
            return Err(ProbeError::HostUnsuitable(format!(
                "object spanned {} segment(s); need at least 2 (§III-E)",
                arrivals.len()
            )));
        }

        // Every adjacent arrival pair is one reverse-path sample. The
        // server transmits in sequence order (no retransmissions occur
        // under the ACK-highest policy), so arrival inversions are
        // in-flight exchanges.
        let mut run = MeasurementRun::default();
        for pair in arrivals.windows(2) {
            let reordered = pair[1] < pair[0];
            run.samples.push(SampleRecord {
                outcome: SampleOutcome {
                    fwd: Order::Indeterminate, // this test cannot see forward
                    rev: if reordered {
                        Order::Reordered
                    } else {
                        Order::Ordered
                    },
                },
                forensics: SampleForensics {
                    started,
                    fwd: [
                        PacketMatcher::flow(flow), // placeholders; fwd unused
                        PacketMatcher::flow(flow),
                    ],
                    rev: Some([
                        PacketMatcher::flow(flow.reversed())
                            .seq(pair[0].min(pair[1]))
                            .min_data(1),
                        PacketMatcher::flow(flow.reversed())
                            .seq(pair[0].max(pair[1]))
                            .min_data(1),
                    ]),
                },
            });
        }
        Ok(run)
    }
}

impl Technique for DataTransferTest {
    fn kind(&self) -> TestKind {
        TestKind::DataTransfer
    }

    fn requirements(&self) -> Requirements {
        Requirements {
            measures_fwd: false, // "only the reverse path is measurable"
            measures_rev: true,
            connections: 1,
            needs_global_ipid: false,
            needs_object: true,
        }
    }

    fn execute(&self, session: &mut Session<'_>) -> Result<MeasurementRun, ProbeError> {
        self.fetch(session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn clean_transfer_all_ordered() {
        let mut sc = scenario::validation_rig(0.0, 0.0, 80);
        let run = DataTransferTest::new(TestConfig::default())
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        // 16 KiB object at 256-byte MSS → 64 segments → 63 samples.
        assert_eq!(run.samples.len(), 63);
        assert_eq!(run.rev_reordered(), 0);
        assert_eq!(run.rev_determinate(), 63);
        assert_eq!(run.fwd_determinate(), 0, "no forward inference");
    }

    #[test]
    fn reverse_swaps_detected() {
        let mut sc = scenario::validation_rig(0.0, 0.25, 81);
        let run = DataTransferTest::new(TestConfig::default())
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        assert!(run.samples.len() >= 50);
        let rate = run.rev_estimate().rate();
        assert!(rate > 0.05, "swaps must be visible, got {rate}");
    }

    #[test]
    fn forward_swaps_invisible() {
        // Reordering the GET direction cannot affect this test.
        let mut sc = scenario::validation_rig(0.9, 0.0, 82);
        let run = DataTransferTest::new(TestConfig::default())
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        assert_eq!(run.rev_reordered(), 0);
    }

    #[test]
    fn small_object_rejected() {
        // 256-byte object fits one clamped segment → unusable (§III-E:
        // HTTP-redirect-sized responses).
        let spec = scenario::HostSpec {
            delay: Duration::from_millis(5),
            object_size: 200,
            ..scenario::HostSpec::clean("tiny", reorder_tcpstack::HostPersonality::freebsd4())
        };
        let mut sc = scenario::internet_host(&spec, 83);
        let mut session = Session::new(&mut sc.prober, sc.target, 80);
        match DataTransferTest::new(TestConfig::default()).execute(&mut session) {
            Err(ProbeError::HostUnsuitable(why)) => assert!(why.contains("segment")),
            other => panic!("expected HostUnsuitable, got {other:?}"),
        }
    }

    #[test]
    fn keep_alive_reuses_one_clamped_connection_across_rounds() {
        use crate::measurer::{Session, Technique};
        let mut sc = scenario::validation_rig(0.0, 0.1, 85);
        let mut session = Session::new(&mut sc.prober, sc.target, 80).with_reuse(true);
        let test = DataTransferTest::new(TestConfig::default().with_keep_alive(true));
        for round in 0..3 {
            let run = test.execute(&mut session).expect("round");
            assert_eq!(run.samples.len(), 63, "round {round}: full object");
        }
        assert_eq!(
            session.stats().handshakes,
            1,
            "rounds 2 and 3 must ride round 1's clamped connection"
        );
        assert_eq!(session.stats().reused, 2);
        session.finish(Duration::from_secs(1));
        assert_eq!(
            session.prober().handshakes_performed(),
            1,
            "wire-level truth"
        );
    }

    #[test]
    fn keep_alive_under_loss_never_reuses_a_stalled_connection() {
        // Tail loss leaves the server's transmit stalled and produces
        // no completion marker, so the fetch must NOT check the
        // connection in; later rounds recover with fresh handshakes
        // instead of being poisoned by a dead cached connection.
        use crate::measurer::{Session, Technique};
        let mut sc = scenario::lossy_rig(0.0, 0.08, 87);
        let mut session = Session::new(&mut sc.prober, sc.target, 80).with_reuse(true);
        let test = DataTransferTest::new(TestConfig::default().with_keep_alive(true));
        let mut completed = 0;
        for _ in 0..4 {
            if let Ok(run) = test.execute(&mut session) {
                assert!(run.samples.len() >= 2);
                completed += 1;
            }
        }
        assert!(completed >= 2, "rounds must keep completing under loss");
        let stats = session.stats();
        // Every reuse must have been of a marker-confirmed connection:
        // checkouts = handshakes + reused, and no round may error from
        // a poisoned cache (an erroring round here would return 0
        // arrivals; `completed` counts the successes).
        assert_eq!(stats.handshakes + stats.reused, 4);
    }

    #[test]
    fn keep_alive_without_session_reuse_closes_politely() {
        // `--no-reuse` semantics: the keep-alive fetch still works, but
        // the checkin closes the connection, so every round handshakes.
        use crate::measurer::{Session, Technique};
        let mut sc = scenario::validation_rig(0.0, 0.0, 86);
        let mut session = Session::new(&mut sc.prober, sc.target, 80);
        let test = DataTransferTest::new(TestConfig::default().with_keep_alive(true));
        for _ in 0..2 {
            let run = test.execute(&mut session).expect("round");
            assert_eq!(run.samples.len(), 63);
        }
        assert_eq!(session.stats().handshakes, 2);
        assert_eq!(session.stats().reused, 0);
    }

    #[test]
    fn loss_tolerated_by_ack_highest_policy() {
        let mut sc = scenario::lossy_rig(0.0, 0.05, 84);
        let run = DataTransferTest::new(TestConfig::default())
            .execute(&mut Session::new(&mut sc.prober, sc.target, 80))
            .expect("run");
        // Lost segments simply vanish from the arrival list; the
        // transfer still completes with fewer samples.
        assert!(run.samples.len() >= 40);
        assert!(run.samples.len() <= 63);
    }
}
