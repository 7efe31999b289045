//! Per-connection TCP state machine (server side).
//!
//! This is deliberately *not* a full TCP: it is the faithful subset that
//! the measurement techniques interrogate —
//!
//! * three-way handshake, including every second-SYN response variant
//!   of §III-D,
//! * cumulative ACK generation with real delayed-ACK semantics
//!   (delaying for in-order data, **immediate** ACKs for out-of-order
//!   data — the property §III-B's reversed ordering exploits — and
//!   configurable hole-fill behavior),
//! * out-of-order reassembly with ACK jumps when a hole fills,
//! * a minimal HTTP-ish object server honoring the peer's advertised
//!   window and MSS (the knobs the Data Transfer Test clamps),
//! * RST/FIN teardown.
//!
//! The state machine is pure: it consumes segment headers and emits
//! [`SegmentOut`] values plus a timer request, which the enclosing
//! [`crate::TcpHost`] turns into simulator packets and timers. This keeps
//! every behavior unit-testable without a simulator.

use crate::personality::{DelayedAck, SecondSynBehavior};
use crate::reasm::ReasmQueue;
use reorder_wire::{Bytes, SeqNum, TcpFlags, TcpHeader, TcpOption};

/// A segment the connection wants transmitted (addresses/IPID are the
/// host's job).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentOut {
    /// Sequence number.
    pub seq: SeqNum,
    /// Acknowledgment number.
    pub ack: SeqNum,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised window.
    pub window: u16,
    /// Payload — a zero-copy slice of the connection's object buffer
    /// for data segments, empty otherwise.
    pub data: Bytes,
    /// Options.
    pub options: Vec<TcpOption>,
}

/// Timer request returned from event handlers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerReq {
    /// No change to timers.
    None,
    /// (Re)arm the delayed-ACK timer for `DelayedAck::max_delay`.
    ArmAckTimer,
}

/// Connection lifecycle states (server-simplified).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// SYN received, SYN/ACK sent, awaiting ACK.
    SynRecv,
    /// Handshake complete.
    Established,
    /// We sent FIN (after serving the object or answering the peer's
    /// FIN); awaiting its ACK.
    LastAck,
    /// Done; the slot can be reaped.
    Closed,
}

/// Static per-connection configuration, derived from the host
/// personality.
#[derive(Debug, Clone)]
pub struct ConnCfg {
    /// Delayed-ACK behavior.
    pub delayed_ack: DelayedAck,
    /// Second-SYN response policy.
    pub second_syn: SecondSynBehavior,
    /// MSS we advertise and segment our sends by (before peer clamping).
    pub mss: u16,
    /// Receive window we advertise.
    pub window: u16,
    /// Size of the object served to an HTTP-ish `GET`; 0 = no content.
    pub object_size: usize,
    /// Whether to offer SACK blocks on duplicate ACKs (needed by the
    /// Bennett-style SACK metric).
    pub sack: bool,
}

/// Object transmission progress.
#[derive(Debug, Clone)]
struct TxObject {
    /// The whole object, built once; segments are zero-copy slices.
    body: Bytes,
    /// Bytes handed to the network so far.
    sent: usize,
    /// FIN transmitted after the body.
    fin_sent: bool,
    /// The request asked for a persistent connection: once the object
    /// is fully acknowledged, stay `Established` and await the next
    /// `GET` instead of closing.
    keep_alive: bool,
}

/// The deterministic, self-describing object body: byte `k` is
/// `k % 251`, so traces can verify content.
fn object_body(total: usize) -> Bytes {
    const PERIOD: usize = 251;
    let period: [u8; PERIOD] = std::array::from_fn(|k| k as u8);
    let mut body = Vec::with_capacity(total);
    while body.len() < total {
        let n = (total - body.len()).min(PERIOD);
        body.extend_from_slice(&period[..n]);
    }
    Bytes::from(body)
}

/// A server-side TCP connection.
#[derive(Debug, Clone)]
pub struct Conn {
    cfg: ConnCfg,
    /// Current state.
    pub state: ConnState,
    /// Initial remote sequence number (first SYN wins — the property the
    /// SYN Test reads back from the SYN/ACK).
    pub irs: SeqNum,
    /// Our initial sequence number.
    pub iss: SeqNum,
    /// Next byte expected from the peer.
    pub rcv_nxt: SeqNum,
    /// Next byte we would send.
    pub snd_nxt: SeqNum,
    /// Oldest unacknowledged byte of ours.
    pub snd_una: SeqNum,
    /// Peer's advertised window (latest).
    pub peer_wnd: u16,
    /// Peer's MSS from its SYN (536 default per RFC 1122).
    pub peer_mss: u16,
    /// Out-of-order queue.
    reasm: ReasmQueue,
    /// In-order delivered request bytes (until the request triggers).
    req_buf: Vec<u8>,
    /// In-flight delayed-ACK bookkeeping: segments since last ACK.
    pending_ack_segs: u32,
    /// Generation of the armed ACK timer (stale timers are ignored).
    pub ack_timer_gen: u64,
    /// Whether an ACK timer is conceptually armed.
    ack_timer_armed: bool,
    /// Object being served, if triggered.
    tx: Option<TxObject>,
    /// Count of RSTs this connection asked to emit (observability).
    pub rsts_sent: u32,
}

impl Conn {
    /// Accept an initial SYN: create the connection and emit the
    /// SYN/ACK.
    pub fn accept(syn: &TcpHeader, iss: SeqNum, cfg: ConnCfg, out: &mut Vec<SegmentOut>) -> Conn {
        debug_assert!(syn.flags.contains(TcpFlags::SYN));
        let peer_mss = syn.mss().unwrap_or(536);
        let mut conn = Conn {
            cfg,
            state: ConnState::SynRecv,
            irs: syn.seq,
            iss,
            rcv_nxt: syn.seq + 1,
            snd_nxt: iss + 1,
            snd_una: iss,
            peer_wnd: syn.window,
            peer_mss,
            reasm: ReasmQueue::new(),
            req_buf: Vec::new(),
            pending_ack_segs: 0,
            ack_timer_gen: 0,
            ack_timer_armed: false,
            tx: None,
            rsts_sent: 0,
        };
        let synack = SegmentOut {
            seq: conn.iss,
            ack: conn.rcv_nxt,
            flags: TcpFlags::SYN | TcpFlags::ACK,
            window: conn.cfg.window,
            data: Bytes::new(),
            options: vec![TcpOption::Mss(conn.cfg.mss)],
        };
        conn.snd_una = conn.iss;
        out.push(synack);
        conn
    }

    fn emit_ack(&mut self, out: &mut Vec<SegmentOut>) {
        let mut options = Vec::new();
        if self.cfg.sack && !self.reasm.is_empty() {
            let blocks = self
                .reasm
                .blocks()
                .iter()
                .map(|&(s, l)| (s, s + l))
                .collect();
            options.push(TcpOption::Sack(blocks));
        }
        out.push(SegmentOut {
            seq: self.snd_nxt,
            ack: self.rcv_nxt,
            flags: TcpFlags::ACK,
            window: self.cfg.window,
            data: Bytes::new(),
            options,
        });
        self.pending_ack_segs = 0;
        self.ack_timer_armed = false;
        self.ack_timer_gen += 1; // invalidate any armed timer
    }

    fn emit_rst(&mut self, to_seq: SeqNum, out: &mut Vec<SegmentOut>) {
        self.rsts_sent += 1;
        out.push(SegmentOut {
            seq: self.snd_nxt,
            ack: to_seq + 1,
            flags: TcpFlags::RST | TcpFlags::ACK,
            window: 0,
            data: Bytes::new(),
            options: Vec::new(),
        });
    }

    /// Handle a second SYN while half-open (§III-D, Fig. 4).
    fn on_dup_syn(&mut self, hdr: &TcpHeader, out: &mut Vec<SegmentOut>) {
        if hdr.seq == self.irs {
            // Pure retransmission: resend the SYN/ACK.
            out.push(SegmentOut {
                seq: self.iss,
                ack: self.rcv_nxt,
                flags: TcpFlags::SYN | TcpFlags::ACK,
                window: self.cfg.window,
                data: Bytes::new(),
                options: vec![TcpOption::Mss(self.cfg.mss)],
            });
            return;
        }
        match self.cfg.second_syn {
            SecondSynBehavior::RstAlways => {
                self.emit_rst(hdr.seq, out);
                self.state = ConnState::Closed;
            }
            SecondSynBehavior::SpecCompliant => {
                // In-window sequence → RST; below window (the "earlier"
                // SYN arriving late) → pure ACK.
                let in_window = self
                    .rcv_nxt
                    .contains(u32::from(self.cfg.window).max(1), hdr.seq);
                if in_window {
                    self.emit_rst(hdr.seq, out);
                    self.state = ConnState::Closed;
                } else {
                    out.push(SegmentOut {
                        seq: self.snd_nxt,
                        ack: self.rcv_nxt,
                        flags: TcpFlags::ACK,
                        window: self.cfg.window,
                        data: Bytes::new(),
                        options: Vec::new(),
                    });
                }
            }
            SecondSynBehavior::DualRst => {
                self.emit_rst(hdr.seq, out);
                self.emit_rst(hdr.seq, out);
                self.state = ConnState::Closed;
            }
            SecondSynBehavior::IgnoreSecond => {}
        }
    }

    /// Main entry: a segment arrived. Returns a timer request.
    pub fn on_segment(
        &mut self,
        hdr: &TcpHeader,
        data: &[u8],
        out: &mut Vec<SegmentOut>,
    ) -> TimerReq {
        if self.state == ConnState::Closed {
            return TimerReq::None;
        }
        if hdr.flags.contains(TcpFlags::RST) {
            self.state = ConnState::Closed;
            return TimerReq::None;
        }
        self.peer_wnd = hdr.window;

        if hdr.flags.contains(TcpFlags::SYN) {
            // A SYN on a synchronized connection is ignored (conservative
            // variant of the challenge-ACK behavior); only the half-open
            // state reacts.
            if self.state == ConnState::SynRecv {
                self.on_dup_syn(hdr, out);
            }
            return TimerReq::None;
        }

        // ACK processing.
        if hdr.flags.contains(TcpFlags::ACK) {
            if self.state == ConnState::SynRecv && hdr.ack == self.iss + 1 {
                self.state = ConnState::Established;
                self.snd_una = hdr.ack;
            } else if hdr.ack.distance_to(self.snd_una) < 0 && hdr.ack <= self.snd_nxt {
                self.snd_una = hdr.ack;
            }
            if self.state == ConnState::LastAck && self.snd_una == self.snd_nxt {
                self.state = ConnState::Closed;
                return TimerReq::None;
            }
        }

        let mut timer = TimerReq::None;
        if !data.is_empty() {
            timer = self.on_data(hdr.seq, data, out);
        }

        if hdr.flags.contains(TcpFlags::FIN) {
            // Only honor an in-order FIN (a FIN beyond a hole would need
            // queueing; the probes never send that).
            if hdr.seq + data.len() as u32 == self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt + 1;
                // ACK the FIN and close our side too (no more data, or
                // abandon the object).
                let fin = SegmentOut {
                    seq: self.snd_nxt,
                    ack: self.rcv_nxt,
                    flags: TcpFlags::FIN | TcpFlags::ACK,
                    window: self.cfg.window,
                    data: Bytes::new(),
                    options: Vec::new(),
                };
                self.snd_nxt = self.snd_nxt + 1;
                out.push(fin);
                self.pending_ack_segs = 0;
                self.ack_timer_armed = false;
                self.ack_timer_gen += 1;
                self.state = ConnState::LastAck;
                return TimerReq::None;
            }
        }

        // Window may have opened, or new ACKs may clock out more data.
        self.pump_tx(out);
        timer
    }

    /// Receive-path handling for a data segment.
    fn on_data(&mut self, seq: SeqNum, data: &[u8], out: &mut Vec<SegmentOut>) -> TimerReq {
        let len = data.len() as u32;
        let end = seq + len;
        if end <= self.rcv_nxt {
            // Entirely old: immediate duplicate ACK.
            self.emit_ack(out);
            return TimerReq::None;
        }
        if seq > self.rcv_nxt {
            // Out-of-order (beyond the edge): queue + immediate dup ACK.
            // "the delayed acknowledgment algorithm is suspended for
            // out-of-order data and acknowledgments are sent
            // immediately" (§III-A).
            self.reasm.insert(seq, len);
            self.emit_ack(out);
            return TimerReq::None;
        }
        // In-order (possibly with old prefix). Deliver and advance.
        let skip = (self.rcv_nxt - seq) as usize;
        let fresh = &data[skip.min(data.len())..];
        let pre_edge = self.rcv_nxt + fresh.len() as u32;
        let had_queue = !self.reasm.is_empty();
        let post_edge = self.reasm.advance(pre_edge);
        let filled_hole = had_queue && post_edge != pre_edge;
        self.rcv_nxt = post_edge;
        self.deliver(fresh, out);

        if filled_hole && self.cfg.delayed_ack.immediate_on_hole_fill {
            self.emit_ack(out);
            return TimerReq::None;
        }
        // Delayed-ACK algorithm for in-order data.
        self.pending_ack_segs += 1;
        if self.pending_ack_segs >= self.cfg.delayed_ack.every_segs
            || self.cfg.delayed_ack.max_delay.is_zero()
        {
            self.emit_ack(out);
            TimerReq::None
        } else if self.ack_timer_armed {
            TimerReq::None
        } else {
            self.ack_timer_armed = true;
            self.ack_timer_gen += 1;
            TimerReq::ArmAckTimer
        }
    }

    /// The delayed-ACK timer fired (host verified the generation).
    pub(crate) fn on_ack_timer(&mut self, out: &mut Vec<SegmentOut>) {
        if self.state == ConnState::Closed {
            return;
        }
        if self.ack_timer_armed {
            self.emit_ack(out);
        }
    }

    /// Application-layer delivery: accumulate the request until it looks
    /// like a complete HTTP GET, then start serving the object.
    fn deliver(&mut self, bytes: &[u8], out: &mut Vec<SegmentOut>) {
        if self.tx.is_some() || self.cfg.object_size == 0 {
            return;
        }
        self.req_buf.extend_from_slice(bytes);
        let complete = self.req_buf.windows(4).any(|w| w == b"\r\n\r\n");
        if complete && self.req_buf.starts_with(b"GET ") {
            // HTTP/1.0-style opt-in persistence: only a request that
            // carries the keep-alive token changes the close behavior,
            // so plain fetches stay packet-identical.
            let keep_alive = self
                .req_buf
                .windows(10)
                .any(|w| w.eq_ignore_ascii_case(b"keep-alive"));
            self.tx = Some(TxObject {
                body: object_body(self.cfg.object_size),
                sent: 0,
                fin_sent: false,
                keep_alive,
            });
            self.req_buf.clear();
            self.pump_tx(out);
        }
    }

    /// Transmit as much of the object as the peer's window allows.
    /// Segment size is the *minimum* of our MSS and the peer's — this is
    /// the clamp the Data Transfer Test applies to keep packets small.
    fn pump_tx(&mut self, out: &mut Vec<SegmentOut>) {
        if self.state != ConnState::Established {
            return;
        }
        let Some(tx) = &mut self.tx else {
            return;
        };
        let seg_max = usize::from(self.cfg.mss.min(self.peer_mss)).max(1);
        loop {
            let in_flight = (self.snd_nxt - self.snd_una) as usize;
            let wnd = usize::from(self.peer_wnd);
            if in_flight >= wnd {
                return;
            }
            let room = wnd - in_flight;
            let remaining = tx.body.len() - tx.sent;
            if remaining == 0 {
                if !tx.fin_sent && in_flight == 0 {
                    if tx.keep_alive {
                        // Object fully acked on a persistent
                        // connection: become idle and await the next
                        // GET. An empty PSH|ACK tells the client the
                        // object is complete — its positive signal to
                        // reuse the connection (a stalled transfer
                        // never produces one, so the client can tell
                        // "done" from "tail loss").
                        self.tx = None;
                        out.push(SegmentOut {
                            seq: self.snd_nxt,
                            ack: self.rcv_nxt,
                            flags: TcpFlags::ACK | TcpFlags::PSH,
                            window: self.cfg.window,
                            data: Bytes::new(),
                            options: Vec::new(),
                        });
                        return;
                    }
                    // Object fully acked: close gracefully.
                    tx.fin_sent = true;
                    out.push(SegmentOut {
                        seq: self.snd_nxt,
                        ack: self.rcv_nxt,
                        flags: TcpFlags::FIN | TcpFlags::ACK,
                        window: self.cfg.window,
                        data: Bytes::new(),
                        options: Vec::new(),
                    });
                    self.snd_nxt = self.snd_nxt + 1;
                    self.state = ConnState::LastAck;
                }
                return;
            }
            let n = seg_max.min(room).min(remaining);
            if n == 0 {
                return;
            }
            let data = tx.body.slice(tx.sent..tx.sent + n);
            out.push(SegmentOut {
                seq: self.snd_nxt,
                ack: self.rcv_nxt,
                flags: TcpFlags::ACK | TcpFlags::PSH,
                window: self.cfg.window,
                data,
                options: Vec::new(),
            });
            self.snd_nxt = self.snd_nxt + n as u32;
            tx.sent += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::personality::HostPersonality;

    fn cfg() -> ConnCfg {
        let p = HostPersonality::freebsd4();
        ConnCfg {
            delayed_ack: p.delayed_ack,
            second_syn: p.second_syn,
            mss: p.mss,
            window: p.window,
            object_size: 0,
            sack: false,
        }
    }

    fn syn(seq: u32) -> TcpHeader {
        TcpHeader {
            src_port: 4000,
            dst_port: 80,
            seq: SeqNum(seq),
            ack: SeqNum(0),
            flags: TcpFlags::SYN,
            window: 65535,
            urgent: 0,
            options: vec![TcpOption::Mss(1460)],
        }
    }

    fn seg(seq: u32, ack: u32, flags: TcpFlags, window: u16) -> TcpHeader {
        TcpHeader {
            src_port: 4000,
            dst_port: 80,
            seq: SeqNum(seq),
            ack: SeqNum(ack),
            flags,
            window,
            urgent: 0,
            options: vec![],
        }
    }

    /// Establish a connection with irs=0 (rcv_nxt=1) and return it.
    fn established(cfg: ConnCfg) -> Conn {
        let mut out = Vec::new();
        let mut c = Conn::accept(&syn(0), SeqNum(7000), cfg, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].flags, TcpFlags::SYN | TcpFlags::ACK);
        assert_eq!(out[0].ack, SeqNum(1));
        out.clear();
        let t = c.on_segment(&seg(1, 7001, TcpFlags::ACK, 65535), &[], &mut out);
        assert_eq!(t, TimerReq::None);
        assert!(out.is_empty());
        assert_eq!(c.state, ConnState::Established);
        c
    }

    #[test]
    fn handshake() {
        established(cfg());
    }

    /// The §III-B preparation phase: data at seq 2 (expecting 1) elicits
    /// an immediate duplicate ACK of 1 and queues the byte.
    #[test]
    fn hole_preparation_dup_acks_immediately() {
        let mut c = established(cfg());
        let mut out = Vec::new();
        let t = c.on_segment(&seg(2, 7001, TcpFlags::ACK, 65535), b"X", &mut out);
        assert_eq!(t, TimerReq::None);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ack, SeqNum(1), "dup ACK points at the hole");
        assert!(!c.reasm.is_empty());
        // Retransmission behaves identically.
        out.clear();
        c.on_segment(&seg(2, 7001, TcpFlags::ACK, 65535), b"X", &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ack, SeqNum(1));
    }

    /// §III-B in-order sample: data 1 fills the hole (immediate ack 3),
    /// then data 3 is in-order (delayed or counted ACK → ack 4).
    #[test]
    fn single_conn_samples_in_order() {
        let mut c = established(cfg());
        let mut out = Vec::new();
        c.on_segment(&seg(2, 7001, TcpFlags::ACK, 65535), b"X", &mut out);
        out.clear();
        // data 1 arrives: hole fills, rcv_nxt jumps to 3, immediate ACK.
        let t = c.on_segment(&seg(1, 7001, TcpFlags::ACK, 65535), b"A", &mut out);
        assert_eq!(t, TimerReq::None);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ack, SeqNum(3));
        out.clear();
        // data 3 arrives in-order: first pending segment → timer armed.
        let t = c.on_segment(&seg(3, 7001, TcpFlags::ACK, 65535), b"B", &mut out);
        assert_eq!(t, TimerReq::ArmAckTimer);
        assert!(out.is_empty());
        c.on_ack_timer(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ack, SeqNum(4));
    }

    /// §III-B reordered sample: data 3 first (dup ack 1), then data 1
    /// (hole fill → ack 4).
    #[test]
    fn single_conn_samples_reordered() {
        let mut c = established(cfg());
        let mut out = Vec::new();
        c.on_segment(&seg(2, 7001, TcpFlags::ACK, 65535), b"X", &mut out);
        out.clear();
        c.on_segment(&seg(3, 7001, TcpFlags::ACK, 65535), b"B", &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ack, SeqNum(1), "OOO data → immediate dup ACK");
        out.clear();
        c.on_segment(&seg(1, 7001, TcpFlags::ACK, 65535), b"A", &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ack, SeqNum(4), "hole fill jumps over queue");
    }

    /// A stack that delays hole-fill ACKs produces the §III-B ambiguity:
    /// in-order delivery yields only the final cumulative ACK.
    #[test]
    fn delayed_hole_fill_collapses_to_single_ack() {
        let mut c = established(ConnCfg {
            delayed_ack: DelayedAck {
                immediate_on_hole_fill: false,
                ..DelayedAck::default()
            },
            ..cfg()
        });
        let mut out = Vec::new();
        c.on_segment(&seg(2, 7001, TcpFlags::ACK, 65535), b"X", &mut out);
        out.clear();
        // data 1: hole fill but ACK withheld (counts as 1 pending).
        let t = c.on_segment(&seg(1, 7001, TcpFlags::ACK, 65535), b"A", &mut out);
        assert_eq!(t, TimerReq::ArmAckTimer);
        assert!(out.is_empty());
        // data 3: second pending segment → single ACK for everything.
        c.on_segment(&seg(3, 7001, TcpFlags::ACK, 65535), b"B", &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ack, SeqNum(4), "one ACK covering the series");
    }

    #[test]
    fn second_syn_rst_always() {
        let mut out = Vec::new();
        let mut c = Conn::accept(&syn(100), SeqNum(1), cfg(), &mut out);
        out.clear();
        c.on_segment(&syn(101), &[], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.contains(TcpFlags::RST));
        assert_eq!(c.state, ConnState::Closed);
    }

    #[test]
    fn second_syn_spec_compliant_in_window_rst() {
        let mut out = Vec::new();
        let mut c = Conn::accept(
            &syn(100),
            SeqNum(1),
            ConnCfg {
                second_syn: SecondSynBehavior::SpecCompliant,
                ..cfg()
            },
            &mut out,
        );
        out.clear();
        // Later sequence number: inside the window → RST.
        c.on_segment(&syn(102), &[], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.contains(TcpFlags::RST));
    }

    #[test]
    fn second_syn_spec_compliant_below_window_acks() {
        let mut out = Vec::new();
        let mut c = Conn::accept(
            &syn(100),
            SeqNum(1),
            ConnCfg {
                second_syn: SecondSynBehavior::SpecCompliant,
                ..cfg()
            },
            &mut out,
        );
        out.clear();
        // The "first" SYN (lower sequence) arriving second → pure ACK.
        c.on_segment(&syn(99), &[], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].flags, TcpFlags::ACK);
        assert!(!out[0].flags.contains(TcpFlags::RST));
        assert_eq!(c.state, ConnState::SynRecv, "connection survives");
    }

    #[test]
    fn second_syn_dual_rst() {
        let mut out = Vec::new();
        let mut c = Conn::accept(
            &syn(100),
            SeqNum(1),
            ConnCfg {
                second_syn: SecondSynBehavior::DualRst,
                ..cfg()
            },
            &mut out,
        );
        out.clear();
        c.on_segment(&syn(101), &[], &mut out);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|s| s.flags.contains(TcpFlags::RST)));
    }

    #[test]
    fn second_syn_ignored() {
        let mut out = Vec::new();
        let mut c = Conn::accept(
            &syn(100),
            SeqNum(1),
            ConnCfg {
                second_syn: SecondSynBehavior::IgnoreSecond,
                ..cfg()
            },
            &mut out,
        );
        out.clear();
        c.on_segment(&syn(101), &[], &mut out);
        assert!(out.is_empty());
        assert_eq!(c.state, ConnState::SynRecv);
    }

    #[test]
    fn retransmitted_syn_gets_synack_again() {
        let mut out = Vec::new();
        let mut c = Conn::accept(&syn(100), SeqNum(1), cfg(), &mut out);
        out.clear();
        c.on_segment(&syn(100), &[], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].flags, TcpFlags::SYN | TcpFlags::ACK);
        assert_eq!(out[0].ack, SeqNum(101));
        assert_eq!(c.state, ConnState::SynRecv);
    }

    #[test]
    fn rst_closes() {
        let mut c = established(cfg());
        let mut out = Vec::new();
        c.on_segment(&seg(1, 0, TcpFlags::RST, 0), &[], &mut out);
        assert_eq!(c.state, ConnState::Closed);
        assert!(out.is_empty());
        // Closed connections are silent.
        c.on_segment(&seg(1, 7001, TcpFlags::ACK, 100), b"zz", &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn fin_teardown() {
        let mut c = established(cfg());
        let mut out = Vec::new();
        c.on_segment(
            &seg(1, 7001, TcpFlags::FIN | TcpFlags::ACK, 100),
            &[],
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.contains(TcpFlags::FIN));
        assert_eq!(out[0].ack, SeqNum(2), "FIN consumes a sequence number");
        assert_eq!(c.state, ConnState::LastAck);
        out.clear();
        // Peer ACKs our FIN.
        c.on_segment(&seg(2, 7002, TcpFlags::ACK, 100), &[], &mut out);
        assert_eq!(c.state, ConnState::Closed);
    }

    #[test]
    fn serves_object_within_window_and_mss() {
        let object = 5000usize;
        let mut c = established(ConnCfg {
            object_size: object,
            ..cfg()
        });
        let mut out = Vec::new();
        // GET with a small advertised window and a small MSS already
        // negotiated? Peer MSS comes from the SYN (1460 here); the
        // window clamp is per-segment flow control.
        let req = b"GET / HTTP/1.0\r\n\r\n";
        c.on_segment(
            &seg(1, 7001, TcpFlags::ACK | TcpFlags::PSH, 2920),
            req,
            &mut out,
        );
        // First: delayed-ack handling may or may not emit; find data.
        let data: Vec<&SegmentOut> = out.iter().filter(|s| !s.data.is_empty()).collect();
        let sent: usize = data.iter().map(|s| s.data.len()).sum();
        assert!(sent <= 2920, "must respect the 2920-byte window");
        assert!(data.iter().all(|s| s.data.len() <= 1460));
        // ACK everything so far; more data flows.
        let acked = c.snd_nxt;
        out.clear();
        c.on_segment(&seg(19, acked.raw(), TcpFlags::ACK, 2920), &[], &mut out);
        let sent2: usize = out.iter().map(|s| s.data.len()).sum();
        assert!(sent2 > 0, "ack should clock out more data");
    }

    #[test]
    fn object_completion_sends_fin() {
        let mut c = established(ConnCfg {
            object_size: 100,
            ..cfg()
        });
        let mut out = Vec::new();
        let req = b"GET / HTTP/1.0\r\n\r\n";
        c.on_segment(
            &seg(1, 7001, TcpFlags::ACK | TcpFlags::PSH, 65535),
            req,
            &mut out,
        );
        let last = c.snd_nxt;
        out.clear();
        // ACK the whole object.
        c.on_segment(&seg(19, last.raw(), TcpFlags::ACK, 65535), &[], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].flags.contains(TcpFlags::FIN));
        assert_eq!(c.state, ConnState::LastAck);
    }

    #[test]
    fn keep_alive_request_leaves_connection_open_for_next_get() {
        let mut c = established(ConnCfg {
            object_size: 100,
            ..cfg()
        });
        let mut out = Vec::new();
        let req = b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n";
        c.on_segment(
            &seg(1, 7001, TcpFlags::ACK | TcpFlags::PSH, 65535),
            req,
            &mut out,
        );
        let served: usize = out.iter().map(|s| s.data.len()).sum();
        assert_eq!(served, 100);
        let last = c.snd_nxt;
        out.clear();
        // ACK the whole object: no FIN, the connection idles.
        let next_seq = 1 + req.len() as u32;
        c.on_segment(
            &seg(next_seq, last.raw(), TcpFlags::ACK, 65535),
            &[],
            &mut out,
        );
        assert!(
            out.iter().all(|s| !s.flags.contains(TcpFlags::FIN)),
            "keep-alive must suppress the FIN"
        );
        // The completion marker: exactly one empty PSH|ACK, the
        // client's positive signal that the object was fully served.
        let markers = out
            .iter()
            .filter(|s| s.flags.contains(TcpFlags::PSH | TcpFlags::ACK) && s.data.is_empty())
            .count();
        assert_eq!(markers, 1, "completion marker after full ACK");
        assert_eq!(c.state, ConnState::Established);
        out.clear();
        // A second GET on the same connection serves again.
        c.on_segment(
            &seg(next_seq, last.raw(), TcpFlags::ACK | TcpFlags::PSH, 65535),
            req,
            &mut out,
        );
        let served2: usize = out.iter().map(|s| s.data.len()).sum();
        assert_eq!(served2, 100, "second object on the same connection");
    }

    #[test]
    fn plain_request_still_closes_after_object() {
        // The keep-alive token is opt-in: a 1.0 GET without it keeps
        // the historical FIN-after-object behavior packet for packet.
        let mut c = established(ConnCfg {
            object_size: 100,
            ..cfg()
        });
        let mut out = Vec::new();
        let req = b"GET / HTTP/1.0\r\n\r\n";
        c.on_segment(
            &seg(1, 7001, TcpFlags::ACK | TcpFlags::PSH, 65535),
            req,
            &mut out,
        );
        let last = c.snd_nxt;
        out.clear();
        c.on_segment(&seg(19, last.raw(), TcpFlags::ACK, 65535), &[], &mut out);
        assert!(out.iter().any(|s| s.flags.contains(TcpFlags::FIN)));
        assert_eq!(c.state, ConnState::LastAck);
    }

    #[test]
    fn non_http_bytes_do_not_trigger_object() {
        let mut c = established(ConnCfg {
            object_size: 100,
            ..cfg()
        });
        let mut out = Vec::new();
        c.on_segment(&seg(1, 7001, TcpFlags::ACK, 65535), b"A", &mut out);
        assert!(
            out.iter().all(|s| s.data.is_empty()),
            "probe bytes must not trigger content"
        );
    }

    #[test]
    fn object_payload_is_deterministic() {
        // Around one 251-byte period, and whole default-size objects.
        for size in [0, 250, 251, 252, 12 * 1024, 16 * 1024] {
            let body = object_body(size);
            assert_eq!(body.len(), size);
            for (k, b) in body.iter().enumerate() {
                assert_eq!(*b, (k % 251) as u8, "object of {size} bytes, byte {k}");
            }
        }
        let mut c = established(ConnCfg {
            object_size: 300,
            ..cfg()
        });
        let mut out = Vec::new();
        let req = b"GET / HTTP/1.0\r\n\r\n";
        c.on_segment(
            &seg(1, 7001, TcpFlags::ACK | TcpFlags::PSH, 65535),
            req,
            &mut out,
        );
        let body: Vec<u8> = out.iter().flat_map(|s| s.data.to_vec()).collect();
        assert_eq!(body.len(), 300);
        for (k, b) in body.iter().enumerate() {
            assert_eq!(*b, (k % 251) as u8);
        }
    }

    #[test]
    fn sack_blocks_on_dup_ack_when_enabled() {
        let mut c = established(ConnCfg {
            sack: true,
            ..cfg()
        });
        let mut out = Vec::new();
        c.on_segment(&seg(5, 7001, TcpFlags::ACK, 65535), b"XY", &mut out);
        assert_eq!(out.len(), 1);
        let blocks = match &out[0].options[..] {
            [TcpOption::Sack(b)] => b.clone(),
            other => panic!("expected SACK option, got {other:?}"),
        };
        assert_eq!(blocks, vec![(SeqNum(5), SeqNum(7))]);
    }

    #[test]
    fn stale_ack_does_not_regress_snd_una() {
        let mut c = established(ConnCfg {
            object_size: 4000,
            ..cfg()
        });
        let mut out = Vec::new();
        let req = b"GET / HTTP/1.0\r\n\r\n";
        c.on_segment(
            &seg(1, 7001, TcpFlags::ACK | TcpFlags::PSH, 65535),
            req,
            &mut out,
        );
        let high = c.snd_nxt;
        out.clear();
        c.on_segment(&seg(19, high.raw(), TcpFlags::ACK, 65535), &[], &mut out);
        let una_after = c.snd_una;
        out.clear();
        // A stale (smaller) ACK arrives late.
        c.on_segment(&seg(19, 7001 + 100, TcpFlags::ACK, 65535), &[], &mut out);
        assert_eq!(c.snd_una, una_after, "snd_una must not move backwards");
    }
}
