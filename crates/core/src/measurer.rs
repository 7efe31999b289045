//! The unified measurement API: one [`Technique`] trait over all of
//! the paper's tests, a [`Session`] that owns the conversation with one
//! target (and caches handshakes so successive phases reuse
//! connections), and a [`Measurer`] builder that runs one technique and
//! summarizes it as a [`Measurement`] report.
//!
//! Before this module, every consumer — the CLI, the survey pipeline,
//! the experiment binaries, the examples — carried its own string-keyed
//! `match` over four unrelated structs with ad-hoc `run()` signatures.
//! Now there is exactly one dispatch point:
//!
//! ```
//! use reorder_core::measurer::{technique, Session};
//! use reorder_core::sample::TestConfig;
//! use reorder_core::scenario;
//! use reorder_core::TestKind;
//!
//! let mut sc = scenario::validation_rig(0.10, 0.0, 42);
//! let mut session = Session::new(&mut sc.prober, sc.target, 80);
//! let kind: TestKind = "single-rev".parse().unwrap();
//! let run = technique(kind, TestConfig::samples(50))
//!     .execute(&mut session)
//!     .expect("measurement");
//! assert!(run.fwd_estimate().rate() < 0.35);
//! ```
//!
//! ## Connection reuse
//!
//! A [`Session`] created with [`Session::with_reuse`] keeps every
//! checked-in connection open (keyed by technique family and advertised
//! MSS/window) and caches the IPID amenability verdict, so an
//! amenability probe, a measurement, a gap sweep and a baseline against
//! the same host share handshakes and validation instead of repeating
//! them — the survey engine's per-host fast path. Without reuse a
//! checked-in connection is closed immediately, reproducing the
//! historical per-run behavior packet for packet.

use crate::budget::Budget;
use crate::metrics::ReorderEstimate;
use crate::probe::{ClientConn, ProbeError, Prober};
use crate::sample::{MeasurementRun, TestConfig};
use crate::techniques::{
    DataTransferTest, DualConnectionTest, IpidVerdict, SingleConnectionTest, SynTest, TestKind,
};
use reorder_netsim::SimTime;
use reorder_wire::Ipv4Addr4;

/// What a technique needs from a target and which directions it can
/// see — the machine-readable version of the table in
/// [`crate::techniques`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Requirements {
    /// Produces forward-path (probe → target) verdicts.
    pub measures_fwd: bool,
    /// Produces reverse-path (target → probe) verdicts.
    pub measures_rev: bool,
    /// Number of established TCP connections one run holds open
    /// (0 = raw per-sample flows, as in the SYN test).
    pub connections: usize,
    /// Requires the target's IPID space to validate as
    /// [`IpidVerdict::Amenable`] before measuring.
    pub needs_global_ipid: bool,
    /// Requires the target to serve an object spanning ≥ 2 segments.
    pub needs_object: bool,
}

/// One of the paper's measurement techniques behind a uniform,
/// object-safe interface. All five registry entries ([`TestKind`]'s
/// variants) implement it; dispatch happens through [`technique`] or
/// [`registry`], never through string matches at call sites.
pub trait Technique {
    /// Which technique this is (labels, parsing, report keys).
    fn kind(&self) -> TestKind;

    /// Static capabilities and preconditions.
    fn requirements(&self) -> Requirements;

    /// Check the target's amenability without measuring. The default
    /// accepts every reachable host; the dual connection test overrides
    /// this with the §III-C IPID validation. The verdict is cached on
    /// the session, so a following [`Technique::execute`] does not
    /// repeat the probe.
    fn probe_amenability(&self, session: &mut Session<'_>) -> Result<IpidVerdict, ProbeError> {
        let _ = session;
        Ok(IpidVerdict::Amenable)
    }

    /// Run the full measurement over `session`'s target and return the
    /// per-sample record. Connections are checked out of (and back
    /// into) the session, so a reusing session pays for handshakes and
    /// IPID validation once across phases.
    fn execute(&self, session: &mut Session<'_>) -> Result<MeasurementRun, ProbeError>;
}

/// A cached, still-open connection with the parameters it was
/// established under.
#[derive(Debug)]
struct CachedConn {
    conn: ClientConn,
    tag: &'static str,
    mss: u16,
    window: u16,
}

/// Counters a session keeps about its connection economy (drives the
/// reuse assertions in tests and the campaign bench).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Fresh handshakes performed through the session.
    pub handshakes: usize,
    /// Checkouts satisfied from the connection cache.
    pub reused: usize,
    /// IPID validations performed (at most 1 per reusing session).
    pub validations: usize,
}

/// The conversation with one measurement target: a prober, the target
/// address/port, and — when reuse is enabled — a cache of open
/// connections plus the amenability verdict, shared by every technique
/// run on the session.
pub struct Session<'p> {
    prober: &'p mut Prober,
    target: Ipv4Addr4,
    port: u16,
    reuse: bool,
    cache: Vec<CachedConn>,
    verdict: Option<IpidVerdict>,
    probe_offset: u32,
    stats: SessionStats,
    deadline: Option<SimTime>,
}

impl<'p> Session<'p> {
    /// New session without connection reuse: every checkout handshakes,
    /// every checkin closes — the historical per-run behavior.
    pub fn new(prober: &'p mut Prober, target: Ipv4Addr4, port: u16) -> Self {
        Session {
            prober,
            target,
            port,
            reuse: false,
            cache: Vec::new(),
            verdict: None,
            probe_offset: 0,
            stats: SessionStats::default(),
            deadline: None,
        }
    }

    /// Toggle connection reuse (builder style).
    pub fn with_reuse(mut self, reuse: bool) -> Self {
        self.reuse = reuse;
        self
    }

    /// Enforce a per-host [`Budget`] (builder style): the deadline is
    /// anchored at the prober's current simulated time, and once it
    /// passes every further [`Session::checkout`] — and thus every
    /// technique phase — fails fast with
    /// [`ProbeError::DeadlineExceeded`]. Deadlines are simulated time,
    /// so a tarpit host burns its budget without burning wall clock.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.deadline = Some(self.prober.now() + budget.deadline);
        self
    }

    /// Whether the session's budget deadline (if any) has passed.
    pub(crate) fn over_deadline(&self) -> bool {
        self.deadline.is_some_and(|d| self.prober.now() >= d)
    }

    /// The target address under measurement.
    pub fn target(&self) -> Ipv4Addr4 {
        self.target
    }

    /// The target port under measurement.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Direct access to the prober (techniques drive the simulation
    /// through this).
    pub fn prober(&mut self) -> &mut Prober {
        self.prober
    }

    /// Connection-economy counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The cached amenability verdict, if one technique already probed.
    pub fn verdict(&self) -> Option<IpidVerdict> {
        self.verdict
    }

    /// Record the amenability verdict (techniques call this after
    /// validating; [`SessionStats::validations`] counts the calls).
    pub(crate) fn set_verdict(&mut self, verdict: IpidVerdict) {
        self.stats.validations += 1;
        self.verdict = Some(verdict);
    }

    /// The next unused out-of-order probe byte offset. Techniques that
    /// park bytes beyond `snd_nxt` (IPID validation, dual-connection
    /// samples) share this counter so reused connections never re-park
    /// an already-buffered offset.
    pub(crate) fn probe_offset(&self) -> u32 {
        self.probe_offset
    }

    /// Advance the shared probe offset after consuming offsets up to
    /// (exclusive) `next`.
    pub(crate) fn set_probe_offset(&mut self, next: u32) {
        debug_assert!(next >= self.probe_offset);
        self.probe_offset = next;
    }

    /// Obtain an established connection advertising `mss`/`window`. A
    /// reusing session returns the oldest cached connection of the same
    /// `tag` and parameters (FIFO, so a technique that checks two
    /// connections back in gets them back in the same roles); otherwise
    /// a fresh handshake is performed. `tag` partitions the cache by
    /// technique family: a connection carrying dual-test out-of-order
    /// probe bytes has receiver-side reassembly state that would
    /// corrupt a single-connection sample, so the families never share.
    pub fn checkout(
        &mut self,
        tag: &'static str,
        mss: u16,
        window: u16,
        timeout: std::time::Duration,
    ) -> Result<ClientConn, ProbeError> {
        if self.over_deadline() {
            return Err(ProbeError::DeadlineExceeded);
        }
        if self.reuse {
            if let Some(pos) = self
                .cache
                .iter()
                .position(|c| c.tag == tag && c.mss == mss && c.window == window)
            {
                self.stats.reused += 1;
                return Ok(self.cache.remove(pos).conn);
            }
        }
        self.stats.handshakes += 1;
        self.prober
            .handshake(self.target, self.port, mss, window, timeout)
    }

    /// Return a connection after use. A reusing session keeps it open
    /// for the next checkout of the same `tag`/parameters; otherwise it
    /// is politely closed now.
    pub fn checkin(
        &mut self,
        tag: &'static str,
        mss: u16,
        window: u16,
        mut conn: ClientConn,
        timeout: std::time::Duration,
    ) {
        if self.reuse {
            self.cache.push(CachedConn {
                conn,
                tag,
                mss,
                window,
            });
        } else {
            self.prober.close(&mut conn, timeout);
        }
    }

    /// Dispose of a connection that must not be reused — one whose
    /// state is suspect after a mid-measurement error. It is politely
    /// closed now regardless of the reuse setting (a broken connection
    /// in the cache would poison the next checkout).
    pub fn discard(&mut self, mut conn: ClientConn, timeout: std::time::Duration) {
        self.prober.close(&mut conn, timeout);
    }

    /// Politely close every cached connection. Called by `Drop`, but
    /// callable explicitly when the close traffic should happen at a
    /// controlled point in simulated time.
    pub fn finish(&mut self, timeout: std::time::Duration) {
        for mut cached in self.cache.drain(..) {
            self.prober.close(&mut cached.conn, timeout);
        }
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.finish(std::time::Duration::from_millis(900));
    }
}

/// Construct the technique implementing `kind` with shared knobs `cfg`.
/// This is the single dispatch point that replaced the per-consumer
/// string matches.
pub fn technique(kind: TestKind, cfg: TestConfig) -> Box<dyn Technique> {
    match kind {
        TestKind::SingleConnection => Box::new(SingleConnectionTest::new(cfg)),
        TestKind::SingleConnectionReversed => Box::new(SingleConnectionTest::reversed(cfg)),
        TestKind::DualConnection => Box::new(DualConnectionTest::new(cfg)),
        TestKind::Syn => Box::new(SynTest::new(cfg)),
        TestKind::DataTransfer => Box::new(DataTransferTest::new(cfg)),
    }
}

/// Every technique, boxed, in the paper's presentation order — the
/// registry the conformance suite (and any "run them all" consumer)
/// iterates.
pub fn registry(cfg: TestConfig) -> Vec<Box<dyn Technique>> {
    TestKind::all()
        .into_iter()
        .map(|kind| technique(kind, cfg))
        .collect()
}

/// The unified measurement report every consumer reads: per-direction
/// estimates, the technique that produced them, and the amenability
/// verdict (when one was probed).
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Technique that produced the primary estimates.
    pub kind: TestKind,
    /// IPID amenability verdict, when the session probed one.
    pub verdict: Option<IpidVerdict>,
    /// Forward-path (probe → target) estimate.
    pub fwd: ReorderEstimate,
    /// Reverse-path (target → probe) estimate.
    pub rev: ReorderEstimate,
    /// Samples taken (including discarded ones).
    pub samples: usize,
    /// Samples indeterminate in both directions.
    pub discarded: usize,
}

impl Measurement {
    /// Summarize a per-sample run into the unified report.
    pub fn from_run(kind: TestKind, run: &MeasurementRun) -> Measurement {
        Measurement {
            kind,
            verdict: None,
            fwd: run.fwd_estimate(),
            rev: run.rev_estimate(),
            samples: run.samples.len(),
            discarded: run.discarded(),
        }
    }
}

/// `true` when the run's last three samples were all fully blind —
/// neither direction determinate. That is the signature of a host
/// that died mid-measurement: ordinary loss discards samples too, but
/// independently, so three consecutive fully-blind samples at
/// cooperative loss rates are vanishingly unlikely, while a host gone
/// dark produces nothing else from the moment it dies.
fn dead_tail(run: &MeasurementRun) -> bool {
    const TAIL: usize = 3;
    run.samples.len() >= TAIL
        && run
            .samples
            .iter()
            .rev()
            .take(TAIL)
            .all(|s| !s.outcome.fwd.is_determinate() && !s.outcome.rev.is_determinate())
}

/// Builder over one measurement: which technique, with what knobs.
/// [`Measurer::run`] executes it and returns the [`Measurement`]. A
/// multi-phase protocol (amenability, measurement rounds, the §III-E
/// transfer baseline, the §IV-C gap sweep) is a sequence of runs on
/// one reusing [`Session`]; the survey crate's `pipeline` module is
/// the per-host protocol the campaign engine runs.
///
/// ```
/// use reorder_core::measurer::{Measurer, Session};
/// use reorder_core::sample::TestConfig;
/// use reorder_core::scenario;
/// use reorder_core::TestKind;
///
/// let mut sc = scenario::validation_rig(0.10, 0.05, 7);
/// let mut session = Session::new(&mut sc.prober, sc.target, 80).with_reuse(true);
/// let m = Measurer::new(TestKind::DualConnection)
///     .with_config(TestConfig::samples(40))
///     .run(&mut session)
///     .expect("measurement");
/// assert_eq!(m.kind, TestKind::DualConnection);
/// assert!(m.fwd.total > 0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Measurer {
    kind: TestKind,
    cfg: TestConfig,
}

impl Measurer {
    /// Plan a measurement with `kind` and default knobs.
    pub fn new(kind: TestKind) -> Measurer {
        Measurer {
            kind,
            cfg: TestConfig::default(),
        }
    }

    /// Replace the shared technique knobs.
    pub fn with_config(mut self, cfg: TestConfig) -> Measurer {
        self.cfg = cfg;
        self
    }

    /// Execute the technique on `session` and summarize the run. On a
    /// reusing session successive runs share handshakes and the
    /// amenability verdict.
    pub fn run(&self, session: &mut Session<'_>) -> Result<Measurement, ProbeError> {
        if session.over_deadline() {
            return Err(ProbeError::DeadlineExceeded);
        }
        let primary = technique(self.kind, self.cfg);
        let run = primary.execute(session)?;
        let mut m = Measurement::from_run(self.kind, &run);
        if m.fwd.total == 0 && m.rev.total == 0 {
            // Every sample was lost or discarded: a dead, blackholed or
            // tarpitted host looks exactly like this. An estimate built
            // on zero observations is not a measurement — report the
            // run as timed out instead of returning a hollow success.
            return Err(ProbeError::Timeout {
                waiting_for: "any probe reply",
            });
        }
        if dead_tail(&run) {
            // The host answered, then went permanently dark: every
            // trailing sample lost in both directions. Independent
            // loss discards samples too, but independently — three
            // consecutive fully-blind samples at cooperative loss
            // rates are a ~1e-9 event, while a host dying mid-run
            // makes them certain. The partial estimate is untrustworthy
            // (its tail is censored), so the run fails loudly.
            return Err(ProbeError::Timeout {
                waiting_for: "probe replies (host went dark mid-run)",
            });
        }
        m.verdict = session.verdict();
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    #[test]
    fn registry_covers_every_kind_once() {
        let reg = registry(TestConfig::samples(5));
        let kinds: Vec<TestKind> = reg.iter().map(|t| t.kind()).collect();
        assert_eq!(kinds, TestKind::all().to_vec());
    }

    #[test]
    fn requirements_are_consistent() {
        for t in registry(TestConfig::samples(5)) {
            let r = t.requirements();
            assert!(
                r.measures_fwd || r.measures_rev,
                "{}: measures nothing",
                t.kind()
            );
            if r.needs_global_ipid {
                assert_eq!(t.kind(), TestKind::DualConnection);
            }
            if r.needs_object {
                assert_eq!(t.kind(), TestKind::DataTransfer);
            }
        }
    }

    #[test]
    fn session_without_reuse_closes_on_checkin() {
        let mut sc = scenario::validation_rig(0.0, 0.0, 301);
        let mut s = Session::new(&mut sc.prober, sc.target, 80);
        let t = std::time::Duration::from_secs(1);
        let conn = s.checkout("t", 1460, 65535, t).expect("handshake");
        s.checkin("t", 1460, 65535, conn, t);
        let conn = s.checkout("t", 1460, 65535, t).expect("handshake");
        s.checkin("t", 1460, 65535, conn, t);
        assert_eq!(s.stats().handshakes, 2);
        assert_eq!(s.stats().reused, 0);
    }

    #[test]
    fn session_with_reuse_hands_back_the_same_connection() {
        let mut sc = scenario::validation_rig(0.0, 0.0, 302);
        let mut s = Session::new(&mut sc.prober, sc.target, 80).with_reuse(true);
        let t = std::time::Duration::from_secs(1);
        let conn = s.checkout("t", 1460, 65535, t).expect("handshake");
        let flow = conn.flow;
        s.checkin("t", 1460, 65535, conn, t);
        let conn = s.checkout("t", 1460, 65535, t).expect("reuse");
        assert_eq!(conn.flow, flow, "same connection handed back");
        s.checkin("t", 1460, 65535, conn, t);
        assert_eq!(s.stats().handshakes, 1);
        assert_eq!(s.stats().reused, 1);
        // Different parameters or tag miss the cache.
        let other = s.checkout("t", 256, 512, t).expect("handshake");
        s.checkin("t", 256, 512, other, t);
        let other = s.checkout("u", 1460, 65535, t).expect("handshake");
        s.checkin("u", 1460, 65535, other, t);
        assert_eq!(s.stats().handshakes, 3);
        s.finish(t);
    }

    #[test]
    fn exhausted_budget_fails_checkout_and_run() {
        let mut sc = scenario::validation_rig(0.0, 0.0, 304);
        let mut s = Session::new(&mut sc.prober, sc.target, 80).with_budget(Budget {
            deadline: std::time::Duration::ZERO,
            ..Budget::default()
        });
        assert!(s.over_deadline());
        assert!(matches!(
            s.checkout("t", 1460, 65535, std::time::Duration::from_secs(1)),
            Err(ProbeError::DeadlineExceeded)
        ));
        assert!(matches!(
            Measurer::new(TestKind::Syn)
                .with_config(TestConfig::samples(5))
                .run(&mut s),
            Err(ProbeError::DeadlineExceeded)
        ));
    }

    #[test]
    fn generous_budget_never_bites_a_cooperative_host() {
        let mut sc = scenario::validation_rig(0.1, 0.0, 305);
        let mut s = Session::new(&mut sc.prober, sc.target, 80)
            .with_reuse(true)
            .with_budget(Budget::default());
        let m = Measurer::new(TestKind::DualConnection)
            .with_config(TestConfig::samples(20))
            .run(&mut s)
            .expect("within budget");
        assert!(m.fwd.total > 0);
    }

    #[test]
    fn successive_runs_share_one_reusing_session() {
        let mut sc = scenario::validation_rig(0.1, 0.0, 303);
        let mut s = Session::new(&mut sc.prober, sc.target, 80).with_reuse(true);
        let plan = Measurer::new(TestKind::DualConnection).with_config(TestConfig::samples(20));
        let m = plan.run(&mut s).expect("measurement");
        assert_eq!(m.kind, TestKind::DualConnection);
        assert_eq!(m.verdict, Some(IpidVerdict::Amenable));
        assert_eq!(m.samples, 20);
        assert!(m.fwd.total > 0);
        // A second phase at another gap, as the §IV-C sweep runs it.
        let mut cfg = TestConfig::samples(20);
        cfg.gap = std::time::Duration::from_micros(50);
        let swept = plan.with_config(cfg).run(&mut s).expect("gap phase");
        assert!(swept.fwd.total > 0);
        // The amenability validation ran once; the second run reused
        // the two measurement connections instead of re-handshaking.
        assert_eq!(s.stats().validations, 1);
        assert!(s.stats().reused >= 2, "stats {:?}", s.stats());
    }
}
