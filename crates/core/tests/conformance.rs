//! The trait-level conformance suite: every entry of the technique
//! registry must satisfy the same contract — deterministic estimates
//! on the validation rig, requirements consistent with what the run
//! actually produced, amenability verdicts honored, and connection
//! reuse that changes the handshake economy but not the estimates.

use reorder_core::sample::TestConfig;
use reorder_core::scenario;
use reorder_core::techniques::{IpidVerdict, TestKind};
use reorder_core::{registry, technique, MeasurementRun, ProbeError, Session};
use reorder_tcpstack::HostPersonality;

fn cfg() -> TestConfig {
    TestConfig::samples(25)
}

fn execute(
    kind: TestKind,
    sc: &mut scenario::Scenario,
    reuse: bool,
) -> Result<MeasurementRun, ProbeError> {
    let mut session = Session::new(&mut sc.prober, sc.target, 80).with_reuse(reuse);
    technique(kind, cfg()).execute(&mut session)
}

/// Same seed, same technique → bit-identical counts. The registry
/// contract behind the survey engine's determinism guarantee.
#[test]
fn every_technique_is_deterministic_on_the_rig() {
    for t in registry(cfg()) {
        let once = |seed: u64| {
            let mut sc = scenario::validation_rig(0.15, 0.08, seed);
            let run = execute(t.kind(), &mut sc, false).expect("run");
            (
                run.fwd_reordered(),
                run.fwd_determinate(),
                run.rev_reordered(),
                run.rev_determinate(),
                run.discarded(),
            )
        };
        assert_eq!(once(0xC0), once(0xC0), "{}: nondeterministic", t.kind());
    }
}

/// What `requirements()` promises must match what `execute()` does: a
/// technique that claims not to measure a direction must never produce
/// a determinate verdict there.
#[test]
fn requirements_match_measured_directions() {
    for t in registry(cfg()) {
        let mut sc = scenario::validation_rig(0.2, 0.1, 0xC1);
        let run = execute(t.kind(), &mut sc, false).expect("run");
        let r = t.requirements();
        assert!(run.samples.len() > 1, "{}: no samples", t.kind());
        if !r.measures_fwd {
            assert_eq!(run.fwd_determinate(), 0, "{}: fwd claimed blind", t.kind());
        }
        if !r.measures_rev {
            assert_eq!(run.rev_determinate(), 0, "{}: rev claimed blind", t.kind());
        }
        // Something must be determinate on a clean-ish rig.
        assert!(
            run.fwd_determinate() + run.rev_determinate() > 0,
            "{}: measured nothing at all",
            t.kind()
        );
    }
}

/// Amenability is honored registry-wide: the default implementation
/// accepts any reachable host; the dual test rejects bad IPID schemes
/// through `probe_amenability` AND refuses to measure via `execute`.
#[test]
fn amenability_verdicts_are_honored() {
    // A host every technique accepts.
    for t in registry(cfg()) {
        let mut sc = scenario::validation_rig(0.0, 0.0, 0xC2);
        let mut session = Session::new(&mut sc.prober, sc.target, 80);
        assert_eq!(
            t.probe_amenability(&mut session).expect("probe"),
            IpidVerdict::Amenable,
            "{}",
            t.kind()
        );
    }
    // Hosts only the dual test must refuse.
    for (personality, expect) in [
        (HostPersonality::openbsd3(), IpidVerdict::NonMonotonic),
        (HostPersonality::linux24(), IpidVerdict::ConstantZero),
    ] {
        let name = personality.name;
        let mut sc = scenario::validation_rig_with(0.0, 0.0, personality, 0xC3);
        let mut session = Session::new(&mut sc.prober, sc.target, 80).with_reuse(true);
        let dual = technique(TestKind::DualConnection, cfg());
        assert_eq!(
            dual.probe_amenability(&mut session).expect("probe"),
            expect,
            "{name}"
        );
        // The session remembers; execute refuses without re-probing.
        let validations_before = session.stats().validations;
        match dual.execute(&mut session) {
            Err(ProbeError::HostUnsuitable(why)) => {
                assert!(why.contains(match expect {
                    IpidVerdict::ConstantZero => "constant IPID 0",
                    _ => "non-monotonic",
                }));
            }
            other => panic!("{name}: expected refusal, got {other:?}"),
        }
        assert_eq!(
            session.stats().validations,
            validations_before,
            "{name}: execute must reuse the cached verdict"
        );
    }
}

/// Connection reuse must be estimate-neutral: it changes how many
/// handshakes happen, never what the estimator reports. On a clean
/// path (swap probability 0) both modes report exactly zero over full
/// determinate counts; at the deterministic extreme (p = 1) both pin
/// the rate at the top — within the small pairing slack the *fresh*
/// mode's extra inter-phase packets cost it (the swap pipe pairs
/// whatever is adjacent, so more non-sample traffic means more
/// sample/handshake pairings). Reuse must also perform no more — for
/// connection-holding techniques strictly fewer — handshakes.
#[test]
fn session_reuse_changes_no_estimates() {
    let phases = |kind: TestKind, fwd_p: f64, reuse: bool| {
        let mut sc = scenario::validation_rig(fwd_p, 0.0, 0xC5);
        let (a, b, session_hs) = {
            let mut session = Session::new(&mut sc.prober, sc.target, 80).with_reuse(reuse);
            let tech = technique(kind, cfg());
            // Probe + two executes: the phase pattern the survey
            // pipeline runs per host.
            let _ = tech.probe_amenability(&mut session);
            let a = tech.execute(&mut session).expect("first run");
            let b = tech.execute(&mut session).expect("second run");
            (a, b, session.stats().handshakes)
        };
        // The session and prober count the same economy: every
        // handshake the session reports happened on the wire.
        assert_eq!(
            session_hs,
            sc.prober.handshakes_performed(),
            "{kind}: session/prober handshake counters diverged"
        );
        (a, b, session_hs)
    };
    for t in registry(cfg()) {
        let kind = t.kind();

        // Clean path: exact equality — zero events, full counts.
        let (fa, fb, fresh_hs) = phases(kind, 0.0, false);
        let (ra, rb, reused_hs) = phases(kind, 0.0, true);
        for (label, fresh, reused) in [("first", &fa, &ra), ("second", &fb, &rb)] {
            assert_eq!(
                fresh.fwd_reordered() + fresh.rev_reordered(),
                0,
                "{kind}/{label}: clean path, fresh mode"
            );
            assert_eq!(
                reused.fwd_reordered() + reused.rev_reordered(),
                0,
                "{kind}/{label}: clean path, reuse mode"
            );
            assert_eq!(
                (fresh.fwd_estimate().rate(), fresh.rev_estimate().rate()),
                (reused.fwd_estimate().rate(), reused.rev_estimate().rate()),
                "{kind}/{label}: clean-path estimates must match exactly"
            );
        }
        assert!(
            reused_hs <= fresh_hs,
            "{kind}: reuse must not add handshakes ({reused_hs} vs {fresh_hs})"
        );
        // Strict savings for techniques whose connections survive a
        // run; the transfer test's clamped connection is consumed by
        // the transfer (FIN/RST), so it has nothing to cache.
        if t.requirements().connections > 0 && kind != TestKind::DataTransfer {
            assert!(
                reused_hs < fresh_hs,
                "{kind}: a connection-holding technique must save handshakes \
                 ({reused_hs} vs {fresh_hs})"
            );
        }

        // Full-swap path: both modes pin the forward rate at the top.
        if t.requirements().measures_fwd {
            let (fa, _, _) = phases(kind, 1.0, false);
            let (ra, _, _) = phases(kind, 1.0, true);
            let fresh_rate = fa.fwd_estimate().rate();
            let reused_rate = ra.fwd_estimate().rate();
            assert!(
                fresh_rate >= 0.9 && reused_rate >= 0.9,
                "{kind}: p=1 must measure ~1 (fresh {fresh_rate}, reused {reused_rate})"
            );
            assert!(
                (fresh_rate - reused_rate).abs() <= 0.08,
                "{kind}: reuse moved the p=1 estimate ({fresh_rate} vs {reused_rate})"
            );
        }
    }
}

/// The mid-probability sanity check: with reuse on, estimates still
/// track the configured rate (reuse shifts which path randomness a
/// sample sees, never the distribution it is drawn from).
#[test]
fn session_reuse_tracks_configured_rates() {
    let p = 0.2;
    for kind in [TestKind::DualConnection, TestKind::Syn] {
        let mut sc = scenario::validation_rig(p, 0.0, 0xC6);
        let mut session = Session::new(&mut sc.prober, sc.target, 80).with_reuse(true);
        let tech = technique(kind, TestConfig::samples(120));
        let _ = tech.probe_amenability(&mut session);
        let run = tech.execute(&mut session).expect("run");
        let rate = run.fwd_estimate().rate();
        assert!(
            (p - 0.09..=p + 0.09).contains(&rate),
            "{kind}: rate {rate} not within ±0.09 of {p}"
        );
    }
}

/// The deprecated single-connection inconsistency, settled: `single`
/// and `single-rev` are distinct registry entries with distinct
/// behavior (the reversed variant stays determinate against an
/// ACK-collapsing stack; the in-order variant goes blind).
#[test]
fn single_variants_are_distinct_registry_entries() {
    let kinds: Vec<TestKind> = registry(cfg()).iter().map(|t| t.kind()).collect();
    assert!(kinds.contains(&TestKind::SingleConnection));
    assert!(kinds.contains(&TestKind::SingleConnectionReversed));

    let mut sc = scenario::validation_rig_with(0.0, 0.0, HostPersonality::windows2000(), 0xC7);
    let in_order = execute(TestKind::SingleConnection, &mut sc, false).expect("run");
    assert_eq!(in_order.fwd_determinate(), 0, "in-order variant is blind");
    let mut sc = scenario::validation_rig_with(0.0, 0.0, HostPersonality::windows2000(), 0xC8);
    let reversed = execute(TestKind::SingleConnectionReversed, &mut sc, false).expect("run");
    assert!(reversed.fwd_determinate() > 0, "reversed variant sees");
}
