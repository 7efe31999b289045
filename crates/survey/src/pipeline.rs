//! Layer 3: the per-host measurement pipeline — the paper's live-host
//! protocol (§IV-B), automated over `reorder_core`'s unified
//! measurement API.
//!
//! Per host: validate the IPID space first (the §III-C pre-check),
//! run the Dual Connection Test where amenable, fall back to the SYN
//! test otherwise (it is immune to per-flow load balancers and IPID
//! schemes), and take a data-transfer baseline of the reverse path
//! when the host serves an object spanning ≥ 2 segments. Every phase
//! dispatches through the [`reorder_core::Technique`] registry and
//! reduces to a [`reorder_core::Measurement`] on the worker — the
//! aggregation stays O(hosts), not O(samples).
//!
//! ## Connection reuse
//!
//! With [`HostJob::reuse`] (the default) one simulated path and one
//! [`Session`] serve the whole host: the amenability probe's two
//! connections are kept open and handed to the dual-connection
//! measurement, the IPID validation runs once instead of per phase,
//! and the baseline and gap sweep ride the same scenario. That removes
//! two scenario constructions, two handshakes and a full validation
//! round per amenable host — the ROADMAP's ~30% per-host win,
//! measured by `benches/campaign.rs`. Reuse trades per-phase path
//! independence (every phase now sees one realization of the path's
//! randomness) for speed; per-host estimates remain unbiased because
//! the realization is still drawn independently per host. `reuse:
//! false` reproduces the PR 2 per-phase-scenario protocol exactly.

use reorder_core::metrics::ReorderEstimate;
use reorder_core::sample::TestConfig;
use reorder_core::scenario::{HostSpec, ScenarioPool};
use reorder_core::techniques::{IpidVerdict, TestKind};
use reorder_core::telemetry::{TelemetryMode, WorkerTelemetry};
use reorder_core::{technique, Budget, HostErrorKind, Measurement, Measurer, ProbeError, Session};
use reorder_netsim::rng as simrng;
use std::cell::Cell;
use std::fmt;
use std::time::Duration;

/// Which technique a campaign runs against each host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TechniqueChoice {
    /// The paper's protocol: IPID-validate, then dual where amenable,
    /// SYN test otherwise.
    Auto,
    /// Force one specific technique on every host. Both
    /// single-connection variants are addressable (`single` is the
    /// in-order variant, `single-rev` the delayed-ACK-proof reversed
    /// one — historically `single` silently ran the reversed variant).
    Fixed(TestKind),
}

impl TechniqueChoice {
    /// Every accepted spelling, for error messages and usage text:
    /// `auto` plus the [`TestKind::ACCEPTED`] set.
    pub const ACCEPTED: [&'static str; 6] =
        ["auto", "single", "single-rev", "dual", "syn", "transfer"];

    /// Exhaustive, case-sensitive parse. The error lists the accepted
    /// set so an unknown value is never silently ignored.
    pub fn parse(name: &str) -> Result<TechniqueChoice, String> {
        if name == "auto" {
            return Ok(TechniqueChoice::Auto);
        }
        name.parse::<TestKind>()
            .map(TechniqueChoice::Fixed)
            .map_err(|_| {
                format!(
                    "unknown technique `{name}` (accepted: {})",
                    TechniqueChoice::ACCEPTED.join(", ")
                )
            })
    }
}

impl fmt::Display for TechniqueChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TechniqueChoice::Auto => f.write_str("auto"),
            TechniqueChoice::Fixed(kind) => write!(f, "{kind}"),
        }
    }
}

/// How a host's pipeline run ended — the campaign's graceful-degradation
/// ladder. `Complete` hosts measured everything they were asked to;
/// `Degraded` hosts produced usable partial results (some rounds
/// failed, the amenability probe errored, or the per-host [`Budget`]
/// deadline cut later phases); `Failed` hosts produced no measurement
/// at all, classified by [`HostErrorKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostOutcome {
    /// Every requested phase succeeded.
    Complete,
    /// Partial results were kept; `kind` names the dominant failure.
    Degraded {
        /// Why the host fell short of a complete run.
        kind: HostErrorKind,
    },
    /// No measurement succeeded.
    Failed {
        /// Why the host failed outright.
        kind: HostErrorKind,
    },
}

impl HostOutcome {
    /// Stable JSONL label: `complete`, `degraded/<kind>` or
    /// `failed/<kind>`.
    pub fn label(&self) -> String {
        match self {
            HostOutcome::Complete => "complete".to_string(),
            HostOutcome::Degraded { kind } => format!("degraded/{kind}"),
            HostOutcome::Failed { kind } => format!("failed/{kind}"),
        }
    }

    /// The failure-taxonomy key the campaign summary aggregates under:
    /// failed and degraded hosts by their classified error kind (the
    /// severity split lives in the [`crate::aggregate::FailureAgg`]
    /// columns), complete hosts nowhere.
    pub(crate) fn taxonomy(&self) -> Option<&'static str> {
        match self {
            HostOutcome::Complete => None,
            HostOutcome::Degraded { kind } | HostOutcome::Failed { kind } => Some(kind.label()),
        }
    }

    /// The classified error, when the run was not complete.
    #[cfg(test)]
    pub(crate) fn kind(&self) -> Option<HostErrorKind> {
        match self {
            HostOutcome::Complete => None,
            HostOutcome::Degraded { kind } | HostOutcome::Failed { kind } => Some(*kind),
        }
    }
}

impl fmt::Display for HostOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Knobs of one host's pipeline run (shared by every host of a
/// campaign).
#[derive(Debug, Clone)]
pub struct HostJob {
    /// Samples per technique run.
    pub samples: usize,
    /// Measurement rounds. Without reuse every round is a fresh path
    /// realization; with reuse the rounds extend the same session
    /// (more samples, one realization).
    pub rounds: usize,
    /// Technique selection.
    pub technique: TechniqueChoice,
    /// Take the data-transfer reverse-path baseline too.
    pub baseline: bool,
    /// Stop after the amenability verdict (the §IV-B survey mode of
    /// `exp_amenability`).
    pub amenability_only: bool,
    /// Extra inter-packet gaps (µs) to measure at, for a campaign-level
    /// gap profile (§IV-C). Empty = skip.
    pub gaps_us: Vec<u64>,
    /// Share one scenario and one connection-caching [`Session`] across
    /// the host's phases (see the module docs).
    pub reuse: bool,
    /// Telemetry mode for phase spans and pipeline counters (recorded
    /// into the [`WorkerTelemetry`] handed to [`survey_host_traced`]).
    /// `Off` (the default) measures nothing — a few branches, no clock.
    pub telemetry: TelemetryMode,
    /// Per-host spending cap: simulated-time deadline, transient-retry
    /// count and retry backoff. The default is generous enough that no
    /// cooperative host ever notices it.
    pub budget: Budget,
}

impl Default for HostJob {
    fn default() -> Self {
        HostJob {
            samples: 15,
            rounds: 1,
            technique: TechniqueChoice::Auto,
            baseline: true,
            amenability_only: false,
            gaps_us: Vec::new(),
            reuse: true,
            telemetry: TelemetryMode::Off,
            budget: Budget::default(),
        }
    }
}

/// Everything the campaign keeps per host — O(1) in the sample count.
#[derive(Debug, Clone)]
pub struct HostReport {
    /// Host index within the campaign.
    pub id: u64,
    /// The generated ground-truth spec (kept for breakdowns and
    /// validation against verdicts).
    pub spec: HostSpec,
    /// IPID-validation verdict; `None` when the probe itself failed.
    pub verdict: Option<IpidVerdict>,
    /// Technique that produced `fwd`/`rev` ("none" in amenability-only
    /// mode or when every round failed).
    pub technique: &'static str,
    /// Forward-path estimate, merged over rounds.
    pub fwd: ReorderEstimate,
    /// Reverse-path estimate, merged over rounds.
    pub rev: ReorderEstimate,
    /// Reverse-path estimate of the data-transfer baseline, when taken.
    pub baseline_rev: Option<ReorderEstimate>,
    /// `(gap_us, forward estimate)` sweep points, when requested.
    pub gap_points: Vec<(u64, ReorderEstimate)>,
    /// Rounds that produced no measurement.
    pub failures: usize,
    /// False when every round failed (the host is effectively
    /// unreachable to the chosen technique).
    pub reachable: bool,
    /// How the run ended: complete, degraded (partial results kept) or
    /// failed, with the classified [`HostErrorKind`].
    pub outcome: HostOutcome,
    /// Simulator events this host's pipeline dispatched (perf
    /// observability; not part of the JSONL report).
    pub events: u64,
}

fn empty_report(id: u64, spec: &HostSpec, verdict: Option<IpidVerdict>) -> HostReport {
    HostReport {
        id,
        spec: spec.clone(),
        verdict,
        technique: "none",
        fwd: ReorderEstimate::new(0, 0),
        rev: ReorderEstimate::new(0, 0),
        baseline_rev: None,
        gap_points: Vec::new(),
        failures: 0,
        reachable: verdict.is_some(),
        outcome: HostOutcome::Complete,
        events: 0,
    }
}

/// The paper's auto-selection rule: dual where the IPID space
/// validated, SYN fallback otherwise.
fn primary_kind(choice: TechniqueChoice, verdict: Option<IpidVerdict>) -> TestKind {
    match choice {
        TechniqueChoice::Auto => {
            if verdict == Some(IpidVerdict::Amenable) {
                TestKind::DualConnection
            } else {
                TestKind::Syn
            }
        }
        TechniqueChoice::Fixed(kind) => kind,
    }
}

fn absorb_round(report: &mut HostReport, chosen: &mut Option<TestKind>, m: &Measurement) {
    *chosen = Some(m.kind);
    report.technique = m.kind.label();
    report.fwd = report.fwd.merge(&m.fwd);
    report.rev = report.rev.merge(&m.rev);
}

/// One measurement phase of the per-host protocol. The fresh mode
/// derives a labeled child seed per phase (so each phase is its own
/// path realization); the reusing mode ignores the label and runs the
/// phase on the shared session.
enum Phase {
    /// Measurement round `n`.
    Round(usize),
    /// SYN fallback after round `n`'s dual attempt failed.
    Fallback(usize),
    /// The data-transfer baseline.
    Baseline,
    /// One gap-sweep point (µs).
    Gap(u64),
}

impl Phase {
    /// The seed-derivation label the PR 2 protocol used per phase.
    fn seed_label(&self) -> String {
        match self {
            Phase::Round(r) => format!("round{r}"),
            Phase::Fallback(r) => format!("round{r}.fallback"),
            Phase::Baseline => "baseline".to_string(),
            Phase::Gap(g) => format!("gap{g}"),
        }
    }

    /// The telemetry span label this phase's duration is recorded
    /// under. Fallback rounds are measurement work like the rounds
    /// they replace, so both share the `measure` span.
    fn span_label(&self) -> &'static str {
        match self {
            Phase::Round(_) | Phase::Fallback(_) => "measure",
            Phase::Baseline => "baseline",
            Phase::Gap(_) => "gap_sweep",
        }
    }
}

/// The per-host protocol, shared by both modes: technique selection,
/// measurement rounds with technique pinning, SYN fallback and
/// budgeted retries, the baseline gate, and the gap sweep. `measure`
/// runs one phase — session-backed (reusing) or
/// fresh-scenario-per-phase — so the two modes cannot drift apart
/// semantically. `elapsed` reports the host's accumulated simulated
/// time, which [`Budget::deadline`] caps: phases that would start past
/// the deadline are skipped, so no tarpit or blackhole host can spend
/// more than its budget.
fn run_protocol(
    id: u64,
    spec: &HostSpec,
    verdict: Result<IpidVerdict, HostErrorKind>,
    job: &HostJob,
    elapsed: impl Fn() -> Duration,
    mut measure: impl FnMut(TestKind, &Phase, TestConfig) -> Result<Measurement, ProbeError>,
) -> HostReport {
    let cfg = TestConfig::samples(job.samples);
    let (verdict, amen_err) = match verdict {
        Ok(v) => (Some(v), None),
        Err(kind) => (None, Some(kind)),
    };
    let mut report = empty_report(id, spec, verdict);
    if job.amenability_only {
        report.outcome = match amen_err {
            None => HostOutcome::Complete,
            Some(kind) => HostOutcome::Failed { kind },
        };
        return report;
    }

    // Budget accounting: retry backoff is charged against the deadline
    // arithmetically (`backoff << attempt`), so budgets stay
    // deterministic — no wall clock is ever read.
    let budget = job.budget;
    let mut charged = Duration::ZERO;
    let mut deadline_cut = false;

    // Technique selection and measurement rounds. Once a round
    // succeeds the technique is pinned (and fallback disabled): the
    // merged fwd/rev counts must all come from one technique, or the
    // per-technique breakdowns would mislabel mixed samples.
    let primary = primary_kind(job.technique, verdict);
    let mut chosen: Option<TestKind> = None;
    let mut round_err: Option<HostErrorKind> = None;
    for round in 0..job.rounds {
        if elapsed() + charged >= budget.deadline {
            deadline_cut = true;
            report.failures += 1;
            round_err.get_or_insert(HostErrorKind::DeadlineExceeded);
            continue;
        }
        let kind = chosen.unwrap_or(primary);
        // Transfer-primary rounds on a reusing session ask the server
        // for a persistent connection, so rounds 2..n ride round 1's
        // clamped-MSS handshake (`--no-reuse` restores per-round
        // handshakes). Single transfers stay packet-identical — the
        // keep-alive request itself changes the bytes on the wire, so
        // it is only worth asking for when a reuse can follow.
        let round_cfg = cfg.with_keep_alive(
            job.reuse
                && kind == TestKind::DataTransfer
                && (job.rounds > 1 || !job.gaps_us.is_empty()),
        );
        let mut attempt = 0u32;
        let outcome = loop {
            let mut outcome = measure(kind, &Phase::Round(round), round_cfg);
            if outcome.is_err()
                && chosen.is_none()
                && job.technique == TechniqueChoice::Auto
                && kind == TestKind::DualConnection
            {
                // Mid-measurement dual failure (e.g. loss-induced
                // timeout): fall back to the SYN test.
                outcome = measure(TestKind::Syn, &Phase::Fallback(round), cfg);
            }
            match outcome {
                Ok(m) => break Ok(m),
                Err(err) => {
                    // Only transient failures (timeouts) retry, and
                    // each retry's backoff spends deadline.
                    if attempt < budget.max_retries && HostErrorKind::is_transient(&err) {
                        charged += budget.backoff_for(attempt);
                        attempt += 1;
                        if elapsed() + charged < budget.deadline {
                            continue;
                        }
                        deadline_cut = true;
                    }
                    break Err(err);
                }
            }
        };
        match outcome {
            Ok(m) => absorb_round(&mut report, &mut chosen, &m),
            Err(err) => {
                report.failures += 1;
                let classified =
                    HostErrorKind::classify(&err, chosen.is_some() || report.verdict.is_some());
                round_err.get_or_insert(classified);
                // A permanent failure before any success means every
                // remaining round is doomed the same way: count them
                // as failures without burning their simulation time.
                if chosen.is_none() && !HostErrorKind::is_transient(&err) {
                    report.failures += job.rounds - round - 1;
                    break;
                }
            }
        }
    }
    report.reachable = chosen.is_some();

    // Data-transfer baseline of the reverse path (skipped when the
    // primary *is* the transfer test). A redirect-sized object
    // (`HostUnsuitable` → `NonAmenable`) is a host property and never
    // degrades; any other baseline failure — the host died, refused or
    // timed out mid-transfer — marks the run degraded.
    let mut late_err: Option<HostErrorKind> = None;
    if job.baseline && primary != TestKind::DataTransfer {
        if elapsed() + charged >= budget.deadline {
            deadline_cut = true;
        } else {
            match measure(
                TestKind::DataTransfer,
                &Phase::Baseline,
                TestConfig::default(),
            ) {
                Ok(m) => report.baseline_rev = Some(m.rev),
                Err(err) => {
                    let classified =
                        HostErrorKind::classify(&err, chosen.is_some() || report.verdict.is_some());
                    if classified != HostErrorKind::NonAmenable {
                        late_err.get_or_insert(classified);
                    }
                }
            }
        }
    }

    // Optional §IV-C gap sweep. Skipped for unreachable hosts: every
    // sweep point would burn a full doomed measurement attempt per gap.
    if let Some(kind) = chosen {
        for &gap in &job.gaps_us {
            if elapsed() + charged >= budget.deadline {
                deadline_cut = true;
                break;
            }
            let gcfg = cfg
                .with_gap(Duration::from_micros(gap))
                .with_keep_alive(job.reuse && kind == TestKind::DataTransfer);
            match measure(kind, &Phase::Gap(gap), gcfg) {
                Ok(m) => report.gap_points.push((gap, m.fwd)),
                Err(err) => {
                    let classified = HostErrorKind::classify(&err, true);
                    if classified != HostErrorKind::NonAmenable {
                        late_err.get_or_insert(classified);
                    }
                }
            }
        }
    }

    report.outcome = if !report.reachable {
        // The amenability probe's classification is the most specific
        // one for a host that never measured (it saw the raw handshake
        // failure: refused vs timed out).
        HostOutcome::Failed {
            kind: amen_err
                .or(round_err)
                .unwrap_or(HostErrorKind::DeadlineExceeded),
        }
    } else if report.failures > 0 || amen_err.is_some() || late_err.is_some() || deadline_cut {
        HostOutcome::Degraded {
            kind: round_err
                .or(late_err)
                .or(amen_err)
                .unwrap_or(if deadline_cut {
                    HostErrorKind::DeadlineExceeded
                } else {
                    HostErrorKind::Partial
                }),
        }
    } else {
        HostOutcome::Complete
    };
    report
}

/// Run the full pipeline against host `id` with a throwaway
/// [`ScenarioPool`] and no telemetry — the convenience form of
/// [`survey_host_traced`] for tests.
#[cfg(test)]
pub(crate) fn survey_host(id: u64, spec: &HostSpec, host_seed: u64, job: &HostJob) -> HostReport {
    let mut pool = ScenarioPool::new();
    survey_host_traced(
        id,
        spec,
        host_seed,
        job,
        &mut pool,
        &mut WorkerTelemetry::new(),
    )
}

/// Run the full pipeline against host `id`. `host_seed` must already be
/// host-specific (the engine derives it from the master seed and id);
/// every scenario in here derives a labeled child seed from it, so the
/// pipeline is a pure function of `(spec, host_seed, job)` — the pool
/// only recycles allocations (campaign workers keep one each) and
/// never changes a result, which the pooled-vs-fresh determinism
/// tests assert byte for byte.
///
/// Phase span durations (`host`, `amenability`, `measure`, `baseline`,
/// `gap_sweep`) and pipeline counters (`netsim.events`,
/// `netsim.stage_passes`, `pool.hits`, `pool.misses`) are folded into
/// `tel` according to [`HostJob::telemetry`]. With
/// [`TelemetryMode::Off`] (the default) nothing is recorded and no
/// clock is read — `tel` stays untouched — and in every mode the
/// returned report is byte-identical to the untraced run (telemetry
/// observes; it never participates).
pub fn survey_host_traced(
    id: u64,
    spec: &HostSpec,
    host_seed: u64,
    job: &HostJob,
    pool: &mut ScenarioPool,
    tel: &mut WorkerTelemetry,
) -> HostReport {
    let mode = job.telemetry;
    let events_before = pool.events_absorbed();
    let stage_passes_before = pool.stage_passes_absorbed();
    let hits_before = pool.recycled();
    let misses_before = pool.fresh_builds();
    let host_sw = mode.start();
    let mut report = if job.reuse {
        survey_host_reusing(id, spec, host_seed, job, pool, tel)
    } else {
        survey_host_fresh(id, spec, host_seed, job, pool, tel)
    };
    report.events = pool.events_absorbed() - events_before;
    if mode.is_enabled() {
        tel.span("host", mode, host_sw);
        tel.count("netsim.events", report.events);
        tel.count(
            "netsim.stage_passes",
            pool.stage_passes_absorbed() - stage_passes_before,
        );
        tel.count("pool.hits", pool.recycled() - hits_before);
        tel.count("pool.misses", pool.fresh_builds() - misses_before);
    }
    report
}

/// One scenario, one connection-caching session, every phase on it:
/// the amenability probe's two connections and the validation verdict
/// stay on the session for the measurement rounds, baseline and gap
/// sweep.
fn survey_host_reusing(
    id: u64,
    spec: &HostSpec,
    host_seed: u64,
    job: &HostJob,
    pool: &mut ScenarioPool,
    tel: &mut WorkerTelemetry,
) -> HostReport {
    let mode = job.telemetry;
    let mut sc = pool.internet_host(spec, simrng::derive_seed(host_seed, "session"));
    let report = {
        let mut session = Session::new(&mut sc.prober, sc.target, 80)
            .with_reuse(true)
            .with_budget(job.budget);
        let sw = mode.start();
        let verdict = technique(TestKind::DualConnection, TestConfig::samples(5))
            .probe_amenability(&mut session)
            .map_err(|e| HostErrorKind::classify(&e, false));
        tel.span("amenability", mode, sw);
        // Elapsed simulated time, updated after every phase: the one
        // shared session's clock covers amenability and all phases.
        let spent = Cell::new(Duration::from_nanos(session.prober().now().as_nanos()));
        run_protocol(
            id,
            spec,
            verdict,
            job,
            || spent.get(),
            |kind, phase, cfg| {
                let sw = mode.start();
                let outcome = Measurer::new(kind).with_config(cfg).run(&mut session);
                spent.set(Duration::from_nanos(session.prober().now().as_nanos()));
                tel.span(phase.span_label(), mode, sw);
                outcome
            },
        )
        // Session drops here: cached connections close politely while
        // the scenario is still alive, so teardown traffic is counted.
    };
    pool.recycle(sc);
    report
}

/// The PR 2 protocol: a fresh scenario (own labeled seed, own
/// handshakes) per phase. Kept selectable for apples-to-apples
/// comparisons — the campaign bench runs both modes.
fn survey_host_fresh(
    id: u64,
    spec: &HostSpec,
    host_seed: u64,
    job: &HostJob,
    pool: &mut ScenarioPool,
    tel: &mut WorkerTelemetry,
) -> HostReport {
    let mode = job.telemetry;
    let budget = job.budget;
    let (verdict, amen_elapsed) = {
        let sw = mode.start();
        let mut sc = pool.internet_host(spec, simrng::derive_seed(host_seed, "amenability"));
        let verdict = {
            let mut session = Session::new(&mut sc.prober, sc.target, 80).with_budget(budget);
            technique(TestKind::DualConnection, TestConfig::samples(5))
                .probe_amenability(&mut session)
                .map_err(|e| HostErrorKind::classify(&e, false))
        };
        let spent = Duration::from_nanos(sc.prober.now().as_nanos());
        pool.recycle(sc);
        tel.span("amenability", mode, sw);
        (verdict, spent)
    };
    // Each phase runs its own scenario whose clock starts at zero, so
    // the host's accumulated simulated time is summed across phases
    // (seeded with the amenability probe's) and each phase's session
    // gets whatever deadline remains.
    let spent = Cell::new(amen_elapsed);
    run_protocol(
        id,
        spec,
        verdict,
        job,
        || spent.get(),
        |kind, phase, cfg| {
            let sw = mode.start();
            let seed = simrng::derive_seed(host_seed, &phase.seed_label());
            let mut sc = pool.internet_host(spec, seed);
            let outcome = {
                let remaining = Budget {
                    deadline: budget.deadline.saturating_sub(spent.get()),
                    ..budget
                };
                let mut session =
                    Session::new(&mut sc.prober, sc.target, 80).with_budget(remaining);
                Measurer::new(kind).with_config(cfg).run(&mut session)
            };
            spent.set(spent.get() + Duration::from_nanos(sc.prober.now().as_nanos()));
            pool.recycle(sc);
            tel.span(phase.span_label(), mode, sw);
            outcome
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorder_tcpstack::HostPersonality;

    #[test]
    fn parse_is_exhaustive() -> Result<(), String> {
        for name in TechniqueChoice::ACCEPTED {
            let parsed =
                TechniqueChoice::parse(name).map_err(|e| format!("`{name}` must parse: {e}"))?;
            assert_eq!(parsed.to_string(), name, "display round-trips");
        }
        let err = TechniqueChoice::parse("bogus").unwrap_err();
        for name in TechniqueChoice::ACCEPTED {
            assert!(err.contains(name), "error must list `{name}`: {err}");
        }
        // Both single-connection variants are explicitly addressable.
        assert_eq!(
            TechniqueChoice::parse("single").unwrap(),
            TechniqueChoice::Fixed(TestKind::SingleConnection)
        );
        assert_eq!(
            TechniqueChoice::parse("single-rev").unwrap(),
            TechniqueChoice::Fixed(TestKind::SingleConnectionReversed)
        );
        Ok(())
    }

    #[test]
    fn accepted_set_is_auto_plus_every_kind() {
        let mut expected = vec!["auto"];
        expected.extend(TestKind::ACCEPTED);
        assert_eq!(TechniqueChoice::ACCEPTED.to_vec(), expected);
    }

    #[test]
    fn amenable_host_uses_dual() {
        let spec = HostSpec::clean("dual-ok", HostPersonality::freebsd4());
        let r = survey_host(0, &spec, 101, &HostJob::default());
        assert_eq!(r.verdict, Some(IpidVerdict::Amenable));
        assert_eq!(r.technique, "dual");
        assert!(r.reachable);
        assert!(r.fwd.total > 0);
        assert!(r.baseline_rev.is_some(), "12KiB object supports baseline");
    }

    #[test]
    fn random_ipid_host_falls_back_to_syn() {
        let spec = HostSpec::clean("syn-fallback", HostPersonality::openbsd3());
        let r = survey_host(1, &spec, 202, &HostJob::default());
        assert_eq!(r.verdict, Some(IpidVerdict::NonMonotonic));
        assert_eq!(r.technique, "syn");
        assert!(r.reachable);
        assert!(r.fwd.total > 0);
    }

    #[test]
    fn multi_round_merges_one_technique() {
        let spec = HostSpec {
            fwd_reorder: 0.1,
            ..HostSpec::clean("rounds", HostPersonality::freebsd4())
        };
        let job = HostJob {
            samples: 6,
            rounds: 3,
            baseline: false,
            ..HostJob::default()
        };
        let r = survey_host(9, &spec, 808, &job);
        assert_eq!(r.technique, "dual");
        assert_eq!(r.failures, 0);
        // All three rounds' samples merged under the pinned technique.
        assert!(r.fwd.total >= 15, "merged totals, got {:?}", r.fwd);
    }

    #[test]
    fn amenability_only_skips_measurement() {
        let spec = HostSpec::clean("probe-only", HostPersonality::linux24());
        let job = HostJob {
            amenability_only: true,
            ..HostJob::default()
        };
        let r = survey_host(2, &spec, 303, &job);
        assert_eq!(r.verdict, Some(IpidVerdict::ConstantZero));
        assert_eq!(r.technique, "none");
        assert_eq!(r.fwd.total, 0);
        assert!(r.baseline_rev.is_none());
    }

    #[test]
    fn small_object_defeats_baseline_not_measurement() {
        let spec = HostSpec {
            object_size: 256,
            ..HostSpec::clean("redirect", HostPersonality::freebsd4())
        };
        let r = survey_host(3, &spec, 404, &HostJob::default());
        assert!(r.reachable);
        assert!(r.baseline_rev.is_none(), "redirect-sized object");
    }

    #[test]
    fn gap_sweep_recorded() {
        let spec = HostSpec::clean("gaps", HostPersonality::freebsd4());
        let job = HostJob {
            samples: 5,
            gaps_us: vec![0, 100],
            ..HostJob::default()
        };
        let r = survey_host(4, &spec, 505, &job);
        assert_eq!(r.gap_points.len(), 2);
        assert_eq!(r.gap_points[0].0, 0);
        assert_eq!(r.gap_points[1].0, 100);
    }

    #[test]
    fn pipeline_is_deterministic() {
        for reuse in [true, false] {
            let m = crate::population::PopulationModel::default();
            let spec = m.host(7, 42);
            let job = HostJob {
                reuse,
                ..HostJob::default()
            };
            let a = survey_host(7, &spec, 606, &job);
            let b = survey_host(7, &spec, 606, &job);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.technique, b.technique);
            assert_eq!(a.fwd, b.fwd);
            assert_eq!(a.rev, b.rev);
            assert_eq!(a.baseline_rev, b.baseline_rev);
        }
    }

    #[test]
    fn reuse_and_fresh_modes_agree_on_protocol_outcomes() {
        // Reuse changes how many handshakes happen, never which
        // technique measures a host or how its verdict reads.
        for (seed, p) in [
            (11u64, HostPersonality::freebsd4()),
            (12, HostPersonality::openbsd3()),
            (13, HostPersonality::linux24()),
        ] {
            let spec = HostSpec {
                fwd_reorder: 0.15,
                ..HostSpec::clean("mode-cmp", p)
            };
            let reusing = survey_host(0, &spec, seed, &HostJob::default());
            let fresh = survey_host(
                0,
                &spec,
                seed,
                &HostJob {
                    reuse: false,
                    ..HostJob::default()
                },
            );
            assert_eq!(reusing.verdict, fresh.verdict, "{}", spec.personality.name);
            assert_eq!(
                reusing.technique, fresh.technique,
                "{}",
                spec.personality.name
            );
            assert_eq!(reusing.reachable, fresh.reachable);
            // Same sample budget in both modes.
            assert_eq!(reusing.fwd.total, fresh.fwd.total);
        }
    }

    #[test]
    fn transfer_rounds_keep_alive_under_reuse() {
        // Transfer-primary, multi-round: with reuse the keep-alive
        // connection spares rounds 2..n their handshakes (and the
        // server its FIN/handshake churn), which shows up as strictly
        // fewer simulator events for the same sample budget. With
        // --no-reuse the per-round handshakes come back.
        let spec = HostSpec::clean("ka", HostPersonality::freebsd4());
        let job = |reuse| HostJob {
            technique: TechniqueChoice::Fixed(TestKind::DataTransfer),
            rounds: 3,
            baseline: false,
            reuse,
            ..HostJob::default()
        };
        let reusing = survey_host(0, &spec, 4242, &job(true));
        let fresh = survey_host(0, &spec, 4242, &job(false));
        assert_eq!(reusing.technique, "transfer");
        assert_eq!(fresh.technique, "transfer");
        assert_eq!(reusing.failures, 0);
        // Same protocol outcome, same per-round sample counts.
        assert_eq!(reusing.rev.total, fresh.rev.total);
        assert!(
            reusing.events < fresh.events,
            "keep-alive must remove wire traffic: {} vs {}",
            reusing.events,
            fresh.events
        );
    }

    #[test]
    fn forced_single_runs_the_in_order_variant() {
        // The historical inconsistency: "single" used to silently run
        // the reversed variant. Now each variant is explicit.
        let spec = HostSpec::clean("single-explicit", HostPersonality::freebsd4());
        let job = HostJob {
            technique: TechniqueChoice::Fixed(TestKind::SingleConnection),
            baseline: false,
            ..HostJob::default()
        };
        let r = survey_host(5, &spec, 707, &job);
        assert_eq!(r.technique, "single");
        let job = HostJob {
            technique: TechniqueChoice::Fixed(TestKind::SingleConnectionReversed),
            baseline: false,
            ..HostJob::default()
        };
        let r = survey_host(6, &spec, 708, &job);
        assert_eq!(r.technique, "single-rev");
    }

    /// The hostile-host survival property: every fault class crossed
    /// with every technique choice and both session modes terminates,
    /// produces a classified outcome, and does so deterministically.
    /// Loss-only hostility may still complete (45% loss is survivable
    /// with enough retransmission luck); the four hard faults never do.
    #[test]
    fn every_fault_class_terminates_classified() {
        use reorder_core::scenario::FaultClass;
        let faults = [
            FaultClass::Blackhole,
            FaultClass::RstReject,
            FaultClass::Tarpit {
                delay: Duration::from_secs(30),
            },
            FaultClass::DeadAfter { packets: 60 },
            FaultClass::HeavyLoss { rate: 0.45 },
        ];
        let techniques = [
            TechniqueChoice::Auto,
            TechniqueChoice::Fixed(TestKind::DualConnection),
            TechniqueChoice::Fixed(TestKind::Syn),
            TechniqueChoice::Fixed(TestKind::DataTransfer),
        ];
        let budget = Budget {
            deadline: Duration::from_secs(45),
            max_retries: 1,
            ..Budget::default()
        };
        for (fi, &fault) in faults.iter().enumerate() {
            for (ti, &technique) in techniques.iter().enumerate() {
                for reuse in [true, false] {
                    let spec = HostSpec {
                        fault: Some(fault),
                        ..HostSpec::clean("hostile", HostPersonality::freebsd4())
                    };
                    let job = HostJob {
                        samples: 4,
                        baseline: false,
                        technique,
                        reuse,
                        budget,
                        ..HostJob::default()
                    };
                    let seed = 9000 + (fi * 10 + ti) as u64;
                    let r = survey_host(0, &spec, seed, &job);
                    let again = survey_host(0, &spec, seed, &job);
                    let label = format!("{} x {technique} (reuse={reuse})", fault.label());
                    assert_eq!(r.outcome, again.outcome, "{label} must be deterministic");
                    assert_eq!(r.fwd, again.fwd, "{label} must be deterministic");
                    // DeadAfter and HeavyLoss are survivable-by-design
                    // (a short enough run fits before death; 45% loss
                    // can get lucky) — for them termination plus
                    // deterministic classification is the property.
                    // The three always-hostile classes must never read
                    // as complete.
                    if matches!(
                        fault,
                        FaultClass::Blackhole | FaultClass::RstReject | FaultClass::Tarpit { .. }
                    ) {
                        assert_ne!(
                            r.outcome,
                            HostOutcome::Complete,
                            "{label} must be classified as degraded or failed"
                        );
                        let kind = r.outcome.kind().expect("non-complete outcome has a kind");
                        assert!(!kind.label().is_empty());
                        assert!(
                            r.failures > 0 || !r.reachable || r.baseline_rev.is_none(),
                            "{label}: a hard fault must cost something"
                        );
                    }
                }
            }
        }
    }

    /// The chaos preset's mid-measurement death: `DeadAfter { packets:
    /// 50 }` outlives the amenability probe, dies partway through the
    /// dual measurement — classified died-mid-measurement, with the
    /// partial results kept.
    #[test]
    fn dead_after_fifty_packets_degrades_as_died_mid_measurement() {
        use reorder_core::scenario::FaultClass;
        let spec = HostSpec {
            fault: Some(FaultClass::DeadAfter { packets: 50 }),
            ..HostSpec::clean("walking-dead", HostPersonality::freebsd4())
        };
        let r = survey_host(0, &spec, 2026, &HostJob::default());
        assert_eq!(r.verdict, Some(IpidVerdict::Amenable), "outlives the probe");
        assert_eq!(r.technique, "dual");
        assert!(r.reachable, "partial results are kept");
        assert!(r.fwd.total > 0);
        assert_eq!(
            r.outcome,
            HostOutcome::Degraded {
                kind: HostErrorKind::DiedMidMeasurement
            }
        );
        assert!(r.baseline_rev.is_none(), "died before the baseline");
    }

    /// An exhausted budget classifies immediately — the deadline binds
    /// before any probe traffic, for hostile and cooperative hosts
    /// alike, so no fault class can stretch a host past its budget.
    #[test]
    fn zero_deadline_fails_every_host_as_deadline_exceeded() {
        use reorder_core::scenario::FaultClass;
        let job = HostJob {
            budget: Budget {
                deadline: Duration::ZERO,
                ..Budget::default()
            },
            ..HostJob::default()
        };
        for fault in [None, Some(FaultClass::Blackhole)] {
            for reuse in [true, false] {
                let spec = HostSpec {
                    fault,
                    ..HostSpec::clean("broke", HostPersonality::freebsd4())
                };
                let r = survey_host(
                    0,
                    &spec,
                    1234,
                    &HostJob {
                        reuse,
                        ..job.clone()
                    },
                );
                assert_eq!(
                    r.outcome,
                    HostOutcome::Failed {
                        kind: HostErrorKind::DeadlineExceeded
                    },
                    "fault={fault:?} reuse={reuse}"
                );
                assert!(!r.reachable);
                assert!(r.failures > 0);
            }
        }
    }
}
