//! Canned simulation scenarios: the controlled validation rig of §IV-A,
//! the load-balanced and striped paths of §III-C/§IV-C, and the
//! 50-host Internet-like population of §IV-B.
//!
//! Striped paths draw their cross-traffic backlog from the stationary
//! M/G/1 workload distribution ([`CrossTrafficModel::Stationary`]).
//! The per-arrival replay stays in `reorder-netsim` only as the test
//! oracle that sampler is checked against.

use crate::probe::Prober;
use rand::rngs::SmallRng;
use rand::Rng;
use reorder_netsim::pipes::DummynetConfig;
pub use reorder_netsim::pipes::FaultClass;
use reorder_netsim::pipes::{
    ArqConfig, BalanceMode, CrossTraffic, CrossTrafficModel, DelayJitter, DummynetReorder,
    FaultGate, LoadBalancer, MultipathRoute, RandomLoss, SplitMode, StripingLink, WirelessArq,
    DOWN, UP,
};
use reorder_netsim::{rng as simrng, LinkParams, Mailbox, Port, Simulator, Trace, TraceHandle};
use reorder_tcpstack::{HostPersonality, TcpHost, TcpHostConfig};
use reorder_wire::Ipv4Addr4;
use std::time::Duration;

/// Inert compatibility shim for the retired campaign-format switch
/// (format v1 ran the per-arrival cross-traffic replay).
///
/// Campaigns have one cross-traffic model,
/// [`CrossTrafficModel::Stationary`]. This type and the `sim_version`
/// fields holding it remain only because the out-of-workspace
/// benchmark driver still names them; nothing in the workspace reads
/// them, and they go with the next benchmark change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimVersion;

impl SimVersion {
    /// The one cross-traffic model campaigns run:
    /// [`CrossTrafficModel::Stationary`].
    pub fn cross_traffic_model(self) -> CrossTrafficModel {
        CrossTrafficModel::Stationary
    }
}

/// Probe host address used by every scenario.
pub const PROBE_ADDR: Ipv4Addr4 = Ipv4Addr4::new(10, 0, 0, 1);
/// Target (virtual) address used by single-target scenarios.
pub const TARGET_ADDR: Ipv4Addr4 = Ipv4Addr4::new(198, 18, 0, 2);

/// A built scenario: the prober plus the capture taps needed for
/// ground-truth validation (§IV-A).
pub struct Scenario {
    /// The probing agent (owns the simulator).
    pub prober: Prober,
    /// Target address to measure.
    pub target: Ipv4Addr4,
    /// Deliveries to each server/backend node (arrival-order truth).
    pub server_rx: Vec<TraceHandle>,
    /// Transmissions by each server/backend node (send-order truth).
    pub server_tx: Vec<TraceHandle>,
    /// Deliveries to the probe host.
    pub prober_rx: TraceHandle,
}

impl Scenario {
    /// Merge the per-backend server receive traces into one
    /// time-ordered trace.
    pub fn merged_server_rx(&self) -> Trace {
        merge_traces(&self.server_rx)
    }

    /// Merge the per-backend server transmit traces.
    pub fn merged_server_tx(&self) -> Trace {
        merge_traces(&self.server_tx)
    }

    /// Snapshot the prober receive trace.
    pub fn prober_trace(&self) -> Trace {
        Trace::snapshot(&self.prober_rx)
    }
}

/// Merge several live traces into one, ordered by time. Each input
/// trace is already time-ordered (the capture taps append in event
/// order), so this is a reserve-sized k-way merge rather than a
/// flatten-and-sort. Ties break stably: earlier handles in the slice
/// win, and within one handle the capture order is preserved.
pub(crate) fn merge_traces(handles: &[TraceHandle]) -> Trace {
    let borrowed: Vec<_> = handles.iter().map(|h| h.borrow()).collect();
    let total: usize = borrowed.iter().map(|t| t.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut cursor = vec![0usize; borrowed.len()];
    for _ in 0..total {
        // k is tiny (one entry per backend), so a linear min scan beats
        // a heap here.
        let mut best: Option<usize> = None;
        for (k, t) in borrowed.iter().enumerate() {
            if cursor[k] < t.len()
                && best.is_none_or(|b| t[cursor[k]].time < borrowed[b][cursor[b]].time)
            {
                best = Some(k);
            }
        }
        let k = best.expect("total bounds the loop");
        out.push(borrowed[k][cursor[k]].clone());
        cursor[k] += 1;
    }
    Trace(out)
}

fn fast_lan() -> LinkParams {
    LinkParams {
        bits_per_sec: 1_000_000_000,
        propagation: Duration::from_micros(50),
        queue_limit: None,
    }
}

fn wan(ms: u64) -> LinkParams {
    LinkParams {
        bits_per_sec: 100_000_000,
        propagation: Duration::from_millis(ms),
        queue_limit: None,
    }
}

/// The §IV-A controlled rig: probe — modified dummynet — server, with
/// independent forward/reverse adjacent-swap probabilities, default
/// (FreeBSD) personality.
pub fn validation_rig(fwd_swap: f64, rev_swap: f64, seed: u64) -> Scenario {
    validation_rig_with(fwd_swap, rev_swap, HostPersonality::freebsd4(), seed)
}

/// [`validation_rig`] with an explicit host personality.
pub fn validation_rig_with(
    fwd_swap: f64,
    rev_swap: f64,
    personality: HostPersonality,
    seed: u64,
) -> Scenario {
    let mut sim = Simulator::new(seed);
    let (mb, queue) = Mailbox::new();
    let me = sim.add_node(Box::new(mb));
    let pipe = sim.add_node(Box::new(DummynetReorder::new(
        DummynetConfig {
            fwd_swap,
            rev_swap,
            max_hold: Duration::from_millis(50),
        },
        seed,
        "dummynet",
    )));
    let host = TcpHost::new(
        TcpHostConfig::web_server(TARGET_ADDR, personality),
        sim.master_seed(),
    );
    let srv = sim.add_node(Box::new(host));
    // "a machine in close proximity ... was chosen as the remote host to
    // keep the amount of real reordering at a minimum."
    sim.connect(me, Port(0), pipe, UP, fast_lan());
    sim.connect(pipe, DOWN, srv, Port(0), fast_lan());
    let server_rx = sim.tap_rx(srv);
    let server_tx = sim.tap_tx(srv);
    let prober_rx = sim.tap_rx(me);
    Scenario {
        prober: Prober::new(sim, me, queue, PROBE_ADDR),
        target: TARGET_ADDR,
        server_rx: vec![server_rx],
        server_tx: vec![server_tx],
        prober_rx,
    }
}

/// A validation rig with random loss instead of reordering.
pub fn lossy_rig(fwd_loss: f64, rev_loss: f64, seed: u64) -> Scenario {
    let mut sim = Simulator::new(seed);
    let (mb, queue) = Mailbox::new();
    let me = sim.add_node(Box::new(mb));
    let pipe = sim.add_node(Box::new(RandomLoss::new(fwd_loss, rev_loss, seed, "loss")));
    let host = TcpHost::new(
        TcpHostConfig::web_server(TARGET_ADDR, HostPersonality::freebsd4()),
        sim.master_seed(),
    );
    let srv = sim.add_node(Box::new(host));
    sim.connect(me, Port(0), pipe, UP, fast_lan());
    sim.connect(pipe, DOWN, srv, Port(0), fast_lan());
    let server_rx = sim.tap_rx(srv);
    let server_tx = sim.tap_tx(srv);
    let prober_rx = sim.tap_rx(me);
    Scenario {
        prober: Prober::new(sim, me, queue, PROBE_ADDR),
        target: TARGET_ADDR,
        server_rx: vec![server_rx],
        server_tx: vec![server_tx],
        prober_rx,
    }
}

/// A load-balanced site (Fig. 3): probe — dummynet — per-flow balancer —
/// `backends` hosts sharing the virtual address but each with its own
/// IPID space. This is the configuration that silently corrupts the
/// Dual Connection Test and motivates the SYN Test.
pub fn load_balanced(
    fwd_swap: f64,
    rev_swap: f64,
    backends: usize,
    personality: HostPersonality,
    seed: u64,
) -> Scenario {
    let mut sim = Simulator::new(seed);
    let (mb, queue) = Mailbox::new();
    let me = sim.add_node(Box::new(mb));
    let pipe = sim.add_node(Box::new(DummynetReorder::new(
        DummynetConfig {
            fwd_swap,
            rev_swap,
            max_hold: Duration::from_millis(50),
        },
        seed,
        "dummynet",
    )));
    let lb = sim.add_node(Box::new(LoadBalancer::new(BalanceMode::PerFlow, backends)));
    sim.connect(me, Port(0), pipe, UP, wan(10));
    sim.connect(pipe, DOWN, lb, Port(0), fast_lan());
    let mut server_rx = Vec::new();
    let mut server_tx = Vec::new();
    for b in 0..backends {
        // Each backend is a distinct host instance (own IPID space),
        // configured with the shared virtual address.
        let mut host_cfg = TcpHostConfig::web_server(TARGET_ADDR, personality.clone());
        host_cfg.background_load = 0.5;
        let host = TcpHost::new(host_cfg, simrng::derive_seed(seed, &format!("backend{b}")));
        let node = sim.add_node(Box::new(host));
        sim.connect(lb, Port(1 + b), node, Port(0), fast_lan());
        server_rx.push(sim.tap_rx(node));
        server_tx.push(sim.tap_tx(node));
    }
    let prober_rx = sim.tap_rx(me);
    Scenario {
        prober: Prober::new(sim, me, queue, PROBE_ADDR),
        target: TARGET_ADDR,
        server_rx,
        server_tx,
        prober_rx,
    }
}

/// The §IV-C physical-reordering path: probe — N-way striped link with
/// Poisson cross-traffic — server. Reordering probability decays with
/// the inter-packet gap; use with [`crate::metrics::GapProfile`].
pub fn striped_path(cross: CrossTraffic, seed: u64) -> Scenario {
    striped_path_with(2, 1_000_000_000, cross, HostPersonality::freebsd4(), seed)
}

/// [`striped_path`] with explicit stripe width, per-link rate and
/// personality.
pub fn striped_path_with(
    links: usize,
    bits_per_sec: u64,
    cross: CrossTraffic,
    personality: HostPersonality,
    seed: u64,
) -> Scenario {
    let mut sim = Simulator::new(seed);
    let (mb, queue) = Mailbox::new();
    let me = sim.add_node(Box::new(mb));
    let stripe = sim.add_node(Box::new(StripingLink::new(
        links,
        bits_per_sec,
        Some(cross),
        CrossTrafficModel::Stationary,
        seed,
        "stripe",
    )));
    let host = TcpHost::new(
        TcpHostConfig::web_server(TARGET_ADDR, personality),
        sim.master_seed(),
    );
    let srv = sim.add_node(Box::new(host));
    sim.connect(me, Port(0), stripe, UP, fast_lan());
    sim.connect(stripe, DOWN, srv, Port(0), fast_lan());
    let server_rx = sim.tap_rx(srv);
    let server_tx = sim.tap_tx(srv);
    let prober_rx = sim.tap_rx(me);
    Scenario {
        prober: Prober::new(sim, me, queue, PROBE_ADDR),
        target: TARGET_ADDR,
        server_rx: vec![server_rx],
        server_tx: vec![server_tx],
        prober_rx,
    }
}

/// Generic single-pipe path builder: probe — `pipe` — server. Used by
/// the mechanism-ablation experiments to compare reordering causes
/// under identical measurement procedures.
pub fn pipe_path(pipe: Box<dyn reorder_netsim::Device>, seed: u64) -> Scenario {
    let mut sim = Simulator::new(seed);
    let (mb, queue) = Mailbox::new();
    let me = sim.add_node(Box::new(mb));
    let node = sim.add_node(pipe);
    let host = TcpHost::new(
        TcpHostConfig::web_server(TARGET_ADDR, HostPersonality::freebsd4()),
        sim.master_seed(),
    );
    let srv = sim.add_node(Box::new(host));
    sim.connect(me, Port(0), node, UP, fast_lan());
    sim.connect(node, DOWN, srv, Port(0), fast_lan());
    let server_rx = sim.tap_rx(srv);
    let server_tx = sim.tap_tx(srv);
    let prober_rx = sim.tap_rx(me);
    Scenario {
        prober: Prober::new(sim, me, queue, PROBE_ADDR),
        target: TARGET_ADDR,
        server_rx: vec![server_rx],
        server_tx: vec![server_tx],
        prober_rx,
    }
}

/// A packet-sprayed multipath path (§V cause): two routes whose one-way
/// delays differ by `skew`, with per-packet random assignment (the
/// reordering-prone configuration; per-flow hashing never reorders).
pub fn multipath_path(skew: Duration, seed: u64) -> Scenario {
    pipe_path(
        Box::new(MultipathRoute::with_seed(
            SplitMode::Random,
            vec![
                Duration::from_micros(100),
                Duration::from_micros(100) + skew,
            ],
            seed,
            "multipath",
        )),
        seed,
    )
}

/// A wireless-ARQ path (§V cause): selective-repeat link-layer
/// retransmission that lets later frames overtake a retried one.
pub fn wireless_path(cfg: ArqConfig, seed: u64) -> Scenario {
    pipe_path(Box::new(WirelessArq::new(cfg, seed, "arq")), seed)
}

/// Which reordering mechanism sits in a population host's path. The
/// §IV-B population is dummynet-style adjacent swaps; the campaign
/// engine (`reorder-survey`) draws from all of the §V causes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PathMechanism {
    /// Modified-dummynet adjacent swaps at the spec's
    /// `fwd_reorder`/`rev_reorder` probabilities.
    Dummynet,
    /// An N-way striped link with Poisson cross-traffic (§IV-C).
    Striping {
        /// Number of parallel links.
        links: usize,
        /// Per-link rate in bits per second.
        bits_per_sec: u64,
    },
    /// Packet-sprayed multipath with a one-way delay skew between the
    /// two routes (§V).
    Multipath {
        /// Extra one-way delay of the slower route.
        skew: Duration,
    },
    /// Wireless link-layer ARQ without resequencing (§V).
    WirelessArq {
        /// Per-transmission frame error probability.
        frame_error: f64,
    },
}

impl PathMechanism {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            PathMechanism::Dummynet => "dummynet",
            PathMechanism::Striping { .. } => "striping",
            PathMechanism::Multipath { .. } => "multipath",
            PathMechanism::WirelessArq { .. } => "arq",
        }
    }
}

/// Path characteristics of one simulated Internet host (for the §IV-B
/// population).
#[derive(Debug, Clone)]
pub struct HostSpec {
    /// Display name ("www.example0.com").
    pub name: String,
    /// OS behavior profile.
    pub personality: HostPersonality,
    /// Adjacent-swap probability, probe → host.
    pub fwd_reorder: f64,
    /// Adjacent-swap probability, host → probe.
    pub rev_reorder: f64,
    /// Packet loss probability (each direction).
    pub loss: f64,
    /// One-way propagation delay.
    pub delay: Duration,
    /// Constant per-path extra delay applied by the jitter stage
    /// (min == max, so it never reorders by itself — see
    /// [`internet_host`]).
    pub jitter: Duration,
    /// Number of load-balancer backends (1 = no balancer).
    pub backends: usize,
    /// Served object size in bytes.
    pub object_size: usize,
    /// The reordering mechanism in the path.
    pub mechanism: PathMechanism,
    /// Hostile-host fault injected directly in front of the host
    /// (`None` for the cooperative majority). See
    /// [`reorder_netsim::pipes::FaultGate`].
    pub fault: Option<FaultClass>,
    /// Inert compatibility field (see [`SimVersion`]): never read;
    /// every striping path runs the stationary backlog model.
    pub sim_version: SimVersion,
}

impl HostSpec {
    /// A clean direct path (no loss, no reordering, one backend) — the
    /// base most tests and generators start from.
    pub fn clean(name: &str, personality: HostPersonality) -> Self {
        HostSpec {
            name: name.to_string(),
            personality,
            fwd_reorder: 0.0,
            rev_reorder: 0.0,
            loss: 0.0,
            delay: Duration::from_millis(10),
            jitter: Duration::from_micros(150),
            backends: 1,
            object_size: 12 * 1024,
            mechanism: PathMechanism::Dummynet,
            fault: None,
            sim_version: SimVersion,
        }
    }
}

/// Generate the measurement population of §IV-B: `popular` well-known
/// sites (several behind load balancers, mixed OSes) plus `random`
/// hosts drawn from the personality/path distribution. Deterministic in
/// `seed`.
pub fn population(popular: usize, random: usize, seed: u64) -> Vec<HostSpec> {
    let mut rng: SmallRng = simrng::stream(seed, "population");
    let presets = HostPersonality::all_presets();
    // Personality mix weighted like the 2002 server population the
    // paper observed: mostly traditional global-IPID stacks, a sizable
    // Linux 2.4 contingent ("a constant IPID value of 0 from ... 9
    // hosts"), and a few random-IPID or hardened boxes.
    let weighted = |rng: &mut SmallRng| -> HostPersonality {
        let x: f64 = rng.gen();
        if x < 0.34 {
            HostPersonality::freebsd4()
        } else if x < 0.52 {
            HostPersonality::linux22()
        } else if x < 0.70 {
            HostPersonality::linux24()
        } else if x < 0.82 {
            HostPersonality::windows2000()
        } else if x < 0.94 {
            HostPersonality::solaris8()
        } else if x < 0.98 {
            HostPersonality::openbsd3()
        } else {
            HostPersonality::hardened()
        }
    };
    let mut specs = Vec::new();
    for i in 0..popular {
        let personality = presets[i % presets.len()].clone();
        // Popular sites: low loss, often load balanced, and ~40% of
        // paths see some reordering (matching the Fig. 5 headline).
        let reorders = rng.gen_bool(0.5);
        specs.push(HostSpec {
            name: format!("www.popular{i}.com"),
            personality,
            fwd_reorder: if reorders {
                rng.gen_range(0.005..0.15)
            } else {
                0.0
            },
            rev_reorder: if reorders && rng.gen_bool(0.5) {
                rng.gen_range(0.002..0.05)
            } else {
                0.0
            },
            loss: rng.gen_range(0.0..0.01),
            delay: Duration::from_millis(rng.gen_range(5..60)),
            jitter: Duration::from_micros(150),
            backends: if rng.gen_bool(0.4) { 4 } else { 1 },
            object_size: 16 * 1024,
            mechanism: PathMechanism::Dummynet,
            fault: None,
            sim_version: SimVersion,
        });
    }
    for i in 0..random {
        let personality = weighted(&mut rng);
        let reorders = rng.gen_bool(0.4);
        specs.push(HostSpec {
            name: format!("host{i}.random.example"),
            personality,
            fwd_reorder: if reorders {
                rng.gen_range(0.002..0.25)
            } else {
                0.0
            },
            rev_reorder: if reorders && rng.gen_bool(0.4) {
                rng.gen_range(0.001..0.08)
            } else {
                0.0
            },
            loss: rng.gen_range(0.0..0.02),
            delay: Duration::from_millis(rng.gen_range(5..120)),
            jitter: Duration::from_micros(150),
            backends: if rng.gen_bool(0.1) { 2 } else { 1 },
            object_size: if rng.gen_bool(0.15) {
                256 // redirect-sized: defeats the transfer test (§III-E)
            } else {
                12 * 1024
            },
            mechanism: PathMechanism::Dummynet,
            fault: None,
            sim_version: SimVersion,
        });
    }
    specs
}

/// A pool of recycled simulators for building successive scenarios
/// without rebuilding the world's allocations from scratch.
///
/// One finished scenario's [`Simulator`] — its event-queue buckets,
/// node/link/tap tables and scratch space — is handed back via
/// [`ScenarioPool::recycle`] and reset for the next build. A pooled
/// build is observationally identical to a fresh one
/// ([`Simulator::reset`]'s contract; the survey's pooled-vs-fresh
/// determinism tests assert byte-identical campaign output), it just
/// skips the allocator. Campaign workers keep one pool each.
///
/// Pooled builds are *headless*: the ground-truth capture taps that
/// [`internet_host`] installs for validation work are skipped, since
/// the measurement pipeline never reads them — the taps' per-packet
/// record clones are pure overhead at campaign scale. The returned
/// [`Scenario`]'s trace handles are empty stand-ins.
pub struct ScenarioPool {
    sim: Option<Simulator>,
    enabled: bool,
    events: u64,
    stage_passes: u64,
    recycled: u64,
    fresh: u64,
}

impl ScenarioPool {
    /// A pool that recycles simulators (the fast path).
    pub fn new() -> Self {
        ScenarioPool {
            sim: None,
            enabled: true,
            events: 0,
            stage_passes: 0,
            recycled: 0,
            fresh: 0,
        }
    }

    /// A pool that never recycles: every checkout constructs a fresh
    /// [`Simulator`]. Campaigns always recycle; this is the
    /// fresh-construction reference that the pooled-vs-fresh
    /// determinism tests compare them against.
    pub fn disabled() -> Self {
        ScenarioPool {
            enabled: false,
            ..ScenarioPool::new()
        }
    }

    /// Whether recycling is on.
    #[cfg(test)]
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Simulator events absorbed from recycled scenarios so far — the
    /// numerator of the perf harness's events/sec.
    pub fn events_absorbed(&self) -> u64 {
        self.events
    }

    /// How many builds were served from a recycled simulator (the
    /// telemetry layer's pool *hits*).
    pub fn recycled(&self) -> u64 {
        self.recycled
    }

    /// How many builds constructed a fresh [`Simulator`] (pool
    /// *misses*: the first build of every worker, plus every build of
    /// a [`ScenarioPool::disabled`] pool).
    pub fn fresh_builds(&self) -> u64 {
        self.fresh
    }

    /// Cut-through stage passes absorbed from recycled scenarios so far
    /// ([`Simulator::stage_passes`]): the stage hops that the simulator
    /// applied without dispatching an event, banked next to the event
    /// count so the two together account for every hop.
    pub fn stage_passes_absorbed(&self) -> u64 {
        self.stage_passes
    }

    fn checkout(&mut self, seed: u64) -> Simulator {
        match self.sim.take() {
            Some(mut sim) if self.enabled => {
                sim.reset(seed);
                self.recycled += 1;
                sim
            }
            _ => {
                self.fresh += 1;
                Simulator::new(seed)
            }
        }
    }

    /// Absorb a finished scenario: bank its event count and (when
    /// enabled) keep its simulator for the next build. Call after the
    /// scenario's last traffic (sessions closed) so teardown events are
    /// counted.
    pub fn recycle(&mut self, scenario: Scenario) {
        let sim = scenario.prober.into_sim();
        self.events += sim.events_processed();
        self.stage_passes += sim.stage_passes();
        if self.enabled {
            self.sim = Some(sim);
        }
    }

    /// Headless pooled build of [`internet_host`] (see the type docs).
    pub fn internet_host(&mut self, spec: &HostSpec, seed: u64) -> Scenario {
        let sim = self.checkout(seed);
        build_internet_host(sim, spec, false)
    }
}

impl Default for ScenarioPool {
    fn default() -> Self {
        ScenarioPool::new()
    }
}

/// Build the path to one population host: probe — loss — jitter —
/// reordering mechanism — (balancer) — host(s). The mechanism stage is
/// chosen by [`HostSpec::mechanism`]; the §IV-B population uses
/// dummynet swaps, the campaign engine also draws striping, multipath
/// and wireless-ARQ paths.
pub fn internet_host(spec: &HostSpec, seed: u64) -> Scenario {
    build_internet_host(Simulator::new(seed), spec, true)
}

/// Shared body of [`internet_host`]: wire the path onto `sim` (fresh or
/// reset — indistinguishable by contract). `taps` installs the
/// ground-truth capture taps; headless pooled builds skip them.
fn build_internet_host(mut sim: Simulator, spec: &HostSpec, taps: bool) -> Scenario {
    let seed = sim.master_seed();
    let (mb, queue) = Mailbox::new();
    let me = sim.add_node(Box::new(mb));
    let loss = sim.add_node(Box::new(RandomLoss::new(
        spec.loss, spec.loss, seed, "loss",
    )));
    // Constant per-path extra delay (min == max preserves order). Any
    // i.i.d. jitter wider than the probe spacing would itself reorder
    // ~half of all back-to-back pairs — that's the §IV-C sensitivity —
    // so the population paths keep the mechanism stage as the sole
    // reordering source and their configured rates meaningful.
    let jitter = sim.add_node(Box::new(DelayJitter::new(
        spec.jitter,
        spec.jitter,
        seed,
        "jitter",
    )));
    let mech: Box<dyn reorder_netsim::Device> = match spec.mechanism {
        PathMechanism::Dummynet => Box::new(DummynetReorder::new(
            DummynetConfig {
                fwd_swap: spec.fwd_reorder,
                rev_swap: spec.rev_reorder,
                max_hold: Duration::from_millis(50),
            },
            seed,
            "dummynet",
        )),
        PathMechanism::Striping {
            links,
            bits_per_sec,
        } => Box::new(StripingLink::new(
            links,
            bits_per_sec,
            Some(CrossTraffic::backbone()),
            CrossTrafficModel::Stationary,
            seed,
            "stripe",
        )),
        PathMechanism::Multipath { skew } => Box::new(MultipathRoute::with_seed(
            SplitMode::Random,
            vec![
                Duration::from_micros(100),
                Duration::from_micros(100) + skew,
            ],
            seed,
            "multipath",
        )),
        PathMechanism::WirelessArq { frame_error } => Box::new(WirelessArq::new(
            ArqConfig {
                frame_error,
                ..ArqConfig::default()
            },
            seed,
            "arq",
        )),
    };
    let dummy = sim.add_node(mech);
    // A hostile host's fault gate sits directly in front of the prober
    // (between mailbox and loss stage) so it sees every packet first.
    // Fault-free specs keep the exact historical wiring — same node
    // ids, link order and seeds — so 0-chaos populations stay
    // byte-identical.
    match spec.fault {
        Some(fault) => {
            let gate = sim.add_node(Box::new(FaultGate::new(fault, seed, "fault")));
            sim.connect(me, Port(0), gate, UP, fast_lan());
            sim.connect(gate, DOWN, loss, UP, fast_lan());
        }
        None => sim.connect(me, Port(0), loss, UP, fast_lan()),
    }
    sim.connect(loss, DOWN, jitter, UP, wan(spec.delay.as_millis() as u64));
    sim.connect(jitter, DOWN, dummy, UP, fast_lan());

    // Headless builds skip the capture taps (nothing reads them on the
    // campaign path); the handles stay valid, just unattached.
    let unattached = || TraceHandle::new(std::cell::RefCell::new(Vec::new()));
    let mut server_rx = Vec::new();
    let mut server_tx = Vec::new();
    if spec.backends > 1 {
        let lb = sim.add_node(Box::new(LoadBalancer::new(
            BalanceMode::PerFlow,
            spec.backends,
        )));
        sim.connect(dummy, DOWN, lb, Port(0), fast_lan());
        for b in 0..spec.backends {
            let mut cfg = TcpHostConfig::web_server(TARGET_ADDR, spec.personality.clone());
            cfg.object_size = spec.object_size;
            cfg.background_load = 0.5;
            let host = TcpHost::new(cfg, simrng::derive_seed(seed, &format!("backend{b}")));
            let node = sim.add_node(Box::new(host));
            sim.connect(lb, Port(1 + b), node, Port(0), fast_lan());
            if taps {
                server_rx.push(sim.tap_rx(node));
                server_tx.push(sim.tap_tx(node));
            } else {
                server_rx.push(unattached());
                server_tx.push(unattached());
            }
        }
    } else {
        let mut cfg = TcpHostConfig::web_server(TARGET_ADDR, spec.personality.clone());
        cfg.object_size = spec.object_size;
        cfg.background_load = 0.1;
        let host = TcpHost::new(cfg, sim.master_seed());
        let node = sim.add_node(Box::new(host));
        sim.connect(dummy, DOWN, node, Port(0), fast_lan());
        if taps {
            server_rx.push(sim.tap_rx(node));
            server_tx.push(sim.tap_tx(node));
        } else {
            server_rx.push(unattached());
            server_tx.push(unattached());
        }
    }
    let prober_rx = if taps { sim.tap_rx(me) } else { unattached() };
    Scenario {
        prober: Prober::new(sim, me, queue, PROBE_ADDR),
        target: TARGET_ADDR,
        server_rx,
        server_tx,
        prober_rx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_deterministic_and_sized() {
        let a = population(15, 35, 9);
        let b = population(15, 35, 9);
        assert_eq!(a.len(), 50);
        assert_eq!(
            a.iter().map(|s| s.name.clone()).collect::<Vec<_>>(),
            b.iter().map(|s| s.name.clone()).collect::<Vec<_>>()
        );
        assert_eq!(a[3].fwd_reorder, b[3].fwd_reorder);
        // Some hosts reorder, some don't; some are balanced.
        assert!(a.iter().any(|s| s.fwd_reorder > 0.0));
        assert!(a.iter().any(|s| s.fwd_reorder == 0.0));
        assert!(a.iter().any(|s| s.backends > 1));
        assert!(a.iter().any(|s| s.backends == 1));
    }

    #[test]
    fn validation_rig_handshake_works() {
        let mut sc = validation_rig(0.05, 0.05, 77);
        let conn = sc
            .prober
            .handshake(sc.target, 80, 1460, 65535, Duration::from_secs(1))
            .expect("handshake through dummynet");
        assert_eq!(conn.flow.dst, TARGET_ADDR);
    }

    #[test]
    fn load_balanced_pins_flows() {
        let mut sc = load_balanced(0.0, 0.0, 4, HostPersonality::freebsd4(), 5);
        // Several handshakes; each succeeds even though backends differ.
        for _ in 0..5 {
            sc.prober
                .handshake(sc.target, 80, 1460, 65535, Duration::from_secs(1))
                .expect("handshake through balancer");
        }
        // Traffic reached at least two different backends across flows.
        let hit = sc
            .server_rx
            .iter()
            .filter(|t| !t.borrow().is_empty())
            .count();
        assert!(hit >= 2, "expected spread over backends, got {hit}");
    }

    #[test]
    fn merge_traces_breaks_ties_stably() {
        use reorder_netsim::{Dir, NodeId, SimTime, TraceRecord};
        use std::cell::RefCell;
        use std::rc::Rc;

        // Distinguish records by IPID; handle A gets even IDs, B odd.
        let rec = |t: u64, ipid: u16| TraceRecord {
            time: SimTime::from_micros(t),
            node: NodeId(0),
            port: Port(0),
            dir: Dir::Rx,
            pkt: reorder_wire::PacketBuilder::tcp()
                .src(Ipv4Addr4::new(1, 1, 1, 1), 1)
                .dst(Ipv4Addr4::new(2, 2, 2, 2), 2)
                .ipid(ipid)
                .build(),
        };
        let a: TraceHandle = Rc::new(RefCell::new(vec![rec(10, 0), rec(20, 2), rec(20, 4)]));
        let b: TraceHandle = Rc::new(RefCell::new(vec![rec(10, 1), rec(20, 3), rec(30, 5)]));
        let merged = merge_traces(&[a, b]);
        let ids: Vec<u16> = merged.0.iter().map(|r| r.pkt.ip.ident.raw()).collect();
        // Time-ordered; at equal times every record of the earlier
        // handle precedes the later handle's, preserving capture order.
        assert!(merged.0.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(ids, vec![0, 1, 2, 4, 3, 5]);
    }

    #[test]
    fn merge_traces_empty_inputs() {
        assert!(merge_traces(&[]).is_empty());
        let empty: TraceHandle = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        assert!(merge_traces(&[empty]).is_empty());
    }

    #[test]
    fn pooled_build_equals_fresh_build() {
        // The pooling contract at the scenario level: measuring through
        // a recycled simulator produces the same wire conversation as a
        // fresh one, for every mechanism the campaign draws.
        fn handshake_fingerprint(sc: &mut Scenario) -> (u32, u32, u16) {
            let conn = sc
                .prober
                .handshake(sc.target, 80, 1460, 65535, Duration::from_secs(1))
                .expect("handshake");
            (conn.irs.raw(), conn.rcv_nxt.raw(), conn.server_mss)
        }
        let mut pool = ScenarioPool::new();
        for (i, mech) in [
            PathMechanism::Dummynet,
            PathMechanism::Striping {
                links: 2,
                bits_per_sec: 1_000_000_000,
            },
            PathMechanism::Multipath {
                skew: Duration::from_micros(80),
            },
            PathMechanism::WirelessArq { frame_error: 0.1 },
        ]
        .into_iter()
        .enumerate()
        {
            let spec = HostSpec {
                fwd_reorder: 0.1,
                backends: if i == 0 { 3 } else { 1 },
                mechanism: mech,
                ..HostSpec::clean("pool", HostPersonality::freebsd4())
            };
            let seed = 4000 + i as u64;
            let mut fresh = internet_host(&spec, seed);
            let want = handshake_fingerprint(&mut fresh);
            let fresh_events = fresh.prober.sim.events_processed();

            let mut pooled = pool.internet_host(&spec, seed);
            assert_eq!(handshake_fingerprint(&mut pooled), want, "{}", mech.label());
            assert_eq!(pooled.prober.sim.events_processed(), fresh_events);
            pool.recycle(pooled);
        }
        assert_eq!(pool.recycled(), 3, "first build had nothing to recycle");
        assert!(pool.events_absorbed() > 0);
    }

    #[test]
    fn disabled_pool_never_recycles() {
        let mut pool = ScenarioPool::disabled();
        let spec = HostSpec::clean("fresh", HostPersonality::freebsd4());
        let sc = pool.internet_host(&spec, 1);
        pool.recycle(sc);
        let _sc = pool.internet_host(&spec, 2);
        assert_eq!(pool.recycled(), 0);
        assert!(!pool.is_enabled());
    }

    #[test]
    fn mechanism_paths_measurable() {
        // Every PathMechanism variant produces a path a measurement can
        // complete on.
        let mechanisms = [
            PathMechanism::Dummynet,
            PathMechanism::Striping {
                links: 2,
                bits_per_sec: 1_000_000_000,
            },
            PathMechanism::Multipath {
                skew: Duration::from_micros(80),
            },
            PathMechanism::WirelessArq { frame_error: 0.1 },
        ];
        for (i, mech) in mechanisms.into_iter().enumerate() {
            let spec = HostSpec {
                fwd_reorder: 0.1,
                mechanism: mech,
                ..HostSpec::clean("mech", HostPersonality::freebsd4())
            };
            let mut sc = internet_host(&spec, 900 + i as u64);
            sc.prober
                .handshake(sc.target, 80, 1460, 65535, Duration::from_secs(1))
                .unwrap_or_else(|e| panic!("handshake via {}: {e}", mech.label()));
        }
    }

    #[test]
    fn merged_traces_are_time_ordered() {
        let mut sc = load_balanced(0.0, 0.0, 3, HostPersonality::freebsd4(), 6);
        for _ in 0..4 {
            let _ = sc
                .prober
                .handshake(sc.target, 80, 1460, 65535, Duration::from_secs(1));
        }
        let merged = sc.merged_server_rx();
        assert!(merged.0.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(!merged.is_empty());
    }
}
