//! Per-packet striping across parallel L2 links — the physical source of
//! time-dependent reordering identified in §IV-C.
//!
//! "Many vendors continue to implement such striping on a per-packet
//! basis and consequently, if a newer packet is placed on a link with a
//! longer queue than an older packet, then reordering may occur. Since
//! queues drain at a constant rate, the likelihood that this occurs is
//! related to the inter-arrival time between the two packets."
//!
//! The pipe models N parallel links, each a FIFO queue draining at a
//! fixed rate, with background cross-traffic arriving as a Poisson
//! process of exponentially sized bursts (an M/G/1 workload per queue).
//! Probe packets are assigned round-robin (worst-case per-packet
//! striping), so two back-to-back probes land on different queues and
//! are exchanged whenever the queue-depth imbalance exceeds their
//! inter-arrival gap — reproducing the Fig. 7 decay from first
//! principles.
//!
//! ## Two backlog models
//!
//! How a probe's queue backlog is produced is selected by
//! [`CrossTrafficModel`] (see [`super::stationary`] for the theory):
//!
//! * **`Replay` (the test oracle)** — [`Self::lazy_update`] replays every
//!   Poisson burst since the queue's last update, an exact workload
//!   recursion `V(t) = max(V(s) − (t−s), 0) + arrivals`. Burst
//!   correlation across arrivals is preserved exactly, at ~2λ·window
//!   RNG draws per update (~2,700 per capped 100 ms window at backbone
//!   rates). It is the exact reference the stationary sampler is
//!   tested against; no campaign runs it.
//! * **`Stationary` (default, what every scenario runs)** — one
//!   inverse-transform draw from the stationary Pollaczek–Khinchine
//!   workload per arrival: an atom `P(V=0) = 1−ρ` plus an exponential
//!   tail. O(1) per arrival, independent across arrivals.
//!
//! The models share the stability contract ([`CrossTraffic`]
//! utilization < 0.95, asserted in [`StripingLink::new`]) and the same
//! stationary backlog law — the tests below bound the KS distance
//! between the replay's empirical backlog distribution and the
//! stationary sampler's, and between the two models' pair-reorder
//! decay curves. Their RNG streams differ, so the two models never
//! produce the same bytes; campaigns run `Stationary` only.

use super::other;
use super::stationary::{CrossTrafficModel, StationarySampler};
use super::token::TokenStore;
use crate::engine::{Ctx, Device, Port};
use crate::rng;
use crate::time::{serialization_delay, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;
use reorder_wire::Packet;
use std::time::Duration;

/// Background cross-traffic injected into each striped queue.
#[derive(Debug, Clone, Copy)]
pub struct CrossTraffic {
    /// Poisson arrival rate of bursts, per queue, in bursts/second.
    pub bursts_per_sec: f64,
    /// Mean burst size in bytes (exponentially distributed).
    pub mean_burst_bytes: f64,
}

impl CrossTraffic {
    /// A moderately loaded backbone: enough imbalance that back-to-back
    /// minimum-size packets reorder ~10% of the time on a 2-way stripe at
    /// 1 Gbit/s (tuned for the Fig. 7 reproduction).
    pub fn backbone() -> Self {
        CrossTraffic {
            bursts_per_sec: 9_000.0,
            mean_burst_bytes: 2_000.0,
        }
    }

    /// Offered load per queue as a fraction of `bits_per_sec`.
    pub(crate) fn utilization(&self, bits_per_sec: u64) -> f64 {
        self.bursts_per_sec * self.mean_burst_bytes * 8.0 / bits_per_sec as f64
    }
}

struct DirState {
    /// Per-queue time at which the queue drains empty.
    busy_until: Vec<SimTime>,
    /// Last lazy-update instant per queue.
    updated_at: Vec<SimTime>,
    /// Round-robin assignment counter for probe packets.
    rr: usize,
    rng: SmallRng,
    /// Reused arrival-offset scratch for the workload replay (the
    /// window is ≤ 100 ms < 2³² ns, so offsets fit in `u32`).
    scratch: Vec<u32>,
    /// Radix-sort double buffer.
    scratch_aux: Vec<u32>,
}

/// Byte-wise LSD radix sort for the arrival offsets — ~4x faster than
/// the comparison sort at the replay's typical batch sizes (hundreds),
/// and the only piece of the replay that isn't forced by the RNG
/// stream. Falls back to `sort_unstable` for small batches.
fn radix_sort_u32(v: &mut [u32], aux: &mut Vec<u32>) {
    if v.len() < 64 {
        v.sort_unstable();
        return;
    }
    aux.clear();
    aux.resize(v.len(), 0);
    let mut in_v = true;
    for shift in [0u32, 8, 16, 24] {
        let (src, dst): (&[u32], &mut [u32]) = if in_v { (v, aux) } else { (aux, v) };
        let mut counts = [0u32; 256];
        for &x in src {
            counts[((x >> shift) & 0xff) as usize] += 1;
        }
        let mut sum = 0u32;
        for c in counts.iter_mut() {
            let t = *c;
            *c = sum;
            sum += t;
        }
        for &x in src {
            let b = ((x >> shift) & 0xff) as usize;
            dst[counts[b] as usize] = x;
            counts[b] += 1;
        }
        in_v = !in_v;
    }
    // Four passes: the sorted result ends back in `v`.
}

/// N-way per-packet striping pipe with Poisson cross-traffic.
pub struct StripingLink {
    n: usize,
    bits_per_sec: u64,
    /// Exact ns-per-byte multiplier (see `link::exact_ns_per_byte`),
    /// used on the per-arrival replay path.
    ns_per_byte: Option<u64>,
    cross: Option<CrossTraffic>,
    /// The O(1) stationary sampler; `Some` iff cross traffic is on and
    /// the model is [`CrossTrafficModel::Stationary`].
    sampler: Option<StationarySampler>,
    /// Cross-traffic arrivals older than this are ignored during lazy
    /// updates (the stationary backlog is orders of magnitude shorter).
    max_window: Duration,
    dirs: [DirState; 2],
    pending: TokenStore<(Port, Packet)>,
    /// Observability: probes that found a nonzero queue.
    pub queued_probes: u64,
}

impl StripingLink {
    /// Build an `n`-way stripe of `bits_per_sec` links whose
    /// cross-traffic backlog is produced by `model`.
    pub fn new(
        n: usize,
        bits_per_sec: u64,
        cross: Option<CrossTraffic>,
        model: CrossTrafficModel,
        master_seed: u64,
        label: &str,
    ) -> Self {
        assert!(n >= 1, "need at least one striped link");
        assert!(bits_per_sec > 0);
        if let Some(c) = cross {
            // The stability contract is model-independent: both the
            // replay recursion and the stationary draw describe the
            // same offered load, and neither admits ρ → 1.
            let util = c.utilization(bits_per_sec);
            assert!(
                util < 0.95,
                "cross traffic utilization {util:.2} would make queues unstable"
            );
        }
        let sampler = match (cross, model) {
            (Some(c), CrossTrafficModel::Stationary) => {
                Some(StationarySampler::new(c, bits_per_sec))
            }
            _ => None,
        };
        let mk = |tag: &str| DirState {
            busy_until: vec![SimTime::ZERO; n],
            updated_at: vec![SimTime::ZERO; n],
            rr: 0,
            rng: rng::stream(master_seed, &format!("{label}.{tag}")),
            scratch: Vec::new(),
            scratch_aux: Vec::new(),
        };
        StripingLink {
            n,
            ns_per_byte: crate::link::exact_ns_per_byte(bits_per_sec),
            bits_per_sec,
            cross,
            sampler,
            max_window: Duration::from_millis(100),
            dirs: [mk("fwd"), mk("rev")],
            pending: TokenStore::new(),
            queued_probes: 0,
        }
    }

    /// Largest rate Knuth's method samples exactly: `exp(-lambda)`
    /// must stay a *normal* `f64` (underflow begins at λ ≈ 708.4;
    /// by λ ≈ 744.4 it is exactly 0.0 and the historical loop
    /// terminated when its running product underflowed instead — a
    /// silent bias toward k ≈ 744 whatever the true rate). Backbone
    /// cross traffic reaches λ = 900 on a capped 100 ms window, so the
    /// overload branch below is live, not theoretical.
    const KNUTH_MAX_LAMBDA: f64 = 708.0;

    /// Sample a Poisson count. Knuth's method (exact) for rates up to
    /// [`Self::KNUTH_MAX_LAMBDA`]; beyond that a normal approximation
    /// `k = max(0, round(λ + √λ·z))` — at λ > 708 the relative error
    /// of the Gaussian limit is far below the equivalence tolerances
    /// this module tests, while the historical underflow path was
    /// biased low by ~17% at λ = 900.
    fn poisson(rng: &mut SmallRng, lambda: f64) -> u32 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > Self::KNUTH_MAX_LAMBDA {
            // Box–Muller from two uniforms; u1 strictly positive so
            // ln(u1) is finite.
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen::<f64>();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            return (lambda + lambda.sqrt() * z).round().max(0.0) as u32;
        }
        let l = (-lambda).exp();
        let mut k = 0u32;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                // With λ ≤ KNUTH_MAX_LAMBDA the probability of reaching
                // here is below 2^-1000: loud in debug, and the release
                // fallback can no longer be silently hit by overload.
                debug_assert!(
                    false,
                    "Knuth poisson ran away at lambda {lambda} (bound {})",
                    Self::KNUTH_MAX_LAMBDA
                );
                return k;
            }
        }
    }

    /// Exponential burst size.
    fn exp_bytes(rng: &mut SmallRng, mean: f64) -> f64 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        -u.ln() * mean
    }

    /// Bring queue `q`'s workload up to date by replaying the Poisson
    /// cross-traffic that arrived since the last update (exact M/G/1
    /// workload recursion: V(t) = max(V(s) - (t-s), 0) + arrivals).
    fn lazy_update(&mut self, dir: usize, q: usize, now: SimTime) {
        let Some(cross) = self.cross else {
            return;
        };
        let st = &mut self.dirs[dir];
        let mut since = st.updated_at[q];
        if now.since(since) > self.max_window {
            since = SimTime::from_nanos(now.as_nanos() - self.max_window.as_nanos() as u64);
            // Anything before the window has drained (stationary backlog
            // ≪ window at the utilizations we allow).
            if st.busy_until[q] < since {
                st.busy_until[q] = since;
            }
        }
        let window = now.since(since);
        if window.is_zero() {
            st.updated_at[q] = now;
            return;
        }
        let lambda = cross.bursts_per_sec * window.as_secs_f64();
        let k = Self::poisson(&mut st.rng, lambda);
        if k > 0 {
            // Arrival instants, uniform in the window, processed in
            // order. Each `gen_range` draw is identical to the
            // historical `u64` form (same single `next_u64`, same
            // modulus); sorting `u32` offsets by radix produces the
            // same arrival sequence (equal instants commute in the
            // workload recursion below), and the scratch buffers make
            // the replay allocation-free.
            let window_ns = window.as_nanos().max(1) as u64;
            let mut times = std::mem::take(&mut st.scratch);
            times.clear();
            times.extend((0..k).map(|_| st.rng.gen_range(0..window_ns) as u32));
            radix_sort_u32(&mut times, &mut st.scratch_aux);
            let since_ns = since.as_nanos();
            for &off in &times {
                let at = SimTime::from_nanos(since_ns + u64::from(off));
                let bytes = Self::exp_bytes(&mut st.rng, cross.mean_burst_bytes);
                let work = crate::link::ser_delay_cached(
                    self.ns_per_byte,
                    bytes as usize + 1,
                    self.bits_per_sec,
                );
                st.busy_until[q] = st.busy_until[q].max(at) + work;
            }
            st.scratch = times;
        }
        st.updated_at[q] = now;
    }

    /// Bring queue `q`'s backlog up to the probe's arrival instant
    /// under the configured [`CrossTrafficModel`].
    ///
    /// The stationary path draws the cross-traffic workload `V` seen
    /// by this arrival and *lifts* the queue's busy horizon to
    /// `now + V` when the horizon isn't already later. Probe
    /// serialization left over from earlier arrivals (40-byte probes:
    /// ~0.3 µs against a ~19 µs backlog tail) and not-yet-drained
    /// previous draws keep their effect through the max, so same-queue
    /// FIFO ordering is preserved without double-counting backlog that
    /// the new draw already represents.
    fn advance(&mut self, dir: usize, q: usize, now: SimTime) {
        match self.sampler {
            Some(sampler) => {
                let st = &mut self.dirs[dir];
                let busy = now + Duration::from_nanos(sampler.sample_ns(&mut st.rng));
                if busy > st.busy_until[q] {
                    st.busy_until[q] = busy;
                }
            }
            None => self.lazy_update(dir, q, now),
        }
    }
}

impl Device for StripingLink {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
        let dir = port.0;
        assert!(dir < 2, "striping pipe has two external ports");
        let now = ctx.now();
        // Choose the queue per-packet round-robin, then update its
        // cross-traffic workload to the present.
        let q = {
            let st = &mut self.dirs[dir];
            let q = st.rr % self.n;
            st.rr += 1;
            q
        };
        self.advance(dir, q, now);
        let st = &mut self.dirs[dir];
        let start = st.busy_until[q].max(now);
        if start > now {
            self.queued_probes += 1;
        }
        let depart = start + serialization_delay(pkt.wire_len(), self.bits_per_sec);
        st.busy_until[q] = depart;
        let token = self.pending.insert((other(port), pkt));
        ctx.set_timer(depart.since(now), token);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some((port, pkt)) = self.pending.remove(token) {
            ctx.transmit(port, pkt);
        }
    }

    fn name(&self) -> &str {
        "striping-link"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{probe, rig, send_and_collect};
    use super::*;
    use proptest::prelude::*;

    const MODELS: [CrossTrafficModel; 2] =
        [CrossTrafficModel::Replay, CrossTrafficModel::Stationary];

    #[test]
    fn single_link_no_cross_traffic_is_fifo() {
        for model in MODELS {
            let pipe = StripingLink::new(1, 1_000_000_000, None, model, 1, "s");
            let (mut sim, src, _, _, tap) = rig(Box::new(pipe), 1);
            let order = send_and_collect(&mut sim, src, &tap, 100, Duration::ZERO);
            assert_eq!(order, (0..100).collect::<Vec<u32>>(), "{}", model.label());
        }
    }

    #[test]
    fn idle_multilink_preserves_order() {
        // With no cross traffic all queues are empty, so round-robin
        // assignment cannot reorder equal-size packets.
        for model in MODELS {
            let pipe = StripingLink::new(4, 1_000_000_000, None, model, 1, "s");
            let (mut sim, src, _, _, tap) = rig(Box::new(pipe), 1);
            let order = send_and_collect(&mut sim, src, &tap, 50, Duration::ZERO);
            assert_eq!(order, (0..50).collect::<Vec<u32>>(), "{}", model.label());
        }
    }

    /// Measures reordering probability of a back-to-back pair at a given
    /// gap by running many independent pair trials through one pipe.
    fn pair_reorder_rate(model: CrossTrafficModel, gap: Duration, trials: usize, seed: u64) -> f64 {
        let pipe = StripingLink::new(
            2,
            1_000_000_000,
            Some(CrossTraffic::backbone()),
            model,
            seed,
            "s",
        );
        let (mut sim, src, _, _, tap) = rig(Box::new(pipe), seed);
        let mut reordered = 0;
        for t in 0..trials {
            crate::capture::Trace::reset(&tap);
            sim.transmit_from(src, Port(0), probe((2 * t) as u16));
            sim.run_for(gap);
            sim.transmit_from(src, Port(0), probe((2 * t + 1) as u16));
            sim.run_for(Duration::from_millis(20));
            let order: Vec<u32> = tap
                .borrow()
                .iter()
                .map(|r| r.pkt.tcp().unwrap().seq.raw())
                .collect();
            assert_eq!(order.len(), 2, "striping must not lose packets");
            if order[0] > order[1] {
                reordered += 1;
            }
        }
        reordered as f64 / trials as f64
    }

    #[test]
    fn reordering_decays_with_gap() {
        for model in MODELS {
            let p0 = pair_reorder_rate(model, Duration::ZERO, 400, 11);
            let p50 = pair_reorder_rate(model, Duration::from_micros(50), 400, 12);
            let p250 = pair_reorder_rate(model, Duration::from_micros(250), 400, 13);
            let m = model.label();
            assert!(p0 > 0.02, "{m}: back-to-back pairs should reorder ({p0})");
            assert!(p0 > p50, "{m}: rate must decay with gap ({p0} vs {p50})");
            assert!(
                p50 >= p250,
                "{m}: rate must keep decaying ({p50} vs {p250})"
            );
            assert!(
                p250 < 0.03,
                "{m}: large gaps should rarely reorder ({p250})"
            );
        }
    }

    /// The tentpole's statistical-equivalence contract: swapping the
    /// replay for the stationary draw preserves the §IV-C decay curve.
    /// KS-style distance (the max absolute rate difference over the gap
    /// sweep, matched seeds per gap) stays within the two-sample noise
    /// band at 500 trials/point.
    #[test]
    fn decay_curves_agree_between_models() {
        let trials = 500;
        let mut max_diff = 0.0f64;
        for (i, gap_us) in [0u64, 25, 50, 100, 150, 250].into_iter().enumerate() {
            let gap = Duration::from_micros(gap_us);
            let seed = 900 + i as u64;
            let replay = pair_reorder_rate(CrossTrafficModel::Replay, gap, trials, seed);
            let stationary = pair_reorder_rate(CrossTrafficModel::Stationary, gap, trials, seed);
            max_diff = max_diff.max((replay - stationary).abs());
        }
        // Two-sample binomial noise at n=500 and p~0.1 is ~2.6% at
        // 95%; 0.05 leaves headroom without letting the curves drift.
        assert!(
            max_diff < 0.05,
            "decay curves disagree: max |replay - stationary| = {max_diff}"
        );
    }

    /// Empirical two-sample KS statistic over `u64` samples.
    fn ks_distance(mut a: Vec<u64>, mut b: Vec<u64>) -> f64 {
        assert!(!a.is_empty() && !b.is_empty());
        a.sort_unstable();
        b.sort_unstable();
        let (mut i, mut j, mut d) = (0usize, 0usize, 0.0f64);
        while i < a.len() && j < b.len() {
            let x = a[i].min(b[j]);
            while i < a.len() && a[i] <= x {
                i += 1;
            }
            while j < b.len() && b[j] <= x {
                j += 1;
            }
            let diff = (i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs();
            d = d.max(diff);
        }
        d
    }

    /// Replay a queue's workload recursion at fixed sampling instants
    /// and record the backlog each instant sees (no probe work is
    /// enqueued, so this is the pure cross-traffic workload process).
    fn replay_backlogs(
        cross: CrossTraffic,
        samples: usize,
        spacing: Duration,
        seed: u64,
    ) -> Vec<u64> {
        let mut pipe = StripingLink::new(
            1,
            1_000_000_000,
            Some(cross),
            CrossTrafficModel::Replay,
            seed,
            "ks",
        );
        let burn_in = 64;
        let mut out = Vec::with_capacity(samples);
        let mut now = SimTime::ZERO;
        for i in 0..samples + burn_in {
            now += spacing;
            pipe.lazy_update(0, 0, now);
            if i >= burn_in {
                out.push(pipe.dirs[0].busy_until[0].since(now).as_nanos() as u64);
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The satellite property: across cross-traffic parameters (at
        /// matched utilization, by construction — both models consume
        /// the same [`CrossTraffic`]), the stationary sampler's backlog
        /// distribution matches the replay's empirical one within a KS
        /// bound. Sampling instants are spaced several relaxation times
        /// apart so the replay's samples are near-independent.
        #[test]
        fn stationary_backlog_matches_replay_empirically(
            bursts_k in 3u64..10,
            burst_bytes in 800u64..3200,
            seed in 0u64..1000,
        ) {
            let cross = CrossTraffic {
                bursts_per_sec: bursts_k as f64 * 1000.0,
                mean_burst_bytes: burst_bytes as f64,
            };
            prop_assume!(cross.utilization(1_000_000_000) < 0.9);
            let n = 3000;
            let replay = replay_backlogs(cross, n, Duration::from_micros(400), seed);
            let sampler = StationarySampler::new(cross, 1_000_000_000);
            let mut rng = rng::stream(seed, "ks.stationary");
            let stationary: Vec<u64> = (0..n).map(|_| sampler.sample_ns(&mut rng)).collect();
            let d = ks_distance(replay, stationary);
            // Two-sample KS 99.9% critical value at n=m=3000 is
            // ~0.050; 0.07 adds headroom for the residual sample
            // correlation of the replay path.
            prop_assert!(d < 0.07, "KS distance {d} for {cross:?}");
        }
    }

    #[test]
    fn cross_traffic_utilization_sanity() {
        let c = CrossTraffic::backbone();
        let u = c.utilization(1_000_000_000);
        assert!(u > 0.05 && u < 0.6, "tuned utilization {u} out of band");
        // The stability contract is shared: the stationary sampler's
        // busy probability is the same utilization number the replay's
        // 0.95 constructor assert checks.
        let s = StationarySampler::new(c, 1_000_000_000);
        assert_eq!(s.rho(), u);
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn rejects_overloaded_cross_traffic() {
        StripingLink::new(
            2,
            1_000_000,
            Some(CrossTraffic {
                bursts_per_sec: 1000.0,
                mean_burst_bytes: 10_000.0,
            }),
            CrossTrafficModel::Replay,
            0,
            "s",
        );
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn rejects_overloaded_cross_traffic_stationary() {
        // Same 0.95 stability assert, model-independent.
        StripingLink::new(
            2,
            1_000_000,
            Some(CrossTraffic {
                bursts_per_sec: 1000.0,
                mean_burst_bytes: 10_000.0,
            }),
            CrossTrafficModel::Stationary,
            0,
            "s",
        );
    }

    #[test]
    fn determinism() {
        for model in MODELS {
            let run = |seed| {
                let pipe = StripingLink::new(
                    2,
                    1_000_000_000,
                    Some(CrossTraffic::backbone()),
                    model,
                    seed,
                    "s",
                );
                let (mut sim, src, _, _, tap) = rig(Box::new(pipe), seed);
                send_and_collect(&mut sim, src, &tap, 64, Duration::from_micros(5))
            };
            assert_eq!(run(21), run(21), "{}", model.label());
        }
    }

    #[test]
    fn poisson_small_rates_are_knuth_exact_and_unbiased() {
        let mut r = rng::stream(5, "poisson.small");
        let lambda = 20.0;
        let n = 20_000;
        let mean = (0..n)
            .map(|_| f64::from(StripingLink::poisson(&mut r, lambda)))
            .sum::<f64>()
            / n as f64;
        assert!((mean - lambda).abs() < 0.2, "Knuth branch biased: {mean}");
    }

    #[test]
    fn poisson_overload_branch_is_unbiased() {
        // λ = 900 is the backbone's capped-window rate. exp(-900)
        // underflows to 0.0, so the historical Knuth loop terminated
        // when its product underflowed — around k ≈ 744 regardless of
        // λ. The normal-approximation branch restores the mean.
        let lambda = 900.0;
        assert!(lambda > StripingLink::KNUTH_MAX_LAMBDA);
        assert_eq!((-lambda).exp(), 0.0, "premise: termination underflows");
        let mut r = rng::stream(5, "poisson.overload");
        let n = 20_000;
        let mean = (0..n)
            .map(|_| f64::from(StripingLink::poisson(&mut r, lambda)))
            .sum::<f64>()
            / n as f64;
        // Standard error is √λ/√n ≈ 0.21; the historical bias was -156.
        assert!(
            (mean - lambda).abs() < 1.0,
            "overload branch biased: mean {mean}, want ~{lambda}"
        );
    }

    #[test]
    fn large_packets_reorder_less_than_small() {
        // §IV-C: serialization delay spreads leading edges; with equal
        // leading-edge spacing, bigger packets take longer to serialize
        // and thus effectively see a larger gap at the stripe.
        for model in MODELS {
            let rate_small = pair_reorder_rate(model, Duration::ZERO, 500, 31);
            // Same experiment with 1500-byte packets.
            let pipe = StripingLink::new(
                2,
                1_000_000_000,
                Some(CrossTraffic::backbone()),
                model,
                32,
                "s",
            );
            let (mut sim, src, _, _, tap) = rig(Box::new(pipe), 32);
            let mut reordered = 0;
            let trials = 500;
            for t in 0..trials {
                crate::capture::Trace::reset(&tap);
                let mk = |n: u16| {
                    reorder_wire::PacketBuilder::tcp()
                        .src(reorder_wire::Ipv4Addr4::new(10, 0, 0, 1), 1000)
                        .dst(reorder_wire::Ipv4Addr4::new(10, 0, 0, 2), 80)
                        .seq(u32::from(n))
                        .flags(reorder_wire::TcpFlags::ACK)
                        .pad_to(1500)
                        .build()
                };
                sim.transmit_from(src, Port(0), mk(2 * t));
                // Leading edges separated by the 1500B serialization time at
                // the ingress link rate — i.e. sent back-to-back.
                sim.run_for(serialization_delay(1500, 1_000_000_000));
                sim.transmit_from(src, Port(0), mk(2 * t + 1));
                sim.run_for(Duration::from_millis(20));
                let order: Vec<u32> = tap
                    .borrow()
                    .iter()
                    .map(|r| r.pkt.tcp().unwrap().seq.raw())
                    .collect();
                // Divide by `trials` below, so every trial must yield a
                // verdict — a lost pair would silently deflate the rate.
                assert_eq!(order.len(), 2, "striping must not lose packets");
                if order[0] > order[1] {
                    reordered += 1;
                }
            }
            let rate_big = reordered as f64 / trials as f64;
            assert!(
                rate_big < rate_small,
                "{}: 1500B rate {rate_big} should be below 40B rate {rate_small}",
                model.label()
            );
        }
    }
}
