//! O(1) stationary cross-traffic workload sampler for the striping
//! pipe — the cross-traffic model every campaign runs.
//!
//! The replay model in [`super::striping`] reconstructs every Poisson
//! cross-traffic burst since a queue's last update (an exact M/G/1
//! workload recursion, ~2λ RNG draws per replayed window). But the
//! §IV-C mechanism only needs the queue backlog *at the instant a
//! probe arrives* — "queues drain at a constant rate", so whether two
//! probes exchange depends on the depth imbalance they sample, not on
//! the arrival history that produced it. By PASTA, a Poisson-fed
//! queue's backlog at an arrival instant is distributed as the
//! stationary workload, which for exponential burst sizes has the
//! Pollaczek–Khinchine closed form
//!
//! ```text
//! P(V = 0)  = 1 − ρ                      (the idle atom)
//! P(V > x)  = ρ · exp(−η x),  η = (1 − ρ) / E[S]
//! ```
//!
//! where `ρ` is the offered utilization and `E[S]` the mean burst
//! service time. (An M/G/1 queue with exponential service *is* M/M/1
//! in workload, so the form is exact, not an approximation; the same
//! stationary-workload view underlies the re-sequencing-delay analysis
//! of Mohammadpour & Le Boudec and the O(1)-state data-plane sketches
//! of Zheng et al.) One inverse-transform draw therefore replaces the
//! whole replay:
//!
//! ```text
//! u ~ U(0,1);   V = 0           if u ≥ ρ
//!               V = ln(ρ/u)/η   otherwise
//! ```
//!
//! The draw is O(1) per probe arrival regardless of how long the queue
//! sat idle — the replay's capped-window worst case (~2,700 pinned
//! draws per 100 ms window at the backbone rates) disappears. The cost
//! is a different RNG stream from the replay's, so the two models never
//! produce the same bytes. Campaigns run the stationary draw only; the
//! replay stays selectable through [`CrossTrafficModel`] as the exact
//! reference the equivalence tests, the pipe properties and the
//! primitives bench compare against.

use super::striping::CrossTraffic;
use rand::rngs::SmallRng;
use rand::Rng;

/// Which cross-traffic backlog model a [`super::StripingLink`] runs.
///
/// Both models describe the *same* M/G/1 queues (identical offered
/// load, identical stationary law — asserted by the striping module's
/// equivalence tests); they differ in how the backlog seen by a probe
/// is produced, and therefore in their RNG streams and cost:
///
/// * [`Replay`](CrossTrafficModel::Replay) — the test oracle: lazily
///   replay every Poisson burst since the queue's last update. Exact
///   sample paths (bursts persist across arrivals), O(λ·window) draws
///   per arrival.
/// * [`Stationary`](CrossTrafficModel::Stationary) — what campaigns run: draw
///   the backlog directly from the stationary workload distribution.
///   O(1) draws per arrival; successive backlogs are independent
///   (which is also what the replay converges to once arrivals are
///   separated by more than the ~1/η relaxation time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrossTrafficModel {
    /// Per-arrival Poisson burst replay (the stationary sampler's test
    /// oracle).
    Replay,
    /// Stationary Pollaczek–Khinchine workload draw (the default, and
    /// the one model campaigns run).
    #[default]
    Stationary,
}

impl CrossTrafficModel {
    /// Short label for reports and bench rows.
    pub fn label(&self) -> &'static str {
        match self {
            CrossTrafficModel::Replay => "replay",
            CrossTrafficModel::Stationary => "stationary",
        }
    }
}

/// Precomputed stationary-workload sampler for one striped queue
/// configuration (all queues of a stripe share it — they are i.i.d.).
#[derive(Debug, Clone, Copy)]
pub struct StationarySampler {
    /// Offered utilization ρ = λ·E[S] (also the busy probability).
    rho: f64,
    /// ln ρ, precomputed for the inverse transform (`f64::NEG_INFINITY`
    /// when ρ = 0, in which case the tail branch is unreachable).
    ln_rho: f64,
    /// Mean of the exponential tail, 1/η = E[S]/(1−ρ), in nanoseconds.
    tail_mean_ns: f64,
}

impl StationarySampler {
    /// Build the sampler for `cross` traffic feeding queues that drain
    /// at `bits_per_sec`.
    ///
    /// # Panics
    ///
    /// When the offered utilization is ≥ 1 (no stationary distribution
    /// exists); [`super::StripingLink::new`] already rejects ≥ 0.95 for
    /// either model.
    pub fn new(cross: CrossTraffic, bits_per_sec: u64) -> Self {
        let rho = cross.utilization(bits_per_sec);
        assert!(
            (0.0..1.0).contains(&rho),
            "utilization {rho} admits no stationary workload"
        );
        // Mean burst service time in ns. The replay serializes
        // `floor(B) + 1` bytes for an Exp(mean) draw B — the +1 is a
        // sub-permille shift at backbone burst sizes, absorbed by the
        // equivalence tolerance.
        let mean_service_ns = cross.mean_burst_bytes * 8e9 / bits_per_sec as f64;
        StationarySampler {
            rho,
            ln_rho: rho.ln(),
            tail_mean_ns: mean_service_ns / (1.0 - rho),
        }
    }

    /// The busy probability ρ (equals
    /// [`CrossTraffic::utilization`] — the stability contract is shared
    /// between models).
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Mean of the nonzero-backlog tail, nanoseconds (1/η) — the
    /// e-folding gap of the §IV-C reordering decay.
    pub fn tail_mean_ns(&self) -> f64 {
        self.tail_mean_ns
    }

    /// Draw a stationary backlog, in nanoseconds. Exactly one `f64`
    /// draw from `rng` per call, whatever the outcome.
    pub fn sample_ns(&self, rng: &mut SmallRng) -> u64 {
        // Strictly positive u keeps ln(u) finite; the resulting V is
        // bounded by (745 + ln ρ)·tail_mean — microseconds-scale here,
        // far below SimTime's range.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        if u >= self.rho {
            return 0;
        }
        ((self.ln_rho - u.ln()) * self.tail_mean_ns) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    fn backbone_sampler() -> StationarySampler {
        StationarySampler::new(CrossTraffic::backbone(), 1_000_000_000)
    }

    #[test]
    fn rho_matches_utilization() {
        let c = CrossTraffic::backbone();
        let s = StationarySampler::new(c, 1_000_000_000);
        assert_eq!(s.rho(), c.utilization(1_000_000_000));
    }

    #[test]
    fn atom_and_tail_match_closed_form() {
        let s = backbone_sampler();
        let mut r = rng::stream(7, "pk");
        let n = 200_000;
        let mut zeros = 0u64;
        let mut sum = 0.0f64;
        let mut above_tail_mean = 0u64;
        for _ in 0..n {
            let v = s.sample_ns(&mut r) as f64;
            if v == 0.0 {
                zeros += 1;
            } else {
                if v > s.tail_mean_ns() {
                    above_tail_mean += 1;
                }
                sum += v;
            }
        }
        let busy = 1.0 - zeros as f64 / n as f64;
        assert!(
            (busy - s.rho()).abs() < 0.01,
            "busy probability {busy} vs rho {}",
            s.rho()
        );
        // Conditional tail is Exp(1/tail_mean): its mean and its
        // e^-1 survival both identify the distribution scale.
        let nonzero = n - zeros;
        let cond_mean = sum / nonzero as f64;
        assert!(
            (cond_mean / s.tail_mean_ns() - 1.0).abs() < 0.05,
            "conditional mean {cond_mean} vs {}",
            s.tail_mean_ns()
        );
        let surv = above_tail_mean as f64 / nonzero as f64;
        assert!(
            (surv - (-1.0f64).exp()).abs() < 0.02,
            "P(V > tail_mean | V > 0) = {surv}, want ~e^-1"
        );
    }

    #[test]
    fn one_draw_per_sample() {
        // The O(1) guarantee, stated as an RNG-stream property: k
        // samples advance the stream by exactly k draws.
        let s = backbone_sampler();
        let mut a = rng::stream(3, "x");
        let mut b = rng::stream(3, "x");
        for _ in 0..100 {
            let _ = s.sample_ns(&mut a);
            let _: f64 = b.gen_range(f64::MIN_POSITIVE..1.0);
        }
        assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "streams must stay in step");
    }

    #[test]
    fn zero_rate_traffic_never_queues() {
        let s = StationarySampler::new(
            CrossTraffic {
                bursts_per_sec: 0.0,
                mean_burst_bytes: 2_000.0,
            },
            1_000_000_000,
        );
        let mut r = rng::stream(1, "idle");
        assert_eq!(s.rho(), 0.0);
        for _ in 0..64 {
            assert_eq!(s.sample_ns(&mut r), 0);
        }
    }

    #[test]
    #[should_panic(expected = "no stationary workload")]
    fn overload_rejected() {
        StationarySampler::new(
            CrossTraffic {
                bursts_per_sec: 70_000.0,
                mean_burst_bytes: 2_000.0,
            },
            1_000_000_000,
        );
    }

    #[test]
    fn model_labels() {
        assert_eq!(CrossTrafficModel::Replay.label(), "replay");
        assert_eq!(CrossTrafficModel::Stationary.label(), "stationary");
        assert_eq!(CrossTrafficModel::default(), CrossTrafficModel::Stationary);
    }
}
