//! Multi-path routing — one of the reordering causes §V names
//! ("Packets may be reordered for many reasons, including ... multi-path
//! routing").
//!
//! Two (or more) routes with different one-way delays carry traffic
//! between the same endpoints. Per-flow splitting never reorders a
//! flow; per-packet splitting reorders any pair whose inter-arrival gap
//! is smaller than the delay difference of the routes they take —
//! producing a *step-shaped* gap profile (contrast with the striping
//! pipe's smooth exponential decay), which makes the two mechanisms
//! distinguishable by the paper's time-domain measurement.

use super::other;
use super::token::TokenStore;
use crate::engine::{Ctx, Device, Port};
use crate::rng;
use rand::rngs::SmallRng;
use rand::Rng;
use reorder_wire::Packet;
use std::time::Duration;

/// How packets are assigned to routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitMode {
    /// Hash the flow 4-tuple: a flow sticks to one route (safe).
    PerFlow,
    /// Round-robin every packet (reorders; the §V hazard).
    PerPacket,
    /// Uniform random route per packet (hash-spraying hardware whose
    /// input includes fields that vary per packet).
    Random,
}

/// A set of parallel routes with distinct one-way delays. The pipe is
/// symmetric: both directions use the same route delays.
pub struct MultipathRoute {
    mode: SplitMode,
    delays: Vec<Duration>,
    rr: [usize; 2],
    rngs: [SmallRng; 2],
    pending: TokenStore<(Port, Packet)>,
    /// Observability: packets per route.
    pub per_route: Vec<u64>,
}

impl MultipathRoute {
    /// Build with one delay per route (≥ 1 route). `master_seed` feeds
    /// the `Random` split mode; the other modes ignore it.
    pub fn new(mode: SplitMode, delays: Vec<Duration>) -> Self {
        Self::with_seed(mode, delays, 0, "multipath")
    }

    /// [`MultipathRoute::new`] with an explicit random stream.
    pub fn with_seed(
        mode: SplitMode,
        delays: Vec<Duration>,
        master_seed: u64,
        label: &str,
    ) -> Self {
        assert!(!delays.is_empty(), "need at least one route");
        let n = delays.len();
        MultipathRoute {
            mode,
            delays,
            rr: [0; 2],
            rngs: [
                rng::stream(master_seed, &format!("{label}.fwd")),
                rng::stream(master_seed, &format!("{label}.rev")),
            ],
            pending: TokenStore::new(),
            per_route: vec![0; n],
        }
    }

    /// Largest pairwise delay difference — the gap beyond which
    /// per-packet splitting can no longer reorder.
    #[cfg(test)]
    pub(crate) fn max_skew(&self) -> Duration {
        let min = self.delays.iter().min().copied().unwrap_or_default();
        let max = self.delays.iter().max().copied().unwrap_or_default();
        max - min
    }

    fn route_for(&mut self, dir: usize, pkt: &Packet) -> usize {
        match self.mode {
            SplitMode::PerFlow => match pkt.flow() {
                Some(f) => {
                    // Hash direction-insensitively so both directions of
                    // a flow take the same route, like ECMP on a
                    // symmetric topology.
                    let mut key = [f, f.reversed()];
                    key.sort();
                    (key[0].stable_hash() % self.delays.len() as u64) as usize
                }
                None => 0,
            },
            SplitMode::PerPacket => {
                let r = self.rr[dir] % self.delays.len();
                self.rr[dir] += 1;
                r
            }
            SplitMode::Random => self.rngs[dir].gen_range(0..self.delays.len()),
        }
    }
}

impl Device for MultipathRoute {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
        let dir = port.0;
        assert!(dir < 2, "multipath pipe has two external ports");
        let r = self.route_for(dir, &pkt);
        self.per_route[r] += 1;
        let token = self.pending.insert((other(port), pkt));
        ctx.set_timer(self.delays[r], token);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some((port, pkt)) = self.pending.remove(token) {
            ctx.transmit(port, pkt);
        }
    }

    fn name(&self) -> &str {
        "multipath-route"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{probe, rig, send_and_collect};
    use super::*;
    use crate::time::SimTime;

    fn two_routes(mode: SplitMode) -> MultipathRoute {
        MultipathRoute::new(
            mode,
            vec![Duration::from_micros(100), Duration::from_micros(180)],
        )
    }

    #[test]
    fn per_flow_never_reorders() {
        let (mut sim, src, _, _, tap) = rig(Box::new(two_routes(SplitMode::PerFlow)), 1);
        let order = send_and_collect(&mut sim, src, &tap, 50, Duration::ZERO);
        assert_eq!(order, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn per_packet_reorders_close_pairs() {
        // Routes differ by 80 us; back-to-back pairs land on different
        // routes, so every odd/even pair is exchanged.
        let (mut sim, src, _, _, tap) = rig(Box::new(two_routes(SplitMode::PerPacket)), 1);
        sim.transmit_from(src, Port(0), probe(0)); // route 0: 100 us
        sim.transmit_from(src, Port(0), probe(1)); // route 1: 180 us
        sim.run_until_idle(SimTime::from_secs(1));
        let order: Vec<u32> = tap
            .borrow()
            .iter()
            .map(|r| r.pkt.tcp().unwrap().seq.raw())
            .collect();
        assert_eq!(order, vec![0, 1], "first on the fast route: in order");

        // Now reversed assignment: send so the *first* packet takes the
        // slow route.
        crate::capture::Trace::reset(&tap);
        sim.transmit_from(src, Port(0), probe(2)); // rr continues: route 0
        sim.transmit_from(src, Port(0), probe(3)); // route 1
        sim.transmit_from(src, Port(0), probe(4)); // route 0 — but 3 is slow
        sim.run_until_idle(SimTime::from_secs(1));
        let order: Vec<u32> = tap
            .borrow()
            .iter()
            .map(|r| r.pkt.tcp().unwrap().seq.raw())
            .collect();
        // 2 (fast) then 4 (fast, sent after 3) then 3 (slow): 3 and 4
        // exchanged.
        assert_eq!(order, vec![2, 4, 3]);
    }

    #[test]
    fn gap_beyond_skew_cannot_reorder() {
        let (mut sim, src, _, _, tap) = rig(Box::new(two_routes(SplitMode::PerPacket)), 1);
        // 100 us gap > 80 us skew: order always preserved.
        let order = send_and_collect(&mut sim, src, &tap, 20, Duration::from_micros(100));
        assert_eq!(order, (0..20).collect::<Vec<u32>>());
    }

    #[test]
    fn gap_below_skew_reorders_every_crossing_pair() {
        let (mut sim, src, _, _, tap) = rig(Box::new(two_routes(SplitMode::PerPacket)), 1);
        // 10 us gap << 80 us skew: every slow→fast adjacent pair swaps.
        let order = send_and_collect(&mut sim, src, &tap, 20, Duration::from_micros(10));
        // Count late arrivals (non-reversing-order rule): every slow-route
        // packet overtaken by later fast-route packets counts once.
        let mut max = 0u32;
        let mut late = 0;
        for &s in &order {
            if s < max {
                late += 1;
            } else {
                max = s;
            }
        }
        assert!(late >= 5, "expected many late packets, got {late}");
    }

    #[test]
    fn max_skew_reported() {
        assert_eq!(
            two_routes(SplitMode::PerPacket).max_skew(),
            Duration::from_micros(80)
        );
    }

    #[test]
    #[should_panic(expected = "at least one route")]
    fn empty_routes_rejected() {
        MultipathRoute::new(SplitMode::PerFlow, vec![]);
    }

    #[test]
    fn random_mode_reorders_about_a_quarter_of_close_pairs() {
        // P(first slow, second fast) = 1/4 with two equal-probability
        // routes; only that assignment reorders a close pair.
        let pipe = MultipathRoute::with_seed(
            SplitMode::Random,
            vec![Duration::from_micros(100), Duration::from_micros(180)],
            5,
            "m",
        );
        let (mut sim, src, _, _, tap) = rig(Box::new(pipe), 5);
        let mut reordered = 0;
        let trials = 400;
        for t in 0..trials {
            crate::capture::Trace::reset(&tap);
            sim.transmit_from(src, Port(0), probe((2 * t) as u16));
            sim.transmit_from(src, Port(0), probe((2 * t + 1) as u16));
            sim.run_for(Duration::from_millis(1));
            let order: Vec<u32> = tap
                .borrow()
                .iter()
                .map(|r| r.pkt.tcp().unwrap().seq.raw())
                .collect();
            assert_eq!(order.len(), 2);
            if order[0] > order[1] {
                reordered += 1;
            }
        }
        let rate = reordered as f64 / trials as f64;
        assert!((0.17..=0.33).contains(&rate), "rate {rate} not ≈ 0.25");
    }
}
