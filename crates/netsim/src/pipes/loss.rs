//! Independent random loss — the failure mode that forces the Single
//! Connection Test to discard samples (§III-B) and that the SYN Test's
//! lone-reply ambiguity rules are designed around.

use super::{other, two_port_exit};
use crate::engine::{Ctx, Device, Port};
use crate::rng;
use rand::rngs::SmallRng;
use rand::Rng;
use reorder_wire::Packet;
use std::time::Duration;

/// Drops packets i.i.d. with a per-direction probability. A stage (see
/// [`crate::engine`]): each direction's draws depend only on the
/// packets sent that way.
pub struct RandomLoss {
    prob: [f64; 2],
    rngs: [SmallRng; 2],
    /// Observability: dropped packet counts per direction.
    pub dropped: [u64; 2],
    /// Observability: forwarded packet counts per direction.
    pub passed: [u64; 2],
}

impl RandomLoss {
    /// `fwd` applies upstream→downstream, `rev` the opposite direction.
    pub fn new(fwd: f64, rev: f64, master_seed: u64, label: &str) -> Self {
        assert!((0.0..=1.0).contains(&fwd) && (0.0..=1.0).contains(&rev));
        RandomLoss {
            prob: [fwd, rev],
            rngs: [
                rng::stream(master_seed, &format!("{label}.fwd")),
                rng::stream(master_seed, &format!("{label}.rev")),
            ],
            dropped: [0; 2],
            passed: [0; 2],
        }
    }
}

impl Device for RandomLoss {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
        if self.stage_pass(port).is_some() {
            ctx.transmit(other(port), pkt);
        }
    }

    fn name(&self) -> &str {
        "random-loss"
    }

    fn stage_exit(&self, port: Port) -> Option<Port> {
        two_port_exit(port)
    }

    /// The loss decision: one draw from `port`'s direction.
    fn stage_pass(&mut self, port: Port) -> Option<Duration> {
        let dir = port.0;
        assert!(dir < 2);
        if self.prob[dir] > 0.0 && self.rngs[dir].gen_bool(self.prob[dir]) {
            self.dropped[dir] += 1;
            return None;
        }
        self.passed[dir] += 1;
        Some(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{rig, send_and_collect};
    use super::*;
    use std::time::Duration;

    #[test]
    fn zero_loss_is_transparent() {
        let (mut sim, src, _, _, tap) = rig(Box::new(RandomLoss::new(0.0, 0.0, 1, "l")), 1);
        let order = send_and_collect(&mut sim, src, &tap, 100, Duration::ZERO);
        assert_eq!(order.len(), 100);
    }

    #[test]
    fn total_loss_drops_everything() {
        let (mut sim, src, _, _, tap) = rig(Box::new(RandomLoss::new(1.0, 0.0, 1, "l")), 1);
        let order = send_and_collect(&mut sim, src, &tap, 50, Duration::ZERO);
        assert!(order.is_empty());
    }

    #[test]
    fn loss_rate_tracks_probability() {
        let (mut sim, src, _, _, tap) = rig(Box::new(RandomLoss::new(0.2, 0.0, 77, "l")), 77);
        let order = send_and_collect(&mut sim, src, &tap, 5000, Duration::ZERO);
        let rate = 1.0 - order.len() as f64 / 5000.0;
        assert!((0.17..=0.23).contains(&rate), "loss rate {rate}");
        // Survivors keep their order.
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
    }
}
