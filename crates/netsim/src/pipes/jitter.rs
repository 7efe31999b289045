//! Random per-packet extra delay. Large jitter relative to packet
//! spacing is itself a reordering process (delay-based, as opposed to the
//! queue-imbalance mechanism of the striping pipe), so this pipe doubles
//! as a second reordering model for cross-validation.

use super::token::TokenStore;
use super::{other, two_port_exit};
use crate::engine::{Ctx, Device, Port};
use crate::rng;
use rand::rngs::SmallRng;
use rand::Rng;
use reorder_wire::Packet;
use std::time::Duration;

/// Adds a uniform random delay in `[min, max]` to each packet,
/// independently per direction. With `min == max` (a constant delay)
/// it is a stage (see [`crate::engine`]); a random delay is not, since
/// it reorders.
pub struct DelayJitter {
    min: Duration,
    max: Duration,
    rngs: [SmallRng; 2],
    pending: TokenStore<(Port, Packet)>,
}

impl DelayJitter {
    /// Uniform extra delay in `[min, max]` for both directions.
    pub fn new(min: Duration, max: Duration, master_seed: u64, label: &str) -> Self {
        assert!(min <= max, "min delay must not exceed max");
        DelayJitter {
            min,
            max,
            rngs: [
                rng::stream(master_seed, &format!("{label}.fwd")),
                rng::stream(master_seed, &format!("{label}.rev")),
            ],
            pending: TokenStore::new(),
        }
    }
}

impl DelayJitter {
    /// The delay decision: the extra delay for the next packet arriving
    /// on `port` (one draw from its direction unless constant).
    fn delay(&mut self, port: Port) -> Duration {
        let dir = port.0;
        assert!(dir < 2);
        if self.max > self.min {
            let span = (self.max - self.min).as_nanos() as u64;
            self.min + Duration::from_nanos(self.rngs[dir].gen_range(0..=span))
        } else {
            self.min
        }
    }
}

impl Device for DelayJitter {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
        let extra = self.delay(port);
        let token = self.pending.insert((other(port), pkt));
        ctx.set_timer(extra, token);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some((port, pkt)) = self.pending.remove(token) {
            ctx.transmit(port, pkt);
        }
    }

    fn name(&self) -> &str {
        "delay-jitter"
    }

    fn stage_exit(&self, port: Port) -> Option<Port> {
        if self.max > self.min {
            return None;
        }
        two_port_exit(port)
    }

    fn stage_pass(&mut self, port: Port) -> Option<Duration> {
        Some(self.delay(port))
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{rig, send_and_collect};
    use super::*;
    use crate::time::SimTime;

    #[test]
    fn constant_delay_preserves_order() {
        let d = Duration::from_millis(2);
        let (mut sim, src, _, _, tap) = rig(Box::new(DelayJitter::new(d, d, 1, "j")), 1);
        let order = send_and_collect(&mut sim, src, &tap, 50, Duration::ZERO);
        assert_eq!(order, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn constant_delay_shifts_arrival() {
        let d = Duration::from_millis(3);
        let (mut sim, src, _, _, tap) = rig(Box::new(DelayJitter::new(d, d, 1, "j")), 1);
        sim.transmit_from(src, Port(0), super::super::testutil::probe(0));
        sim.run_until_idle(SimTime::from_secs(1));
        let t = tap.borrow()[0].time;
        assert!(t >= SimTime::from_millis(3));
        assert!(t < SimTime::from_millis(4));
    }

    #[test]
    fn wide_jitter_reorders_close_packets() {
        let (mut sim, src, _, _, tap) = rig(
            Box::new(DelayJitter::new(
                Duration::ZERO,
                Duration::from_millis(5),
                9,
                "j",
            )),
            9,
        );
        let order = send_and_collect(&mut sim, src, &tap, 200, Duration::from_micros(10));
        assert_eq!(order.len(), 200, "jitter must not lose packets");
        let inversions = order.windows(2).filter(|w| w[0] > w[1]).count();
        assert!(inversions > 20, "wide jitter should reorder ({inversions})");
    }

    #[test]
    #[should_panic(expected = "min delay must not exceed max")]
    fn bad_range_rejected() {
        DelayJitter::new(Duration::from_millis(2), Duration::from_millis(1), 0, "j");
    }
}
