//! Transparent two-port forwarder — the identity pipe, useful as a
//! monitoring point and as the no-op arm of A/B scenarios.

use super::{other, two_port_exit};
use crate::engine::{Ctx, Device, Port};
use reorder_wire::Packet;
use std::time::Duration;

/// Forwards everything between ports 0 and 1 unchanged. A stage (see
/// [`crate::engine`]).
#[derive(Debug, Default)]
pub struct Forwarder {
    /// Packets forwarded (observability).
    pub forwarded: u64,
}

impl Forwarder {
    /// New transparent forwarder.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Device for Forwarder {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
        if self.stage_pass(port).is_some() {
            ctx.transmit(other(port), pkt);
        }
    }

    fn name(&self) -> &str {
        "forwarder"
    }

    fn stage_exit(&self, port: Port) -> Option<Port> {
        two_port_exit(port)
    }

    fn stage_pass(&mut self, _port: Port) -> Option<Duration> {
        self.forwarded += 1;
        Some(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{rig, send_and_collect};
    use super::*;
    use std::time::Duration;

    #[test]
    fn preserves_order_and_content() {
        let (mut sim, src, _, _, tap) = rig(Box::new(Forwarder::new()), 1);
        let order = send_and_collect(&mut sim, src, &tap, 50, Duration::ZERO);
        assert_eq!(order, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn preserves_order_with_gaps() {
        let (mut sim, src, _, _, tap) = rig(Box::new(Forwarder::new()), 1);
        let order = send_and_collect(&mut sim, src, &tap, 10, Duration::from_micros(3));
        assert_eq!(order, (0..10).collect::<Vec<u32>>());
    }
}
