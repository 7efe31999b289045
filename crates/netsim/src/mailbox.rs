//! The probe host's attachment point: a node whose received packets are
//! exposed to code *outside* the event loop.
//!
//! The paper's tools ran as user-level programs above a packet filter
//! ("programmable packet filters ... allow a user-level test program to
//! generate and receive arbitrary IP packets", §IV). [`Mailbox`] plays
//! that role in the simulator: the measurement algorithms inject raw
//! packets with [`crate::Simulator::transmit_from`] and poll received
//! packets from the shared queue, while the simulated network runs in
//! between.

use crate::engine::{Ctx, Device, Port};
use crate::time::SimTime;
use reorder_wire::Packet;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A timestamped received packet.
#[derive(Debug, Clone)]
pub struct RxPacket {
    /// Arrival time at the mailbox node.
    pub time: SimTime,
    /// Port it arrived on.
    pub port: Port,
    /// The packet.
    pub pkt: Packet,
}

/// Shared receive queue; the external agent holds the other clone.
pub type MailboxQueue = Rc<RefCell<VecDeque<RxPacket>>>;

/// Node that appends every delivery to a shared queue.
pub struct Mailbox {
    queue: MailboxQueue,
}

impl Mailbox {
    /// Create the device and the external handle.
    pub fn new() -> (Self, MailboxQueue) {
        let queue: MailboxQueue = Rc::new(RefCell::new(VecDeque::new()));
        (
            Mailbox {
                queue: queue.clone(),
            },
            queue,
        )
    }
}

impl Device for Mailbox {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
        self.queue.borrow_mut().push_back(RxPacket {
            time: ctx.now(),
            port,
            pkt,
        });
    }

    fn name(&self) -> &str {
        "mailbox"
    }
}

/// Drain every queued packet.
pub fn drain(queue: &MailboxQueue) -> Vec<RxPacket> {
    queue.borrow_mut().drain(..).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulator;
    use crate::link::LinkParams;
    use crate::pipes::Forwarder;
    use reorder_wire::{Ipv4Addr4, PacketBuilder, TcpFlags};

    #[test]
    fn mailbox_records_arrivals_in_order() {
        let mut sim = Simulator::new(0);
        let (mb, queue) = Mailbox::new();
        let me = sim.add_node(Box::new(mb));
        let fwd = sim.add_node(Box::new(Forwarder::new()));
        sim.connect(me, Port(0), fwd, Port(0), LinkParams::lan());
        // Loop the forwarder's other port straight back to a second
        // mailbox port so packets echo around.
        let (mb2, queue2) = Mailbox::new();
        let other = sim.add_node(Box::new(mb2));
        sim.connect(fwd, Port(1), other, Port(0), LinkParams::lan());

        for i in 0..5u16 {
            let pkt = PacketBuilder::tcp()
                .src(Ipv4Addr4::new(1, 1, 1, 1), 10)
                .dst(Ipv4Addr4::new(2, 2, 2, 2), 20)
                .seq(u32::from(i))
                .flags(TcpFlags::ACK)
                .build();
            sim.transmit_from(me, Port(0), pkt);
        }
        sim.run_until_idle(SimTime::from_secs(1));
        assert!(queue.borrow().is_empty());
        let got = drain(&queue2);
        assert_eq!(got.len(), 5);
        let seqs: Vec<u32> = got.iter().map(|r| r.pkt.tcp().unwrap().seq.raw()).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
        assert!(got.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(drain(&queue2).is_empty(), "drain empties the queue");
    }
}
