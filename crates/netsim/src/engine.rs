//! The discrete-event engine: nodes, ports, links, timers, taps.
//!
//! # Determinism contract
//!
//! Every experiment in the paper is reproduced from a seed, so a run is
//! a pure function of its topology, its seed and the calls made on the
//! [`Simulator`]. Events fire in `(time, seq)` order, where `seq` is the
//! push sequence number, so time ties break by insertion order; devices
//! draw randomness only from labeled streams (see [`crate::rng`]); and
//! nothing reads the host clock.
//!
//! # Stages, sinks and cut-through
//!
//! Most packets a campaign simulates travel from the target host back
//! to the prober through devices that merely drop or delay them. The
//! engine shortcuts those hops instead of scheduling an event at each.
//!
//! * A **stage** is a device whose effect on a packet depends only on
//!   the port it arrived on and on earlier packets from that port —
//!   never on the clock, on the other direction, or on timers. It says
//!   so through [`Device::stage_exit`] and applies its one decision
//!   function through [`Device::stage_pass`]. [`crate::pipes::RandomLoss`]
//!   and [`crate::pipes::Forwarder`] are stages, and
//!   [`crate::pipes::DelayJitter`] is one when its delay is constant.
//! * A **sink** is a device that emits no actions (no transmissions, no
//!   timers) and has exactly one wired port: the prober's
//!   [`crate::Mailbox`] ([`Device::is_sink`]).
//!
//! When a link delivers into a stage whose forwarding chain ends at a
//! sink, and no stage on that chain has a capture tap, the engine
//! applies the whole chain at transmit time: each stage decides at the
//! packet's *virtual* arrival time, each onward link is offered the
//! packet at that virtual time, and only the final delivery to the sink
//! is scheduled. This is exact:
//!
//! * each stage's per-port decisions (and random draws) happen in the
//!   same FIFO order as when evented, because every link on the chain
//!   is FIFO and only that chain feeds it;
//! * each link direction sees the same offers, at the same times, in
//!   the same order, so serialization and queueing are unchanged;
//! * the sink's delivery lands at the same time; it pushes nothing, and
//!   the mailbox is read only between [`Simulator::run_until`] calls,
//!   after every event at an instant has fired — so where the delivery
//!   falls among same-nanosecond events cannot be observed.
//!
//! Chains toward anything else stay evented: a stateful device (a TCP
//! host, the reordering pipes) may react to the relative order of
//! same-instant events, which a cut would change. A cut pass is counted
//! by [`Simulator::stage_passes`], next to the dispatched events of
//! [`Simulator::events_processed`].

use crate::calendar::CalendarQueue;
use crate::capture::{Dir, TraceHandle, TraceRecord};
use crate::link::{LinkParams, LinkState, Offer};
use crate::time::SimTime;
use reorder_wire::Packet;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Identifies a node (device) in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// A port index local to a node. Devices define their own port
/// conventions (e.g. a pipe forwards port 0 ↔ port 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Port(pub usize);

/// The behavior of a simulated node.
///
/// Devices are purely reactive: they are invoked for packet deliveries
/// and timer expirations, and respond by calling methods on [`Ctx`].
pub trait Device {
    /// A packet arrived on `port`.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet);

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Diagnostic name.
    fn name(&self) -> &str {
        "device"
    }

    /// The port a packet arriving on `port` leaves by, when this device
    /// is a *stage* for that port (see the module docs): its effect on
    /// the packet depends only on `port` and on earlier packets from
    /// it. `None` (the default) keeps every arrival evented. Must not
    /// change once the device is wired.
    fn stage_exit(&self, _port: Port) -> Option<Port> {
        None
    }

    /// Apply the stage decision to one packet arriving on `port`: the
    /// delay before it leaves by [`Device::stage_exit`], or `None` when
    /// the stage drops it. Called instead of [`Device::on_packet`] on
    /// cut-through paths, only for ports with a `stage_exit`; it must
    /// be the decision `on_packet` applies, with the same state updates.
    fn stage_pass(&mut self, _port: Port) -> Option<Duration> {
        None
    }

    /// Whether this device is a *sink*: it never transmits or sets a
    /// timer. A sink with exactly one wired port ends cut-through
    /// chains (see the module docs).
    fn is_sink(&self) -> bool {
        false
    }
}

/// What a device may do while handling an event.
#[derive(Debug)]
enum Action {
    Transmit { port: Port, pkt: Packet },
    SetTimer { delay: Duration, token: u64 },
}

/// Execution context handed to a device during event handling.
pub struct Ctx<'a> {
    now: SimTime,
    node: NodeId,
    actions: &'a mut Vec<Action>,
}

impl Ctx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node being invoked (useful for diagnostics).
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Queue a packet for transmission out of `port`. Serialization and
    /// propagation delays of the attached link apply; transmissions
    /// issued within one event handler keep their issue order.
    pub fn transmit(&mut self, port: Port, pkt: Packet) {
        self.actions.push(Action::Transmit { port, pkt });
    }

    /// Arrange for [`Device::on_timer`] to be called `delay` from now
    /// with `token`.
    pub fn set_timer(&mut self, delay: Duration, token: u64) {
        self.actions.push(Action::SetTimer { delay, token });
    }
}

/// A calendar entry's payload. Deliveries name a [`PacketSlab`] slot
/// rather than carrying the packet, so the queue moves 40-byte entries
/// on every push, bucket sort and sorted insert.
#[derive(Debug)]
enum EventKind {
    Deliver(usize),
    Timer { node: NodeId, token: u64 },
}

/// A packet in flight on a link, with the node and port it arrives at.
struct Parcel {
    node: NodeId,
    port: Port,
    pkt: Packet,
}

/// The parcels of pending deliveries, addressed by slot. Freed slots
/// are reused, and [`PacketSlab::clear`] keeps the allocation, so a
/// pooled simulator runs without touching the allocator.
#[derive(Default)]
struct PacketSlab {
    slots: Vec<Option<Parcel>>,
    free: Vec<usize>,
}

impl PacketSlab {
    fn insert(&mut self, parcel: Parcel) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = Some(parcel);
                slot
            }
            None => {
                self.slots.push(Some(parcel));
                self.slots.len() - 1
            }
        }
    }

    fn take(&mut self, slot: usize) -> Option<Parcel> {
        let parcel = self.slots.get_mut(slot)?.take()?;
        self.free.push(slot);
        Some(parcel)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

/// The simulator: owns every device, link and pending event.
///
/// Hot-path layout: events live in a calendar queue (the private
/// `calendar` module) as small entries whose packets wait in a slab;
/// links and taps are dense per-node tables indexed by `NodeId`/`Port`,
/// so the per-event path does no hashing. Links into cut-through
/// chains (see the module docs) are marked once per topology change.
/// [`Simulator::reset`] recycles every allocation for the next run —
/// the pooling fast path campaign workers ride.
pub struct Simulator {
    now: SimTime,
    seq: u64,
    master_seed: u64,
    nodes: Vec<Option<Box<dyn Device>>>,
    names: Vec<String>,
    /// `links[node][port]` — dense, grown by `connect_asym`.
    links: Vec<Vec<Option<LinkEndpoint>>>,
    queue: CalendarQueue<EventKind>,
    packets: PacketSlab,
    /// `rx_taps[node]` / `tx_taps[node]` — dense, grown by `add_node`.
    rx_taps: Vec<Vec<TraceHandle>>,
    tx_taps: Vec<Vec<TraceHandle>>,
    scratch: Vec<Action>,
    events: u64,
    stage_passes: u64,
    /// Set by every topology change; the next transmit re-marks which
    /// links cut through.
    replan: bool,
    /// Count of packets dropped by full link queues (all links).
    pub link_drops: u64,
}

struct LinkEndpoint {
    peer: (NodeId, Port),
    state: LinkState,
    /// The peer is a stage whose chain ends at a sink: apply it at
    /// transmit time instead of scheduling a delivery to it.
    cut: bool,
}

impl Simulator {
    /// Create a simulator whose stochastic devices will derive their
    /// random streams from `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            master_seed,
            nodes: Vec::new(),
            names: Vec::new(),
            links: Vec::new(),
            queue: CalendarQueue::new(),
            packets: PacketSlab::default(),
            rx_taps: Vec::new(),
            tx_taps: Vec::new(),
            scratch: Vec::new(),
            events: 0,
            stage_passes: 0,
            replan: false,
            link_drops: 0,
        }
    }

    /// Return the simulator to the just-constructed state under a new
    /// master seed, retaining every allocation (event-queue buckets,
    /// packet slab, node/link/tap tables, scratch). A reset simulator is
    /// indistinguishable from `Simulator::new(seed)` to everything
    /// built on it — the pooled-construction determinism tests assert
    /// byte-identical campaign output — but skips the allocator.
    pub fn reset(&mut self, master_seed: u64) {
        self.now = SimTime::ZERO;
        self.seq = 0;
        self.master_seed = master_seed;
        self.nodes.clear();
        self.names.clear();
        self.links.clear();
        self.queue.clear();
        self.packets.clear();
        self.rx_taps.clear();
        self.tx_taps.clear();
        self.events = 0;
        self.stage_passes = 0;
        self.replan = false;
        self.link_drops = 0;
    }

    /// Events dispatched since construction (or the last
    /// [`Simulator::reset`]) — the denominator of events/sec in the
    /// perf harness.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Stage passes applied on cut-through chains since construction
    /// (or the last [`Simulator::reset`]): hops that would each have
    /// been a dispatched delivery (plus a timer, for a delay stage) had
    /// the chain been evented. See the module docs.
    pub fn stage_passes(&self) -> u64 {
        self.stage_passes
    }

    /// Events currently queued (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Event pushes that missed the calendar queue's wheel window and
    /// fell back to the ordered overflow heap, since construction (or
    /// the last [`Simulator::reset`]). A telemetry counter: overflow
    /// pushes cost a heap insert instead of an O(1) bucket append, so
    /// a high ratio against [`Simulator::events_processed`] means the
    /// wheel width no longer matches the workload's event horizon.
    pub fn overflow_events(&self) -> u64 {
        self.queue.overflow_pushes()
    }

    /// The master seed (devices use it with [`crate::rng::stream`]).
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Add a device; returns its id.
    pub fn add_node(&mut self, device: Box<dyn Device>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.names.push(device.name().to_string());
        self.nodes.push(Some(device));
        self.links.push(Vec::new());
        self.rx_taps.push(Vec::new());
        self.tx_taps.push(Vec::new());
        self.replan = true;
        id
    }

    /// Diagnostic name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.0]
    }

    /// Connect `a`'s port `pa` to `b`'s port `pb` with symmetric link
    /// parameters. Panics if either port is already wired.
    pub fn connect(&mut self, a: NodeId, pa: Port, b: NodeId, pb: Port, params: LinkParams) {
        self.connect_asym(a, pa, b, pb, params, params);
    }

    /// Connect with distinct parameters per direction (`ab` applies to
    /// packets from `a` to `b`).
    pub fn connect_asym(
        &mut self,
        a: NodeId,
        pa: Port,
        b: NodeId,
        pb: Port,
        ab: LinkParams,
        ba: LinkParams,
    ) {
        self.wire(a, pa, b, pb, ab);
        self.wire(b, pb, a, pa, ba);
    }

    fn wire(&mut self, from: NodeId, port: Port, to: NodeId, to_port: Port, params: LinkParams) {
        let ports = &mut self.links[from.0];
        if ports.len() <= port.0 {
            ports.resize_with(port.0 + 1, || None);
        }
        assert!(
            ports[port.0].is_none(),
            "port {port:?} of node {from:?} already wired"
        );
        ports[port.0] = Some(LinkEndpoint {
            peer: (to, to_port),
            state: LinkState::new(params),
            cut: false,
        });
        self.replan = true;
    }

    /// Record every packet *delivered to* `node` (any port) into the
    /// returned trace. This is the receive-order ground truth of §IV-A.
    pub fn tap_rx(&mut self, node: NodeId) -> TraceHandle {
        let h: TraceHandle = Rc::new(RefCell::new(Vec::new()));
        self.rx_taps[node.0].push(h.clone());
        self.replan = true;
        h
    }

    /// Record every packet *transmitted by* `node` (any port), stamped
    /// with the time the transmission was issued. This is the send-order
    /// ground truth used to validate reverse-path inferences.
    pub fn tap_tx(&mut self, node: NodeId) -> TraceHandle {
        let h: TraceHandle = Rc::new(RefCell::new(Vec::new()));
        self.tx_taps[node.0].push(h.clone());
        self.replan = true;
        h
    }

    /// Inject a packet as if `node` had transmitted it out of `port` at
    /// the current time. Used by external agents (the prober) that drive
    /// the simulation from outside the event loop.
    pub fn transmit_from(&mut self, node: NodeId, port: Port, pkt: Packet) {
        self.record_tx(node, port, &pkt);
        self.do_transmit(node, port, pkt);
    }

    /// Schedule a timer for `node` (external-agent counterpart of
    /// [`Ctx::set_timer`]).
    pub fn schedule_timer(&mut self, node: NodeId, delay: Duration, token: u64) {
        let time = self.now + delay;
        self.push(time, EventKind::Timer { node, token });
    }

    /// Time of the next pending event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_key().map(|(t, _)| t)
    }

    /// Run until the queue is empty or the next event lies beyond
    /// `horizon`; the clock then advances to `horizon` (so repeated calls
    /// make steady progress even with no traffic).
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some((time, _, kind)) = self.queue.pop_due(horizon) {
            debug_assert!(time >= self.now, "time went backwards");
            self.now = time;
            self.dispatch(kind);
        }
        if horizon > self.now && horizon != SimTime::MAX {
            self.now = horizon;
        }
    }

    /// Run for `d` from the current time.
    pub fn run_for(&mut self, d: Duration) {
        let horizon = self.now + d;
        self.run_until(horizon);
    }

    /// Run until no events remain (the network is quiet). `limit` bounds
    /// runaway simulations; panics if exceeded, since that indicates a
    /// device generating unbounded traffic.
    pub fn run_until_idle(&mut self, limit: SimTime) {
        while let Some(t) = self.next_event_time() {
            assert!(t <= limit, "simulation still active at limit {limit}");
            self.run_until(t);
        }
    }

    fn push(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(self.now, time, seq, kind);
    }

    fn record_rx(&self, node: NodeId, port: Port, pkt: &Packet) {
        for t in &self.rx_taps[node.0] {
            t.borrow_mut().push(TraceRecord {
                time: self.now,
                node,
                port,
                dir: Dir::Rx,
                pkt: pkt.clone(),
            });
        }
    }

    fn record_tx(&self, node: NodeId, port: Port, pkt: &Packet) {
        for t in &self.tx_taps[node.0] {
            t.borrow_mut().push(TraceRecord {
                time: self.now,
                node,
                port,
                dir: Dir::Tx,
                pkt: pkt.clone(),
            });
        }
    }

    /// Offer `pkt` to the link out of `node`'s `port` at the current
    /// time, and on through every cut-through stage after it; schedule
    /// the delivery at the first node that is not cut through.
    fn do_transmit(&mut self, node: NodeId, port: Port, pkt: Packet) {
        if self.replan {
            self.plan_cuts();
        }
        let (mut node, mut port, mut at) = (node, port, self.now);
        loop {
            let Some(end) = self.links[node.0].get_mut(port.0).and_then(Option::as_mut) else {
                panic!(
                    "node {} ({node:?}) transmitted on unwired port {port:?}",
                    self.names[node.0]
                );
            };
            let arrival = match end.state.offer(at, pkt.wire_len()) {
                Offer::Arrives(t) => t,
                Offer::Dropped => {
                    self.link_drops += 1;
                    return;
                }
            };
            let (peer, peer_port) = end.peer;
            let stage = if end.cut {
                self.nodes[peer.0].as_deref_mut()
            } else {
                None
            };
            let Some(stage) = stage else {
                let slot = self.packets.insert(Parcel {
                    node: peer,
                    port: peer_port,
                    pkt,
                });
                self.push(arrival, EventKind::Deliver(slot));
                return;
            };
            self.stage_passes += 1;
            let (Some(delay), Some(exit)) =
                (stage.stage_pass(peer_port), stage.stage_exit(peer_port))
            else {
                return; // dropped by the stage
            };
            (node, port, at) = (peer, exit, arrival + delay);
        }
    }

    /// Re-mark every link's `cut` flag for the current topology and taps.
    fn plan_cuts(&mut self) {
        self.replan = false;
        for node in 0..self.links.len() {
            for port in 0..self.links[node].len() {
                let cut = match &self.links[node][port] {
                    Some(end) => self.chain_ends_at_sink(end.peer),
                    None => continue,
                };
                if let Some(end) = self.links[node][port].as_mut() {
                    end.cut = cut;
                }
            }
        }
    }

    /// Whether a packet arriving at `at` passes through untapped stages
    /// only and then reaches a sink with one wired port.
    fn chain_ends_at_sink(&self, mut at: (NodeId, Port)) -> bool {
        // Each hop visits a node; a longer chain must loop.
        for _ in 0..self.nodes.len() {
            let (node, port) = at;
            let Some(dev) = self.nodes[node.0].as_deref() else {
                return false;
            };
            if !self.rx_taps[node.0].is_empty() || !self.tx_taps[node.0].is_empty() {
                return false;
            }
            let Some(end) = dev
                .stage_exit(port)
                .and_then(|exit| self.links[node.0].get(exit.0))
                .and_then(Option::as_ref)
            else {
                return false;
            };
            let (next, _) = end.peer;
            if self.is_wired_sink(next) {
                return true;
            }
            at = end.peer;
        }
        false
    }

    fn is_wired_sink(&self, node: NodeId) -> bool {
        self.nodes[node.0].as_deref().is_some_and(|d| d.is_sink())
            && self.links[node.0].iter().flatten().count() == 1
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver(slot) => {
                if let Some(Parcel { node, port, pkt }) = self.packets.take(slot) {
                    self.record_rx(node, port, &pkt);
                    self.invoke(node, |dev, ctx| dev.on_packet(ctx, port, pkt));
                }
            }
            EventKind::Timer { node, token } => {
                self.invoke(node, |dev, ctx| dev.on_timer(ctx, token));
            }
        }
    }

    /// Run one handler on `node`'s device, then carry out its actions
    /// in issue order.
    fn invoke(&mut self, node: NodeId, handler: impl FnOnce(&mut dyn Device, &mut Ctx<'_>)) {
        self.events += 1;
        let mut dev = self.nodes[node.0].take().unwrap_or_else(|| {
            panic!("re-entrant dispatch on node {}", self.names[node.0]);
        });
        let mut actions = std::mem::take(&mut self.scratch);
        handler(
            dev.as_mut(),
            &mut Ctx {
                now: self.now,
                node,
                actions: &mut actions,
            },
        );
        self.nodes[node.0] = Some(dev);
        for act in actions.drain(..) {
            match act {
                Action::Transmit { port, pkt } => {
                    self.record_tx(node, port, &pkt);
                    self.do_transmit(node, port, pkt);
                }
                Action::SetTimer { delay, token } => {
                    let time = self.now + delay;
                    self.push(time, EventKind::Timer { node, token });
                }
            }
        }
        self.scratch = actions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorder_wire::{Ipv4Addr4, PacketBuilder, TcpFlags};

    /// Echoes every packet back out the port it arrived on, with src/dst
    /// swapped.
    struct Echo;
    impl Device for Echo {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
            let mut reply = pkt.clone();
            std::mem::swap(&mut reply.ip.src, &mut reply.ip.dst);
            ctx.transmit(port, reply);
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    /// Collects deliveries.
    struct Sink(Rc<RefCell<Vec<(SimTime, Packet)>>>);
    impl Device for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: Port, pkt: Packet) {
            self.0.borrow_mut().push((ctx.now(), pkt));
        }
        fn name(&self) -> &str {
            "sink"
        }
    }

    /// Emits `n` timers spaced 1 µs apart and records fire order.
    struct TimerBox(Rc<RefCell<Vec<u64>>>);
    impl Device for TimerBox {
        fn on_packet(&mut self, _: &mut Ctx<'_>, _: Port, _: Packet) {}
        fn on_timer(&mut self, _: &mut Ctx<'_>, token: u64) {
            self.0.borrow_mut().push(token);
        }
    }

    fn probe(n: u16) -> Packet {
        PacketBuilder::tcp()
            .src(Ipv4Addr4::new(10, 0, 0, 1), 1000)
            .dst(Ipv4Addr4::new(10, 0, 0, 2), 80)
            .seq(u32::from(n))
            .flags(TcpFlags::ACK)
            .ipid(n)
            .build()
    }

    #[test]
    fn echo_roundtrip_timing() {
        let mut sim = Simulator::new(0);
        let rx = Rc::new(RefCell::new(Vec::new()));
        let sink = sim.add_node(Box::new(Sink(rx.clone())));
        let echo = sim.add_node(Box::new(Echo));
        // 8 Mbit/s = 1 byte/us; 100 us propagation.
        let params = LinkParams {
            bits_per_sec: 8_000_000,
            propagation: Duration::from_micros(100),
            queue_limit: None,
        };
        sim.connect(sink, Port(0), echo, Port(0), params);
        let pkt = probe(1); // 40 bytes
        sim.transmit_from(sink, Port(0), pkt);
        sim.run_until_idle(SimTime::from_secs(1));
        let got = rx.borrow();
        assert_eq!(got.len(), 1);
        // 40us ser + 100us prop each way = 280us total.
        assert_eq!(got[0].0, SimTime::from_micros(280));
        assert_eq!(got[0].1.ip.src, Ipv4Addr4::new(10, 0, 0, 2));
    }

    #[test]
    fn same_time_events_fire_in_insertion_order() {
        let mut sim = Simulator::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        let tb = sim.add_node(Box::new(TimerBox(order.clone())));
        for token in 0..10 {
            sim.schedule_timer(tb, Duration::from_micros(5), token);
        }
        sim.run_until_idle(SimTime::from_secs(1));
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = Simulator::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        let tb = sim.add_node(Box::new(TimerBox(order.clone())));
        sim.schedule_timer(tb, Duration::from_micros(10), 1);
        sim.schedule_timer(tb, Duration::from_micros(30), 2);
        sim.run_until(SimTime::from_micros(20));
        assert_eq!(*order.borrow(), vec![1]);
        assert_eq!(sim.now(), SimTime::from_micros(20));
        sim.run_until(SimTime::from_micros(40));
        assert_eq!(*order.borrow(), vec![1, 2]);
    }

    #[test]
    fn taps_record_both_directions() {
        let mut sim = Simulator::new(0);
        let rxbuf = Rc::new(RefCell::new(Vec::new()));
        let sink = sim.add_node(Box::new(Sink(rxbuf)));
        let echo = sim.add_node(Box::new(Echo));
        sim.connect(sink, Port(0), echo, Port(0), LinkParams::lan());
        let echo_rx = sim.tap_rx(echo);
        let echo_tx = sim.tap_tx(echo);
        sim.transmit_from(sink, Port(0), probe(7));
        sim.run_until_idle(SimTime::from_secs(1));
        assert_eq!(echo_rx.borrow().len(), 1);
        assert_eq!(echo_tx.borrow().len(), 1);
        assert_eq!(echo_rx.borrow()[0].dir, Dir::Rx);
        assert_eq!(echo_tx.borrow()[0].dir, Dir::Tx);
        assert!(echo_tx.borrow()[0].time >= echo_rx.borrow()[0].time);
    }

    #[test]
    #[should_panic(expected = "unwired port")]
    fn transmit_on_unwired_port_panics() {
        let mut sim = Simulator::new(0);
        let n = sim.add_node(Box::new(Echo));
        sim.transmit_from(n, Port(3), probe(1));
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_wiring_panics() {
        let mut sim = Simulator::new(0);
        let a = sim.add_node(Box::new(Echo));
        let b = sim.add_node(Box::new(Echo));
        let c = sim.add_node(Box::new(Echo));
        sim.connect(a, Port(0), b, Port(0), LinkParams::lan());
        sim.connect(a, Port(0), c, Port(0), LinkParams::lan());
    }

    #[test]
    fn reset_sim_is_indistinguishable_from_fresh() {
        // The pooling contract: building the same scenario on a reset
        // simulator yields the exact event stream of a fresh one.
        fn drive(sim: &mut Simulator) -> Vec<(SimTime, u16)> {
            let rx = Rc::new(RefCell::new(Vec::new()));
            let sink = sim.add_node(Box::new(Sink(rx.clone())));
            let echo = sim.add_node(Box::new(Echo));
            sim.connect(sink, Port(0), echo, Port(0), LinkParams::wan());
            let h = sim.tap_rx(echo);
            for i in 0..30 {
                sim.transmit_from(sink, Port(0), probe(i));
            }
            sim.run_until_idle(SimTime::from_secs(5));
            assert_eq!(h.borrow().len(), 30);
            let trace = rx
                .borrow()
                .iter()
                .map(|(t, p)| (*t, p.ip.ident.raw()))
                .collect();
            trace
        }
        let mut fresh = Simulator::new(123);
        let fresh_trace = drive(&mut fresh);
        let fresh_events = fresh.events_processed();

        // Dirty a simulator with an unrelated run (leftover events
        // still queued), then reset and rebuild.
        let mut pooled = Simulator::new(7);
        {
            let rx = Rc::new(RefCell::new(Vec::new()));
            let sink = pooled.add_node(Box::new(Sink(rx)));
            let echo = pooled.add_node(Box::new(Echo));
            pooled.connect(sink, Port(0), echo, Port(0), LinkParams::lan());
            pooled.transmit_from(sink, Port(0), probe(9));
            pooled.run_for(Duration::from_micros(10)); // leave events pending
        }
        pooled.reset(123);
        assert_eq!(pooled.now(), SimTime::ZERO);
        assert_eq!(pooled.events_processed(), 0);
        assert_eq!(pooled.master_seed(), 123);
        let pooled_trace = drive(&mut pooled);
        assert_eq!(pooled_trace, fresh_trace);
        assert_eq!(pooled.events_processed(), fresh_events);
    }

    #[test]
    fn events_processed_counts_dispatches() {
        let mut sim = Simulator::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        let tb = sim.add_node(Box::new(TimerBox(order)));
        for token in 0..7 {
            sim.schedule_timer(tb, Duration::from_micros(token), token);
        }
        sim.run_until_idle(SimTime::from_secs(1));
        assert_eq!(sim.events_processed(), 7);
    }

    /// Lends a device to the simulator while the test keeps a handle
    /// to read its counters; forwards every hook, the stage ones too.
    struct Shared<D>(Rc<RefCell<D>>);
    impl<D: Device> Device for Shared<D> {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, pkt: Packet) {
            self.0.borrow_mut().on_packet(ctx, port, pkt);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            self.0.borrow_mut().on_timer(ctx, token);
        }
        fn stage_exit(&self, port: Port) -> Option<Port> {
            self.0.borrow().stage_exit(port)
        }
        fn stage_pass(&mut self, port: Port) -> Option<Duration> {
            self.0.borrow_mut().stage_pass(port)
        }
        fn is_sink(&self) -> bool {
            self.0.borrow().is_sink()
        }
    }

    /// What the prober saw and what the loss stage counted.
    #[derive(Debug, PartialEq)]
    struct PathRun {
        mailbox: Vec<(SimTime, Port, Packet)>,
        loss_passed: [u64; 2],
        loss_dropped: [u64; 2],
    }

    /// prober (mailbox) — loss — constant jitter — dummynet — echo host,
    /// driven like the prober drives a campaign host: bursts, gaps and
    /// partial runs. `tap_stages` puts a tap on both stages, which keeps
    /// every hop evented.
    fn prober_path(tap_stages: bool) -> (PathRun, Simulator) {
        use crate::mailbox::{drain, Mailbox};
        use crate::pipes::{DelayJitter, DummynetConfig, DummynetReorder, RandomLoss, DOWN, UP};
        let mut sim = Simulator::new(42);
        let (mb, queue) = Mailbox::new();
        let me = sim.add_node(Box::new(mb));
        let loss = Rc::new(RefCell::new(RandomLoss::new(0.2, 0.25, 42, "loss")));
        let l = sim.add_node(Box::new(Shared(loss.clone())));
        let d = Duration::from_micros(700);
        let j = sim.add_node(Box::new(DelayJitter::new(d, d, 42, "jitter")));
        let swaps = DummynetConfig {
            fwd_swap: 0.3,
            rev_swap: 0.3,
            max_hold: Duration::from_millis(5),
        };
        let dn = sim.add_node(Box::new(DummynetReorder::new(swaps, 42, "dn")));
        let host = sim.add_node(Box::new(Echo));
        sim.connect(me, Port(0), l, UP, LinkParams::lan());
        sim.connect(l, DOWN, j, UP, LinkParams::wan());
        sim.connect(j, DOWN, dn, UP, LinkParams::lan());
        sim.connect(
            dn,
            DOWN,
            host,
            Port(0),
            LinkParams::lan().with_rate(10_000_000),
        );
        if tap_stages {
            sim.tap_rx(l);
            sim.tap_tx(j);
        }
        let mut mailbox = Vec::new();
        for i in 0..300u16 {
            sim.transmit_from(me, Port(0), probe(i));
            match i % 7 {
                0 => sim.run_for(Duration::from_micros(u64::from(i % 13) * 40)),
                3 => sim.run_until(sim.next_event_time().unwrap_or(SimTime::ZERO)),
                _ => {}
            }
            mailbox.extend(drain(&queue).into_iter().map(|r| (r.time, r.port, r.pkt)));
        }
        sim.run_until_idle(SimTime::from_secs(10));
        mailbox.extend(drain(&queue).into_iter().map(|r| (r.time, r.port, r.pkt)));
        let loss = loss.borrow();
        let run = PathRun {
            mailbox,
            loss_passed: loss.passed,
            loss_dropped: loss.dropped,
        };
        (run, sim)
    }

    #[test]
    fn cut_through_matches_the_evented_path() {
        let (evented, evented_sim) = prober_path(true);
        let (cut, cut_sim) = prober_path(false);
        assert_eq!(cut, evented);
        // The run exercised drops both ways and reordering on the way
        // back, and the reverse direction was really cut.
        assert!(evented.loss_dropped.iter().all(|&n| n > 0));
        let ids: Vec<u16> = cut.mailbox.iter().map(|r| r.2.ip.ident.raw()).collect();
        assert!(
            ids.windows(2).any(|w| w[0] > w[1]),
            "no reordering: {ids:?}"
        );
        assert_eq!(evented_sim.stage_passes(), 0);
        // Every reverse packet passes the jitter stage, which never
        // drops, and then the loss stage.
        let back = cut.loss_passed[1] + cut.loss_dropped[1];
        assert_eq!(cut_sim.stage_passes(), 2 * back);
        // Each cut packet saves two deliveries and a jitter timer.
        assert_eq!(
            cut_sim.events_processed() + 3 * back,
            evented_sim.events_processed()
        );
        assert_eq!(cut_sim.packets.len(), 0);
    }

    #[test]
    fn chains_not_ending_at_a_one_port_sink_stay_evented() {
        use crate::mailbox::Mailbox;
        use crate::pipes::{Forwarder, DOWN, UP};
        // Forwarder in front of a device that is not a sink.
        let mut sim = Simulator::new(0);
        let rx = Rc::new(RefCell::new(Vec::new()));
        let src = sim.add_node(Box::new(Echo));
        let f = sim.add_node(Box::new(Forwarder::new()));
        let dst = sim.add_node(Box::new(Sink(rx.clone())));
        sim.connect(src, Port(0), f, UP, LinkParams::lan());
        sim.connect(f, DOWN, dst, Port(0), LinkParams::lan());
        for i in 0..5 {
            sim.transmit_from(src, Port(0), probe(i));
        }
        sim.run_until_idle(SimTime::from_secs(1));
        assert_eq!(rx.borrow().len(), 5);
        assert_eq!((sim.stage_passes(), sim.events_processed()), (0, 10));

        // A mailbox with two wired ports is not a sink.
        let mut sim = Simulator::new(0);
        let (mb, queue) = Mailbox::new();
        let src = sim.add_node(Box::new(Echo));
        let f = sim.add_node(Box::new(Forwarder::new()));
        let me = sim.add_node(Box::new(mb));
        let other = sim.add_node(Box::new(Echo));
        sim.connect(src, Port(0), f, UP, LinkParams::lan());
        sim.connect(f, DOWN, me, Port(0), LinkParams::lan());
        sim.connect(me, Port(1), other, Port(0), LinkParams::lan());
        for i in 0..5 {
            sim.transmit_from(src, Port(0), probe(i));
        }
        sim.run_until_idle(SimTime::from_secs(1));
        assert_eq!(queue.borrow().len(), 5);
        assert_eq!(sim.stage_passes(), 0);

        // Unwire the second port (a fresh build) and the chain is cut.
        sim.reset(0);
        let (mb, queue) = Mailbox::new();
        let src = sim.add_node(Box::new(Echo));
        let f = sim.add_node(Box::new(Forwarder::new()));
        let me = sim.add_node(Box::new(mb));
        sim.connect(src, Port(0), f, UP, LinkParams::lan());
        sim.connect(f, DOWN, me, Port(0), LinkParams::lan());
        for i in 0..5 {
            sim.transmit_from(src, Port(0), probe(i));
        }
        sim.run_until_idle(SimTime::from_secs(1));
        assert_eq!(queue.borrow().len(), 5);
        assert_eq!((sim.stage_passes(), sim.events_processed()), (5, 5));
    }

    #[test]
    fn random_delay_jitter_is_never_a_stage() {
        use crate::mailbox::Mailbox;
        use crate::pipes::{DelayJitter, DOWN, UP};
        let (lo, hi) = (Duration::from_micros(10), Duration::from_micros(20));
        let random = DelayJitter::new(lo, hi, 1, "j");
        assert_eq!(
            (random.stage_exit(UP), random.stage_exit(DOWN)),
            (None, None)
        );
        let constant = DelayJitter::new(hi, hi, 1, "j");
        assert_eq!(constant.stage_exit(UP), Some(DOWN));
        assert_eq!(constant.stage_exit(DOWN), Some(UP));
        assert_eq!(constant.stage_exit(Port(2)), None);

        for (jitter, passes) in [(random, 0), (constant, 4)] {
            let mut sim = Simulator::new(1);
            let src = sim.add_node(Box::new(Echo));
            let j = sim.add_node(Box::new(jitter));
            let (mb, queue) = Mailbox::new();
            let me = sim.add_node(Box::new(mb));
            sim.connect(src, Port(0), j, UP, LinkParams::lan());
            sim.connect(j, DOWN, me, Port(0), LinkParams::lan());
            for i in 0..4 {
                sim.transmit_from(src, Port(0), probe(i));
            }
            sim.run_until_idle(SimTime::from_secs(1));
            assert_eq!(queue.borrow().len(), 4);
            assert_eq!(sim.stage_passes(), passes);
        }
    }

    #[test]
    fn packet_slab_empties_after_idle_and_reset() {
        let mut sim = Simulator::new(3);
        let rx = Rc::new(RefCell::new(Vec::new()));
        let sink = sim.add_node(Box::new(Sink(rx)));
        let echo = sim.add_node(Box::new(Echo));
        sim.connect(sink, Port(0), echo, Port(0), LinkParams::wan());
        for i in 0..20 {
            sim.transmit_from(sink, Port(0), probe(i));
        }
        assert_eq!(sim.packets.len(), 20);
        sim.run_until_idle(SimTime::from_secs(5));
        assert_eq!(sim.packets.len(), 0);
        for i in 0..20 {
            sim.transmit_from(sink, Port(0), probe(i));
        }
        sim.run_for(Duration::from_millis(25)); // half-way: echoes in flight
        assert!(sim.packets.len() > 0);
        sim.reset(3);
        assert_eq!((sim.packets.len(), sim.pending_events()), (0, 0));
    }

    #[test]
    fn calendar_entries_are_compact() {
        assert!(std::mem::size_of::<crate::calendar::Entry<EventKind>>() <= 40);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run() -> Vec<(SimTime, u16)> {
            let mut sim = Simulator::new(99);
            let rx = Rc::new(RefCell::new(Vec::new()));
            let sink = sim.add_node(Box::new(Sink(rx.clone())));
            let echo = sim.add_node(Box::new(Echo));
            sim.connect(sink, Port(0), echo, Port(0), LinkParams::wan());
            for i in 0..20 {
                sim.transmit_from(sink, Port(0), probe(i));
            }
            sim.run_until_idle(SimTime::from_secs(5));
            let trace: Vec<(SimTime, u16)> = rx
                .borrow()
                .iter()
                .map(|(t, p)| (*t, p.ip.ident.raw()))
                .collect();
            trace
        }
        assert_eq!(run(), run());
    }
}
