//! The discrete-event engine: nodes, ports, links, timers, taps.
//!
//! # Determinism contract
//!
//! Every experiment in the paper is reproduced from a seed, so a run is
//! a pure function of its topology, its seed and the calls made on the
//! [`Simulator`]. Devices draw randomness only from labeled streams (see
//! [`crate::rng`]), nothing reads the host clock, and events fire in
//! `(time, key)` order. The *key* orders same-instant events by the
//! model, not by the history of when they were scheduled:
//!
//! * timers fire before deliveries;
//! * timers order by node id, then by that node's own timer-issue
//!   count;
//! * deliveries order by link-direction id — wiring order, where
//!   [`Simulator::connect`] wires `a → b` before `b → a` — then by that
//!   direction's offer count.
//!
//! The key packs a class bit, the id and the count into one `u64`.
//! Creating a node or a link asserts that its id fits, and issuing a
//! key asserts that the count fits, so a key never wraps into its
//! neighbour field.
//!
//! # Stages and cut-through
//!
//! Most hops a campaign simulates cross devices that merely drop or
//! delay packets. The engine shortcuts those hops instead of scheduling
//! an event at each.
//!
//! A **stage** is a device whose effect on a packet depends only on the
//! port it arrived on and on earlier packets from that port — never on
//! the clock, on the other direction, or on timers — and which never
//! reorders. It says so through [`Device::stage_exit`] and applies its
//! one decision function through [`Device::stage_pass`].
//! [`crate::pipes::RandomLoss`] and [`crate::pipes::Forwarder`] are
//! stages, [`crate::pipes::DelayJitter`] is one when its delay is
//! constant, and [`crate::pipes::DummynetReorder`] is one for each
//! direction whose swap probability is 0 (it never holds a packet
//! there), while its swapping directions stay evented.
//!
//! A stage's exit link must have one feeder: the stage itself, passing
//! on what one FIFO link brings to one port. That is why distinct ports
//! exit by distinct ports. A device that merges several links onto one
//! exit is not a stage for it, even where it neither drops nor delays:
//! [`crate::pipes::LoadBalancer`]'s return path merges one link per
//! backend onto its upstream link, and the dual test's two connections
//! can pin to different backends. A cut there would offer packets to
//! the upstream link in transmit order, not in arrival order, so that
//! direction stays evented.
//!
//! A link is *cut* when it delivers into an untapped stage. The stage's
//! exit link leads on to the next node; the chain of untapped stages
//! ends at the first node that is not one (any device: a mailbox, a TCP
//! host, a reordering pipe, a tapped stage). On a cut link the engine
//! applies the whole chain at transmit time: each stage decides at the
//! packet's *virtual* arrival time, each onward link is offered the
//! packet at that virtual time, and only the delivery to the chain's
//! end is scheduled. This is exact by construction:
//!
//! * each stage's per-port decisions (and random draws) happen in the
//!   same FIFO order as when evented, because every link on the chain
//!   is FIFO and has one feeder;
//! * each link direction sees the same offers, at the same times, in
//!   the same order, so serialization, queueing and offer counts are
//!   unchanged, and the delivery at the chain's end gets the same time
//!   and the same key;
//! * every other key is a function of per-link offer order and per-node
//!   timer order, and a cut changes neither. The events only the
//!   evented path has (stage deliveries, delay-stage timers) carry the
//!   stage's own link and node ids, so they shift no other event's key.
//!
//! A chain stays evented where a stage has a capture tap (the tap
//! records the hop at its real time), where a device is not a stage for
//! that port (a random [`crate::pipes::DelayJitter`] reorders), and
//! where the chain loops. A cut pass is counted by
//! [`Simulator::stage_passes`], next to the dispatched events of
//! [`Simulator::events_processed`].
//!
//! The one observable a cut moves is [`Simulator::next_event_time`]:
//! an evented chain has events a cut one skips. The prober only steps
//! with it — it runs to the next event and then checks its mailbox — so
//! where it stops is set by mailbox deliveries and deadlines, which a
//! cut does not move.

use crate::capture::{Dir, TraceHandle, TraceRecord};
use crate::link::{LinkParams, LinkState, Offer};
use crate::time::SimTime;
use reorder_wire::Packet;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
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
    /// it, and it never reorders. Distinct ports must exit by distinct
    /// ports. `None` (the default) keeps every arrival evented. Must
    /// not change once the device is wired.
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
    actions: &'a mut Vec<Action>,
}

impl Ctx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
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

/// Bits of an event key holding the per-node timer count or the
/// per-link offer count.
const COUNT_BITS: u32 = 40;
/// The largest count a key can hold.
const MAX_COUNT: u64 = (1 << COUNT_BITS) - 1;
/// The largest node or link-direction id a key can hold: ids sit
/// between the count and the class bit.
const MAX_ID: usize = (1 << (63 - COUNT_BITS)) - 1;
/// The class bit, set on deliveries so that timers fire first.
const DELIVERY: u64 = 1 << 63;

/// Panics unless a `what` id fits its event-key field. Called where
/// nodes and link directions are created.
fn check_id(id: usize, what: &str) {
    assert!(id <= MAX_ID, "{what} id {id} overflows the event key");
}

/// `id` placed in the id field of an event key.
fn id_field(id: usize) -> u64 {
    (id as u64) << COUNT_BITS
}

/// The key of the next event counted by `count`, under `base`.
fn next_key(base: u64, count: &mut u64) -> u64 {
    assert!(*count <= MAX_COUNT, "event count overflows the event key");
    let key = base | *count;
    *count += 1;
    key
}

/// An event's payload. Deliveries name a [`PacketSlab`] slot rather
/// than carrying the packet, so a queue entry stays 40 bytes.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Deliver(usize),
    Timer { node: NodeId, token: u64 },
}

/// A queued event. Keys are unique, so entries order by `(time, key)`
/// and `kind` never decides.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    time: SimTime,
    key: u64,
    kind: EventKind,
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
/// Hot-path layout: events live in a binary heap as small entries whose
/// packets wait in a slab; links, taps and timer counts are dense
/// per-node tables indexed by `NodeId`/`Port`, so the per-event path
/// does no hashing. Cut links (see the module docs) are marked once per
/// topology change. [`Simulator::reset`] recycles every allocation for
/// the next run — the pooling fast path campaign workers ride.
pub struct Simulator {
    now: SimTime,
    master_seed: u64,
    nodes: Vec<Option<Box<dyn Device>>>,
    names: Vec<String>,
    /// `links[node][port]` — dense, grown by `connect_asym`.
    links: Vec<Vec<Option<LinkEndpoint>>>,
    /// Link directions wired so far; the next one's id.
    link_dirs: usize,
    queue: BinaryHeap<Reverse<Entry>>,
    packets: PacketSlab,
    /// `timers[node]` — timers the node has issued, its key count.
    timers: Vec<u64>,
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
    /// The delivery class and this direction's id, for event keys.
    key_base: u64,
    /// Packets offered to this direction so far, the key count.
    offers: u64,
    /// The peer is an untapped stage: apply the chain from it at
    /// transmit time instead of scheduling a delivery to it.
    cut: bool,
}

impl Simulator {
    /// Create a simulator whose stochastic devices will derive their
    /// random streams from `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            master_seed,
            nodes: Vec::new(),
            names: Vec::new(),
            links: Vec::new(),
            link_dirs: 0,
            queue: BinaryHeap::new(),
            packets: PacketSlab::default(),
            timers: Vec::new(),
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
    /// master seed, retaining every allocation (event heap, packet
    /// slab, node/link/tap tables, scratch). A reset simulator is
    /// indistinguishable from `Simulator::new(seed)` to everything
    /// built on it — the pooled-construction determinism tests assert
    /// byte-identical campaign output — but skips the allocator.
    pub fn reset(&mut self, master_seed: u64) {
        self.now = SimTime::ZERO;
        self.master_seed = master_seed;
        self.nodes.clear();
        self.names.clear();
        self.links.clear();
        self.link_dirs = 0;
        self.queue.clear();
        self.packets.clear();
        self.timers.clear();
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
    #[cfg(test)]
    pub(crate) fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// The master seed (devices use it with [`crate::rng::stream`]).
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Add a device; returns its id. Panics if the id does not fit an
    /// event key.
    pub fn add_node(&mut self, device: Box<dyn Device>) -> NodeId {
        let id = NodeId(self.nodes.len());
        check_id(id.0, "node");
        self.names.push(device.name().to_string());
        self.nodes.push(Some(device));
        self.links.push(Vec::new());
        self.timers.push(0);
        self.rx_taps.push(Vec::new());
        self.tx_taps.push(Vec::new());
        self.replan = true;
        id
    }

    /// Connect `a`'s port `pa` to `b`'s port `pb` with symmetric link
    /// parameters. Panics if either port is already wired.
    pub fn connect(&mut self, a: NodeId, pa: Port, b: NodeId, pb: Port, params: LinkParams) {
        self.connect_asym(a, pa, b, pb, params, params);
    }

    /// Connect with distinct parameters per direction (`ab` applies to
    /// packets from `a` to `b`, and is wired first).
    pub(crate) fn connect_asym(
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
        check_id(self.link_dirs, "link direction");
        let key_base = DELIVERY | id_field(self.link_dirs);
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
            key_base,
            offers: 0,
            cut: false,
        });
        self.link_dirs += 1;
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
    pub(crate) fn schedule_timer(&mut self, node: NodeId, delay: Duration, token: u64) {
        let key = next_key(id_field(node.0), &mut self.timers[node.0]);
        self.push(self.now + delay, key, EventKind::Timer { node, token });
    }

    /// Time of the next pending event, if any. Its value depends on
    /// which hops are evented (see the module docs), so step with it
    /// only toward an observation that a cut does not move, as the
    /// prober does with its mailbox.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(e)| e.time)
    }

    /// Run until the queue is empty or the next event lies beyond
    /// `horizon`; the clock then advances to `horizon` (so repeated calls
    /// make steady progress even with no traffic).
    pub fn run_until(&mut self, horizon: SimTime) {
        while let Some(Entry { time, kind, .. }) = self.pop_due(horizon) {
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

    /// Take the first queued event, if it is due by `horizon`.
    fn pop_due(&mut self, horizon: SimTime) -> Option<Entry> {
        let top = self.queue.peek_mut()?;
        if top.0.time > horizon {
            return None;
        }
        Some(PeekMut::pop(top).0)
    }

    fn push(&mut self, time: SimTime, key: u64, kind: EventKind) {
        self.queue.push(Reverse(Entry { time, key, kind }));
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
            let key = next_key(end.key_base, &mut end.offers);
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
                self.push(arrival, key, EventKind::Deliver(slot));
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
                    Some(end) => self.cuts_through(end.peer),
                    None => continue,
                };
                if let Some(end) = self.links[node][port].as_mut() {
                    end.cut = cut;
                }
            }
        }
    }

    /// Whether a packet arriving at `at` enters a chain of untapped
    /// stages that ends, without looping, at a node that is not one.
    fn cuts_through(&self, mut at: (NodeId, Port)) -> bool {
        // Each hop crosses a link direction; a longer chain must loop.
        for hops in 0..=self.link_dirs {
            match self.stage_hop(at) {
                Some(next) => at = next,
                None => return hops > 0,
            }
        }
        false
    }

    /// Where a packet arriving at `at` goes next, when `at`'s node is an
    /// untapped stage for that port and its exit is wired.
    fn stage_hop(&self, (node, port): (NodeId, Port)) -> Option<(NodeId, Port)> {
        if !self.rx_taps[node.0].is_empty() || !self.tx_taps[node.0].is_empty() {
            return None;
        }
        let exit = self.nodes[node.0].as_deref()?.stage_exit(port)?;
        Some(self.links[node.0].get(exit.0)?.as_ref()?.peer)
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
                Action::SetTimer { delay, token } => self.schedule_timer(node, delay, token),
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

    /// `(instant, node tag, "packet" or "timer", port or token)`.
    type EventLog = Rc<RefCell<Vec<(SimTime, u8, &'static str, u64)>>>;

    /// Logs every event it handles into a log shared by all nodes.
    struct Logger {
        tag: u8,
        log: EventLog,
    }
    impl Device for Logger {
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, port: Port, _: Packet) {
            let entry = (ctx.now(), self.tag, "packet", port.0 as u64);
            self.log.borrow_mut().push(entry);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let entry = (ctx.now(), self.tag, "timer", token);
            self.log.borrow_mut().push(entry);
        }
    }

    /// 8 Mbit/s (1 byte/µs) and 100 µs: a 40-byte probe lands 140 µs
    /// after it is sent.
    fn slow_link() -> LinkParams {
        LinkParams {
            bits_per_sec: 8_000_000,
            propagation: Duration::from_micros(100),
            queue_limit: None,
        }
    }

    #[test]
    fn a_timer_fires_before_a_delivery_at_the_same_instant() {
        let mut sim = Simulator::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let src = sim.add_node(Box::new(Echo));
        let x = sim.add_node(Box::new(Logger {
            tag: 1,
            log: log.clone(),
        }));
        sim.connect(src, Port(0), x, Port(0), slow_link());
        // The delivery is scheduled first; the timer still wins the tie.
        sim.transmit_from(src, Port(0), probe(1));
        sim.schedule_timer(x, Duration::from_micros(140), 7);
        sim.run_until_idle(SimTime::from_secs(1));
        let at = SimTime::from_micros(140);
        assert_eq!(*log.borrow(), [(at, 1, "timer", 7), (at, 1, "packet", 0)]);
    }

    #[test]
    fn same_instant_deliveries_order_by_link_wiring() {
        let mut sim = Simulator::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let a = sim.add_node(Box::new(Echo));
        let b = sim.add_node(Box::new(Echo));
        let x = sim.add_node(Box::new(Logger {
            tag: 1,
            log: log.clone(),
        }));
        sim.connect(a, Port(0), x, Port(0), slow_link());
        sim.connect(b, Port(0), x, Port(1), slow_link());
        // `b` sends first, but `a`'s link was wired first.
        sim.transmit_from(b, Port(0), probe(2));
        sim.transmit_from(a, Port(0), probe(1));
        sim.run_until_idle(SimTime::from_secs(1));
        let at = SimTime::from_micros(140);
        assert_eq!(*log.borrow(), [(at, 1, "packet", 0), (at, 1, "packet", 1)]);
    }

    #[test]
    fn same_instant_timers_order_by_node_then_issue() {
        let mut sim = Simulator::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let x = sim.add_node(Box::new(Logger {
            tag: 0,
            log: log.clone(),
        }));
        let y = sim.add_node(Box::new(Logger {
            tag: 1,
            log: log.clone(),
        }));
        let d = Duration::from_micros(5);
        for (node, token) in [(y, 0), (x, 1), (y, 2), (x, 3)] {
            sim.schedule_timer(node, d, token);
        }
        sim.run_until_idle(SimTime::from_secs(1));
        let fired: Vec<(u8, u64)> = log.borrow().iter().map(|e| (e.1, e.3)).collect();
        assert_eq!(fired, [(0, 1), (0, 3), (1, 0), (1, 2)]);
    }

    #[test]
    fn event_keys_pack_within_their_fields() {
        // The largest id and count fill their fields exactly: every
        // timer key sorts below every delivery key, and ids never
        // overlap counts.
        let top_timer = id_field(MAX_ID) | MAX_COUNT;
        assert_eq!(top_timer, DELIVERY - 1);
        assert_eq!(DELIVERY | top_timer, u64::MAX);
        assert!(id_field(1) > id_field(0) | MAX_COUNT);
        check_id(MAX_ID, "node");
        let mut count = MAX_COUNT;
        assert_eq!(next_key(DELIVERY, &mut count), DELIVERY | MAX_COUNT);
    }

    #[test]
    #[should_panic(expected = "overflows the event key")]
    fn ids_beyond_their_key_field_panic() {
        check_id(MAX_ID + 1, "link direction");
    }

    #[test]
    #[should_panic(expected = "overflows the event key")]
    fn counts_beyond_their_key_field_panic() {
        let mut count = MAX_COUNT + 1;
        next_key(0, &mut count);
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
    }

    fn lend<D: Device + 'static>(sim: &mut Simulator, dev: D) -> (NodeId, Rc<RefCell<D>>) {
        let dev = Rc::new(RefCell::new(dev));
        (sim.add_node(Box::new(Shared(dev.clone()))), dev)
    }

    /// Reads a lent device's counters after a run.
    type Counters = Box<dyn Fn() -> Vec<u64>>;

    /// The device behind the loss and delay stages of [`path_run`].
    #[derive(Debug, Clone, Copy)]
    enum Mech {
        Dummynet,
        Striping,
        Multipath,
        Arq {
            stalling: bool,
        },
        /// Dummynet, then a 2-backend per-flow balancer.
        Balancer,
        /// Dummynet, with a fault gate in front of the loss stage.
        FaultGate,
    }

    fn add_mechanism(sim: &mut Simulator, mech: Mech) -> (NodeId, Counters) {
        use crate::pipes::*;
        match mech {
            Mech::Dummynet | Mech::Balancer | Mech::FaultGate => {
                let swaps = DummynetConfig {
                    fwd_swap: 0.3,
                    rev_swap: 0.3,
                    max_hold: Duration::from_millis(5),
                };
                let (n, d) = lend(sim, DummynetReorder::new(swaps, 42, "dn"));
                let d = move || {
                    let d = d.borrow();
                    vec![
                        d.swaps(0),
                        d.swaps(1),
                        d.hold_timeouts(0),
                        d.hold_timeouts(1),
                    ]
                };
                (n, Box::new(d))
            }
            Mech::Striping => {
                let cross = Some(CrossTraffic::backbone());
                let model = CrossTrafficModel::Stationary;
                let s = StripingLink::new(2, 1_000_000_000, cross, model, 42, "stripe");
                let (n, s) = lend(sim, s);
                (n, Box::new(move || vec![s.borrow().queued_probes]))
            }
            Mech::Multipath => {
                let delays = vec![Duration::from_micros(100), Duration::from_micros(180)];
                let m = MultipathRoute::with_seed(SplitMode::Random, delays, 42, "mp");
                let (n, m) = lend(sim, m);
                (n, Box::new(move || m.borrow().per_route.clone()))
            }
            Mech::Arq { stalling } => {
                let cfg = ArqConfig {
                    frame_error: 0.3,
                    in_order_delivery: stalling,
                    ..ArqConfig::default()
                };
                let (n, a) = lend(sim, WirelessArq::new(cfg, 42, "arq"));
                let a = move || {
                    let a = a.borrow();
                    [a.retries, a.drops].concat()
                };
                (n, Box::new(a))
            }
        }
    }

    /// What the prober saw and what the devices counted.
    #[derive(Debug, PartialEq)]
    struct PathRun {
        mailbox: Vec<(SimTime, Port, Packet)>,
        loss_passed: [u64; 2],
        loss_dropped: [u64; 2],
        counters: Vec<u64>,
        /// Instants at which the mechanism sent one packet while
        /// another arrived: same-nanosecond ties at a stateful device.
        ties: usize,
    }

    /// Step the way the prober waits for a reply: to the next event,
    /// then check the mailbox, until something arrived or `timeout`
    /// passed.
    fn wait_for_mail(sim: &mut Simulator, queue: &crate::MailboxQueue, timeout: Duration) {
        let deadline = sim.now() + timeout;
        while queue.borrow().is_empty() {
            match sim.next_event_time() {
                Some(t) if t <= deadline => sim.run_until(t),
                _ => return sim.run_until(deadline),
            }
        }
    }

    /// [`probe`] on one of four flows, so that a balancer spreads them
    /// over its backends.
    fn flow_probe(n: u16) -> Packet {
        PacketBuilder::tcp()
            .src(Ipv4Addr4::new(10, 0, 0, 1), 1000 + n % 4)
            .dst(Ipv4Addr4::new(10, 0, 0, 2), 80)
            .seq(u32::from(n))
            .flags(TcpFlags::ACK)
            .ipid(n)
            .build()
    }

    /// prober (mailbox) — [fault gate] — loss — constant delay —
    /// mechanism — [balancer] — echo host(s), driven the way the prober
    /// drives a campaign host: probes `spacing` apart, waits for replies,
    /// fixed pauses and mailbox drains. `evented` taps both stages,
    /// which keeps every hop evented.
    fn path_run(mech: Mech, spacing: Duration, evented: bool) -> (PathRun, Simulator) {
        use crate::mailbox::{drain, Mailbox};
        use crate::pipes::{
            BalanceMode, DelayJitter, FaultClass, FaultGate, LoadBalancer, RandomLoss, DOWN, UP,
        };
        let mut sim = Simulator::new(42);
        let (mb, queue) = Mailbox::new();
        let me = sim.add_node(Box::new(mb));
        let (l, loss) = lend(&mut sim, RandomLoss::new(0.2, 0.25, 42, "loss"));
        let d = Duration::from_micros(700);
        let j = sim.add_node(Box::new(DelayJitter::new(d, d, 42, "jitter")));
        let (m, mech_counters) = add_mechanism(&mut sim, mech);
        let mut counters = vec![mech_counters];
        if let Mech::FaultGate = mech {
            let heavy = FaultClass::HeavyLoss { rate: 0.2 };
            let (g, gate) = lend(&mut sim, FaultGate::new(heavy, 42, "fault"));
            sim.connect(me, Port(0), g, UP, LinkParams::lan());
            sim.connect(g, DOWN, l, UP, LinkParams::lan());
            counters.push(Box::new(move || {
                let g = gate.borrow();
                [g.dropped.as_slice(), &[g.rejected]].concat()
            }));
        } else {
            sim.connect(me, Port(0), l, UP, LinkParams::lan());
        }
        sim.connect(l, DOWN, j, UP, LinkParams::wan());
        sim.connect(j, DOWN, m, UP, LinkParams::lan());
        let host_link = LinkParams::lan().with_rate(10_000_000);
        if let Mech::Balancer = mech {
            let (lb, bal) = lend(&mut sim, LoadBalancer::new(BalanceMode::PerFlow, 2));
            sim.connect(m, DOWN, lb, Port(0), LinkParams::lan());
            for b in 0..2 {
                let host = sim.add_node(Box::new(Echo));
                sim.connect(lb, Port(1 + b), host, Port(0), host_link);
            }
            counters.push(Box::new(move || bal.borrow().per_backend.clone()));
        } else {
            let host = sim.add_node(Box::new(Echo));
            sim.connect(m, DOWN, host, Port(0), host_link);
        }
        // Taps on a device that is not a stage never change the cuts.
        let (mech_rx, mech_tx) = (sim.tap_rx(m), sim.tap_tx(m));
        if evented {
            sim.tap_rx(l);
            sim.tap_tx(j);
        }
        let mut mailbox = Vec::new();
        for i in 0..300u16 {
            sim.transmit_from(me, Port(0), flow_probe(i));
            sim.run_for(spacing);
            match i % 10 {
                3 => wait_for_mail(&mut sim, &queue, Duration::from_millis(20)),
                7 => sim.run_for(Duration::from_micros(u64::from(i % 13) * 40)),
                _ => {}
            }
            mailbox.extend(drain(&queue).into_iter().map(|r| (r.time, r.port, r.pkt)));
        }
        sim.run_until_idle(SimTime::from_secs(10));
        mailbox.extend(drain(&queue).into_iter().map(|r| (r.time, r.port, r.pkt)));
        let ties = mech_tx
            .borrow()
            .iter()
            .filter(|tx| {
                mech_rx
                    .borrow()
                    .iter()
                    .any(|rx| rx.time == tx.time && rx.pkt.ip.ident != tx.pkt.ip.ident)
            })
            .count();
        let loss = loss.borrow();
        let run = PathRun {
            mailbox,
            loss_passed: loss.passed,
            loss_dropped: loss.dropped,
            counters: counters.iter().flat_map(|c| c()).collect(),
            ties,
        };
        (run, sim)
    }

    /// Runs `mech` cut and evented at probe spacings 0 and 300 µs (the
    /// ARQ retry delay) and asserts both saw exactly the same; returns
    /// the ties seen at each spacing.
    fn assert_cut_is_exact(mech: Mech) -> Vec<usize> {
        let mut ties = Vec::new();
        for spacing in [Duration::ZERO, Duration::from_micros(300)] {
            let (evented, evented_sim) = path_run(mech, spacing, true);
            let (cut, cut_sim) = path_run(mech, spacing, false);
            assert_eq!(cut, evented, "{mech:?} at spacing {spacing:?}");
            assert!(!cut.mailbox.is_empty(), "{mech:?}: nothing came back");
            assert_eq!(evented_sim.stage_passes(), 0);
            assert!(cut_sim.stage_passes() > 0);
            assert!(cut_sim.events_processed() < evented_sim.events_processed());
            assert_eq!(cut_sim.packets.len(), 0);
            ties.push(cut.ties);
        }
        ties
    }

    #[test]
    fn cut_through_matches_the_evented_path() {
        let (evented, evented_sim) = path_run(Mech::Dummynet, Duration::ZERO, true);
        let (cut, cut_sim) = path_run(Mech::Dummynet, Duration::ZERO, false);
        assert_eq!(cut, evented);
        // The run exercised drops both ways and reordering on the way
        // back, and both directions were really cut.
        assert!(evented.loss_dropped.iter().all(|&n| n > 0));
        let ids: Vec<u16> = cut.mailbox.iter().map(|r| r.2.ip.ident.raw()).collect();
        assert!(
            ids.windows(2).any(|w| w[0] > w[1]),
            "no reordering: {ids:?}"
        );
        assert_eq!(evented_sim.stage_passes(), 0);
        // Forward, every probe passes the loss stage and the survivors
        // the delay stage; back, every packet passes the delay stage,
        // which never drops, and then the loss stage.
        let fwd = cut.loss_passed[0] + cut.loss_dropped[0];
        let back = cut.loss_passed[1] + cut.loss_dropped[1];
        assert_eq!(fwd, 300);
        assert_eq!(cut_sim.stage_passes(), fwd + cut.loss_passed[0] + 2 * back);
        // Each stage pass saves a delivery, and each delay-stage pass a
        // timer too.
        assert_eq!(
            cut_sim.events_processed() + fwd + 2 * cut.loss_passed[0] + 3 * back,
            evented_sim.events_processed()
        );
        assert_eq!(cut_sim.packets.len(), 0);
    }

    #[test]
    fn cut_is_exact_behind_dummynet() {
        assert_cut_is_exact(Mech::Dummynet);
    }

    #[test]
    fn cut_is_exact_behind_striping() {
        assert_cut_is_exact(Mech::Striping);
    }

    #[test]
    fn cut_is_exact_behind_multipath() {
        assert_cut_is_exact(Mech::Multipath);
    }

    #[test]
    fn cut_is_exact_behind_selective_repeat_arq() {
        let ties = assert_cut_is_exact(Mech::Arq { stalling: false });
        assert!(ties[1] > 0, "no same-instant tie at the ARQ");
    }

    #[test]
    fn cut_is_exact_behind_stalling_arq() {
        let ties = assert_cut_is_exact(Mech::Arq { stalling: true });
        assert!(ties[1] > 0, "no same-instant tie at the ARQ");
    }

    #[test]
    fn cut_is_exact_behind_a_balancer() {
        assert_cut_is_exact(Mech::Balancer);
    }

    #[test]
    fn cut_is_exact_behind_a_fault_gate() {
        assert_cut_is_exact(Mech::FaultGate);
    }

    /// What the prober saw and the dummynet's swap and hold-timeout
    /// counters, per direction.
    type DummynetRun = (Vec<(SimTime, Port, Packet)>, [u64; 4]);

    /// prober (mailbox) — dummynet swapping `fwd` and `rev` — echo
    /// host, with the dummynet untapped (each zero direction is cut) or
    /// tapped (every hop evented). Probes go `spacing` apart, with
    /// mailbox waits and pauses past the hold timeout.
    fn one_way_dummynet_run(
        fwd: f64,
        rev: f64,
        spacing: Duration,
        tapped: bool,
    ) -> (DummynetRun, Simulator) {
        use crate::mailbox::{drain, Mailbox};
        use crate::pipes::{DummynetConfig, DummynetReorder, DOWN, UP};
        let mut sim = Simulator::new(9);
        let (mb, queue) = Mailbox::new();
        let me = sim.add_node(Box::new(mb));
        let cfg = DummynetConfig {
            fwd_swap: fwd,
            rev_swap: rev,
            max_hold: Duration::from_millis(5),
        };
        let (dn, d) = lend(&mut sim, DummynetReorder::new(cfg, 9, "dn"));
        let host = sim.add_node(Box::new(Echo));
        sim.connect(me, Port(0), dn, UP, LinkParams::wan());
        sim.connect(dn, DOWN, host, Port(0), LinkParams::lan());
        if tapped {
            sim.tap_rx(dn);
        }
        let mut mailbox = Vec::new();
        for i in 0..300u16 {
            sim.transmit_from(me, Port(0), probe(i));
            sim.run_for(spacing);
            match i % 10 {
                3 => wait_for_mail(&mut sim, &queue, Duration::from_millis(20)),
                7 => sim.run_for(Duration::from_millis(u64::from(i % 3) * 4)),
                _ => {}
            }
            mailbox.extend(drain(&queue).into_iter().map(|r| (r.time, r.port, r.pkt)));
        }
        sim.run_until_idle(SimTime::from_secs(10));
        mailbox.extend(drain(&queue).into_iter().map(|r| (r.time, r.port, r.pkt)));
        let d = d.borrow();
        let counters = [
            d.swaps(0),
            d.swaps(1),
            d.hold_timeouts(0),
            d.hold_timeouts(1),
        ];
        ((mailbox, counters), sim)
    }

    #[test]
    fn dummynet_cuts_only_its_zero_direction() {
        use crate::pipes::{DummynetConfig, DummynetReorder, DOWN, UP};
        let one_way = |fwd_swap, rev_swap| {
            let cfg = DummynetConfig {
                fwd_swap,
                rev_swap,
                ..DummynetConfig::default()
            };
            let d = DummynetReorder::new(cfg, 0, "d");
            (d.stage_exit(UP), d.stage_exit(DOWN), d.stage_exit(Port(2)))
        };
        assert_eq!(one_way(0.3, 0.0), (None, Some(UP), None));
        assert_eq!(one_way(0.0, 0.3), (Some(DOWN), None, None));
        assert_eq!(one_way(0.0, 0.0), (Some(DOWN), Some(UP), None));
        assert_eq!(one_way(1.0, 0.3), (None, None, None));

        for (fwd, rev) in [(0.3, 0.0), (0.0, 0.3)] {
            for spacing in [Duration::ZERO, Duration::from_micros(300)] {
                let what = format!("fwd {fwd}, rev {rev}, spacing {spacing:?}");
                let (evented, evented_sim) = one_way_dummynet_run(fwd, rev, spacing, true);
                let (cut, cut_sim) = one_way_dummynet_run(fwd, rev, spacing, false);
                assert_eq!(cut, evented, "{what}");
                let (mailbox, counters) = cut;
                // The swapping direction both swapped and timed out.
                let dir = usize::from(rev > 0.0);
                let [swaps, timeouts] = [counters[dir], counters[2 + dir]];
                assert!(swaps > 0 && timeouts > 0, "{what}: {counters:?}");
                // Every probe comes back; each crossed the zero
                // direction once, as one stage pass that saved one
                // delivery. The tapped pipe was never cut.
                assert_eq!(mailbox.len(), 300, "{what}");
                assert_eq!(cut_sim.stage_passes(), 300, "{what}");
                assert_eq!(evented_sim.stage_passes(), 0, "{what}");
                assert_eq!(
                    cut_sim.events_processed() + 300,
                    evented_sim.events_processed(),
                    "{what}"
                );
                assert_eq!(cut_sim.packets.len(), 0);
            }
        }
    }

    #[test]
    fn tapped_stages_random_jitter_and_loops_stay_evented() {
        use crate::pipes::{DelayJitter, Forwarder, DOWN, UP};
        // src — stage — x, with the stage untapped, tapped, or random.
        let run = |stage: Box<dyn Device>, tap: bool| {
            let mut sim = Simulator::new(0);
            let rx = Rc::new(RefCell::new(Vec::new()));
            let src = sim.add_node(Box::new(Echo));
            let s = sim.add_node(stage);
            let x = sim.add_node(Box::new(Sink(rx.clone())));
            sim.connect(src, Port(0), s, UP, LinkParams::lan());
            sim.connect(s, DOWN, x, Port(0), LinkParams::lan());
            if tap {
                sim.tap_rx(s);
            }
            for i in 0..5 {
                sim.transmit_from(src, Port(0), probe(i));
            }
            sim.run_until_idle(SimTime::from_secs(1));
            assert_eq!(rx.borrow().len(), 5);
            (sim.stage_passes(), sim.events_processed())
        };
        // A chain may end at any device, not only a mailbox.
        assert_eq!(run(Box::new(Forwarder::new()), false), (5, 5));
        assert_eq!(run(Box::new(Forwarder::new()), true), (0, 10));
        let (lo, hi) = (Duration::from_micros(10), Duration::from_micros(20));
        let random = DelayJitter::new(lo, hi, 1, "j");
        assert_eq!(run(Box::new(random), false), (0, 15));

        // Two forwarders wired in a ring: the chain loops, so each hop
        // stays an event and the packet keeps circling.
        let mut sim = Simulator::new(0);
        let f1 = sim.add_node(Box::new(Forwarder::new()));
        let f2 = sim.add_node(Box::new(Forwarder::new()));
        sim.connect(f1, DOWN, f2, UP, LinkParams::lan());
        sim.connect(f2, DOWN, f1, UP, LinkParams::lan());
        sim.transmit_from(f1, DOWN, probe(0));
        sim.run_for(Duration::from_millis(1));
        assert_eq!(sim.stage_passes(), 0);
        assert!(sim.events_processed() > 10);
        assert_eq!(sim.pending_events(), 1);
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
        assert!(std::mem::size_of::<Reverse<Entry>>() <= 40);
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
