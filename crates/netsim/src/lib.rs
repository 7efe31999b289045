//! # reorder-netsim
//!
//! A deterministic discrete-event network simulator — the substrate on
//! which the measurement techniques of *Measuring Packet Reordering*
//! (Bellardo & Savage, IMC 2002) are reproduced.
//!
//! The authors validated their tools against a FreeBSD router running a
//! modified dummynet and then probed live Internet hosts. This crate
//! supplies simulated equivalents of both environments:
//!
//! * an event engine with nanosecond resolution and strict determinism
//!   ([`Simulator`], [`Device`], [`SimTime`]),
//! * point-to-point links with bandwidth-derived serialization delay and
//!   propagation delay ([`LinkParams`]) — serialization delay is the
//!   mechanism behind the paper's §IV-C time-domain observations,
//! * in-path pipes: the modified-dummynet adjacent-swap reorderer, a
//!   per-packet striping link with Poisson cross traffic (the physical
//!   reordering model of §IV-C), a transparent per-flow load balancer
//!   (the Dual Connection Test's nemesis), random loss and jitter
//!   ([`pipes`]),
//! * capture taps providing the ground-truth traces of §IV-A
//!   ([`capture`]),
//! * a [`Mailbox`] endpoint that lets measurement code outside the event
//!   loop inject and collect raw packets, playing the role of the
//!   paper's packet-filter-based user-level probing (sting).
//!
//! Everything stochastic draws from labeled RNG streams derived from one
//! master seed ([`rng`]), so every experiment is exactly reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod engine;
pub mod link;
pub mod mailbox;
pub mod pcap;
pub mod pipes;
pub mod rng;
pub mod time;

pub use capture::{Dir, Trace, TraceHandle, TraceRecord};
pub use engine::{Ctx, Device, NodeId, Port, Simulator};
pub use link::LinkParams;
pub use mailbox::{drain, Mailbox, MailboxQueue, RxPacket};
pub use time::{serialization_delay, SimTime};
