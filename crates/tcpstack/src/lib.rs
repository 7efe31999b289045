//! # reorder-tcpstack
//!
//! Miniature TCP/IP endpoints with configurable **OS personalities** —
//! the simulated stand-ins for the live Internet hosts probed in
//! *Measuring Packet Reordering* (Bellardo & Savage, IMC 2002).
//!
//! The measurement techniques in `reorder-core` interrogate only
//! documented TCP/IP behaviors; this crate implements exactly those
//! behaviors, plus every implementation variation the paper names as a
//! complication:
//!
//! * IPID generation disciplines ([`IpidScheme`]): traditional global
//!   counter, Solaris per-destination counters, OpenBSD random values,
//!   Linux-2.4 constant zero;
//! * second-SYN responses ([`SecondSynBehavior`]): always-RST,
//!   spec-compliant RST/ACK, dual RST, silence;
//! * delayed acknowledgments ([`DelayedAck`]) with immediate ACKs for
//!   out-of-order data and configurable hole-fill behavior;
//! * a window/MSS-honoring object server for the Data Transfer Test.
//!
//! [`TcpHost`] packages a personality as a [`reorder_netsim::Device`];
//! [`Conn`] is the pure per-connection state machine underneath it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conn;
pub mod host;
pub mod ipid_gen;
pub mod personality;
pub mod reasm;

pub use conn::{Conn, ConnCfg, ConnState, SegmentOut, TimerReq};
pub use host::{TcpHost, TcpHostConfig};
pub use personality::{DelayedAck, HostPersonality, IpidScheme, SecondSynBehavior};
pub use reasm::ReasmQueue;
