//! # reorder-core
//!
//! A faithful reimplementation of the single-ended packet-reordering
//! measurement techniques of **"Measuring Packet Reordering"**
//! (J. Bellardo & S. Savage, IMC 2002), running against the
//! deterministic network simulator in `reorder-netsim` and the
//! personality-rich TCP endpoints in `reorder-tcpstack`.
//!
//! ## The techniques
//!
//! All four estimate *one-way* reordering between a probe host and an
//! arbitrary TCP server, with no software on the remote end:
//!
//! * [`techniques::SingleConnectionTest`] (§III-B) — a sequence hole
//!   plus two straddling 1-byte segments; the ACK pattern encodes both
//!   directions. The reversed variant defeats delayed ACKs.
//! * [`techniques::DualConnectionTest`] (§III-C) — two connections, one
//!   out-of-order probe each; the remote's global IPID counter
//!   timestamps the replies. [`techniques::IpidValidator`] rejects
//!   hosts with random/zero IPIDs or load-balanced connection splits.
//! * [`techniques::SynTest`] (§III-D) — pairs of SYNs differing only in
//!   sequence number; immune to per-flow load balancers.
//! * [`techniques::DataTransferTest`] (§III-E) — the baseline: watch a
//!   clamped HTTP transfer's sequence numbers (reverse path only).
//!
//! ## The metric
//!
//! The probability that a pair of test packets is *exchanged*, reported
//! per direction and — the paper's key generalization — as a function
//! of the inter-packet gap ([`metrics::GapProfile`], §IV-C).
//!
//! ## Quick start
//!
//! Every technique sits behind the [`measurer::Technique`] trait;
//! dispatch goes through [`measurer::technique`] (or the full
//! [`measurer::registry`]), keyed by [`TestKind`] — which parses from
//! and prints as its command-line spelling. A [`measurer::Session`]
//! holds the conversation with one target, and the [`Measurer`]
//! builder runs one technique on it and summarizes the run as a
//! [`Measurement`] report:
//!
//! ```
//! use reorder_core::{Measurer, Session, TestConfig, TestKind};
//! use reorder_core::scenario;
//!
//! // A controlled path that swaps 10% of adjacent forward pairs.
//! let mut sc = scenario::validation_rig(0.10, 0.0, 42);
//! // Reuse: the amenability probe and every later run on the session
//! // share handshakes (the survey engine's per-host fast path).
//! let mut session = Session::new(&mut sc.prober, sc.target, 80).with_reuse(true);
//! let report = Measurer::new(TestKind::DualConnection)
//!     .with_config(TestConfig::samples(50))
//!     .run(&mut session)
//!     .expect("measurement");
//! assert!(report.fwd.rate() > 0.0 && report.fwd.rate() < 0.35);
//! ```
//!
//! The full per-host protocol of the paper's survey — amenability,
//! measurement rounds, the §III-E transfer baseline and the §IV-C gap
//! sweep, under a per-host budget — is a sequence of such runs on one
//! session; it lives in the survey crate's `pipeline` module.
//!
//! The pre-0.2 per-struct `run()`/`probe_amenability()` methods were
//! deprecated in 0.2.0 and removed in 0.3.0; the [`Technique`] trait,
//! [`technique`] factory and [`Measurer`] builder are the only
//! dispatch points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod budget;
pub mod impact;
pub mod jsonx;
pub mod measurer;
pub mod metrics;
pub mod probe;
pub mod rfc4737;
pub mod sample;
pub mod scenario;
pub mod sender;
pub mod stats;
pub mod techniques;
pub mod telemetry;
pub mod validate;

pub use budget::{Budget, HostErrorKind};
pub use measurer::{
    registry, technique, Measurement, Measurer, Requirements, Session, SessionStats, Technique,
};
pub use probe::{ClientConn, ProbeError, Prober};
pub use sample::{MeasurementRun, Order, SampleOutcome, TestConfig};
pub use techniques::{
    DataTransferTest, DualConnectionTest, IpidValidator, IpidVerdict, SingleConnectionTest,
    SynTest, TestKind, UnknownTestKind,
};
