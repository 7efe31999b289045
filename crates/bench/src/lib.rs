//! # reorder-bench
//!
//! Experiment harness regenerating every table and figure of *Measuring
//! Packet Reordering* (Bellardo & Savage, IMC 2002), plus the campaign
//! perf gates (`exp_scale`) and Criterion benches for whole measurements
//! and the aggregation and telemetry primitives.
//!
//! Each `exp_*` binary prints the rows/series the paper reports next to
//! the measured ones; see `README.md` at the repository root for how to
//! run them. Binaries honor the `REORDER_SCALE` environment variable
//! (`full` = paper-scale, `quick` = CI-scale; default `std`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use reorder_core::sample::{MeasurementRun, TestConfig};
use reorder_core::scenario::Scenario;
use reorder_core::{ProbeError, Session, TestKind};
use reorder_survey::scheduler::{run_chunked, RunProbe};
use std::ops::ControlFlow;
use std::sync::{Mutex, PoisonError};

/// Run one registry technique against a scenario's target on port 80 —
/// the one dispatch helper every `exp_*` binary shares (each used to
/// carry its own copy of the same four-armed match). The returned
/// [`MeasurementRun`] keeps per-sample forensics, which the validation
/// experiments need; summarize with
/// [`reorder_core::Measurement::from_run`] when only estimates matter.
pub fn run_technique(
    kind: TestKind,
    sc: &mut Scenario,
    cfg: TestConfig,
) -> Result<MeasurementRun, ProbeError> {
    let mut session = Session::new(&mut sc.prober, sc.target, 80);
    reorder_core::technique(kind, cfg).execute(&mut session)
}

/// Experiment scale, from `REORDER_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-long, paper-fidelity runs.
    Full,
    /// Default: a few seconds per experiment, same shapes.
    Std,
    /// Smoke-test size.
    Quick,
}

impl Scale {
    /// Read from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("REORDER_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            Ok("quick") => Scale::Quick,
            _ => Scale::Std,
        }
    }

    /// Pick a value per scale.
    pub fn pick<T>(self, full: T, std_: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Std => std_,
            Scale::Quick => quick,
        }
    }
}

/// Map `inputs` to outputs on a thread pool. Order of results matches
/// the input order. The closure runs on worker threads, so everything
/// it captures must be `Send + Sync`; per-task state (simulators are
/// single-threaded and `!Send`) is created inside the closure.
///
/// Runs on the campaign engine's scheduler
/// ([`reorder_survey::scheduler::run_chunked`]): job `i` takes input
/// `i` out of its slot, and outputs come back in chunk order.
pub fn parallel_map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let slots: Vec<Mutex<Option<I>>> = inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let mut out = Vec::with_capacity(slots.len());
    run_chunked(
        slots.len(),
        0,
        |_| ((), ()),
        |_, _, chunk: &mut Vec<O>, i| {
            let input = slots[i]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            chunk.extend(input.map(&f));
        },
        |chunk| {
            out.extend(chunk);
            ControlFlow::Continue(())
        },
        &RunProbe::disabled(),
    );
    out
}

/// Print a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Format a probability as a percentage with one decimal.
pub fn pct(p: f64) -> String {
    format!("{:5.1}%", p * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn scale_picks() {
        assert_eq!(Scale::Full.pick(1, 2, 3), 1);
        assert_eq!(Scale::Std.pick(1, 2, 3), 2);
        assert_eq!(Scale::Quick.pick(1, 2, 3), 3);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.125), " 12.5%");
    }
}
