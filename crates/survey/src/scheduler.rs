//! Layer 2: the chunked, work-stealing scheduler — the workspace's one
//! worker pool.
//!
//! [`run_chunked`] cuts job ids `0..jobs` into contiguous chunks (at
//! most 16 ids, at least four chunks per worker) and deals the chunks
//! round-robin across one deque per worker. Each worker drains its own deque from the front; when it
//! is empty it steals from the *back* of the other deques, so a worker
//! that drew several slow scenarios (wide load balancers, long
//! transfers) is relieved by idle workers instead of straggling the
//! run.
//!
//! Simulations are single-threaded and `!Send`, so a worker receives
//! only job *ids* and builds everything it needs locally. It folds every
//! result into its own state and renders whatever must come out in
//! order into the payload of the chunk it is working on. The calling
//! thread hands finished payloads to the consumer in chunk order through
//! a reorder buffer over chunks (not jobs), so ordered output costs one
//! hand-off per chunk and order-independent state never leaves the
//! worker until the run ends.
//!
//! Every run reports per-worker counters ([`WorkerStats`]: tasks,
//! steal attempts/successes, busy vs idle nanoseconds) and accepts a
//! [`RunProbe`] — the live observation surface a progress heartbeat
//! reads while the run is in flight. Timing is opt-in via the probe:
//! an untimed run never reads a clock in the worker loop.

use std::collections::{BTreeMap, VecDeque};
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex, PoisonError};
use std::thread;
use std::time::Instant;

/// One worker's scheduler counters for a finished run. Integer state:
/// summing any partition of workers gives the same totals, matching
/// the telemetry layer's mergeable-monoid contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker executed (own chunks + stolen).
    pub tasks: u64,
    /// Steal probes: locked peeks at another worker's deque, whether
    /// or not a chunk came back.
    pub steal_attempts: u64,
    /// Jobs executed from chunks stolen off another worker's deque.
    pub steals: u64,
    /// Nanoseconds spent executing jobs (zero when the run's
    /// [`RunProbe`] was untimed).
    pub busy_ns: u64,
    /// Wall nanoseconds minus busy nanoseconds: lock waits, steal
    /// probes and chunk hand-offs (zero when untimed).
    pub idle_ns: u64,
    /// Worker-thread wall nanoseconds, spawn to exit (zero when
    /// untimed).
    pub wall_ns: u64,
}

/// Counters the pool reports after a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads used.
    pub workers: usize,
    /// Jobs executed after being stolen from another worker's deque
    /// (the sum of [`WorkerStats::steals`]).
    pub steals: u64,
    /// True when the consumer broke the run off early; trailing jobs
    /// were skipped or discarded.
    pub aborted: bool,
    /// Per-worker counters, in worker-index order.
    pub per_worker: Vec<WorkerStats>,
}

/// Live observation surface for an in-flight run, shared between the
/// workers and whoever watches them (the `--progress` heartbeat).
/// Workers bump [`RunProbe::done`] after every job; a *timed* probe
/// additionally makes each worker read the clock around every job,
/// publish its running busy time, and report busy/idle/wall splits in
/// its [`WorkerStats`]. [`RunProbe::disabled`] costs one relaxed
/// atomic increment per job and never a syscall.
#[derive(Debug)]
pub struct RunProbe {
    timed: bool,
    /// Jobs completed so far, across all workers.
    pub done: AtomicU64,
    busy_ns: Vec<AtomicU64>,
}

impl RunProbe {
    /// A probe for up to `workers` workers. `timed` turns on per-job
    /// clock reads (busy/idle accounting and live utilization).
    pub(crate) fn new(timed: bool, workers: usize) -> RunProbe {
        RunProbe {
            timed,
            done: AtomicU64::new(0),
            busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The no-observation probe: untimed, no per-worker slots.
    pub fn disabled() -> RunProbe {
        RunProbe::new(false, 0)
    }

    /// Whether workers time their jobs.
    pub(crate) fn timed(&self) -> bool {
        self.timed
    }

    /// Worker `w`'s published busy nanoseconds so far (0 when untimed
    /// or out of range).
    pub(crate) fn busy_ns(&self, w: usize) -> u64 {
        self.busy_ns
            .get(w)
            .map(|a| a.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Per-worker slots allocated.
    pub(crate) fn slots(&self) -> usize {
        self.busy_ns.len()
    }

    fn publish_busy(&self, w: usize, ns: u64) {
        if let Some(slot) = self.busy_ns.get(w) {
            slot.store(ns, Ordering::Relaxed);
        }
    }
}

/// Resolve a requested worker count: 0 means "all available cores".
pub(crate) fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    }
}

/// Jobs per chunk for `jobs` jobs on `workers` (resolved) workers: at
/// least four chunks per worker so stealing still balances the tail,
/// and at most 16 jobs so a run's last chunk is short next to the run.
pub(crate) fn chunk_len(jobs: usize, workers: usize) -> usize {
    (jobs / (4 * workers.max(1))).clamp(1, 16)
}

/// Pop the next chunk for worker `w`: own deque first (front), then
/// steal from the other deques (back), counting probes into `st`.
/// Returns the chunk index and whether it was stolen.
fn next_chunk(
    w: usize,
    deques: &[Mutex<VecDeque<usize>>],
    st: &mut WorkerStats,
) -> Option<(usize, bool)> {
    let pop = |v: usize, front: bool| {
        let mut q = deques[v].lock().unwrap_or_else(PoisonError::into_inner);
        if front {
            q.pop_front()
        } else {
            q.pop_back()
        }
    };
    if let Some(c) = pop(w, true) {
        return Some((c, false));
    }
    for v in 1..deques.len() {
        st.steal_attempts += 1;
        if let Some(c) = pop((w + v) % deques.len(), false) {
            return Some((c, true));
        }
    }
    None
}

/// Run jobs `0..jobs` on `workers` threads (0 = all cores): fold every
/// job into a worker-local state, and hand per-chunk payloads to `emit`
/// **in chunk order**.
///
/// `mk_worker` runs once on each worker thread — receiving the worker
/// index — and returns `(local, state)`: `local` is scratch that never
/// leaves the thread (e.g. a `!Send` simulator pool), `state` the fold
/// accumulator handed back at the end, in worker-index order. `step`
/// executes job `i`, folding into `state` and appending to the payload
/// of `i`'s chunk. Chunks hold contiguous ids and arrive at `emit` in
/// id order, so concatenating the payloads gives the same result as a
/// serial run whatever the worker count — provided `step` is a pure
/// function of `i` (worker-local state may only change *how fast* a
/// result comes, never *what* it is). Work stealing makes the
/// job→worker assignment nondeterministic, so deterministic `state`
/// totals need an order-independent (commutative, associative) fold —
/// the aggregation layer's contract.
///
/// `emit` may return [`ControlFlow::Break`] to abort the run (e.g. a
/// failed sink): workers stop before their next job, later payloads
/// are discarded, and [`PoolStats::aborted`] is set. `probe` is the
/// live observation surface (see [`RunProbe`]). A worker panic is
/// re-raised on the calling thread.
pub fn run_chunked<L, S, P, F, G, E>(
    jobs: usize,
    workers: usize,
    mk_worker: F,
    step: G,
    mut emit: E,
    probe: &RunProbe,
) -> (Vec<S>, PoolStats)
where
    S: Send,
    P: Default + Send,
    F: Fn(usize) -> (L, S) + Sync,
    G: Fn(&mut L, &mut S, &mut P, usize) + Sync,
    E: FnMut(P) -> ControlFlow<()>,
{
    let workers = resolve_workers(workers);
    let len = chunk_len(jobs, workers);
    let chunks = jobs.div_ceil(len);
    let workers = workers.min(chunks.max(1));
    let mut dealt: Vec<VecDeque<usize>> = vec![VecDeque::new(); workers];
    for c in 0..chunks {
        dealt[c % workers].push_back(c);
    }
    let deques: Vec<Mutex<VecDeque<usize>>> = dealt.into_iter().map(Mutex::new).collect();
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(usize, P)>();

    thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let tx = tx.clone();
                let (deques, stop, mk_worker, step) = (&deques, &stop, &mk_worker, &step);
                s.spawn(move || {
                    let (mut local, mut state) = mk_worker(w);
                    let mut st = WorkerStats::default();
                    // reorder-lint: allow(wall-clock, worker busy/idle accounting; scheduler telemetry never feeds report bytes)
                    let born = probe.timed().then(Instant::now);
                    'run: while let Some((c, stolen)) = next_chunk(w, deques, &mut st) {
                        let mut payload = P::default();
                        for i in c * len..jobs.min((c + 1) * len) {
                            if stop.load(Ordering::Relaxed) {
                                break 'run;
                            }
                            if born.is_some() {
                                // reorder-lint: allow(wall-clock, per-task busy-time sample; telemetry-only)
                                let t = Instant::now();
                                step(&mut local, &mut state, &mut payload, i);
                                st.busy_ns += t.elapsed().as_nanos() as u64;
                                probe.publish_busy(w, st.busy_ns);
                            } else {
                                step(&mut local, &mut state, &mut payload, i);
                            }
                            st.tasks += 1;
                            st.steals += u64::from(stolen);
                            probe.done.fetch_add(1, Ordering::Relaxed);
                        }
                        if tx.send((c, payload)).is_err() {
                            break;
                        }
                    }
                    if let Some(t0) = born {
                        st.wall_ns = t0.elapsed().as_nanos() as u64;
                        st.idle_ns = st.wall_ns.saturating_sub(st.busy_ns);
                    }
                    (state, st)
                })
            })
            .collect();
        drop(tx);

        // Payloads arrive in completion order; release them in chunk
        // order. The buffer holds at most the chunks finished ahead of
        // the oldest one still running.
        let mut pending: BTreeMap<usize, P> = BTreeMap::new();
        let mut next = 0usize;
        let mut aborted = false;
        'recv: for (c, payload) in &rx {
            pending.insert(c, payload);
            while let Some(p) = pending.remove(&next) {
                next += 1;
                if emit(p).is_break() {
                    aborted = true;
                    stop.store(true, Ordering::Relaxed);
                    break 'recv;
                }
            }
        }
        drop(rx);

        let (states, per_worker): (Vec<S>, Vec<WorkerStats>) = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .unzip();
        let stats = PoolStats {
            workers,
            steals: per_worker.iter().map(|s| s.steals).sum(),
            aborted,
            per_worker,
        };
        (states, stats)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Run jobs whose result is `f(i)`, collecting the emitted
    /// payloads in emit order.
    fn ordered(jobs: usize, workers: usize, f: fn(usize) -> usize) -> (Vec<usize>, PoolStats) {
        let mut seen = Vec::new();
        let (_, stats) = run_chunked(
            jobs,
            workers,
            |_| ((), ()),
            |_, _, out: &mut Vec<usize>, i| out.push(f(i)),
            |chunk| {
                seen.extend(chunk);
                ControlFlow::Continue(())
            },
            &RunProbe::disabled(),
        );
        (seen, stats)
    }

    /// Run jobs folded into per-worker states, with empty payloads.
    fn folded<S: Send>(
        jobs: usize,
        workers: usize,
        init: fn() -> S,
        step: fn(&mut S, usize),
    ) -> (Vec<S>, PoolStats) {
        run_chunked(
            jobs,
            workers,
            |_| ((), init()),
            |_, state, _: &mut (), i| step(state, i),
            |()| ControlFlow::Continue(()),
            &RunProbe::disabled(),
        )
    }

    #[test]
    fn consumes_every_job_in_order() {
        for jobs in [0, 1, 15, 16, 17, 100, 1009] {
            for workers in [1, 2, 3, 7] {
                let (seen, stats) = ordered(jobs, workers, |i| i * 3);
                assert_eq!(seen, (0..jobs).map(|i| i * 3).collect::<Vec<_>>());
                assert!(stats.workers >= 1 && stats.workers <= workers);
                assert!(!stats.aborted);
            }
        }
    }

    #[test]
    fn chunks_cover_the_ids_and_feed_every_worker() {
        for jobs in [1usize, 7, 64, 1000, 100_000] {
            for workers in [1usize, 2, 8] {
                let len = chunk_len(jobs, workers);
                assert!((1..=16).contains(&len));
                assert!(jobs.div_ceil(len) >= workers.min(jobs), "{jobs}/{workers}");
            }
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        let (seen, stats) = ordered(0, 4, |_| unreachable!("no jobs"));
        assert!(seen.is_empty());
        assert_eq!((stats.workers, stats.steals), (1, 0));
    }

    #[test]
    fn workers_cap_at_job_count() {
        let (_, stats) = ordered(2, 16, |i| i);
        assert_eq!(stats.workers, 2);
    }

    #[test]
    fn stealing_relieves_a_straggling_shard() {
        // Two workers, chunks dealt round-robin: every chunk on worker
        // 0's deque is slow, so worker 1 must steal some of them.
        let len = chunk_len(80, 2);
        let (_, stats) = run_chunked(
            80,
            2,
            |_| ((), ()),
            |_, _, _: &mut (), i| {
                if (i / len).is_multiple_of(2) {
                    std::thread::sleep(Duration::from_millis(2));
                }
            },
            |()| ControlFlow::Continue(()),
            &RunProbe::disabled(),
        );
        assert!(stats.steals > 0, "expected steals, got {stats:?}");
        assert_eq!(
            stats.steals % len as u64,
            0,
            "steals count whole chunks' jobs"
        );
    }

    #[test]
    fn break_aborts_promptly() {
        // Break on the second chunk: the pool must stop without
        // running the rest, and report the abort.
        let mut emitted = 0usize;
        let (_, stats) = run_chunked(
            2000,
            4,
            |_| ((), ()),
            |_, _, _: &mut (), _| std::thread::sleep(Duration::from_micros(200)),
            |()| {
                emitted += 1;
                if emitted == 2 {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            },
            &RunProbe::disabled(),
        );
        assert!(stats.aborted);
        assert_eq!(emitted, 2);
        let tasks: u64 = stats.per_worker.iter().map(|s| s.tasks).sum();
        assert!(tasks < 1000, "aborted run kept simulating: {tasks} jobs");
    }

    #[test]
    fn resolve_workers_auto() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
    }

    #[test]
    fn per_worker_stats_account_for_every_job() {
        let probe = RunProbe::new(true, 3);
        let (_, stats) = run_chunked(
            60,
            3,
            |_| ((), ()),
            |_, _, _: &mut (), _| {},
            |()| ControlFlow::Continue(()),
            &probe,
        );
        assert_eq!(stats.per_worker.len(), stats.workers);
        let tasks: u64 = stats.per_worker.iter().map(|s| s.tasks).sum();
        assert_eq!(tasks, 60, "every job attributed to exactly one worker");
        let steals: u64 = stats.per_worker.iter().map(|s| s.steals).sum();
        assert_eq!(steals, stats.steals);
        assert_eq!(probe.done.load(Ordering::Relaxed), 60);
        for st in &stats.per_worker {
            assert!(st.wall_ns >= st.busy_ns, "wall covers busy: {st:?}");
            assert_eq!(st.idle_ns, st.wall_ns - st.busy_ns);
        }
    }

    #[test]
    fn untimed_probe_reports_zero_ns() {
        let (_, stats) = ordered(20, 2, |i| i);
        for st in &stats.per_worker {
            assert_eq!((st.busy_ns, st.wall_ns), (0, 0));
        }
        // Task and steal counters are always on.
        assert_eq!(stats.per_worker.iter().map(|s| s.tasks).sum::<u64>(), 20);
    }

    #[test]
    fn mk_worker_receives_distinct_indices() {
        let (states, _) = run_chunked(
            40,
            4,
            |w| ((), w),
            |_, _, _: &mut (), _| {},
            |()| ControlFlow::Continue(()),
            &RunProbe::disabled(),
        );
        assert_eq!(states, (0..states.len()).collect::<Vec<_>>());
    }

    #[test]
    fn folded_covers_every_job_exactly_once() {
        for workers in [1, 2, 4, 7] {
            let (states, stats) = folded(100, workers, Vec::new, |seen, i| seen.push(i));
            assert_eq!(states.len(), stats.workers);
            let mut all: Vec<usize> = states.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn folded_zero_jobs_returns_initial_states() {
        let (states, _) = folded(0, 4, || 7u64, |_, _| unreachable!("no jobs"));
        assert_eq!(states, vec![7]);
    }

    #[test]
    fn folded_order_independent_sum_matches_serial() {
        // An order-independent fold (integer sum) must be invariant
        // across worker counts — the aggregation contract in miniature.
        let serial: u64 = (0..500u64).map(|i| i * i).sum();
        for workers in [1, 3, 8] {
            let (states, _) = folded(500, workers, || 0u64, |acc, i| *acc += (i * i) as u64);
            assert_eq!(states.into_iter().sum::<u64>(), serial);
        }
    }

    #[test]
    fn folded_timed_probe_publishes_busy_ns() {
        let probe = RunProbe::new(true, 2);
        let (_, stats) = run_chunked(
            10,
            2,
            |_| ((), ()),
            |_, _, _: &mut (), _| std::thread::sleep(Duration::from_micros(500)),
            |()| ControlFlow::Continue(()),
            &probe,
        );
        let busy: u64 = stats.per_worker.iter().map(|s| s.busy_ns).sum();
        assert!(busy > 0, "timed run must accumulate busy time");
        let published: u64 = (0..probe.slots()).map(|w| probe.busy_ns(w)).sum();
        assert_eq!(published, busy, "final published busy matches stats");
    }
}
