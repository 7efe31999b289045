//! The calendar-queue event scheduler behind [`crate::Simulator`].
//!
//! A discrete-event simulation at network timescales pops events that
//! are overwhelmingly *near*: link serialization and propagation put
//! the next arrival microseconds-to-milliseconds ahead, while only
//! pacing and retransmission timers look further out. A binary heap
//! pays `O(log n)` pointer-chasing sift operations — moving the whole
//! event payload at every level — for a distribution this skewed. The
//! calendar queue (Brown 1988, the structure inside timer wheels)
//! instead hashes each event by time into a ring of buckets covering a
//! sliding window, leaving pops to drain one small bucket at a time:
//! amortized O(1) per event, with the event payload moved once.
//!
//! Determinism contract: pops come out in exactly `(time, seq)` order —
//! the same total order the previous `BinaryHeap<Reverse<Event>>`
//! produced — so time ties keep breaking by insertion sequence and
//! golden traces survive the swap. Events beyond the window go to an
//! ordered overflow heap (the far-future fallback) and are compared
//! against the wheel on every pop, so no ordering is lost when the
//! window slides.
//!
//! Tuning (measured on the 1000-host campaign, which mixes sub-µs LAN
//! bursts with 5–120 ms WAN lulls): bucket width 2^21 ns ≈ 2 ms with a
//! 256-bucket ring ≈ 537 ms window. Coarse buckets keep the ring and
//! its occupancy bitmap cache-resident and amortize ordering into one
//! small sort per bucket; the wide window keeps WAN propagation,
//! sample pacing (20 ms) and delayed-ACK timers (200 ms) out of the
//! overflow heap. Finer widths (16–131 µs) measured 10–35% slower on
//! the same campaign — at these queue depths scan locality beats
//! bucket granularity.

use crate::time::SimTime;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// log2 of the bucket width in nanoseconds.
const BUCKET_BITS: u64 = 21;
/// Number of buckets in the ring (must be a power of two).
const NBUCKETS: usize = 256;
/// Occupancy bitmap words.
const NWORDS: usize = NBUCKETS / 64;

/// One scheduled item: the key `(time, seq)` plus the payload.
pub(crate) struct Entry<T> {
    time: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

fn bucket_of(time: SimTime) -> u64 {
    time.as_nanos() >> BUCKET_BITS
}

fn slot_of(bucket: u64) -> usize {
    bucket as usize & (NBUCKETS - 1)
}

/// The smaller of two optional keys.
fn earliest(a: Option<(SimTime, u64)>, b: Option<(SimTime, u64)>) -> Option<(SimTime, u64)> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// A calendar queue yielding items in exact `(time, seq)` order.
///
/// `clear` retains every bucket allocation, so a reset simulator reuses
/// the scheduler's memory — the pooling fast path.
pub(crate) struct CalendarQueue<T> {
    /// The ring. Buckets are unsorted until the cursor reaches them;
    /// the cursor's bucket is kept sorted *descending* by `(time, seq)`
    /// so pops come off the back.
    buckets: Vec<Vec<Entry<T>>>,
    /// One bit per non-empty bucket, for O(1)-ish cursor advances.
    occupancy: [u64; NWORDS],
    /// Absolute bucket index the cursor is at. Every wheel entry lives
    /// in `[cur, cur + NBUCKETS)`, which keeps ring slots collision-free.
    cur: u64,
    /// The absolute bucket currently maintained in sorted order, if any.
    sorted_bucket: Option<u64>,
    /// Ordered fallback for events beyond the window.
    overflow: BinaryHeap<Reverse<Entry<T>>>,
    /// Entries in the ring (excluding overflow).
    wheel_len: usize,
    /// Total entries.
    len: usize,
    /// Memoized key of the earliest entry. The engine peeks two or
    /// three times per pop (deadline checks wrap the event loop), so
    /// the ring scan is paid once per structural change instead.
    min_cache: Cell<Option<(SimTime, u64)>>,
    /// Pushes routed to the overflow heap since construction or
    /// [`CalendarQueue::clear`] — the telemetry counter for "how often
    /// does traffic fall off the wheel" (each such push costs a heap
    /// insert instead of an O(1) bucket append).
    overflow_pushes: u64,
}

impl<T> CalendarQueue<T> {
    pub fn new() -> Self {
        CalendarQueue {
            buckets: (0..NBUCKETS).map(|_| Vec::new()).collect(),
            occupancy: [0; NWORDS],
            cur: 0,
            sorted_bucket: None,
            overflow: BinaryHeap::new(),
            wheel_len: 0,
            len: 0,
            min_cache: Cell::new(None),
            overflow_pushes: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drop every entry but keep all allocations (buckets, heap).
    pub fn clear(&mut self) {
        if self.wheel_len > 0 {
            for b in &mut self.buckets {
                b.clear();
            }
        }
        self.occupancy = [0; NWORDS];
        self.cur = 0;
        self.sorted_bucket = None;
        self.overflow.clear();
        self.wheel_len = 0;
        self.len = 0;
        self.min_cache.set(None);
        self.overflow_pushes = 0;
    }

    /// Pushes that landed in the overflow heap (see the field docs).
    pub fn overflow_pushes(&self) -> u64 {
        self.overflow_pushes
    }

    /// Schedule `item` at `time` with tiebreak `seq`. `now` is the
    /// caller's clock; `time >= now` is required (events are never
    /// scheduled in the past) and lets an empty wheel re-anchor its
    /// window at the present.
    pub fn push(&mut self, now: SimTime, time: SimTime, seq: u64, item: T) {
        debug_assert!(time >= now, "event scheduled in the past");
        if self.wheel_len == 0 {
            // Empty wheel: re-anchor the window at the present so the
            // push below lands in it whenever possible. Safe because
            // every future push has time >= now.
            self.cur = self.cur.max(bucket_of(now));
            self.sorted_bucket = None;
        }
        let b = bucket_of(time);
        let entry = Entry { time, seq, item };
        self.len += 1;
        if let Some(cached) = self.min_cache.get() {
            if entry.key() < cached {
                self.min_cache.set(Some(entry.key()));
            }
        } else if self.len == 1 {
            self.min_cache.set(Some(entry.key()));
        }
        if b >= self.cur + NBUCKETS as u64 || b < self.cur {
            // Outside the window. Beyond it is the ordinary far-future
            // case; *below* it happens when an overflow event popped
            // earlier than the cursor's bucket (the clock now trails
            // the cursor). Both sides ride the ordered heap, and every
            // pop compares heap and wheel minima, so ordering holds.
            self.overflow_pushes += 1;
            self.overflow.push(Reverse(entry));
            return;
        }
        let s = slot_of(b);
        if self.sorted_bucket == Some(b) {
            // Keep the cursor's bucket sorted (descending): binary
            // insert. Rare — only sub-bucket-width latencies land here.
            let key = entry.key();
            let pos = self.buckets[s].partition_point(|e| e.key() > key);
            self.buckets[s].insert(pos, entry);
        } else {
            self.buckets[s].push(entry);
        }
        self.occupancy[s / 64] |= 1 << (s % 64);
        self.wheel_len += 1;
    }

    /// Key of the earliest entry, without disturbing the queue.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        if self.is_empty() {
            return None;
        }
        if let Some(k) = self.min_cache.get() {
            return Some(k);
        }
        let wheel = self.first_bucket().and_then(|b| {
            let bucket = &self.buckets[slot_of(b)];
            if self.sorted_bucket == Some(b) {
                bucket.last().map(Entry::key)
            } else {
                bucket.iter().map(Entry::key).min()
            }
        });
        let min = earliest(wheel, self.overflow_key());
        self.min_cache.set(min);
        min
    }

    /// Remove and return the earliest entry as `(time, seq, item)` if
    /// its time is at most `horizon` — the event loop's peek-then-pop
    /// in one call.
    pub fn pop_due(&mut self, horizon: SimTime) -> Option<(SimTime, u64, T)> {
        match self.peek_key() {
            Some((time, _)) if time <= horizon => self.pop(),
            _ => None,
        }
    }

    /// Remove and return the earliest entry as `(time, seq, item)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if self.len == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            self.migrate_overflow();
        }
        let wheel_key = self.sort_front_bucket();
        let from_overflow = match (wheel_key, self.overflow_key()) {
            (Some(w), Some(o)) => o < w,
            (None, o) => o.is_some(),
            (Some(_), None) => false,
        };
        self.min_cache.set(None);
        if from_overflow {
            let Reverse(e) = self.overflow.pop()?;
            self.len -= 1;
            return Some((e.time, e.seq, e.item));
        }
        let s = slot_of(self.cur);
        let e = self.buckets[s].pop()?;
        self.len -= 1;
        self.wheel_len -= 1;
        if self.buckets[s].is_empty() {
            self.occupancy[s / 64] &= !(1 << (s % 64));
        } else {
            // The bucket stays sorted, so the next minimum is known.
            let next = self.buckets[s].last().map(Entry::key);
            self.min_cache.set(earliest(next, self.overflow_key()));
        }
        Some((e.time, e.seq, e.item))
    }

    /// Move the cursor to the first non-empty bucket, sort it on the
    /// first visit since it filled (pops then come off the back in
    /// order), and return its earliest key; `None` on an empty wheel.
    fn sort_front_bucket(&mut self) -> Option<(SimTime, u64)> {
        self.cur = self.first_bucket()?;
        let bucket = &mut self.buckets[slot_of(self.cur)];
        if self.sorted_bucket != Some(self.cur) {
            bucket.sort_unstable_by_key(|e| Reverse(e.key()));
            self.sorted_bucket = Some(self.cur);
        }
        bucket.last().map(Entry::key)
    }

    fn overflow_key(&self) -> Option<(SimTime, u64)> {
        self.overflow.peek().map(|Reverse(e)| e.key())
    }

    /// Absolute bucket of the earliest non-empty ring slot, if any.
    fn first_bucket(&self) -> Option<u64> {
        if self.wheel_len == 0 {
            return None;
        }
        let start = slot_of(self.cur);
        let mut dist = 0usize;
        while dist < NBUCKETS {
            let s = (start + dist) & (NBUCKETS - 1);
            let word = self.occupancy[s / 64];
            if word == 0 {
                // Skip the whole word (aligning down may re-test a few
                // slots, never skip occupied ones).
                dist += 64 - (s % 64);
                continue;
            }
            let bit_in_word = (word >> (s % 64)).trailing_zeros() as usize;
            if (s % 64) + bit_in_word < 64 {
                let found_dist = dist + bit_in_word;
                if found_dist < NBUCKETS {
                    return Some(self.cur + found_dist as u64);
                }
                return None;
            }
            dist += 64 - (s % 64);
        }
        None
    }

    /// The wheel is empty: re-anchor the window at the overflow's
    /// earliest entry and pull everything now inside it into the ring.
    fn migrate_overflow(&mut self) {
        let Some(Reverse(first)) = self.overflow.peek() else {
            return;
        };
        self.cur = bucket_of(first.time);
        self.sorted_bucket = None;
        let window_end = self.cur + NBUCKETS as u64;
        while self
            .overflow
            .peek()
            .is_some_and(|Reverse(e)| bucket_of(e.time) < window_end)
        {
            let Some(Reverse(e)) = self.overflow.pop() else {
                break;
            };
            let s = slot_of(bucket_of(e.time));
            self.buckets[s].push(e);
            self.occupancy[s / 64] |= 1 << (s % 64);
            self.wheel_len += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Reference implementation: the BinaryHeap ordering the engine
    /// used before the calendar queue.
    struct RefQueue {
        heap: BinaryHeap<Reverse<Entry<u32>>>,
    }

    impl RefQueue {
        fn new() -> Self {
            RefQueue {
                heap: BinaryHeap::new(),
            }
        }
        fn push(&mut self, time: SimTime, seq: u64, item: u32) {
            self.heap.push(Reverse(Entry { time, seq, item }));
        }
        fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
            self.heap.pop().map(|Reverse(e)| (e.time, e.seq, e.item))
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_micros(5);
        q.push(SimTime::ZERO, t, 1, "b");
        q.push(SimTime::ZERO, t, 0, "a");
        q.push(SimTime::ZERO, SimTime::from_micros(1), 7, "first");
        assert_eq!(q.peek_key(), Some((SimTime::from_micros(1), 7)));
        assert_eq!(q.pop().unwrap().2, "first");
        assert_eq!(q.pop().unwrap().2, "a");
        assert_eq!(q.pop().unwrap().2, "b");
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = CalendarQueue::new();
        // Delayed-ACK-style timer far beyond the window, then near
        // traffic pushed while it waits.
        q.push(SimTime::ZERO, SimTime::from_millis(200), 0, 200);
        for i in 0..50u64 {
            q.push(SimTime::ZERO, SimTime::from_micros(i * 30), i + 1, i as u32);
        }
        let mut times = Vec::new();
        while let Some((t, _, _)) = q.pop() {
            times.push(t);
        }
        assert_eq!(times.len(), 51);
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*times.last().unwrap(), SimTime::from_millis(200));
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        // The golden-order property: any schedule of pushes (including
        // pushes into the bucket being drained, far-future overflow and
        // window re-anchoring) pops identically to the reference heap.
        let mut rng: SmallRng = SeedableRng::seed_from_u64(0xCA1E);
        for round in 0..20 {
            let mut cal = CalendarQueue::new();
            let mut reference = RefQueue::new();
            let mut now = SimTime::ZERO;
            let mut seq = 0u64;
            let mut popped = 0usize;
            let mut pushed = 0usize;
            while pushed < 400 || popped < 400 {
                let push_burst = rng.gen_range(0..4usize);
                for _ in 0..push_burst.min(400 - pushed) {
                    // Mix of sub-bucket, in-window and far-future delays.
                    let delay_ns: u64 = match rng.gen_range(0..10u32) {
                        0..=4 => rng.gen_range(0..20_000),    // same/next bucket
                        5..=7 => rng.gen_range(0..2_000_000), // in window
                        8 => rng.gen_range(0..40_000_000),    // mixed
                        _ => rng.gen_range(0..400_000_000),   // overflow
                    };
                    let t = now + std::time::Duration::from_nanos(delay_ns);
                    cal.push(now, t, seq, seq as u32);
                    reference.push(t, seq, seq as u32);
                    seq += 1;
                    pushed += 1;
                }
                let pops = rng.gen_range(0..3usize);
                for _ in 0..pops {
                    let got = cal.pop();
                    let want = reference.pop();
                    match (got, want) {
                        (Some(g), Some(w)) => {
                            assert_eq!(g, w, "round {round}: divergence after {popped} pops");
                            now = g.0; // the engine advances its clock to the popped time
                            popped += 1;
                        }
                        (None, None) => break,
                        (g, w) => panic!("round {round}: one queue empty: {g:?} vs {w:?}"),
                    }
                    assert_eq!(cal.len(), reference.heap.len());
                }
            }
            // Drain the rest.
            loop {
                let got = cal.pop();
                let want = reference.pop();
                assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn clear_retains_order_semantics() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::ZERO, SimTime::from_secs(5), 0, 1);
        q.push(SimTime::ZERO, SimTime::from_micros(1), 1, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_key(), None);
        // Reusable after clear, from time zero again.
        q.push(SimTime::ZERO, SimTime::from_micros(3), 0, 9);
        assert_eq!(q.pop(), Some((SimTime::from_micros(3), 0, 9)));
    }

    #[test]
    fn empty_wheel_reanchors_to_now() {
        let mut q = CalendarQueue::new();
        // Advance deep into simulated time before the first push.
        let now = SimTime::from_secs(3600);
        q.push(now, now + std::time::Duration::from_micros(10), 0, 1);
        assert_eq!(
            q.pop().map(|(t, _, _)| t),
            Some(now + std::time::Duration::from_micros(10))
        );
        // And far-future first push migrates back cleanly.
        q.push(now, now + std::time::Duration::from_secs(100), 1, 2);
        q.push(now, now + std::time::Duration::from_secs(50), 2, 3);
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(3));
        assert_eq!(q.pop().map(|(_, _, i)| i), Some(2));
    }
}
