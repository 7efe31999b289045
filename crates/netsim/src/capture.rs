//! Packet capture: the simulated analogue of the tcpdump traces the
//! authors collected on their FreeBSD router to establish ground truth
//! (§IV-A: "A network trace was captured for every test run and this
//! trace was analyzed to find the actual number of sample packets that
//! were reordered").

use crate::engine::{NodeId, Port};
use crate::time::SimTime;
use reorder_wire::{FlowKey, Packet};
use std::cell::RefCell;
use std::rc::Rc;

/// Direction of a trace record relative to the tapped node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Packet delivered to the node.
    Rx,
    /// Packet transmitted by the node.
    Tx,
}

/// One captured packet.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Simulation time of the delivery/transmission.
    pub time: SimTime,
    /// Tapped node.
    pub node: NodeId,
    /// Port on which the packet moved.
    pub port: Port,
    /// Direction relative to the node.
    pub dir: Dir,
    /// The packet itself.
    pub pkt: Packet,
}

/// Shared, growable capture buffer filled by the engine.
pub type TraceHandle = Rc<RefCell<Vec<TraceRecord>>>;

/// Read-only analysis helpers over a finished trace.
pub struct Trace(pub Vec<TraceRecord>);

impl Trace {
    /// Snapshot a live handle.
    pub fn snapshot(h: &TraceHandle) -> Trace {
        Trace(h.borrow().clone())
    }

    /// Clear a live handle (start a fresh measurement window).
    #[cfg(test)]
    pub(crate) fn reset(h: &TraceHandle) {
        h.borrow_mut().clear();
    }

    /// Records for one TCP flow (either direction of the 4-tuple).
    pub fn flow(&self, key: FlowKey) -> Vec<&TraceRecord> {
        self.0
            .iter()
            .filter(|r| {
                r.pkt
                    .flow()
                    .map(|f| f == key || f == key.reversed())
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Arrival order of the TCP sequence numbers of data packets in
    /// `key`'s direction — the ground-truth view of forward-path order.
    #[cfg(test)]
    pub(crate) fn data_seq_order(&self, key: FlowKey) -> Vec<u32> {
        self.0
            .iter()
            .filter(|r| r.pkt.flow() == Some(key))
            .filter(|r| r.pkt.tcp_data().map(|d| !d.is_empty()).unwrap_or(false))
            .map(|r| r.pkt.tcp().expect("tcp").seq.raw())
            .collect()
    }

    /// Count of adjacent exchanges needed to sort `order` — the paper's
    /// primitive metric ("the number of exchanges between pairs of test
    /// packets") applied to a ground-truth arrival sequence. Equals the
    /// inversion count, computed by [`count_inversions`] in
    /// O(n log n) rather than the bubble-sort O(n²) form.
    #[cfg(test)]
    pub(crate) fn exchanges(order: &[u32]) -> usize {
        count_inversions(order)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Number of inversions in `seq`: pairs `i < j` with `seq[i] > seq[j]`.
///
/// This equals the adjacent-exchange (bubble-sort swap) count the paper
/// uses as its reordering primitive, but runs in O(n log n) via a
/// bottom-up merge count — campaign-scale traces (a 64-segment transfer
/// per host, ground-truth analyses over full captures) made the O(n²)
/// form measurable. Equal elements count as ordered, matching the
/// strict `>` the bubble-sort form swapped on. Property tests pin
/// equality with the naive count on random permutations.
pub fn count_inversions<T: Ord + Copy>(seq: &[T]) -> usize {
    let n = seq.len();
    if n < 2 {
        return 0;
    }
    let mut v = seq.to_vec();
    let mut scratch = v.clone();
    let mut inversions = 0usize;
    let mut width = 1;
    while width < n {
        let mut lo = 0;
        while lo + width < n {
            let mid = lo + width;
            let hi = (lo + 2 * width).min(n);
            let (mut i, mut j, mut k) = (lo, mid, lo);
            while i < mid && j < hi {
                if v[j] < v[i] {
                    // v[j] precedes every remaining left element it is
                    // smaller than: mid - i inversions at once.
                    inversions += mid - i;
                    scratch[k] = v[j];
                    j += 1;
                } else {
                    scratch[k] = v[i];
                    i += 1;
                }
                k += 1;
            }
            scratch[k..k + (mid - i)].copy_from_slice(&v[i..mid]);
            scratch[k + (mid - i)..hi].copy_from_slice(&v[j..hi]);
            v[lo..hi].copy_from_slice(&scratch[lo..hi]);
            lo = hi;
        }
        width *= 2;
    }
    inversions
}

#[cfg(test)]
mod tests {
    use super::*;
    use reorder_wire::{Ipv4Addr4, PacketBuilder, TcpFlags};

    fn rec(seq: u32, data: &[u8], t: u64) -> TraceRecord {
        TraceRecord {
            time: SimTime::from_micros(t),
            node: NodeId(0),
            port: Port(0),
            dir: Dir::Rx,
            pkt: PacketBuilder::tcp()
                .src(Ipv4Addr4::new(1, 1, 1, 1), 10)
                .dst(Ipv4Addr4::new(2, 2, 2, 2), 20)
                .seq(seq)
                .flags(TcpFlags::ACK)
                .data(data.to_vec())
                .build(),
        }
    }

    fn key() -> FlowKey {
        FlowKey {
            src: Ipv4Addr4::new(1, 1, 1, 1),
            src_port: 10,
            dst: Ipv4Addr4::new(2, 2, 2, 2),
            dst_port: 20,
        }
    }

    #[test]
    fn data_seq_order_skips_pure_acks() {
        let t = Trace(vec![rec(1, b"a", 0), rec(5, b"", 1), rec(3, b"b", 2)]);
        assert_eq!(t.data_seq_order(key()), vec![1, 3]);
    }

    #[test]
    fn exchanges_counts_inversions() {
        assert_eq!(Trace::exchanges(&[1, 2, 3]), 0);
        assert_eq!(Trace::exchanges(&[2, 1]), 1);
        assert_eq!(Trace::exchanges(&[3, 2, 1]), 3);
        assert_eq!(Trace::exchanges(&[]), 0);
        assert_eq!(Trace::exchanges(&[7]), 0);
    }

    /// The bubble-sort form the merge count replaced, kept as the
    /// reference for the equivalence tests.
    fn naive_exchanges<T: Ord + Copy>(order: &[T]) -> usize {
        let mut v = order.to_vec();
        let mut swaps = 0;
        let n = v.len();
        for i in 0..n {
            for j in 0..n.saturating_sub(1 + i) {
                if v[j] > v[j + 1] {
                    v.swap(j, j + 1);
                    swaps += 1;
                }
            }
        }
        swaps
    }

    #[test]
    fn merge_count_equals_naive_on_random_permutations() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng: SmallRng = SeedableRng::seed_from_u64(0x17C0);
        for case in 0..300 {
            let n = rng.gen_range(0..80usize);
            // Mix pure permutations with duplicate-heavy sequences —
            // ties must count as ordered in both forms.
            let v: Vec<u32> = if case % 3 == 0 {
                (0..n).map(|_| rng.gen_range(0..8u32)).collect()
            } else {
                let mut p: Vec<u32> = (0..n as u32).collect();
                for i in (1..p.len()).rev() {
                    p.swap(i, rng.gen_range(0..=i));
                }
                p
            };
            assert_eq!(
                count_inversions(&v),
                naive_exchanges(&v),
                "case {case}: {v:?}"
            );
        }
    }

    #[test]
    fn merge_count_handles_duplicates_as_ordered() {
        assert_eq!(count_inversions(&[5u32, 5, 5]), 0);
        assert_eq!(count_inversions(&[2u32, 2, 1]), 2);
        assert_eq!(count_inversions(&[1u32, 3, 2, 3, 1]), 4);
    }

    #[test]
    fn flow_matches_both_directions() {
        let fwd = rec(1, b"x", 0);
        let mut rev = rec(9, b"y", 1);
        std::mem::swap(&mut rev.pkt.ip.src, &mut rev.pkt.ip.dst);
        if let reorder_wire::Payload::Tcp { header, .. } = &mut rev.pkt.payload {
            std::mem::swap(&mut header.src_port, &mut header.dst_port);
        }
        let t = Trace(vec![fwd, rev]);
        assert_eq!(t.flow(key()).len(), 2);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn snapshot_and_reset() {
        let h: TraceHandle = Rc::new(RefCell::new(vec![rec(1, b"a", 0)]));
        let snap = Trace::snapshot(&h);
        assert_eq!(snap.len(), 1);
        Trace::reset(&h);
        assert!(h.borrow().is_empty());
        assert_eq!(snap.len(), 1); // snapshot unaffected
    }
}
