//! Stateful IPID generators implementing each [`IpidScheme`].

use crate::personality::IpidScheme;
use rand::rngs::SmallRng;
use rand::Rng;
use reorder_wire::{IpId, Ipv4Addr4};

/// Produces the IPID for each packet a host transmits.
pub(crate) struct IpidGenerator {
    scheme: IpidScheme,
    global: u16,
    // Linear: a simulated host talks to a handful of destinations,
    // and this sits on the per-packet send path.
    per_dest: Vec<(Ipv4Addr4, u16)>,
    rng: SmallRng,
}

impl IpidGenerator {
    /// New generator; `seed_rng` feeds the `Random` scheme and the
    /// initial counter offsets (real hosts don't boot at IPID 0).
    pub fn new(scheme: IpidScheme, mut rng: SmallRng) -> Self {
        let initial = rng.gen();
        IpidGenerator {
            scheme,
            global: initial,
            per_dest: Vec::new(),
            rng,
        }
    }

    /// Next IPID for a packet destined to `dst`.
    pub fn next(&mut self, dst: Ipv4Addr4) -> IpId {
        match self.scheme {
            IpidScheme::GlobalCounter { step } => {
                self.global = self.global.wrapping_add(step);
                IpId(self.global)
            }
            IpidScheme::GlobalCounterByteSwapped => {
                self.global = self.global.wrapping_add(1);
                IpId(self.global.swap_bytes())
            }
            IpidScheme::PerDestination { step } => {
                let idx = match self.per_dest.iter().position(|(d, _)| *d == dst) {
                    Some(i) => i,
                    None => {
                        let init = self.rng.gen();
                        self.per_dest.push((dst, init));
                        self.per_dest.len() - 1
                    }
                };
                let ctr = &mut self.per_dest[idx].1;
                *ctr = ctr.wrapping_add(step);
                IpId(*ctr)
            }
            IpidScheme::Random => IpId(self.rng.gen()),
            IpidScheme::ConstantZero => IpId(0),
        }
    }

    /// Account for a packet the host sent on some *other* interface or
    /// to another peer (background load): advances shared counters so a
    /// busy host's IPID space moves between probe replies, as real
    /// global counters do.
    pub fn background(&mut self, n: u16) {
        match self.scheme {
            IpidScheme::GlobalCounter { step } => {
                self.global = self.global.wrapping_add(step.wrapping_mul(n));
            }
            IpidScheme::GlobalCounterByteSwapped => {
                self.global = self.global.wrapping_add(n);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn gen(scheme: IpidScheme) -> IpidGenerator {
        IpidGenerator::new(scheme, SmallRng::seed_from_u64(42))
    }

    const A: Ipv4Addr4 = Ipv4Addr4::new(1, 1, 1, 1);
    const B: Ipv4Addr4 = Ipv4Addr4::new(2, 2, 2, 2);

    #[test]
    fn global_counter_is_monotone_across_destinations() {
        let mut g = gen(IpidScheme::GlobalCounter { step: 1 });
        let x = g.next(A);
        let y = g.next(B);
        let z = g.next(A);
        assert!(x.before(y) && y.before(z));
        assert_eq!(x.distance_to(z), 2);
    }

    #[test]
    fn per_destination_counters_are_independent() {
        let mut g = gen(IpidScheme::PerDestination { step: 1 });
        let a1 = g.next(A);
        let _b1 = g.next(B);
        let a2 = g.next(A);
        // A's counter advanced exactly 1 even though B sent in between.
        assert_eq!(a1.distance_to(a2), 1);
    }

    #[test]
    fn constant_zero_is_always_zero() {
        let mut g = gen(IpidScheme::ConstantZero);
        for _ in 0..10 {
            assert_eq!(g.next(A), IpId(0));
        }
    }

    #[test]
    fn random_is_not_monotone() {
        let mut g = gen(IpidScheme::Random);
        let ids: Vec<IpId> = (0..100).map(|_| g.next(A)).collect();
        let monotone = ids.windows(2).filter(|w| w[0].before(w[1])).count();
        // A monotone counter would give 99/99; random gives ~50.
        assert!(
            monotone < 80,
            "random IPIDs looked monotone ({monotone}/99)"
        );
    }

    #[test]
    fn background_advances_global_counter() {
        let mut g = gen(IpidScheme::GlobalCounter { step: 1 });
        let x = g.next(A);
        g.background(10);
        let y = g.next(A);
        assert_eq!(x.distance_to(y), 11);
    }

    #[test]
    fn background_noop_for_random() {
        let mut g = gen(IpidScheme::ConstantZero);
        g.background(100);
        assert_eq!(g.next(A), IpId(0));
    }

    #[test]
    fn byte_swapped_counter_is_serially_monotone() {
        // The Windows wire quirk: +0x0100 per packet, +0x0101 at byte
        // rollover — always positive in serial arithmetic, so the Dual
        // Connection Test's ordering inference survives.
        let mut g = gen(IpidScheme::GlobalCounterByteSwapped);
        let ids: Vec<IpId> = (0..1000).map(|_| g.next(A)).collect();
        for w in ids.windows(2) {
            assert!(w[0].before(w[1]), "{} !< {}", w[0], w[1]);
            let d = w[0].distance_to(w[1]);
            assert!(d == 256 || d == 257 || d == 1, "stride {d}");
        }
    }

    #[test]
    fn counters_start_at_random_offsets() {
        let a = gen(IpidScheme::GlobalCounter { step: 1 }).next(A);
        let b = IpidGenerator::new(
            IpidScheme::GlobalCounter { step: 1 },
            SmallRng::seed_from_u64(7),
        )
        .next(A);
        assert_ne!(a, b, "different hosts should start at different IPIDs");
    }
}
