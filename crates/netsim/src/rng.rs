//! Deterministic RNG management.
//!
//! Every stochastic element (dummynet swap decisions, loss, jitter,
//! cross-traffic, host personalities) draws from its own stream, derived
//! from a single master seed by mixing in a stable label. Adding a new
//! device therefore never perturbs the random sequence seen by existing
//! devices, which keeps experiments reproducible as scenarios grow.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Derive a child seed from `master` and a label, via SplitMix64 over the
/// label's FNV-1a hash. Stable across platforms and compiler versions.
pub fn derive_seed(master: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    splitmix64(master ^ h)
}

/// One round of SplitMix64.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A labeled RNG stream.
pub fn stream(master: u64, label: &str) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(master, label))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn labels_give_distinct_streams() {
        let mut a = stream(1, "dummynet.fwd");
        let mut b = stream(1, "dummynet.rev");
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn same_label_same_stream() {
        let mut a = stream(7, "x");
        let mut b = stream(7, "x");
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn master_seed_matters() {
        assert_ne!(derive_seed(1, "x"), derive_seed(2, "x"));
    }

    #[test]
    fn splitmix_known_value() {
        // Reference value from the SplitMix64 paper's test vector chain
        // starting at 0: first output is 0xe220a8397b1dcdaf.
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
