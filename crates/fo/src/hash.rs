//! A universal hash family for optimized local hashing.
//!
//! OLH requires each user to pick a hash function `H` uniformly at random
//! from a universal family mapping the candidate domain into `[d']` buckets,
//! where `d' = ⌈e^ε⌉ + 1` (saturating at `u32::MAX`).  We use a seeded
//! SplitMix64-style mixer: the 64-bit seed identifies the function within
//! the family, and the avalanche mixing provides the near-uniform,
//! pairwise-independent behaviour the OLH analysis needs.  The seed travels
//! with the report so the server can recompute `H(x)` for every candidate
//! during support counting.

/// A member of the universal hash family, identified by its 64-bit seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniversalHash {
    seed: u64,
    buckets: u32,
}

impl UniversalHash {
    /// Creates the hash function identified by `seed` with `buckets` output
    /// values.  `buckets` must be at least 2.
    pub fn new(seed: u64, buckets: u32) -> Self {
        debug_assert!(buckets >= 2, "a hash family needs at least two buckets");
        Self { seed, buckets }
    }

    /// The seed identifying this function within the family.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The number of output buckets d'.
    #[inline]
    pub fn buckets(&self) -> u32 {
        self.buckets
    }

    /// Hashes a domain index into `[0, buckets)`.
    #[inline]
    pub fn hash(&self, value: u64) -> u32 {
        (mix(value ^ self.seed.rotate_left(17)) % self.buckets as u64) as u32
    }
}

/// SplitMix64 finalizer: a fast, high-quality 64-bit mixer.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Computes the OLH bucket count d' = ⌈e^ε⌉ + 1 for a privacy budget,
/// saturating at `u32::MAX` from ε ≈ 22.18 on.
pub fn olh_buckets(exp_epsilon: f64) -> u32 {
    (exp_epsilon.ceil() as u32).saturating_add(1).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic_per_seed() {
        let h = UniversalHash::new(42, 8);
        for v in 0..100u64 {
            assert_eq!(h.hash(v), h.hash(v));
            assert!(h.hash(v) < 8);
        }
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let a = UniversalHash::new(1, 16);
        let b = UniversalHash::new(2, 16);
        let disagreements = (0..256u64).filter(|v| a.hash(*v) != b.hash(*v)).count();
        // Two independent functions should disagree on most inputs.
        assert!(disagreements > 128, "only {disagreements} disagreements");
    }

    #[test]
    fn buckets_are_roughly_uniform() {
        let h = UniversalHash::new(7, 4);
        let mut counts = [0usize; 4];
        let n = 40_000u64;
        for v in 0..n {
            counts[h.hash(v) as usize] += 1;
        }
        let expected = n as f64 / 4.0;
        for c in counts {
            assert!(
                ((c as f64) - expected).abs() < expected * 0.1,
                "bucket count {c}"
            );
        }
    }

    #[test]
    fn olh_bucket_formula() {
        assert_eq!(olh_buckets(1.0f64.exp()), 1.0f64.exp().ceil() as u32 + 1);
        assert_eq!(olh_buckets(4.0f64.exp()), 4.0f64.exp().ceil() as u32 + 1);
        // Degenerate small budgets still produce at least two buckets.
        assert!(olh_buckets(0.1) >= 2);
    }

    /// Past ε ≈ 22.18 the bucket count saturates instead of wrapping round
    /// to 2 (or overflowing under overflow checks).
    #[test]
    fn olh_buckets_never_decrease_with_the_budget() {
        let mut previous = 0;
        for epsilon in [
            0.5, 1.0, 4.0, 10.0, 22.0, 22.1, 22.18, 22.2, 23.0, 40.0, 400.0,
        ] {
            let buckets = olh_buckets(f64::exp(epsilon));
            assert!(buckets >= previous, "ε {epsilon}: {buckets} < {previous}");
            previous = buckets;
        }
        assert_eq!(previous, u32::MAX);
    }

    #[test]
    fn collision_rate_matches_universality() {
        // For a universal family, Pr[H(x) = H(y)] ≈ 1/d' for x ≠ y.
        let buckets = 8u32;
        let trials = 20_000u64;
        let mut collisions = 0usize;
        for seed in 0..trials {
            let h = UniversalHash::new(seed, buckets);
            if h.hash(123) == h.hash(456) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        let expected = 1.0 / buckets as f64;
        assert!((rate - expected).abs() < 0.02, "collision rate {rate}");
    }
}
