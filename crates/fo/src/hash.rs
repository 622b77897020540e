//! The hash family of optimized local hashing.
//!
//! OLH requires each user to pick a hash function `H` uniformly at random
//! from a universal family mapping the candidate domain into `[d']`
//! buckets, where `d' = ⌈e^ε⌉ + 1` (saturating at `u32::MAX`).  A member is
//! named by a 64-bit seed, which travels with the report so the server can
//! recompute `H(x)` for every candidate during support counting.
//!
//! The family is split into a per-candidate half ([`vec_premix`]) and a
//! per-seed half ([`vec_preseed`]), both 32-bit, so the aggregation loop
//! hoists each out of the other's loop and pays one [`vec_combine`] per
//! (candidate, report) pair.  [`vec_bucket`] range-maps the combined hash
//! onto `[0, d')` with Lemire's widening multiply: no hardware division
//! anywhere on the path.  Changing any constant here changes every OLH
//! report and support count, which `tests/kernels.rs` pins.

/// Salt XORed into a candidate index before [`vec_premix`] mixes it, so
/// candidate 0 does not sit on the finalizer's fixed point at 0.
const VEC_HASH_SALT: u64 = 0x2545_F491_4F6C_DD1D;

/// Per-candidate half of the hash family, hoisted out of the per-report
/// inner loop: a 64-bit murmur finalizer half folded to 32 bits.
#[inline]
pub(crate) fn vec_premix(candidate: u64) -> u32 {
    let x = candidate ^ VEC_HASH_SALT;
    let x = (x ^ (x >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    (x ^ (x >> 32)) as u32
}

/// Per-seed half of the hash family, hoisted once per report.
#[inline]
pub(crate) fn vec_preseed(seed: u64) -> u32 {
    let x = (seed ^ (seed >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    (x ^ (x >> 32)) as u32
}

/// Combines the two hoisted halves into the 32-bit hash value (lowbias32
/// scramble).  This is the only per-(candidate, report) work on the
/// aggregation path; everything here is 32-bit on purpose, so the compiler
/// can keep four hash lanes in flight per SSE register, eight per AVX2 one.
#[inline]
pub(crate) fn vec_combine(premix: u32, preseed: u32) -> u32 {
    let x = premix ^ preseed;
    let x = (x ^ (x >> 16)).wrapping_mul(0x7FEB_352D);
    let x = (x ^ (x >> 15)).wrapping_mul(0x846C_A68B);
    x ^ (x >> 16)
}

/// The family's bucket for a candidate under a seed: the 32-bit hash
/// range-mapped onto `[0, buckets)` with Lemire's widening multiply.
#[inline]
pub(crate) fn vec_bucket(premix: u32, preseed: u32, buckets: u32) -> u32 {
    ((vec_combine(premix, preseed) as u64 * buckets as u64) >> 32) as u32
}

/// Lemire bucket boundary: the smallest hash value mapping to bucket `v`
/// (so `bucket(h) == v  ⟺  h − boundary(v) < boundary(v+1) − boundary(v)`).
#[inline]
pub(crate) fn vec_boundary(v: u64, buckets: u64) -> u64 {
    (v << 32).div_ceil(buckets)
}

/// Computes the OLH bucket count d' = ⌈e^ε⌉ + 1 for a privacy budget,
/// saturating at `u32::MAX` from ε ≈ 22.18 on.
pub(crate) fn olh_buckets(exp_epsilon: f64) -> u32 {
    (exp_epsilon.ceil() as u32).saturating_add(1).max(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bucket of `value` under the function `seed` names.
    fn hash(seed: u64, buckets: u32, value: u64) -> u32 {
        vec_bucket(vec_premix(value), vec_preseed(seed), buckets)
    }

    #[test]
    fn hashing_is_deterministic_per_seed() {
        for v in 0..100u64 {
            assert_eq!(hash(42, 8, v), hash(42, 8, v));
            assert!(hash(42, 8, v) < 8);
        }
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let disagreements = (0..256u64)
            .filter(|&v| hash(1, 16, v) != hash(2, 16, v))
            .count();
        // Two independent functions should disagree on most inputs.
        assert!(disagreements > 128, "only {disagreements} disagreements");
    }

    #[test]
    fn buckets_are_roughly_uniform() {
        let mut counts = [0usize; 4];
        let n = 40_000u64;
        for v in 0..n {
            counts[hash(7, 4, v) as usize] += 1;
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
        let collisions = (0..trials)
            .filter(|&seed| hash(seed, buckets, 123) == hash(seed, buckets, 456))
            .count();
        let rate = collisions as f64 / trials as f64;
        let expected = 1.0 / buckets as f64;
        assert!((rate - expected).abs() < 0.02, "collision rate {rate}");
    }
}
