//! Counter-based (splittable) randomness for the frequency-oracle kernels.
//!
//! A sequential RNG makes report *j* consume the stream exactly where
//! report *j − 1* left it, which forces reports to be produced one at a
//! time, in order.  This module removes that dependency: draw *i* of
//! report *j* is a **pure function** of `(key, j, i)`, so any chunk of
//! reports can be produced in any order, on any worker, and still come out
//! bit-identical.
//!
//! The generator is a two-level counter construction in the spirit of
//! Philox/Threefry and SplitMix-style splittable RNGs: a strong 64-bit
//! finalizer [`mix64`] is applied twice, once to fold the report counter
//! into the key (the per-report *stream base*, hoisted out of the per-draw
//! loop) and once to fold the draw counter into that base:
//!
//! ```text
//! base(j)    = mix64(key ⊕ j·G₁)
//! word(j, i) = mix64(base(j) ⊕ i·G₂)
//! ```
//!
//! with odd constants `G₁ ≠ G₂` so report and draw counters walk different
//! full-period sequences.  [`mix64`] is the SplitMix64 finalizer (Stafford
//! "variant 13"), the same permutation the vendored `rand` subset uses for
//! seeding, which has full avalanche: every input bit flips every output
//! bit with probability ≈ 1/2.
//!
//! The statistical contract is enforced by `tests/ctr_stats.rs` (chi-squared
//! agreement of the GRR/OUE kernels' flip rates with the analytic p and q,
//! key/counter independence) and the stream is pinned forever by
//! known-answer vectors in this module's tests: **changing any constant
//! here is a breaking change** to the federated layer's report stream and
//! must be treated like a wire-format bump.
//!
//! See `ARCHITECTURE.md` ("The execution path") for how this slots into
//! the federated layer.

/// Multiplier folding the report counter into the key (odd, so
/// `j ↦ j·G₁` is a permutation of the 64-bit integers).
const GAMMA_REPORT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Constant XORed into the key at the first mixing level so the all-zero
/// coordinate `(key = 0, report = 0, draw = 0)` does not sit on the
/// finalizer's fixed point at 0.
const KEY_SALT: u64 = 0xA076_1D64_78BD_642F;

/// Multiplier folding the draw counter into the stream base (odd, and
/// distinct from [`GAMMA_REPORT`] so the two counters never alias).
const GAMMA_DRAW: u64 = 0xD1B5_4A32_D192_ED03;

/// The SplitMix64 finalizer (Stafford variant 13): a bijective 64-bit
/// permutation with full avalanche.
#[inline]
#[must_use]
pub fn mix64(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A counter-based RNG: a key plus pure functions of `(report, draw)`.
///
/// Unlike the sequential `StdRng`, a `CtrRng` has no mutable position —
/// every draw is addressed explicitly, which is what makes the vectorized
/// kernels chunk- and parallelism-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrRng {
    key: u64,
}

impl CtrRng {
    /// Creates a counter RNG from a 64-bit key.
    #[inline]
    #[must_use]
    pub fn new(key: u64) -> Self {
        Self { key }
    }

    /// The key this RNG was constructed with.
    #[inline]
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The per-report draw stream for report counter `report`.
    ///
    /// Hoists the first mixing level so a kernel drawing many words for one
    /// report pays one finalizer per word, not two.
    #[inline]
    #[must_use]
    pub fn stream(&self, report: u64) -> ReportStream {
        ReportStream {
            base: mix64(self.key ^ KEY_SALT ^ report.wrapping_mul(GAMMA_REPORT)),
        }
    }

    /// Draw `draw` of report `report`: a pure function of
    /// `(key, report, draw)`.
    #[inline]
    #[must_use]
    pub fn word(&self, report: u64, draw: u64) -> u64 {
        self.stream(report).word(draw)
    }
}

/// The draw stream of a single report: the first mixing level of
/// [`CtrRng::word`], hoisted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportStream {
    base: u64,
}

impl ReportStream {
    /// Draw `draw` of this report's stream.
    #[inline]
    #[must_use]
    pub fn word(&self, draw: u64) -> u64 {
        mix64(self.base ^ draw.wrapping_mul(GAMMA_DRAW))
    }
}

/// The 53-bit uniform behind a raw word, matching the vendored `rand`
/// subset's `f64` sampling (`(word >> 11) · 2⁻⁵³`).
#[inline]
#[must_use]
pub fn u53(word: u64) -> u64 {
    word >> 11
}

/// The unit-interval `f64` of a word under the vendored `rand` subset's
/// mapping (`(word >> 11) · 2⁻⁵³`): the reference [`bernoulli_threshold`]'s
/// integer compare is tested against.
#[cfg(test)]
fn unit_f64(word: u64) -> f64 {
    u53(word) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Integer threshold `t` such that `u53(word) < t` holds exactly when
/// `unit_f64(word) < p` — i.e. the branch-free integer compare is the
/// Bernoulli(p) coin `rand`'s `gen::<f64>() < p` flips on the same word,
/// **exactly**, not approximately.
///
/// Proof sketch: `u · 2⁻⁵³ < p  ⟺  u < p · 2⁵³  ⟺  u < ⌈p · 2⁵³⌉` for
/// integer `u`, and both the `2⁻⁵³` scaling and the comparison are exact in
/// IEEE-754 doubles (power-of-two scaling never rounds).
#[inline]
#[must_use]
pub fn bernoulli_threshold(p: f64) -> u64 {
    if p <= 0.0 {
        0
    } else if p >= 1.0 {
        1u64 << 53
    } else {
        (p * (1u64 << 53) as f64).ceil() as u64
    }
}

/// Maps a uniform word onto `[0, n)` with Lemire's widening multiply —
/// the range mapping the vendored `rand` subset uses for `gen_range`,
/// minus the (negligible at n ≪ 2⁶⁴) rejection step.
#[inline]
#[must_use]
pub fn bounded(word: u64, n: u64) -> u64 {
    debug_assert!(n > 0, "bounded() needs a non-empty range");
    ((word as u128 * n as u128) >> 64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Known-answer vectors pinning the stream forever.  If this test ever
    /// fails, the vectorized output has drifted: that is a
    /// breaking change and must be called out like a wire-schema bump.
    #[test]
    fn known_answer_vectors_pin_the_stream() {
        let rng = CtrRng::new(0);
        assert_eq!(rng.word(0, 0), 0x33D6_527B_E0E9_30EF);
        assert_eq!(rng.word(0, 1), 0xE349_58F3_F4D0_B07A);
        assert_eq!(rng.word(1, 0), 0xCD26_1E7F_2648_BD55);

        let rng = CtrRng::new(0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(rng.word(0, 0), 0x25E1_0758_F6B1_6FD3);
        assert_eq!(rng.word(7, 3), 0xE8CC_EC3A_EE60_8420);
        assert_eq!(rng.word(u64::MAX, u64::MAX), 0x8490_CE6F_1E41_C678);
    }

    #[test]
    fn words_are_pure_functions_of_key_report_draw() {
        let rng = CtrRng::new(42);
        // Re-draws, arbitrary order, stream vs direct: all identical.
        let direct = rng.word(5, 9);
        assert_eq!(rng.word(5, 9), direct);
        assert_eq!(rng.stream(5).word(9), direct);
        let s = rng.stream(5);
        assert_eq!(s.word(9), direct);
        assert_eq!(CtrRng::new(42).word(5, 9), direct);
    }

    #[test]
    fn distinct_coordinates_decorrelate() {
        let rng = CtrRng::new(1);
        // Flipping any one coordinate flips roughly half the output bits
        // (full-avalanche finalizer); require at least 16 of 64 to move.
        let base = rng.word(10, 10);
        for other in [
            rng.word(10, 11),
            rng.word(11, 10),
            CtrRng::new(2).word(10, 10),
        ] {
            assert!((base ^ other).count_ones() >= 16, "weak avalanche");
        }
        // Report/draw counters are not interchangeable.
        assert_ne!(rng.word(3, 8), rng.word(8, 3));
    }

    #[test]
    fn bit_balance_is_sane() {
        // Across 4096 words every bit position should be set roughly half
        // the time; a stuck bit or broken multiplier fails loudly.
        let rng = CtrRng::new(0x1234_5678);
        let mut ones = [0u32; 64];
        for j in 0..64u64 {
            for i in 0..64u64 {
                let w = rng.word(j, i);
                for (bit, count) in ones.iter_mut().enumerate() {
                    *count += ((w >> bit) & 1) as u32;
                }
            }
        }
        for (bit, &count) in ones.iter().enumerate() {
            assert!(
                (1500..=2600).contains(&count),
                "bit {bit} set {count}/4096 times"
            );
        }
    }

    #[test]
    fn bernoulli_threshold_matches_float_compare_exactly() {
        // Exhaustively check the equivalence around every interesting
        // boundary: u < t  ⟺  unit_f64 < p, for u straddling t.
        for p in [0.0, 1e-17, 0.25, 1.0 / 3.0, 0.5, 0.999_999, 1.0] {
            let t = bernoulli_threshold(p);
            for u in t.saturating_sub(2)..=(t + 2).min((1 << 53) - 1) {
                let as_float = u as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(u < t, as_float < p, "p={p} u={u} t={t}");
            }
        }
        assert_eq!(bernoulli_threshold(0.0), 0);
        assert_eq!(bernoulli_threshold(1.0), 1 << 53);
        assert_eq!(bernoulli_threshold(0.5), 1 << 52);
    }

    #[test]
    fn bounded_stays_in_range_and_covers_it() {
        let rng = CtrRng::new(7);
        let n = 13u64;
        let mut seen = [false; 13];
        for i in 0..4096u64 {
            let v = bounded(rng.word(0, i), n);
            assert!(v < n);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some residue never sampled");
    }

    #[test]
    fn unit_f64_matches_the_sequential_mapping() {
        // The vendored StdRng maps words to f64 via (w >> 11) * 2^-53;
        // unit_f64 must agree bit for bit so thresholds are transferable.
        for w in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000] {
            let expected = (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            assert_eq!(unit_f64(w), expected);
        }
        assert!(unit_f64(u64::MAX) < 1.0);
    }
}
