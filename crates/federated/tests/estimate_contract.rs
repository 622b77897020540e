//! The statistical contract of the one FO execution path, one layer above
//! the kernels: [`LevelEstimator::estimate_with`] with out-of-domain users
//! mapped to the dummy slot.
//!
//! For k-RR, OUE and OLH over 2 and 41 candidates (plus the dummy), and for
//! k-RR over 2 049, a quarter of the users hold a prefix outside the
//! candidate list.  The level is estimated under `R` distinct noise seeds,
//! and two properties are checked against the oracle's own `p()` and `q()`
//! (OLH: `q_star()`):
//!
//! (a) **Unbiasedness.**  The mean estimate of every candidate is within
//!     `z·σ/√R` of its true frequency, where σ² = (f·p(1−p) + (1−f)·q(1−q))
//!     / (n(p−q)²) is the per-run variance at true frequency f.  The
//!     summed support count behind the mean is a sum of `R·n` independent
//!     Bernoulli terms, so Bernstein's inequality bounds the deviation
//!     rigorously; `z` (7.7–7.9 here) is the Bernstein radius at
//!     δ_a = 5e−10 / 2 178, the number of candidates checked.
//! (b) **Variance.**  At a zero-frequency candidate the sample variance
//!     s² of the `R` estimates satisfies the χ² bound
//!     `k − 2√(kx) ≤ k·s²/σ₀² ≤ k + 2√(kx) + 2x` (Laurent–Massart, with
//!     k = R − 1) around σ₀² = q(1−q) / (n(p−q)²).  Each per-run estimate is
//!     a sum of thousands of Bernoulli terms and is treated as Gaussian;
//!     x = ln(14 / 5e−10) spreads 5e−10 over the 14 one-sided tails, so
//!     at R = 300 the band is 0.43–1.73 σ₀²: pairing users onto one noise
//!     draw (2σ₀²) fails it.
//!
//! A correct implementation therefore fails this file with probability
//! below 5e−10 + 5e−10 = 1e−9 (union bound), and every run is seeded, so a
//! pass is stable.  A wrong threshold in a kernel, a stray user counted on
//! a candidate, or a debiasing step with the wrong `n` or `q` moves a mean
//! by many radii; users sharing one noise draw move the variance.

use fedhh_federated::{EstimateScratch, LevelEstimator, ProtocolConfig};
use fedhh_fo::{FoKind, Oracle, PrivacyBudget};

/// Noise seeds per configuration.
const RUNS: usize = 300;
/// Code width and prefix length of every item: 4 096 prefixes, enough for
/// the 2 049-candidate domain plus strays.
const MAX_BITS: u8 = 16;
const PREFIX_LEN: u8 = 12;
const EPSILON: f64 = 2.0;
/// Share of users whose prefix is not a candidate (they report the dummy).
const STRAY_SHARE: f64 = 0.25;
/// Candidates with a non-zero true frequency (fewer when the domain is
/// smaller); every other candidate is a zero-frequency slot.
const HEAVY: usize = 8;

/// (a) failure budget per candidate: 5e−10 over the 2 + 41 candidates of
/// three oracles and the 2 049 of k-RR.
const DELTA_MEAN: f64 = 5e-10 / 2_178.0;
/// (b) failure budget per one-sided tail: 5e−10 over two tails of seven
/// configurations.
const DELTA_VARIANCE_TAIL: f64 = 5e-10 / 14.0;

/// The `i`-th candidate prefix: an odd stride over the 12-bit prefixes, so
/// the first 4 096 are distinct and `d..` are never among the first `d`.
fn prefix(i: usize) -> u64 {
    (i as u64 * 7 + 3) % (1 << PREFIX_LEN)
}

/// A level group of `n` users over `d` candidates: a quarter hold one of
/// four stray prefixes, the rest are split over the first `HEAVY`
/// candidates in proportion `HEAVY, HEAVY − 1, …, 1`.  Returns the items,
/// the candidate list and each candidate's true frequency.
fn population(d: usize, n: usize) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
    let candidates: Vec<u64> = (0..d).map(prefix).collect();
    let heavy = HEAVY.min(d - 1);
    let in_domain = n - (n as f64 * STRAY_SHARE) as usize;
    let weights: Vec<usize> = (0..heavy).map(|j| heavy - j).collect();
    let total: usize = weights.iter().sum();
    let mut holders = vec![0usize; d];
    for (j, w) in weights.iter().enumerate() {
        holders[j] = in_domain * w / total;
    }
    holders[0] += in_domain - holders.iter().sum::<usize>();
    let mut items = Vec::with_capacity(n);
    for (slot, &count) in holders.iter().enumerate() {
        let code = candidates[slot] << (MAX_BITS - PREFIX_LEN);
        items.extend((0..count as u64).map(|u| code | (u & 0xF)));
    }
    let mut stray = 0;
    while items.len() < n {
        let code = prefix(d + stray % 4) << (MAX_BITS - PREFIX_LEN);
        items.push(code | (stray as u64 & 0xF));
        stray += 1;
    }
    let truth = holders.iter().map(|&c| c as f64 / n as f64).collect();
    (items, candidates, truth)
}

/// The support probabilities the oracle over `slots` debiases with: a
/// holder's report supports its own slot with probability `p`, anyone
/// else's with probability `q`.
fn support_probabilities(fo: FoKind, slots: usize) -> (f64, f64) {
    let budget = PrivacyBudget::new(EPSILON).unwrap();
    match Oracle::try_new(fo, budget, slots).unwrap() {
        Oracle::Grr(o) => (o.p(), o.q()),
        Oracle::Oue(o) => (o.p(), o.q()),
        Oracle::Olh(o) => (o.p(), o.q_star()),
    }
}

/// Bernstein radius: with `variance` the variance of a sum of independent
/// terms each within 1 of its mean, the sum deviates from its mean by at
/// least the returned amount with probability at most `delta`.
fn bernstein_radius(variance: f64, delta: f64) -> f64 {
    let l = (2.0 / delta).ln();
    l / 3.0 + (l * l / 9.0 + 2.0 * variance * l).sqrt()
}

fn check(fo: FoKind, d: usize, n: usize) {
    let what = format!("{fo} over {d} candidates, {n} users");
    let (items, candidates, truth) = population(d, n);
    let estimator = LevelEstimator::new(ProtocolConfig {
        fo,
        epsilon: EPSILON,
        max_bits: MAX_BITS,
        granularity: 8,
        ..ProtocolConfig::default()
    })
    .unwrap();
    let (p, q) = support_probabilities(fo, d + 1);
    let mut scratch = EstimateScratch::new();
    let mut sum = vec![0.0f64; d];
    let mut sum_sq = vec![0.0f64; d];
    for run in 0..RUNS {
        let estimate =
            estimator.estimate_with(&mut scratch, &candidates, PREFIX_LEN, &items, run as u64);
        assert_eq!(estimate.users, n, "{what}");
        for (slot, f) in estimate.frequencies.iter().enumerate() {
            sum[slot] += f;
            sum_sq[slot] += f * f;
        }
    }

    // (a) Per candidate: the R·n support indicators behind the mean are
    // independent Bernoulli(p) for holders and Bernoulli(q) for the rest.
    let (runs, users) = (RUNS as f64, n as f64);
    for slot in 0..d {
        let f = truth[slot];
        let sum_variance = runs * users * (f * p * (1.0 - p) + (1.0 - f) * q * (1.0 - q));
        let radius = bernstein_radius(sum_variance, DELTA_MEAN) / (runs * users * (p - q));
        let mean = sum[slot] / runs;
        assert!(
            (mean - f).abs() <= radius,
            "{what}: slot {slot} mean {mean:.6} vs true {f:.6} (radius {radius:.6})"
        );
    }

    // (b) At the last candidate, which nobody holds.
    let slot = d - 1;
    assert_eq!(truth[slot], 0.0, "{what}: slot {slot} is a zero slot");
    let mean = sum[slot] / runs;
    let s2 = (sum_sq[slot] - runs * mean * mean) / (runs - 1.0);
    let sigma0_sq = q * (1.0 - q) / (users * (p - q) * (p - q));
    let k = runs - 1.0;
    let x = (1.0 / DELTA_VARIANCE_TAIL).ln();
    let ratio = k * s2 / sigma0_sq;
    let (lo, hi) = (k - 2.0 * (k * x).sqrt(), k + 2.0 * (k * x).sqrt() + 2.0 * x);
    assert!(
        (lo..=hi).contains(&ratio),
        "{what}: k·s²/σ₀² = {ratio:.1} outside [{lo:.1}, {hi:.1}] (s² {s2:.3e}, σ₀² {sigma0_sq:.3e})"
    );
}

#[test]
fn estimates_are_unbiased_with_the_stated_variance_on_small_domains() {
    for fo in FoKind::ALL {
        check(fo, 2, 6_000);
        check(fo, 41, 6_000);
    }
}

#[test]
fn krr_estimates_are_unbiased_with_the_stated_variance_on_a_wide_domain() {
    check(FoKind::Grr, 2_049, 20_000);
}

#[test]
fn populations_put_the_stated_share_on_the_dummy() {
    for d in [2usize, 41, 2_049] {
        let (items, candidates, truth) = population(d, 6_000);
        assert_eq!(items.len(), 6_000);
        let in_domain = items
            .iter()
            .filter(|item| candidates.contains(&(*item >> (MAX_BITS - PREFIX_LEN))))
            .count();
        assert_eq!(in_domain, 4_500, "d = {d}");
        assert!((truth.iter().sum::<f64>() - 0.75).abs() < 1e-12, "d = {d}");
        assert_eq!(truth[d - 1], 0.0, "d = {d}");
    }
}
