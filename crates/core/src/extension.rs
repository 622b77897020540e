//! Trie extension strategies: fixed top-t versus the paper's adaptive rule.
//!
//! At every level the party must decide how many of the estimated prefixes
//! to extend to the next level.  Prior work (PEM) always extends the top
//! `t = k`; the paper's adaptive strategy (Section 5.4) chooses
//! `t = k* + η`, where the *anchor* k\* maximises the mean-gap objective of
//! Equation 2 and the *drift* η bounds how far the anchor can sink under
//! LDP noise (Equation 3).

use fedhh_federated::LevelEstimate;

/// How many prefixes to extend at each level.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ExtensionStrategy {
    /// Always extend the top `t` prefixes.
    Fixed(usize),
    /// Always extend the top `k` prefixes: PEM's rule, `Fixed(t)` with
    /// `t` the run's query `k`.
    TopK,
    /// The paper's adaptive rule: `t = k* + η` (Equations 2 and 3).
    #[default]
    Adaptive,
}

impl ExtensionStrategy {
    /// Decides the extension number `t` for a level estimate and query `k`.
    /// The result is always within `[1, number of candidates]`.
    pub fn extension_count(&self, estimate: &LevelEstimate, k: usize) -> usize {
        let n = estimate.candidates.len();
        if n == 0 {
            return 0;
        }
        let t = match self {
            ExtensionStrategy::Fixed(t) => *t,
            ExtensionStrategy::TopK => k,
            ExtensionStrategy::Adaptive => adaptive_extension_count(estimate, k),
        };
        t.clamp(1, n)
    }
}

/// The adaptive extension number `t` of Section 5.4.
///
/// Two boundary interpretations (`ARCHITECTURE.md`, "Substitutions",
/// item 4):
///
/// * When the candidate domain is no larger than `k + 1` the anchor
///   objective cannot even be formed (there is no "tail" of less frequent
///   prefixes beyond the top k + 1), and pruning such a small domain can
///   only lose needed prefixes — so every candidate is extended, exactly as
///   the fixed `t = k` rule would do.
/// * The final top-k heavy hitters can require up to k distinct prefixes at
///   any level, so the extension never drops below k: `t = max(k, k* + η)`.
///   The paper's rationale for the anchor is precisely that it (plus the
///   drift margin) "covers the least frequent prefix among the final top k
///   heavy hitters"; on smoothly decaying frequency distributions the
///   literal argmax of Equation 2 can land well below that coverage point,
///   so the floor keeps the rule faithful to its stated goal while the
///   anchor + drift decide how far *beyond* k to extend.
pub fn adaptive_extension_count(estimate: &LevelEstimate, k: usize) -> usize {
    let ranked = estimate.ranked_candidates();
    let n = ranked.len();
    if k <= 1 {
        return k.max(1).min(n.max(1));
    }
    if n <= k + 1 {
        return n;
    }
    let freqs: Vec<f64> = ranked.iter().map(|(_, f)| *f).collect();
    let k_star = anchor_k_star(&freqs, k);
    let eta = drift_eta(&freqs, k, k_star, estimate.std_dev);
    (k_star + eta).max(k)
}

/// The anchor k\* of Equation 2: the split point (2 ≤ k\* ≤ k) that
/// maximises
/// `Σ_{1<j≤k*} f̂_j / k*  −  Σ_{k*<s≤k+1} f̂_s / (k + 1 − k*)`,
/// i.e. the sum of ranks 2..k\* scaled by k\* against the mean of ranks
/// k\*+1..k+1.  (Dividing the head by k\* rather than by k\*−1 follows the
/// paper's Equation 2 literally and reproduces its Figure 2(b) example,
/// where the chosen anchor is k\* = 4.)
///
/// `freqs` must be sorted in descending order and contain at least `k + 1`
/// entries (callers guarantee this).
pub fn anchor_k_star(freqs: &[f64], k: usize) -> usize {
    debug_assert!(freqs.len() > k, "need k+1 frequencies to place the anchor");
    let mut best_k = 2usize.min(k);
    let mut best_score = f64::NEG_INFINITY;
    for k_star in 2..=k {
        // Sum of ranks 2..=k_star (1-indexed), i.e. indices 1..k_star,
        // divided by k_star as in Equation 2.
        let head: f64 = freqs[1..k_star].iter().sum::<f64>() / k_star as f64;
        // Mean of ranks k_star+1..=k+1, i.e. indices k_star..=k.
        let tail: f64 = freqs[k_star..=k].iter().sum::<f64>() / (k + 1 - k_star) as f64;
        let score = head - tail;
        if score > best_score {
            best_score = score;
            best_k = k_star;
        }
    }
    best_k
}

/// The drift η of Equation 3: the expected number of positions the anchor
/// can sink under the FO's noise, bounded by `k`.
///
/// `freqs` is sorted descending, `sigma` is the standard deviation of one
/// frequency estimate under the FO in use.
pub fn drift_eta(freqs: &[f64], k: usize, k_star: usize, sigma: f64) -> usize {
    let n = freqs.len();
    let max_x = k.min(n.saturating_sub(k_star));
    if max_x == 0 {
        return 0;
    }
    if sigma <= 0.0 {
        // Noise-free estimates cannot drift.
        return 0;
    }
    let anchor = freqs[k_star - 1];
    let mut expectation = 0.0;
    for x in 1..=max_x {
        let below = freqs[k_star - 1 + x];
        // Pr[X_{k*} ≤ X_{k*+x}] for Gaussian estimates with shared σ:
        // the difference has variance 2σ², so the probability is
        // Φ(−(f̂_{k*} − f̂_{k*+x}) / (σ√2)).
        let p = normal_cdf(-(anchor - below) / (sigma * std::f64::consts::SQRT_2));
        expectation += x as f64 * p;
    }
    (expectation.round() as usize).min(k)
}

/// The standard normal CDF Φ, via the Abramowitz–Stegun erf approximation
/// (max absolute error ≈ 1.5e−7, far below the LDP noise scale).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    sign * (1.0 - poly * (-x * x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate_from(freqs: Vec<f64>, sigma: f64) -> LevelEstimate {
        LevelEstimate::new((0..freqs.len() as u64).collect(), freqs, sigma, 1000, 0)
    }

    #[test]
    fn normal_cdf_matches_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(6.0) > 0.999_999);
        assert!(normal_cdf(-6.0) < 1e-6);
    }

    #[test]
    fn anchor_finds_the_frequency_cliff() {
        // Clear cliff after rank 3: [0.4, 0.2, 0.19, 0.01, 0.005, ...].
        let freqs = vec![0.4, 0.2, 0.19, 0.01, 0.005, 0.004, 0.003];
        assert_eq!(anchor_k_star(&freqs, 5), 3);
        // Cliff right after rank 2.
        let freqs = vec![0.5, 0.3, 0.01, 0.009, 0.008, 0.007];
        assert_eq!(anchor_k_star(&freqs, 4), 2);
    }

    #[test]
    fn anchor_matches_the_papers_figure_2b_example() {
        // Figure 2(b): noisy frequencies over the level-h prefix domain with
        // k = 4; the paper's adaptive strategy picks t = k* + η = 5, which
        // requires the anchor to sit at k* = 4.
        let freqs = vec![0.35, 0.2, 0.15, 0.13, 0.1, 0.04, 0.02, 0.01, 0.0];
        assert_eq!(anchor_k_star(&freqs, 4), 4);
    }

    #[test]
    fn small_domains_are_extended_entirely() {
        // With at most k + 1 candidates there is nothing to prune: every
        // candidate is extended, matching the fixed t = k behaviour.
        let est = estimate_from(vec![0.3, 0.28, 0.22, 0.2], 0.001);
        assert_eq!(adaptive_extension_count(&est, 10), 4);
        assert_eq!(ExtensionStrategy::Adaptive.extension_count(&est, 10), 4);
    }

    #[test]
    fn drift_is_zero_without_noise_and_grows_with_noise() {
        let freqs = vec![0.3, 0.2, 0.15, 0.14, 0.13, 0.05, 0.02, 0.01];
        assert_eq!(drift_eta(&freqs, 4, 3, 0.0), 0);
        let small = drift_eta(&freqs, 4, 3, 0.001);
        let large = drift_eta(&freqs, 4, 3, 0.2);
        assert!(
            large >= small,
            "drift must grow with noise: {small} vs {large}"
        );
        assert!(large <= 4, "drift is bounded by k");
    }

    #[test]
    fn adaptive_extends_beyond_k_when_frequencies_are_close() {
        // Near-ties around the anchor with meaningful noise: the adaptive
        // rule should extend more than a tight fixed k would... but never
        // beyond the number of candidates.
        let freqs = vec![
            0.11, 0.105, 0.1, 0.099, 0.098, 0.097, 0.096, 0.05, 0.02, 0.01,
        ];
        let est = estimate_from(freqs, 0.05);
        let t = adaptive_extension_count(&est, 4);
        assert!(t >= 4, "expected t >= k, got {t}");
        assert!(t <= est.candidates.len());
    }

    #[test]
    fn adaptive_never_drops_below_k_but_stays_tight_when_the_head_is_clear() {
        // A sharp cliff and almost no noise: no reason to extend beyond the
        // coverage floor of k.
        let freqs = vec![0.5, 0.3, 0.15, 0.001, 0.001, 0.001, 0.001, 0.001];
        let est = estimate_from(freqs, 1e-6);
        let t = adaptive_extension_count(&est, 4);
        assert_eq!(t, 4, "expected the k floor, got {t}");
    }

    #[test]
    fn strategy_clamps_to_candidate_count() {
        let est = estimate_from(vec![0.5, 0.3, 0.2], 0.01);
        assert_eq!(ExtensionStrategy::Fixed(10).extension_count(&est, 10), 3);
        assert!(ExtensionStrategy::Adaptive.extension_count(&est, 10) <= 3);
        assert!(ExtensionStrategy::Adaptive.extension_count(&est, 10) >= 1);
        // Empty estimates yield zero.
        let empty = estimate_from(vec![], 0.01);
        assert_eq!(ExtensionStrategy::Adaptive.extension_count(&empty, 5), 0);
    }

    #[test]
    fn top_k_extends_k_or_every_candidate() {
        let est = estimate_from(vec![0.4, 0.3, 0.2, 0.06, 0.04], 0.01);
        let n = est.candidates.len();
        for k in [1, 3, 5, 7] {
            assert_eq!(ExtensionStrategy::TopK.extension_count(&est, k), k.min(n));
        }
    }

    #[test]
    fn default_strategy_is_adaptive() {
        assert_eq!(ExtensionStrategy::default(), ExtensionStrategy::Adaptive);
    }

    /// The ranking every reader sorted for itself before an estimate kept
    /// its own, on the NaN-free pairs.  The NaN pairs follow, by value.
    fn ranking_oracle(estimate: &LevelEstimate) -> Vec<(u64, f64)> {
        let (mut pairs, mut nans): (Vec<_>, Vec<_>) = estimate
            .candidates
            .iter()
            .copied()
            .zip(estimate.frequencies.iter().copied())
            .partition(|(_, f)| !f.is_nan());
        pairs.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        nans.sort_by_key(|(v, _)| *v);
        pairs.extend(nans);
        pairs
    }

    /// `extension_count` over the oracle's ranking.
    fn extension_count_oracle(strategy: ExtensionStrategy, est: &LevelEstimate, k: usize) -> usize {
        let ranked = ranking_oracle(est);
        let n = ranked.len();
        if n == 0 {
            return 0;
        }
        let t = match strategy {
            ExtensionStrategy::Fixed(t) => t,
            ExtensionStrategy::TopK => k,
            ExtensionStrategy::Adaptive if k <= 1 => k.max(1).min(n),
            ExtensionStrategy::Adaptive if n <= k + 1 => n,
            ExtensionStrategy::Adaptive => {
                let freqs: Vec<f64> = ranked.iter().map(|(_, f)| *f).collect();
                let k_star = anchor_k_star(&freqs, k);
                (k_star + drift_eta(&freqs, k, k_star, est.std_dev)).max(k)
            }
        };
        t.clamp(1, n)
    }

    #[test]
    fn ranking_readers_match_the_sort_oracle() {
        use crate::aggregate::local_result_from_estimate;
        use crate::taps::pruning::select_prune_candidates;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let bits = |pairs: &[(u64, f64)]| -> Vec<(u64, u64)> {
            pairs.iter().map(|(v, f)| (*v, f.to_bits())).collect()
        };
        // Values from a small range (repeats are common); frequencies with
        // ties and ±0.0 among ordinary draws, and in every fourth case one
        // NaN, which ranks after every number (`fedhh_federated::ranked`).
        let pool = [0.25, 0.1, 0.0, -0.0, -0.1, 1e-12, 0.25];
        let mut rng = StdRng::seed_from_u64(0x0A_4C_1E);
        for case in 0..600usize {
            let n = case % 60;
            let span = rng.gen_range(1..=2 * n as u64 + 1);
            let candidates: Vec<u64> = (0..n).map(|_| rng.gen_range(0..span)).collect();
            let mut frequencies: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => rng.gen::<f64>() * 0.7 - 0.2,
                    _ => pool[rng.gen_range(0..pool.len())],
                })
                .collect();
            if case % 4 == 0 && n > 0 {
                frequencies[rng.gen_range(0..n)] = f64::NAN;
            }
            let sigma = [0.0, 1e-4, 0.02, 0.3][case % 4];
            let est = LevelEstimate::new(candidates, frequencies, sigma, 1000, 0);
            let oracle = ranking_oracle(&est);
            assert_eq!(bits(est.ranked_candidates()), bits(&oracle), "case {case}");
            for k in [1, 2, 3, 5, 10, 16] {
                let what = format!("case {case}, k {k}");
                for strategy in [
                    ExtensionStrategy::Adaptive,
                    ExtensionStrategy::TopK,
                    ExtensionStrategy::Fixed(k + 3),
                ] {
                    assert_eq!(
                        strategy.extension_count(&est, k),
                        extension_count_oracle(strategy, &est, k),
                        "{what}, {strategy:?}"
                    );
                }
                let selected = select_prune_candidates(&est, k);
                let take = (2 * k).min(n);
                assert_eq!(bits(&selected.frequent), bits(&oracle[..take]), "{what}");
                let infrequent: Vec<u64> = oracle.iter().rev().take(take).map(|p| p.0).collect();
                assert_eq!(selected.infrequent, infrequent, "{what}");
                let local = local_result_from_estimate("p", 777, &est, k);
                let reported: Vec<(u64, f64)> = oracle
                    .iter()
                    .take(k)
                    .map(|&(v, f)| (v, (f * 777.0).max(0.0)))
                    .collect();
                assert_eq!(bits(&local.reported_counts), bits(&reported), "{what}");
            }
        }
    }
}
