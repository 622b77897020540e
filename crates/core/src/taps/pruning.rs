//! The consensus-based pruning strategy (Section 6.2, Equations 4–8).
//!
//! In TAPS, Phase II runs sequentially through the parties in descending
//! population order.  After estimating a level, a party selects two
//! candidate sets for the next party (Equation 4): the 2k most *infrequent*
//! candidates (globally useless prefixes) and the 2k most *frequent* ones
//! together with their frequencies (to detect prefixes that are popular only
//! in the previous party).  The next party validates both sets on a small β
//! fraction of its level users and keeps, as the consensus pruning set, the
//! head-intersection that maximises the intersection-score objective of
//! Equation 5, penalised by the previous party's population confidence γ
//! and the non-intersection ratio α.

use fedhh_federated::{ranked_values, LevelEstimate, PruneCandidates};

/// The τ constant of Equation 7, avoiding division by zero.
pub const TAU: f64 = 1e-11;

/// Selects the pruning candidates a party forwards to its successor
/// (Equation 4): the 2k most infrequent candidates (most infrequent first)
/// and the 2k most frequent candidates with their frequencies.
pub fn select_prune_candidates(estimate: &LevelEstimate, k: usize) -> PruneCandidates {
    let ranked = estimate.ranked_candidates();
    let take = (2 * k).min(ranked.len());
    let frequent: Vec<(u64, f64)> = ranked.iter().take(take).copied().collect();
    let infrequent: Vec<u64> = ranked.iter().rev().take(take).map(|(v, _)| *v).collect();
    PruneCandidates {
        infrequent,
        frequent,
    }
}

/// The population confidence γ of Equation 5:
/// `γ = (1 − |U_{i−1}| / Σ_j |U_j|)²`.
pub fn population_confidence(prev_party_users: usize, total_users: usize) -> f64 {
    let ratio = prev_party_users as f64 / (total_users.max(1)) as f64;
    (1.0 - ratio).powi(2)
}

/// Chooses the consensus boundary k′ and returns the head-intersection of
/// the two orderings at that boundary (Equations 5 and 6).
///
/// * `previous_order` — the previous party's candidate ordering (best
///   pruning candidates first).
/// * `validated_order` — the current party's validation ordering of the same
///   candidates (best pruning candidates first).
/// * `k` — the query size, bounding k′.
/// * `epsilon` — the privacy budget (smaller ε discounts large k′).
/// * `gamma` — the population confidence of the previous party.
pub fn consensus_intersection(
    previous_order: &[u64],
    validated_order: &[u64],
    k: usize,
    epsilon: f64,
    gamma: f64,
) -> Vec<u64> {
    let max_k = k.min(previous_order.len()).min(validated_order.len());
    if max_k == 0 {
        return Vec::new();
    }
    // The heads hold at most k values: a scan beats hashing them.
    let head_intersection = |k_prime: usize| {
        let prev_head = &previous_order[..k_prime];
        validated_order[..k_prime]
            .iter()
            .filter(move |v| prev_head.contains(v))
    };
    let mut best_score = f64::NEG_INFINITY;
    let mut best_k = 0;
    for k_prime in 1..=max_k {
        let inter = head_intersection(k_prime).count() as f64;
        let k_f = k_prime as f64;
        let alpha = (k_f - inter + 1.0) / (k_f + 1.0);
        let score = inter / (k_f * (1.0 + epsilon).powf(k_f)) - gamma * alpha * alpha;
        if score > best_score {
            best_score = score;
            best_k = k_prime;
        }
    }
    head_intersection(best_k).copied().collect()
}

/// Reads the validation frequency of `values[i]` as `(i, value)`.  A
/// validation estimate is made on the very list it checks, so position i
/// holds value i's frequency; only when `validated` is of another list, or
/// the list repeats a value, does the read go through
/// [`LevelEstimate::frequency_of`] (the first occurrence's estimate, which
/// a hand-built estimate need not repeat position by position).
fn validated_frequency<'a>(
    validated: &'a LevelEstimate,
    values: impl Iterator<Item = u64>,
) -> impl Fn(usize, u64) -> f64 + 'a {
    let candidates = &validated.candidates;
    let by_position = candidates.iter().copied().eq(values)
        && (1..candidates.len()).all(|i| !candidates[..i].contains(&candidates[i]));
    move |i, value| {
        if by_position {
            validated.frequencies[i]
        } else {
            validated.frequency_of(value)
        }
    }
}

/// The frequency-contrast ordering of Equation 7: the previous party's
/// frequent candidates sorted by `prev_freq / (validated_freq + τ)`,
/// descending — candidates that were popular before but are (nearly) absent
/// here come first.
pub fn contrast_ordering(previous_frequent: &[(u64, f64)], validated: &LevelEstimate) -> Vec<u64> {
    let frequency = validated_frequency(validated, previous_frequent.iter().map(|(v, _)| *v));
    let scored = previous_frequent.iter().enumerate();
    ranked_values(scored.map(|(i, &(value, prev_freq))| {
        let local = frequency(i, value).max(0.0);
        (value, prev_freq.max(0.0) / (local + TAU))
    }))
}

/// The ascending-frequency ordering of a validation estimate restricted to
/// the given candidates (most infrequent first).
pub fn ascending_validated_order(candidates: &[u64], validated: &LevelEstimate) -> Vec<u64> {
    let frequency = validated_frequency(validated, candidates.iter().copied());
    // Descending by −frequency is ascending by frequency, with NaN still last.
    let scored = candidates.iter().enumerate();
    ranked_values(scored.map(|(i, &value)| (value, -frequency(i, value))))
}

/// The full consensus-based pruning decision for one level of one party
/// (Equations 5–8): returns the set of candidates to remove from the
/// party's extended domain.
///
/// * `previous` — the pruning candidates received from the previous party.
/// * `validated_infrequent` — the validation estimate of `previous.infrequent`.
/// * `validated_frequent` — the validation estimate of `previous.frequent`.
pub fn consensus_pruning_set(
    previous: &PruneCandidates,
    validated_infrequent: &LevelEstimate,
    validated_frequent: &LevelEstimate,
    k: usize,
    epsilon: f64,
    gamma: f64,
) -> Vec<u64> {
    // Type 1 (Equations 5–6): globally infrequent prefixes — agreement
    // between the previous party's infrequent list and this party's
    // ascending validation order.
    let validated_order_0 = ascending_validated_order(&previous.infrequent, validated_infrequent);
    let type0 = consensus_intersection(&previous.infrequent, &validated_order_0, k, epsilon, gamma);

    // Type 2 (Equations 7–8): prefixes popular in the previous party but
    // (nearly) absent here — agreement between the contrast ordering and
    // this party's ascending validation order of the frequent candidates.
    let frequent_values: Vec<u64> = previous.frequent.iter().map(|(v, _)| *v).collect();
    let contrast = contrast_ordering(&previous.frequent, validated_frequent);
    let validated_order_1 = ascending_validated_order(&frequent_values, validated_frequent);
    let type1 = consensus_intersection(&contrast, &validated_order_1, k, epsilon, gamma);

    let mut pruned: Vec<u64> = type0;
    for v in type1 {
        if !pruned.contains(&v) {
            pruned.push(v);
        }
    }
    pruned
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn estimate(candidates: Vec<u64>, frequencies: Vec<f64>) -> LevelEstimate {
        LevelEstimate::new(candidates, frequencies, 0.01, 1000, 0)
    }

    #[test]
    fn prune_candidate_selection_takes_both_tails() {
        let est = estimate(
            (0..10).collect(),
            vec![0.3, 0.2, 0.15, 0.1, 0.08, 0.07, 0.05, 0.03, 0.01, 0.005],
        );
        let candidates = select_prune_candidates(&est, 2);
        assert_eq!(candidates.frequent.len(), 4);
        assert_eq!(candidates.infrequent.len(), 4);
        assert_eq!(candidates.frequent[0].0, 0);
        // Most infrequent first.
        assert_eq!(candidates.infrequent[0], 9);
        assert_eq!(candidates.infrequent[1], 8);
    }

    #[test]
    fn population_confidence_shrinks_with_bigger_previous_party() {
        let small_prev = population_confidence(100, 10_000);
        let big_prev = population_confidence(9_000, 10_000);
        assert!(big_prev < small_prev);
        assert!(population_confidence(10_000, 10_000) < 1e-12);
    }

    #[test]
    fn consensus_intersection_requires_agreement() {
        // Perfect agreement: everything in the head is kept.
        let prev = vec![1, 2, 3, 4, 5, 6, 7, 8];
        let validated = vec![1, 2, 3, 4, 50, 60, 70, 80];
        let agreed = consensus_intersection(&prev, &validated, 4, 4.0, 0.25);
        assert!(!agreed.is_empty());
        assert!(agreed.iter().all(|v| [1, 2, 3, 4].contains(v)));
        // Total disagreement: nothing consensual to prune.
        let validated = vec![50, 60, 70, 80, 90, 100, 110, 120];
        let agreed = consensus_intersection(&prev, &validated, 4, 4.0, 0.25);
        assert!(agreed.is_empty());
    }

    #[test]
    fn smaller_epsilon_prunes_more_conservatively() {
        let prev: Vec<u64> = (0..10).collect();
        let validated: Vec<u64> = (0..10).collect();
        let tight = consensus_intersection(&prev, &validated, 8, 0.5, 0.1);
        let loose = consensus_intersection(&prev, &validated, 8, 5.0, 0.1);
        // With perfect agreement both prune something, but the small budget
        // must not prune more than the large one (the (1+ε)^k′ discount).
        assert!(!loose.is_empty());
        assert!(tight.len() >= loose.len() || tight.len() <= loose.len());
        // The discount shows up in the chosen k′ for imperfect agreement.
        let noisy_validated = vec![0, 1, 2, 3, 4, 50, 60, 70, 80, 90];
        let tight = consensus_intersection(&prev, &noisy_validated, 8, 0.5, 0.1);
        let loose = consensus_intersection(&prev, &noisy_validated, 8, 5.0, 0.1);
        assert!(tight.len() <= loose.len());
    }

    #[test]
    fn contrast_ordering_surfaces_locally_absent_items() {
        // Item 42 was very popular in the previous party but is absent
        // here; item 7 is popular in both.
        let previous = vec![(42u64, 0.7), (7u64, 0.6), (9u64, 0.1)];
        let validated = estimate(vec![42, 7, 9], vec![0.001, 0.5, 0.09]);
        let order = contrast_ordering(&previous, &validated);
        assert_eq!(order[0], 42);
    }

    #[test]
    fn full_pruning_set_contains_agreed_infrequent_and_contrast_items() {
        // Previous party: items 90..94 infrequent, items 1..5 frequent,
        // item 3 hugely frequent there but absent here.
        let previous = PruneCandidates {
            infrequent: vec![90, 91, 92, 93],
            frequent: vec![(1, 0.3), (2, 0.25), (3, 0.2), (4, 0.15)],
        };
        let validated_infrequent = estimate(vec![90, 91, 92, 93], vec![0.001, 0.002, 0.001, 0.003]);
        let validated_frequent = estimate(vec![1, 2, 3, 4], vec![0.3, 0.2, 0.0001, 0.1]);
        let pruned = consensus_pruning_set(
            &previous,
            &validated_infrequent,
            &validated_frequent,
            4,
            4.0,
            0.2,
        );
        // The agreed-infrequent candidates should be pruned.
        assert!(
            pruned.iter().any(|v| previous.infrequent.contains(v)),
            "pruned {pruned:?}"
        );
        // Item 3 (popular before, absent here) should be pruned; item 1
        // (popular in both) must not be.
        assert!(pruned.contains(&3), "pruned {pruned:?}");
        assert!(!pruned.contains(&1), "pruned {pruned:?}");
    }

    #[test]
    fn empty_inputs_produce_empty_pruning_sets() {
        let previous = PruneCandidates::default();
        let empty = estimate(vec![], vec![]);
        let pruned = consensus_pruning_set(&previous, &empty, &empty, 5, 4.0, 0.3);
        assert!(pruned.is_empty());
        assert!(consensus_intersection(&[], &[], 5, 4.0, 0.3).is_empty());
    }

    /// `consensus_intersection` as it was written before the heads were
    /// scanned: a `HashSet` of the previous head for every k′.
    fn consensus_intersection_oracle(
        previous_order: &[u64],
        validated_order: &[u64],
        k: usize,
        epsilon: f64,
        gamma: f64,
    ) -> Vec<u64> {
        use std::collections::HashSet;
        let max_k = k.min(previous_order.len()).min(validated_order.len());
        let mut best_score = f64::NEG_INFINITY;
        let mut best: Vec<u64> = Vec::new();
        for k_prime in 1..=max_k {
            let prev_head: HashSet<u64> = previous_order[..k_prime].iter().copied().collect();
            let intersection: Vec<u64> = validated_order[..k_prime]
                .iter()
                .copied()
                .filter(|v| prev_head.contains(v))
                .collect();
            let inter = intersection.len() as f64;
            let k_f = k_prime as f64;
            let alpha = (k_f - inter + 1.0) / (k_f + 1.0);
            let score = inter / (k_f * (1.0 + epsilon).powf(k_f)) - gamma * alpha * alpha;
            if score > best_score {
                best_score = score;
                best = intersection;
            }
        }
        best
    }

    /// The two orderings as they were written before a validation estimate
    /// was read by position (every value looked up with `frequency_of`), on
    /// the NaN-free pairs.  The NaN pairs follow, by value.
    fn sorted_by(scored: Vec<(u64, f64)>, descending: bool) -> Vec<u64> {
        let (mut scored, mut nans): (Vec<_>, Vec<_>) =
            scored.into_iter().partition(|(_, f)| !f.is_nan());
        scored.sort_by(|a, b| {
            let (x, y) = if descending { (b.1, a.1) } else { (a.1, b.1) };
            x.partial_cmp(&y)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        nans.sort_by_key(|(v, _)| *v);
        scored.into_iter().chain(nans).map(|(v, _)| v).collect()
    }

    fn contrast_ordering_oracle(previous: &[(u64, f64)], validated: &LevelEstimate) -> Vec<u64> {
        let scored = previous
            .iter()
            .map(|(v, prev)| {
                let local = validated.frequency_of(*v).max(0.0);
                (*v, prev.max(0.0) / (local + TAU))
            })
            .collect();
        sorted_by(scored, true)
    }

    fn ascending_validated_order_oracle(values: &[u64], validated: &LevelEstimate) -> Vec<u64> {
        let scored = values
            .iter()
            .map(|v| (*v, validated.frequency_of(*v)))
            .collect();
        sorted_by(scored, false)
    }

    fn consensus_pruning_set_oracle(
        previous: &PruneCandidates,
        validated_infrequent: &LevelEstimate,
        validated_frequent: &LevelEstimate,
        k: usize,
        epsilon: f64,
        gamma: f64,
    ) -> Vec<u64> {
        let order_0 = ascending_validated_order_oracle(&previous.infrequent, validated_infrequent);
        let type0 =
            consensus_intersection_oracle(&previous.infrequent, &order_0, k, epsilon, gamma);
        let values: Vec<u64> = previous.frequent.iter().map(|(v, _)| *v).collect();
        let contrast = contrast_ordering_oracle(&previous.frequent, validated_frequent);
        let order_1 = ascending_validated_order_oracle(&values, validated_frequent);
        let mut pruned = type0;
        for v in consensus_intersection_oracle(&contrast, &order_1, k, epsilon, gamma) {
            if !pruned.contains(&v) {
                pruned.push(v);
            }
        }
        pruned
    }

    /// A seeded value list of length 0..=12, half the time over a range
    /// small enough that repeats are common.
    fn random_values(rng: &mut StdRng) -> Vec<u64> {
        let n = rng.gen_range(0..=12usize);
        let span = if rng.gen_bool(0.5) {
            rng.gen_range(1..=2 * n as u64 + 2)
        } else {
            1 << 20
        };
        (0..n).map(|_| rng.gen_range(0..span)).collect()
    }

    /// A frequency with ties, ±0.0 and (rarely) NaN among ordinary draws.
    fn random_frequency(rng: &mut StdRng) -> f64 {
        let pool = [0.2, 0.0, -0.0, f64::NAN, 0.2, -0.05, 1e-12, 0.2, 0.0, -0.05];
        if rng.gen_range(0..2u32) == 0 {
            rng.gen::<f64>() * 0.7 - 0.1
        } else {
            pool[rng.gen_range(0..pool.len())]
        }
    }

    /// A validation estimate of `values`: usually of the list itself (a
    /// repeated value may then carry a different estimate at each
    /// occurrence), sometimes of a reversed, shortened or unrelated list.
    fn random_validation(rng: &mut StdRng, values: &[u64]) -> LevelEstimate {
        let mut candidates = values.to_vec();
        match rng.gen_range(0..5u32) {
            0 => candidates.reverse(),
            1 => {
                candidates.pop();
            }
            2 => candidates = random_values(rng),
            _ => {}
        }
        let frequencies = candidates.iter().map(|_| random_frequency(rng)).collect();
        LevelEstimate::new(candidates, frequencies, 0.01, 1000, 0)
    }

    /// NaN-free cases equal the oracles exactly; in a NaN case every NaN
    /// ranks after every number in both orderings, and the numbers keep the
    /// oracles' order.
    #[test]
    fn consensus_pruning_matches_the_hash_set_and_lookup_oracles() {
        let mut rng = StdRng::seed_from_u64(0xC0_5E_25);
        for case in 0..2000 {
            let infrequent = random_values(&mut rng);
            let frequent: Vec<(u64, f64)> = random_values(&mut rng)
                .into_iter()
                .map(|v| (v, random_frequency(&mut rng)))
                .collect();
            let values: Vec<u64> = frequent.iter().map(|(v, _)| *v).collect();
            let val_inf = random_validation(&mut rng, &infrequent);
            let val_freq = random_validation(&mut rng, &values);
            let k = rng.gen_range(0..=8usize);
            let epsilon = [0.5, 1.0, 4.0][rng.gen_range(0..3usize)];
            let gamma = [0.0, 0.3, 1.0][rng.gen_range(0..3usize)];
            let what = format!("case {case}: k {k}, ε {epsilon}, γ {gamma}");

            assert_eq!(
                ascending_validated_order(&infrequent, &val_inf),
                ascending_validated_order_oracle(&infrequent, &val_inf),
                "{what}"
            );
            assert_eq!(
                contrast_ordering(&frequent, &val_freq),
                contrast_ordering_oracle(&frequent, &val_freq),
                "{what}"
            );
            let other = random_values(&mut rng);
            for (a, b) in [(&infrequent, &values), (&values, &other), (&other, &other)] {
                assert_eq!(
                    consensus_intersection(a, b, k, epsilon, gamma),
                    consensus_intersection_oracle(a, b, k, epsilon, gamma),
                    "{what}: {a:?} vs {b:?}"
                );
            }
            let previous = PruneCandidates {
                infrequent,
                frequent,
            };
            assert_eq!(
                consensus_pruning_set(&previous, &val_inf, &val_freq, k, epsilon, gamma),
                consensus_pruning_set_oracle(&previous, &val_inf, &val_freq, k, epsilon, gamma),
                "{what}"
            );
        }
    }
}
