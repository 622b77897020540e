//! Property-style tests for the frequency-oracle crate.
//!
//! These exercise the invariants that the heavy hitter mechanisms rely on:
//! reports stay inside the output range, the estimator is unbiased in
//! expectation, and the LDP probability ratio never exceeds e^ε.  Instead of
//! a randomized property-testing framework the cases sweep deterministic
//! seeded grids, so every run checks the same (broad) parameter space.

use fedhh_fo::{
    CandidateDomain, FoKind, FrequencyOracle, GrrOracle, Oracle, OueOracle, PrivacyBudget, Report,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// GRR reports are always valid domain indices, for any budget, domain size
/// and input.
#[test]
fn grr_reports_stay_in_domain() {
    for (i, eps) in [0.2f64, 0.7, 1.5, 3.0, 6.0].into_iter().enumerate() {
        for domain in [2usize, 3, 5, 16, 63] {
            let budget = PrivacyBudget::new(eps).unwrap();
            let oracle = GrrOracle::new(budget, domain).unwrap();
            let mut rng = StdRng::seed_from_u64(i as u64 * 1000 + domain as u64);
            for input in 0..domain {
                match oracle.perturb(input, &mut rng) {
                    Report::Item(v) => assert!((v as usize) < domain),
                    other => panic!("unexpected report {other:?}"),
                }
            }
        }
    }
}

/// OUE reports always have exactly one bit per domain slot.
#[test]
fn oue_reports_have_domain_width() {
    for (i, eps) in [0.2f64, 1.0, 4.0].into_iter().enumerate() {
        for domain in [2usize, 7, 33, 64] {
            let budget = PrivacyBudget::new(eps).unwrap();
            let oracle = OueOracle::new(budget, domain).unwrap();
            let mut rng = StdRng::seed_from_u64(7 + i as u64);
            for input in [0, domain / 2, domain - 1] {
                match oracle.perturb(input, &mut rng) {
                    Report::Bits(bits) => assert_eq!(bits.len(), domain),
                    other => panic!("unexpected report {other:?}"),
                }
            }
        }
    }
}

/// The GRR probability pair always satisfies the ε-LDP ratio and sums to a
/// proper distribution.
#[test]
fn grr_probabilities_satisfy_ldp() {
    for eps in [0.1f64, 0.5, 1.0, 2.0, 4.0, 8.0] {
        for domain in [2usize, 4, 16, 128, 512] {
            let budget = PrivacyBudget::new(eps).unwrap();
            let oracle = GrrOracle::new(budget, domain).unwrap();
            let ratio = oracle.p() / oracle.q();
            assert!(
                ratio <= eps.exp() * (1.0 + 1e-9),
                "eps {eps} domain {domain}"
            );
            let total = oracle.p() + (domain as f64 - 1.0) * oracle.q();
            assert!((total - 1.0).abs() < 1e-9, "eps {eps} domain {domain}");
        }
    }
}

/// Every oracle kind recovers a planted majority value when the budget is
/// generous and the population large.
#[test]
fn every_oracle_recovers_a_planted_mode() {
    for kind in FoKind::ALL {
        for majority in [0usize, 3, 7] {
            for seed in [1u64, 99, 123_456] {
                let budget = PrivacyBudget::new(4.0).unwrap();
                let oracle = Oracle::new(kind, budget, 8);
                let mut rng = StdRng::seed_from_u64(seed);
                // 90% of 4000 users hold the majority slot, the rest are spread.
                let inputs: Vec<usize> = (0..4000)
                    .map(|i| {
                        if i % 10 != 0 {
                            majority
                        } else {
                            (majority + 1 + i / 10) % 8
                        }
                    })
                    .collect();
                let reports: Vec<Report> = inputs
                    .iter()
                    .map(|i| oracle.perturb(*i, &mut rng))
                    .collect();
                let est = oracle.estimate(&oracle.aggregate(&reports), inputs.len());
                assert_eq!(
                    est.top_k(1),
                    vec![majority],
                    "kind {kind} majority {majority} seed {seed}"
                );
            }
        }
    }
}

/// Estimated frequencies over the whole domain approximately sum to one
/// (unbiasedness of the estimator, aggregated over slots).
#[test]
fn estimates_sum_to_about_one() {
    for kind in FoKind::ALL {
        for seed in [5u64, 50, 500] {
            let budget = PrivacyBudget::new(3.0).unwrap();
            let domain = 12;
            let oracle = Oracle::new(kind, budget, domain);
            let mut rng = StdRng::seed_from_u64(seed);
            let inputs: Vec<usize> = (0..6000).map(|i| i % domain).collect();
            let reports: Vec<Report> = inputs
                .iter()
                .map(|i| oracle.perturb(*i, &mut rng))
                .collect();
            let est = oracle.estimate(&oracle.aggregate(&reports), inputs.len());
            let total: f64 = est.frequencies().iter().sum();
            assert!(
                (total - 1.0).abs() < 0.2,
                "kind {kind} seed {seed}: total = {total}"
            );
        }
    }
}

/// Domain pruning never removes values that were not asked to be pruned and
/// never grows the domain.
#[test]
fn domain_pruning_is_sound() {
    let mut rng = StdRng::seed_from_u64(42);
    for _case in 0..64 {
        let n = rng.gen_range(2usize..100);
        let mut values: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..1000)).collect();
        values.sort_unstable();
        values.dedup();
        let prune_n = rng.gen_range(0usize..50);
        let pruned: Vec<u64> = (0..prune_n).map(|_| rng.gen_range(0u64..1000)).collect();

        let domain = CandidateDomain::with_dummy(values.clone());
        let after = domain.without(&pruned);
        assert!(after.values().count() <= domain.values().count());
        for v in &values {
            let should_remain = !pruned.contains(v);
            assert_eq!(
                after.index_of(v).is_some(),
                should_remain,
                "value {v} pruned {pruned:?}"
            );
        }
    }
}

/// The flat reverse index of `CandidateDomain` agrees with the structure it
/// replaced — a `std::collections::HashMap` filled first-occurrence-wins —
/// on `len`, `index_of` and `encode` (with and without a dummy slot), for
/// every member and for more than 10 000 non-members per candidate list.
#[test]
fn candidate_domain_matches_a_hash_map_oracle() {
    use std::collections::HashMap;

    // Mirrors the first multiplier of the table's hash (`domain.rs`): with
    // its inverse mod 2^64, the value `k · INV` hashes to `k`, whose top
    // bits are zero — so these values share bucket 0 under that multiplier
    // at *every* table size and only a change of multiplier separates them.
    const FIRST_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut inverse = FIRST_MULTIPLIER;
    for _ in 0..6 {
        inverse = inverse.wrapping_mul(2u64.wrapping_sub(FIRST_MULTIPLIER.wrapping_mul(inverse)));
    }
    assert_eq!(FIRST_MULTIPLIER.wrapping_mul(inverse), 1);

    let mut rng = StdRng::seed_from_u64(0xD0_4A11);
    let mut lists: Vec<Vec<u64>> = vec![
        vec![],
        vec![0],
        vec![u64::MAX],
        vec![0, u64::MAX, 0, 1, u64::MAX, u64::MAX - 1],
        vec![7; 100],
    ];
    for size in [1usize, 2, 3, 4, 5, 8, 40, 41, 255, 256, 1000, 2048] {
        // Uniform 64-bit values, then the same with every third repeated.
        let uniform: Vec<u64> = (0..size).map(|_| rng.gen_range(0..=u64::MAX)).collect();
        let repeats = (0..size).map(|i| uniform[i - i % 3]).collect();
        // A dense range, as a full small domain would be.
        let dense = (0..size as u64).collect();
        // 48-bit prefixes that differ only above a shared 20-bit tail.
        let tails = (0..size)
            .map(|_| (rng.gen_range(0..1u64 << 28) << 20) | 0xA_BCDE)
            .collect();
        // Children of a few parents: runs of four consecutive values.
        let children = (0..size as u64)
            .map(|i| ((i / 4).wrapping_mul(0x1_0003) << 2) | (i % 4))
            .collect();
        let colliding = (0..size as u64).map(|k| k.wrapping_mul(inverse)).collect();
        lists.extend([uniform, repeats, dense, tails, children, colliding]);
    }
    for _ in 0..24 {
        // Small value range: many duplicates, and non-members that are near
        // misses rather than far-away random words.
        let size = rng.gen_range(0usize..=2048);
        lists.push((0..size).map(|_| rng.gen_range(0u64..3000)).collect());
    }

    for list in &lists {
        let mut oracle: HashMap<u64, usize> = HashMap::new();
        let mut ordered = Vec::new();
        for &v in list {
            oracle.entry(v).or_insert_with(|| {
                ordered.push(v);
                ordered.len() - 1
            });
        }
        let mut probes: Vec<u64> = (0..10_000).map(|_| rng.gen_range(0..=u64::MAX)).collect();
        probes.extend((0..2_000).map(|_| rng.gen_range(0u64..6000)));
        probes.extend([0, 1, u64::MAX, u64::MAX - 1, inverse]);
        for &v in ordered.iter().take(64) {
            probes.extend([v.wrapping_add(1), v.wrapping_sub(1), v ^ (1 << 63), !v]);
        }

        for dummy in [false, true] {
            let domain = if dummy {
                CandidateDomain::with_dummy(list.clone())
            } else {
                CandidateDomain::new(list.clone())
            };
            let what = format!(
                "{} values (first {:?}), dummy {dummy}",
                list.len(),
                list.first()
            );
            assert_eq!(domain.values().count(), oracle.len(), "{what}");
            assert_eq!(domain.len(), oracle.len() + usize::from(dummy), "{what}");
            assert_eq!(domain.to_vec(), ordered, "{what}");
            let miss = dummy.then_some(oracle.len());
            for v in list.iter().chain(&probes) {
                let expected = oracle.get(v).copied();
                assert_eq!(domain.index_of(v), expected, "{what}: index_of {v}");
                assert_eq!(domain.encode(v), expected.or(miss), "{what}: encode {v}");
            }
        }
    }
}

/// `aggregate` and `aggregate_into` match an independently written scalar
/// reference (per-report support counting straight from the paper's
/// definitions), bit for bit, for every oracle kind.
#[test]
fn aggregation_matches_a_scalar_reference() {
    use fedhh_fo::{OlhOracle, SupportCounts, UniversalHash};

    // Reference support counting, implemented independently of the crate's
    // aggregation loops.
    fn reference(
        kind: FoKind,
        domain: usize,
        reports: &[Report],
        olh: &OlhOracle,
    ) -> SupportCounts {
        let mut supports = SupportCounts::zeros(domain);
        for report in reports {
            match (kind, report) {
                (FoKind::Grr, Report::Item(idx)) => supports.add(*idx as usize, 1.0),
                (FoKind::Oue, Report::Bits(bits)) => {
                    for (slot, bit) in bits.iter().enumerate().take(domain) {
                        if *bit {
                            supports.add(slot, 1.0);
                        }
                    }
                }
                (FoKind::Olh, Report::Hashed { seed, value }) => {
                    let hash = UniversalHash::new(*seed, olh.buckets());
                    for candidate in 0..domain {
                        if hash.hash(candidate as u64) == *value {
                            supports.add(candidate, 1.0);
                        }
                    }
                }
                _ => {}
            }
            supports.record_reports(1);
        }
        supports
    }

    for kind in FoKind::ALL {
        for seed in [3u64, 19, 4242] {
            let domain = 23usize;
            let budget = PrivacyBudget::new(2.0).unwrap();
            let oracle = Oracle::new(kind, budget, domain);
            let olh = OlhOracle::new(budget, domain).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reports: Vec<Report> = (0..400)
                .map(|i| oracle.perturb(i % domain, &mut rng))
                .collect();
            // A foreign report must be counted but contribute no support.
            reports.push(match kind {
                FoKind::Grr => Report::Bits(vec![true; domain]),
                _ => Report::Item(3),
            });

            let want = reference(kind, domain, &reports, &olh);
            assert_eq!(oracle.aggregate(&reports), want, "kind {kind} seed {seed}");

            let mut arena = SupportCounts::zeros(domain);
            oracle.aggregate_into(&reports, &mut arena);
            assert_eq!(arena, want, "kind {kind} seed {seed} (aggregate_into)");

            // aggregate_into accumulates: a second pass doubles every count.
            oracle.aggregate_into(&reports, &mut arena);
            assert_eq!(arena.reports(), 2 * want.reports(), "kind {kind}");
            for slot in 0..domain {
                assert_eq!(
                    arena.support(slot),
                    2.0 * want.support(slot),
                    "kind {kind} slot {slot}"
                );
            }
        }
    }
}

/// Splitting a batch into chunks aggregated into one arena gives the same
/// supports as one scalar pass — the shard-local accumulation the engine
/// workers rely on.
#[test]
fn chunked_aggregation_matches_whole_batch() {
    for kind in FoKind::ALL {
        let domain = 17usize;
        let budget = PrivacyBudget::new(3.0).unwrap();
        let oracle = Oracle::new(kind, budget, domain);
        let mut rng = StdRng::seed_from_u64(99);
        let reports: Vec<Report> = (0..300)
            .map(|i| oracle.perturb((i * 7) % domain, &mut rng))
            .collect();

        let whole = oracle.aggregate(&reports);
        let mut arena = fedhh_fo::SupportCounts::zeros(domain);
        for chunk in reports.chunks(37) {
            oracle.aggregate_into(chunk, &mut arena);
        }
        assert_eq!(arena, whole, "kind {kind}");
    }
}

/// The vectorized path is **chunk-invariant**: perturbing in chunks of 1,
/// 7, 64 or all-at-once (with `base` carrying the global report offset)
/// yields bit-identical reports and bit-identical supports, for every
/// oracle kind, budget and domain in the grid.
#[test]
fn vectorized_path_is_chunk_invariant() {
    use fedhh_fo::{CtrRng, ReportBatch, SupportCounts};

    for kind in FoKind::ALL {
        for eps in [0.5f64, 2.0, 6.0] {
            for domain in [2usize, 5, 64, 257] {
                for key in [1u64, 0xDEAD_BEEF] {
                    let budget = PrivacyBudget::new(eps).unwrap();
                    let oracle = Oracle::new(kind, budget, domain);
                    let rng = CtrRng::new(key);
                    let inputs: Vec<usize> = (0..500).map(|i| (i * 31) % domain).collect();

                    let mut whole = ReportBatch::new();
                    oracle.perturb_vectorized(&inputs, &rng, 0, &mut whole);
                    assert_eq!(whole.len(), inputs.len());
                    let want_reports = whole.to_reports();
                    let mut want_supports = SupportCounts::zeros(domain);
                    oracle.aggregate_vectorized(&whole, &mut want_supports);

                    for chunk_size in [1usize, 7, 64, usize::MAX] {
                        let chunk_size = chunk_size.min(inputs.len());
                        let mut reports = Vec::new();
                        let mut supports = SupportCounts::zeros(domain);
                        let mut batch = ReportBatch::new();
                        let mut base = 0u64;
                        for chunk in inputs.chunks(chunk_size) {
                            batch.clear();
                            oracle.perturb_vectorized(chunk, &rng, base, &mut batch);
                            oracle.aggregate_vectorized(&batch, &mut supports);
                            reports.extend(batch.to_reports());
                            base += chunk.len() as u64;
                        }
                        assert_eq!(
                            reports, want_reports,
                            "kind {kind} eps {eps} domain {domain} key {key} chunk {chunk_size}"
                        );
                        assert_eq!(
                            supports, want_supports,
                            "kind {kind} eps {eps} domain {domain} key {key} chunk {chunk_size}"
                        );
                    }
                }
            }
        }
    }
}

/// The vectorized path is a pure function of the key: the same key
/// reproduces the batch bit for bit, a different key changes it.
#[test]
fn vectorized_path_is_deterministic_per_key() {
    use fedhh_fo::{CtrRng, ReportBatch};

    for kind in FoKind::ALL {
        let budget = PrivacyBudget::new(2.0).unwrap();
        let oracle = Oracle::new(kind, budget, 32);
        let inputs: Vec<usize> = (0..300).map(|i| i % 32).collect();

        let mut a = ReportBatch::new();
        let mut b = ReportBatch::new();
        let mut c = ReportBatch::new();
        oracle.perturb_vectorized(&inputs, &CtrRng::new(7), 0, &mut a);
        oracle.perturb_vectorized(&inputs, &CtrRng::new(7), 0, &mut b);
        oracle.perturb_vectorized(&inputs, &CtrRng::new(8), 0, &mut c);
        assert_eq!(a, b, "kind {kind}: same key must reproduce the batch");
        assert_ne!(a, c, "kind {kind}: different keys must differ");
    }
}

/// For GRR and OUE the vectorized aggregation counts exactly like the
/// row-oriented path over the materialized reports (OLH is exempt: its
/// vectorized path is pinned to its own division-free hash family, so only
/// the perturb+aggregate *pair* is comparable, which
/// `vectorized_path_recovers_a_planted_mode` covers).
#[test]
fn vectorized_aggregation_matches_row_reference_for_grr_and_oue() {
    use fedhh_fo::{CtrRng, ReportBatch, SupportCounts};

    for kind in [FoKind::Grr, FoKind::Oue] {
        for domain in [2usize, 63, 64, 65, 200] {
            let budget = PrivacyBudget::new(1.5).unwrap();
            let oracle = Oracle::new(kind, budget, domain);
            let rng = CtrRng::new(99);
            let inputs: Vec<usize> = (0..400).map(|i| (i * 13) % domain).collect();
            let mut batch = ReportBatch::new();
            oracle.perturb_vectorized(&inputs, &rng, 0, &mut batch);

            let mut vectorized = SupportCounts::zeros(domain);
            oracle.aggregate_vectorized(&batch, &mut vectorized);
            let rows = batch.to_reports();
            assert_eq!(
                vectorized,
                oracle.aggregate(&rows),
                "kind {kind} domain {domain}"
            );

            // Wire-size accounting matches the row reports too.
            let row_bits: usize = rows.iter().map(Report::size_bits).sum();
            assert_eq!(batch.size_bits(), row_bits, "kind {kind} domain {domain}");
        }
    }
}

/// The whole vectorized pipeline (counter RNG → SoA perturb → blocked
/// aggregate → de-bias) recovers a planted majority for every oracle kind,
/// i.e. the new kernels implement the same mechanism, not just fast noise.
#[test]
fn vectorized_path_recovers_a_planted_mode() {
    use fedhh_fo::{CtrRng, ReportBatch, SupportCounts};

    for kind in FoKind::ALL {
        for key in [1u64, 99, 123_456] {
            let budget = PrivacyBudget::new(4.0).unwrap();
            let domain = 8usize;
            let oracle = Oracle::new(kind, budget, domain);
            let inputs: Vec<usize> = (0..4000)
                .map(|i| if i % 10 != 0 { 5 } else { (6 + i / 10) % 8 })
                .collect();
            let mut batch = ReportBatch::new();
            oracle.perturb_vectorized(&inputs, &CtrRng::new(key), 0, &mut batch);
            let mut supports = SupportCounts::zeros(domain);
            oracle.aggregate_vectorized(&batch, &mut supports);
            let est = oracle.estimate(&supports, inputs.len());
            assert_eq!(est.top_k(1), vec![5], "kind {kind} key {key}");
            let total: f64 = est.frequencies().iter().sum();
            assert!((total - 1.0).abs() < 0.2, "kind {kind} key {key}: {total}");
        }
    }
}

/// Variance is monotone: more users or a larger budget never increases the
/// estimator variance.
#[test]
fn variance_is_monotone() {
    for eps in [0.5f64, 1.0, 2.0, 3.5, 5.0] {
        for domain in [4usize, 16, 64, 256] {
            let b1 = PrivacyBudget::new(eps).unwrap();
            let b2 = PrivacyBudget::new(eps + 0.5).unwrap();
            for kind in FoKind::ALL {
                let o1 = Oracle::new(kind, b1, domain);
                let o2 = Oracle::new(kind, b2, domain);
                assert!(o1.variance(2000) <= o1.variance(1000));
                assert!(o2.variance(1000) <= o1.variance(1000));
            }
        }
    }
}
