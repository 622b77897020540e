//! Property-style tests for the frequency-oracle crate.
//!
//! These exercise the invariants that the heavy hitter mechanisms rely on:
//! reports stay inside the output range, the estimator is unbiased in
//! expectation, and the LDP probability ratio never exceeds e^ε.  Instead of
//! a randomized property-testing framework the cases sweep deterministic
//! seeded grids, so every run checks the same (broad) parameter space.

use fedhh_fo::{
    CandidateDomain, Columns, CtrRng, FoKind, FrequencyOracle, GrrOracle, Oracle, OueOracle,
    PrivacyBudget, ReportBatch, SupportCounts,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `inputs` perturbed by `oracle` under key `key`, as one batch.
fn perturbed(oracle: &impl FrequencyOracle, inputs: &[usize], key: u64) -> ReportBatch {
    let mut batch = ReportBatch::new();
    oracle.perturb_vectorized(inputs, &CtrRng::new(key), 0, &mut batch);
    batch
}

/// `batch` aggregated by `oracle` into a fresh `domain`-slot arena.
fn aggregated(oracle: &impl FrequencyOracle, batch: &ReportBatch, domain: usize) -> SupportCounts {
    let mut supports = SupportCounts::zeros(domain);
    oracle.aggregate_vectorized(batch, &mut supports);
    supports
}

/// The supports of a GRR or OUE batch, counted report by report from the
/// support definitions, independently of the crate's kernels: a GRR report
/// supports the slot it names, an OUE report every slot whose bit is set.
/// `None` for an OLH batch, whose hash family is private to the crate (its
/// per-pair definition check is `olh::tests`).
fn reference_supports(batch: &ReportBatch, domain: usize) -> Option<SupportCounts> {
    let mut supports = SupportCounts::zeros(domain);
    match batch.columns() {
        Columns::Items(items) => {
            for &item in items {
                supports.as_mut_slice()[item as usize] += 1.0;
            }
        }
        Columns::Packed { width, words } => {
            for row in words.chunks(width.div_ceil(64)) {
                for slot in 0..width {
                    if (row[slot / 64] >> (slot % 64)) & 1 == 1 {
                        supports.as_mut_slice()[slot] += 1.0;
                    }
                }
            }
        }
        Columns::Hashed { .. } => return None,
    }
    supports.record_reports(batch.len());
    Some(supports)
}

/// The slot with the highest estimated frequency (the first on a tie).
fn mode(frequencies: &[f64]) -> usize {
    (0..frequencies.len())
        .reduce(|best, slot| {
            if frequencies[slot] > frequencies[best] {
                slot
            } else {
                best
            }
        })
        .expect("a non-empty domain")
}

/// GRR reports are always valid domain indices, for any budget, domain size
/// and input.
#[test]
fn grr_reports_stay_in_domain() {
    for (i, eps) in [0.2f64, 0.7, 1.5, 3.0, 6.0].into_iter().enumerate() {
        for domain in [2usize, 3, 5, 16, 63] {
            let budget = PrivacyBudget::new(eps).unwrap();
            let oracle = GrrOracle::new(budget, domain).unwrap();
            let inputs: Vec<usize> = (0..domain).collect();
            let batch = perturbed(&oracle, &inputs, i as u64 * 1000 + domain as u64);
            match batch.columns() {
                Columns::Items(items) => {
                    assert_eq!(items.len(), domain);
                    assert!(items.iter().all(|&v| (v as usize) < domain), "{items:?}");
                }
                other => panic!("unexpected columns {other:?}"),
            }
        }
    }
}

/// OUE reports always have exactly one bit per domain slot: rows of
/// ⌈d / 64⌉ words whose bits past the last slot are zero.
#[test]
fn oue_reports_have_domain_width() {
    for (i, eps) in [0.2f64, 1.0, 4.0].into_iter().enumerate() {
        for domain in [2usize, 7, 33, 64] {
            let budget = PrivacyBudget::new(eps).unwrap();
            let oracle = OueOracle::new(budget, domain).unwrap();
            let batch = perturbed(&oracle, &[0, domain / 2, domain - 1], 7 + i as u64);
            let Columns::Packed { width, words } = batch.columns() else {
                panic!("unexpected columns {:?}", batch.columns());
            };
            assert_eq!(width, domain);
            let words_per_report = domain.div_ceil(64);
            assert_eq!(words.len(), 3 * words_per_report);
            // The bits of a row's last word past the domain's last slot.
            let used = domain - 64 * (words_per_report - 1);
            let pad = if used == 64 { 0 } else { !0u64 << used };
            for row in words.chunks(words_per_report) {
                let last = row[words_per_report - 1];
                assert_eq!(last & pad, 0, "eps {eps} domain {domain}: {last:#x}");
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
/// generous and the population large: the whole pipeline (counter RNG →
/// columnar perturb → aggregate → de-bias) implements the mechanism, not
/// just fast noise.
#[test]
fn every_oracle_recovers_a_planted_mode() {
    for kind in FoKind::ALL {
        for majority in [0usize, 3, 5, 7] {
            for key in [1u64, 99, 123_456] {
                let budget = PrivacyBudget::new(4.0).unwrap();
                let oracle = Oracle::new(kind, budget, 8);
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
                let supports = aggregated(&oracle, &perturbed(&oracle, &inputs, key), 8);
                let est = oracle.estimate(&supports, inputs.len());
                assert_eq!(
                    mode(est.frequencies()),
                    majority,
                    "kind {kind} majority {majority} key {key}"
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
        for key in [5u64, 50, 500] {
            let budget = PrivacyBudget::new(3.0).unwrap();
            let domain = 12;
            let oracle = Oracle::new(kind, budget, domain);
            let inputs: Vec<usize> = (0..6000).map(|i| i % domain).collect();
            let supports = aggregated(&oracle, &perturbed(&oracle, &inputs, key), domain);
            let est = oracle.estimate(&supports, inputs.len());
            let total: f64 = est.frequencies().iter().sum();
            assert!(
                (total - 1.0).abs() < 0.2,
                "kind {kind} key {key}: total = {total}"
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

/// `aggregate_vectorized` matches an independently written count loop
/// over the columnar batch ([`reference_supports`], straight from the
/// paper's support definitions), bit for bit, for GRR and OUE; and for
/// every oracle kind it adds to what its arena holds: a second pass doubles
/// every count.
#[test]
fn aggregation_matches_a_scalar_reference() {
    for kind in FoKind::ALL {
        for key in [3u64, 19, 4242] {
            let domain = 23usize;
            let oracle = Oracle::new(kind, PrivacyBudget::new(2.0).unwrap(), domain);
            let inputs: Vec<usize> = (0..400).map(|i| i % domain).collect();
            let batch = perturbed(&oracle, &inputs, key);
            let mut arena = aggregated(&oracle, &batch, domain);
            if let Some(want) = reference_supports(&batch, domain) {
                assert_eq!(arena, want, "kind {kind} key {key}");
            }

            let once = arena.clone();
            oracle.aggregate_vectorized(&batch, &mut arena);
            assert_eq!(arena.reports(), 2 * once.reports(), "kind {kind}");
            for slot in 0..domain {
                assert_eq!(
                    arena.support(slot),
                    2.0 * once.support(slot),
                    "kind {kind} slot {slot}"
                );
            }
        }
    }
}

/// Perturbing and aggregating a population chunk by chunk into one arena
/// gives the supports the reference counts over the whole batch (for OLH,
/// the whole batch's own aggregate) — the shard-local accumulation the
/// engine workers rely on.
#[test]
fn chunked_aggregation_matches_whole_batch() {
    for kind in FoKind::ALL {
        let domain = 17usize;
        let oracle = Oracle::new(kind, PrivacyBudget::new(3.0).unwrap(), domain);
        let inputs: Vec<usize> = (0..300).map(|i| (i * 7) % domain).collect();
        let whole = perturbed(&oracle, &inputs, 99);
        let want = reference_supports(&whole, domain)
            .unwrap_or_else(|| aggregated(&oracle, &whole, domain));

        let mut arena = SupportCounts::zeros(domain);
        let mut batch = ReportBatch::new();
        for (i, chunk) in inputs.chunks(37).enumerate() {
            batch.clear();
            oracle.perturb_vectorized(chunk, &CtrRng::new(99), (i * 37) as u64, &mut batch);
            oracle.aggregate_vectorized(&batch, &mut arena);
        }
        assert_eq!(arena, want, "kind {kind}");
    }
}

/// Each report of `batch` as its column words: a GRR item, an OUE row, an
/// OLH seed and value.
fn rows(batch: &ReportBatch) -> Vec<Vec<u64>> {
    match batch.columns() {
        Columns::Items(items) => items.iter().map(|&item| vec![item.into()]).collect(),
        Columns::Packed { width, words } => words
            .chunks(width.div_ceil(64))
            .map(<[u64]>::to_vec)
            .collect(),
        Columns::Hashed { seeds, values } => seeds
            .iter()
            .zip(values)
            .map(|(&seed, &value)| vec![seed, value.into()])
            .collect(),
    }
}

/// The vectorized path is **chunk-invariant**: perturbing in chunks of 1,
/// 7, 64 or all-at-once (with `base` carrying the global report offset)
/// yields bit-identical reports and bit-identical supports, for every
/// oracle kind, budget and domain in the grid.
#[test]
fn vectorized_path_is_chunk_invariant() {
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
                    let want_reports = rows(&whole);
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
                            reports.extend(rows(&batch));
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

/// The whole vectorized pipeline (counter RNG → SoA perturb → blocked
/// aggregate → de-bias) recovers a planted majority for every oracle kind,
/// i.e. the kernels implement the same mechanism, not just fast noise.
#[test]
fn vectorized_path_recovers_a_planted_mode() {
    for kind in FoKind::ALL {
        for key in [1u64, 99, 123_456] {
            let budget = PrivacyBudget::new(4.0).unwrap();
            let domain = 8usize;
            let oracle = Oracle::new(kind, budget, domain);
            let inputs: Vec<usize> = (0..4000)
                .map(|i| if i % 10 != 0 { 5 } else { (6 + i / 10) % 8 })
                .collect();
            let supports = aggregated(&oracle, &perturbed(&oracle, &inputs, key), domain);
            let est = oracle.estimate(&supports, inputs.len());
            assert_eq!(mode(est.frequencies()), 5, "kind {kind} key {key}");
            let total: f64 = est.frequencies().iter().sum();
            assert!((total - 1.0).abs() < 0.2, "kind {kind} key {key}: {total}");
        }
    }
}

/// For GRR and OUE, across domains on both sides of a 64-slot word, the
/// kernels count exactly like [`reference_supports`] reading the batch
/// report by report.  For every kind the batch accounts 32 bits per GRR
/// report, d per OUE report and 96 per OLH report.
#[test]
fn vectorized_aggregation_matches_row_reference_for_grr_and_oue() {
    for kind in FoKind::ALL {
        for domain in [2usize, 63, 64, 65, 200] {
            let oracle = Oracle::new(kind, PrivacyBudget::new(1.5).unwrap(), domain);
            let inputs: Vec<usize> = (0..400).map(|i| (i * 13) % domain).collect();
            let batch = perturbed(&oracle, &inputs, 99);
            if let Some(want) = reference_supports(&batch, domain) {
                assert_eq!(
                    aggregated(&oracle, &batch, domain),
                    want,
                    "kind {kind} domain {domain}"
                );
            }

            let bits_per_report = match kind {
                FoKind::Grr => 32,
                FoKind::Oue => domain,
                FoKind::Olh => 96,
            };
            assert_eq!(batch.len(), inputs.len(), "kind {kind} domain {domain}");
            assert_eq!(
                batch.size_bits(),
                batch.len() * bits_per_report,
                "kind {kind} domain {domain}"
            );
        }
    }
}

/// `aggregate_vectorized` handed a batch another oracle wrote — another
/// kind, or OUE of another width — panics with a message naming the shape
/// it expects and the batch's; a batch of its own shape aggregates.
#[test]
fn aggregating_a_foreign_batch_panics_naming_both_shapes() {
    let budget = PrivacyBudget::new(2.0).unwrap();
    let shape = |kind, domain| match kind {
        FoKind::Grr => "GRR items".to_string(),
        FoKind::Oue => format!("OUE rows of width {domain}"),
        FoKind::Olh => "OLH seed/value pairs".to_string(),
    };
    let oracles = [
        (FoKind::Grr, 8),
        (FoKind::Oue, 8),
        (FoKind::Oue, 70),
        (FoKind::Olh, 8),
    ];
    for (kind, domain) in oracles {
        let oracle = Oracle::new(kind, budget, domain);
        for (writer_kind, writer_domain) in oracles {
            let writer = Oracle::new(writer_kind, budget, writer_domain);
            let batch = perturbed(&writer, &[1, 0, 1], 5);
            let call = std::panic::catch_unwind(|| aggregated(&oracle, &batch, domain));
            let (expected, got) = (shape(kind, domain), shape(writer_kind, writer_domain));
            let what = format!("{kind} over {domain} handed a batch of {got}");
            if expected == got {
                assert_eq!(call.map(|s| s.reports()).ok(), Some(3), "{what}");
                continue;
            }
            let payload = call.expect_err(&what);
            let message = payload
                .downcast_ref::<String>()
                .unwrap_or_else(|| panic!("{what}: panicked without a message"));
            assert!(
                message.contains(&expected) && message.contains(&got),
                "{what}: {message}"
            );
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
