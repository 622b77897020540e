//! Statistical contract of the counter-based RNG and the kernels built on
//! it.
//!
//! The kernels draw from a counter-based stream, not a sequential one, so
//! their reports are pinned on their own (the known answers below).  What
//! must hold besides is *distributional* identity: the kernels flip the
//! Bernoulli coins a sequential `rand` stream would, with exactly the
//! analytic probabilities (the thresholds are exact by construction — see
//! `ctr::bernoulli_threshold`), and the raw word stream behaves like
//! independent uniforms across both the key and the two counters.  Every
//! test here is a deterministic seeded experiment with chi-squared
//! acceptance regions far into the tail (≈0.1% critical values), so a pass
//! is stable run to run and a failure means the generator really drifted.

use fedhh_fo::ctr::CtrRng;
use fedhh_fo::{
    Columns, FoKind, FrequencyOracle, GrrOracle, Oracle, OueOracle, PrivacyBudget, ReportBatch,
    SupportCounts,
};

/// Chi-squared statistic of observed counts against expected counts.
fn chi_squared(observed: &[f64], expected: &[f64]) -> f64 {
    observed
        .iter()
        .zip(expected)
        .map(|(o, e)| (o - e) * (o - e) / e)
        .sum()
}

/// GRR value distribution: the kernel's reports match the analytic
/// (p, q, …, q) cell probabilities — the rates a sequential RNG's
/// `gen::<f64>() < p` coin gives — under a chi-squared bound.
#[test]
fn grr_flip_rates_match_the_sequential_rng() {
    let domain = 16usize;
    let input = 7usize;
    let n = 40_000usize;
    let oracle = GrrOracle::new(PrivacyBudget::new(1.0).unwrap(), domain).unwrap();
    let expected: Vec<f64> = (0..domain)
        .map(|v| n as f64 * if v == input { oracle.p() } else { oracle.q() })
        .collect();

    let mut batch = ReportBatch::new();
    oracle.perturb_vectorized(&vec![input; n], &CtrRng::new(2024), 0, &mut batch);
    let Columns::Items(items) = batch.columns() else {
        panic!("unexpected columns {:?}", batch.columns());
    };
    let mut counts = vec![0.0f64; domain];
    for &v in items {
        counts[v as usize] += 1.0;
    }

    // 0.1% critical value for df = 15 is 37.7.
    let chi = chi_squared(&counts, &expected);
    assert!(chi < 37.7, "GRR kernel drifted: chi2 = {chi}");
}

/// OUE per-bit one-rates: the bitsliced kernel's per-slot Bernoulli rates
/// match the analytic p on the true slot and q elsewhere — the rates a
/// sequential RNG's per-bit coins give — per slot and in aggregate.
#[test]
fn oue_bit_rates_match_the_sequential_rng() {
    let domain = 64usize;
    let input = 10usize;
    let n = 20_000usize;
    let oracle = OueOracle::new(PrivacyBudget::new(2.0).unwrap(), domain).unwrap();

    let mut batch = ReportBatch::new();
    oracle.perturb_vectorized(&vec![input; n], &CtrRng::new(555), 0, &mut batch);
    let Columns::Packed { width, words } = batch.columns() else {
        panic!("unexpected columns {:?}", batch.columns());
    };
    assert_eq!((width, words.len()), (domain, n));
    let ones: Vec<f64> = (0..domain)
        .map(|slot| {
            words
                .iter()
                .filter(|&&word| (word >> slot) & 1 == 1)
                .count() as f64
        })
        .collect();

    // Sum of 64 squared binomial z-scores ~ chi-squared(64); the 0.1%
    // critical value is 104.7.
    let stat: f64 = ones
        .iter()
        .enumerate()
        .map(|(slot, &c)| {
            let p = if slot == input {
                oracle.p()
            } else {
                oracle.q()
            };
            let (mean, var) = (n as f64 * p, n as f64 * p * (1.0 - p));
            (c - mean) * (c - mean) / var
        })
        .sum();
    assert!(stat < 104.7, "OUE kernel bit rates drifted: stat = {stat}");
}

/// OLH vectorized support rates: the true candidate is supported at rate p
/// and every other candidate at rate ≈ 1/d', the two constants the
/// de-biasing estimator assumes — this validates the division-free hash
/// family end to end.
#[test]
fn olh_vectorized_support_rates_match_the_estimator_model() {
    let domain = 24usize;
    let input = 5usize;
    let n = 40_000usize;
    let oracle = fedhh_fo::OlhOracle::new(PrivacyBudget::new(2.0).unwrap(), domain).unwrap();

    let mut batch = ReportBatch::new();
    oracle.perturb_vectorized(&vec![input; n], &CtrRng::new(77), 0, &mut batch);
    let mut supports = SupportCounts::zeros(domain);
    oracle.aggregate_vectorized(&batch, &mut supports);

    let true_rate = supports.support(input) / n as f64;
    assert!(
        (true_rate - oracle.p()).abs() < 0.01,
        "true-candidate support rate {true_rate} vs p {}",
        oracle.p()
    );
    for candidate in (0..domain).filter(|&c| c != input) {
        let rate = supports.support(candidate) / n as f64;
        assert!(
            (rate - oracle.q_star()).abs() < 0.012,
            "candidate {candidate} support rate {rate} vs q* {}",
            oracle.q_star()
        );
    }
}

/// Key and counter independence: changing the key, the report counter or
/// the draw counter by the smallest step decorrelates the output words
/// (≈ half the bits flip on average, and no bit position is stuck).
#[test]
fn key_and_counter_axes_are_independent() {
    type PairFn = Box<dyn Fn(u64, u64) -> (u64, u64)>;
    let cases: [(&str, PairFn); 3] = [
        (
            "adjacent keys",
            Box::new(|j, i| (CtrRng::new(1000).word(j, i), CtrRng::new(1001).word(j, i))),
        ),
        (
            "adjacent reports",
            Box::new(|j, i| {
                let rng = CtrRng::new(7);
                (rng.word(2 * j, i), rng.word(2 * j + 1, i))
            }),
        ),
        (
            "adjacent draws",
            Box::new(|j, i| {
                let rng = CtrRng::new(7);
                (rng.word(j, 2 * i), rng.word(j, 2 * i + 1))
            }),
        ),
    ];
    for (label, pair) in cases {
        let mut flipped = 0u64;
        let mut per_bit = [0u32; 64];
        let trials = 4096u64;
        for j in 0..64u64 {
            for i in 0..64u64 {
                let (a, b) = pair(j, i);
                let diff = a ^ b;
                flipped += u64::from(diff.count_ones());
                for (bit, count) in per_bit.iter_mut().enumerate() {
                    *count += ((diff >> bit) & 1) as u32;
                }
            }
        }
        let mean = flipped as f64 / trials as f64;
        assert!(
            (mean - 32.0).abs() < 1.5,
            "{label}: mean flipped bits {mean}, want ≈ 32"
        );
        for (bit, &count) in per_bit.iter().enumerate() {
            assert!(
                (1500..=2600).contains(&count),
                "{label}: bit {bit} flipped {count}/{trials} times"
            );
        }
    }
}

/// Known-answer pins for the kernels themselves (not just the raw word
/// stream): the exact reports each vectorized kernel emits for a fixed
/// key.  A failure here means the *draw layout* of a kernel changed, which
/// breaks the federated layer's reproducibility and must be treated like a
/// wire-schema bump.
#[test]
fn vectorized_kernels_are_pinned_by_known_answers() {
    let budget = PrivacyBudget::new(2.0).unwrap();

    let grr = Oracle::new(FoKind::Grr, budget, 8);
    let mut batch = ReportBatch::new();
    grr.perturb_vectorized(&[0, 1, 2, 3, 4, 5, 6, 7], &CtrRng::new(7), 0, &mut batch);
    let items = match batch.columns() {
        Columns::Items(items) => items.to_vec(),
        other => panic!("unexpected columns {other:?}"),
    };
    assert_eq!(items, vec![0, 1, 6, 2, 3, 4, 6, 7]);

    let oue = Oracle::new(FoKind::Oue, budget, 8);
    let mut batch = ReportBatch::new();
    oue.perturb_vectorized(&[3], &CtrRng::new(42), 0, &mut batch);
    match batch.columns() {
        Columns::Packed { width, words } => {
            assert_eq!((width, words.len()), (8, 1));
            assert_eq!(words[0], 0x9);
        }
        other => panic!("unexpected columns {other:?}"),
    }

    let olh = Oracle::new(FoKind::Olh, budget, 8);
    let mut batch = ReportBatch::new();
    olh.perturb_vectorized(&[5], &CtrRng::new(9), 0, &mut batch);
    match batch.columns() {
        Columns::Hashed { seeds, values } => {
            assert_eq!(seeds, [0x8EFB_9D01_306D_5942]);
            assert_eq!(values, [2]);
        }
        other => panic!("unexpected columns {other:?}"),
    }
}

/// Known-answer pins for the aggregation kernels: the exact support counts
/// each oracle's `aggregate_vectorized` derives from a fixed 300-report
/// batch (more than one 256-report OLH block).  Supports are whole numbers,
/// so the pins are exact; a failure means an aggregation kernel stopped
/// counting the reports its perturb kernel emits.
#[test]
fn vectorized_aggregation_is_pinned_by_known_answers() {
    let budget = PrivacyBudget::new(2.0).unwrap();
    let inputs: Vec<usize> = (0..300).map(|i| [2, 2, 5, i % 8][i % 4]).collect();
    let pins: [(FoKind, [u32; 8]); 3] = [
        (FoKind::Grr, [14, 26, 90, 40, 14, 54, 25, 37]),
        (FoKind::Oue, [37, 28, 93, 46, 38, 63, 47, 42]),
        (FoKind::Olh, [29, 30, 79, 54, 31, 58, 35, 52]),
    ];
    for (kind, pin) in pins {
        let oracle = Oracle::new(kind, budget, 8);
        let mut batch = ReportBatch::new();
        oracle.perturb_vectorized(&inputs, &CtrRng::new(1234), 0, &mut batch);
        let mut supports = SupportCounts::zeros(8);
        oracle.aggregate_vectorized(&batch, &mut supports);
        assert_eq!(supports.reports(), inputs.len(), "{kind}");
        assert_eq!(supports.as_slice(), pin.map(f64::from), "{kind}");
    }
}
