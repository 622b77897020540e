//! Single-party PEM: the prefix extending method of Wang et al.
//!
//! PEM splits a party's users into g groups, lets group h report the
//! l_h-bit prefix of its item over the current candidate domain, extends the
//! top-t estimated prefixes into the next level's candidates, and reports
//! the top-k estimates of the final level as the party's heavy hitters.
//! The extension strategy is parameterised so the same runner serves both
//! the fixed `t = k` of the original PEM and the adaptive rule of TAP.

use crate::aggregate::{local_result_from_estimate, PartyLocalResult};
use crate::extension::ExtensionStrategy;
use fedhh_datasets::ItemStream;
use fedhh_federated::{
    EstimateScratch, GroupAssignment, LevelEstimate, LevelEstimator, ProtocolConfig, ProtocolError,
};
use fedhh_telemetry::SpanName;
use fedhh_trie::extend_prefix_values;

/// Diagnostics of one PEM level inside one party, kept so callers (and run
/// observers) can replay the per-level progression after the fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PemLevelTrace {
    /// The trie level (1-based).
    pub level: u8,
    /// Number of candidate prefixes estimated at this level.
    pub candidates: usize,
    /// Number of users that reported at this level.
    pub users: usize,
    /// Bits of perturbed user reports collected at this level.
    pub report_bits: usize,
    /// The extension number chosen at this level.
    pub extension: usize,
}

/// The outcome of running PEM inside one party.
#[derive(Debug, Clone)]
pub struct PemPartyOutcome {
    /// The party's local result (top-k heavy hitters and counts).
    pub local: PartyLocalResult,
    /// The estimate of the final level (kept for diagnostics).
    pub final_estimate: LevelEstimate,
    /// Total bits of perturbed user reports collected inside the party.
    pub local_report_bits: usize,
    /// The extension number chosen at every level (diagnostics for the
    /// adaptive-extension analysis).
    pub extension_trace: Vec<usize>,
    /// Per-level diagnostics, one entry per trie level in order.
    pub level_trace: Vec<PemLevelTrace>,
}

/// Derives the group-assignment seed from the run seed and a party noise
/// seed.  Mixed by addition-then-multiply, not XOR: callers like FedPEM
/// derive `noise_seed` by XOR-ing the run seed with a party constant
/// ([`crate::RunContext::party_seed`]), and an XOR here would cancel the
/// run seed back out of the assignment.
pub(crate) fn assignment_seed(config_seed: u64, noise_seed: u64) -> u64 {
    config_seed
        .wrapping_add(noise_seed)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs PEM over one party's items.
///
/// * `party_name` / `party_users` — identity and population of the party.
/// * `items` — the party's item stream, one m-bit code per user (see
///   [`fedhh_datasets::ItemStream`]; an eager `Vec<u64>` becomes a stream
///   via [`ItemStream::from_items`]).  The stream is materialized exactly
///   once here, for the group shuffle; the per-level report pipeline then
///   runs chunked through the estimator, so no full per-party report
///   vector ever exists.
/// * `extension` — fixed or adaptive extension strategy.
/// * `noise_seed` — decorrelates this party's randomness from other parties.
///
/// Fails with a [`ProtocolError`] when the configuration is invalid; it
/// never panics on user input.
pub fn run_pem(
    party_name: &str,
    items: &ItemStream,
    config: &ProtocolConfig,
    extension: ExtensionStrategy,
    noise_seed: u64,
) -> Result<PemPartyOutcome, ProtocolError> {
    run_pem_with(
        party_name,
        items,
        config,
        extension,
        noise_seed,
        &mut EstimateScratch::new(),
    )
}

/// [`run_pem`] in a caller-owned estimation arena.  With a scratch from
/// [`Session::scratch`](fedhh_federated::Session::scratch) each trie level
/// runs under a `level` span of the session's telemetry handle, the
/// estimator's perturb/aggregate kernels are timed, and `Vectorized` levels
/// may borrow the round's idle workers.  The outcome is bit-identical to
/// [`run_pem`] — the scratch only observes and schedules.
pub fn run_pem_with(
    party_name: &str,
    items: &ItemStream,
    config: &ProtocolConfig,
    extension: ExtensionStrategy,
    noise_seed: u64,
    scratch: &mut EstimateScratch,
) -> Result<PemPartyOutcome, ProtocolError> {
    config.validate()?;
    let schedule = config.schedule();
    let user_count = items.len();
    let assignment = GroupAssignment::uniform_owned(
        items.materialize(),
        config.granularity,
        assignment_seed(config.seed, noise_seed),
    )?;
    let estimator = LevelEstimator::new(*config)?;

    let mut current: Vec<u64> = vec![0]; // the root prefix (length 0)
    let mut current_len: u8 = 0;
    let mut last_estimate: Option<LevelEstimate> = None;
    let mut local_report_bits = 0usize;
    let mut extension_trace = Vec::with_capacity(config.granularity as usize);
    let mut level_trace = Vec::with_capacity(config.granularity as usize);
    // One estimation arena (the caller's) for the whole party: report
    // buffers and support counts are allocated once and reused level after
    // level.
    let telemetry = scratch.telemetry().clone();

    for h in schedule.levels() {
        let _level_span = telemetry.span_idx(SpanName::Level, u64::from(h));
        let step = schedule.step(h);
        let len = schedule.prefix_len(h);
        let candidates = extend_prefix_values(&current, current_len, step);
        let estimate = estimator.estimate_with(
            scratch,
            &candidates,
            len,
            assignment.level(h),
            noise_seed.wrapping_mul(0x9E37_79B9).wrapping_add(h as u64),
        );
        local_report_bits += estimate.report_bits;
        let t = extension.extension_count(&estimate, config.k);
        extension_trace.push(t);
        level_trace.push(PemLevelTrace {
            level: h,
            candidates: candidates.len(),
            users: estimate.users,
            report_bits: estimate.report_bits,
            extension: t,
        });
        current = estimate.top_t(t);
        current_len = len;
        last_estimate = Some(estimate);
    }

    // Validation guarantees granularity >= 1, so at least one level ran.
    let final_estimate = last_estimate.expect("granularity is at least 1");
    let local = local_result_from_estimate(party_name, user_count, &final_estimate, config.k);
    Ok(PemPartyOutcome {
        local,
        final_estimate,
        local_report_bits,
        extension_trace,
        level_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhh_trie::ItemEncoder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a skewed single-party population where a handful of items
    /// dominate, and returns (items, true top-3).
    fn skewed_party(seed: u64) -> (Vec<u64>, Vec<u64>) {
        let encoder = ItemEncoder::new(16, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let hot: Vec<u64> = (0..3).map(|i| encoder.encode(i)).collect();
        let mut items = Vec::new();
        for (rank, code) in hot.iter().enumerate() {
            // 3000, 2000, 1000 users for the three hot items.
            for _ in 0..(3000 - rank * 1000) {
                items.push(*code);
            }
        }
        // 2000 users spread thinly over a long tail.
        for _ in 0..2000 {
            items.push(encoder.encode(100 + rng.gen_range(0..500)));
        }
        (items, hot)
    }

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            k: 5,
            epsilon: 4.0,
            max_bits: 16,
            granularity: 8,
            ..ProtocolConfig::default()
        }
    }

    #[test]
    fn pem_finds_the_dominant_items() {
        let (items, hot) = skewed_party(1);
        let outcome = run_pem(
            "p",
            &ItemStream::from_items(items),
            &config(),
            ExtensionStrategy::Fixed(5),
            11,
        )
        .unwrap();
        let found = &outcome.local.local_heavy_hitters;
        assert_eq!(found.len(), 5);
        // The most frequent item must be found; the top-3 should mostly be.
        assert!(found.contains(&hot[0]), "top item missing: {found:?}");
        let hits = hot.iter().filter(|h| found.contains(h)).count();
        assert!(
            hits >= 2,
            "expected at least 2 of the 3 hot items, got {hits}"
        );
    }

    #[test]
    fn adaptive_extension_traces_are_recorded_and_bounded() {
        let (items, _) = skewed_party(2);
        let outcome = run_pem(
            "p",
            &ItemStream::from_items(items),
            &config(),
            ExtensionStrategy::Adaptive,
            5,
        )
        .unwrap();
        assert_eq!(outcome.extension_trace.len(), 8);
        for t in &outcome.extension_trace {
            assert!(*t >= 1);
            assert!(*t <= 2 * 5, "adaptive t is bounded by 2k, got {t}");
        }
        assert_eq!(outcome.level_trace.len(), 8);
        let traced_bits: usize = outcome.level_trace.iter().map(|l| l.report_bits).sum();
        assert_eq!(traced_bits, outcome.local_report_bits);
        for (trace, t) in outcome.level_trace.iter().zip(&outcome.extension_trace) {
            assert_eq!(trace.extension, *t);
        }
    }

    #[test]
    fn report_bits_accumulate_over_levels() {
        let (items, _) = skewed_party(3);
        let items_len = items.len();
        let outcome = run_pem(
            "p",
            &ItemStream::from_items(items),
            &config(),
            ExtensionStrategy::Fixed(5),
            1,
        )
        .unwrap();
        // Every user reports exactly once; with GRR each report is 32 bits.
        assert_eq!(outcome.local_report_bits, items_len * 32);
    }

    #[test]
    fn counts_are_scaled_to_the_party_population() {
        let (items, hot) = skewed_party(4);
        let total_users = items.len() as f64;
        let outcome = run_pem(
            "p",
            &ItemStream::from_items(items),
            &config(),
            ExtensionStrategy::Fixed(5),
            2,
        )
        .unwrap();
        let reported = outcome
            .local
            .reported_counts
            .iter()
            .find(|(v, _)| *v == hot[0])
            .map(|(_, c)| *c);
        if let Some(count) = reported {
            // The top item holds 3000 of 8000 users; the reported count must
            // be in the right ballpark (LDP noise allows a generous margin).
            assert!(
                count > total_users * 0.2 && count < total_users * 0.6,
                "count {count}"
            );
        }
    }

    #[test]
    fn protocol_seed_still_varies_the_group_assignment() {
        // Regression guard: callers may pass a noise_seed already XOR-mixed
        // with the run seed (FedPEM passes `RunContext::party_seed`); the
        // assignment-seed derivation must not cancel the run seed back out.
        // Tested on the derivation itself — the end-to-end estimates can
        // differ through the perturbation seed even when the assignment is
        // frozen, which is exactly the failure this guards against.
        const PARTY: u64 = 0x9E37_79B9_7F4A_7C15; // party_seed-style constant
        let a = assignment_seed(1, 1 ^ PARTY);
        let b = assignment_seed(2, 2 ^ PARTY);
        assert_ne!(a, b, "run seed cancelled out of the group assignment");
        // And the derivation stays sensitive to the party for a fixed run seed.
        assert_ne!(
            assignment_seed(1, 1 ^ PARTY),
            assignment_seed(1, 1 ^ PARTY.wrapping_mul(2))
        );
    }

    #[test]
    fn deterministic_given_identical_seeds() {
        let (items, _) = skewed_party(5);
        let stream = ItemStream::from_items(items);
        let a = run_pem("p", &stream, &config(), ExtensionStrategy::Fixed(5), 9).unwrap();
        let b = run_pem("p", &stream, &config(), ExtensionStrategy::Fixed(5), 9).unwrap();
        assert_eq!(a.local.local_heavy_hitters, b.local.local_heavy_hitters);
    }
}
