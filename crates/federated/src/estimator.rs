//! The per-level `Estimate` procedure shared by every mechanism.
//!
//! Given a candidate prefix domain Λ_h and the group of users assigned to
//! level h, every user extracts her item's l_h-bit prefix, maps it into the
//! candidate domain (out-of-domain prefixes go to the dummy slot), perturbs
//! it with the configured frequency oracle and reports it.  The party
//! aggregates the reports into noisy frequency estimates for every candidate
//! (Algorithm 2, Estimate procedure).

use crate::config::{FoExec, ProtocolConfig};
use crate::error::ProtocolError;
use fedhh_fo::{
    CandidateDomain, CtrRng, FrequencyOracle, Oracle, PrivacyBudget, Report, ReportBatch,
    SupportCounts,
};
use fedhh_telemetry::{SpanName, Telemetry};
use fedhh_trie::Prefix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Reusable per-worker scratch for the estimation hot path.
///
/// One level estimate needs an input buffer (encoded domain indices), a
/// report buffer and a support-count arena.  A driver that owns one scratch
/// and passes it to every [`LevelEstimator::estimate_with`] call pays for
/// those allocations once per worker instead of once per level, and reuses
/// the constructed [`Oracle`] whenever consecutive levels share a candidate
/// domain size — this is the "aggregate shard-locally, allocate never"
/// contract the engine workers rely on.
///
/// ```
/// use fedhh_federated::{EstimateScratch, LevelEstimator, ProtocolConfig};
///
/// let estimator = LevelEstimator::new(ProtocolConfig::test_default())?;
/// let mut scratch = EstimateScratch::new();
/// let items: Vec<u64> = (0..500).map(|i| i % 64).collect();
/// for level in 1..=4u8 {
///     let estimate = estimator.estimate_with(
///         &mut scratch,
///         &[0b0, 0b1],          // candidate prefixes
///         1,                    // prefix length in bits
///         &items,               // the level group's item codes
///         level as u64,         // noise seed
///     );
///     assert_eq!(estimate.users, items.len());
/// }
/// # Ok::<(), fedhh_federated::ProtocolError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EstimateScratch {
    inputs: Vec<usize>,
    reports: Vec<Report>,
    /// SoA report arena for the `FoExec::Vectorized` path.
    batch: ReportBatch,
    supports: SupportCounts,
    /// Cached oracle, keyed by (kind, ε bits, domain size).
    oracle: Option<(fedhh_fo::FoKind, u64, usize, Oracle)>,
    /// Telemetry handle: when enabled, each chunk's perturbation and
    /// aggregation run under `perturb` / `aggregate` spans.  Disabled by
    /// default — a fresh scratch records nothing.
    telemetry: Telemetry,
}

impl EstimateScratch {
    /// Creates an empty scratch; buffers grow to the working-set size on
    /// first use and are reused afterwards.
    pub fn new() -> Self {
        Self {
            inputs: Vec::new(),
            reports: Vec::new(),
            batch: ReportBatch::new(),
            supports: SupportCounts::zeros(0),
            oracle: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attaches a telemetry handle; subsequent
    /// [`LevelEstimator::estimate_with`] calls using this scratch time
    /// their perturb/aggregate kernels under it.  Observation only — the
    /// estimates are bit-identical with or without it.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    /// Returns the cached oracle for this configuration, constructing (and
    /// caching) it only when the kind, budget or domain size changed since
    /// the previous call.
    fn oracle_for(
        &mut self,
        kind: fedhh_fo::FoKind,
        budget: PrivacyBudget,
        domain_size: usize,
    ) -> Result<Oracle, fedhh_fo::FoError> {
        let key = (kind, budget.epsilon().to_bits(), domain_size);
        if let Some((k, e, d, oracle)) = &self.oracle {
            if (*k, *e, *d) == key {
                return Ok(oracle.clone());
            }
        }
        let oracle = Oracle::try_new(kind, budget, domain_size)?;
        self.oracle = Some((key.0, key.1, key.2, oracle.clone()));
        Ok(oracle)
    }
}

impl Default for EstimateScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The outcome of estimating one level within one party.
#[derive(Debug, Clone)]
pub struct LevelEstimate {
    /// The candidate prefixes, in the order of the estimates below.
    pub candidates: Vec<u64>,
    /// Noisy frequency estimate of each candidate (may be negative — the
    /// estimator is unbiased, not truncated).
    pub frequencies: Vec<f64>,
    /// Estimated absolute count of each candidate (frequency × group size).
    pub counts: Vec<f64>,
    /// The analytic standard deviation σ of one frequency estimate.
    pub std_dev: f64,
    /// Number of users that reported at this level.
    pub users: usize,
    /// Total uplink communication consumed by the users' reports, in bits.
    pub report_bits: usize,
}

impl LevelEstimate {
    /// Candidate values sorted by estimated frequency, descending.
    pub fn ranked_candidates(&self) -> Vec<(u64, f64)> {
        let mut pairs: Vec<(u64, f64)> = self
            .candidates
            .iter()
            .copied()
            .zip(self.frequencies.iter().copied())
            .collect();
        pairs.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        pairs
    }

    /// The top-`t` candidate values by estimated frequency.
    pub fn top_t(&self, t: usize) -> Vec<u64> {
        self.ranked_candidates()
            .into_iter()
            .take(t)
            .map(|(v, _)| v)
            .collect()
    }

    /// Estimated frequency of a specific candidate value (0 when absent).
    pub fn frequency_of(&self, value: u64) -> f64 {
        self.candidates
            .iter()
            .position(|c| *c == value)
            .map(|i| self.frequencies[i])
            .unwrap_or(0.0)
    }
}

/// Runs the `Estimate` procedure for one party, one level and one group of
/// users.
#[derive(Debug, Clone)]
pub struct LevelEstimator {
    config: ProtocolConfig,
    budget: PrivacyBudget,
}

impl LevelEstimator {
    /// Creates an estimator bound to a protocol configuration.
    ///
    /// The configuration is validated once here, so estimation itself can
    /// never fail on a bad parameter.
    pub fn new(config: ProtocolConfig) -> Result<Self, ProtocolError> {
        config.validate()?;
        let budget = config.budget()?;
        Ok(Self { config, budget })
    }

    /// The bound configuration.
    pub fn config(&self) -> &ProtocolConfig {
        &self.config
    }

    /// Estimates the frequencies of `candidates` (prefixes of length
    /// `prefix_len`) from the reports of `group_items` (full item codes).
    ///
    /// `noise_seed` decorrelates the perturbation randomness of different
    /// parties/levels while keeping runs reproducible.
    ///
    /// Allocates a fresh [`EstimateScratch`] per call; hot loops should own
    /// a scratch and call [`LevelEstimator::estimate_with`] instead.
    pub fn estimate(
        &self,
        candidates: &[u64],
        prefix_len: u8,
        group_items: &[u64],
        noise_seed: u64,
    ) -> LevelEstimate {
        self.estimate_with(
            &mut EstimateScratch::new(),
            candidates,
            prefix_len,
            group_items,
            noise_seed,
        )
    }

    /// Like [`LevelEstimator::estimate`], but reusing a caller-owned
    /// [`EstimateScratch`] so repeated estimation (one call per level, per
    /// party, per round) never reallocates its report buffers, support
    /// arena or oracle.
    ///
    /// The group is processed in chunks selected by
    /// [`ExecMode::chunk_for`](crate::ExecMode::chunk_for): each chunk's
    /// prefixes are encoded, perturbed and folded straight into the
    /// scratch's [`SupportCounts`] arena before the next chunk is touched,
    /// so at most one chunk of inputs and reports is ever resident — **no
    /// full per-group report vector exists** under a chunked mode.  Under
    /// [`FoExec::Scalar`] the RNG is consumed in the same per-report order
    /// regardless of chunk boundaries (and support counts are whole-number
    /// sums, exact in `f64`), so results are bit-identical to
    /// [`LevelEstimator::estimate`] at every chunk size.
    ///
    /// Under [`FoExec::Vectorized`] the chunk loop instead drives the
    /// counter-RNG SoA kernels: chunk invariance holds by construction
    /// (report k depends only on `(seed ^ noise_seed, k)`), while the
    /// results are a *different* pinned stream than the sequential path.
    pub fn estimate_with(
        &self,
        scratch: &mut EstimateScratch,
        candidates: &[u64],
        prefix_len: u8,
        group_items: &[u64],
        noise_seed: u64,
    ) -> LevelEstimate {
        let domain = CandidateDomain::with_dummy(candidates.to_vec());
        let users = group_items.len();
        let std_fallback = |v: f64| if v > 0.0 { v.sqrt() } else { 0.0 };

        // A domain can degenerate to a single candidate (plus dummy) — the
        // oracle still needs at least two slots, which the dummy provides.
        let oracle = match scratch.oracle_for(self.config.fo, self.budget, domain.len()) {
            Ok(oracle) => oracle,
            Err(_) => {
                // Domain too small to perturb (no candidates at all).
                return LevelEstimate {
                    candidates: candidates.to_vec(),
                    frequencies: vec![0.0; candidates.len()],
                    counts: vec![0.0; candidates.len()],
                    std_dev: 0.0,
                    users,
                    report_bits: 0,
                };
            }
        };

        let mut rng = StdRng::seed_from_u64(self.config.seed ^ noise_seed);
        // The vectorized path keys its counter RNG with the same seed
        // combination; report k of this call is a pure function of
        // (key, k), so chunk boundaries and evaluation order cannot move
        // any draw.
        let ctr = CtrRng::new(self.config.seed ^ noise_seed);
        let chunk_size = self.config.exec_mode.chunk_for(users);
        // Cloned out of the scratch so the spans below don't fight the
        // buffer borrows (a handle is one `Option<Arc>` — the clone is
        // cheaper than a clock read).
        let telemetry = scratch.telemetry.clone();
        scratch.supports.reset(domain.len());
        let mut report_bits = 0usize;
        let mut chunk_base = 0u64;
        let (prefix_shift, prefix_mask) = prefix_operands(self.config.max_bits, prefix_len);

        for chunk in group_items.chunks(chunk_size) {
            scratch.inputs.clear();
            scratch.inputs.extend(chunk.iter().map(|item| {
                let prefix = item.checked_shr(prefix_shift).unwrap_or(0) & prefix_mask;
                domain
                    .encode(&prefix)
                    .expect("domain has a dummy slot, encode cannot fail")
            }));

            scratch.reports.clear();
            match self.config.fo_exec {
                FoExec::Scalar => {
                    // The reference path: one perturb call per report off
                    // the sequential stream, folded into the arena (chunk
                    // sums of whole-number supports are exact, so chunking
                    // cannot perturb the reference results).
                    {
                        let _perturb = telemetry.span(SpanName::Perturb);
                        scratch.reports.reserve(chunk.len());
                        for &input in &scratch.inputs {
                            scratch.reports.push(oracle.perturb(input, &mut rng));
                        }
                    }
                    let _aggregate = telemetry.span(SpanName::Aggregate);
                    oracle.aggregate_into(&scratch.reports, &mut scratch.supports);
                    report_bits += scratch.reports.iter().map(Report::size_bits).sum::<usize>();
                }
                FoExec::Vectorized => {
                    // Counter-driven SoA kernels; `chunk_base` carries the
                    // global report offset so any chunking yields the same
                    // reports bit for bit.
                    scratch.batch.clear();
                    {
                        let _perturb = telemetry.span(SpanName::Perturb);
                        oracle.perturb_vectorized(
                            &scratch.inputs,
                            &ctr,
                            chunk_base,
                            &mut scratch.batch,
                        );
                    }
                    let _aggregate = telemetry.span(SpanName::Aggregate);
                    oracle.aggregate_vectorized(&scratch.batch, &mut scratch.supports);
                    report_bits += scratch.batch.size_bits();
                }
            }
            chunk_base += chunk.len() as u64;
        }
        let estimate = oracle.estimate(&scratch.supports, users);

        // Through the domain rather than by position: a repeated candidate
        // shares its first occurrence's slot, and position `i` of a list
        // with repeats can be the dummy's.
        let frequencies: Vec<f64> = candidates
            .iter()
            .map(|c| {
                let slot = domain
                    .index_of(c)
                    .expect("a candidate is in its own domain");
                estimate.frequency(slot)
            })
            .collect();
        let counts: Vec<f64> = frequencies.iter().map(|f| f * users as f64).collect();
        LevelEstimate {
            candidates: candidates.to_vec(),
            frequencies,
            counts,
            std_dev: std_fallback(oracle.variance(users.max(1))),
            users,
            report_bits,
        }
    }
}

/// The shift and mask with which
/// `item.checked_shr(shift).unwrap_or(0) & mask` equals
/// `Prefix::of_item(item, max_bits, prefix_len).value()` for every item.
///
/// Both are the same for every user of a level, so the encode loop derives
/// them once: the all-ones probe yields the mask and runs `of_item`'s range
/// checks once per level instead of once per user.
fn prefix_operands(max_bits: u8, prefix_len: u8) -> (u32, u64) {
    let mask = Prefix::of_item(u64::MAX, max_bits, prefix_len).value();
    (u32::from(max_bits - prefix_len), mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            epsilon: 4.0,
            max_bits: 8,
            granularity: 4,
            ..ProtocolConfig::default()
        }
    }

    #[test]
    fn estimates_identify_the_dominant_prefix() {
        let config = config();
        let estimator = LevelEstimator::new(config).unwrap();
        // Users' items all start with prefix 10 (over 8 bits).
        let items: Vec<u64> = (0..4000)
            .map(|i| {
                if i % 4 == 0 {
                    0b0100_0000
                } else {
                    0b1000_0000 + (i % 64)
                }
            })
            .collect();
        let candidates = vec![0b00u64, 0b01, 0b10, 0b11];
        let est = estimator.estimate(&candidates, 2, &items, 1);
        assert_eq!(est.users, 4000);
        assert!(est.report_bits > 0);
        let top = est.top_t(1);
        assert_eq!(top, vec![0b10]);
        // Frequencies of present prefixes should be near their true shares.
        assert!((est.frequency_of(0b10) - 0.75).abs() < 0.1);
        assert!((est.frequency_of(0b01) - 0.25).abs() < 0.1);
    }

    #[test]
    fn out_of_domain_prefixes_go_to_the_dummy_not_the_candidates() {
        let config = config();
        let estimator = LevelEstimator::new(config).unwrap();
        // All users hold items whose 2-bit prefix is 11, but 11 is not a
        // candidate: estimates for the candidates must stay near zero.
        let items: Vec<u64> = vec![0b1100_0000; 3000];
        let candidates = vec![0b00u64, 0b01];
        let est = estimator.estimate(&candidates, 2, &items, 2);
        assert!(est.frequency_of(0b00).abs() < 0.1);
        assert!(est.frequency_of(0b01).abs() < 0.1);
    }

    #[test]
    fn empty_candidate_list_yields_empty_estimate() {
        let estimator = LevelEstimator::new(config()).unwrap();
        let est = estimator.estimate(&[], 2, &[1, 2, 3], 3);
        assert!(est.candidates.is_empty());
        assert_eq!(est.users, 3);
        assert_eq!(est.report_bits, 0);
    }

    #[test]
    fn ranked_candidates_are_sorted_descending() {
        let estimator = LevelEstimator::new(config()).unwrap();
        let items: Vec<u64> = (0..2000)
            .map(|i| {
                let prefix = if i % 10 < 6 {
                    0b00
                } else if i % 10 < 9 {
                    0b01
                } else {
                    0b10
                };
                (prefix << 6) | (i as u64 % 64)
            })
            .collect();
        let candidates = vec![0b00u64, 0b01, 0b10, 0b11];
        let est = estimator.estimate(&candidates, 2, &items, 4);
        let ranked = est.ranked_candidates();
        for w in ranked.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(ranked[0].0, 0b00);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_a_fresh_scratch() {
        let base = config();
        let items: Vec<u64> = (0..3000).map(|i| (i % 11) << 4 | (i % 13)).collect();
        let candidates = vec![0b00u64, 0b01, 0b10, 0b11];
        for fo in fedhh_fo::FoKind::ALL {
            let estimator = LevelEstimator::new(ProtocolConfig { fo, ..base }).unwrap();
            let fresh = estimator.estimate(&candidates, 2, &items, 77);

            // A scratch reused across calls (levels) must not leak state.
            let mut scratch = EstimateScratch::new();
            let warm = estimator.estimate_with(&mut scratch, &[0b0u64, 0b1], 1, &items, 5);
            assert_eq!(warm.users, items.len());
            let reused = estimator.estimate_with(&mut scratch, &candidates, 2, &items, 77);
            assert_eq!(fresh.frequencies, reused.frequencies, "fo {fo}");
            assert_eq!(fresh.counts, reused.counts, "fo {fo}");
            assert_eq!(fresh.report_bits, reused.report_bits, "fo {fo}");
        }
    }

    #[test]
    fn scratch_oracle_cache_tracks_domain_changes() {
        let estimator = LevelEstimator::new(config()).unwrap();
        let mut scratch = EstimateScratch::new();
        let items: Vec<u64> = (0..200).collect();
        // Alternating domain sizes must each get the right oracle (a stale
        // cache would mis-size the support arena or the GRR probabilities).
        let wide = vec![0b000u64, 0b001, 0b010, 0b011, 0b100, 0b101];
        let narrow = vec![0b00u64, 0b01];
        let w1 = estimator.estimate_with(&mut scratch, &wide, 3, &items, 1);
        let n1 = estimator.estimate_with(&mut scratch, &narrow, 2, &items, 2);
        let w2 = estimator.estimate_with(&mut scratch, &wide, 3, &items, 1);
        assert_eq!(w1.frequencies, w2.frequencies);
        assert_eq!(n1.candidates, narrow);
        assert_eq!(w1.candidates, wide);
    }

    #[test]
    fn chunked_execution_is_bit_identical_at_every_chunk_size() {
        use crate::config::ExecMode;
        use std::num::NonZeroUsize;
        let base = config();
        let items: Vec<u64> = (0..3001).map(|i| (i % 13) << 4 | (i % 7)).collect();
        let candidates = vec![0b00u64, 0b01, 0b10, 0b11];
        for fo in fedhh_fo::FoKind::ALL {
            let eager = LevelEstimator::new(ProtocolConfig {
                fo,
                exec_mode: ExecMode::Eager,
                ..base
            })
            .unwrap();
            let reference = eager.estimate(&candidates, 2, &items, 31);
            for chunk in [1usize, 7, 64, usize::MAX] {
                let chunked = LevelEstimator::new(ProtocolConfig {
                    fo,
                    exec_mode: ExecMode::Chunked(NonZeroUsize::new(chunk).unwrap()),
                    ..base
                })
                .unwrap();
                let got = chunked.estimate(&candidates, 2, &items, 31);
                assert_eq!(got.frequencies, reference.frequencies, "{fo} chunk {chunk}");
                assert_eq!(got.counts, reference.counts, "{fo} chunk {chunk}");
                assert_eq!(got.report_bits, reference.report_bits, "{fo} chunk {chunk}");
            }
            // Auto resolves to one of the two bit-identical modes.
            let auto = LevelEstimator::new(ProtocolConfig {
                fo,
                exec_mode: ExecMode::Auto,
                ..base
            })
            .unwrap();
            let got = auto.estimate(&candidates, 2, &items, 31);
            assert_eq!(got.frequencies, reference.frequencies, "{fo} auto");
        }
    }

    #[test]
    fn vectorized_execution_is_bit_identical_at_every_chunk_size() {
        use crate::config::ExecMode;
        use std::num::NonZeroUsize;
        let base = config();
        let items: Vec<u64> = (0..3001).map(|i| (i % 13) << 4 | (i % 7)).collect();
        let candidates = vec![0b00u64, 0b01, 0b10, 0b11];
        for fo in fedhh_fo::FoKind::ALL {
            let eager = LevelEstimator::new(ProtocolConfig {
                fo,
                fo_exec: crate::config::FoExec::Vectorized,
                exec_mode: ExecMode::Eager,
                ..base
            })
            .unwrap();
            let reference = eager.estimate(&candidates, 2, &items, 31);
            for chunk in [1usize, 7, 64, usize::MAX] {
                let chunked = LevelEstimator::new(ProtocolConfig {
                    fo,
                    fo_exec: crate::config::FoExec::Vectorized,
                    exec_mode: ExecMode::Chunked(NonZeroUsize::new(chunk).unwrap()),
                    ..base
                })
                .unwrap();
                let got = chunked.estimate(&candidates, 2, &items, 31);
                assert_eq!(got.frequencies, reference.frequencies, "{fo} chunk {chunk}");
                assert_eq!(got.counts, reference.counts, "{fo} chunk {chunk}");
                assert_eq!(got.report_bits, reference.report_bits, "{fo} chunk {chunk}");
            }
            // Deterministic per seed; a different noise seed moves it.
            let again = eager.estimate(&candidates, 2, &items, 31);
            assert_eq!(again.frequencies, reference.frequencies, "{fo} rerun");
            let other = eager.estimate(&candidates, 2, &items, 32);
            assert_ne!(other.frequencies, reference.frequencies, "{fo} reseed");
        }
    }

    #[test]
    fn vectorized_path_is_pinned_separately_from_the_sequential_paths() {
        // Vectorized is *not* bit-compatible with Scalar at the
        // same seed — it is its own pinned stream.  Both still estimate
        // the same distribution: the dominant prefix agrees.
        let base = config();
        let items: Vec<u64> = (0..4000)
            .map(|i| {
                if i % 4 == 0 {
                    0b0100_0000
                } else {
                    0b1000_0000 + (i % 64)
                }
            })
            .collect();
        let candidates = vec![0b00u64, 0b01, 0b10, 0b11];
        for fo in fedhh_fo::FoKind::ALL {
            let scalar = LevelEstimator::new(ProtocolConfig { fo, ..base }).unwrap();
            let vectorized = LevelEstimator::new(ProtocolConfig {
                fo,
                fo_exec: crate::config::FoExec::Vectorized,
                ..base
            })
            .unwrap();
            let a = scalar.estimate(&candidates, 2, &items, 77);
            let b = vectorized.estimate(&candidates, 2, &items, 77);
            assert_ne!(a.frequencies, b.frequencies, "fo {fo}: paths should differ");
            assert_eq!(a.top_t(1), b.top_t(1), "fo {fo}: same mechanism");
            assert_eq!(a.report_bits, b.report_bits, "fo {fo}: same wire cost");
        }
    }

    #[test]
    fn fo_exec_names_round_trip() {
        for exec in crate::config::FoExec::ALL {
            assert_eq!(crate::config::FoExec::parse(exec.name()), Some(exec));
            assert_eq!(exec.to_string(), exec.name());
        }
        assert_eq!(
            crate::config::FoExec::parse("VEC"),
            Some(crate::config::FoExec::Vectorized)
        );
        assert_eq!(crate::config::FoExec::parse("nope"), None);
        assert_eq!(crate::config::FoExec::parse("batched"), None);
    }

    #[test]
    fn deterministic_given_the_same_seed() {
        let estimator = LevelEstimator::new(config()).unwrap();
        let items: Vec<u64> = (0..500).map(|i| i % 200).collect();
        let candidates = vec![0b00u64, 0b01, 0b10, 0b11];
        let a = estimator.estimate(&candidates, 2, &items, 9);
        let b = estimator.estimate(&candidates, 2, &items, 9);
        let c = estimator.estimate(&candidates, 2, &items, 10);
        assert_eq!(a.frequencies, b.frequencies);
        assert_ne!(a.frequencies, c.frequencies);
    }

    #[test]
    fn prefix_extraction_matches_trie_prefixes() {
        // The encode loop's hoisted shift/mask against the trie crate's
        // Prefix::of_item, including the edges where a bare `>>` would
        // overflow (zero-length prefix of a 64-bit code) or mask nothing.
        let items = [0u64, 1, 0b1011_0110, 0xDEAD_BEEF_F00D_CAFE, u64::MAX];
        for max_bits in [1u8, 8, 16, 48, 63, 64] {
            for prefix_len in 0..=max_bits {
                let (shift, mask) = prefix_operands(max_bits, prefix_len);
                for item in items {
                    assert_eq!(
                        item.checked_shr(shift).unwrap_or(0) & mask,
                        Prefix::of_item(item, max_bits, prefix_len).value(),
                        "item {item:#x}, m {max_bits}, l {prefix_len}"
                    );
                }
            }
        }
        assert_eq!(prefix_operands(8, 2), (6, 0b11));
    }

    #[test]
    fn duplicate_candidates_and_an_all_out_of_domain_group_report_the_dummy() {
        // Candidates with repeats collapse to {00, 01} + dummy (slot 2);
        // every user's prefix is 11, so every true input is the dummy slot.
        // At this budget k-RR keeps the true input (flip probability
        // ~1e-17), so all support sits on the dummy and every candidate —
        // repeats included, which read their first occurrence's slot, not
        // position 2 — estimates to zero.
        let items: Vec<u64> = vec![0b1100_0000; 2000];
        let candidates = vec![0b00u64, 0b01, 0b00, 0b01, 0b01];
        for fo_exec in crate::config::FoExec::ALL {
            let estimator = LevelEstimator::new(ProtocolConfig {
                epsilon: 40.0,
                fo_exec,
                ..config()
            })
            .unwrap();
            let est = estimator.estimate(&candidates, 2, &items, 6);
            assert_eq!(est.users, items.len());
            assert_eq!(est.candidates, candidates);
            for f in &est.frequencies {
                assert!(f.abs() < 1e-9, "{fo_exec}: candidate frequency {f}");
            }
        }
    }
}
