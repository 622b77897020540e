//! The per-level `Estimate` procedure shared by every mechanism.
//!
//! Given a candidate prefix domain Λ_h and the group of users assigned to
//! level h, every user extracts her item's l_h-bit prefix, maps it into the
//! candidate domain (out-of-domain prefixes go to the dummy slot), perturbs
//! it with the configured frequency oracle and reports it.  The party
//! aggregates the reports into noisy frequency estimates for every candidate
//! (Algorithm 2, Estimate procedure).

use crate::config::ProtocolConfig;
use crate::error::ProtocolError;
use crate::server::ranked;
use crate::session::IdleWorkers;
use fedhh_fo::{
    CandidateDomain, CtrRng, FoKind, FrequencyOracle, Oracle, PrivacyBudget, ReportBatch,
    SupportCounts,
};
use fedhh_telemetry::{SpanName, Telemetry};
use fedhh_trie::Prefix;
use std::sync::OnceLock;

/// Reusable per-worker scratch for the estimation hot path.
///
/// One level estimate needs an input buffer (encoded domain indices), a
/// columnar report batch and a support-count arena.  A driver that owns one
/// scratch and passes it to every [`LevelEstimator::estimate_with`] call
/// pays for those allocations once per worker instead of once per level —
/// this is the "aggregate shard-locally, allocate never" contract the
/// engine workers rely on.
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
    /// The calling thread's buffers: part 0 of the level (the whole level
    /// when it is not split).
    own: PartScratch,
    /// One set of buffers per level helper (parts 1..), grown on the first
    /// split and reused afterwards.
    helpers: Vec<PartScratch>,
    /// Telemetry handle: when enabled, each chunk's perturbation and
    /// aggregation run under `perturb` / `aggregate` spans.  Disabled by
    /// default — a fresh scratch records nothing.
    telemetry: Telemetry,
    /// The owning session's idle-worker count; detached by default, so a
    /// fresh scratch never splits a level.
    idle: IdleWorkers,
}

/// The buffers one contiguous range of a level's users is estimated in.
#[derive(Debug, Clone)]
struct PartScratch {
    inputs: Vec<usize>,
    /// SoA report arena the counter-RNG kernels fill.
    batch: ReportBatch,
    supports: SupportCounts,
}

impl PartScratch {
    fn new() -> Self {
        Self {
            inputs: Vec::new(),
            batch: ReportBatch::new(),
            supports: SupportCounts::zeros(0),
        }
    }
}

impl EstimateScratch {
    /// Creates an empty scratch; buffers grow to the working-set size on
    /// first use and are reused afterwards.
    pub fn new() -> Self {
        Self {
            own: PartScratch::new(),
            helpers: Vec::new(),
            telemetry: Telemetry::disabled(),
            idle: IdleWorkers::default(),
        }
    }

    /// Attaches a telemetry handle; subsequent
    /// [`LevelEstimator::estimate_with`] calls using this scratch time
    /// their perturb/aggregate kernels under it.  Observation only — the
    /// estimates are bit-identical with or without it.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
    }

    /// The attached telemetry handle (disabled on a fresh scratch).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Attaches a session's idle-worker count (see
    /// [`Session::scratch`](crate::Session::scratch)): levels estimated
    /// with this scratch may borrow workers the round leaves idle.  The
    /// estimates are bit-identical with or without it.
    pub(crate) fn set_idle_workers(&mut self, idle: &IdleWorkers) {
        self.idle = idle.clone();
    }
}

impl Default for EstimateScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The outcome of estimating one level within one party.
///
/// The candidates are ranked at most once, on the first read of the
/// ranking: every reader ([`ranked_candidates`](Self::ranked_candidates),
/// [`top_t`](Self::top_t), the extension rule, TAPS' dictionary, the
/// parties' reports) takes that one sort, and an estimate nobody ranks (a
/// TAPS validation estimate) never sorts.  Edits to the fields after that
/// first read do not move the ranking.
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
    /// `(candidate, frequency)` pairs by frequency, descending.
    ranked: OnceLock<Vec<(u64, f64)>>,
}

impl LevelEstimate {
    /// An estimate of `frequencies` for `candidates` (position by position)
    /// from `users` reports; the counts are `frequency × users`.
    pub fn new(
        candidates: Vec<u64>,
        frequencies: Vec<f64>,
        std_dev: f64,
        users: usize,
        report_bits: usize,
    ) -> Self {
        let counts = frequencies.iter().map(|f| f * users as f64).collect();
        Self {
            candidates,
            frequencies,
            counts,
            std_dev,
            users,
            report_bits,
            ranked: OnceLock::new(),
        }
    }

    /// `(candidate, frequency)` pairs sorted by estimated frequency,
    /// descending, in the order of [`ranked`] (ties by value,
    /// ascending; NaN last).
    pub fn ranked_candidates(&self) -> &[(u64, f64)] {
        let frequencies = self.frequencies.iter().copied();
        self.ranked
            .get_or_init(|| ranked(self.candidates.iter().copied().zip(frequencies)))
    }

    /// The top-`t` candidate values by estimated frequency.
    pub fn top_t(&self, t: usize) -> Vec<u64> {
        self.ranked_candidates()
            .iter()
            .take(t)
            .map(|(v, _)| *v)
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
    /// parties/levels while keeping runs reproducible.  The caller-owned
    /// [`EstimateScratch`] makes repeated estimation (one call per level,
    /// per party, per round) never reallocate its report buffers or support
    /// arena; a one-off call passes `&mut EstimateScratch::new()`.
    ///
    /// The group is processed in chunks of at most 16 384 users: each
    /// chunk's prefixes are encoded, perturbed by the counter-RNG SoA
    /// kernels and folded straight into the scratch's [`SupportCounts`]
    /// arena before the next chunk is touched, so at most one chunk of
    /// inputs and reports is ever resident — **no full per-group report
    /// vector exists**.  Report k depends only on `(seed ^ noise_seed, k)`,
    /// so where the chunk boundaries fall never moves a bit.
    ///
    /// For the same reason a level is the engine's second unit of parallel
    /// work: with a scratch from
    /// [`Session::scratch`](crate::Session::scratch), a level large enough
    /// to pay for a thread spawn is cut into contiguous user ranges that
    /// workers the round leaves idle estimate concurrently.  How many are
    /// idle depends on timing; the estimate does not (whole-number supports
    /// and integer report bits sum exactly in any grouping).
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
        let oracle = match Oracle::try_new(self.config.fo, self.budget, domain.len()) {
            Ok(oracle) => oracle,
            Err(_) => {
                // Domain too small to perturb (no candidates at all).
                return LevelEstimate::new(
                    candidates.to_vec(),
                    vec![0.0; candidates.len()],
                    0.0,
                    users,
                    0,
                );
            }
        };

        // Cloned out of the scratch so the spans don't fight the buffer
        // borrows (a handle is one `Option<Arc>` — the clone is cheaper
        // than a clock read).
        let telemetry = scratch.telemetry.clone();
        let level = Level::new(
            &self.config,
            &oracle,
            &domain,
            prefix_len,
            CHUNK,
            &telemetry,
        );
        // Borrow workers the round leaves idle — as many as the level has
        // work for, never waiting for one.  How many happen to be idle
        // cannot move the output (see `Level::split`).
        let worth = parts_worth_having(oracle.kind(), domain.len(), users);
        let helpers = scratch.idle.try_acquire(worth - 1);
        let ctr = CtrRng::new(self.config.seed ^ noise_seed);
        let report_bits = level.split(scratch, group_items, &ctr, helpers + 1);
        scratch.idle.release(helpers);
        let estimate = oracle.estimate(&scratch.own.supports, users);

        // Candidate i holds slot i unless the domain collapsed a repeat: then
        // a repeated candidate shares its first occurrence's slot, and
        // position i of the list can be the dummy's.
        let distinct = domain.len() == candidates.len() + 1;
        let frequencies: Vec<f64> = candidates
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let slot = if distinct {
                    i
                } else {
                    domain
                        .index_of(c)
                        .expect("a candidate is in its own domain")
                };
                estimate.frequency(slot)
            })
            .collect();
        LevelEstimate::new(
            candidates.to_vec(),
            frequencies,
            std_fallback(oracle.variance(users.max(1))),
            users,
            report_bits,
        )
    }
}

/// How many of a level's reports the pipeline perturbs and aggregates at
/// once: the bound on resident inputs and reports per worker.  Not a
/// protocol parameter — any chunking yields the same bits (see
/// [`Level::vectorized_range`]).
const CHUNK: usize = 16_384;

/// What every chunk of one level estimate shares.
struct Level<'a> {
    oracle: &'a Oracle,
    domain: &'a CandidateDomain,
    prefix_shift: u32,
    prefix_mask: u64,
    chunk_size: usize,
    telemetry: &'a Telemetry,
}

impl<'a> Level<'a> {
    fn new(
        config: &ProtocolConfig,
        oracle: &'a Oracle,
        domain: &'a CandidateDomain,
        prefix_len: u8,
        chunk_size: usize,
        telemetry: &'a Telemetry,
    ) -> Self {
        let (prefix_shift, prefix_mask) = prefix_operands(config.max_bits, prefix_len);
        Self {
            oracle,
            domain,
            prefix_shift,
            prefix_mask,
            chunk_size,
            telemetry,
        }
    }

    /// Encodes a chunk's prefixes into domain indices (out-of-domain
    /// prefixes go to the dummy slot).
    #[inline]
    fn encode(&self, chunk: &[u64], inputs: &mut Vec<usize>) {
        inputs.clear();
        inputs.extend(chunk.iter().map(|item| {
            let prefix = item.checked_shr(self.prefix_shift).unwrap_or(0) & self.prefix_mask;
            self.domain
                .encode(&prefix)
                .expect("domain has a dummy slot, encode cannot fail")
        }));
    }

    /// The chunk loop over one contiguous range of the level's users:
    /// `items` are reports `base..base + items.len()` of the level.
    /// Counter-driven SoA kernels fold every chunk into `part.supports`
    /// (reset first); `base` carries the global report offset, so any
    /// chunking — and any cut of the level into ranges — yields the same
    /// reports bit for bit.  Returns the range's report bits.
    fn vectorized_range(
        &self,
        part: &mut PartScratch,
        items: &[u64],
        ctr: &CtrRng,
        base: u64,
    ) -> usize {
        part.supports.reset(self.domain.len());
        let mut report_bits = 0usize;
        let mut chunk_base = base;
        for chunk in items.chunks(self.chunk_size) {
            self.encode(chunk, &mut part.inputs);
            part.batch.clear();
            {
                let _perturb = self.telemetry.span(SpanName::Perturb);
                self.oracle
                    .perturb_vectorized(&part.inputs, ctr, chunk_base, &mut part.batch);
            }
            let _aggregate = self.telemetry.span(SpanName::Aggregate);
            self.oracle
                .aggregate_vectorized(&part.batch, &mut part.supports);
            report_bits += part.batch.size_bits();
            chunk_base += chunk.len() as u64;
        }
        report_bits
    }

    /// Estimates a level in `parts` contiguous ranges of
    /// near-equal size: range 0 on the calling thread, every further one on
    /// a scoped helper thread with its own buffers, the supports merged
    /// into the scratch's own arena afterwards.  One part is the unsplit
    /// level — [`Level::vectorized_range`] called once on the whole group.
    ///
    /// The result does not depend on `parts`: report *k*'s draws are a pure
    /// function of `(key, k)` wherever the cuts fall, supports are whole
    /// numbers (exact in `f64` far beyond any population) and the report
    /// bits an integer sum.  Trailing ranges a small group leaves empty are
    /// simply not run.
    fn split(
        &self,
        scratch: &mut EstimateScratch,
        items: &[u64],
        ctr: &CtrRng,
        parts: usize,
    ) -> usize {
        if parts <= 1 {
            return self.vectorized_range(&mut scratch.own, items, ctr, 0);
        }
        let per_part = items.len().div_ceil(parts).max(1);
        let (head, tail) = items.split_at(per_part.min(items.len()));
        if scratch.helpers.len() < parts - 1 {
            scratch.helpers.resize_with(parts - 1, PartScratch::new);
        }
        let (own, helpers, idle) = (&mut scratch.own, &mut scratch.helpers, &scratch.idle);
        let ranges = tail.chunks(per_part).len();
        let report_bits = std::thread::scope(|scope| {
            let handles: Vec<_> = tail
                .chunks(per_part)
                .zip(helpers.iter_mut())
                .enumerate()
                .map(|(i, (range, part))| {
                    let base = ((i + 1) * per_part) as u64;
                    scope.spawn(move || {
                        let _working = idle.enter();
                        self.vectorized_range(part, range, ctr, base)
                    })
                })
                .collect();
            let mut report_bits = self.vectorized_range(own, head, ctr, 0);
            for handle in handles {
                report_bits += handle.join().expect("level helper panicked");
            }
            report_bits
        });
        for part in &helpers[..ranges] {
            own.supports.merge(&part.supports);
        }
        report_bits
    }
}

/// Kernel work one part of a split level must carry, in nanoseconds: half a
/// millisecond against the ~30–60 µs a scoped spawn and join costs.
const MIN_PART_NS: usize = 500_000;

/// How many parts a level of `users` reports over `slots`
/// domain slots is worth cutting into (at least 1), from a per-report cost
/// class per oracle: k-RR is O(1) per report, OUE and OLH are O(d).  The
/// constants were derived from the `fo_perturb/*/vectorized` +
/// `fo_aggregate/*/vectorized` legs of `ci/perf-baseline.json` as they
/// stood before OLH aggregation gained its AVX2 copy (d = 64: k-RR 4.5 ns,
/// OUE 31 ns, OLH 66 ns per report) plus ~4 ns of prefix encoding
/// (`estimate/level/krr` − the k-RR kernels).  OLH keeps its constant:
/// the portable copy still costs that much, re-deriving it from the AVX2
/// legs (`17 + d/3`) moved no end-to-end measurement, and the overestimate
/// only cuts an AVX2 level into smaller parts, each still several times the
/// spawn cost.
fn parts_worth_having(kind: FoKind, slots: usize, users: usize) -> usize {
    let ns_per_report = match kind {
        FoKind::Grr => 8,
        FoKind::Oue => 4 + slots / 2,
        FoKind::Olh => 4 + slots,
    };
    (users.saturating_mul(ns_per_report) / MIN_PART_NS).max(1)
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
        let est = estimator.estimate_with(&mut EstimateScratch::new(), &candidates, 2, &items, 1);
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
        let est = estimator.estimate_with(&mut EstimateScratch::new(), &candidates, 2, &items, 2);
        assert!(est.frequency_of(0b00).abs() < 0.1);
        assert!(est.frequency_of(0b01).abs() < 0.1);
    }

    #[test]
    fn empty_candidate_list_yields_empty_estimate() {
        let estimator = LevelEstimator::new(config()).unwrap();
        let est = estimator.estimate_with(&mut EstimateScratch::new(), &[], 2, &[1, 2, 3], 3);
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
        let est = estimator.estimate_with(&mut EstimateScratch::new(), &candidates, 2, &items, 4);
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
            let fresh =
                estimator.estimate_with(&mut EstimateScratch::new(), &candidates, 2, &items, 77);

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
        // Alternating domain sizes through one scratch must each get their
        // own oracle and a support arena of their own width.
        let wide = vec![0b000u64, 0b001, 0b010, 0b011, 0b100, 0b101];
        let narrow = vec![0b00u64, 0b01];
        let w1 = estimator.estimate_with(&mut scratch, &wide, 3, &items, 1);
        let n1 = estimator.estimate_with(&mut scratch, &narrow, 2, &items, 2);
        let w2 = estimator.estimate_with(&mut scratch, &wide, 3, &items, 1);
        assert_eq!(w1.frequencies, w2.frequencies);
        assert_eq!(n1.candidates, narrow);
        assert_eq!(w1.candidates, wide);
    }

    /// Drives the private split primitive directly: the supports and report
    /// bits of `items` cut into `parts` ranges, each run in chunks of at most
    /// `chunk` users.
    fn split_level(
        estimator: &LevelEstimator,
        candidates: &[u64],
        prefix_len: u8,
        items: &[u64],
        noise_seed: u64,
        chunk: usize,
        parts: usize,
    ) -> (SupportCounts, usize) {
        let config = estimator.config;
        let domain = CandidateDomain::with_dummy(candidates.to_vec());
        let oracle = Oracle::try_new(config.fo, estimator.budget, domain.len()).unwrap();
        let telemetry = Telemetry::disabled();
        let level = Level::new(&config, &oracle, &domain, prefix_len, chunk, &telemetry);
        let mut scratch = EstimateScratch::new();
        let ctr = CtrRng::new(config.seed ^ noise_seed);
        let bits = level.split(&mut scratch, items, &ctr, parts);
        (scratch.own.supports, bits)
    }

    /// Where a level's chunk and part boundaries fall never moves a bit:
    /// for every oracle, each chunk size × part count reproduces the
    /// production estimate of `items` (one [`CHUNK`] spans each group these
    /// tests use) exactly.
    fn assert_bit_identical_at_every_chunk_and_part(
        candidates: &[u64],
        prefix_len: u8,
        items: &[u64],
        noise_seed: u64,
    ) {
        let users = items.len();
        for fo in FoKind::ALL {
            let estimator = LevelEstimator::new(ProtocolConfig { fo, ..config() }).unwrap();
            let reference = estimator.estimate_with(
                &mut EstimateScratch::new(),
                candidates,
                prefix_len,
                items,
                noise_seed,
            );
            let oracle = Oracle::try_new(fo, estimator.budget, candidates.len() + 1).unwrap();
            // Chunks of 64: no cut of 1009 users into 2, 3 or 7 ranges
            // (505, 337, 145 users each) falls on a chunk boundary.
            for chunk in [1usize, 5, 7, 64, 256, users] {
                for parts in [1usize, 2, 3, 7] {
                    let what = format!("{fo} {users} users, chunk {chunk}, {parts} parts");
                    let (supports, bits) = split_level(
                        &estimator, candidates, prefix_len, items, noise_seed, chunk, parts,
                    );
                    assert_eq!(bits, reference.report_bits, "{what}");
                    assert_eq!(supports.reports(), users, "{what}");
                    let debiased = oracle.estimate(&supports, users);
                    assert_eq!(
                        debiased.frequencies()[..candidates.len()],
                        reference.frequencies[..],
                        "{what}"
                    );
                }
            }
            // Deterministic per seed, and the table compared real noise:
            // another seed moves it.
            let again = estimator.estimate_with(
                &mut EstimateScratch::new(),
                candidates,
                prefix_len,
                items,
                noise_seed,
            );
            assert_eq!(again.frequencies, reference.frequencies, "{fo} rerun");
            if users > 1000 {
                let other = estimator.estimate_with(
                    &mut EstimateScratch::new(),
                    candidates,
                    prefix_len,
                    items,
                    noise_seed + 1,
                );
                assert_ne!(other.frequencies, reference.frequencies, "{fo} reseed");
            }
        }
    }

    #[test]
    fn chunked_execution_is_bit_identical_at_every_chunk_size() {
        let items: Vec<u64> = (0..3001).map(|i| (i % 13) << 4 | (i % 7)).collect();
        assert_bit_identical_at_every_chunk_and_part(&[0b00, 0b01, 0b10, 0b11], 2, &items, 31);
    }

    #[test]
    fn vectorized_execution_is_bit_identical_at_every_chunk_size() {
        // A domain that is not a power of two, on a longer prefix than the
        // chunked test: prefixes 0b100 and 0b110 land on the dummy slot.
        let items: Vec<u64> = (0..2503).map(|i| (i % 7) << 5 | (i % 29)).collect();
        let candidates = [0b000u64, 0b001, 0b010, 0b011, 0b101];
        assert_bit_identical_at_every_chunk_and_part(&candidates, 3, &items, 17);
    }

    #[test]
    fn split_levels_are_bit_identical_at_every_part_count() {
        let candidates = [0b00u64, 0b01, 0b10];
        // Prefix 11 is out of domain: the second population sends a quarter
        // of its users to the dummy slot, the first none.
        let in_domain: Vec<u64> = (0..1009).map(|i| (i % 3) << 6 | (i % 7)).collect();
        let with_strays: Vec<u64> = (0..1009).map(|i| (i % 4) << 6 | (i % 5)).collect();
        // 5 users in 7 parts: one-user ranges and empty trailing parts.
        let tiny: Vec<u64> = vec![0b0100_0000, 0b1100_0001, 0, 0b1000_0000, 0b0100_0010];
        for items in [&in_domain, &with_strays, &tiny] {
            assert_bit_identical_at_every_chunk_and_part(&candidates, 2, items, 19);
        }
    }

    #[test]
    fn only_levels_with_work_for_two_parts_ask_for_a_helper() {
        // Half a millisecond per part: k-RR needs 62 500 reports per part,
        // the O(d) oracles proportionally fewer as the domain grows.
        assert_eq!(parts_worth_having(FoKind::Grr, 41, 124_999), 1);
        assert_eq!(parts_worth_having(FoKind::Grr, 41, 125_000), 2);
        assert_eq!(parts_worth_having(FoKind::Olh, 41, 20_000), 1);
        assert_eq!(parts_worth_having(FoKind::Olh, 41, 40_000), 3);
        assert_eq!(parts_worth_having(FoKind::Oue, 41, 40_000), 1);
        assert_eq!(parts_worth_having(FoKind::Oue, 4096, 40_000), 164);
        assert_eq!(parts_worth_having(FoKind::Olh, 41, 0), 1);
    }

    #[test]
    fn code_widths_past_64_bits_are_rejected_before_any_estimate() {
        // The trie's bit helpers assert a width of at most 64 bits, so a
        // configuration that validates must never exceed it.
        let config = ProtocolConfig {
            max_bits: 65,
            granularity: 8,
            ..ProtocolConfig::test_default()
        };
        let result = LevelEstimator::new(config).map(|estimator| {
            estimator
                .estimate_with(&mut EstimateScratch::new(), &[0b0, 0b1], 1, &[1, 2, 3], 1)
                .users
        });
        assert_eq!(
            result.unwrap_err().to_string(),
            "max_bits must be in 1..=64, got 65"
        );
    }

    #[test]
    fn deterministic_given_the_same_seed() {
        let estimator = LevelEstimator::new(config()).unwrap();
        let items: Vec<u64> = (0..500).map(|i| i % 200).collect();
        let candidates = vec![0b00u64, 0b01, 0b10, 0b11];
        let a = estimator.estimate_with(&mut EstimateScratch::new(), &candidates, 2, &items, 9);
        let b = estimator.estimate_with(&mut EstimateScratch::new(), &candidates, 2, &items, 9);
        let c = estimator.estimate_with(&mut EstimateScratch::new(), &candidates, 2, &items, 10);
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
        let estimator = LevelEstimator::new(ProtocolConfig {
            epsilon: 40.0,
            ..config()
        })
        .unwrap();
        let est = estimator.estimate_with(&mut EstimateScratch::new(), &candidates, 2, &items, 6);
        assert_eq!(est.users, items.len());
        assert_eq!(est.candidates, candidates);
        for f in &est.frequencies {
            assert!(f.abs() < 1e-9, "candidate frequency {f}");
        }
    }

    /// The ranking as every reader computed it before an estimate kept its
    /// own, on the NaN-free pairs: collect them, stable-sort them.  The NaN
    /// pairs follow, by value.
    fn ranking_oracle(candidates: &[u64], frequencies: &[f64]) -> Vec<(u64, f64)> {
        let (mut pairs, mut nans): (Vec<_>, Vec<_>) = candidates
            .iter()
            .copied()
            .zip(frequencies.iter().copied())
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

    #[test]
    fn stored_ranking_and_top_t_match_the_sort_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let bits = |pairs: &[(u64, f64)]| -> Vec<(u64, u64)> {
            pairs.iter().map(|(v, f)| (*v, f.to_bits())).collect()
        };
        // Values from a small range (repeats are common); frequencies with
        // ties and ±0.0 among ordinary draws, and in every fourth case one
        // or two NaNs.  NaN-free cases equal the oracle bit for bit; in a
        // NaN case every NaN ranks last (`server::ranked`) and the numbers
        // keep the oracle's order.
        let pool = [0.25, 0.1, 0.0, -0.0, -0.1, 1e-12, 0.25];
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for case in 0..400usize {
            let n = case % 50;
            let span = rng.gen_range(1..=2 * n as u64 + 1);
            let candidates: Vec<u64> = (0..n).map(|_| rng.gen_range(0..span)).collect();
            let mut frequencies: Vec<f64> = (0..n)
                .map(|_| match rng.gen_range(0..3u32) {
                    0 => rng.gen::<f64>() * 0.7 - 0.2,
                    _ => pool[rng.gen_range(0..pool.len())],
                })
                .collect();
            if case % 4 == 0 && n > 0 {
                for _ in 0..rng.gen_range(1..=2u32) {
                    frequencies[rng.gen_range(0..n)] = f64::NAN;
                }
            }
            let oracle = ranking_oracle(&candidates, &frequencies);
            let estimate = LevelEstimate::new(candidates.clone(), frequencies, 0.01, 1000, 0);
            assert_eq!(
                bits(estimate.ranked_candidates()),
                bits(&oracle),
                "case {case}"
            );
            for t in 0..=n + 1 {
                let expected: Vec<u64> = oracle.iter().take(t).map(|(v, _)| *v).collect();
                assert_eq!(estimate.top_t(t), expected, "case {case}, t = {t}");
            }
        }
    }
}
