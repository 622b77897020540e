//! PEM, the prefix extending method of Wang et al. — the one prefix-tree
//! descent every mechanism in this crate runs.
//!
//! PEM splits a party's users into g groups, lets group h report the
//! l_h-bit prefix of its item over the current candidate domain, extends the
//! top-t estimated prefixes into the next level's candidates, and reports
//! the top-k estimates of the final level as the party's heavy hitters.
//!
//! [`PartyRun`] is that descent as per-party state: it owns the only *level
//! step* ([`PartyRun::step`]: extend, filter, estimate, one
//! [`LevelEstimated`]) and the only *level loop* ([`PartyRun::descend`]:
//! `level` span, step, extension count, advance).  A mechanism is a policy
//! handed to it — which levels a round runs, the [`ExtensionStrategy`], the
//! [`Seeding`], for TAPS a pruning [`ChainLink`] around each level — plus
//! what it uploads when the levels are done.

use crate::aggregate::{local_result_from_estimate, local_result_to_report};
use crate::extension::ExtensionStrategy;
use crate::run::RunContext;
use crate::taps::ChainLink;
use fedhh_datasets::ItemStream;
use fedhh_federated::{
    EstimateScratch, GroupAssignment, LevelEstimate, LevelEstimated, LevelEstimator,
    ProtocolConfig, ProtocolError, RoundOutcome, RoundPayload, PAIR_BITS,
};
use fedhh_telemetry::SpanName;
use fedhh_trie::extend_prefix_values;
use std::ops::RangeInclusive;

/// The three pinned ways a mechanism derives a party's group assignment and
/// per-level noise seed from [`RunContext::party_seed`].  Every digest in
/// `tests/kernels.rs` depends on these bit for bit.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Seeding {
    /// Uniform groups seeded through [`assignment_seed`]; level seed
    /// `party_seed · 0x9E3779B9 + h`.
    FedPem,
    /// Uniform groups seeded by the party seed; level seed
    /// `party_seed ^ (h << 32)`.
    Gtf,
    /// Phase-weighted groups seeded by the party seed; level seed
    /// `party_seed ^ (h << 40)`.
    Tap,
}

impl Seeding {
    fn assignment(
        self,
        items: Vec<u64>,
        config: &ProtocolConfig,
        party_seed: u64,
    ) -> Result<GroupAssignment, ProtocolError> {
        let g = config.granularity;
        match self {
            Seeding::FedPem => {
                GroupAssignment::uniform_owned(items, g, assignment_seed(config.seed, party_seed))
            }
            Seeding::Gtf => GroupAssignment::uniform_owned(items, g, party_seed),
            Seeding::Tap => GroupAssignment::weighted_owned(
                items,
                g,
                config.shared_levels(),
                config.phase1_user_fraction,
                party_seed,
            ),
        }
    }

    fn level_seed(self, party_seed: u64, h: u8) -> u64 {
        let h = u64::from(h);
        match self {
            Seeding::FedPem => party_seed.wrapping_mul(0x9E37_79B9).wrapping_add(h),
            Seeding::Gtf => party_seed ^ (h << 32),
            Seeding::Tap => party_seed ^ (h << 40),
        }
    }
}

/// Which report a party uploads when a round's levels are done.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Report {
    /// Phase I (Algorithm 2, line 9): every level-g_s candidate with a
    /// non-zero estimated count.
    Candidates,
    /// The final top-k heavy hitters and counts (step ⑪), attributed to the
    /// deepest level.
    TopK,
}

/// Derives the group-assignment seed from the run seed and a party noise
/// seed.  Mixed by addition-then-multiply, not XOR: FedPEM's party seed is
/// the run seed XOR-ed with a party constant
/// ([`crate::RunContext::party_seed`]), and an XOR here would cancel the
/// run seed back out of the assignment.
pub(crate) fn assignment_seed(config_seed: u64, noise_seed: u64) -> u64 {
    config_seed
        .wrapping_add(noise_seed)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One party's running state in the descent.
#[derive(Debug, Clone)]
pub(crate) struct PartyRun {
    /// Party display name.
    pub name: String,
    /// Total user population |U_i|.
    pub users_total: usize,
    /// The party's user-to-level assignment.
    pub assignment: GroupAssignment,
    /// The surviving candidate prefixes C_{h−1} (raw values).
    pub current: Vec<u64>,
    /// Length in bits of the prefixes in `current`.
    pub current_len: u8,
    /// The most recent level estimate.
    pub last_estimate: Option<LevelEstimate>,
    /// The party's randomness root ([`RunContext::party_seed`]).
    pub party_seed: u64,
    seeding: Seeding,
}

impl PartyRun {
    /// Builds one party's state at the trie root.  The stream is
    /// materialized exactly once here, into the group shuffle; the
    /// per-level report pipeline then runs chunked through the estimator,
    /// so no full per-party report vector ever exists.
    pub fn new(
        name: &str,
        items: &ItemStream,
        config: &ProtocolConfig,
        seeding: Seeding,
        party_seed: u64,
    ) -> Result<Self, ProtocolError> {
        Ok(PartyRun {
            name: name.to_string(),
            users_total: items.len(),
            assignment: seeding.assignment(items.materialize(), config, party_seed)?,
            current: vec![0],
            current_len: 0,
            last_estimate: None,
            party_seed,
            seeding,
        })
    }

    /// Builds the state of every party of the run's dataset.
    pub fn initialise(
        ctx: &RunContext<'_>,
        seeding: Seeding,
    ) -> Result<Vec<PartyRun>, ProtocolError> {
        let config = ctx.config();
        ctx.dataset()
            .parties()
            .iter()
            .enumerate()
            .map(|(idx, party)| {
                PartyRun::new(
                    party.name(),
                    &ctx.party_stream(idx),
                    &config,
                    seeding,
                    ctx.party_seed(idx),
                )
            })
            .collect()
    }

    /// Replaces the surviving candidates with a set the server broadcast.
    pub fn adopt(&mut self, values: &[u64], len: u8) {
        self.current = values.to_vec();
        self.current_len = len;
    }

    /// The level step: extends the current candidates to level `h`, drops
    /// the `excluded` ones, estimates the rest on `users` (the level's
    /// group, or a sub-slice of it) and describes the work as one
    /// [`LevelEstimated`] for the caller to record.
    pub fn step(
        &self,
        scratch: &mut EstimateScratch,
        estimator: &LevelEstimator,
        h: u8,
        users: &[u64],
        excluded: &[u64],
    ) -> (LevelEstimated, LevelEstimate) {
        let schedule = estimator.config().schedule();
        let mut candidates =
            extend_prefix_values(&self.current, self.current_len, schedule.step(h));
        // A consensus pruning set holds at most 2k values: a scan beats
        // hashing them.
        candidates.retain(|c| !excluded.contains(c));
        let estimate = estimator.estimate_with(
            scratch,
            &candidates,
            schedule.prefix_len(h),
            users,
            self.seeding.level_seed(self.party_seed, h),
        );
        let event = LevelEstimated {
            party: self.name.clone(),
            level: h,
            candidates: candidates.len(),
            users: estimate.users,
            report_bits: estimate.report_bits,
            uplink_bits: 0,
        };
        (event, estimate)
    }

    /// The level loop: for every level of `levels`, under a `level` span of
    /// the scratch's telemetry handle, run the step, record its event in
    /// `round`, and keep the top-t candidates `extension` chooses.  With a
    /// `pruning` link (TAPS) each level first validates and removes the
    /// predecessor's consensus pruning set and afterwards selects this
    /// party's own dictionary entry.
    pub fn descend(
        &mut self,
        scratch: &mut EstimateScratch,
        estimator: &LevelEstimator,
        levels: RangeInclusive<u8>,
        extension: ExtensionStrategy,
        mut pruning: Option<&mut ChainLink<'_>>,
        round: &mut RoundOutcome,
    ) {
        let config = estimator.config();
        for h in levels {
            let _level_span = scratch.telemetry().span_idx(SpanName::Level, u64::from(h));
            // Borrowed straight from the assignment arena; the borrow ends
            // with the level's estimate, before the state advances.
            let group = self.assignment.level(h);
            let (users, pruned) = match pruning.as_deref() {
                Some(link) => link.prune(self, scratch, estimator, h, group, round),
                None => (group, Vec::new()),
            };
            let (event, estimate) = self.step(scratch, estimator, h, users, &pruned);
            round.level(event);
            let t = extension.extension_count(&estimate, config.k);
            if let Some(link) = pruning.as_deref_mut() {
                link.select(config, h, &estimate);
            }
            self.current = estimate.top_t(t);
            self.current_len = config.schedule().prefix_len(h);
            self.last_estimate = Some(estimate);
        }
    }

    /// Queues `payload` for upload, attributed to `level` on a dedicated
    /// upload-only event so the run's event stream carries every uplink bit.
    pub fn upload(&self, level: u8, payload: RoundPayload, round: &mut RoundOutcome) {
        let bits = payload.size_bits();
        round.level(LevelEstimated {
            party: self.name.clone(),
            level,
            candidates: bits / PAIR_BITS,
            users: 0,
            report_bits: 0,
            uplink_bits: bits,
        });
        round.upload(payload);
    }

    /// Uploads the report `kind` names, built from the last estimate.  A
    /// party that never estimated a level — a quorum kept it out of every
    /// round that had one — has nothing to report and uploads nothing, like
    /// any party a round excluded.
    pub fn upload_report(&self, kind: Report, config: &ProtocolConfig, round: &mut RoundOutcome) {
        let Some(estimate) = &self.last_estimate else {
            return;
        };
        let (name, users) = (&self.name, self.users_total);
        let report = match kind {
            Report::Candidates => {
                local_result_to_report(name, users, estimate, config.shared_levels())
            }
            Report::TopK => local_result_from_estimate(name, users, estimate, config.k)
                .to_report(config.granularity),
        };
        self.upload(report.level, RoundPayload::Report(report), round);
    }
}

#[cfg(test)]
mod tests {
    //! PEM's behaviour inside one party, observed through FedPEM on a
    //! one-party federation (the server-side sum of one report is the
    //! report).

    use super::*;
    use crate::fedpem::FedPem;
    use crate::mechanism::MechanismOutput;
    use crate::run::Run;
    use fedhh_datasets::{FederatedDataset, PartyData};
    use fedhh_federated::RecordingObserver;
    use fedhh_trie::ItemEncoder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a skewed single-party federation where a handful of items
    /// dominate, and returns (dataset, true top-3).
    fn skewed_party(seed: u64) -> (FederatedDataset, Vec<u64>) {
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
        let dataset =
            FederatedDataset::new("skewed", vec![PartyData::new("p", items, 16)], 16, encoder);
        (dataset, hot)
    }

    fn config(seed: u64) -> ProtocolConfig {
        ProtocolConfig {
            k: 5,
            epsilon: 4.0,
            max_bits: 16,
            granularity: 8,
            seed,
            ..ProtocolConfig::default()
        }
    }

    fn run_pem(
        dataset: &FederatedDataset,
        extension: ExtensionStrategy,
        seed: u64,
        observer: &mut RecordingObserver,
    ) -> MechanismOutput {
        Run::custom(&FedPem::with_extension(extension))
            .dataset(dataset)
            .config(config(seed))
            .observer(observer)
            .execute()
            .unwrap()
    }

    #[test]
    fn pem_finds_the_dominant_items() {
        let (dataset, hot) = skewed_party(1);
        let mut observer = RecordingObserver::new();
        let output = run_pem(&dataset, ExtensionStrategy::Fixed(5), 11, &mut observer);
        let found = &output.local_results[0].local_heavy_hitters;
        assert_eq!(found.len(), 5);
        assert_eq!(&output.heavy_hitters, found);
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
        let (dataset, _) = skewed_party(2);
        let mut observer = RecordingObserver::new();
        let output = run_pem(&dataset, ExtensionStrategy::Adaptive, 5, &mut observer);
        let cfg = config(5);
        let levels: Vec<_> = observer
            .level_events()
            .filter(|event| event.report_bits > 0)
            .collect();
        assert_eq!(levels.len(), 8);
        // Level h + 1 estimates the t_h survivors of level h extended by
        // its step, so the candidate counts replay the extension numbers.
        for pair in levels.windows(2) {
            assert_eq!(pair[1].level, pair[0].level + 1);
            let fanout = 1usize << cfg.schedule().step(pair[1].level);
            assert_eq!(pair[1].candidates % fanout, 0);
            let t = pair[1].candidates / fanout;
            assert!(t >= 1);
            assert!(t <= 2 * cfg.k, "adaptive t is bounded by 2k, got {t}");
            assert!(t <= pair[0].candidates, "t exceeds the level's candidates");
        }
        let traced_bits: usize = levels.iter().map(|event| event.report_bits).sum();
        assert_eq!(traced_bits, output.comm.total_local_report_bits());
    }

    #[test]
    fn report_bits_accumulate_over_levels() {
        let (dataset, _) = skewed_party(3);
        let mut observer = RecordingObserver::new();
        let output = run_pem(&dataset, ExtensionStrategy::Fixed(5), 1, &mut observer);
        // Every user reports exactly once; with GRR each report is 32 bits.
        assert_eq!(
            output.comm.total_local_report_bits(),
            dataset.total_users() * 32
        );
    }

    #[test]
    fn counts_are_scaled_to_the_party_population() {
        let (dataset, hot) = skewed_party(4);
        let total_users = dataset.total_users() as f64;
        let mut observer = RecordingObserver::new();
        let output = run_pem(&dataset, ExtensionStrategy::Fixed(5), 2, &mut observer);
        assert!(output.heavy_hitters.contains(&hot[0]));
        // The top item holds 3000 of 8000 users; the reported count must
        // be in the right ballpark (LDP noise allows a generous margin).
        let count = output.count_of(hot[0]);
        assert!(
            count > total_users * 0.2 && count < total_users * 0.6,
            "count {count}"
        );
    }

    #[test]
    fn protocol_seed_still_varies_the_group_assignment() {
        // Regression guard: FedPEM's party seed is already XOR-mixed with
        // the run seed (`RunContext::party_seed`); the assignment-seed
        // derivation must not cancel the run seed back out.  Tested on the
        // derivation itself — the end-to-end estimates can differ through
        // the perturbation seed even when the assignment is frozen, which
        // is exactly the failure this guards against.
        const PARTY: u64 = 0x9E37_79B9_7F4A_7C15; // party_seed-style constant
        let a = assignment_seed(1, 1 ^ PARTY);
        let b = assignment_seed(2, 2 ^ PARTY);
        assert_ne!(a, b, "run seed cancelled out of the group assignment");
        // And the derivation stays sensitive to the party for a fixed run seed.
        assert_ne!(
            assignment_seed(1, 1 ^ PARTY),
            assignment_seed(1, 1 ^ PARTY.wrapping_mul(2))
        );
        // End to end: the run seed reaches the dealt groups.
        let (dataset, _) = skewed_party(6);
        let stream = dataset.parties()[0].stream();
        let groups = |seed: u64| {
            let cfg = config(seed);
            PartyRun::new("p", &stream, &cfg, Seeding::FedPem, seed ^ PARTY)
                .unwrap()
                .assignment
                .level(1)
                .to_vec()
        };
        assert_ne!(groups(1), groups(2));
    }

    #[test]
    fn deterministic_given_identical_seeds() {
        let (dataset, _) = skewed_party(5);
        let mut observer = RecordingObserver::new();
        let a = run_pem(&dataset, ExtensionStrategy::Fixed(5), 9, &mut observer);
        let b = run_pem(&dataset, ExtensionStrategy::Fixed(5), 9, &mut observer);
        assert_eq!(a.heavy_hitters, b.heavy_hitters);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.local_results, b.local_results);
        assert_eq!(a.comm, b.comm);
    }
}
