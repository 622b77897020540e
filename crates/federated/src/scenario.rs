//! The scenario plane: deterministic adversary models layered over the
//! benign [`FaultPlan`].
//!
//! The paper's evaluation assumes honest-but-curious parties; real
//! deployments face malicious ones.  A [`ScenarioPlan`] generalizes the
//! fault plan into a full *scenario*: the benign deployment faults
//! (dropout, stragglers) plus an [`AdversaryModel`] describing which
//! parties misbehave and how.  The [`crate::Session`] applies the plan
//! uniformly to every mechanism, so "TAPS under 30% report flipping" is an
//! ordinary, reproducible run — exactly like the fault plans before it.
//!
//! Adversary behavior is a **pure function of `(plan, seed, party)`**:
//! which parties are compromised is a seeded draw
//! ([`ScenarioPlan::compromised_parties`]), and every perturbation an
//! adversary applies derives from the scenario seed plus stable protocol
//! coordinates (party index, round, payload position) — never from thread
//! timing.  Honest parties' outputs stay bit-identical at any
//! parallelism, and the same plan always produces the same attack.
//!
//! Four adversary models ship (plus the benign [`AdversaryModel::None`]):
//!
//! * **Report flipping** ([`AdversaryModel::ReportFlip`]) — compromised
//!   parties perturb their frequency-oracle reports at upload time, toward
//!   seeded-uniform counts or with their rank order inverted.
//! * **Input poisoning** ([`AdversaryModel::InputPoison`]) — compromised
//!   parties replace their true items with items sharing a chosen target
//!   prefix, pushing a cold subtree into the trie.
//! * **Sybil amplification** ([`AdversaryModel::Sybil`]) — a compromised
//!   cohort all report one target item.
//! * **Corrupt frames** ([`AdversaryModel::CorruptFrames`]) — the TCP
//!   transport flips one byte in a seeded fraction of upload frames,
//!   exercising the CRC/[`fedhh_wire::WireError`] surface: the run either
//!   completes cleanly or fails with a typed error, never a hang or panic.

use crate::error::ProtocolError;
use crate::fault::FaultPlan;
use crate::message::CandidateReport;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How a compromised party perturbs its reports under
/// [`AdversaryModel::ReportFlip`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipMode {
    /// Replace every reported count with a seeded uniform draw in
    /// `[0, users]` — the report carries no signal.
    Uniform,
    /// Reassign the reported counts across the candidates in reversed rank
    /// order — cold candidates inherit the hot counts.
    Inverted,
}

/// A deterministic malicious-party model.  `fraction` fields select
/// `⌊party_count · fraction⌋` compromised parties via a seeded draw; frame
/// corruption applies per upload frame instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversaryModel {
    /// Every party is honest (the benign corner).
    None,
    /// Compromised parties perturb their candidate reports at the FO layer.
    ReportFlip {
        /// Fraction of parties compromised, in `[0, 1]`.
        fraction: f64,
        /// The perturbation applied to each report.
        mode: FlipMode,
    },
    /// Compromised parties replace their true items with items under a
    /// target prefix (the low item bits are kept, so the poisoned subtree
    /// still has within-prefix diversity).
    InputPoison {
        /// Fraction of parties compromised, in `[0, 1]`.
        fraction: f64,
        /// The target prefix value (right-aligned, `prefix_len` bits).
        target_prefix: u64,
        /// Length of the target prefix in bits (clamped to the run's
        /// `max_bits` at application time).
        prefix_len: u8,
    },
    /// A compromised cohort all report one target item.
    Sybil {
        /// Fraction of parties compromised, in `[0, 1]`.
        fraction: f64,
        /// The item every compromised party reports.
        target_item: u64,
    },
    /// The TCP transport flips one byte in a seeded fraction of upload
    /// frames.  Only the [`crate::TransportKind::Tcp`] path has frames, so
    /// the default [`crate::TransportKind::InProcess`] routes to it when
    /// this model is active.
    CorruptFrames {
        /// Fraction of `(party, round)` upload slots corrupted, in `[0, 1]`.
        fraction: f64,
    },
}

impl AdversaryModel {
    /// The compromised-party (or corrupted-frame) fraction of this model;
    /// zero for [`AdversaryModel::None`].
    pub fn fraction(&self) -> f64 {
        match self {
            AdversaryModel::None => 0.0,
            AdversaryModel::ReportFlip { fraction, .. }
            | AdversaryModel::InputPoison { fraction, .. }
            | AdversaryModel::Sybil { fraction, .. }
            | AdversaryModel::CorruptFrames { fraction } => *fraction,
        }
    }

    /// True when this model never changes anything (no adversary, or an
    /// adversary with fraction zero).
    pub fn is_none(&self) -> bool {
        matches!(self, AdversaryModel::None) || self.fraction() == 0.0
    }
}

/// A declarative description of one run scenario: benign deployment faults
/// plus an adversary model, both deterministic.
///
/// [`FaultPlan`] remains the benign corner: `ScenarioPlan::from(faults)`
/// (and [`crate::EngineConfig::with_faults`]) install a plan with
/// [`AdversaryModel::None`], and such a plan behaves bit-identically to the
/// pre-scenario engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioPlan {
    /// The benign deployment faults (dropout, stragglers).
    pub faults: FaultPlan,
    /// The adversary model applied on top of the faults.
    pub adversary: AdversaryModel,
    /// Seed of the adversary randomness (independent of the protocol seed
    /// and the fault seed).
    pub seed: u64,
}

/// Domain-separation constant for the compromised-party draw (distinct from
/// the fault plan's dropout constant, so dropout victims and compromised
/// parties are independent draws even under equal seeds).
const COMPROMISE_SALT: u64 = 0xAD5E_C0DE_5CE0_A12D;

/// Mixes the scenario seed with stable protocol coordinates into one
/// decision word (splitmix64 finalizer): a pure function, so adversary
/// decisions can never depend on thread timing.
fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut x = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ c.wrapping_mul(0x94D0_49BB_1331_11EB);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ScenarioPlan {
    /// The benign scenario: no faults, no adversary.
    pub fn benign() -> Self {
        Self {
            faults: FaultPlan::none(),
            adversary: AdversaryModel::None,
            seed: 0,
        }
    }

    /// A scenario with the given benign faults and no adversary — what the
    /// legacy fault-plan APIs build.
    pub fn from_faults(faults: FaultPlan) -> Self {
        Self {
            faults,
            ..Self::benign()
        }
    }

    /// Returns a copy with an adversary model and its seed installed.
    pub fn with_adversary(mut self, adversary: AdversaryModel, seed: u64) -> Self {
        self.adversary = adversary;
        self.seed = seed;
        self
    }

    /// Validates the scenario: the fault plan must be valid and every
    /// adversary fraction must lie in `[0, 1]`.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        self.faults.validate()?;
        let fraction = self.adversary.fraction();
        if !matches!(self.adversary, AdversaryModel::None) && !(0.0..=1.0).contains(&fraction) {
            return Err(ProtocolError::InvalidAdversaryFraction { fraction });
        }
        Ok(())
    }

    /// Decides which of `party_count` parties are compromised: a seeded
    /// uniform choice of `⌊party_count · fraction⌋` parties.  Unlike
    /// dropout, a full fraction may compromise *every* party — a malicious
    /// party still participates.  Frame corruption is transport-level, so
    /// [`AdversaryModel::CorruptFrames`] compromises no party here.
    pub fn compromised_parties(&self, party_count: usize) -> Vec<bool> {
        let mut compromised = vec![false; party_count];
        let fraction = match self.adversary {
            AdversaryModel::ReportFlip { fraction, .. }
            | AdversaryModel::InputPoison { fraction, .. }
            | AdversaryModel::Sybil { fraction, .. } => fraction,
            AdversaryModel::None | AdversaryModel::CorruptFrames { .. } => return compromised,
        };
        if party_count == 0 || fraction <= 0.0 {
            return compromised;
        }
        let victims = (((party_count as f64) * fraction).floor() as usize).min(party_count);
        if victims == 0 {
            return compromised;
        }
        let mut indices: Vec<usize> = (0..party_count).collect();
        let mut rng = StdRng::seed_from_u64(self.seed ^ COMPROMISE_SALT);
        indices.shuffle(&mut rng);
        for &i in indices.iter().take(victims) {
            compromised[i] = true;
        }
        compromised
    }

    /// The frame-corruption plan of this scenario, when its adversary
    /// corrupts frames with a positive fraction.
    pub fn corruption(&self) -> Option<FrameCorruption> {
        match self.adversary {
            AdversaryModel::CorruptFrames { fraction } if fraction > 0.0 => Some(FrameCorruption {
                fraction,
                seed: self.seed,
            }),
            _ => None,
        }
    }
}

impl Default for ScenarioPlan {
    fn default() -> Self {
        Self::benign()
    }
}

impl From<FaultPlan> for ScenarioPlan {
    fn from(faults: FaultPlan) -> Self {
        Self::from_faults(faults)
    }
}

/// Perturbs one candidate report in place, as a compromised party under
/// [`AdversaryModel::ReportFlip`] uploads it.  The perturbation is a pure
/// function of `(seed, party, round, payload_index)` plus the report
/// itself, so the attack replays bit-identically at any parallelism.
pub fn apply_report_flip(
    report: &mut CandidateReport,
    mode: FlipMode,
    seed: u64,
    party: usize,
    round: u32,
    payload_index: usize,
) {
    match mode {
        FlipMode::Uniform => {
            let decision = mix(seed, party as u64, round as u64, payload_index as u64);
            let mut rng = StdRng::seed_from_u64(decision);
            let span = report.users as f64;
            for (_, count) in report.candidates.iter_mut() {
                *count = rng.gen::<f64>() * span;
            }
        }
        FlipMode::Inverted => {
            let mut counts: Vec<f64> = report.candidates.iter().map(|(_, c)| *c).collect();
            counts.reverse();
            for ((_, count), flipped) in report.candidates.iter_mut().zip(counts) {
                *count = flipped;
            }
        }
    }
}

/// A deterministic frame-corruption plan for the TCP transport: a seeded
/// fraction of `(sender, round)` upload slots have one post-length byte of
/// their frame flipped after framing (after the CRC is computed), so the
/// receiving reader fails with a typed CRC mismatch — never a hang.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameCorruption {
    /// Fraction of upload slots corrupted, in `[0, 1]`.
    pub fraction: f64,
    /// Seed of the corruption draw.
    pub seed: u64,
}

impl FrameCorruption {
    /// True when the upload frames of `(from, round)` are corrupted — a
    /// pure seeded decision, independent of thread timing.
    pub fn corrupts(&self, from: usize, round: u32) -> bool {
        let word = mix(self.seed, from as u64, round as u64, 0x0C0_44C7);
        // Map the top 53 bits onto [0, 1) exactly like a uniform f64 draw.
        ((word >> 11) as f64) / ((1u64 << 53) as f64) < self.fraction
    }

    /// The byte to flip within a frame of `frame_len` total bytes: always
    /// past the 4-byte length prefix, so a corrupt frame mis-checksums
    /// instead of desynchronizing the stream.
    pub fn flip_offset(&self, from: usize, round: u32, frame_len: usize) -> usize {
        debug_assert!(frame_len > 4, "frames are at least length + schema + crc");
        let span = frame_len - 4;
        let word = mix(self.seed, from as u64, round as u64, 0xF11B);
        4 + (word as usize % span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_plans_change_nothing() {
        let plan = ScenarioPlan::benign();
        assert!(plan.faults.is_none() && plan.adversary.is_none());
        assert!(plan.validate().is_ok());
        assert!(plan.compromised_parties(8).iter().all(|c| !c));
        assert!(plan.corruption().is_none());
        assert_eq!(ScenarioPlan::default(), plan);
        // The FaultPlan conversion keeps the faults and stays adversary-free.
        let faults = FaultPlan::dropout(0.5, 9);
        let plan = ScenarioPlan::from(faults);
        assert_eq!(plan.faults, faults);
        assert_eq!(plan.adversary, AdversaryModel::None);
        assert!(!plan.faults.is_none(), "dropout is a fault, not benign");
    }

    #[test]
    fn invalid_adversary_fractions_are_typed_errors() {
        for fraction in [-0.1, 1.5, f64::NAN] {
            let models = [
                AdversaryModel::ReportFlip {
                    fraction,
                    mode: FlipMode::Uniform,
                },
                AdversaryModel::InputPoison {
                    fraction,
                    target_prefix: 1,
                    prefix_len: 4,
                },
                AdversaryModel::Sybil {
                    fraction,
                    target_item: 7,
                },
                AdversaryModel::CorruptFrames { fraction },
            ];
            for adversary in models {
                let plan = ScenarioPlan::benign().with_adversary(adversary, 1);
                assert!(
                    matches!(
                        plan.validate(),
                        Err(ProtocolError::InvalidAdversaryFraction { .. })
                    ),
                    "{adversary:?}"
                );
            }
        }
        // An invalid fault plan still fails through the scenario.
        let plan = ScenarioPlan::from_faults(FaultPlan::dropout(2.0, 0));
        assert!(matches!(
            plan.validate(),
            Err(ProtocolError::InvalidDropout { .. })
        ));
    }

    #[test]
    fn compromise_draw_is_deterministic_and_proportional() {
        let plan = ScenarioPlan::benign().with_adversary(
            AdversaryModel::Sybil {
                fraction: 0.5,
                target_item: 3,
            },
            42,
        );
        let a = plan.compromised_parties(8);
        assert_eq!(a, plan.compromised_parties(8));
        assert_eq!(a.iter().filter(|c| **c).count(), 4);
        // Unlike dropout, a full fraction compromises everyone.
        let all = plan
            .with_adversary(
                AdversaryModel::ReportFlip {
                    fraction: 1.0,
                    mode: FlipMode::Inverted,
                },
                7,
            )
            .compromised_parties(5);
        assert!(all.iter().all(|c| *c));
        // A different seed eventually picks different victims.
        assert!((0..64).any(|seed| {
            let other = ScenarioPlan { seed, ..plan };
            other.compromised_parties(8) != a
        }));
        // The draw is independent of the dropout draw at equal seeds.
        let faults = FaultPlan::dropout(0.5, 42);
        assert_ne!(plan.compromised_parties(8), faults.dropped_parties(8));
    }

    #[test]
    fn corrupt_frames_compromise_no_party_but_expose_a_corruption_plan() {
        let plan = ScenarioPlan::benign()
            .with_adversary(AdversaryModel::CorruptFrames { fraction: 0.5 }, 3);
        assert!(plan.compromised_parties(8).iter().all(|c| !c));
        let corruption = plan.corruption().expect("positive fraction");
        assert_eq!(corruption.fraction, 0.5);
        assert_eq!(corruption.seed, 3);
        // Fraction zero is benign: no corruption plan at all.
        let plan = ScenarioPlan::benign()
            .with_adversary(AdversaryModel::CorruptFrames { fraction: 0.0 }, 3);
        assert!(plan.corruption().is_none());
        assert!(plan.faults.is_none() && plan.adversary.is_none());
    }

    #[test]
    fn frame_corruption_decisions_are_pure_and_fraction_shaped() {
        let corruption = FrameCorruption {
            fraction: 0.25,
            seed: 11,
        };
        let hits = (0..1000)
            .filter(|&from| corruption.corrupts(from, 0))
            .count();
        assert_eq!(
            hits,
            (0..1000)
                .filter(|&from| corruption.corrupts(from, 0))
                .count(),
            "pure function"
        );
        assert!((150..350).contains(&hits), "≈25% of slots, got {hits}");
        let none = FrameCorruption {
            fraction: 0.0,
            seed: 11,
        };
        assert!(!(0..100).any(|from| none.corrupts(from, 0)));
        let all = FrameCorruption {
            fraction: 1.0,
            seed: 11,
        };
        assert!((0..100).all(|from| all.corrupts(from, 0)));
        // Flip offsets always land past the 4-byte length prefix.
        for from in 0..100 {
            let offset = all.flip_offset(from, 3, 64);
            assert!((4..64).contains(&offset));
        }
    }

    fn report() -> CandidateReport {
        CandidateReport {
            party: "p0".to_string(),
            level: 2,
            candidates: vec![(1, 40.0), (2, 30.0), (3, 20.0), (4, 10.0)],
            users: 100,
        }
    }

    #[test]
    fn uniform_flip_is_seeded_and_bounded() {
        let mut a = report();
        apply_report_flip(&mut a, FlipMode::Uniform, 9, 3, 1, 0);
        let mut b = report();
        apply_report_flip(&mut b, FlipMode::Uniform, 9, 3, 1, 0);
        assert_eq!(a, b, "same coordinates, same perturbation");
        assert_ne!(a, report(), "the flip must actually perturb");
        assert!(a.candidates.iter().all(|(_, c)| (0.0..=100.0).contains(c)));
        // Candidate values are untouched; only counts flip.
        assert_eq!(a.values(), report().values());
        // Different coordinates draw different noise.
        let mut c = report();
        apply_report_flip(&mut c, FlipMode::Uniform, 9, 3, 2, 0);
        assert_ne!(a.candidates, c.candidates);
    }

    #[test]
    fn inverted_flip_reverses_the_count_ranking() {
        let mut flipped = report();
        apply_report_flip(&mut flipped, FlipMode::Inverted, 0, 0, 0, 0);
        let counts: Vec<f64> = flipped.candidates.iter().map(|(_, c)| *c).collect();
        assert_eq!(counts, vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(flipped.values(), report().values());
    }
}
