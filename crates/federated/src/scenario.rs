//! The scenario plane: the round policy of a run in one deterministic
//! plan.
//!
//! The paper's evaluation assumes honest-but-curious parties in lockstep;
//! real deployments face dropouts, stragglers and malicious parties.  A
//! [`ScenarioPlan`] describes all of it: the benign deployment faults
//! (dropout, stragglers), an [`AdversaryModel`] describing which parties
//! misbehave and how, and the two closure decisions of every round — the
//! aggregation [`Topology`] uploads travel through and the quorum fraction
//! that picks who makes each round.  The [`crate::Session`] applies the
//! plan uniformly to every mechanism, so "TAPS under 30% report flipping"
//! is an ordinary, reproducible run, and a node federation ships the one
//! plan in its welcome.
//!
//! Every decision is a **pure function of `(plan, coordinates)`** derived
//! from the plan's one seed: which parties drop out
//! ([`ScenarioPlan::dropped_parties`]), the straggler order of a round
//! ([`ScenarioPlan::straggler_order`]), who makes a round's quorum
//! ([`ScenarioPlan::on_time`]), which parties are compromised
//! ([`ScenarioPlan::compromised_parties`]) and every perturbation an
//! adversary applies (party index, round, payload position) — never thread
//! timing.  Each draw salts the seed differently, so the draws are
//! independent of each other; honest parties' outputs stay bit-identical
//! at any parallelism, and the same plan always produces the same run.
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
use crate::message::CandidateReport;
use crate::topology::Topology;
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

/// A declarative description of one run scenario: benign deployment faults,
/// an adversary model, the aggregation topology and the quorum fraction,
/// all drawn from one seed.  It is the one home of every round-policy
/// decision; [`ScenarioPlan::benign`] is the paper's honest lockstep star.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioPlan {
    /// Fraction of parties (rounded down) that drop out for the whole run,
    /// in `[0, 1]`.  At least one party always survives, so a session can
    /// complete under any fraction.
    pub dropout: f64,
    /// When true, round messages reach the server's aggregation step in a
    /// seeded (straggler) order instead of party order.
    pub stragglers: bool,
    /// The adversary model applied on top of the faults.
    pub adversary: AdversaryModel,
    /// How party uploads reach the root aggregator: the flat star or a
    /// cohort tree ([`Topology::Tree`] is bit-identical to
    /// [`Topology::Flat`] at quorum 1.0; merging is lossless).
    pub topology: Topology,
    /// The response fraction that closes a round, in `(0, 1]`; 1.0 waits
    /// for everyone.  Who makes the cut is a seeded draw per round, never
    /// arrival order.
    pub quorum: f64,
    /// The seed of every draw above (independent of the protocol seed).
    pub seed: u64,
}

/// Domain-separation constant for the compromised-party draw (distinct from
/// the dropout draw's, so dropout victims and compromised parties are
/// independent draws of the one seed).
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

/// A seeded uniform choice of `victims` of `count` indices, as a flag per
/// index.
fn pick(count: usize, victims: usize, seed: u64) -> Vec<bool> {
    let mut picked = vec![false; count];
    for i in shuffled(count, seed).into_iter().take(victims) {
        picked[i] = true;
    }
    picked
}

/// A seeded shuffle of `0..count`.
fn shuffled(count: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..count).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

impl ScenarioPlan {
    /// The benign scenario: no faults, no adversary, the flat star at full
    /// quorum.
    pub fn benign() -> Self {
        Self {
            dropout: 0.0,
            stragglers: false,
            adversary: AdversaryModel::None,
            topology: Topology::Flat,
            quorum: 1.0,
            seed: 0,
        }
    }

    /// Validates the scenario: the dropout fraction and every adversary
    /// fraction must lie in `[0, 1]`, a tree must be well-formed
    /// ([`Topology::validate`]) and the quorum must lie in `(0, 1]` (a zero
    /// quorum would close rounds with no reports).
    pub fn validate(&self) -> Result<(), ProtocolError> {
        if !(0.0..=1.0).contains(&self.dropout) {
            return Err(ProtocolError::invalid(
                "dropout fraction",
                "be in [0, 1]",
                self.dropout,
            ));
        }
        let fraction = self.adversary.fraction();
        if !matches!(self.adversary, AdversaryModel::None) && !(0.0..=1.0).contains(&fraction) {
            return Err(ProtocolError::invalid(
                "adversary fraction",
                "be in [0, 1]",
                fraction,
            ));
        }
        self.topology.validate()?;
        if !(self.quorum > 0.0 && self.quorum <= 1.0) {
            return Err(ProtocolError::invalid(
                "quorum fraction",
                "be in (0, 1]",
                self.quorum,
            ));
        }
        Ok(())
    }

    /// Decides which of `party_count` parties drop out: a seeded uniform
    /// choice of `⌊party_count · dropout⌋` parties, capped so at least one
    /// party survives.  Returns a `dropped[i]` flag per party.
    pub fn dropped_parties(&self, party_count: usize) -> Vec<bool> {
        if party_count == 0 || self.dropout <= 0.0 {
            return vec![false; party_count];
        }
        let requested = ((party_count as f64) * self.dropout).floor() as usize;
        let victims = requested.min(party_count - 1);
        pick(party_count, victims, self.seed ^ 0xD80F_0C75_0C75_D80F)
    }

    /// The straggler reordering of a round's messages (identified by their
    /// position): a seeded shuffle, different every round, applied on top
    /// of the transport's canonical order; the identity without
    /// stragglers.
    pub fn straggler_order(&self, count: usize, round: u32) -> Vec<usize> {
        if !self.stragglers || count <= 1 {
            return (0..count).collect();
        }
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(round as u64);
        shuffled(count, seed)
    }

    /// The parties that make `round`'s quorum, as a sorted subset of
    /// `candidates` (the round's active parties, every process passing the
    /// same full list).  A pure function of `(seed, round, candidates)`:
    /// a seeded permutation keeps the first `ceil(quorum * n)` entries (at
    /// least one), so closure order never depends on thread or socket
    /// timing.  At full quorum the candidates pass through untouched.
    pub fn on_time(&self, round: u32, candidates: &[usize]) -> Vec<usize> {
        if self.quorum >= 1.0 || candidates.len() <= 1 {
            return candidates.to_vec();
        }
        // Mix the round index the way the straggler draw does, with its
        // own multiplier, so quorum draws never correlate across rounds or
        // with the straggler order.
        let seed = self
            .seed
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(u64::from(round));
        let keep =
            ((self.quorum * candidates.len() as f64).ceil() as usize).clamp(1, candidates.len());
        let mut order: Vec<usize> = shuffled(candidates.len(), seed)
            .into_iter()
            .take(keep)
            .map(|i| candidates[i])
            .collect();
        order.sort_unstable();
        order
    }

    /// Decides which of `party_count` parties are compromised: a seeded
    /// uniform choice of `⌊party_count · fraction⌋` parties.  Unlike
    /// dropout, a full fraction may compromise *every* party — a malicious
    /// party still participates.  Frame corruption is transport-level, so
    /// [`AdversaryModel::CorruptFrames`] compromises no party here.
    pub fn compromised_parties(&self, party_count: usize) -> Vec<bool> {
        let fraction = match self.adversary {
            AdversaryModel::ReportFlip { fraction, .. }
            | AdversaryModel::InputPoison { fraction, .. }
            | AdversaryModel::Sybil { fraction, .. } => fraction,
            AdversaryModel::None | AdversaryModel::CorruptFrames { .. } => 0.0,
        };
        if party_count == 0 || fraction <= 0.0 {
            return vec![false; party_count];
        }
        let victims = (((party_count as f64) * fraction).floor() as usize).min(party_count);
        pick(party_count, victims, self.seed ^ COMPROMISE_SALT)
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

    /// The benign plan with the given adversary and seed.
    fn attacked(adversary: AdversaryModel, seed: u64) -> ScenarioPlan {
        ScenarioPlan {
            adversary,
            seed,
            ..ScenarioPlan::benign()
        }
    }

    /// The benign plan with the given dropout fraction and seed.
    fn dropout(dropout: f64, seed: u64) -> ScenarioPlan {
        ScenarioPlan {
            dropout,
            seed,
            ..ScenarioPlan::benign()
        }
    }

    #[test]
    fn benign_plans_change_nothing() {
        let plan = ScenarioPlan::benign();
        assert!(plan.dropout == 0.0 && !plan.stragglers && plan.adversary.is_none());
        assert!(plan.topology.is_flat() && plan.quorum == 1.0);
        assert!(plan.validate().is_ok());
        assert!(plan.compromised_parties(8).iter().all(|c| !c));
        assert!(plan.corruption().is_none());
        assert_eq!(ScenarioPlan::default(), plan);
        // A dropout alone stays adversary-free.
        let plan = dropout(0.5, 9);
        assert!(plan.dropped_parties(8).iter().any(|d| *d));
        assert!(plan.compromised_parties(8).iter().all(|c| !c));
    }

    #[test]
    fn fault_free_plan_drops_nobody_and_keeps_order() {
        // The seed alone changes nothing: only a fraction or a flag draws.
        let plan = ScenarioPlan {
            seed: 77,
            ..ScenarioPlan::benign()
        };
        assert!(plan.dropped_parties(5).iter().all(|d| !d));
        assert_eq!(plan.straggler_order(4, 1), vec![0, 1, 2, 3]);
        assert_eq!(plan.on_time(1, &[0, 2, 5, 9]), vec![0, 2, 5, 9]);
    }

    #[test]
    fn invalid_dropout_fraction_is_a_typed_error() {
        for fraction in [-0.1, 1.5, f64::NAN] {
            assert!(matches!(
                dropout(fraction, 1).validate(),
                Err(ProtocolError::InvalidParameter {
                    name: "dropout fraction",
                    ..
                })
            ));
        }
        assert_eq!(
            dropout(1.5, 1).validate().unwrap_err().to_string(),
            "dropout fraction must be in [0, 1], got 1.5"
        );
    }

    #[test]
    fn dropout_is_deterministic_and_spares_one_party() {
        let plan = dropout(0.5, 42);
        let a = plan.dropped_parties(4);
        let b = plan.dropped_parties(4);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|d| **d).count(), 2);
        // Even a full dropout keeps one survivor.
        let all = dropout(1.0, 7).dropped_parties(3);
        assert_eq!(all.iter().filter(|d| **d).count(), 2);
        // A different seed picks (eventually) different victims.
        assert!((0..64).any(|seed| dropout(0.5, seed).dropped_parties(4) != a));
    }

    #[test]
    fn straggler_order_is_a_seeded_permutation_per_round() {
        let plan = ScenarioPlan {
            stragglers: true,
            seed: 9,
            ..ScenarioPlan::benign()
        };
        let a = plan.straggler_order(6, 0);
        let b = plan.straggler_order(6, 0);
        assert_eq!(a, b, "same round must reorder identically");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
        assert!(
            (1..32).any(|round| plan.straggler_order(6, round) != a),
            "rounds must not all share one permutation"
        );
    }

    /// Every seeded draw of the plan, pinned at three seeds: a plan whose
    /// draws move replays a different run, so a changed salt, multiplier
    /// or shuffle fails here before any run-level pin.
    #[test]
    fn draws_match_the_pinned_vectors() {
        type Draws = (
            [usize; 3],            // dropped_parties(10) at dropout 0.3
            [[usize; 6]; 3],       // straggler_order(6, round) for rounds 0..3
            [[usize; 4]; 3],       // on_time(round, 0..8) at quorum 0.5, rounds 0..3
            [usize; 3],            // compromised_parties(10) at fraction 0.3
            [&'static [usize]; 3], // corrupts(from in 0..12, round) at 0.5, rounds 0..3
            [[usize; 4]; 3],       // flip_offset(from in 0..4, round, 64), rounds 0..3
        );
        let pinned: [(u64, Draws); 3] = [
            (
                7,
                (
                    [1, 5, 7],
                    [[1, 2, 5, 3, 0, 4], [0, 2, 4, 3, 5, 1], [2, 3, 0, 1, 4, 5]],
                    [[3, 4, 5, 7], [1, 2, 4, 5], [0, 2, 5, 6]],
                    [0, 2, 9],
                    [&[0, 1, 2, 11], &[0, 1, 4, 5, 6, 8, 9, 11], &[0, 5, 6, 7, 9]],
                    [[35, 27, 23, 61], [37, 48, 40, 60], [7, 27, 23, 17]],
                ),
            ),
            (
                42,
                (
                    [3, 4, 8],
                    [[5, 0, 4, 2, 3, 1], [5, 0, 4, 1, 2, 3], [0, 4, 2, 5, 1, 3]],
                    [[0, 1, 3, 7], [2, 3, 4, 7], [0, 2, 4, 6]],
                    [3, 5, 6],
                    [
                        &[1, 5, 6, 7, 8, 10, 11],
                        &[0, 4, 5, 7],
                        &[0, 1, 2, 3, 8, 11],
                    ],
                    [[33, 10, 36, 63], [30, 50, 50, 10], [58, 50, 23, 36]],
                ),
            ),
            (
                0xAD5E,
                (
                    [2, 4, 7],
                    [[5, 1, 3, 0, 2, 4], [1, 2, 4, 5, 3, 0], [3, 0, 5, 1, 4, 2]],
                    [[1, 3, 6, 7], [0, 2, 4, 6], [0, 2, 4, 7]],
                    [5, 7, 8],
                    [
                        &[0, 3, 4, 8],
                        &[0, 2, 4, 6, 7, 10, 11],
                        &[2, 4, 6, 7, 8, 10, 11],
                    ],
                    [[32, 6, 19, 18], [42, 11, 4, 62], [5, 38, 10, 59]],
                ),
            ),
        ];
        let flagged = |flags: Vec<bool>| -> Vec<usize> {
            flags
                .iter()
                .enumerate()
                .filter(|(_, f)| **f)
                .map(|(i, _)| i)
                .collect()
        };
        for (seed, (dropped, stragglers, on_time, compromised, corrupts, flips)) in pinned {
            let plan = ScenarioPlan {
                dropout: 0.3,
                stragglers: true,
                adversary: AdversaryModel::ReportFlip {
                    fraction: 0.3,
                    mode: FlipMode::Uniform,
                },
                quorum: 0.5,
                seed,
                ..ScenarioPlan::benign()
            };
            assert_eq!(flagged(plan.dropped_parties(10)), dropped, "seed {seed}");
            assert_eq!(
                flagged(plan.compromised_parties(10)),
                compromised,
                "seed {seed}"
            );
            let candidates: Vec<usize> = (0..8).collect();
            let corruption = FrameCorruption {
                fraction: 0.5,
                seed,
            };
            for round in 0..3 {
                let r = round as usize;
                assert_eq!(plan.straggler_order(6, round), stragglers[r], "seed {seed}");
                assert_eq!(plan.on_time(round, &candidates), on_time[r], "seed {seed}");
                let hits: Vec<usize> = (0..12).filter(|&f| corruption.corrupts(f, round)).collect();
                assert_eq!(hits, corrupts[r], "seed {seed} round {round}");
                let offsets = (0..4).map(|f| corruption.flip_offset(f, round, 64));
                assert!(offsets.eq(flips[r]), "seed {seed} round {round}");
            }
        }
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
                assert!(
                    matches!(
                        attacked(adversary, 1).validate(),
                        Err(ProtocolError::InvalidParameter {
                            name: "adversary fraction",
                            ..
                        })
                    ),
                    "{adversary:?}"
                );
            }
        }
        let sybil = AdversaryModel::Sybil {
            fraction: -0.1,
            target_item: 7,
        };
        assert_eq!(
            attacked(sybil, 1).validate().unwrap_err().to_string(),
            "adversary fraction must be in [0, 1], got -0.1"
        );
    }

    #[test]
    fn topology_and_quorum_violations_map_to_their_variants() {
        let tree = |fanout, depth| ScenarioPlan {
            topology: Topology::Tree { fanout, depth },
            ..ScenarioPlan::benign()
        };
        for (fanout, depth) in [(1, 1), (2, 8)] {
            assert!(matches!(
                tree(fanout, depth).validate(),
                Err(ProtocolError::InvalidParameter {
                    name: "aggregation tree",
                    ..
                })
            ));
        }
        assert_eq!(tree(256, 1).validate(), Ok(()));
        let quorum = |quorum| ScenarioPlan {
            quorum,
            ..ScenarioPlan::benign()
        };
        for fraction in [0.0, f64::NAN] {
            assert!(matches!(
                quorum(fraction).validate(),
                Err(ProtocolError::InvalidParameter {
                    name: "quorum fraction",
                    ..
                })
            ));
        }
        assert_eq!(quorum(0.75).validate(), Ok(()));
    }

    #[test]
    fn compromise_draw_is_deterministic_and_proportional() {
        let sybil = AdversaryModel::Sybil {
            fraction: 0.5,
            target_item: 3,
        };
        let plan = attacked(sybil, 42);
        let a = plan.compromised_parties(8);
        assert_eq!(a, plan.compromised_parties(8));
        assert_eq!(a.iter().filter(|c| **c).count(), 4);
        // Unlike dropout, a full fraction compromises everyone.
        let flip = AdversaryModel::ReportFlip {
            fraction: 1.0,
            mode: FlipMode::Inverted,
        };
        assert!(attacked(flip, 7).compromised_parties(5).iter().all(|c| *c));
        // A different seed eventually picks different victims.
        assert!((0..64).any(|seed| attacked(sybil, seed).compromised_parties(8) != a));
        // The draw is independent of the dropout draw of the same seed.
        let both = ScenarioPlan {
            dropout: 0.5,
            ..plan
        };
        assert_ne!(both.compromised_parties(8), both.dropped_parties(8));
    }

    #[test]
    fn corrupt_frames_compromise_no_party_but_expose_a_corruption_plan() {
        let plan = attacked(AdversaryModel::CorruptFrames { fraction: 0.5 }, 3);
        assert!(plan.compromised_parties(8).iter().all(|c| !c));
        let corruption = plan.corruption().expect("positive fraction");
        assert_eq!(corruption.fraction, 0.5);
        assert_eq!(corruption.seed, 3);
        // Fraction zero is benign: no corruption plan at all.
        let plan = attacked(AdversaryModel::CorruptFrames { fraction: 0.0 }, 3);
        assert!(plan.corruption().is_none());
        assert!(plan.adversary.is_none());
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
