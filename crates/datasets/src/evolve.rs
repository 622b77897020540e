//! Time-varying populations for the epoch service.
//!
//! A production heavy-hitter service does not see one frozen population: it
//! runs epoch after epoch while users come and go (**churn**) and item
//! popularity shifts (**drift**).  [`PopulationEvolver`] models both on top
//! of any base [`FederatedDataset`], deterministically:
//!
//! * **Churn** — entering epoch *e* (for *e ≥ 1*) each user slot is, with
//!   probability [`EvolutionPlan::churn_fraction`], taken over by a *fresh*
//!   user whose item is resampled from the party's popularity pool.  Fresh
//!   users matter to the privacy-budget ledger: a churned-in user has spent
//!   no ε yet, while a retained user keeps accumulating.
//! * **Drift** — the resample pool for epoch *e* keeps the party's base
//!   rank *weights* but rotates the rank→code mapping by
//!   `drift_stride · e` positions, so which codes are popular changes over
//!   time.  This is what makes the warm-start ablation informative: under
//!   zero drift the previous epoch's trie is perfect; under heavy drift it
//!   can mislead.
//!
//! Everything derives from [`EvolutionPlan::seed`] plus the epoch and party
//! indices, so `epoch(e)` is bit-identical across calls, processes and
//! checkpoint resumes — the property the epoch service's crash-recovery
//! guarantee rests on.  Epoch 0 is the base dataset unchanged.
//!
//! ```
//! use fedhh_datasets::{DatasetConfig, DatasetKind, EvolutionPlan, PopulationEvolver};
//!
//! let base = DatasetConfig::test_scale().build(DatasetKind::Syn);
//! let plan = EvolutionPlan { churn_fraction: 0.2, drift_stride: 3, seed: 7 };
//! let evolver = PopulationEvolver::new(base, plan);
//! let e1 = evolver.epoch(1);
//! assert_eq!(e1.total_users(), evolver.base().total_users());
//! // Deterministic replay: the same epoch is bit-identical every time.
//! assert_eq!(
//!     e1.parties()[0].stream().materialize(),
//!     evolver.epoch(1).parties()[0].stream().materialize(),
//! );
//! ```

use crate::cdf::GuidedCdf;
use crate::federated::FederatedDataset;
use crate::party::PartyData;
use crate::stream::{ChurnGen, ItemStream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// How a population evolves between epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvolutionPlan {
    /// Fraction of user slots replaced by fresh users per epoch, in
    /// `[0, 1]`.
    pub churn_fraction: f64,
    /// Positions the rank→code mapping rotates per epoch (0 = no drift).
    pub drift_stride: usize,
    /// Seed for all churn/drift randomness.
    pub seed: u64,
}

impl EvolutionPlan {
    /// A static population: no churn, no drift.
    pub fn frozen(seed: u64) -> Self {
        Self {
            churn_fraction: 0.0,
            drift_stride: 0,
            seed,
        }
    }
}

/// Per-party resample pool: the base popularity ranking and its CDF.
#[derive(Debug, Clone)]
struct PartyPool {
    /// Base popularity-ranked item codes (`codes[rank]`).
    codes: Vec<u64>,
    /// Cumulative distribution over ranks, from the base counts; guided
    /// once here and shared by every epoch's layer (drift rotates codes,
    /// not ranks).
    cdf: Arc<GuidedCdf>,
}

impl PartyPool {
    fn from_party(party: &PartyData) -> Self {
        let ranked = party.frequency_table().ranked();
        let codes: Vec<u64> = ranked.iter().map(|(code, _)| *code).collect();
        let total: f64 = ranked.iter().map(|(_, count)| *count as f64).sum();
        let mut acc = 0.0;
        let cdf: Vec<f64> = ranked
            .iter()
            .map(|(_, count)| {
                acc += *count as f64 / total;
                acc
            })
            .collect();
        Self {
            codes,
            cdf: Arc::new(GuidedCdf::new(cdf)),
        }
    }

    /// The pool drifted to `epoch`: rank weights stay, the rank→code
    /// mapping rotates by `stride · epoch` positions.
    fn drifted(&self, stride: usize, epoch: u32) -> Vec<u64> {
        if self.codes.is_empty() {
            return Vec::new();
        }
        let shift = (stride * epoch as usize) % self.codes.len();
        let mut codes = Vec::with_capacity(self.codes.len());
        codes.extend_from_slice(&self.codes[shift..]);
        codes.extend_from_slice(&self.codes[..shift]);
        codes
    }
}

/// Derives the epoch-*e* population of a base dataset, deterministically.
#[derive(Debug, Clone)]
pub struct PopulationEvolver {
    base: FederatedDataset,
    plan: EvolutionPlan,
    pools: Vec<PartyPool>,
}

impl PopulationEvolver {
    /// Prepares an evolver over `base` (one frequency pass per party).
    pub fn new(base: FederatedDataset, plan: EvolutionPlan) -> Self {
        assert!(
            (0.0..=1.0).contains(&plan.churn_fraction),
            "churn fraction must be in [0, 1], got {}",
            plan.churn_fraction
        );
        let pools = base.parties().iter().map(PartyPool::from_party).collect();
        Self { base, plan, pools }
    }

    /// The underlying epoch-0 dataset.
    pub fn base(&self) -> &FederatedDataset {
        &self.base
    }

    /// The evolution plan.
    pub fn plan(&self) -> &EvolutionPlan {
        &self.plan
    }

    /// The decide/resample RNGs for party `party`'s transition *into*
    /// epoch `epoch` (≥ 1).
    fn transition_rngs(&self, epoch: u32, party: usize) -> (StdRng, StdRng) {
        let base = self
            .plan
            .seed
            .wrapping_add((epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(((party as u64) + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        (
            StdRng::seed_from_u64(base ^ 0xC4CE_B9FE_1A85_EC53),
            StdRng::seed_from_u64(base ^ 0x5EED_CAFE_F00D_D1CE),
        )
    }

    /// The population at epoch `epoch`: the base dataset with `epoch` churn
    /// layers applied.  `epoch(0)` is the base unchanged.  Construction
    /// copies one drifted code pool per layer and party; no item vector is
    /// materialized.  The layers form one fused stack ([`ChurnGen`]), so a
    /// pass over an epoch-*e* party costs, per user slot, *e* decide draws
    /// plus at most one CDF lookup — linear in the epoch, not one pass per
    /// layer.
    pub fn epoch(&self, epoch: u32) -> FederatedDataset {
        if epoch == 0 {
            return self.base.clone();
        }
        let parties: Vec<PartyData> = self
            .base
            .parties()
            .iter()
            .enumerate()
            .map(|(p, party)| {
                let mut stream = party.stream();
                for e in 1..=epoch {
                    let (decide, resample) = self.transition_rngs(e, p);
                    let codes = self.pools[p].drifted(self.plan.drift_stride, e);
                    stream = ItemStream::from_churn(ChurnGen::new(
                        stream,
                        codes,
                        Arc::clone(&self.pools[p].cdf),
                        self.plan.churn_fraction,
                        decide,
                        resample,
                    ));
                }
                PartyData::from_stream(party.name(), stream, party.code_bits())
            })
            .collect();
        FederatedDataset::new(
            format!("{}@e{epoch}", self.base.name()),
            parties,
            self.base.code_bits(),
            *self.base.encoder(),
        )
    }

    /// `mask[u]` is true when slot `u` of party `party` holds a fresh user
    /// at epoch `epoch`: everyone at epoch 0, the churned-in slots after.
    /// Replays only the decide sequence, so it provably agrees with
    /// [`PopulationEvolver::epoch`]'s streams.
    pub fn fresh_mask(&self, epoch: u32, party: usize) -> Vec<bool> {
        let users = self.base.parties()[party].user_count();
        if epoch == 0 {
            return vec![true; users];
        }
        let (mut decide, _) = self.transition_rngs(epoch, party);
        (0..users)
            .map(|_| decide.gen::<f64>() < self.plan.churn_fraction)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{DatasetConfig, DatasetKind};

    fn evolver(churn: f64, drift: usize) -> PopulationEvolver {
        let base = DatasetConfig::test_scale().build(DatasetKind::Syn);
        PopulationEvolver::new(
            base,
            EvolutionPlan {
                churn_fraction: churn,
                drift_stride: drift,
                seed: 42,
            },
        )
    }

    #[test]
    fn epoch_zero_is_the_base() {
        let ev = evolver(0.3, 2);
        let e0 = ev.epoch(0);
        for (a, b) in e0.parties().iter().zip(ev.base().parties()) {
            assert_eq!(a.stream().materialize(), b.stream().materialize());
        }
        assert!(ev.fresh_mask(0, 0).iter().all(|&f| f));
    }

    #[test]
    fn epochs_replay_bit_identically() {
        let ev = evolver(0.25, 3);
        for e in [1u32, 2, 3] {
            let a = ev.epoch(e);
            let b = ev.epoch(e);
            for (pa, pb) in a.parties().iter().zip(b.parties()) {
                assert_eq!(pa.stream().materialize(), pb.stream().materialize());
            }
        }
    }

    #[test]
    fn masks_agree_with_streams() {
        let ev = evolver(0.5, 1);
        let prev = ev.epoch(1);
        let next = ev.epoch(2);
        for (p, (a, b)) in prev.parties().iter().zip(next.parties()).enumerate() {
            let mask = ev.fresh_mask(2, p);
            let before = a.stream().materialize();
            let after = b.stream().materialize();
            assert_eq!(mask.len(), before.len());
            for (u, &fresh) in mask.iter().enumerate() {
                if !fresh {
                    assert_eq!(after[u], before[u], "party {p} slot {u} retained");
                }
            }
            assert!(mask.iter().any(|&f| f), "party {p} saw churn");
        }
    }

    #[test]
    fn zero_churn_freezes_the_population() {
        let ev = evolver(0.0, 5);
        let e0 = ev.epoch(0);
        let e3 = ev.epoch(3);
        for (a, b) in e0.parties().iter().zip(e3.parties()) {
            assert_eq!(a.stream().materialize(), b.stream().materialize());
        }
    }

    #[test]
    fn drift_shifts_popularity() {
        let frozen = evolver(1.0, 0);
        let drifted = evolver(1.0, 7);
        // Full churn: epoch 1 is entirely resampled.  Without drift the
        // resample pool equals the base ranking; with drift the top codes
        // must differ.
        let top_frozen = frozen.epoch(1).ground_truth_top_k(5);
        let top_drifted = drifted.epoch(1).ground_truth_top_k(5);
        assert_ne!(top_frozen, top_drifted);
    }

    #[test]
    fn user_counts_are_stable_across_epochs() {
        let ev = evolver(0.4, 2);
        let users = ev.base().total_users();
        for e in 0..4 {
            assert_eq!(ev.epoch(e).total_users(), users);
        }
    }
}
