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
//! Epoch *e* is epoch *e − 1* after one churn pass over its user slots.
//! The evolver keeps the newest epoch it has derived (its *frontier*, one
//! `u64` per user) and advances it in place, so stepping through epochs in
//! order costs one pass per epoch; an earlier epoch, or the first call on a
//! fresh evolver, replays the passes from the base.
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
use crate::registry::InvalidDatasetConfig;
use crate::stream::ItemStream;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

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
    /// Checks the plan: `churn_fraction` in `[0, 1]` (NaN refused).  Any
    /// drift stride and seed are valid.
    pub fn validate(&self) -> Result<(), InvalidDatasetConfig> {
        if (0.0..=1.0).contains(&self.churn_fraction) {
            Ok(())
        } else {
            Err(InvalidDatasetConfig::new(
                "churn_fraction",
                self.churn_fraction,
                "in [0, 1]",
            ))
        }
    }
}

/// Per-party resample pool: the base popularity ranking and its CDF.
#[derive(Debug)]
struct PartyPool {
    /// Base popularity-ranked item codes (`codes[rank]`).
    codes: Vec<u64>,
    /// Cumulative distribution over ranks, from the base counts; guided
    /// once here and shared by every epoch (drift rotates codes, not
    /// ranks).
    cdf: GuidedCdf,
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
            cdf: GuidedCdf::new(cdf),
        }
    }

    /// How far the pool has drifted at `epoch`: rank `r` maps to
    /// `codes[(r + shift) % len]`, with `shift = stride · epoch mod len`
    /// computed exactly, whatever the stride.
    fn shift(&self, stride: usize, epoch: u32) -> usize {
        if self.codes.is_empty() {
            return 0;
        }
        (stride as u128 * u128::from(epoch) % self.codes.len() as u128) as usize
    }
}

/// The newest epoch an evolver has derived: one item vector per party,
/// shared with the parties [`PopulationEvolver::epoch`] handed out.
#[derive(Debug, Default)]
struct Frontier {
    /// The epoch `items` holds; 0 means nothing is derived yet.
    epoch: u32,
    items: Vec<Arc<Vec<u64>>>,
}

/// Derives the epoch-*e* population of a base dataset, deterministically.
///
/// The evolver keeps the newest epoch it has derived (the *frontier*,
/// 8 bytes per user) and derives a later epoch from it, one churn pass per
/// epoch advanced.  Any other epoch is replayed from the base the same way,
/// so epoch *e* is a pure function of `(base, plan, e)`.
#[derive(Debug)]
pub struct PopulationEvolver {
    base: FederatedDataset,
    plan: EvolutionPlan,
    pools: Vec<PartyPool>,
    /// Only ever a shortcut: dropping it costs a replay, never a result.
    frontier: Mutex<Frontier>,
}

impl PopulationEvolver {
    /// Prepares an evolver over `base` (one frequency pass per party).
    ///
    /// # Panics
    ///
    /// Panics with [`EvolutionPlan::validate`]'s message when the plan is
    /// invalid.
    pub fn new(base: FederatedDataset, plan: EvolutionPlan) -> Self {
        if let Err(err) = plan.validate() {
            panic!("{err}");
        }
        let pools = base.parties().iter().map(PartyPool::from_party).collect();
        Self {
            base,
            plan,
            pools,
            frontier: Mutex::default(),
        }
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

    /// Churns party `party`'s items from epoch `epoch - 1` into `epoch`.
    /// Per slot: one decide draw; where it churns, one resample draw
    /// looked up in the pool drifted to `epoch`.
    fn churn(&self, epoch: u32, party: usize, items: &mut [u64]) {
        let pool = &self.pools[party];
        let (len, shift) = (pool.codes.len(), pool.shift(self.plan.drift_stride, epoch));
        let (mut decide, mut resample) = self.transition_rngs(epoch, party);
        for item in items {
            if decide.gen::<f64>() < self.plan.churn_fraction {
                let rank = pool.cdf.sample(&mut resample) + shift;
                *item = pool.codes[if rank < len { rank } else { rank - len }];
            }
        }
    }

    /// The population at epoch `epoch`: the base dataset with `epoch` churn
    /// transitions applied.  `epoch(0)` is the base unchanged.
    ///
    /// From the frontier at epoch *f* ≤ `epoch` this costs `epoch − f`
    /// passes over the users, done in place (free of copies once the
    /// caller has dropped the frontier's previous parties); any earlier
    /// epoch is replayed from the base in `epoch` passes.  The parties
    /// returned share the frontier's item vectors.
    pub fn epoch(&self, epoch: u32) -> FederatedDataset {
        if epoch == 0 {
            return self.base.clone();
        }
        let mut frontier = self.frontier.lock().unwrap_or_else(|poisoned| {
            // A pass panicked half way: drop what it left.
            self.frontier.clear_poison();
            let mut frontier = poisoned.into_inner();
            *frontier = Frontier::default();
            frontier
        });
        if frontier.epoch == 0 || frontier.epoch > epoch {
            frontier.epoch = 0;
            frontier
                .items
                .resize_with(self.base.party_count(), Arc::default);
            for (items, party) in frontier.items.iter_mut().zip(self.base.parties()) {
                if Arc::get_mut(items).is_none() {
                    *items = Arc::default();
                }
                let items = Arc::make_mut(items);
                items.clear();
                items.extend_from_slice(party.items());
            }
        }
        if frontier.epoch < epoch {
            let from = frontier.epoch;
            for (p, items) in frontier.items.iter_mut().enumerate() {
                let items = Arc::make_mut(items);
                for e in from + 1..=epoch {
                    self.churn(e, p, items);
                }
            }
            frontier.epoch = epoch;
        }
        let parties: Vec<PartyData> = self
            .base
            .parties()
            .iter()
            .zip(&frontier.items)
            .map(|(party, items)| {
                PartyData::from_stream(
                    party.name(),
                    ItemStream::from_shared(Arc::clone(items)),
                    party.code_bits(),
                )
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
    /// [`PopulationEvolver::epoch`]'s items.
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
    fn plans_validate_the_churn_fraction() {
        let plan = |churn_fraction| EvolutionPlan {
            churn_fraction,
            drift_stride: usize::MAX,
            seed: 7,
        };
        for churn in [0.0, 0.5, 1.0] {
            assert_eq!(plan(churn).validate(), Ok(()));
        }
        for churn in [f64::NAN, -f64::MIN_POSITIVE, 1.5, f64::INFINITY] {
            let err = plan(churn).validate().unwrap_err().to_string();
            assert!(err.contains("churn_fraction"), "{churn}: {err}");
        }
        let base = DatasetConfig::test_scale().build(DatasetKind::Rdb);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            PopulationEvolver::new(base, plan(f64::NAN))
        }));
        let payload = refused.expect_err("a NaN churn fraction evolved a population");
        assert_eq!(
            payload.downcast_ref::<String>(),
            Some(&plan(f64::NAN).validate().unwrap_err().to_string())
        );
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
        // Stepping back one epoch at a time replays from the base.
        for e in [2u32, 1] {
            let fresh = evolver(0.25, 3);
            assert_eq!(materialized(&ev.epoch(e)), materialized(&fresh.epoch(e)));
        }
    }

    fn materialized(dataset: &FederatedDataset) -> Vec<Vec<u64>> {
        dataset
            .parties()
            .iter()
            .map(|party| party.stream().materialize())
            .collect()
    }

    #[test]
    fn masks_agree_with_streams() {
        for churn in [0.0, 0.2, 1.0] {
            let ev = evolver(churn, 1);
            let mut before = materialized(&ev.epoch(0));
            for e in 1..=8 {
                let after = materialized(&ev.epoch(e));
                for (p, (before, after)) in before.iter().zip(&after).enumerate() {
                    let mask = ev.fresh_mask(e, p);
                    let pool = &ev.pools[p].codes;
                    assert_eq!(mask.len(), before.len());
                    assert_eq!(after.len(), before.len());
                    for (u, &fresh) in mask.iter().enumerate() {
                        if fresh {
                            assert!(pool.contains(&after[u]), "party {p} slot {u} from pool");
                        } else {
                            assert_eq!(after[u], before[u], "party {p} slot {u} retained");
                        }
                    }
                    let marked = mask.iter().filter(|&&f| f).count();
                    match churn {
                        0.0 => assert_eq!(marked, 0, "epoch {e} party {p}"),
                        1.0 => assert_eq!(marked, mask.len(), "epoch {e} party {p}"),
                        _ => assert!(
                            0 < marked && marked < mask.len(),
                            "epoch {e} party {p}: {marked} of {}",
                            mask.len()
                        ),
                    }
                }
                before = after;
            }
        }
    }

    #[test]
    fn drift_rotates_by_the_exact_stride_product() {
        // Full churn resamples every slot with the same draws whatever the
        // stride, so a slot holding `codes[r]` without drift holds
        // `codes[(r + stride · e) mod len]` with it.
        let frozen = evolver(1.0, 0);
        let drifted = evolver(1.0, usize::MAX);
        let mut shifts = Vec::new();
        for e in 1..=3u32 {
            let a = materialized(&frozen.epoch(e));
            let b = materialized(&drifted.epoch(e));
            for (p, (a, b)) in a.iter().zip(&b).enumerate() {
                let codes = &frozen.pools[p].codes;
                let shift = (usize::MAX as u128 * u128::from(e) % codes.len() as u128) as usize;
                let rank: std::collections::HashMap<u64, usize> =
                    codes.iter().enumerate().map(|(r, &c)| (c, r)).collect();
                for (u, (x, y)) in a.iter().zip(b).enumerate() {
                    let want = codes[(rank[x] + shift) % codes.len()];
                    assert_eq!(*y, want, "epoch {e} party {p} slot {u}");
                }
                shifts.push(shift);
            }
        }
        assert!(shifts.iter().any(|&shift| shift != 0), "{shifts:?}");
    }

    #[test]
    fn a_poisoned_frontier_is_dropped() {
        let ev = evolver(0.3, 2);
        let want = materialized(&evolver(0.3, 2).epoch(3));
        ev.epoch(2);
        // A pass that panics half way leaves the frontier corrupt.
        let poisoned = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut frontier = ev.frontier.lock().unwrap();
            for items in &mut frontier.items {
                Arc::make_mut(items).fill(0);
            }
            panic!("pass interrupted");
        }));
        assert!(poisoned.is_err());
        assert_eq!(materialized(&ev.epoch(3)), want);
        assert!(!ev.frontier.is_poisoned());
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
