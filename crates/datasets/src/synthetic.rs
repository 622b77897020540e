//! The SYN dataset: Dirichlet-allocated non-IID parties.
//!
//! The paper constructs SYN from the Tmall shopping logs by (1) dividing the
//! item universe into N = 6 groups, (2) sampling for each of 8 parties a
//! proportion vector q ~ Dir_N(β) and allocating a q_j share of group j to
//! that party's item domain, and (3) building each party's frequency
//! distribution from a Zipf or Poisson profile (Table 2, SYN rows).  This
//! module reproduces that construction over a synthetic item universe.
//!
//! `DatasetConfig::build` reaches it through `build_syn`, which reads β
//! (`DatasetConfig::syn_beta`), both scales, the code width and the seed
//! from the configuration; N, the universe size and the eight-party table
//! are fixed.  β controls the degree of domain skew (Table 8 sweeps
//! β ∈ {0.2, 0.5, 0.8}), not how much the parties' heads overlap: each
//! party ranks its own shuffled domain (ROADMAP item 11).

use crate::dirichlet::DirichletSampler;
use crate::federated::FederatedDataset;
use crate::poisson::poisson_cdf;
use crate::realworld::{finish_party, scale_users};
use crate::registry::DatasetConfig;
use crate::zipf::zipf_cdf;
use fedhh_trie::ItemEncoder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Number of item groups N the Dirichlet allocation splits the universe
/// into.
const GROUPS: usize = 6;

/// Items in the universe before allocation (unscaled; the Tmall universe
/// the paper samples from).
const UNIVERSE_ITEMS: usize = 44_000;

/// The frequency profile of one SYN party.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FrequencyProfile {
    /// Zipf(α) over the party's item domain.
    Zipf(f64),
    /// Poisson(λ)-shaped weights over the party's item domain.
    Poisson(f64),
}

/// Specification of one SYN party.
#[derive(Debug, Clone)]
struct SynPartySpec {
    /// Party name, e.g. `"syn0"`.
    name: &'static str,
    /// User population (unscaled).
    users: usize,
    /// Frequency profile.
    profile: FrequencyProfile,
}

/// The eight SYN parties of Table 2.
fn syn_party_specs() -> Vec<SynPartySpec> {
    vec![
        SynPartySpec {
            name: "syn0",
            users: 220_000,
            profile: FrequencyProfile::Poisson(10.0),
        },
        SynPartySpec {
            name: "syn1",
            users: 170_000,
            profile: FrequencyProfile::Poisson(8.0),
        },
        SynPartySpec {
            name: "syn2",
            users: 120_000,
            profile: FrequencyProfile::Zipf(1.1),
        },
        SynPartySpec {
            name: "syn3",
            users: 80_000,
            profile: FrequencyProfile::Zipf(1.3),
        },
        SynPartySpec {
            name: "syn4",
            users: 70_000,
            profile: FrequencyProfile::Poisson(6.0),
        },
        SynPartySpec {
            name: "syn5",
            users: 60_000,
            profile: FrequencyProfile::Poisson(4.0),
        },
        SynPartySpec {
            name: "syn6",
            users: 30_000,
            profile: FrequencyProfile::Zipf(1.5),
        },
        SynPartySpec {
            name: "syn7",
            users: 30_000,
            profile: FrequencyProfile::Zipf(1.7),
        },
    ]
}

/// Generates SYN under `config` (its β, scales, code width and seed).
pub(crate) fn build_syn(config: &DatasetConfig) -> FederatedDataset {
    let seed = config.seed;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_5EED);
    let encoder = ItemEncoder::new(config.code_bits, seed ^ 0xFACE_FEED);

    // Build the item universe and split it into N groups of equal size.
    let universe = ((UNIVERSE_ITEMS as f64) * config.item_scale)
        .round()
        .max(60.0) as u64;
    let group_size = (universe as usize / GROUPS).max(1);
    let groups: Vec<Vec<u64>> = (0..GROUPS)
        .map(|g| {
            let start = (g * group_size) as u64;
            let end = if g == GROUPS - 1 {
                universe
            } else {
                start + group_size as u64
            };
            (start..end).collect()
        })
        .collect();

    let dirichlet = DirichletSampler::new(GROUPS, config.syn_beta);
    let parties = syn_party_specs();
    let mut out_parties = Vec::with_capacity(parties.len());

    for spec in &parties {
        // Allocate a q_j share of each item group to this party's domain.
        let q = dirichlet.sample(&mut rng);
        let mut domain: Vec<u64> = Vec::new();
        for (group, share) in groups.iter().zip(q.iter()) {
            let take = ((group.len() as f64) * share).round() as usize;
            let mut shuffled = group.clone();
            shuffled.shuffle(&mut rng);
            domain.extend(shuffled.into_iter().take(take));
        }
        // Guarantee a non-trivial domain even under extreme skew.
        if domain.len() < 10 {
            let mut fallback = groups[0].clone();
            fallback.shuffle(&mut rng);
            domain.extend(fallback.into_iter().take(10 - domain.len()));
        }
        domain.shuffle(&mut rng);

        let users = scale_users(config, spec.users);
        let cdf = match spec.profile {
            FrequencyProfile::Zipf(alpha) => zipf_cdf(domain.len(), alpha),
            FrequencyProfile::Poisson(lambda) => poisson_cdf(domain.len(), lambda),
        };
        // Pre-encode the allocated domain once; sampling then indexes
        // straight into codes (identical values and RNG draws as encoding
        // per draw).
        let codes: Vec<u64> = domain.iter().map(|id| encoder.encode(*id)).collect();
        out_parties.push(finish_party(
            format!("SYN/{}", spec.name),
            codes,
            cdf,
            users,
            config.code_bits,
            &mut rng,
        ));
    }

    FederatedDataset::new("SYN", out_parties, config.code_bits, encoder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DatasetKind;

    fn tiny_config(beta: f64, seed: u64) -> DatasetConfig {
        DatasetConfig {
            user_scale: 0.002,
            item_scale: 0.01,
            code_bits: 16,
            syn_beta: beta,
            seed,
        }
    }

    #[test]
    fn syn_has_eight_parties_with_descending_sizes() {
        let ds = tiny_config(0.5, 1).build(DatasetKind::Syn);
        assert_eq!(ds.party_count(), 8);
        let sizes: Vec<usize> = ds.parties().iter().map(|p| p.user_count()).collect();
        assert!(sizes[0] >= sizes[7], "sizes {sizes:?}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = tiny_config(0.5, 11).build(DatasetKind::Syn);
        let b = tiny_config(0.5, 11).build(DatasetKind::Syn);
        assert_eq!(a.parties()[0].items(), b.parties()[0].items());
    }

    #[test]
    fn smaller_beta_means_more_domain_skew() {
        // Measure, per party, the entropy of its item-domain composition
        // over the 6 Dirichlet groups: a smaller β concentrates each party's
        // domain in fewer groups, so the average entropy must drop.
        let avg_entropy = |beta: f64| {
            let mut total = 0.0;
            let mut count = 0.0;
            for seed in [23, 24, 25] {
                let config = tiny_config(beta, seed);
                let ds = config.build(DatasetKind::Syn);
                let universe = ((UNIVERSE_ITEMS as f64) * config.item_scale).round() as u64;
                let group_size = (universe as usize / GROUPS).max(1) as u64;
                for party in ds.parties() {
                    let mut group_counts = [0.0f64; GROUPS];
                    let mut distinct: Vec<u64> = party
                        .items()
                        .iter()
                        .map(|code| ds.encoder().decode(*code))
                        .collect();
                    distinct.sort_unstable();
                    distinct.dedup();
                    for raw in &distinct {
                        let g = ((raw / group_size) as usize).min(GROUPS - 1);
                        group_counts[g] += 1.0;
                    }
                    let n: f64 = group_counts.iter().sum();
                    let entropy: f64 = group_counts
                        .iter()
                        .filter(|c| **c > 0.0)
                        .map(|c| {
                            let p = c / n;
                            -p * p.ln()
                        })
                        .sum();
                    total += entropy;
                    count += 1.0;
                }
            }
            total / count
        };
        let skewed = avg_entropy(0.2);
        let balanced = avg_entropy(5.0);
        assert!(
            skewed < balanced,
            "expected lower domain entropy with smaller beta: {skewed} vs {balanced}"
        );
    }

    #[test]
    fn profiles_shape_the_frequency_head() {
        // A Zipf(1.7) party concentrates more mass on its top item than a
        // Poisson(10) party does.
        let ds = tiny_config(0.5, 3).build(DatasetKind::Syn);
        let head_share = |idx: usize| {
            let p = &ds.parties()[idx];
            let table = p.frequency_table();
            let top = table.top_k(1)[0];
            table.frequency(top)
        };
        // Party 7 is Zipf(1.7), party 0 is Poisson(10).
        assert!(head_share(7) > head_share(0));
    }
}
