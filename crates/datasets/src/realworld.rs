//! Synthetic stand-ins for the paper's real-world dataset groups.
//!
//! Table 2 of the paper documents, for each group (RDB, YCM, TYS, UBA), the
//! participating parties, their user populations, their unique-item counts
//! and the number of items common to all parties.  The raw corpora are not
//! redistributable, so we regenerate datasets with the same structure:
//!
//! * every party's item pool is the shared *common pool* plus its own
//!   exclusive items, so pool sizes and the common-item count match the
//!   scaled Table 2 values;
//! * each party ranks its pool with its own random permutation, but common
//!   items are biased towards the head of the ranking so that globally
//!   frequent items exist and differ from the purely local favourites
//!   (the non-IID structure the paper's mechanisms target);
//! * per-party item popularity follows a Zipf law, the classic shape of
//!   word and purchase frequencies.
//!
//! See `ARCHITECTURE.md`, "Substitutions", item 1, for why this preserves
//! the evaluation's qualitative conclusions.
//!
//! `DatasetConfig::build` reaches this module through `build_group`, with
//! one of the four Table 2 tables (`rdb_spec` … `uba_spec`) and the
//! configuration's scales, code width and seed; both are private to the
//! crate.  `finish_party`, shared with SYN, draws a party's items.

use crate::cdf::GuidedCdf;
use crate::federated::FederatedDataset;
use crate::party::PartyData;
use crate::registry::DatasetConfig;
use crate::zipf::zipf_cdf;
use fedhh_trie::ItemEncoder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Structural description of one party in a stand-in dataset.
#[derive(Debug, Clone)]
struct PartySpec {
    /// Party name, e.g. `"reddit"`.
    name: &'static str,
    /// User population reported in Table 2 (unscaled).
    users: usize,
    /// Unique item count reported in Table 2 (unscaled).
    unique_items: usize,
    /// Zipf exponent of the party's popularity profile.
    zipf_alpha: f64,
}

/// Structural description of a whole dataset group.
#[derive(Debug, Clone)]
pub(crate) struct GroupSpec {
    /// Group name, e.g. `"RDB"`.
    name: &'static str,
    /// The participating parties.
    parties: Vec<PartySpec>,
    /// Number of items common to all parties (unscaled).
    common_items: usize,
    /// Probability that the next rank of a party's popularity order is
    /// drawn from the (not yet placed) common pool rather than from the
    /// party's exclusive items.  Higher values make global heavy hitters
    /// easier; the default 0.55 keeps them discoverable but contested.
    common_head_bias: f64,
}

/// A Table 2 user population scaled by `config.user_scale`, at least 50.
pub(crate) fn scale_users(config: &DatasetConfig, users: usize) -> usize {
    ((users as f64) * config.user_scale).round().max(50.0) as usize
}

/// A Table 2 item count scaled by `config.item_scale`, at least 20.
fn scale_items(config: &DatasetConfig, items: usize) -> usize {
    ((items as f64) * config.item_scale).round().max(20.0) as usize
}

/// Samples `users` items for one party from its popularity-ranked `codes`
/// (`codes[rank]`) under `cdf`, one draw of the shared RNG per user.
pub(crate) fn finish_party(
    name: String,
    codes: Vec<u64>,
    cdf: GuidedCdf,
    users: usize,
    code_bits: u8,
    rng: &mut StdRng,
) -> PartyData {
    assert_eq!(codes.len(), cdf.len(), "one CDF entry per ranked item code");
    let items = (0..users).map(|_| codes[cdf.sample(rng)]).collect();
    PartyData::new(name, items, code_bits)
}

/// Generates a stand-in for the group `spec` under `config`.
pub(crate) fn build_group(spec: &GroupSpec, config: &DatasetConfig) -> FederatedDataset {
    let seed = config.seed;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0001);
    let encoder = ItemEncoder::new(config.code_bits, seed ^ 0xC0DE_BEEF);

    let common_count = scale_items(config, spec.common_items);
    // Item identifiers: the common pool occupies [0, common_count); each
    // party's exclusive items follow in disjoint ranges.
    let common_pool: Vec<u64> = (0..common_count as u64).collect();
    let mut next_exclusive_id = common_count as u64;

    let mut parties = Vec::with_capacity(spec.parties.len());
    for pspec in spec.parties.iter() {
        let pool_size = scale_items(config, pspec.unique_items).max(common_count + 1);
        let exclusive_count = pool_size - common_count;
        let exclusive_pool: Vec<u64> =
            (next_exclusive_id..next_exclusive_id + exclusive_count as u64).collect();
        next_exclusive_id += exclusive_count as u64;

        let ranking = rank_pool(
            &common_pool,
            &exclusive_pool,
            spec.common_head_bias,
            &mut rng,
        );
        let users = scale_users(config, pspec.users);
        let cdf = zipf_cdf(ranking.len(), pspec.zipf_alpha);
        // Pre-encode the ranked pool once; sampling then indexes straight
        // into codes (identical values and RNG draws as encoding per draw).
        let codes: Vec<u64> = ranking.iter().map(|id| encoder.encode(*id)).collect();
        parties.push(finish_party(
            format!("{}/{}", spec.name, pspec.name),
            codes,
            cdf,
            users,
            config.code_bits,
            &mut rng,
        ));
    }

    FederatedDataset::new(spec.name, parties, config.code_bits, encoder)
}

/// Builds a party-specific popularity ranking by interleaving a shuffled
/// common pool and a shuffled exclusive pool, preferring common items near
/// the head with probability `bias`.
fn rank_pool(common: &[u64], exclusive: &[u64], bias: f64, rng: &mut StdRng) -> Vec<u64> {
    let mut common: Vec<u64> = common.to_vec();
    let mut exclusive: Vec<u64> = exclusive.to_vec();
    common.shuffle(rng);
    exclusive.shuffle(rng);
    let mut ranking = Vec::with_capacity(common.len() + exclusive.len());
    let (mut ci, mut ei) = (0usize, 0usize);
    while ci < common.len() || ei < exclusive.len() {
        let take_common = if ci >= common.len() {
            false
        } else if ei >= exclusive.len() {
            true
        } else {
            rng.gen::<f64>() < bias
        };
        if take_common {
            ranking.push(common[ci]);
            ci += 1;
        } else {
            ranking.push(exclusive[ei]);
            ei += 1;
        }
    }
    ranking
}

/// The RDB group: Reddit comments + IMDB movie reviews (Table 2).
pub(crate) fn rdb_spec() -> GroupSpec {
    GroupSpec {
        name: "RDB",
        parties: vec![
            PartySpec {
                name: "reddit",
                users: 252_830,
                unique_items: 30_550,
                zipf_alpha: 1.1,
            },
            PartySpec {
                name: "imdb",
                users: 100_000,
                unique_items: 15_470,
                zipf_alpha: 1.15,
            },
        ],
        common_items: 8_047,
        common_head_bias: 0.55,
    }
}

/// The YCM group: Yahoo, CNN/DailyMail, MIND and SWAG (Table 2).
pub(crate) fn ycm_spec() -> GroupSpec {
    GroupSpec {
        name: "YCM",
        parties: vec![
            PartySpec {
                name: "yahoo",
                users: 812_300,
                unique_items: 79_971,
                zipf_alpha: 1.1,
            },
            PartySpec {
                name: "cnn_dailymail",
                users: 287_113,
                unique_items: 32_162,
                zipf_alpha: 1.12,
            },
            PartySpec {
                name: "mind",
                users: 123_082,
                unique_items: 17_309,
                zipf_alpha: 1.15,
            },
            PartySpec {
                name: "swag",
                users: 113_553,
                unique_items: 7_656,
                zipf_alpha: 1.2,
            },
        ],
        common_items: 3_879,
        common_head_bias: 0.55,
    }
}

/// The TYS group: Twitter, Yelp, Scientific Papers, Amazon Arts, SQuAD and
/// AG News (Table 2).
pub(crate) fn tys_spec() -> GroupSpec {
    GroupSpec {
        name: "TYS",
        parties: vec![
            PartySpec {
                name: "twitter",
                users: 658_549,
                unique_items: 80_126,
                zipf_alpha: 1.1,
            },
            PartySpec {
                name: "yelp",
                users: 649_917,
                unique_items: 34_866,
                zipf_alpha: 1.12,
            },
            PartySpec {
                name: "scientific_papers",
                users: 349_119,
                unique_items: 27_372,
                zipf_alpha: 1.15,
            },
            PartySpec {
                name: "amazon_arts",
                users: 200_000,
                unique_items: 8_914,
                zipf_alpha: 1.18,
            },
            PartySpec {
                name: "squad",
                users: 142_192,
                unique_items: 19_895,
                zipf_alpha: 1.2,
            },
            PartySpec {
                name: "ag_news",
                users: 119_999,
                unique_items: 15_879,
                zipf_alpha: 1.22,
            },
        ],
        common_items: 2_175,
        common_head_bias: 0.55,
    }
}

/// The UBA group: six slices of the Alibaba user-behaviour dataset
/// (Table 2).
pub(crate) fn uba_spec() -> GroupSpec {
    GroupSpec {
        name: "UBA",
        parties: vec![
            PartySpec {
                name: "uba0",
                users: 1_476_546,
                unique_items: 162_833,
                zipf_alpha: 1.05,
            },
            PartySpec {
                name: "uba1",
                users: 1_263_768,
                unique_items: 167_196,
                zipf_alpha: 1.08,
            },
            PartySpec {
                name: "uba2",
                users: 1_246_972,
                unique_items: 167_309,
                zipf_alpha: 1.1,
            },
            PartySpec {
                name: "uba3",
                users: 1_117_376,
                unique_items: 58_087,
                zipf_alpha: 1.12,
            },
            PartySpec {
                name: "uba4",
                users: 774_626,
                unique_items: 9_203,
                zipf_alpha: 1.15,
            },
            PartySpec {
                name: "uba5",
                users: 604_082,
                unique_items: 4_979,
                zipf_alpha: 1.2,
            },
        ],
        common_items: 975,
        common_head_bias: 0.6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::DatasetKind;

    fn tiny_scale(seed: u64) -> DatasetConfig {
        DatasetConfig {
            user_scale: 0.002,
            item_scale: 0.01,
            code_bits: 16,
            seed,
            ..DatasetConfig::default()
        }
    }

    #[test]
    fn rdb_stand_in_matches_structure() {
        let ds = tiny_scale(1).build(DatasetKind::Rdb);
        assert_eq!(ds.party_count(), 2);
        assert_eq!(ds.code_bits(), 16);
        // Party sizes preserve the Reddit ≫ IMDB ordering.
        assert!(ds.parties()[0].user_count() > ds.parties()[1].user_count());
        assert!(ds.total_users() > 500);
    }

    #[test]
    fn party_counts_match_table_two() {
        assert_eq!(rdb_spec().parties.len(), 2);
        assert_eq!(ycm_spec().parties.len(), 4);
        assert_eq!(tys_spec().parties.len(), 6);
        assert_eq!(uba_spec().parties.len(), 6);
    }

    #[test]
    fn common_items_create_shared_heavy_hitters() {
        let ds = tiny_scale(7).build(DatasetKind::Rdb);
        // At least one of the global top-10 heavy hitters must be locally
        // popular (top-50) in both parties — i.e. the common pool is doing
        // its job of creating cross-party heavy hitters.
        let global = ds.ground_truth_top_k(10);
        let local_a = ds.parties()[0].frequency_table().top_k(50);
        let local_b = ds.parties()[1].frequency_table().top_k(50);
        let shared = global
            .iter()
            .filter(|g| local_a.contains(g) && local_b.contains(g))
            .count();
        assert!(shared >= 1, "no shared heavy hitters found");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = tiny_scale(3).build(DatasetKind::Rdb);
        let b = tiny_scale(3).build(DatasetKind::Rdb);
        let c = tiny_scale(4).build(DatasetKind::Rdb);
        assert_eq!(a.parties()[0].items(), b.parties()[0].items());
        assert_ne!(a.parties()[0].items(), c.parties()[0].items());
    }

    #[test]
    fn rank_pool_places_all_items_exactly_once() {
        let mut rng = StdRng::seed_from_u64(5);
        let common: Vec<u64> = (0..20).collect();
        let exclusive: Vec<u64> = (100..150).collect();
        let ranking = rank_pool(&common, &exclusive, 0.5, &mut rng);
        assert_eq!(ranking.len(), 70);
        let mut sorted = ranking.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 70);
    }

    #[test]
    fn head_bias_pushes_common_items_forward() {
        let mut rng = StdRng::seed_from_u64(9);
        let common: Vec<u64> = (0..50).collect();
        let exclusive: Vec<u64> = (1000..1950).collect();
        let ranking = rank_pool(&common, &exclusive, 0.8, &mut rng);
        // With bias 0.8 most of the first 50 ranks should be common items.
        let head_common = ranking.iter().take(50).filter(|v| **v < 50).count();
        assert!(
            head_common > 25,
            "only {head_common} common items in the head"
        );
    }
}
