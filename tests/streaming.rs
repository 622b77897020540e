//! Chunk-invariance and streamed-dataset properties of the 0.6 data plane.
//!
//! Two guarantees are enforced here:
//!
//! 1. **Chunked execution is bit-identical to the unchunked path**: the
//!    report pipeline perturbs a level group in chunks of a fixed 16 384
//!    users, and for every mechanism the same seed produces the digest
//!    (heavy hitters, counts bit-for-bit, uplink accounting) that running
//!    each group as one chunk gave, at parallelism {1, 8} on a federation
//!    whose level groups span several chunks, over eager and streamed
//!    parties alike.  Where chunk and level-split boundaries fall at every
//!    chunk size is pinned in `fedhh-federated`'s estimator tests.
//! 2. **Streamed datasets equal eager datasets**: for every `DatasetKind`,
//!    `build_streamed` regenerates exactly the item sequences `build`
//!    materializes, and every mechanism produces the same output over
//!    either, at parallelism {1, 4, 8}.

mod common;

use fedhh_datasets::{
    DatasetConfig, DatasetKind, EvolutionPlan, FederatedDataset, PopulationEvolver,
};
use fedhh_federated::{EngineConfig, ProtocolConfig};
use fedhh_mechanisms::{MechanismKind, MechanismOutput, Run};

fn config() -> ProtocolConfig {
    ProtocolConfig {
        k: 5,
        epsilon: 4.0,
        max_bits: 16,
        granularity: 8,
        ..ProtocolConfig::default()
    }
}

fn run(
    kind: MechanismKind,
    dataset: &FederatedDataset,
    config: ProtocolConfig,
    engine: EngineConfig,
) -> MechanismOutput {
    Run::mechanism(kind)
        .dataset(dataset)
        .config(config)
        .engine(engine)
        .execute()
        .unwrap_or_else(|e| panic!("{kind}: {e}"))
}

fn assert_outputs_identical(a: &MechanismOutput, b: &MechanismOutput, what: &str) {
    assert_eq!(a.heavy_hitters, b.heavy_hitters, "{what}: heavy hitters");
    assert_eq!(a.counts.len(), b.counts.len(), "{what}: count entries");
    for (value, count) in &a.counts {
        let other = b
            .counts
            .get(value)
            .unwrap_or_else(|| panic!("{what}: count for {value} missing from the other run"));
        assert_eq!(
            count.to_bits(),
            other.to_bits(),
            "{what}: count of {value} differs bit-wise"
        );
    }
    assert_eq!(
        a.comm.total_uplink_bits(),
        b.comm.total_uplink_bits(),
        "{what}: uplink bits"
    );
    assert_eq!(
        a.comm.total_downlink_bits(),
        b.comm.total_downlink_bits(),
        "{what}: downlink bits"
    );
    assert_eq!(
        a.local_results.len(),
        b.local_results.len(),
        "{what}: local results"
    );
}

/// Per-mechanism digests (see `common::digest`) of the chunk-crossing
/// federation, recorded when each level group could still be run as one
/// whole chunk: that unchunked path, chunks of 7 and chunks of 16 384 all
/// gave these, at parallelism 1 and 8, over eager and streamed parties.
const UNCHUNKED_DIGESTS: [(MechanismKind, u64); 4] = [
    (MechanismKind::FedPem, 0x4CBD_F3A4_B5CF_A86B),
    (MechanismKind::Gtf, 0xA620_57C9_E698_7654),
    (MechanismKind::Tap, 0x6AF0_E2F0_8BF4_C489),
    (MechanismKind::Taps, 0xBABD_8490_359D_88F7),
];

/// Guarantee 1: level groups cut into several of the pipeline's chunks give
/// the unchunked run's bits at parallelism {1, 8}, for all four mechanisms,
/// whether the parties hold their items or regenerate them.
#[test]
fn chunked_execution_is_bit_identical_across_chunk_sizes_and_parallelism() {
    let eager = common::chunk_crossing_dataset(false);
    let streamed = common::chunk_crossing_dataset(true);
    assert!(streamed.parties().iter().all(|p| p.is_streamed()));
    for (kind, pin) in UNCHUNKED_DIGESTS {
        for parallelism in [1usize, 8] {
            let engine = EngineConfig::parallel(parallelism);
            for (backing, dataset) in [("eager", &eager), ("streamed", &streamed)] {
                let got = common::digest(&run(kind, dataset, config(), engine));
                assert_eq!(
                    got, pin,
                    "{kind} {backing} parties at parallelism {parallelism}: digest {got:#018X}"
                );
            }
        }
    }
}

/// Streamed datasets regenerate exactly the sequences eager builds
/// materialize, for every dataset group.
#[test]
fn streamed_datasets_are_bit_identical_to_eager_builds_per_kind() {
    let config = DatasetConfig::test_scale();
    for kind in DatasetKind::ALL {
        let eager = config.build(kind);
        let streamed = config.build_streamed(kind);
        assert_eq!(eager.party_count(), streamed.party_count(), "{kind}");
        assert_eq!(eager.total_users(), streamed.total_users(), "{kind}");
        for (a, b) in eager.parties().iter().zip(streamed.parties()) {
            assert_eq!(a.name(), b.name(), "{kind}");
            assert_eq!(a.user_count(), b.user_count(), "{kind}");
            assert!(!a.is_streamed(), "{kind}: eager party claims streamed");
            assert!(b.is_streamed(), "{kind}: streamed party claims eager");
            // Full-sequence equality...
            assert_eq!(
                a.items(),
                b.stream().materialize(),
                "{kind}/{}: streamed sequence diverged",
                a.name()
            );
            // ...and chunk tiling equality at an odd chunk size.
            let mut rebuilt = Vec::with_capacity(b.user_count());
            let stream = b.stream();
            let mut chunks = stream.chunks(97);
            while let Some(chunk) = chunks.next_chunk() {
                rebuilt.extend_from_slice(chunk);
            }
            assert_eq!(a.items(), rebuilt, "{kind}/{}: chunk tiling", a.name());
        }
        // Ground truths agree (computed through the stream on one side).
        assert_eq!(
            eager.ground_truth_top_k(10),
            streamed.ground_truth_top_k(10),
            "{kind}"
        );
    }
}

/// Mechanisms produce identical outputs over streamed and eager datasets,
/// at every parallelism.
#[test]
fn mechanism_outputs_are_identical_over_streamed_and_eager_datasets() {
    let dataset_config = DatasetConfig::test_scale();
    let eager = dataset_config.build(DatasetKind::Rdb);
    let streamed = dataset_config.build_streamed(DatasetKind::Rdb);
    for kind in MechanismKind::ALL {
        let reference = run(kind, &eager, config(), EngineConfig::sequential());
        for parallelism in [1usize, 4, 8] {
            let engine = EngineConfig::parallel(parallelism);
            for (backing, dataset) in [("eager", &eager), ("streamed", &streamed)] {
                assert_outputs_identical(
                    &reference,
                    &run(kind, dataset, config(), engine),
                    &format!("{kind} {backing} dataset at parallelism {parallelism}"),
                );
            }
        }
    }
}

/// The generator refactor (pre-encoded code pools, shared `finish_party`)
/// must not have changed the sequences eager builds produce: these FNV
/// hashes were captured from the pre-0.6 generators at `test_scale`.
#[test]
fn eager_item_sequences_match_the_pre_0_6_generators() {
    let expected: [(DatasetKind, u64); 5] = [
        (DatasetKind::Rdb, 0xed93_1451_26b2_e08c),
        (DatasetKind::Ycm, 0x7f94_6772_c711_cc6c),
        (DatasetKind::Tys, 0xb961_60ce_4b8a_a156),
        (DatasetKind::Uba, 0xa5c1_00a2_390e_81b5),
        (DatasetKind::Syn, 0x73e7_3354_dcca_144d),
    ];
    for (kind, want) in expected {
        let ds = DatasetConfig::test_scale().build(kind);
        let items = ds.parties().iter().map(|party| party.items().to_vec());
        assert_eq!(
            fnv(items),
            want,
            "{kind}: eager item sequence diverged from 0.5"
        );
    }
}

/// SYN at the paper's item scale (the benchmark's population: `user_scale`
/// 0.02, seed 54) across Table 8's β.  Its Poisson parties' domains run far
/// past the rank where the pmf underflows to 0, which `test_scale` never
/// reaches.  An item moves only when a weight change crosses a draw, so a
/// few ulps of drift can pass here: `fedhh-datasets`'
/// `poisson::tests::weights_match_pinned_bits` pins the weights' bits.
#[test]
fn eager_syn_at_paper_item_scale_matches_pinned_digests() {
    let expected: [(f64, u64); 3] = [
        (0.2, 0xdd6a_1c7b_c839_bbb9),
        (0.5, 0x9ac9_b28e_9721_dd5c),
        (0.8, 0x86fa_f043_e85f_0c25),
    ];
    for (syn_beta, want) in expected {
        let config = DatasetConfig {
            user_scale: 0.02,
            syn_beta,
            seed: 54,
            ..DatasetConfig::paper_scale()
        };
        let ds = config.build(DatasetKind::Syn);
        let got = fnv(ds.parties().iter().map(|party| party.items().to_vec()));
        assert_eq!(got, want, "SYN β {syn_beta}: got {got:#018x}");
    }
}

/// FNV-1a over every party's item sequence, in party order.
fn fnv(parties: impl IntoIterator<Item = Vec<u64>>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for items in parties {
        for item in items {
            hash ^= item;
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
    }
    hash
}

/// Evolved populations are pinned independently of how churn is computed:
/// epochs 0..=8 of RDB and SYN under churn 0.2 and 1.0 (drift 2), digested
/// from the materialized streams.  Eager-vs-streamed equality cannot catch
/// a change to the churn sampler, because both sides would move together.
#[test]
fn evolved_epochs_match_pinned_digests() {
    let expected: [(DatasetKind, f64, [u64; 9]); 4] = [
        (
            DatasetKind::Rdb,
            0.2,
            [
                0xed93_1451_26b2_e08c,
                0xa714_d0db_c0ee_1bc2,
                0x69ef_3ea4_8105_2e6e,
                0xf606_cc66_abc9_38e1,
                0x4bea_ca4a_6508_2062,
                0x28c1_a330_53fa_48c5,
                0x3703_6542_773c_591a,
                0x78d1_fd88_c1c1_ec2e,
                0x52ac_82b4_1792_286a,
            ],
        ),
        (
            DatasetKind::Rdb,
            1.0,
            [
                0xed93_1451_26b2_e08c,
                0xef1b_c85a_d84f_4f6b,
                0xf398_fd5e_1188_29c4,
                0x3553_5dea_71dd_2f18,
                0x21f9_6d14_f6ab_d120,
                0x2c40_ece8_20f8_48b8,
                0x75db_52ec_15a6_26f7,
                0x46cc_cdaf_7e58_d53c,
                0x336c_6ac5_81e9_900b,
            ],
        ),
        (
            DatasetKind::Syn,
            0.2,
            [
                0x73e7_3354_dcca_144d,
                0xe994_9152_3e93_932f,
                0x89ab_af0d_c216_2674,
                0x25ec_fedf_e817_2956,
                0x0282_96c8_f475_7f49,
                0x23e9_5030_1107_ea81,
                0x3f8f_4b4d_6e64_ba9a,
                0x9891_19da_4cc5_cdf3,
                0x3c72_bfa7_b218_d2cd,
            ],
        ),
        (
            DatasetKind::Syn,
            1.0,
            [
                0x73e7_3354_dcca_144d,
                0x3fe2_6097_616f_b911,
                0x9f86_fe52_1eec_c07d,
                0x247e_6e07_4f02_2cfc,
                0xd60a_67a8_9cc4_05cd,
                0xc4c6_3fd2_9467_4e55,
                0x6bb4_f568_2232_a65c,
                0xfe02_b1dd_92e7_7b85,
                0x3274_0acf_f6ce_44ee,
            ],
        ),
    ];
    for (kind, churn_fraction, want) in expected {
        let plan = EvolutionPlan {
            churn_fraction,
            drift_stride: 2,
            seed: 7,
        };
        let evolver = PopulationEvolver::new(DatasetConfig::test_scale().build(kind), plan);
        let got: Vec<u64> = (0..=8u32)
            .map(|e| {
                let epoch = evolver.epoch(e);
                fnv(epoch.parties().iter().map(|p| p.stream().materialize()))
            })
            .collect();
        assert_eq!(got, want, "{kind} churn {churn_fraction}");
    }
}

/// `paper_scale` carries the paper's parameters.
#[test]
fn paper_scale_is_the_unscaled_configuration() {
    let paper = DatasetConfig::paper_scale();
    assert_eq!(paper.user_scale, 1.0);
    assert_eq!(paper.item_scale, 1.0);
    assert_eq!(paper.code_bits, 48);
}
