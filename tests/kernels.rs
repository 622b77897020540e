//! Kernel-equivalence suite: the CI matrix gate for the FO execution path
//! (counter-RNG SoA kernels).
//!
//! The `kernel-equivalence` CI job runs this file under
//! `FEDHH_TEST_PARALLELISM={1,3,8}`.  Two guarantees are enforced:
//!
//! 1. **The path is invariant** across parallelism {1, 2, 3, 8} and under
//!    the env-driven default engine — for every mechanism, bit-for-bit — on
//!    the test-scale YCM federation and on one whose big party's level
//!    groups span several of the report pipeline's 16 384-user chunks.
//! 2. **The path is deterministic and pinned**: same seed → same digest on
//!    repeat runs, equal to the committed constant per mechanism and per
//!    oracle, so no refactor can silently move the report stream.

mod common;

use common::{chunk_crossing_dataset, digest};
use fedhh_datasets::{DatasetConfig, DatasetKind, FederatedDataset};
use fedhh_federated::{EngineConfig, ProtocolConfig};
use fedhh_fo::FoKind;
use fedhh_mechanisms::{MechanismKind, MechanismOutput, Run};

fn dataset() -> FederatedDataset {
    DatasetConfig::test_scale().build(DatasetKind::Ycm)
}

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
    engine: Option<EngineConfig>,
) -> MechanismOutput {
    let builder = Run::mechanism(kind).dataset(dataset).config(config);
    match engine {
        Some(engine) => builder.engine(engine),
        None => builder,
    }
    .execute()
    .unwrap_or_else(|e| panic!("{kind}: {e}"))
}

/// Guarantee 1: the output is bit-identical at every parallelism level
/// and under the env-driven default engine, on both federations.
#[test]
fn selected_path_is_invariant_across_chunking_and_parallelism() {
    for ds in [dataset(), chunk_crossing_dataset()] {
        for kind in MechanismKind::ALL {
            let reference = run(kind, &ds, config(), Some(EngineConfig::sequential()));
            let baseline = digest(&reference);
            // The default engine honours FEDHH_TEST_PARALLELISM; the explicit
            // grid covers every level regardless of the environment.
            assert_eq!(
                digest(&run(kind, &ds, config(), None)),
                baseline,
                "{kind} on {}: default engine diverged",
                ds.name()
            );
            for parallelism in [1usize, 2, 3, 8] {
                let engine = EngineConfig::parallel(parallelism);
                assert_eq!(
                    digest(&run(kind, &ds, config(), Some(engine))),
                    baseline,
                    "{kind} on {}: parallelism {parallelism} diverged",
                    ds.name()
                );
            }
        }
    }
}

/// Per-mechanism pinned digests of the k-RR path on the seeded test-scale
/// dataset — the counter-RNG stream every run executes.  Recorded before
/// the mechanisms' level loops were merged; a change here means the report
/// stream (or a mechanism's use of it) moved, which is a compatibility
/// break for pinned experiments and must be deliberate (see
/// ARCHITECTURE.md, "Determinism and bit-identity").
const VECTORIZED_DIGESTS: [(MechanismKind, u64); 4] = [
    (MechanismKind::FedPem, 0x17C2_80B3_9D83_7C67),
    (MechanismKind::Gtf, 0xECC5_AC8E_6F9F_C879),
    (MechanismKind::Tap, 0xDA2C_7314_0C47_37E7),
    (MechanismKind::Taps, 0xE40E_7192_5933_31BD),
];

/// Guarantee 2: the path reproduces its committed baselines byte-for-byte,
/// and a rerun at the same seed repeats exactly.  Pinned separately from
/// the per-oracle digests below, which k-RR never reaches.
#[test]
fn vectorized_path_is_deterministic_and_pinned_separately() {
    let ds = dataset();
    for (kind, pin) in VECTORIZED_DIGESTS {
        let first = digest(&run(kind, &ds, config(), Some(EngineConfig::sequential())));
        let second = digest(&run(kind, &ds, config(), Some(EngineConfig::sequential())));
        assert_eq!(first, second, "{kind}: vectorized rerun diverged");
        assert_eq!(first, pin, "{kind}: vectorized digest {first:#018X} moved");
    }
}

/// Per-mechanism pinned digests of the `Vectorized` path under the two
/// O(d) oracles, whose aggregation kernels the k-RR pins above never reach:
/// OLH (the oracle of the `kernel-ycm-tap-olh` benchmark workload) and OUE.
/// A change here means one of those kernels, or a mechanism's use of it,
/// moved.
const VECTORIZED_OD_DIGESTS: [(FoKind, [(MechanismKind, u64); 4]); 2] = [
    (
        FoKind::Olh,
        [
            (MechanismKind::FedPem, 0x6E87_0109_F529_4AA3),
            (MechanismKind::Gtf, 0xDB32_931D_AA46_2099),
            (MechanismKind::Tap, 0xBA89_2165_DC44_F656),
            (MechanismKind::Taps, 0x7B90_4CBF_3D5B_D821),
        ],
    ),
    (
        FoKind::Oue,
        [
            (MechanismKind::FedPem, 0x10D1_8436_A648_7B21),
            (MechanismKind::Gtf, 0xA7A5_13DA_E2FF_28C1),
            (MechanismKind::Tap, 0x3A8C_42DB_1208_2892),
            (MechanismKind::Taps, 0x826D_E1D2_AE0F_07C9),
        ],
    ),
];

/// Guarantee 2, per oracle: the OLH and OUE vectorized kernels reproduce
/// their committed baselines byte-for-byte under every mechanism.
#[test]
fn vectorized_olh_and_oue_outputs_match_their_pinned_digests() {
    let ds = dataset();
    for (fo, pins) in VECTORIZED_OD_DIGESTS {
        for (kind, pin) in pins {
            let got = digest(&run(
                kind,
                &ds,
                config().with_fo(fo),
                Some(EngineConfig::sequential()),
            ));
            assert_eq!(got, pin, "{kind}/{fo}: vectorized digest {got:#018X} moved");
        }
    }
}
