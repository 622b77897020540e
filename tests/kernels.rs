//! Kernel-equivalence suite: the CI matrix gate for the two pinned FO
//! execution paths.
//!
//! The `kernel-equivalence` CI job runs this file under every combination
//! of `FEDHH_TEST_PARALLELISM={1,3,8}` × `FEDHH_TEST_FO_EXEC={scalar,
//! vectorized}`.  Three guarantees are enforced:
//!
//! 1. **The selected path is invariant** across chunk sizes
//!    {1, 7, 64, usize::MAX} × parallelism {1, 8} and under the env-driven
//!    default engine — for every mechanism, bit-for-bit.
//! 2. **Scalar is byte-stable against pinned seed baselines**: a digest of
//!    each mechanism's full output must equal the committed constant, so no
//!    refactor can silently move the sequential RNG stream.
//! 3. **Vectorized is deterministic and pinned separately**: same seed →
//!    same digest on repeat runs, equal to its own committed constant, and
//!    different from the sequential path's (it is a second stream, not a
//!    reordering).

use fedhh_datasets::{DatasetConfig, DatasetKind, FederatedDataset};
use fedhh_federated::{EngineConfig, ExecMode, FoExec, ProtocolConfig};
use fedhh_fo::FoKind;
use fedhh_mechanisms::{MechanismKind, MechanismOutput, Run};
use std::num::NonZeroUsize;

fn dataset() -> FederatedDataset {
    DatasetConfig::test_scale().build(DatasetKind::Ycm)
}

fn config(fo_exec: FoExec) -> ProtocolConfig {
    ProtocolConfig {
        k: 5,
        epsilon: 4.0,
        max_bits: 16,
        granularity: 8,
        fo_exec,
        ..ProtocolConfig::default()
    }
}

/// The execution path under test: the `FEDHH_TEST_FO_EXEC` CI matrix knob,
/// defaulting to the configuration default.
fn selected_exec() -> FoExec {
    std::env::var("FEDHH_TEST_FO_EXEC")
        .ok()
        .and_then(|v| FoExec::parse(&v))
        .unwrap_or_default()
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

/// FNV-1a over every deterministic field of an output (the wall clock is
/// excluded); two runs agree on this digest iff they agree bit-for-bit.
fn digest(output: &MechanismOutput) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for &hh in &output.heavy_hitters {
        eat(hh);
    }
    let mut counts: Vec<(u64, u64)> = output
        .counts
        .iter()
        .map(|(v, c)| (*v, c.to_bits()))
        .collect();
    counts.sort_unstable();
    for (value, count) in counts {
        eat(value);
        eat(count);
    }
    eat(output.comm.total_uplink_bits() as u64);
    eat(output.comm.total_downlink_bits() as u64);
    eat(output.comm.total_local_report_bits() as u64);
    h
}

/// Guarantee 1: whichever path the CI matrix selects, its output is
/// bit-identical across every chunk size, both parallelism levels and the
/// env-driven default engine.
#[test]
fn selected_path_is_invariant_across_chunking_and_parallelism() {
    let ds = dataset();
    let exec = selected_exec();
    for kind in MechanismKind::ALL {
        let reference = run(kind, &ds, config(exec), Some(EngineConfig::sequential()));
        let baseline = digest(&reference);
        // The default engine honours FEDHH_TEST_PARALLELISM; the explicit
        // grid covers both levels regardless of the environment.
        assert_eq!(
            digest(&run(kind, &ds, config(exec), None)),
            baseline,
            "{kind}/{exec}: default engine diverged"
        );
        for parallelism in [1usize, 8] {
            for chunk in [1usize, 7, 64, usize::MAX] {
                let engine = EngineConfig::parallel(parallelism);
                let cfg = config(exec)
                    .with_exec_mode(ExecMode::Chunked(NonZeroUsize::new(chunk).unwrap()));
                assert_eq!(
                    digest(&run(kind, &ds, cfg, Some(engine))),
                    baseline,
                    "{kind}/{exec}: chunk {chunk} x parallelism {parallelism} diverged"
                );
            }
        }
    }
}

/// Per-mechanism pinned digests of the sequential path on the seeded
/// test-scale dataset.  These constants are the "seed baseline": any change
/// here means the Scalar RNG stream moved, which is a compatibility
/// break for pinned experiments and must be deliberate (see
/// ARCHITECTURE.md, "Determinism and bit-identity").
const SEQUENTIAL_DIGESTS: [(MechanismKind, u64); 4] = [
    (MechanismKind::FedPem, 0x1BC7_1BBD_2A55_8C43),
    (MechanismKind::Gtf, 0xF77A_2542_A3FC_8295),
    (MechanismKind::Tap, 0x2DC7_4D9A_0A5A_1B10),
    (MechanismKind::Taps, 0xCF29_ADEC_9E8F_2132),
];

/// Guarantee 2: Scalar reproduces the committed seed baselines
/// byte-for-byte.
#[test]
fn sequential_paths_match_the_pinned_seed_baselines() {
    let ds = dataset();
    for (kind, pin) in SEQUENTIAL_DIGESTS {
        let scalar = digest(&run(
            kind,
            &ds,
            config(FoExec::Scalar),
            Some(EngineConfig::sequential()),
        ));
        assert_eq!(scalar, pin, "{kind}: scalar digest {scalar:#018X} moved");
    }
}

/// Per-mechanism pinned digests of the `Vectorized` path on the same
/// dataset — the counter-RNG stream every `BENCHMARK.json` workload runs.
/// Recorded on the mechanism code of PR 16, before the level loops were
/// merged; a change here means the vectorized report stream (or a
/// mechanism's use of it) moved.
const VECTORIZED_DIGESTS: [(MechanismKind, u64); 4] = [
    (MechanismKind::FedPem, 0x17C2_80B3_9D83_7C67),
    (MechanismKind::Gtf, 0xECC5_AC8E_6F9F_C879),
    (MechanismKind::Tap, 0xDA2C_7314_0C47_37E7),
    (MechanismKind::Taps, 0xE40E_7192_5933_31BD),
];

/// Guarantee 3: Vectorized reproduces its own committed baselines
/// byte-for-byte and is genuinely a second pinned stream — its digest
/// repeats exactly and differs from the sequential baseline for at least
/// one mechanism.
#[test]
fn vectorized_path_is_deterministic_and_pinned_separately() {
    let ds = dataset();
    let mut any_diverged = false;
    for ((kind, pin), (_, scalar_pin)) in VECTORIZED_DIGESTS.into_iter().zip(SEQUENTIAL_DIGESTS) {
        let first = digest(&run(
            kind,
            &ds,
            config(FoExec::Vectorized),
            Some(EngineConfig::sequential()),
        ));
        let second = digest(&run(
            kind,
            &ds,
            config(FoExec::Vectorized),
            Some(EngineConfig::sequential()),
        ));
        assert_eq!(first, second, "{kind}: vectorized rerun diverged");
        assert_eq!(first, pin, "{kind}: vectorized digest {first:#018X} moved");
        any_diverged |= first != scalar_pin;
    }
    assert!(
        any_diverged,
        "vectorized outputs matched scalar everywhere — the path is not a distinct stream"
    );
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

/// Guarantee 3, per oracle: the OLH and OUE vectorized kernels reproduce
/// their committed baselines byte-for-byte under every mechanism.
#[test]
fn vectorized_olh_and_oue_outputs_match_their_pinned_digests() {
    let ds = dataset();
    for (fo, pins) in VECTORIZED_OD_DIGESTS {
        for (kind, pin) in pins {
            let got = digest(&run(
                kind,
                &ds,
                config(FoExec::Vectorized).with_fo(fo),
                Some(EngineConfig::sequential()),
            ));
            assert_eq!(got, pin, "{kind}/{fo}: vectorized digest {got:#018X} moved");
        }
    }
}
