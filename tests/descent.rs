//! The four mechanisms are four policies over one prefix-tree descent.
//!
//! What the shared level loop must keep true from the outside:
//!
//! 1. **`MechanismKind::Tap` is `Taps::without_pruning()`** — every field
//!    of the output but the wall clock, downlink included, across
//!    datasets × oracles.
//! 2. **A party with no estimate has nothing to report**: `granularity 1`
//!    under a partial quorum leaves a party the quorum kept out of Phase I
//!    with no level to run in Phase II; TAP and TAPS must finish without
//!    it instead of panicking.
//! 3. **Where `level` spans open**: once per party and level in FedPEM,
//!    TAP and TAPS, once per round (server side) in GTF.

use fedhh::prelude::*;

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
    mechanism: &dyn Mechanism,
    dataset: &FederatedDataset,
    config: ProtocolConfig,
    engine: EngineConfig,
) -> Result<MechanismOutput, ProtocolError> {
    Run::custom(mechanism)
        .dataset(dataset)
        .config(config)
        .engine(engine)
        .execute()
}

/// Everything but `elapsed`.
fn assert_same_output(a: &MechanismOutput, b: &MechanismOutput, what: &str) {
    assert_eq!(a.heavy_hitters, b.heavy_hitters, "{what}: heavy hitters");
    assert_eq!(a.counts, b.counts, "{what}: counts");
    assert_eq!(a.local_results, b.local_results, "{what}: local results");
    assert_eq!(a.comm, b.comm, "{what}: communication");
}

#[test]
fn taps_without_pruning_is_tap_on_every_output_field() {
    for kind in [
        DatasetKind::Rdb,
        DatasetKind::Ycm,
        DatasetKind::Syn,
        DatasetKind::Uba,
    ] {
        let dataset = DatasetConfig::test_scale().build(kind);
        for fo in [FoKind::Grr, FoKind::Oue, FoKind::Olh] {
            let cfg = config().with_fo(fo);
            let what = format!("{kind:?}/{fo:?}");
            let engine = EngineConfig::sequential();
            let tap = Run::mechanism(MechanismKind::Tap)
                .dataset(&dataset)
                .config(cfg)
                .engine(engine)
                .execute()
                .unwrap();
            let taps = run(&Taps::without_pruning(), &dataset, cfg, engine).unwrap();
            assert_same_output(&tap, &taps, &what);
        }
    }
}

#[test]
fn granularity_one_under_a_partial_quorum_runs_without_the_excluded_party() {
    let dataset = DatasetConfig::test_scale().build(DatasetKind::Syn);
    let tap = Taps::without_pruning();
    let taps = Taps::default();
    let mechanisms: [&dyn Mechanism; 2] = [&tap, &taps];
    for mechanism in mechanisms {
        let name = mechanism.name();
        let full = ProtocolConfig {
            granularity: 1,
            ..config()
        };
        // Quorum 1.0: every party estimates its one level and reports.
        let reference = run(mechanism, &dataset, full, EngineConfig::sequential()).unwrap();
        assert_eq!(
            reference.local_results.len(),
            dataset.party_count(),
            "{name}: full quorum hears every party"
        );
        assert!(!reference.heavy_hitters.is_empty(), "{name}");

        for seed in 0..6 {
            let partial = ScenarioPlan {
                quorum: 0.5,
                seed,
                ..ScenarioPlan::benign()
            };
            let what = format!("{name}/quorum seed {seed}");
            let engine = |parallelism| EngineConfig::parallel(parallelism).with_scenario(partial);
            let sequential =
                run(mechanism, &dataset, full, engine(1)).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert!(sequential.heavy_hitters.len() <= full.k, "{what}");
            assert!(
                sequential.local_results.len() <= dataset.party_count(),
                "{what}"
            );
            let parallel = run(mechanism, &dataset, full, engine(8))
                .unwrap_or_else(|e| panic!("{what} x8: {e}"));
            assert_same_output(&sequential, &parallel, &what);
        }
    }
}

#[test]
fn level_spans_open_per_party_level_and_once_per_gtf_round() {
    let dataset = DatasetConfig::test_scale().build(DatasetKind::Ycm);
    let cfg = config();
    let per_party_level = (dataset.party_count() * cfg.granularity as usize) as u64;
    for (kind, expected) in [
        (MechanismKind::FedPem, per_party_level),
        (MechanismKind::Tap, per_party_level),
        (MechanismKind::Taps, per_party_level),
        (MechanismKind::Gtf, u64::from(cfg.granularity)),
    ] {
        let telemetry = Telemetry::new();
        Run::mechanism(kind)
            .dataset(&dataset)
            .config(cfg)
            .engine(EngineConfig::sequential())
            .telemetry(&telemetry)
            .execute()
            .unwrap();
        let mut jsonl = Vec::new();
        telemetry.write_jsonl(&mut jsonl).unwrap();
        let stats = TraceStats::from_str(&String::from_utf8(jsonl).unwrap()).unwrap();
        let levels: u64 = stats
            .sections
            .iter()
            .filter_map(|section| section.span_counts.get("level"))
            .sum();
        assert_eq!(levels, expected, "{kind}: `level` spans");
    }
}
