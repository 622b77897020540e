//! Integration tests encoding the paper's qualitative claims: who wins,
//! and which design components help.  These average over several seeds so
//! the assertions reflect expected behaviour rather than single-run noise.

use fedhh::federated::PartyEvent;
use fedhh::prelude::*;

/// Averages a mechanism's F1 over several seeded dataset/protocol pairs.
fn average_f1(
    mechanism: &dyn Mechanism,
    dataset_kind: DatasetKind,
    k: usize,
    epsilon: f64,
    seeds: &[u64],
) -> f64 {
    let mut total = 0.0;
    for &seed in seeds {
        let mut dataset_config = DatasetConfig::test_scale();
        dataset_config.seed = seed;
        let dataset = dataset_config.build(dataset_kind);
        let truth = dataset.ground_truth_top_k(k);
        let config = ProtocolConfig {
            k,
            epsilon,
            max_bits: 16,
            granularity: 8,
            seed: seed ^ 0x5151,
            ..ProtocolConfig::default()
        };
        let output = Run::custom(mechanism)
            .dataset(&dataset)
            .config(config)
            .execute()
            .unwrap();
        total += f1_score(&truth, &output.heavy_hitters);
    }
    total / seeds.len() as f64
}

const SEEDS: [u64; 8] = [11, 22, 33, 44, 55, 66, 77, 88];

#[test]
fn taps_outperforms_gtf_on_heterogeneous_data() {
    // The headline claim of Figures 4–5: TAPS beats GTF, whose
    // population-oblivious filtering suffers under party-size imbalance.
    // A tiny tolerance absorbs floating-point ties at this reduced scale.
    let taps = average_f1(&Taps::default(), DatasetKind::Rdb, 5, 4.0, &SEEDS);
    let gtf = average_f1(&Gtf, DatasetKind::Rdb, 5, 4.0, &SEEDS);
    assert!(
        taps >= gtf - 1e-9,
        "TAPS ({taps:.3}) should not lose to GTF ({gtf:.3}) on average"
    );
}

#[test]
fn taps_is_at_least_competitive_with_fedpem_on_the_syn_dataset() {
    // On the most non-IID dataset (SYN), the target-aligning machinery must
    // not collapse: TAPS stays within a moderate margin of FedPEM even at
    // the drastically reduced test scale, where Phase I of the shared trie
    // is starved of users (the full-scale comparison is the benchmark
    // harness's job, see EXPERIMENTS.md).
    let taps = average_f1(&Taps::default(), DatasetKind::Syn, 5, 4.0, &SEEDS);
    let fedpem = average_f1(&FedPem::default(), DatasetKind::Syn, 5, 4.0, &SEEDS);
    assert!(
        taps + 0.25 >= fedpem,
        "TAPS ({taps:.3}) fell more than 0.25 behind FedPEM ({fedpem:.3})"
    );
}

#[test]
fn adaptive_extension_is_not_worse_than_a_small_fixed_extension() {
    // Table 5's direction: a too-small fixed extension (t = k/2) misses
    // necessary prefixes; the adaptive rule should do at least as well.
    let adaptive = average_f1(
        &Taps::with_extension(ExtensionStrategy::Adaptive),
        DatasetKind::Rdb,
        6,
        4.0,
        &SEEDS,
    );
    let halved = average_f1(
        &Taps::with_extension(ExtensionStrategy::Fixed(3)),
        DatasetKind::Rdb,
        6,
        4.0,
        &SEEDS,
    );
    assert!(
        adaptive + 0.05 >= halved,
        "adaptive ({adaptive:.3}) fell behind t=k/2 ({halved:.3})"
    );
}

#[test]
fn privacy_holds_structurally_every_user_reports_once() {
    // A structural proxy for the ε-LDP guarantee, per party: every user of
    // a party that takes part spends its budget on exactly one perturbed
    // report, and a dropped party's users spend none.  A party's reports
    // are the users behind its level estimates plus its pruning-validation
    // reports; GRR reports are 32 bits, so validation bits / 32 counts them.
    let config = ProtocolConfig {
        k: 5,
        epsilon: 2.0,
        max_bits: 16,
        granularity: 8,
        fo: FoKind::Grr,
        ..ProtocolConfig::default()
    };
    for dataset_kind in [DatasetKind::Ycm, DatasetKind::Syn, DatasetKind::Rdb] {
        let dataset = DatasetConfig::test_scale().build(dataset_kind);
        let parties = dataset.parties();
        for plan in [
            ScenarioPlan::benign(),
            ScenarioPlan {
                dropout: 0.5,
                seed: 3,
                ..ScenarioPlan::benign()
            },
        ] {
            let dropped = plan.dropped_parties(parties.len());
            for kind in MechanismKind::ALL {
                let mut observer = RecordingObserver::new();
                Run::mechanism(kind)
                    .dataset(&dataset)
                    .config(config)
                    .engine(EngineConfig::from_env().with_scenario(plan))
                    .observer(&mut observer)
                    .execute()
                    .unwrap();
                let what = format!("{kind} on {dataset_kind} with {plan:?}");
                for (party, dropped) in parties.iter().zip(&dropped) {
                    let mut reports = 0;
                    for event in &observer.events {
                        match event {
                            RunEvent::Party(PartyEvent::Level(level))
                                if level.party == party.name() =>
                            {
                                reports += level.users;
                            }
                            RunEvent::Party(PartyEvent::ValidationReports { party: p, bits })
                                if p == party.name() =>
                            {
                                reports += bits / 32;
                            }
                            _ => {}
                        }
                    }
                    let expected = if *dropped { 0 } else { party.user_count() };
                    assert_eq!(
                        reports,
                        expected,
                        "{what}: party {} (dropped: {dropped})",
                        party.name()
                    );
                }
                let users: usize = observer.level_events().map(|e| e.users).sum();
                let report_bits: usize = observer.level_events().map(|e| e.report_bits).sum();
                assert_eq!(report_bits, 32 * users, "{what}");
            }
        }
    }
}

#[test]
fn taps_spends_more_communication_than_the_baselines_but_stays_small() {
    // Table 1 / Table 4 direction: TAPS ships pruning dictionaries on top of
    // the final top-k upload, but total server traffic stays in the
    // kilobit-per-party range, far from the |U|·|X| of direct uploads.
    let dataset = DatasetConfig::test_scale().build(DatasetKind::Uba);
    let config = ProtocolConfig {
        k: 5,
        epsilon: 4.0,
        max_bits: 16,
        granularity: 8,
        ..ProtocolConfig::default()
    };
    let fedpem = Run::mechanism(MechanismKind::FedPem)
        .dataset(&dataset)
        .config(config)
        .execute()
        .unwrap();
    let taps = Run::mechanism(MechanismKind::Taps)
        .dataset(&dataset)
        .config(config)
        .execute()
        .unwrap();
    assert!(taps.comm.total_uplink_bits() >= fedpem.comm.total_uplink_bits());
    let per_party_kb = taps.comm.server_traffic_kb() / dataset.party_count() as f64;
    assert!(
        per_party_kb < 500.0,
        "per-party traffic too high: {per_party_kb} kb"
    );
}
