//! Shared experiment machinery: the scale, the one single run
//! ([`run_trial`]) and the one repetition loop ([`repeat_trials`]).

use fedhh_datasets::{DatasetConfig, DatasetKind, FederatedDataset};
use fedhh_federated::{EngineConfig, ProtocolConfig, ProtocolError};
use fedhh_mechanisms::{Mechanism, Run};
use fedhh_metrics::{average_local_recall, f1_score, ncr_score};
use fedhh_telemetry::Telemetry;

/// How large the simulated populations are and how many repetitions each
/// point is averaged over.  The paper runs every configuration 50 times on
/// the full-size datasets; the default scale here runs in minutes on a
/// laptop (see `ARCHITECTURE.md`, "Substitutions", item 5).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Multiplier on the paper's user populations.
    pub user_scale: f64,
    /// Multiplier on the paper's item-pool sizes.
    pub item_scale: f64,
    /// Item-code width in bits (the paper uses 48).
    pub code_bits: u8,
    /// Trie granularity g (the paper uses 24, i.e. step size 2).
    pub granularity: u8,
    /// Number of repetitions (with different seeds) averaged per point.
    pub repetitions: u64,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        Self {
            user_scale: 0.02,
            item_scale: 0.05,
            code_bits: 48,
            granularity: 24,
            repetitions: 3,
        }
    }
}

impl ExperimentScale {
    /// A fast configuration for smoke tests and CI.
    pub fn quick() -> Self {
        Self {
            user_scale: 0.005,
            item_scale: 0.02,
            code_bits: 16,
            granularity: 8,
            repetitions: 1,
        }
    }

    /// The dataset configuration for a given generation seed.
    pub fn dataset_config(&self, seed: u64) -> DatasetConfig {
        DatasetConfig {
            user_scale: self.user_scale,
            item_scale: self.item_scale,
            code_bits: self.code_bits,
            syn_beta: 0.5,
            seed,
        }
    }

    /// The protocol configuration for a given run seed, with the paper's
    /// defaults for everything not swept by the experiment.
    pub fn protocol_config(&self, seed: u64) -> ProtocolConfig {
        ProtocolConfig {
            max_bits: self.code_bits,
            granularity: self.granularity,
            seed,
            ..ProtocolConfig::default()
        }
    }
}

/// Metrics of one (or an average of several) mechanism run(s).
#[derive(Debug, Clone, Copy, Default)]
pub struct TrialMetrics {
    /// F1 score against the exact federated top-k.
    pub f1: f64,
    /// NCR score against the exact federated top-k.
    pub ncr: f64,
    /// Average local recall of the global ground truths (Table 7).
    pub avg_local_recall: f64,
    /// Party → server traffic in kilobits.
    pub uplink_kb: f64,
    /// Server ↔ party traffic (both directions) in kilobits.
    pub server_traffic_kb: f64,
    /// Wall-clock running time in milliseconds.
    pub elapsed_ms: f64,
}

impl TrialMetrics {
    /// Element-wise mean of several trials.
    pub fn mean(trials: &[TrialMetrics]) -> TrialMetrics {
        if trials.is_empty() {
            return TrialMetrics::default();
        }
        let n = trials.len() as f64;
        let mut out = TrialMetrics::default();
        for t in trials {
            out.f1 += t.f1;
            out.ncr += t.ncr;
            out.avg_local_recall += t.avg_local_recall;
            out.uplink_kb += t.uplink_kb;
            out.server_traffic_kb += t.server_traffic_kb;
            out.elapsed_ms += t.elapsed_ms;
        }
        out.f1 /= n;
        out.ncr /= n;
        out.avg_local_recall /= n;
        out.uplink_kb /= n;
        out.server_traffic_kb /= n;
        out.elapsed_ms /= n;
        out
    }
}

/// **The** single run: one mechanism once over a dataset (through the
/// [`Run`] builder) on `engine`, with `telemetry` attached, scored against
/// the exact ground truth.  A disabled telemetry handle is the untraced
/// path; an enabled one records the run's spans, counters and uplink trace
/// for the caller to flush.
pub fn run_trial(
    mechanism: &dyn Mechanism,
    dataset: &FederatedDataset,
    config: &ProtocolConfig,
    engine: &EngineConfig,
    telemetry: &Telemetry,
) -> Result<TrialMetrics, ProtocolError> {
    let truth = dataset.ground_truth_top_k(config.k);
    let output = Run::custom(mechanism)
        .dataset(dataset)
        .config(*config)
        .engine(*engine)
        .telemetry(telemetry)
        .execute()?;
    let locals: Vec<Vec<u64>> = output
        .local_results
        .iter()
        .map(|l| l.local_heavy_hitters.clone())
        .collect();
    Ok(TrialMetrics {
        f1: f1_score(&truth, &output.heavy_hitters),
        ncr: ncr_score(&truth, &output.heavy_hitters),
        avg_local_recall: average_local_recall(&truth, &locals),
        uplink_kb: output.comm.total_uplink_bits() as f64 / 1000.0,
        server_traffic_kb: output.comm.server_traffic_kb(),
        elapsed_ms: output.elapsed.as_secs_f64() * 1000.0,
    })
}

/// **The** repetition loop, mirroring the paper's average-of-50-runs
/// protocol: repetition `rep` builds `kind` from `data` at seed
/// `1000 + rep·7919` and hands it to `trial` with `protocol` at seed
/// `that ^ 0xBEEF`.  The seeds of `data` and `protocol` are ignored;
/// every other field is the caller's.
pub fn repeat_trials(
    repetitions: u64,
    kind: DatasetKind,
    data: DatasetConfig,
    protocol: ProtocolConfig,
    mut trial: impl FnMut(&FederatedDataset, &ProtocolConfig) -> Result<TrialMetrics, ProtocolError>,
) -> Result<Vec<TrialMetrics>, ProtocolError> {
    (0..repetitions)
        .map(|rep| {
            let seed = 1000 + rep * 7919;
            let dataset = DatasetConfig { seed, ..data }.build(kind);
            trial(&dataset, &protocol.with_seed(seed ^ 0xBEEF))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedhh_mechanisms::MechanismKind;

    #[test]
    fn mean_of_trials_averages_every_field() {
        let a = TrialMetrics {
            f1: 0.2,
            ncr: 0.4,
            avg_local_recall: 0.1,
            uplink_kb: 10.0,
            server_traffic_kb: 12.0,
            elapsed_ms: 5.0,
        };
        let b = TrialMetrics {
            f1: 0.6,
            ncr: 0.8,
            avg_local_recall: 0.3,
            uplink_kb: 20.0,
            server_traffic_kb: 16.0,
            elapsed_ms: 15.0,
        };
        let m = TrialMetrics::mean(&[a, b]);
        assert!((m.f1 - 0.4).abs() < 1e-12);
        assert!((m.ncr - 0.6).abs() < 1e-12);
        assert!((m.avg_local_recall - 0.2).abs() < 1e-12);
        assert!((m.uplink_kb - 15.0).abs() < 1e-12);
        assert!((m.elapsed_ms - 10.0).abs() < 1e-12);
        // Empty input is all zeros, not NaN.
        assert_eq!(TrialMetrics::mean(&[]).f1, 0.0);
    }

    /// The repetition loop at quick scale (ε = 4, k = 5) on `engine`.
    fn quick_trials(
        kind: MechanismKind,
        dataset: DatasetKind,
        engine: &EngineConfig,
    ) -> Vec<TrialMetrics> {
        let scale = ExperimentScale::quick();
        let mechanism = kind.build();
        let protocol = scale.protocol_config(0).with_epsilon(4.0).with_k(5);
        let trial = |data: &FederatedDataset, config: &ProtocolConfig| {
            run_trial(
                mechanism.as_ref(),
                data,
                config,
                engine,
                &Telemetry::disabled(),
            )
        };
        repeat_trials(2, dataset, scale.dataset_config(0), protocol, trial).unwrap()
    }

    #[test]
    fn run_trial_produces_scores_in_range() {
        let scale = ExperimentScale::quick();
        let dataset = scale.dataset_config(1).build(DatasetKind::Rdb);
        let config = scale.protocol_config(2).with_epsilon(4.0).with_k(5);
        let mechanism = MechanismKind::Taps.build();
        let engine = EngineConfig::sequential();
        let metrics = run_trial(
            mechanism.as_ref(),
            &dataset,
            &config,
            &engine,
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!((0.0..=1.0).contains(&metrics.f1));
        assert!((0.0..=1.0).contains(&metrics.ncr));
        assert!((0.0..=1.0).contains(&metrics.avg_local_recall));
        assert!(metrics.uplink_kb > 0.0);
        assert!(metrics.elapsed_ms > 0.0);
    }

    #[test]
    fn averaged_trial_is_reproducible() {
        let engine = EngineConfig::sequential();
        let a = quick_trials(MechanismKind::FedPem, DatasetKind::Rdb, &engine);
        let b = quick_trials(MechanismKind::FedPem, DatasetKind::Rdb, &engine);
        for (a, b) in a.iter().zip(&b) {
            assert_eq!((a.f1, a.ncr, a.uplink_kb), (b.f1, b.ncr, b.uplink_kb));
        }
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn engine_trials_match_sequential_results_at_any_parallelism() {
        let sequential = quick_trials(
            MechanismKind::Taps,
            DatasetKind::Rdb,
            &EngineConfig::sequential(),
        );
        let parallel = quick_trials(
            MechanismKind::Taps,
            DatasetKind::Rdb,
            &EngineConfig::parallel(4),
        );
        for (s, p) in sequential.iter().zip(&parallel) {
            assert_eq!(s.f1, p.f1);
            assert_eq!(s.ncr, p.ncr);
            assert_eq!(s.uplink_kb, p.uplink_kb);
            assert_eq!(s.server_traffic_kb, p.server_traffic_kb);
        }
    }

    #[test]
    fn dropout_trials_complete_with_reduced_uplink() {
        use fedhh_federated::ScenarioPlan;
        let healthy = EngineConfig::sequential();
        let faulty = healthy.with_scenario(ScenarioPlan {
            dropout: 0.5,
            seed: 3,
            ..ScenarioPlan::benign()
        });
        let uplink = |engine| {
            TrialMetrics::mean(&quick_trials(
                MechanismKind::FedPem,
                DatasetKind::Ycm,
                engine,
            ))
            .uplink_kb
        };
        assert!(uplink(&faulty) < uplink(&healthy));
    }
}
