//! The round engine: parallel party execution and fault injection.
//!
//! Demonstrates the `Run::engine` axis introduced in 0.3: the same seeded
//! run executed sequentially and on a multi-worker engine (bit-identical
//! results, lower wall-clock on multi-core hosts), then the same federation
//! under injected deployment faults — party dropout and straggler message
//! reordering — a scenario axis the paper's evaluation never had.
//!
//! Run with: `cargo run --release --example engine_faults`

use fedhh::prelude::*;

fn main() -> Result<(), ProtocolError> {
    // A five-party federation with skewed populations (the YCM stand-in).
    let dataset = DatasetConfig {
        user_scale: 0.05,
        item_scale: 0.05,
        code_bits: 32,
        syn_beta: 0.5,
        seed: 7,
    }
    .build(DatasetKind::Ycm);
    let config = ProtocolConfig {
        k: 10,
        epsilon: 4.0,
        max_bits: 32,
        granularity: 16,
        ..ProtocolConfig::default()
    };
    let truth = dataset.ground_truth_top_k(config.k);
    println!(
        "dataset {}: {} parties, {} users\n",
        dataset.name(),
        dataset.party_count(),
        dataset.total_users()
    );

    // 1. The same run at increasing engine parallelism: results are
    //    bit-identical, only the wall-clock changes.
    println!("== parallel party execution (FedPEM) ==");
    let mut reference: Option<Vec<u64>> = None;
    for parallelism in [1usize, 2, 4] {
        let output = Run::mechanism(MechanismKind::FedPem)
            .dataset(&dataset)
            .config(config)
            .engine(EngineConfig::parallel(parallelism))
            .execute()?;
        if let Some(reference) = &reference {
            assert_eq!(
                &output.heavy_hitters, reference,
                "parallelism must not change results"
            );
        } else {
            reference = Some(output.heavy_hitters.clone());
        }
        println!(
            "  {parallelism} worker(s): F1 = {:.3}  time = {:>6.1} ms",
            f1_score(&truth, &output.heavy_hitters),
            output.elapsed.as_secs_f64() * 1000.0,
        );
    }

    // 2. Fault injection: a third of the parties drop out, and the
    //    surviving uploads arrive in straggler order.  Both are fields of
    //    one `ScenarioPlan`, whose one seed draws the victims and the
    //    order, so the session still completes deterministically — same
    //    plan, same result.
    println!("\n== fault injection (TAPS) ==");
    let healthy = Run::mechanism(MechanismKind::Taps)
        .dataset(&dataset)
        .config(config)
        .execute()?;
    println!(
        "  healthy:        F1 = {:.3}  parties = {}  uplink = {:>6.1} kb",
        f1_score(&truth, &healthy.heavy_hitters),
        healthy.local_results.len(),
        healthy.comm.total_uplink_bits() as f64 / 1000.0,
    );
    let faults = ScenarioPlan {
        dropout: 0.34,
        stragglers: true,
        seed: 99,
        ..ScenarioPlan::benign()
    };
    let faulty = Run::mechanism(MechanismKind::Taps)
        .dataset(&dataset)
        .config(config)
        .engine(EngineConfig::parallel(4).with_scenario(faults))
        .execute()?;
    println!("  faulty (34% dropout + stragglers):",);
    println!(
        "                  F1 = {:.3}  parties = {}  uplink = {:>6.1} kb",
        f1_score(&truth, &faulty.heavy_hitters),
        faulty.local_results.len(),
        faulty.comm.total_uplink_bits() as f64 / 1000.0,
    );
    assert!(faulty.local_results.len() < healthy.local_results.len());
    Ok(())
}
