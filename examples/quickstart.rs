//! Quickstart: identify federated heavy hitters with TAPS on a small
//! two-party federation, observe the run as it executes, and compare the
//! result against the exact ground truth.
//!
//! Run with: `cargo run --release --example quickstart`

use fedhh::prelude::*;

fn main() -> Result<(), ProtocolError> {
    // 1. Build a scaled-down two-party federation (the RDB stand-in:
    //    "Reddit" and "IMDB" with Zipfian item popularity and a shared pool
    //    of common items).
    let dataset = DatasetConfig {
        user_scale: 0.01,
        item_scale: 0.05,
        code_bits: 32,
        syn_beta: 0.5,
        seed: 42,
    }
    .build(DatasetKind::Rdb);
    println!(
        "dataset {}: {} parties, {} users, {} distinct items",
        dataset.name(),
        dataset.party_count(),
        dataset.total_users(),
        dataset.distinct_items()
    );

    // 2. Configure the protocol: top-10 query, ε = 4, k-RR as the FO,
    //    32-bit item codes over 16 trie levels (step size 2).  The `Run`
    //    builder validates this configuration before executing — an invalid
    //    k, ε, granularity or a dataset/config bit-width mismatch comes back
    //    as a typed `ProtocolError` instead of a panic.
    let config = ProtocolConfig {
        k: 10,
        epsilon: 4.0,
        fo: FoKind::Grr,
        max_bits: 32,
        granularity: 16,
        ..ProtocolConfig::default()
    };

    // 3. Run the three mechanisms the paper compares through the `Run`
    //    builder, the single entry point of the execution API.
    let truth = dataset.ground_truth_top_k(config.k);
    for mechanism in MechanismKind::MAIN_COMPARISON {
        let output = Run::mechanism(mechanism)
            .dataset(&dataset)
            .config(config)
            .execute()?;
        println!(
            "{:>7}: F1 = {:.3}  NCR = {:.3}  uplink = {:.1} kb  time = {:.0} ms",
            mechanism.name(),
            f1_score(&truth, &output.heavy_hitters),
            ncr_score(&truth, &output.heavy_hitters),
            output.comm.total_uplink_bits() as f64 / 1000.0,
            output.elapsed.as_secs_f64() * 1000.0,
        );
    }

    // 4. Re-run TAPS with a `RecordingObserver` attached: it keeps the
    //    run's one event stream (phases, per-level estimates, pruning
    //    decisions, downlinks, the summary), and the traffic it folds from
    //    that stream is the output's communication tracker, by
    //    construction.
    let mut observer = RecordingObserver::new();
    let output = Run::mechanism(MechanismKind::Taps)
        .dataset(&dataset)
        .config(config)
        .observer(&mut observer)
        .execute()?;
    println!(
        "\nobserved TAPS: {} phases, {} level events, {} pruning decisions",
        observer.phases().len(),
        observer.level_events().count(),
        observer.pruning_events().count(),
    );
    assert_eq!(observer.comm(), output.comm);

    // 5. Decode the TAPS heavy hitters back to item identifiers.
    println!("\nTAPS federated top-{}:", config.k);
    for (rank, code) in output.heavy_hitters.iter().enumerate() {
        let item_id = dataset.encoder().decode(*code);
        let in_truth = if truth.contains(code) { "hit " } else { "miss" };
        println!(
            "  #{:<2} item {:>6} ({in_truth}) estimated count {:.0}",
            rank + 1,
            item_id,
            output.count_of(*code)
        );
    }
    Ok(())
}
