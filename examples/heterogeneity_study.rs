//! Heterogeneity study: how statistical heterogeneity (non-IID data across
//! parties) affects federated heavy hitter identification, and how much the
//! shared shallow trie and consensus-based pruning recover.
//!
//! The SYN generator allocates item domains to eight parties with a
//! Dirichlet(β) distribution: smaller β means more skew.  This example
//! reproduces the spirit of Tables 6–8 on one configuration.
//!
//! Run with: `cargo run --release --example heterogeneity_study`

use fedhh::prelude::*;

fn main() -> Result<(), ProtocolError> {
    let k = 10;
    let config = ProtocolConfig {
        k,
        epsilon: 4.0,
        max_bits: 32,
        granularity: 16,
        ..ProtocolConfig::default()
    };

    println!("Dirichlet beta sweep on SYN (eps = 4, k = {k}):");
    println!("  beta   FedPEM  TAP     TAPS    TAPS w/o shared trie");
    for beta in [0.2, 0.5, 0.8] {
        let dataset = DatasetConfig {
            user_scale: 0.01,
            item_scale: 0.05,
            code_bits: 32,
            syn_beta: beta,
            seed: 23,
        }
        .build(DatasetKind::Syn);
        let truth = dataset.ground_truth_top_k(k);
        let score = |output: &MechanismOutput| f1_score(&truth, &output.heavy_hitters);
        // Ablation variants run through `Run::custom`, the escape hatch for
        // mechanism instances not constructible by name.
        let run = |mechanism: &dyn Mechanism| {
            Run::custom(mechanism)
                .dataset(&dataset)
                .config(config)
                .execute()
        };

        let fedpem = score(&run(&FedPem::default())?);
        let tap = score(&run(&Taps::without_pruning())?);
        let taps = score(&run(&Taps::default())?);
        let taps_no_shared = score(&run(&Taps::without_shared_trie())?);
        println!("  {beta:<5}  {fedpem:.3}   {tap:.3}   {taps:.3}   {taps_no_shared:.3}");
    }

    println!("\nsmaller beta = more heterogeneity; the gap between TAPS and the");
    println!("baselines should widen as heterogeneity grows (Table 8).");
    Ok(())
}
