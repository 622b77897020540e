//! Frequency-oracle comparison: the same TAPS run under k-RR, OUE and OLH,
//! showing that the mechanism is robust to the choice of FO (Figure 6) and
//! how the FOs trade report size against server-side computation.
//!
//! Run with: `cargo run --release --example fo_comparison`

use fedhh::fo::{CtrRng, FrequencyOracle, Oracle, ReportBatch};
use fedhh::prelude::*;
use std::time::Instant;

fn main() -> Result<(), ProtocolError> {
    let dataset = DatasetConfig {
        user_scale: 0.01,
        item_scale: 0.05,
        code_bits: 32,
        syn_beta: 0.5,
        seed: 5,
    }
    .build(DatasetKind::Ycm);
    let k = 10;
    let truth = dataset.ground_truth_top_k(k);

    // Per-report cost of each oracle over a 64-slot candidate domain.
    println!("per-report size over a 64-candidate domain (eps = 4):");
    let budget = PrivacyBudget::new(4.0).unwrap();
    for fo in [FoKind::Grr, FoKind::Oue, FoKind::Olh] {
        let mut report = ReportBatch::new();
        Oracle::new(fo, budget, 64).perturb_vectorized(&[0], &CtrRng::new(0), 0, &mut report);
        println!("  {:>4}: {:>4} bits/report", fo.name(), report.size_bits());
    }

    println!(
        "\nTAPS on {} under each FO (eps = 4, k = {k}):",
        dataset.name()
    );
    println!("  fo    F1      time");
    for fo in [FoKind::Grr, FoKind::Oue, FoKind::Olh] {
        let config = ProtocolConfig {
            k,
            epsilon: 4.0,
            fo,
            max_bits: 32,
            granularity: 16,
            ..ProtocolConfig::default()
        };
        let start = Instant::now();
        let output = Run::mechanism(MechanismKind::Taps)
            .dataset(&dataset)
            .config(config)
            .execute()?;
        println!(
            "  {:>4}  {:.3}   {:.1}s",
            fo.name(),
            f1_score(&truth, &output.heavy_hitters),
            start.elapsed().as_secs_f64()
        );
    }

    println!("\nall three FOs should give comparable F1; OLH pays with extra");
    println!("server-side hashing time, OUE with larger reports (Figure 6).");
    Ok(())
}
