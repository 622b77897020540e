//! Micro-benchmarks of the frequency-oracle substrate: perturbation and
//! estimation throughput for k-RR, OUE and OLH.
//!
//! Run with `cargo bench -p fedhh-bench --bench fo_bench`.

use fedhh_bench::microbench::bench;
use fedhh_fo::{FoKind, FrequencyOracle, Oracle, PrivacyBudget, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_perturb() {
    let budget = PrivacyBudget::new(4.0).unwrap();
    for kind in FoKind::ALL {
        for domain in [16usize, 256] {
            let oracle = Oracle::new(kind, budget, domain);
            let inputs: Vec<usize> = (0..1000).map(|i| i % domain).collect();
            let mut rng = StdRng::seed_from_u64(1);
            bench(
                &format!("fo_perturb_1k_users/{}/{domain}/scalar", kind.name()),
                2,
                20,
                || {
                    inputs
                        .iter()
                        .map(|i| oracle.perturb(*i, &mut rng))
                        .collect::<Vec<Report>>()
                },
            );
        }
    }
}

fn bench_aggregate_estimate() {
    let budget = PrivacyBudget::new(4.0).unwrap();
    for kind in FoKind::ALL {
        let domain = 64usize;
        let oracle = Oracle::new(kind, budget, domain);
        let mut rng = StdRng::seed_from_u64(2);
        let reports: Vec<Report> = (0..1000)
            .map(|i| oracle.perturb(i % domain, &mut rng))
            .collect();
        let mut arena = fedhh_fo::SupportCounts::zeros(domain);
        bench(
            &format!("fo_aggregate_estimate_1k_reports/{}/scalar", kind.name()),
            2,
            20,
            || {
                arena.reset(domain);
                oracle.aggregate_into(&reports, &mut arena);
                oracle.estimate(&arena, reports.len())
            },
        );
    }
}

fn main() {
    bench_perturb();
    bench_aggregate_estimate();
}
