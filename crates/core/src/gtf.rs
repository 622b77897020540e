//! GTF: the hierarchical global-trie-filtering baseline.
//!
//! The closest prior work in the cross-party setting (Shao et al., FL-ICML
//! 2023) builds local and global heavy hitters hierarchically but does not
//! satisfy ε-LDP; the paper substitutes its GRRX randomizer with k-RR and
//! calls the result GTF.  We do not have the original code, so this module
//! implements the faithful behavioural proxy documented in DESIGN.md
//! (substitution 2):
//!
//! * the server maintains a single *global* candidate prefix set;
//! * at every level each party estimates the extended candidates with the
//!   configured FO on its own level group and reports the per-candidate
//!   noisy frequencies;
//! * the server averages the reported frequencies **without weighting by
//!   party population** and keeps only the global top-k prefixes — the
//!   aggressive, size-oblivious filtering that the paper criticises;
//! * the final level's global top-k items are the answer.
//!
//! As an engine protocol GTF is one `Candidates` round per trie level:
//! every active party estimates the broadcast set's extension on its level
//! group and uploads its local top-k frequencies, which the server filters
//! into the next round's broadcast.

use crate::aggregate::PartyLocalResult;
use crate::mechanism::{Mechanism, MechanismOutput};
use crate::pem::{PartyRun, Seeding};
use crate::run::RunContext;
use fedhh_federated::{
    aggregate_reports_into, Broadcast, CandidateReport, EstimateScratch, LevelEstimator,
    PartyDriver, ProtocolError, RoundCollection, RoundInput, RoundOutcome, RoundPayload, RunPhase,
    PAIR_BITS,
};
use fedhh_telemetry::SpanName;
use std::collections::HashMap;
use std::time::Instant;

/// The GTF baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gtf;

/// One party's GTF round: adopt the broadcast global candidates, estimate
/// their one-level extension on the level's user group, and upload the
/// local top-k frequencies.
struct GtfDriver<'a> {
    party: PartyRun,
    estimator: &'a LevelEstimator,
    /// Per-driver estimation arena, reused across the per-level rounds so
    /// each engine worker aggregates into its own buffers.
    scratch: EstimateScratch,
}

impl PartyDriver for GtfDriver<'_> {
    fn party(&self) -> &str {
        &self.party.name
    }

    fn run_round(&mut self, input: &RoundInput) -> Result<RoundOutcome, ProtocolError> {
        let Broadcast::Candidates {
            values,
            value_len,
            level,
        } = &input.broadcast
        else {
            // GTF rounds always broadcast the global candidate set.
            return Ok(RoundOutcome::default());
        };
        let h = *level;
        self.party.adopt(values, *value_len);
        let (mut event, estimate) = self.party.step(
            &mut self.scratch,
            self.estimator,
            h,
            self.party.assignment.level(h),
            &[],
        );
        // The party reports its top-k candidates with frequencies; the
        // upload rides on the level's own event.
        let top: Vec<(u64, f64)> = estimate
            .ranked_candidates()
            .iter()
            .take(self.estimator.config().k)
            .copied()
            .collect();
        event.uplink_bits = top.len() * PAIR_BITS;
        let mut round = RoundOutcome::default();
        round.level(event);
        round.upload(RoundPayload::Report(CandidateReport {
            party: self.party.name.clone(),
            level: h,
            candidates: top,
            users: estimate.users,
        }));
        Ok(round)
    }
}

impl Mechanism for Gtf {
    fn name(&self) -> &'static str {
        "GTF"
    }

    fn execute(&self, ctx: &mut RunContext<'_>) -> Result<MechanismOutput, ProtocolError> {
        let config = ctx.config();
        let start = Instant::now();
        let dataset = ctx.dataset();
        let estimator = LevelEstimator::new(config)?;
        let schedule = config.schedule();

        let mut session = ctx.session(dataset.party_count())?;
        // Per-party group assignments: every user still reports only once.
        let mut drivers: Vec<GtfDriver<'_>> = PartyRun::initialise(ctx, Seeding::Gtf)?
            .into_iter()
            .map(|party| GtfDriver {
                party,
                estimator: &estimator,
                scratch: session.scratch(),
            })
            .collect();
        let active = session.active_parties();

        let mut global: Vec<u64> = vec![0];
        let mut global_len: u8 = 0;
        // The last processed level: its filtered averages (population-
        // oblivious frequencies, best first) and the round they came from.
        let mut last_avg: Vec<(u64, f64)> = Vec::new();
        let mut last_round: Option<RoundCollection> = None;
        // Server-side accumulator, merged once per round and reused across
        // levels.
        let mut freq_sums: HashMap<u64, f64> = HashMap::new();

        ctx.phase(RunPhase::LocalEstimation);
        for (round, h) in schedule.levels().enumerate() {
            let _level_span = ctx.telemetry().span_idx(SpanName::Level, u64::from(h));
            let input = RoundInput {
                round: round as u32,
                broadcast: Broadcast::Candidates {
                    values: global.clone(),
                    value_len: global_len,
                    level: h,
                },
            };
            let collection = session.run_round(&mut drivers, &active, &input)?;
            ctx.replay(&collection);

            // Population-oblivious filtering: average of reported
            // frequencies, keep exactly the global top-k.
            freq_sums.clear();
            aggregate_reports_into(
                collection.messages.iter().filter_map(|m| m.as_report()),
                &mut freq_sums,
            );
            let party_count = active.len().max(1) as f64;
            let mut averaged: Vec<(u64, f64)> = freq_sums
                .iter()
                .map(|(v, total)| (*v, total / party_count))
                .collect();
            averaged.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            averaged.truncate(config.k);
            global = averaged.iter().map(|(v, _)| *v).collect();
            global_len = schedule.prefix_len(h);
            ctx.graft_warm_prefixes(&mut global, global_len);
            // Broadcast the filtered candidate set to every surviving party.
            for &idx in &active {
                ctx.record_downlink(dataset.parties()[idx].name(), global.len() * PAIR_BITS);
            }
            last_avg = averaged;
            last_round = Some(collection);
            if global.is_empty() {
                break;
            }
        }

        // Scale the (population-oblivious) frequencies to counts so
        // downstream reporting has comparable units.
        ctx.phase(RunPhase::Aggregation);
        let mut locals: Vec<(usize, PartyLocalResult)> = last_round
            .iter()
            .flat_map(|collection| &collection.messages)
            .filter_map(|message| {
                let report = message.as_report()?;
                let users = dataset.parties()[message.from].user_count();
                let local = PartyLocalResult {
                    party: report.party.clone(),
                    users,
                    local_heavy_hitters: report.values(),
                    reported_counts: report
                        .candidates
                        .iter()
                        .map(|(v, f)| (*v, (f * users as f64).max(0.0)))
                        .collect(),
                };
                Some((message.from, local))
            })
            .collect();
        locals.sort_by_key(|(from, _)| *from);
        let total_users = dataset.total_users() as f64;
        let counts: HashMap<u64, f64> = last_avg
            .iter()
            .map(|(v, f)| (*v, f * total_users))
            .collect();
        let mut heavy_hitters: Vec<u64> = last_avg.iter().map(|(v, _)| *v).collect();
        heavy_hitters.sort_by(|a, b| counts[b].total_cmp(&counts[a]).then(a.cmp(b)));

        Ok(MechanismOutput {
            heavy_hitters,
            counts,
            local_results: locals.into_iter().map(|(_, local)| local).collect(),
            comm: ctx.take_comm(),
            elapsed: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Run;
    use fedhh_datasets::{DatasetConfig, DatasetKind, FederatedDataset};
    use fedhh_federated::ProtocolConfig;

    fn run(dataset: &FederatedDataset, config: ProtocolConfig) -> MechanismOutput {
        Run::custom(&Gtf)
            .dataset(dataset)
            .config(config)
            .execute()
            .unwrap()
    }

    fn config() -> ProtocolConfig {
        ProtocolConfig {
            k: 5,
            epsilon: 5.0,
            max_bits: 16,
            granularity: 8,
            ..ProtocolConfig::default()
        }
    }

    #[test]
    fn gtf_returns_at_most_k_heavy_hitters() {
        let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
        let output = run(&dataset, config());
        assert!(output.heavy_hitters.len() <= 5);
        assert!(!output.heavy_hitters.is_empty());
        assert!(output.comm.total_uplink_bits() > 0);
        assert!(output.comm.total_downlink_bits() > 0);
    }

    #[test]
    fn gtf_is_population_oblivious() {
        // Two parties disagree: the big party's favourite is item A, the
        // small party's favourite is item B.  GTF averages frequencies, so
        // B (frequency 1.0 in the small party) outranks A (frequency ~0.6
        // in the big party) even though A has more global support.
        use fedhh_datasets::PartyData;
        use fedhh_trie::ItemEncoder;
        let enc = ItemEncoder::new(16, 5);
        let a = enc.encode(1);
        let b = enc.encode(2);
        let big: Vec<u64> = (0..4000)
            .map(|i| {
                if i % 10 < 6 {
                    a
                } else {
                    enc.encode(3 + i % 50)
                }
            })
            .collect();
        let small: Vec<u64> = vec![b; 800];
        let dataset = FederatedDataset::new(
            "toy",
            vec![
                PartyData::new("big", big, 16),
                PartyData::new("small", small, 16),
            ],
            16,
            enc,
        );
        let cfg = ProtocolConfig {
            k: 1,
            epsilon: 5.0,
            max_bits: 16,
            granularity: 8,
            ..ProtocolConfig::default()
        };
        let output = run(&dataset, cfg);
        // The true federated top-1 is A (2400 users vs 800), but GTF picks B.
        assert_eq!(dataset.ground_truth_top_k(1), vec![a]);
        assert_eq!(output.heavy_hitters, vec![b]);
    }

    #[test]
    fn gtf_still_finds_universally_popular_items() {
        let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
        let truth = dataset.ground_truth_top_k(5);
        let output = run(&dataset, config());
        // GTF is weak but not useless: at large ε it still catches globally
        // popular items on the RDB stand-in (the run is seeded, so the
        // overlap is a fixed number, not a flaky one).
        assert!(output.heavy_hitters.iter().all(|v| *v < (1 << 16)));
        let hits = truth
            .iter()
            .filter(|t| output.heavy_hitters.contains(t))
            .count();
        assert!(
            hits >= 1,
            "expected a true heavy hitter in {:?}",
            output.heavy_hitters
        );
    }

    #[test]
    fn local_results_cover_every_party() {
        let dataset = DatasetConfig::test_scale().build(DatasetKind::Ycm);
        let output = run(&dataset, config());
        assert_eq!(output.local_results.len(), dataset.party_count());
    }
}
