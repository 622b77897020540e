//! Conversion of per-party results into server-side reports.
//!
//! A party's level estimate speaks in *frequencies* relative to its own
//! sampled user group.  Because groups are uniform random samples of the
//! party's population, an estimated frequency is also an estimate of the
//! party-wide frequency, so the count a party reports for a candidate is
//! `frequency × |U_i|`.  Summing these counts across parties is exactly the
//! numerator of Definition 4.1.

use crate::mechanism::MechanismOutput;
use crate::run::RunContext;
use fedhh_federated::{
    aggregate_reports_into, top_k_from_counts, CandidateReport, LevelEstimate, RoundCollection,
};
use std::collections::HashMap;
use std::time::Instant;

/// A party's final upload: its local heavy hitters and their estimated
/// party-wide counts.
#[derive(Debug, Clone, PartialEq)]
pub struct PartyLocalResult {
    /// Party name.
    pub party: String,
    /// The party's total user population |U_i|.
    pub users: usize,
    /// The local heavy hitters (most frequent first).
    pub local_heavy_hitters: Vec<u64>,
    /// `(candidate, estimated party-wide count)` pairs as uploaded.
    pub reported_counts: Vec<(u64, f64)>,
}

impl PartyLocalResult {
    /// Converts this result into the wire-level candidate report.
    pub fn to_report(&self, level: u8) -> CandidateReport {
        CandidateReport {
            party: self.party.clone(),
            level,
            candidates: self.reported_counts.clone(),
            users: self.users,
        }
    }
}

/// Builds a party's local result from its final level estimate: the top-`k`
/// candidates with counts scaled to the party's population.
pub fn local_result_from_estimate(
    party: &str,
    party_users: usize,
    estimate: &LevelEstimate,
    k: usize,
) -> PartyLocalResult {
    let ranked = estimate.ranked_candidates();
    let reported: Vec<(u64, f64)> = ranked
        .into_iter()
        .take(k)
        .map(|(value, freq)| (value, (freq * party_users as f64).max(0.0)))
        .collect();
    PartyLocalResult {
        party: party.to_string(),
        users: party_users,
        local_heavy_hitters: reported.iter().map(|(v, _)| *v).collect(),
        reported_counts: reported,
    }
}

/// Builds a wire-level report for an intermediate level (used in Phase I of
/// TAP/TAPS, where parties report every candidate with a non-zero estimated
/// count rather than only the top-k).
pub fn local_result_to_report(
    party: &str,
    party_users: usize,
    estimate: &LevelEstimate,
    level: u8,
) -> CandidateReport {
    let candidates: Vec<(u64, f64)> = estimate
        .candidates
        .iter()
        .zip(estimate.frequencies.iter())
        .filter(|(_, f)| **f > 0.0)
        .map(|(v, f)| (*v, f * party_users as f64))
        .collect();
    CandidateReport {
        party: party.to_string(),
        level,
        candidates,
        users: party_users,
    }
}

/// Rebuilds the parties' [`PartyLocalResult`]s from the final reports they
/// uploaded, in party-index order (`to_report` is lossless, so this is the
/// exact inverse).
fn locals_from_reports(reports: &[(usize, &CandidateReport)]) -> Vec<PartyLocalResult> {
    let mut keyed: Vec<(usize, PartyLocalResult)> = reports
        .iter()
        .map(|(from, report)| {
            (
                *from,
                PartyLocalResult {
                    party: report.party.clone(),
                    users: report.users,
                    local_heavy_hitters: report.values(),
                    reported_counts: report.candidates.clone(),
                },
            )
        })
        .collect();
    keyed.sort_by_key(|(from, _)| *from);
    keyed.into_iter().map(|(_, local)| local).collect()
}

/// The final aggregation (step ⑪) of FedPEM, TAP and TAPS: one server-side
/// pass over the round that collected the parties' top-k reports sums the
/// counts of identical items and ranks the federated top-k.  The parties'
/// local results are rebuilt from the reports they uploaded, so a
/// distributed coordinator — whose process never ran the drivers —
/// reconstructs them identically.  Takes the run's communication out of
/// `ctx`; `start` is when the mechanism began executing.
pub(crate) fn final_output(
    ctx: &mut RunContext<'_>,
    collection: &RoundCollection,
    start: Instant,
) -> MechanismOutput {
    let reports: Vec<(usize, &CandidateReport)> = collection
        .messages
        .iter()
        .filter_map(|m| m.as_report().map(|r| (m.from, r)))
        .collect();
    let mut totals: HashMap<u64, f64> = HashMap::new();
    aggregate_reports_into(reports.iter().map(|(_, r)| *r), &mut totals);
    MechanismOutput {
        heavy_hitters: top_k_from_counts(&totals, ctx.config().k),
        counts: totals,
        local_results: locals_from_reports(&reports),
        comm: ctx.take_comm(),
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate() -> LevelEstimate {
        LevelEstimate {
            candidates: vec![10, 20, 30, 40],
            frequencies: vec![0.4, -0.01, 0.3, 0.05],
            counts: vec![40.0, -1.0, 30.0, 5.0],
            std_dev: 0.01,
            users: 100,
            report_bits: 0,
        }
    }

    #[test]
    fn local_result_scales_to_party_population() {
        let result = local_result_from_estimate("p", 5000, &estimate(), 2);
        assert_eq!(result.local_heavy_hitters, vec![10, 30]);
        assert_eq!(result.reported_counts[0], (10, 0.4 * 5000.0));
        assert_eq!(result.reported_counts[1], (30, 0.3 * 5000.0));
        let report = result.to_report(8);
        assert_eq!(report.level, 8);
        assert_eq!(report.candidates.len(), 2);
    }

    #[test]
    fn negative_frequencies_never_produce_negative_counts() {
        let result = local_result_from_estimate("p", 1000, &estimate(), 4);
        assert!(result.reported_counts.iter().all(|(_, c)| *c >= 0.0));
    }

    #[test]
    fn intermediate_report_keeps_only_positive_candidates() {
        let report = local_result_to_report("p", 1000, &estimate(), 3);
        let values: Vec<u64> = report.candidates.iter().map(|(v, _)| *v).collect();
        assert_eq!(values, vec![10, 30, 40]);
        assert_eq!(report.party, "p");
    }

    #[test]
    fn locals_rebuild_losslessly_from_reports_in_party_order() {
        let report = |party: &str, users: usize| CandidateReport {
            party: party.to_string(),
            level: 8,
            candidates: vec![(1, 10.0), (2, 5.0)],
            users,
        };
        let (c, a) = (report("c", 30), report("a", 10));
        let locals = locals_from_reports(&[(2, &c), (0, &a)]);
        assert_eq!(locals.len(), 2);
        assert_eq!(locals[0].party, "a");
        assert_eq!(locals[0].users, 10);
        assert_eq!(locals[1].party, "c");
        assert_eq!(locals[0].local_heavy_hitters, vec![1, 2]);
        assert_eq!(locals[0].reported_counts, vec![(1, 10.0), (2, 5.0)]);
    }
}
