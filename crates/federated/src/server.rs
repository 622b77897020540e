//! Server-side aggregation of party reports.
//!
//! The server never sees raw user data — only each party's candidate
//! prefixes/items with their (noisy) estimated counts.  Aggregation sums the
//! estimated counts of identical candidates across parties and ranks them,
//! which implements both the Phase I shared-trie aggregation (step ⑤) and
//! the final federated heavy hitter derivation (step ⑪).

use crate::message::CandidateReport;
use std::collections::HashMap;

/// Sums the estimated counts of identical candidates across reports.
///
/// Negative estimated counts (possible because the LDP estimator is
/// unbiased, not truncated) are clamped to zero before summing so that a
/// heavily negative estimate in one party cannot erase genuine support from
/// another party.
pub fn aggregate_reports(reports: &[CandidateReport]) -> HashMap<u64, f64> {
    let mut totals: HashMap<u64, f64> = HashMap::new();
    aggregate_reports_into(reports, &mut totals);
    totals
}

/// Like [`aggregate_reports`], but merging into a caller-owned accumulator
/// from any report iterator (e.g. straight off a round collection's
/// messages, without cloning the reports first).
///
/// Round-driven mechanisms collect one batch of reports per engine round;
/// merging each round's batch into one (reusable) accumulator keeps
/// server-side aggregation at one hash-map pass per round regardless of how
/// many workers produced the reports.
pub fn aggregate_reports_into<'a>(
    reports: impl IntoIterator<Item = &'a CandidateReport>,
    totals: &mut HashMap<u64, f64>,
) {
    for report in reports {
        for (value, count) in &report.candidates {
            *totals.entry(*value).or_insert(0.0) += count.max(0.0);
        }
    }
}

/// Ranks aggregated counts and returns the top-`k` candidate values, in
/// the order of [`ranked`] (ties by value; a NaN would rank last).
pub fn top_k_from_counts(totals: &HashMap<u64, f64>, k: usize) -> Vec<u64> {
    let mut top = ranked_values(totals.iter().map(|(v, c)| (*v, *c)));
    top.truncate(k);
    top
}

/// Sorts `(value, score)` pairs into the one ranking order every ranking of
/// estimates uses: score descending, +0.0 equal to −0.0, every NaN after
/// every number, and ties (NaN with NaN included) broken by value
/// ascending.  The sort is stable.  A site that wants ascending scores
/// ranks their negations, which keeps NaN last.
pub fn ranked(pairs: impl IntoIterator<Item = (u64, f64)>) -> Vec<(u64, f64)> {
    let mut pairs: Vec<(u64, f64)> = pairs.into_iter().collect();
    pairs.sort_by(|a, b| rank_key(a.1).cmp(&rank_key(b.1)).then(a.0.cmp(&b.0)));
    pairs
}

/// A score's place in [`ranked`]'s order as an integer: higher scores get
/// lower keys, +0.0 and −0.0 one key, and every NaN the last key.
fn rank_key(score: f64) -> u64 {
    if score.is_nan() {
        return u64::MAX;
    }
    // −0.0 + 0.0 is +0.0.  Flipping maps IEEE order onto unsigned order
    // (all bits of a negative, the sign bit of a positive); `!` reverses it.
    let b = (score + 0.0).to_bits();
    let ascending = if b >> 63 == 1 { !b } else { b | 1 << 63 };
    !ascending
}

/// The values of [`ranked`]`(pairs)`, in rank order.
pub fn ranked_values(pairs: impl IntoIterator<Item = (u64, f64)>) -> Vec<u64> {
    ranked(pairs).into_iter().map(|(v, _)| v).collect()
}

/// Convenience: aggregate reports and return the top-`k` candidates.
pub fn federated_top_k(reports: &[CandidateReport], k: usize) -> Vec<u64> {
    top_k_from_counts(&aggregate_reports(reports), k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(party: &str, candidates: Vec<(u64, f64)>) -> CandidateReport {
        CandidateReport {
            party: party.to_string(),
            level: 1,
            candidates,
            users: 100,
        }
    }

    #[test]
    fn aggregation_sums_across_parties() {
        let reports = vec![
            report("a", vec![(1, 10.0), (2, 5.0)]),
            report("b", vec![(2, 20.0), (3, 1.0)]),
        ];
        let totals = aggregate_reports(&reports);
        assert_eq!(totals[&1], 10.0);
        assert_eq!(totals[&2], 25.0);
        assert_eq!(totals[&3], 1.0);
    }

    #[test]
    fn incremental_aggregation_matches_one_shot() {
        let rounds = vec![
            vec![report("a", vec![(1, 10.0), (2, 5.0)])],
            vec![report("b", vec![(2, 20.0), (3, 1.0)])],
        ];
        let mut incremental = HashMap::new();
        for round in &rounds {
            aggregate_reports_into(round, &mut incremental);
        }
        let flat: Vec<CandidateReport> = rounds.into_iter().flatten().collect();
        assert_eq!(incremental, aggregate_reports(&flat));
    }

    #[test]
    fn negative_counts_are_clamped() {
        let reports = vec![report("a", vec![(1, -50.0)]), report("b", vec![(1, 10.0)])];
        let totals = aggregate_reports(&reports);
        assert_eq!(totals[&1], 10.0);
    }

    #[test]
    fn top_k_ranks_by_total_count() {
        let reports = vec![
            report("a", vec![(1, 10.0), (2, 8.0), (3, 2.0)]),
            report("b", vec![(3, 9.0), (2, 1.0)]),
        ];
        assert_eq!(federated_top_k(&reports, 2), vec![3, 1]);
        assert_eq!(federated_top_k(&reports, 10), vec![3, 1, 2]);
    }

    #[test]
    fn ties_break_deterministically() {
        let reports = vec![report("a", vec![(5, 1.0), (2, 1.0), (9, 1.0)])];
        assert_eq!(federated_top_k(&reports, 2), vec![2, 5]);
    }

    #[test]
    fn empty_reports_give_empty_results() {
        assert!(federated_top_k(&[], 5).is_empty());
    }

    #[test]
    fn nan_counts_cannot_scramble_the_finite_ranking() {
        // A NaN total ranks after every number and leaves the finite
        // counts in their own order.
        let mut totals: HashMap<u64, f64> = [(1, 10.0), (2, f64::NAN), (3, 30.0), (4, 20.0)]
            .into_iter()
            .collect();
        assert_eq!(top_k_from_counts(&totals, 4), vec![3, 4, 1, 2]);
        assert_eq!(top_k_from_counts(&totals, 3), vec![3, 4, 1]);
        // Whatever its sign bit; ±0.0 tie and break by value.
        totals.extend([
            (5, -f64::NAN),
            (6, f64::INFINITY),
            (7, -0.0),
            (8, 0.0),
            (0, 0.0),
        ]);
        assert_eq!(top_k_from_counts(&totals, 9), [6, 3, 4, 1, 0, 7, 8, 2, 5]);
    }

    #[test]
    fn totals_are_never_negative_zero_or_nan() {
        // The rankings of summed counts rely on this: every total starts at
        // +0.0 and only clamped counts are added, so −0.0 and NaN counts
        // leave a +0.0 total behind.
        let reports = vec![
            report("a", vec![(1, -0.0), (2, f64::NAN), (3, -0.0)]),
            report("b", vec![(1, -0.0), (2, -0.0), (3, f64::NAN)]),
            report("c", vec![(4, f64::NAN), (5, -7.5)]),
        ];
        let totals = aggregate_reports(&reports);
        assert_eq!(totals.len(), 5);
        for (value, total) in &totals {
            assert_eq!(total.to_bits(), 0.0f64.to_bits(), "value {value}: {total}");
        }
    }
}
