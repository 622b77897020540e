//! Run observability: one typed event stream per run.
//!
//! A run emits every protocol phase, every party-local [`PartyEvent`]
//! (level estimates with the traffic they caused, pruning decisions,
//! pruning-validation reports), every server → party downlink and a
//! closing summary as one [`RunEvent`] stream, from one place (`RunContext`
//! in `fedhh-mechanisms`).  Two folds consume that stream:
//! [`crate::CommTracker`] sums its traffic into the run's output, and a
//! [`RecordingObserver`] keeps the events and folds its totals with the
//! same [`crate::CommTracker::record`] — so the recorder and the output
//! agree by construction, not by test.

use crate::comm::CommTracker;
use crate::session::PartyEvent;
use std::collections::BTreeMap;
use std::fmt;

/// The phases of a federated heavy hitter run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunPhase {
    /// Phase I: collaborative shared shallow trie construction.
    SharedTrie,
    /// Phase II: per-party (or sequential) level-by-level estimation.
    LocalEstimation,
    /// Final server-side aggregation of the parties' uploads.
    Aggregation,
}

impl fmt::Display for RunPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RunPhase::SharedTrie => "shared-trie",
            RunPhase::LocalEstimation => "local-estimation",
            RunPhase::Aggregation => "aggregation",
        })
    }
}

/// One unit of per-level work inside one party, with the traffic it caused.
///
/// Every bit of party → server traffic a mechanism records is attributed to
/// exactly one `LevelEstimated` event, so summing `uplink_bits` over a run's
/// events reproduces [`crate::CommTracker::total_uplink_bits`] exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelEstimated {
    /// The reporting party.
    pub party: String,
    /// The trie level (1-based).  Upload-only events (a Phase I candidate
    /// report, a pruning dictionary, the final top-k report) carry the
    /// level whose estimation they conclude, so the per-level breakdown of
    /// a run's uplink attributes every upload to the deepest level that
    /// produced it.
    pub level: u8,
    /// Number of candidate prefixes estimated (or uploaded).
    pub candidates: usize,
    /// Number of users whose reports backed the estimate.
    pub users: usize,
    /// In-party perturbed-report traffic, in bits.
    pub report_bits: usize,
    /// Party → server traffic attributed to this level, in bits.
    pub uplink_bits: usize,
}

/// A consensus-based pruning decision taken by one party at one level.
#[derive(Debug, Clone, PartialEq)]
pub struct PruningDecision {
    /// The pruning party.
    pub party: String,
    /// The trie level.
    pub level: u8,
    /// The candidates removed from the party's extended domain.
    pub pruned: Vec<u64>,
    /// The predecessor's population confidence γ (Equation 5).
    pub gamma: f64,
}

/// The closing summary of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Mechanism name (e.g. `"TAPS"`).
    pub mechanism: String,
    /// Number of federated heavy hitters identified.
    pub heavy_hitters: usize,
    /// Total party → server traffic, in bits.
    pub uplink_bits: usize,
    /// Total server → party traffic, in bits.
    pub downlink_bits: usize,
}

/// One event of a run's stream, in emission order.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEvent {
    /// A protocol phase started.
    PhaseStarted(RunPhase),
    /// A party-local event, replayed from a round in canonical party order.
    Party(PartyEvent),
    /// Server → party traffic.
    Downlink {
        /// The receiving party.
        party: String,
        /// The traffic, in bits.
        bits: usize,
    },
    /// The run finished.
    RunFinished(RunSummary),
}

/// An observer that records every event for later inspection — the testing
/// and debugging companion of the run API.
#[derive(Debug, Clone, Default)]
pub struct RecordingObserver {
    /// The recorded events, in emission order.
    pub events: Vec<RunEvent>,
}

impl RecordingObserver {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded level events, in emission order.
    pub fn level_events(&self) -> impl Iterator<Item = &LevelEstimated> {
        self.events.iter().filter_map(|e| match e {
            RunEvent::Party(PartyEvent::Level(event)) => Some(event),
            _ => None,
        })
    }

    /// The recorded pruning decisions, in emission order.
    pub fn pruning_events(&self) -> impl Iterator<Item = &PruningDecision> {
        self.events.iter().filter_map(|e| match e {
            RunEvent::Party(PartyEvent::Pruning(event)) => Some(event),
            _ => None,
        })
    }

    /// The phases that started, in order.
    pub fn phases(&self) -> Vec<RunPhase> {
        self.events
            .iter()
            .filter_map(|e| match e {
                RunEvent::PhaseStarted(phase) => Some(*phase),
                _ => None,
            })
            .collect()
    }

    /// The run's traffic totals, folded from the recorded events with the
    /// same [`CommTracker::record`] that builds the run's output.
    pub fn comm(&self) -> CommTracker {
        let mut comm = CommTracker::new();
        self.events.iter().for_each(|event| comm.record(event));
        comm
    }

    /// Party → server traffic per trie level, reconstructed from the level
    /// events.
    pub fn uplink_bits_by_level(&self) -> BTreeMap<u8, usize> {
        let mut per_level = BTreeMap::new();
        for event in self.level_events() {
            *per_level.entry(event.level).or_insert(0) += event.uplink_bits;
        }
        per_level
    }

    /// The final summary, if the run completed.
    pub fn summary(&self) -> Option<&RunSummary> {
        self.events.iter().rev().find_map(|e| match e {
            RunEvent::RunFinished(summary) => Some(summary),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn level(party: &str, level: u8, uplink: usize) -> LevelEstimated {
        LevelEstimated {
            party: party.to_string(),
            level,
            candidates: 4,
            users: 100,
            report_bits: 320,
            uplink_bits: uplink,
        }
    }

    #[test]
    fn recorder_accumulates_events_in_order() {
        let mut obs = RecordingObserver::new();
        obs.events.extend([
            RunEvent::PhaseStarted(RunPhase::SharedTrie),
            RunEvent::Party(PartyEvent::Level(level("a", 1, 0))),
            RunEvent::Party(PartyEvent::Level(level("a", 2, 96))),
            RunEvent::Party(PartyEvent::Level(level("b", 2, 192))),
            RunEvent::Party(PartyEvent::Pruning(PruningDecision {
                party: "b".into(),
                level: 2,
                pruned: vec![7],
                gamma: 0.25,
            })),
            RunEvent::Downlink {
                party: "a".into(),
                bits: 10,
            },
            RunEvent::RunFinished(RunSummary {
                mechanism: "TAPS".into(),
                heavy_hitters: 5,
                uplink_bits: 288,
                downlink_bits: 10,
            }),
        ]);

        assert_eq!(obs.phases(), vec![RunPhase::SharedTrie]);
        assert_eq!(obs.level_events().count(), 3);
        assert_eq!(obs.comm().total_uplink_bits(), 288);
        assert_eq!(obs.comm().total_downlink_bits(), 10);
        assert_eq!(obs.comm().total_local_report_bits(), 960);
        assert_eq!(obs.uplink_bits_by_level().get(&2), Some(&288));
        assert_eq!(obs.pruning_events().count(), 1);
        assert_eq!(obs.summary().unwrap().heavy_hitters, 5);
    }

    #[test]
    fn phases_render_stable_names() {
        assert_eq!(RunPhase::SharedTrie.to_string(), "shared-trie");
        assert_eq!(RunPhase::LocalEstimation.to_string(), "local-estimation");
        assert_eq!(RunPhase::Aggregation.to_string(), "aggregation");
    }
}
