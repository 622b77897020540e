//! Communication-cost accounting.
//!
//! Tables 1 and 4 of the paper compare the bits exchanged between parties
//! and server across the mechanisms.  [`CommTracker`] is the fold of a
//! run's [`RunEvent`] stream into three totals — uplink (party → server),
//! downlink (server → party) and the users' report traffic inside the
//! parties — so the benchmark harness can print the same columns.

use crate::observer::RunEvent;
use crate::session::PartyEvent;

/// Accumulated traffic totals for one run, in bits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommTracker {
    uplink_bits: usize,
    downlink_bits: usize,
    local_report_bits: usize,
}

impl CommTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one run event into the totals: a level event carries uplink
    /// and in-party report traffic, a pruning validation in-party report
    /// traffic, a downlink server → party traffic; phases, pruning
    /// decisions and the summary carry none.
    pub fn record(&mut self, event: &RunEvent) {
        match event {
            RunEvent::Party(PartyEvent::Level(level)) => {
                self.uplink_bits += level.uplink_bits;
                self.local_report_bits += level.report_bits;
            }
            RunEvent::Party(PartyEvent::ValidationReports { bits, .. }) => {
                self.local_report_bits += bits;
            }
            RunEvent::Downlink { bits, .. } => self.downlink_bits += bits,
            RunEvent::PhaseStarted(_)
            | RunEvent::Party(PartyEvent::Pruning(_))
            | RunEvent::RunFinished(_) => {}
        }
    }

    /// Total party → server traffic in bits (the paper's "communication
    /// cost" column counts this server-side traffic).
    pub fn total_uplink_bits(&self) -> usize {
        self.uplink_bits
    }

    /// Total server → party traffic in bits.
    pub fn total_downlink_bits(&self) -> usize {
        self.downlink_bits
    }

    /// Total in-party user-report traffic in bits.
    pub fn total_local_report_bits(&self) -> usize {
        self.local_report_bits
    }

    /// Total server-side traffic (uplink + downlink) in kilobits, the unit
    /// used in Table 4.
    pub fn server_traffic_kb(&self) -> f64 {
        (self.uplink_bits + self.downlink_bits) as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{LevelEstimated, PruningDecision, RunPhase};

    fn level(party: &str, report_bits: usize, uplink_bits: usize) -> RunEvent {
        RunEvent::Party(PartyEvent::Level(LevelEstimated {
            party: party.to_string(),
            level: 1,
            candidates: 4,
            users: 10,
            report_bits,
            uplink_bits,
        }))
    }

    #[test]
    fn accumulates_per_party_and_totals() {
        let mut t = CommTracker::new();
        for event in [
            RunEvent::PhaseStarted(RunPhase::SharedTrie),
            level("a", 600, 100),
            level("a", 0, 50),
            level("b", 400, 10),
            RunEvent::Party(PartyEvent::Pruning(PruningDecision {
                party: "b".into(),
                level: 1,
                pruned: vec![3],
                gamma: 0.5,
            })),
            RunEvent::Party(PartyEvent::ValidationReports {
                party: "b".into(),
                bits: 7,
            }),
            RunEvent::Downlink {
                party: "a".into(),
                bits: 30,
            },
        ] {
            t.record(&event);
        }
        assert_eq!(t.total_uplink_bits(), 160);
        assert_eq!(t.total_downlink_bits(), 30);
        assert_eq!(t.total_local_report_bits(), 1007);
        assert!((t.server_traffic_kb() - 0.19).abs() < 1e-12);
    }
}
