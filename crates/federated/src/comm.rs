//! Communication-cost accounting.
//!
//! Tables 1 and 4 of the paper compare the bytes exchanged between parties
//! and server across the mechanisms.  [`CommTracker`] accumulates uplink
//! (party → server) and downlink (server → party) traffic per party, and
//! optionally the users' report traffic inside each party, so the benchmark
//! harness can print the same columns.

use std::collections::BTreeMap;

/// Accumulated traffic statistics for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommTracker {
    /// Party → bits uploaded to the server.
    uplink_bits: BTreeMap<String, usize>,
    /// Party → bits received from the server.
    downlink_bits: BTreeMap<String, usize>,
    /// Party → bits of perturbed user reports collected inside the party.
    local_report_bits: BTreeMap<String, usize>,
}

impl CommTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bits` of party → server traffic.
    pub fn record_uplink(&mut self, party: &str, bits: usize) {
        *self.uplink_bits.entry(party.to_string()).or_insert(0) += bits;
    }

    /// Records `bits` of server → party traffic.
    pub fn record_downlink(&mut self, party: &str, bits: usize) {
        *self.downlink_bits.entry(party.to_string()).or_insert(0) += bits;
    }

    /// Records `bits` of in-party user-report traffic.
    pub fn record_local_reports(&mut self, party: &str, bits: usize) {
        *self.local_report_bits.entry(party.to_string()).or_insert(0) += bits;
    }

    /// Total party → server traffic in bits (the paper's "communication
    /// cost" column counts this server-side traffic).
    pub fn total_uplink_bits(&self) -> usize {
        self.uplink_bits.values().sum()
    }

    /// Total server → party traffic in bits.
    pub fn total_downlink_bits(&self) -> usize {
        self.downlink_bits.values().sum()
    }

    /// Total in-party user-report traffic in bits.
    pub fn total_local_report_bits(&self) -> usize {
        self.local_report_bits.values().sum()
    }

    /// Total server-side traffic (uplink + downlink) in kilobits, the unit
    /// used in Table 4.
    pub fn server_traffic_kb(&self) -> f64 {
        (self.total_uplink_bits() + self.total_downlink_bits()) as f64 / 1000.0
    }

    /// Uplink bits for one party.
    pub fn uplink_of(&self, party: &str) -> usize {
        self.uplink_bits.get(party).copied().unwrap_or(0)
    }

    /// Merges another tracker into this one.
    pub fn merge(&mut self, other: &CommTracker) {
        for (p, b) in &other.uplink_bits {
            *self.uplink_bits.entry(p.clone()).or_insert(0) += b;
        }
        for (p, b) in &other.downlink_bits {
            *self.downlink_bits.entry(p.clone()).or_insert(0) += b;
        }
        for (p, b) in &other.local_report_bits {
            *self.local_report_bits.entry(p.clone()).or_insert(0) += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_party_and_totals() {
        let mut t = CommTracker::new();
        t.record_uplink("a", 100);
        t.record_uplink("a", 50);
        t.record_uplink("b", 10);
        t.record_downlink("a", 30);
        t.record_local_reports("a", 1000);
        assert_eq!(t.uplink_of("a"), 150);
        assert_eq!(t.uplink_of("b"), 10);
        assert_eq!(t.uplink_of("c"), 0);
        assert_eq!(t.total_uplink_bits(), 160);
        assert_eq!(t.total_downlink_bits(), 30);
        assert_eq!(t.total_local_report_bits(), 1000);
        assert!((t.server_traffic_kb() - 0.19).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_all_categories() {
        let mut a = CommTracker::new();
        a.record_uplink("x", 5);
        let mut b = CommTracker::new();
        b.record_uplink("x", 7);
        b.record_downlink("y", 3);
        a.merge(&b);
        assert_eq!(a.uplink_of("x"), 12);
        assert_eq!(a.total_downlink_bits(), 3);
    }
}
