//! The common mechanism interface and run outputs.

use crate::aggregate::PartyLocalResult;
use crate::run::RunContext;
use fedhh_federated::{CommTracker, ProtocolError};
use std::collections::HashMap;
use std::time::Duration;

/// The result of one federated heavy hitter run.
#[derive(Debug, Clone)]
pub struct MechanismOutput {
    /// The identified federated top-k heavy hitters (item codes), most
    /// frequent first.
    pub heavy_hitters: Vec<u64>,
    /// The aggregated estimated count behind each identified heavy hitter.
    pub counts: HashMap<u64, f64>,
    /// Per-party local heavy hitters as uploaded to the server (used by the
    /// Table 7 statistical-heterogeneity study).
    pub local_results: Vec<PartyLocalResult>,
    /// Communication accounting for the run.
    pub comm: CommTracker,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl MechanismOutput {
    /// The estimated count of one identified heavy hitter (0 when absent).
    pub fn count_of(&self, value: u64) -> f64 {
        self.counts.get(&value).copied().unwrap_or(0.0)
    }
}

/// A federated heavy hitter identification mechanism.
pub trait Mechanism {
    /// Short, stable mechanism name (e.g. `"TAPS"`).
    fn name(&self) -> &'static str;

    /// Executes the mechanism inside a [`RunContext`] (dataset, validated
    /// configuration, seeded RNG and the run's event stream) and
    /// returns the identified heavy hitters or a typed error.
    ///
    /// Prefer driving this through the [`crate::Run`] builder, which
    /// validates the configuration and the dataset/config pairing first.
    ///
    /// The pre-0.2 infallible `run(&dataset, &config)` shim (deprecated in
    /// 0.2.0) was removed in 0.3.0; see CHANGES.md for the migration.
    fn execute(&self, ctx: &mut RunContext<'_>) -> Result<MechanismOutput, ProtocolError>;
}

/// The mechanisms compared in the paper's evaluation, constructible by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MechanismKind {
    /// The hierarchical global-trie-filtering baseline.
    Gtf,
    /// PEM per party with server-side count aggregation (Algorithm 1).
    FedPem,
    /// Target-aligning prefix tree (Algorithm 3).
    Tap,
    /// TAP with consensus-based pruning (Algorithm 4).
    Taps,
}

impl MechanismKind {
    /// The three mechanisms of the main comparison (Figures 4–6).
    pub const MAIN_COMPARISON: [MechanismKind; 3] = [
        MechanismKind::Gtf,
        MechanismKind::FedPem,
        MechanismKind::Taps,
    ];

    /// All mechanisms.
    pub const ALL: [MechanismKind; 4] = [
        MechanismKind::Gtf,
        MechanismKind::FedPem,
        MechanismKind::Tap,
        MechanismKind::Taps,
    ];

    /// Stable display name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            MechanismKind::Gtf => "GTF",
            MechanismKind::FedPem => "FedPEM",
            MechanismKind::Tap => "TAP",
            MechanismKind::Taps => "TAPS",
        }
    }

    /// Parses a (case-insensitive) mechanism name.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_uppercase().as_str() {
            "GTF" => Some(MechanismKind::Gtf),
            "FEDPEM" => Some(MechanismKind::FedPem),
            "TAP" => Some(MechanismKind::Tap),
            "TAPS" => Some(MechanismKind::Taps),
            _ => None,
        }
    }

    /// Builds the mechanism with its default options.
    pub fn build(&self) -> Box<dyn Mechanism> {
        match self {
            MechanismKind::Gtf => Box::new(crate::gtf::Gtf),
            MechanismKind::FedPem => Box::new(crate::fedpem::FedPem::default()),
            MechanismKind::Tap => Box::new(crate::tap::Tap::default()),
            MechanismKind::Taps => Box::new(crate::taps::Taps::default()),
        }
    }
}

impl std::fmt::Display for MechanismKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a string does not name a known mechanism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseMechanismKindError {
    input: String,
}

impl std::fmt::Display for ParseMechanismKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown mechanism {:?}; expected one of GTF, FedPEM, TAP, TAPS",
            self.input
        )
    }
}

impl std::error::Error for ParseMechanismKindError {}

impl std::str::FromStr for MechanismKind {
    type Err = ParseMechanismKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::parse(s).ok_or_else(|| ParseMechanismKindError {
            input: s.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in MechanismKind::ALL {
            assert_eq!(MechanismKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(MechanismKind::parse("taps"), Some(MechanismKind::Taps));
        assert_eq!(MechanismKind::parse("nope"), None);
    }

    #[test]
    fn from_str_delegates_to_parse() {
        for kind in MechanismKind::ALL {
            assert_eq!(kind.name().parse::<MechanismKind>(), Ok(kind));
            assert_eq!(
                kind.name().to_lowercase().parse::<MechanismKind>(),
                Ok(kind)
            );
        }
        let err = "nope".parse::<MechanismKind>().unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn build_produces_matching_names() {
        for kind in MechanismKind::ALL {
            assert_eq!(kind.build().name(), kind.name());
        }
    }

    #[test]
    fn output_count_lookup_defaults_to_zero() {
        let output = MechanismOutput {
            heavy_hitters: vec![1],
            counts: [(1u64, 5.0)].into_iter().collect(),
            local_results: vec![],
            comm: CommTracker::new(),
            elapsed: Duration::from_millis(1),
        };
        assert_eq!(output.count_of(1), 5.0);
        assert_eq!(output.count_of(2), 0.0);
    }
}
