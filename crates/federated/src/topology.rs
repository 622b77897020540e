//! The aggregation topology and quorum-closure policy.
//!
//! [`Topology`] selects how party uploads reach the root aggregator:
//! `Flat` is the star every release so far has run (each upload is its own
//! root-inbound frame), `Tree { fanout, depth }` interposes cohort-level
//! sub-aggregators that fold their parties' reports into one
//! `MergedSupports` frame each, so the root receives `O(cohorts)` frames
//! instead of `O(parties)`.  Merging is **lossless by construction**: the
//! merged payload carries every constituent report with its party index,
//! the root reconstructs the flat canonical collection before any
//! mechanism sees it, and f64 count bit patterns survive the wire codec
//! exactly — which is why `Tree` at quorum 1.0 is bit-identical to `Flat`
//! for every mechanism (`tests/topology.rs`).
//!
//! [`QuorumPolicy`] closes a round once a configured response fraction is
//! reached.  Which parties make the cut is a pure function of
//! `(seed, round)` over the round's candidate list — a seeded permutation,
//! never thread or socket timing — so quorum runs stay bit-deterministic
//! per seed at any parallelism or transport.  Late parties are
//! simply excluded from that round, folding into the same per-round
//! semantics as the [`crate::FaultPlan`] dropout draw.
//!
//! Both types travel in the protocol configuration (wire schema 5), so a
//! federation can never mix topologies across processes.

use crate::error::ProtocolError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How party uploads reach the root aggregator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Topology {
    /// The star: every upload is its own root-inbound frame.
    #[default]
    Flat,
    /// Cohort-level sub-aggregation: parties group into cohorts of
    /// `fanout` per level, `depth` levels deep; each cohort forwards one
    /// merged frame.
    Tree {
        /// Cohort width per tree level (at least 2).
        fanout: usize,
        /// Number of merge levels between the parties and the root (at
        /// least 1).
        depth: usize,
    },
}

impl Topology {
    /// True when this is the star topology.
    pub fn is_flat(&self) -> bool {
        matches!(self, Topology::Flat)
    }

    /// The canonical CLI spelling: `flat` or `tree:FANOUT[:DEPTH]`.
    pub fn name(&self) -> String {
        match self {
            Topology::Flat => "flat".to_string(),
            Topology::Tree { fanout, depth } if *depth == 1 => format!("tree:{fanout}"),
            Topology::Tree { fanout, depth } => format!("tree:{fanout}:{depth}"),
        }
    }

    /// Parses the canonical spelling; `None` on anything else.
    pub fn parse(raw: &str) -> Option<Topology> {
        if raw.eq_ignore_ascii_case("flat") {
            return Some(Topology::Flat);
        }
        let rest = raw
            .strip_prefix("tree:")
            .or_else(|| raw.strip_prefix("TREE:"))?;
        let mut parts = rest.split(':');
        let fanout: usize = parts.next()?.parse().ok()?;
        let depth: usize = match parts.next() {
            Some(depth) => depth.parse().ok()?,
            None => 1,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(Topology::Tree { fanout, depth })
    }

    /// True when the shape is well-formed: a tree needs `fanout >= 2`
    /// (a 1-wide cohort merges nothing) and `1 <= depth <= 8` (the root
    /// group divisor `fanout^depth` must not overflow usize).
    pub fn is_valid(&self) -> bool {
        match self {
            Topology::Flat => true,
            Topology::Tree { fanout, depth } => {
                *fanout >= 2
                    && (1..=8).contains(depth)
                    && fanout.checked_pow(*depth as u32).is_some()
            }
        }
    }

    /// [`Topology::is_valid`] as a typed error: a malformed tree is
    /// [`ProtocolError::InvalidTopology`] carrying its shape.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        match *self {
            Topology::Tree { fanout, depth } if !self.is_valid() => {
                Err(ProtocolError::InvalidTopology { fanout, depth })
            }
            _ => Ok(()),
        }
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Quorum-based round closure: a round closes once `fraction` of its
/// candidate parties have responded; who makes the cut is a seeded draw,
/// never arrival order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuorumPolicy {
    /// The response fraction that closes a round, in `(0, 1]`.  1.0 waits
    /// for everyone (today's behaviour).
    pub fraction: f64,
    /// The seed of the per-round on-time draw.
    pub seed: u64,
}

impl Default for QuorumPolicy {
    fn default() -> Self {
        QuorumPolicy {
            fraction: 1.0,
            seed: 0,
        }
    }
}

impl QuorumPolicy {
    /// A full quorum: every round waits for every candidate.
    pub fn full() -> Self {
        QuorumPolicy::default()
    }

    /// True when the policy is well-formed: the fraction must lie in
    /// `(0, 1]` (a zero quorum would close rounds with no reports).
    pub fn is_valid(&self) -> bool {
        self.fraction.is_finite() && self.fraction > 0.0 && self.fraction <= 1.0
    }

    /// True when this policy ever excludes anyone.
    pub fn is_partial(&self) -> bool {
        self.fraction < 1.0
    }

    /// The parties that make `round`'s quorum, as a sorted subset of
    /// `candidates` (the round's active parties, every process passing the
    /// same full list).  A pure function of `(seed, round, candidates)`:
    /// a seeded permutation keeps the first `ceil(fraction * n)` entries
    /// (at least one), so closure order never depends on thread or socket
    /// timing.  At `fraction == 1.0` the candidates pass through untouched.
    pub fn on_time(&self, round: u32, candidates: &[usize]) -> Vec<usize> {
        if !self.is_partial() || candidates.len() <= 1 {
            return candidates.to_vec();
        }
        let mut order: Vec<usize> = candidates.to_vec();
        // Mix the round index the way the straggler draw does, so quorum
        // draws never correlate across rounds or with the fault plan.
        let mut rng = StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0xA076_1D64_78BD_642F)
                .wrapping_add(u64::from(round)),
        );
        order.shuffle(&mut rng);
        let keep =
            ((self.fraction * candidates.len() as f64).ceil() as usize).clamp(1, candidates.len());
        order.truncate(keep);
        order.sort_unstable();
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for topology in [
            Topology::Flat,
            Topology::Tree {
                fanout: 2,
                depth: 1,
            },
            Topology::Tree {
                fanout: 16,
                depth: 2,
            },
        ] {
            assert_eq!(Topology::parse(&topology.name()), Some(topology));
        }
        assert_eq!(
            Topology::parse("tree:4"),
            Some(Topology::Tree {
                fanout: 4,
                depth: 1
            })
        );
        assert_eq!(Topology::parse("FLAT"), Some(Topology::Flat));
    }

    #[test]
    fn malformed_topology_specs_fail_to_parse() {
        for raw in [
            "",
            "star",
            "tree",
            "tree:",
            "tree:x",
            "tree:4:2:9",
            "tree:4:y",
        ] {
            assert_eq!(Topology::parse(raw), None, "{raw:?} parsed");
        }
    }

    #[test]
    fn validation_rejects_degenerate_shapes() {
        assert!(Topology::Flat.is_valid());
        assert!(Topology::Tree {
            fanout: 2,
            depth: 1
        }
        .is_valid());
        assert!(Topology::Tree {
            fanout: 16,
            depth: 2
        }
        .is_valid());
        assert!(!Topology::Tree {
            fanout: 1,
            depth: 1
        }
        .is_valid());
        assert!(!Topology::Tree {
            fanout: 0,
            depth: 1
        }
        .is_valid());
        assert!(!Topology::Tree {
            fanout: 2,
            depth: 0
        }
        .is_valid());
        assert!(!Topology::Tree {
            fanout: 2,
            depth: 9
        }
        .is_valid());
    }

    #[test]
    fn quorum_validation_bounds_the_fraction() {
        assert!(QuorumPolicy::full().is_valid());
        assert!(QuorumPolicy {
            fraction: 0.25,
            seed: 7
        }
        .is_valid());
        assert!(!QuorumPolicy {
            fraction: 0.0,
            seed: 0
        }
        .is_valid());
        assert!(!QuorumPolicy {
            fraction: -0.5,
            seed: 0
        }
        .is_valid());
        assert!(!QuorumPolicy {
            fraction: 1.5,
            seed: 0
        }
        .is_valid());
        assert!(!QuorumPolicy {
            fraction: f64::NAN,
            seed: 0
        }
        .is_valid());
    }

    #[test]
    fn full_quorum_passes_candidates_through() {
        let quorum = QuorumPolicy::full();
        let candidates = vec![0, 2, 5, 9];
        for round in 0..4 {
            assert_eq!(quorum.on_time(round, &candidates), candidates);
        }
    }

    #[test]
    fn partial_quorum_is_a_pure_function_of_seed_and_round() {
        let quorum = QuorumPolicy {
            fraction: 0.5,
            seed: 0xB0A7,
        };
        let candidates: Vec<usize> = (0..10).collect();
        for round in 0..8 {
            let a = quorum.on_time(round, &candidates);
            let b = quorum.on_time(round, &candidates);
            assert_eq!(a, b, "round {round} draw is not reproducible");
            assert_eq!(a.len(), 5);
            assert!(a.windows(2).all(|w| w[0] < w[1]), "not sorted: {a:?}");
            assert!(a.iter().all(|p| candidates.contains(p)));
        }
    }

    #[test]
    fn partial_quorum_varies_across_rounds_and_keeps_at_least_one() {
        let quorum = QuorumPolicy {
            fraction: 0.3,
            seed: 42,
        };
        let candidates: Vec<usize> = (0..8).collect();
        let draws: Vec<Vec<usize>> = (0..6).map(|r| quorum.on_time(r, &candidates)).collect();
        assert!(
            draws.windows(2).any(|w| w[0] != w[1]),
            "every round drew the same on-time set"
        );
        let tiny = QuorumPolicy {
            fraction: 0.01,
            seed: 1,
        };
        assert_eq!(tiny.on_time(0, &[3, 7]).len(), 1);
        assert_eq!(tiny.on_time(0, &[4]), vec![4]);
    }
}
