//! The aggregation topology of a round.
//!
//! [`Topology`] selects how party uploads reach the root aggregator:
//! `Flat` is the star every release so far has run (each upload is its own
//! root-inbound frame), `Tree { fanout, depth: 1 }` interposes cohort-level
//! sub-aggregators that fold their parties' reports into one
//! `MergedSupports` frame each, so the root receives `O(cohorts)` frames
//! instead of `O(parties)`.  Merging is **lossless by construction**: the
//! merged payload carries every constituent report with its party index,
//! the root reconstructs the flat canonical collection before any
//! mechanism sees it, and f64 count bit patterns survive the wire codec
//! exactly — which is why `Tree` at quorum 1.0 is bit-identical to `Flat`
//! for every mechanism (`tests/topology.rs`).
//!
//! The topology is round policy: it travels in the [`crate::ScenarioPlan`]
//! next to the other closure decision of a round, the quorum
//! ([`crate::ScenarioPlan::on_time`]), so a federation can never mix
//! topologies or quorums across processes.  The quorum draw's tests sit
//! here with the topology's.

use crate::error::ProtocolError;

/// How party uploads reach the root aggregator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Topology {
    /// The star: every upload is its own root-inbound frame.
    #[default]
    Flat,
    /// Cohort-level sub-aggregation: parties group into cohorts of
    /// `fanout`; each cohort forwards one merged frame.
    Tree {
        /// Cohort width (at least 2).
        fanout: usize,
        /// Number of merge levels between the parties and the root; must
        /// be 1.  Cohorts nest, so `depth` levels of `fanout` reach the
        /// root in exactly the frames and bytes of one level of
        /// `fanout^depth`: a deeper tree is that wider one.
        depth: usize,
    },
}

impl Topology {
    /// True when this is the star topology.
    pub fn is_flat(&self) -> bool {
        matches!(self, Topology::Flat)
    }

    /// The canonical CLI spelling: `flat` or `tree:FANOUT`.
    pub fn name(&self) -> String {
        match self {
            Topology::Flat => "flat".to_string(),
            Topology::Tree { fanout, .. } => format!("tree:{fanout}"),
        }
    }

    /// Parses `flat` or `tree:FANOUT[:DEPTH]`, in any letter case; `None`
    /// on anything else.  Any depth parses, so that [`Topology::validate`]
    /// names the rule a depth other than 1 breaks.
    pub fn parse(raw: &str) -> Option<Topology> {
        if raw.eq_ignore_ascii_case("flat") {
            return Some(Topology::Flat);
        }
        let rest = raw
            .get(..5)
            .filter(|prefix| prefix.eq_ignore_ascii_case("tree:"))
            .map(|_| &raw[5..])?;
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

    /// Checks the shape: a 1-wide cohort merges nothing, and the depth
    /// must be 1 (see [`Topology::Tree`]).
    pub fn validate(&self) -> Result<(), ProtocolError> {
        match *self {
            Topology::Tree { fanout, depth } if fanout < 2 || depth != 1 => {
                Err(ProtocolError::invalid(
                    "aggregation tree",
                    "have fanout >= 2 and depth 1",
                    format!("fanout {fanout} depth {depth}"),
                ))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScenarioPlan;

    /// The benign plan closing rounds at `quorum` under `seed`.
    fn quorum(quorum: f64, seed: u64) -> ScenarioPlan {
        ScenarioPlan {
            quorum,
            seed,
            ..ScenarioPlan::benign()
        }
    }

    #[test]
    fn names_round_trip_through_parse() {
        for topology in [
            Topology::Flat,
            Topology::Tree {
                fanout: 2,
                depth: 1,
            },
            Topology::Tree {
                fanout: 256,
                depth: 1,
            },
        ] {
            assert_eq!(Topology::parse(&topology.name()), Some(topology));
        }
        for raw in ["tree:4", "TREE:4", "Tree:4", "tree:4:1"] {
            assert_eq!(
                Topology::parse(raw),
                Some(Topology::Tree {
                    fanout: 4,
                    depth: 1
                }),
                "{raw:?}"
            );
        }
        assert_eq!(Topology::parse("FLAT"), Some(Topology::Flat));
        assert_eq!(Topology::parse("Flat"), Some(Topology::Flat));
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
        let tree = |fanout, depth| Topology::Tree { fanout, depth };
        for valid in [
            Topology::Flat,
            tree(2, 1),
            tree(256, 1),
            tree(usize::MAX, 1),
        ] {
            assert_eq!(valid.validate(), Ok(()), "{valid:?}");
        }
        for (fanout, depth) in [(1, 1), (0, 1), (2, 0), (2, 2), (2, 9), (usize::MAX, 2)] {
            assert!(
                matches!(
                    tree(fanout, depth).validate(),
                    Err(ProtocolError::InvalidParameter {
                        name: "aggregation tree",
                        ..
                    })
                ),
                "fanout {fanout} depth {depth}"
            );
        }
        assert_eq!(
            tree(2, 3).validate().unwrap_err().to_string(),
            "aggregation tree must have fanout >= 2 and depth 1, got fanout 2 depth 3"
        );
    }

    #[test]
    fn quorum_validation_bounds_the_fraction() {
        assert_eq!(ScenarioPlan::benign().validate(), Ok(()));
        assert_eq!(quorum(0.25, 7).validate(), Ok(()));
        for fraction in [0.0, -0.5, 1.5, f64::INFINITY, f64::NAN] {
            assert!(
                matches!(
                    quorum(fraction, 7).validate(),
                    Err(ProtocolError::InvalidParameter {
                        name: "quorum fraction",
                        ..
                    })
                ),
                "fraction {fraction}"
            );
        }
        assert_eq!(
            quorum(1.5, 7).validate().unwrap_err().to_string(),
            "quorum fraction must be in (0, 1], got 1.5"
        );
    }

    #[test]
    fn full_quorum_passes_candidates_through() {
        let plan = quorum(1.0, 7);
        let candidates = vec![0, 2, 5, 9];
        for round in 0..4 {
            assert_eq!(plan.on_time(round, &candidates), candidates);
        }
    }

    #[test]
    fn partial_quorum_is_a_pure_function_of_seed_and_round() {
        let plan = quorum(0.5, 0xB0A7);
        let candidates: Vec<usize> = (0..10).collect();
        for round in 0..8 {
            let a = plan.on_time(round, &candidates);
            let b = plan.on_time(round, &candidates);
            assert_eq!(a, b, "round {round} draw is not reproducible");
            assert_eq!(a.len(), 5);
            assert!(a.windows(2).all(|w| w[0] < w[1]), "not sorted: {a:?}");
            assert!(a.iter().all(|p| candidates.contains(p)));
        }
    }

    #[test]
    fn partial_quorum_varies_across_rounds_and_keeps_at_least_one() {
        let plan = quorum(0.3, 42);
        let candidates: Vec<usize> = (0..8).collect();
        let draws: Vec<Vec<usize>> = (0..6).map(|r| plan.on_time(r, &candidates)).collect();
        assert!(
            draws.windows(2).any(|w| w[0] != w[1]),
            "every round drew the same on-time set"
        );
        let tiny = quorum(0.01, 1);
        assert_eq!(tiny.on_time(0, &[3, 7]).len(), 1);
        assert_eq!(tiny.on_time(0, &[4]), vec![4]);
    }
}
