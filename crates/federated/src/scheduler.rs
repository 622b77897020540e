//! User-to-group assignment.
//!
//! Each party divides its users into g groups uniformly at random, one group
//! per trie level (Algorithm 2, line 4).  Every user reports exactly once —
//! in her group's level — so the privacy budget is never split.  The TAP
//! mechanism additionally reserves a fraction of users for the Phase I
//! (shared shallow trie) levels so that the warm start does not starve the
//! deeper Phase II levels of reports.
//!
//! Both constructors return a typed [`ProtocolError`] on impossible splits
//! (zero groups, more phase-1 levels than groups) — no user-reachable
//! configuration can panic here.

use crate::error::ProtocolError;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The assignment of one party's users to trie levels.
///
/// All groups live in one arena, level after level, so a party holds
/// exactly 8 bytes per user once the deal is done.
#[derive(Debug, Clone)]
pub struct GroupAssignment {
    /// Item codes of every user, grouped by level.
    arena: Vec<u64>,
    /// `arena[bounds[h - 1]..bounds[h]]` is the group of level h.
    bounds: Vec<usize>,
}

impl GroupAssignment {
    /// Splits `items` (one per user) into `g` groups uniformly at random.
    /// Takes ownership of the item vector so a party copying its
    /// [`ItemStream`](https://docs.rs/fedhh-datasets) once for the shuffle
    /// pays for exactly one resident copy.
    ///
    /// Fails with a typed [`ProtocolError`] when `g` is zero.
    pub fn uniform_owned(mut items: Vec<u64>, g: u8, seed: u64) -> Result<Self, ProtocolError> {
        if g == 0 {
            return Err(ProtocolError::invalid("group count", "be at least 1", g));
        }
        shuffle(&mut items, seed);
        Ok(Self::deal(&items, &[(items.len(), g as usize)]))
    }

    /// Splits `items` into `g` groups where the first `phase1_levels` groups
    /// together receive `phase1_fraction` of the users (spread uniformly
    /// among them) and the remaining users are spread uniformly over the
    /// rest.  This mirrors the paper's "assign 10% users for the estimations
    /// in this phase" setting; [`ProtocolConfig`](crate::ProtocolConfig)'s
    /// default passes 0.25 (see its doc and ROADMAP item 1(d)).  Takes
    /// ownership of the item vector (see [`GroupAssignment::uniform_owned`]).
    ///
    /// Fails with a typed [`ProtocolError`] when `g` is zero or
    /// `phase1_levels` exceeds `g`.
    pub fn weighted_owned(
        items: Vec<u64>,
        g: u8,
        phase1_levels: u8,
        phase1_fraction: f64,
        seed: u64,
    ) -> Result<Self, ProtocolError> {
        if g == 0 {
            return Err(ProtocolError::invalid("group count", "be at least 1", g));
        }
        if phase1_levels > g {
            return Err(ProtocolError::invalid(
                "phase-1 levels",
                format!("not exceed the {g} groups"),
                phase1_levels,
            ));
        }
        if phase1_levels == 0 || phase1_levels == g || phase1_fraction <= 0.0 {
            return Self::uniform_owned(items, g, seed);
        }
        let mut shuffled = items;
        shuffle(&mut shuffled, seed);

        let phase1_fraction = phase1_fraction.min(0.9);
        let n = shuffled.len();
        let phase1_total = (((n as f64) * phase1_fraction).round() as usize).min(n);
        Ok(Self::deal(
            &shuffled,
            &[
                (phase1_total, phase1_levels as usize),
                (n - phase1_total, (g - phase1_levels) as usize),
            ],
        ))
    }

    /// Deals `shuffled` into consecutive regions of `(users, width)`: each
    /// region's users go round-robin to its own `width` groups, so user `i`
    /// of a region is row `i / width` of the region's group `i % width`.
    ///
    /// Every group's size follows from `(users, width)` alone, so all bounds
    /// are fixed before an item moves and each item is written straight to
    /// its final place — walking the region in rows of `width` needs no
    /// division per user and no vector ever regrows.
    fn deal(shuffled: &[u64], regions: &[(usize, usize)]) -> Self {
        let mut arena = vec![0u64; shuffled.len()];
        let mut bounds = vec![0usize];
        let mut rest = shuffled;
        for &(users, width) in regions {
            let first = bounds.len() - 1;
            for j in 0..width {
                let size = users / width + usize::from(j < users % width);
                bounds.push(bounds[first + j] + size);
            }
            let (region, tail) = rest.split_at(users);
            rest = tail;
            let starts = &bounds[first..first + width];
            for (row, dealt) in region.chunks(width).enumerate() {
                for (&item, &start) in dealt.iter().zip(starts) {
                    arena[start + row] = item;
                }
            }
        }
        Self { arena, bounds }
    }

    /// The users (item codes) assigned to level `h`.
    ///
    /// Levels are 1-based; panics when `h` is outside `1..=levels()`.
    pub fn level(&self, h: u8) -> &[u64] {
        assert!(
            (1..=self.levels()).contains(&h),
            "level {h} is outside 1..={}",
            self.levels()
        );
        &self.arena[self.bounds[h as usize - 1]..self.bounds[h as usize]]
    }

    /// Number of levels.
    pub fn levels(&self) -> u8 {
        (self.bounds.len() - 1) as u8
    }

    /// Total number of users across all groups.
    pub fn total_users(&self) -> usize {
        self.arena.len()
    }
}

/// Fisher–Yates over `items` on the `StdRng` stream of `seed` — draw for
/// draw what `SliceRandom::shuffle` does, with the bounded draw spelled out:
/// `(next_u64 · (i + 1)) >> 64` is the exact value `gen_range(0..=i)`
/// returns.  Monomorphic and local so the deal's speed does not hinge on
/// how the inliner treats the generic `gen_range` chain this release.
fn shuffle(items: &mut [u64], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = ((rng.next_u64() as u128 * (i as u128 + 1)) >> 64) as usize;
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;

    #[test]
    fn uniform_split_preserves_users_and_balances_groups() {
        let items: Vec<u64> = (0..1000).collect();
        let a = GroupAssignment::uniform_owned(items.to_vec(), 8, 1).unwrap();
        assert_eq!(a.levels(), 8);
        assert_eq!(a.total_users(), 1000);
        for h in 1..=8u8 {
            assert_eq!(a.level(h).len(), 125);
        }
        // Union of groups equals the original multiset.
        let mut all: Vec<u64> = (1..=8u8).flat_map(|h| a.level(h).to_vec()).collect();
        all.sort_unstable();
        assert_eq!(all, items);
    }

    #[test]
    fn assignment_is_seeded() {
        let items: Vec<u64> = (0..100).collect();
        let a = GroupAssignment::uniform_owned(items.to_vec(), 4, 5).unwrap();
        let b = GroupAssignment::uniform_owned(items.to_vec(), 4, 5).unwrap();
        let c = GroupAssignment::uniform_owned(items.to_vec(), 4, 6).unwrap();
        for h in 1..=4u8 {
            assert_eq!(a.level(h), b.level(h));
        }
        assert!((1..=4u8).any(|h| a.level(h) != c.level(h)));
    }

    #[test]
    fn weighted_split_gives_phase1_its_fraction() {
        let items: Vec<u64> = (0..10_000).collect();
        let a = GroupAssignment::weighted_owned(items.clone(), 10, 2, 0.1, 3).unwrap();
        assert_eq!(a.total_users(), 10_000);
        let phase1: usize = (1..=2u8).map(|h| a.level(h).len()).sum();
        assert!(
            (phase1 as f64 - 1000.0).abs() < 10.0,
            "phase1 users {phase1}"
        );
        // Phase II levels share the rest roughly equally.
        for h in 3..=10u8 {
            let len = a.level(h).len();
            assert!((len as f64 - 9000.0 / 8.0).abs() < 10.0, "level {h}: {len}");
        }
    }

    #[test]
    fn degenerate_weighted_configs_fall_back_to_uniform() {
        let items: Vec<u64> = (0..100).collect();
        let a = GroupAssignment::weighted_owned(items.clone(), 5, 0, 0.1, 1).unwrap();
        let b = GroupAssignment::uniform_owned(items.to_vec(), 5, 1).unwrap();
        for h in 1..=5u8 {
            assert_eq!(a.level(h), b.level(h));
        }
    }

    #[test]
    fn empty_population_yields_empty_groups() {
        let a = GroupAssignment::uniform_owned([].to_vec(), 4, 0).unwrap();
        assert_eq!(a.total_users(), 0);
        for h in 1..=4u8 {
            assert!(a.level(h).is_empty());
        }
    }

    /// The deal this module shipped before the arena: shuffle, then push
    /// user `i` of a region onto group `i % width`.  Kept as the oracle the
    /// arena deal must match element for element.
    fn dealt_by_push(
        items: &[u64],
        g: u8,
        phase1_levels: u8,
        phase1_fraction: f64,
        seed: u64,
    ) -> Vec<Vec<u64>> {
        let mut shuffled = items.to_vec();
        shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut groups: Vec<Vec<u64>> = vec![Vec::new(); g as usize];
        if phase1_levels == 0 || phase1_levels == g || phase1_fraction <= 0.0 {
            for (i, item) in shuffled.into_iter().enumerate() {
                groups[i % g as usize].push(item);
            }
            return groups;
        }
        let n = shuffled.len();
        let phase1_total = ((n as f64) * phase1_fraction.min(0.9)).round() as usize;
        let (phase1_items, phase2_items) = shuffled.split_at(phase1_total.min(n));
        for (i, item) in phase1_items.iter().enumerate() {
            groups[i % phase1_levels as usize].push(*item);
        }
        let phase2_levels = (g - phase1_levels) as usize;
        for (i, item) in phase2_items.iter().enumerate() {
            groups[phase1_levels as usize + (i % phase2_levels)].push(*item);
        }
        groups
    }

    #[test]
    fn arena_deal_matches_the_push_deal_element_for_element() {
        for g in [1u8, 2, 24, 255] {
            let g_us = g as usize;
            for n in [0, 1, g_us - 1, g_us, g_us + 1, 1000, 100_003] {
                let items: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37) ^ 5).collect();
                for seed in [0u64, 7, u64::MAX] {
                    let uniform = GroupAssignment::uniform_owned(items.to_vec(), g, seed).unwrap();
                    let expected = dealt_by_push(&items, g, 0, 0.0, seed);
                    assert_eq!(uniform.levels(), g);
                    assert_eq!(uniform.total_users(), n);
                    for h in 1..=g {
                        assert_eq!(
                            uniform.level(h),
                            expected[h as usize - 1],
                            "uniform n {n} g {g} seed {seed} level {h}"
                        );
                    }
                    for phase1_levels in [0, 1, g - 1, g] {
                        // 0.95 is clamped to 0.9; 1e-9 leaves phase 1 empty.
                        for fraction in [0.0, 0.1, 0.5, 0.95, 1e-9] {
                            let weighted = GroupAssignment::weighted_owned(
                                items.clone(),
                                g,
                                phase1_levels,
                                fraction,
                                seed,
                            )
                            .unwrap();
                            let expected = dealt_by_push(&items, g, phase1_levels, fraction, seed);
                            assert_eq!(weighted.levels(), g);
                            assert_eq!(weighted.total_users(), n);
                            for h in 1..=g {
                                assert_eq!(
                                    weighted.level(h),
                                    expected[h as usize - 1],
                                    "weighted n {n} g {g} g_s {phase1_levels} \
                                     fraction {fraction} seed {seed} level {h}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "level 0 is outside 1..=4")]
    fn level_zero_is_an_explicit_panic() {
        GroupAssignment::uniform_owned([1, 2, 3].to_vec(), 4, 0)
            .unwrap()
            .level(0);
    }

    #[test]
    #[should_panic(expected = "level 5 is outside 1..=4")]
    fn level_past_the_last_is_an_explicit_panic() {
        GroupAssignment::uniform_owned([1, 2, 3].to_vec(), 4, 0)
            .unwrap()
            .level(5);
    }

    #[test]
    fn impossible_splits_are_typed_errors_not_panics() {
        let items: Vec<u64> = (0..10).collect();
        let no_groups = [
            GroupAssignment::uniform_owned(items.to_vec(), 0, 1),
            GroupAssignment::weighted_owned(items.clone(), 0, 0, 0.1, 1),
        ];
        for err in no_groups.map(Result::unwrap_err) {
            assert!(matches!(
                err,
                ProtocolError::InvalidParameter {
                    name: "group count",
                    ..
                }
            ));
            assert_eq!(err.to_string(), "group count must be at least 1, got 0");
        }
        let err = GroupAssignment::weighted_owned(items.clone(), 4, 5, 0.1, 1).unwrap_err();
        assert!(matches!(
            err,
            ProtocolError::InvalidParameter {
                name: "phase-1 levels",
                ..
            }
        ));
        assert_eq!(
            err.to_string(),
            "phase-1 levels must not exceed the 4 groups, got 5"
        );
    }
}
