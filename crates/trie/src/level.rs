//! Level schedule of the prefix tree.
//!
//! With a maximum binary length `m` and a granularity `g` (the number of
//! user groups / estimation iterations), level `h ∈ {1, …, g}` of the tree
//! works with prefixes of length `l_h = ⌈h·m/g⌉` (Algorithm 2, line 6).
//! The *step size* `m/g` is the paper's "extension length" studied in
//! Table 3.

/// The mapping from tree level to prefix length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelSchedule {
    /// Maximum binary length of an item code (the paper uses m = 48).
    m: u8,
    /// Number of levels / user groups (the paper uses g = 24 or 12).
    g: u8,
}

impl LevelSchedule {
    /// Creates a schedule for `m`-bit items over `g` levels.
    ///
    /// # Panics
    ///
    /// Panics when `g` is zero, `m` is zero, `g > m` (levels would repeat a
    /// length) or `m > 64` (items would not fit a `u64`).
    pub fn new(m: u8, g: u8) -> Self {
        assert!(m > 0 && m <= 64, "item width must be in 1..=64, got {m}");
        assert!(g > 0, "granularity must be positive");
        assert!(
            g as u16 <= m as u16,
            "granularity {g} cannot exceed item width {m}"
        );
        Self { m, g }
    }

    /// Maximum binary length `m`.
    #[inline]
    pub fn max_bits(&self) -> u8 {
        self.m
    }

    /// Granularity `g` — number of levels and of user groups.
    #[inline]
    pub fn granularity(&self) -> u8 {
        self.g
    }

    /// Prefix length at level `h` (1-based): `l_h = ⌈h·m/g⌉`.  Level 0 is
    /// the root and has length 0.
    pub fn prefix_len(&self, h: u8) -> u8 {
        assert!(h <= self.g, "level {h} exceeds granularity {}", self.g);
        ((h as u32 * self.m as u32).div_ceil(self.g as u32)) as u8
    }

    /// Number of bits appended when going from level `h − 1` to level `h`.
    pub fn step(&self, h: u8) -> u8 {
        assert!(
            h >= 1 && h <= self.g,
            "level {h} out of range 1..={}",
            self.g
        );
        self.prefix_len(h) - self.prefix_len(h - 1)
    }

    /// Iterator over all levels `1..=g`.
    pub fn levels(&self) -> impl Iterator<Item = u8> {
        1..=self.g
    }

    /// The shared-trie depth `g_s = ⌊ratio·g⌋` used for Phase I (the paper
    /// heuristically sets ratio = 0.25), clamped to at least one level and
    /// at most `g − 1` so Phase II always has work left.
    pub fn shared_levels(&self, ratio: f64) -> u8 {
        let gs = (ratio * self.g as f64).floor() as u8;
        gs.clamp(1, self.g.saturating_sub(1).max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_schedule() {
        // m = 48, g = 24 → step 2 at every level.
        let s = LevelSchedule::new(48, 24);
        assert_eq!(s.prefix_len(0), 0);
        assert_eq!(s.prefix_len(1), 2);
        assert_eq!(s.prefix_len(12), 24);
        assert_eq!(s.prefix_len(24), 48);
        for h in s.levels() {
            assert_eq!(s.step(h), 2);
        }
    }

    #[test]
    fn uneven_schedule_still_covers_all_bits() {
        // m = 48, g = 7: steps vary but the last level reaches m.
        let s = LevelSchedule::new(48, 7);
        let mut total = 0u8;
        for h in s.levels() {
            total += s.step(h);
        }
        assert_eq!(total, 48);
        assert_eq!(s.prefix_len(7), 48);
        // Lengths are strictly increasing.
        for h in 1..=7u8 {
            assert!(s.prefix_len(h) > s.prefix_len(h - 1));
        }
    }

    #[test]
    fn step_sizes_for_table_three() {
        // Step size 2, 4 and 6 correspond to g = 24, 12 and 8 for m = 48.
        for (g, step) in [(24, 2), (12, 4), (8, 6)] {
            let s = LevelSchedule::new(48, g);
            assert!(s.levels().all(|h| s.step(h) == step), "g {g}");
        }
    }

    #[test]
    fn shared_levels_follow_ratio_and_are_clamped() {
        let s = LevelSchedule::new(48, 24);
        assert_eq!(s.shared_levels(0.25), 6);
        assert_eq!(s.shared_levels(0.0), 1);
        assert_eq!(s.shared_levels(1.0), 23);
        let tiny = LevelSchedule::new(4, 2);
        assert_eq!(tiny.shared_levels(0.25), 1);
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn rejects_granularity_larger_than_width() {
        LevelSchedule::new(8, 9);
    }

    #[test]
    #[should_panic(expected = "exceeds granularity")]
    fn rejects_levels_beyond_g() {
        LevelSchedule::new(8, 4).prefix_len(5);
    }
}
