//! Exact (non-private) frequency statistics and ground truths.

use std::collections::HashMap;

/// An exact frequency table over item codes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrequencyTable {
    counts: HashMap<u64, u64>,
    total: u64,
}

impl FrequencyTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a table by counting one entry per user.
    pub fn from_items(items: &[u64]) -> Self {
        let mut table = Self::new();
        for item in items {
            table.add(*item, 1);
        }
        table
    }

    /// Adds `count` occurrences of `item`.
    pub fn add(&mut self, item: u64, count: u64) {
        *self.counts.entry(item).or_insert(0) += count;
        self.total += count;
    }

    /// Merges another table into this one.
    pub fn merge(&mut self, other: &FrequencyTable) {
        for (item, count) in &other.counts {
            self.add(*item, *count);
        }
    }

    /// Exact count of `item`.
    pub fn count(&self, item: u64) -> u64 {
        self.counts.get(&item).copied().unwrap_or(0)
    }

    /// Exact relative frequency of `item`.
    pub fn frequency(&self, item: u64) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(item) as f64 / self.total as f64
        }
    }

    /// Total number of counted occurrences.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct items.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Items sorted by count descending (ties broken by item value), with
    /// their counts.
    pub fn ranked(&self) -> Vec<(u64, u64)> {
        let mut items: Vec<(u64, u64)> = self.counts.iter().map(|(i, c)| (*i, *c)).collect();
        items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        items
    }

    /// The top-`k` items by exact count.
    pub fn top_k(&self, k: usize) -> Vec<u64> {
        self.ranked().into_iter().take(k).map(|(i, _)| i).collect()
    }

    /// Iterator over `(item, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &u64)> {
        self.counts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_frequency() {
        let t = FrequencyTable::from_items(&[1, 2, 2, 3, 3, 3]);
        assert_eq!(t.total(), 6);
        assert_eq!(t.distinct(), 3);
        assert_eq!(t.count(3), 3);
        assert_eq!(t.count(9), 0);
        assert!((t.frequency(2) - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(t.top_k(2), vec![3, 2]);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = FrequencyTable::from_items(&[1, 2]);
        a.merge(&FrequencyTable::from_items(&[2, 3]));
        assert_eq!(a.count(2), 2);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn ranked_breaks_ties_deterministically() {
        let t = FrequencyTable::from_items(&[5, 4, 5, 4, 7]);
        assert_eq!(t.ranked(), vec![(4, 2), (5, 2), (7, 1)]);
    }

    #[test]
    fn empty_table_behaviour() {
        let t = FrequencyTable::new();
        assert_eq!(t.frequency(1), 0.0);
        assert!(t.top_k(3).is_empty());
    }

    #[test]
    fn global_top_k_sums_across_parties() {
        // Item 10 is locally second everywhere but globally first.
        let a = [1, 1, 1, 10, 10];
        let b = [2, 2, 2, 10, 10];
        let c = [3, 3, 3, 10, 10];
        let mut table = FrequencyTable::new();
        for item in a.iter().chain(&b).chain(&c) {
            table.add(*item, 1);
        }
        assert_eq!(table.top_k(1), vec![10]);
        let top3 = table.top_k(4);
        assert_eq!(top3.len(), 4);
        assert_eq!(top3[0], 10);
    }
}
