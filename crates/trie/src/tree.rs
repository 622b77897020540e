//! A counted prefix tree for exact (non-private) frequency queries.
//!
//! The mechanisms themselves never materialise the full trie — they only
//! ever hold one level's candidate domain — but the evaluation harness needs
//! exact prefix frequencies to compute ground truths, cover rates and the
//! "needed prefixes" of the adaptive-extension analysis.  [`PrefixTree`]
//! provides those queries by aggregating item counts level by level on
//! demand, which stays cheap because only prefixes that actually occur in
//! the data are stored.

use crate::bits::Prefix;
use std::collections::HashMap;

/// A counted prefix tree over m-bit item codes.
#[derive(Debug, Clone)]
pub struct PrefixTree {
    /// Width of the item codes.
    m: u8,
    /// Exact count of each item code.
    item_counts: HashMap<u64, u64>,
    /// Total number of inserted items (with multiplicity).
    total: u64,
}

impl PrefixTree {
    /// Creates an empty tree over `m`-bit item codes.
    pub fn new(m: u8) -> Self {
        assert!(m > 0 && m <= 64, "item width must be in 1..=64");
        Self {
            m,
            item_counts: HashMap::new(),
            total: 0,
        }
    }

    /// Builds a tree from a slice of item codes (one entry per user).
    pub fn from_items(m: u8, items: &[u64]) -> Self {
        let mut tree = Self::new(m);
        for item in items {
            tree.insert(*item, 1);
        }
        tree
    }

    /// Inserts `count` occurrences of an item code.
    pub fn insert(&mut self, item: u64, count: u64) {
        *self.item_counts.entry(item).or_insert(0) += count;
        self.total += count;
    }

    /// Item code width.
    #[inline]
    pub fn bits(&self) -> u8 {
        self.m
    }

    /// Total number of inserted items (with multiplicity).
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct item codes.
    #[inline]
    pub fn distinct_items(&self) -> usize {
        self.item_counts.len()
    }

    /// Exact count of all items sharing a prefix.
    pub fn prefix_count(&self, prefix: &Prefix) -> u64 {
        self.item_counts
            .iter()
            .filter(|(item, _)| prefix.matches_item(**item, self.m))
            .map(|(_, c)| *c)
            .sum()
    }

    /// All prefixes of length `len` with non-zero count, together with their
    /// counts, in descending count order (ties broken by prefix value).
    pub fn level_counts(&self, len: u8) -> Vec<(Prefix, u64)> {
        let mut counts: HashMap<Prefix, u64> = HashMap::new();
        for (item, c) in &self.item_counts {
            *counts
                .entry(Prefix::of_item(*item, self.m, len))
                .or_insert(0) += c;
        }
        let mut out: Vec<(Prefix, u64)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The top-`k` prefixes of length `len` by exact count.
    pub fn top_k_prefixes(&self, len: u8, k: usize) -> Vec<Prefix> {
        self.level_counts(len)
            .into_iter()
            .take(k)
            .map(|(p, _)| p)
            .collect()
    }

    /// The top-`k` item codes by exact count (full-length heavy hitters).
    pub fn top_k_items(&self, k: usize) -> Vec<u64> {
        let mut items: Vec<(u64, u64)> = self.item_counts.iter().map(|(i, c)| (*i, *c)).collect();
        items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        items.into_iter().take(k).map(|(i, _)| i).collect()
    }

    /// Merges another tree (same width) into this one, summing counts.
    pub fn merge(&mut self, other: &PrefixTree) {
        assert_eq!(self.m, other.m, "cannot merge trees of different widths");
        for (item, count) in &other.item_counts {
            self.insert(*item, *count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact count of one item code: its full-length prefix's count.
    fn item_count(tree: &PrefixTree, item: u64) -> u64 {
        tree.prefix_count(&Prefix::new(item, tree.bits()))
    }

    fn sample_tree() -> PrefixTree {
        // Items over m = 4 bits with known counts.
        let mut tree = PrefixTree::new(4);
        tree.insert(0b0000, 5);
        tree.insert(0b0001, 3);
        tree.insert(0b0100, 2);
        tree.insert(0b1000, 7);
        tree.insert(0b1111, 1);
        tree
    }

    #[test]
    fn item_and_prefix_counts_agree() {
        let tree = sample_tree();
        assert_eq!(tree.total(), 18);
        assert_eq!(tree.distinct_items(), 5);
        assert_eq!(item_count(&tree, 0b0000), 5);
        assert_eq!(item_count(&tree, 0b0010), 0);
        // Prefix 00 covers 0000 and 0001.
        assert_eq!(tree.prefix_count(&Prefix::new(0b00, 2)), 8);
        // Prefix 0 covers 0000, 0001, 0100.
        assert_eq!(tree.prefix_count(&Prefix::new(0b0, 1)), 10);
        assert_eq!(tree.prefix_count(&Prefix::new(0b1, 1)), 8);
        // The root covers everything.
        assert_eq!(tree.prefix_count(&Prefix::ROOT), 18);
    }

    #[test]
    fn level_counts_are_sorted_and_complete() {
        let tree = sample_tree();
        let level2 = tree.level_counts(2);
        // Prefixes present: 00 (8), 10 (7), 01 (2), 11 (1).
        assert_eq!(level2.len(), 4);
        assert_eq!(level2[0], (Prefix::new(0b00, 2), 8));
        assert_eq!(level2[1], (Prefix::new(0b10, 2), 7));
        assert_eq!(level2[3], (Prefix::new(0b11, 2), 1));
        let total: u64 = level2.iter().map(|(_, c)| c).sum();
        assert_eq!(total, tree.total());
    }

    #[test]
    fn top_k_queries() {
        let tree = sample_tree();
        assert_eq!(tree.top_k_items(2), vec![0b1000, 0b0000]);
        assert_eq!(
            tree.top_k_prefixes(2, 2),
            vec![Prefix::new(0b00, 2), Prefix::new(0b10, 2)]
        );
        // Asking for more than exists returns what exists.
        assert_eq!(tree.top_k_items(100).len(), 5);
    }

    #[test]
    fn from_items_counts_multiplicity() {
        let tree = PrefixTree::from_items(4, &[1, 1, 1, 2, 3, 3]);
        assert_eq!(item_count(&tree, 1), 3);
        assert_eq!(item_count(&tree, 2), 1);
        assert_eq!(item_count(&tree, 3), 2);
        assert_eq!(tree.total(), 6);
    }

    #[test]
    fn merge_sums_counts() {
        let mut a = PrefixTree::from_items(4, &[1, 2]);
        let b = PrefixTree::from_items(4, &[2, 3]);
        a.merge(&b);
        assert_eq!(item_count(&a, 1), 1);
        assert_eq!(item_count(&a, 2), 2);
        assert_eq!(item_count(&a, 3), 1);
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn empty_tree_frequencies_are_zero() {
        let tree = PrefixTree::new(8);
        assert_eq!(tree.prefix_count(&Prefix::ROOT), 0);
        assert!(tree.top_k_items(3).is_empty());
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn merging_different_widths_panics() {
        let mut a = PrefixTree::new(4);
        a.merge(&PrefixTree::new(8));
    }
}
