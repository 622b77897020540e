//! Per-party datasets.
//!
//! Each party holds a distinct set of users and every user holds exactly one
//! item ("Each user in a party holds only a single word or item, and
//! multiple occurrences are sampled as one", Section 7.1).  Items are stored
//! as m-bit codes so the mechanisms can extract prefixes directly, in an
//! [`ItemStream`] that the party shares with every reader it hands out.

use crate::stats::FrequencyTable;
use crate::stream::ItemStream;
use fedhh_trie::PrefixTree;

/// One party's local dataset: a name and the item code held by each user.
#[derive(Debug, Clone)]
pub struct PartyData {
    name: String,
    /// One m-bit item code per user.
    items: ItemStream,
    /// Width of the item codes in bits.
    code_bits: u8,
}

impl PartyData {
    /// Creates a party dataset from per-user item codes.
    pub fn new(name: impl Into<String>, items: Vec<u64>, code_bits: u8) -> Self {
        Self {
            name: name.into(),
            items: ItemStream::from_items(items),
            code_bits,
        }
    }

    /// Creates a party over an existing stream handle: how the epoch
    /// evolver hands out parties that share its item vectors.
    pub(crate) fn from_stream(name: impl Into<String>, items: ItemStream, code_bits: u8) -> Self {
        Self {
            name: name.into(),
            items,
            code_bits,
        }
    }

    /// The party's display name (e.g. `"RDB/reddit"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of users in this party.
    pub fn user_count(&self) -> usize {
        self.items.len()
    }

    /// A cheap handle on the party's item sequence, shared with the party:
    /// the way mechanisms consume party data.
    pub fn stream(&self) -> ItemStream {
        self.items.clone()
    }

    /// The item codes, one entry per user.
    pub fn items(&self) -> &[u64] {
        self.items.as_slice()
    }

    /// Width of the item codes in bits.
    pub fn code_bits(&self) -> u8 {
        self.code_bits
    }

    /// Number of distinct item codes held by this party's users.
    pub fn distinct_items(&self) -> usize {
        self.frequency_table().distinct()
    }

    /// Exact local frequency table.
    pub fn frequency_table(&self) -> FrequencyTable {
        let mut table = FrequencyTable::new();
        for &item in self.items() {
            table.add(item, 1);
        }
        table
    }

    /// Exact counted prefix tree over this party's items.
    pub fn prefix_tree(&self) -> PrefixTree {
        let mut tree = PrefixTree::new(self.code_bits);
        for &item in self.items() {
            tree.insert(item, 1);
        }
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn party() -> PartyData {
        PartyData::new("test", vec![1, 1, 2, 3, 3, 3], 8)
    }

    #[test]
    fn basic_accessors() {
        let p = party();
        assert_eq!(p.name(), "test");
        assert_eq!(p.user_count(), 6);
        assert_eq!(p.distinct_items(), 3);
        assert_eq!(p.code_bits(), 8);
        assert_eq!(p.stream().as_slice(), &[1, 1, 2, 3, 3, 3]);
        assert_eq!(p.stream().materialize(), p.items());
    }

    #[test]
    fn local_top_k_ranks_by_count() {
        let p = party();
        assert_eq!(p.frequency_table().top_k(2), vec![3, 1]);
        assert_eq!(p.frequency_table().top_k(10).len(), 3);
    }

    #[test]
    fn prefix_tree_matches_items() {
        let p = party();
        let tree = p.prefix_tree();
        assert_eq!(tree.total(), 6);
        let items = tree.level_counts(tree.bits());
        assert_eq!(items[0], (fedhh_trie::Prefix::new(3, tree.bits()), 3));
    }
}
