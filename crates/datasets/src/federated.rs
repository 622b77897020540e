//! Multi-party federated datasets.

use crate::party::PartyData;
use crate::stats::FrequencyTable;
use fedhh_trie::{ItemEncoder, PrefixTree};

/// A federated dataset: several parties, each with its own users, over a
/// shared m-bit item code space.
#[derive(Debug, Clone)]
pub struct FederatedDataset {
    name: String,
    parties: Vec<PartyData>,
    /// Width of the item code space in bits.
    code_bits: u8,
    /// The encoder that maps raw item identifiers to codes (kept so heavy
    /// hitter codes can be decoded back to item identifiers).
    encoder: ItemEncoder,
}

impl FederatedDataset {
    /// Assembles a federated dataset from its parties.
    pub fn new(
        name: impl Into<String>,
        parties: Vec<PartyData>,
        code_bits: u8,
        encoder: ItemEncoder,
    ) -> Self {
        assert!(
            !parties.is_empty(),
            "a federated dataset needs at least one party"
        );
        assert!(
            parties.iter().all(|p| p.code_bits() == code_bits),
            "all parties must use the same code width"
        );
        Self {
            name: name.into(),
            parties,
            code_bits,
            encoder,
        }
    }

    /// Dataset display name (e.g. `"RDB"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parties, in construction order.
    pub fn parties(&self) -> &[PartyData] {
        &self.parties
    }

    /// Number of parties.
    pub fn party_count(&self) -> usize {
        self.parties.len()
    }

    /// Width of the item code space.
    pub fn code_bits(&self) -> u8 {
        self.code_bits
    }

    /// The item encoder used to build the codes.
    pub fn encoder(&self) -> &ItemEncoder {
        &self.encoder
    }

    /// Total number of users across all parties.
    pub fn total_users(&self) -> usize {
        self.parties.iter().map(PartyData::user_count).sum()
    }

    /// Exact global frequency table (summed over parties).
    pub fn global_frequency(&self) -> FrequencyTable {
        let mut table = FrequencyTable::new();
        for party in &self.parties {
            table.merge(&party.frequency_table());
        }
        table
    }

    /// The exact federated top-`k` heavy hitters (Definition 4.1).
    pub fn ground_truth_top_k(&self, k: usize) -> Vec<u64> {
        self.global_frequency().top_k(k)
    }

    /// Exact global prefix tree (summed over parties).
    pub fn global_prefix_tree(&self) -> PrefixTree {
        let mut tree = PrefixTree::new(self.code_bits);
        for party in &self.parties {
            tree.merge(&party.prefix_tree());
        }
        tree
    }

    /// Number of distinct item codes appearing anywhere in the federation.
    pub fn distinct_items(&self) -> usize {
        self.global_frequency().distinct()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> FederatedDataset {
        let enc = ItemEncoder::new(8, 1);
        let a = PartyData::new("a", vec![1, 1, 1, 2, 5, 5], 8);
        let b = PartyData::new("b", vec![2, 2, 2, 5, 5, 9], 8);
        FederatedDataset::new("toy", vec![a, b], 8, enc)
    }

    #[test]
    fn global_statistics_sum_over_parties() {
        let d = dataset();
        assert_eq!(d.party_count(), 2);
        assert_eq!(d.total_users(), 12);
        let freq = d.global_frequency();
        assert_eq!(freq.count(2), 4);
        assert_eq!(freq.count(5), 4);
        assert_eq!(freq.count(1), 3);
        assert_eq!(d.distinct_items(), 4);
    }

    #[test]
    fn ground_truth_ranks_by_global_count() {
        let d = dataset();
        let top = d.ground_truth_top_k(2);
        // Items 2 and 5 both have count 4; ties break by item value.
        assert_eq!(top, vec![2, 5]);
        assert_eq!(d.ground_truth_top_k(10).len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn rejects_empty_federation() {
        FederatedDataset::new("x", vec![], 8, ItemEncoder::new(8, 0));
    }

    #[test]
    #[should_panic(expected = "same code width")]
    fn rejects_mixed_code_widths() {
        let enc = ItemEncoder::new(8, 1);
        let a = PartyData::new("a", vec![1], 8);
        let b = PartyData::new("b", vec![1], 16);
        FederatedDataset::new("bad", vec![a, b], 8, enc);
    }
}
