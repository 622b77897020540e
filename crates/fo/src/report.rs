//! Perturbed user reports and their wire sizes.
//!
//! Every frequency oracle emits a different report shape: GRR sends back a
//! single domain index, OUE a perturbed bit-vector over the whole candidate
//! domain, and OLH a hash seed plus a perturbed hash bucket.  The report
//! enum keeps them in one type so parties can hold heterogeneous report
//! buffers, and exposes [`Report::size_bits`] so the federated layer can
//! account for communication cost (Table 1 / Table 4 of the paper).

/// A single user's perturbed report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Report {
    /// GRR: the reported domain index.
    Item(u32),
    /// OUE: the perturbed unary-encoded bit-vector (one bit per domain slot).
    Bits(Vec<bool>),
    /// OLH: the per-user hash seed and the perturbed bucket in `[0, d')`.
    Hashed {
        /// Seed identifying the user's hash function within the universal family.
        seed: u64,
        /// Perturbed bucket value.
        value: u32,
    },
}

impl Report {
    /// Size of the report on the wire, in bits.
    ///
    /// GRR needs ⌈log₂|X|⌉ bits but we account a fixed 32-bit index (the
    /// paper's cost model likewise charges a constant `b` bits per
    /// prefix/count pair).  OUE is one bit per domain slot.  OLH is a 64-bit
    /// seed plus a 32-bit bucket.
    pub fn size_bits(&self) -> usize {
        match self {
            Report::Item(_) => 32,
            Report::Bits(bits) => bits.len(),
            Report::Hashed { .. } => 64 + 32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_accounting_matches_shapes() {
        assert_eq!(Report::Item(3).size_bits(), 32);
        assert_eq!(Report::Bits(vec![true; 17]).size_bits(), 17);
        assert_eq!(Report::Hashed { seed: 1, value: 2 }.size_bits(), 96);
    }

    #[test]
    fn reports_compare_and_clone() {
        let reports = vec![
            Report::Item(5),
            Report::Bits(vec![true, false, true]),
            Report::Hashed { seed: 99, value: 3 },
        ];
        let copies = reports.clone();
        assert_eq!(reports, copies);
        assert_ne!(Report::Item(5), Report::Item(6));
    }
}
