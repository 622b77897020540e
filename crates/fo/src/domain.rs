//! Candidate domains for frequency estimation.
//!
//! In the prefix-tree mechanisms the domain that users perturb over is not
//! the full item domain X (which may have 2^48 values) but a *candidate
//! domain* Λ_h of prefixes constructed level by level.  A user whose true
//! prefix is not in the candidate domain cannot simply report it — that
//! would leak information — so the paper assigns all out-of-domain values to
//! a reserved **dummy** slot ("for k-RR, we assign a dummy item to
//! out-of-domain items").  [`CandidateDomain`] encapsulates the
//! value ↔ index mapping together with that dummy slot.
//!
//! ## The reverse index
//!
//! Every user report costs one value → index lookup, so at the paper's
//! populations (6.48 M users on UBA) the lookup *is* the encode step.  The
//! domains are small (tens to a few hundred candidates) and most users miss
//! them — on UBA about one user in five holds an in-domain prefix — so a
//! general-purpose hash map pays twice: for a keyed hash of the value, and
//! for a hit/miss branch the predictor cannot learn.
//!
//! The index is instead a flat table of power-of-two many **buckets of four
//! `(value, index)` slots**.  A multiplicative hash (one multiply, one
//! shift) picks the bucket; the lookup compares the probe against all four
//! slots and *selects* the matching index, so it does the same work for a
//! hit, a miss, a full bucket and an empty one — there is no data-dependent
//! branch to mispredict.  Vacant slots hold the all-ones index, which makes
//! the selection an AND-fold: values are unique, so at most one slot
//! contributes anything but all ones, and a vacant slot whose stored value
//! happens to equal the probe contributes all ones again.  No value needs
//! reserving for "empty" — `0` and `u64::MAX` are ordinary candidates.
//!
//! The table is built by doubling the bucket count until no bucket
//! overflows (a domain is built once per level estimate and probed once per
//! user, so build cost is noise).  Every retry also moves to the next
//! multiplier of a fixed sequence: candidate lists can come from other
//! parties, and values crafted to collide under one multiplier must cost a
//! rebuild, not a table that doubles until memory runs out.  The table is a
//! pure function of the candidate list — equal lists build equal tables —
//! which keeps the derived `PartialEq` sound.
//!
//! Four-slot buckets with no overflow area need about n^(5/4) / 3 buckets of
//! 64 bytes before n random values all fit: 2–4 KB for 40 candidates (it
//! stays in L1 next to the chunk being encoded), 256–512 KB for 2 048.
//! That is the price of a fixed-work lookup, and why this table indexes
//! candidate domains rather than item domains.

use crate::ctr::mix64;
use std::hint::select_unpredictable;

/// Index of a value inside a [`CandidateDomain`], used as the input type of
/// every frequency oracle.
pub type DomainIndex = usize;

/// Slots per bucket of the reverse index; every lookup compares all of them.
const SLOTS: usize = 4;

/// The index stored in a vacant slot, and what a lookup that matched nothing
/// folds to.  All ones, so it is the identity of the AND-fold in
/// [`FlatIndex::get`]; no domain can hold that many values.
const VACANT: usize = usize::MAX;

/// The first multiplier tried: 2^64 / φ, which spreads consecutive values —
/// the children of one parent prefix — over distinct buckets.
const FIRST_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bucket {
    values: [u64; SLOTS],
    indices: [usize; SLOTS],
}

/// The value → index table described in the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FlatIndex {
    /// Power-of-two many buckets, at least two.
    buckets: Vec<Bucket>,
    /// Odd, so the hash is a bijection before the shift.
    multiplier: u64,
    /// `64 − log2(buckets.len())`: the hash's top bits pick the bucket.
    shift: u32,
}

impl FlatIndex {
    /// Deduplicates `values` (first occurrence wins) and indexes the
    /// survivors by position.
    fn build(values: &[u64]) -> (Vec<u64>, Self) {
        let mut buckets = (values.len() / 2).next_power_of_two().max(2);
        let mut multiplier = FIRST_MULTIPLIER;
        loop {
            if let Some(built) = Self::try_build(values, buckets, multiplier) {
                return built;
            }
            buckets *= 2;
            multiplier = mix64(multiplier) | 1;
        }
    }

    /// One attempt at a given size and multiplier; `None` when some bucket
    /// would need a fifth slot.
    fn try_build(values: &[u64], buckets: usize, multiplier: u64) -> Option<(Vec<u64>, Self)> {
        let vacant = Bucket {
            values: [0; SLOTS],
            indices: [VACANT; SLOTS],
        };
        let mut index = Self {
            buckets: vec![vacant; buckets],
            multiplier,
            shift: u64::BITS - buckets.trailing_zeros(),
        };
        let mut dedup = Vec::with_capacity(values.len());
        for &value in values {
            if index.get(value) != VACANT {
                continue;
            }
            let at = index.bucket_of(value);
            let bucket = &mut index.buckets[at];
            let slot = bucket.indices.iter().position(|&i| i == VACANT)?;
            bucket.values[slot] = value;
            bucket.indices[slot] = dedup.len();
            dedup.push(value);
        }
        Some((dedup, index))
    }

    #[inline]
    fn bucket_of(&self, value: u64) -> usize {
        (value.wrapping_mul(self.multiplier) >> self.shift) as usize
    }

    /// The index stored for `value`, or [`VACANT`].  Fixed work: one
    /// multiply, one shift, four compares, four selects.
    #[inline]
    fn get(&self, value: u64) -> usize {
        let bucket = &self.buckets[self.bucket_of(value)];
        let mut found = VACANT;
        for slot in 0..SLOTS {
            // A plain `if` is compiled back into the branch this table
            // exists to avoid; the hint keeps it a conditional move.
            found &=
                select_unpredictable(bucket.values[slot] == value, bucket.indices[slot], VACANT);
        }
        found
    }
}

/// A finite, ordered candidate domain of `u64`-encoded values (prefixes or
/// full items) with an optional dummy slot for out-of-domain inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateDomain {
    /// The candidate values in a stable order; index = position.
    values: Vec<u64>,
    /// Reverse lookup from value to index.
    index: FlatIndex,
    /// Whether the last slot is a dummy catch-all for out-of-domain values.
    has_dummy: bool,
}

impl CandidateDomain {
    /// Builds a domain from candidate values **without** a dummy slot.
    /// Duplicate values are collapsed (first occurrence wins).
    pub fn new(values: Vec<u64>) -> Self {
        Self::build(values, false)
    }

    /// Builds a domain from candidate values and appends a dummy slot that
    /// receives every out-of-domain input.
    pub fn with_dummy(values: Vec<u64>) -> Self {
        Self::build(values, true)
    }

    fn build(values: Vec<u64>, has_dummy: bool) -> Self {
        let (values, index) = FlatIndex::build(&values);
        Self {
            values,
            index,
            has_dummy,
        }
    }

    /// Total number of perturbation slots, including the dummy slot if any.
    /// This is the |X| that enters the oracle probability formulas.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len() + usize::from(self.has_dummy)
    }

    /// True when there are no candidate values (a dummy-only domain still
    /// counts as empty for this purpose).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Whether a dummy slot is present.
    #[inline]
    pub fn has_dummy(&self) -> bool {
        self.has_dummy
    }

    /// Index of a candidate value, if it is part of the domain.
    #[inline]
    pub fn index_of(&self, value: &u64) -> Option<DomainIndex> {
        let found = self.index.get(*value);
        (found != VACANT).then_some(found)
    }

    /// Maps an arbitrary user value to its perturbation input: the value's
    /// own slot when it is a candidate, otherwise the dummy slot.
    ///
    /// Returns `None` only when the value is out of domain *and* the domain
    /// has no dummy slot; callers without a dummy slot must decide how to
    /// handle such users (the baselines drop them).
    #[inline]
    pub fn encode(&self, value: &u64) -> Option<DomainIndex> {
        // Select, don't branch: hit or miss is a coin flip per user.
        let miss = if self.has_dummy {
            self.values.len()
        } else {
            VACANT
        };
        let found = self.index.get(*value);
        let slot = select_unpredictable(found == VACANT, miss, found);
        (slot != VACANT).then_some(slot)
    }

    /// The candidate value stored at `idx`, or `None` for the dummy slot and
    /// out-of-range indices.
    #[inline]
    pub fn value_at(&self, idx: DomainIndex) -> Option<&u64> {
        self.values.get(idx)
    }

    /// Iterator over the real candidate values in index order.
    pub fn values(&self) -> impl Iterator<Item = &u64> + '_ {
        self.values.iter()
    }

    /// A copy of the candidate values in index order.
    pub fn to_vec(&self) -> Vec<u64> {
        self.values.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_round_trips() {
        let d = CandidateDomain::new(vec![10, 20, 30]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.values().count(), 3);
        for (i, v) in [(0usize, 10u64), (1, 20), (2, 30)] {
            assert_eq!(d.index_of(&v), Some(i));
            assert_eq!(d.value_at(i), Some(&v));
        }
        assert_eq!(d.index_of(&99), None);
        assert_eq!(d.value_at(3), None);
    }

    #[test]
    fn dummy_slot_receives_out_of_domain() {
        let d = CandidateDomain::with_dummy(vec![1, 2]);
        assert_eq!(d.len(), 3);
        assert_eq!(d.values().count(), 2);
        assert_eq!(d.encode(&1), Some(0));
        assert_eq!(d.encode(&7), Some(2));
        // The dummy slot has no value.
        assert_eq!(d.value_at(2), None);
    }

    #[test]
    fn no_dummy_out_of_domain_is_none() {
        let d = CandidateDomain::new(vec![1, 2]);
        assert_eq!(d.encode(&7), None);
        assert!(!d.has_dummy());
    }

    #[test]
    fn duplicates_are_collapsed() {
        let d = CandidateDomain::new(vec![5, 5, 6, 6, 6]);
        assert_eq!(d.values().count(), 2);
        assert_eq!(d.index_of(&5), Some(0));
        assert_eq!(d.index_of(&6), Some(1));
    }

    #[test]
    fn zero_and_all_ones_are_ordinary_values() {
        // Vacant slots store value 0 and the all-ones index; neither may
        // answer for a probe.
        let d = CandidateDomain::new(vec![5]);
        assert_eq!(d.index_of(&0), None);
        assert_eq!(d.index_of(&u64::MAX), None);
        let d = CandidateDomain::with_dummy(vec![u64::MAX, 0, 9]);
        assert_eq!(d.index_of(&u64::MAX), Some(0));
        assert_eq!(d.index_of(&0), Some(1));
        assert_eq!(d.encode(&1), Some(3));
    }

    #[test]
    fn values_crafted_to_collide_cost_a_rebuild_not_memory() {
        // k · M⁻¹ hashes to k under the first multiplier M: the top bits are
        // zero, so all of them land in bucket 0 however often the table
        // doubles.  Only the move to the next multiplier separates them.
        let mut inverse = FIRST_MULTIPLIER;
        for _ in 0..6 {
            inverse =
                inverse.wrapping_mul(2u64.wrapping_sub(FIRST_MULTIPLIER.wrapping_mul(inverse)));
        }
        let values: Vec<u64> = (0..200u64).map(|k| k.wrapping_mul(inverse)).collect();
        let d = CandidateDomain::new(values.clone());
        assert_ne!(d.index.multiplier, FIRST_MULTIPLIER);
        assert!(d.index.buckets.len() <= 4096, "{}", d.index.buckets.len());
        for (i, v) in values.iter().enumerate() {
            assert_eq!(d.index_of(v), Some(i));
        }
    }

    #[test]
    fn empty_domain_is_empty() {
        let d = CandidateDomain::new(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.index_of(&0), None);
        assert_eq!(d.encode(&0), None);
        let d = CandidateDomain::with_dummy(vec![]);
        assert!(d.is_empty());
        assert_eq!(d.len(), 1);
        assert_eq!(d.index_of(&0), None);
        assert_eq!(d.encode(&0), Some(0));
    }
}
