//! Bit-string prefixes over an m-bit item domain.
//!
//! An item is an m-bit code (m ≤ 64, the paper uses m = 48).  A [`Prefix`]
//! is the first `len` bits of such a code, stored right-aligned in a `u64`
//! so that prefixes are cheap to hash, compare and extend.  For example the
//! 3-bit prefix `101` of the 8-bit item `1011_0110` is stored as the value
//! `0b101` with `len = 3`.

use std::fmt;

/// A length-aware bit-string prefix of an m-bit item code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix {
    /// The prefix bits, right-aligned (the most significant prefix bit is
    /// bit `len − 1` of `value`).
    value: u64,
    /// Number of meaningful bits in `value`.
    len: u8,
}

impl Prefix {
    /// The empty prefix (the root of the trie).
    pub const ROOT: Prefix = Prefix { value: 0, len: 0 };

    /// Creates a prefix from raw bits and a length, masking away any bits
    /// above `len`.
    pub fn new(value: u64, len: u8) -> Self {
        assert!(len <= 64, "prefix length must be at most 64 bits");
        Self {
            value: mask(value, len),
            len,
        }
    }

    /// Extracts the first `len` bits of an `m`-bit item code.
    ///
    /// The item's most significant bit (bit `m − 1`) is the first bit of the
    /// prefix, matching the paper's "first two-bit prefix" wording.
    pub fn of_item(item: u64, m: u8, len: u8) -> Self {
        assert!(len <= m, "prefix length {len} exceeds item width {m}");
        assert!(m <= 64, "item width must be at most 64 bits");
        if len == 0 {
            return Self::ROOT;
        }
        Self {
            value: (item >> (m - len)) & low_mask(len),
            len,
        }
    }

    /// The raw prefix bits, right-aligned.
    #[inline]
    pub fn value(&self) -> u64 {
        self.value
    }

    /// The number of bits in this prefix.
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// True for the zero-length root prefix.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `extra` bits (given right-aligned in `suffix`) to this
    /// prefix, producing a longer prefix.
    pub fn extend(&self, suffix: u64, extra: u8) -> Self {
        assert!(
            self.len + extra <= 64,
            "extended prefix would exceed 64 bits"
        );
        Self {
            value: (self.value << extra) | mask(suffix, extra),
            len: self.len + extra,
        }
    }

    /// Truncates this prefix to its first `len` bits.
    pub fn truncate(&self, len: u8) -> Self {
        assert!(
            len <= self.len,
            "cannot truncate {} bits to {len}",
            self.len
        );
        Self {
            value: self.value >> (self.len - len),
            len,
        }
    }

    /// True when `self` is a prefix of (or equal to) `other`.
    pub fn is_prefix_of(&self, other: &Prefix) -> bool {
        self.len <= other.len && other.truncate(self.len).value == self.value
    }

    /// True when this prefix matches the first `len` bits of an `m`-bit item.
    pub fn matches_item(&self, item: u64, m: u8) -> bool {
        Prefix::of_item(item, m, self.len) == *self
    }

    /// Enumerates all `2^extra` child prefixes obtained by appending every
    /// possible `extra`-bit suffix.
    pub fn children(&self, extra: u8) -> Vec<Prefix> {
        assert!(
            extra <= 20,
            "refusing to enumerate more than 2^20 children at once"
        );
        (0..(1u64 << extra))
            .map(|s| self.extend(s, extra))
            .collect()
    }

    /// Renders the prefix as a 0/1 string, e.g. `"101"`.
    pub fn to_bit_string(&self) -> String {
        (0..self.len)
            .rev()
            .map(|i| if (self.value >> i) & 1 == 1 { '1' } else { '0' })
            .collect()
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            f.write_str("ε")
        } else {
            f.write_str(&self.to_bit_string())
        }
    }
}

#[inline]
fn low_mask(bits: u8) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[inline]
pub(crate) fn mask(value: u64, bits: u8) -> u64 {
    value & low_mask(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_item_takes_leading_bits() {
        // item = 1011_0110 over m = 8 bits.
        let item = 0b1011_0110u64;
        assert_eq!(Prefix::of_item(item, 8, 0), Prefix::ROOT);
        assert_eq!(Prefix::of_item(item, 8, 1), Prefix::new(0b1, 1));
        assert_eq!(Prefix::of_item(item, 8, 3), Prefix::new(0b101, 3));
        assert_eq!(Prefix::of_item(item, 8, 8), Prefix::new(item, 8));
    }

    #[test]
    fn extend_and_truncate_round_trip() {
        let p = Prefix::new(0b10, 2);
        let q = p.extend(0b11, 2);
        assert_eq!(q, Prefix::new(0b1011, 4));
        assert_eq!(q.truncate(2), p);
        assert_eq!(q.truncate(0), Prefix::ROOT);
    }

    #[test]
    fn prefix_containment() {
        let short = Prefix::new(0b10, 2);
        let long = Prefix::new(0b1011, 4);
        let other = Prefix::new(0b1111, 4);
        assert!(short.is_prefix_of(&long));
        assert!(!short.is_prefix_of(&other));
        assert!(short.is_prefix_of(&short));
        assert!(!long.is_prefix_of(&short));
        assert!(Prefix::ROOT.is_prefix_of(&long));
    }

    #[test]
    fn matches_item_agrees_with_of_item() {
        let item = 0b1100_1010u64;
        let p = Prefix::of_item(item, 8, 4);
        assert!(p.matches_item(item, 8));
        assert!(!p.matches_item(0b0000_1010, 8));
    }

    #[test]
    fn children_enumerates_all_suffixes() {
        let p = Prefix::new(0b1, 1);
        let kids = p.children(2);
        assert_eq!(kids.len(), 4);
        assert_eq!(kids[0], Prefix::new(0b100, 3));
        assert_eq!(kids[3], Prefix::new(0b111, 3));
        for kid in &kids {
            assert!(p.is_prefix_of(kid));
        }
    }

    #[test]
    fn masking_drops_extra_bits() {
        let p = Prefix::new(0b111111, 2);
        assert_eq!(p.value(), 0b11);
        let e = Prefix::ROOT.extend(0b1010, 2);
        assert_eq!(e.value(), 0b10);
    }

    #[test]
    fn display_renders_bits() {
        assert_eq!(Prefix::new(0b101, 3).to_string(), "101");
        assert_eq!(Prefix::new(0b0001, 4).to_string(), "0001");
        assert_eq!(Prefix::ROOT.to_string(), "ε");
    }

    #[test]
    fn full_width_prefixes_work() {
        let item = u64::MAX;
        let p = Prefix::of_item(item, 64, 64);
        assert_eq!(p.value(), u64::MAX);
        assert_eq!(p.len(), 64);
    }
}
