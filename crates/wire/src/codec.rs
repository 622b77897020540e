//! The [`Encode`] / [`Decode`] traits, the byte [`Reader`], and the codec
//! primitives (varints, fixed-width floats, strings, sequences).
//!
//! Integers travel as LEB128 varints so the common small values (levels,
//! rounds, candidate counts) cost one byte; `f64` travels as its exact
//! 8-byte little-endian bit pattern so estimates survive the wire
//! bit-identically; candidate values travel as fixed 8-byte words (see
//! [`put_u64_fixed`]) so per-pair wire cost stays aligned with the paper's
//! `b`-bits-per-pair accounting.

use crate::error::WireError;

/// Upper bound a decoder will pre-allocate for in one step, in elements.
/// Longer sequences still decode (the vector grows as bytes actually
/// arrive); the cap only stops a corrupt length prefix from allocating
/// gigabytes up front.
const MAX_PREALLOC: usize = 1 << 16;

/// A value that can serialise itself into the wire format.
///
/// Encoding is infallible: every in-memory value has a representation.
pub trait Encode {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
}

/// A value that can parse itself back out of the wire format.
pub trait Decode: Sized {
    /// Reads one value, advancing the reader past its bytes.
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// A cursor over a byte slice with typed, bounds-checked take operations.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over a byte slice.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes exactly `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Takes one byte.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Takes a LEB128 varint (at most 10 bytes).
    pub fn take_varint(&mut self) -> Result<u64, WireError> {
        let mut value: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.take_u8()?;
            let part = (byte & 0x7F) as u64;
            // The 10th byte may only carry the final bit of a 64-bit value.
            if shift == 63 && part > 1 {
                return Err(WireError::VarintOverflow);
            }
            value |= part << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(WireError::VarintOverflow)
    }

    /// Takes a varint and narrows it to `usize`.
    pub fn take_len(&mut self) -> Result<usize, WireError> {
        let raw = self.take_varint()?;
        usize::try_from(raw).map_err(|_| WireError::LengthOverflow { length: raw })
    }

    /// Takes a fixed 8-byte little-endian word.
    pub fn take_u64_fixed(&mut self) -> Result<u64, WireError> {
        let bytes = self.take_bytes(8)?;
        let mut word = [0u8; 8];
        word.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(word))
    }

    /// Takes an `f64` from its exact 8-byte bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.take_u64_fixed()?))
    }
}

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a fixed 8-byte little-endian word (used for candidate values,
/// whose wire cost must stay aligned with the `PAIR_BITS` accounting
/// regardless of magnitude).
pub fn put_u64_fixed(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends an `f64` as its exact 8-byte bit pattern.
pub fn put_f64(out: &mut Vec<u8>, value: f64) {
    put_u64_fixed(out, value.to_bits());
}

/// Encodes a value into a fresh byte vector.
pub fn to_bytes<T: Encode + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value from a byte slice, requiring every byte to be consumed.
pub fn from_bytes<T: Decode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut reader = Reader::new(bytes);
    let value = T::decode(&mut reader)?;
    if !reader.is_empty() {
        return Err(WireError::TrailingBytes {
            trailing: reader.remaining(),
        });
    }
    Ok(value)
}

/// A conservative pre-allocation for a decoded sequence of `len` elements
/// that each take at least `min_element_bytes` (≥ 1) of the `remaining`
/// input: never more than that input could actually hold, and never more
/// than `MAX_PREALLOC` (2¹⁶) elements.
pub fn prealloc(len: usize, remaining: usize, min_element_bytes: usize) -> usize {
    len.min(remaining / min_element_bytes).min(MAX_PREALLOC)
}

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl Decode for u8 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        reader.take_u8()
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::InvalidValue {
                what: "bool",
                value: other as u64,
            }),
        }
    }
}

macro_rules! impl_varint {
    ($($ty:ty),*) => {$(
        impl Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                put_varint(out, *self as u64);
            }
        }

        impl Decode for $ty {
            fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
                let raw = reader.take_varint()?;
                <$ty>::try_from(raw).map_err(|_| WireError::LengthOverflow { length: raw })
            }
        }
    )*};
}

impl_varint!(u16, u32, u64, usize);

impl Encode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }
}

impl Decode for f64 {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        reader.take_f64()
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl Decode for String {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = reader.take_len()?;
        let bytes = reader.take_bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| WireError::InvalidUtf8)
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = reader.take_len()?;
        let mut items = Vec::with_capacity(prealloc(len, reader.remaining(), 1));
        for _ in 0..len {
            items.push(T::decode(reader)?);
        }
        Ok(items)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        match reader.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(reader)?)),
            other => Err(WireError::InvalidValue {
                what: "option tag",
                value: other as u64,
            }),
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(reader)?, B::decode(reader)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = to_bytes(&value);
        let back: T = from_bytes(&bytes).expect("round trip");
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(true);
        round_trip(false);
        round_trip(0u64);
        round_trip(127u64);
        round_trip(128u64);
        round_trip(u64::MAX);
        round_trip(u32::MAX);
        round_trip(usize::MAX);
        round_trip(0.0f64);
        round_trip(-0.0f64);
        round_trip(f64::MIN_POSITIVE);
        round_trip(std::f64::consts::PI);
        round_trip(String::new());
        round_trip("héllo wörld".to_string());
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(42u64));
        round_trip(Option::<u64>::None);
        round_trip((7u64, "x".to_string()));
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234);
        let bytes = to_bytes(&weird);
        let back: f64 = from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn small_varints_are_one_byte() {
        for v in 0u64..=127 {
            assert_eq!(to_bytes(&v).len(), 1);
        }
        assert_eq!(to_bytes(&128u64).len(), 2);
        assert_eq!(to_bytes(&u64::MAX).len(), 10);
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let bytes = to_bytes(&"hello".to_string());
        for cut in 0..bytes.len() {
            let err = from_bytes::<String>(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut {cut}: {err}"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&5u64);
        bytes.push(0);
        assert_eq!(
            from_bytes::<u64>(&bytes),
            Err(WireError::TrailingBytes { trailing: 1 })
        );
    }

    #[test]
    fn invalid_bytes_are_typed_errors() {
        assert!(matches!(
            from_bytes::<bool>(&[2]),
            Err(WireError::InvalidValue { what: "bool", .. })
        ));
        assert!(matches!(
            from_bytes::<Option<u8>>(&[9, 0]),
            Err(WireError::InvalidValue {
                what: "option tag",
                ..
            })
        ));
        // Invalid UTF-8 in a string body.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 2);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(from_bytes::<String>(&bytes), Err(WireError::InvalidUtf8));
        // An 11-byte varint overflows.
        let overflow = [0x80u8; 10];
        assert_eq!(from_bytes::<u64>(&overflow), Err(WireError::VarintOverflow));
        // A 10-byte varint whose top byte carries more than one bit.
        let mut too_big = [0xFFu8; 9].to_vec();
        too_big.push(0x02);
        assert_eq!(from_bytes::<u64>(&too_big), Err(WireError::VarintOverflow));
    }

    #[test]
    fn narrowing_decodes_reject_oversized_values() {
        let bytes = to_bytes(&u64::MAX);
        assert!(matches!(
            from_bytes::<u32>(&bytes),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn corrupt_length_prefixes_do_not_overallocate() {
        // A vector claiming u64::MAX / 2 elements with a 1-byte body must
        // fail with truncation, not abort on allocation.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, u64::MAX / 2);
        bytes.push(0);
        assert!(matches!(
            from_bytes::<Vec<u64>>(&bytes),
            Err(WireError::Truncated { .. })
        ));
    }
}
