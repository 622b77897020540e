//! A shared handle on one party's item codes.
//!
//! [`ItemStream`] holds a party's item codes, one `u64` per user, in a
//! shared vector: cloning a handle is cheap, and every holder reads the same
//! sequence.  A mechanism's party driver hands its handle to its group
//! shuffle ([`ItemStream::into_vec`]), which copies the items once, or takes
//! a rewritten party's vector outright since no other handle holds it; the
//! per-level report pipeline then runs over that shuffle in chunks, so no
//! full per-party report vector ever exists.
//!
//! ```
//! use fedhh_datasets::{DatasetConfig, DatasetKind};
//!
//! let dataset = DatasetConfig::test_scale().build(DatasetKind::Rdb);
//! let stream = dataset.parties()[0].stream();
//! assert_eq!(stream.as_slice(), dataset.parties()[0].items());
//!
//! // A per-item rewrite (the scenario plane's input-poisoning and Sybil
//! // adversaries) builds a new vector and leaves the party's untouched.
//! let rewritten = stream.map(|code| code | 1);
//! assert_eq!(rewritten.len(), stream.len());
//! assert!(rewritten.as_slice().iter().all(|code| code & 1 == 1));
//! ```

use std::sync::Arc;

/// One party's item codes, shared between the party and its readers.
#[derive(Debug, Clone)]
pub struct ItemStream {
    items: Arc<Vec<u64>>,
}

impl ItemStream {
    /// A stream over an item vector.
    pub fn from_items(items: Vec<u64>) -> Self {
        Self::from_shared(Arc::new(items))
    }

    /// A stream over an item vector shared with its other holders (the
    /// population evolver's frontier).
    pub(crate) fn from_shared(items: Arc<Vec<u64>>) -> Self {
        Self { items }
    }

    /// A stream of `f` applied to every item, in order, built once.
    pub fn map(&self, f: impl Fn(u64) -> u64) -> Self {
        Self::from_items(self.items.iter().map(|&item| f(item)).collect())
    }

    /// Number of items (users) in the stream.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the stream holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items, one per user.
    pub fn as_slice(&self) -> &[u64] {
        &self.items
    }

    /// A fresh copy of the items.
    pub fn materialize(&self) -> Vec<u64> {
        self.items.as_ref().clone()
    }

    /// The items as an owned vector: taken without a copy when this is the
    /// only handle on them (a rewritten stream from [`ItemStream::map`]),
    /// copied otherwise.
    pub fn into_vec(self) -> Vec<u64> {
        Arc::try_unwrap(self.items).unwrap_or_else(|shared| shared.as_ref().clone())
    }

    /// The items in slices of at most `chunk_size` (clamped to at least 1).
    ///
    /// Kept only for the benchmark harness's per-layer probe, until the
    /// benchmark change of ROADMAP item 8(b) moves it to
    /// [`ItemStream::as_slice`].
    #[doc(hidden)]
    pub fn chunks(&self, chunk_size: usize) -> PartyChunks<'_> {
        PartyChunks {
            chunks: self.items.chunks(chunk_size.max(1)),
        }
    }
}

/// One pass over an [`ItemStream`] in slices, from [`ItemStream::chunks`].
///
/// Kept only for the benchmark harness's per-layer probe, until the
/// benchmark change of ROADMAP item 8(b).
#[doc(hidden)]
pub struct PartyChunks<'a> {
    chunks: std::slice::Chunks<'a, u64>,
}

impl PartyChunks<'_> {
    /// The next slice, or `None` when the pass is done.
    ///
    /// Kept only for the benchmark harness's per-layer probe, until the
    /// benchmark change of ROADMAP item 8(b).
    #[doc(hidden)]
    pub fn next_chunk(&mut self) -> Option<&[u64]> {
        self.chunks.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_chunks_tile_the_slice() {
        let stream = ItemStream::from_items((0..10).collect());
        let mut seen = Vec::new();
        let mut chunks = stream.chunks(3);
        let mut sizes = Vec::new();
        while let Some(chunk) = chunks.next_chunk() {
            sizes.push(chunk.len());
            seen.extend_from_slice(chunk);
        }
        assert_eq!(seen, (0..10).collect::<Vec<u64>>());
        assert_eq!(sizes, vec![3, 3, 3, 1]);
        assert_eq!(stream.as_slice(), &seen[..]);
    }

    #[test]
    fn streams_are_re_iterable() {
        let stream = ItemStream::from_items(vec![4, 1, 4, 2]);
        assert_eq!(stream.materialize(), vec![4, 1, 4, 2]);
        assert_eq!(stream.materialize(), stream.as_slice());
        assert_eq!(stream.clone().as_slice(), stream.as_slice());
    }

    #[test]
    fn into_vec_takes_a_sole_handle_and_copies_a_shared_one() {
        let shared = ItemStream::from_items(vec![4, 1, 4, 2]);
        let kept = shared.clone();
        assert_eq!(shared.into_vec(), vec![4, 1, 4, 2]);
        assert_eq!(kept.as_slice(), &[4, 1, 4, 2]);

        let rewritten = kept.map(|code| code + 1);
        let address = rewritten.as_slice().as_ptr();
        let taken = rewritten.into_vec();
        assert_eq!(taken, vec![5, 2, 5, 3]);
        assert_eq!(
            taken.as_ptr(),
            address,
            "a sole handle's vector is moved, not copied"
        );
    }

    #[test]
    fn zero_chunk_size_is_clamped_not_panicking() {
        let stream = ItemStream::from_items(vec![1, 2, 3]);
        let mut chunks = stream.chunks(0);
        let mut seen = Vec::new();
        while let Some(chunk) = chunks.next_chunk() {
            seen.extend_from_slice(chunk);
        }
        assert_eq!(seen, vec![1, 2, 3]);
    }

    #[test]
    fn empty_streams_yield_no_chunks() {
        let stream = ItemStream::from_items(Vec::new());
        assert!(stream.is_empty());
        assert!(stream.chunks(8).next_chunk().is_none());
    }
}
