//! Streaming, chunked access to a party's item codes.
//!
//! At the paper's full populations ([`crate::DatasetConfig::paper_scale`],
//! millions of users) eagerly materializing one `u64` per user in every
//! party — and again in every group buffer downstream — dominates memory.
//! [`ItemStream`] is the abstraction that breaks that coupling: a
//! *deterministic, re-iterable* stream of one party's item codes, consumed
//! in fixed-size chunks through [`PartyChunks`], with three backings:
//!
//! * **Eager** — a materialized `Vec<u64>` (what [`crate::PartyData`] holds
//!   after a regular [`crate::DatasetConfig::build`]); chunks are plain
//!   sub-slices.
//! * **Generated** — the dataset generator's per-party state (popularity
//!   ranking, sampling CDF and the pinned RNG state at the head of the
//!   party's sampling sequence); each chunk is regenerated on the fly and
//!   dropped, so resident memory is `O(chunk)`, not `O(users)`.
//! * **Mapped** — a pure per-item transform over an inner stream
//!   ([`ItemStream::map`]): how the scenario plane's input-poisoning and
//!   Sybil adversaries rewrite a compromised party's items without
//!   materializing them.
//!
//! The eager and generated backings yield **bit-identical** sequences: the
//! generated stream replays exactly the draws the eager build performed
//! (one RNG word per user), so `stream.materialize()` equals the eager
//! `items()` vector for the same dataset spec and seed.  The equality is
//! enforced per [`crate::DatasetKind`] by `tests/streaming.rs`.  Every draw
//! inverts its CDF through a guide table (the crate-private `GuidedCdf`),
//! one lookup instead of a binary search.
//!
//! ```
//! use fedhh_datasets::{DatasetConfig, DatasetKind};
//!
//! let eager = DatasetConfig::test_scale().build(DatasetKind::Rdb);
//! let lazy = DatasetConfig::test_scale().build_streamed(DatasetKind::Rdb);
//! let stream = lazy.parties()[0].stream();
//!
//! // Chunked regeneration replays the exact eager sequence.
//! let mut seen = Vec::new();
//! let mut chunks = stream.chunks(64);
//! while let Some(chunk) = chunks.next_chunk() {
//!     assert!(chunk.len() <= 64);
//!     seen.extend_from_slice(chunk);
//! }
//! assert_eq!(seen, eager.parties()[0].items());
//! assert_eq!(stream.materialize(), seen); // streams are re-iterable
//! ```

use crate::cdf::GuidedCdf;
use rand::rngs::StdRng;
use std::sync::Arc;

/// The chunk size of [`ItemStream::for_each`]: large enough to amortize
/// per-chunk overhead, small enough that a chunk never dominates memory.
const CHUNK_SIZE: usize = 16_384;

/// Generator state for one party: regenerates the party's item codes
/// deterministically, in order, without materializing them.
///
/// Constructed by the dataset generators (`realworld`, `synthetic`), which
/// pin the shared generation RNG's state at the head of the party's
/// sampling loop.  One RNG word is consumed per item, so a generated stream
/// of `len` users replays exactly the `len` draws the eager build performs.
#[derive(Debug, Clone)]
pub(crate) struct ItemGen {
    /// Popularity-ranked, pre-encoded item codes (`codes[rank]`).
    codes: Arc<Vec<u64>>,
    /// Cumulative distribution over ranks (`cdf[rank] = P(r <= rank)`).
    cdf: Arc<GuidedCdf>,
    /// RNG state at the head of the party's sampling sequence.
    rng: StdRng,
    /// Number of users (items) in the stream.
    len: usize,
}

impl ItemGen {
    /// Creates a generator from the ranked code pool, its sampling CDF and
    /// the RNG state at the head of the sequence.
    pub(crate) fn new(codes: Vec<u64>, cdf: GuidedCdf, rng: StdRng, len: usize) -> Self {
        assert_eq!(codes.len(), cdf.len(), "one CDF entry per ranked item code");
        assert!(!codes.is_empty() || len == 0, "non-empty pool required");
        Self {
            codes: Arc::new(codes),
            cdf: Arc::new(cdf),
            rng,
            len,
        }
    }

    /// Appends the next `count` items of the sequence to `buf`, advancing
    /// `rng` by exactly `count` draws.
    pub(crate) fn fill_into(&self, rng: &mut StdRng, buf: &mut Vec<u64>, count: usize) {
        buf.reserve(count);
        for _ in 0..count {
            buf.push(self.codes[self.cdf.sample(rng)]);
        }
    }
}

/// A per-item transform layered over an inner stream (the scenario plane's
/// input-poisoning and Sybil adversaries rewrite party items through this):
/// every item of the inner stream passes through one pure function, chunk by
/// chunk, so the mapped stream stays `O(chunk)` resident and — the function
/// being stateless — deterministic, re-iterable and chunk-size independent.
#[derive(Clone)]
struct MapGen {
    /// The untransformed stream (any backing — transforms compose).
    inner: Box<ItemStream>,
    /// The pure item transform.
    map: Arc<dyn Fn(u64) -> u64 + Send + Sync>,
}

impl MapGen {
    /// Transforms one inner chunk into the mapped chunk.
    fn apply(&self, buf: &mut Vec<u64>, chunk: &[u64]) {
        buf.reserve(chunk.len());
        buf.extend(chunk.iter().map(|&item| (self.map)(item)));
    }
}

impl std::fmt::Debug for MapGen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapGen")
            .field("inner", &self.inner)
            .finish_non_exhaustive()
    }
}

#[derive(Debug, Clone)]
enum Backing {
    /// A materialized item vector; chunks are sub-slices.
    Eager(Arc<Vec<u64>>),
    /// Deterministic regeneration; chunks are produced on demand.
    Generated(ItemGen),
    /// A pure per-item transform over an inner stream.
    Mapped(MapGen),
}

/// A deterministic, re-iterable stream of one party's item codes.
///
/// Cloning is cheap (the backing data is shared), and every iteration —
/// via [`ItemStream::chunks`], [`ItemStream::for_each`] or
/// [`ItemStream::materialize`] — replays the identical sequence, so a
/// stream handle can be captured by a per-party driver and consumed as many
/// times as the protocol needs.
#[derive(Debug, Clone)]
pub struct ItemStream {
    backing: Backing,
    len: usize,
}

impl ItemStream {
    /// A stream over an already-materialized item vector.
    pub fn from_items(items: Vec<u64>) -> Self {
        Self::from_shared(Arc::new(items))
    }

    /// A stream over an item vector shared with its other holders (the
    /// population evolver's frontier).
    pub(crate) fn from_shared(items: Arc<Vec<u64>>) -> Self {
        Self {
            len: items.len(),
            backing: Backing::Eager(items),
        }
    }

    /// A stream backed by a dataset generator.
    pub(crate) fn from_gen(gen: ItemGen) -> Self {
        let len = gen.len;
        Self {
            backing: Backing::Generated(gen),
            len,
        }
    }

    /// A stream applying a pure per-item transform to this stream's items,
    /// chunk by chunk: same length, `O(chunk)` resident, and — the function
    /// being stateless — just as deterministic and chunk-size independent
    /// as the stream underneath.
    pub fn map(&self, f: impl Fn(u64) -> u64 + Send + Sync + 'static) -> Self {
        Self {
            backing: Backing::Mapped(MapGen {
                inner: Box::new(self.clone()),
                map: Arc::new(f),
            }),
            len: self.len,
        }
    }

    /// Number of items (users) in the stream.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the stream holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when the stream regenerates its items on demand instead of
    /// holding them resident.
    pub(crate) fn is_generated(&self) -> bool {
        !matches!(self.backing, Backing::Eager(_))
    }

    /// Starts a chunked pass over the stream with at most `chunk_size`
    /// items per chunk.  `chunk_size` is clamped to at least 1.
    pub fn chunks(&self, chunk_size: usize) -> PartyChunks<'_> {
        let chunk_size = chunk_size.max(1);
        let state = match &self.backing {
            Backing::Eager(items) => ChunkState::Slice {
                items: items.as_slice(),
                pos: 0,
            },
            Backing::Generated(gen) => ChunkState::Generated {
                gen,
                rng: gen.rng.clone(),
                produced: 0,
                buf: Vec::new(),
            },
            Backing::Mapped(gen) => ChunkState::Mapped {
                gen,
                inner: Box::new(gen.inner.chunks(chunk_size)),
                buf: Vec::new(),
            },
        };
        PartyChunks { chunk_size, state }
    }

    /// Applies `f` to every item in sequence order, in chunks, without
    /// materializing the stream.
    pub fn for_each(&self, mut f: impl FnMut(u64)) {
        let mut chunks = self.chunks(CHUNK_SIZE);
        while let Some(chunk) = chunks.next_chunk() {
            for item in chunk {
                f(*item);
            }
        }
    }

    /// Materializes the full sequence into a fresh vector.
    pub fn materialize(&self) -> Vec<u64> {
        match &self.backing {
            Backing::Eager(items) => items.as_ref().clone(),
            Backing::Generated(gen) => {
                let mut rng = gen.rng.clone();
                let mut out = Vec::with_capacity(self.len);
                gen.fill_into(&mut rng, &mut out, self.len);
                out
            }
            Backing::Mapped(gen) => {
                let mut out = Vec::with_capacity(self.len);
                gen.apply(&mut out, &gen.inner.materialize());
                out
            }
        }
    }

    /// The materialized slice when the stream is eager (`None` when it is
    /// generated on demand).
    pub fn as_slice(&self) -> Option<&[u64]> {
        match &self.backing {
            Backing::Eager(items) => Some(items.as_slice()),
            Backing::Generated(_) | Backing::Mapped(_) => None,
        }
    }
}

enum ChunkState<'a> {
    Slice {
        items: &'a [u64],
        pos: usize,
    },
    Generated {
        gen: &'a ItemGen,
        rng: StdRng,
        produced: usize,
        buf: Vec<u64>,
    },
    Mapped {
        gen: &'a MapGen,
        inner: Box<PartyChunks<'a>>,
        buf: Vec<u64>,
    },
}

/// One chunked pass over an [`ItemStream`]: a lending iterator whose
/// [`PartyChunks::next_chunk`] yields at most `chunk_size` items at a time.
///
/// For a generated stream only the current chunk is resident; each call
/// overwrites the previous chunk's buffer.
pub struct PartyChunks<'a> {
    chunk_size: usize,
    state: ChunkState<'a>,
}

impl PartyChunks<'_> {
    /// Returns the next chunk of the sequence, or `None` when exhausted.
    ///
    /// The returned slice is only valid until the next call (generated
    /// streams reuse one buffer) — consume it before advancing.
    pub fn next_chunk(&mut self) -> Option<&[u64]> {
        match &mut self.state {
            ChunkState::Slice { items, pos } => {
                if *pos >= items.len() {
                    return None;
                }
                let end = (*pos + self.chunk_size).min(items.len());
                let chunk = &items[*pos..end];
                *pos = end;
                Some(chunk)
            }
            ChunkState::Generated {
                gen,
                rng,
                produced,
                buf,
            } => {
                let remaining = gen.len.saturating_sub(*produced);
                if remaining == 0 {
                    return None;
                }
                let count = remaining.min(self.chunk_size);
                buf.clear();
                gen.fill_into(rng, buf, count);
                *produced += count;
                Some(buf.as_slice())
            }
            ChunkState::Mapped { gen, inner, buf } => {
                let chunk = inner.next_chunk()?;
                buf.clear();
                gen.apply(buf, chunk);
                Some(buf.as_slice())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn gen_stream(len: usize) -> (ItemStream, Vec<u64>) {
        // A 4-code pool with a fixed CDF; the reference sequence is what a
        // single uninterrupted pass over the same RNG produces.
        let codes = vec![10, 20, 30, 40];
        let cdf = vec![0.25, 0.5, 0.75, 1.0];
        let rng = StdRng::seed_from_u64(99);
        let gen = ItemGen::new(codes, GuidedCdf::new(cdf), rng.clone(), len);
        let mut reference = Vec::new();
        let mut r = rng;
        gen.fill_into(&mut r, &mut reference, len);
        (ItemStream::from_gen(gen), reference)
    }

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
        assert_eq!(stream.as_slice(), Some(&seen[..]));
    }

    #[test]
    fn generated_chunks_match_materialize_at_every_chunk_size() {
        let (stream, reference) = gen_stream(257);
        assert!(stream.is_generated());
        assert_eq!(stream.materialize(), reference);
        for chunk_size in [1usize, 7, 64, usize::MAX] {
            let mut seen = Vec::new();
            let mut chunks = stream.chunks(chunk_size);
            while let Some(chunk) = chunks.next_chunk() {
                seen.extend_from_slice(chunk);
            }
            assert_eq!(seen, reference, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn streams_are_re_iterable() {
        let (stream, reference) = gen_stream(100);
        assert_eq!(stream.materialize(), reference);
        assert_eq!(stream.materialize(), reference);
        let mut via_for_each = Vec::new();
        stream.for_each(|item| via_for_each.push(item));
        assert_eq!(via_for_each, reference);
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

    #[test]
    fn mapped_streams_transform_every_backing_chunk_size_independently() {
        let (base, reference) = gen_stream(173);
        let mapped = base.map(|item| item + 1000);
        assert!(mapped.is_generated());
        assert_eq!(mapped.len(), base.len());
        assert!(mapped.as_slice().is_none());
        let expected: Vec<u64> = reference.iter().map(|i| i + 1000).collect();
        assert_eq!(mapped.materialize(), expected);
        assert_eq!(mapped.materialize(), expected, "re-iterable");
        for chunk_size in [1usize, 13, 64, usize::MAX] {
            let mut seen = Vec::new();
            let mut chunks = mapped.chunks(chunk_size);
            while let Some(chunk) = chunks.next_chunk() {
                seen.extend_from_slice(chunk);
            }
            assert_eq!(seen, expected, "chunk size {chunk_size}");
        }
        // Transforms layer over the eager backing too, and compose.
        let eager = ItemStream::from_items(vec![1, 2, 3]).map(|i| i * 2);
        assert_eq!(eager.materialize(), vec![2, 4, 6]);
        assert_eq!(eager.map(|i| i + 1).materialize(), vec![3, 5, 7]);
    }
}
