//! Streaming, chunked access to a party's item codes.
//!
//! At the paper's full populations ([`crate::DatasetConfig::paper_scale`],
//! millions of users) eagerly materializing one `u64` per user in every
//! party — and again in every group buffer downstream — dominates memory.
//! [`ItemStream`] is the abstraction that breaks that coupling: a
//! *deterministic, re-iterable* stream of one party's item codes, consumed
//! in fixed-size chunks through [`PartyChunks`], with two backings:
//!
//! * **Eager** — a materialized `Vec<u64>` (what [`crate::PartyData`] holds
//!   after a regular [`crate::DatasetConfig::build`]); chunks are plain
//!   sub-slices.
//! * **Generated** — the dataset generator's per-party state (popularity
//!   ranking, sampling CDF and the pinned RNG state at the head of the
//!   party's sampling sequence); each chunk is regenerated on the fly and
//!   dropped, so resident memory is `O(chunk)`, not `O(users)`.
//! * **Churned** — epoch transitions over a base stream ([`ChurnGen`]):
//!   each transition replaces a deterministic fraction of user slots by
//!   fresh users resampled from a (possibly drifted) popularity pool.
//!   Epoch *e* is one flat stack of *e* churn layers, applied to each base
//!   slot in a single fused pass: per slot, *e* decide draws and at most
//!   one CDF lookup, still `O(chunk)` resident.
//! * **Mapped** — a pure per-item transform over an inner stream
//!   ([`ItemStream::map`]): how the scenario plane's input-poisoning and
//!   Sybil adversaries rewrite a compromised party's items without
//!   materializing them.
//!
//! Both backings yield **bit-identical** sequences: the generated stream
//! replays exactly the draws the eager build performed (one RNG word per
//! user), so `stream.materialize()` equals the eager `items()` vector for
//! the same dataset spec and seed.  The equality is enforced per
//! [`crate::DatasetKind`] by `tests/streaming.rs`.  Every draw inverts its
//! CDF through a [`GuidedCdf`], one guide-table lookup instead of a binary
//! search.
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
use rand::Rng;
use std::sync::Arc;

/// The default chunk size used when a consumer asks for "a reasonable
/// chunk" ([`ItemStream::chunks_auto`]): large enough to amortize per-chunk
/// overhead, small enough that a chunk of reports never dominates memory.
pub const DEFAULT_CHUNK_SIZE: usize = 16_384;

/// Generator state for one party: regenerates the party's item codes
/// deterministically, in order, without materializing them.
///
/// Constructed by the dataset generators (`realworld`, `synthetic`), which
/// pin the shared generation RNG's state at the head of the party's
/// sampling loop.  One RNG word is consumed per item, so a generated stream
/// of `len` users replays exactly the `len` draws the eager build performs.
#[derive(Debug, Clone)]
pub struct ItemGen {
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
    pub fn new(codes: Vec<u64>, cdf: GuidedCdf, rng: StdRng, len: usize) -> Self {
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

/// Deterministic per-user churn over a base stream: the epoch transitions
/// of the epoch service (see `fedhh-federated`'s `epoch` module).
///
/// A churn generator is one flat stack of **layers**, one per transition,
/// over a base stream that is never itself churned.  Each layer either
/// **retains** a user slot (the slot keeps the item the layers below left
/// there — the same user re-enrolls) or **churns** it (the slot is taken
/// over by a fresh user whose item is resampled from a — possibly drifted —
/// popularity pool).  Two *independent* pinned RNGs drive each layer:
///
/// * `decide` consumes exactly one draw per user slot, so the fresh-user
///   mask can be replayed without touching the item sequence
///   ([`ChurnGen::fresh_mask`]), and
/// * `resample` consumes one draw per slot the layer churns.
///
/// A pass applies the whole stack to each base slot at once: every layer
/// draws its decision, every churning layer draws its resample value, and
/// only the topmost churning layer's value is looked up in its CDF — the
/// items lower layers would have drawn are overwritten anyway.  A slot of
/// an *e*-layer stack thus costs *e* decide draws plus at most one lookup,
/// not *e* passes over the stream.
///
/// Because every RNG is pinned at the head of the sequence and advances a
/// fixed number of draws per slot, the churned stream is — like every other
/// backing — deterministic, re-iterable and chunk-size independent.
#[derive(Debug, Clone)]
pub struct ChurnGen {
    /// The stream under the bottom layer (any backing but churn: stacking
    /// churn on churn extends the stack instead).
    base: Box<ItemStream>,
    /// The layers, bottom (oldest) first; never empty.
    layers: Vec<ChurnLayer>,
    /// Number of user slots (equals the base stream's length).
    len: usize,
}

/// One epoch transition of a [`ChurnGen`] stack.
#[derive(Debug, Clone)]
struct ChurnLayer {
    /// Popularity-ranked resample pool for fresh users (`codes[rank]`).
    codes: Arc<Vec<u64>>,
    /// Cumulative distribution over pool ranks.
    cdf: Arc<GuidedCdf>,
    /// Fraction of user slots churned, in `[0, 1]`.
    fraction: f64,
    /// RNG deciding, per slot, whether the user churns (one draw each).
    decide: StdRng,
    /// RNG sampling replacement items (one draw per churned slot).
    resample: StdRng,
}

impl ChurnGen {
    /// Layers churn over `inner`: each user slot churns with probability
    /// `fraction`, drawing its replacement item from the ranked
    /// `codes`/`cdf` pool.  When `inner` is itself churned, the layer joins
    /// its stack.
    ///
    /// # Panics
    ///
    /// Panics when `fraction` is outside `[0, 1]`, when `codes` and `cdf`
    /// differ in length, or when the pool is empty while `fraction > 0`.
    pub fn new(
        inner: ItemStream,
        codes: Vec<u64>,
        cdf: Arc<GuidedCdf>,
        fraction: f64,
        decide: StdRng,
        resample: StdRng,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "churn fraction must be in [0, 1], got {fraction}"
        );
        assert_eq!(codes.len(), cdf.len(), "one CDF entry per ranked item code");
        assert!(
            !codes.is_empty() || fraction == 0.0 || inner.is_empty(),
            "non-empty resample pool required when churn is possible"
        );
        let len = inner.len;
        let layer = ChurnLayer {
            codes: Arc::new(codes),
            cdf,
            fraction,
            decide,
            resample,
        };
        let (base, mut layers) = match inner.backing {
            Backing::Churned(gen) => (gen.base, gen.layers),
            backing => (Box::new(ItemStream { backing, len }), Vec::new()),
        };
        layers.push(layer);
        Self { base, layers, len }
    }

    /// Replays only the top layer's `decide` sequence: `mask[u]` is true
    /// when slot `u` holds a fresh (churned-in) user this epoch.  Consumes
    /// no item or resample draws, so the mask provably agrees with the
    /// stream.
    pub fn fresh_mask(&self) -> Vec<bool> {
        let top = self.layers.last().expect("a churn stack has a layer");
        let mut decide = top.decide.clone();
        (0..self.len)
            .map(|_| decide.gen::<f64>() < top.fraction)
            .collect()
    }

    /// Every layer's `(decide, resample)` RNGs at the head of the sequence.
    fn rngs(&self) -> Vec<(StdRng, StdRng)> {
        self.layers
            .iter()
            .map(|layer| (layer.decide.clone(), layer.resample.clone()))
            .collect()
    }

    /// Churns base items in place, advancing every layer's RNGs by exactly
    /// the draws these slots own.
    fn apply(&self, rngs: &mut [(StdRng, StdRng)], items: &mut [u64]) {
        for item in items {
            let mut fresh = None;
            for (layer, (decide, resample)) in self.layers.iter().zip(rngs.iter_mut()) {
                if decide.gen::<f64>() < layer.fraction {
                    fresh = Some((layer, resample.gen::<f64>()));
                }
            }
            if let Some((layer, u)) = fresh {
                *item = layer.codes[layer.cdf.index(u)];
            }
        }
    }
}

/// A per-item transform layered over an inner stream (the scenario plane's
/// input-poisoning and Sybil adversaries rewrite party items through this):
/// every item of the inner stream passes through one pure function, chunk by
/// chunk, so the mapped stream stays `O(chunk)` resident and — the function
/// being stateless — deterministic, re-iterable and chunk-size independent.
#[derive(Clone)]
pub struct MapGen {
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
    /// A stack of churn layers over a base stream (epoch transitions).
    Churned(ChurnGen),
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
        let len = items.len();
        Self {
            backing: Backing::Eager(Arc::new(items)),
            len,
        }
    }

    /// A stream backed by a dataset generator.
    pub fn from_gen(gen: ItemGen) -> Self {
        let len = gen.len;
        Self {
            backing: Backing::Generated(gen),
            len,
        }
    }

    /// A stream backed by a stack of churn layers over a base stream.
    pub fn from_churn(gen: ChurnGen) -> Self {
        let len = gen.len;
        Self {
            backing: Backing::Churned(gen),
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
    pub fn is_generated(&self) -> bool {
        !matches!(self.backing, Backing::Eager(_))
    }

    /// The churn stack when this stream is an epoch transition (`None`
    /// otherwise).
    pub fn churn(&self) -> Option<&ChurnGen> {
        match &self.backing {
            Backing::Churned(gen) => Some(gen),
            _ => None,
        }
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
            Backing::Churned(gen) => ChunkState::Churned {
                gen,
                base: Box::new(gen.base.chunks(chunk_size)),
                rngs: gen.rngs(),
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

    /// A chunked pass with the [`DEFAULT_CHUNK_SIZE`].
    pub fn chunks_auto(&self) -> PartyChunks<'_> {
        self.chunks(DEFAULT_CHUNK_SIZE)
    }

    /// Applies `f` to every item in sequence order, in chunks, without
    /// materializing the stream.
    pub fn for_each(&self, mut f: impl FnMut(u64)) {
        let mut chunks = self.chunks_auto();
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
            Backing::Churned(gen) => {
                let mut out = gen.base.materialize();
                gen.apply(&mut gen.rngs(), &mut out);
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
            Backing::Generated(_) | Backing::Churned(_) | Backing::Mapped(_) => None,
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
    Churned {
        gen: &'a ChurnGen,
        base: Box<PartyChunks<'a>>,
        rngs: Vec<(StdRng, StdRng)>,
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
            ChunkState::Churned {
                gen,
                base,
                rngs,
                buf,
            } => {
                let chunk = base.next_chunk()?;
                buf.clear();
                buf.extend_from_slice(chunk);
                gen.apply(rngs, buf);
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

    fn churned(inner: ItemStream, fraction: f64) -> ItemStream {
        ItemStream::from_churn(ChurnGen::new(
            inner,
            vec![100, 200, 300],
            Arc::new(GuidedCdf::new(vec![0.5, 0.8, 1.0])),
            fraction,
            StdRng::seed_from_u64(7),
            StdRng::seed_from_u64(8),
        ))
    }

    #[test]
    fn churn_is_deterministic_and_chunk_size_independent() {
        let (base, _) = gen_stream(211);
        let stream = churned(base, 0.3);
        assert!(stream.is_generated());
        assert!(stream.churn().is_some());
        let reference = stream.materialize();
        assert_eq!(stream.materialize(), reference, "re-iterable");
        for chunk_size in [1usize, 13, 64, usize::MAX] {
            let mut seen = Vec::new();
            let mut chunks = stream.chunks(chunk_size);
            while let Some(chunk) = chunks.next_chunk() {
                seen.extend_from_slice(chunk);
            }
            assert_eq!(seen, reference, "chunk size {chunk_size}");
        }
    }

    #[test]
    fn fresh_mask_agrees_with_the_stream() {
        let (base, inner_items) = gen_stream(300);
        let stream = churned(base, 0.4);
        let mask = stream.churn().unwrap().fresh_mask();
        let items = stream.materialize();
        assert_eq!(mask.len(), items.len());
        let pool = [100u64, 200, 300];
        for (u, (&item, &fresh)) in items.iter().zip(&mask).enumerate() {
            if fresh {
                assert!(pool.contains(&item), "slot {u}: churned item from pool");
            } else {
                assert_eq!(item, inner_items[u], "slot {u}: retained inner item");
            }
        }
        let churn_rate = mask.iter().filter(|&&f| f).count() as f64 / mask.len() as f64;
        assert!((0.2..=0.6).contains(&churn_rate), "rate {churn_rate}");
    }

    #[test]
    fn zero_churn_is_the_identity() {
        let (base, reference) = gen_stream(120);
        let stream = churned(base, 0.0);
        assert_eq!(stream.materialize(), reference);
        assert!(stream.churn().unwrap().fresh_mask().iter().all(|&f| !f));
    }

    #[test]
    fn full_churn_replaces_every_slot() {
        let (base, _) = gen_stream(80);
        let stream = churned(base, 1.0);
        assert!(stream
            .materialize()
            .iter()
            .all(|i| [100, 200, 300].contains(i)));
        assert!(stream.churn().unwrap().fresh_mask().iter().all(|&f| f));
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
        // Transforms layer over eager and churned backings too, and compose.
        let eager = ItemStream::from_items(vec![1, 2, 3]).map(|i| i * 2);
        assert_eq!(eager.materialize(), vec![2, 4, 6]);
        assert_eq!(eager.map(|i| i + 1).materialize(), vec![3, 5, 7]);
        let over_churn = churned(base, 0.3);
        let churn_reference = over_churn.materialize();
        assert_eq!(
            over_churn.map(|i| i ^ 1).materialize(),
            churn_reference.iter().map(|i| i ^ 1).collect::<Vec<u64>>()
        );
    }

    /// Eight layers with the evolver's shape: one shared CDF, a rotated
    /// code pool and fresh RNGs per layer, fractions from none to all.
    fn stack(base: ItemStream) -> ItemStream {
        let pool: Vec<u64> = (0..40).map(|rank| 1_000 + rank).collect();
        let cdf = Arc::new(GuidedCdf::new(crate::cdf::cumulative(
            &(1..=40).map(|r| 1.0 / r as f64).collect::<Vec<f64>>(),
        )));
        let fractions = [0.3, 0.0, 1.0, 0.05, 0.5, 0.2, 0.9, 0.25];
        fractions
            .iter()
            .enumerate()
            .fold(base, |inner, (l, &fraction)| {
                let mut codes = pool.clone();
                codes.rotate_left(3 * l);
                ItemStream::from_churn(ChurnGen::new(
                    inner,
                    codes,
                    Arc::clone(&cdf),
                    fraction,
                    StdRng::seed_from_u64(100 + l as u64),
                    StdRng::seed_from_u64(200 + l as u64),
                ))
            })
    }

    /// The stack evaluated one layer at a time, each a full pass over the
    /// layer below's output, plus the top layer's decisions.
    fn layered(gen: &ChurnGen) -> (Vec<u64>, Vec<bool>) {
        let mut items = gen.base.materialize();
        let mut mask = Vec::new();
        for layer in &gen.layers {
            let mut decide = layer.decide.clone();
            let mut resample = layer.resample.clone();
            mask.clear();
            for item in items.iter_mut() {
                let fresh = decide.gen::<f64>() < layer.fraction;
                if fresh {
                    *item = layer.codes[layer.cdf.sample(&mut resample)];
                }
                mask.push(fresh);
            }
        }
        (items, mask)
    }

    #[test]
    fn fused_stack_equals_the_layer_at_a_time_reference() {
        let (base, _) = gen_stream(40_000);
        let stream = stack(base);
        let gen = stream.churn().unwrap();
        assert_eq!(gen.layers.len(), 8, "stacking churn flattens");
        assert!(gen.base.churn().is_none());
        let (reference, top_mask) = layered(gen);
        assert_eq!(stream.materialize(), reference);
        for chunk_size in [1usize, 13, DEFAULT_CHUNK_SIZE, usize::MAX] {
            let mut seen = Vec::new();
            let mut chunks = stream.chunks(chunk_size);
            while let Some(chunk) = chunks.next_chunk() {
                seen.extend_from_slice(chunk);
            }
            assert_eq!(seen, reference, "chunk size {chunk_size}");
        }
        assert_eq!(gen.fresh_mask(), top_mask, "mask of the top layer");
    }
}
