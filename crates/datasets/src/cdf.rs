//! Inverse-transform sampling over ranks in O(1) per draw.
//!
//! Every generator in this crate draws a rank by inverting a cumulative
//! distribution: one uniform `u ∈ [0, 1)`, then the rank whose CDF entry
//! first covers `u`.  [`GuidedCdf`] makes that lookup constant-time on
//! average with a guide table ("indexed search", Chen & Asau, 1974): the
//! unit interval is cut into as many equal buckets as there are ranks, and
//! each bucket records how many CDF entries fall below it, so a draw starts
//! its search next to its answer instead of bisecting the whole CDF.

use rand::Rng;

/// Builds a normalized CDF from non-negative weights.
pub(crate) fn cumulative(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");
    let mut acc = 0.0;
    let mut cdf = Vec::with_capacity(weights.len());
    for w in weights {
        acc += w / total;
        cdf.push(acc);
    }
    // Guard against floating point drift so the last bucket always catches.
    if let Some(last) = cdf.last_mut() {
        *last = 1.0;
    }
    cdf
}

/// A cumulative distribution over ranks (`cdf[rank] = P(r <= rank)`,
/// non-decreasing) with its guide table.
///
/// [`GuidedCdf::index`] returns exactly the rank a binary search of the CDF
/// would: the last rank whose entry equals `u` if there is one, else the
/// first rank whose entry exceeds `u`, clamped to the last rank (a CDF
/// whose final entry is below 1 still catches every draw).  It costs one
/// guide read plus a forward scan over the entries of `u`'s bucket — one
/// entry per bucket on average, whatever the shape of the distribution.
#[derive(Debug, Clone)]
pub struct GuidedCdf {
    cdf: Vec<f64>,
    /// `guide[j]`: the number of CDF entries whose bucket is below `j`.
    guide: Vec<u32>,
}

impl GuidedCdf {
    /// Guides `cdf` (one pass; `cdf` must be non-decreasing).
    pub fn new(cdf: Vec<f64>) -> Self {
        assert!(
            u32::try_from(cdf.len()).is_ok(),
            "a guided CDF holds at most u32::MAX ranks"
        );
        let buckets = cdf.len().max(1);
        let mut guide = Vec::with_capacity(buckets);
        let mut below = 0;
        for j in 0..buckets {
            while below < cdf.len() && bucket(cdf[below], buckets) < j {
                below += 1;
            }
            guide.push(below as u32);
        }
        Self { cdf, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True when the distribution has no ranks.
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The CDF entries, for tests that pin a distribution bit for bit.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> &[f64] {
        &self.cdf
    }

    /// Probability of rank `r` (0 outside the ranks).
    pub fn probability(&self, r: usize) -> f64 {
        if r >= self.cdf.len() {
            return 0.0;
        }
        let prev = if r == 0 { 0.0 } else { self.cdf[r - 1] };
        self.cdf[r] - prev
    }

    /// The rank a uniform draw `u ∈ [0, 1)` maps to.
    ///
    /// Bucketing is monotone, so every rank below `guide[bucket(u)]` has an
    /// entry below `u`: the scan from there finds the first entry above
    /// `u` without skipping one.
    pub fn index(&self, u: f64) -> usize {
        let mut rank = self.guide[bucket(u, self.guide.len())] as usize;
        while rank < self.cdf.len() && self.cdf[rank] <= u {
            rank += 1;
        }
        if rank > 0 && self.cdf[rank - 1] == u {
            rank -= 1;
        }
        let rank = rank.min(self.cdf.len() - 1);
        #[cfg(test)]
        assert_eq!(rank, tests::searched(&self.cdf, u), "u = {u:e}");
        rank
    }

    /// Samples a rank by inverse transform: exactly one `f64` draw.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.index(rng.gen())
    }
}

/// The guide bucket of `x` among `buckets` equal slices of `[0, 1)`.
fn bucket(x: f64, buckets: usize) -> usize {
    ((x * buckets as f64) as usize).min(buckets - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PoissonWeights, ZipfSampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The reference lookup: bisect the CDF, as every draw did before the
    /// guide table existed.  [`GuidedCdf::index`] checks itself against it.
    pub(super) fn searched(cdf: &[f64], u: f64) -> usize {
        match cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => i,
            Err(i) => i.min(cdf.len() - 1),
        }
    }

    /// Draws that the guided lookup must map exactly as the bisection does:
    /// every entry, one ulp either side of it, the ends of `[0, 1)` and
    /// 10⁵ seeded uniforms.
    fn probes(cdf: &[f64]) -> Vec<f64> {
        let mut probes = vec![0.0, 1.0 - f64::EPSILON / 2.0];
        for &p in cdf {
            probes.extend([p, p.next_down(), p.next_up()]);
        }
        let mut rng = StdRng::seed_from_u64(0x6D1D_E7AB);
        probes.extend((0..100_000).map(|_| rng.gen::<f64>()));
        probes.retain(|u| (0.0..1.0).contains(u));
        probes
    }

    fn assert_guided_equals_searched(cdf: Vec<f64>, what: &str) {
        let guided = GuidedCdf::new(cdf.clone());
        for u in probes(&cdf) {
            assert_eq!(guided.index(u), searched(&cdf, u), "{what}: u = {u:e}");
        }
    }

    #[test]
    fn guided_lookup_equals_bisection_on_every_cdf_shape() {
        assert_guided_equals_searched(vec![1.0], "one rank");
        for alpha in [0.5, 1.1, 2.0] {
            let cdf = ZipfSampler::new(2_000, alpha).into_cdf().cdf;
            assert_guided_equals_searched(cdf, &format!("zipf {alpha}"));
        }
        for (n, lambda) in [(400, 2.0), (3_000, 40.0)] {
            let cdf = PoissonWeights::new(n, lambda).into_cdf().cdf;
            // A Poisson tail underflows into a plateau of equal entries:
            // the tie rule is exercised, not just assumed.
            assert!(cdf.windows(2).any(|w| w[0] == w[1]), "poisson {n}/{lambda}");
            assert_guided_equals_searched(cdf, &format!("poisson {n}/{lambda}"));
        }
        // The evolver's pools are normalized counts with no final guard, so
        // the last entry can fall short of 1: draws above it clamp.
        let counts = [7.0, 5.0, 5.0, 3.0, 1.0, 1.0, 1.0];
        let total: f64 = counts.iter().sum();
        let mut acc = 0.0;
        let mut unguarded: Vec<f64> = counts
            .iter()
            .map(|c| {
                acc += c / total;
                acc
            })
            .collect();
        *unguarded.last_mut().unwrap() = 1.0 - 1e-9;
        assert_guided_equals_searched(unguarded.clone(), "unguarded pool");
        assert_eq!(GuidedCdf::new(unguarded).index(1.0 - f64::EPSILON / 2.0), 6);
    }

    #[test]
    fn cumulative_normalizes_and_guards_the_last_entry() {
        let cdf = cumulative(&[1.0, 2.0, 1.0]);
        assert_eq!(cdf, vec![0.25, 0.75, 1.0]);
        let guided = GuidedCdf::new(cdf);
        assert_eq!(guided.probability(1), 0.5);
        assert_eq!(guided.probability(3), 0.0);
    }
}
