//! KMV (k-minimum values / bottom-k) distinct elements estimation.
//!
//! Hash every item to the unit interval with a pairwise independent hash
//! and keep the `k` smallest distinct hash values seen. If `v_k` is the
//! k-th smallest value then `(k − 1)/v_k` is a `(1 ± ε)` estimate of `F₀`
//! for `k = O(1/ε²)`, with constant failure probability (boosted by the
//! median wrapper in [`crate::tracking`]).
//!
//! This is the repository's stand-in for the space-optimal static `F₀`
//! tracking algorithm of Błasiok \[6\] that Theorem 1.1 invokes: it has the
//! same `poly(1/ε) + O(log n)`-bits shape (the constant-factor
//! optimizations of \[6\] are orthogonal to the robustification overhead the
//! experiments measure). It also has the "ignores repeated items" property
//! required by the cryptographic transformation of Section 10: an item
//! whose hash is already present in the bottom-k set leaves the state
//! unchanged.
//!
//! # Layout and cost model
//!
//! The bottom-k set is one sorted `Vec<u64>` of capacity `k`, so the k-th
//! minimum (the eviction threshold and the estimator's `v_k`) is simply
//! its last element. An insertion costs:
//!
//! - **reject, O(1)**: once the sketch is full, a hash at or above the
//!   threshold returns right after hashing — the common case on long
//!   streams, since only a `k/F₀` fraction of fresh items lands below it;
//! - **duplicate probe, O(log k)**: a binary search finds a hash already
//!   stored, and the state is left untouched;
//! - **insert, O(k)**: a new hash below the threshold (or any new hash
//!   while the sketch fills) is shifted into place with one `memmove` of
//!   at most `k` words; once full, `pop` first drops the old threshold.
//!
//! The sorted vector *is* the stored set — there is no side index — so
//! [`KmvSketch::space_bytes`] still counts exactly the `k` hash values plus
//! the hash description.

use ars_hash::KWiseHash;
use ars_stream::Update;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{Estimator, EstimatorFactory};

/// Configuration for [`KmvSketch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KmvConfig {
    /// Number of minimum hash values retained; `Θ(1/ε²)`.
    pub k: usize,
}

impl KmvConfig {
    /// Sizes the sketch for a `(1 ± ε)` estimate with constant failure
    /// probability.
    #[must_use]
    pub fn for_accuracy(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        Self {
            k: ((4.0 / (epsilon * epsilon)).ceil() as usize).max(8),
        }
    }
}

/// The KMV bottom-k sketch.
#[derive(Debug, Clone)]
pub struct KmvSketch {
    config: KmvConfig,
    hash: KWiseHash,
    /// The k smallest distinct hash values seen so far, sorted ascending
    /// (normalized to integers for exact ordering; converted to unit floats
    /// on estimate). Once full, `bottom[k - 1]` is the k-th minimum.
    bottom: Vec<u64>,
}

impl KmvSketch {
    /// Builds a KMV sketch with randomness derived from `seed`.
    #[must_use]
    pub fn new(config: KmvConfig, seed: u64) -> Self {
        assert!(config.k >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            config,
            hash: KWiseHash::from_rng(2, &mut rng),
            bottom: Vec::with_capacity(config.k),
        }
    }

    /// The k-th smallest stored hash once the sketch is full: every hash at
    /// or above it is ignored.
    fn threshold(&self) -> Option<u64> {
        if self.bottom.len() < self.config.k {
            None
        } else {
            self.bottom.last().copied()
        }
    }

    /// The number of retained minima.
    #[must_use]
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// Whether an insertion of `item` would leave the sketch state
    /// unchanged (duplicate hash already present and not among the k
    /// minima, or already stored). Exposed for the Section 10 analysis,
    /// which relies on duplicate items never changing the state.
    #[must_use]
    pub fn would_ignore(&self, item: u64) -> bool {
        let h = self.hash.hash(item);
        self.threshold().is_some_and(|t| h >= t) || self.bottom.binary_search(&h).is_ok()
    }
}

impl Estimator for KmvSketch {
    fn update(&mut self, update: Update) {
        // KMV is defined for insertion-only streams; deletions are ignored
        // (the robust wrappers only use it in the insertion-only model).
        if update.delta <= 0 {
            return;
        }
        let h = self.hash.hash(update.item);
        let threshold = self.threshold();
        if threshold.is_some_and(|t| h >= t) {
            return;
        }
        // `Ok` is a stored duplicate: the state must not change.
        if let Err(pos) = self.bottom.binary_search(&h) {
            if threshold.is_some() {
                self.bottom.pop();
            }
            self.bottom.insert(pos, h);
        }
    }

    fn estimate(&self) -> f64 {
        if self.bottom.len() < self.config.k {
            // Fewer than k distinct hashes seen: the sketch stores them all,
            // so the count is exact (collisions are negligible in a 61-bit
            // range at these cardinalities).
            return self.bottom.len() as f64;
        }
        let v_k = self.bottom[self.config.k - 1] as f64 / ars_hash::field::MERSENNE_P as f64;
        (self.config.k as f64 - 1.0) / v_k
    }

    fn space_bytes(&self) -> usize {
        // k stored hash values + the 2-wise hash description.
        self.bottom.len().max(self.config.k) * 8 + 2 * 8
    }
}

/// Factory for [`KmvSketch`] instances.
#[derive(Debug, Clone, Copy)]
pub struct KmvFactory {
    /// Configuration shared by every built instance.
    pub config: KmvConfig,
}

impl EstimatorFactory for KmvFactory {
    type Output = KmvSketch;

    fn build(&self, seed: u64) -> KmvSketch {
        KmvSketch::new(self.config, seed)
    }

    fn name(&self) -> String {
        format!("kmv(k={})", self.config.k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use ars_stream::generator::{Generator, UniformGenerator, ZipfGenerator};
    use ars_stream::FrequencyVector;

    /// The original `BTreeSet` bottom-k kernel, kept as the reference the
    /// flat kernel must match bit for bit.
    struct ReferenceKmv {
        k: usize,
        hash: KWiseHash,
        bottom: BTreeSet<u64>,
    }

    impl ReferenceKmv {
        fn new(config: KmvConfig, seed: u64) -> Self {
            let mut rng = StdRng::seed_from_u64(seed);
            Self {
                k: config.k,
                hash: KWiseHash::from_rng(2, &mut rng),
                bottom: BTreeSet::new(),
            }
        }

        fn update(&mut self, update: Update) {
            if update.delta <= 0 {
                return;
            }
            let h = self.hash.hash(update.item);
            if self.bottom.contains(&h) {
                return;
            }
            if self.bottom.len() < self.k {
                self.bottom.insert(h);
                return;
            }
            let largest = *self.bottom.last().expect("non-empty");
            if h < largest {
                self.bottom.insert(h);
                self.bottom.remove(&largest);
            }
        }

        fn estimate(&self) -> f64 {
            if self.bottom.len() < self.k {
                return self.bottom.len() as f64;
            }
            let v_k =
                *self.bottom.last().expect("full") as f64 / ars_hash::field::MERSENNE_P as f64;
            (self.k as f64 - 1.0) / v_k
        }

        fn would_ignore(&self, item: u64) -> bool {
            let h = self.hash.hash(item);
            self.bottom.contains(&h)
                || (self.bottom.len() >= self.k && h >= *self.bottom.last().expect("full"))
        }
    }

    /// Drives the flat kernel and the reference side by side, comparing
    /// the stored minima, the estimate's bits and `would_ignore` of the
    /// next item after every update.
    fn assert_matches_reference(k: usize, seed: u64, updates: &[Update]) {
        let config = KmvConfig { k };
        let mut flat = KmvSketch::new(config, seed);
        let mut reference = ReferenceKmv::new(config, seed);
        for (t, &u) in updates.iter().enumerate() {
            flat.update(u);
            reference.update(u);
            assert!(
                flat.bottom.iter().eq(reference.bottom.iter()),
                "k={k} step {t}: stored minima differ"
            );
            assert_eq!(
                flat.estimate().to_bits(),
                reference.estimate().to_bits(),
                "k={k} step {t}"
            );
            if let Some(next) = updates.get(t + 1) {
                assert_eq!(
                    flat.would_ignore(next.item),
                    reference.would_ignore(next.item),
                    "k={k} step {t}: would_ignore({})",
                    next.item
                );
            }
        }
    }

    #[test]
    fn flat_kernel_matches_the_btreeset_reference() {
        for (i, k) in [2usize, 8, 1024].into_iter().enumerate() {
            let seed = 31 + i as u64;
            // Uniform over a wide domain: fills the sketch, then evicts.
            let uniform = UniformGenerator::new(1 << 20, seed).take_updates(6_000);
            let distinct: BTreeSet<u64> = uniform.iter().map(|u| u.item).collect();
            assert!(distinct.len() > 2 * k, "the uniform stream must evict");
            assert_matches_reference(k, seed, &uniform);
            // Zipf: a few heavy items repeat below and above the threshold.
            let zipf = ZipfGenerator::new(1 << 12, 1.2, seed).take_updates(6_000);
            assert_matches_reference(k, seed, &zipf);
            // Heavy duplicates: a handful of items, each repeated many times.
            let duplicates: Vec<Update> = (0..6_000u64)
                .map(|t| Update::insert((t * 7) % 13))
                .collect();
            assert_matches_reference(k, seed, &duplicates);
            // Interleaved deletions, which both kernels ignore.
            let churn: Vec<Update> = UniformGenerator::new(1 << 14, seed)
                .take_updates(6_000)
                .into_iter()
                .enumerate()
                .map(|(t, u)| {
                    if t % 3 == 2 {
                        Update::delete(u.item)
                    } else {
                        u
                    }
                })
                .collect();
            assert_matches_reference(k, seed, &churn);
        }
    }

    #[test]
    fn exact_below_k_distinct_items() {
        let mut sketch = KmvSketch::new(KmvConfig { k: 128 }, 3);
        for i in 0..100u64 {
            sketch.insert(i);
            sketch.insert(i); // duplicates must not matter
        }
        assert_eq!(sketch.estimate(), 100.0);
    }

    #[test]
    fn approximates_large_cardinalities() {
        let mut sketch = KmvSketch::new(KmvConfig::for_accuracy(0.05), 7);
        let n = 50_000u64;
        for i in 0..n {
            sketch.insert(i);
        }
        let est = sketch.estimate();
        assert!(
            (est - n as f64).abs() <= 0.1 * n as f64,
            "estimate {est} for {n} distinct items"
        );
    }

    #[test]
    fn duplicates_do_not_change_the_state() {
        let mut sketch = KmvSketch::new(KmvConfig::for_accuracy(0.1), 11);
        for i in 0..10_000u64 {
            sketch.insert(i);
        }
        let before = sketch.bottom.clone();
        for i in 0..10_000u64 {
            assert!(sketch.would_ignore(i) || !sketch.bottom.contains(&sketch.hash.hash(i)));
            sketch.insert(i);
        }
        assert_eq!(before, sketch.bottom, "re-inserting seen items is a no-op");
    }

    #[test]
    fn estimate_tracks_growth_on_random_streams() {
        let updates = UniformGenerator::new(20_000, 5).take_updates(60_000);
        let mut truth = FrequencyVector::new();
        let mut sketch = KmvSketch::new(KmvConfig::for_accuracy(0.05), 13);
        let mut max_err: f64 = 0.0;
        for &u in &updates {
            truth.apply(u);
            sketch.update(u);
            let t = truth.f0() as f64;
            if t > 1000.0 {
                max_err = max_err.max(((sketch.estimate() - t) / t).abs());
            }
        }
        assert!(max_err < 0.15, "worst tracking error {max_err}");
    }

    #[test]
    fn deletions_are_ignored() {
        let mut sketch = KmvSketch::new(KmvConfig { k: 16 }, 17);
        sketch.insert(1);
        sketch.update(Update::delete(1));
        assert_eq!(sketch.estimate(), 1.0);
    }

    #[test]
    fn space_is_proportional_to_k() {
        let small = KmvSketch::new(KmvConfig { k: 16 }, 0);
        let large = KmvSketch::new(KmvConfig { k: 1024 }, 0);
        assert!(large.space_bytes() > small.space_bytes());
    }

    #[test]
    fn factory_produces_independent_sketches() {
        let factory = KmvFactory {
            config: KmvConfig::for_accuracy(0.1),
        };
        let mut a = factory.build(1);
        let mut b = factory.build(2);
        for i in 0..1000u64 {
            a.insert(i);
            b.insert(i);
        }
        assert_ne!(a.bottom, b.bottom, "different seeds hash differently");
        assert!(factory.name().starts_with("kmv"));
    }
}
