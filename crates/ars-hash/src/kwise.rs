//! k-wise independent hash families via random polynomials.
//!
//! A degree-(k−1) polynomial with uniformly random coefficients over the
//! field `GF(2^61 − 1)` is a k-wise independent hash family: the hash values
//! of any k distinct items are independent and uniform. These families
//! power the sketches in `ars-sketch`:
//!
//! * pairwise independence (k = 2) for bucket assignment,
//! * 4-wise independence for the AMS / CountSketch sign functions,
//! * `Θ(log log n + log δ⁻¹)`-wise independence for the fast `F_0`
//!   algorithm of Section 5.1, which needs Chernoff-style tail bounds with
//!   limited independence (the paper cites \[35\]).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::field::{poly_eval, MERSENNE_P};

/// A k-wise independent hash function `h : u64 → [0, MERSENNE_P)`.
///
/// Outputs can be post-processed into buckets ([`KWiseHash::bucket`]), unit
/// interval values ([`KWiseHash::to_unit`]) or signs (see [`SignHash`]).
#[derive(Debug, Clone)]
pub struct KWiseHash {
    coefficients: Vec<u64>,
}

impl KWiseHash {
    /// Draws a fresh k-wise independent function using the given seed.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 1, "independence parameter k must be at least 1");
        let mut rng = StdRng::seed_from_u64(seed);
        Self::from_rng(k, &mut rng)
    }

    /// Draws a fresh k-wise independent function from an existing RNG, so a
    /// sketch can derive many functions from one seed without correlation.
    #[must_use]
    pub fn from_rng<R: Rng + ?Sized>(k: usize, rng: &mut R) -> Self {
        assert!(k >= 1, "independence parameter k must be at least 1");
        let coefficients = (0..k).map(|_| rng.gen_range(0..MERSENNE_P)).collect();
        Self { coefficients }
    }

    /// The independence parameter k (polynomial degree + 1).
    #[must_use]
    pub fn independence(&self) -> usize {
        self.coefficients.len()
    }

    /// Evaluates the hash on an item, returning a value in `[0, 2^61 − 1)`.
    #[must_use]
    #[inline]
    pub fn hash(&self, item: u64) -> u64 {
        poly_eval(&self.coefficients, item)
    }

    /// Hashes an item into `[0, buckets)`.
    #[must_use]
    #[inline]
    pub fn bucket(&self, item: u64, buckets: u64) -> u64 {
        debug_assert!(buckets > 0);
        self.hash(item) % buckets
    }

    /// Hashes an item to a float in `[0, 1)`, used by bottom-k / KMV
    /// distinct-element sketches.
    #[must_use]
    #[inline]
    pub fn to_unit(&self, item: u64) -> f64 {
        self.hash(item) as f64 / MERSENNE_P as f64
    }

    /// The number of leading "levels" of the hash value: the position of the
    /// highest set bit region, i.e. `j` such that the hash falls in
    /// `[2^{ℓ−j−1}, 2^{ℓ−j})` for a 61-bit hash. Level 0 is the top half of
    /// the range, level 1 the next quarter, and so on — exactly the
    /// geometric level assignment used by Algorithm 2 of the paper.
    #[must_use]
    #[inline]
    pub fn level(&self, item: u64) -> u32 {
        let h = self.hash(item);
        if h == 0 {
            // All-zero hash: deepest level.
            return 60;
        }
        // The hash is < 2^61; level j means h ∈ [2^{61-j-1}, 2^{61-j}).
        (60 - (63 - h.leading_zeros())).min(60)
    }
}

/// A 4-wise independent ±1 sign function, as required by the AMS and
/// CountSketch estimators.
#[derive(Debug, Clone)]
pub struct SignHash {
    inner: KWiseHash,
}

impl SignHash {
    /// Draws a fresh 4-wise independent sign function.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            inner: KWiseHash::new(4, seed),
        }
    }

    /// Draws a sign function from an existing RNG.
    #[must_use]
    pub fn from_rng<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            inner: KWiseHash::from_rng(4, rng),
        }
    }

    /// Returns `+1` or `−1` for the item.
    #[must_use]
    #[inline]
    pub fn sign(&self, item: u64) -> i64 {
        if self.inner.hash(item) & 1 == 0 {
            1
        } else {
            -1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic_given_seed() {
        let a = KWiseHash::new(4, 99);
        let b = KWiseHash::new(4, 99);
        for i in 0..100u64 {
            assert_eq!(a.hash(i), b.hash(i));
        }
        let c = KWiseHash::new(4, 100);
        assert!((0..100u64).any(|i| a.hash(i) != c.hash(i)));
    }

    #[test]
    fn buckets_are_roughly_uniform() {
        let h = KWiseHash::new(2, 7);
        let buckets = 16u64;
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let n = 64_000u64;
        for i in 0..n {
            *counts.entry(h.bucket(i, buckets)).or_insert(0) += 1;
        }
        let expected = n / buckets;
        for b in 0..buckets {
            let c = counts.get(&b).copied().unwrap_or(0);
            assert!(
                (c as f64 - expected as f64).abs() < 0.25 * expected as f64,
                "bucket {b} holds {c}, expected about {expected}"
            );
        }
    }

    #[test]
    fn unit_values_are_in_range_and_spread() {
        let h = KWiseHash::new(2, 3);
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        for i in 0..10_000u64 {
            let u = h.to_unit(i);
            assert!((0.0..1.0).contains(&u));
            min = min.min(u);
            max = max.max(u);
        }
        assert!(min < 0.01 && max > 0.99, "unit hashes should cover [0,1)");
    }

    #[test]
    fn levels_follow_a_geometric_distribution() {
        let h = KWiseHash::new(8, 5);
        let n = 100_000u64;
        let mut level_counts = vec![0u64; 61];
        for i in 0..n {
            level_counts[h.level(i) as usize] += 1;
        }
        // Level 0 should contain about half the items, level 1 about a quarter.
        let l0 = level_counts[0] as f64 / n as f64;
        let l1 = level_counts[1] as f64 / n as f64;
        assert!((l0 - 0.5).abs() < 0.05, "level 0 fraction {l0}");
        assert!((l1 - 0.25).abs() < 0.05, "level 1 fraction {l1}");
    }

    #[test]
    fn sign_hash_is_balanced_and_deterministic() {
        let s = SignHash::new(11);
        let n = 50_000u64;
        let sum: i64 = (0..n).map(|i| s.sign(i)).sum();
        assert!(
            (sum as f64).abs() < 4.0 * (n as f64).sqrt(),
            "signs should be nearly balanced, got sum {sum}"
        );
        for i in 0..100u64 {
            assert_eq!(s.sign(i), s.sign(i), "signs must be consistent");
            assert!(s.sign(i) == 1 || s.sign(i) == -1);
        }
    }

    #[test]
    fn pairwise_collision_rate_is_small() {
        // With a 61-bit range, collisions among 10^4 items are essentially
        // impossible; this guards against degenerate coefficient draws.
        let h = KWiseHash::new(2, 1234);
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(h.hash(i));
        }
        assert_eq!(seen.len(), 10_000);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_independence_panics() {
        let _ = KWiseHash::new(0, 1);
    }
}
