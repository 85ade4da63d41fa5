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
//! its last element. The hash is the degree-1 polynomial `c₁·x + c₀` over
//! `GF(2⁶¹ − 1)`, its two coefficients held inline and evaluated with one
//! 128-bit multiply and one Mersenne reduction.
//!
//! Updates are absorbed in chunks by one kernel working in scratch arrays
//! its caller supplies: [`Estimator::update`] passes one-element arrays, a
//! batch of at most 64 updates (every live request) is one chunk in
//! 64-slot stack arrays, and a larger batch (a restore or re-provisioning
//! replay) allocates its scratch once and is absorbed in chunks of
//! `max(k, 64)`. The cap is `k` because a chunk absorbed while the sketch
//! fills sorts every survivor, and survivors past the `k`-th would be
//! sorted only to be evicted; once the sketch is full the threshold filter
//! drops most of a chunk anyway. One chunk of `k` pays the block merge
//! once where 64-update chunks pay it `k/64` times. Each chunk runs three
//! steps:
//!
//! 1. **filter, O(1) per update**: hash every insertion and keep the
//!    hashes below the threshold as it stood at the start of the chunk
//!    (all of them while the sketch fills). The threshold only falls, so a
//!    hash at or above it can never enter — on long streams that is all
//!    but a `k/F₀` fraction of fresh items;
//! 2. **dedupe, O(c log c + c·log k) for c survivors**: sort the survivors,
//!    drop repeats within the chunk, and drop every hash already stored,
//!    found by the interpolated rank search below; the search also yields
//!    each new hash's insertion slot;
//! 3. **block merge, O(k) per chunk**: merge the new hashes into the
//!    vector from the back — each run of stored hashes between two new
//!    ones moves once with `copy_within` — after first dropping the
//!    largest of the union so the length never passes `k`.
//!
//! The result is the `k` smallest distinct hashes of the old set and the
//! chunk — exactly what sequential insertion leaves, since bottom-k of a
//! union does not depend on order — but a chunk of `c` inserts pays one
//! pass over the vector instead of `c` single-slot shifts of up to `k`
//! words each.
//!
//! **Rank search.** The stored hashes are `len` uniform draws below the
//! maximum, so the rank of `h` is close to `h·len/(max + 1)`. The search
//! probes there, gallops outward in doubling steps until it brackets `h`,
//! and binary-searches the bracket: a few nearby probes on the sketch's
//! own data, `O(log k)` on any sorted set, and always exactly the `Result`
//! that `binary_search` returns.
//!
//! The sorted vector *is* the stored set — there is no side index — so
//! [`KmvSketch::space_bytes`] still counts exactly the `k` hash values plus
//! the hash description.

use ars_hash::field::{reduce, MERSENNE_P};
use ars_stream::Update;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Estimator, EstimatorFactory};

/// The stack scratch of a batch of at most this many updates, which is
/// absorbed as one chunk; a larger batch is absorbed in chunks of
/// `max(k, CHUNK)` (see the module docs).
const CHUNK: usize = 64;

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
    /// The pairwise hash `h(x) = c1·x + c0 mod p`. The coefficients are
    /// drawn in the order `KWiseHash::from_rng(2, ..)` draws them, so the
    /// hash values are the same as that family's.
    c0: u64,
    c1: u64,
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
        let c0 = rng.gen_range(0..MERSENNE_P);
        let c1 = rng.gen_range(0..MERSENNE_P);
        Self {
            config,
            c0,
            c1,
            bottom: Vec::with_capacity(config.k),
        }
    }

    /// The hash value of `item`, in `[0, p)`. `reduce` is exact on any
    /// `u128`, so `item` needs no prior reduction mod `p`.
    #[inline]
    fn hash(&self, item: u64) -> u64 {
        reduce(u128::from(self.c1) * u128::from(item) + u128::from(self.c0))
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
        let h = self.hash(item);
        self.threshold().is_some_and(|t| h >= t) || self.rank(h).is_ok()
    }

    /// Where `h` sits in the stored set: exactly what
    /// `self.bottom.binary_search(&h)` returns, found by interpolation and
    /// galloping (see the module docs).
    fn rank(&self, h: u64) -> Result<usize, usize> {
        let b = &self.bottom;
        let len = b.len();
        let Some(&max) = b.last() else {
            return Err(0);
        };
        if h >= max {
            return if h == max { Ok(len - 1) } else { Err(len) };
        }
        // `h < max`, so the guess is below `len`, and `b[len - 1] > h`
        // bounds the upward gallop.
        let guess = (u128::from(h) * len as u128 / (u128::from(max) + 1)) as usize;
        // Bracket `h` in `b[lo..hi]`: every hash before `lo` is below it,
        // every hash from `hi` on is above it.
        let (lo, hi) = if b[guess] < h {
            let (mut lo, mut step) = (guess + 1, 1);
            loop {
                let probe = guess + step;
                if probe >= len - 1 {
                    break (lo, len - 1);
                }
                if b[probe] >= h {
                    break (lo, probe + 1);
                }
                lo = probe + 1;
                step *= 2;
            }
        } else {
            let (mut hi, mut step) = (guess + 1, 1);
            loop {
                let Some(probe) = guess.checked_sub(step) else {
                    break (0, hi);
                };
                if b[probe] < h {
                    break (probe + 1, hi);
                }
                hi = probe + 1;
                step *= 2;
            }
        };
        match b[lo..hi].binary_search(&h) {
            Ok(i) => Ok(lo + i),
            Err(i) => Err(lo + i),
        }
    }

    /// The kernel: folds `chunk` into the bottom-k set with one block merge
    /// (see the module docs), using `fresh` and `slots` — each at least
    /// `chunk.len()` long — as scratch. Leaves the same state as inserting
    /// the updates one by one.
    fn absorb(&mut self, chunk: &[Update], fresh: &mut [u64], slots: &mut [usize]) {
        debug_assert!(chunk.len() <= fresh.len() && chunk.len() <= slots.len());
        let k = self.config.k;
        // Every hash is below `p < u64::MAX`, so while the sketch fills
        // nothing is filtered.
        let threshold = self.threshold().unwrap_or(u64::MAX);
        let mut n = 0;
        for u in chunk {
            // KMV is defined for insertion-only streams; deletions are
            // ignored (the robust wrappers only use it in the
            // insertion-only model).
            let h = self.hash(u.item);
            fresh[n] = h;
            n += usize::from(u.delta > 0 && h < threshold);
        }
        if n == 0 {
            return;
        }
        let fresh = &mut fresh[..n];
        fresh.sort_unstable();
        // Keep each new hash once, with its insertion slot in `bottom`.
        // A hash already stored is a duplicate: it must change nothing.
        let (mut m, mut previous) = (0, u64::MAX);
        for i in 0..n {
            let h = fresh[i];
            if h == previous {
                continue;
            }
            previous = h;
            if let Err(slot) = self.rank(h) {
                fresh[m] = h;
                slots[m] = slot;
                m += 1;
            }
        }
        // The union has `len + m` hashes; its largest ones past `k` never
        // enter (new ones) or are evicted (stored ones). Afterwards the
        // kept union is `bottom[..i]` and `fresh[..j]`.
        let len = self.bottom.len();
        let new_len = (len + m).min(k);
        let (mut i, mut j) = (len, m);
        for _ in new_len..len + m {
            // `slots[j - 1] >= i`: the largest kept new hash lies above
            // every kept stored one, so it is the union's largest.
            if j > 0 && slots[j - 1] >= i {
                j -= 1;
            } else {
                i -= 1;
            }
        }
        // Back merge within capacity `k`: each stored run between two new
        // hashes moves right once, past the new hashes below it.
        self.bottom.resize(len.max(new_len), 0);
        for t in (0..j).rev() {
            let slot = slots[t];
            self.bottom.copy_within(slot..i, slot + t + 1);
            self.bottom[slot + t] = fresh[t];
            i = slot;
        }
        self.bottom.truncate(new_len);
    }
}

impl Estimator for KmvSketch {
    fn update(&mut self, update: Update) {
        self.absorb(std::slice::from_ref(&update), &mut [0], &mut [0]);
    }

    fn update_batch(&mut self, updates: &[Update]) {
        if updates.len() <= CHUNK {
            self.absorb(updates, &mut [0; CHUNK], &mut [0; CHUNK]);
            return;
        }
        let chunk = self.config.k.max(CHUNK).min(updates.len());
        let (mut fresh, mut slots) = (vec![0; chunk], vec![0; chunk]);
        for updates in updates.chunks(chunk) {
            self.absorb(updates, &mut fresh, &mut slots);
        }
    }

    fn estimate(&self) -> f64 {
        if self.bottom.len() < self.config.k {
            // Fewer than k distinct hashes seen: the sketch stores them all,
            // so the count is exact (collisions are negligible in a 61-bit
            // range at these cardinalities).
            return self.bottom.len() as f64;
        }
        let v_k = self.bottom[self.config.k - 1] as f64 / MERSENNE_P as f64;
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

    use ars_hash::KWiseHash;
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
            let churn = with_deletions(UniformGenerator::new(1 << 14, seed).take_updates(6_000));
            assert_matches_reference(k, seed, &churn);
        }
    }

    /// Every third update of `updates` turned into a deletion of its item.
    fn with_deletions(updates: Vec<Update>) -> Vec<Update> {
        updates
            .into_iter()
            .enumerate()
            .map(|(t, u)| {
                if t % 3 == 2 {
                    Update::delete(u.item)
                } else {
                    u
                }
            })
            .collect()
    }

    /// Feeds `updates` to one sketch through `update_batch` in batches of
    /// `batch`, to a second one update at a time and to the reference.
    /// After every batch it compares the stored minima, the estimate's
    /// bits and `would_ignore` of the batch's first item and of the next
    /// batch's first item, and checks that the stored set never outgrew
    /// its capacity.
    fn assert_batches_match(k: usize, seed: u64, updates: &[Update], batch: usize) {
        let config = KmvConfig { k };
        let mut batched = KmvSketch::new(config, seed);
        let mut sequential = KmvSketch::new(config, seed);
        let mut reference = ReferenceKmv::new(config, seed);
        let capacity = batched.bottom.capacity();
        for (b, chunk) in updates.chunks(batch).enumerate() {
            batched.update_batch(chunk);
            for &u in chunk {
                sequential.update(u);
                reference.update(u);
            }
            let at = format!("k={k} batch size {batch}, batch {b}");
            assert!(batched.bottom.len() <= k, "{at}: more than k minima");
            assert_eq!(batched.bottom.capacity(), capacity, "{at}: grew");
            assert!(
                batched.bottom.iter().eq(reference.bottom.iter()),
                "{at}: batched minima differ from the reference"
            );
            assert_eq!(batched.bottom, sequential.bottom, "{at}");
            let bits = reference.estimate().to_bits();
            assert_eq!(batched.estimate().to_bits(), bits, "{at}");
            assert_eq!(sequential.estimate().to_bits(), bits, "{at}");
            let next = updates.get((b + 1) * batch).map(|u| u.item);
            for item in [Some(chunk[0].item), next].into_iter().flatten() {
                let ignored = reference.would_ignore(item);
                assert_eq!(batched.would_ignore(item), ignored, "{at}: {item}");
                assert_eq!(sequential.would_ignore(item), ignored, "{at}: {item}");
            }
        }
    }

    #[test]
    fn batch_kernel_matches_sequential_updates_and_the_reference() {
        for (i, k) in [2usize, 8, 64, 1024].into_iter().enumerate() {
            let seed = 71 + i as u64;
            let streams = [
                UniformGenerator::new(1 << 20, seed).take_updates(12_000),
                ZipfGenerator::new(1 << 12, 1.2, seed).take_updates(12_000),
                (0..12_000u64)
                    .map(|t| Update::insert((t * 7) % 13))
                    .collect(),
            ];
            for stream in streams {
                let stream = with_deletions(stream);
                for batch in [1, 3, 16, 63, 64, 65, 200, 5_000] {
                    assert_batches_match(k, seed, &stream, batch);
                }
            }
        }
    }

    /// A replay whose items come in aliased pairs: `x` and `x + p` hash
    /// alike (the hash is `c₁x + c₀ mod p`), so the sketch must store one
    /// hash for both. The batch aliases items of its own (the alias of an
    /// early item lands chunks later) and, once something is stored, items
    /// of the prefix already absorbed.
    fn aliased_batch(prefix: &[Update], base: u64, size: usize) -> Vec<Update> {
        let half = size.div_ceil(2) as u64;
        let mut batch: Vec<Update> = (0..half)
            .map(|j| Update::insert(base + j))
            .chain(
                (0..half)
                    .rev()
                    .map(|j| Update::insert(base + j + MERSENNE_P)),
            )
            .take(size)
            .collect();
        for (t, u) in batch.iter_mut().enumerate().skip(2).step_by(5) {
            if let Some(stored) = prefix.get(t % prefix.len().max(1)) {
                *u = Update::insert(stored.item + MERSENNE_P);
            }
        }
        batch
    }

    #[test]
    fn k_chunk_replays_store_one_hash_per_aliased_pair() {
        for k in [8usize, 1024] {
            let config = KmvConfig { k };
            // An empty, a half-full and a full sketch (the last evicts).
            for (state, stored) in [("empty", 0), ("half-full", k / 2), ("full", 3 * k)] {
                let prefix: Vec<Update> = (0..stored as u64).map(Update::insert).collect();
                for size in [k - 1, k, k + 1, 3 * k + 5] {
                    let seed = 101 + size as u64;
                    let mut sketch = KmvSketch::new(config, seed);
                    let mut reference = ReferenceKmv::new(config, seed);
                    let capacity = sketch.bottom.capacity();
                    let batch = aliased_batch(&prefix, 1 << 40, size);
                    for updates in [&prefix, &batch] {
                        sketch.update_batch(updates);
                        for &u in updates.iter() {
                            reference.update(u);
                        }
                    }
                    let at = format!("k={k}, {state} sketch, batch of {size}");
                    assert_eq!(sketch.bottom.capacity(), capacity, "{at}: grew");
                    assert!(
                        sketch.bottom.windows(2).all(|w| w[0] < w[1]),
                        "{at}: a hash is stored twice"
                    );
                    assert!(
                        sketch.bottom.iter().eq(reference.bottom.iter()),
                        "{at}: stored minima differ from the reference"
                    );
                    assert_eq!(
                        sketch.estimate().to_bits(),
                        reference.estimate().to_bits(),
                        "{at}"
                    );
                }
            }
        }
    }

    #[test]
    fn rank_search_returns_exactly_what_binary_search_returns() {
        let p = MERSENNE_P;
        let mut rng = StdRng::seed_from_u64(5);
        let mut uniform_below = |n: usize, bound: u64| -> Vec<u64> {
            (0..n).map(|_| rng.gen_range(0..bound)).collect()
        };
        let mut sets: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![p - 1],
            vec![0, p - 1],
            // A sketch's own shape: uniform below a small maximum.
            uniform_below(1_024, p / 4_096),
            // Tightly clustered, with the maximum far above the cluster:
            // every interpolated guess lands far from the true rank.
            (1u64 << 40..(1u64 << 40) + 1_000).chain([p - 1]).collect(),
            // Clustered at the top, with 0 stored below it.
            std::iter::once(0).chain(p - 1_000..p).collect(),
        ];
        for n in [1, 2, 3, 17, 1_000, 4_096] {
            sets.push(uniform_below(n, p));
        }
        let mut sketch = KmvSketch::new(KmvConfig { k: 8 }, 1);
        for mut set in sets {
            set.sort_unstable();
            set.dedup();
            let max = set.last().copied().unwrap_or(0);
            let mut probes = vec![0, 1, p - 2, p - 1, max, max.saturating_sub(1), max + 1];
            for &h in &set {
                probes.extend([h.saturating_sub(1), h, h + 1]);
            }
            probes.extend(uniform_below(500, p));
            probes.extend(uniform_below(500, max + 1));
            sketch.bottom = set;
            for h in probes {
                assert_eq!(
                    sketch.rank(h),
                    sketch.bottom.binary_search(&h),
                    "h = {h} in a set of {}",
                    sketch.bottom.len()
                );
            }
        }
    }

    #[test]
    fn inline_hash_matches_the_pairwise_polynomial_family() {
        let p = MERSENNE_P;
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let sketch = KmvSketch::new(KmvConfig { k: 8 }, seed);
            let family = KWiseHash::from_rng(2, &mut StdRng::seed_from_u64(seed));
            let edges = [0, 1, 2, p - 1, p, p + 1, 2 * p, u64::MAX - 1, u64::MAX];
            let mut rng = StdRng::seed_from_u64(seed ^ 7);
            let random: Vec<u64> = (0..2_000).map(|_| rng.gen()).collect();
            for item in edges.into_iter().chain(random) {
                assert_eq!(sketch.hash(item), family.hash(item), "seed {seed}: {item}");
            }
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
            assert!(sketch.would_ignore(i) || !sketch.bottom.contains(&sketch.hash(i)));
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
