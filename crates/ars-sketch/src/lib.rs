//! Static (non-robust) streaming sketches.
//!
//! These are the "ingredient" algorithms the PODS 2020 robustness framework
//! wraps: each gives a `(1 ± ε)` (or additive-ε for entropy) guarantee when
//! the stream is fixed in advance, i.e. *oblivious* to the algorithm's
//! randomness. None of them is adversarially robust on its own — Section 9
//! of the paper exhibits an explicit adaptive attack on the AMS sketch, and
//! `ars-adversary` reproduces it.
//!
//! The sketches implemented here and the paper results they support:
//!
//! | Module | Sketch | Used by |
//! |---|---|---|
//! | [`ams`] | Alon–Matias–Szegedy F₂ sketch | Theorem 9.1 (attack target), F₂ baseline |
//! | [`countsketch`] | CountSketch point queries / L₂ heavy hitters | Theorem 6.5 |
//! | [`kmv`] | bottom-k (KMV) distinct elements | Theorem 1.1 static ingredient |
//! | [`fast_f0`] | level-list distinct elements (Algorithm 2) | Lemma 5.2 / Theorem 5.4 |
//! | [`pstable`] | p-stable Fₚ estimation, 0 < p ≤ 2 | Theorems 1.4, 1.5, 4.3 |
//! | [`f1`] | exact F₁ counter | footnote 3, entropy reduction |
//! | [`fp_large`] | Fₚ for p > 2 (subsample + heavy elements) | Theorem 1.7 |
//! | [`entropy`] | Rényi/plug-in entropy estimators | Theorem 1.10 |
//! | [`misra_gries`] | deterministic heavy hitters | deterministic baseline in Table 1 |
//! | [`tracking`] | strong-tracking wrappers (median + epoch union bound) | Lemmas 2.2, 2.3 |
//!
//! Every sketch reports its memory footprint via [`Estimator::space_bytes`]
//! so the benchmark harness can regenerate the space columns of Table 1.
//!
//! The pool-based robustification strategies in `ars-core` instantiate
//! these sketches per copy through [`EstimatorFactory`]: sketch switching
//! and DP aggregation feed every copy the whole stream, and the
//! difference-estimator strategy (Attias et al. 2022) additionally reads
//! *differences* of one copy's estimates at two stream points — sound for
//! any tracking sketch here, since a single instance's readings all refer
//! to the same prefix.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ams;
pub mod countsketch;
pub mod entropy;
pub mod f1;
pub mod fast_f0;
pub mod fp_large;
pub mod kmv;
pub mod misra_gries;
pub mod pstable;
pub mod tracking;

pub use ams::{AmsConfig, AmsSketch};
pub use countsketch::{CountSketch, CountSketchConfig};
pub use entropy::{
    RenyiEntropyConfig, RenyiEntropyEstimator, SampledEntropyConfig, SampledEntropyEstimator,
};
pub use f1::{F1Config, F1Counter};
pub use fast_f0::{FastF0Config, FastF0Sketch};
pub use fp_large::{FpLargeConfig, FpLargeSketch};
pub use kmv::{KmvConfig, KmvSketch};
pub use misra_gries::MisraGries;
pub use pstable::{PStableConfig, PStableSketch};
pub use tracking::{MedianTracking, MedianTrackingConfig};

use ars_stream::Update;

/// A streaming estimator: consumes updates and answers a single numeric
/// query (a frequency moment, an entropy, …) about the stream so far.
///
/// Estimators must answer [`Estimator::estimate`] at any point — all the
/// paper's algorithms provide *tracking* — and report the memory they use
/// so experiments can reproduce the space columns of Table 1.
pub trait Estimator {
    /// Processes one stream update.
    fn update(&mut self, update: Update);

    /// Processes a batch of updates. The estimate is only specified at
    /// batch boundaries.
    ///
    /// A batch must leave exactly the state the same updates leave when
    /// fed one at a time through [`Estimator::update`], however the stream
    /// is cut into batches: callers rely on this to re-chunk a stream
    /// freely. A restore replays a tenant's exact state as one batch, and
    /// the sketch-switching pool in `ars-core` lets copies it does not read
    /// absorb many live batches in one call.
    ///
    /// The default calls [`Estimator::update`] once per element. Ensembles
    /// override it to stream the whole batch through one copy before the
    /// next ([`MedianTracking`]), which keeps each copy's state hot in
    /// cache; copies are independent, so the resulting state is the same.
    /// The robust engine in `ars-core` overrides it to also amortize its
    /// ε-rounding check to once per batch.
    fn update_batch(&mut self, updates: &[Update]) {
        for &u in updates {
            self.update(u);
        }
    }

    /// Returns the current estimate of the tracked quantity: a pure
    /// function of the state, so repeated calls return the same bits.
    fn estimate(&self) -> f64;

    /// Approximate memory footprint of the sketch state in bytes.
    ///
    /// This is an accounting of the *algorithmic* state (counters, stored
    /// identities, hash-function descriptions), which is what the paper's
    /// space bounds measure; allocator overhead is not modelled.
    fn space_bytes(&self) -> usize;

    /// Whether a repeated insertion is a no-op: an update with `Δ > 0` of
    /// an item this instance has already received with `Δ > 0` since it
    /// was built leaves its state bit-identical, whatever updates came in
    /// between. The sketch-switching pool in `ars-core` drops such
    /// repeats before its fan-out when every copy declares this, so an
    /// estimator must answer `true` only if the promise holds for every
    /// stream, deletions included.
    ///
    /// The default is `false`, which is always sound.
    fn duplicate_invariant(&self) -> bool {
        false
    }

    /// Convenience: processes a unit insertion of `item`.
    fn insert(&mut self, item: u64) {
        self.update(Update::insert(item));
    }
}

/// A factory producing independent, identically configured estimator
/// instances from fresh seeds.
///
/// The robustification wrappers in `ars-core` (sketch switching and
/// computation paths) need to instantiate many independent copies of a
/// static sketch; this trait is the seam they use.
pub trait EstimatorFactory {
    /// The estimator type this factory builds.
    type Output: Estimator;

    /// Builds a fresh, independent instance seeded by `seed`.
    fn build(&self, seed: u64) -> Self::Output;

    /// A short human-readable name used in benchmark tables.
    fn name(&self) -> String;
}

/// An estimator that can also answer per-item frequency (point) queries,
/// as needed by the heavy-hitters constructions of Section 6.
pub trait PointQueryEstimator: Estimator {
    /// Estimates the frequency `f_i` of a single item.
    fn point_estimate(&self, item: u64) -> f64;

    /// Returns the current set of candidate heavy items tracked by the
    /// sketch, with their estimated frequencies.
    fn candidates(&self) -> Vec<(u64, f64)>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_stream::generator::{Generator, ZipfGenerator};
    use kmv::KmvFactory;

    /// Feeds `updates` one at a time to one instance and, for each size in
    /// 1, 63, 64, 65, k − 1, k and k + 1, cut into batches of that size to
    /// another and split once at that many updates to a third; all three
    /// must end in the same state (compared through `Debug`, which prints
    /// every field, KMV's stored minima included) and estimate bits.
    fn assert_batching_is_invisible<E, B>(name: &str, build: B, k: usize, updates: &[Update])
    where
        E: Estimator + std::fmt::Debug,
        B: Fn() -> E,
    {
        let mut single = build();
        for &u in updates {
            single.update(u);
        }
        let expected = (single.estimate().to_bits(), format!("{single:?}"));
        for size in [1, 63, 64, 65, k - 1, k, k + 1] {
            let mut chunked = build();
            for batch in updates.chunks(size) {
                chunked.update_batch(batch);
            }
            let mut split = build();
            let (head, tail) = updates.split_at(size.min(updates.len()));
            split.update_batch(head);
            split.update_batch(tail);
            for (cut, sketch) in [("batches of", chunked), ("split at", split)] {
                let state = (sketch.estimate().to_bits(), format!("{sketch:?}"));
                assert!(state == expected, "{name}: {cut} {size} updates");
            }
        }
    }

    fn zipf(n: usize) -> Vec<Update> {
        ZipfGenerator::new(1 << 12, 1.1, 29).take_updates(n)
    }

    #[test]
    fn batches_leave_the_state_single_updates_leave() {
        let updates = zipf(3_000);
        for k in [16, 128] {
            let config = KmvConfig { k };
            assert_batching_is_invisible(
                &format!("KMV k = {k}"),
                || KmvSketch::new(config, 3),
                k,
                &updates,
            );
            let factory = KmvFactory { config };
            let median = MedianTrackingConfig { copies: 3 };
            assert_batching_is_invisible(
                &format!("median of KMV k = {k}"),
                || MedianTracking::new(&factory, median, 5),
                k,
                &updates,
            );
        }
        // Deletions and non-unit updates break the p = 2 counting kernel's
        // runs of unit updates, so both of its paths are exercised.
        let turnstile: Vec<Update> = updates
            .iter()
            .enumerate()
            .map(|(t, u)| match t % 7 {
                3 => Update::delete(u.item),
                5 => Update::new(u.item, 3),
                _ => *u,
            })
            .collect();
        for p in [1.0, 2.0] {
            let config = PStableConfig::for_accuracy(p, 0.3);
            assert_batching_is_invisible(
                &format!("p-stable p = {p}"),
                || PStableSketch::new(config, 7),
                config.rows,
                &turnstile,
            );
        }
        // The copies of both entropy routes' switching pools. Weighted
        // insertions offer the reservoir several tokens at once.
        let weighted: Vec<Update> = updates
            .iter()
            .enumerate()
            .map(|(t, u)| {
                if t % 5 == 2 {
                    Update::new(u.item, 3)
                } else {
                    *u
                }
            })
            .collect();
        let renyi = RenyiEntropyConfig::with_alpha(1.05, 65);
        assert_batching_is_invisible(
            "Rényi entropy",
            || RenyiEntropyEstimator::new(renyi, 11),
            renyi.rows,
            &weighted,
        );
        let sampled = SampledEntropyConfig { sample_size: 128 };
        assert_batching_is_invisible(
            "sampled entropy",
            || SampledEntropyEstimator::new(sampled, 13),
            sampled.sample_size,
            &weighted,
        );
    }
}
