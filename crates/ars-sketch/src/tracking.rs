//! Strong-tracking wrappers for static sketches (Lemmas 2.2 / 2.3 role).
//!
//! The robustification wrappers of the paper consume *strong-tracking*
//! static algorithms: ones whose estimate is `(1 ± ε)`-correct at **every**
//! step of a fixed stream with probability `1 − δ` (Definition 2.1). The
//! optimal strong-tracking algorithms cited in the paper (\[6\], \[7\]) obtain
//! this with delicate chaining arguments; the standard generic route — the
//! one footnote 1 of the paper describes — is to drive the per-query
//! failure probability low enough to union bound over the `O(ε^{-1} log n)`
//! scales at which the (monotone) quantity can change, which costs an extra
//! `log` factor in space.
//!
//! [`MedianTracking`] implements that generic route: it runs `c` independent
//! copies of any [`EstimatorFactory`] and reports the median estimate. For
//! estimators whose single-copy failure probability (per query) is a
//! constant `< 1/2`, the median of `c = Θ(log(1/δ'))` copies fails with
//! probability `δ'` per query, and choosing `δ' = δ / (ε^{-1} log n)`
//! yields `(ε, δ)` strong tracking for monotone quantities on
//! insertion-only streams.

use ars_stream::Update;

use crate::{Estimator, EstimatorFactory};

/// Configuration for [`MedianTracking`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MedianTrackingConfig {
    /// Number of independent copies the median is taken over.
    pub copies: usize,
}

impl MedianTrackingConfig {
    /// Number of copies needed for per-query failure probability `delta`,
    /// assuming each copy errs with probability at most 1/4.
    ///
    /// The copy count grows as `Θ(log 1/δ)` (the Chernoff bound for a
    /// majority of independent constant-failure trials) but is capped at a
    /// laptop-friendly 9 copies: the asymptotic *shape* of every space
    /// bound is preserved while keeping the per-update work of the
    /// composite robust estimators (pool size × copies × sketch size)
    /// tractable for the experiments. The cap is one of the documented
    /// constant substitutions (the constant-substitution step of the
    /// strategy recipe in `docs/ARCHITECTURE.md`).
    #[must_use]
    pub fn for_failure_probability(delta: f64) -> Self {
        assert!(delta > 0.0 && delta < 1.0);
        let copies = ((1.5 * (1.0 / delta).ln()).ceil() as usize).clamp(1, 9) | 1;
        Self { copies }
    }

    /// Strong tracking for a monotone quantity over a stream of length `m`
    /// with overall failure probability `delta`: union bound over the
    /// `O(ε^{-1} log m)` scales at which the answer can change by `(1+ε)`.
    #[must_use]
    pub fn for_strong_tracking(epsilon: f64, delta: f64, stream_length: u64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        let scales = ((stream_length.max(2) as f64).ln() / epsilon)
            .ceil()
            .max(1.0);
        Self::for_failure_probability(delta / scales)
    }
}

/// How many copy estimates [`MedianTracking::estimate`] reads once into a
/// stack array before ranking; every route uses at most 9 copies.
const RANKED_ON_STACK: usize = 16;

/// Median-of-copies wrapper turning a constant-failure estimator into a
/// low-failure (strong-tracking) estimator.
#[derive(Debug, Clone)]
pub struct MedianTracking<E> {
    copies: Vec<E>,
}

impl<E: Estimator> MedianTracking<E> {
    /// Builds the wrapper from pre-constructed copies.
    #[must_use]
    pub fn from_copies(copies: Vec<E>) -> Self {
        assert!(!copies.is_empty(), "at least one copy is required");
        Self { copies }
    }

    /// Builds `config.copies` fresh instances from a factory, deriving the
    /// per-copy seeds from `seed`.
    #[must_use]
    pub fn new<F>(factory: &F, config: MedianTrackingConfig, seed: u64) -> Self
    where
        F: EstimatorFactory<Output = E>,
    {
        assert!(config.copies >= 1);
        let copies = (0..config.copies)
            .map(|i| factory.build(seed.wrapping_add(0x9E37_79B9).wrapping_mul(i as u64 + 1)))
            .collect();
        Self { copies }
    }

    /// Number of copies maintained.
    #[must_use]
    pub fn copies(&self) -> usize {
        self.copies.len()
    }
}

impl<E: Estimator> Estimator for MedianTracking<E> {
    fn update(&mut self, update: Update) {
        for copy in &mut self.copies {
            copy.update(update);
        }
    }

    /// Copy-major: the whole batch runs through one copy before the next,
    /// so each copy's state stays in cache for the batch. The copies are
    /// independent, so the result equals the update-major loop exactly.
    fn update_batch(&mut self, updates: &[Update]) {
        for copy in &mut self.copies {
            copy.update_batch(updates);
        }
    }

    /// The median of the copies' estimates, the mean of the two middle
    /// ones for an even count. Each estimate is ranked against the others
    /// (`O(c²)` comparisons over `c ≤ 9` copies in every route) instead of
    /// collecting and sorting, so the publication check allocates nothing.
    /// Ties rank by copy index, the order the stable sort it replaces gave
    /// them, so the result is the same to the bit.
    ///
    /// The first 16 estimates (`RANKED_ON_STACK`) are read once into a
    /// stack array; a larger ensemble re-reads the rest while ranking,
    /// which relies on [`Estimator::estimate`] being pure.
    fn estimate(&self) -> f64 {
        let mut stacked = [0.0; RANKED_ON_STACK];
        for (slot, copy) in stacked.iter_mut().zip(&self.copies) {
            *slot = copy.estimate();
        }
        let value = |i: usize| match stacked.get(i) {
            Some(&v) => v,
            None => self.copies[i].estimate(),
        };
        let c = self.copies.len();
        let (lo_rank, hi_rank) = ((c - 1) / 2, c / 2);
        let (mut lo, mut hi) = (None, None);
        for i in 0..c {
            let v = value(i);
            assert!(!v.is_nan(), "finite estimates");
            let rank = (0..c)
                .filter(|&j| {
                    let w = value(j);
                    w < v || (w == v && j < i)
                })
                .count();
            if rank == lo_rank {
                lo = Some(v);
            }
            if rank == hi_rank {
                hi = Some(v);
            }
        }
        // Ranks form a permutation because `estimate` is pure.
        let (lo, hi) = (lo.expect("pure estimates"), hi.expect("pure estimates"));
        if lo_rank == hi_rank {
            hi
        } else {
            (lo + hi) / 2.0
        }
    }

    fn space_bytes(&self) -> usize {
        self.copies.iter().map(Estimator::space_bytes).sum()
    }

    /// Every update reaches every copy, so the ensemble ignores a repeat
    /// exactly when each copy does.
    fn duplicate_invariant(&self) -> bool {
        self.copies.iter().all(Estimator::duplicate_invariant)
    }
}

/// A factory wrapping another factory so that every built instance is a
/// [`MedianTracking`] ensemble. This lets the robust wrappers in `ars-core`
/// consume "strong tracking versions" of any static sketch uniformly.
#[derive(Debug, Clone, Copy)]
pub struct MedianTrackingFactory<F> {
    /// The factory producing individual copies.
    pub inner: F,
    /// How many copies each ensemble contains.
    pub config: MedianTrackingConfig,
}

impl<F: EstimatorFactory> EstimatorFactory for MedianTrackingFactory<F> {
    type Output = MedianTracking<F::Output>;

    fn build(&self, seed: u64) -> Self::Output {
        MedianTracking::new(&self.inner, self.config, seed)
    }

    fn name(&self) -> String {
        format!("median[{} x {}]", self.config.copies, self.inner.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ams::{AmsConfig, AmsFactory};
    use crate::kmv::{KmvConfig, KmvFactory};
    use ars_stream::generator::{Generator, UniformGenerator};
    use ars_stream::FrequencyVector;

    #[test]
    fn config_sizing_is_monotone_in_delta() {
        let loose = MedianTrackingConfig::for_failure_probability(0.1);
        let tight = MedianTrackingConfig::for_failure_probability(1e-6);
        assert!(tight.copies > loose.copies);
        let tracking = MedianTrackingConfig::for_strong_tracking(0.1, 0.05, 1 << 20);
        assert!(tracking.copies >= tight.copies / 4);
    }

    #[test]
    fn median_of_ams_copies_is_accurate() {
        let updates = UniformGenerator::new(1_000, 3).take_updates(20_000);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let factory = AmsFactory {
            config: AmsConfig::single_mean(200),
        };
        let mut ensemble = MedianTracking::new(&factory, MedianTrackingConfig { copies: 9 }, 7);
        for &u in &updates {
            ensemble.update(u);
        }
        let est = ensemble.estimate();
        let f2 = truth.f2();
        assert!(
            ((est - f2) / f2).abs() < 0.15,
            "ensemble estimate {est} vs {f2}"
        );
    }

    /// A copy whose estimate is a fixed value.
    struct Fixed(f64);

    impl Estimator for Fixed {
        fn update(&mut self, _update: Update) {}

        fn estimate(&self) -> f64 {
            self.0
        }

        fn space_bytes(&self) -> usize {
            8
        }
    }

    /// The collect-and-stable-sort median the ranking replaced.
    fn sorted_median(values: &[f64]) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
        let mid = sorted.len() / 2;
        if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        }
    }

    #[test]
    fn median_matches_a_stable_sort_bit_for_bit() {
        let cases: &[&[f64]] = &[
            &[3.0],
            &[2.0, 1.0],
            &[5.0, 5.0, 1.0, 9.0],
            &[4.0, 1.0, 4.0, 4.0, 2.0, 8.0],
            &[7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0, 7.0],
            &[0.1, 0.3, 0.2, 0.3, 0.1, 0.2, 0.3, 0.1],
            // Signed zeros compare equal: the tie order decides the bits.
            &[0.0, -0.0, 5.0],
            &[-0.0, 0.0, 5.0],
            &[1.0, -0.0, 0.0, -1.0],
        ];
        for values in cases {
            let ensemble = MedianTracking::from_copies(values.iter().map(|&v| Fixed(v)).collect());
            assert_eq!(
                ensemble.estimate().to_bits(),
                sorted_median(values).to_bits(),
                "{values:?}"
            );
        }
        // Seeded pseudo-random values with many ties, at every count up to
        // past the stack-ranked prefix.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for c in 1..=RANKED_ON_STACK + 4 {
            for _ in 0..200 {
                let values: Vec<f64> = (0..c)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        (state % 5) as f64 * 0.25
                    })
                    .collect();
                let ensemble =
                    MedianTracking::from_copies(values.iter().map(|&v| Fixed(v)).collect());
                assert_eq!(
                    ensemble.estimate().to_bits(),
                    sorted_median(&values).to_bits(),
                    "{values:?}"
                );
            }
        }
    }

    #[test]
    fn median_tracking_of_kmv_tracks_the_whole_stream() {
        let updates = UniformGenerator::new(30_000, 5).take_updates(60_000);
        let factory = KmvFactory {
            config: KmvConfig::for_accuracy(0.1),
        };
        let mut ensemble = MedianTracking::new(&factory, MedianTrackingConfig { copies: 7 }, 11);
        let mut truth = FrequencyVector::new();
        let mut worst: f64 = 0.0;
        for &u in &updates {
            truth.apply(u);
            ensemble.update(u);
            let t = truth.f0() as f64;
            if t > 1_000.0 {
                worst = worst.max(((ensemble.estimate() - t) / t).abs());
            }
        }
        assert!(worst < 0.15, "worst-case tracking error {worst}");
    }

    #[test]
    fn space_is_the_sum_of_copies() {
        let factory = KmvFactory {
            config: KmvConfig { k: 64 },
        };
        let single = factory.build(0).space_bytes();
        let ensemble = MedianTracking::new(&factory, MedianTrackingConfig { copies: 5 }, 0);
        assert_eq!(ensemble.space_bytes(), 5 * single);
        assert_eq!(ensemble.copies(), 5);
    }

    #[test]
    fn nested_factory_reports_a_descriptive_name() {
        let factory = MedianTrackingFactory {
            inner: KmvFactory {
                config: KmvConfig { k: 32 },
            },
            config: MedianTrackingConfig { copies: 3 },
        };
        assert!(factory.name().contains("median[3 x kmv"));
        let built = factory.build(9);
        assert_eq!(built.copies(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one copy")]
    fn empty_ensemble_is_rejected() {
        let _ = MedianTracking::<crate::kmv::KmvSketch>::from_copies(vec![]);
    }
}
