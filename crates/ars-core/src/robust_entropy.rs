//! Adversarially robust Shannon-entropy estimation
//! (Theorem 1.10 / 7.3, Section 7).
//!
//! Entropy is approximated *additively*, but the robustification machinery
//! of Section 3 is multiplicative. The paper's observation (the remark
//! before Proposition 7.1) is that an ε-additive approximation of `H(f)` is
//! exactly a `(1 ± Θ(ε))`-multiplicative approximation of `g(f) = 2^{H(f)}`
//! — and Proposition 7.2 bounds the flip number of `2^{H(f)}` on
//! insertion-only streams by `poly(ε^{-1}, log n)`. So the robust algorithm
//! is: exponentiate the static entropy estimate, sketch-switch the
//! exponentials through the generic engine, and take a logarithm before
//! answering. [`crate::builder::RobustBuilder::entropy`] assembles exactly
//! that from the adapters below; the engine's additive plan applies the
//! `2^H → H` logarithm in its readings.

use ars_sketch::{Estimator, EstimatorFactory};
use ars_stream::Update;

/// Adapter exposing `2^{inner estimate}` as the tracked quantity, so the
/// multiplicative sketch-switching wrapper can drive an additive guarantee.
#[derive(Debug, Clone)]
pub struct ExponentialAdapter<E> {
    inner: E,
}

impl<E: Estimator> ExponentialAdapter<E> {
    /// Wraps an estimator whose estimate is measured in bits.
    #[must_use]
    pub fn new(inner: E) -> Self {
        Self { inner }
    }
}

impl<E: Estimator> Estimator for ExponentialAdapter<E> {
    fn update(&mut self, update: Update) {
        self.inner.update(update);
    }

    fn update_batch(&mut self, updates: &[Update]) {
        self.inner.update_batch(updates);
    }

    fn estimate(&self) -> f64 {
        // Clamp the exponent so a transiently wild inner estimate cannot
        // produce an infinite value (the ε-rounding machinery requires
        // finite inputs); 2^900 is far beyond any entropy arising from a
        // 64-bit item domain.
        2f64.powf(self.inner.estimate().clamp(0.0, 900.0))
    }

    fn space_bytes(&self) -> usize {
        self.inner.space_bytes()
    }
}

/// Factory adapter pairing [`ExponentialAdapter`] with any inner factory.
#[derive(Debug, Clone, Copy)]
pub struct ExponentialFactory<F> {
    /// The factory producing the additive-scale estimators.
    pub inner: F,
}

impl<F: EstimatorFactory> EstimatorFactory for ExponentialFactory<F> {
    type Output = ExponentialAdapter<F::Output>;

    fn build(&self, seed: u64) -> Self::Output {
        ExponentialAdapter::new(self.inner.build(seed))
    }

    fn name(&self) -> String {
        format!("2^[{}]", self.inner.name())
    }
}

/// Which static entropy estimator backs the robust wrapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EntropyMethod {
    /// Rényi-entropy reduction over a p-stable `F_α` sketch (general
    /// insertion-only model, the `O(ε^{-5} log⁶ n)` row of Table 1).
    #[default]
    Renyi,
    /// Reservoir-sampling plug-in estimator (the random-oracle-model row;
    /// the sample addresses are the only randomness the adversary could
    /// target, and they are never revealed).
    Sampled,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RobustBuilder;
    use ars_stream::generator::{Generator, ZipfGenerator};
    use ars_stream::FrequencyVector;

    #[test]
    fn exponential_adapter_exponentiates() {
        use ars_sketch::f1::F1Factory;
        let factory = ExponentialFactory { inner: F1Factory };
        let mut adapted = factory.build(0);
        assert_eq!(adapted.estimate(), 1.0, "2^0 = 1");
        adapted.insert(5);
        adapted.insert(5);
        adapted.insert(5);
        assert!((adapted.estimate() - 8.0).abs() < 1e-9, "2^3 = 8");
        assert!(factory.name().starts_with("2^["));
    }

    #[test]
    fn sampled_backend_tracks_entropy_of_low_entropy_streams() {
        // 32 equally likely items: H = 5 bits throughout (after warm-up).
        let mut robust = RobustBuilder::new(0.2)
            .entropy_method(EntropyMethod::Sampled)
            .stream_length(20_000)
            .domain(64)
            .seed(3)
            .entropy()
            .unwrap();
        let updates = ZipfGenerator::new(32, 0.01, 7).take_updates(20_000);
        let mut truth = FrequencyVector::new();
        let mut worst: f64 = 0.0;
        for &u in &updates {
            truth.apply(u);
            robust.update(u);
            if truth.updates_applied() > 2_000 {
                worst = worst.max((robust.estimate() - truth.shannon_entropy()).abs());
            }
        }
        assert!(worst < 0.6, "worst additive entropy error {worst}");
    }

    #[test]
    fn renyi_backend_produces_bounded_error_on_skewed_streams() {
        let mut robust = RobustBuilder::new(0.3)
            .entropy_method(EntropyMethod::Renyi)
            .stream_length(6_000)
            .domain(256)
            .seed(5)
            .entropy()
            .unwrap();
        let updates = ZipfGenerator::new(256, 1.2, 11).take_updates(6_000);
        let mut truth = FrequencyVector::new();
        for &u in &updates {
            truth.apply(u);
            robust.update(u);
        }
        let err = (robust.estimate() - truth.shannon_entropy()).abs();
        // The Renyi proxy with laptop-scale sketch sizes is coarser than the
        // paper's asymptotic bound; the point here is that the robust
        // wrapper preserves the static estimator's accuracy.
        assert!(err < 2.0, "final additive entropy error {err}");
    }

    #[test]
    fn flip_number_budget_reflects_parameters() {
        let coarse = RobustBuilder::new(0.5)
            .domain(1 << 10)
            .entropy_flip_number();
        let fine = RobustBuilder::new(0.1)
            .domain(1 << 10)
            .entropy_flip_number();
        assert!(fine > coarse);
    }

    #[test]
    fn empty_stream_has_zero_entropy() {
        let robust = RobustBuilder::new(0.2).seed(9).entropy().unwrap();
        assert_eq!(robust.estimate(), 0.0);
        assert!(robust.space_bytes() > 0);
    }
}
