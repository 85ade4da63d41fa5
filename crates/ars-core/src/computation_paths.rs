//! The computation-paths robustification strategy (Definition 3.7,
//! Lemma 3.8).
//!
//! Where sketch switching pays for robustness in *copies*, the
//! computation-paths technique pays in *failure probability*: it keeps a
//! single copy of the static algorithm, instantiated with a failure
//! probability δ₀ small enough to union bound over every output sequence
//! the (deterministic, given its randomness) adversary could ever observe.
//! Because the published output is ε-rounded and the tracked function has
//! flip number λ, there are only
//! `(m choose λ) · (O(ε^{-1} log T))^λ` such sequences, each of which fixes
//! the adversary's stream — so a union bound over them covers every
//! adaptive strategy.
//!
//! [`ComputationPathsConfig::required_log2_delta`] computes the δ₀ the
//! argument demands (in log₂, since the literal value underflows an `f64`
//! for realistic parameters). Static algorithms whose cost grows slowly in
//! `log(1/δ)` — e.g. the fast level-list `F₀` sketch, whose update *time*
//! barely depends on δ — are the intended consumers (Theorems 1.2, 4.2,
//! 4.3, 4.4).
//!
//! The ε-rounding of published outputs lives in the
//! [`crate::engine::Robustify`] engine; this module contributes only the
//! union-bound arithmetic and the (trivial) single-copy strategy core.

use ars_sketch::{Estimator, EstimatorFactory};
use ars_stream::Update;

use crate::engine::StrategyCore;
use crate::flip_number::log2_computation_paths;

/// Parameters of the computation-paths union bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputationPathsConfig {
    /// Target approximation parameter ε of the robust output.
    pub epsilon: f64,
    /// Flip number λ of the tracked function over the admissible streams.
    pub lambda: usize,
    /// Maximum stream length m.
    pub stream_length: u64,
    /// Bound `T` such that the tracked value always lies in
    /// `[1/T, T] ∪ {0}` (up to sign).
    pub value_range: f64,
    /// Overall failure probability δ the robust algorithm should achieve.
    pub delta: f64,
}

impl ComputationPathsConfig {
    /// Creates a configuration, validating the parameters.
    #[must_use]
    pub fn new(
        epsilon: f64,
        lambda: usize,
        stream_length: u64,
        value_range: f64,
        delta: f64,
    ) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        assert!(lambda >= 1);
        assert!(stream_length >= 1);
        assert!(value_range > 1.0);
        assert!(delta > 0.0 && delta < 1.0);
        Self {
            epsilon,
            lambda,
            stream_length,
            value_range,
            delta,
        }
    }

    /// The configuration implied by an engine plan (the plan carries the
    /// same five quantities).
    #[must_use]
    pub fn from_plan(plan: &crate::engine::RobustPlan) -> Self {
        Self::new(
            plan.rounding_epsilon,
            plan.lambda,
            plan.stream_length,
            plan.value_range.max(2.0),
            plan.delta,
        )
    }

    /// log₂ of the number of distinct rounded output sequences (hence
    /// adversarial computation paths) the union bound covers.
    #[must_use]
    pub fn log2_paths(&self) -> f64 {
        log2_computation_paths(
            self.stream_length,
            self.lambda,
            self.epsilon,
            self.value_range,
        )
    }

    /// log₂ of the per-path failure probability δ₀ = δ / #paths the static
    /// algorithm must be instantiated with. Returned in log₂ because the
    /// literal value underflows `f64` for realistic parameters (it is
    /// `n^{-Θ(ε^{-1} log n)}` in Theorem 1.2).
    #[must_use]
    pub fn required_log2_delta(&self) -> f64 {
        self.delta.log2() - self.log2_paths()
    }

    /// The per-path failure probability as an `f64`, clamped to the
    /// smallest positive normal value when it underflows. Useful for
    /// plugging into static-sketch constructors that take a `δ` parameter;
    /// the benchmark harness reports the theoretical exponent separately.
    #[must_use]
    pub fn required_delta_clamped(&self) -> f64 {
        let log2 = self.required_log2_delta();
        if log2 < f64::MIN_POSITIVE.log2() {
            f64::MIN_POSITIVE
        } else {
            2f64.powf(log2)
        }
    }
}

/// The computation-paths strategy core: a single static-estimator instance.
/// All the robustness machinery (rounded publication, union-bound-sized δ₀)
/// is parameterisation plus the engine; the core itself is delightfully
/// boring — which is the point of Lemma 3.8.
#[derive(Debug, Clone)]
pub struct ComputationPaths<E> {
    inner: E,
    config: ComputationPathsConfig,
}

impl<E: Estimator> ComputationPaths<E> {
    /// Wraps an already-constructed static estimator.
    ///
    /// The estimator must have been instantiated with failure probability at
    /// most [`ComputationPathsConfig::required_delta_clamped`] for the
    /// robustness argument of Lemma 3.8 to apply; the wrapper cannot verify
    /// that.
    #[must_use]
    pub fn wrap(inner: E, config: ComputationPathsConfig) -> Self {
        Self { inner, config }
    }

    /// Builds the inner estimator from a factory and wraps it.
    #[must_use]
    pub fn new<F>(factory: &F, config: ComputationPathsConfig, seed: u64) -> Self
    where
        F: EstimatorFactory<Output = E>,
    {
        Self::wrap(factory.build(seed), config)
    }

    /// The union-bound configuration in force.
    #[must_use]
    pub fn config(&self) -> ComputationPathsConfig {
        self.config
    }

    /// Read access to the wrapped static estimator (used by tests).
    #[must_use]
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: Estimator + Send> StrategyCore for ComputationPaths<E> {
    fn ingest(&mut self, update: Update) {
        self.inner.update(update);
    }

    fn ingest_batch(&mut self, updates: &[Update]) {
        self.inner.update_batch(updates);
    }

    fn raw_estimate(&self) -> f64 {
        self.inner.estimate()
    }

    fn space_bytes(&self) -> usize {
        self.inner.space_bytes() + 32
    }

    fn strategy_name(&self) -> &'static str {
        "computation-paths"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RobustEstimator;
    use crate::engine::{RobustPlan, Robustify};
    use crate::estimate::Health;
    use ars_sketch::fast_f0::{FastF0Config, FastF0Factory};
    use ars_sketch::kmv::{KmvConfig, KmvFactory};
    use ars_sketch::tracking::{MedianTrackingConfig, MedianTrackingFactory};
    use ars_stream::generator::{Generator, UniformGenerator};
    use ars_stream::FrequencyVector;

    fn f0_config(lambda: usize) -> ComputationPathsConfig {
        ComputationPathsConfig::new(0.2, lambda, 1 << 16, 1e9, 1e-3)
    }

    fn plan_for(config: ComputationPathsConfig) -> RobustPlan {
        let mut plan = RobustPlan::new(config.epsilon, config.lambda);
        plan.stream_length = config.stream_length;
        plan.value_range = config.value_range;
        plan.delta = config.delta;
        plan
    }

    #[test]
    fn path_counting_matches_the_lemma_shape() {
        let config = f0_config(100);
        let paths = config.log2_paths();
        assert!(paths > 100.0, "log2(#paths) = {paths} should be large");
        let delta0 = config.required_log2_delta();
        assert!(delta0 < -paths + 1.0, "delta0 exponent {delta0}");
        assert!(config.required_delta_clamped() > 0.0);
        assert!(config.required_delta_clamped() <= 1e-3);
    }

    #[test]
    fn larger_lambda_requires_smaller_delta() {
        let small = f0_config(10).required_log2_delta();
        let large = f0_config(1000).required_log2_delta();
        assert!(large < small);
    }

    #[test]
    fn rounded_output_tracks_f0() {
        let epsilon = 0.2;
        let factory = MedianTrackingFactory {
            inner: KmvFactory {
                config: KmvConfig::for_accuracy(0.05),
            },
            config: MedianTrackingConfig { copies: 7 },
        };
        let config = ComputationPathsConfig::new(epsilon, 200, 1 << 16, 1e9, 1e-3);
        let mut robust =
            Robustify::new(ComputationPaths::new(&factory, config, 3), plan_for(config)).unwrap();

        let updates = UniformGenerator::new(1 << 18, 5).take_updates(30_000);
        let mut truth = FrequencyVector::new();
        let mut worst: f64 = 0.0;
        for &u in &updates {
            truth.apply(u);
            robust.update(u);
            let t = truth.f0() as f64;
            if t >= 100.0 {
                worst = worst.max(((robust.estimate() - t) / t).abs());
            }
        }
        assert!(worst <= epsilon + 0.05, "worst tracking error {worst}");
    }

    #[test]
    fn output_changes_are_bounded_by_flip_number() {
        let epsilon = 0.2;
        let factory = FastF0Factory {
            config: FastF0Config::for_accuracy(0.05, 1e-6, 1 << 20),
        };
        let config = ComputationPathsConfig::new(epsilon, 500, 1 << 16, 1e9, 1e-6);
        let mut robust =
            Robustify::new(ComputationPaths::new(&factory, config, 9), plan_for(config)).unwrap();
        let m = 40_000u64;
        for i in 0..m {
            robust.insert(i);
        }
        let bound = ((m as f64).ln() / (1.0 + epsilon / 2.0).ln()).ceil() as usize + 5;
        assert!(
            robust.output_changes() <= bound,
            "output changed {} times, bound {bound}",
            robust.output_changes()
        );
        assert_eq!(robust.query().health, Health::WithinGuarantee);
    }

    #[test]
    fn wrapper_adds_negligible_space() {
        let factory = KmvFactory {
            config: KmvConfig::for_accuracy(0.1),
        };
        let inner_space = factory.build(0).space_bytes();
        let config = f0_config(10);
        let wrapped =
            Robustify::new(ComputationPaths::new(&factory, config, 0), plan_for(config)).unwrap();
        // Core bookkeeping (32) + the engine's plan-plus-rounder overhead
        // (size_of::<RobustPlan>() + 32): well under 160 bytes total.
        assert!(wrapped.space_bytes() <= inner_space + 160);
    }

    #[test]
    fn estimate_before_updates_is_zero() {
        let factory = KmvFactory {
            config: KmvConfig::for_accuracy(0.1),
        };
        let config = f0_config(10);
        let robust =
            Robustify::new(ComputationPaths::new(&factory, config, 1), plan_for(config)).unwrap();
        assert_eq!(robust.estimate(), 0.0);
    }

    #[test]
    #[should_panic]
    fn invalid_epsilon_is_rejected() {
        let _ = ComputationPathsConfig::new(1.5, 10, 100, 100.0, 0.1);
    }
}
