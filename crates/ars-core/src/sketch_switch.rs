//! The sketch-switching pool (Algorithm 1, Lemma 3.6, and the optimized
//! restart variant of Theorem 4.1).
//!
//! Sketch switching maintains a pool of independent copies of a static
//! strong-tracking estimator. At every step the update is fed to all
//! copies, but only the *active* copy's estimate is consulted. The
//! [`crate::engine::Robustify`] engine publishes an ε/2-rounded value and
//! keeps publishing it unchanged as long as it stays within a `(1 ± ε/2)`
//! window of the active copy's current estimate; the moment the engine
//! publishes a new value it calls [`StrategyCore::on_publish`], and this
//! pool:
//!
//! 1. retires the active copy (its randomness has now been exposed through
//!    the published value), and
//! 2. activates the next copy in the pool — restarting the retired copy
//!    with fresh randomness under [`SwitchStrategy::Restart`].
//!
//! Because the adversary only ever sees rounded values that change at most
//! `λ_{ε/20,m}(g)` times (Lemma 3.3), a pool of `λ` copies suffices
//! (Lemma 3.6). The optimized variant of Theorem 4.1 cycles through a pool
//! of only `Θ(ε^{-1} log ε^{-1})` copies, *restarting* each retired copy
//! with fresh randomness on the remaining suffix of the stream: by the time
//! a copy is reused the tracked quantity has grown by a `(1+ε)^{pool}`
//! factor, so the prefix the restarted copy missed contributes only an
//! `O(ε)` fraction of the mass.
//!
//! This module used to publish (and round) outputs itself; publication now
//! lives exactly once in the engine, and `SketchSwitch` is purely the pool
//! state machine behind the [`StrategyCore`] seam.

use ars_sketch::{Estimator, EstimatorFactory};
use ars_stream::Update;

use crate::engine::{derive_seed, StrategyCore};

/// Which pool-management strategy the wrapper uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchStrategy {
    /// Lemma 3.6: a pool of `λ` copies consumed left to right, never reused.
    /// If the pool is exhausted the wrapper keeps using the last copy (and
    /// records that the λ budget was exceeded).
    Exhaustible,
    /// Theorem 4.1: a circular pool; a retired copy is immediately restarted
    /// with fresh randomness and rejoins the rotation, seeing only the
    /// suffix of the stream from that point on.
    Restart,
}

/// Configuration for [`SketchSwitch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SketchSwitchConfig {
    /// Target approximation parameter ε (used only to size restarting
    /// pools; the publication window itself belongs to the engine).
    pub epsilon: f64,
    /// Pool size: `λ_{ε/20,m}(g)` for [`SwitchStrategy::Exhaustible`],
    /// `Θ(ε^{-1} log ε^{-1})` for [`SwitchStrategy::Restart`].
    pub copies: usize,
    /// Pool-management strategy.
    pub strategy: SwitchStrategy,
}

impl SketchSwitchConfig {
    /// Plain Lemma 3.6 configuration with an explicit flip-number budget.
    #[must_use]
    pub fn exhaustible(epsilon: f64, flip_number: usize) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        Self {
            epsilon,
            copies: flip_number.max(1),
            strategy: SwitchStrategy::Exhaustible,
        }
    }

    /// Optimized Theorem 4.1 configuration: pool of `Θ(ε^{-1} log ε^{-1})`
    /// restarting copies.
    ///
    /// The pool must be large enough that by the time a restarted copy is
    /// consulted again the tracked quantity has grown by a `Θ(1/ε)` factor,
    /// so the stream prefix the copy missed accounts for only an `O(ε)`
    /// fraction of the current value. Switches happen when the value moves
    /// by a `(1 + ε/2)` factor, so the pool size is
    /// `⌈ln(4/ε) / ln(1 + ε/2)⌉`.
    #[must_use]
    pub fn restarting(epsilon: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        let copies = ((4.0 / epsilon).ln() / (1.0 + epsilon / 2.0).ln()).ceil() as usize;
        Self {
            epsilon,
            copies: copies.max(4),
            strategy: SwitchStrategy::Restart,
        }
    }

    /// Restarting pool sized for tracking the *moment* `F_p = ‖f‖_p^p`
    /// (Theorem 4.1 for `F_p`): the restart argument needs the norm to grow
    /// by a `Θ(1/ε)` factor between reuses of a copy, so the pool is larger
    /// by a factor of `max(p, 1)` so the moment grows by `(Θ(1/ε))^p` over
    /// one rotation.
    #[must_use]
    pub fn restarting_for_moment(epsilon: f64, p: f64) -> Self {
        assert!(epsilon > 0.0 && epsilon < 1.0);
        assert!(p > 0.0);
        let growth = 8.0 * p.max(1.0) / epsilon;
        let copies = ((p.max(1.0) * growth.ln()) / (1.0 + epsilon / 2.0).ln()).ceil() as usize;
        Self {
            epsilon,
            copies: copies.max(4),
            strategy: SwitchStrategy::Restart,
        }
    }
}

/// The sketch-switching pool (Algorithm 1), driven through
/// [`StrategyCore`] by the [`crate::engine::Robustify`] engine.
#[derive(Debug, Clone)]
pub struct SketchSwitch<F: EstimatorFactory> {
    factory: F,
    config: SketchSwitchConfig,
    copies: Vec<F::Output>,
    /// Index ρ of the active copy.
    active: usize,
    /// Number of switches performed so far.
    switches: usize,
    /// Whether an exhaustible pool ran out of fresh copies.
    exhausted: bool,
    /// Seed material for restarted copies.
    next_seed: u64,
}

impl<F: EstimatorFactory> SketchSwitch<F> {
    /// Builds the pool, instantiating `config.copies` independent copies
    /// with seeds derived from `seed`.
    #[must_use]
    pub fn new(factory: F, config: SketchSwitchConfig, seed: u64) -> Self {
        assert!(config.copies >= 1, "the pool needs at least one copy");
        let copies = (0..config.copies)
            .map(|i| factory.build(derive_seed(seed, i as u64)))
            .collect();
        Self {
            factory,
            config,
            copies,
            active: 0,
            switches: 0,
            exhausted: false,
            next_seed: derive_seed(seed, config.copies as u64),
        }
    }

    /// The number of switches (published-value changes) performed so far.
    /// Lemma 3.3 bounds this by the flip number of the tracked function.
    #[must_use]
    pub fn switches(&self) -> usize {
        self.switches
    }

    /// Index of the currently active copy.
    #[must_use]
    pub fn active_index(&self) -> usize {
        self.active
    }

    /// Whether an [`SwitchStrategy::Exhaustible`] pool ran out of copies
    /// (meaning the configured flip-number budget was too small for the
    /// observed stream).
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// The pool size.
    #[must_use]
    pub fn pool_size(&self) -> usize {
        self.copies.len()
    }
}

impl<F> StrategyCore for SketchSwitch<F>
where
    F: EstimatorFactory + Send,
    F::Output: Send,
{
    fn ingest(&mut self, update: Update) {
        // Feed the update to every copy in the pool (line 6 of Algorithm 1).
        for copy in &mut self.copies {
            copy.update(update);
        }
    }

    /// Copy-major batch ingestion: each copy streams the whole batch
    /// before the next copy is touched. The copies are independent, so the
    /// final pool state is identical to update-major order, but each
    /// copy's counters stay cache-resident across the batch instead of the
    /// whole pool being re-fetched per update.
    fn ingest_batch(&mut self, updates: &[Update]) {
        for copy in &mut self.copies {
            copy.update_batch(updates);
        }
    }

    /// Consults only the active copy.
    fn raw_estimate(&self) -> f64 {
        self.copies[self.active].estimate()
    }

    /// The engine published a new value: the active copy's randomness is
    /// exposed, so retire it and move to the next copy in the pool.
    fn on_publish(&mut self) {
        self.switches += 1;
        match self.config.strategy {
            SwitchStrategy::Exhaustible => {
                if self.active + 1 < self.copies.len() {
                    self.active += 1;
                } else {
                    self.exhausted = true;
                }
            }
            SwitchStrategy::Restart => {
                // Restart the copy whose randomness was just exposed, then
                // move to the next copy in the rotation.
                let retired = self.active;
                self.copies[retired] = self.factory.build(self.next_seed);
                self.next_seed = derive_seed(self.next_seed, 1);
                self.active = (self.active + 1) % self.copies.len();
            }
        }
    }

    fn space_bytes(&self) -> usize {
        self.copies
            .iter()
            .map(Estimator::space_bytes)
            .sum::<usize>()
            + 64
    }

    fn copies(&self) -> usize {
        self.copies.len()
    }

    fn strategy_name(&self) -> &'static str {
        match self.config.strategy {
            SwitchStrategy::Exhaustible => "sketch-switching",
            SwitchStrategy::Restart => "sketch-switching (restarting)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RobustEstimator;
    use crate::engine::{RobustPlan, Robustify};
    use ars_sketch::kmv::{KmvConfig, KmvFactory};
    use ars_sketch::tracking::{MedianTrackingConfig, MedianTrackingFactory};
    use ars_stream::generator::{Generator, UniformGenerator};
    use ars_stream::FrequencyVector;

    fn tracked_kmv_factory(epsilon: f64) -> MedianTrackingFactory<KmvFactory> {
        MedianTrackingFactory {
            inner: KmvFactory {
                config: KmvConfig::for_accuracy(epsilon / 4.0),
            },
            config: MedianTrackingConfig { copies: 5 },
        }
    }

    fn engine(
        config: SketchSwitchConfig,
        seed: u64,
    ) -> Robustify<SketchSwitch<MedianTrackingFactory<KmvFactory>>> {
        let factory = tracked_kmv_factory(config.epsilon);
        let mut plan = RobustPlan::new(config.epsilon, 10_000);
        plan.domain = 1 << 20;
        Robustify::new(SketchSwitch::new(factory, config, seed), plan).unwrap()
    }

    #[test]
    fn config_constructors_validate_and_size() {
        let plain = SketchSwitchConfig::exhaustible(0.1, 200);
        assert_eq!(plain.copies, 200);
        assert_eq!(plain.strategy, SwitchStrategy::Exhaustible);
        let opt = SketchSwitchConfig::restarting(0.1);
        assert_eq!(opt.strategy, SwitchStrategy::Restart);
        assert!(opt.copies >= 20, "pool of {} too small", opt.copies);
        let moment = SketchSwitchConfig::restarting_for_moment(0.1, 2.0);
        assert!(moment.copies > opt.copies, "moment pool must be larger");
    }

    #[test]
    fn published_output_tracks_f0_at_every_step() {
        let epsilon = 0.2;
        let mut robust = engine(SketchSwitchConfig::restarting(epsilon), 7);

        let updates = UniformGenerator::new(50_000, 3).take_updates(40_000);
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
        assert!(
            worst <= epsilon + 0.05,
            "worst-case tracking error {worst} exceeds epsilon {epsilon}"
        );
    }

    #[test]
    fn switches_are_bounded_by_the_flip_number() {
        let epsilon = 0.2;
        let mut robust = engine(SketchSwitchConfig::restarting(epsilon), 11);

        let m = 30_000usize;
        let updates = UniformGenerator::new(1 << 20, 5).take_updates(m);
        for &u in &updates {
            robust.update(u);
        }
        // F0 grows monotonically up to ~m, so the number of published-value
        // changes is at most ~log_{1+eps/2}(m) plus slack.
        let bound = ((m as f64).ln() / (1.0 + epsilon / 2.0).ln()).ceil() as usize + 5;
        assert!(
            robust.core().switches() <= bound,
            "switches {} exceed flip bound {bound}",
            robust.core().switches()
        );
        assert_eq!(robust.core().switches(), robust.output_changes());
    }

    #[test]
    fn exhaustible_pool_reports_exhaustion() {
        let epsilon = 0.2;
        // Deliberately undersized pool: F0 doubles far more than twice.
        let mut robust = engine(SketchSwitchConfig::exhaustible(epsilon, 2), 13);
        for i in 0..10_000u64 {
            robust.insert(i);
        }
        assert!(robust.core().is_exhausted());
        // A generously sized pool is not exhausted.
        let mut robust = engine(SketchSwitchConfig::exhaustible(epsilon, 200), 13);
        for i in 0..10_000u64 {
            robust.insert(i);
        }
        assert!(!robust.core().is_exhausted());
    }

    #[test]
    fn output_changes_only_at_switches() {
        let epsilon = 0.3;
        let mut robust = engine(SketchSwitchConfig::restarting(epsilon), 17);
        let mut outputs = Vec::new();
        for i in 0..5_000u64 {
            robust.insert(i);
            outputs.push(robust.estimate());
        }
        let distinct_outputs = {
            let mut changes = 1;
            for w in outputs.windows(2) {
                if (w[0] - w[1]).abs() > f64::EPSILON {
                    changes += 1;
                }
            }
            changes
        };
        assert_eq!(
            distinct_outputs,
            robust.core().switches(),
            "published value must change exactly when the pool switches"
        );
    }

    #[test]
    fn restart_strategy_cycles_through_the_pool() {
        let epsilon = 0.25;
        let config = SketchSwitchConfig {
            epsilon,
            copies: 3,
            strategy: SwitchStrategy::Restart,
        };
        let mut robust = engine(config, 19);
        for i in 0..20_000u64 {
            robust.insert(i);
        }
        assert!(
            robust.core().switches() > 3,
            "should have wrapped around the pool"
        );
        assert!(!robust.core().is_exhausted());
        assert!(robust.core().active_index() < 3);
    }

    #[test]
    fn space_scales_with_pool_size() {
        let small = engine(
            SketchSwitchConfig {
                epsilon: 0.2,
                copies: 2,
                strategy: SwitchStrategy::Restart,
            },
            0,
        );
        let large = engine(
            SketchSwitchConfig {
                epsilon: 0.2,
                copies: 20,
                strategy: SwitchStrategy::Restart,
            },
            0,
        );
        assert!(large.space_bytes() > 5 * small.space_bytes());
    }

    #[test]
    fn estimate_before_any_update_is_zero() {
        let robust = engine(SketchSwitchConfig::restarting(0.2), 1);
        assert_eq!(robust.estimate(), 0.0);
    }
}
