//! The single builder behind every robust estimator in this crate.
//!
//! [`RobustBuilder`] collects the parameters shared by every construction
//! — ε, δ, stream length, domain, frequency bound, seed and the
//! robustification [`Strategy`] — and its problem-specific constructors
//! ([`RobustBuilder::f0`], [`RobustBuilder::fp`],
//! [`RobustBuilder::entropy`], …) are thin factory selections: each one
//! computes the problem's flip-number budget, names the static-sketch
//! factories it runs on, and hands both to one private route table that
//! builds the chosen strategy's core and wraps it in the
//! [`crate::engine::Robustify`] engine. Publication and budgeting live in
//! the engine exactly once, and every scalar constructor returns that
//! engine — [`DynRobust`] — directly. Its surface is the
//! [`crate::api::RobustEstimator`] trait (with [`ars_sketch::Estimator`]
//! for `update`/`insert`/`estimate`/`space_bytes`).
//!
//!
//! Every problem constructor returns `Result<_, ArsError>`: the setters
//! only record parameters, and each constructor checks ε, δ and its own
//! parameters before it builds anything, so an out-of-range value is a
//! typed [`BuildError`] rather than a panic.
//!
//! ```
//! use ars_core::{ArsError, RobustBuilder, Strategy};
//! use ars_sketch::Estimator;
//!
//! let mut f0 = RobustBuilder::new(0.1)
//!     .stream_length(10_000)
//!     .seed(7)
//!     .f0()?;
//! let mut f2 = RobustBuilder::new(0.3)
//!     .strategy(Strategy::ComputationPaths)
//!     .fp(2.0)?;
//! f0.insert(1);
//! f2.insert(1);
//! # Ok::<(), ArsError>(())
//! ```

#![cfg_attr(
    not(test),
    deny(clippy::panic, clippy::unwrap_used, clippy::expect_used)
)]

use ars_sketch::entropy::{
    RenyiEntropyConfig, RenyiEntropyFactory, SampledEntropyConfig, SampledEntropyFactory,
};
use ars_sketch::fast_f0::{FastF0Config, FastF0Factory};
use ars_sketch::fp_large::{FpLargeConfig, FpLargeFactory};
use ars_sketch::kmv::{KmvConfig, KmvFactory};
use ars_sketch::pstable::{PStableConfig, PStableFactory, MIN_P};
use ars_sketch::tracking::{MedianTrackingConfig, MedianTrackingFactory};
use ars_sketch::EstimatorFactory;

use crate::computation_paths::{ComputationPaths, ComputationPathsConfig};
use crate::crypto_mask::{CryptoBackend, CryptoMask};
use crate::difference_estimators::{DifferenceEstimators, DifferenceSchedule};
use crate::dp_aggregation::{DpAggregation, DpAggregationConfig};
use crate::engine::{DynRobust, RobustPlan, Robustify, StrategyCore};
use crate::error::{ArsError, BuildError};
use crate::flip_number::FlipNumberBound;
use crate::robust_entropy::{EntropyMethod, ExponentialFactory};
use crate::robust_heavy_hitters::RobustL2HeavyHitters;
use crate::sketch_switch::{SketchSwitch, SketchSwitchConfig};

/// Which robustification route the builder applies.
///
/// `None` (the builder default) lets each problem pick the route its paper
/// theorem uses; problems that only admit one route reject the others with
/// a typed [`BuildError::StrategyMismatch`] naming the conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Optimized sketch switching (Algorithm 1 / Theorem 4.1).
    #[default]
    SketchSwitching,
    /// Computation paths (Lemma 3.8) — preferable when δ must be tiny.
    ComputationPaths,
    /// The cryptographic transformation (Theorem 10.1); only sound for
    /// duplicate-invariant sketches (the `F₀` family).
    Crypto(CryptoBackend),
    /// Differential-privacy aggregation (Hassidim et al., NeurIPS 2020):
    /// an `O(√λ)` copy pool answering through a DP median — the cheapest
    /// route in copies when λ is large.
    DpAggregation,
    /// Difference estimators (Attias–Cohen–Shechner–Stemmer 2022, after
    /// Woodruff–Zhou): a geometric chunk schedule publishing telescoped
    /// difference estimates, `O(log λ)` copies with per-chunk flip budgets
    /// — the smallest pool of all the routes.
    DifferenceEstimators,
}

/// The single builder for every robust estimator.
#[derive(Debug, Clone, Copy)]
pub struct RobustBuilder {
    epsilon: f64,
    delta: f64,
    stream_length: u64,
    domain: u64,
    max_frequency: u64,
    seed: u64,
    strategy: Option<Strategy>,
    entropy_method: EntropyMethod,
}

impl RobustBuilder {
    /// The Theorem 10.1 preset: the cryptographic route with the default
    /// backend and δ pinned to 1/4 (the theorem states success probability
    /// 3/4), so `RobustBuilder::theorem_10_1(eps).f0()` is the theorem's
    /// estimator. Without the preset, `.strategy(Strategy::Crypto(..))`
    /// keeps the shared default δ = 10⁻³ and can provision a larger
    /// tracking ensemble than the theorem asks for.
    #[must_use]
    pub fn theorem_10_1(epsilon: f64) -> Self {
        Self::new(epsilon)
            .delta(0.25)
            .strategy(Strategy::Crypto(CryptoBackend::default()))
    }

    /// Starts a builder for `(1 ± ε)` robust estimators. ε must lie in
    /// `(0, 1)`; the problem constructors check it and return
    /// [`BuildError::OutOfRange`] for `"epsilon"` otherwise.
    ///
    /// ```
    /// use ars_core::{ArsError, BuildError, RobustBuilder};
    ///
    /// let builder = RobustBuilder::new(0.2).stream_length(1_000).domain(1 << 10);
    /// assert_eq!(builder.epsilon(), 0.2);
    /// assert!(matches!(
    ///     RobustBuilder::new(1.5).f0(),
    ///     Err(ArsError::Build(BuildError::OutOfRange { field: "epsilon", .. }))
    /// ));
    /// ```
    #[must_use]
    pub fn new(epsilon: f64) -> Self {
        Self {
            epsilon,
            delta: 1e-3,
            stream_length: 1 << 20,
            domain: 1 << 20,
            max_frequency: 1 << 20,
            seed: 0,
            strategy: None,
            entropy_method: EntropyMethod::default(),
        }
    }

    /// Overall failure probability δ (default `10⁻³`), in `(0, 1)`; the
    /// problem constructors reject any other value as they do ε.
    #[must_use]
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Maximum stream length `m` (default `2²⁰`).
    #[must_use]
    pub fn stream_length(mut self, m: u64) -> Self {
        self.stream_length = m.max(1);
        self
    }

    /// Domain size `n` (default `2²⁰`).
    #[must_use]
    pub fn domain(mut self, n: u64) -> Self {
        self.domain = n.max(2);
        self
    }

    /// Frequency magnitude bound `M` (default `2²⁰`).
    #[must_use]
    pub fn max_frequency(mut self, max_frequency: u64) -> Self {
        self.max_frequency = max_frequency.max(1);
        self
    }

    /// Seed for all randomness (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the robustification route (default: per-problem).
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Selects the static backend for [`RobustBuilder::entropy`].
    #[must_use]
    pub fn entropy_method(mut self, method: EntropyMethod) -> Self {
        self.entropy_method = method;
        self
    }

    /// The configured ε.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The shared scalar parameters `(δ, n, m, seed)`, for constructions
    /// (like the heavy-hitters structure) that assemble bespoke state
    /// around the engine.
    #[must_use]
    pub fn raw_parameters(&self) -> (f64, u64, u64, u64) {
        (self.delta, self.domain, self.stream_length, self.seed)
    }

    /// The checks every problem constructor runs first: ε and δ in
    /// `(0, 1)`.
    fn validate(&self) -> Result<(), BuildError> {
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(BuildError::out_of_range("epsilon", self.epsilon, "(0,1)"));
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(BuildError::out_of_range("delta", self.delta, "(0,1)"));
        }
        Ok(())
    }

    fn plan(&self, lambda: usize, value_range: f64) -> RobustPlan {
        RobustPlan {
            epsilon: self.epsilon,
            rounding_epsilon: self.epsilon,
            delta: self.delta,
            stream_length: self.stream_length,
            domain: self.domain,
            max_frequency: self.max_frequency,
            lambda: lambda.max(1),
            value_range: value_range.max(2.0),
            additive: false,
            difference_schedule: None,
        }
    }

    // ------------------------------------------------------------------
    // Problem-specific constructors: thin factory selections.
    // ------------------------------------------------------------------

    /// The flip-number budget of `F₀` for these parameters
    /// (Corollary 3.5 with p = 0).
    #[must_use]
    pub fn f0_flip_number(&self) -> usize {
        FlipNumberBound::insertion_only_fp(self.epsilon / 20.0, 0.0, self.domain, 1).bound
    }

    /// Robust distinct elements (Theorems 1.1 / 1.2 / 10.1 depending on
    /// the strategy). Every strategy admits an `F₀` route, so the only
    /// errors are an ε or δ out of range.
    ///
    /// ```
    /// use ars_core::{ArsError, RobustBuilder, RobustEstimator, Strategy};
    /// use ars_sketch::Estimator;
    ///
    /// // The difference-estimator route: an O(log λ) chunk pool whose
    /// // readings report the provisioned per-chunk flip budget.
    /// let mut f0 = RobustBuilder::new(0.25)
    ///     .stream_length(2_000)
    ///     .domain(1 << 10)
    ///     .strategy(Strategy::DifferenceEstimators)
    ///     .f0()?;
    /// for i in 0..500u64 {
    ///     f0.insert(i);
    /// }
    /// let reading = f0.query();
    /// assert!((reading.value - 500.0).abs() <= 0.3 * 500.0);
    /// assert!(reading.copies >= 4 && reading.copies <= 24); // log-sized pool
    /// # Ok::<(), ArsError>(())
    /// ```
    pub fn f0(&self) -> Result<DynRobust, ArsError> {
        self.validate()?;
        let plan = self.plan(self.f0_flip_number(), (self.domain.max(2)) as f64);
        // The pool routes run the strong-tracking KMV ensemble (per-copy δ
        // floored for practicality; the copy count is logarithmic in it
        // anyway); computation paths runs one fast F₀ sketch at δ₀.
        let fast = |delta0| FastF0Factory {
            config: FastF0Config::for_accuracy(self.epsilon / 4.0, delta0, self.domain),
        };
        self.route(
            self.strategy.unwrap_or_default(),
            plan,
            SketchSwitchConfig::restarting(self.epsilon),
            |delta: f64| self.f0_tracking_factory(delta.max(1e-6)),
            fast,
        )
    }

    /// The flip-number budget of `F_p` (Corollary 3.5).
    #[must_use]
    pub fn fp_flip_number(&self, p: f64) -> usize {
        FlipNumberBound::insertion_only_fp(self.epsilon / 20.0, p, self.domain, self.max_frequency)
            .bound
    }

    /// Robust `F_p` moment estimation for `0 < p ≤ 2`
    /// (Theorems 1.4 / 1.5). Rejects `p` outside `[MIN_P, 2]` (see
    /// [`ars_sketch::pstable::MIN_P`] for why the p-stable sketch stops
    /// short of 0) and the unsound cryptographic strategy with a typed
    /// error.
    ///
    /// ```
    /// use ars_core::{ArsError, RobustBuilder, RobustEstimator};
    /// use ars_sketch::Estimator;
    ///
    /// let mut f2 = RobustBuilder::new(0.3)
    ///     .stream_length(1_000)
    ///     .domain(1 << 10)
    ///     .fp(2.0)?;
    /// for i in 0..200u64 {
    ///     f2.insert(i);
    /// }
    /// // 200 singletons: F2 = 200.
    /// assert!((f2.query().value - 200.0).abs() <= 0.45 * 200.0);
    /// # Ok::<(), ArsError>(())
    /// ```
    pub fn fp(&self, p: f64) -> Result<DynRobust, ArsError> {
        self.validate()?;
        if !(MIN_P..=2.0).contains(&p) {
            return Err(
                BuildError::out_of_range("p", p, "[0.1, 2]; use fp_large for p > 2").into(),
            );
        }
        let strategy = self.strategy.unwrap_or_default();
        if let Strategy::Crypto(_) = strategy {
            return Err(BuildError::StrategyMismatch {
                problem: "Fp estimation (Theorems 1.4/1.5)",
                detail: "the cryptographic transformation (Theorem 10.1) applies only to \
                         duplicate-invariant sketches; there is no crypto route for Fp",
            }
            .into());
        }
        let value_range = (self.max_frequency as f64).powf(p.max(1.0)) * self.domain as f64;
        let plan = self.plan(self.fp_flip_number(p), value_range);
        let pstable = |delta| PStableFactory {
            config: PStableConfig::for_tracking(p, self.epsilon / 2.0, delta),
        };
        // Each pool copy tracks strongly with its share of δ: the p-stable
        // median-of-rows estimator concentrates exponentially in its row
        // count, so the boost is folded directly into the rows rather than
        // a median-of-copies layer (same asymptotics, far cheaper
        // constants).
        self.route(
            strategy,
            plan,
            SketchSwitchConfig::restarting_for_moment(self.epsilon, p),
            |delta: f64| pstable(delta.max(1e-4)),
            pstable,
        )
    }

    /// Robust `F_p` for `p > 2` (Theorem 1.7; computation paths over the
    /// heavy-elements estimator, whose space grows only logarithmically in
    /// `1/δ`). Rejects `p ≤ 2`, a non-finite `p` and
    /// non-computation-paths strategies with a typed error.
    pub fn fp_large(&self, p: f64) -> Result<DynRobust, ArsError> {
        self.validate()?;
        if !(p > 2.0 && p.is_finite()) {
            return Err(BuildError::out_of_range("p", p, "(2, inf); use fp for p <= 2").into());
        }
        self.ensure_paths("Fp estimation for p > 2 (Theorem 4.4)")?;
        let value_range = (self.max_frequency as f64).powf(p) * self.domain as f64;
        let plan = self.plan(self.fp_flip_number(p), value_range);
        // The heavy-elements estimator's space grows only logarithmically
        // in 1/δ, so it is provisioned by accuracy alone.
        self.computation_paths(plan, |_| FpLargeFactory {
            config: FpLargeConfig::for_accuracy(p, self.epsilon / 4.0, self.domain),
        })
    }

    /// Robust `F_p` for turnstile streams promised to have flip number at
    /// most `lambda` (Theorem 1.6 / 4.3). The wrapper cannot verify the
    /// promise; a reading whose health is
    /// [`crate::estimate::Health::BudgetExhausted`] flags streams that left
    /// the class. Rejects `p` outside `[MIN_P, 2]` (as
    /// [`RobustBuilder::fp`] does), a zero flip-number promise, and
    /// non-computation-paths strategies with a typed error.
    pub fn turnstile_fp(&self, p: f64, lambda: usize) -> Result<DynRobust, ArsError> {
        self.validate()?;
        if !(MIN_P..=2.0).contains(&p) {
            return Err(BuildError::out_of_range("p", p, "[0.1, 2]").into());
        }
        if lambda < 1 {
            return Err(BuildError::out_of_range("lambda", lambda as f64, "[1, inf)").into());
        }
        self.ensure_paths("turnstile Fp (Theorem 4.3)")?;
        let value_range = (self.max_frequency as f64).powf(p.max(1.0)) * self.domain as f64;
        let plan = self.plan(lambda, value_range);
        self.computation_paths(plan, |delta0| PStableFactory {
            config: PStableConfig::for_tracking(p, self.epsilon / 2.0, delta0),
        })
    }

    /// The flip-number budget of Lemma 8.2.
    #[must_use]
    pub fn bounded_deletion_flip_number(&self, p: f64, alpha: f64) -> usize {
        FlipNumberBound::bounded_deletion_lp(
            self.epsilon / 20.0,
            p,
            alpha,
            self.domain,
            self.max_frequency,
        )
        .bound
    }

    /// Robust `F_p` for α-bounded-deletion streams (Theorem 1.11 / 8.3).
    /// Rejects `p` outside `[1, 2]` (Theorem 8.3 covers p in [1, 2]), an
    /// `α` that is below 1 or not finite, and non-computation-paths
    /// strategies with a typed error.
    pub fn bounded_deletion_fp(&self, p: f64, alpha: f64) -> Result<DynRobust, ArsError> {
        self.validate()?;
        if !(1.0..=2.0).contains(&p) {
            return Err(BuildError::out_of_range("p", p, "[1, 2] (Theorem 8.3)").into());
        }
        if !(alpha >= 1.0 && alpha.is_finite()) {
            return Err(BuildError::out_of_range("alpha", alpha, "[1, inf)").into());
        }
        self.ensure_paths("bounded-deletion Fp (Theorem 8.3)")?;
        let value_range = (self.max_frequency as f64).powf(p) * self.domain as f64;
        let plan = self.plan(self.bounded_deletion_flip_number(p, alpha), value_range);
        self.computation_paths(plan, |delta0| PStableFactory {
            config: PStableConfig::for_tracking(p, self.epsilon / 2.0, delta0),
        })
    }

    /// The flip-number budget of `2^{H}` (Proposition 7.2).
    #[must_use]
    pub fn entropy_flip_number(&self) -> usize {
        FlipNumberBound::entropy_exponential(self.epsilon / 20.0, self.domain, self.stream_length)
            .bound
    }

    /// Robust ε-additive Shannon entropy (Theorem 1.10 / 7.3): tracks
    /// `2^{H(f)}` multiplicatively through exhaustible sketch switching.
    /// Rejects every strategy but sketch switching with a typed error.
    pub fn entropy(&self) -> Result<DynRobust, ArsError> {
        self.validate()?;
        if let Some(strategy) = self.strategy {
            if !matches!(strategy, Strategy::SketchSwitching) {
                return Err(BuildError::StrategyMismatch {
                    problem: "entropy (Theorem 7.3)",
                    detail: "robustifies via sketch switching only: entropy is not additive \
                             over stream suffixes, so neither the restart optimisation nor \
                             computation paths applies",
                }
                .into());
            }
        }
        // Multiplicative parameter for the exponential of the entropy: an
        // eps-additive error in bits is a 2^{±eps} multiplicative error.
        let mult_epsilon = (2f64.powf(self.epsilon) - 1.0).min(0.5);
        let lambda = self.entropy_flip_number();
        let mut plan = self.plan(lambda, (self.stream_length.max(4)) as f64);
        plan.rounding_epsilon = mult_epsilon;
        // The user-facing guarantee is ε additive bits (the engine tracks
        // 2^H multiplicatively, but readings report the entropy itself).
        plan.additive = true;
        // Entropy is not additive over stream suffixes, so the restart
        // optimization of Theorem 4.1 does not apply: Theorem 7.3 uses the
        // plain (exhaustible) sketch-switching wrapper of Lemma 3.6. The
        // flip-number budget of Proposition 7.2 is polynomial in 1/ε and
        // log n; the pool is capped at a laptop-friendly size (documented
        // constant substitution) and the wrapper degrades gracefully — it
        // keeps using its last copy — if a stream exhausts it.
        let pool = SketchSwitchConfig::exhaustible(mult_epsilon, lambda.clamp(8, 64));
        let switching = Strategy::SketchSwitching;
        match self.entropy_method {
            EntropyMethod::Renyi => {
                // A practically parametrized Rényi order: the paper's
                // α − 1 = Θ̃(ε / log² n) makes the F_α sketch astronomically
                // large; α − 1 = ε/2 with a capped row budget preserves the
                // qualitative behaviour (H_α ≤ H, converging as α → 1) at
                // laptop scale.
                let config =
                    RenyiEntropyConfig::with_alpha((1.0 + self.epsilon / 2.0).min(1.5), 1025);
                let factory = |_| ExponentialFactory {
                    inner: MedianTrackingFactory {
                        inner: RenyiEntropyFactory { config },
                        config: MedianTrackingConfig { copies: 1 },
                    },
                };
                self.route(switching, plan, pool, factory, factory)
            }
            EntropyMethod::Sampled => {
                let factory = |_| ExponentialFactory {
                    inner: MedianTrackingFactory {
                        inner: SampledEntropyFactory {
                            config: SampledEntropyConfig::for_accuracy(self.epsilon / 2.0),
                        },
                        config: MedianTrackingConfig { copies: 3 },
                    },
                };
                self.route(switching, plan, pool, factory, factory)
            }
        }
    }

    /// Robust `L₂` heavy hitters / point queries (Theorem 1.9 / 6.5).
    /// Rejects every strategy but sketch switching with a typed error.
    pub fn heavy_hitters(&self) -> Result<RobustL2HeavyHitters, ArsError> {
        self.validate()?;
        if let Some(strategy) = self.strategy {
            if !matches!(strategy, Strategy::SketchSwitching) {
                return Err(BuildError::StrategyMismatch {
                    problem: "L2 heavy hitters (Theorem 6.5)",
                    detail: "robustifies via sketch switching only: the structure freezes \
                             point-query snapshots per published norm change",
                }
                .into());
            }
        }
        RobustL2HeavyHitters::from_builder(self)
    }

    /// The strong-tracking KMV ensemble behind the pool-based `F₀` routes
    /// (Theorem 1.1's static ingredient): a median ensemble of KMV
    /// sketches at accuracy ε/4, provisioned for the given per-copy
    /// failure probability. Exposed so external drivers (the E14 and E15
    /// experiments' capped exhaustible pools) build on the exact same
    /// ingredient instead of hand-copying the recipe.
    #[must_use]
    pub fn f0_tracking_factory(&self, per_copy_delta: f64) -> MedianTrackingFactory<KmvFactory> {
        MedianTrackingFactory {
            inner: KmvFactory {
                config: KmvConfig::for_accuracy(self.epsilon / 4.0),
            },
            config: MedianTrackingConfig::for_strong_tracking(
                self.epsilon / 4.0,
                per_copy_delta,
                self.stream_length,
            ),
        }
    }

    /// The one route table for the problems that admit every strategy:
    /// builds `strategy`'s core around a problem's static factories and
    /// wraps it in the engine under `plan`. Problem constructors reject
    /// the routes they do not admit before calling it; the problems whose
    /// only route is computation paths call `computation_paths` directly,
    /// and `pool` is the rotation the switching route uses.
    ///
    /// This is the only place that knows how each route spends δ:
    ///
    /// * the pool routes build every copy from `pooled` at δ split evenly
    ///   over the pool — λ copies' worth for switching (Lemma 3.6 charges
    ///   a copy per flip, whatever size `pool` gives the rotation),
    ///   [`DpAggregationConfig::copies_for_flip_budget`] for DP aggregation
    ///   and the schedule's chunk count for difference estimators
    ///   (`pooled` applies the problem's practical floor to that split);
    /// * computation paths builds its one copy from `single` at Lemma
    ///   3.8's union-bound δ₀, floored at the practical δ floor;
    /// * the crypto route (Theorem 10.1, `F₀` only) masks items into one
    ///   strong-tracking KMV ensemble at the full δ.
    fn route<P, S>(
        &self,
        strategy: Strategy,
        mut plan: RobustPlan,
        pool: SketchSwitchConfig,
        pooled: impl Fn(f64) -> P,
        single: impl FnOnce(f64) -> S,
    ) -> Result<DynRobust, ArsError>
    where
        P: EstimatorFactory + Send + 'static,
        P::Output: Send + 'static,
        S: EstimatorFactory,
        S::Output: Send + 'static,
    {
        let split = |copies: usize| self.delta / copies as f64;
        let seed = self.seed;
        let core: Box<dyn StrategyCore + Send> = match strategy {
            Strategy::SketchSwitching => {
                Box::new(SketchSwitch::new(pooled(split(plan.lambda)), pool, seed))
            }
            Strategy::ComputationPaths => return self.computation_paths(plan, single),
            Strategy::Crypto(backend) => {
                let factory = MedianTrackingFactory {
                    inner: KmvFactory {
                        config: KmvConfig::for_accuracy(self.epsilon / 2.0),
                    },
                    config: MedianTrackingConfig::for_strong_tracking(
                        self.epsilon / 2.0,
                        self.delta,
                        self.stream_length,
                    ),
                };
                // The crypto argument needs no flip budget; report
                // "unlimited" so the budget never exhausts.
                plan.lambda = usize::MAX;
                Box::new(CryptoMask::new(backend, &factory, seed))
            }
            Strategy::DpAggregation => {
                let config = DpAggregationConfig::from_plan(&plan);
                let factory = pooled(split(config.copies));
                Box::new(DpAggregation::new(&factory, config, seed))
            }
            Strategy::DifferenceEstimators => {
                let schedule = DifferenceSchedule::for_flip_budget(plan.lambda);
                let factory = pooled(split(schedule.chunks()));
                schedule.provision(&mut plan);
                Box::new(DifferenceEstimators::new(&factory, schedule, seed))
            }
        };
        Robustify::new(core, plan)
    }

    /// The computation-paths route (Lemma 3.8): one copy from `single` at
    /// the union-bound δ₀, floored at the practical δ floor.
    fn computation_paths<S>(
        &self,
        plan: RobustPlan,
        single: impl FnOnce(f64) -> S,
    ) -> Result<DynRobust, ArsError>
    where
        S: EstimatorFactory,
        S::Output: Send + 'static,
    {
        /// Practical floor for the computation-paths per-path failure
        /// probability: the theoretical δ₀ underflows `f64` and would make
        /// the static sketch enormous, so the route floors it here and
        /// experiments report the theoretical exponent alongside.
        const PRACTICAL_DELTA_FLOOR: f64 = 1e-12;

        let config = ComputationPathsConfig::from_plan(&plan);
        let delta0 = config.required_delta_clamped().max(PRACTICAL_DELTA_FLOOR);
        let core: Box<dyn StrategyCore + Send> =
            Box::new(ComputationPaths::new(&single(delta0), config, self.seed));
        Robustify::new(core, plan)
    }

    fn ensure_paths(&self, problem: &'static str) -> Result<(), BuildError> {
        if let Some(strategy) = self.strategy {
            if !matches!(strategy, Strategy::ComputationPaths) {
                return Err(BuildError::StrategyMismatch {
                    problem,
                    detail: "robustifies via computation paths only",
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RobustEstimator;
    use crate::estimate::Health;
    use ars_sketch::Estimator;
    use ars_stream::generator::{
        BoundedDeletionGenerator, Generator, SlidingDistinctGenerator, TurnstileWaveGenerator,
        UniformGenerator, ZipfGenerator,
    };
    use ars_stream::{FrequencyVector, StreamModel, StreamValidator, Update};

    #[test]
    fn every_problem_is_constructible_and_boxable() {
        let builder = RobustBuilder::new(0.3)
            .stream_length(2_000)
            .domain(1 << 10)
            .max_frequency(1 << 10)
            .seed(5);
        let estimators: Vec<Box<dyn RobustEstimator>> = vec![
            Box::new(builder.f0().unwrap()),
            Box::new(builder.strategy(Strategy::ComputationPaths).f0().unwrap()),
            Box::new(builder.strategy(Strategy::DpAggregation).f0().unwrap()),
            Box::new(builder.strategy(Strategy::DpAggregation).fp(2.0).unwrap()),
            Box::new(
                builder
                    .strategy(Strategy::DifferenceEstimators)
                    .f0()
                    .unwrap(),
            ),
            Box::new(
                builder
                    .strategy(Strategy::DifferenceEstimators)
                    .fp(2.0)
                    .unwrap(),
            ),
            Box::new(builder.fp(1.0).unwrap()),
            Box::new(builder.fp(2.0).unwrap()),
            Box::new(builder.fp_large(3.0).unwrap()),
            Box::new(builder.turnstile_fp(2.0, 200).unwrap()),
            Box::new(builder.bounded_deletion_fp(1.0, 2.0).unwrap()),
            Box::new(builder.entropy().unwrap()),
            Box::new(builder.heavy_hitters().unwrap()),
            Box::new(
                builder
                    .strategy(Strategy::Crypto(CryptoBackend::default()))
                    .f0()
                    .unwrap(),
            ),
        ];
        for mut estimator in estimators {
            for i in 0..300u64 {
                estimator.insert(i % 97);
            }
            assert!(estimator.space_bytes() > 0, "{}", estimator.strategy_name());
            assert!(estimator.estimate() >= 0.0);
            assert_eq!(RobustEstimator::epsilon(estimator.as_ref()), 0.3);
        }
    }

    #[test]
    fn strategy_selection_reaches_the_engine() {
        let builder = RobustBuilder::new(0.2).stream_length(1_000).domain(1 << 10);
        assert_eq!(
            builder.f0().unwrap().strategy_name(),
            "sketch-switching (restarting)"
        );
        assert_eq!(
            builder
                .strategy(Strategy::ComputationPaths)
                .f0()
                .unwrap()
                .strategy_name(),
            "computation-paths"
        );
        assert_eq!(
            builder
                .strategy(Strategy::Crypto(CryptoBackend::RandomOracle))
                .f0()
                .unwrap()
                .strategy_name(),
            "crypto-mask"
        );
        assert_eq!(
            builder
                .strategy(Strategy::DpAggregation)
                .f0()
                .unwrap()
                .strategy_name(),
            "dp-aggregation"
        );
        assert_eq!(
            builder
                .strategy(Strategy::DifferenceEstimators)
                .f0()
                .unwrap()
                .strategy_name(),
            "difference-estimators"
        );
    }

    fn kmv_factory() -> KmvFactory {
        KmvFactory {
            config: KmvConfig::for_accuracy(0.1),
        }
    }

    #[test]
    fn every_strategy_wraps_the_same_factory() {
        // The route table is generic over the static factory: every route
        // but crypto (which masks into its own F0 ensemble) runs on a bare
        // KMV sketch as readily as on the problem's own ingredient.
        let builder = RobustBuilder::new(0.2).seed(1);
        for strategy in [
            Strategy::SketchSwitching,
            Strategy::ComputationPaths,
            Strategy::Crypto(CryptoBackend::ChaChaPrf),
            Strategy::Crypto(CryptoBackend::RandomOracle),
            Strategy::DpAggregation,
            Strategy::DifferenceEstimators,
        ] {
            let pool = SketchSwitchConfig::restarting(0.2);
            let plan = RobustPlan::new(0.2, 500);
            let mut robust = builder
                .route(strategy, plan, pool, |_| kmv_factory(), |_| kmv_factory())
                .unwrap();
            for i in 0..2_000u64 {
                robust.insert(i % 700);
            }
            let est = robust.estimate();
            assert!(
                (est - 700.0).abs() <= 0.25 * 700.0,
                "{strategy:?}: estimate {est} for 700 distinct"
            );
            assert!(robust.space_bytes() > 0, "{strategy:?}");
        }
    }

    #[test]
    fn pool_routes_split_delta_over_their_copies() {
        // Each pool route builds its copies at delta over its own copy
        // count: lambda for switching (whatever pool the problem names),
        // sqrt(lambda) for DP aggregation, the chunk count for difference
        // estimators.
        let lambda = 1_000;
        let builder = RobustBuilder::new(0.2).delta(0.01).seed(2);
        let schedule = DifferenceSchedule::for_flip_budget(lambda);
        let dp_copies = DpAggregationConfig::copies_for_flip_budget(lambda);
        for (strategy, split, copies) in [
            (Strategy::SketchSwitching, lambda, 7),
            (Strategy::DpAggregation, dp_copies, dp_copies),
            (
                Strategy::DifferenceEstimators,
                schedule.chunks(),
                schedule.chunks(),
            ),
        ] {
            let seen = std::cell::Cell::new(0.0);
            let pooled = |delta| {
                seen.set(delta);
                kmv_factory()
            };
            let pool = SketchSwitchConfig::exhaustible(0.2, 7);
            let plan = RobustPlan::new(0.2, lambda);
            let robust = builder
                .route(strategy, plan, pool, pooled, |_| kmv_factory())
                .unwrap();
            assert_eq!(seen.get(), 0.01 / split as f64, "{strategy:?}");
            assert_eq!(RobustEstimator::copies(&robust), copies, "{strategy:?}");
        }
    }

    #[test]
    fn crypto_strategy_reports_unlimited_budget() {
        for backend in [CryptoBackend::ChaChaPrf, CryptoBackend::RandomOracle] {
            let mut robust = RobustBuilder::new(0.2)
                .strategy(Strategy::Crypto(backend))
                .seed(7)
                .f0()
                .unwrap();
            for i in 0..5_000u64 {
                robust.insert(i);
            }
            assert_eq!(robust.flip_budget(), usize::MAX);
            assert_eq!(robust.query().health, Health::WithinGuarantee);
            assert_eq!(robust.output_changes(), 0, "raw mode tracks no rounding");
        }
    }

    #[test]
    fn difference_estimator_pools_are_logarithmic_in_the_flip_budget() {
        use crate::difference_estimators::DifferenceSchedule;

        let builder = RobustBuilder::new(0.25)
            .stream_length(2_000)
            .domain(1 << 12);
        let lambda = builder.f0_flip_number();
        let schedule = DifferenceSchedule::for_flip_budget(lambda);
        let de = builder
            .strategy(Strategy::DifferenceEstimators)
            .f0()
            .unwrap();
        assert_eq!(RobustEstimator::copies(&de), schedule.chunks());
        assert!(
            RobustEstimator::copies(&de) < DpAggregationConfig::copies_for_flip_budget(lambda),
            "the chunk pool must undercut even the DP pool"
        );
        // Readings report the provisioned (improved) budget, >= analytic λ.
        assert_eq!(
            RobustEstimator::flip_budget(&de),
            schedule.total_flip_budget()
        );
        assert!(RobustEstimator::flip_budget(&de) >= lambda);
        // The same accounting holds for the Fp route.
        let de2 = builder
            .strategy(Strategy::DifferenceEstimators)
            .fp(2.0)
            .unwrap();
        let fp_schedule = DifferenceSchedule::for_flip_budget(builder.fp_flip_number(2.0));
        assert_eq!(RobustEstimator::copies(&de2), fp_schedule.chunks());
    }

    #[test]
    #[should_panic(expected = "sketch switching only")]
    fn rejects_difference_estimators_for_entropy() {
        RobustBuilder::new(0.1)
            .strategy(Strategy::DifferenceEstimators)
            .entropy()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "computation paths only")]
    fn rejects_difference_estimators_for_turnstile() {
        RobustBuilder::new(0.1)
            .strategy(Strategy::DifferenceEstimators)
            .turnstile_fp(2.0, 10)
            .unwrap();
    }

    #[test]
    fn dp_aggregation_pools_are_sublinear_in_the_flip_budget() {
        let builder = RobustBuilder::new(0.25)
            .stream_length(2_000)
            .domain(1 << 12);
        let lambda = builder.f0_flip_number();
        let dp = builder.strategy(Strategy::DpAggregation).f0().unwrap();
        let copies = RobustEstimator::copies(&dp);
        assert_eq!(copies, DpAggregationConfig::copies_for_flip_budget(lambda));
        assert!(
            copies < lambda / 4,
            "{copies} copies for flip budget {lambda}"
        );
    }

    #[test]
    fn theorem_10_1_preset_pins_the_paper_delta() {
        // The preset must equal the explicit Theorem 10.1 configuration:
        // delta = 1/4 and the default crypto backend, hence the same
        // tracking ensemble under the same seed.
        let preset = RobustBuilder::theorem_10_1(0.1).seed(3).f0().unwrap();
        let explicit = RobustBuilder::new(0.1)
            .delta(0.25)
            .strategy(Strategy::Crypto(CryptoBackend::default()))
            .seed(3)
            .f0()
            .unwrap();
        assert_eq!(preset.strategy_name(), "crypto-mask");
        assert_eq!(preset.space_bytes(), explicit.space_bytes());
        // The preset pins delta = 1/4, against the shared default of 1e-3
        // — the footgun the preset exists to avoid. (At some parameter
        // points the tracking-ensemble clamp makes the two deltas produce
        // the same sketch size, so the assertion is on the parameter, not
        // on space.)
        assert_eq!(RobustBuilder::theorem_10_1(0.1).raw_parameters().0, 0.25);
        assert_eq!(RobustBuilder::new(0.1).raw_parameters().0, 1e-3);
    }

    #[test]
    #[should_panic(expected = "sketch switching only")]
    fn rejects_dp_aggregation_for_heavy_hitters() {
        RobustBuilder::new(0.1)
            .strategy(Strategy::DpAggregation)
            .heavy_hitters()
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "computation paths only")]
    fn rejects_dp_aggregation_for_fp_large() {
        RobustBuilder::new(0.1)
            .strategy(Strategy::DpAggregation)
            .fp_large(3.0)
            .unwrap();
    }

    #[test]
    fn flip_numbers_scale_as_the_corollaries_say() {
        let coarse = RobustBuilder::new(0.5).domain(1 << 16);
        let fine = RobustBuilder::new(0.05).domain(1 << 16);
        assert!(fine.f0_flip_number() > coarse.f0_flip_number());
        assert!(fine.fp_flip_number(2.0) > fine.fp_flip_number(1.0));
        assert!(
            fine.bounded_deletion_flip_number(1.0, 8.0)
                > fine.bounded_deletion_flip_number(1.0, 2.0)
        );
    }

    #[test]
    #[should_panic(expected = "field: \"epsilon\"")]
    fn rejects_bad_epsilon() {
        RobustBuilder::new(1.5).fp(2.0).unwrap();
    }

    #[test]
    #[should_panic(expected = "field: \"epsilon\"")]
    fn f0_builder_rejects_bad_epsilon() {
        RobustBuilder::new(1.5).f0().unwrap();
    }

    #[test]
    fn f0_engine_implements_the_estimator_trait() {
        let mut robust = RobustBuilder::new(0.3).seed(11).f0().unwrap();
        for i in 0..500u64 {
            Estimator::update(&mut robust, Update::insert(i));
        }
        let est = Estimator::estimate(&robust);
        assert!((est - 500.0).abs() <= 0.35 * 500.0);
    }

    #[test]
    fn crypto_strategy_is_reachable_through_f0() {
        let mut robust = RobustBuilder::new(0.15)
            .strategy(Strategy::Crypto(CryptoBackend::ChaChaPrf))
            .seed(3)
            .f0()
            .unwrap();
        for i in 0..3_000u64 {
            robust.insert(i % 1_000);
        }
        let est = robust.estimate();
        assert!((est - 1_000.0).abs() <= 0.2 * 1_000.0, "estimate {est}");
        assert_eq!(RobustEstimator::strategy_name(&robust), "crypto-mask");
    }

    #[test]
    #[should_panic(expected = "field: \"delta\"")]
    fn rejects_bad_delta() {
        RobustBuilder::new(0.1).delta(0.0).f0().unwrap();
    }

    #[test]
    #[should_panic(expected = "no crypto route for Fp")]
    fn rejects_crypto_for_fp() {
        RobustBuilder::new(0.1)
            .strategy(Strategy::Crypto(CryptoBackend::ChaChaPrf))
            .fp(2.0)
            .unwrap();
    }

    #[test]
    #[should_panic(expected = "computation paths only")]
    fn rejects_switching_for_turnstile() {
        RobustBuilder::new(0.1)
            .strategy(Strategy::SketchSwitching)
            .turnstile_fp(2.0, 10)
            .unwrap();
    }

    // ------------------------------------------------------------------
    // Per-problem behaviour: tracking, flip accounting and validation of
    // each constructor's engine.
    // ------------------------------------------------------------------

    fn worst_f0_tracking_error(strategy: Strategy, epsilon: f64, seed: u64) -> f64 {
        let mut robust = RobustBuilder::new(epsilon)
            .strategy(strategy)
            .stream_length(40_000)
            .domain(1 << 18)
            .seed(seed)
            .f0()
            .unwrap();
        let updates = UniformGenerator::new(1 << 18, seed).take_updates(40_000);
        let mut truth = FrequencyVector::new();
        let mut worst: f64 = 0.0;
        for &u in &updates {
            truth.apply(u);
            robust.update(u);
            let t = truth.f0() as f64;
            if t >= 200.0 {
                worst = worst.max(((robust.estimate() - t) / t).abs());
            }
        }
        worst
    }

    #[test]
    fn sketch_switching_tracks_distinct_elements() {
        let worst = worst_f0_tracking_error(Strategy::SketchSwitching, 0.2, 3);
        assert!(worst <= 0.25, "worst-case error {worst}");
    }

    #[test]
    fn computation_paths_tracks_distinct_elements() {
        let worst = worst_f0_tracking_error(Strategy::ComputationPaths, 0.2, 5);
        assert!(worst <= 0.25, "worst-case error {worst}");
    }

    #[test]
    fn plateauing_streams_stabilize_the_output() {
        let mut robust = RobustBuilder::new(0.1).seed(7).f0().unwrap();
        for u in SlidingDistinctGenerator::new(2_000, 9).take_updates(20_000) {
            robust.update(u);
        }
        // Final truth is exactly 2000 distinct items.
        let est = robust.estimate();
        assert!(
            (est - 2_000.0).abs() <= 0.15 * 2_000.0,
            "estimate {est} for 2000 distinct"
        );
        // Once the distinct count plateaus the output stops changing, so the
        // number of output changes stays near the flip bound for 2000.
        let bound = ((2_000f64).ln() / (1.05f64).ln()).ceil() as usize + 5;
        assert!(robust.output_changes() <= bound);
    }

    #[test]
    fn builder_reports_flip_number_and_epsilon() {
        let builder = RobustBuilder::new(0.1).domain(1 << 16);
        assert!(builder.f0_flip_number() > 100);
        let robust = builder.f0().unwrap();
        assert_eq!(robust.epsilon(), 0.1);
        assert!(robust.space_bytes() > 0);
    }

    #[test]
    fn tracks_distinct_elements_with_both_backends() {
        for backend in [CryptoBackend::ChaChaPrf, CryptoBackend::RandomOracle] {
            let mut robust = RobustBuilder::theorem_10_1(0.1)
                .strategy(Strategy::Crypto(backend))
                .stream_length(30_000)
                .seed(3)
                .f0()
                .unwrap();
            let updates = UniformGenerator::new(1 << 16, 5).take_updates(30_000);
            let mut truth = FrequencyVector::new();
            let mut worst: f64 = 0.0;
            for &u in &updates {
                truth.apply(u);
                robust.update(u);
                let t = truth.f0() as f64;
                if t > 500.0 {
                    worst = worst.max(((robust.estimate() - t) / t).abs());
                }
            }
            assert!(worst < 0.2, "{backend:?}: worst tracking error {worst}");
        }
    }

    #[test]
    fn duplicate_probing_does_not_move_the_estimate() {
        // The key property the Theorem 10.1 proof uses: repeats leave the
        // state unchanged, so an adversary replaying old items learns
        // nothing and changes nothing.
        let mut robust = RobustBuilder::theorem_10_1(0.1).seed(7).f0().unwrap();
        for i in 0..2_000u64 {
            robust.insert(i);
        }
        let before = robust.estimate();
        for _ in 0..10 {
            for i in 0..2_000u64 {
                robust.insert(i);
            }
        }
        assert_eq!(robust.estimate(), before);
    }

    #[test]
    fn space_overhead_over_the_static_sketch_is_a_key() {
        use ars_sketch::kmv::{KmvConfig, KmvFactory};
        use ars_sketch::tracking::{MedianTrackingConfig, MedianTrackingFactory};

        let robust = RobustBuilder::theorem_10_1(0.1)
            .stream_length(1 << 16)
            .f0()
            .unwrap();
        let static_sketch = MedianTrackingFactory {
            inner: KmvFactory {
                config: KmvConfig::for_accuracy(0.05),
            },
            config: MedianTrackingConfig::for_strong_tracking(0.05, 0.25, 1 << 16),
        }
        .build(0);
        // The robust version costs at most the static sketch plus a few
        // hundred bytes of key material (compare with the multiplicative
        // lambda-factor blow-up of sketch switching).
        assert!(robust.space_bytes() <= static_sketch.space_bytes() + 256);
    }

    #[test]
    fn deletions_are_ignored() {
        let mut robust = RobustBuilder::theorem_10_1(0.2).seed(9).f0().unwrap();
        robust.insert(1);
        robust.update(Update::delete(1));
        assert_eq!(robust.estimate(), 1.0);
    }

    #[test]
    fn different_keys_give_different_internal_views_but_same_answers() {
        let mut a = RobustBuilder::theorem_10_1(0.1).seed(1).f0().unwrap();
        let mut b = RobustBuilder::theorem_10_1(0.1).seed(2).f0().unwrap();
        for i in 0..5_000u64 {
            a.insert(i);
            b.insert(i);
        }
        let (ea, eb) = (a.estimate(), b.estimate());
        assert!(((ea - eb) / eb).abs() < 0.2, "estimates {ea} vs {eb}");
    }

    #[test]
    fn raw_publication_reports_no_flip_budget() {
        let robust = RobustBuilder::theorem_10_1(0.2).f0().unwrap();
        assert_eq!(robust.flip_budget(), usize::MAX);
        assert_eq!(robust.query().health, Health::WithinGuarantee);
    }

    fn worst_fp_tracking_error(
        p: f64,
        strategy: Strategy,
        epsilon: f64,
        m: usize,
        seed: u64,
    ) -> f64 {
        let mut robust = RobustBuilder::new(epsilon)
            .strategy(strategy)
            .stream_length(m as u64)
            .domain(1 << 12)
            .max_frequency(1 << 16)
            .seed(seed)
            .fp(p)
            .unwrap();
        let updates = ZipfGenerator::new(1 << 12, 1.1, seed).take_updates(m);
        let mut truth = FrequencyVector::new();
        let mut worst: f64 = 0.0;
        for &u in &updates {
            truth.apply(u);
            robust.update(u);
            let t = truth.fp(p);
            if truth.updates_applied() >= 500 {
                worst = worst.max(((robust.estimate() - t) / t).abs());
            }
        }
        worst
    }

    #[test]
    fn robust_f2_by_sketch_switching_tracks() {
        let worst = worst_fp_tracking_error(2.0, Strategy::SketchSwitching, 0.25, 10_000, 3);
        assert!(worst <= 0.35, "worst-case error {worst}");
    }

    #[test]
    fn robust_f1_by_sketch_switching_tracks() {
        let worst = worst_fp_tracking_error(1.0, Strategy::SketchSwitching, 0.3, 8_000, 5);
        assert!(worst <= 0.4, "worst-case error {worst}");
    }

    #[test]
    fn robust_fp_by_computation_paths_tracks() {
        let worst = worst_fp_tracking_error(1.5, Strategy::ComputationPaths, 0.25, 8_000, 7);
        assert!(worst <= 0.35, "worst-case error {worst}");
    }

    #[test]
    fn robust_fp_large_tracks_f3_on_skewed_streams() {
        let p = 3.0;
        let mut robust = RobustBuilder::new(0.3)
            .domain(1 << 12)
            .stream_length(20_000)
            .seed(11)
            .fp_large(p)
            .unwrap();
        let updates = ZipfGenerator::new(1 << 12, 1.4, 11).take_updates(20_000);
        let mut truth = FrequencyVector::new();
        let mut worst: f64 = 0.0;
        for &u in &updates {
            truth.apply(u);
            robust.update(u);
            let t = truth.fp(p);
            if truth.updates_applied() >= 2_000 {
                worst = worst.max(((robust.estimate() - t) / t).abs());
            }
        }
        assert!(worst <= 0.5, "worst-case F3 error {worst}");
    }

    #[test]
    fn builders_expose_flip_numbers() {
        let small_eps = RobustBuilder::new(0.05).fp_flip_number(1.0);
        let large_eps = RobustBuilder::new(0.5).fp_flip_number(1.0);
        assert!(small_eps > large_eps);
        assert!(RobustBuilder::new(0.1).domain(1 << 16).fp_flip_number(4.0) > 0);
    }

    #[test]
    fn space_reflects_the_method_tradeoff() {
        // Sketch switching keeps many copies; computation paths keeps one
        // (larger) copy. Both must at least report non-trivial space.
        let switching = RobustBuilder::new(0.3).fp(2.0).unwrap();
        let paths = RobustBuilder::new(0.3)
            .strategy(Strategy::ComputationPaths)
            .fp(2.0)
            .unwrap();
        assert!(switching.space_bytes() > 1_000);
        assert!(paths.space_bytes() > 1_000);
    }

    #[test]
    #[should_panic(expected = "use fp_large for p > 2")]
    fn robust_fp_rejects_large_p() {
        RobustBuilder::new(0.1).fp(3.0).unwrap();
    }

    #[test]
    #[should_panic(expected = "use fp for p <= 2")]
    fn robust_fp_large_rejects_small_p() {
        RobustBuilder::new(0.1).fp_large(2.0).unwrap();
    }

    #[test]
    fn tracks_f2_through_insert_delete_waves() {
        // Two full waves of 3000 items each: the F2 rises to 3000 and falls
        // back to 0 twice. Flip number is about 2 * 2 * log_{1+eps}(3000).
        let epsilon = 0.25;
        let lambda = 2 * 2 * ((3000f64).ln() / (1.0_f64 + epsilon / 20.0).ln()).ceil() as usize;
        let mut robust = RobustBuilder::new(epsilon)
            .stream_length(20_000)
            .domain(1 << 14)
            .max_frequency(4)
            .seed(3)
            .turnstile_fp(2.0, lambda)
            .unwrap();
        let updates = TurnstileWaveGenerator::new(3_000).take_updates(12_000);
        let mut truth = FrequencyVector::new();
        let mut worst: f64 = 0.0;
        for &u in &updates {
            truth.apply(u);
            robust.update(u);
            let t = truth.f2();
            if t >= 300.0 {
                worst = worst.max(((robust.estimate() - t) / t).abs());
            }
        }
        assert!(worst <= 0.35, "worst-case error {worst}");
        assert_eq!(
            robust.query().health,
            Health::WithinGuarantee,
            "budget should cover two waves"
        );
    }

    #[test]
    fn health_flags_streams_outside_the_class() {
        // Promise lambda = 3 but run a stream whose F2 doubles many times.
        let mut robust = RobustBuilder::new(0.2)
            .stream_length(10_000)
            .seed(5)
            .turnstile_fp(2.0, 3)
            .unwrap();
        for i in 0..5_000u64 {
            robust.insert(i);
        }
        assert_eq!(robust.query().health, Health::BudgetExhausted);
    }

    #[test]
    fn negative_frequencies_are_handled() {
        // Drive a coordinate negative: F2 must still be tracked since the
        // p-stable sketch is linear.
        let mut robust = RobustBuilder::new(0.3)
            .stream_length(1_000)
            .seed(7)
            .turnstile_fp(2.0, 100)
            .unwrap();
        let mut truth = FrequencyVector::new();
        for _ in 0..100 {
            let u = Update::new(1, -1);
            truth.apply(u);
            robust.update(u);
        }
        let t = truth.f2();
        let est = robust.estimate();
        assert!(((est - t) / t).abs() <= 0.35, "estimate {est} vs truth {t}");
    }

    #[test]
    fn turnstile_builder_reports_lambda_as_flip_budget() {
        let robust = RobustBuilder::new(0.2).turnstile_fp(1.0, 50).unwrap();
        assert_eq!(robust.flip_budget(), 50);
        assert!(robust.space_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "field: \"lambda\"")]
    fn zero_lambda_is_rejected() {
        RobustBuilder::new(0.2).turnstile_fp(1.0, 0).unwrap();
    }

    #[test]
    fn tracks_f1_on_bounded_deletion_streams() {
        let alpha = 2.0;
        let mut robust = RobustBuilder::new(0.25)
            .stream_length(15_000)
            .domain(1 << 14)
            .max_frequency(4)
            .seed(3)
            .bounded_deletion_fp(1.0, alpha)
            .unwrap();
        let updates = BoundedDeletionGenerator::new(alpha, 500, 7).take_updates(15_000);
        // Confirm the generator respects the model it claims.
        StreamValidator::new(StreamModel::bounded_deletion(alpha, 1.0))
            .apply_all(&updates)
            .expect("generator stays in model");
        let mut truth = FrequencyVector::new();
        let mut worst: f64 = 0.0;
        for &u in &updates {
            truth.apply(u);
            robust.update(u);
            let t = truth.l1();
            if t >= 200.0 {
                worst = worst.max(((robust.estimate() - t) / t).abs());
            }
        }
        assert!(worst <= 0.35, "worst-case error {worst}");
    }

    #[test]
    fn tracks_f2_on_bounded_deletion_streams() {
        let alpha = 3.0;
        let mut robust = RobustBuilder::new(0.3)
            .stream_length(12_000)
            .domain(1 << 14)
            .max_frequency(4)
            .seed(5)
            .bounded_deletion_fp(2.0, alpha)
            .unwrap();
        let updates = BoundedDeletionGenerator::new(alpha, 400, 11).take_updates(12_000);
        let mut truth = FrequencyVector::new();
        let mut worst: f64 = 0.0;
        for &u in &updates {
            truth.apply(u);
            robust.update(u);
            let t = truth.f2();
            if t >= 200.0 {
                worst = worst.max(((robust.estimate() - t) / t).abs());
            }
        }
        assert!(worst <= 0.4, "worst-case error {worst}");
    }

    #[test]
    fn flip_number_grows_with_alpha_and_inverse_epsilon() {
        let base = RobustBuilder::new(0.2).bounded_deletion_flip_number(1.0, 2.0);
        let more_deletions = RobustBuilder::new(0.2).bounded_deletion_flip_number(1.0, 8.0);
        let finer = RobustBuilder::new(0.05).bounded_deletion_flip_number(1.0, 2.0);
        assert!(more_deletions > base);
        assert!(finer > base);
    }

    #[test]
    fn output_changes_stay_within_budget_on_model_streams() {
        let alpha = 2.0;
        let mut robust = RobustBuilder::new(0.3)
            .stream_length(10_000)
            .domain(1 << 12)
            .max_frequency(4)
            .seed(13)
            .bounded_deletion_fp(1.0, alpha)
            .unwrap();
        for u in BoundedDeletionGenerator::new(alpha, 300, 17).take_updates(10_000) {
            robust.update(u);
        }
        assert!(
            robust.output_changes() <= robust.flip_budget(),
            "output changed {} times, budget {}",
            robust.output_changes(),
            robust.flip_budget()
        );
    }

    #[test]
    #[should_panic(expected = "Theorem 8.3")]
    fn rejects_p_outside_range() {
        RobustBuilder::new(0.1)
            .bounded_deletion_fp(0.5, 2.0)
            .unwrap();
    }
}
