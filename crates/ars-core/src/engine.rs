//! The generic robustification engine.
//!
//! The paper's central message is that robustness is a *generic
//! transformation*: take any static sketch with a strong-tracking
//! guarantee, bound the flip number of the tracked function, and wrap the
//! sketch so that only ε-rounded outputs are ever published. Everything
//! that is common to the transformations — the ε-rounding of published
//! outputs, the flip-number budget accounting, the switch bookkeeping, the
//! space accounting — lives exactly once, here, in [`Robustify`].
//!
//! What *varies* between the paper's constructions is how the static
//! sketch state is organised and what happens when a new value is
//! published; that seam is the [`StrategyCore`] trait:
//!
//! * sketch switching ([`crate::sketch_switch::SketchSwitch`]) feeds every
//!   update to a pool of copies and retires the active copy whenever its
//!   estimate is exposed through a publication;
//! * computation paths ([`crate::computation_paths::ComputationPaths`])
//!   keeps a single tiny-δ copy and does nothing on publication — the
//!   union bound over output sequences does the work;
//! * the cryptographic route ([`crate::crypto_mask::CryptoMask`]) masks
//!   items through a PRF and publishes raw estimates
//!   ([`RoundingMode::Raw`]).
//!
//! A new strategy implements [`StrategyCore`], gains one arm in the
//! builder's route table, and inherits the whole engine, builder and
//! trait-object surface for free — the differential-privacy pool
//! ([`crate::dp_aggregation`]) and the difference estimators
//! ([`crate::difference_estimators`]) both arrived exactly this way; see
//! `docs/ARCHITECTURE.md` for the worked recipe.

use ars_sketch::Estimator;
use ars_stream::Update;

use crate::api::RobustEstimator;
use crate::error::{ArsError, BuildError};
use crate::estimate::{Estimate, FlipBudget};
use crate::rounding::EpsilonRounder;

/// Derives the seed for copy `index` of a pool strategy from the pool's
/// base seed (SplitMix64-style mixing). Shared by every strategy that
/// instantiates multiple copies so their seed streams stay in one place.
#[must_use]
pub(crate) fn derive_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .rotate_left(17)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
}

/// The engine's publication accounting, as captured for (and restored
/// from) a snapshot: the raw published anchor, the flip ledger, and the
/// provisioned λ.
///
/// In [`RoundingMode::Windowed`] a reading is a pure function of this
/// state (plus the deterministic plan and copy count) — the published
/// value is a *path-dependent* rounding anchor, so replaying the exact
/// frequency vector into a fresh estimator reproduces the sketch state but
/// **not** the anchor or the ledger. Restoring this state alongside the
/// replay is what makes a restored reading bitwise-identical; see
/// [`crate::manager::SessionManager::restore_json`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PublicationState {
    /// The raw published value (pre any additive/log transform), `None` if
    /// nothing has been published yet or the mode is [`RoundingMode::Raw`]
    /// (where readings are recomputed from the sketch, not anchored).
    pub published: Option<f64>,
    /// Output changes spent so far against the budget.
    pub flips: usize,
    /// The provisioned flip budget λ, raw (`usize::MAX` = unbounded). Kept
    /// here because a rebuilt estimator's λ can differ from its spec's:
    /// re-provisioning passes a doubled λ hint, which a problem whose λ is
    /// an explicit promise (turnstile `F_p`) honours, so a snapshot taken
    /// after such a rebuild must restore the doubled budget, not the
    /// spec's original one. An analytic budget (`F₀`, `F_p`, entropy)
    /// ignores the hint and is rebuilt at the same λ.
    pub lambda: usize,
}

/// How the engine publishes outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoundingMode {
    /// Publish ε-rounded values that only change when the raw estimate
    /// leaves the current window (Definition 3.7). Used by sketch
    /// switching and computation paths.
    #[default]
    Windowed,
    /// Publish the raw estimate directly. Used by the cryptographic
    /// route, whose robustness argument does not go through rounding.
    Raw,
}

/// The strategy-specific state driven by [`Robustify`].
///
/// Object-safe on purpose: the problem-specific estimator types store a
/// `Box<dyn StrategyCore + Send>`, so one engine type serves every
/// strategy × sketch combination without an enum per problem.
pub trait StrategyCore: Send {
    /// Feeds one update to the underlying static state. Must **not**
    /// publish anything: publication decisions belong to the engine.
    fn ingest(&mut self, update: Update);

    /// Feeds a whole batch of updates, with no publication in between.
    /// The default loops over [`StrategyCore::ingest`]; pool strategies
    /// override it to iterate copy-major (every copy streams the whole
    /// batch before the next copy is touched), which keeps each copy's
    /// state cache-resident across the batch.
    fn ingest_batch(&mut self, updates: &[Update]) {
        for &u in updates {
            self.ingest(u);
        }
    }

    /// The current raw (unrounded, unpublished) estimate.
    fn raw_estimate(&self) -> f64;

    /// Called by the engine immediately after it changes the published
    /// value — i.e. whenever the active state's randomness has been
    /// exposed to the adversary. Sketch switching retires/restarts the
    /// active copy here; single-copy strategies do nothing.
    fn on_publish(&mut self) {}

    /// Memory footprint of the strategy state in bytes.
    fn space_bytes(&self) -> usize;

    /// Number of independent static-sketch copies the strategy maintains —
    /// the quantity the paper's space bounds count (`O(λ)` for exhaustible
    /// sketch switching, `O(ε⁻¹ log ε⁻¹)` restarting, 1 for computation
    /// paths and the crypto route, `O(√λ)` for DP aggregation).
    fn copies(&self) -> usize {
        1
    }

    /// Publication mode this strategy's robustness argument requires.
    fn rounding_mode(&self) -> RoundingMode {
        RoundingMode::Windowed
    }

    /// Strategy name for reports.
    fn strategy_name(&self) -> &'static str;
}

impl StrategyCore for Box<dyn StrategyCore + Send> {
    fn ingest(&mut self, update: Update) {
        (**self).ingest(update);
    }

    fn ingest_batch(&mut self, updates: &[Update]) {
        (**self).ingest_batch(updates);
    }

    fn raw_estimate(&self) -> f64 {
        (**self).raw_estimate()
    }

    fn on_publish(&mut self) {
        (**self).on_publish();
    }

    fn space_bytes(&self) -> usize {
        (**self).space_bytes()
    }

    fn copies(&self) -> usize {
        (**self).copies()
    }

    fn rounding_mode(&self) -> RoundingMode {
        (**self).rounding_mode()
    }

    fn strategy_name(&self) -> &'static str {
        (**self).strategy_name()
    }
}

/// The parameter sheet a robust estimator was provisioned from.
///
/// Problem constructors ([`crate::builder::RobustBuilder`]) compute one of
/// these once; the engine keeps it for budget accounting and reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RobustPlan {
    /// User-facing approximation parameter ε (multiplicative for moments,
    /// additive bits for entropy).
    pub epsilon: f64,
    /// Window / rounding parameter actually used for publication. Equal to
    /// `epsilon` except where the tracked quantity is a transform of the
    /// user-facing one (entropy tracks `2^H`, so its window is `2^ε − 1`).
    pub rounding_epsilon: f64,
    /// Overall failure probability δ.
    pub delta: f64,
    /// Maximum stream length `m`.
    pub stream_length: u64,
    /// Domain size `n`.
    pub domain: u64,
    /// Frequency magnitude bound `M`.
    pub max_frequency: u64,
    /// Flip-number budget λ (`usize::MAX` when the strategy needs none).
    pub lambda: usize,
    /// Bound `T` with tracked values in `[1/T, T] ∪ {0}` (drives the
    /// computation-paths union bound).
    pub value_range: f64,
    /// Whether the user-facing guarantee is additive (entropy, in bits)
    /// rather than multiplicative. Shapes the interval
    /// [`crate::estimate::Estimate`] readings report.
    pub additive: bool,
    /// Per-chunk flip-budget accounting, present only for the
    /// difference-estimator strategy: the geometric chunk count and the
    /// provisioned budget `Σ_j b_j` (which `lambda` is set to, so readings
    /// report the improved budget). `None` for every other strategy.
    pub difference_schedule: Option<crate::difference_estimators::ChunkScheduleInfo>,
}

impl RobustPlan {
    /// A plan with the given ε and this crate's defaults for everything
    /// else (δ = 10⁻³, `m = n = M = 2²⁰`, λ = explicit). The ε is checked
    /// where the plan is used: [`Robustify::new`] refuses one outside
    /// `(0, 1)`.
    #[must_use]
    pub fn new(epsilon: f64, lambda: usize) -> Self {
        Self {
            epsilon,
            rounding_epsilon: epsilon,
            delta: 1e-3,
            stream_length: 1 << 20,
            domain: 1 << 20,
            max_frequency: 1 << 20,
            lambda: lambda.max(1),
            value_range: 1e18,
            additive: false,
            difference_schedule: None,
        }
    }
}

/// The robustification engine: one strategy core plus the shared
/// publication, budgeting and accounting machinery (Definition 3.7's
/// algorithm `A'`, factored out of every per-problem construction).
///
/// `Robustify` is generic over the core so monomorphised hot paths are
/// available (`Robustify<SketchSwitch<F>>`), while the problem shims use
/// the type-erased [`DynRobust`] alias.
pub struct Robustify<C: StrategyCore = Box<dyn StrategyCore + Send>> {
    core: C,
    plan: RobustPlan,
    rounder: EpsilonRounder,
    mode: RoundingMode,
}

/// The type-erased engine the problem-specific shims wrap.
pub type DynRobust = Robustify<Box<dyn StrategyCore + Send>>;

impl<C: StrategyCore> Robustify<C> {
    /// Assembles an engine from a strategy core and its plan, rejecting an
    /// invalid plan (a rounding ε outside `(0, 1)`) with a typed error.
    pub fn new(core: C, plan: RobustPlan) -> Result<Self, ArsError> {
        if !(plan.rounding_epsilon > 0.0 && plan.rounding_epsilon < 1.0) {
            return Err(BuildError::out_of_range(
                "rounding epsilon",
                plan.rounding_epsilon,
                "(0,1)",
            )
            .into());
        }
        let mode = core.rounding_mode();
        Ok(Self {
            core,
            plan,
            rounder: EpsilonRounder::new(plan.rounding_epsilon / 2.0),
            mode,
        })
    }

    /// The plan this estimator was provisioned from.
    #[must_use]
    pub fn plan(&self) -> &RobustPlan {
        &self.plan
    }

    /// Read access to the strategy core (used by tests and shims).
    #[must_use]
    pub fn core(&self) -> &C {
        &self.core
    }

    /// The publication mode in force.
    #[must_use]
    pub fn rounding_mode(&self) -> RoundingMode {
        self.mode
    }

    /// The currently published value (ε-rounded in windowed mode, raw in
    /// raw mode) — the `value` field of every [`Estimate`] reading.
    fn published_value(&self) -> f64 {
        match self.mode {
            RoundingMode::Raw => self.core.raw_estimate(),
            RoundingMode::Windowed => self.rounder.published().unwrap_or(0.0),
        }
    }

    /// Re-derives the published output from the current raw estimate,
    /// changing it (and notifying the core) only when the current
    /// published value has left the `(1 ± ε/2)` window.
    fn refresh_publication(&mut self) {
        if self.mode == RoundingMode::Raw {
            return;
        }
        let raw = self.core.raw_estimate();
        if self.rounder.needs_update(raw) {
            self.rounder.round(raw);
            self.core.on_publish();
        }
    }
}

impl<C: StrategyCore> std::fmt::Debug for Robustify<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Robustify")
            .field("strategy", &self.core.strategy_name())
            .field("mode", &self.mode)
            .field("epsilon", &self.plan.epsilon)
            .field("lambda", &self.plan.lambda)
            .field("output_changes", &self.rounder.changes())
            .finish_non_exhaustive()
    }
}

impl<C: StrategyCore> Estimator for Robustify<C> {
    fn update(&mut self, update: Update) {
        self.core.ingest(update);
        self.refresh_publication();
    }

    /// The amortized hot path: one (possibly copy-major, cache-friendly)
    /// ingest pass over the batch, then a single publication refresh. No
    /// output is published mid-batch, so per-update rounding/switch checks
    /// would be observable by no one; see the [`RobustEstimator`] trait
    /// docs for the adaptivity argument.
    fn update_batch(&mut self, updates: &[Update]) {
        // An empty batch must be a no-op: refreshing publication on zero
        // data would publish 0.0 and retire a pool copy for nothing.
        if updates.is_empty() {
            return;
        }
        self.core.ingest_batch(updates);
        self.refresh_publication();
    }

    /// The thin `query().value` shim: the bare float is a projection of
    /// the typed reading, never a separate code path.
    fn estimate(&self) -> f64 {
        RobustEstimator::query(self).value
    }

    fn space_bytes(&self) -> usize {
        // Strategy state plus the engine's own bookkeeping (plan + rounder).
        self.core.space_bytes() + std::mem::size_of::<RobustPlan>() + 32
    }
}

impl<C: StrategyCore> RobustEstimator for Robustify<C> {
    fn epsilon(&self) -> f64 {
        self.plan.epsilon
    }

    fn output_changes(&self) -> usize {
        match self.mode {
            RoundingMode::Raw => 0,
            RoundingMode::Windowed => self.rounder.changes(),
        }
    }

    fn flip_budget(&self) -> usize {
        self.plan.lambda
    }

    fn copies(&self) -> usize {
        self.core.copies()
    }

    /// The one plan-aware implementation of the typed read surface: every
    /// strategy — switching pools, computation paths, the crypto route, DP
    /// aggregation — inherits this through the engine, and the problem
    /// shims forward to it.
    ///
    /// Additive plans (entropy) track the *exponential* `2^H` through the
    /// multiplicative rounding machinery — the Section 7 reduction — so the
    /// reading takes the logarithm back to bits here, exactly once, and
    /// reports the additive `± ε` interval the user-facing guarantee is
    /// stated in.
    fn query(&self) -> Estimate {
        let published = self.published_value();
        let value = if self.plan.additive {
            if published <= 0.0 {
                0.0
            } else {
                published.log2().max(0.0)
            }
        } else {
            published
        };
        Estimate::new(
            value,
            self.plan.epsilon,
            self.plan.additive,
            self.output_changes(),
            FlipBudget::from_raw(self.plan.lambda),
            self.core.copies(),
        )
    }

    fn strategy_name(&self) -> &'static str {
        self.core.strategy_name()
    }

    fn publication_state(&self) -> Option<PublicationState> {
        Some(PublicationState {
            published: match self.mode {
                RoundingMode::Raw => None,
                RoundingMode::Windowed => self.rounder.published(),
            },
            flips: self.output_changes(),
            lambda: self.plan.lambda,
        })
    }

    fn restore_publication(&mut self, state: &PublicationState) {
        self.plan.lambda = state.lambda.max(1);
        if self.mode == RoundingMode::Windowed {
            self.rounder.restore(state.published, state.flips);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic core tracking the number of ingested updates, used
    /// to pin down the engine's publication/accounting contract without
    /// any sketch noise.
    #[derive(Debug)]
    struct CountingCore {
        count: u64,
        publishes: usize,
        mode: RoundingMode,
    }

    impl CountingCore {
        fn windowed() -> Self {
            Self {
                count: 0,
                publishes: 0,
                mode: RoundingMode::Windowed,
            }
        }
    }

    impl StrategyCore for CountingCore {
        fn ingest(&mut self, _update: Update) {
            self.count += 1;
        }

        fn raw_estimate(&self) -> f64 {
            self.count as f64
        }

        fn on_publish(&mut self) {
            self.publishes += 1;
        }

        fn space_bytes(&self) -> usize {
            16
        }

        fn rounding_mode(&self) -> RoundingMode {
            self.mode
        }

        fn strategy_name(&self) -> &'static str {
            "counting"
        }
    }

    fn plan(epsilon: f64) -> RobustPlan {
        RobustPlan::new(epsilon, 1_000)
    }

    #[test]
    fn publishes_rounded_tracking_outputs() {
        let mut engine = Robustify::new(CountingCore::windowed(), plan(0.2)).unwrap();
        for i in 1..=10_000u64 {
            engine.update(Update::insert(i));
            let est = engine.estimate();
            let truth = i as f64;
            assert!(
                (est - truth).abs() <= 0.2 * truth + 1e-9,
                "estimate {est} not within 20% of {truth}"
            );
        }
    }

    #[test]
    fn output_changes_count_matches_core_publish_notifications() {
        let mut engine = Robustify::new(CountingCore::windowed(), plan(0.3)).unwrap();
        for i in 1..=5_000u64 {
            engine.update(Update::insert(i));
        }
        assert_eq!(engine.output_changes(), engine.core().publishes);
        assert!(engine.output_changes() > 0);
        // Monotone counter: changes are logarithmic, not linear.
        let bound = ((5_000f64).ln() / 1.15f64.ln()).ceil() as usize + 2;
        assert!(engine.output_changes() <= bound);
    }

    #[test]
    fn batch_path_publishes_once_per_batch() {
        let mut per_update = Robustify::new(CountingCore::windowed(), plan(0.2)).unwrap();
        let mut batched = Robustify::new(CountingCore::windowed(), plan(0.2)).unwrap();
        let updates: Vec<Update> = (1..=4_096u64).map(Update::insert).collect();
        for &u in &updates {
            per_update.update(u);
        }
        batched.update_batch(&updates);
        // The batched engine exposed its state exactly once.
        assert_eq!(batched.core().publishes, 1);
        assert!(per_update.core().publishes > 1);
        // Both final estimates are within the ε window of the same truth.
        let truth = updates.len() as f64;
        for engine in [&per_update, &batched] {
            let est = engine.estimate();
            assert!(
                (est - truth).abs() <= 0.2 * truth + 1e-9,
                "estimate {est} vs truth {truth}"
            );
        }
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let mut engine = Robustify::new(CountingCore::windowed(), plan(0.2)).unwrap();
        engine.update_batch(&[]);
        assert_eq!(engine.estimate(), 0.0);
        assert_eq!(engine.output_changes(), 0);
        assert_eq!(
            engine.core().publishes,
            0,
            "no copy may be retired on zero data"
        );
    }

    #[test]
    fn raw_mode_skips_rounding_entirely() {
        let core = CountingCore {
            count: 0,
            publishes: 0,
            mode: RoundingMode::Raw,
        };
        let mut engine = Robustify::new(core, plan(0.2)).unwrap();
        for i in 1..=100u64 {
            engine.update(Update::insert(i));
            assert_eq!(engine.estimate(), i as f64, "raw mode must not round");
        }
        assert_eq!(engine.core().publishes, 0);
        assert_eq!(engine.output_changes(), 0);
    }

    #[test]
    fn budget_accounting_flags_overruns() {
        // The reading's health is the one budget verdict: it turns
        // BudgetExhausted at exactly the update whose flip passes λ = 3,
        // and the engine keeps ingesting past that point.
        let mut engine = Robustify::new(CountingCore::windowed(), RobustPlan::new(0.2, 3)).unwrap();
        let mut saw_exhaustion = false;
        for i in 1..=10_000u64 {
            engine.update(Update::insert(i));
            let reading = RobustEstimator::query(&engine);
            assert_eq!(reading.flips_used, engine.output_changes());
            let exhausted = reading.health == crate::estimate::Health::BudgetExhausted;
            assert_eq!(
                exhausted,
                reading.flips_used > 3,
                "health diverged from the budget at flips {}",
                reading.flips_used
            );
            saw_exhaustion |= exhausted;
        }
        assert_eq!(engine.flip_budget(), 3);
        assert!(saw_exhaustion, "the counting core must overrun λ = 3");
        assert_eq!(engine.core().count, 10_000, "updates must still apply");
    }

    #[test]
    fn query_readings_match_the_float_surface() {
        let mut engine = Robustify::new(CountingCore::windowed(), plan(0.2)).unwrap();
        for i in 1..=1_000u64 {
            engine.update(Update::insert(i));
        }
        let reading = RobustEstimator::query(&engine);
        assert_eq!(reading.value, engine.estimate());
        assert_eq!(reading.flips_used, engine.output_changes());
        assert_eq!(
            reading.flip_budget,
            crate::estimate::FlipBudget::Bounded(1_000)
        );
        assert!(!reading.guarantee.additive);
        assert!(
            reading.guarantee.lower <= reading.value && reading.value <= reading.guarantee.upper
        );
    }

    #[test]
    fn additive_plans_answer_in_log_scale() {
        // An additive plan models the entropy reduction: the core tracks
        // the exponential 2^H, the reading answers in bits with a ± ε
        // interval.
        let mut additive_plan = plan(0.3);
        additive_plan.additive = true;
        let mut engine = Robustify::new(CountingCore::windowed(), additive_plan).unwrap();
        for i in 1..=64u64 {
            engine.update(Update::insert(i));
        }
        let reading = RobustEstimator::query(&engine);
        assert_eq!(engine.estimate(), reading.value, "estimate is the shim");
        assert!(reading.guarantee.additive);
        // The published exponential sits within the rounding window of 64,
        // so the bits reading sits within log2(1.15) of 6.
        assert!(
            (reading.value - 6.0).abs() <= 0.5,
            "bits reading {} far from log2(64)",
            reading.value
        );
        assert!((reading.guarantee.upper - reading.value - 0.3).abs() < 1e-9);
    }

    #[test]
    fn empty_engine_estimates_zero() {
        let engine = Robustify::new(CountingCore::windowed(), plan(0.1)).unwrap();
        assert_eq!(engine.estimate(), 0.0);
        assert!(engine.space_bytes() > 0);
        assert_eq!(RobustEstimator::epsilon(&engine), 0.1);
    }

    #[test]
    #[should_panic(expected = "rounding epsilon must be in (0,1)")]
    fn invalid_plan_is_rejected() {
        let mut bad = plan(0.5);
        bad.rounding_epsilon = 0.0;
        if let Err(err) = Robustify::new(CountingCore::windowed(), bad) {
            panic!("{err}");
        }
    }
}
