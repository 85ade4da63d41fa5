//! The differential-privacy aggregation strategy of Hassidim, Kaplan,
//! Mansour, Matias and Stemmer (NeurIPS 2020, arXiv:2004.05975).
//!
//! Sketch switching pays for robustness in *copies*: one fresh copy per
//! flip, `O(λ)` in total (Lemma 3.6). The DP route observes that the
//! adversary can only exploit what it *learns about the internal
//! randomness through published outputs* — so it protects the copies'
//! randomness with differential privacy instead of discarding exposed
//! copies, and DP's generalization property caps what any adaptive stream
//! can extract. The copy pool shrinks to `O(√λ)`:
//!
//! 1. maintain `k = O(√λ)` independent copies of the static sketch; every
//!    update feeds all of them (copy-major in the batch path, like the
//!    switching pool);
//! 2. after every `scan_stride` ingested updates, ask the sparse-vector
//!    mechanism whether a majority of copies has drifted outside the
//!    `(1 ± drift)` window around the last published answer — a
//!    sensitivity-1 counting query, so the *checks* are free and only the
//!    *fires* are charged;
//! 3. when AboveThreshold fires, release a fresh answer as an
//!    exponential-mechanism private median of the copy estimates over the
//!    ε-rounded estimate grid, charge the accountant one publication
//!    (SVT re-arm + median), and re-arm.
//!
//! The flip-number budget is therefore consumed per *output change*, not
//! per query: between fires the strategy returns its cached answer and the
//! engine keeps publishing the same rounded value. Copies are never
//! retired — [`StrategyCore::on_publish`] is a no-op — because privacy,
//! not retirement, is what keeps their randomness unexposed.
//!
//! Constant substitutions at laptop scale (same spirit as the rest of the
//! crate): the paper's copy count `O(√λ · polylog)` and per-publication
//! budget `ε₀ = Θ(1/√λ)` make copies enormous at our ε; we keep the `√λ`
//! copy scaling exactly (`copies_for_flip_budget`, clamped to a practical
//! pool) and run the mechanisms at fixed per-publication ε recorded
//! honestly by the accountant, provisioned for the rounded sequence's
//! worst-case flip count.

use ars_dp::{estimate_grid, private_median, PrivacyAccountant, SparseVector};
use ars_sketch::{Estimator, EstimatorFactory};
use ars_stream::Update;
use rand::{rngs::StdRng, SeedableRng};

use crate::engine::{derive_seed, RobustPlan, StrategyCore};
use crate::rounding::within_window;

/// Configuration of the DP-aggregation pool and its mechanisms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpAggregationConfig {
    /// Pool size `k = O(√λ)`.
    pub copies: usize,
    /// ε charged per armed sparse-vector round.
    pub svt_epsilon: f64,
    /// ε charged per exponential-mechanism median release.
    pub median_epsilon: f64,
    /// Relative drift window that triggers republication (a copy "has
    /// drifted" when its estimate leaves `(1 ± drift)` of the last answer).
    pub drift: f64,
    /// Resolution of the candidate grid the private median selects from.
    pub grid_epsilon: f64,
    /// Upper bound of the candidate grid (the plan's value range `T`).
    pub value_range: f64,
    /// Drift is checked once per this many ingested updates on the
    /// per-update path (the batch path checks once per batch, so the
    /// answer's staleness is bounded by `max(scan_stride, batch length)`
    /// updates). Larger strides cut the cost of reading every copy's
    /// estimate; 1 = check on every update.
    pub scan_stride: usize,
}

impl DpAggregationConfig {
    /// The `√λ` pool size, clamped to a laptop-practical range. The
    /// asymptotic scaling — and the gap to sketch switching's `λ` copies —
    /// is preserved exactly for every λ up to the clamp.
    #[must_use]
    pub fn copies_for_flip_budget(lambda: usize) -> usize {
        // The floor of 12 keeps the sparse-vector fire threshold (a 60%
        // supermajority plus a noise margin, see
        // [`DpAggregationConfig::fire_threshold`]) strictly below the pool
        // size: 0.6n + 4 <= n needs n >= 10, so even at the floor a fully
        // drifted pool fires without relying on noise tails.
        ((lambda.max(1) as f64).sqrt().ceil() as usize).clamp(12, 64)
    }

    /// The configuration implied by an engine plan.
    #[must_use]
    pub fn from_plan(plan: &RobustPlan) -> Self {
        let drift = (plan.rounding_epsilon / 2.0).clamp(1e-3, 0.5);
        Self {
            copies: Self::copies_for_flip_budget(plan.lambda),
            svt_epsilon: 2.0,
            median_epsilon: 3.0,
            drift,
            grid_epsilon: (plan.rounding_epsilon / 4.0).clamp(1e-3, 0.5),
            value_range: plan.value_range.max(2.0),
            scan_stride: 4,
        }
    }

    /// ε charged per publication (one SVT arm + one median release).
    #[must_use]
    pub fn publication_epsilon(&self) -> f64 {
        self.svt_epsilon + self.median_epsilon
    }

    /// Worst-case number of publications the provision covers: the flip
    /// number of the `(1 + drift)`-rounded output sequence over values in
    /// `[1, value_range]`, plus slack for sparse-vector false fires.
    /// False fires are rare (the [`DpAggregationConfig::fire_threshold`]
    /// margin puts them at roughly one per several hundred drift scans)
    /// but not zero, so an extremely long perfectly-stable stream can
    /// still walk past the provision — the accountant then *flags* the
    /// overrun (`within_budget() == false`) rather than blocking, exactly
    /// like an exhausted switching pool.
    #[must_use]
    pub fn provisioned_publications(&self) -> usize {
        (self.value_range.ln() / (1.0 + self.drift).ln()).ceil() as usize + 16
    }

    /// The sparse-vector fire threshold: a 60% supermajority of drifted
    /// copies plus a two-noise-scale margin (the AboveThreshold query
    /// noise is `Lap(4/ε)`). The supermajority keeps the wobble of the
    /// released grid point from pinning a borderline majority outside the
    /// window; the noise margin keeps small pools — where `0.6·copies`
    /// alone would sit inside one noise scale — from false-firing
    /// chronically on stable streams and draining the privacy provision.
    /// At the `copies_for_flip_budget` floor of 12 the threshold is 11.2 —
    /// still below the pool size, so genuine full drift always fires.
    #[must_use]
    pub fn fire_threshold(&self) -> f64 {
        0.6 * self.copies as f64 + 8.0 / self.svt_epsilon
    }
}

/// The DP-aggregation strategy core: a never-retired copy pool answering
/// through a privacy-protected median.
pub struct DpAggregation<F: EstimatorFactory> {
    copies: Vec<F::Output>,
    config: DpAggregationConfig,
    grid: Vec<f64>,
    svt: SparseVector,
    accountant: PrivacyAccountant,
    /// The last privately released answer (0 before the first release).
    answer: f64,
    publications: usize,
    /// Updates ingested since the last drift check.
    pending: usize,
    rng: StdRng,
}

impl<F: EstimatorFactory> DpAggregation<F> {
    /// Builds the pool: `config.copies` independent copies with seeds
    /// derived from `seed`, an armed sparse-vector instance, and a fresh
    /// privacy ledger.
    #[must_use]
    pub fn new(factory: &F, config: DpAggregationConfig, seed: u64) -> Self {
        assert!(
            config.copies >= 2,
            "the DP median needs at least two copies"
        );
        assert!(config.scan_stride >= 1, "scan stride must be at least 1");
        let copies: Vec<F::Output> = (0..config.copies)
            .map(|i| factory.build(derive_seed(seed, i as u64)))
            .collect();
        let budget = config.publication_epsilon() * config.provisioned_publications() as f64;
        let mut dp = Self {
            copies,
            grid: estimate_grid(config.grid_epsilon, 1.0, config.value_range),
            svt: SparseVector::new(
                config.svt_epsilon,
                config.fire_threshold(),
                derive_seed(seed, 0xDEAD),
            ),
            accountant: PrivacyAccountant::new(budget, 1.0),
            answer: 0.0,
            publications: 0,
            pending: 0,
            rng: StdRng::seed_from_u64(derive_seed(seed, 0xBEEF)),
            config,
        };
        // The construction-time arm is the first charge of the ledger.
        dp.accountant.charge(dp.config.svt_epsilon, 0.0);
        dp
    }

    /// Number of private median releases so far.
    #[must_use]
    pub fn publications(&self) -> usize {
        self.publications
    }

    /// The pool size.
    #[must_use]
    pub fn pool_size(&self) -> usize {
        self.copies.len()
    }

    /// The privacy ledger (spend, provision, over-budget flag).
    #[must_use]
    pub fn accountant(&self) -> &PrivacyAccountant {
        &self.accountant
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &DpAggregationConfig {
        &self.config
    }

    /// Runs the drift check if a full stride has accumulated, releasing a
    /// fresh private median when AboveThreshold fires.
    fn maybe_republish(&mut self) {
        if self.pending < self.config.scan_stride {
            return;
        }
        self.pending = 0;
        let estimates: Vec<f64> = self.copies.iter().map(Estimator::estimate).collect();
        if self.publications == 0 && estimates.iter().all(|&e| e <= 0.0) {
            // Nothing has been ingested into any copy yet; arming queries
            // on an all-zero pool would only burn sparse-vector noise.
            return;
        }
        let drifted = estimates
            .iter()
            .filter(|&&e| !within_window(e, self.answer, self.config.drift))
            .count();
        if self.svt.query(drifted as f64) {
            self.answer = private_median(
                &estimates,
                &self.grid,
                self.config.median_epsilon,
                &mut self.rng,
            );
            self.publications += 1;
            // One publication = the median release plus the fresh SVT arm.
            self.accountant
                .charge(self.config.median_epsilon + self.config.svt_epsilon, 0.0);
            self.svt.rearm(self.config.fire_threshold());
        }
    }
}

impl<F> StrategyCore for DpAggregation<F>
where
    F: EstimatorFactory + Send,
    F::Output: Send,
{
    fn ingest(&mut self, update: Update) {
        for copy in &mut self.copies {
            copy.update(update);
        }
        self.pending += 1;
        self.maybe_republish();
    }

    /// Copy-major batch ingestion (each copy streams the whole batch while
    /// cache-resident), then a single drift check for the whole batch.
    fn ingest_batch(&mut self, updates: &[Update]) {
        for copy in &mut self.copies {
            copy.update_batch(updates);
        }
        self.pending += updates.len();
        self.maybe_republish();
    }

    /// The cached private answer — *not* a live aggregate: reading it leaks
    /// nothing new, which is the entire point.
    fn raw_estimate(&self) -> f64 {
        self.answer
    }

    /// Copies are never retired: their randomness stays protected by the
    /// DP aggregate rather than by disposal.
    fn on_publish(&mut self) {}

    fn copies(&self) -> usize {
        self.copies.len()
    }

    fn space_bytes(&self) -> usize {
        self.copies
            .iter()
            .map(Estimator::space_bytes)
            .sum::<usize>()
            + self.grid.len() * 8
            // SVT + accountant + cached answer + counters.
            + 96
    }

    fn strategy_name(&self) -> &'static str {
        "dp-aggregation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RobustEstimator;
    use crate::engine::DynRobust;
    use crate::estimate::Health;
    use crate::sketch_switch::SketchSwitchConfig;
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

    fn dp_engine(epsilon: f64, lambda: usize, seed: u64) -> DynRobust {
        let mut plan = RobustPlan::new(epsilon, lambda);
        plan.value_range = 1e9;
        let config = DpAggregationConfig::from_plan(&plan);
        let core = DpAggregation::new(&tracked_kmv_factory(epsilon), config, seed);
        DynRobust::new(Box::new(core), plan).unwrap()
    }

    #[test]
    fn copy_count_grows_as_sqrt_lambda_not_lambda() {
        for (lambda, expected) in [(16, 12), (64, 12), (400, 20), (1024, 32), (4096, 64)] {
            assert_eq!(
                DpAggregationConfig::copies_for_flip_budget(lambda),
                expected,
                "lambda {lambda}"
            );
            // Sketch switching's exhaustible pool at the same budget is the
            // full lambda.
            assert_eq!(
                SketchSwitchConfig::exhaustible(0.2, lambda).copies,
                lambda,
                "lambda {lambda}"
            );
        }
    }

    #[test]
    fn tracks_f0_within_epsilon_through_the_engine() {
        let epsilon = 0.25;
        let mut robust = dp_engine(epsilon, 700, 7);
        let updates = UniformGenerator::new(50_000, 3).take_updates(30_000);
        let mut truth = FrequencyVector::new();
        let mut worst: f64 = 0.0;
        for &u in &updates {
            truth.apply(u);
            ars_sketch::Estimator::update(&mut robust, u);
            let t = truth.f0() as f64;
            if t >= 300.0 {
                worst = worst.max(((robust.estimate() - t) / t).abs());
            }
        }
        assert!(
            worst <= 2.0 * epsilon,
            "worst-case tracking error {worst} exceeds 2*epsilon"
        );
    }

    #[test]
    fn privacy_ledger_charges_per_publication_not_per_query() {
        let mut robust = dp_engine(0.25, 700, 11);
        for i in 0..20_000u64 {
            robust.insert(i);
        }
        // The accountant's charge arithmetic is pinned on the non-erased
        // core by publications_gate_the_privacy_spend; through the engine
        // the observable is the published-output flip count.
        let changes = robust.output_changes();
        assert!(changes >= 3, "stream spanning 20k distinct must republish");
        // 20k queries were answered; the flip budget consumed is the number
        // of output changes, orders of magnitude below the query count.
        assert!(changes < 200, "output changed {changes} times");
        assert_eq!(robust.query().health, Health::WithinGuarantee);
    }

    #[test]
    fn publications_gate_the_privacy_spend() {
        let factory = tracked_kmv_factory(0.25);
        let mut plan = RobustPlan::new(0.25, 400);
        plan.value_range = 1e9;
        let config = DpAggregationConfig::from_plan(&plan);
        let mut core = DpAggregation::new(&factory, config, 13);
        for i in 0..10_000u64 {
            StrategyCore::ingest(&mut core, Update::insert(i));
        }
        let pubs = core.publications();
        assert!(pubs >= 2, "10k distinct items must force republication");
        let expected = config.svt_epsilon + pubs as f64 * config.publication_epsilon();
        assert!(
            (core.accountant().epsilon_spent() - expected).abs() < 1e-9,
            "spend {} for {pubs} publications",
            core.accountant().epsilon_spent()
        );
        assert!(
            core.accountant().within_budget(),
            "a monotone reference stream must fit the provision"
        );
        assert_eq!(core.copies(), config.copies);
    }

    #[test]
    fn stable_streams_do_not_republish() {
        let factory = tracked_kmv_factory(0.25);
        let mut plan = RobustPlan::new(0.25, 400);
        plan.value_range = 1e9;
        let config = DpAggregationConfig::from_plan(&plan);
        let mut core = DpAggregation::new(&factory, config, 17);
        // 500 distinct items, then a long plateau of repeats.
        for i in 0..500u64 {
            StrategyCore::ingest(&mut core, Update::insert(i));
        }
        let pubs_after_growth = core.publications();
        for _ in 0..20 {
            for i in 0..500u64 {
                StrategyCore::ingest(&mut core, Update::insert(i));
            }
        }
        // The plateau may allow a handful of stray sparse-vector false
        // fires (each re-releases the same grid bin), but nothing close to
        // the growth phase's cadence.
        assert!(
            core.publications() <= pubs_after_growth + 6,
            "plateau republished: {} -> {}",
            pubs_after_growth,
            core.publications()
        );
    }

    #[test]
    fn batch_ingestion_matches_per_update_tracking() {
        let updates = UniformGenerator::new(30_000, 9).take_updates(20_000);
        let mut per_update = dp_engine(0.25, 700, 21);
        let mut batched = dp_engine(0.25, 700, 21);
        for &u in &updates {
            ars_sketch::Estimator::update(&mut per_update, u);
        }
        for chunk in updates.chunks(128) {
            Estimator::update_batch(&mut batched, chunk);
        }
        let truth: FrequencyVector = updates.iter().copied().collect();
        let t = truth.f0() as f64;
        for (label, robust) in [("per-update", &per_update), ("batched", &batched)] {
            let est = robust.estimate();
            assert!(
                ((est - t) / t).abs() <= 0.5,
                "{label}: estimate {est} vs truth {t}"
            );
        }
    }

    #[test]
    fn space_scales_with_the_sqrt_pool() {
        let small = dp_engine(0.25, 16, 1);
        let large = dp_engine(0.25, 4096, 1);
        // 12 copies (clamp floor) vs 64 copies.
        assert!(
            ars_sketch::Estimator::space_bytes(&large)
                > 8 * ars_sketch::Estimator::space_bytes(&small) / 2,
            "space must grow with the pool"
        );
        assert_eq!(RobustEstimator::copies(&small), 12);
        assert_eq!(RobustEstimator::copies(&large), 64);
    }

    #[test]
    fn minimum_pools_do_not_false_fire_their_budget_away() {
        // The clamp-floor pool (12 copies): on a long stable stream the
        // noise-aware fire threshold must keep spurious sparse-vector
        // fires rare enough that the provision survives.
        let factory = tracked_kmv_factory(0.25);
        let mut plan = RobustPlan::new(0.25, 16);
        plan.value_range = 1e9;
        let config = DpAggregationConfig::from_plan(&plan);
        assert_eq!(config.copies, 12);
        let mut core = DpAggregation::new(&factory, config, 23);
        for i in 0..400u64 {
            StrategyCore::ingest(&mut core, Update::insert(i));
        }
        let pubs_after_growth = core.publications();
        let plateau_updates = 25 * 400;
        for _ in 0..25 {
            for i in 0..400u64 {
                StrategyCore::ingest(&mut core, Update::insert(i));
            }
        }
        // AboveThreshold over thousands of noisy scans false-fires at a
        // small residual rate; the requirement is that it stays well under
        // 2% of scans (scan_stride 4 -> 2500 scans here), far below the
        // growth phase's cadence and comfortably inside the provision.
        let false_fires = core.publications() - pubs_after_growth;
        assert!(
            false_fires <= plateau_updates / config.scan_stride / 50,
            "minimum pool plateau republished {false_fires} times over {plateau_updates} updates"
        );
        assert!(
            core.accountant().within_budget(),
            "false fires drained the provision: spent {:.1} of {:.1}",
            core.accountant().epsilon_spent(),
            core.accountant().epsilon_budget()
        );
    }

    #[test]
    fn fire_threshold_is_reachable_for_every_derived_pool() {
        // A fully drifted pool must clear the threshold without noise
        // assistance, for every pool size the clamp can produce.
        for lambda in [1usize, 16, 64, 100, 400, 1024, 4096, 1 << 20] {
            let mut plan = RobustPlan::new(0.25, lambda);
            plan.value_range = 1e9;
            let config = DpAggregationConfig::from_plan(&plan);
            assert!(
                config.fire_threshold() < config.copies as f64,
                "lambda {lambda}: threshold {} >= pool {}",
                config.fire_threshold(),
                config.copies
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two copies")]
    fn rejects_degenerate_pools() {
        let factory = tracked_kmv_factory(0.2);
        let mut config = DpAggregationConfig::from_plan(&RobustPlan::new(0.2, 100));
        config.copies = 1;
        let _ = DpAggregation::new(&factory, config, 0);
    }
}
