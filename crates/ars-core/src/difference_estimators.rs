//! The difference-estimator strategy of Attias, Cohen, Shechner and
//! Stemmer (2022, arXiv:2204.09136), after Woodruff–Zhou (FOCS 2021).
//!
//! Sketch switching spends one fresh copy per published output change:
//! `O(λ)` copies for flip budget λ (Lemma 3.6), because every publication
//! exposes the active copy's randomness and an exposed copy is discarded.
//! The difference-estimator observation is that the published value does
//! not have to come from a single sketch at all: split the stream into
//! **chunks on a geometric schedule** and publish the *telescoped sum of
//! per-chunk difference estimates*
//!
//! ```text
//! published(t) = Σ_j  [ e_j(close_j) − e_j(open_j) ]  +  e_active(t) − e_active(open)
//! ```
//!
//! where `e_j` is the estimate of the copy assigned to chunk `j`, read at
//! the chunk's open and close times. Each copy is exposed only through the
//! flips charged to *its* chunk, so the flip budget is divided across the
//! pool instead of consumed one copy per flip:
//!
//! 1. the chunk schedule is geometric — chunk `j` owns a flip budget
//!    `b_j = growth^j` (so `K = O(log λ)` chunks cover the whole budget,
//!    [`DifferenceSchedule::for_flip_budget`]);
//! 2. every copy ingests the **whole stream** (copy-major in the batch
//!    path, like the switching and DP pools). A difference of two readings
//!    of the *same* copy estimates the true increment `g(t₂) − g(t₁)` for
//!    any tracked `g` — which a sketch fed only the chunk's updates cannot
//!    do for non-additive functions like `F₀` or `F₂` (re-occurring items
//!    would be double counted);
//! 3. when a chunk's flip budget is spent, its contribution is frozen into
//!    the anchor and the next provisioned copy takes over
//!    ([`DifferenceEstimators::on_publish`]). The pool degrades gracefully
//!    — the last copy keeps serving — when a stream outlives the schedule.
//!
//! The telescoped error stays `O(ε)` because the schedule is geometric in
//! *published flips*, hence geometric in the tracked value: the value at
//! chunk `j`'s close is about `(1 + ε/2)^{Σ_{i ≤ j} b_i}`, so early chunks
//! contribute geometrically negligible error and the sum is dominated by
//! the last terms.
//!
//! Constant substitutions at laptop scale (same policy as the rest of the
//! crate, documented rather than silent): the paper's construction rounds
//! chunk `j`'s publications at a coarsened granularity `ε·2^{j/2}` and
//! re-boosts accuracy with level-dependent sketch sizes; we keep the
//! engine's single ε-rounding window and a uniform copy accuracy, and we
//! grow the per-chunk budgets geometrically so that the *late* chunks —
//! whose flips an adversary must pay a `(1 + ε/2)` multiplicative value
//! increase each to trigger — absorb most of the budget. What is preserved
//! exactly is the headline accounting: `K = O(log λ)` copies cover a
//! provisioned flip budget `Σ_j b_j ≥ λ`, against `λ` copies for
//! exhaustible switching and `O(√λ)` for DP aggregation, and the improved
//! budget is what [`crate::api::RobustEstimator::query`] readings report
//! (threaded through [`RobustPlan::difference_schedule`]).

use ars_sketch::{Estimator, EstimatorFactory};
use ars_stream::Update;

use crate::engine::{derive_seed, RobustPlan, StrategyCore};

/// The geometric chunk schedule: one flip budget per chunk, one sketch
/// copy per chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DifferenceSchedule {
    budgets: Vec<usize>,
}

/// Hard cap on the number of chunks a schedule can hold. With growth 2 the
/// cumulative budget at the cap exceeds `2²⁴` flips — far beyond any λ the
/// flip-number corollaries produce at this crate's parameter ranges — so
/// the cap is a backstop, not a working limit.
pub const MAX_CHUNKS: usize = 24;

/// Minimum number of chunks: below this the schedule degenerates into
/// plain switching with extra bookkeeping, so tiny flip budgets still get
/// a small pool to rotate through.
pub const MIN_CHUNKS: usize = 4;

impl DifferenceSchedule {
    /// Builds the geometric schedule covering flip budget `lambda`: chunk
    /// budgets `1, 2, 4, …` until the cumulative budget reaches `lambda`
    /// (clamped to `[MIN_CHUNKS, MAX_CHUNKS]` chunks; at the cap the last
    /// chunk absorbs the remainder). The chunk count is therefore
    /// `Θ(log λ)` — the copy axis this strategy is about.
    #[must_use]
    pub fn for_flip_budget(lambda: usize) -> Self {
        let lambda = lambda.max(1);
        let mut budgets = Vec::new();
        let mut total = 0usize;
        let mut next = 1usize;
        while (total < lambda || budgets.len() < MIN_CHUNKS) && budgets.len() < MAX_CHUNKS {
            budgets.push(next);
            total += next;
            next = next.saturating_mul(2);
        }
        if total < lambda {
            let last = budgets.last_mut().expect("schedule is never empty");
            *last += lambda - total;
        }
        Self { budgets }
    }

    /// Number of chunks (= provisioned sketch copies).
    #[must_use]
    pub fn chunks(&self) -> usize {
        self.budgets.len()
    }

    /// Flip budget of chunk `j`.
    #[must_use]
    pub fn budget(&self, chunk: usize) -> usize {
        self.budgets[chunk.min(self.budgets.len() - 1)]
    }

    /// The provisioned flip budget `Σ_j b_j` — at least the analytic λ the
    /// schedule was built for, and the budget readings report.
    #[must_use]
    pub fn total_flip_budget(&self) -> usize {
        self.budgets.iter().sum()
    }

    /// The `Copy` summary threaded through [`RobustPlan`].
    #[must_use]
    pub fn info(&self) -> ChunkScheduleInfo {
        ChunkScheduleInfo {
            chunks: self.chunks(),
            total_flip_budget: self.total_flip_budget(),
        }
    }

    /// Threads the per-chunk accounting through `plan`: λ becomes the
    /// provisioned total `Σ_j b_j` (so readings report the improved
    /// budget), and [`RobustPlan::difference_schedule`] carries the chunk
    /// count next to it for reports.
    pub fn provision(&self, plan: &mut RobustPlan) {
        plan.lambda = self.total_flip_budget();
        plan.difference_schedule = Some(self.info());
    }
}

/// Compact summary of a [`DifferenceSchedule`], carried by
/// [`RobustPlan::difference_schedule`] so the engine's readings and the
/// report drivers can show the per-chunk accounting without holding the
/// schedule itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkScheduleInfo {
    /// Number of chunks (= provisioned copies).
    pub chunks: usize,
    /// Provisioned flip budget `Σ_j b_j` (the plan's λ is set to this).
    pub total_flip_budget: usize,
}

/// The difference-estimator strategy core: a pool of full-prefix copies,
/// one per chunk of the geometric schedule, publishing the telescoped sum
/// of per-chunk difference estimates.
pub struct DifferenceEstimators<F: EstimatorFactory> {
    copies: Vec<F::Output>,
    schedule: DifferenceSchedule,
    /// Index of the chunk currently open (and of the copy serving it).
    active: usize,
    /// Publications charged to the open chunk so far.
    chunk_flips: usize,
    /// Σ of frozen chunk contributions `e_j(close_j) − e_j(open_j)`.
    anchor: f64,
    /// The active copy's estimate when its chunk opened.
    baseline: f64,
}

impl<F: EstimatorFactory> DifferenceEstimators<F> {
    /// Builds the pool: one copy per chunk of `schedule`, each seeded
    /// independently (same SplitMix64-style derivation as the other pool
    /// strategies). All copies ingest from the first update on, so any
    /// copy can serve sound differences later.
    #[must_use]
    pub fn new(factory: &F, schedule: DifferenceSchedule, seed: u64) -> Self {
        assert!(
            schedule.chunks() >= 2,
            "a difference pool needs at least two chunks to rotate through"
        );
        let copies: Vec<F::Output> = (0..schedule.chunks())
            .map(|i| factory.build(derive_seed(seed, i as u64)))
            .collect();
        Self {
            copies,
            schedule,
            active: 0,
            chunk_flips: 0,
            anchor: 0.0,
            baseline: 0.0,
        }
    }

    /// The chunk currently open (0-based).
    #[must_use]
    pub fn active_chunk(&self) -> usize {
        self.active
    }

    /// Publications charged to the open chunk so far.
    #[must_use]
    pub fn chunk_flips(&self) -> usize {
        self.chunk_flips
    }

    /// The frozen telescoped contribution of all closed chunks.
    #[must_use]
    pub fn anchor(&self) -> f64 {
        self.anchor
    }

    /// The schedule driving the rotation.
    #[must_use]
    pub fn schedule(&self) -> &DifferenceSchedule {
        &self.schedule
    }
}

impl<F> StrategyCore for DifferenceEstimators<F>
where
    F: EstimatorFactory + Send,
    F::Output: Send,
{
    fn ingest(&mut self, update: Update) {
        for copy in &mut self.copies {
            copy.update(update);
        }
    }

    /// Copy-major batch ingestion: each copy streams the whole batch while
    /// its state is cache-resident, exactly like the switching and DP
    /// pools.
    fn ingest_batch(&mut self, updates: &[Update]) {
        for copy in &mut self.copies {
            copy.update_batch(updates);
        }
    }

    /// The telescoped estimate: frozen anchor plus the open chunk's live
    /// difference. Continuous across rotations by construction (at a
    /// rotation the new chunk's live difference is exactly zero).
    fn raw_estimate(&self) -> f64 {
        self.anchor + (self.copies[self.active].estimate() - self.baseline)
    }

    /// Charges the publication to the open chunk; when the chunk's flip
    /// budget is spent, freezes its contribution into the anchor and hands
    /// the stream to the next provisioned copy. The last chunk never
    /// closes — a stream that outlives the schedule keeps the final copy,
    /// and the engine's budget accounting flags the overrun.
    fn on_publish(&mut self) {
        self.chunk_flips += 1;
        if self.active + 1 < self.copies.len()
            && self.chunk_flips >= self.schedule.budget(self.active)
        {
            let closing = self.copies[self.active].estimate();
            self.anchor += closing - self.baseline;
            self.active += 1;
            self.baseline = self.copies[self.active].estimate();
            self.chunk_flips = 0;
        }
    }

    fn copies(&self) -> usize {
        self.copies.len()
    }

    fn space_bytes(&self) -> usize {
        self.copies
            .iter()
            .map(Estimator::space_bytes)
            .sum::<usize>()
            + self.schedule.chunks() * std::mem::size_of::<usize>()
            // anchor + baseline + chunk counters.
            + 32
    }

    fn strategy_name(&self) -> &'static str {
        "difference-estimators"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::RobustEstimator;
    use crate::dp_aggregation::DpAggregationConfig;
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

    fn de_engine(epsilon: f64, lambda: usize, seed: u64) -> DynRobust {
        let mut plan = RobustPlan::new(epsilon, lambda);
        let schedule = DifferenceSchedule::for_flip_budget(lambda);
        schedule.provision(&mut plan);
        let core = DifferenceEstimators::new(&tracked_kmv_factory(epsilon), schedule, seed);
        DynRobust::new(Box::new(core), plan).unwrap()
    }

    #[test]
    fn schedule_is_geometric_and_covers_the_budget() {
        for lambda in [1usize, 7, 64, 670, 4096, 1 << 20] {
            let schedule = DifferenceSchedule::for_flip_budget(lambda);
            assert!(schedule.chunks() >= MIN_CHUNKS, "lambda {lambda}");
            assert!(schedule.chunks() <= MAX_CHUNKS, "lambda {lambda}");
            assert!(
                schedule.total_flip_budget() >= lambda,
                "lambda {lambda}: provisioned {} below the analytic budget",
                schedule.total_flip_budget()
            );
            // Geometric growth: each budget doubles (except a possible
            // remainder absorbed by the last chunk at the cap).
            for pair in schedule.budgets.windows(2).take(schedule.chunks() - 2) {
                assert_eq!(pair[1], pair[0] * 2);
            }
            // The chunk count is logarithmic in the budget.
            let log2 = (lambda.max(2) as f64).log2().ceil() as usize;
            assert!(
                schedule.chunks() <= log2.max(MIN_CHUNKS) + 1,
                "lambda {lambda}: {} chunks not logarithmic",
                schedule.chunks()
            );
        }
    }

    #[test]
    fn copy_count_sits_below_both_switching_pools_and_the_dp_pool() {
        for lambda in [256usize, 1024, 4096] {
            let de = DifferenceSchedule::for_flip_budget(lambda).chunks();
            let dp = DpAggregationConfig::copies_for_flip_budget(lambda);
            let switching = SketchSwitchConfig::exhaustible(0.25, lambda).copies;
            assert!(
                de < dp && dp < switching,
                "lambda {lambda}: de {de}, dp {dp}, switching {switching}"
            );
        }
    }

    #[test]
    fn tracks_f0_within_epsilon_through_the_engine() {
        let epsilon = 0.25;
        let mut robust = de_engine(epsilon, 700, 7);
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
    fn rotation_is_continuous_and_charges_per_chunk() {
        let factory = tracked_kmv_factory(0.25);
        let schedule = DifferenceSchedule::for_flip_budget(200);
        let mut core = DifferenceEstimators::new(&factory, schedule.clone(), 11);
        let mut rotations = 0usize;
        let mut last_active = 0usize;
        for i in 0..20_000u64 {
            let before = core.raw_estimate();
            StrategyCore::ingest(&mut core, Update::insert(i));
            // Simulate the engine: publish whenever the raw estimate moved
            // visibly (a crude stand-in for the rounder).
            if (core.raw_estimate() - before).abs() / before.abs().max(1.0) > 0.1 {
                let raw_before_publish = core.raw_estimate();
                core.on_publish();
                // Publication/rotation must never move the raw estimate.
                assert!(
                    (core.raw_estimate() - raw_before_publish).abs() < 1e-9,
                    "rotation jumped the estimate"
                );
                if core.active_chunk() != last_active {
                    assert_eq!(core.active_chunk(), last_active + 1);
                    assert_eq!(core.chunk_flips(), 0, "fresh chunk starts at zero flips");
                    last_active = core.active_chunk();
                    rotations += 1;
                }
            }
        }
        assert!(rotations >= 2, "the stream never rotated the pool");
        assert!(core.anchor() > 0.0);
        assert!(core.active_chunk() < schedule.chunks());
    }

    #[test]
    fn pool_degrades_gracefully_when_the_schedule_is_exhausted() {
        let factory = tracked_kmv_factory(0.3);
        // Tiny budget: 4 chunks with budgets 1,2,4,8.
        let schedule = DifferenceSchedule::for_flip_budget(1);
        let mut core = DifferenceEstimators::new(&factory, schedule, 3);
        for i in 0..5_000u64 {
            StrategyCore::ingest(&mut core, Update::insert(i));
            core.on_publish();
        }
        // The last chunk absorbed everything past the schedule.
        assert_eq!(core.active_chunk(), core.copies() - 1);
        assert!(core.chunk_flips() > 8);
        // And the estimate is still live (the last copy keeps serving).
        assert!(core.raw_estimate() > 1_000.0);
    }

    #[test]
    fn readings_report_the_provisioned_budget_and_log_pool() {
        let lambda = 700usize;
        let schedule = DifferenceSchedule::for_flip_budget(lambda);
        let mut robust = de_engine(0.25, lambda, 5);
        for i in 0..3_000u64 {
            robust.insert(i);
        }
        let reading = RobustEstimator::query(&robust);
        assert_eq!(
            robust.flip_budget(),
            schedule.total_flip_budget(),
            "plan lambda must be the provisioned chunk total"
        );
        assert!(robust.flip_budget() >= lambda);
        assert_eq!(reading.copies, schedule.chunks());
        assert_eq!(
            robust.plan().difference_schedule,
            Some(schedule.info()),
            "the chunk accounting must be threaded through the plan"
        );
        assert_eq!(robust.query().health, Health::WithinGuarantee);
    }

    #[test]
    fn batch_ingestion_matches_per_update_tracking() {
        let updates = UniformGenerator::new(30_000, 9).take_updates(20_000);
        let mut per_update = de_engine(0.25, 700, 21);
        let mut batched = de_engine(0.25, 700, 21);
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
    #[should_panic(expected = "at least two chunks")]
    fn rejects_degenerate_schedules() {
        let factory = tracked_kmv_factory(0.2);
        let schedule = DifferenceSchedule {
            budgets: vec![usize::MAX],
        };
        let _ = DifferenceEstimators::new(&factory, schedule, 0);
    }
}
