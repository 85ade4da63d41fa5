//! Adversarially robust `L₂` heavy hitters and point queries
//! (Theorem 1.9 / 6.5, Section 6).
//!
//! The construction combines two robust ingredients:
//!
//! 1. a robust `F₂` estimator (the engine's sketch-switching strategy over
//!    a strong-tracking ensemble) whose ε/2-rounded output defines the
//!    *switch times* `t_1 < t_2 < …` — the steps at which `‖f‖₂` has grown
//!    by a `(1 + ε)` factor since the last switch; and
//! 2. a rotating pool of `Θ(ε^{-1} log ε^{-1})` CountSketch copies. At each
//!    switch time the least-recently-restarted copy is queried once, its
//!    answer vector is *frozen* and used for all point queries until the
//!    next switch, and the copy is restarted on the stream suffix.
//!
//! Between switches `‖f‖₂` grows by at most a `(1 + ε)` factor, so by
//! Proposition 6.3 the frozen answers remain `O(ε)‖f‖₂`-correct. Because
//! each CountSketch copy's randomness is exposed only once (at its switch
//! time), the adversary can never adapt against the copy currently
//! collecting updates.
//!
//! Unlike the scalar estimators this structure answers *vector* queries
//! (point queries and a heavy-hitters set), so it is not a shim over the
//! scalar engine; it still implements [`crate::api::RobustEstimator`]
//! (the scalar estimate is the robust `‖f‖₂`) so registries, benches and
//! the adversarial game can drive it through the same trait-object loop.

use ars_sketch::countsketch::{CountSketch, CountSketchConfig};
use ars_sketch::{Estimator, PointQueryEstimator};
use ars_stream::Update;

use crate::api::RobustEstimator;
use crate::builder::{RobustBuilder, Strategy};
use crate::engine::DynRobust;
use crate::error::ArsError;
use crate::flip_number::FlipNumberBound;
use crate::rounding::EpsilonRounder;

/// The robust `L₂` heavy-hitters / point-query structure of Theorem 6.5.
#[derive(Debug)]
pub struct RobustL2HeavyHitters {
    epsilon: f64,
    cs_config: CountSketchConfig,
    /// Robust F₂ estimator providing the norm estimates R_t.
    norm_estimator: DynRobust,
    /// Rotating pool of point-query sketches.
    point_sketches: Vec<CountSketch>,
    /// Index of the copy that will be queried at the next switch.
    active: usize,
    /// The frozen answer structure from the most recent switch.
    frozen: Option<CountSketch>,
    /// ε/2-rounder of the robust L₂ estimate, defining switch times.
    rounder: EpsilonRounder,
    switches: usize,
    /// Flip budget of the switch-time sequence (`‖f‖₂` is monotone on the
    /// insertion-only streams Theorem 6.5 covers).
    flip_budget: usize,
    next_seed: u64,
}

impl RobustL2HeavyHitters {
    pub(crate) fn from_builder(builder: &RobustBuilder) -> Result<Self, ArsError> {
        let epsilon = builder.epsilon();
        // Pool of Θ(ε^{-1} log ε^{-1}) point-query sketches, as in the
        // optimized construction inside Theorem 6.5.
        let pool_size = (((1.0 / epsilon) * (1.0 / epsilon).ln().max(1.0)).ceil() as usize).max(4);
        let (delta, domain, stream_length, seed) = builder.raw_parameters();
        let cs_config = CountSketchConfig::for_accuracy(epsilon / 4.0, delta, domain);
        let point_sketches = (0..pool_size)
            .map(|i| CountSketch::new(cs_config, seed.wrapping_add(1_000 + i as u64)))
            .collect();
        // The norm estimator only gates switch times and the reporting
        // threshold, so a constant-factor accuracy floor keeps its pool ×
        // rows cost bounded without affecting the point-query error, which
        // is governed by the CountSketch width (a documented constant
        // substitution; see the constant-substitution step of the strategy
        // recipe in docs/ARCHITECTURE.md).
        let norm_epsilon = epsilon.max(0.2);
        let norm_estimator = RobustBuilder::new(norm_epsilon)
            .delta(delta / 2.0)
            .stream_length(stream_length)
            .domain(domain)
            .max_frequency(stream_length)
            .strategy(Strategy::SketchSwitching)
            .seed(seed)
            .fp(2.0)?;
        let flip_budget =
            FlipNumberBound::monotone(epsilon / 2.0, (stream_length.max(4)) as f64).bound;
        Ok(RobustL2HeavyHitters {
            epsilon,
            cs_config,
            norm_estimator,
            point_sketches,
            active: 0,
            frozen: None,
            rounder: EpsilonRounder::new(epsilon / 2.0),
            switches: 0,
            flip_budget,
            next_seed: seed.wrapping_add(7_777),
        })
    }

    /// The robust `(1 ± ε/2)` estimate of `‖f‖₂`.
    #[must_use]
    pub fn norm_estimate(&self) -> f64 {
        self.norm_estimator.estimate().max(0.0).sqrt()
    }

    /// Robust point query: an estimate of `f_item` within `O(ε)‖f‖₂`.
    #[must_use]
    pub fn point_query(&self, item: u64) -> f64 {
        self.frozen.as_ref().map_or(0.0, |s| s.point_estimate(item))
    }

    /// The robust heavy-hitters set: all items whose frozen point estimate
    /// is at least `(3/4)ε` times the current robust norm estimate. Per
    /// Definition 6.1 this contains every item with `|f_i| ≥ ε‖f‖₂` and no
    /// item with `|f_i| < ε‖f‖₂/2` (up to the configured failure
    /// probability).
    #[must_use]
    pub fn heavy_hitters(&self) -> Vec<u64> {
        let threshold = 0.75 * self.epsilon * self.norm_estimate();
        let Some(frozen) = &self.frozen else {
            return Vec::new();
        };
        let mut out: Vec<u64> = frozen
            .candidates()
            .into_iter()
            .filter(|&(_, est)| est.abs() >= threshold)
            .map(|(item, _)| item)
            .collect();
        out.sort_unstable();
        out
    }

    /// Number of switch times so far (`T = Θ(ε^{-1} log n)` over a full
    /// stream).
    #[must_use]
    pub fn switches(&self) -> usize {
        self.switches
    }
}

impl Estimator for RobustL2HeavyHitters {
    fn update(&mut self, update: Update) {
        self.norm_estimator.update(update);
        for sketch in &mut self.point_sketches {
            sketch.update(update);
        }
        let l2 = self.norm_estimate();
        if self.rounder.needs_update(l2) {
            self.rounder.round(l2);
            // Freeze the active copy's answers and restart it on the suffix.
            self.frozen = Some(self.point_sketches[self.active].clone());
            self.point_sketches[self.active] = CountSketch::new(self.cs_config, self.next_seed);
            self.next_seed = self.next_seed.wrapping_add(0x9E37_79B9);
            self.active = (self.active + 1) % self.point_sketches.len();
            self.switches += 1;
        }
    }

    /// The scalar facet of the structure: the robust `‖f‖₂` estimate.
    fn estimate(&self) -> f64 {
        self.norm_estimate()
    }

    fn space_bytes(&self) -> usize {
        let points: usize = self.point_sketches.iter().map(Estimator::space_bytes).sum();
        let frozen = self.frozen.as_ref().map_or(0, Estimator::space_bytes);
        points + frozen + self.norm_estimator.space_bytes()
    }
}

impl RobustEstimator for RobustL2HeavyHitters {
    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn output_changes(&self) -> usize {
        self.switches
    }

    fn flip_budget(&self) -> usize {
        self.flip_budget
    }

    /// The rotating point-query pool, the frozen snapshot (if any), and
    /// the copies behind the robust norm estimator.
    fn copies(&self) -> usize {
        self.point_sketches.len()
            + usize::from(self.frozen.is_some())
            + RobustEstimator::copies(&self.norm_estimator)
    }

    fn strategy_name(&self) -> &'static str {
        "sketch-switching (frozen point-query pool)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_stream::generator::{BurstyGenerator, Generator};
    use ars_stream::FrequencyVector;

    fn build_small(epsilon: f64, seed: u64) -> RobustL2HeavyHitters {
        RobustBuilder::new(epsilon)
            .domain(1 << 13)
            .stream_length(20_000)
            .seed(seed)
            .heavy_hitters()
            .unwrap()
    }

    #[test]
    fn recovers_planted_heavy_hitters() {
        let epsilon = 0.1;
        let mut hh = build_small(epsilon, 3);
        let mut generator = BurstyGenerator::new(1 << 13, 4, 0.5, 7);
        let updates = generator.take_updates(16_000);
        let truth: FrequencyVector = updates.iter().copied().collect();
        for &u in &updates {
            hh.update(u);
        }
        let reported = hh.heavy_hitters();
        // Every true eps-heavy item must be reported.
        for item in truth.l2_heavy_hitters(epsilon) {
            assert!(
                reported.contains(&item),
                "true heavy hitter {item} missing from {reported:?}"
            );
        }
        // Nothing far below the eps/2 threshold may be reported.
        let floor = 0.25 * epsilon * truth.l2();
        for &item in &reported {
            assert!(
                (truth.get(item) as f64).abs() >= floor,
                "reported item {item} has tiny frequency {}",
                truth.get(item)
            );
        }
    }

    #[test]
    fn point_queries_are_close_to_true_frequencies() {
        let epsilon = 0.1;
        let mut hh = build_small(epsilon, 5);
        let mut generator = BurstyGenerator::new(1 << 13, 3, 0.4, 11);
        let updates = generator.take_updates(16_000);
        let truth: FrequencyVector = updates.iter().copied().collect();
        for &u in &updates {
            hh.update(u);
        }
        let tolerance = 4.0 * epsilon * truth.l2();
        for item in 0..3u64 {
            let est = hh.point_query(item);
            let actual = truth.get(item) as f64;
            assert!(
                (est - actual).abs() <= tolerance,
                "item {item}: estimate {est}, true {actual}, tolerance {tolerance}"
            );
        }
    }

    #[test]
    fn norm_estimate_tracks_the_true_l2() {
        let mut hh = build_small(0.2, 9);
        let mut truth = FrequencyVector::new();
        let updates = BurstyGenerator::new(1 << 12, 2, 0.3, 13).take_updates(12_000);
        let mut worst: f64 = 0.0;
        for &u in &updates {
            truth.apply(u);
            hh.update(u);
            let t = truth.l2();
            if truth.updates_applied() > 500 {
                worst = worst.max(((hh.norm_estimate() - t) / t).abs());
            }
        }
        assert!(worst < 0.3, "worst norm tracking error {worst}");
    }

    #[test]
    fn switch_count_is_logarithmic_in_the_stream_length() {
        let epsilon = 0.2;
        let mut hh = build_small(epsilon, 15);
        let updates = BurstyGenerator::new(1 << 12, 2, 0.3, 17).take_updates(12_000);
        for &u in &updates {
            hh.update(u);
        }
        // L2 grows from 1 to at most sqrt(m); switches happen when the norm
        // estimator's published value moves by a (1 + eps_norm/2) factor, so
        // the count is O(log m / eps_norm) with eps_norm = max(eps, 0.2).
        let bound = (2.0 * (12_000f64).ln() / (1.0 + epsilon / 2.0).ln()).ceil() as usize + 5;
        assert!(
            hh.switches() <= bound,
            "switches {} exceed bound {bound}",
            hh.switches()
        );
        assert_eq!(RobustEstimator::output_changes(&hh), hh.switches());
    }

    #[test]
    fn empty_structure_reports_nothing() {
        let hh = build_small(0.2, 19);
        assert!(hh.heavy_hitters().is_empty());
        assert_eq!(hh.point_query(42), 0.0);
        assert_eq!(hh.norm_estimate(), 0.0);
        assert!(hh.space_bytes() > 0);
    }
}
