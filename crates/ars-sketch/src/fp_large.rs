//! `F_p` estimation for `p > 2` (Theorem 1.7's static ingredient).
//!
//! For `p > 2` any sketch needs `Ω(n^{1−2/p})` space, and the moment is
//! dominated by the largest coordinates: if `S` is the set of the
//! `k = Θ(n^{1−2/p})` largest coordinates then
//! `Σ_{i∉S} |f_i|^p ≤ (F₂/k)^{(p−2)/2} · F₂ ≤ ε·F_p` for suitable
//! constants. The estimator therefore:
//!
//! 1. maintains a [`CountSketch`] wide enough that point-query error is
//!    below the magnitude of the `k`-th largest coordinate, and
//! 2. tracks a candidate set of the `k` apparently-largest items, and
//! 3. reports `Σ_{candidates} max(\hat f_i, 0)^p`.
//!
//! This "heavy-elements" estimator has the same `n^{1−2/p} · poly(1/ε,
//! log n)` space shape as the Ganguly–Woodruff sketch the paper cites
//! (\[14\]); the full recursive subsampling machinery of \[14\] is orthogonal
//! to the robustification overhead measured by the benchmarks, so it is
//! omitted (a documented substitution; see the constant-substitution step
//! of the strategy recipe in `docs/ARCHITECTURE.md`).

use ars_stream::Update;

use crate::countsketch::{CountSketch, CountSketchConfig};
use crate::{Estimator, EstimatorFactory, PointQueryEstimator};

/// Configuration for [`FpLargeSketch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpLargeConfig {
    /// The moment order `p > 2`.
    pub p: f64,
    /// Number of heavy candidates tracked, `Θ(n^{1−2/p})`.
    pub heavy_items: usize,
    /// Width of the backing CountSketch.
    pub sketch_width: usize,
    /// Depth of the backing CountSketch.
    pub sketch_depth: usize,
}

impl FpLargeConfig {
    /// Sizes the estimator for moment order `p`, accuracy ε and domain `n`.
    #[must_use]
    pub fn for_accuracy(p: f64, epsilon: f64, domain: u64) -> Self {
        assert!(p > 2.0, "use the p-stable sketch for p <= 2");
        assert!(epsilon > 0.0 && epsilon < 1.0);
        let n = domain.max(16) as f64;
        let heavy_items = (n.powf(1.0 - 2.0 / p).ceil() as usize).max(16);
        let sketch_width =
            ((heavy_items as f64 * 4.0 / epsilon).ceil() as usize).max(heavy_items * 2);
        Self {
            p,
            heavy_items,
            sketch_width,
            sketch_depth: 5,
        }
    }
}

/// The heavy-elements `F_p` estimator for `p > 2`.
#[derive(Debug, Clone)]
pub struct FpLargeSketch {
    config: FpLargeConfig,
    sketch: CountSketch,
}

impl FpLargeSketch {
    /// Builds the estimator with randomness derived from `seed`.
    #[must_use]
    pub fn new(config: FpLargeConfig, seed: u64) -> Self {
        let cs_config = CountSketchConfig {
            width: config.sketch_width,
            depth: config.sketch_depth,
            candidate_capacity: config.heavy_items,
        };
        Self {
            sketch: CountSketch::new(cs_config, seed),
            config,
        }
    }

    /// The moment order this sketch estimates.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.config.p
    }
}

impl Estimator for FpLargeSketch {
    fn update(&mut self, update: Update) {
        self.sketch.update(update);
    }

    fn estimate(&self) -> f64 {
        self.sketch
            .candidates()
            .into_iter()
            .take(self.config.heavy_items)
            .map(|(_, est)| est.abs().powf(self.config.p))
            .sum()
    }

    fn space_bytes(&self) -> usize {
        self.sketch.space_bytes()
    }
}

/// Factory for [`FpLargeSketch`] instances.
#[derive(Debug, Clone, Copy)]
pub struct FpLargeFactory {
    /// Configuration shared by every built instance.
    pub config: FpLargeConfig,
}

impl EstimatorFactory for FpLargeFactory {
    type Output = FpLargeSketch;

    fn build(&self, seed: u64) -> FpLargeSketch {
        FpLargeSketch::new(self.config, seed)
    }

    fn name(&self) -> String {
        format!(
            "fp-large(p={}, heavy={}, w={})",
            self.config.p, self.config.heavy_items, self.config.sketch_width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_stream::generator::{Generator, ZipfGenerator};
    use ars_stream::FrequencyVector;

    #[test]
    fn exact_on_a_single_heavy_item() {
        let mut sketch = FpLargeSketch::new(FpLargeConfig::for_accuracy(3.0, 0.2, 1 << 12), 1);
        for _ in 0..100 {
            sketch.insert(5);
        }
        let est = sketch.estimate();
        let truth = 100f64.powi(3);
        assert!(
            ((est - truth) / truth).abs() < 0.05,
            "estimate {est} vs {truth}"
        );
    }

    #[test]
    fn tracks_f3_on_skewed_streams() {
        let updates = ZipfGenerator::new(4_096, 1.4, 7).take_updates(60_000);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let mut sketch = FpLargeSketch::new(FpLargeConfig::for_accuracy(3.0, 0.1, 4_096), 9);
        for &u in &updates {
            sketch.update(u);
        }
        let est = sketch.estimate();
        let t = truth.fp(3.0);
        assert!(
            ((est - t) / t).abs() < 0.3,
            "F3 estimate {est} vs truth {t}"
        );
    }

    #[test]
    fn tracks_f4_on_skewed_streams() {
        let updates = ZipfGenerator::new(4_096, 1.3, 11).take_updates(60_000);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let mut sketch = FpLargeSketch::new(FpLargeConfig::for_accuracy(4.0, 0.1, 4_096), 13);
        for &u in &updates {
            sketch.update(u);
        }
        let est = sketch.estimate();
        let t = truth.fp(4.0);
        assert!(
            ((est - t) / t).abs() < 0.3,
            "F4 estimate {est} vs truth {t}"
        );
    }

    #[test]
    fn space_grows_with_the_heavy_item_budget() {
        let p3 = FpLargeSketch::new(FpLargeConfig::for_accuracy(3.0, 0.2, 1 << 16), 0);
        let p6 = FpLargeSketch::new(FpLargeConfig::for_accuracy(6.0, 0.2, 1 << 16), 0);
        // n^{1-2/6} = n^{2/3} > n^{1/3} = n^{1-2/3}.
        assert!(p6.space_bytes() > p3.space_bytes());
    }

    #[test]
    #[should_panic(expected = "p-stable")]
    fn rejects_small_p() {
        let _ = FpLargeConfig::for_accuracy(2.0, 0.1, 1024);
    }

    #[test]
    fn factory_builds_and_names() {
        let factory = FpLargeFactory {
            config: FpLargeConfig::for_accuracy(3.0, 0.25, 1 << 10),
        };
        let _ = factory.build(5);
        assert!(factory.name().contains("fp-large"));
    }
}
