//! p-stable sketching for `F_p` estimation, `0 < p ≤ 2` (Indyk's estimator).
//!
//! The sketch maintains `k = Θ(1/ε²)` linear measurements
//! `z_j = Σ_i X_{j,i} · f_i` where the `X_{j,i}` are (approximately
//! independent) standard p-stable random variables derived
//! deterministically from hash functions, so an update `(i, Δ)` costs `k`
//! multiply-adds and no per-item state. By p-stability each `z_j` is
//! distributed as `‖f‖_p · X` for a standard p-stable `X`, so the median of
//! `|z_j|` rescaled by the median of `|X|` is a `(1 ± ε)` estimate of
//! `‖f‖_p` with constant probability; the strong-tracking wrapper in
//! [`crate::tracking`] boosts this to the `(ε, δ)` guarantee of Lemma 2.2.
//!
//! This is the static ingredient behind Theorems 1.4, 1.5 and 4.3 of the
//! paper. The Kane–Nelson–Woodruff sketch cited there (\[27\]) achieves
//! optimal constants; the p-stable construction used here has the same
//! `O(ε^{-2} log n · log δ^{-1})`-bit shape, which is what the experiments
//! compare against.
//!
//! For `p < 2` the variates come from the Chambers–Mallows–Stuck (CMS)
//! transform of two hash-derived uniforms (a single tangent for the Cauchy
//! case `p = 1`). The calibration constant `median(|X_p|)` is estimated once
//! per configuration by Monte-Carlo with a fixed seed.
//!
//! # The p = 2 kernel: sixty row signs per hash evaluation
//!
//! For `p = 2` the entries are ±1 signs instead of Gaussians, so the
//! counters form an AMS sketch and the mean of `z_j²` is an unbiased `F₂`
//! estimate. Row `60g + b` takes bit `b` of `uniform_a.hash(item·φ + g)`
//! (φ the 64-bit golden-ratio constant), so one evaluation of the 4-wise
//! independent polynomial hash yields the signs of 60 rows and an update
//! costs `⌈k/60⌉` evaluations instead of `k`. Each sign bit is XORed into
//! the sign bit of `Δ`, so no row branches.
//!
//! *Independence argument.* The hash values of any four distinct keys are
//! independent and uniform on `[0, 2⁶¹ − 1)`, and the low 60 bits of such a
//! value are independent fair bits up to a `2⁻⁶¹` bias. So each row, on its
//! own, is a 4-wise independent ±1 function of the item: the AMS
//! requirement. A covariance term `E[z_j² z_{j'}²]` is a sum over items
//! `a, b, c, d` of `E[s_j(a) s_j(b) s_{j'}(c) s_{j'}(d)]`, which involves at
//! most four distinct `(item, group)` keys. It therefore factorises exactly
//! as for independently hashed rows: rows in different groups use distinct
//! keys, and rows in the same group read different bits of the same
//! uniform values. The rows are pairwise uncorrelated in `z_j²`, and the
//! mean-of-squares variance bound `Var ≤ 2F₂²/k` holds as for independent
//! rows. Deriving many rows from one hash through the key is the same
//! device the `p < 2` variates use (key `item·φ + row`).
//!
//! *Rejected alternative: one bucketed row.* A fast-AMS / CountSketch row
//! (one hash per update picks a bucket and a sign, estimate `Σ_b C_b²`)
//! costs a single evaluation, but two heavy items that share a bucket with
//! opposite signs cancel each other out. Over 2,000 fresh sketches of 461
//! rows (buckets) on Zipf(4096, 1.1), the bucketed row missed ε = 0.2 in 16
//! sketches (worst relative error 0.648); one hash evaluation per row
//! missed in 0 (worst 0.171), and this 60-signs kernel missed in 0 (worst
//! 0.175). A bucketed estimator would need a median over at least two rows
//! to be reconsidered. `tests::two_item_streams_never_cancel` pins that
//! failure mode: it fails when the kernel is swapped for the one-row
//! bucketed form.
//!
//! # The p = 2 batch kernel: count sign bits, add once per row
//!
//! [`Estimator::update_batch`] splits a batch into runs of `Δ = ±1`
//! updates, at most 64 to a chunk, and absorbs each run of two or more by
//! counting instead of adding signs row by row:
//!
//! 1. **Hash once per (update, group).** For group `g`, every key
//!    `item·φ + g` of the chunk is hashed before any value is used, so the
//!    Horner chains of the chunk overlap. The 4-wise polynomial is held
//!    inline as four coefficients, drawn in the order
//!    `KWiseHash::from_rng(4, ..)` draws them, so the values are that
//!    family's.
//! 2. **Count.** Row `60g + b` adds `−Δ` where bit `b` of the hash is set
//!    and `+Δ` elsewhere. For `Δ = −1` that is `+1` where the bit of the
//!    *complemented* hash is set and `−1` elsewhere, so a −1 update counts
//!    the complement of its hash and every update counts alike: a row
//!    with `k` counted bits over a chunk of `n` updates moves by
//!    `n − 2k` (which equals `Σ Δ − 2(k⁺ − k⁻)` with `k⁺`, `k⁻` the
//!    set bits of the +1 and the −1 updates). The counts live in 8 words
//!    of 8 byte lanes, `lanes[b] += (s >> b) & 0x0101_0101_0101_0101`, so
//!    byte `L` of `lanes[b]` counts bit `8L + b`, the bit of row
//!    `60g + 8L + b`. A byte holds up to 255 and a chunk has at most 64
//!    updates, so no lane overflows.
//! 3. **Add once per row.** Each row of the group then adds its `n − 2k`
//!    once per chunk: 60 additions per group instead of `60·n`.
//!
//! *Why the bits match the per-row loop.* Both paths add integers to
//! integers. While `Σ|Δ|` over the whole stream is at most `2⁵³`, every
//! counter and every partial sum is an integer of magnitude at most
//! `2⁵³`, which an `f64` holds exactly, so every addition is exact and
//! the counter is the exact integer sum whatever the grouping. A zero sum
//! is `+0.0` both ways: round-to-nearest gives `+0.0` for `x + (−x)`, a
//! counter starts at `+0.0`, and only `−0.0 + −0.0` is `−0.0`. The sketch
//! keeps that running `Σ|Δ|` (saturating) and counts a chunk only while
//! the chunk keeps it at or below `2⁵³`.
//!
//! *When the per-row loop runs.* [`Estimator::update`], a lone unit update
//! between non-unit ones, every update with `|Δ| ≠ 1` (the frequency
//! counts that restore and re-provisioning replay) and every update once
//! `Σ|Δ|` would pass `2⁵³` take the per-row loop, in stream order. On a
//! one-update chunk counting is the slower of the two, since it pays the
//! lane steps on top of one addition per row: at 461 rows on a 2-core
//! x86-64 host, 650–680 ns per update against the per-row loop's
//! 450–560 ns.

use ars_hash::field::{reduce, MERSENNE_P};
use ars_hash::KWiseHash;
use ars_stream::Update;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Estimator, EstimatorFactory};

/// Configuration for [`PStableSketch`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PStableConfig {
    /// The moment order `p ∈ [MIN_P, 2]`.
    pub p: f64,
    /// Number of linear measurements; `Θ(1/ε²)`.
    pub rows: usize,
}

impl PStableConfig {
    /// Sizes the sketch for a `(1 ± ε)` estimate of `‖f‖_p` with constant
    /// failure probability. Panics unless `p ∈ [MIN_P, 2]`.
    #[must_use]
    pub fn for_accuracy(p: f64, epsilon: f64) -> Self {
        assert_p_in_range(p);
        assert!(epsilon > 0.0 && epsilon < 1.0);
        Self {
            p,
            rows: ((8.0 / (epsilon * epsilon)).ceil() as usize).max(16) | 1,
        }
    }

    /// Sizes the sketch for a `(1 ± ε)` estimate with per-query failure
    /// probability δ: the median-over-rows estimator concentrates
    /// exponentially in the row count, so rows scale as
    /// `Θ(ε^{-2} log(1/δ))`. The `log(1/δ)` boost is capped (one of the
    /// documented constant substitutions; see the constant-substitution
    /// step of the strategy recipe in `docs/ARCHITECTURE.md`) so the
    /// composite robust estimators stay laptop-runnable. Panics unless
    /// `p ∈ [MIN_P, 2]`.
    #[must_use]
    pub fn for_tracking(p: f64, epsilon: f64, delta: f64) -> Self {
        assert_p_in_range(p);
        assert!(epsilon > 0.0 && epsilon < 1.0);
        assert!(delta > 0.0 && delta < 1.0);
        let boost = ((1.0 / delta).ln() / 3.0).clamp(1.0, 4.0);
        Self {
            p,
            rows: ((6.0 * boost / (epsilon * epsilon)).ceil() as usize).max(16) | 1,
        }
    }
}

/// The smallest moment order the sketch is offered for.
///
/// The Chambers–Mallows–Stuck transform is `a·b` with
/// `a = sin(pθ) / cos(θ)^{1/p}` and `b = (cos((1 − p)θ) / w)^{(1−p)/p}`.
/// On the clamped inputs (`u₁, u₂ ∈ [10⁻¹², 1 − 10⁻¹²]`) its magnitude
/// peaks at the corner `θ → ±π/2`, `w → 10⁻¹²`, where `cos θ ≈ π·10⁻¹²`
/// is raised to the power `1/p`. That corner overflows `f64` for
/// `p < 0.0704`; below it a variate is `±inf` or `NaN`, the calibration
/// sort has no order and the sketch cannot be built.
///
/// The floor is set a little higher, at `p = 0.1`, where the largest
/// variate is `≈ 9.4·10²¹⁴`. That leaves a factor `≈ 1.9·10⁹³` to
/// `f64::MAX`, more than `Σ|Δ|` can reach (`2¹²⁷` for `2⁶⁴` updates of
/// `|Δ| ≤ 2⁶³`), so no counter `Σ Δ·X` overflows either. (At `p = 0.08`
/// the largest variate is `≈ 3.2·10²⁷⁰` and that margin is gone.) A
/// documented constant substitution: the paper's `F_p` results cover every
/// `p ∈ (0, 2]`.
pub const MIN_P: f64 = 0.1;

/// The one range check on the moment order, shared by both config sizers
/// and [`PStableSketch::new`]: below [`MIN_P`] the variates overflow.
fn assert_p_in_range(p: f64) {
    assert!(
        (MIN_P..=2.0).contains(&p),
        "p must lie in [MIN_P, 2] = [{MIN_P}, 2] (got {p})"
    );
}

/// Generates a standard p-stable variate from two uniforms in `(0, 1)` via
/// the Chambers–Mallows–Stuck transform.
#[must_use]
fn cms_pstable(p: f64, u1: f64, u2: f64) -> f64 {
    // Clamp away from the boundary so logs and divisions stay finite.
    let u1 = u1.clamp(1e-12, 1.0 - 1e-12);
    let u2 = u2.clamp(1e-12, 1.0 - 1e-12);
    let theta = std::f64::consts::PI * (u1 - 0.5);
    let w = -u2.ln();
    if (p - 1.0).abs() < 1e-9 {
        // Cauchy: tan(theta) is standard 1-stable.
        return theta.tan();
    }
    let a = (p * theta).sin() / theta.cos().powf(1.0 / p);
    let b = ((theta * (1.0 - p)).cos() / w).powf((1.0 - p) / p);
    a * b
}

/// Estimates the median of `|X|` for a standard p-stable variable by
/// Monte-Carlo with a fixed seed, so every sketch built for the same `p`
/// uses the same calibration constant.
#[must_use]
fn median_abs_pstable(p: f64) -> f64 {
    const SAMPLES: usize = 40_001;
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE00 ^ (p * 1_000_000.0) as u64);
    let mut values: Vec<f64> = (0..SAMPLES)
        .map(|_| cms_pstable(p, rng.gen(), rng.gen()).abs())
        .collect();
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite variates"));
    values[SAMPLES / 2]
}

/// Rows of a `p = 2` sketch that share one hash evaluation (see the module
/// docs for why their signs may come from the bits of one value).
const SIGNS_PER_HASH: usize = 60;

/// The most updates one counting chunk absorbs. A byte lane counts at most
/// this many set bits, so it must stay below 256.
const CHUNK: usize = 64;

/// Bit `8L + b` of a hash value, shifted right by `b`, lands in byte `L`.
const LANE_ONES: u64 = 0x0101_0101_0101_0101;

/// While `Σ|Δ|` stays at or below this, every counter is an integer of
/// magnitude at most `2⁵³`, which an `f64` holds exactly.
const EXACT_MASS: u64 = 1 << 53;

/// Mixes an item into the hash key; the row (or, for `p = 2`, the group of
/// rows) is added to the product.
const KEY_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Evaluates the cubic `c₀ + c₁x + c₂x² + c₃x³` over `GF(2⁶¹ − 1)` at
/// `key` by Horner's rule, giving the value `KWiseHash::hash` gives for the
/// same coefficients. `reduce` is exact on any `u128`, so `key` needs no
/// prior reduction mod `p`.
#[inline]
fn hash4(c: &[u64; 4], key: u64) -> u64 {
    let x = u128::from(key);
    let h = reduce(u128::from(c[3]) * x + u128::from(c[2]));
    let h = reduce(u128::from(h) * x + u128::from(c[1]));
    reduce(u128::from(h) * x + u128::from(c[0]))
}

/// The p-stable `F_p` sketch.
#[derive(Debug, Clone)]
pub struct PStableSketch {
    config: PStableConfig,
    /// The 4-wise hash behind the `p = 2` signs and the first `p < 2`
    /// uniform, as inline coefficients `c₀..c₃`. They are drawn in the
    /// order `KWiseHash::from_rng(4, ..)` draws them, so the hash values
    /// are the same as that family's.
    uniform_a: [u64; 4],
    /// The hash behind the second `p < 2` uniform.
    uniform_b: KWiseHash,
    counters: Vec<f64>,
    /// `Σ|Δ|` over every `p = 2` update so far, saturating: a bound on
    /// every counter's magnitude, which tells the counting kernel that the
    /// counters are still exact integers.
    mass: u64,
    /// `median(|X_p|)` calibration constant.
    calibration: f64,
}

impl PStableSketch {
    /// Builds the sketch with randomness derived from `seed`. Panics
    /// unless `config.p ∈ [MIN_P, 2]`.
    #[must_use]
    pub fn new(config: PStableConfig, seed: u64) -> Self {
        assert_p_in_range(config.p);
        assert!(config.rows > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let calibration = if Self::is_gaussian(config.p) {
            // The p = 2 fast path uses the mean-of-squares estimator, which
            // needs no calibration constant.
            1.0
        } else {
            median_abs_pstable(config.p)
        };
        Self {
            uniform_a: std::array::from_fn(|_| rng.gen_range(0..MERSENNE_P)),
            uniform_b: KWiseHash::from_rng(4, &mut rng),
            counters: vec![0.0; config.rows],
            mass: 0,
            calibration,
            config,
        }
    }

    /// Whether the configured `p` takes the Rademacher (AMS-style) sign
    /// kernel in [`Estimator::update`] instead of [`Self::variate`].
    #[inline]
    fn is_gaussian(p: f64) -> bool {
        (p - 2.0).abs() < 1e-12
    }

    /// The p-stable variate assigned to `(row, item)` for `p < 2`.
    #[inline]
    fn variate(&self, row: usize, item: u64) -> f64 {
        // Mix the row into the key so one pair of hash functions serves all
        // rows; distinct (row, item) pairs map to distinct keys because the
        // row count is far below 2^20.
        let key = item.wrapping_mul(KEY_MULTIPLIER).wrapping_add(row as u64);
        let u1 = hash4(&self.uniform_a, key) as f64 / MERSENNE_P as f64;
        if (self.config.p - 1.0).abs() < 1e-12 {
            // Cauchy fast path: a single tangent evaluation.
            return (std::f64::consts::PI * (u1.clamp(1e-12, 1.0 - 1e-12) - 0.5)).tan();
        }
        let u2 = self.uniform_b.to_unit(key);
        cms_pstable(self.config.p, u1, u2)
    }

    /// The `p = 2` per-row loop: row `60g + b` adds `Δ` with the sign
    /// given by bit `b` of the hash of `(item, g)`.
    fn add_signs(&mut self, update: Update) {
        self.mass = self.mass.saturating_add(update.magnitude());
        let delta_bits = (update.delta as f64).to_bits();
        let base = update.item.wrapping_mul(KEY_MULTIPLIER);
        for (group, rows) in self.counters.chunks_mut(SIGNS_PER_HASH).enumerate() {
            let signs = hash4(&self.uniform_a, base.wrapping_add(group as u64));
            for (bit, counter) in rows.iter_mut().enumerate() {
                *counter += f64::from_bits(delta_bits ^ (((signs >> bit) & 1) << 63));
            }
        }
    }

    /// The `p = 2` counting kernel for a chunk of at most [`CHUNK`] updates
    /// with `Δ = ±1`, while the counters stay exact (see the module docs).
    fn count_signs(&mut self, chunk: &[Update]) {
        let n = chunk.len();
        debug_assert!(n <= CHUNK && chunk.iter().all(|u| u.magnitude() == 1));
        debug_assert!(self.mass <= EXACT_MASS - n as u64);
        self.mass += n as u64;
        let mut signs = [0u64; CHUNK];
        for (group, rows) in self.counters.chunks_mut(SIGNS_PER_HASH).enumerate() {
            // Every key is hashed before any is used, so the Horner chains
            // of the chunk overlap.
            for (s, u) in signs.iter_mut().zip(chunk) {
                let key = u.item.wrapping_mul(KEY_MULTIPLIER);
                *s = hash4(&self.uniform_a, key.wrapping_add(group as u64));
            }
            // Byte L of lanes[b] counts the set bits of row 60g + 8L + b. A
            // −1 update counts the complement of its hash (see the module
            // docs).
            let mut lanes = [0u64; 8];
            for (&s, u) in signs.iter().zip(chunk) {
                let s = if u.delta < 0 { !s } else { s };
                for (b, lane) in lanes.iter_mut().enumerate() {
                    *lane += (s >> b) & LANE_ONES;
                }
            }
            // An `i32` step converts to f64 with SSE2's packed `cvtdq2pd`.
            for (byte, octet) in rows.chunks_mut(8).enumerate() {
                for (lane, counter) in lanes.iter().zip(octet) {
                    let set = ((lane >> (8 * byte)) & 0xFF) as i32;
                    *counter += f64::from(n as i32 - 2 * set);
                }
            }
        }
    }

    /// The `(1 ± ε)` estimate of the norm `‖f‖_p`.
    #[must_use]
    pub fn norm_estimate(&self) -> f64 {
        if Self::is_gaussian(self.config.p) {
            let mean: f64 =
                self.counters.iter().map(|z| z * z).sum::<f64>() / self.counters.len() as f64;
            return mean.sqrt();
        }
        let mut magnitudes: Vec<f64> = self.counters.iter().map(|z| z.abs()).collect();
        magnitudes.sort_by(|a, b| a.partial_cmp(b).expect("finite counters"));
        let median = magnitudes[magnitudes.len() / 2];
        median / self.calibration
    }

    /// The moment order this sketch estimates.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.config.p
    }
}

impl Estimator for PStableSketch {
    fn update(&mut self, update: Update) {
        if Self::is_gaussian(self.config.p) {
            self.add_signs(update);
            return;
        }
        let delta = update.delta as f64;
        for row in 0..self.config.rows {
            let x = self.variate(row, update.item);
            self.counters[row] += x * delta;
        }
    }

    /// At `p = 2`, each run of two or more `Δ = ±1` updates (up to 64 at
    /// a time) goes through the counting kernel; a lone unit update and
    /// every other `Δ` take the per-row loop, in stream order.
    fn update_batch(&mut self, updates: &[Update]) {
        if !Self::is_gaussian(self.config.p) {
            for &u in updates {
                self.update(u);
            }
            return;
        }
        let mut rest = updates;
        while let Some(&first) = rest.first() {
            let run = rest
                .iter()
                .take(CHUNK)
                .take_while(|u| u.magnitude() == 1)
                .count();
            if run >= 2 && self.mass <= EXACT_MASS - run as u64 {
                self.count_signs(&rest[..run]);
                rest = &rest[run..];
            } else {
                self.add_signs(first);
                rest = &rest[1..];
            }
        }
    }

    /// Returns the estimate of the moment `F_p = ‖f‖_p^p`.
    fn estimate(&self) -> f64 {
        self.norm_estimate().powf(self.config.p)
    }

    fn space_bytes(&self) -> usize {
        self.counters.len() * 8 + 2 * 4 * 8
    }
}

/// Factory for [`PStableSketch`] instances.
#[derive(Debug, Clone, Copy)]
pub struct PStableFactory {
    /// Configuration shared by every built instance.
    pub config: PStableConfig,
}

impl EstimatorFactory for PStableFactory {
    type Output = PStableSketch;

    fn build(&self, seed: u64) -> PStableSketch {
        PStableSketch::new(self.config, seed)
    }

    fn name(&self) -> String {
        format!("pstable(p={}, rows={})", self.config.p, self.config.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_stream::generator::{Generator, ZipfGenerator};
    use ars_stream::FrequencyVector;

    fn relative_error(estimate: f64, truth: f64) -> f64 {
        ((estimate - truth) / truth).abs()
    }

    #[test]
    fn cms_variates_are_finite() {
        for p in [MIN_P, 0.5, 1.0, 1.5, 2.0] {
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..10_000 {
                let x = cms_pstable(p, rng.gen(), rng.gen());
                assert!(x.is_finite(), "p={p} produced a non-finite variate");
            }
            // The clamp's corners, where the variates are largest. At the
            // floor the largest leaves room for any counter.
            let edges = [0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0];
            for u1 in edges {
                for u2 in edges {
                    let x = cms_pstable(p, u1, u2);
                    assert!(x.abs() < 1e216, "p={p} at ({u1}, {u2}): {x}");
                }
            }
        }
        // Just below the overflow bound the corner is no longer finite,
        // which is why the floor sits above it.
        assert!(!cms_pstable(0.07, 1e-12, 1.0 - 1e-12).is_finite());
    }

    #[test]
    fn calibration_constant_for_cauchy_is_one() {
        // For p = 1 the variates are standard Cauchy, whose |X| has median
        // tan(pi/4) = 1.
        let m = median_abs_pstable(1.0);
        assert!((m - 1.0).abs() < 0.03, "Cauchy |median| estimate {m}");
    }

    #[test]
    fn estimates_f1_of_a_point_mass() {
        // A single heavy item: ||f||_p = f for every p, easy ground truth.
        let mut sketch = PStableSketch::new(PStableConfig::for_accuracy(1.0, 0.1), 3);
        for _ in 0..500 {
            sketch.insert(9);
        }
        let est = sketch.norm_estimate();
        assert!(
            relative_error(est, 500.0) < 0.15,
            "norm estimate {est} for a 500-count point mass"
        );
    }

    #[test]
    fn estimates_f2_on_zipf_streams() {
        let updates = ZipfGenerator::new(2_000, 1.1, 5).take_updates(30_000);
        let truth: FrequencyVector = updates.iter().copied().collect();
        let mut sketch = PStableSketch::new(PStableConfig::for_accuracy(2.0, 0.1), 7);
        for &u in &updates {
            sketch.update(u);
        }
        let err = relative_error(sketch.estimate(), truth.f2());
        assert!(err < 0.2, "F2 relative error {err}");
    }

    #[test]
    fn estimates_fractional_moments() {
        let updates = ZipfGenerator::new(2_000, 1.1, 9).take_updates(30_000);
        let truth: FrequencyVector = updates.iter().copied().collect();
        for p in [0.5, 1.5] {
            let mut sketch = PStableSketch::new(PStableConfig::for_accuracy(p, 0.1), 11);
            for &u in &updates {
                sketch.update(u);
            }
            let err = relative_error(sketch.estimate(), truth.fp(p));
            assert!(err < 0.25, "F_{p} relative error {err}");
        }
    }

    #[test]
    fn estimates_f1_on_uniformish_streams() {
        // F1 of an insertion-only stream is just the update count, a strict
        // accuracy check for the Cauchy sketch.
        let updates = ZipfGenerator::new(500, 1.0, 13).take_updates(20_000);
        let mut sketch = PStableSketch::new(PStableConfig::for_accuracy(1.0, 0.1), 17);
        for &u in &updates {
            sketch.update(u);
        }
        let err = relative_error(sketch.estimate(), 20_000.0);
        assert!(err < 0.2, "F1 relative error {err}");
    }

    #[test]
    fn linearity_under_deletions() {
        for p in [1.5, 2.0] {
            let mut sketch = PStableSketch::new(PStableConfig::for_accuracy(p, 0.2), 19);
            for i in 0..300u64 {
                sketch.insert(i);
            }
            for i in 0..300u64 {
                sketch.update(Update::delete(i));
            }
            assert!(sketch.norm_estimate().abs() < 1e-6);
            if p == 2.0 {
                // ±1 entries make every counter an exact integer, so the
                // turnstile tenants' counters return to exactly zero.
                assert!(sketch.counters.iter().all(|&z| z == 0.0));
            }
        }
    }

    #[test]
    fn linearity_under_batched_deletions() {
        for rows in [59, 461] {
            for batch in [2, 4, 64, 300] {
                let mut sketch = PStableSketch::new(PStableConfig { p: 2.0, rows }, 19);
                let inserts: Vec<Update> = (0..300u64).map(Update::insert).collect();
                let deletes: Vec<Update> = (0..300u64).rev().map(Update::delete).collect();
                for chunk in inserts.chunks(batch).chain(deletes.chunks(batch)) {
                    sketch.update_batch(chunk);
                }
                // Exactly +0.0, as the per-row loop leaves it.
                assert!(
                    sketch.counters.iter().all(|z| z.to_bits() == 0),
                    "rows {rows}, batch {batch}"
                );
                assert_eq!(sketch.estimate(), 0.0);
            }
        }
    }

    /// The per-row `p = 2` loop as it stood before the counting kernel,
    /// hashing through `KWiseHash`: the reference the kernel must match
    /// bit for bit.
    struct ReferenceP2 {
        signs: KWiseHash,
        counters: Vec<f64>,
    }

    impl ReferenceP2 {
        fn new(rows: usize, seed: u64) -> Self {
            Self {
                signs: KWiseHash::from_rng(4, &mut StdRng::seed_from_u64(seed)),
                counters: vec![0.0; rows],
            }
        }

        fn update(&mut self, update: Update) {
            let delta_bits = (update.delta as f64).to_bits();
            let base = update.item.wrapping_mul(KEY_MULTIPLIER);
            for (group, rows) in self.counters.chunks_mut(SIGNS_PER_HASH).enumerate() {
                let signs = self.signs.hash(base.wrapping_add(group as u64));
                for (bit, counter) in rows.iter_mut().enumerate() {
                    *counter += f64::from_bits(delta_bits ^ (((signs >> bit) & 1) << 63));
                }
            }
        }
    }

    /// Feeds `updates` to the sketch in batches of `batch` and to the
    /// reference one at a time, comparing every counter's bits after each
    /// batch and the estimate's bits at the end.
    fn assert_matches_reference(rows: usize, seed: u64, updates: &[Update], batch: usize) {
        let mut sketch = PStableSketch::new(PStableConfig { p: 2.0, rows }, seed);
        let mut reference = ReferenceP2::new(rows, seed);
        for (i, chunk) in updates.chunks(batch).enumerate() {
            sketch.update_batch(chunk);
            for &u in chunk {
                reference.update(u);
            }
            for (row, (z, r)) in sketch.counters.iter().zip(&reference.counters).enumerate() {
                assert_eq!(
                    z.to_bits(),
                    r.to_bits(),
                    "rows {rows}, batch {batch}, chunk {i}, row {row}: {z} vs {r}"
                );
            }
        }
        let mean = reference.counters.iter().map(|z| z * z).sum::<f64>() / rows as f64;
        assert_eq!(sketch.estimate().to_bits(), mean.sqrt().powf(2.0).to_bits());
    }

    #[test]
    fn counting_kernel_matches_the_per_row_reference() {
        let zipf = ZipfGenerator::new(1 << 12, 1.1, 29).take_updates(600);
        // All +1.
        let inserts = zipf.clone();
        // ±1 turnstile waves: alternating runs of 50 inserts and 50 deletes.
        let waves: Vec<Update> = zipf
            .iter()
            .enumerate()
            .map(|(t, u)| Update::new(u.item, if (t / 50) % 2 == 0 { 1 } else { -1 }))
            .collect();
        // ±1 with Δ ∈ {0, 2, −3, 1000} mixed in, singly and in pairs.
        let odd = [0, 2, -3, 1000];
        let mixed: Vec<Update> = waves
            .iter()
            .enumerate()
            .map(|(t, u)| match t % 11 {
                3 | 7 | 8 => Update::new(u.item, odd[t % odd.len()]),
                _ => *u,
            })
            .collect();
        for rows in [16, 59, 60, 61, 461, 1537] {
            for batch in [1, 2, 4, 16, 63, 64, 65, 200] {
                for (seed, stream) in [&inserts, &waves, &mixed].into_iter().enumerate() {
                    assert_matches_reference(rows, seed as u64, stream, batch);
                }
            }
        }
    }

    #[test]
    fn counting_stops_where_counters_would_round() {
        // Past 2⁵³ an f64 no longer holds every integer, so adding +1 twice
        // and adding +2 once can round differently: the per-row loop must
        // take over before any counter can get there.
        for start in [(1i64 << 53) - 40, 1 << 53, 1 << 60, i64::MAX, i64::MIN] {
            let mut stream = vec![Update::new(7, start)];
            stream
                .extend((0..200).map(|t| Update::new(7 + t % 3, if t % 5 == 4 { -1 } else { 1 })));
            for batch in [2, 64, 201] {
                assert_matches_reference(61, 3, &stream, batch);
            }
        }
    }

    #[test]
    fn inline_hash_matches_the_four_wise_polynomial_family() {
        let p = MERSENNE_P;
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            let sketch = PStableSketch::new(PStableConfig { p: 2.0, rows: 16 }, seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let family = KWiseHash::from_rng(4, &mut rng);
            let second = KWiseHash::from_rng(4, &mut rng);
            let edges = [0, 1, 2, p - 1, p, p + 1, 2 * p, u64::MAX - 1, u64::MAX];
            let mut rng = StdRng::seed_from_u64(seed ^ 7);
            let random: Vec<u64> = (0..2_000).map(|_| rng.gen()).collect();
            for key in edges.into_iter().chain(random) {
                assert_eq!(
                    hash4(&sketch.uniform_a, key),
                    family.hash(key),
                    "seed {seed}: {key}"
                );
                assert_eq!(
                    sketch.uniform_b.hash(key),
                    second.hash(key),
                    "seed {seed}: {key}"
                );
            }
        }
    }

    #[test]
    fn one_insert_sets_every_row_at_p_two() {
        // 461 rows is not a multiple of the 60 signs per hash evaluation, so
        // the last group is partial; no row may be skipped.
        for seed in 0..4 {
            let mut sketch = PStableSketch::new(PStableConfig { p: 2.0, rows: 461 }, seed);
            sketch.insert(12_345);
            assert!(sketch.counters.iter().all(|&z| z == 1.0 || z == -1.0));
            assert!(sketch.counters.contains(&1.0) && sketch.counters.contains(&-1.0));
            assert_eq!(sketch.estimate(), 1.0);
        }
    }

    #[test]
    fn two_item_streams_never_cancel() {
        // Two items of equal frequency f have F₂ = 2f². A one-row bucketed
        // estimator reads 0 whenever they share a bucket with opposite
        // signs; with per-row signs the estimate is 4f² times the fraction
        // of rows where the signs agree, whose sd is about 0.047 relative at
        // 461 rows, so ε = 0.2 is about 4σ.
        const F: i64 = 3;
        let truth = (2 * F * F) as f64;
        for seed in 0..8 {
            let fresh = PStableSketch::new(PStableConfig { p: 2.0, rows: 461 }, seed);
            for a in 0..64u64 {
                for b in a + 1..64 {
                    let mut sketch = fresh.clone();
                    for _ in 0..F {
                        sketch.insert(a);
                        sketch.insert(b);
                    }
                    let err = relative_error(sketch.estimate(), truth);
                    assert!(err < 0.2, "seed {seed}, items {a} and {b}: error {err}");
                }
            }
        }
    }

    #[test]
    fn variates_are_consistent_across_calls() {
        let sketch = PStableSketch::new(PStableConfig::for_accuracy(1.0, 0.5), 23);
        for row in 0..4 {
            for item in [0u64, 17, 123_456] {
                assert_eq!(sketch.variate(row, item), sketch.variate(row, item));
            }
        }
    }

    #[test]
    fn space_scales_with_rows_only() {
        for p in [1.0, 2.0] {
            let small = PStableSketch::new(PStableConfig { p, rows: 16 }, 0);
            let big = PStableSketch::new(PStableConfig { p, rows: 1024 }, 0);
            assert!(big.space_bytes() > small.space_bytes());
            let mut used = PStableSketch::new(PStableConfig { p, rows: 16 }, 0);
            for i in 0..10_000u64 {
                used.insert(i);
            }
            assert_eq!(
                used.space_bytes(),
                small.space_bytes(),
                "space is data-independent"
            );
        }
        for rows in [16, 461, 1024] {
            let sketch = PStableSketch::new(PStableConfig { p: 2.0, rows }, 0);
            assert_eq!(sketch.space_bytes(), rows * 8 + 64);
        }
    }

    #[test]
    #[should_panic(expected = "p must lie in [MIN_P, 2]")]
    fn rejects_p_above_two() {
        let _ = PStableConfig::for_accuracy(3.0, 0.1);
    }

    #[test]
    #[should_panic(expected = "p must lie in [MIN_P, 2]")]
    fn rejects_p_below_min_p() {
        // p = 0.07 is past the corner where a variate overflows f64.
        let _ = PStableSketch::new(PStableConfig { p: 0.07, rows: 16 }, 0);
    }
}
