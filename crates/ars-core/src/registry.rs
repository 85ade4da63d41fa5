//! A registry of every robust estimator the crate provides, as
//! `Box<dyn RobustEstimator>` trait objects paired with the metadata a
//! generic driver needs to score them.
//!
//! The benchmark harness (`ars-bench`), the adversarial game sweeps and
//! the conformance test suite all iterate this registry instead of
//! maintaining one hand-written driver per estimator type; adding a new
//! estimator (or a new strategy behind an existing one) to the registry
//! automatically enrolls it in all three.

use ars_stream::exact::Query;
use ars_stream::generator::{Generator, WorkloadSpec};
use ars_stream::{StreamModel, Update};

use crate::api::RobustEstimator;
use crate::builder::{RobustBuilder, Strategy};
use crate::crypto_mask::CryptoBackend;
use crate::flip_number::FlipNumberBound;
use crate::robust_entropy::EntropyMethod;
use crate::session::StreamSession;

/// Shared parameters for one registry instantiation.
#[derive(Debug, Clone, Copy)]
pub struct RegistryParams {
    /// Approximation parameter ε used for every entry.
    pub epsilon: f64,
    /// Overall failure probability δ.
    pub delta: f64,
    /// Maximum stream length `m`.
    pub stream_length: u64,
    /// Domain size `n`.
    pub domain: u64,
    /// Base seed; each entry derives its own.
    pub seed: u64,
}

impl RegistryParams {
    /// A laptop-scale default: ε = 0.25, δ = 10⁻³, m = 8000, n = 2¹².
    #[must_use]
    pub fn small() -> Self {
        Self {
            epsilon: 0.25,
            delta: 1e-3,
            stream_length: 8_000,
            domain: 1 << 12,
            seed: 42,
        }
    }

    /// The turnstile entries are provisioned for insert/delete waves of
    /// this length (the reference workload for `StreamModel::Turnstile`).
    #[must_use]
    pub fn turnstile_wave_length(&self) -> u64 {
        (self.stream_length / 6).max(500)
    }

    /// The bounded-deletion entries are provisioned for this α.
    #[must_use]
    pub fn bounded_deletion_alpha(&self) -> f64 {
        2.0
    }

    fn builder(&self, seed_offset: u64) -> RobustBuilder {
        RobustBuilder::new(self.epsilon)
            .delta(self.delta)
            .stream_length(self.stream_length)
            .domain(self.domain)
            .max_frequency(self.stream_length)
            .seed(self.seed.wrapping_add(seed_offset))
    }
}

/// One registry entry: an estimator plus what a generic driver needs to
/// stream to it and score it.
pub struct RegistryEntry {
    /// Stable identifier, e.g. `"f0/sketch-switching"`.
    pub id: &'static str,
    /// Human-readable label for report tables.
    pub label: String,
    /// The exact query this estimator tracks.
    pub query: Query,
    /// Whether scoring is additive (entropy) or multiplicative.
    pub additive: bool,
    /// The stream model the estimator's guarantee assumes.
    pub model: StreamModel,
    /// The synthetic workload generic drivers (the conformance suite, the
    /// E13 registry sweep) exercise the guarantee on.
    pub workload: WorkloadSpec,
    /// Relative (or additive) error budget a conformance run should hold
    /// the estimator to on the reference workload. Wider than ε where the
    /// laptop-scale constant substitutions documented in the module docs
    /// apply.
    pub error_budget: f64,
    /// Scored only once the exact tracked value reaches this threshold
    /// (small prefixes are noisy for every sketch and the guarantees are
    /// asymptotic in the tracked value).
    pub min_truth: f64,
    /// The estimator itself, behind the object-safe trait.
    pub estimator: Box<dyn RobustEstimator>,
}

impl RegistryEntry {
    /// Number of independent static-sketch copies behind the estimator —
    /// the copy axis of the paper's space bounds. Drivers report it next
    /// to [`RegistryEntry::space_bytes`] so strategies can be compared at
    /// equal flip budget (λ for exhaustible switching vs `√λ` for DP
    /// aggregation).
    #[must_use]
    pub fn copies(&self) -> usize {
        self.estimator.copies()
    }

    /// Current memory footprint of the estimator, in bytes.
    #[must_use]
    pub fn space_bytes(&self) -> usize {
        self.estimator.space_bytes()
    }

    /// Wraps the entry's estimator in a [`StreamSession`] enforcing the
    /// stream model its guarantee assumes — the driver-facing way to run a
    /// registry entry: updates are validated at ingestion and readings come
    /// back as typed [`crate::estimate::Estimate`]s.
    #[must_use]
    pub fn into_session(self) -> StreamSession {
        StreamSession::new(self.model, self.estimator)
    }

    /// Generates this entry's reference stream.
    #[must_use]
    pub fn reference_stream(&self, params: &RegistryParams, seed: u64) -> Vec<Update> {
        self.workload
            .build(seed)
            .take_updates(params.stream_length as usize)
    }
}

impl std::fmt::Debug for RegistryEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryEntry")
            .field("id", &self.id)
            .field("query", &self.query)
            .field("model", &self.model)
            .field("strategy", &self.estimator.strategy_name())
            .finish_non_exhaustive()
    }
}

/// Why the constructors in [`standard_registry`] succeed: every
/// per-problem parameter there is fixed in range, which leaves ε and δ.
const IN_RANGE: &str = "registry parameters take epsilon and delta in (0, 1)";

/// Builds the full standard registry: every problem × every strategy the
/// paper gives for it.
///
/// # Panics
///
/// If `params.epsilon` or `params.delta` lies outside `(0, 1)`.
#[must_use]
pub fn standard_registry(params: &RegistryParams) -> Vec<RegistryEntry> {
    let eps = params.epsilon;
    let uniform = WorkloadSpec::Uniform {
        domain: params.domain,
    };
    let mut entries = vec![RegistryEntry {
        id: "f0/sketch-switching",
        label: "robust F0 (sketch switching, Thm 1.1)".to_string(),
        query: Query::F0,
        additive: false,
        model: StreamModel::InsertionOnly,
        workload: uniform.clone(),
        error_budget: eps * 1.3,
        min_truth: 200.0,
        estimator: Box::new(params.builder(1).f0().expect(IN_RANGE)),
    }];
    entries.push(RegistryEntry {
        id: "f0/computation-paths",
        label: "robust F0 (computation paths, Thm 1.2)".to_string(),
        query: Query::F0,
        additive: false,
        model: StreamModel::InsertionOnly,
        workload: uniform.clone(),
        error_budget: eps * 1.3,
        min_truth: 200.0,
        estimator: Box::new(
            params
                .builder(2)
                .strategy(Strategy::ComputationPaths)
                .f0()
                .expect(IN_RANGE),
        ),
    });
    entries.push(RegistryEntry {
        id: "f0/crypto-chacha",
        label: "crypto robust F0 (ChaCha PRF, Thm 10.1)".to_string(),
        query: Query::F0,
        additive: false,
        model: StreamModel::InsertionOnly,
        workload: uniform.clone(),
        error_budget: eps * 1.3,
        min_truth: 200.0,
        estimator: Box::new(
            params
                .builder(3)
                .strategy(Strategy::Crypto(CryptoBackend::ChaChaPrf))
                .f0()
                .expect(IN_RANGE),
        ),
    });
    entries.push(RegistryEntry {
        id: "f0/crypto-oracle",
        label: "crypto robust F0 (random oracle, Thm 10.1)".to_string(),
        query: Query::F0,
        additive: false,
        model: StreamModel::InsertionOnly,
        workload: uniform.clone(),
        error_budget: eps * 1.3,
        min_truth: 200.0,
        estimator: Box::new(
            params
                .builder(4)
                .strategy(Strategy::Crypto(CryptoBackend::RandomOracle))
                .f0()
                .expect(IN_RANGE),
        ),
    });

    entries.push(RegistryEntry {
        id: "f0/dp-aggregation",
        label: "robust F0 (DP aggregation, HKMMS20)".to_string(),
        query: Query::F0,
        additive: false,
        model: StreamModel::InsertionOnly,
        workload: uniform.clone(),
        // The DP route stacks the copy accuracy, the answer grid and the
        // drift-gated republication lag on top of ε, so its conformance
        // budget is wider than the switching routes'.
        error_budget: eps * 2.0,
        min_truth: 300.0,
        estimator: Box::new(
            params
                .builder(5)
                .strategy(Strategy::DpAggregation)
                .f0()
                .expect(IN_RANGE),
        ),
    });

    entries.push(RegistryEntry {
        id: "f0/difference-estimators",
        label: "robust F0 (difference estimators, ACSS22)".to_string(),
        query: Query::F0,
        additive: false,
        model: StreamModel::InsertionOnly,
        workload: uniform.clone(),
        // Like the DP route, the chunked construction stacks telescoped
        // per-chunk sketch errors on top of the rounding window, so its
        // conformance budget is wider than the switching routes'.
        error_budget: eps * 2.0,
        min_truth: 300.0,
        estimator: Box::new(
            params
                .builder(6)
                .strategy(Strategy::DifferenceEstimators)
                .f0()
                .expect(IN_RANGE),
        ),
    });

    for (offset, p) in [(10u64, 1.0f64), (11, 2.0)] {
        entries.push(RegistryEntry {
            id: if p == 1.0 {
                "fp1/sketch-switching"
            } else {
                "fp2/sketch-switching"
            },
            label: format!("robust F{p:.0} (sketch switching, Thm 1.4)"),
            query: Query::Fp(p),
            additive: false,
            model: StreamModel::InsertionOnly,
            workload: uniform.clone(),
            error_budget: eps * 1.6,
            min_truth: 500.0,
            estimator: Box::new(params.builder(offset).fp(p).expect(IN_RANGE)),
        });
        entries.push(RegistryEntry {
            id: if p == 1.0 {
                "fp1/computation-paths"
            } else {
                "fp2/computation-paths"
            },
            label: format!("robust F{p:.0} (computation paths, Thm 1.5)"),
            query: Query::Fp(p),
            additive: false,
            model: StreamModel::InsertionOnly,
            workload: uniform.clone(),
            error_budget: eps * 1.6,
            min_truth: 500.0,
            estimator: Box::new(
                params
                    .builder(offset + 10)
                    .strategy(Strategy::ComputationPaths)
                    .fp(p)
                    .expect(IN_RANGE),
            ),
        });
        entries.push(RegistryEntry {
            id: if p == 1.0 {
                "fp1/dp-aggregation"
            } else {
                "fp2/dp-aggregation"
            },
            label: format!("robust F{p:.0} (DP aggregation, HKMMS20)"),
            query: Query::Fp(p),
            additive: false,
            model: StreamModel::InsertionOnly,
            workload: uniform.clone(),
            error_budget: eps * 2.0,
            min_truth: 500.0,
            estimator: Box::new(
                params
                    .builder(offset + 70)
                    .strategy(Strategy::DpAggregation)
                    .fp(p)
                    .expect(IN_RANGE),
            ),
        });
        entries.push(RegistryEntry {
            id: if p == 1.0 {
                "fp1/difference-estimators"
            } else {
                "fp2/difference-estimators"
            },
            label: format!("robust F{p:.0} (difference estimators, ACSS22)"),
            query: Query::Fp(p),
            additive: false,
            model: StreamModel::InsertionOnly,
            workload: uniform.clone(),
            error_budget: eps * 2.0,
            min_truth: 500.0,
            estimator: Box::new(
                params
                    .builder(offset + 80)
                    .strategy(Strategy::DifferenceEstimators)
                    .fp(p)
                    .expect(IN_RANGE),
            ),
        });
    }

    entries.push(RegistryEntry {
        id: "fp3/computation-paths",
        label: "robust F3 (computation paths, Thm 1.7)".to_string(),
        query: Query::Fp(3.0),
        additive: false,
        model: StreamModel::InsertionOnly,
        workload: WorkloadSpec::Zipf {
            domain: params.domain,
            exponent: 1.4,
        },
        // The heavy-elements estimator at laptop scale is the coarsest
        // static ingredient in the crate.
        error_budget: (2.0 * eps).min(0.9),
        min_truth: 5_000.0,
        estimator: Box::new(params.builder(30).fp_large(3.0).expect(IN_RANGE)),
    });

    let wave = params.turnstile_wave_length();
    let waves = (params.stream_length / (2 * wave)).max(1) as usize + 1;
    let lambda = 2 * waves * FlipNumberBound::monotone(eps / 20.0, wave as f64).bound;
    entries.push(RegistryEntry {
        id: "turnstile-f2/computation-paths",
        label: "robust turnstile F2 (Thm 1.6)".to_string(),
        query: Query::Fp(2.0),
        additive: false,
        model: StreamModel::Turnstile,
        workload: WorkloadSpec::TurnstileWave { wave_length: wave },
        error_budget: eps * 1.6,
        min_truth: 300.0,
        estimator: Box::new(
            params
                .builder(40)
                .max_frequency(4)
                .turnstile_fp(2.0, lambda)
                .expect(IN_RANGE),
        ),
    });

    let alpha = params.bounded_deletion_alpha();
    entries.push(RegistryEntry {
        id: "bounded-deletion-f1/computation-paths",
        label: format!("robust bounded-deletion F1 (alpha={alpha}, Thm 1.11)"),
        query: Query::Fp(1.0),
        additive: false,
        model: StreamModel::bounded_deletion(alpha, 1.0),
        workload: WorkloadSpec::BoundedDeletion {
            alpha,
            phase_length: 500,
        },
        error_budget: eps * 1.6,
        min_truth: 200.0,
        estimator: Box::new(
            params
                .builder(50)
                .max_frequency(4)
                .bounded_deletion_fp(1.0, alpha)
                .expect(IN_RANGE),
        ),
    });

    entries.push(RegistryEntry {
        id: "entropy/sampled",
        label: "robust entropy (sampled backend, Thm 1.10)".to_string(),
        query: Query::ShannonEntropy,
        additive: true,
        model: StreamModel::InsertionOnly,
        // Entropy needs each item to recur so plug-in estimators see the
        // distribution: a small explicit domain.
        workload: WorkloadSpec::Uniform { domain: 64 },
        // Additive bits; the laptop-scale sampled estimator is coarser
        // than the asymptotic bound.
        error_budget: (3.0 * eps).min(1.0),
        min_truth: 0.0,
        estimator: Box::new(
            params
                .builder(60)
                .entropy_method(EntropyMethod::Sampled)
                .entropy()
                .expect(IN_RANGE),
        ),
    });

    entries.push(RegistryEntry {
        id: "heavy-hitters/l2-norm",
        label: "robust L2 heavy hitters (norm facet, Thm 1.9)".to_string(),
        query: Query::Lp(2.0),
        additive: false,
        model: StreamModel::InsertionOnly,
        workload: WorkloadSpec::Bursty {
            domain: params.domain,
            num_heavy: 4,
            heavy_fraction: 0.4,
        },
        error_budget: 0.3f64.max(eps * 1.3),
        min_truth: 30.0,
        estimator: Box::new(params.builder(70).heavy_hitters().expect(IN_RANGE)),
    });

    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_problem_and_strategy() {
        let entries = standard_registry(&RegistryParams::small());
        let ids: Vec<&str> = entries.iter().map(|e| e.id).collect();
        for expected in [
            "f0/sketch-switching",
            "f0/computation-paths",
            "f0/crypto-chacha",
            "f0/crypto-oracle",
            "f0/dp-aggregation",
            "f0/difference-estimators",
            "fp1/sketch-switching",
            "fp1/computation-paths",
            "fp1/dp-aggregation",
            "fp1/difference-estimators",
            "fp2/sketch-switching",
            "fp2/computation-paths",
            "fp2/dp-aggregation",
            "fp2/difference-estimators",
            "fp3/computation-paths",
            "turnstile-f2/computation-paths",
            "bounded-deletion-f1/computation-paths",
            "entropy/sampled",
            "heavy-hitters/l2-norm",
        ] {
            assert!(ids.contains(&expected), "missing registry entry {expected}");
        }
        // Strategy names come through the trait objects.
        let strategies: std::collections::HashSet<&str> = entries
            .iter()
            .map(|e| e.estimator.strategy_name())
            .collect();
        assert!(strategies.iter().any(|s| s.contains("sketch-switching")));
        assert!(strategies.contains("computation-paths"));
        assert!(strategies.contains("crypto-mask"));
        assert!(strategies.contains("dp-aggregation"));
        assert!(strategies.contains("difference-estimators"));
        // Copy metadata comes through as well: the DP pool is sub-linear
        // in the flip budget, single-copy strategies report 1.
        for entry in &entries {
            match entry.estimator.strategy_name() {
                "dp-aggregation" | "difference-estimators" => {
                    assert!(entry.copies() > 1, "{}", entry.id);
                }
                "computation-paths" | "crypto-mask" => {
                    assert_eq!(entry.copies(), 1, "{}", entry.id);
                }
                _ => assert!(entry.copies() >= 1, "{}", entry.id),
            }
            assert!(entry.space_bytes() > 0, "{}", entry.id);
        }
    }

    #[test]
    fn entries_are_usable_through_the_trait_object() {
        for mut entry in standard_registry(&RegistryParams::small()) {
            for i in 0..200u64 {
                entry.estimator.insert(i % 64);
            }
            assert!(entry.estimator.space_bytes() > 0, "{}", entry.id);
            assert!(entry.estimator.estimate() >= 0.0, "{}", entry.id);
        }
    }
}
