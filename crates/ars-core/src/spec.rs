//! Declarative provisioner specs: [`ProblemSpec`] and [`ProvisionerSpec`].
//!
//! A [`ProvisionerSpec`] is the one way to register a
//! [`crate::manager::SessionManager`] tenant: the problem, every builder
//! knob, and the strategy override as plain data with a JSON wire form, so
//! an in-process caller and a remote client register the same way. From a
//! spec the manager derives everything a tenant needs — the
//! [`ars_stream::StreamModel`] the session must enforce and a fresh
//! estimator at any flip budget λ ([`ProvisionerSpec::build`], which is
//! also the re-provisioning path) — and a snapshot embeds the spec so a
//! restored manager rebuilds the identical estimator (same seed, same
//! parameters, hence the same deterministic sketch randomness).

#![cfg_attr(
    not(test),
    deny(clippy::panic, clippy::unwrap_used, clippy::expect_used)
)]

use ars_stream::StreamModel;

use crate::api::RobustEstimator;
use crate::builder::{RobustBuilder, Strategy};
use crate::crypto_mask::CryptoBackend;
use crate::error::{ArsError, BuildError};
use crate::json::{JsonValue, JsonWriter};

/// Which problem a [`ProvisionerSpec`] provisions, with the per-problem
/// parameters that are not shared builder knobs. Mirrors the constructors
/// on [`RobustBuilder`] one-for-one, plus [`ProblemSpec::CryptoF0`] for
/// `f0` under the crypto route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProblemSpec {
    /// Distinct elements (Theorems 1.1/1.2) — [`RobustBuilder::f0`].
    F0,
    /// `F_p`, `0 < p ≤ 2` (Theorems 1.4/1.5) — [`RobustBuilder::fp`].
    Fp {
        /// The moment order.
        p: f64,
    },
    /// `F_p`, `p > 2` (Theorem 1.7) — [`RobustBuilder::fp_large`].
    FpLarge {
        /// The moment order.
        p: f64,
    },
    /// λ-flip turnstile `F_p` (Theorem 1.6) —
    /// [`RobustBuilder::turnstile_fp`]. The λ here is the *initial*
    /// promise; re-provisioning doubles it through the build hint.
    TurnstileFp {
        /// The moment order.
        p: f64,
        /// The promised flip budget λ.
        lambda: usize,
    },
    /// α-bounded-deletion `F_p` (Theorem 1.11) —
    /// [`RobustBuilder::bounded_deletion_fp`].
    BoundedDeletionFp {
        /// The moment order.
        p: f64,
        /// The deletion parameter α ≥ 1.
        alpha: f64,
    },
    /// Empirical Shannon entropy (Theorem 1.10) —
    /// [`RobustBuilder::entropy`].
    Entropy,
    /// `L₂` heavy hitters (Theorem 1.9) —
    /// [`RobustBuilder::heavy_hitters`]. Note the heavy-hitters structure
    /// is bespoke (no engine publication seam), so its restored readings
    /// are within-guarantee rather than bitwise-stable.
    HeavyHitters,
    /// The cryptographic `F₀` route (Theorem 10.1) — [`RobustBuilder::f0`]
    /// under [`Strategy::Crypto`], with the default backend unless the
    /// spec selects one. Kept as its own problem so specs and snapshots
    /// that name `"crypto-f0"` still build.
    CryptoF0,
}

impl ProblemSpec {
    /// The stable wire name of the problem.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Self::F0 => "f0",
            Self::Fp { .. } => "fp",
            Self::FpLarge { .. } => "fp-large",
            Self::TurnstileFp { .. } => "turnstile-fp",
            Self::BoundedDeletionFp { .. } => "bounded-deletion-fp",
            Self::Entropy => "entropy",
            Self::HeavyHitters => "heavy-hitters",
            Self::CryptoF0 => "crypto-f0",
        }
    }

    /// The stream model the problem's theorem is stated over — what a
    /// session provisioned from this spec must enforce.
    #[must_use]
    pub fn model(&self) -> StreamModel {
        match *self {
            Self::TurnstileFp { .. } => StreamModel::Turnstile,
            Self::BoundedDeletionFp { p, alpha } => StreamModel::BoundedDeletion { alpha, p },
            _ => StreamModel::InsertionOnly,
        }
    }
}

/// The stable wire name of a [`Strategy`] (used by specs and snapshots).
#[must_use]
pub fn strategy_wire_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::SketchSwitching => "sketch-switching",
        Strategy::ComputationPaths => "computation-paths",
        Strategy::Crypto(CryptoBackend::ChaChaPrf) => "crypto-chacha",
        Strategy::Crypto(CryptoBackend::RandomOracle) => "crypto-random-oracle",
        Strategy::DpAggregation => "dp-aggregation",
        Strategy::DifferenceEstimators => "difference-estimators",
    }
}

/// Parses a [`Strategy`] wire name written by [`strategy_wire_name`].
#[must_use]
pub fn strategy_from_wire_name(name: &str) -> Option<Strategy> {
    match name {
        "sketch-switching" => Some(Strategy::SketchSwitching),
        "computation-paths" => Some(Strategy::ComputationPaths),
        "crypto-chacha" => Some(Strategy::Crypto(CryptoBackend::ChaChaPrf)),
        "crypto-random-oracle" => Some(Strategy::Crypto(CryptoBackend::RandomOracle)),
        "dp-aggregation" => Some(Strategy::DpAggregation),
        "difference-estimators" => Some(Strategy::DifferenceEstimators),
        _ => None,
    }
}

/// A declarative, serializable provisioner: a [`ProblemSpec`] plus every
/// shared [`RobustBuilder`] knob. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvisionerSpec {
    /// The problem to provision.
    pub problem: ProblemSpec,
    /// Approximation parameter ε.
    pub epsilon: f64,
    /// Failure probability δ (builder default: 10⁻³).
    pub delta: f64,
    /// Maximum stream length `m` (builder default: 2²⁰).
    pub stream_length: u64,
    /// Domain size `n` (builder default: 2²⁰).
    pub domain: u64,
    /// Frequency magnitude bound `M` (builder default: 2²⁰).
    pub max_frequency: u64,
    /// Seed for all randomness. Two builds from the same spec produce
    /// identical sketch randomness — the property snapshot restore relies
    /// on.
    pub seed: u64,
    /// Strategy override (`None` = the problem's default route).
    pub strategy: Option<Strategy>,
    /// Whether sessions provisioned from this spec keep exact state
    /// (default `true`: re-provisioning and snapshot replay both need it;
    /// opt out for the `O(1)` stateless validator footprint).
    pub exact_state: bool,
}

impl ProvisionerSpec {
    /// A spec for `problem` at approximation ε, with the builder defaults
    /// for every other knob and exact state retained.
    #[must_use]
    pub fn new(problem: ProblemSpec, epsilon: f64) -> Self {
        Self {
            problem,
            epsilon,
            delta: 1e-3,
            stream_length: 1 << 20,
            domain: 1 << 20,
            max_frequency: 1 << 20,
            seed: 0,
            strategy: None,
            exact_state: true,
        }
    }

    /// Sets the failure probability δ.
    #[must_use]
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Sets the maximum stream length `m`.
    #[must_use]
    pub fn stream_length(mut self, m: u64) -> Self {
        self.stream_length = m;
        self
    }

    /// Sets the domain size `n`.
    #[must_use]
    pub fn domain(mut self, n: u64) -> Self {
        self.domain = n;
        self
    }

    /// Sets the frequency magnitude bound `M`.
    #[must_use]
    pub fn max_frequency(mut self, max_frequency: u64) -> Self {
        self.max_frequency = max_frequency;
        self
    }

    /// Sets the randomness seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects a robustification route (default: per-problem).
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Opts the provisioned sessions out of exact state (stateless
    /// validators where the model admits them; re-provisioning and
    /// snapshot replay become unavailable).
    #[must_use]
    pub fn stateless(mut self) -> Self {
        self.exact_state = false;
        self
    }

    /// The stream model sessions from this spec must enforce.
    #[must_use]
    pub fn model(&self) -> StreamModel {
        self.problem.model()
    }

    /// The configured [`RobustBuilder`] (not yet bound to a problem; the
    /// problem constructor checks ε and δ).
    fn builder(&self) -> RobustBuilder {
        let mut builder = RobustBuilder::new(self.epsilon)
            .delta(self.delta)
            .stream_length(self.stream_length)
            .domain(self.domain)
            .max_frequency(self.max_frequency)
            .seed(self.seed);
        if let Some(strategy) = self.strategy {
            builder = builder.strategy(strategy);
        }
        builder
    }

    /// Builds a fresh estimator from the spec. `lambda` is the
    /// re-provisioning hint: problems whose λ is an explicit promise (the
    /// turnstile route) build at that budget; problems whose λ is analytic
    /// ignore it (a fresh pool with reset flip accounting is the recovery).
    pub fn build(&self, lambda: Option<usize>) -> Result<Box<dyn RobustEstimator>, ArsError> {
        let builder = self.builder();
        Ok(match self.problem {
            ProblemSpec::F0 => Box::new(builder.f0()?),
            ProblemSpec::Fp { p } => Box::new(builder.fp(p)?),
            ProblemSpec::FpLarge { p } => Box::new(builder.fp_large(p)?),
            ProblemSpec::TurnstileFp { p, lambda: base } => {
                Box::new(builder.turnstile_fp(p, lambda.unwrap_or(base))?)
            }
            ProblemSpec::BoundedDeletionFp { p, alpha } => {
                Box::new(builder.bounded_deletion_fp(p, alpha)?)
            }
            ProblemSpec::Entropy => Box::new(builder.entropy()?),
            ProblemSpec::HeavyHitters => Box::new(builder.heavy_hitters()?),
            ProblemSpec::CryptoF0 => {
                let backend = match self.strategy {
                    None => CryptoBackend::default(),
                    Some(Strategy::Crypto(backend)) => backend,
                    Some(_) => {
                        return Err(BuildError::StrategyMismatch {
                            problem: "crypto-f0",
                            detail: "crypto-f0 is the Theorem 10.1 construction; select the \
                                     backend with Strategy::Crypto(..) or leave the strategy \
                                     unset",
                        }
                        .into())
                    }
                };
                Box::new(builder.strategy(Strategy::Crypto(backend)).f0()?)
            }
        })
    }

    /// Serializes the spec as one JSON object (the wire form `POST
    /// /tenants/{name}` accepts and snapshots embed).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(192);
        w.raw("{").key("problem").string(self.problem.name());
        match self.problem {
            ProblemSpec::Fp { p } | ProblemSpec::FpLarge { p } => {
                w.raw(",").key("p").number(p);
            }
            ProblemSpec::TurnstileFp { p, lambda } => {
                w.raw(",").key("p").number(p);
                w.raw(",").key("lambda").uint(lambda as u64);
            }
            ProblemSpec::BoundedDeletionFp { p, alpha } => {
                w.raw(",").key("p").number(p);
                w.raw(",").key("alpha").number(alpha);
            }
            ProblemSpec::F0
            | ProblemSpec::Entropy
            | ProblemSpec::HeavyHitters
            | ProblemSpec::CryptoF0 => {}
        }
        w.raw(",")
            .key("epsilon")
            .number(self.epsilon)
            .raw(",")
            .key("delta")
            .number(self.delta)
            .raw(",")
            .key("stream_length")
            .uint(self.stream_length)
            .raw(",")
            .key("domain")
            .uint(self.domain)
            .raw(",")
            .key("max_frequency")
            .uint(self.max_frequency)
            .raw(",")
            .key("seed")
            .uint(self.seed)
            .raw(",")
            .key("strategy");
        match self.strategy {
            Some(strategy) => {
                w.string(strategy_wire_name(strategy));
            }
            None => {
                w.null();
            }
        }
        w.raw(",")
            .key("exact_state")
            .boolean(self.exact_state)
            .raw("}");
        w.finish()
    }

    /// Parses a spec serialized by [`ProvisionerSpec::to_json`]. Only
    /// `problem` and `epsilon` (plus the problem's own parameters) are
    /// required; omitted knobs take the builder defaults, so a minimal
    /// registration body is `{"problem":"f0","epsilon":0.2}`. The text
    /// must be exactly one JSON value: trailing content is refused.
    pub fn try_from_json(text: &str) -> Result<Self, ArsError> {
        let doc = JsonValue::parse_strict(text).map_err(|err| ArsError::Wire {
            reason: format!("provisioner spec: {err}"),
        })?;
        Self::from_value(&doc)
    }

    /// Parses a spec from an already-parsed [`JsonValue`] (snapshots embed
    /// specs inside a larger document).
    pub fn from_value(doc: &JsonValue) -> Result<Self, ArsError> {
        fn wire(reason: String) -> ArsError {
            ArsError::Wire { reason }
        }
        let req_num = |key: &str| -> Result<f64, ArsError> {
            doc.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| wire(format!("provisioner spec: missing or non-numeric {key:?}")))
        };
        let name = doc
            .get("problem")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| wire("provisioner spec: missing \"problem\"".to_string()))?;
        let problem = match name {
            "f0" => ProblemSpec::F0,
            "fp" => ProblemSpec::Fp { p: req_num("p")? },
            "fp-large" => ProblemSpec::FpLarge { p: req_num("p")? },
            "turnstile-fp" => ProblemSpec::TurnstileFp {
                p: req_num("p")?,
                lambda: doc
                    .get("lambda")
                    .and_then(JsonValue::as_usize)
                    .ok_or_else(|| {
                        wire(
                            "provisioner spec: turnstile-fp needs an integer \"lambda\""
                                .to_string(),
                        )
                    })?,
            },
            "bounded-deletion-fp" => ProblemSpec::BoundedDeletionFp {
                p: req_num("p")?,
                alpha: req_num("alpha")?,
            },
            "entropy" => ProblemSpec::Entropy,
            "heavy-hitters" => ProblemSpec::HeavyHitters,
            "crypto-f0" => ProblemSpec::CryptoF0,
            other => {
                return Err(wire(format!(
                    "provisioner spec: unknown problem {other:?} (expected one of f0, fp, \
                     fp-large, turnstile-fp, bounded-deletion-fp, entropy, heavy-hitters, \
                     crypto-f0)"
                )))
            }
        };
        let mut spec = Self::new(problem, req_num("epsilon")?);
        let opt_uint = |key: &str, default: u64| -> Result<u64, ArsError> {
            match doc.get(key) {
                None => Ok(default),
                Some(node) => node
                    .as_u64()
                    .ok_or_else(|| wire(format!("provisioner spec: non-integer {key:?}"))),
            }
        };
        if let Some(node) = doc.get("delta") {
            spec.delta = node
                .as_f64()
                .ok_or_else(|| wire("provisioner spec: non-numeric \"delta\"".to_string()))?;
        }
        spec.stream_length = opt_uint("stream_length", spec.stream_length)?;
        spec.domain = opt_uint("domain", spec.domain)?;
        spec.max_frequency = opt_uint("max_frequency", spec.max_frequency)?;
        spec.seed = opt_uint("seed", spec.seed)?;
        match doc.get("strategy") {
            None => {}
            Some(JsonValue::Null) => spec.strategy = None,
            Some(node) => {
                let name = node.as_str().ok_or_else(|| {
                    wire("provisioner spec: \"strategy\" must be a string or null".to_string())
                })?;
                spec.strategy =
                    Some(strategy_from_wire_name(name).ok_or_else(|| {
                        wire(format!("provisioner spec: unknown strategy {name:?}"))
                    })?);
            }
        }
        if let Some(node) = doc.get("exact_state") {
            spec.exact_state = node
                .as_bool()
                .ok_or_else(|| wire("provisioner spec: non-boolean \"exact_state\"".to_string()))?;
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_stream::Update;

    fn all_specs() -> Vec<ProvisionerSpec> {
        vec![
            ProvisionerSpec::new(ProblemSpec::F0, 0.25)
                .domain(1 << 12)
                .stream_length(8_000)
                .seed(42),
            ProvisionerSpec::new(ProblemSpec::Fp { p: 2.0 }, 0.25)
                .strategy(Strategy::ComputationPaths)
                .seed(7),
            ProvisionerSpec::new(ProblemSpec::FpLarge { p: 3.0 }, 0.3).seed(9),
            ProvisionerSpec::new(ProblemSpec::TurnstileFp { p: 2.0, lambda: 4 }, 0.25)
                .max_frequency(64),
            ProvisionerSpec::new(ProblemSpec::BoundedDeletionFp { p: 2.0, alpha: 2.0 }, 0.3),
            ProvisionerSpec::new(ProblemSpec::Entropy, 0.4),
            ProvisionerSpec::new(ProblemSpec::HeavyHitters, 0.25).stateless(),
            ProvisionerSpec::new(ProblemSpec::CryptoF0, 0.25)
                .delta(0.25)
                .strategy(Strategy::Crypto(CryptoBackend::RandomOracle)),
        ]
    }

    #[test]
    fn json_round_trips_every_problem() {
        for spec in all_specs() {
            let json = spec.to_json();
            let back =
                ProvisionerSpec::try_from_json(&json).unwrap_or_else(|err| panic!("{json}: {err}"));
            assert_eq!(back, spec, "round trip diverged on {json}");
        }
    }

    #[test]
    fn minimal_body_takes_builder_defaults() {
        let spec = ProvisionerSpec::try_from_json("{\"problem\":\"f0\",\"epsilon\":0.2}").unwrap();
        assert_eq!(spec.problem, ProblemSpec::F0);
        assert_eq!(spec.epsilon, 0.2);
        assert_eq!(spec.delta, 1e-3);
        assert_eq!(spec.stream_length, 1 << 20);
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.strategy, None);
        assert!(spec.exact_state);
    }

    #[test]
    fn malformed_specs_name_the_reason() {
        for (body, needle) in [
            ("{\"epsilon\":0.2}", "problem"),
            ("{\"problem\":\"f9\",\"epsilon\":0.2}", "unknown problem"),
            ("{\"problem\":\"fp\",\"epsilon\":0.2}", "\"p\""),
            (
                "{\"problem\":\"turnstile-fp\",\"p\":2.0,\"epsilon\":0.2}",
                "lambda",
            ),
            (
                "{\"problem\":\"f0\",\"epsilon\":0.2,\"strategy\":\"quantum\"}",
                "unknown strategy",
            ),
            ("{\"problem\":\"f0\"}", "epsilon"),
            ("not json", "provisioner spec"),
            (
                "{\"problem\":\"f0\",\"epsilon\":0.2} junk",
                "trailing content",
            ),
        ] {
            match ProvisionerSpec::try_from_json(body) {
                Err(ArsError::Wire { reason }) => {
                    assert!(reason.contains(needle), "{body}: {reason}");
                }
                other => panic!("{body}: expected Wire, got {other:?}"),
            }
        }
    }

    #[test]
    fn build_validates_through_the_fallible_builders() {
        // An invalid epsilon is a typed Build error, not a panic.
        let bad = ProvisionerSpec::new(ProblemSpec::F0, 1.5);
        assert!(matches!(bad.build(None), Err(ArsError::Build(_))));
        // A strategy/problem mismatch surfaces too: Fp has no crypto route.
        let mismatched = ProvisionerSpec::new(ProblemSpec::Fp { p: 2.0 }, 0.2)
            .strategy(Strategy::Crypto(CryptoBackend::ChaChaPrf));
        assert!(matches!(mismatched.build(None), Err(ArsError::Build(_))));
        // The wire parses 1e999 as infinity; the builders must refuse it
        // rather than provision a tenant around it.
        for (body, field) in [
            (
                "{\"problem\":\"fp-large\",\"epsilon\":0.3,\"p\":1e999}",
                "p",
            ),
            (
                "{\"problem\":\"bounded-deletion-fp\",\"epsilon\":0.3,\"p\":2,\"alpha\":1e999}",
                "alpha",
            ),
        ] {
            let spec = ProvisionerSpec::try_from_json(body).unwrap();
            match spec.build(None) {
                Err(ArsError::Build(BuildError::OutOfRange { field: got, .. })) => {
                    assert_eq!(got, field, "{body}");
                }
                Err(other) => panic!("{body}: expected OutOfRange, got {other:?}"),
                Ok(_) => panic!("{body}: built a tenant around an infinite parameter"),
            }
        }
    }

    #[test]
    fn crypto_f0_spec_rejects_conflicting_strategy() {
        // "crypto-f0" is the Theorem 10.1 construction: it takes a crypto
        // backend or none (the default), and refuses every other route.
        let spec = ProvisionerSpec::new(ProblemSpec::CryptoF0, 0.1);
        assert_eq!(spec.build(None).unwrap().strategy_name(), "crypto-mask");
        let conflicting = spec.strategy(Strategy::SketchSwitching).build(None);
        match conflicting {
            Err(ArsError::Build(BuildError::StrategyMismatch { detail, .. })) => {
                assert!(detail.contains("Theorem 10.1 construction"), "{detail}");
            }
            Err(other) => panic!("expected StrategyMismatch, got {other:?}"),
            Ok(_) => panic!("crypto-f0 built under sketch switching"),
        }
    }

    #[test]
    fn model_matches_the_problem() {
        assert_eq!(
            ProvisionerSpec::new(ProblemSpec::F0, 0.2).model(),
            StreamModel::InsertionOnly
        );
        assert_eq!(
            ProvisionerSpec::new(ProblemSpec::TurnstileFp { p: 2.0, lambda: 2 }, 0.2).model(),
            StreamModel::Turnstile
        );
        assert_eq!(
            ProvisionerSpec::new(ProblemSpec::BoundedDeletionFp { p: 2.0, alpha: 2.0 }, 0.2)
                .model(),
            StreamModel::BoundedDeletion { alpha: 2.0, p: 2.0 }
        );
    }

    #[test]
    fn same_spec_builds_identical_estimators() {
        let spec = ProvisionerSpec::new(ProblemSpec::F0, 0.25)
            .domain(1 << 10)
            .stream_length(4_000)
            .seed(11);
        let mut a = spec.build(None).unwrap();
        let mut b = spec.build(None).unwrap();
        let batch: Vec<Update> = (0..2_000u64).map(|i| Update::insert(i % 300)).collect();
        a.update_batch(&batch);
        b.update_batch(&batch);
        assert_eq!(a.query(), b.query(), "same seed must mean same reading");
    }

    #[test]
    fn turnstile_builds_take_the_lambda_hint() {
        let spec = ProvisionerSpec::new(ProblemSpec::TurnstileFp { p: 2.0, lambda: 2 }, 0.25)
            .max_frequency(64);
        assert_eq!(spec.build(None).unwrap().flip_budget(), 2);
        assert_eq!(spec.build(Some(8)).unwrap().flip_budget(), 8);
        // Problems with an analytic lambda ignore the hint.
        let f0 = ProvisionerSpec::new(ProblemSpec::F0, 0.25);
        let analytic = f0.build(None).unwrap().flip_budget();
        assert_eq!(f0.build(Some(999)).unwrap().flip_budget(), analytic);
    }

    #[test]
    fn strategy_wire_names_round_trip() {
        for strategy in [
            Strategy::SketchSwitching,
            Strategy::ComputationPaths,
            Strategy::Crypto(CryptoBackend::ChaChaPrf),
            Strategy::Crypto(CryptoBackend::RandomOracle),
            Strategy::DpAggregation,
            Strategy::DifferenceEstimators,
        ] {
            assert_eq!(
                strategy_from_wire_name(strategy_wire_name(strategy)),
                Some(strategy)
            );
        }
        assert_eq!(strategy_from_wire_name("quantum"), None);
    }
}
