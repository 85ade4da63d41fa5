//! Typed query readings: [`Estimate`], [`Guarantee`], [`FlipBudget`] and
//! [`Health`].
//!
//! The paper's entire contribution is a *guarantee* — a `(1 ± ε)` tracking
//! bound that survives `λ` output flips under a promised stream model. A
//! bare `f64` throws that guarantee away: the caller cannot see the error
//! bound, the flips spent against the budget, or whether the estimator has
//! degraded past the regime its theorem covers. An [`Estimate`] is the full
//! reading: the published value, the interval the guarantee promises it
//! lies in, the flip accounting, and a [`Health`] verdict.
//!
//! Readings are produced by [`crate::api::RobustEstimator::query`]
//! (implemented once in the [`crate::engine::Robustify`] engine) and by
//! [`crate::session::StreamSession::query`], which additionally downgrades
//! the health to [`Health::PromiseViolated`] when the stream left its
//! declared model.

use std::fmt;

use crate::error::ArsError;
use crate::json::{JsonValue, JsonWriter};

/// The flip-number budget λ an estimator was provisioned for.
///
/// Replaces the old `usize::MAX` sentinel: the cryptographic route of
/// Theorem 10.1 needs no flip budget at all, and printing
/// `18446744073709551615` in a report table (or comparing against it) is a
/// bug waiting to happen. The sentinel still exists *internally* (the
/// engine's plan stores a raw `usize`), but every public reading goes
/// through this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlipBudget {
    /// A finite budget of λ output flips (sketch switching, computation
    /// paths, DP aggregation, …).
    Bounded(usize),
    /// No flip budget: the robustness argument does not count output
    /// changes (the cryptographic route).
    Unbounded,
}

impl FlipBudget {
    /// Converts from the raw engine representation, mapping the
    /// `usize::MAX` sentinel to [`FlipBudget::Unbounded`].
    #[must_use]
    pub fn from_raw(lambda: usize) -> Self {
        if lambda == usize::MAX {
            Self::Unbounded
        } else {
            Self::Bounded(lambda)
        }
    }

    /// Converts back to the raw engine representation (`usize::MAX` for
    /// [`FlipBudget::Unbounded`]), for compatibility with the legacy
    /// [`crate::api::RobustEstimator::flip_budget`] accessor.
    #[must_use]
    pub fn as_raw(self) -> usize {
        match self {
            Self::Bounded(lambda) => lambda,
            Self::Unbounded => usize::MAX,
        }
    }

    /// Whether spending `flips` output changes exhausts this budget. An
    /// unbounded budget is never exhausted; this is exactly the condition
    /// behind [`Health::BudgetExhausted`], which [`Estimate::new`] derives
    /// from it.
    #[must_use]
    pub fn is_exhausted_by(self, flips: usize) -> bool {
        match self {
            Self::Bounded(lambda) => flips > lambda,
            Self::Unbounded => false,
        }
    }
}

impl fmt::Display for FlipBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Bounded(lambda) => write!(f, "{lambda}"),
            Self::Unbounded => write!(f, "∞"),
        }
    }
}

/// The interval a `(1 ± ε)` (or ε-additive) guarantee promises the tracked
/// quantity lies in, given the published value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Guarantee {
    /// Lower end of the promised interval.
    pub lower: f64,
    /// Upper end of the promised interval.
    pub upper: f64,
    /// Whether the guarantee is additive (entropy, in bits) rather than
    /// multiplicative (frequency moments).
    pub additive: bool,
}

impl Guarantee {
    /// The multiplicative interval `[value/(1+ε), value/(1−ε)]` of a
    /// `(1 ± ε)` guarantee: the exact inversion of `|value − t| ≤ ε·t`, so
    /// the interval genuinely *contains* every truth `t` the published
    /// value is consistent with (`value·(1+ε)` would be too tight on the
    /// upper side — a published value at the low edge of its window sits a
    /// `1/(1−ε)` factor below the truth, not `1+ε`).
    #[must_use]
    pub fn multiplicative(value: f64, epsilon: f64) -> Self {
        Self {
            lower: value / (1.0 + epsilon),
            // Builders enforce ε < 1; the guard keeps a hand-rolled ε ≥ 1
            // from flipping the interval's sign.
            upper: if epsilon < 1.0 {
                value / (1.0 - epsilon)
            } else {
                f64::INFINITY
            },
            additive: false,
        }
    }

    /// The additive interval `[value − ε, value + ε]` of an ε-additive
    /// guarantee (entropy, in bits; the lower end is not clamped — a
    /// reading of 0.1 bits with ε = 0.3 genuinely only promises the truth
    /// exceeds −0.2, i.e. nothing).
    #[must_use]
    pub fn additive(value: f64, epsilon: f64) -> Self {
        Self {
            lower: value - epsilon,
            upper: value + epsilon,
            additive: true,
        }
    }

    /// Whether `truth` lies inside the promised interval (with a tiny
    /// floating-point tolerance).
    #[must_use]
    pub fn contains(&self, truth: f64) -> bool {
        truth >= self.lower - 1e-12 && truth <= self.upper + 1e-12
    }

    /// Half-width of the interval — a quick "± how much" summary.
    #[must_use]
    pub fn radius(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }
}

impl fmt::Display for Guarantee {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:.4}, {:.4}]", self.lower, self.upper)
    }
}

/// Whether a reading still carries its configured guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Health {
    /// The estimator is inside its provisioned regime: the guarantee
    /// interval is trustworthy.
    WithinGuarantee,
    /// The published output has changed more often than the provisioned
    /// flip budget λ — evidence that the stream left the promised class or
    /// an inner estimator failed; the guarantee no longer holds.
    BudgetExhausted,
    /// The stream violated its declared [`ars_stream::StreamModel`] (only
    /// reported through [`crate::session::StreamSession`], which enforces
    /// the model at ingestion); the guarantee's premise is void.
    PromiseViolated,
}

impl Health {
    /// Whether the guarantee interval can still be trusted.
    #[must_use]
    pub fn is_trustworthy(self) -> bool {
        matches!(self, Self::WithinGuarantee)
    }

    /// Parses the stable wire name produced by [`Health`]'s `Display`
    /// (used by the JSON reading surface).
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "within-guarantee" => Some(Self::WithinGuarantee),
            "budget-exhausted" => Some(Self::BudgetExhausted),
            "promise-violated" => Some(Self::PromiseViolated),
            _ => None,
        }
    }
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WithinGuarantee => write!(f, "within-guarantee"),
            Self::BudgetExhausted => write!(f, "budget-exhausted"),
            Self::PromiseViolated => write!(f, "promise-violated"),
        }
    }
}

/// One typed reading of a robust estimator: the published value plus
/// everything the guarantee says about it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The published `(1 ± ε)`-rounded (or raw, for the crypto route)
    /// estimate — exactly what the legacy `estimate()` accessor returns.
    pub value: f64,
    /// The approximation parameter ε the estimator was provisioned for
    /// (multiplicative for moments, additive bits for entropy).
    pub epsilon: f64,
    /// The interval the guarantee promises the exact value lies in.
    pub guarantee: Guarantee,
    /// Number of times the published output has changed so far.
    pub flips_used: usize,
    /// The flip budget λ the estimator was provisioned for.
    pub flip_budget: FlipBudget,
    /// Number of independent static-sketch copies behind the reading (the
    /// copy axis of the paper's space bounds).
    pub copies: usize,
    /// Whether the guarantee still holds.
    pub health: Health,
}

impl Estimate {
    /// Assembles a reading, deriving the guarantee interval and the health
    /// verdict from the raw accounting. This is the one place those
    /// derivations live, and `health` is the system's one budget verdict;
    /// the engine and the trait-default `query()` both call it, and
    /// [`crate::session::StreamSession::query`] only downgrades the health
    /// to [`Health::PromiseViolated`] after a model violation.
    #[must_use]
    pub fn new(
        value: f64,
        epsilon: f64,
        additive: bool,
        flips_used: usize,
        flip_budget: FlipBudget,
        copies: usize,
    ) -> Self {
        let guarantee = if additive {
            Guarantee::additive(value, epsilon)
        } else {
            Guarantee::multiplicative(value, epsilon)
        };
        let health = if flip_budget.is_exhausted_by(flips_used) {
            Health::BudgetExhausted
        } else {
            Health::WithinGuarantee
        };
        Self {
            value,
            epsilon,
            guarantee,
            flips_used,
            flip_budget,
            copies,
            health,
        }
    }

    /// Flips remaining in the budget, if it is bounded.
    #[must_use]
    pub fn flips_remaining(&self) -> Option<usize> {
        match self.flip_budget {
            FlipBudget::Bounded(lambda) => Some(lambda.saturating_sub(self.flips_used)),
            FlipBudget::Unbounded => None,
        }
    }

    /// Serializes the reading as one JSON object — the wire surface behind
    /// [`crate::manager::SessionManager::readings_json`]. Hand-rolled on
    /// the shared [`JsonWriter`] (the build environment vendors no serde):
    /// floats via `{:?}` so `f64` round-trips exactly, the unbounded flip
    /// budget as the string `"unbounded"` (never the raw `usize::MAX`
    /// sentinel), health as its stable `Display` name.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(160);
        w.raw("{")
            .key("value")
            .number(self.value)
            .raw(",")
            .key("epsilon")
            .number(self.epsilon)
            .raw(",")
            .key("guarantee")
            .raw("{")
            .key("lower")
            .number(self.guarantee.lower)
            .raw(",")
            .key("upper")
            .number(self.guarantee.upper)
            .raw(",")
            .key("additive")
            .boolean(self.guarantee.additive)
            .raw("},")
            .key("flips_used")
            .uint(self.flips_used as u64)
            .raw(",")
            .key("flip_budget");
        match self.flip_budget {
            FlipBudget::Bounded(lambda) => {
                w.uint(lambda as u64);
            }
            FlipBudget::Unbounded => {
                w.string("unbounded");
            }
        }
        w.raw(",")
            .key("copies")
            .uint(self.copies as u64)
            .raw(",")
            .key("health")
            .string(&self.health.to_string())
            .raw("}");
        w.finish()
    }

    /// Parses a reading serialized by [`Estimate::to_json`], reporting
    /// *why* a malformed payload was rejected through
    /// [`ArsError::Wire`] — the serving layer turns that reason into a 400
    /// body. Keys may appear in any order, unknown keys are ignored, and
    /// trailing content after the object is tolerated (a reading embedded
    /// in a larger document parses from its start offset).
    pub fn try_from_json(text: &str) -> Result<Self, ArsError> {
        fn wire(reason: String) -> ArsError {
            ArsError::Wire { reason }
        }
        let doc = JsonValue::parse(text).map_err(|err| wire(format!("reading: {err}")))?;
        let num = |node: &JsonValue, key: &str| -> Result<f64, ArsError> {
            node.get(key)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| wire(format!("reading: missing or non-numeric {key:?}")))
        };
        let value = num(&doc, "value")?;
        let epsilon = num(&doc, "epsilon")?;
        let guarantee = doc
            .get("guarantee")
            .ok_or_else(|| wire("reading: missing \"guarantee\"".to_string()))?;
        let lower = num(guarantee, "lower")?;
        let upper = num(guarantee, "upper")?;
        let additive = guarantee
            .get("additive")
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| wire("reading: missing or non-boolean \"additive\"".to_string()))?;
        let flips_used = doc
            .get("flips_used")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| wire("reading: missing or non-integer \"flips_used\"".to_string()))?;
        let flip_budget = match doc.get("flip_budget") {
            Some(JsonValue::String(s)) if s == "unbounded" => FlipBudget::Unbounded,
            Some(node) => FlipBudget::Bounded(node.as_usize().ok_or_else(|| {
                wire("reading: \"flip_budget\" must be an integer or \"unbounded\"".to_string())
            })?),
            None => return Err(wire("reading: missing \"flip_budget\"".to_string())),
        };
        let copies = doc
            .get("copies")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| wire("reading: missing or non-integer \"copies\"".to_string()))?;
        let health = doc
            .get("health")
            .and_then(JsonValue::as_str)
            .and_then(Health::parse)
            .ok_or_else(|| wire("reading: missing or unknown \"health\"".to_string()))?;
        Ok(Self {
            value,
            epsilon,
            guarantee: Guarantee {
                lower,
                upper,
                additive,
            },
            flips_used,
            flip_budget,
            copies,
            health,
        })
    }
}

impl fmt::Display for Estimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} in {} (eps {}, flips {}/{}, {})",
            self.value,
            self.guarantee,
            self.epsilon,
            self.flips_used,
            self.flip_budget,
            self.health
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_budget_round_trips_the_sentinel() {
        assert_eq!(FlipBudget::from_raw(usize::MAX), FlipBudget::Unbounded);
        assert_eq!(FlipBudget::from_raw(7), FlipBudget::Bounded(7));
        assert_eq!(FlipBudget::Unbounded.as_raw(), usize::MAX);
        assert_eq!(FlipBudget::Bounded(7).as_raw(), 7);
    }

    #[test]
    fn flip_budget_displays_infinity_not_the_sentinel() {
        assert_eq!(FlipBudget::Unbounded.to_string(), "∞");
        assert_eq!(FlipBudget::Bounded(42).to_string(), "42");
        assert!(!FlipBudget::Unbounded
            .to_string()
            .contains("18446744073709551615"));
    }

    #[test]
    fn exhaustion_is_strictly_past_the_budget() {
        assert!(!FlipBudget::Bounded(3).is_exhausted_by(3));
        assert!(FlipBudget::Bounded(3).is_exhausted_by(4));
        assert!(!FlipBudget::Unbounded.is_exhausted_by(usize::MAX));
    }

    #[test]
    fn multiplicative_guarantee_brackets_the_value() {
        let g = Guarantee::multiplicative(100.0, 0.25);
        assert!((g.lower - 80.0).abs() < 1e-9);
        assert!((g.upper - 100.0 / 0.75).abs() < 1e-9);
        assert!(g.contains(100.0));
        assert!(g.contains(80.0) && g.contains(133.33));
        assert!(!g.contains(79.9) && !g.contains(133.4));
        assert!(!g.additive);
    }

    #[test]
    fn multiplicative_guarantee_contains_every_consistent_truth() {
        // For any truth t with |v - t| <= eps*t, the interval built from v
        // must contain t — including the extreme published values at both
        // window edges.
        let (truth, eps) = (100.0, 0.25);
        for v in [truth * (1.0 - eps), truth, truth * (1.0 + eps)] {
            let g = Guarantee::multiplicative(v, eps);
            assert!(g.contains(truth), "v = {v}: {g} does not contain {truth}");
        }
    }

    #[test]
    fn additive_guarantee_is_symmetric() {
        let g = Guarantee::additive(3.0, 0.5);
        assert_eq!(g.lower, 2.5);
        assert_eq!(g.upper, 3.5);
        assert!((g.radius() - 0.5).abs() < 1e-12);
        assert!(g.additive);
    }

    #[test]
    fn estimate_derives_health_from_the_budget() {
        let ok = Estimate::new(10.0, 0.1, false, 5, FlipBudget::Bounded(10), 3);
        assert_eq!(ok.health, Health::WithinGuarantee);
        assert!(ok.health.is_trustworthy());
        assert_eq!(ok.flips_remaining(), Some(5));

        let exhausted = Estimate::new(10.0, 0.1, false, 11, FlipBudget::Bounded(10), 3);
        assert_eq!(exhausted.health, Health::BudgetExhausted);
        assert!(!exhausted.health.is_trustworthy());
        assert_eq!(exhausted.flips_remaining(), Some(0));

        let crypto = Estimate::new(10.0, 0.1, false, 0, FlipBudget::Unbounded, 1);
        assert_eq!(crypto.health, Health::WithinGuarantee);
        assert_eq!(crypto.flips_remaining(), None);
    }

    #[test]
    fn json_round_trips_every_field_exactly() {
        let readings = [
            Estimate::new(250.125, 0.1, false, 3, FlipBudget::Bounded(100), 2),
            // Additive (entropy) reading with a budget-exhausted verdict.
            Estimate::new(1.75, 0.3, true, 11, FlipBudget::Bounded(10), 4),
            // The crypto route: unbounded budget must serialize as a name,
            // not the usize::MAX sentinel.
            Estimate::new(0.1 + 0.2, 0.05, false, 0, FlipBudget::Unbounded, 1),
        ];
        for reading in readings {
            let json = reading.to_json();
            assert!(!json.contains("18446744073709551615"), "{json}");
            let parsed = Estimate::try_from_json(&json).expect("own output parses");
            assert_eq!(parsed, reading, "round trip diverged on {json}");
        }
        // PromiseViolated survives too (constructed by sessions, not by
        // Estimate::new).
        let mut flagged = Estimate::new(5.0, 0.2, false, 1, FlipBudget::Bounded(9), 1);
        flagged.health = Health::PromiseViolated;
        assert_eq!(Estimate::try_from_json(&flagged.to_json()), Ok(flagged));
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        assert!(Estimate::try_from_json("").is_err());
        assert!(Estimate::try_from_json("{\"value\":1.0}").is_err());
        let good = Estimate::new(1.0, 0.1, false, 0, FlipBudget::Bounded(5), 1).to_json();
        let bad_health = good.replace("within-guarantee", "fine-probably");
        assert!(Estimate::try_from_json(&bad_health).is_err());
        assert_eq!(
            Health::parse("within-guarantee"),
            Some(Health::WithinGuarantee)
        );
        assert_eq!(Health::parse("nonsense"), None);
    }

    #[test]
    fn try_from_json_names_the_reason() {
        match Estimate::try_from_json("not json at all") {
            Err(ArsError::Wire { reason }) => assert!(reason.contains("reading"), "{reason}"),
            other => panic!("expected Wire, got {other:?}"),
        }
        match Estimate::try_from_json("{\"value\":1.0}") {
            Err(ArsError::Wire { reason }) => {
                assert!(reason.contains("epsilon"), "{reason}");
            }
            other => panic!("expected Wire, got {other:?}"),
        }
        let good = Estimate::new(1.0, 0.1, false, 0, FlipBudget::Bounded(5), 1).to_json();
        match Estimate::try_from_json(&good.replace("within-guarantee", "meh")) {
            Err(ArsError::Wire { reason }) => assert!(reason.contains("health"), "{reason}"),
            other => panic!("expected Wire, got {other:?}"),
        }
        // Embedded readings still parse from their start offset (trailing
        // content tolerated), as the manager's wire surface relies on.
        let embedded = format!("{good}]}} trailing");
        assert_eq!(
            Estimate::try_from_json(&embedded).unwrap(),
            Estimate::try_from_json(&good).unwrap()
        );
    }

    #[test]
    fn display_is_informative() {
        let reading = Estimate::new(250.0, 0.1, false, 3, FlipBudget::Bounded(100), 2);
        let text = reading.to_string();
        assert!(text.contains("250.0000"));
        assert!(text.contains("3/100"));
        assert!(text.contains("within-guarantee"));
    }
}
