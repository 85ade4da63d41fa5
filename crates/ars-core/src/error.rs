//! Typed errors for the robust-estimation surface: [`ArsError`] and
//! [`BuildError`].
//!
//! The pre-PR-3 surface reported every failure by panicking (builder
//! `assert!`s) or not at all (stream-model violations were only enforced
//! when a caller remembered to wire up a
//! [`ars_stream::StreamValidator`]). A serving API must return typed,
//! recoverable errors instead; this module is that vocabulary:
//!
//! * [`BuildError`] — structured builder/parameter validation (field,
//!   value, allowed range), returned by every problem constructor on
//!   [`crate::builder::RobustBuilder`].
//! * [`ArsError`] — the top-level error: a build failure, a stream-model
//!   violation (wrapping [`ars_stream::StreamError`], raised by
//!   [`crate::session::StreamSession`] at ingestion), a refused rebuild,
//!   an unknown tenant or a malformed wire payload. Flip-budget exhaustion
//!   is not an error: the estimator keeps running, and its readings carry
//!   [`crate::estimate::Health::BudgetExhausted`].

use std::fmt;

use ars_stream::StreamError;

/// Structured builder-validation failure: which field was rejected, the
/// offending value, and the allowed range.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// A numeric parameter fell outside its allowed range.
    OutOfRange {
        /// The parameter name (`"epsilon"`, `"delta"`, `"p"`, …).
        field: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable description of the allowed range, e.g. `"(0,1)"`.
        allowed: &'static str,
    },
    /// The selected [`crate::builder::Strategy`] does not apply to the
    /// requested problem (e.g. the cryptographic route for `F_p`).
    StrategyMismatch {
        /// The problem whose constructor rejected the strategy.
        problem: &'static str,
        /// Why the combination is unsound, in the paper's terms.
        detail: &'static str,
    },
}

impl BuildError {
    /// Convenience constructor for range rejections.
    #[must_use]
    pub fn out_of_range(field: &'static str, value: f64, allowed: &'static str) -> Self {
        Self::OutOfRange {
            field,
            value,
            allowed,
        }
    }
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::OutOfRange {
                field,
                value,
                allowed,
            } => {
                write!(f, "{field} must be in {allowed} (got {value})")
            }
            Self::StrategyMismatch { problem, detail } => write!(f, "{problem}: {detail}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// The top-level error of the robust-estimation surface.
#[derive(Debug, Clone, PartialEq)]
pub enum ArsError {
    /// An update violated the declared stream model (Kaplan et al. 2021
    /// shows what goes wrong when the promise is silently broken; the
    /// [`crate::session::StreamSession`] driver refuses the update and
    /// surfaces this instead).
    Stream(StreamError),
    /// Builder/parameter validation failed.
    Build(BuildError),
    /// A rebuild (re-provisioning) could not proceed: the session's
    /// validation tier keeps no exact state to replay — the stateless fast
    /// path trades exactly this away; open the session with
    /// `with_exact_state()` if re-provisioning matters more than the
    /// `O(1)` validator footprint — or the estimator's flip budget is
    /// unbounded, so there is no λ to double (and nothing to recover
    /// from: an unbounded budget can never exhaust).
    StateUnavailable {
        /// Why the rebuild could not proceed.
        reason: &'static str,
    },
    /// A [`crate::manager::SessionManager`] operation referenced a tenant
    /// name that is not registered.
    UnknownSession {
        /// The name that failed to resolve.
        name: String,
    },
    /// A wire-format payload (a JSON reading, a provisioner spec, a
    /// snapshot, an HTTP body) failed to parse or failed semantic
    /// validation. Carried by [`crate::estimate::Estimate::try_from_json`]
    /// and the snapshot/serving surfaces so a 400 response can name the
    /// reason instead of a bare `None`.
    Wire {
        /// What was malformed, human-readable.
        reason: String,
    },
}

impl fmt::Display for ArsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Stream(err) => write!(f, "stream model violation: {err}"),
            Self::Build(err) => write!(f, "invalid configuration: {err}"),
            Self::StateUnavailable { reason } => {
                write!(f, "cannot rebuild the estimator: {reason}")
            }
            Self::UnknownSession { name } => {
                write!(f, "no session named {name:?} is registered")
            }
            Self::Wire { reason } => write!(f, "malformed wire payload: {reason}"),
        }
    }
}

impl std::error::Error for ArsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Stream(err) => Some(err),
            Self::Build(err) => Some(err),
            Self::StateUnavailable { .. } | Self::UnknownSession { .. } | Self::Wire { .. } => None,
        }
    }
}

impl From<StreamError> for ArsError {
    fn from(err: StreamError) -> Self {
        Self::Stream(err)
    }
}

impl From<BuildError> for ArsError {
    fn from(err: BuildError) -> Self {
        Self::Build(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_stream::Update;

    #[test]
    fn build_error_display_names_field_value_and_range() {
        let err = BuildError::out_of_range("epsilon", 1.5, "(0,1)");
        let text = err.to_string();
        assert!(text.contains("epsilon must be in (0,1)"));
        assert!(text.contains("1.5"));
    }

    #[test]
    fn strategy_mismatch_display_names_the_problem() {
        let err = BuildError::StrategyMismatch {
            problem: "Fp estimation",
            detail: "there is no crypto route for Fp",
        };
        assert!(err.to_string().contains("no crypto route for Fp"));
    }

    #[test]
    fn ars_error_wraps_and_sources() {
        use std::error::Error;
        let stream = ArsError::from(StreamError::NonPositiveInsertion {
            update: Update::delete(3),
        });
        assert!(matches!(stream, ArsError::Stream(_)));
        assert!(stream.source().is_some());
        assert!(stream.to_string().contains("stream model violation"));

        let build = ArsError::from(BuildError::out_of_range("delta", 0.0, "(0,1)"));
        assert!(matches!(build, ArsError::Build(_)));
        assert!(build.to_string().contains("delta must be in (0,1)"));

        let state = ArsError::StateUnavailable {
            reason: "the stateless validation tier keeps no exact state to replay",
        };
        assert!(state.source().is_none());
        assert!(state.to_string().contains("stateless"));
        assert!(state.to_string().contains("no exact state"));

        let unknown = ArsError::UnknownSession {
            name: "edge-7".to_string(),
        };
        assert!(unknown.source().is_none());
        assert!(unknown.to_string().contains("edge-7"));

        let wire = ArsError::Wire {
            reason: "expected ',' or '}' at byte 12".to_string(),
        };
        assert!(wire.source().is_none());
        assert!(wire.to_string().contains("malformed wire payload"));
        assert!(wire.to_string().contains("byte 12"));
    }
}
