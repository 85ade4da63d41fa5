//! The object-safe robust-estimator interface.
//!
//! Every robust estimator in this crate — whatever strategy produced it —
//! is usable as a `Box<dyn RobustEstimator>`: the benchmark harness, the
//! adversarial game and the conformance suite all drive estimators through
//! this one trait instead of one hand-written loop per estimator type.

use ars_sketch::Estimator;

use crate::engine::PublicationState;
use crate::estimate::{Estimate, FlipBudget};

/// An adversarially robust streaming estimator.
///
/// Extends [`Estimator`] (update / estimate / space accounting) with the
/// robustness-specific surface: the approximation parameter the guarantee
/// was configured for and flip-number budget accounting. Whether the budget
/// still holds is one verdict, the [`crate::estimate::Health`] of
/// [`RobustEstimator::query`].
///
/// `Send` is a supertrait: estimators are owned data (the engine already
/// stores its strategy cores as `Box<dyn StrategyCore + Send>`), and the
/// serving layer moves whole sessions behind a mutex shared by HTTP
/// worker threads.
///
/// # Batched updates and adaptivity
///
/// The batched update path is [`Estimator::update_batch`], inherited from
/// the supertrait. It defaults to calling [`Estimator::update`] once per
/// element, which preserves per-update semantics exactly. The
/// [`crate::engine::Robustify`] engine overrides it to amortize the
/// ε-rounding / switching check to one per batch: no output is published
/// mid-batch, so an adversary — who by definition only adapts to
/// *published* outputs — gains nothing from the coarser granularity, and
/// the estimate read after the batch still carries the `(1 ± ε)` guarantee.
pub trait RobustEstimator: Estimator + Send {
    /// The current typed reading: the published value plus the guarantee
    /// interval, flip accounting and [`crate::estimate::Health`] verdict.
    ///
    /// [`ars_sketch::Estimator::estimate`] is the thin `query().value`
    /// shim; callers that need to *trust* a reading should take the whole
    /// [`Estimate`]. The default derives a multiplicative reading from the
    /// scalar accessors; [`crate::engine::Robustify`] overrides it with the
    /// plan-aware version (additive guarantees for entropy), and every
    /// strategy inherits that one implementation.
    fn query(&self) -> Estimate {
        Estimate::new(
            self.estimate(),
            self.epsilon(),
            false,
            self.output_changes(),
            FlipBudget::from_raw(self.flip_budget()),
            self.copies(),
        )
    }

    /// The approximation parameter ε this estimator was built for
    /// (multiplicative for moments, additive bits for entropy).
    fn epsilon(&self) -> f64;

    /// Number of times the published output has changed so far.
    fn output_changes(&self) -> usize;

    /// The flip-number budget λ the estimator was provisioned for.
    /// Estimators whose robustness argument needs no flip budget (the
    /// cryptographic route) report `usize::MAX`.
    fn flip_budget(&self) -> usize;

    /// Number of independent static-sketch copies behind this estimator —
    /// the copy axis of the paper's space bounds (λ for plain sketch
    /// switching, `√λ` for DP aggregation, 1 for single-copy strategies).
    /// Drivers report it next to [`ars_sketch::Estimator::space_bytes`] so
    /// strategies can be compared at equal flip budget.
    fn copies(&self) -> usize {
        1
    }

    /// The robustification strategy that produced this estimator, for
    /// reports (e.g. `"sketch-switching"`, `"computation-paths"`).
    fn strategy_name(&self) -> &'static str;

    /// The estimator's publication accounting for snapshot/restore, when
    /// it supports the seam. Engine-backed estimators return it (and
    /// restored readings are bitwise-identical after a frequency replay
    /// plus [`RobustEstimator::restore_publication`]); the default is
    /// `None` for bespoke estimators that keep their own rounding state.
    fn publication_state(&self) -> Option<PublicationState> {
        None
    }

    /// Restores publication accounting captured by
    /// [`RobustEstimator::publication_state`]: the published anchor, the
    /// flip ledger, and the provisioned λ. A no-op by default (estimators
    /// without the seam fall back to replay-derived publication, which is
    /// within-guarantee but not bitwise-stable).
    fn restore_publication(&mut self, state: &PublicationState) {
        let _ = state;
    }
}
