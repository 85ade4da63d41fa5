//! [`StreamSession`]: a model-enforcing ingestion driver around any robust
//! estimator.
//!
//! Every theorem in the paper is conditional on a stream *promise* —
//! insertion-only for Sections 4–7, a bounded flip number for turnstile
//! streams (Theorem 4.3), the α-bounded-deletion invariant for Section 8.
//! Kaplan et al. 2021 (arXiv:2101.10836) shows these promises are not
//! pedantry: separations are real once the stream leaves the promised
//! class. Before this module, nothing enforced the promise at ingestion —
//! [`ars_stream::StreamValidator`] existed but had to be wired up by hand,
//! and the estimators silently ingested whatever they were fed.
//!
//! A [`StreamSession`] owns a validator and a boxed
//! [`RobustEstimator`]; every update is checked against the declared
//! [`StreamModel`] *before* it reaches the sketch. A violating update is
//! refused with [`ArsError::Stream`] (the sketch never sees it), the
//! violation is recorded, and every subsequent [`StreamSession::query`]
//! reading reports [`Health::PromiseViolated`] — the guarantee's premise is
//! void and the session says so, instead of returning a bare float that
//! looks as trustworthy as any other.
//!
//! ```
//! use ars_core::{ArsError, Health, RobustBuilder, StreamSession};
//! use ars_stream::{StreamModel, Update};
//!
//! let mut session = StreamSession::new(
//!     StreamModel::InsertionOnly,
//!     Box::new(RobustBuilder::new(0.2).stream_length(1_000).f0()?),
//! );
//! for i in 0..100u64 {
//!     session.update(Update::insert(i)).unwrap();
//! }
//! // A deletion violates the insertion-only promise: typed error, the
//! // sketch is untouched, and the reading is flagged.
//! assert!(matches!(
//!     session.update(Update::delete(1)),
//!     Err(ArsError::Stream(_))
//! ));
//! assert_eq!(session.query().health, Health::PromiseViolated);
//! # Ok::<(), ArsError>(())
//! ```

use ars_stream::{
    FrequencyVector, StreamError, StreamModel, StreamValidator, Update, ValidationTier,
};

use crate::api::RobustEstimator;
use crate::error::ArsError;
use crate::estimate::{Estimate, Health};

/// A model-enforcing ingestion session: one declared [`StreamModel`], one
/// robust estimator, every update validated before it is ingested.
///
/// The session exposes the engine's batched hot path
/// ([`StreamSession::update_batch`]): the whole batch is validated against
/// the evolving exact state first, then handed to
/// [`ars_sketch::Estimator::update_batch`] in one amortized pass.
///
/// # Memory and validation tiers
///
/// The session picks the cheapest [`ValidationTier`] its declared model
/// admits: insertion-only and unbounded-turnstile sessions validate
/// *statelessly* (`O(1)` validator memory — a sign check and a length
/// counter), while α-bounded-deletion and magnitude-bounded sessions carry
/// the exact signed/absolute frequency vectors the invariant is stated
/// over, with the running `F_p` moments maintained incrementally in `O(1)`
/// per update. [`StreamSession::space_bytes`] reports the estimator's
/// sketch *plus* the validator state, so the end-to-end space story
/// includes enforcement; [`StreamSession::validator_bytes`] breaks the
/// validator share out. Drivers that score against ground truth (or want
/// [`StreamSession::frequency`] on a stateless model) opt back into exact
/// state with [`StreamSession::with_exact_state`].
pub struct StreamSession {
    validator: StreamValidator,
    estimator: Box<dyn RobustEstimator>,
    /// First recorded model violation; sticky — once the promise is broken
    /// the guarantee's premise is void for the rest of the session.
    violation: Option<StreamError>,
    rejected: usize,
    dropped: usize,
}

impl StreamSession {
    /// Opens a session enforcing `model` over `estimator`, with no
    /// magnitude or length bounds, on the cheapest validation tier the
    /// model admits.
    ///
    /// ```
    /// use ars_core::{ArsError, Health, RobustBuilder, StreamSession};
    /// use ars_stream::{StreamModel, ValidationTier};
    ///
    /// let mut session = StreamSession::new(
    ///     StreamModel::InsertionOnly,
    ///     Box::new(RobustBuilder::new(0.25).stream_length(1_000).domain(1 << 10).f0()?),
    /// );
    /// // Insertion-only admits the O(1) stateless fast path.
    /// assert_eq!(session.validator_tier(), ValidationTier::Stateless);
    /// for i in 0..200u64 {
    ///     session.insert(i).unwrap();
    /// }
    /// let reading = session.query();
    /// assert!((reading.value - 200.0).abs() <= 0.25 * 200.0);
    /// assert_eq!(reading.health, Health::WithinGuarantee);
    /// # Ok::<(), ArsError>(())
    /// ```
    #[must_use]
    pub fn new(model: StreamModel, estimator: Box<dyn RobustEstimator>) -> Self {
        Self {
            validator: StreamValidator::new(model),
            estimator,
            violation: None,
            rejected: 0,
            dropped: 0,
        }
    }

    /// Additionally enforces `‖f‖_∞ ≤ bound` at every point of the stream
    /// (upgrades a stateless validator to the incremental tier — the bound
    /// is a statement about the exact vector).
    #[must_use]
    pub fn with_magnitude_bound(mut self, bound: u64) -> Self {
        self.validator = self.validator.with_magnitude_bound(bound);
        self
    }

    /// Additionally enforces a maximum stream length `m`.
    #[must_use]
    pub fn with_max_length(mut self, m: u64) -> Self {
        self.validator = self.validator.with_max_length(m);
        self
    }

    /// Upgrades the session's validator to keep the exact frequency
    /// vectors even where the model admits a stateless check, so
    /// [`StreamSession::frequency`] is available for scoring and
    /// re-provisioning replay. Must be called before ingestion begins.
    #[must_use]
    pub fn with_exact_state(mut self) -> Self {
        self.validator = self.validator.with_exact_state();
        self
    }

    /// Overrides the validation tier — chiefly to pin
    /// [`ValidationTier::Reference`], the clone-and-recompute oracle, for
    /// conformance tests and the exact-vs-tiered benchmark leg.
    #[must_use]
    pub fn with_validator_tier(mut self, tier: ValidationTier) -> Self {
        self.validator = self.validator.with_tier(tier);
        self
    }

    /// The stream model this session enforces.
    #[must_use]
    pub fn model(&self) -> StreamModel {
        self.validator.model()
    }

    /// The tier the session's validator enforces the model with.
    #[must_use]
    pub fn validator_tier(&self) -> ValidationTier {
        self.validator.tier()
    }

    /// Memory held by the validator: `O(1)` on the stateless tier,
    /// `O(distinct)` where the model needs the exact vectors.
    #[must_use]
    pub fn validator_bytes(&self) -> usize {
        self.validator.state_bytes()
    }

    /// End-to-end memory of the session: the estimator's sketch state plus
    /// the validator state enforcing the model over it.
    #[must_use]
    pub fn space_bytes(&self) -> usize {
        self.estimator.space_bytes() + self.validator.state_bytes()
    }

    /// Validates and ingests one update. On a model violation the update
    /// never reaches the estimator; the violation is recorded and returned
    /// as [`ArsError::Stream`].
    pub fn update(&mut self, update: Update) -> Result<(), ArsError> {
        match self.validator.apply(update) {
            Ok(()) => {
                self.estimator.update(update);
                Ok(())
            }
            Err(err) => {
                self.record(&err);
                Err(ArsError::Stream(err))
            }
        }
    }

    /// Validates and ingests a unit insertion.
    pub fn insert(&mut self, item: u64) -> Result<(), ArsError> {
        self.update(Update::insert(item))
    }

    /// Validates a whole batch against the evolving exact state, then
    /// ingests the admissible prefix through the estimator's amortized
    /// batched hot path.
    ///
    /// Returns the number of updates ingested. On a violation at position
    /// `i`, the valid prefix `updates[..i]` *is* ingested (one batch), the
    /// violation is recorded, and [`ArsError::Stream`] is returned — the
    /// offending update and everything after it never reach the sketch.
    /// The refused update counts towards [`StreamSession::rejected`]; the
    /// unexamined suffix after it counts towards
    /// [`StreamSession::dropped`], so every submitted update is accounted
    /// for as ingested, rejected or dropped.
    ///
    /// The error names the offending update but not its index; recover the
    /// ingested count as the change in [`StreamSession::len`] across the
    /// call. Do **not** re-submit the same batch after an error — its
    /// accepted prefix is already in the sketch. The refused update sits at
    /// `updates[ingested]`, so to drop the violation and continue, resume
    /// from `updates[ingested + 1..]`:
    ///
    /// ```
    /// use ars_core::{ArsError, RobustBuilder, StreamSession};
    /// use ars_stream::{StreamModel, Update};
    ///
    /// let mut session = StreamSession::new(
    ///     StreamModel::InsertionOnly,
    ///     Box::new(RobustBuilder::new(0.2).stream_length(1_000).f0()?),
    /// );
    /// // 10 valid insertions, one violating deletion, 5 more insertions.
    /// let mut batch: Vec<Update> = (0..10u64).map(Update::insert).collect();
    /// batch.push(Update::delete(3));
    /// batch.extend((10..15u64).map(Update::insert));
    ///
    /// let before = session.len();
    /// assert!(matches!(
    ///     session.update_batch(&batch),
    ///     Err(ArsError::Stream(_))
    /// ));
    /// // The valid prefix was ingested; the refused update and the
    /// // dropped suffix are both accounted for.
    /// let ingested = (session.len() - before) as usize;
    /// assert_eq!(ingested, 10);
    /// assert_eq!(session.rejected(), 1);
    /// assert_eq!(session.dropped(), batch.len() - ingested - 1); // = 5
    /// // Resume past the refused update at batch[ingested]:
    /// assert_eq!(session.update_batch(&batch[ingested + 1..]).unwrap(), 5);
    /// assert_eq!(session.len(), 15);
    /// # Ok::<(), ArsError>(())
    /// ```
    pub fn update_batch(&mut self, updates: &[Update]) -> Result<usize, ArsError> {
        for (i, &u) in updates.iter().enumerate() {
            if let Err(err) = self.validator.apply(u) {
                self.estimator.update_batch(&updates[..i]);
                self.record(&err);
                self.dropped += updates.len() - i - 1;
                return Err(ArsError::Stream(err));
            }
        }
        self.estimator.update_batch(updates);
        Ok(updates.len())
    }

    /// The current typed reading. Identical to the estimator's own
    /// [`RobustEstimator::query`], except that the health is downgraded to
    /// [`Health::PromiseViolated`] once the stream has left its declared
    /// model — a violated promise voids the guarantee regardless of the
    /// flip accounting.
    #[must_use]
    pub fn query(&self) -> Estimate {
        let mut reading = self.estimator.query();
        if self.violation.is_some() {
            reading.health = Health::PromiseViolated;
        }
        reading
    }

    /// The bare published value — [`StreamSession::query`]`.value`.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        self.query().value
    }

    /// The first recorded model violation, if any.
    #[must_use]
    pub fn violation(&self) -> Option<&StreamError> {
        self.violation.as_ref()
    }

    /// Number of updates refused by the validator so far.
    #[must_use]
    pub fn rejected(&self) -> usize {
        self.rejected
    }

    /// Number of batch-suffix updates never examined because an earlier
    /// update in their batch was refused (see
    /// [`StreamSession::update_batch`]).
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Number of updates accepted and ingested so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.validator.len()
    }

    /// Whether no updates have been accepted yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.validator.is_empty()
    }

    /// The exact signed frequency vector of the accepted prefix, when the
    /// validation tier keeps one — `None` on the stateless fast path (opt
    /// in with [`StreamSession::with_exact_state`]).
    #[must_use]
    pub fn frequency(&self) -> Option<&FrequencyVector> {
        self.validator.frequency()
    }

    /// Read access to the estimator behind the session.
    #[must_use]
    pub fn estimator(&self) -> &dyn RobustEstimator {
        self.estimator.as_ref()
    }

    /// Mutable access to the estimator — the restore seam: after replaying
    /// a snapshot's exact state, [`crate::manager::SessionManager`] pushes
    /// the captured publication accounting back into the estimator so
    /// restored readings match the snapshot bitwise. Crate-private: the
    /// public mutation surface stays the validated ingestion path.
    pub(crate) fn estimator_mut(&mut self) -> &mut dyn RobustEstimator {
        self.estimator.as_mut()
    }

    /// Swaps in a replacement estimator, returning the old one. The
    /// validator state, violation record and rejection accounting are
    /// untouched: the stream's history (and its promise status) belongs to
    /// the session, not to the estimator. This is the re-provisioning seam
    /// used by [`crate::manager::SessionManager`] — build a fresh estimator
    /// with a larger budget, replay the exact state into it, swap.
    pub fn replace_estimator(
        &mut self,
        estimator: Box<dyn RobustEstimator>,
    ) -> Box<dyn RobustEstimator> {
        std::mem::replace(&mut self.estimator, estimator)
    }

    /// Consumes the session, returning the estimator.
    #[must_use]
    pub fn into_estimator(self) -> Box<dyn RobustEstimator> {
        self.estimator
    }

    fn record(&mut self, err: &StreamError) {
        self.rejected += 1;
        if self.violation.is_none() {
            self.violation = Some(err.clone());
        }
    }
}

impl std::fmt::Debug for StreamSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSession")
            .field("model", &self.model())
            .field("tier", &self.validator_tier())
            .field("strategy", &self.estimator.strategy_name())
            .field("accepted", &self.len())
            .field("rejected", &self.rejected)
            .field("dropped", &self.dropped)
            .field("violation", &self.violation)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::RobustBuilder;

    fn f0_session() -> StreamSession {
        StreamSession::new(
            StreamModel::InsertionOnly,
            Box::new(
                RobustBuilder::new(0.2)
                    .stream_length(10_000)
                    .domain(1 << 12)
                    .seed(5)
                    .f0()
                    .unwrap(),
            ),
        )
    }

    #[test]
    fn accepts_model_conforming_streams_and_tracks() {
        let mut session = f0_session().with_exact_state();
        for i in 0..2_000u64 {
            session.update(Update::insert(i % 500)).unwrap();
        }
        assert_eq!(session.len(), 2_000);
        assert_eq!(session.rejected(), 0);
        let reading = session.query();
        assert_eq!(reading.health, Health::WithinGuarantee);
        assert!(
            (reading.value - 500.0).abs() <= 0.25 * 500.0,
            "reading {reading}"
        );
        assert!(reading
            .guarantee
            .contains(session.frequency().unwrap().f0() as f64));
    }

    #[test]
    fn insertion_only_sessions_default_to_the_stateless_tier() {
        let mut session = f0_session();
        assert_eq!(session.validator_tier(), ValidationTier::Stateless);
        assert!(session.frequency().is_none());
        let fixed = session.validator_bytes();
        for i in 0..5_000u64 {
            session.insert(i).unwrap();
        }
        assert_eq!(
            session.validator_bytes(),
            fixed,
            "stateless session validator memory must stay O(1)"
        );
        // Model enforcement is intact on the fast path.
        assert!(matches!(
            session.update(Update::delete(1)),
            Err(ArsError::Stream(StreamError::NonPositiveInsertion { .. }))
        ));
        // End-to-end space = sketch + validator.
        assert_eq!(
            session.space_bytes(),
            session.estimator().space_bytes() + session.validator_bytes()
        );
    }

    #[test]
    fn rejects_deletions_on_insertion_only_sessions() {
        let mut session = f0_session().with_exact_state();
        session.insert(1).unwrap();
        let before = session.estimate();
        let err = session.update(Update::delete(1));
        assert!(matches!(err, Err(ArsError::Stream(_))));
        // The sketch never saw the offending update and the exact state is
        // unchanged.
        assert_eq!(session.len(), 1);
        assert_eq!(session.rejected(), 1);
        assert_eq!(session.estimate(), before);
        assert_eq!(session.frequency().unwrap().get(1), 1);
        // The reading is flagged, permanently.
        assert_eq!(session.query().health, Health::PromiseViolated);
        session.insert(2).unwrap();
        assert_eq!(session.query().health, Health::PromiseViolated);
        assert!(session.violation().is_some());
    }

    #[test]
    fn batch_ingestion_stops_at_the_first_violation() {
        let mut session = f0_session().with_exact_state();
        let batch: Vec<Update> = (0..10u64)
            .map(Update::insert)
            .chain(std::iter::once(Update::delete(3)))
            .chain((10..20u64).map(Update::insert))
            .collect();
        let before = session.len();
        let err = session.update_batch(&batch);
        assert!(matches!(err, Err(ArsError::Stream(_))));
        // Exactly the valid prefix was ingested, and every submitted
        // update is accounted for: ingested + rejected + dropped.
        let ingested = (session.len() - before) as usize;
        assert_eq!(ingested, 10);
        assert_eq!(session.rejected(), 1);
        assert_eq!(session.dropped(), batch.len() - ingested - 1);
        assert_eq!(session.frequency().unwrap().f0(), 10);
        assert_eq!(session.query().health, Health::PromiseViolated);
        assert_eq!(
            session.update_batch(&batch[ingested + 1..]).unwrap(),
            batch.len() - ingested - 1
        );
        assert_eq!(session.frequency().unwrap().f0(), 20);
        // The resumed suffix was examined (and accepted), so the dropped
        // count did not move.
        assert_eq!(session.dropped(), 10);
    }

    #[test]
    fn batch_ingestion_matches_the_estimator_hot_path() {
        let mut session = f0_session();
        let batch: Vec<Update> = (0..1_024u64).map(|i| Update::insert(i % 200)).collect();
        assert_eq!(session.update_batch(&batch).unwrap(), 1_024);
        let reading = session.query();
        assert!(
            (reading.value - 200.0).abs() <= 0.25 * 200.0,
            "reading {reading}"
        );
    }

    #[test]
    fn turnstile_sessions_enforce_magnitude_bounds() {
        let estimator = RobustBuilder::new(0.25)
            .stream_length(1_000)
            .domain(1 << 8)
            .max_frequency(4)
            .turnstile_fp(2.0, 50)
            .unwrap();
        let mut session =
            StreamSession::new(StreamModel::Turnstile, Box::new(estimator)).with_magnitude_bound(4);
        // The magnitude bound needs the exact vector: the tier upgrades.
        assert_eq!(session.validator_tier(), ValidationTier::Incremental);
        for _ in 0..4 {
            session.update(Update::insert(9)).unwrap();
        }
        assert!(matches!(
            session.update(Update::insert(9)),
            Err(ArsError::Stream(StreamError::MagnitudeBoundExceeded { .. }))
        ));
        assert!(session.update(Update::delete(9)).is_ok());
    }

    #[test]
    fn max_length_is_enforced() {
        let mut session = f0_session().with_max_length(3);
        for i in 0..3u64 {
            session.insert(i).unwrap();
        }
        assert!(matches!(
            session.insert(3),
            Err(ArsError::Stream(StreamError::LengthExceeded { .. }))
        ));
    }

    #[test]
    fn session_estimate_is_the_reading_value() {
        let mut session = f0_session();
        for i in 0..300u64 {
            session.insert(i).unwrap();
        }
        assert_eq!(session.estimate(), session.query().value);
        assert_eq!(session.estimate(), session.estimator().estimate());
    }

    #[test]
    fn replace_estimator_keeps_the_stream_history() {
        let mut session = f0_session().with_exact_state();
        for i in 0..500u64 {
            session.insert(i).unwrap();
        }
        assert!(session.update(Update::delete(1)).is_err());
        let fresh = RobustBuilder::new(0.2)
            .stream_length(10_000)
            .domain(1 << 12)
            .seed(99)
            .f0()
            .unwrap();
        let old = session.replace_estimator(Box::new(fresh));
        assert!(old.estimate() > 0.0);
        // History survives the swap: length, exact state, violation flag.
        assert_eq!(session.len(), 500);
        assert_eq!(session.frequency().unwrap().f0(), 500);
        assert_eq!(session.query().health, Health::PromiseViolated);
    }
}
