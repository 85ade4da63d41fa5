//! The two-player adversarial streaming game.
//!
//! The runner wires an [`Adversary`] against any estimator, exactly as in
//! the game of Section 1: each round the adversary picks an update (seeing
//! every previous published output), the estimator processes it and
//! publishes its new output, and an exact oracle scores that output. The
//! outcome records whether — and when — the adversary forced an incorrect
//! response.

use ars_core::{Estimate, StreamSession};
use ars_sketch::Estimator;
use ars_stream::exact::Query;
use ars_stream::{StreamModel, StreamValidator, TrackingOracle, Update};

/// An adaptive adversary: chooses the next stream update given the
/// algorithm's most recent published response.
///
/// Implementations keep whatever history they need internally; the runner
/// guarantees `next_update` is called exactly once per round and that
/// `observe` is called with the response produced after that update.
pub trait Adversary {
    /// Chooses the update for the current round. `last_response` is the
    /// algorithm's output after the previous round (`0.0` in the first
    /// round, matching `g(f^{(0)}) = 0` for the paper's queries).
    fn next_update(&mut self, last_response: f64) -> Update;

    /// A short name for reports.
    fn name(&self) -> String {
        "adversary".to_string()
    }
}

/// Configuration of one adversarial game.
#[derive(Debug, Clone, Copy)]
pub struct GameConfig {
    /// Number of rounds (stream length `m`).
    pub rounds: usize,
    /// The correctness requirement: relative error at most ε
    /// (or additive error for [`GameConfig::additive`] scoring).
    pub epsilon: f64,
    /// The query being tracked, used for exact scoring.
    pub query: Query,
    /// Score additively (entropy) instead of multiplicatively (moments).
    pub additive: bool,
    /// Rounds at the beginning of the game that are not scored (small
    /// prefixes are noisy for every sketch and the paper's guarantees are
    /// asymptotic in the tracked value).
    pub warmup: usize,
}

impl GameConfig {
    /// A multiplicative-error game for the given query.
    #[must_use]
    pub fn relative(query: Query, epsilon: f64, rounds: usize) -> Self {
        Self {
            rounds,
            epsilon,
            query,
            additive: false,
            warmup: 0,
        }
    }

    /// Sets the number of unscored warm-up rounds.
    #[must_use]
    pub fn with_warmup(mut self, warmup: usize) -> Self {
        self.warmup = warmup;
        self
    }

    /// Switches to additive-error scoring.
    #[must_use]
    pub fn additive_scoring(mut self) -> Self {
        self.additive = true;
        self
    }
}

/// The result of one adversarial game.
#[derive(Debug, Clone)]
pub struct GameOutcome {
    /// Rounds actually played (always `config.rounds` unless the adversary
    /// emitted an update violating the stream model).
    pub rounds_played: usize,
    /// The first scored round (1-based) at which the response violated the
    /// ε requirement, if any.
    pub first_violation: Option<usize>,
    /// Total number of scored rounds in violation.
    pub violations: usize,
    /// The largest scored error (relative or additive per the config).
    pub max_error: f64,
    /// The algorithm's published responses, one per round.
    pub responses: Vec<f64>,
    /// The exact values, one per round.
    pub truth: Vec<f64>,
    /// Set when the adversary proposed an update outside the stream model;
    /// the game stops at that point and the update is not applied.
    pub model_violation: Option<String>,
    /// The estimator's typed reading at the end of a session-driven game
    /// ([`GameRunner::run_session`]): guarantee interval, flips spent, and
    /// the health verdict. `None` for bare-estimator games, which have no
    /// typed read surface.
    pub final_reading: Option<Estimate>,
}

impl GameOutcome {
    /// Whether the adversary succeeded in fooling the algorithm at least
    /// once within the scored rounds.
    #[must_use]
    pub fn adversary_won(&self) -> bool {
        self.first_violation.is_some()
    }

    /// Fraction of scored rounds on which the response was correct.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        let scored = self.responses.len().saturating_sub(self.violations);
        if self.responses.is_empty() {
            1.0
        } else {
            scored as f64 / self.responses.len() as f64
        }
    }
}

/// Runs adversarial games under a fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct GameRunner {
    config: GameConfig,
}

impl GameRunner {
    /// Creates a runner.
    #[must_use]
    pub fn new(config: GameConfig) -> Self {
        Self { config }
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> GameConfig {
        self.config
    }

    /// Plays the game between `estimator` and `adversary`. The adversary
    /// must keep the stream insertion-only; its first update outside that
    /// model stops the game unapplied (see [`GameOutcome::model_violation`]).
    pub fn run<E, A>(&self, estimator: &mut E, adversary: &mut A) -> GameOutcome
    where
        E: Estimator + ?Sized,
        A: Adversary + ?Sized,
    {
        let mut validator = StreamValidator::new(StreamModel::InsertionOnly);
        self.play(adversary, |update| {
            validator.apply(update).map_err(|err| err.to_string())?;
            estimator.update(update);
            Ok(estimator.estimate())
        })
    }

    /// The one scoring loop behind both game flavours: each round, the
    /// adversary picks an update, `ingest` validates + applies it and
    /// returns the published response (or a model-violation message, which
    /// stops the game with the update unapplied and unscored), and the
    /// exact oracle scores the response against the configured ε.
    fn play<A>(
        &self,
        adversary: &mut A,
        mut ingest: impl FnMut(Update) -> Result<f64, String>,
    ) -> GameOutcome
    where
        A: Adversary + ?Sized,
    {
        let mut oracle = TrackingOracle::new(self.config.query);
        let mut responses = Vec::with_capacity(self.config.rounds);
        let mut first_violation = None;
        let mut violations = 0usize;
        let mut max_error: f64 = 0.0;
        let mut model_violation = None;
        let mut last_response = 0.0;

        for round in 1..=self.config.rounds {
            let update = adversary.next_update(last_response);
            let response = match ingest(update) {
                Ok(response) => response,
                Err(err) => {
                    model_violation = Some(err);
                    break;
                }
            };
            let truth = oracle.update(update);
            responses.push(response);
            last_response = response;

            if round <= self.config.warmup {
                continue;
            }
            let (error, violated) = if self.config.additive {
                let e = (response - truth).abs();
                (e, e > self.config.epsilon)
            } else if truth == 0.0 {
                (response.abs(), false)
            } else {
                let e = ((response - truth) / truth).abs();
                (e, e > self.config.epsilon)
            };
            max_error = max_error.max(error);
            if violated {
                violations += 1;
                if first_violation.is_none() {
                    first_violation = Some(round);
                }
            }
        }

        GameOutcome {
            rounds_played: responses.len(),
            first_violation,
            violations,
            max_error,
            responses,
            truth: oracle.history().to_vec(),
            model_violation,
            final_reading: None,
        }
    }

    /// Plays the game against a [`StreamSession`]: the *session's* declared
    /// model is enforced at ingestion (the session owns its promise, where
    /// [`GameRunner::run`] holds the adversary to insertion-only),
    /// responses are read as typed [`Estimate`]s, and the outcome carries
    /// the final reading so drivers can report guarantee intervals, flips
    /// spent and the health verdict instead of bare floats.
    ///
    /// An adversary that steps outside the session's model has its update
    /// refused — the sketch never sees it — and the game stops there with
    /// [`GameOutcome::model_violation`] set, exactly as in
    /// [`GameRunner::run`].
    pub fn run_session<A>(&self, session: &mut StreamSession, adversary: &mut A) -> GameOutcome
    where
        A: Adversary + ?Sized,
    {
        let mut outcome = self.play(adversary, |update| {
            session.update(update).map_err(|err| err.to_string())?;
            Ok(session.query().value)
        });
        outcome.final_reading = Some(session.query());
        outcome
    }
}

/// A non-adaptive adversary replaying a fixed stream, used as a baseline
/// (it can never exploit the algorithm's responses).
#[derive(Debug, Clone)]
pub struct ReplayAdversary {
    updates: Vec<Update>,
    position: usize,
}

impl ReplayAdversary {
    /// Creates a replay adversary for a fixed stream. If the game runs
    /// longer than the stream, the last item is repeated.
    #[must_use]
    pub fn new(updates: Vec<Update>) -> Self {
        assert!(!updates.is_empty(), "replay stream must be non-empty");
        Self {
            updates,
            position: 0,
        }
    }
}

impl Adversary for ReplayAdversary {
    fn next_update(&mut self, _last_response: f64) -> Update {
        let update = self.updates[self.position.min(self.updates.len() - 1)];
        self.position += 1;
        update
    }

    fn name(&self) -> String {
        "replay".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_sketch::kmv::{KmvConfig, KmvSketch};
    use ars_stream::generator::{Generator, UniformGenerator};

    /// A perfect estimator used to validate the scoring machinery.
    struct ExactF0 {
        seen: std::collections::HashSet<u64>,
    }

    impl Estimator for ExactF0 {
        fn update(&mut self, update: Update) {
            if update.delta > 0 {
                self.seen.insert(update.item);
            }
        }
        fn estimate(&self) -> f64 {
            self.seen.len() as f64
        }
        fn space_bytes(&self) -> usize {
            self.seen.len() * 8
        }
    }

    #[test]
    fn exact_estimator_never_loses() {
        let updates = UniformGenerator::new(1000, 3).take_updates(2000);
        let mut adversary = ReplayAdversary::new(updates);
        let mut estimator = ExactF0 {
            seen: std::collections::HashSet::new(),
        };
        let config = GameConfig::relative(Query::F0, 0.01, 2000);
        let outcome = GameRunner::new(config).run(&mut estimator, &mut adversary);
        assert!(!outcome.adversary_won());
        assert_eq!(outcome.violations, 0);
        assert_eq!(outcome.rounds_played, 2000);
        assert_eq!(outcome.success_rate(), 1.0);
        assert!(outcome.max_error < 1e-12);
    }

    #[test]
    fn kmv_survives_a_replay_adversary() {
        // A non-adaptive stream is exactly the static setting, where the
        // sketch's guarantee holds (with warm-up while counts are tiny).
        let updates = UniformGenerator::new(1 << 16, 5).take_updates(20_000);
        let mut adversary = ReplayAdversary::new(updates);
        let mut sketch = KmvSketch::new(KmvConfig::for_accuracy(0.05), 7);
        let config = GameConfig::relative(Query::F0, 0.2, 20_000).with_warmup(500);
        let outcome = GameRunner::new(config).run(&mut sketch, &mut adversary);
        assert!(
            !outcome.adversary_won(),
            "static stream should not fool KMV: first violation {:?}, max error {}",
            outcome.first_violation,
            outcome.max_error
        );
    }

    #[test]
    fn model_violations_stop_the_game() {
        struct DeletingAdversary;
        impl Adversary for DeletingAdversary {
            fn next_update(&mut self, _last: f64) -> Update {
                Update::delete(1)
            }
        }
        let mut estimator = ExactF0 {
            seen: std::collections::HashSet::new(),
        };
        let config = GameConfig::relative(Query::F0, 0.1, 100);
        let outcome = GameRunner::new(config).run(&mut estimator, &mut DeletingAdversary);
        assert_eq!(outcome.rounds_played, 0);
        assert!(outcome.model_violation.is_some());
    }

    #[test]
    fn session_games_carry_typed_readings() {
        use ars_core::{Health, RobustBuilder};
        let mut session = StreamSession::new(
            StreamModel::InsertionOnly,
            Box::new(
                RobustBuilder::new(0.3)
                    .stream_length(4_000)
                    .domain(1 << 10)
                    .seed(3)
                    .f0()
                    .unwrap(),
            ),
        );
        let updates = UniformGenerator::new(1 << 10, 5).take_updates(3_000);
        let mut adversary = ReplayAdversary::new(updates);
        let config = GameConfig::relative(Query::F0, 0.45, 3_000).with_warmup(300);
        let outcome = GameRunner::new(config).run_session(&mut session, &mut adversary);
        assert!(
            !outcome.adversary_won(),
            "replay stream fooled the robust estimator: max error {}",
            outcome.max_error
        );
        let reading = outcome
            .final_reading
            .expect("session games carry a reading");
        assert_eq!(reading.health, Health::WithinGuarantee);
        assert!(reading.flips_used > 0, "a growing F0 must publish changes");
        assert_eq!(reading.value, session.estimate());
    }

    #[test]
    fn session_games_stop_and_flag_model_violations() {
        use ars_core::{Health, RobustBuilder};
        struct DeletingAdversary;
        impl Adversary for DeletingAdversary {
            fn next_update(&mut self, _last: f64) -> Update {
                Update::delete(1)
            }
        }
        let mut session = StreamSession::new(
            StreamModel::InsertionOnly,
            Box::new(RobustBuilder::new(0.3).stream_length(100).f0().unwrap()),
        );
        let config = GameConfig::relative(Query::F0, 0.1, 100);
        let outcome = GameRunner::new(config).run_session(&mut session, &mut DeletingAdversary);
        assert_eq!(outcome.rounds_played, 0);
        assert!(outcome.model_violation.is_some());
        // The reading records that the promise was violated — the refused
        // update never reached the sketch, but the guarantee's premise is
        // void and the session says so.
        let reading = outcome.final_reading.unwrap();
        assert_eq!(reading.health, Health::PromiseViolated);
    }

    #[test]
    fn additive_scoring_uses_absolute_differences() {
        struct ConstantEstimator;
        impl Estimator for ConstantEstimator {
            fn update(&mut self, _u: Update) {}
            fn estimate(&self) -> f64 {
                0.5
            }
            fn space_bytes(&self) -> usize {
                0
            }
        }
        // Truth (entropy of a point mass) is 0; the constant answer 0.5 is
        // within 0.6 additively but violates 0.3.
        let mut adversary = ReplayAdversary::new(vec![Update::insert(1); 10]);
        let loose = GameConfig::relative(Query::ShannonEntropy, 0.6, 10).additive_scoring();
        let outcome = GameRunner::new(loose).run(&mut ConstantEstimator, &mut adversary);
        assert!(!outcome.adversary_won());

        let mut adversary = ReplayAdversary::new(vec![Update::insert(1); 10]);
        let tight = GameConfig::relative(Query::ShannonEntropy, 0.3, 10).additive_scoring();
        let outcome = GameRunner::new(tight).run(&mut ConstantEstimator, &mut adversary);
        assert!(outcome.adversary_won());
        assert_eq!(outcome.first_violation, Some(1));
    }

    #[test]
    fn warmup_rounds_are_not_scored() {
        struct ZeroEstimator;
        impl Estimator for ZeroEstimator {
            fn update(&mut self, _u: Update) {}
            fn estimate(&self) -> f64 {
                0.0
            }
            fn space_bytes(&self) -> usize {
                0
            }
        }
        let mut adversary = ReplayAdversary::new((0..50).map(Update::insert).collect());
        let config = GameConfig::relative(Query::F0, 0.1, 50).with_warmup(50);
        let outcome = GameRunner::new(config).run(&mut ZeroEstimator, &mut adversary);
        assert!(!outcome.adversary_won(), "everything was warm-up");
        let config = GameConfig::relative(Query::F0, 0.1, 50).with_warmup(10);
        let mut adversary = ReplayAdversary::new((0..50).map(Update::insert).collect());
        let outcome = GameRunner::new(config).run(&mut ZeroEstimator, &mut adversary);
        assert_eq!(outcome.first_violation, Some(11));
    }
}
