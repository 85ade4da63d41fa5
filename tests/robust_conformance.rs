//! Generic conformance suite for the unified robust-estimator API: every
//! entry of `ars_core::registry::standard_registry` is driven through the
//! same `Box<dyn RobustEstimator>` loop and held to the same contract —
//! accuracy on its reference stream, positive space accounting, batched
//! updates consistent with per-update streaming, and builder validation.

use adversarial_robust_streaming::robust::registry::RegistryEntry;
use adversarial_robust_streaming::robust::{
    standard_registry, ArsError, CryptoBackend, DifferenceSchedule, DpAggregationConfig, Estimate,
    FlipBudget, Health, ProblemSpec, ProvisionerSpec, RegistryParams, RobustBuilder,
    RobustEstimator, SketchSwitchConfig, Strategy, StreamSession,
};
use adversarial_robust_streaming::sketch::Estimator;
use adversarial_robust_streaming::stream::generator::Generator;
use adversarial_robust_streaming::stream::{StreamModel, StreamValidator, Update, ValidationTier};

fn params() -> RegistryParams {
    RegistryParams {
        epsilon: 0.25,
        delta: 1e-3,
        stream_length: 6_000,
        domain: 1 << 12,
        seed: 424_242,
    }
}

/// Scores one entry on its reference stream through the shared loop in
/// `ars_bench::score_registry_entry`; `None` exercises the per-update
/// path, `Some(n)` the batched path.
fn score_entry(entry: &mut RegistryEntry, chunk_size: Option<usize>) -> f64 {
    let p = params();
    let updates = entry.reference_stream(&p, p.seed ^ 0xC0FFEE);
    ars_bench::score_registry_entry(entry, &updates, chunk_size.unwrap_or(1))
}

#[test]
fn every_registry_entry_tracks_within_its_error_budget() {
    for mut entry in standard_registry(&params()) {
        let worst = score_entry(&mut entry, None);
        assert!(
            worst <= entry.error_budget,
            "{}: worst error {worst} exceeds budget {}",
            entry.id,
            entry.error_budget
        );
    }
}

#[test]
fn every_registry_entry_reports_positive_space_and_metadata() {
    for mut entry in standard_registry(&params()) {
        entry.estimator.insert(1);
        assert!(entry.estimator.space_bytes() > 0, "{}", entry.id);
        assert!(entry.estimator.epsilon() > 0.0, "{}", entry.id);
        assert!(entry.estimator.flip_budget() >= 1, "{}", entry.id);
        assert!(!entry.estimator.strategy_name().is_empty(), "{}", entry.id);
    }
}

#[test]
fn batched_updates_match_per_update_streaming() {
    // Two identically-seeded copies of each entry stream the same workload,
    // one per update and one in batches of 64. The published values may
    // legally differ — the batched engine exposes its state only at batch
    // boundaries, and a sketch-switching pool that switches mid-batch in
    // the per-update run ends on a different copy — but both must satisfy
    // the same tracking contract, so both final estimates sit inside the
    // entry's error budget of the same truth (hence within twice the
    // budget of each other).
    let per_update = standard_registry(&params());
    let batched = standard_registry(&params());
    for (mut a, mut b) in per_update.into_iter().zip(batched) {
        assert_eq!(a.id, b.id);
        let worst_a = score_entry(&mut a, None);
        let worst_b = score_entry(&mut b, Some(64));
        assert!(
            worst_a <= a.error_budget,
            "{} per-update error {worst_a} exceeds budget {}",
            a.id,
            a.error_budget
        );
        assert!(
            worst_b <= b.error_budget,
            "{} batched error {worst_b} exceeds budget {}",
            b.id,
            b.error_budget
        );
        let (ea, eb) = (a.estimator.estimate(), b.estimator.estimate());
        if a.additive {
            assert!(
                (ea - eb).abs() <= 2.0 * a.error_budget,
                "{}: batched estimate {eb} far from per-update {ea}",
                a.id
            );
        } else if ea > 0.0 {
            assert!(
                (ea - eb).abs() <= 2.0 * a.error_budget * ea.max(eb),
                "{}: batched estimate {eb} far from per-update {ea}",
                a.id
            );
        }
    }
}

#[test]
fn raw_mode_batching_is_bitwise_identical() {
    // The crypto route publishes raw estimates with no rounding state, so
    // its batched path must agree exactly with per-update streaming.
    let p = params();
    let mut per_update = RobustBuilder::new(p.epsilon)
        .stream_length(p.stream_length)
        .domain(p.domain)
        .strategy(Strategy::Crypto(CryptoBackend::default()))
        .seed(9)
        .f0()
        .unwrap();
    let mut batched = RobustBuilder::new(p.epsilon)
        .stream_length(p.stream_length)
        .domain(p.domain)
        .strategy(Strategy::Crypto(CryptoBackend::default()))
        .seed(9)
        .f0()
        .unwrap();
    let updates =
        adversarial_robust_streaming::stream::generator::UniformGenerator::new(p.domain, 7)
            .take_updates(p.stream_length as usize);
    for chunk in updates.chunks(97) {
        for &u in chunk {
            per_update.update(u);
        }
        Estimator::update_batch(&mut batched, chunk);
        assert_eq!(per_update.estimate(), batched.estimate());
    }
}

#[test]
fn single_update_batches_are_bitwise_identical_for_every_entry() {
    // With batch size 1 the amortized path degenerates to the per-update
    // path exactly, for every strategy.
    let per_update = standard_registry(&params());
    let batched = standard_registry(&params());
    let p = params();
    for (mut a, mut b) in per_update.into_iter().zip(batched) {
        let updates = a.reference_stream(&p, p.seed ^ 0xBEEF);
        for &u in updates.iter().take(1_500) {
            a.estimator.update(u);
            b.estimator.update_batch(std::slice::from_ref(&u));
            assert_eq!(
                a.estimator.estimate(),
                b.estimator.estimate(),
                "{} diverged on single-update batches",
                a.id
            );
        }
    }
}

#[test]
fn dp_aggregation_copy_count_grows_as_sqrt_lambda_not_lambda() {
    // Config level: over a 16x range of flip budgets, the DP pool grows by
    // the square root (4x) while the exhaustible switching pool of
    // Lemma 3.6 grows linearly (16x). (Below lambda = 144 the pool sits on
    // its practical clamp floor of 12, which keeps the sparse-vector fire
    // threshold strictly below the pool size.)
    assert_eq!(DpAggregationConfig::copies_for_flip_budget(64), 12);
    for (lambda, sqrt) in [(256usize, 16usize), (1024, 32), (4096, 64)] {
        assert_eq!(DpAggregationConfig::copies_for_flip_budget(lambda), sqrt);
        assert_eq!(SketchSwitchConfig::exhaustible(0.25, lambda).copies, lambda);
    }

    // Estimator level: a built DP estimator reports the sqrt-sized pool
    // through the copies() metadata, far below its own flip budget.
    let p = params();
    let builder = RobustBuilder::new(p.epsilon)
        .stream_length(p.stream_length)
        .domain(p.domain)
        .seed(p.seed);
    let lambda = builder.f0_flip_number();
    let dp = builder.strategy(Strategy::DpAggregation).f0().unwrap();
    assert_eq!(
        RobustEstimator::copies(&dp),
        DpAggregationConfig::copies_for_flip_budget(lambda)
    );
    assert!(
        RobustEstimator::copies(&dp) < lambda / 4,
        "DP pool {} not sublinear in flip budget {lambda}",
        RobustEstimator::copies(&dp)
    );
    assert_eq!(RobustEstimator::flip_budget(&dp), lambda);
}

#[test]
fn difference_estimator_copy_count_grows_as_log_lambda() {
    // Config level: over a 16x range of flip budgets the chunk pool grows
    // by an additive constant (log), while the DP pool grows by the square
    // root and the exhaustible switching pool of Lemma 3.6 linearly.
    for (lambda, log2) in [(256usize, 9usize), (1024, 11), (4096, 13)] {
        let schedule = DifferenceSchedule::for_flip_budget(lambda);
        assert_eq!(schedule.chunks(), log2, "lambda {lambda}");
        assert!(schedule.total_flip_budget() >= lambda, "lambda {lambda}");
        assert!(
            schedule.chunks() < DpAggregationConfig::copies_for_flip_budget(lambda),
            "lambda {lambda}: chunk pool not below the DP pool"
        );
        assert_eq!(SketchSwitchConfig::exhaustible(0.25, lambda).copies, lambda);
    }

    // Estimator level: a built difference estimator reports the log-sized
    // pool through copies() and the provisioned chunk total — the improved
    // budget — through flip_budget() and its typed readings.
    let p = params();
    let builder = RobustBuilder::new(p.epsilon)
        .stream_length(p.stream_length)
        .domain(p.domain)
        .seed(p.seed);
    let lambda = builder.f0_flip_number();
    let schedule = DifferenceSchedule::for_flip_budget(lambda);
    let de = builder
        .strategy(Strategy::DifferenceEstimators)
        .f0()
        .unwrap();
    assert_eq!(RobustEstimator::copies(&de), schedule.chunks());
    assert!(
        RobustEstimator::copies(&de) < DpAggregationConfig::copies_for_flip_budget(lambda),
        "chunk pool {} not below the DP pool at lambda {lambda}",
        RobustEstimator::copies(&de)
    );
    assert_eq!(
        RobustEstimator::flip_budget(&de),
        schedule.total_flip_budget()
    );
    assert!(RobustEstimator::flip_budget(&de) >= lambda);
    assert_eq!(
        de.query().flip_budget,
        FlipBudget::Bounded(schedule.total_flip_budget())
    );
}

#[test]
fn difference_estimator_entries_conform_and_reject_model_violations() {
    // The three registry entries the new strategy enrolls: ε-budget
    // tracking on their reference stream (per-update AND batched), and —
    // through their sessions — typed rejection of model-violating updates.
    let p = params();
    let mut seen = 0;
    for mut entry in standard_registry(&p) {
        if !entry.id.ends_with("/difference-estimators") {
            continue;
        }
        seen += 1;
        let worst = score_entry(&mut entry, None);
        assert!(
            worst <= entry.error_budget,
            "{}: per-update error {worst} exceeds budget {}",
            entry.id,
            entry.error_budget
        );
        let id = entry.id;
        let mut session = entry.into_session();
        match session.update(Update::delete(7)) {
            Err(ArsError::Stream(_)) => {}
            other => panic!("{id}: expected ArsError::Stream, got {other:?}"),
        }
        assert_eq!(session.query().health, Health::PromiseViolated, "{id}");
    }
    assert_eq!(
        seen, 3,
        "expected f0/fp1/fp2 difference-estimator registry entries"
    );
}

#[test]
fn theorem_10_1_preset_reproduces_the_legacy_crypto_sketch() {
    // Identical seed and parameters: the preset must produce bitwise the
    // same sketch (space and estimates) as the explicit Theorem 10.1
    // configuration — delta = 1/4 with the default crypto backend.
    let p = params();
    let mut legacy = RobustBuilder::new(p.epsilon)
        .delta(0.25)
        .strategy(Strategy::Crypto(CryptoBackend::default()))
        .stream_length(p.stream_length)
        .seed(9)
        .f0()
        .unwrap();
    let mut preset = RobustBuilder::theorem_10_1(p.epsilon)
        .stream_length(p.stream_length)
        .seed(9)
        .f0()
        .unwrap();
    assert_eq!(legacy.space_bytes(), preset.space_bytes());
    let updates =
        adversarial_robust_streaming::stream::generator::UniformGenerator::new(p.domain, 3)
            .take_updates(2_000);
    for &u in &updates {
        legacy.update(u);
        preset.update(u);
        assert_eq!(legacy.estimate(), preset.estimate());
    }
}

#[test]
fn query_value_is_bitwise_equal_to_estimate_for_every_entry() {
    // The typed reading and the legacy float surface must never diverge:
    // estimate() is the thin query().value shim, checked at several points
    // of each entry's reference stream (including the empty prefix).
    let p = params();
    for mut entry in standard_registry(&p) {
        assert_eq!(
            entry.estimator.query().value,
            entry.estimator.estimate(),
            "{} diverged on the empty stream",
            entry.id
        );
        let updates = entry.reference_stream(&p, p.seed ^ 0xFACE);
        for (i, &u) in updates.iter().take(1_200).enumerate() {
            entry.estimator.update(u);
            if i % 97 == 0 {
                let reading = entry.estimator.query();
                assert_eq!(
                    reading.value,
                    entry.estimator.estimate(),
                    "{} reading diverged from estimate() at update {i}",
                    entry.id
                );
            }
        }
    }
}

#[test]
fn readings_carry_populated_guarantees_budgets_and_health() {
    let p = params();
    for mut entry in standard_registry(&p) {
        let updates = entry.reference_stream(&p, p.seed ^ 0xFEED);
        for &u in updates.iter().take(1_500) {
            entry.estimator.update(u);
        }
        let reading = entry.estimator.query();
        // Populated guarantee: a non-degenerate interval bracketing the
        // value (additive entries may publish 0 bits, where the interval
        // collapses around 0 but stays well-formed).
        assert!(
            reading.guarantee.lower <= reading.value + 1e-12
                && reading.value <= reading.guarantee.upper + 1e-12,
            "{}: guarantee {} does not bracket value {}",
            entry.id,
            reading.guarantee,
            reading.value
        );
        assert_eq!(reading.guarantee.additive, entry.additive, "{}", entry.id);
        assert_eq!(reading.epsilon, p.epsilon, "{}", entry.id);
        // Typed budget round-trips the raw accessor; the crypto route is
        // Unbounded, everything else Bounded.
        assert_eq!(
            reading.flip_budget,
            FlipBudget::from_raw(entry.estimator.flip_budget()),
            "{}",
            entry.id
        );
        if entry.estimator.strategy_name() == "crypto-mask" {
            assert_eq!(reading.flip_budget, FlipBudget::Unbounded, "{}", entry.id);
            assert_eq!(reading.flip_budget.to_string(), "∞", "{}", entry.id);
        } else {
            assert!(
                matches!(reading.flip_budget, FlipBudget::Bounded(_)),
                "{}",
                entry.id
            );
        }
        assert_eq!(reading.flips_used, entry.estimator.output_changes());
        assert_eq!(reading.copies, entry.estimator.copies());
    }
}

#[test]
fn health_turns_budget_exhausted_exactly_when_flips_pass_the_budget() {
    // A turnstile estimator promised a tiny flip budget, driven through
    // enough insert/delete waves to blow it: the reading's health, the one
    // budget verdict, must flip to BudgetExhausted at exactly the update
    // whose flip passes the budget of 2, while the estimator keeps ingesting.
    let mut robust = RobustBuilder::new(0.25)
        .stream_length(8_000)
        .domain(1 << 8)
        .max_frequency(64)
        .turnstile_fp(2.0, 2)
        .unwrap();
    let waves = adversarial_robust_streaming::stream::generator::TurnstileWaveGenerator::new(400)
        .take_updates(6_000);
    let mut saw_exhaustion = false;
    for &u in &waves {
        robust.update(u);
        let reading = robust.query();
        assert_eq!(reading.flip_budget, FlipBudget::Bounded(2));
        assert_eq!(reading.flips_used, robust.output_changes());
        assert_eq!(
            reading.health == Health::BudgetExhausted,
            reading.flips_used > 2,
            "health diverged from the budget at flips {}",
            reading.flips_used
        );
        saw_exhaustion |= reading.health == Health::BudgetExhausted;
    }
    assert!(
        saw_exhaustion,
        "the waves never exhausted the 2-flip budget; the test exercises nothing"
    );
}

#[test]
fn insertion_only_sessions_reject_deletions_with_typed_errors() {
    // Every insertion-only registry entry, wrapped in its session, refuses
    // a deletion with ArsError::Stream(..) — not a panic, not silent
    // ingestion — and flags every later reading as PromiseViolated.
    let p = params();
    for entry in standard_registry(&p) {
        if entry.model != StreamModel::InsertionOnly {
            continue;
        }
        let id = entry.id;
        let mut session = entry.into_session();
        session.insert(7).expect("insertions conform");
        let estimate_before = session.estimate();
        match session.update(Update::delete(7)) {
            Err(ArsError::Stream(_)) => {}
            other => panic!("{id}: expected ArsError::Stream, got {other:?}"),
        }
        assert_eq!(
            session.estimate(),
            estimate_before,
            "{id}: the rejected deletion reached the sketch"
        );
        assert_eq!(session.query().health, Health::PromiseViolated, "{id}");
        assert_eq!(session.len(), 1, "{id}");
    }
}

#[test]
fn sessions_expose_the_batched_hot_path_with_validation() {
    let p = params();
    let mut session = StreamSession::new(
        StreamModel::InsertionOnly,
        Box::new(
            RobustBuilder::new(p.epsilon)
                .stream_length(p.stream_length)
                .domain(p.domain)
                .seed(11)
                .f0()
                .unwrap(),
        ),
    )
    // Scoring against ground truth needs the exact vectors the stateless
    // fast path trades away.
    .with_exact_state();
    let updates =
        adversarial_robust_streaming::stream::generator::UniformGenerator::new(p.domain, 13)
            .take_updates(4_000);
    for chunk in updates.chunks(256) {
        let accepted = session.update_batch(chunk).expect("conforming batch");
        assert_eq!(accepted, chunk.len());
    }
    let reading = session.query();
    let truth = session.frequency().expect("exact state requested").f0() as f64;
    assert!(
        reading.guarantee.contains(truth) || (reading.value - truth).abs() <= 0.3 * truth,
        "session reading {reading} far from truth {truth}"
    );
    assert_eq!(reading.health, Health::WithinGuarantee);
}

#[test]
fn try_build_surfaces_structured_errors_for_every_rejected_range() {
    use adversarial_robust_streaming::robust::BuildError;
    use adversarial_robust_streaming::sketch::pstable::MIN_P;

    fn out_of_range<T>(built: Result<T, ArsError>) -> (&'static str, f64, &'static str) {
        match built {
            Err(ArsError::Build(BuildError::OutOfRange {
                field,
                value,
                allowed,
            })) => (field, value, allowed),
            Err(other) => panic!("expected BuildError::OutOfRange, got {other:?}"),
            Ok(_) => panic!("expected BuildError::OutOfRange, the build succeeded"),
        }
    }

    fn strategy_mismatch<T>(built: Result<T, ArsError>) -> bool {
        matches!(
            built,
            Err(ArsError::Build(BuildError::StrategyMismatch { .. }))
        )
    }

    // Every problem constructor, and the Theorem 10.1 preset, checks ε
    // and δ before it builds anything: the setters only record them.
    fn every_constructor(b: RobustBuilder) -> [Result<(), ArsError>; 7] {
        [
            b.f0().map(drop),
            b.fp(2.0).map(drop),
            b.fp_large(3.0).map(drop),
            b.turnstile_fp(2.0, 10).map(drop),
            b.bounded_deletion_fp(1.0, 2.0).map(drop),
            b.entropy().map(drop),
            b.heavy_hitters().map(drop),
        ]
    }
    for bad_eps in [0.0, 1.0, -0.1, 1.5, f64::NAN] {
        let preset = RobustBuilder::theorem_10_1(bad_eps).f0().map(drop);
        for built in every_constructor(RobustBuilder::new(bad_eps))
            .into_iter()
            .chain([preset])
        {
            let (field, value, allowed) = out_of_range(built);
            assert_eq!((field, allowed), ("epsilon", "(0,1)"));
            assert_eq!(value.to_bits(), bad_eps.to_bits());
        }
    }
    for bad_delta in [0.0, 1.0] {
        for built in every_constructor(RobustBuilder::new(0.1).delta(bad_delta)) {
            let (field, value, allowed) = out_of_range(built);
            assert_eq!((field, allowed), ("delta", "(0,1)"));
            assert_eq!(value, bad_delta);
        }
    }

    let b = RobustBuilder::new(0.1);
    // Below MIN_P the p-stable variates overflow, so p = 0.001 is refused
    // as firmly as p = 0 is.
    for bad_p in [0.0, -1.0, 0.001, 2.5, f64::NAN] {
        let (field, value, allowed) = out_of_range(b.fp(bad_p));
        assert_eq!(field, "p");
        assert_eq!(value.to_bits(), bad_p.to_bits());
        assert!(allowed.starts_with(&format!("[{MIN_P}, 2]")), "{allowed}");
    }
    for bad_p in [2.0, f64::NAN, f64::INFINITY] {
        let (field, value, _) = out_of_range(b.fp_large(bad_p));
        assert_eq!(field, "p");
        assert_eq!(value.to_bits(), bad_p.to_bits());
    }
    for bad_p in [3.0, 0.001, 1e-300] {
        let (field, value, allowed) = out_of_range(b.turnstile_fp(bad_p, 10));
        assert_eq!((field, value), ("p", bad_p));
        assert_eq!(allowed, format!("[{MIN_P}, 2]"));
    }
    let (field, value, _) = out_of_range(b.turnstile_fp(2.0, 0));
    assert_eq!((field, value), ("lambda", 0.0));
    let (field, value, _) = out_of_range(b.bounded_deletion_fp(0.5, 2.0));
    assert_eq!((field, value), ("p", 0.5));
    for bad_alpha in [0.5, f64::NAN, f64::INFINITY] {
        let (field, value, _) = out_of_range(b.bounded_deletion_fp(1.0, bad_alpha));
        assert_eq!(field, "alpha");
        assert_eq!(value.to_bits(), bad_alpha.to_bits());
    }

    // Strategy conflicts carry the problem and the paper's reason.
    assert!(strategy_mismatch(
        b.strategy(Strategy::Crypto(Default::default())).fp(2.0)
    ));
    assert!(strategy_mismatch(
        b.strategy(Strategy::DpAggregation).entropy()
    ));
    assert!(strategy_mismatch(
        b.strategy(Strategy::ComputationPaths).heavy_hitters()
    ));
    assert!(strategy_mismatch(
        ProvisionerSpec::new(ProblemSpec::CryptoF0, 0.1)
            .strategy(Strategy::SketchSwitching)
            .build(None)
    ));
    assert!(strategy_mismatch(
        b.strategy(Strategy::SketchSwitching).fp_large(3.0)
    ));

    // And the happy paths still build, the p floor included.
    for built in every_constructor(b) {
        assert!(built.is_ok(), "{built:?}");
    }
    assert!(b
        .strategy(Strategy::Crypto(CryptoBackend::default()))
        .f0()
        .is_ok());
    let small = b.stream_length(8_000).domain(1 << 12);
    assert!(small.fp(MIN_P).is_ok());
    assert!(small.turnstile_fp(MIN_P, 10).is_ok());
}

/// A deterministic adversarial sequence for `model`: seeded, biased
/// towards deletions and magnitude excursions so it repeatedly straddles
/// the α-bounded-deletion boundary and the magnitude bound.
fn adversarial_sequence(model: StreamModel, seed: u64, len: usize) -> Vec<Update> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let item = (state >> 33) % 48;
            let delta: i64 = match model {
                // Insertion-only sequences mix in the violations the model
                // must refuse.
                StreamModel::InsertionOnly => {
                    if state.is_multiple_of(11) {
                        -1
                    } else {
                        1 + (state % 3) as i64
                    }
                }
                // Turnstile sequences push |f_i| around so a magnitude
                // bound is hit from both sides.
                StreamModel::Turnstile => ((state % 7) as i64) - 3,
                // Bounded-deletion sequences bias deletions to graze the
                // alpha boundary.
                StreamModel::BoundedDeletion { .. } => {
                    if state % 5 < 2 {
                        2
                    } else {
                        -1
                    }
                }
            };
            Update::new(item, delta)
        })
        .collect()
}

/// Streams `updates` through a validator, recording each check verdict and
/// applying accepted updates (rejected ones are skipped, as a session
/// would).
fn verdicts(mut validator: StreamValidator, updates: &[Update]) -> Vec<bool> {
    updates
        .iter()
        .map(|&u| match validator.apply(u) {
            Ok(()) => true,
            Err(_) => false,
        })
        .collect()
}

#[test]
fn every_tier_accepts_and_rejects_exactly_like_the_reference_validator() {
    // The tier-equivalence contract behind the whole refactor: for every
    // model (with and without bounds), the cheap tier the session would
    // pick must accept/reject exactly the same update sequences as the
    // clone-and-recompute reference oracle.
    let models = [
        StreamModel::InsertionOnly,
        StreamModel::Turnstile,
        StreamModel::bounded_deletion(2.0, 1.0),
        StreamModel::bounded_deletion(1.5, 2.0),
        StreamModel::bounded_deletion(4.0, 1.0),
    ];
    for model in models {
        for seed in [3u64, 1337, 0xDEAD_BEEF] {
            let updates = adversarial_sequence(model, seed, 3_000);
            for magnitude_bound in [None, Some(3u64)] {
                let build = |tier: Option<ValidationTier>| {
                    let mut v = StreamValidator::new(model);
                    if let Some(bound) = magnitude_bound {
                        v = v.with_magnitude_bound(bound);
                    }
                    match tier {
                        Some(tier) => v.with_tier(tier),
                        None => v,
                    }
                };
                let cheap = verdicts(build(None), &updates);
                let reference = verdicts(build(Some(ValidationTier::Reference)), &updates);
                assert_eq!(
                    cheap, reference,
                    "{model:?} (bound {magnitude_bound:?}, seed {seed}): the session's \
                     default tier diverged from the reference oracle"
                );
                let rejected = cheap.iter().filter(|ok| !**ok).count();
                // An unbounded turnstile promise is vacuous — zero
                // rejections is the correct answer there; every other
                // configuration must actually straddle its boundary.
                let can_reject = model != StreamModel::Turnstile || magnitude_bound.is_some();
                assert!(
                    !can_reject || rejected > 0,
                    "{model:?} (bound {magnitude_bound:?}, seed {seed}): the adversarial \
                     sequence never straddled a model boundary; the test exercises nothing"
                );
            }
        }
    }
}

#[test]
fn every_registry_entry_session_validates_identically_on_every_tier() {
    // Session level: each registry entry's declared model, driven through
    // its cheapest-tier session and a reference-tier session, must produce
    // identical accept/reject traces and identical accepted counts.
    let p = params();
    for entry in standard_registry(&p) {
        let id = entry.id;
        let model = entry.model;
        let updates = adversarial_sequence(model, p.seed ^ 0x7135, 1_200);
        let mut cheap = entry.into_session();
        let mut reference = StreamValidator::new(model).with_tier(ValidationTier::Reference);
        let mut reference_accepted = 0u64;
        for (i, &u) in updates.iter().enumerate() {
            let oracle_ok = reference.apply(u).is_ok();
            if oracle_ok {
                reference_accepted += 1;
            }
            assert_eq!(
                cheap.update(u).is_ok(),
                oracle_ok,
                "{id}: tier verdicts diverged at update {i} ({u:?})"
            );
        }
        assert_eq!(cheap.len(), reference_accepted, "{id}");
        // The cheapest tier for the entry's model is what the session
        // actually picked.
        assert_eq!(cheap.validator_tier(), model.minimal_tier(), "{id}");
    }
}

#[test]
fn estimate_json_round_trips_for_every_registry_entry() {
    let p = params();
    for mut entry in standard_registry(&p) {
        let updates = entry.reference_stream(&p, p.seed ^ 0x1A7E);
        for &u in updates.iter().take(1_000) {
            entry.estimator.update(u);
        }
        let reading = entry.estimator.query();
        let json = reading.to_json();
        assert!(
            !json.contains("18446744073709551615"),
            "{}: the raw sentinel leaked into the wire format: {json}",
            entry.id
        );
        assert_eq!(
            Estimate::try_from_json(&json),
            Ok(reading),
            "{}: reading did not round-trip through JSON: {json}",
            entry.id
        );
    }
}
