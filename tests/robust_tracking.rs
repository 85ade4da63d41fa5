//! Cross-crate integration tests: the robust estimators deliver their
//! tracking guarantee end-to-end, scored by the exact oracle while playing
//! the adversarial game of Section 1 against adaptive adversaries.
//!
//! Every estimator is constructed through the unified `RobustBuilder` and
//! driven through the game harness as a `Box<dyn RobustEstimator>` — the
//! same generic trait-object loop the benchmark harness uses.

use adversarial_robust_streaming::adversary::game::ReplayAdversary;
use adversarial_robust_streaming::adversary::{
    Adversary, DistinctDuplicateAdversary, GameConfig, GameRunner, SurgeAdversary,
};
use adversarial_robust_streaming::robust::{
    CryptoBackend, RobustBuilder, RobustEstimator, Strategy,
};
use adversarial_robust_streaming::sketch::Estimator;
use adversarial_robust_streaming::stream::exact::Query;
use adversarial_robust_streaming::stream::generator::{
    BoundedDeletionGenerator, BurstyGenerator, Generator, UniformGenerator,
};
use adversarial_robust_streaming::stream::{FrequencyVector, StreamModel, StreamValidator};

/// The generic game loop: any robust estimator (as a trait object) against
/// any adversary.
fn play(
    estimator: &mut dyn RobustEstimator,
    adversary: &mut dyn Adversary,
    config: GameConfig,
) -> adversarial_robust_streaming::adversary::GameOutcome {
    GameRunner::new(config).run(estimator, adversary)
}

#[test]
fn adaptive_adversaries_fool_no_robust_f0_route() {
    // The three F0 routes (Thm 1.1, 1.2, 10.1), one generic loop.
    let epsilon = 0.15;
    let rounds = 20_000;
    let builder = RobustBuilder::new(epsilon)
        .stream_length(rounds as u64)
        .domain(1 << 20);
    let contenders: Vec<(&str, Box<dyn RobustEstimator>)> = vec![
        ("sketch switching", Box::new(builder.seed(3).f0().unwrap())),
        (
            "computation paths",
            Box::new(
                builder
                    .seed(4)
                    .strategy(Strategy::ComputationPaths)
                    .f0()
                    .unwrap(),
            ),
        ),
        (
            "crypto PRF",
            Box::new(
                builder
                    .seed(5)
                    .strategy(Strategy::Crypto(CryptoBackend::ChaChaPrf))
                    .f0()
                    .unwrap(),
            ),
        ),
    ];
    for (label, mut robust) in contenders {
        let mut adversary = DistinctDuplicateAdversary::new(epsilon).with_min_count(300);
        let config = GameConfig::relative(Query::F0, epsilon * 1.5, rounds).with_warmup(300);
        let outcome = play(robust.as_mut(), &mut adversary, config);
        assert!(
            !outcome.adversary_won(),
            "adaptive adversary fooled the {label} F0 estimator at round {:?} (max error {})",
            outcome.first_violation,
            outcome.max_error
        );
    }
}

#[test]
fn robust_f2_survives_the_surge_adversary() {
    let epsilon = 0.3;
    let rounds = 8_000;
    let mut robust = RobustBuilder::new(epsilon)
        .stream_length(rounds as u64)
        .seed(7)
        .fp(2.0)
        .unwrap();
    let mut adversary = SurgeAdversary::new(2.0, 11);
    let config = GameConfig::relative(Query::Fp(2.0), epsilon * 1.3, rounds).with_warmup(500);
    let outcome = play(&mut robust, &mut adversary, config);
    assert!(
        !outcome.adversary_won(),
        "surge adversary fooled the robust F2 estimator at round {:?} (max error {})",
        outcome.first_violation,
        outcome.max_error
    );
}

#[test]
fn robust_f0_matches_the_exact_oracle_on_oblivious_streams() {
    // On a fixed (non-adaptive) stream the robust estimator should behave
    // like a good static algorithm: this is the "no robustness tax on
    // accuracy" sanity check.
    let epsilon = 0.1;
    let rounds = 20_000;
    let updates = UniformGenerator::new(1 << 18, 13).take_updates(rounds);
    let mut adversary = ReplayAdversary::new(updates);
    let mut robust = RobustBuilder::new(epsilon)
        .stream_length(rounds as u64)
        .domain(1 << 18)
        .seed(17)
        .f0()
        .unwrap();
    let config = GameConfig::relative(Query::F0, epsilon * 1.2, rounds).with_warmup(200);
    let outcome = play(&mut robust, &mut adversary, config);
    assert!(!outcome.adversary_won());
    assert!(outcome.max_error <= epsilon * 1.2);
}

#[test]
fn batched_updates_preserve_the_tracking_guarantee() {
    // The amortized hot path: stream the same workload in chunks through
    // update_batch and check the estimate at every batch boundary (the only
    // points at which an adversary could observe it).
    let epsilon = 0.15;
    let rounds = 20_000usize;
    let updates = UniformGenerator::new(1 << 18, 23).take_updates(rounds);
    let mut robust = RobustBuilder::new(epsilon)
        .stream_length(rounds as u64)
        .domain(1 << 18)
        .seed(29)
        .f0()
        .unwrap();
    let mut truth = FrequencyVector::new();
    let mut worst: f64 = 0.0;
    for chunk in updates.chunks(128) {
        for &u in chunk {
            truth.apply(u);
        }
        robust.update_batch(chunk);
        let t = truth.f0() as f64;
        if t >= 300.0 {
            worst = worst.max(((robust.estimate() - t) / t).abs());
        }
    }
    assert!(
        worst <= epsilon * 1.5,
        "batched tracking error {worst} exceeds budget"
    );
}

#[test]
fn robust_heavy_hitters_recall_under_adaptive_elephant_migration() {
    // Elephant flows migrate to fresh ids whenever they see themselves
    // reported — the adaptive scenario of the network example — and the
    // robust structure must keep finding them.
    let epsilon = 0.12;
    let domain = 1u64 << 13;
    let rounds = 12_000usize;
    let mut hh = RobustBuilder::new(epsilon)
        .domain(domain)
        .stream_length(rounds as u64)
        .seed(19)
        .heavy_hitters()
        .unwrap();
    let mut generator = BurstyGenerator::new(domain, 3, 0.5, 23);
    let mut exact = FrequencyVector::new();
    for step in 0..rounds {
        let update = generator.next_update();
        exact.apply(update);
        hh.update(update);
        if step % 3_000 == 2_999 {
            // Peek at the report mid-stream (this is what makes the stream
            // adaptive: the updates continue regardless, but a non-robust
            // structure could be gamed at exactly these points).
            let _ = hh.heavy_hitters();
        }
    }
    let reported = hh.heavy_hitters();
    for item in exact.l2_heavy_hitters(epsilon) {
        assert!(
            reported.contains(&item),
            "missed true heavy hitter {item}: reported {reported:?}"
        );
    }
}

#[test]
fn robust_bounded_deletion_fp_inside_validated_model() {
    let alpha = 2.0;
    let epsilon = 0.3;
    let rounds = 8_000usize;
    let mut generator = BoundedDeletionGenerator::new(alpha, 400, 29);
    let updates = generator.take_updates(rounds);
    let mut validator = StreamValidator::new(StreamModel::bounded_deletion(alpha, 1.0));
    validator
        .apply_all(&updates)
        .expect("generator must respect its own model");

    let mut robust = RobustBuilder::new(epsilon)
        .stream_length(rounds as u64)
        .domain(1 << 14)
        .max_frequency(4)
        .seed(31)
        .bounded_deletion_fp(1.0, alpha)
        .unwrap();
    let mut exact = FrequencyVector::new();
    let mut worst: f64 = 0.0;
    for &u in &updates {
        exact.apply(u);
        robust.update(u);
        let t = exact.l1();
        if t > 200.0 {
            worst = worst.max((robust.estimate() - t).abs() / t);
        }
    }
    assert!(worst <= epsilon * 1.3, "worst error {worst}");
}

#[test]
fn space_accounting_is_consistent_across_the_stack() {
    // The composite estimators must report at least as much space as one of
    // their ingredients and must not change their reported space when fed
    // data (the paper's algorithms are fixed-space once configured), except
    // for structures that legitimately store identities.
    let robust = RobustBuilder::new(0.3)
        .stream_length(1_000)
        .fp(2.0)
        .unwrap();
    let before = robust.space_bytes();
    let mut robust = robust;
    for i in 0..1_000u64 {
        robust.insert(i);
    }
    assert_eq!(
        robust.space_bytes(),
        before,
        "linear-sketch space is data-independent"
    );

    let mut f0 = RobustBuilder::new(0.2).stream_length(1_000).f0().unwrap();
    let f0_before = f0.space_bytes();
    for i in 0..1_000u64 {
        f0.insert(i);
    }
    assert!(f0.space_bytes() >= f0_before);
}
