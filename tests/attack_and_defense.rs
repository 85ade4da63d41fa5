//! Integration test for the paper's headline contrast (Section 9 vs
//! Section 4): the adaptive AMS attack fools the static sketch but not the
//! robust wrapper, under the *same* adversary implementation.

use adversarial_robust_streaming::adversary::{AmsAttackAdversary, GameConfig, GameRunner};
use adversarial_robust_streaming::robust::{RobustBuilder, RobustEstimator};
use adversarial_robust_streaming::sketch::ams::{AmsConfig, AmsSketch};
use adversarial_robust_streaming::stream::exact::Query;

const ROWS: usize = 64;
const ROUNDS: usize = 60 * ROWS;
const TRIALS: u64 = 5;

#[test]
fn ams_is_fooled_but_the_robust_wrapper_is_not() {
    let mut ams_fooled = 0usize;
    let mut robust_fooled = 0usize;

    for trial in 0..TRIALS {
        // Static AMS sketch under Algorithm 3.
        let mut ams = AmsSketch::new(AmsConfig::single_mean(ROWS), 100 + trial);
        let mut adversary = AmsAttackAdversary::new(ROWS, 200 + trial);
        let config = GameConfig::relative(Query::Fp(2.0), 0.5, ROUNDS).with_warmup(1);
        if GameRunner::new(config)
            .run(&mut ams, &mut adversary)
            .adversary_won()
        {
            ams_fooled += 1;
        }

        // Robust wrapper under the identical adversary construction,
        // driven through the object-safe trait like every other consumer.
        let mut robust: Box<dyn RobustEstimator> = Box::new(
            RobustBuilder::new(0.5)
                .stream_length(ROUNDS as u64)
                .seed(300 + trial)
                .fp(2.0)
                .unwrap(),
        );
        let mut adversary = AmsAttackAdversary::new(ROWS, 400 + trial);
        let config = GameConfig::relative(Query::Fp(2.0), 0.5, ROUNDS).with_warmup(1);
        if GameRunner::new(config)
            .run(robust.as_mut(), &mut adversary)
            .adversary_won()
        {
            robust_fooled += 1;
        }
    }

    assert!(
        ams_fooled as f64 >= 0.6 * TRIALS as f64,
        "the AMS attack should usually succeed (Theorem 9.1: prob >= 9/10); succeeded {ams_fooled}/{TRIALS}"
    );
    assert_eq!(
        robust_fooled, 0,
        "the robust F2 estimator must never be fooled by the AMS attack"
    );
}

#[test]
fn attack_cost_is_linear_in_the_sketch_width() {
    // Theorem 9.1: O(t) updates suffice. Check that the first violation
    // round grows roughly linearly (not quadratically) in t.
    let mut first_violations = Vec::new();
    for &rows in &[32usize, 128] {
        let mut best: Option<usize> = None;
        for trial in 0..3u64 {
            let mut ams = AmsSketch::new(AmsConfig::single_mean(rows), 7 + trial);
            let mut adversary = AmsAttackAdversary::new(rows, 11 + trial);
            let config = GameConfig::relative(Query::Fp(2.0), 0.5, 100 * rows).with_warmup(1);
            let outcome = GameRunner::new(config).run(&mut ams, &mut adversary);
            if let Some(round) = outcome.first_violation {
                best = Some(best.map_or(round, |b: usize| b.min(round)));
            }
        }
        first_violations.push(best.expect("attack succeeds at least once per width"));
    }
    let (small, large) = (first_violations[0] as f64, first_violations[1] as f64);
    // Width grew 4x; a linear-cost attack should not need more than ~16x the
    // updates (generous slack over the 4x prediction to absorb randomness).
    assert!(
        large <= 16.0 * small.max(32.0),
        "attack cost grew superlinearly: {small} -> {large}"
    );
}
