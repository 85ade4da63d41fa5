//! The AMS attack (Section 9) versus the robust wrapper, side by side.
//!
//! Reproduces the paper's negative result — an adaptive adversary drives
//! the classic AMS sketch's `F₂` estimate below half of the truth after
//! `O(t)` chosen updates (Theorem 9.1) — and the positive result: the same
//! adversary run against the sketch-switching robust estimator never breaks
//! the `(1 ± ε)` guarantee.
//!
//! Run with: `cargo run --release --example adversarial_attack_demo`

use adversarial_robust_streaming::adversary::{Adversary, AmsAttackAdversary};
use adversarial_robust_streaming::robust::{ArsError, RobustBuilder, StreamSession};
use adversarial_robust_streaming::sketch::ams::{AmsConfig, AmsSketch};
use adversarial_robust_streaming::sketch::Estimator;
use adversarial_robust_streaming::stream::{FrequencyVector, StreamModel};

fn main() -> Result<(), ArsError> {
    let rows = 64;
    let rounds = 50 * rows;

    // --- the attack against the plain AMS sketch -------------------------
    let mut ams = AmsSketch::new(AmsConfig::single_mean(rows), 7);
    let mut adversary = AmsAttackAdversary::new(rows, 13);
    let mut truth = FrequencyVector::new();
    let mut last = 0.0;
    let mut first_fooled = None;
    for round in 1..=rounds {
        let update = adversary.next_update(last);
        truth.apply(update);
        ams.update(update);
        last = ams.estimate();
        if first_fooled.is_none() && truth.f2() > 0.0 && last < 0.5 * truth.f2() {
            first_fooled = Some(round);
        }
    }
    println!("AMS sketch with t = {rows} rows under Algorithm 3:");
    println!("  true F2 after {rounds} updates:   {:>12.0}", truth.f2());
    println!("  AMS estimate:                  {:>12.0}", last);
    println!(
        "  estimate / truth:              {:>12.3}",
        last / truth.f2()
    );
    match first_fooled {
        Some(round) => println!(
            "  fell below 1/2 of the truth at update {round} (= {:.1} t), as Theorem 9.1 predicts",
            round as f64 / rows as f64
        ),
        None => println!("  (this run survived; Theorem 9.1 succeeds with probability 9/10)"),
    }

    // --- the same adversary against the robust estimator -----------------
    // The robust side runs behind a model-enforcing session: the adversary
    // plays inside the insertion-only model the guarantee assumes, and the
    // dashboard reads typed `Estimate` readings instead of bare floats.
    let epsilon = 0.5;
    let mut session = StreamSession::new(
        StreamModel::InsertionOnly,
        Box::new(
            RobustBuilder::new(epsilon)
                .stream_length(rounds as u64)
                .seed(11)
                .fp(2.0)?,
        ),
    );
    let mut adversary = AmsAttackAdversary::new(rows, 13);
    let mut truth = FrequencyVector::new();
    let mut last = 0.0;
    let mut worst: f64 = 0.0;
    for _ in 1..=rounds {
        let update = adversary.next_update(last);
        truth.apply(update);
        session
            .update(update)
            .expect("the AMS attack plays insertion-only");
        last = session.estimate();
        if truth.f2() > 100.0 {
            worst = worst.max((last - truth.f2()).abs() / truth.f2());
        }
    }
    let reading = session.query();
    println!();
    println!("Robust F2 estimator (sketch switching) under the same adversary:");
    println!("  true F2 after {rounds} updates:   {:>12.0}", truth.f2());
    println!("  robust reading:                {:>12.0}", reading.value);
    println!(
        "  guarantee interval:            {} ({})",
        reading.guarantee, reading.health
    );
    println!(
        "  flip budget spent:             {:>9}/{}",
        reading.flips_used, reading.flip_budget
    );
    println!(
        "  worst relative error observed: {:>12.3} (guarantee: {epsilon})",
        worst
    );
    println!("  memory: {} KiB", session.estimator().space_bytes() / 1024);
    Ok(())
}
