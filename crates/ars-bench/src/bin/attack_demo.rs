//! Prints the round-by-round trajectory of the AMS attack (Algorithm 3):
//! the sketch's estimate collapsing while the true `F₂` grows, and the
//! robust wrapper holding steady under the identical adversary.
//!
//! Usage: `cargo run --release -p ars-bench --bin attack_demo [rows]`

use ars_adversary::{Adversary, AmsAttackAdversary};
use ars_core::{RobustBuilder, Strategy};
use ars_sketch::ams::{AmsConfig, AmsSketch};
use ars_sketch::Estimator;
use ars_stream::FrequencyVector;

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(64);
    let rounds = 50 * rows;

    let mut ams = AmsSketch::new(AmsConfig::single_mean(rows), 7);
    let mut robust = RobustBuilder::new(0.5)
        .strategy(Strategy::SketchSwitching)
        .stream_length(rounds as u64)
        .seed(11)
        .fp(2.0);
    let mut ams_adversary = AmsAttackAdversary::new(rows, 13);
    let mut robust_adversary = AmsAttackAdversary::new(rows, 13);

    let mut ams_truth = FrequencyVector::new();
    let mut robust_truth = FrequencyVector::new();
    let mut ams_last = 0.0;
    let mut robust_last = 0.0;

    println!("round, true_f2_vs_ams, ams_estimate, ams_ratio, true_f2_vs_robust, robust_estimate, robust_ratio");
    for round in 1..=rounds {
        let u = ams_adversary.next_update(ams_last);
        ams_truth.apply(u);
        ams.update(u);
        ams_last = ams.estimate();

        let v = robust_adversary.next_update(robust_last);
        robust_truth.apply(v);
        robust.update(v);
        robust_last = robust.estimate();

        if round % (rounds / 25).max(1) == 0 {
            println!(
                "{round}, {:.0}, {:.0}, {:.3}, {:.0}, {:.0}, {:.3}",
                ams_truth.f2(),
                ams_last,
                ams_last / ams_truth.f2(),
                robust_truth.f2(),
                robust_last,
                robust_last / robust_truth.f2(),
            );
        }
    }
    let final_ratio = ams_last / ams_truth.f2();
    println!();
    println!(
        "AMS final estimate / truth = {final_ratio:.3} ({}; Theorem 9.1 predicts < 0.5 w.p. 9/10)",
        if final_ratio < 0.5 {
            "FOOLED"
        } else {
            "survived this run"
        }
    );
    println!(
        "Robust F2 final estimate / truth = {:.3} (guarantee: within 1 ± 0.5)",
        robust_last / robust_truth.f2()
    );
}
