//! Database cardinality estimation under feedback loops.
//!
//! A query optimizer estimates the number of distinct values of an
//! attribute to choose join orders. The catch: the *future workload depends
//! on the optimizer's own answers* — users and dashboards re-issue queries
//! that looked cheap, ETL jobs re-partition on attributes reported as
//! low-cardinality, and so on. That feedback loop is exactly the adaptive
//! adversarial setting of the paper: the stream of inserted attribute
//! values is correlated with the estimator's previous outputs.
//!
//! This example simulates such a loop: a workload driver inserts new
//! attribute values at a rate that depends on the cardinality estimate it
//! last saw (partitions that look small attract more fresh values). It
//! compares a plain static sketch against the robust estimator and against
//! the cryptographic (PRF-masked) estimator of Theorem 10.1.
//!
//! Run with: `cargo run --release --example robust_distinct_counting`

use adversarial_robust_streaming::robust::{
    ArsError, CryptoBackend, RobustBuilder, Strategy, StreamSession,
};
use adversarial_robust_streaming::sketch::kmv::{KmvConfig, KmvSketch};
use adversarial_robust_streaming::sketch::Estimator;
use adversarial_robust_streaming::stream::StreamModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A feedback-driven workload: the probability of inserting a *fresh*
/// attribute value (vs. re-inserting an existing one) grows when the
/// estimator reports a low cardinality.
struct FeedbackWorkload {
    rng: StdRng,
    next_fresh: u64,
    true_distinct: u64,
}

impl FeedbackWorkload {
    fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            next_fresh: 0,
            true_distinct: 0,
        }
    }

    fn next_value(&mut self, last_estimate: f64) -> u64 {
        let pressure = if self.true_distinct == 0 {
            1.0
        } else {
            // If the estimate undersells the true cardinality, the workload
            // keeps piling fresh values into this "small-looking" partition.
            (self.true_distinct as f64 / last_estimate.max(1.0)).clamp(0.1, 1.0)
        };
        if self.rng.gen::<f64>() < pressure {
            self.next_fresh += 1;
            self.true_distinct += 1;
            self.next_fresh
        } else {
            self.rng.gen_range(1..=self.next_fresh.max(1))
        }
    }

    fn true_distinct(&self) -> u64 {
        self.true_distinct
    }
}

fn run(label: &str, estimator: &mut dyn Estimator, rounds: usize, seed: u64) {
    let mut workload = FeedbackWorkload::new(seed);
    let mut worst_error: f64 = 0.0;
    let mut last_estimate = 0.0;
    for _ in 0..rounds {
        let value = workload.next_value(last_estimate);
        estimator.insert(value);
        last_estimate = estimator.estimate();
        let truth = workload.true_distinct() as f64;
        if truth > 1_000.0 {
            worst_error = worst_error.max((last_estimate - truth).abs() / truth);
        }
    }
    println!(
        "{label:<42} true distinct {:>8}   final estimate {:>10.0}   worst error {:>6.2}%   memory {:>7} KiB",
        workload.true_distinct(),
        last_estimate,
        100.0 * worst_error,
        estimator.space_bytes() / 1024
    );
}

fn main() -> Result<(), ArsError> {
    let rounds = 40_000;
    println!("Query-optimizer cardinality estimation with workload feedback ({rounds} inserts)\n");

    // One builder, every robust route; all contenders run through the same
    // trait-object loop.
    let builder = RobustBuilder::new(0.1)
        .stream_length(rounds as u64)
        .domain(1 << 22);
    let mut contenders: Vec<(&str, Box<dyn Estimator>)> = vec![
        (
            "static KMV sketch (non-robust)",
            Box::new(KmvSketch::new(KmvConfig::for_accuracy(0.05), 3)),
        ),
        (
            "robust F0 (sketch switching, Thm 1.1)",
            Box::new(builder.seed(5).f0()?),
        ),
        (
            "robust F0 (ChaCha PRF, Thm 10.1)",
            Box::new(
                builder
                    .seed(9)
                    .strategy(Strategy::Crypto(CryptoBackend::ChaChaPrf))
                    .f0()?,
            ),
        ),
    ];
    for (label, estimator) in &mut contenders {
        run(label, estimator.as_mut(), rounds, 1);
    }

    // The serving surface: the same robust estimators behind model-enforcing
    // sessions, read as typed `Estimate` readings. The optimizer can now see
    // the interval the guarantee promises the cardinality lies in, how much
    // of the flip budget the feedback loop has burned (∞ for the crypto
    // route, which needs none), and whether the reading is still covered.
    println!();
    println!("typed readings from model-enforcing sessions:");
    let sessions: Vec<(&str, StreamSession)> = vec![
        (
            "robust F0 (sketch switching, Thm 1.1)",
            StreamSession::new(StreamModel::InsertionOnly, Box::new(builder.seed(5).f0()?)),
        ),
        (
            "robust F0 (ChaCha PRF, Thm 10.1)",
            StreamSession::new(
                StreamModel::InsertionOnly,
                Box::new(
                    builder
                        .seed(9)
                        .strategy(Strategy::Crypto(CryptoBackend::ChaChaPrf))
                        .f0()?,
                ),
            ),
        ),
    ];
    for (label, mut session) in sessions {
        let mut workload = FeedbackWorkload::new(1);
        let mut last = 0.0;
        for _ in 0..rounds {
            let value = workload.next_value(last);
            session.insert(value).expect("inserts conform to the model");
            last = session.estimate();
        }
        let reading = session.query();
        println!("  {label:<42} {reading}");
    }

    println!();
    println!("The static sketch's error can drift once the workload correlates with its");
    println!("answers; the robust estimators keep the tracking guarantee (and the PRF");
    println!("variant does so at essentially the static sketch's memory cost).");
    Ok(())
}
