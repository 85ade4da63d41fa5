//! Quickstart: open a model-enforcing `StreamSession` over a robust
//! distinct-elements estimator, feed it a stream — per update and in
//! batches — and read typed `Estimate` readings (value, guarantee interval,
//! flip accounting, health) instead of bare floats.
//!
//! Run with: `cargo run --release --example quickstart`

use adversarial_robust_streaming::robust::{ArsError, RobustBuilder, StreamSession};
use adversarial_robust_streaming::stream::generator::{Generator, UniformGenerator};
use adversarial_robust_streaming::stream::{StreamModel, Update};

fn main() -> Result<(), ArsError> {
    // A (1 ± 0.1) adversarially robust distinct-elements estimator
    // (Theorem 1.1: optimized sketch switching over a strong-tracking KMV
    // ensemble). The same builder constructs every other robust estimator
    // in the crate: `.fp(p)`, `.entropy()`, `.heavy_hitters()`, ... and
    // every constructor returns `ArsError` on out-of-range parameters.
    let robust = RobustBuilder::new(0.1)
        .stream_length(50_000)
        .domain(1 << 20)
        .seed(7)
        .f0()?;

    // The session enforces the stream model the guarantee assumes
    // (insertion-only here) on every update: a violating update is refused
    // with a typed error and never reaches the sketch. Insertion-only
    // validation is a stateless O(1) sign check by default; this demo
    // opts into exact state so it can print the true F0 next to readings.
    let mut session =
        StreamSession::new(StreamModel::InsertionOnly, Box::new(robust)).with_exact_state();

    // Any stream source works; here, 50k uniformly random 20-bit items.
    let mut generator = UniformGenerator::new(1 << 20, 42);

    println!(
        "{:>10} {:>12} {:>12} {:>26} {:>10}",
        "updates", "true F0", "reading", "guarantee interval", "flips"
    );
    for step in 1..=50_000u64 {
        session
            .update(generator.next_update())
            .expect("uniform insertions respect the insertion-only model");

        if step % 10_000 == 0 {
            // `query()` returns the full reading; `estimate()` is just its
            // `.value` for callers that only want the float.
            let reading = session.query();
            let truth = session.frequency().expect("exact state requested").f0() as f64;
            println!(
                "{step:>10} {truth:>12.0} {:>12.0} {:>26} {:>7}/{}",
                reading.value,
                reading.guarantee.to_string(),
                reading.flips_used,
                reading.flip_budget,
            );
        }
    }

    let reading = session.query();
    println!();
    println!("final reading: {reading}");
    println!("health: {} (guarantee trustworthy)", reading.health);
    println!(
        "memory used by the robust estimator: {} KiB",
        session.estimator().space_bytes() / 1024
    );

    // A deletion violates the declared insertion-only promise: the session
    // refuses it with a typed error instead of silently ingesting it, and
    // flags every later reading.
    match session.update(Update::delete(1)) {
        Err(ArsError::Stream(err)) => println!("\ndeletion refused as promised: {err}"),
        other => println!("\nunexpected: {other:?}"),
    }
    println!(
        "reading after the violation: health = {}",
        session.query().health
    );

    // Throughput-oriented callers hand the session whole batches instead:
    // the batch is validated against the model, then the engine amortizes
    // the ε-rounding / switching check to one per batch.
    let mut batched = StreamSession::new(
        StreamModel::InsertionOnly,
        Box::new(
            RobustBuilder::new(0.1)
                .stream_length(50_000)
                .domain(1 << 20)
                .seed(7)
                .f0()?,
        ),
    );
    let updates = UniformGenerator::new(1 << 20, 42).take_updates(50_000);
    for chunk in updates.chunks(512) {
        batched.update_batch(chunk).expect("conforming batch");
    }
    println!(
        "\nbatched run (512-update chunks) agrees: {:.0} vs {:.0}",
        batched.query().value,
        reading.value,
    );
    // This second session kept the default stateless fast path: O(1)
    // validator memory next to the exact-state session's O(distinct).
    println!(
        "validator memory: {} B ({} tier) vs {} KiB ({} tier)",
        batched.validator_bytes(),
        batched.validator_tier(),
        session.validator_bytes() / 1024,
        session.validator_tier(),
    );
    Ok(())
}
