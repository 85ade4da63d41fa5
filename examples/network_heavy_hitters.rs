//! Router traffic heavy hitters with an adaptive traffic mix.
//!
//! A router reports its current top flows (`L₂` heavy hitters of the packet
//! stream) to an operator dashboard. Tenants — or an attacker probing the
//! telemetry — can see which flows get flagged and adjust their sending
//! patterns in response, so the packet stream is adaptively chosen. This
//! example runs the robust heavy-hitters structure of Theorem 1.9 on such a
//! feedback-driven traffic mix and checks the reported flows against exact
//! ground truth.
//!
//! Run with: `cargo run --release --example network_heavy_hitters`

use adversarial_robust_streaming::robust::{ArsError, RobustBuilder, RobustEstimator};
use adversarial_robust_streaming::sketch::Estimator;
use adversarial_robust_streaming::stream::{FrequencyVector, StreamModel, StreamValidator, Update};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), ArsError> {
    let epsilon = 0.1;
    let domain: u64 = 1 << 16; // flow identifiers
    let rounds = 30_000usize;

    let mut hh = RobustBuilder::new(epsilon)
        .domain(domain)
        .stream_length(rounds as u64)
        .seed(3)
        .heavy_hitters()?;

    let mut rng = StdRng::seed_from_u64(17);
    let mut exact = FrequencyVector::new();
    // The heavy-hitters structure answers vector queries (point queries +
    // a reported set), so it is driven directly; the router still enforces
    // the insertion-only model its guarantee assumes on the packet feed.
    let mut validator = StreamValidator::new(StreamModel::InsertionOnly);
    // Four tenants with bursty elephant flows; the elephants move whenever
    // they notice they are being reported (the adaptive part).
    let mut elephants: Vec<u64> = vec![1, 2, 3, 4];

    for step in 0..rounds {
        // 40% of packets go to elephants, the rest is mouse traffic.
        let flow = if rng.gen::<f64>() < 0.4 {
            elephants[rng.gen_range(0..elephants.len())]
        } else {
            rng.gen_range(100..domain)
        };
        let update = Update::insert(flow);
        validator
            .apply(update)
            .map_err(ArsError::Stream)
            .expect("packet arrivals are insertions");
        exact.apply(update);
        hh.update(update);

        // Every 5000 packets the tenants inspect the report; any elephant
        // that was flagged migrates to a fresh flow id (adaptive evasion).
        if step > 0 && step % 5_000 == 0 {
            let reported = hh.heavy_hitters();
            for e in &mut elephants {
                if reported.contains(e) {
                    *e += 1_000_000;
                }
            }
        }
    }

    let reported = hh.heavy_hitters();
    let truth = exact.l2_heavy_hitters(epsilon);
    let recall = if truth.is_empty() {
        1.0
    } else {
        truth.iter().filter(|f| reported.contains(f)).count() as f64 / truth.len() as f64
    };

    println!("flows reported as L2 heavy hitters: {}", reported.len());
    println!("true eps-heavy flows:               {}", truth.len());
    println!("recall of true heavy flows:         {:.2}", recall);
    println!(
        "robust L2 norm estimate:            {:.0} (true {:.0})",
        hh.norm_estimate(),
        exact.l2()
    );
    println!("switch times used so far:           {}", hh.switches());
    // The scalar facet of the structure as a typed reading: the robust
    // L2-norm value plus its guarantee interval and flip accounting.
    let reading = hh.query();
    println!(
        "typed norm reading:                 {:.0} in {} (flips {}/{}, {})",
        reading.value, reading.guarantee, reading.flips_used, reading.flip_budget, reading.health
    );
    println!(
        "memory:                             {} KiB",
        hh.space_bytes() / 1024
    );
    println!();
    for flow in reported.iter().take(10) {
        println!(
            "  flow {flow:>9}: reported, point estimate {:>8.0}, true count {:>8}",
            hh.point_query(*flow),
            exact.get(*flow)
        );
    }
    Ok(())
}
