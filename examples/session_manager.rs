//! Multi-tenant serving: a `SessionManager` hosting several named
//! model-enforcing sessions, aggregate health reporting, the JSON wire
//! surface, and automatic re-provisioning when a tenant's flip budget is
//! exhausted (doubled λ, exact state replayed, estimator swapped).
//!
//! Run with: `cargo run --release --example session_manager`

use adversarial_robust_streaming::robust::{
    ArsError, ProblemSpec, ProvisionerSpec, SessionManager,
};
use adversarial_robust_streaming::stream::generator::{
    Generator, TurnstileWaveGenerator, UniformGenerator, ZipfGenerator,
};
use adversarial_robust_streaming::stream::Update;

fn main() {
    let mut manager = SessionManager::new();

    // Tenant 1: distinct flows at an edge PoP — insertion-only, and this
    // tenant opts out of exact state, so the session validates statelessly
    // (O(1) validator memory).
    let flows_spec = ProvisionerSpec::new(ProblemSpec::F0, 0.2)
        .stream_length(100_000)
        .domain(1 << 18)
        .seed(7)
        .stateless();
    manager
        .register_spec("edge-us/distinct-flows", flows_spec)
        .unwrap();

    // Tenant 2: skewed query-log F2 — same model, different workload.
    let queries_spec = ProvisionerSpec::new(ProblemSpec::Fp { p: 2.0 }, 0.2)
        .stream_length(100_000)
        .domain(1 << 14)
        .seed(11)
        .stateless();
    manager
        .register_spec("search/query-f2", queries_spec)
        .unwrap();

    // Tenant 3: a turnstile counter promised a (deliberately tiny) flip
    // budget. The insert/delete waves below will exhaust it; the manager
    // then rebuilds the estimator from the spec with a doubled λ and
    // replays the session's exact state, which specs keep by default.
    let billing_spec = ProvisionerSpec::new(ProblemSpec::TurnstileFp { p: 2.0, lambda: 2 }, 0.25)
        .stream_length(100_000)
        .domain(1 << 10)
        .max_frequency(64)
        .seed(23);
    manager
        .register_spec("billing/net-balance-f2", billing_spec)
        .unwrap();

    // Traffic: each tenant gets its own stream, batched through the
    // manager by name.
    let flows = UniformGenerator::new(1 << 18, 42).take_updates(40_000);
    let queries = ZipfGenerator::new(1 << 14, 1.2, 43).take_updates(40_000);
    let waves = TurnstileWaveGenerator::new(400).take_updates(8_000);
    for chunk in flows.chunks(1_024) {
        manager
            .update_batch("edge-us/distinct-flows", chunk)
            .unwrap();
    }
    for chunk in queries.chunks(1_024) {
        manager.update_batch("search/query-f2", chunk).unwrap();
    }
    for chunk in waves.chunks(256) {
        manager
            .update_batch("billing/net-balance-f2", chunk)
            .unwrap();
    }
    // Land the billing stream on a non-zero plateau so the post-rebuild
    // reading has something to track.
    let plateau: Vec<Update> = (0..300u64)
        .flat_map(|i| std::iter::repeat_n(Update::insert(10_000 + i), 3))
        .collect();
    manager
        .update_batch("billing/net-balance-f2", &plateau)
        .unwrap();

    // Aggregate health: one row per tenant, in name order.
    println!(
        "{:<28} {:>18} {:>9} {:>12} {:>12} {:>12} {:>7}",
        "tenant", "health", "accepted", "budget", "space", "validator", "rebuilt"
    );
    for row in manager.health_report() {
        println!(
            "{:<28} {:>18} {:>9} {:>12} {:>11}B {:>11}B {:>7}",
            row.name,
            row.health.to_string(),
            row.accepted,
            row.flip_budget.to_string(),
            row.space_bytes,
            row.validator_bytes,
            row.reprovisions,
        );
    }

    let billing = manager
        .health_report()
        .into_iter()
        .find(|r| r.name == "billing/net-balance-f2")
        .expect("tenant registered");
    println!(
        "\nbilling tenant: budget exhausted and auto-rebuilt {} time(s); \
         provisioned flip budget now {} (started at 2)",
        billing.reprovisions, billing.flip_budget
    );
    let reading = manager.query("billing/net-balance-f2").unwrap();
    let truth = manager
        .session("billing/net-balance-f2")
        .unwrap()
        .frequency()
        .expect("the billing session keeps exact state")
        .f2();
    println!("post-rebuild reading: {reading}");
    println!("exact F2 for comparison: {truth:.0} — state survived every swap");

    // A model violation stays a typed, per-tenant event.
    match manager.update("edge-us/distinct-flows", Update::delete(1)) {
        Err(ArsError::Stream(err)) => println!("\ndeletion refused as promised: {err}"),
        other => println!("\nunexpected: {other:?}"),
    }
    match manager.update("nobody/unknown", Update::insert(1)) {
        Err(ArsError::UnknownSession { name }) => {
            println!("unknown tenant refused as promised: {name:?}");
        }
        other => println!("unexpected: {other:?}"),
    }

    // The wire surface: every tenant's typed reading as one JSON object
    // (each reading parses back via Estimate::try_from_json).
    println!("\nreadings_json:\n{}", manager.readings_json());
}
