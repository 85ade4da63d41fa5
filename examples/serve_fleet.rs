//! The serving surface over a socket: spawn a [`FleetServer`], register
//! tenants from declarative provisioner specs over HTTP, ingest update
//! batches (driving one tenant past its flip budget so the manager
//! re-provisions), read health and Prometheus metrics, then snapshot the
//! fleet and restore it into a second server with bitwise-identical
//! readings.
//!
//! Run with: `cargo run --release --example serve_fleet`
//!
//! [`FleetServer`]: adversarial_robust_streaming::serve::FleetServer

use adversarial_robust_streaming::robust::json::JsonWriter;
use adversarial_robust_streaming::robust::spec::{ProblemSpec, ProvisionerSpec};
use adversarial_robust_streaming::robust::SessionManager;
use adversarial_robust_streaming::serve::{client, FleetServer};
use adversarial_robust_streaming::stream::generator::{
    Generator, TurnstileWaveGenerator, UniformGenerator,
};

fn main() {
    let handle = FleetServer::new(SessionManager::new())
        .spawn()
        .expect("bind an ephemeral port");
    let addr = handle.addr();
    println!("fleet server listening on http://{addr}");

    // -- Register tenants over HTTP, from declarative specs ------------
    let f0 = ProvisionerSpec::new(ProblemSpec::F0, 0.2)
        .stream_length(100_000)
        .domain(1 << 18)
        .seed(7);
    let wave = ProvisionerSpec::new(ProblemSpec::TurnstileFp { p: 2.0, lambda: 2 }, 0.25)
        .domain(1 << 10)
        .max_frequency(64)
        .stream_length(1 << 16)
        .seed(23);
    for (name, spec) in [("edge-us/distinct-flows", &f0), ("metrics/wave-f2", &wave)] {
        let path = format!("/tenants/{}", client::encode_segment(name));
        let (status, body) = client::request(addr, "POST", &path, &spec.to_json()).unwrap();
        println!("register {name}: {status} {body}");
        assert_eq!(status, 201);
    }

    // -- Ingest batches over the wire ----------------------------------
    let flows = UniformGenerator::new(1 << 18, 7).take_updates(20_000);
    post_batches(addr, "edge-us%2Fdistinct-flows", &flows);
    // The oscillating turnstile waves exhaust λ = 2 quickly; the manager
    // re-provisions (doubled budget, exact state replayed) behind a 200.
    let waves = TurnstileWaveGenerator::new(400).take_updates(6_000);
    post_batches(addr, "metrics%2Fwave-f2", &waves);

    // -- Observe the fleet ---------------------------------------------
    let (_, health) = client::request(addr, "GET", "/health", "").unwrap();
    println!("\n/health:\n{health}");
    let (_, metrics) = client::request(addr, "GET", "/metrics", "").unwrap();
    let interesting = metrics
        .lines()
        .filter(|l| l.starts_with("ars_tenant_") || l.starts_with("ars_http_requests_total"))
        .collect::<Vec<_>>()
        .join("\n");
    println!("\n/metrics (tenant + request counters):\n{interesting}");

    // -- Snapshot → fresh server → restore -----------------------------
    let (_, snapshot) = client::request(addr, "GET", "/snapshot", "").unwrap();
    let (_, before) = client::request(addr, "GET", "/tenants/metrics%2Fwave-f2/query", "").unwrap();

    let restored = FleetServer::new(SessionManager::new())
        .spawn()
        .expect("bind the restored server");
    let (status, body) = client::request(restored.addr(), "POST", "/restore", &snapshot).unwrap();
    println!("\n/restore into fresh server: {status} {body}");
    assert_eq!(status, 200);
    let (_, after) = client::request(
        restored.addr(),
        "GET",
        "/tenants/metrics%2Fwave-f2/query",
        "",
    )
    .unwrap();
    assert_eq!(before, after, "restored reading must be bitwise-identical");
    println!("restored reading is bitwise-identical: {after}");

    handle.shutdown();
    restored.shutdown();
}

/// Posts `updates` to `/tenants/{encoded}/update` in chunks of 500.
fn post_batches(
    addr: std::net::SocketAddr,
    encoded: &str,
    updates: &[adversarial_robust_streaming::stream::Update],
) {
    let path = format!("/tenants/{encoded}/update");
    for chunk in updates.chunks(500) {
        let mut body = JsonWriter::new();
        body.raw("{").key("updates").pairs(chunk).raw("}");
        let (status, response) = client::request(addr, "POST", &path, body.as_str()).unwrap();
        assert_eq!(status, 200, "{response}");
    }
}
