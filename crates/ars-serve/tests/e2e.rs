//! The ISSUE acceptance flow, end to end over real sockets: register a
//! turnstile tenant with a tiny flip budget, drive it past exhaustion so
//! the manager re-provisions, snapshot the fleet, restore it into a fresh
//! server, and check the restored tenant answers bitwise-identically.

use ars_core::json::JsonWriter;
use ars_core::manager::SessionManager;
use ars_core::spec::{ProblemSpec, ProvisionerSpec};
use ars_serve::client;
use ars_serve::server::FleetServer;
use ars_stream::generator::{Generator, TurnstileWaveGenerator};

/// Reads the value of a per-tenant counter out of a Prometheus text body.
fn metric_value(metrics: &str, needle: &str) -> Option<f64> {
    metrics
        .lines()
        .find(|line| line.starts_with(needle))
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|value| value.parse().ok())
}

#[test]
fn register_exhaust_reprovision_snapshot_restore_over_http() {
    let handle = FleetServer::new(SessionManager::new())
        .spawn()
        .expect("spawn");
    let addr = handle.addr();

    // Register a turnstile tenant with a deliberately tiny flip budget so
    // the wave workload exhausts it quickly.
    let spec = ProvisionerSpec::new(ProblemSpec::TurnstileFp { p: 2.0, lambda: 2 }, 0.25)
        .domain(1 << 10)
        .max_frequency(64)
        .stream_length(1 << 16)
        .seed(23);
    let (status, body) = client::request(addr, "POST", "/tenants/wave", &spec.to_json()).unwrap();
    assert_eq!(status, 201, "{body}");
    assert!(body.contains("\"registered\":\"wave\""), "{body}");

    // Ingest oscillating turnstile waves in batches until the manager has
    // re-provisioned at least once (λ doubled past the initial hint).
    let updates = TurnstileWaveGenerator::new(400).take_updates(6_000);
    for chunk in updates.chunks(500) {
        let mut body = JsonWriter::new();
        body.raw("{").key("updates").pairs(chunk).raw("}");
        let (status, body) =
            client::request(addr, "POST", "/tenants/wave/update", body.as_str()).unwrap();
        assert_eq!(status, 200, "{body}");
    }

    // The re-provisioning must be observable from the outside: both in
    // the Prometheus surface and in the health report.
    let (status, metrics) = client::request(addr, "GET", "/metrics", "").unwrap();
    assert_eq!(status, 200);
    let reprovisions = metric_value(&metrics, "ars_tenant_reprovisions_total{tenant=\"wave\"}")
        .expect("reprovision counter exported");
    assert!(
        reprovisions >= 1.0,
        "no re-provisioning observed:\n{metrics}"
    );
    let (status, health) = client::request(addr, "GET", "/health", "").unwrap();
    assert_eq!(status, 200, "{health}");
    assert!(health.contains("\"wave\""), "{health}");

    // Snapshot the live fleet and the reading we expect to survive.
    let (status, snapshot) = client::request(addr, "GET", "/snapshot", "").unwrap();
    assert_eq!(status, 200, "{snapshot}");
    let (status, reading_before) = client::request(addr, "GET", "/tenants/wave/query", "").unwrap();
    assert_eq!(status, 200, "{reading_before}");

    // Restore into a completely fresh server process-equivalent.
    let restored = FleetServer::new(SessionManager::new())
        .spawn()
        .expect("spawn restored");
    let restored_addr = restored.addr();
    let (status, body) = client::request(restored_addr, "POST", "/restore", &snapshot).unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"restored\":1"), "{body}");

    // Bitwise-identical published reading, over the wire.
    let (status, reading_after) =
        client::request(restored_addr, "GET", "/tenants/wave/query", "").unwrap();
    assert_eq!(status, 200, "{reading_after}");
    assert_eq!(reading_before, reading_after);

    // The restored tenant is live, not an archive: it keeps ingesting.
    let (status, body) = client::request(
        restored_addr,
        "POST",
        "/tenants/wave/update",
        "{\"item\":7,\"delta\":1}",
    )
    .unwrap();
    assert_eq!(status, 200, "{body}");

    handle.shutdown();
    restored.shutdown();
}
