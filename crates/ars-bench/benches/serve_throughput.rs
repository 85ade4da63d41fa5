//! `cargo bench --bench serve_throughput` — the HTTP serving path
//! measured against the in-process batch path it wraps.
//!
//! Spawns a real [`FleetServer`] on an ephemeral loopback port, registers
//! one F0 tenant from a provisioner spec, then measures three legs over
//! the socket with the crate's own blocking client: batched `POST
//! /tenants/{name}/update`, `GET /tenants/{name}/query`, and `GET
//! /metrics`. The client keeps one persistent connection, so every leg
//! measures what a connected client pays per request: one round trip,
//! parse, mutex and serialize, and no connection setup. The in-process
//! `SessionManager::update_batch` figure for the identical workload is
//! recorded next to them, so the wire tax is a number, not a guess. Writes the repo's BENCH_serve_throughput.json trajectory point
//! unless `ARS_BENCH_NO_WRITE` is set.
//!
//! [`FleetServer`]: ars_serve::server::FleetServer

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ars_core::manager::SessionManager;
use ars_core::spec::{ProblemSpec, ProvisionerSpec};
use ars_serve::client;
use ars_serve::server::FleetServer;
use ars_stream::generator::{Generator, UniformGenerator};
use ars_stream::Update;

const BATCH: usize = 256;
/// Timed update requests (each one batch of [`BATCH`] updates).
const BATCHES: usize = 40;
/// Timed query requests; the metrics leg scrapes a quarter as often.
const QUERIES: usize = 200;

fn spec() -> ProvisionerSpec {
    ProvisionerSpec::new(ProblemSpec::F0, 0.2)
        .stream_length(1 << 20)
        .domain(1 << 16)
        .seed(9)
}

fn batch_body(chunk: &[Update]) -> String {
    let mut body = String::from("{\"updates\":[");
    for (i, u) in chunk.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!("[{},{}]", u.item, u.delta));
    }
    body.push_str("]}");
    body
}

/// Runs `iterations` requests and returns per-request latencies.
fn measure(iterations: usize, mut one: impl FnMut(usize)) -> Vec<Duration> {
    let mut latencies = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let start = Instant::now();
        one(i);
        latencies.push(start.elapsed());
    }
    latencies
}

struct Leg {
    id: &'static str,
    requests: usize,
    requests_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

fn leg(id: &'static str, mut latencies: Vec<Duration>) -> Leg {
    latencies.sort_unstable();
    let total: Duration = latencies.iter().sum();
    let percentile = |q: f64| -> f64 {
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[idx].as_secs_f64() * 1e6
    };
    Leg {
        id,
        requests: latencies.len(),
        requests_per_sec: latencies.len() as f64 / total.as_secs_f64().max(1e-9),
        p50_us: percentile(0.50),
        p99_us: percentile(0.99),
    }
}

fn main() {
    let updates = UniformGenerator::new(1 << 16, 7).take_updates(BATCHES * BATCH);
    let chunks: Vec<String> = updates.chunks(BATCH).map(batch_body).collect();

    let handle = FleetServer::new(SessionManager::new())
        .spawn()
        .expect("bind an ephemeral loopback port");
    let addr: SocketAddr = handle.addr();
    let (status, body) = client::request(addr, "POST", "/tenants/bench", &spec().to_json())
        .expect("register over the wire");
    assert_eq!(status, 201, "{body}");

    // Warmup: populate the sketch and fault in the whole socket path.
    for chunk in chunks.iter().take((BATCHES / 10).max(1)) {
        client::request(addr, "POST", "/tenants/bench/update", chunk).expect("warmup update");
    }
    client::request(addr, "GET", "/tenants/bench/query", "").expect("warmup query");

    let update_leg = leg(
        "http_update_batch",
        measure(chunks.len(), |i| {
            let (status, _) = client::request(addr, "POST", "/tenants/bench/update", &chunks[i])
                .expect("update over the wire");
            assert_eq!(status, 200);
        }),
    );
    let query_leg = leg(
        "http_query",
        measure(QUERIES, |_| {
            let (status, _) =
                client::request(addr, "GET", "/tenants/bench/query", "").expect("query");
            assert_eq!(status, 200);
        }),
    );
    let metrics_leg = leg(
        "http_metrics",
        measure(QUERIES / 4, |_| {
            let (status, _) = client::request(addr, "GET", "/metrics", "").expect("metrics");
            assert_eq!(status, 200);
        }),
    );
    handle.shutdown();

    // The same workload through the manager directly: the wire tax is the
    // ratio between this and the HTTP update leg.
    let mut manager = SessionManager::new();
    manager.register_spec("bench", spec()).expect("register");
    let start = Instant::now();
    for chunk in updates.chunks(BATCH) {
        manager.update_batch("bench", chunk).expect("ingest");
    }
    let inproc = start.elapsed();
    let inproc_batches_per_sec = (updates.len() / BATCH) as f64 / inproc.as_secs_f64().max(1e-9);

    let mut json = String::from("{\"bench\":\"serve_throughput\",\"batch\":");
    json.push_str(&BATCH.to_string());
    json.push_str(",\"legs\":[");
    for (i, leg) in [&update_leg, &query_leg, &metrics_leg].iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"id\":\"{}\",\"requests\":{},\"requests_per_sec\":{:.1},\
             \"p50_us\":{:.1},\"p99_us\":{:.1}}}",
            leg.id, leg.requests, leg.requests_per_sec, leg.p50_us, leg.p99_us
        ));
    }
    json.push_str(&format!(
        "],\"inprocess_batches_per_sec\":{inproc_batches_per_sec:.1},\
         \"wire_tax\":{:.2}}}",
        inproc_batches_per_sec / update_leg.requests_per_sec.max(1e-9)
    ));
    println!("{json}");
    if std::env::var("ARS_BENCH_NO_WRITE").is_err() {
        // cargo runs benches with the package as cwd; the trajectory file
        // lives at the workspace root.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_serve_throughput.json"
        );
        let _ = std::fs::write(path, format!("{json}\n"));
    }
}
