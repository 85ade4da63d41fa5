//! `cargo bench --bench serve_throughput` — the HTTP serving path
//! measured against the in-process batch path it wraps.
//!
//! Spawns a real [`FleetServer`] on an ephemeral loopback port, registers
//! one F0 tenant from a provisioner spec, then measures three legs over
//! the socket with the crate's own blocking client: batched `POST
//! /tenants/{name}/update`, `GET /tenants/{name}/query`, and `GET
//! /metrics`. The client keeps one persistent connection, so every leg
//! measures what a connected client pays per request: one round trip,
//! parse, mutex and serialize, and no connection setup.
//!
//! The wire tax comes from paired timings: a second, identical tenant
//! lives in an in-process `SessionManager`, and every update batch is
//! timed on both tenants back to back, alternating which goes first, so
//! host drift hits both sides of a pair alike. `wire_tax` is the median
//! per-batch ratio of HTTP to in-process time, with its min and max.
//! Writes the repo's BENCH_serve_throughput.json trajectory point unless
//! `ARS_BENCH_NO_WRITE` is set.
//!
//! [`FleetServer`]: ars_serve::server::FleetServer

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ars_core::json::JsonWriter;
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
    let mut w = JsonWriter::with_capacity(16 + 8 * chunk.len());
    w.raw("{").key("updates").pairs(chunk).raw("}");
    w.finish()
}

fn timed(one: impl FnOnce()) -> Duration {
    let start = Instant::now();
    one();
    start.elapsed()
}

/// Runs `iterations` requests and returns per-request latencies.
fn measure(iterations: usize, mut one: impl FnMut()) -> Vec<Duration> {
    (0..iterations).map(|_| timed(&mut one)).collect()
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

fn post(addr: SocketAddr, body: &str) {
    let (status, _) =
        client::request(addr, "POST", "/tenants/bench/update", body).expect("update over the wire");
    assert_eq!(status, 200);
}

fn main() {
    let updates = UniformGenerator::new(1 << 16, 7).take_updates(BATCHES * BATCH);
    let chunks: Vec<&[Update]> = updates.chunks(BATCH).collect();
    let bodies: Vec<String> = chunks.iter().map(|chunk| batch_body(chunk)).collect();

    let handle = FleetServer::new(SessionManager::new())
        .spawn()
        .expect("bind an ephemeral loopback port");
    let addr: SocketAddr = handle.addr();
    let (status, body) = client::request(addr, "POST", "/tenants/bench", &spec().to_json())
        .expect("register over the wire");
    assert_eq!(status, 201, "{body}");
    let mut manager = SessionManager::new();
    manager.register_spec("bench", spec()).expect("register");
    let mut ingest = |chunk: &[Update]| {
        manager.update_batch("bench", chunk).expect("ingest");
    };

    // Warmup: populate both sketches and fault in the whole socket path.
    for (body, chunk) in bodies.iter().zip(&chunks).take((BATCHES / 10).max(1)) {
        post(addr, body);
        ingest(chunk);
    }
    client::request(addr, "GET", "/tenants/bench/query", "").expect("warmup query");

    // Each batch on both tenants back to back, alternating which goes
    // first.
    let mut http = Vec::with_capacity(BATCHES);
    let mut inproc = Vec::with_capacity(BATCHES);
    for (i, (body, chunk)) in bodies.iter().zip(&chunks).enumerate() {
        let (h, p) = if i % 2 == 0 {
            let h = timed(|| post(addr, body));
            (h, timed(|| ingest(chunk)))
        } else {
            let p = timed(|| ingest(chunk));
            (timed(|| post(addr, body)), p)
        };
        http.push(h);
        inproc.push(p);
    }
    let mut taxes: Vec<f64> = http
        .iter()
        .zip(&inproc)
        .map(|(h, p)| h.as_secs_f64() / p.as_secs_f64().max(1e-9))
        .collect();
    taxes.sort_by(f64::total_cmp);
    let inproc_total: Duration = inproc.iter().sum();
    let inproc_batches_per_sec = BATCHES as f64 / inproc_total.as_secs_f64().max(1e-9);

    let update_leg = leg("http_update_batch", http);
    let query_leg = leg(
        "http_query",
        measure(QUERIES, || {
            let (status, _) =
                client::request(addr, "GET", "/tenants/bench/query", "").expect("query");
            assert_eq!(status, 200);
        }),
    );
    let metrics_leg = leg(
        "http_metrics",
        measure(QUERIES / 4, || {
            let (status, _) = client::request(addr, "GET", "/metrics", "").expect("metrics");
            assert_eq!(status, 200);
        }),
    );
    handle.shutdown();

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
         \"wire_tax\":{:.2},\"min_wire_tax\":{:.2},\"max_wire_tax\":{:.2}}}",
        taxes[taxes.len() / 2],
        taxes[0],
        taxes[taxes.len() - 1]
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
