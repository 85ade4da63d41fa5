//! [`FleetServer`]: the HTTP serving surface over a shared
//! [`SessionManager`].
//!
//! One acceptor thread hands connections to a fixed pool of worker
//! threads over a channel. A worker serves requests on its connection in
//! a loop, through one buffered reader that lives as long as the
//! connection: it parses a request (bounded by [`Limits`]), routes it
//! against the mutex-guarded manager, records the outcome in the
//! [`MetricsRegistry`], and writes the response's head and body in one
//! write. Every failure an HTTP peer can cause is a typed 4xx/5xx with
//! the reason in the body — the workers never panic on wire input, and a
//! lost connection mid-response is ignored (the peer hung up; that is
//! their privilege).
//!
//! # Persistent connections
//!
//! Connections are persistent, HTTP/1.1's default. The `connection`
//! header of every response says truthfully whether the server keeps the
//! connection open. It closes the connection:
//!
//! * after a request that sends `connection: close`, and after an
//!   HTTP/1.0 request that does not send `connection: keep-alive`;
//! * after a wire error (400/413), since the framing can no longer be
//!   trusted;
//! * on EOF or a read error between two requests, and when the
//!   connection sits idle for [`ServerConfig::read_timeout`] — silently,
//!   since no request was started. A fresh connection that closes before
//!   sending a byte still gets a 400;
//! * when no keep-alive slot is free. At most `workers − 1` connections
//!   stay open between requests, so one worker is always free to take a
//!   new connection, and a server with one worker closes after every
//!   response.
//!
//! [`ServerHandle::shutdown`] shuts the read side of every live
//! connection, so an idle kept-alive peer never makes it wait out the
//! read timeout. The server closes a kept-alive connection only while it
//! is idle or at shutdown, never after reading part of a request without
//! answering it; that is what makes [`crate::client`]'s one retry safe.
//!
//! # Routes
//!
//! | Method | Path | Body | Success |
//! |---|---|---|---|
//! | `GET` | `/tenants` | — | 200, registered tenant names |
//! | `POST` | `/tenants/{name}` | provisioner spec JSON | 201, registration echo |
//! | `POST` | `/tenants/{name}/update` | `{"item":i,"delta":d}` or `{"updates":[[i,d],…]}` | 200, ingestion receipt |
//! | `GET` | `/tenants/{name}/query` | — | 200, [`ars_core::estimate::Estimate::to_json`] verbatim |
//! | `POST` | `/tenants/{name}/reprovision` | — | 200, the rebuilt estimator's λ |
//! | `DELETE` | `/tenants/{name}` | — | 200 |
//! | `GET` | `/health` | — | 200/503, fleet health + embedded readings |
//! | `GET` | `/metrics` | — | 200, Prometheus text format |
//! | `GET` | `/snapshot` | — | 200, [`SessionManager::snapshot_json`] |
//! | `POST` | `/restore` | snapshot JSON | 200, tenants restored |
//!
//! Errors map [`ArsError`] onto statuses: `Wire`/`Build` → 400,
//! `UnknownSession` → 404, `StateUnavailable` → 409, `Stream` → 422.
//! A spent flip budget is not an error: the update is ingested, its
//! receipt carries `"health":"budget-exhausted"`, and `/health` answers
//! 503 while any tenant reads other than `within-guarantee`.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ars_core::error::ArsError;
use ars_core::estimate::Health;
use ars_core::json::{JsonValue, JsonWriter};
use ars_core::manager::SessionManager;
use ars_core::spec::ProvisionerSpec;
use ars_stream::Update;

use crate::http::{read_request_from, HttpError, Limits, Request, Response};
use crate::metrics::MetricsRegistry;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 asks the OS for an ephemeral port (the bound
    /// address is on [`ServerHandle::addr`]).
    pub addr: String,
    /// Worker threads serving connections. At most `workers − 1`
    /// connections are kept open between requests.
    pub workers: usize,
    /// Per-connection read timeout — a peer that opens a socket and goes
    /// silent, or leaves a kept-alive connection idle, occupies a worker
    /// for at most this long.
    pub read_timeout: Duration,
    /// Wire-level request limits.
    pub limits: Limits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            read_timeout: Duration::from_secs(5),
            limits: Limits::default(),
        }
    }
}

/// The serving surface: a [`SessionManager`] behind a mutex, shared by a
/// pool of HTTP workers.
pub struct FleetServer {
    manager: Arc<Mutex<SessionManager>>,
    config: ServerConfig,
}

impl FleetServer {
    /// Wraps `manager` with the default configuration.
    #[must_use]
    pub fn new(manager: SessionManager) -> Self {
        Self::with_config(manager, ServerConfig::default())
    }

    /// Wraps `manager` with an explicit configuration.
    #[must_use]
    pub fn with_config(manager: SessionManager, config: ServerConfig) -> Self {
        Self {
            manager: Arc::new(Mutex::new(manager)),
            config,
        }
    }

    /// Binds the listener and starts the acceptor and worker threads.
    /// Returns the handle owning the threads; the server runs until
    /// [`ServerHandle::shutdown`].
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&self.config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(MetricsRegistry::new());
        let stop = Arc::new(AtomicBool::new(false));

        let (sender, receiver): (Sender<TcpStream>, Receiver<TcpStream>) = mpsc::channel();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = self.config.workers.max(1);
        let connections = Arc::new(Connections::new(workers - 1));
        let mut threads = Vec::with_capacity(workers + 1);
        for i in 0..workers {
            let receiver = Arc::clone(&receiver);
            let manager = Arc::clone(&self.manager);
            let metrics = Arc::clone(&metrics);
            let connections = Arc::clone(&connections);
            let config = self.config.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ars-serve-worker-{i}"))
                    .spawn(move || loop {
                        let stream = {
                            let guard = receiver.lock().expect("worker queue poisoned");
                            guard.recv()
                        };
                        match stream {
                            Ok(stream) => {
                                serve_connection(stream, &manager, &metrics, &connections, &config)
                            }
                            // The acceptor dropped the sender: shutdown.
                            Err(_) => break,
                        }
                    })?,
            );
        }

        {
            let stop = Arc::clone(&stop);
            threads.push(
                std::thread::Builder::new()
                    .name("ars-serve-acceptor".to_string())
                    .spawn(move || {
                        // `sender` moves in here; dropping it on exit ends
                        // the workers once the queue drains.
                        for stream in listener.incoming() {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            if let Ok(stream) = stream {
                                if sender.send(stream).is_err() {
                                    break;
                                }
                            }
                        }
                    })?,
            );
        }

        Ok(ServerHandle {
            addr,
            manager: self.manager,
            metrics,
            connections,
            stop,
            threads,
        })
    }
}

/// A running server: the bound address, shared state handles, and the
/// thread pool. Dropping the handle without [`ServerHandle::shutdown`]
/// detaches the threads (they keep serving until the process exits).
pub struct ServerHandle {
    addr: SocketAddr,
    manager: Arc<Mutex<SessionManager>>,
    metrics: Arc<MetricsRegistry>,
    connections: Arc<Connections>,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared access to the manager behind the server — e.g. to
    /// snapshot it out-of-band or register tenants in-process.
    #[must_use]
    pub fn manager(&self) -> Arc<Mutex<SessionManager>> {
        Arc::clone(&self.manager)
    }

    /// The server's metrics registry (what `GET /metrics` renders from).
    #[must_use]
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Stops accepting, shuts the read side of every live connection
    /// (a request already read is still answered), drains the workers,
    /// joins every thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.connections.shut_all();
        // Unblock the acceptor's blocking `accept` with one self-connect.
        let _ = TcpStream::connect(self.addr);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// The connections the workers are serving: the keep-alive slots, and
/// every live stream, so [`ServerHandle::shutdown`] can end them all.
struct Connections {
    /// Free keep-alive slots, `workers − 1` when no connection is kept.
    free_slots: AtomicUsize,
    live: Mutex<Live>,
}

#[derive(Default)]
struct Live {
    shut: bool,
    next_id: u64,
    streams: HashMap<u64, Arc<TcpStream>>,
}

impl Connections {
    fn new(slots: usize) -> Self {
        Self {
            free_slots: AtomicUsize::new(slots),
            live: Mutex::new(Live::default()),
        }
    }

    fn live(&self) -> std::sync::MutexGuard<'_, Live> {
        self.live.lock().expect("connection registry poisoned")
    }

    /// Registers a stream until the returned guard drops. After
    /// [`Connections::shut_all`] the stream's read side is shut at once,
    /// so a connection still queued at shutdown cannot block its worker.
    fn register(&self, stream: &Arc<TcpStream>) -> Registered<'_> {
        let mut live = self.live();
        if live.shut {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let id = live.next_id;
        live.next_id += 1;
        live.streams.insert(id, Arc::clone(stream));
        Registered {
            connections: self,
            id,
        }
    }

    fn shut_all(&self) {
        let mut live = self.live();
        live.shut = true;
        for stream in live.streams.values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }

    /// Takes a keep-alive slot if one is free. The count publishes no
    /// other data, so `Relaxed` suffices: atomicity alone bounds it.
    fn try_keep(&self) -> Option<KeepAlive<'_>> {
        self.free_slots
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |free| {
                free.checked_sub(1)
            })
            .ok()
            .map(|_| KeepAlive(self))
    }
}

/// A registered live connection; deregisters on drop.
struct Registered<'a> {
    connections: &'a Connections,
    id: u64,
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        self.connections.live().streams.remove(&self.id);
    }
}

/// A held keep-alive slot; frees it on drop.
struct KeepAlive<'a>(&'a Connections);

impl Drop for KeepAlive<'_> {
    fn drop(&mut self) {
        self.0.free_slots.fetch_add(1, Ordering::Relaxed);
    }
}

/// Serves one connection: parse (bounded), route and respond, request
/// after request, until a close rule in the module docs applies.
fn serve_connection(
    stream: TcpStream,
    manager: &Arc<Mutex<SessionManager>>,
    metrics: &Arc<MetricsRegistry>,
    connections: &Connections,
    config: &ServerConfig,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_nodelay(true);
    let stream = Arc::new(stream);
    let _registered = connections.register(&stream);
    metrics.record_connection();
    let mut reader = BufReader::new(&*stream);
    let mut writer = &*stream;
    let mut slot: Option<KeepAlive<'_>> = None;
    loop {
        // Wait for the next request's first byte. On a kept-alive
        // connection, EOF, a reset or the idle timeout ends it silently.
        let first = reader.fill_buf().map(|buf| !buf.is_empty());
        if slot.is_some() && !matches!(first, Ok(true)) {
            return;
        }
        let started = Instant::now();
        let parsed = match first {
            // Reading again would wait out a second timeout.
            Err(err) => Err(HttpError::BadRequest(format!(
                "read error in request line: {err}"
            ))),
            Ok(_) => read_request_from(&mut reader, &config.limits),
        };
        let (route, response, wants_keep_alive) = match parsed {
            Ok(request) => {
                let (route, response) = route_request(&request, manager, metrics);
                (route, response, request.keep_alive)
            }
            Err(err) => (
                "(malformed)",
                error_envelope(err.status(), "http", err.reason()),
                false,
            ),
        };
        if !wants_keep_alive {
            slot = None;
        } else if slot.is_none() {
            slot = connections.try_keep();
        }
        metrics.record(route, response.status, started.elapsed());
        // A write failure means the peer hung up; nothing to do.
        if response.write_framed(&mut writer, slot.is_some()).is_err() || slot.is_none() {
            return;
        }
    }
}

/// The one error body every failure carries:
/// `{"error":{"kind":…,"message":…,"status":…}}`.
fn error_envelope(status: u16, kind: &str, message: &str) -> Response {
    let mut w = JsonWriter::with_capacity(128);
    w.raw("{")
        .key("error")
        .raw("{")
        .key("kind")
        .string(kind)
        .raw(",")
        .key("message")
        .string(message)
        .raw(",")
        .key("status")
        .uint(u64::from(status))
        .raw("}}");
    Response::json(status, w.finish())
}

/// Maps a typed core error onto (status, kind).
fn status_for(err: &ArsError) -> (u16, &'static str) {
    match err {
        ArsError::Wire { .. } => (400, "wire"),
        ArsError::Build(_) => (400, "build"),
        ArsError::UnknownSession { .. } => (404, "unknown-session"),
        ArsError::StateUnavailable { .. } => (409, "state-unavailable"),
        ArsError::Stream(_) => (422, "stream"),
    }
}

fn error_response(err: &ArsError) -> Response {
    let (status, kind) = status_for(err);
    error_envelope(status, kind, &err.to_string())
}

fn method_not_allowed(method: &str, route: &str) -> Response {
    error_envelope(
        405,
        "method-not-allowed",
        &format!("{method} is not supported on {route}"),
    )
}

/// Routes one parsed request. Returns the normalized route label (for
/// metrics cardinality — tenant names never become label values here)
/// and the response. Public within the crate for the wire tests.
pub(crate) fn route_request(
    request: &Request,
    manager: &Arc<Mutex<SessionManager>>,
    metrics: &MetricsRegistry,
) -> (&'static str, Response) {
    let segments: Vec<&str> = request.segments.iter().map(String::as_str).collect();
    let method = request.method.as_str();
    match segments.as_slice() {
        ["health"] => match method {
            "GET" => ("/health", health(manager)),
            _ => ("/health", method_not_allowed(method, "/health")),
        },
        ["metrics"] => match method {
            "GET" => ("/metrics", render_metrics(manager, metrics)),
            _ => ("/metrics", method_not_allowed(method, "/metrics")),
        },
        ["snapshot"] => match method {
            "GET" => (
                "/snapshot",
                Response::json(200, lock(manager).snapshot_json()),
            ),
            _ => ("/snapshot", method_not_allowed(method, "/snapshot")),
        },
        ["restore"] => match method {
            "POST" => ("/restore", restore(manager, &request.body)),
            _ => ("/restore", method_not_allowed(method, "/restore")),
        },
        ["tenants"] => match method {
            "GET" => ("/tenants", list_tenants(manager)),
            _ => ("/tenants", method_not_allowed(method, "/tenants")),
        },
        ["tenants", name] => match method {
            "POST" => ("/tenants/{name}", register(manager, name, &request.body)),
            "DELETE" => ("/tenants/{name}", deregister(manager, name)),
            _ => (
                "/tenants/{name}",
                method_not_allowed(method, "/tenants/{name}"),
            ),
        },
        ["tenants", name, "update"] => match method {
            "POST" => (
                "/tenants/{name}/update",
                update(manager, name, &request.body),
            ),
            _ => (
                "/tenants/{name}/update",
                method_not_allowed(method, "/tenants/{name}/update"),
            ),
        },
        ["tenants", name, "query"] => match method {
            "GET" => ("/tenants/{name}/query", query(manager, name)),
            _ => (
                "/tenants/{name}/query",
                method_not_allowed(method, "/tenants/{name}/query"),
            ),
        },
        ["tenants", name, "reprovision"] => match method {
            "POST" => ("/tenants/{name}/reprovision", reprovision(manager, name)),
            _ => (
                "/tenants/{name}/reprovision",
                method_not_allowed(method, "/tenants/{name}/reprovision"),
            ),
        },
        _ => (
            "(unrouted)",
            error_envelope(
                404,
                "not-found",
                &format!("no route for {}", request.target),
            ),
        ),
    }
}

fn render_metrics(manager: &Arc<Mutex<SessionManager>>, metrics: &MetricsRegistry) -> Response {
    let report = lock(manager).health_report();
    Response::text(200, metrics.render(&report))
}

fn lock(manager: &Arc<Mutex<SessionManager>>) -> std::sync::MutexGuard<'_, SessionManager> {
    manager.lock().expect("session manager mutex poisoned")
}

/// `GET /tenants` — the fleet roster: registered names (in the manager's
/// sorted order) and the count, without the per-tenant detail of
/// `/health`. This is what a load harness or an operator shell iterates.
fn list_tenants(manager: &Arc<Mutex<SessionManager>>) -> Response {
    let guard = lock(manager);
    let names = guard.names();
    let mut w = JsonWriter::with_capacity(32 + 24 * names.len());
    w.raw("{").key("count").uint(names.len() as u64).raw(",");
    w.key("tenants").raw("[");
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        w.string(name);
    }
    w.raw("]").raw("}");
    Response::json(200, w.finish())
}

fn health(manager: &Arc<Mutex<SessionManager>>) -> Response {
    let guard = lock(manager);
    let report = guard.health_report();
    let degraded = report
        .iter()
        .filter(|row| row.health != Health::WithinGuarantee)
        .count();
    let status = if degraded == 0 { 200 } else { 503 };
    let mut w = JsonWriter::with_capacity(256 + 256 * report.len());
    w.raw("{")
        .key("status")
        .string(if degraded == 0 { "ok" } else { "degraded" })
        .raw(",")
        .key("tenants")
        .uint(report.len() as u64)
        .raw(",")
        .key("degraded")
        .uint(degraded as u64)
        .raw(",")
        .key("report")
        .raw("[");
    for (i, row) in report.iter().enumerate() {
        if i > 0 {
            w.raw(",");
        }
        w.raw("{")
            .key("name")
            .string(&row.name)
            .raw(",")
            .key("health")
            .string(&row.health.to_string())
            .raw(",")
            .key("tier")
            .string(row.tier.as_str())
            .raw(",")
            .key("accepted")
            .uint(row.accepted)
            .raw(",")
            .key("rejected")
            .uint(row.rejected as u64)
            .raw(",")
            .key("dropped")
            .uint(row.dropped as u64)
            .raw(",")
            .key("flips_used")
            .uint(row.flips_used as u64)
            .raw(",")
            .key("reprovisions")
            .uint(row.reprovisions as u64)
            .raw(",")
            .key("space_bytes")
            .uint(row.space_bytes as u64)
            .raw("}");
    }
    w.raw("]")
        .raw(",")
        .key("readings")
        .raw(&guard.readings_json())
        .raw("}");
    Response::json(status, w.finish())
}

fn register(manager: &Arc<Mutex<SessionManager>>, name: &str, body: &str) -> Response {
    let spec = match ProvisionerSpec::try_from_json(body) {
        Ok(spec) => spec,
        Err(err) => return error_response(&err),
    };
    let mut guard = lock(manager);
    match guard.register_spec(name, spec) {
        Ok(replaced) => {
            let mut w = JsonWriter::with_capacity(128);
            w.raw("{")
                .key("registered")
                .string(name)
                .raw(",")
                .key("replaced")
                .boolean(replaced.is_some())
                .raw(",")
                .key("spec")
                .raw(&spec.to_json())
                .raw("}");
            Response::json(201, w.finish())
        }
        Err(err) => error_response(&err),
    }
}

fn deregister(manager: &Arc<Mutex<SessionManager>>, name: &str) -> Response {
    if lock(manager).deregister(name).is_some() {
        let mut w = JsonWriter::with_capacity(64);
        w.raw("{").key("deregistered").string(name).raw("}");
        Response::json(200, w.finish())
    } else {
        error_response(&ArsError::UnknownSession {
            name: name.to_string(),
        })
    }
}

/// Parses an update body: either a single `{"item":i,"delta":d}` object
/// (`delta` defaults to 1) or a batch `{"updates":[[i,d],…]}`.
fn parse_updates(body: &str) -> Result<Vec<Update>, ArsError> {
    fn wire(reason: String) -> ArsError {
        ArsError::Wire { reason }
    }
    let doc = JsonValue::parse_strict(body).map_err(|err| wire(format!("update body: {err}")))?;
    if let Some(batch) = doc.get("updates") {
        batch
            .as_pairs()
            .map_err(|err| wire(format!("update body: \"updates\": {err}")))
    } else {
        let item = doc
            .get("item")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| wire("update body: missing integer \"item\"".to_string()))?;
        let delta = match doc.get("delta") {
            None => 1,
            Some(node) => node
                .as_i64()
                .ok_or_else(|| wire("update body: non-integer \"delta\"".to_string()))?,
        };
        Ok(vec![Update::new(item, delta)])
    }
}

fn update(manager: &Arc<Mutex<SessionManager>>, name: &str, body: &str) -> Response {
    let updates = match parse_updates(body) {
        Ok(updates) => updates,
        Err(err) => return error_response(&err),
    };
    let result = lock(manager).update_batch(name, &updates);
    match result {
        Ok(health) => {
            let mut w = JsonWriter::with_capacity(96);
            w.raw("{")
                .key("ingested")
                .uint(updates.len() as u64)
                .raw(",")
                .key("health")
                .string(&health.to_string())
                .raw("}");
            Response::json(200, w.finish())
        }
        Err(err) => error_response(&err),
    }
}

fn query(manager: &Arc<Mutex<SessionManager>>, name: &str) -> Response {
    match lock(manager).query(name) {
        Ok(reading) => Response::json(200, reading.to_json()),
        Err(err) => error_response(&err),
    }
}

fn reprovision(manager: &Arc<Mutex<SessionManager>>, name: &str) -> Response {
    match lock(manager).reprovision(name) {
        Ok(lambda) => {
            let mut w = JsonWriter::with_capacity(64);
            w.raw("{").key("lambda").uint(lambda as u64).raw("}");
            Response::json(200, w.finish())
        }
        Err(err) => error_response(&err),
    }
}

fn restore(manager: &Arc<Mutex<SessionManager>>, body: &str) -> Response {
    match lock(manager).restore_json(body) {
        Ok(count) => {
            let mut w = JsonWriter::with_capacity(64);
            w.raw("{").key("restored").uint(count as u64).raw("}");
            Response::json(200, w.finish())
        }
        Err(err) => error_response(&err),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::read_request;
    use ars_core::spec::ProblemSpec;
    use ars_stream::generator::{Generator, TurnstileWaveGenerator};

    fn shared(manager: SessionManager) -> Arc<Mutex<SessionManager>> {
        Arc::new(Mutex::new(manager))
    }

    fn request(method: &str, target: &str, body: &str) -> Request {
        let raw = format!(
            "{method} {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        read_request(raw.as_bytes(), &Limits::default()).unwrap()
    }

    fn dispatch(
        request: Request,
        manager: &Arc<Mutex<SessionManager>>,
    ) -> (&'static str, Response) {
        route_request(&request, manager, &MetricsRegistry::new())
    }

    #[test]
    fn register_update_query_round_trip_without_sockets() {
        let manager = shared(SessionManager::new());
        let spec = ProvisionerSpec::new(ProblemSpec::F0, 0.25)
            .domain(1 << 10)
            .stream_length(4_000)
            .seed(3);
        let (route, response) =
            dispatch(request("POST", "/tenants/edge", &spec.to_json()), &manager);
        assert_eq!(
            (route, response.status),
            ("/tenants/{name}", 201),
            "{}",
            response.body
        );

        let batch: Vec<String> = (0..200u64).map(|i| format!("[{},1]", i % 50)).collect();
        let body = format!("{{\"updates\":[{}]}}", batch.join(","));
        let (_, response) = dispatch(request("POST", "/tenants/edge/update", &body), &manager);
        assert_eq!(response.status, 200, "{}", response.body);
        assert!(
            response.body.contains("\"ingested\":200"),
            "{}",
            response.body
        );

        let (_, response) = dispatch(request("GET", "/tenants/edge/query", ""), &manager);
        assert_eq!(response.status, 200);
        assert_eq!(
            response.body,
            manager.lock().unwrap().query("edge").unwrap().to_json()
        );
    }

    #[test]
    fn typed_errors_map_to_statuses() {
        let manager = shared(SessionManager::new());
        // Unknown tenant: 404.
        let (_, response) = dispatch(request("GET", "/tenants/ghost/query", ""), &manager);
        assert_eq!(response.status, 404);
        assert!(
            response.body.contains("unknown-session"),
            "{}",
            response.body
        );
        // Malformed spec: 400.
        let (_, response) = dispatch(request("POST", "/tenants/x", "{}"), &manager);
        assert_eq!(response.status, 400);
        assert!(
            response.body.contains("\"kind\":\"wire\""),
            "{}",
            response.body
        );
        // Invalid parameters: 400 build error.
        let (_, response) = dispatch(
            request("POST", "/tenants/x", "{\"problem\":\"f0\",\"epsilon\":2.0}"),
            &manager,
        );
        assert_eq!(response.status, 400);
        assert!(
            response.body.contains("\"kind\":\"build\""),
            "{}",
            response.body
        );
        // Model violation: 422.
        let spec = ProvisionerSpec::new(ProblemSpec::F0, 0.25).domain(1 << 10);
        dispatch(request("POST", "/tenants/x", &spec.to_json()), &manager);
        let (_, response) = dispatch(
            request("POST", "/tenants/x/update", "{\"item\":1,\"delta\":-1}"),
            &manager,
        );
        assert_eq!(response.status, 422);
        assert!(
            response.body.contains("\"kind\":\"stream\""),
            "{}",
            response.body
        );
        // Reprovision with nothing wrong but an analytic budget: 409 is the
        // stateless case; here exact state is on, so it succeeds (200).
        let (_, response) = dispatch(request("POST", "/tenants/x/reprovision", ""), &manager);
        assert_eq!(response.status, 200, "{}", response.body);
        // Unrouted path: 404; wrong method: 405.
        let (_, response) = dispatch(request("GET", "/nope", ""), &manager);
        assert_eq!(response.status, 404);
        let (_, response) = dispatch(request("DELETE", "/health", ""), &manager);
        assert_eq!(response.status, 405);
    }

    #[test]
    fn health_reports_degradation_with_503() {
        let manager = shared(SessionManager::new());
        let spec = ProvisionerSpec::new(ProblemSpec::F0, 0.25).domain(1 << 10);
        dispatch(request("POST", "/tenants/ok", &spec.to_json()), &manager);
        let (_, response) = dispatch(request("GET", "/health", ""), &manager);
        assert_eq!(response.status, 200);
        assert!(
            response.body.contains("\"status\":\"ok\""),
            "{}",
            response.body
        );
        // Violate the model: the tenant degrades and health flips to 503.
        dispatch(
            request("POST", "/tenants/ok/update", "{\"item\":1,\"delta\":-2}"),
            &manager,
        );
        let (_, response) = dispatch(request("GET", "/health", ""), &manager);
        assert_eq!(response.status, 503);
        assert!(
            response.body.contains("\"degraded\":1"),
            "{}",
            response.body
        );
        assert!(
            response.body.contains("promise-violated"),
            "{}",
            response.body
        );
    }

    #[test]
    fn health_reports_budget_exhaustion_with_503() {
        // A stateless turnstile tenant promised lambda = 2, driven through
        // insert/delete waves: its budget runs out and, with no exact
        // state to replay, it cannot be re-provisioned.
        let manager = shared(SessionManager::new());
        let spec = ProvisionerSpec::new(ProblemSpec::TurnstileFp { p: 2.0, lambda: 2 }, 0.25)
            .stream_length(20_000)
            .domain(1 << 10)
            .max_frequency(64)
            .seed(23)
            .stateless();
        let (_, registered) =
            dispatch(request("POST", "/tenants/waves", &spec.to_json()), &manager);
        assert_eq!(registered.status, 201, "{}", registered.body);
        let updates = TurnstileWaveGenerator::new(400).take_updates(6_000);
        let exhausted = updates.chunks(100).any(|batch| {
            let mut body = JsonWriter::new();
            body.raw("{").key("updates").pairs(batch).raw("}");
            let (_, receipt) = dispatch(
                request("POST", "/tenants/waves/update", &body.finish()),
                &manager,
            );
            assert_eq!(receipt.status, 200, "{}", receipt.body);
            receipt.body.contains("\"health\":\"budget-exhausted\"")
        });
        assert!(exhausted, "the waves must spend a budget of 2");
        let (_, response) = dispatch(request("GET", "/health", ""), &manager);
        assert_eq!(response.status, 503);
        assert!(
            response.body.contains("\"degraded\":1"),
            "{}",
            response.body
        );
        assert!(
            response.body.contains("budget-exhausted"),
            "{}",
            response.body
        );
    }

    #[test]
    fn snapshot_and_restore_round_trip_through_the_router() {
        let manager = shared(SessionManager::new());
        let spec = ProvisionerSpec::new(ProblemSpec::F0, 0.25)
            .domain(1 << 10)
            .stream_length(4_000)
            .seed(9);
        dispatch(request("POST", "/tenants/edge", &spec.to_json()), &manager);
        let body = "{\"updates\":[[1,1],[2,1],[3,1]]}";
        dispatch(request("POST", "/tenants/edge/update", body), &manager);

        let (_, snapshot) = dispatch(request("GET", "/snapshot", ""), &manager);
        assert_eq!(snapshot.status, 200);

        let fresh = shared(SessionManager::new());
        let (_, restored) = dispatch(request("POST", "/restore", &snapshot.body), &fresh);
        assert_eq!(restored.status, 200, "{}", restored.body);
        assert!(
            restored.body.contains("\"restored\":1"),
            "{}",
            restored.body
        );
        let (_, a) = dispatch(request("GET", "/tenants/edge/query", ""), &manager);
        let (_, b) = dispatch(request("GET", "/tenants/edge/query", ""), &fresh);
        assert_eq!(a.body, b.body, "restored reading must be bitwise identical");

        // A malformed snapshot is a 400, not a panic.
        let (_, response) = dispatch(request("POST", "/restore", "{}"), &fresh);
        assert_eq!(response.status, 400);
    }

    #[test]
    fn metrics_render_against_the_live_report() {
        let manager = shared(SessionManager::new());
        let spec = ProvisionerSpec::new(ProblemSpec::F0, 0.25).domain(1 << 10);
        dispatch(request("POST", "/tenants/edge", &spec.to_json()), &manager);
        let registry = MetricsRegistry::new();
        registry.record("/tenants/{name}", 201, Duration::from_micros(80));
        let response = render_metrics(&manager, &registry);
        assert_eq!(response.status, 200);
        assert!(response.content_type.starts_with("text/plain"));
        assert!(response.body.contains("ars_tenants 1"), "{}", response.body);
        assert!(
            response
                .body
                .contains("ars_tenant_flips_used{tenant=\"edge\"}"),
            "{}",
            response.body
        );
    }
}
