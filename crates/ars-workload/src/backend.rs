//! The pluggable ingestion surface the ramp drives.
//!
//! Two implementations of the same five-verb [`Backend`] trait:
//!
//! * [`InProcessBackend`] — direct calls into a shared
//!   [`SessionManager`]; measures the estimator fleet itself with no
//!   transport in the way.
//! * [`HttpBackend`] — the real `ars-serve` socket path via
//!   [`ars_serve::client`]; measures what an external client would see,
//!   HTTP framing included. The client reuses its thread's idle
//!   connection, so connection setup is paid once per connection the
//!   server keeps open, not once per call.
//!
//! Both return the same typed [`BackendError`] split: [`Rejected`] means
//! the backend *worked* — it refused an out-of-model batch (ingesting the
//! valid prefix), exactly what model-violating tenants are in the fleet to
//! provoke — while [`Failed`] is a transport or server fault. The ramp
//! accounts them separately; only failures count toward the knee's error
//! fraction.
//!
//! [`Rejected`]: BackendError::Rejected
//! [`Failed`]: BackendError::Failed

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};

use ars_core::error::ArsError;
use ars_core::estimate::Estimate;
use ars_core::json::{JsonValue, JsonWriter};
use ars_core::manager::SessionManager;
use ars_core::spec::ProvisionerSpec;
use ars_serve::client;
use ars_stream::Update;

/// How a backend call went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The batch violated the tenant's stream model; the backend ingested
    /// the valid prefix and refused the rest. Expected traffic from
    /// model-violating tenants.
    Rejected,
    /// A genuine fault: transport error, server error, malformed reply.
    Failed(String),
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Rejected => f.write_str("batch rejected as out-of-model"),
            Self::Failed(reason) => write!(f, "backend failure: {reason}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// The five verbs the load engine needs. Methods take `&self` so one
/// backend value can be shared across worker threads behind an `Arc`.
pub trait Backend: Send + Sync {
    /// Short name used in reports (`in-process` / `http`).
    fn label(&self) -> &'static str;
    /// Registers (provisions) a tenant.
    fn register_spec(&self, name: &str, spec: &ProvisionerSpec) -> Result<(), BackendError>;
    /// Ingests one update batch into a tenant's stream.
    fn update_batch(&self, name: &str, updates: &[Update]) -> Result<(), BackendError>;
    /// Publishes the tenant's current reading.
    fn query(&self, name: &str) -> Result<Estimate, BackendError>;
    /// The registered tenant names, sorted.
    fn tenants(&self) -> Result<Vec<String>, BackendError>;
}

fn classify(err: &ArsError) -> BackendError {
    match err {
        ArsError::Stream(_) => BackendError::Rejected,
        other => BackendError::Failed(other.to_string()),
    }
}

/// Direct [`SessionManager`] calls behind a mutex — the zero-transport
/// baseline.
#[derive(Clone)]
pub struct InProcessBackend {
    manager: Arc<Mutex<SessionManager>>,
}

impl InProcessBackend {
    /// Wraps a fresh manager (auto re-provisioning on, as in production).
    #[must_use]
    pub fn new() -> Self {
        Self::with_manager(Arc::new(Mutex::new(SessionManager::new())))
    }

    /// Wraps an existing shared manager.
    #[must_use]
    pub fn with_manager(manager: Arc<Mutex<SessionManager>>) -> Self {
        Self { manager }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SessionManager> {
        // A worker that panicked mid-call cannot leave a session half
        // updated (the manager mutates through &mut self atomically per
        // call), so the state behind a poisoned lock is still coherent.
        match self.manager.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl Default for InProcessBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for InProcessBackend {
    fn label(&self) -> &'static str {
        "in-process"
    }

    fn register_spec(&self, name: &str, spec: &ProvisionerSpec) -> Result<(), BackendError> {
        self.lock()
            .register_spec(name, *spec)
            .map(|_| ())
            .map_err(|err| classify(&err))
    }

    fn update_batch(&self, name: &str, updates: &[Update]) -> Result<(), BackendError> {
        self.lock()
            .update_batch(name, updates)
            .map(|_| ())
            .map_err(|err| classify(&err))
    }

    fn query(&self, name: &str) -> Result<Estimate, BackendError> {
        self.lock().query(name).map_err(|err| classify(&err))
    }

    fn tenants(&self) -> Result<Vec<String>, BackendError> {
        Ok(self
            .lock()
            .names()
            .into_iter()
            .map(str::to_string)
            .collect())
    }
}

/// The `ars-serve` socket path: one blocking HTTP/1.1 request per call
/// via [`client::request`].
#[derive(Debug, Clone, Copy)]
pub struct HttpBackend {
    addr: SocketAddr,
}

impl HttpBackend {
    /// Targets a running [`ars_serve::server::FleetServer`].
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr }
    }

    fn call(&self, method: &str, path: &str, body: &str) -> Result<(u16, String), BackendError> {
        client::request(self.addr, method, path, body)
            .map_err(|err| BackendError::Failed(format!("{method} {path}: {err}")))
    }
}

fn http_error(status: u16, path: &str, body: &str) -> BackendError {
    if status == 422 {
        BackendError::Rejected
    } else {
        BackendError::Failed(format!("{path}: HTTP {status}: {body}"))
    }
}

impl Backend for HttpBackend {
    fn label(&self) -> &'static str {
        "http"
    }

    fn register_spec(&self, name: &str, spec: &ProvisionerSpec) -> Result<(), BackendError> {
        let path = format!("/tenants/{}", client::encode_segment(name));
        let (status, body) = self.call("POST", &path, &spec.to_json())?;
        if status == 201 {
            Ok(())
        } else {
            Err(http_error(status, &path, &body))
        }
    }

    fn update_batch(&self, name: &str, updates: &[Update]) -> Result<(), BackendError> {
        let path = format!("/tenants/{}/update", client::encode_segment(name));
        let mut w = JsonWriter::with_capacity(16 + 8 * updates.len());
        w.raw("{").key("updates").pairs(updates).raw("}");
        let (status, body) = self.call("POST", &path, &w.finish())?;
        if status == 200 {
            Ok(())
        } else {
            Err(http_error(status, &path, &body))
        }
    }

    fn query(&self, name: &str) -> Result<Estimate, BackendError> {
        let path = format!("/tenants/{}/query", client::encode_segment(name));
        let (status, body) = self.call("GET", &path, "")?;
        if status != 200 {
            return Err(http_error(status, &path, &body));
        }
        Estimate::try_from_json(&body)
            .map_err(|err| BackendError::Failed(format!("{path}: bad estimate body: {err}")))
    }

    fn tenants(&self) -> Result<Vec<String>, BackendError> {
        let (status, body) = self.call("GET", "/tenants", "")?;
        if status != 200 {
            return Err(http_error(status, "/tenants", &body));
        }
        let doc = JsonValue::parse_strict(&body)
            .map_err(|err| BackendError::Failed(format!("/tenants: bad body: {err}")))?;
        let names = doc
            .get("tenants")
            .and_then(JsonValue::items)
            .ok_or_else(|| BackendError::Failed("/tenants: missing \"tenants\" array".into()))?;
        names
            .iter()
            .map(|node| {
                node.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| BackendError::Failed("/tenants: non-string name".into()))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_core::spec::ProblemSpec;

    #[test]
    fn in_process_backend_round_trips_register_update_query() {
        let backend = InProcessBackend::new();
        let spec = ProvisionerSpec::new(ProblemSpec::F0, 0.25);
        backend.register_spec("edge-0", &spec).expect("register");
        assert_eq!(backend.tenants().unwrap(), vec!["edge-0".to_string()]);

        let updates: Vec<Update> = (0..100).map(Update::insert).collect();
        backend.update_batch("edge-0", &updates).expect("ingest");
        let estimate = backend.query("edge-0").expect("query");
        assert!(estimate.guarantee.contains(100.0), "{estimate:?}");

        // Out-of-model traffic is the typed rejection, not a failure.
        assert_eq!(
            backend.update_batch("edge-0", &[Update::delete(3)]),
            Err(BackendError::Rejected)
        );
        // Unknown tenants are failures.
        assert!(matches!(
            backend.query("ghost"),
            Err(BackendError::Failed(_))
        ));
    }
}
