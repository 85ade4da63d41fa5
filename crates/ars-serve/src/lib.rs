//! ars-serve: the network serving surface for the adversarially robust
//! streaming fleet.
//!
//! [`ars_core::manager::SessionManager`] already serves a fleet of named
//! robust-estimator sessions in-process; this crate puts it behind a
//! hand-rolled HTTP/1.1 server (plain `std::net`, no external
//! dependencies — the build environment vendors no HTTP crate) so
//! ingestion, typed readings, health, Prometheus-style metrics and
//! snapshot/restore are reachable over a socket.
//!
//! * [`server::FleetServer`] — the listener, worker pool and router; one
//!   mutex-guarded manager shared by every worker. Connections are
//!   persistent (HTTP/1.1's default): a worker serves request after
//!   request on one connection, and at most `workers − 1` connections
//!   are kept open between requests, so a new connection never waits on
//!   an idle one.
//! * [`http`] — bounded request parsing and response framing; every
//!   malformed or oversized request is a typed 4xx, never a panic, and
//!   closes its connection.
//! * [`metrics`] — the request and connection counters, latency
//!   histogram and per-tenant gauges behind `GET /metrics`.
//! * [`client`] — the minimal blocking client the tests, example and
//!   bench drive the real socket path with; it reuses one idle
//!   connection per thread.
//!
//! Snapshot/restore rides on [`ars_core::manager::SessionManager::snapshot_json`]:
//! tenants registered from a declarative [`ars_core::spec::ProvisionerSpec`]
//! (the only kind `POST /tenants/{name}` can create) round-trip through
//! `GET /snapshot` → `POST /restore` with bitwise-identical readings for
//! every engine-backed estimator.
//!
//! ```
//! use ars_serve::client;
//! use ars_serve::server::FleetServer;
//! use ars_core::manager::SessionManager;
//!
//! let handle = FleetServer::new(SessionManager::new()).spawn().unwrap();
//! let addr = handle.addr();
//! let (status, body) =
//!     client::request(addr, "POST", "/tenants/edge", "{\"problem\":\"f0\",\"epsilon\":0.25}")
//!         .unwrap();
//! assert_eq!(status, 201);
//! assert!(body.contains("\"registered\":\"edge\""));
//! let (status, _) = client::request(addr, "GET", "/health", "").unwrap();
//! assert_eq!(status, 200);
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod metrics;
pub mod server;

pub use http::{HttpError, Limits, Request, Response};
pub use metrics::MetricsRegistry;
pub use server::{FleetServer, ServerConfig, ServerHandle};
