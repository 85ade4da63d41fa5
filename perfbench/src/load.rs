//! The load side: two sender threads, each owning half of the tenants.
//!
//! `TenantRuntime` is not `Send`, so every sender compiles the fleet itself
//! (compilation is deterministic) and keeps the tenants whose index has its
//! parity. A sender first ingests the untimed warm prefix into the warm
//! manager, then runs each fixed-rate phase it is handed: an open loop in
//! which request `k` of sender `s` is due at `(2k + s) / rate` after the
//! phase start. A sender sleeps until a request is due and sends it at
//! once when it is behind; latency is then timed from the due time, so a
//! stall is charged to every request it delays (from the wake-up when the
//! sender slept, so the timer's overshoot is not).
//!
//! Spans are taken around calls into each layer only in traced phases;
//! untraced phases take the three timestamps latency needs and no more.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use ars_core::error::ArsError;
use ars_core::estimate::Estimate;
use ars_core::manager::SessionManager;
use ars_serve::client;
use ars_stream::Update;
use ars_workload::{compile_fleet, Backend, BackendError, FleetConfig, HttpBackend, TenantRuntime};

use crate::stats::Acc;

/// Sender threads generating the load.
pub const SENDERS: usize = 2;
/// Every this-many-th request of an HTTP sender is a `GET /metrics` scrape.
const METRICS_EVERY: u64 = 50;
/// Requests per tenant visit on HTTP: one ingest, then this many minus one
/// queries.
const HTTP_VISIT: u32 = 4;

/// Where a phase's requests go.
#[derive(Clone)]
pub enum Target {
    InProcess(Arc<Mutex<SessionManager>>),
    Http(SocketAddr),
}

/// One fixed-rate phase, as handed to both senders.
#[derive(Clone)]
pub struct Phase {
    pub target: Target,
    pub duration: Duration,
    pub rate_rps: f64,
    pub traced: bool,
}

/// One ingest request, kept for the replay checks and the shadow layers.
pub struct Ingest {
    /// Index of the tenant in fleet order.
    pub tenant: usize,
    /// Index of the phase the request belonged to.
    pub phase: usize,
    pub batch: Vec<Update>,
    /// Set when the manager re-provisioned the tenant during this request:
    /// the doubled flip budget it now has.
    pub lambda_after: Option<usize>,
}

/// What one sender measured in one phase.
#[derive(Default)]
pub struct PhaseStats {
    /// Completion minus due time (minus wake-up when the sender slept),
    /// per request.
    pub latencies_us: Vec<f64>,
    /// Completion minus send time.
    pub service: Acc,
    pub late: u64,
    pub max_late: Duration,
    pub attempted: u64,
    /// Transport errors, server errors and guarantee misses.
    pub failed: u64,
    /// Readings that claimed `WithinGuarantee` and missed the truth.
    pub violations: u64,
    /// Batches refused as out-of-model (expected, not failures).
    pub rejected: u64,
    // Traced phases only, below.
    /// `next_batch` + `truth` per request.
    pub generate: Acc,
    /// Time spent acquiring the manager mutex, per request.
    pub lock_wait: Acc,
    /// Mutex held time of `update_batch` / `query` calls.
    pub held_update: Acc,
    pub held_query: Acc,
    /// Time spent releasing the mutex, per request: the unlock wakes a
    /// waiting sender, which may preempt the releasing thread.
    pub release: Acc,
    /// Held time of the `update_batch` calls that re-provisioned.
    pub held_reprovision: Acc,
    /// Client round trips per HTTP route.
    pub rt_update: Acc,
    pub rt_query: Acc,
    pub rt_metrics: Acc,
    /// The bytes of every HTTP request sent.
    pub wire_requests: Vec<Vec<u8>>,
    /// Every reading an HTTP query returned.
    pub readings: Vec<Estimate>,
}

impl PhaseStats {
    pub fn merge(&mut self, other: PhaseStats) {
        self.latencies_us.extend(other.latencies_us);
        self.service.merge(other.service);
        self.late += other.late;
        self.max_late = self.max_late.max(other.max_late);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations += other.violations;
        self.rejected += other.rejected;
        self.generate.merge(other.generate);
        self.lock_wait.merge(other.lock_wait);
        self.held_update.merge(other.held_update);
        self.held_query.merge(other.held_query);
        self.release.merge(other.release);
        self.held_reprovision.merge(other.held_reprovision);
        self.rt_update.merge(other.rt_update);
        self.rt_query.merge(other.rt_query);
        self.rt_metrics.merge(other.rt_metrics);
        self.wire_requests.extend(other.wire_requests);
        self.readings.extend(other.readings);
    }

    /// Adds the span from `from` to `to` when both were taken.
    fn span(acc: &mut Acc, from: Option<Instant>, to: Option<Instant>) {
        if from.is_some() {
            acc.add(gap(from, to));
        }
    }

    /// Scores a reading against the truth and counts a guarantee miss.
    fn score(&mut self, reading: &Estimate, truth: Option<f64>) {
        if let Some(truth) = truth {
            if reading.health.is_trustworthy() && !reading.guarantee.contains(truth) {
                self.violations += 1;
                self.failed += 1;
            }
        }
    }
}

/// A timestamp taken only when tracing.
fn mark(traced: bool) -> Option<Instant> {
    traced.then(Instant::now)
}

/// The time from `from` to `to`; zero unless both were taken.
fn gap(from: Option<Instant>, to: Option<Instant>) -> Duration {
    from.zip(to).map_or(Duration::ZERO, |(from, to)| to - from)
}

pub fn lock(manager: &Mutex<SessionManager>) -> MutexGuard<'_, SessionManager> {
    manager
        .lock()
        .expect("session manager mutex poisoned: a thread panicked inside a manager call")
}

/// One sender's share of the fleet and its progress through it.
pub struct Sender {
    index: usize,
    /// `(fleet index, runtime)` of every tenant this sender owns.
    tenants: Vec<(usize, TenantRuntime)>,
    /// Last flip budget seen per owned tenant.
    lambdas: Vec<usize>,
    cursor: usize,
    /// Position in the current HTTP tenant visit.
    step: u32,
    /// Requests sent over HTTP so far (sets the scrape cadence).
    http_sent: u64,
    pub log: Vec<Ingest>,
}

impl Sender {
    pub fn new(index: usize, config: &FleetConfig) -> Self {
        let tenants: Vec<(usize, TenantRuntime)> = compile_fleet(config)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % SENDERS == index)
            .collect();
        Self {
            index,
            lambdas: vec![0; tenants.len()],
            tenants,
            cursor: 0,
            step: 0,
            http_sent: 0,
            log: Vec::new(),
        }
    }

    /// Ingests `rounds` batches per owned tenant into `manager`, reading
    /// after every batch so adaptive tenants see their published value.
    pub fn warm(&mut self, manager: &Mutex<SessionManager>, rounds: usize) -> Result<(), String> {
        for _ in 0..rounds {
            for (_, tenant) in &mut self.tenants {
                let batch = tenant.next_batch();
                let mut guard = lock(manager);
                match guard.update_batch(tenant.name(), &batch) {
                    Ok(_) | Err(ArsError::Stream(_)) => {}
                    Err(err) => return Err(format!("warm {}: {err}", tenant.name())),
                }
                let reading = guard.query(tenant.name()).map_err(|err| err.to_string())?;
                tenant.observe(reading.value);
            }
        }
        for (slot, (_, tenant)) in self.tenants.iter().enumerate() {
            let guard = lock(manager);
            self.lambdas[slot] = guard
                .session(tenant.name())
                .map_or(0, |s| s.estimator().flip_budget());
        }
        Ok(())
    }

    /// Runs one open-loop phase; `phase_index` tags the logged ingests.
    pub fn run(&mut self, phase: &Phase, phase_index: usize) -> PhaseStats {
        let interval = Duration::from_secs_f64(SENDERS as f64 / phase.rate_rps);
        let offset = interval.mul_f64(self.index as f64 / SENDERS as f64);
        let mut stats = PhaseStats::default();
        let start = Instant::now();
        for k in 0u32.. {
            let due = offset + interval * k;
            if due >= phase.duration {
                break;
            }
            // Latency runs from the due time when the sender was still busy
            // with earlier requests (a stall the system caused), and from
            // the wake-up when it slept: a sleeping sender's timer overshoot
            // belongs to the load generator's host, not the system.
            let now = start.elapsed();
            let asleep = now < due;
            if asleep {
                thread::sleep(due - now);
            }
            let sent = start.elapsed();
            let origin = if asleep { sent } else { due };
            let late = sent.saturating_sub(due);
            // Behind by a whole slot: the next request was due before this
            // one left, which timer noise alone does not cause.
            if late > interval {
                stats.late += 1;
            }
            stats.max_late = stats.max_late.max(late);
            match &phase.target {
                Target::InProcess(manager) => {
                    self.ingest_in_process(manager, phase.traced, phase_index, &mut stats);
                }
                Target::Http(addr) => {
                    self.http_request(*addr, phase.traced, phase_index, &mut stats);
                }
            }
            let done = start.elapsed();
            stats.attempted += 1;
            stats.latencies_us.push((done - origin).as_secs_f64() * 1e6);
            stats.service.add(done - sent);
        }
        stats
    }

    /// One in-process request: the next owned tenant's batch, plus a read
    /// on every 4th batch (every batch for adaptive tenants).
    fn ingest_in_process(
        &mut self,
        manager: &Mutex<SessionManager>,
        traced: bool,
        phase_index: usize,
        stats: &mut PhaseStats,
    ) {
        let slot = self.cursor;
        self.cursor = (self.cursor + 1) % self.tenants.len();
        let (fleet_index, tenant) = &mut self.tenants[slot];

        let t0 = mark(traced);
        let batch = tenant.next_batch();
        let query = tenant.is_adaptive() || tenant.batches_emitted().is_multiple_of(4);
        let truth = if query { tenant.truth() } else { None };
        let t1 = mark(traced);
        PhaseStats::span(&mut stats.generate, t0, t1);

        let mut guard = lock(manager);
        let t2 = mark(traced);
        let result = guard.update_batch(tenant.name(), &batch);
        let t3 = mark(traced);
        let lambda = guard
            .session(tenant.name())
            .map_or(0, |s| s.estimator().flip_budget());
        drop(guard);
        let t4 = mark(traced);
        let mut wait = gap(t1, t2);
        let mut release = gap(t3, t4);
        PhaseStats::span(&mut stats.held_update, t2, t3);
        match result {
            Ok(_) => {}
            Err(ArsError::Stream(_)) => stats.rejected += 1,
            Err(_) => stats.failed += 1,
        }
        let lambda_after = (lambda != self.lambdas[slot]).then_some(lambda);
        if lambda_after.is_some() {
            self.lambdas[slot] = lambda;
            PhaseStats::span(&mut stats.held_reprovision, t2, t3);
        }

        if query {
            let t5 = mark(traced);
            let guard = lock(manager);
            let t6 = mark(traced);
            let reading = guard.query(tenant.name());
            let t7 = mark(traced);
            drop(guard);
            let t8 = mark(traced);
            PhaseStats::span(&mut stats.held_query, t6, t7);
            wait += gap(t5, t6);
            release += gap(t7, t8);
            match reading {
                Ok(reading) => {
                    tenant.observe(reading.value);
                    stats.score(&reading, truth);
                }
                Err(_) => stats.failed += 1,
            }
        }
        if traced {
            stats.lock_wait.add(wait);
            stats.release.add(release);
        }
        self.log.push(Ingest {
            tenant: *fleet_index,
            phase: phase_index,
            batch,
            lambda_after,
        });
    }

    /// One HTTP request: a periodic `/metrics` scrape, or the next step of
    /// the current tenant visit (one small ingest, then reads).
    fn http_request(
        &mut self,
        addr: SocketAddr,
        traced: bool,
        phase_index: usize,
        stats: &mut PhaseStats,
    ) {
        self.http_sent += 1;
        if self.http_sent.is_multiple_of(METRICS_EVERY) {
            if traced {
                stats
                    .wire_requests
                    .push(wire_bytes(addr, "GET", "/metrics", ""));
            }
            let t0 = mark(traced);
            let scraped = client::request(addr, "GET", "/metrics", "");
            PhaseStats::span(&mut stats.rt_metrics, t0, mark(traced));
            if !matches!(scraped, Ok((200, _))) {
                stats.failed += 1;
            }
            return;
        }

        let slot = self.cursor;
        let step = self.step;
        self.step = (self.step + 1) % HTTP_VISIT;
        if self.step == 0 {
            self.cursor = (self.cursor + 1) % self.tenants.len();
        }
        let (fleet_index, tenant) = &mut self.tenants[slot];
        let backend = HttpBackend::new(addr);
        let segment = client::encode_segment(tenant.name());

        if step == 0 {
            let t0 = mark(traced);
            let batch = tenant.next_batch();
            PhaseStats::span(&mut stats.generate, t0, mark(traced));
            if traced {
                let path = format!("/tenants/{segment}/update");
                stats
                    .wire_requests
                    .push(wire_bytes(addr, "POST", &path, &update_body(&batch)));
            }
            let t1 = mark(traced);
            let result = backend.update_batch(tenant.name(), &batch);
            PhaseStats::span(&mut stats.rt_update, t1, mark(traced));
            match result {
                Ok(()) => {}
                Err(BackendError::Rejected) => stats.rejected += 1,
                Err(BackendError::Failed(_)) => stats.failed += 1,
            }
            self.log.push(Ingest {
                tenant: *fleet_index,
                phase: phase_index,
                batch,
                lambda_after: None,
            });
            return;
        }

        let t0 = mark(traced);
        let truth = tenant.truth();
        PhaseStats::span(&mut stats.generate, t0, mark(traced));
        if traced {
            let path = format!("/tenants/{segment}/query");
            stats.wire_requests.push(wire_bytes(addr, "GET", &path, ""));
        }
        let t1 = mark(traced);
        let result = backend.query(tenant.name());
        PhaseStats::span(&mut stats.rt_query, t1, mark(traced));
        match result {
            Ok(reading) => {
                tenant.observe(reading.value);
                stats.score(&reading, truth);
                let lambda = reading.flip_budget.as_raw();
                if lambda != self.lambdas[slot] {
                    self.lambdas[slot] = lambda;
                    let fleet_index = *fleet_index;
                    if let Some(last) = self.log.iter_mut().rev().find(|i| i.tenant == fleet_index)
                    {
                        last.lambda_after = Some(lambda);
                    }
                }
                if traced {
                    stats.readings.push(reading);
                }
            }
            Err(_) => stats.failed += 1,
        }
    }
}

/// The `{"updates":[[item,delta],…]}` body `HttpBackend::update_batch` sends.
fn update_body(updates: &[Update]) -> String {
    let pairs: Vec<String> = updates
        .iter()
        .map(|u| format!("[{},{}]", u.item, u.delta))
        .collect();
    format!("{{\"updates\":[{}]}}", pairs.join(","))
}

/// The request bytes `ars_serve::client::request` writes for a call.
fn wire_bytes(addr: SocketAddr, method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}
