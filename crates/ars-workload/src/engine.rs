//! The open-loop RPS-ramp load engine.
//!
//! A hand-rolled `std::thread` + channel pool, shaped like the classic
//! open-loop benchmark drivers: the coordinator paces job *generation*
//! against a wall-clock schedule (`start + k·interval` for job `k`) and
//! never waits for responses before generating the next job — so when the
//! backend saturates, queues grow and the measured achieved rate falls
//! below the offered rate instead of the driver politely slowing down.
//! That gap is exactly what [`crate::knee::detect_knee`] looks for.
//!
//! Two deliberate deviations from a pure open loop, both in service of
//! determinism (see [`crate::fleet`]):
//!
//! * **Tenant→worker affinity.** Jobs for tenant `i` always go to worker
//!   `i mod workers`, so each tenant's batches are ingested in generation
//!   order and a job's piggybacked query reads exactly the prefix its
//!   ground truth was computed against.
//! * **Depth-1 pipelining for adaptive tenants.** A dip-hunter's next
//!   batch depends on the reading published after its previous one, so at
//!   most one of its jobs is in flight; the round-robin scheduler simply
//!   skips it (and offers the slot to honest tenants) until the result
//!   comes back. An all-adaptive fleet therefore degrades to closed-loop
//!   — and shows up as saturation, which is honest: that *is* its maximum
//!   self-consistent rate.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ars_stream::Update;

use crate::backend::{Backend, BackendError};
use crate::config::FleetConfig;
use crate::fleet::{compile_fleet, TenantRuntime};

/// One ingest request (plus optional piggybacked query), generated by the
/// coordinator and executed by a worker.
struct Job {
    tenant: usize,
    name: String,
    updates: Vec<Update>,
    query: bool,
    /// Exact answer over the tenant's stream after this batch; `Some`
    /// only when the reading should be scored against its guarantee.
    truth: Option<f64>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Ingested,
    Rejected,
    Failed,
}

struct JobResult {
    tenant: usize,
    updates: u64,
    latency_us: u64,
    outcome: Outcome,
    reading: Option<f64>,
    scored: bool,
    violation: bool,
}

/// Everything measured during one ramp step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepReport {
    /// The scheduled request rate.
    pub offered_rps: f64,
    /// Requests completed divided by the step's true wall-clock span
    /// (send window *plus* drain — a backlogged backend pays for its
    /// queue here).
    pub achieved_rps: f64,
    /// Requests sent.
    pub requests: u64,
    /// Updates accepted by the backend (rejected batches excluded).
    pub ingested_updates: u64,
    /// Median request latency (ingest + piggybacked query), microseconds.
    pub p50_us: u64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Transport/server failures.
    pub errors: u64,
    /// Out-of-model batches the backend (correctly) refused.
    pub rejections: u64,
    /// Readings scored against ground truth.
    pub queries: u64,
    /// Scored readings whose guarantee interval missed the truth while
    /// the health flag still claimed trustworthiness.
    pub guarantee_violations: u64,
}

impl StepReport {
    /// `achieved / offered` — the saturation signal.
    #[must_use]
    pub fn achieved_fraction(&self) -> f64 {
        if self.offered_rps > 0.0 {
            self.achieved_rps / self.offered_rps
        } else {
            1.0
        }
    }

    /// Failed requests as a fraction of all requests.
    #[must_use]
    pub fn error_fraction(&self) -> f64 {
        if self.requests > 0 {
            self.errors as f64 / self.requests as f64
        } else {
            0.0
        }
    }

    /// Guarantee misses as a fraction of scored readings.
    #[must_use]
    pub fn violation_fraction(&self) -> f64 {
        if self.queries > 0 {
            self.guarantee_violations as f64 / self.queries as f64
        } else {
            0.0
        }
    }
}

/// Runs a [`FleetConfig`]'s ramp schedule against one [`Backend`].
pub struct RampEngine {
    config: FleetConfig,
}

impl RampEngine {
    /// Builds an engine for the config.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        Self { config }
    }

    /// The config in force.
    #[must_use]
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Compiles the fleet, registers every tenant, and runs each ramp
    /// step in order. Registration errors abort; per-request errors
    /// during a step are counted in its [`StepReport`] instead.
    pub fn run(&self, backend: &Arc<dyn Backend>) -> Result<Vec<StepReport>, BackendError> {
        let mut fleet = compile_fleet(&self.config);
        for tenant in &fleet {
            backend.register_spec(tenant.name(), &tenant.spec())?;
        }
        let mut steps = Vec::with_capacity(self.config.ramp.offered_rates().len());
        for offered in self.config.ramp.offered_rates() {
            steps.push(self.run_step(backend, &mut fleet, offered));
        }
        Ok(steps)
    }

    fn run_step(
        &self,
        backend: &Arc<dyn Backend>,
        fleet: &mut [TenantRuntime],
        offered_rps: f64,
    ) -> StepReport {
        let workers = self.config.ramp.workers.max(1);
        let window = Duration::from_millis(self.config.ramp.step_ms);
        let interval = Duration::from_secs_f64(1.0 / offered_rps);
        let target_jobs = ((window.as_secs_f64() * offered_rps).round() as u64).max(1);

        let mut tally = StepTally::default();
        let elapsed = thread::scope(|scope| {
            let (result_tx, result_rx) = mpsc::channel::<JobResult>();
            let mut job_txs: Vec<Sender<Job>> = Vec::with_capacity(workers);
            for _ in 0..workers {
                let (tx, rx) = mpsc::channel::<Job>();
                job_txs.push(tx);
                let backend = Arc::clone(backend);
                let results = result_tx.clone();
                scope.spawn(move || worker_loop(&*backend, &rx, &results));
            }
            drop(result_tx);

            let start = Instant::now();
            let mut sent = 0u64;
            let mut cursor = 0usize;
            let mut in_flight = vec![false; fleet.len()];

            while sent < target_jobs {
                // Open-loop pacing: job k is due at start + k·interval;
                // when behind schedule, send immediately (catch up).
                let due = interval.mul_f64(sent as f64);
                let now = start.elapsed();
                if now < due {
                    drain(&result_rx, fleet, &mut in_flight, &mut tally, false);
                    thread::sleep((due - now).min(Duration::from_millis(1)));
                    continue;
                }

                let picked = (0..fleet.len())
                    .map(|probe| (cursor + probe) % fleet.len())
                    .find(|&idx| !(fleet[idx].is_adaptive() && in_flight[idx]));
                let Some(idx) = picked else {
                    // Every tenant is adaptive with a job in flight:
                    // closed-loop wait for any reading to come back.
                    drain(&result_rx, fleet, &mut in_flight, &mut tally, true);
                    continue;
                };
                cursor = (idx + 1) % fleet.len();
                let job = make_job(fleet, idx);
                in_flight[idx] = true;
                // A send can only fail if the worker panicked; the job is
                // then counted as a failure on drain timeout below.
                if job_txs[idx % workers].send(job).is_err() {
                    tally.errors += 1;
                    in_flight[idx] = false;
                }
                sent += 1;
                drain(&result_rx, fleet, &mut in_flight, &mut tally, false);
            }

            drop(job_txs);
            // Drain everything still queued or in flight; the clock keeps
            // running, so a backlog depresses the achieved rate.
            while let Ok(result) = result_rx.recv() {
                absorb(result, fleet, &mut in_flight, &mut tally);
            }
            start.elapsed()
        });

        tally.into_report(offered_rps, elapsed)
    }
}

#[derive(Default)]
struct StepTally {
    requests: u64,
    ingested_updates: u64,
    latencies_us: Vec<u64>,
    errors: u64,
    rejections: u64,
    queries: u64,
    guarantee_violations: u64,
}

impl StepTally {
    fn into_report(mut self, offered_rps: f64, elapsed: Duration) -> StepReport {
        self.latencies_us.sort_unstable();
        let achieved_rps = if elapsed.as_secs_f64() > 0.0 {
            self.requests as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        StepReport {
            offered_rps,
            achieved_rps,
            requests: self.requests,
            ingested_updates: self.ingested_updates,
            p50_us: percentile(&self.latencies_us, 50.0),
            p95_us: percentile(&self.latencies_us, 95.0),
            p99_us: percentile(&self.latencies_us, 99.0),
            errors: self.errors,
            rejections: self.rejections,
            queries: self.queries,
            guarantee_violations: self.guarantee_violations,
        }
    }
}

/// Nearest-rank percentile over an already-sorted sample (0 when empty).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn make_job(fleet: &mut [TenantRuntime], idx: usize) -> Job {
    let tenant = &mut fleet[idx];
    let updates = tenant.next_batch();
    // Adaptive tenants query every batch (the protocol needs the
    // reading); everyone else every 4th, enough samples for accuracy
    // scoring without doubling the request cost.
    let query = tenant.is_adaptive() || tenant.batches_emitted().is_multiple_of(4);
    let truth = if query { tenant.truth() } else { None };
    Job {
        tenant: idx,
        name: tenant.name().to_string(),
        updates,
        query,
        truth,
    }
}

fn drain(
    rx: &Receiver<JobResult>,
    fleet: &mut [TenantRuntime],
    in_flight: &mut [bool],
    tally: &mut StepTally,
    block: bool,
) {
    if block {
        match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(result) => absorb(result, fleet, in_flight, tally),
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return,
        }
    }
    while let Ok(result) = rx.try_recv() {
        absorb(result, fleet, in_flight, tally);
    }
}

fn absorb(
    result: JobResult,
    fleet: &mut [TenantRuntime],
    in_flight: &mut [bool],
    tally: &mut StepTally,
) {
    in_flight[result.tenant] = false;
    if let Some(reading) = result.reading {
        fleet[result.tenant].observe(reading);
    }
    tally.requests += 1;
    tally.latencies_us.push(result.latency_us);
    match result.outcome {
        Outcome::Ingested => tally.ingested_updates += result.updates,
        Outcome::Rejected => tally.rejections += 1,
        Outcome::Failed => tally.errors += 1,
    }
    if result.scored {
        tally.queries += 1;
        if result.violation {
            tally.guarantee_violations += 1;
        }
    }
}

fn worker_loop(backend: &dyn Backend, jobs: &Receiver<Job>, results: &Sender<JobResult>) {
    for job in jobs.iter() {
        let started = Instant::now();
        let mut outcome = match backend.update_batch(&job.name, &job.updates) {
            Ok(()) => Outcome::Ingested,
            Err(BackendError::Rejected) => Outcome::Rejected,
            Err(BackendError::Failed(_)) => Outcome::Failed,
        };
        let mut reading = None;
        let mut scored = false;
        let mut violation = false;
        if job.query && outcome != Outcome::Failed {
            match backend.query(&job.name) {
                Ok(estimate) => {
                    reading = Some(estimate.value);
                    if let Some(truth) = job.truth {
                        scored = true;
                        violation =
                            estimate.health.is_trustworthy() && !estimate.guarantee.contains(truth);
                    }
                }
                Err(_) => outcome = Outcome::Failed,
            }
        }
        let sent = results.send(JobResult {
            tenant: job.tenant,
            updates: job.updates.len() as u64,
            latency_us: started.elapsed().as_micros() as u64,
            outcome,
            reading,
            scored,
            violation,
        });
        if sent.is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InProcessBackend;
    use crate::config::{KneeConfig, RampConfig, TenantBehavior, TenantGroup};
    use ars_core::spec::{ProblemSpec, ProvisionerSpec};
    use ars_stream::generator::WorkloadSpec;

    fn tiny_config(behavior: TenantBehavior) -> FleetConfig {
        FleetConfig {
            seed: 11,
            ramp: RampConfig {
                initial_rps: 200.0,
                increment_rps: 200.0,
                max_rps: 400.0,
                step_ms: 100,
                workers: 2,
            },
            knee: KneeConfig::default(),
            groups: vec![TenantGroup {
                name: "t".into(),
                count: 2,
                behavior,
                batch: 16,
                spec: ProvisionerSpec::new(ProblemSpec::F0, 0.25),
                workload: WorkloadSpec::Zipf {
                    domain: 1 << 10,
                    exponent: 1.1,
                },
            }],
        }
    }

    #[test]
    fn honest_ramp_records_clean_steps() {
        let engine = RampEngine::new(tiny_config(TenantBehavior::Honest));
        let backend: Arc<dyn Backend> = Arc::new(InProcessBackend::new());
        let steps = engine.run(&backend).expect("ramp runs");
        assert_eq!(steps.len(), 2);
        for step in &steps {
            assert!(step.requests > 0);
            assert_eq!(step.errors, 0, "{step:?}");
            assert_eq!(step.rejections, 0, "{step:?}");
            assert!(step.queries > 0, "{step:?}");
            assert_eq!(step.guarantee_violations, 0, "honest F0 stays in band");
            assert!(step.ingested_updates >= 16 * step.requests - 16);
            assert!(step.achieved_rps > 0.0);
        }
    }

    #[test]
    fn violating_ramp_counts_rejections_not_errors() {
        let engine = RampEngine::new(tiny_config(TenantBehavior::ModelViolating));
        let backend: Arc<dyn Backend> = Arc::new(InProcessBackend::new());
        let steps = engine.run(&backend).expect("ramp runs");
        let rejections: u64 = steps.iter().map(|s| s.rejections).sum();
        let errors: u64 = steps.iter().map(|s| s.errors).sum();
        assert!(rejections > 0, "violation period must trigger within ramp");
        assert_eq!(errors, 0, "model rejections are not transport errors");
    }

    #[test]
    fn adaptive_ramp_stays_depth_one_and_completes() {
        let engine = RampEngine::new(tiny_config(TenantBehavior::DipHunter));
        let backend: Arc<dyn Backend> = Arc::new(InProcessBackend::new());
        let steps = engine.run(&backend).expect("ramp runs");
        for step in &steps {
            assert!(step.requests > 0);
            assert_eq!(step.errors, 0, "{step:?}");
            // Adaptive tenants query every batch.
            assert_eq!(step.queries, step.requests, "{step:?}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 99.0), 0);
        assert_eq!(percentile(&[7], 50.0), 7);
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sample, 50.0), 51);
        assert_eq!(percentile(&sample, 99.0), 99);
    }
}
