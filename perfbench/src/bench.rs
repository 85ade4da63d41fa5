//! One benchmark run: warm, setup, fixed-rate phases, checks, metrics.

use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ars_core::estimate::{Estimate, Health};
use ars_core::manager::SessionManager;
use ars_serve::http::{read_request, Limits, Response};
use ars_serve::{client, FleetServer, ServerHandle};
use ars_workload::compile_fleet;

use crate::load::{lock, Ingest, Phase, PhaseStats, Sender, Target, SENDERS};
use crate::stats::{median, per, quantile, Acc};
use crate::workloads::Transport;
use crate::{cpu, shadow, Args};

/// Fresh backends brought up before the first fixed-rate phase and again
/// after every phase; `setup_s` is the median of all of them. The host's
/// speed shifts between levels that last seconds, so restores spread over
/// the whole run vary less from run to run than restores bunched at its
/// ends.
const SETUP_REPEATS: usize = 2;
/// Phases the untraced window is cut into, with restores between them.
const SLICES: u32 = 6;
/// A phase in which more than this share of requests left a whole slot
/// late measured a backlogged generator, not the system at its offered
/// rate, and is reported as invalid.
const MAX_LATE_FRACTION: f64 = 0.1;
/// How long the coordinator waits for a sender beyond a phase's length.
const SENDER_GRACE: Duration = Duration::from_secs(60);

/// What a run reports.
pub struct Outcome {
    /// Every bring-up + restore time, in seconds.
    pub setup: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Failed correctness checks; empty on a correct run.
    pub problems: Vec<String>,
    /// Tenants whose restore lost the model-violation flag.
    pub lost_flags: Vec<String>,
}

impl Outcome {
    /// The result line: every value printed with all its digits.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Sender → coordinator messages.
enum Event {
    Warm(Result<(), String>),
    Phase(Box<PhaseStats>),
}

/// The backend the fixed-rate phases drive.
enum Serving {
    InProcess(Arc<Mutex<SessionManager>>),
    Http(ServerHandle),
}

impl Serving {
    fn manager(&self) -> Arc<Mutex<SessionManager>> {
        match self {
            Self::InProcess(manager) => Arc::clone(manager),
            Self::Http(handle) => handle.manager(),
        }
    }

    fn target(&self) -> Target {
        match self {
            Self::InProcess(manager) => Target::InProcess(Arc::clone(manager)),
            Self::Http(handle) => Target::Http(handle.addr()),
        }
    }

    fn shutdown(self) {
        if let Self::Http(handle) = self {
            handle.shutdown();
        }
    }
}

/// One measured phase, as the coordinator saw it.
struct PhaseResult {
    stats: PhaseStats,
    cpu: Duration,
    reprovisions: u64,
    rejections: u64,
    /// Server-side request time from `/metrics` (HTTP traced phase only).
    server: Acc,
}

impl PhaseResult {
    fn cpu_us_per_request(&self) -> f64 {
        per(self.cpu.as_secs_f64() * 1e6, self.stats.attempted as f64)
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let config = workload.config(args.seed);
    let warm = Mutex::new(SessionManager::new());
    let mut names = Vec::new();
    for tenant in compile_fleet(&config) {
        lock(&warm)
            .register_spec(tenant.name(), tenant.spec())
            .map_err(|err| format!("register {}: {err}", tenant.name()))?;
        names.push(tenant.name().to_string());
    }
    let window = Duration::from_secs_f64(args.seconds);
    // Traced half first: it then starts where the untraced run's window
    // starts, before the turnstile budgets have doubled past reach.
    let phases = if args.trace {
        vec![(window / 2, true), (window / 2, false)]
    } else {
        vec![(window / SLICES, false); SLICES as usize]
    };

    thread::scope(|scope| {
        let (event_tx, events) = mpsc::channel();
        let mut commands = Vec::with_capacity(SENDERS);
        let mut senders = Vec::with_capacity(SENDERS);
        for index in 0..SENDERS {
            let (command_tx, command_rx) = mpsc::channel::<Phase>();
            commands.push(command_tx);
            let event_tx = event_tx.clone();
            let (config, warm) = (&config, &warm);
            senders.push(scope.spawn(move || {
                let mut sender = Sender::new(index, config);
                let _ = event_tx.send(Event::Warm(sender.warm(warm, workload.warm_rounds)));
                for (phase_index, phase) in command_rx.iter().enumerate() {
                    let stats = sender.run(&phase, phase_index);
                    let _ = event_tx.send(Event::Phase(Box::new(stats)));
                }
                sender.log
            }));
        }
        drop(event_tx);

        let driven = drive(args, &names, &warm, &phases, &commands, &events);
        // Closing the command channels ends the senders.
        drop(commands);
        let logs: Vec<Vec<Ingest>> = senders
            .into_iter()
            .map(|s| s.join().map_err(|_| "a sender thread panicked".to_string()))
            .collect::<Result<_, _>>()?;
        let (run, serving) = driven?;
        let outcome = finish(args, &names, run, &serving, &logs);
        serving.shutdown();
        outcome
    })
}

/// Everything measured before the senders are joined.
struct Measured {
    snapshot: String,
    snapshot_time: Duration,
    setup: Vec<f64>,
    phases: Vec<PhaseResult>,
    problems: Vec<String>,
    /// Tenants whose restore lost the model-violation flag (see
    /// [`check_restored`]).
    lost_flags: Vec<String>,
}

fn recv(events: &Receiver<Event>, wait: Duration) -> Result<Event, String> {
    events.recv_timeout(wait).map_err(|err| match err {
        RecvTimeoutError::Timeout => "a sender stopped responding".to_string(),
        RecvTimeoutError::Disconnected => "a sender thread exited early".to_string(),
    })
}

/// Warm → snapshot → setup → each fixed-rate phase followed by setup again.
fn drive(
    args: &Args,
    names: &[String],
    warm: &Mutex<SessionManager>,
    phases: &[(Duration, bool)],
    commands: &[mpsc::Sender<Phase>],
    events: &Receiver<Event>,
) -> Result<(Measured, Serving), String> {
    for _ in 0..SENDERS {
        match recv(events, SENDER_GRACE)? {
            Event::Warm(warmed) => warmed?,
            Event::Phase(_) => return Err("a sender skipped the warm prefix".into()),
        }
    }
    let (mut problems, mut lost_flags) = (Vec::new(), Vec::new());
    let (before, snapshot, snapshot_time) = {
        let warm = lock(warm);
        let before = readings(&warm, names)?;
        let t0 = Instant::now();
        let snapshot = warm.snapshot_json();
        (before, snapshot, t0.elapsed())
    };

    let (mut setup, live) = bring_up(
        args.workload.transport,
        &snapshot,
        names,
        &before,
        &mut problems,
        &mut lost_flags,
    )?;

    let manager = live.manager();
    let mut results = Vec::with_capacity(phases.len());
    for &(duration, traced) in phases {
        let scrape = traced.then(|| match &live {
            Serving::Http(handle) => Some(handle.addr()),
            Serving::InProcess(_) => None,
        });
        let server0 = scrape.flatten().map(server_time).transpose()?;
        let (reprovisions0, rejections0) = fleet_counts(&manager);
        let cpu0 = cpu::process_cpu()?;
        let phase = Phase {
            target: live.target(),
            duration,
            rate_rps: args.workload.rate_rps,
            traced,
        };
        for command in commands {
            command
                .send(phase.clone())
                .map_err(|_| "a sender thread exited early".to_string())?;
        }
        let mut stats = PhaseStats::default();
        for _ in 0..SENDERS {
            match recv(events, duration + SENDER_GRACE)? {
                Event::Phase(part) => stats.merge(*part),
                Event::Warm(_) => return Err("a sender warmed twice".into()),
            }
        }
        let cpu = cpu::process_cpu()? - cpu0;
        let (reprovisions1, rejections1) = fleet_counts(&manager);
        let server1 = scrape.flatten().map(server_time).transpose()?;
        let server = match (server0, server1) {
            (Some(a), Some(b)) => Acc {
                total: b.total.saturating_sub(a.total),
                count: b.count.saturating_sub(a.count),
            },
            _ => Acc::default(),
        };
        results.push(PhaseResult {
            stats,
            cpu,
            reprovisions: reprovisions1 - reprovisions0,
            rejections: rejections1 - rejections0,
            server,
        });
        let (later, spare) = bring_up(
            args.workload.transport,
            &snapshot,
            names,
            &before,
            &mut problems,
            &mut lost_flags,
        )?;
        spare.shutdown();
        setup.extend(later);
    }
    Ok((
        Measured {
            snapshot,
            snapshot_time,
            setup,
            phases: results,
            problems,
            lost_flags,
        },
        live,
    ))
}

/// Brings up `SETUP_REPEATS` fresh backends holding the snapshot, checks
/// each one's readings against `before`, and keeps the last one serving.
/// Returns each bring-up + restore time in seconds and the live backend.
fn bring_up(
    transport: Transport,
    snapshot: &str,
    names: &[String],
    before: &[Estimate],
    problems: &mut Vec<String>,
    lost_flags: &mut Vec<String>,
) -> Result<(Vec<f64>, Serving), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut live: Option<Serving> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = live.take() {
            previous.shutdown();
        }
        let t0 = Instant::now();
        let backend = match transport {
            Transport::InProcess => {
                let (manager, _) = restore_in_process(snapshot)?;
                Serving::InProcess(Arc::new(Mutex::new(manager)))
            }
            Transport::Http => {
                let limit = Limits::default().max_body_bytes;
                if snapshot.len() > limit {
                    return Err(format!(
                        "the {} B snapshot exceeds the server's {limit} B body limit",
                        snapshot.len()
                    ));
                }
                let handle = FleetServer::new(SessionManager::new())
                    .spawn()
                    .map_err(|err| format!("spawn server: {err}"))?;
                let restored = client::request(handle.addr(), "POST", "/restore", snapshot);
                let backend = Serving::Http(handle);
                match restored {
                    Ok((200, _)) => backend,
                    Ok((status, body)) => {
                        backend.shutdown();
                        return Err(format!("POST /restore: HTTP {status}: {body}"));
                    }
                    Err(err) => {
                        backend.shutdown();
                        return Err(format!("POST /restore: {err}"));
                    }
                }
            }
        };
        times.push(t0.elapsed().as_secs_f64());
        check_restored(
            &lock(&backend.manager()),
            names,
            before,
            problems,
            lost_flags,
        )?;
        live = Some(backend);
    }
    Ok((times, live.expect("SETUP_REPEATS > 0")))
}

/// A fresh manager holding the snapshot, and how long the restore took.
fn restore_in_process(snapshot: &str) -> Result<(SessionManager, Duration), String> {
    let t0 = Instant::now();
    let mut manager = SessionManager::new();
    manager
        .restore_json(snapshot)
        .map_err(|err| format!("restore: {err}"))?;
    Ok((manager, t0.elapsed()))
}

fn readings(manager: &SessionManager, names: &[String]) -> Result<Vec<Estimate>, String> {
    names
        .iter()
        .map(|name| {
            manager
                .query(name)
                .map_err(|err| format!("query {name}: {err}"))
        })
        .collect()
}

/// Two readings are the same reading bit for bit.
fn same_reading(a: &Estimate, b: &Estimate) -> bool {
    a.value.to_bits() == b.value.to_bits() && a.to_json() == b.to_json()
}

/// The restore lost the session's sticky model-violation flag and nothing
/// else: snapshot format v1 does not carry the flag, so a tenant that read
/// `PromiseViolated` comes back `WithinGuarantee`, every other field equal.
fn lost_violation_flag(after: &Estimate, before: &Estimate) -> bool {
    let mut unflagged = *before;
    unflagged.health = Health::WithinGuarantee;
    before.health == Health::PromiseViolated && same_reading(after, &unflagged)
}

/// Checks restored readings against the snapshotted ones, bit for bit.
/// A reading that differs only by [`lost_violation_flag`] is recorded in
/// `lost_flags` (reported as `restored_exact_fraction`) instead of failing
/// the run; any other difference is a problem.
fn check_restored(
    manager: &SessionManager,
    names: &[String],
    before: &[Estimate],
    problems: &mut Vec<String>,
    lost_flags: &mut Vec<String>,
) -> Result<(), String> {
    for ((name, after), before) in names.iter().zip(readings(manager, names)?).zip(before) {
        if lost_violation_flag(&after, before) {
            if !lost_flags.contains(name) {
                lost_flags.push(name.clone());
            }
        } else if !same_reading(&after, before) {
            let problem = format!(
                "{name}: restored reading {} differs from the snapshotted {}",
                after.to_json(),
                before.to_json()
            );
            // Every restore of the one snapshot repeats the same difference.
            if !problems.contains(&problem) {
                problems.push(problem);
            }
        }
    }
    Ok(())
}

/// Σ re-provisions and Σ refused updates over the fleet.
fn fleet_counts(manager: &Mutex<SessionManager>) -> (u64, u64) {
    lock(manager)
        .health_report()
        .iter()
        .fold((0, 0), |(r, j), h| {
            (r + h.reprovisions as u64, j + h.rejected as u64)
        })
}

/// Sum and count of the server's request-duration histogram.
fn server_time(addr: SocketAddr) -> Result<Acc, String> {
    let body = match client::request(addr, "GET", "/metrics", "") {
        Ok((200, body)) => body,
        Ok((status, _)) => return Err(format!("GET /metrics: HTTP {status}")),
        Err(err) => return Err(format!("GET /metrics: {err}")),
    };
    let sample = |name: &str| -> Result<f64, String> {
        body.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .ok_or_else(|| format!("/metrics has no {name} sample"))
    };
    Ok(Acc {
        total: Duration::from_secs_f64(sample("ars_http_request_duration_seconds_sum")?),
        count: sample("ars_http_request_duration_seconds_count")? as u64,
    })
}

/// Checks and metrics, once the senders have stopped.
fn finish(
    args: &Args,
    names: &[String],
    mut run: Measured,
    serving: &Serving,
    logs: &[Vec<Ingest>],
) -> Result<Outcome, String> {
    let manager = serving.manager();
    let problems = &mut run.problems;
    let phases = &run.phases;
    let attempted: u64 = phases.iter().map(|p| p.stats.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.stats.failed).sum();
    let violations: u64 = phases.iter().map(|p| p.stats.violations).sum();
    if violations > 0 {
        problems.push(format!(
            "{violations} readings claimed WithinGuarantee and missed the exact truth"
        ));
    }
    let rejected_seen: u64 = phases.iter().map(|p| p.stats.rejected).sum();
    let rejected_counted: u64 = phases.iter().map(|p| p.rejections).sum();
    if rejected_seen != rejected_counted {
        problems.push(format!(
            "{rejected_seen} batches were refused as out-of-model but the sessions counted \
             {rejected_counted} rejections"
        ));
    }
    for (i, phase) in phases.iter().enumerate() {
        let late = per(phase.stats.late as f64, phase.stats.attempted as f64);
        if late > MAX_LATE_FRACTION {
            problems.push(format!(
                "phase {i} is invalid: {:.1}% of requests were sent late, so the generator \
                 fell behind its schedule",
                late * 100.0
            ));
        }
    }
    let report = lock(&manager).health_report();
    let final_readings = readings(&lock(&manager), names)?;
    if let Serving::Http(handle) = serving {
        check_http_replay(handle.addr(), names, &run.snapshot, logs, problems)?;
    }

    let metrics = if args.trace {
        layer_metrics(names, &run, logs, &report, &final_readings)?
    } else {
        let latencies: Vec<f64> = phases
            .iter()
            .flat_map(|p| p.stats.latencies_us.iter().copied())
            .collect();
        let cpu: Duration = phases.iter().map(|p| p.cpu).sum();
        vec![
            ("setup_s", median(&run.setup), "s"),
            ("p50_us", median(&latencies), "us"),
            (
                "cpu_us_per_request",
                per(cpu.as_secs_f64() * 1e6, attempted as f64),
                "us",
            ),
            (
                "fleet_space_bytes",
                report.iter().map(|h| h.space_bytes as f64).sum(),
                "bytes",
            ),
            (
                "ok_fraction",
                1.0 - per(failed as f64, attempted as f64),
                "ratio",
            ),
            (
                "restored_exact_fraction",
                1.0 - per(run.lost_flags.len() as f64, names.len() as f64),
                "ratio",
            ),
        ]
    };
    Ok(Outcome {
        setup: run.setup.clone(),
        attempted,
        failed,
        metrics,
        problems: std::mem::take(&mut run.problems),
        lost_flags: std::mem::take(&mut run.lost_flags),
    })
}

/// Replays the fixed-rate ingests in process, from the same snapshot, and
/// checks that every final reading equals the one the server returns.
fn check_http_replay(
    addr: SocketAddr,
    names: &[String],
    snapshot: &str,
    logs: &[Vec<Ingest>],
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let (mut replay, _) = restore_in_process(snapshot)?;
    for ingest in logs.iter().flatten() {
        // Out-of-model batches are refused here exactly as on the server.
        let _ = replay.update_batch(&names[ingest.tenant], &ingest.batch);
    }
    for name in names {
        let path = format!("/tenants/{}/query", client::encode_segment(name));
        let served = match client::request(addr, "GET", &path, "") {
            Ok((200, body)) => body,
            Ok((status, body)) => return Err(format!("GET {path}: HTTP {status}: {body}")),
            Err(err) => return Err(format!("GET {path}: {err}")),
        };
        let local = replay
            .query(name)
            .map_err(|err| format!("replay query {name}: {err}"))?
            .to_json();
        if served != local {
            problems.push(format!(
                "{name}: served reading {served} differs from the in-process replay {local}"
            ));
        }
    }
    Ok(())
}

/// The traced run's per-layer metrics (phase 0 traced, phase 1 untraced).
fn layer_metrics(
    names: &[String],
    run: &Measured,
    logs: &[Vec<Ingest>],
    report: &[ars_core::manager::TenantHealth],
    final_readings: &[Estimate],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let traced = &run.phases[0];
    let untraced = &run.phases[1];
    let t = &traced.stats;

    let (mut start, restore_time) = restore_in_process(&run.snapshot)?;
    let shadow = shadow::replay(&mut start, names, logs, 0)?;
    let ns_per = |d: Duration, n: u64| per(d.as_secs_f64() * 1e9, n as f64);

    // Wire layers, re-timed on what the traced phase sent and received.
    let limits = Limits::default();
    let t0 = Instant::now();
    for bytes in &t.wire_requests {
        read_request(Cursor::new(bytes), &limits).map_err(|err| format!("re-parse: {err}"))?;
    }
    let parse = Acc {
        total: t0.elapsed(),
        count: t.wire_requests.len() as u64,
    };
    let t0 = Instant::now();
    let mut sink = Vec::with_capacity(512);
    for reading in &t.readings {
        sink.clear();
        Response::json(200, reading.to_json())
            .write_to(&mut sink)
            .map_err(|err| format!("encode: {err}"))?;
    }
    let encode = Acc {
        total: t0.elapsed(),
        count: t.readings.len() as u64,
    };
    let mut roundtrip = t.rt_update;
    roundtrip.merge(t.rt_query);
    roundtrip.merge(t.rt_metrics);
    let transport_us = if roundtrip.count > 0 {
        roundtrip.mean_us() - traced.server.mean_us()
    } else {
        0.0
    };

    let spanned = t.generate.total
        + t.lock_wait.total
        + t.held_update.total
        + t.held_query.total
        + t.release.total
        + roundtrip.total;
    let late: u64 = run.phases.iter().map(|p| p.stats.late).sum();
    let sent: u64 = run.phases.iter().map(|p| p.stats.attempted).sum();
    let max_late = run
        .phases
        .iter()
        .map(|p| p.stats.max_late)
        .max()
        .unwrap_or_default();

    Ok(vec![
        ("workload.gen_us", t.generate.mean_us(), "us"),
        (
            "workload.late_fraction",
            per(late as f64, sent as f64),
            "ratio",
        ),
        ("workload.max_late_us", max_late.as_secs_f64() * 1e6, "us"),
        ("manager.lock_wait_us", t.lock_wait.mean_us(), "us"),
        ("manager.update_us", t.held_update.mean_us(), "us"),
        ("manager.query_us", t.held_query.mean_us(), "us"),
        ("manager.release_us", t.release.mean_us(), "us"),
        ("manager.reprovisions", traced.reprovisions as f64, "count"),
        ("manager.reprovision_us", t.held_reprovision.mean_us(), "us"),
        (
            "manager.snapshot_ms",
            run.snapshot_time.as_secs_f64() * 1e3,
            "ms",
        ),
        ("manager.snapshot_bytes", run.snapshot.len() as f64, "bytes"),
        ("manager.restore_ms", restore_time.as_secs_f64() * 1e3, "ms"),
        (
            "session.validate_ns_per_update",
            ns_per(shadow.validate, shadow.validated),
            "ns",
        ),
        ("session.rejections", traced.rejections as f64, "count"),
        (
            "engine.ingest_ns_per_update",
            ns_per(shadow.ingest, shadow.ingested),
            "ns",
        ),
        (
            "engine.ns_per_update_per_copy",
            per(shadow.ingest_per_copy * 1e9, shadow.ingested as f64),
            "ns",
        ),
        (
            "engine.copies",
            final_readings.iter().map(|r| r.copies as f64).sum(),
            "count",
        ),
        (
            "engine.output_changes",
            report.iter().map(|h| h.flips_used as f64).sum(),
            "count",
        ),
        (
            "engine.query_ns",
            ns_per(shadow.query, shadow.queries),
            "ns",
        ),
        ("serve.roundtrip_update_us", t.rt_update.mean_us(), "us"),
        ("serve.roundtrip_query_us", t.rt_query.mean_us(), "us"),
        ("serve.metrics_scrape_us", t.rt_metrics.mean_us(), "us"),
        ("serve.server_us", traced.server.mean_us(), "us"),
        ("serve.parse_us", parse.mean_us(), "us"),
        ("serve.encode_us", encode.mean_us(), "us"),
        ("serve.transport_us", transport_us, "us"),
        ("request_p99_us", quantile(&t.latencies_us, 0.99), "us"),
        ("request_samples", t.latencies_us.len() as f64, "count"),
        (
            "trace.overhead",
            per(traced.cpu_us_per_request(), untraced.cpu_us_per_request()),
            "ratio",
        ),
        (
            "trace.span_coverage",
            per(spanned.as_secs_f64(), t.service.total.as_secs_f64()),
            "ratio",
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_core::estimate::FlipBudget;

    fn reading(value: f64, health: Health) -> Estimate {
        let mut estimate = Estimate::new(value, 0.25, false, 11, FlipBudget::Bounded(1788), 24);
        estimate.health = health;
        estimate
    }

    #[test]
    fn only_a_dropped_violation_flag_counts_as_a_lost_flag() {
        let violated = reading(732.05, Health::PromiseViolated);
        assert!(lost_violation_flag(
            &reading(732.05, Health::WithinGuarantee),
            &violated
        ));
        // Any other change, or a flag that was never set, is not the defect.
        assert!(!lost_violation_flag(
            &reading(732.06, Health::WithinGuarantee),
            &violated
        ));
        assert!(!lost_violation_flag(&violated, &violated));
        assert!(!lost_violation_flag(
            &reading(732.05, Health::WithinGuarantee),
            &reading(732.05, Health::BudgetExhausted)
        ));
    }
}
