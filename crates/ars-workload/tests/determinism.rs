//! The workload generator's reproducibility contract: the same JSON
//! config + seed compiles to byte-identical per-tenant streams — across
//! runs, and across the in-process and HTTP backends.
//!
//! The second half is the strong claim. An adaptive tenant's stream
//! depends on the readings it observes, so byte-identical streams require
//! the two backends to publish *identical* readings for identical
//! prefixes: the estimators are deterministic seeded sketches, and the
//! HTTP path serializes `f64`s in shortest round-trip form, so the value
//! survives the wire exactly. Any regression in either property shows up
//! here as a stream divergence.

use std::collections::BTreeMap;

use ars_core::manager::SessionManager;
use ars_serve::server::FleetServer;
use ars_stream::generator::WorkloadSpec;
use ars_stream::Update;
use ars_workload::{
    compile_fleet, Backend, BackendError, FleetConfig, HttpBackend, InProcessBackend,
    TenantBehavior, TenantGroup,
};

fn mixed_fleet_json() -> String {
    r#"{
        "seed": 2020,
        "groups": [
            {"name": "edge", "count": 2, "behavior": "honest", "batch": 32,
             "spec": {"problem": "f0", "epsilon": 0.25},
             "workload": {"kind": "zipf", "domain": 4096, "exponent": 1.1}},
            {"name": "attacker", "count": 1, "behavior": "dip-hunter", "batch": 32,
             "spec": {"problem": "f0", "epsilon": 0.25},
             "workload": {"kind": "uniform", "domain": 4096}},
            {"name": "rogue", "count": 1, "behavior": "model-violating", "batch": 32,
             "spec": {"problem": "f0", "epsilon": 0.25},
             "workload": {"kind": "packet-trace", "domain": 4096, "active_flows": 8,
                          "tail_exponent": 1.3, "burst": 0.5}}
        ]
    }"#
    .to_string()
}

/// Drives the fleet protocol (generate → ingest → query → observe) for
/// `batches` rounds per tenant; returns every generated update and every
/// observed reading, both per tenant in protocol order.
#[allow(clippy::type_complexity)]
fn drive(
    backend: &dyn Backend,
    config: &FleetConfig,
    batches: usize,
) -> (BTreeMap<String, Vec<Update>>, BTreeMap<String, Vec<f64>>) {
    let mut fleet = compile_fleet(config);
    for tenant in &fleet {
        backend
            .register_spec(tenant.name(), &tenant.spec())
            .expect("register");
    }
    let mut streams: BTreeMap<String, Vec<Update>> = BTreeMap::new();
    let mut readings: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for _ in 0..batches {
        for tenant in fleet.iter_mut() {
            let batch = tenant.next_batch();
            streams
                .entry(tenant.name().to_string())
                .or_default()
                .extend_from_slice(&batch);
            match backend.update_batch(tenant.name(), &batch) {
                Ok(()) | Err(BackendError::Rejected) => {}
                Err(err) => panic!("{}: {err}", tenant.name()),
            }
            let estimate = backend.query(tenant.name()).expect("query");
            readings
                .entry(tenant.name().to_string())
                .or_default()
                .push(estimate.value);
            tenant.observe(estimate.value);
        }
    }
    (streams, readings)
}

#[test]
fn same_config_and_seed_reproduces_streams_across_runs() {
    let config = FleetConfig::try_from_json(&mixed_fleet_json()).expect("config");
    let (first, first_readings) = drive(&InProcessBackend::new(), &config, 20);
    let (second, second_readings) = drive(&InProcessBackend::new(), &config, 20);
    assert_eq!(first.len(), 4, "2 honest + 1 adaptive + 1 violating");
    for updates in first.values() {
        assert_eq!(updates.len(), 20 * 32);
    }
    assert_eq!(first, second, "reruns must be byte-identical");
    assert_eq!(first_readings, second_readings, "readings too");

    // A different master seed moves every seeded stream. (The dip hunter
    // is excluded: pre-lock it deterministically probes fresh items
    // whatever the seed — its stream varies with the *readings*, which
    // the cross-backend test below pins.)
    let mut reseeded = config.clone();
    reseeded.seed ^= 0xDEAD_BEEF;
    let (third, _) = drive(&InProcessBackend::new(), &reseeded, 20);
    for (name, updates) in &first {
        if name.starts_with("attacker") {
            continue;
        }
        assert_ne!(updates, &third[name], "{name}: seed must matter");
    }
}

#[test]
fn both_backends_observe_the_same_streams_and_readings() {
    let config = FleetConfig::try_from_json(&mixed_fleet_json()).expect("config");
    // Enough rounds to push the dip hunter past its pre-lock count floor
    // (2·batch/ε = 256 distinct items ⇒ 8 batches) so its stream has
    // genuinely depended on the observed readings by the end.
    let rounds = 20;
    let (in_process, in_process_readings) = drive(&InProcessBackend::new(), &config, rounds);

    let handle = FleetServer::new(SessionManager::new())
        .spawn()
        .expect("spawn");
    let (over_http, http_readings) = drive(&HttpBackend::new(handle.addr()), &config, rounds);
    handle.shutdown();

    assert_eq!(
        in_process, over_http,
        "adaptive streams must not depend on the transport"
    );
    // The strong property behind that: the readings the two backends
    // published were bit-identical — the HTTP path's shortest-round-trip
    // f64 serialization lost nothing. (This is what keeps an adaptive
    // tenant's attack trajectory transport-independent even after it
    // locks onto an estimator error.)
    assert_eq!(in_process_readings, http_readings);
    let attacker_readings = &in_process_readings["attacker-0"];
    assert!(
        attacker_readings.iter().any(|&r| r > 0.0),
        "the dip hunter observed real readings, not placeholders"
    );
}

#[test]
fn fleet_config_survives_a_full_parse_emit_parse_cycle() {
    let config = FleetConfig::try_from_json(&mixed_fleet_json()).expect("config");
    let emitted = config.to_json();
    let reparsed = FleetConfig::try_from_json(&emitted).expect("emitted config parses");
    assert_eq!(reparsed, config);
    assert_eq!(reparsed.to_json(), emitted, "emission is a fixed point");
    // And the embedded workload specs build working generators.
    for group in &reparsed.groups {
        let mut generator = group.workload.build(7);
        assert_eq!(
            ars_stream::generator::Generator::take_updates(&mut generator, 8).len(),
            8
        );
    }
}

#[test]
fn compiled_workload_specs_cover_the_new_reference_shapes() {
    // Regression guard for the satellite generators: a fleet config can
    // name packet-trace and query-log shapes and get distinct streams.
    let group = |name: &str, workload: WorkloadSpec| TenantGroup {
        name: name.into(),
        count: 1,
        behavior: TenantBehavior::Honest,
        batch: 64,
        spec: ars_core::spec::ProvisionerSpec::new(ars_core::spec::ProblemSpec::F0, 0.25),
        workload,
    };
    let config = FleetConfig {
        seed: 5,
        ramp: ars_workload::RampConfig::default(),
        knee: ars_workload::KneeConfig::default(),
        groups: vec![
            group(
                "trace",
                WorkloadSpec::PacketTrace {
                    domain: 1 << 12,
                    active_flows: 8,
                    tail_exponent: 1.3,
                    burst: 0.5,
                },
            ),
            group(
                "queries",
                WorkloadSpec::QueryLog {
                    domain: 1 << 12,
                    exponent: 1.1,
                    wave_period: 1024,
                },
            ),
        ],
    };
    let (streams, _) = drive(&InProcessBackend::new(), &config, 4);
    assert_ne!(streams["trace-0"], streams["queries-0"]);
}
