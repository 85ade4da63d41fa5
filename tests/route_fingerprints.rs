//! Bit-for-bit fingerprints of every (problem, strategy) route the builder
//! admits.
//!
//! Each route streams a seeded 2,000-update workload, in batches of
//! [`BATCH`] updates, in the stream model its theorem is stated over.
//! After every batch the typed reading's JSON (`query().to_json()`) is
//! folded into a 64-bit FNV-1a digest, and the final `space_bytes()` is
//! folded in last. The table below pins those digests, so any change to
//! how a route is assembled (which core, which factory, which per-copy δ,
//! which plan) that alters a single published bit fails here.
//!
//! A change that is *meant* to alter a route's numbers re-captures the
//! table: the failure message prints the whole table as measured.

use adversarial_robust_streaming::robust::{
    CryptoBackend, DynRobust, EntropyMethod, RobustBuilder, RobustEstimator, Strategy,
};
use adversarial_robust_streaming::sketch::Estimator;
use adversarial_robust_streaming::stream::generator::{
    BoundedDeletionGenerator, Generator, TurnstileWaveGenerator, ZipfGenerator,
};
use adversarial_robust_streaming::stream::Update;

/// Updates per ingested batch.
const BATCH: usize = 16;
/// Updates per workload.
const UPDATES: usize = 2_000;
/// Domain of the insertion-only workloads.
const DOMAIN: u64 = 1 << 12;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn builder() -> RobustBuilder {
    RobustBuilder::new(0.3)
        .stream_length(UPDATES as u64)
        .domain(DOMAIN)
        .max_frequency(1 << 10)
        .seed(2_024)
}

fn insertion_only() -> Vec<Update> {
    ZipfGenerator::new(DOMAIN, 1.1, 17).take_updates(UPDATES)
}

/// Streams `updates` into `estimator` in batches and digests every reading
/// plus the final space.
fn fingerprint(mut estimator: DynRobust, updates: &[Update]) -> u64 {
    let mut digest = FNV_OFFSET;
    for batch in updates.chunks(BATCH) {
        estimator.update_batch(batch);
        digest = fnv1a(digest, estimator.query().to_json().as_bytes());
    }
    fnv1a(digest, &(estimator.space_bytes() as u64).to_le_bytes())
}

/// One route: `(problem, strategy, estimator, workload)`.
type Route = (&'static str, &'static str, DynRobust, Vec<Update>);

/// Every route the builder admits, with the workload of its stream model.
fn routes() -> Vec<Route> {
    let b = builder();
    let pools = [
        ("switching", Strategy::SketchSwitching),
        ("paths", Strategy::ComputationPaths),
        ("dp-aggregation", Strategy::DpAggregation),
        ("difference-estimators", Strategy::DifferenceEstimators),
    ];
    let crypto = [
        ("crypto-chacha", Strategy::Crypto(CryptoBackend::ChaChaPrf)),
        (
            "crypto-random-oracle",
            Strategy::Crypto(CryptoBackend::RandomOracle),
        ),
    ];
    let mut routes: Vec<Route> = Vec::new();
    for (name, strategy) in pools.into_iter().chain(crypto) {
        routes.push((
            "f0",
            name,
            b.strategy(strategy).f0().unwrap(),
            insertion_only(),
        ));
    }
    for (name, strategy) in pools {
        routes.push((
            "fp1",
            name,
            b.strategy(strategy).fp(1.0).unwrap(),
            insertion_only(),
        ));
        routes.push((
            "fp2",
            name,
            b.strategy(strategy).fp(2.0).unwrap(),
            insertion_only(),
        ));
    }
    routes.push((
        "fp3-large",
        "paths",
        b.fp_large(3.0).unwrap(),
        insertion_only(),
    ));
    routes.push((
        "turnstile-fp2",
        "paths",
        b.turnstile_fp(2.0, 64).unwrap(),
        TurnstileWaveGenerator::new(300).take_updates(UPDATES),
    ));
    routes.push((
        "bounded-deletion-fp1",
        "paths",
        b.bounded_deletion_fp(1.0, 2.0).unwrap(),
        BoundedDeletionGenerator::new(2.0, 300, 23).take_updates(UPDATES),
    ));
    for (problem, method) in [
        ("entropy-renyi", EntropyMethod::Renyi),
        ("entropy-sampled", EntropyMethod::Sampled),
    ] {
        let estimator = b.entropy_method(method).entropy().unwrap();
        routes.push((problem, "switching", estimator, insertion_only()));
    }
    // At ε = 0.6 the preset's δ = 1/4 provisions a smaller tracking
    // ensemble than the default δ would, so this row also pins the δ.
    let preset = RobustBuilder::theorem_10_1(0.6)
        .stream_length(UPDATES as u64)
        .domain(DOMAIN)
        .seed(2_024)
        .f0()
        .unwrap();
    routes.push(("f0", "theorem-10-1", preset, insertion_only()));
    routes
}

/// `(problem, strategy, digest)`, in the order [`routes`] builds them.
const EXPECTED: &[(&str, &str, u64)] = &[
    ("f0", "switching", 0x74479f44204178c3),
    ("f0", "paths", 0x97f0a1a13bdbbef0),
    ("f0", "dp-aggregation", 0x0d1607c13dac2d4a),
    ("f0", "difference-estimators", 0x233a16c011fe4547),
    ("f0", "crypto-chacha", 0xa829dae11fac8092),
    ("f0", "crypto-random-oracle", 0x27ef5439098a5c66),
    ("fp1", "switching", 0x8fc6299147aa25c8),
    ("fp2", "switching", 0x73d65d1e6302044c),
    ("fp1", "paths", 0x0fe22cd83b3c566a),
    ("fp2", "paths", 0x3fbaedb1189bd18a),
    ("fp1", "dp-aggregation", 0x6856ed3b900c7ed9),
    ("fp2", "dp-aggregation", 0xd2db999ffe223ee9),
    ("fp1", "difference-estimators", 0x457d26511d467d52),
    ("fp2", "difference-estimators", 0x2e199b6725fbad8d),
    ("fp3-large", "paths", 0xb91113183457c36b),
    ("turnstile-fp2", "paths", 0xf1f846387ec16a49),
    ("bounded-deletion-fp1", "paths", 0xb6419fbd1ee5bb0f),
    ("entropy-renyi", "switching", 0x899fc94117d8de4a),
    ("entropy-sampled", "switching", 0x51a9614708bcae1f),
    ("f0", "theorem-10-1", 0x2d2e825ce5bf3388),
];

#[test]
fn every_route_reproduces_its_fingerprint() {
    let measured: Vec<(&str, &str, u64)> = routes()
        .into_iter()
        .map(|(problem, strategy, estimator, updates)| {
            (problem, strategy, fingerprint(estimator, &updates))
        })
        .collect();
    let table: String = measured
        .iter()
        .map(|(problem, strategy, digest)| {
            format!("    (\"{problem}\", \"{strategy}\", {digest:#018x}),\n")
        })
        .collect();
    assert_eq!(
        measured.as_slice(),
        EXPECTED,
        "route fingerprints moved; measured table:\n{table}"
    );
}
