//! Bit-for-bit fingerprints of every (problem, strategy) route the builder
//! admits.
//!
//! Each route streams a seeded 2,000-update workload, in batches of
//! [`BATCH`] updates, in the stream model its theorem is stated over.
//! After every batch the typed reading's JSON (`query().to_json()`) is
//! folded into a 64-bit FNV-1a digest. The table below pins that digest
//! and, in a column of its own, the exact final `space_bytes()`, so any
//! change to how a route is assembled (which core, which factory, which
//! per-copy δ, which plan) that alters a single published bit or byte
//! fails here, and the failure shows which of the two moved.
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

/// Streams `updates` into `estimator` in batches; returns the digest of
/// every reading and the final space.
fn fingerprint(mut estimator: DynRobust, updates: &[Update]) -> (u64, usize) {
    let mut digest = FNV_OFFSET;
    for batch in updates.chunks(BATCH) {
        estimator.update_batch(batch);
        digest = fnv1a(digest, estimator.query().to_json().as_bytes());
    }
    (digest, estimator.space_bytes())
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

/// `(problem, strategy, readings digest, space_bytes)`, in the order
/// [`routes`] builds them.
const EXPECTED: &[(&str, &str, u64, usize)] = &[
    ("f0", "switching", 0x71293c7fa16e4e6d, 994424),
    ("f0", "paths", 0x1c7a5ff655af3fa4, 5256),
    ("f0", "dp-aggregation", 0x3963483c3fa8e538, 1749032),
    ("f0", "difference-estimators", 0x866826a058bb62ac, 565736),
    ("f0", "crypto-chacha", 0xcfeb55af329544c7, 13120),
    ("f0", "crypto-random-oracle", 0x83b7a44b7647adf3, 13096),
    ("fp1", "switching", 0xc49e41ae0e367351, 161648),
    ("fp2", "switching", 0x8db913242dbcfe9e, 383648),
    ("fp1", "paths", 0xac90fd005a4c11ac, 8760),
    ("fp2", "paths", 0xc9716f49034c09cc, 8760),
    ("fp1", "dp-aggregation", 0x6d6354069dfdb4b9, 306256),
    ("fp2", "dp-aggregation", 0x5986f7385e783c81, 366568),
    ("fp1", "difference-estimators", 0x2fe54f8156871362, 79648),
    ("fp2", "difference-estimators", 0x3b6a6de2d7856869, 79648),
    ("fp3-large", "paths", 0x6c575011e8f0fe83, 36952),
    ("turnstile-fp2", "paths", 0x999f0cf0ecdb50eb, 8760),
    ("bounded-deletion-fp1", "paths", 0x7fe70b7fcb5919bd, 8760),
    ("entropy-renyi", "switching", 0x64b48d94b59692c6, 538384),
    ("entropy-sampled", "switching", 0x4a74323b091c543b, 559184),
    ("f0", "theorem-10-1", 0x9c6e43ab5d72114e, 2792),
];

#[test]
fn every_route_reproduces_its_fingerprint() {
    let measured: Vec<(&str, &str, u64, usize)> = routes()
        .into_iter()
        .map(|(problem, strategy, estimator, updates)| {
            let (digest, space) = fingerprint(estimator, &updates);
            (problem, strategy, digest, space)
        })
        .collect();
    let table: String = measured
        .iter()
        .map(|(problem, strategy, digest, space)| {
            format!("    (\"{problem}\", \"{strategy}\", {digest:#018x}, {space}),\n")
        })
        .collect();
    assert_eq!(
        measured.as_slice(),
        EXPECTED,
        "route fingerprints moved; measured table:\n{table}"
    );
}
