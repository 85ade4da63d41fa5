//! `cargo bench --bench batch_throughput` — per-update vs `update_batch`
//! throughput for the robust estimators.
//!
//! The engine's batched hot path amortizes the ε-rounding / switch check
//! (which for sketch-switching pools means a median computation over the
//! active copy) to one per batch instead of one per update; this bench
//! quantifies the win on robust `F₀` and `F_p` and writes the repo's
//! BENCH_batch_throughput.json trajectory point. Robust `F₂` also runs at
//! batch 4, the batch perfbench's `fp2-exhaust` tenants send, where the
//! p = 2 sketch's counting kernel works on four-update chunks. The
//! `robust_f0/replay` leg times the shape of a restore: a fresh `F₀` pool
//! at fleet parameters fed ~700 distinct coordinates as one batch; its
//! `ns_per_update` is per coordinate. The `robust_f0/fleet_zipf_64` leg
//! feeds a fresh pool at the same parameters the traffic perfbench's
//! `f0-adversarial` tenants send: Zipf(1.1) in batches of 64. That stream
//! repeats items often, so the pool drops many insertions before its
//! fan-out; the uniform `update_batch` leg repeats almost none, so it
//! prices the repeat check alone. The `robust_f0_crypto` legs time the
//! Theorem 10.1 route, whose batched ingest masks a chunk and hands it to
//! the KMV ensemble's `update_batch`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use ars_core::{CryptoBackend, DynRobust, RobustBuilder, Strategy, StreamSession};
use ars_sketch::Estimator;
use ars_stream::generator::{Generator, UniformGenerator, ZipfGenerator};
use ars_stream::{FrequencyVector, StreamModel, Update, ValidationTier};

const STREAM: usize = 4_096;
/// The p-stable sketch-switching pool is far heavier per update than the
/// F0 pool, so the Fp leg uses a shorter stream to keep the bench quick.
const FP_STREAM: usize = 1_024;
const BATCH: usize = 256;
/// The batch the `F₂` tenants of perfbench's `fp2-exhaust` fleet send
/// (`perfbench/fleets/fp2.json`).
const FLEET_FP_BATCH: usize = 4;

/// The distinct coordinates of the replay leg, about what one
/// `f0-adversarial` tenant replays on restore.
const REPLAY: usize = 700;
/// The fleet's `F₀` parameters (`perfbench/fleets/f0.json`).
const FLEET_EPSILON: f64 = 0.25;
const FLEET_M: u64 = 1 << 16;
/// The batch the `F₀` tenants of perfbench's `f0-adversarial` fleet send.
const FLEET_F0_BATCH: usize = 64;

/// The exact-vs-tiered validation leg: a bounded-deletion stream wide
/// enough that the pre-tiered `O(m·distinct)` validator visibly dominates.
const BD_STREAM: usize = 100_000;
const BD_DISTINCT: u64 = 20_000;
/// The reference (seed) validator is `O(support)` per update — ~2 ms per
/// update once the support reaches 20k — so it is timed on a window of
/// this many updates at full support (after an incrementally-validated
/// warmup), not on the whole stream. Its steady-state cost is what the
/// window measures; the methodology is recorded in the JSON, never
/// silently.
const BD_REFERENCE_WINDOW: usize = 1_500;

fn f0_updates() -> Vec<Update> {
    UniformGenerator::new(1 << 16, 7).take_updates(STREAM)
}

fn fp_updates() -> Vec<Update> {
    ZipfGenerator::new(1 << 12, 1.1, 7).take_updates(FP_STREAM)
}

/// A restore's replay: the first `REPLAY` distinct coordinates of a Zipf
/// stream over the fleet domain, one update per coordinate carrying its
/// count, in item order as a snapshot lists them.
fn replay_updates() -> Vec<Update> {
    let mut frequency = FrequencyVector::new();
    let mut zipf = ZipfGenerator::new(FLEET_M, 1.1, 7);
    while frequency.f0() < REPLAY as u64 {
        frequency.apply(zipf.next_update());
    }
    let mut replay: Vec<Update> = frequency.iter().map(Update::from).collect();
    replay.sort_unstable_by_key(|u| u.item);
    replay
}

/// A fleet-sized `F₀` pool.
fn fleet_f0() -> DynRobust {
    RobustBuilder::new(FLEET_EPSILON)
        .stream_length(FLEET_M)
        .domain(FLEET_M)
        .seed(9)
        .f0()
        .unwrap()
}

fn builder() -> RobustBuilder {
    RobustBuilder::new(0.2)
        .stream_length(STREAM as u64)
        .domain(1 << 16)
        .seed(9)
}

fn bench_batching(c: &mut Criterion) {
    let f0_stream = f0_updates();
    let fp_stream = fp_updates();

    let mut group = c.benchmark_group("robust_update_path");

    group.bench_function("robust_f0/per_update", |b| {
        b.iter_batched(
            || builder().f0().unwrap(),
            |mut robust| {
                for &u in &f0_stream {
                    robust.update(u);
                }
                robust
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("robust_f0/update_batch", |b| {
        b.iter_batched(
            || builder().f0().unwrap(),
            |mut robust| {
                for chunk in f0_stream.chunks(BATCH) {
                    robust.update_batch(chunk);
                }
                robust
            },
            BatchSize::SmallInput,
        );
    });

    let replay = replay_updates();
    group.bench_function("robust_f0/replay", |b| {
        b.iter_batched(
            fleet_f0,
            |mut robust| {
                robust.update_batch(&replay);
                robust
            },
            BatchSize::SmallInput,
        );
    });

    let fleet_stream = ZipfGenerator::new(FLEET_M, 1.1, 7).take_updates(STREAM);
    group.bench_function("robust_f0/fleet_zipf_64", |b| {
        b.iter_batched(
            fleet_f0,
            |mut robust| {
                for chunk in fleet_stream.chunks(FLEET_F0_BATCH) {
                    robust.update_batch(chunk);
                }
                robust
            },
            BatchSize::SmallInput,
        );
    });

    let crypto = || {
        builder()
            .strategy(Strategy::Crypto(CryptoBackend::ChaChaPrf))
            .f0()
            .unwrap()
    };
    group.bench_function("robust_f0_crypto/per_update", |b| {
        b.iter_batched(
            crypto,
            |mut robust| {
                for &u in &f0_stream {
                    robust.update(u);
                }
                robust
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("robust_f0_crypto/update_batch", |b| {
        b.iter_batched(
            crypto,
            |mut robust| {
                for chunk in f0_stream.chunks(BATCH) {
                    robust.update_batch(chunk);
                }
                robust
            },
            BatchSize::SmallInput,
        );
    });

    // The model-enforcing session driver over the same batched hot path:
    // quantifies what per-update StreamModel validation (an exact
    // frequency-vector apply per update) costs on top of the engine.
    group.bench_function("robust_f0_session/update_batch", |b| {
        b.iter_batched(
            || {
                ars_core::StreamSession::new(
                    ars_stream::StreamModel::InsertionOnly,
                    Box::new(builder().f0().unwrap()),
                )
            },
            |mut session| {
                for chunk in f0_stream.chunks(BATCH) {
                    session
                        .update_batch(chunk)
                        .expect("uniform insertions respect the insertion-only model");
                }
                session
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("robust_f0_dp/per_update", |b| {
        b.iter_batched(
            || builder().strategy(Strategy::DpAggregation).f0().unwrap(),
            |mut robust| {
                for &u in &f0_stream {
                    robust.update(u);
                }
                robust
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("robust_f0_dp/update_batch", |b| {
        b.iter_batched(
            || builder().strategy(Strategy::DpAggregation).f0().unwrap(),
            |mut robust| {
                for chunk in f0_stream.chunks(BATCH) {
                    robust.update_batch(chunk);
                }
                robust
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("robust_fp2/per_update", |b| {
        b.iter_batched(
            || {
                RobustBuilder::new(0.3)
                    .stream_length(FP_STREAM as u64)
                    .domain(1 << 12)
                    .seed(9)
                    .fp(2.0)
                    .unwrap()
            },
            |mut robust| {
                for &u in &fp_stream {
                    robust.update(u);
                }
                robust
            },
            BatchSize::SmallInput,
        );
    });

    for (id, batch) in [
        ("robust_fp2/update_batch", BATCH),
        ("robust_fp2/update_batch_4", FLEET_FP_BATCH),
    ] {
        group.bench_function(id, |b| {
            b.iter_batched(
                || {
                    RobustBuilder::new(0.3)
                        .stream_length(FP_STREAM as u64)
                        .domain(1 << 12)
                        .seed(9)
                        .fp(2.0)
                        .unwrap()
                },
                |mut robust| {
                    for chunk in fp_stream.chunks(batch) {
                        robust.update_batch(chunk);
                    }
                    robust
                },
                BatchSize::SmallInput,
            );
        });
    }

    group.finish();

    // --- Exact-vs-tiered bounded-deletion session validation leg ---
    // Three inserts then one delete per item stays exactly on the
    // alpha = 2 boundary, so every update exercises the invariant check.
    let bd_stream: Vec<Update> = (0..BD_STREAM as u64)
        .map(|i| {
            let item = (i / 4) % BD_DISTINCT;
            if i % 4 == 3 {
                Update::delete(item)
            } else {
                Update::insert(item)
            }
        })
        .collect();
    let bd_session = |tier: ValidationTier| {
        StreamSession::new(
            StreamModel::bounded_deletion(2.0, 1.0),
            Box::new(
                RobustBuilder::new(0.25)
                    .stream_length(BD_STREAM as u64)
                    .domain(1 << 16)
                    .max_frequency(8)
                    .seed(9)
                    .bounded_deletion_fp(1.0, 2.0)
                    .unwrap(),
            ),
        )
        .with_validator_tier(tier)
    };
    let ingest = |session: &mut StreamSession, updates: &[Update]| -> f64 {
        let start = std::time::Instant::now();
        for chunk in updates.chunks(BATCH) {
            session
                .update_batch(chunk)
                .expect("the boundary pattern conforms to alpha = 2");
        }
        start.elapsed().as_nanos() as f64 / updates.len() as f64
    };
    // The tiered session ingests the whole 100k-update stream.
    let incremental_ns = ingest(&mut bd_session(ValidationTier::Incremental), &bd_stream);
    // The seed-validator session is timed on a window at full 20k support:
    // the warmup prefix is validated incrementally (identical accept/reject
    // semantics, conformance-tested), then the tier is switched to the
    // reference oracle for the measured window.
    let window_start = BD_STREAM - BD_REFERENCE_WINDOW;
    let mut reference_session = bd_session(ValidationTier::Incremental);
    ingest(&mut reference_session, &bd_stream[..window_start]);
    let mut reference_session = reference_session.with_validator_tier(ValidationTier::Reference);
    let reference_ns = ingest(&mut reference_session, &bd_stream[window_start..]);
    let validator_speedup = reference_ns / incremental_ns.max(1e-9);
    println!(
        "bench: bounded_deletion_session/incremental ({BD_STREAM} updates, {BD_DISTINCT} distinct): \
         {incremental_ns:.0} ns/update"
    );
    println!(
        "bench: bounded_deletion_session/reference ({BD_REFERENCE_WINDOW}-update window at full \
         support): {reference_ns:.0} ns/update  => tiered session speedup {validator_speedup:.1}x"
    );

    // Persist the trajectory point: median ns/update for each variant with
    // its min/max band, plus the batched-vs-per-update speedup per
    // estimator.
    let mut json = String::from("{\"bench\":\"batch_throughput\",\"stream\":");
    json.push_str(&STREAM.to_string());
    json.push_str(",\"batch\":");
    json.push_str(&BATCH.to_string());
    json.push_str(",\"results\":[");
    for (i, sample) in c.results.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        let stream = if sample.id.contains("fp2") {
            FP_STREAM
        } else if sample.id.ends_with("/replay") {
            replay.len()
        } else {
            STREAM
        };
        let ns_per_update = |d: std::time::Duration| d.as_nanos() as f64 / stream as f64;
        json.push_str(&format!(
            "{{\"id\":\"{}\",\"ns_per_update\":{:.1},\"min_ns_per_update\":{:.1},\"max_ns_per_update\":{:.1}}}",
            sample.id,
            ns_per_update(sample.median),
            ns_per_update(sample.min),
            ns_per_update(sample.max),
        ));
    }
    json.push_str("],\"speedup\":{");
    for (i, (key, estimator, batched)) in [
        ("robust_f0", "robust_f0", "update_batch"),
        ("robust_f0_crypto", "robust_f0_crypto", "update_batch"),
        ("robust_f0_dp", "robust_f0_dp", "update_batch"),
        ("robust_fp2", "robust_fp2", "update_batch"),
        ("robust_fp2_batch_4", "robust_fp2", "update_batch_4"),
    ]
    .into_iter()
    .enumerate()
    {
        let find = |leg: &str| {
            let id = format!("robust_update_path/{estimator}/{leg}");
            c.results.iter().find(|s| s.id == id)
        };
        if let (Some(per), Some(batch)) = (find("per_update"), find(batched)) {
            if i > 0 {
                json.push(',');
            }
            let speedup = per.median.as_nanos() as f64 / batch.median.as_nanos().max(1) as f64;
            json.push_str(&format!("\"{key}\":{speedup:.2}"));
        }
    }
    json.push_str("},\"validation\":{");
    json.push_str(&format!(
        "\"stream\":{BD_STREAM},\"distinct\":{BD_DISTINCT},\
         \"incremental_ns_per_update\":{incremental_ns:.1},\
         \"reference_ns_per_update\":{reference_ns:.1},\
         \"reference_window\":{BD_REFERENCE_WINDOW},\
         \"session_speedup\":{validator_speedup:.1}"
    ));
    json.push_str("}}");
    println!("{json}");
    if std::env::var("ARS_BENCH_NO_WRITE").is_err() {
        // cargo runs benches with the package as cwd; the trajectory file
        // lives at the workspace root.
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_batch_throughput.json"
        );
        let _ = std::fs::write(path, format!("{json}\n"));
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(5);
    targets = bench_batching
}
criterion_main!(benches);
