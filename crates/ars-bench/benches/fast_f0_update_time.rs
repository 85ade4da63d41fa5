//! `cargo bench --bench fast_f0_update_time` regenerates experiment E10:
//! the update-time comparison motivating Theorem 5.4 (the fast
//! level-list `F₀` sketch pairs with the computation-paths wrapper because
//! its update time barely depends on the failure probability).
//!
//! The bench first prints the E10 table (amortized ns/update measured by
//! the harness itself), then runs Criterion micro-benchmarks of the
//! per-update cost of each contender.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use ars_bench::{fast_f0_update_time, ExperimentScale};
use ars_core::{RobustBuilder, Strategy};
use ars_sketch::fast_f0::{FastF0Config, FastF0Sketch};
use ars_sketch::kmv::{KmvConfig, KmvSketch};
use ars_sketch::Estimator;
use ars_stream::generator::{Generator, UniformGenerator};

fn print_table() {
    let scale = if std::env::var("ARS_BENCH_FULL").is_ok() {
        ExperimentScale::full()
    } else {
        ExperimentScale::quick()
    };
    let report = fast_f0_update_time(scale, 42);
    println!("{}", report.to_markdown());
    eprintln!("{}", report.to_json());
}

fn bench_updates(c: &mut Criterion) {
    print_table();

    let domain = 1u64 << 16;
    let updates = UniformGenerator::new(domain, 7).take_updates(4_096);
    let mut group = c.benchmark_group("f0_update");

    group.bench_function("static_kmv", |b| {
        b.iter_batched(
            || KmvSketch::new(KmvConfig::for_accuracy(0.1), 3),
            |mut sketch| {
                for &u in &updates {
                    sketch.update(u);
                }
                sketch
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("static_level_list", |b| {
        b.iter_batched(
            || FastF0Sketch::new(FastF0Config::for_accuracy(0.1, 1e-9, domain), 5),
            |mut sketch| {
                for &u in &updates {
                    sketch.update(u);
                }
                sketch
            },
            BatchSize::SmallInput,
        );
    });

    group.bench_function("robust_f0_computation_paths", |b| {
        b.iter_batched(
            || {
                RobustBuilder::new(0.1)
                    .strategy(Strategy::ComputationPaths)
                    .domain(domain)
                    .stream_length(updates.len() as u64)
                    .seed(9)
                    .f0()
            },
            |mut robust| {
                for &u in &updates {
                    robust.update(u);
                }
                robust
            },
            BatchSize::SmallInput,
        );
    });

    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_updates
}
criterion_main!(benches);
