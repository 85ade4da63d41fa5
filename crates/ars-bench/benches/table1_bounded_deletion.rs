//! `cargo bench --bench table1_bounded_deletion` regenerates experiment E7 at the quick
//! scale (`ARS_BENCH_FULL=1` for the full one); the `run_all_experiments`
//! binary prints the same table (`-- --only E7`).

use ars_bench::{run_experiment, ExperimentScale};

fn main() {
    let scale = if std::env::var("ARS_BENCH_FULL").is_ok() {
        ExperimentScale::full()
    } else {
        ExperimentScale::quick()
    };
    let report = run_experiment("E7", scale, 42).expect("experiment E7 exists");
    println!("{}", report.to_markdown());
    eprintln!("{}", report.to_json());
}
