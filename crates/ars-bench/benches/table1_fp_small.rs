//! `cargo bench --bench table1_fp_small` regenerates experiment E2 at the quick
//! scale (`ARS_BENCH_FULL=1` for the full one); the `run_all_experiments`
//! binary prints the same table (`-- --only E2`).

use ars_bench::{run_experiment, ExperimentScale};

fn main() {
    let scale = if std::env::var("ARS_BENCH_FULL").is_ok() {
        ExperimentScale::full()
    } else {
        ExperimentScale::quick()
    };
    let report = run_experiment("E2", scale, 42).expect("experiment E2 exists");
    println!("{}", report.to_markdown());
    eprintln!("{}", report.to_json());
}
