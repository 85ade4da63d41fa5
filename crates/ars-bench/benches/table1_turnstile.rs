//! `cargo bench --bench table1_turnstile` regenerates experiment E6 at the quick
//! scale (`ARS_BENCH_FULL=1` for the full one); the `run_all_experiments`
//! binary prints the same table (`-- --only E6`).

use ars_bench::{run_experiment, ExperimentScale};

fn main() {
    let scale = if std::env::var("ARS_BENCH_FULL").is_ok() {
        ExperimentScale::full()
    } else {
        ExperimentScale::quick()
    };
    let report = run_experiment("E6", scale, 42).expect("experiment E6 exists");
    println!("{}", report.to_markdown());
    eprintln!("{}", report.to_json());
}
