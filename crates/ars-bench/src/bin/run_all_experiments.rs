//! Runs every experiment (E1–E16) and prints the full markdown report.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ars-bench --bin run_all_experiments [--full] [--only E8,E9]
//! ```

use ars_bench::{all_experiment_ids, run_experiment, ExperimentScale};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--full") {
        ExperimentScale::full()
    } else {
        ExperimentScale::quick()
    };
    let only: Option<Vec<String>> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .map(|list| list.split(',').map(str::to_string).collect());

    println!("# Experiment reports (adversarially robust streaming)\n");
    println!(
        "Scale: m = {}, n = {}, trials = {}\n",
        scale.stream_length, scale.domain, scale.trials
    );
    for id in all_experiment_ids() {
        if let Some(only) = &only {
            if !only.iter().any(|o| o == id) {
                continue;
            }
        }
        let start = std::time::Instant::now();
        let report = run_experiment(id, scale, 42).expect("known experiment id");
        println!("{}", report.to_markdown());
        println!("_generated in {:.1}s_\n", start.elapsed().as_secs_f64());
    }
}
