//! Runs every experiment (E1–E16), or the ones `--only` names, and prints
//! the markdown report. An id that is not in `EXPERIMENTS` is an error
//! (exit status 2), reported before any experiment runs.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ars-bench --bin run_all_experiments [--full] [--only E8,E9]
//! ```

use std::process::ExitCode;

use ars_bench::{ExperimentScale, EXPERIMENTS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let scale = if args.iter().any(|a| a == "--full") {
        ExperimentScale::full()
    } else {
        ExperimentScale::quick()
    };
    let only: Option<Vec<&str>> = match args.iter().position(|a| a == "--only") {
        None => None,
        Some(i) => match args.get(i + 1) {
            Some(list) => Some(list.split(',').collect()),
            None => return usage_error("--only needs a comma-separated list of ids"),
        },
    };
    if let Some(unknown) = only
        .iter()
        .flatten()
        .find(|id| !EXPERIMENTS.iter().any(|(known, _)| known == *id))
    {
        return usage_error(&format!("unknown experiment id `{unknown}`"));
    }

    println!("# Experiment reports (adversarially robust streaming)\n");
    println!(
        "Scale: m = {}, n = {}, trials = {}\n",
        scale.stream_length, scale.domain, scale.trials
    );
    for (id, run) in EXPERIMENTS {
        if only.as_ref().is_some_and(|only| !only.contains(&id)) {
            continue;
        }
        let start = std::time::Instant::now();
        println!("{}", run(scale, 42).to_markdown());
        println!("_generated in {:.1}s_\n", start.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}

fn usage_error(message: &str) -> ExitCode {
    let valid: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
    eprintln!(
        "run_all_experiments: {message}; valid ids: {}",
        valid.join(", ")
    );
    ExitCode::from(2)
}
