//! perfbench: the fleet benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run registers the workload's fleet, ingests an untimed warm prefix
//! and snapshots it; then drives a restored fleet at a fixed offered rate
//! for `--seconds`, cut into a few phases. Before the first phase and after
//! every phase it brings up fresh backends and restores the snapshot into
//! them (`setup_s` is the median of those restores). With `--trace 1` the
//! window is split in a traced half followed by an untraced half, and the
//! run reports per-layer metrics instead of the end-to-end ones. The last
//! line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.
//! A failed correctness check sets `correct` to false and the exit code to
//! 1; a run that cannot start prints no result and exits non-zero.

mod bench;
mod cpu;
mod load;
mod shadow;
mod stats;
mod workloads;

use std::process::ExitCode;

use workloads::{Workload, WORKLOADS};

/// The parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    bad(&format!("one of {}", names.join(", ")))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("a positive number"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    match bench::run(&args) {
        Ok(outcome) => {
            for problem in &outcome.problems {
                eprintln!("perfbench: check failed: {problem}");
            }
            for name in &outcome.lost_flags {
                eprintln!(
                    "perfbench: known defect: {name}: the restore dropped its model-violation \
                     flag (snapshot format v1 does not carry it)"
                );
            }
            let setup: Vec<String> = outcome.setup.iter().map(|s| format!("{s:.4}")).collect();
            eprintln!("setup runs (s): {}", setup.join(" "));
            for (name, value, unit) in &outcome.metrics {
                eprintln!("{:<32} {value:>16.3} {unit}", name);
            }
            println!("{}", outcome.json_line());
            if outcome.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}
