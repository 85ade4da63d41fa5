//! Benchmark harness regenerating the tables and figures of the PODS 2020
//! adversarially robust streaming paper.
//!
//! The paper's evaluation artifacts are:
//!
//! * **Table 1** — space of robust algorithms vs. the best static
//!   randomized algorithms vs. deterministic lower bounds, for each
//!   problem (distinct elements, `F_p` for `p ≤ 2` and `p > 2`, `L₂` heavy
//!   hitters, entropy, λ-flip turnstile, bounded deletions).
//! * **Theorem 9.1** — the adaptive attack on the AMS sketch succeeds with
//!   probability ≥ 9/10 within `O(t)` updates.
//! * The flip-number bounds (Corollary 3.5, Proposition 7.2, Lemma 8.2)
//!   that drive every overhead factor.
//!
//! Each experiment in [`experiments`] reproduces one of those rows/claims
//! empirically on synthetic workloads and returns structured rows;
//! [`report`] renders them as the markdown tables the
//! `run_all_experiments` binary prints. Beyond the paper's own tables, the follow-up-framework
//! experiments compare the strategy routes at equal flip budget: E13
//! sweeps the whole `ars_core::standard_registry` through model-enforcing
//! sessions, E14 pits DP aggregation (Hassidim et al. 2020, `O(√λ)`
//! copies) against both switching pools, and E15 adds the difference
//! estimators (Attias et al. 2022, `O(log λ)` copies on a geometric chunk
//! schedule) to the same copies/space/accuracy/flips grid.
//!
//! `run_all_experiments [--full] [--only E1,E9]` is the one way to run
//! E1–E16: it looks each id up in [`EXPERIMENTS`]. The two `cargo bench`
//! targets in `benches/` are timing benchmarks, not experiments:
//! `batch_throughput` and `serve_throughput` write the repo's
//! `BENCH_batch_throughput.json` and `BENCH_serve_throughput.json`.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use experiments::*;
pub use report::{print_markdown_table, ExperimentReport, Row};
