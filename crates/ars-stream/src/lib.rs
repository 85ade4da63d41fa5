//! Stream model substrate for the adversarially robust streaming framework.
//!
//! This crate provides everything the sketches and the robustness wrappers
//! need to talk about data streams, following Section 2 of
//! *"A Framework for Adversarially Robust Streaming Algorithms"*
//! (Ben-Eliezer, Jayaram, Woodruff, Yogev — PODS 2020):
//!
//! * [`Update`] — a stream update `(a_t, Δ_t)` over the domain `[n]`.
//! * [`FrequencyVector`] — the (sparse) frequency vector `f ∈ ℝ^n` with
//!   `f_i = Σ_{t : a_t = i} Δ_t`, plus exact statistics (`F_p`, `F_0`,
//!   entropy, heavy hitters) used as ground truth by tests and benches.
//! * [`StreamModel`] / [`StreamValidator`] — the insertion-only, turnstile
//!   and α-bounded-deletion models and per-update validation of the model
//!   constraints, priced per model through [`ValidationTier`]s: `O(1)`
//!   stateless checks where the model admits them, coordinate-incremental
//!   exact moments where it does not.
//! * [`generator`] — synthetic workload generators (uniform, Zipfian,
//!   bursty, sliding-window distinct, bounded-deletion, …) used by the
//!   example applications and by the benchmark harness that regenerates the
//!   paper's Table 1 rows.
//! * [`exact::ExactOracle`] — an exact tracking oracle used to score the
//!   approximation error of every estimator at every point in the stream.
//!
//! The crate is deliberately dependency-light (only the in-tree `rand`
//! stub for the generators) and contains no approximation algorithms:
//! those live in `ars-sketch` (static sketches) and `ars-core` (robust
//! wrappers).
//!
//! # Paper map
//!
//! | Module | Paper section / result it supports |
//! |---|---|
//! | [`update`], [`frequency`] | Section 2 stream model, `f ∈ ℝ^n`, exact `F_p`/`F₀`/entropy ground truth |
//! | [`model`] | the promises the theorems are conditional on: insertion-only (Sections 4–7), λ-flip turnstile (Theorem 4.3), α-bounded deletions (Section 8) |
//! | [`exact`] | the tracking oracle scoring `(1 ± ε)` guarantees at every stream point |
//! | [`generator`] | reference workloads behind Table 1 and the E1–E16 experiments |
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod frequency;
pub mod generator;
pub mod model;
pub mod update;

pub use exact::{ExactOracle, TrackingOracle};
pub use frequency::FrequencyVector;
pub use model::{StreamError, StreamModel, StreamValidator, ValidationTier};
pub use update::{Delta, Item, Update};

/// Convenience result alias for stream-model operations.
pub type Result<T> = std::result::Result<T, StreamError>;
