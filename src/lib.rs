//! Facade crate for the *Adversarially Robust Streaming Algorithms*
//! reproduction (Ben-Eliezer, Jayaram, Woodruff, Yogev — PODS 2020).
//!
//! This crate simply re-exports the workspace crates so downstream users can
//! depend on a single package:
//!
//! * [`stream`] — stream model, frequency vectors, workload generators and
//!   exact reference statistics ([`ars_stream`]).
//! * [`hash`] — k-wise independent hashing and a from-scratch ChaCha20
//!   PRF / random oracle ([`ars_hash`]).
//! * [`sketch`] — static (non-robust) sketches: AMS, CountSketch, KMV,
//!   p-stable Fp, entropy, Misra–Gries, and strong-tracking wrappers
//!   ([`ars_sketch`]).
//! * [`dp`] — differential-privacy primitives: Laplace noise, an (ε, δ)
//!   accountant, the sparse-vector mechanism and an exponential-mechanism
//!   private median ([`ars_dp`]).
//! * [`robust`] — the paper's contribution as a *generic transformation*:
//!   the [`robust::Robustify`] engine, the strategy seam
//!   ([`robust::StrategyCore`]: one core each for sketch switching,
//!   computation paths, crypto masking, DP aggregation and difference
//!   estimators), the single [`robust::RobustBuilder`], the object-safe
//!   [`robust::RobustEstimator`] trait with a batched update path, and the
//!   typed serving layer — model-enforcing [`robust::StreamSession`]s over
//!   tiered validators and the multi-tenant [`robust::SessionManager`]
//!   with automatic re-provisioning ([`ars_core`]). The repo-level
//!   `docs/ARCHITECTURE.md` is the guided tour of how these layers fit.
//! * [`adversary`] — the two-player adversarial game harness and the AMS
//!   attack of Section 9 ([`ars_adversary`]).
//! * [`serve`] — the network serving surface: a dependency-free HTTP/1.1
//!   server ([`serve::FleetServer`]) over a shared
//!   [`robust::SessionManager`], with Prometheus-style metrics and
//!   snapshot/restore ([`ars_serve`]).
//! * [`workload`] — the fleet-scale load harness: JSON fleet configs that
//!   compile to deterministic per-tenant streams (honest, dip-hunting and
//!   model-violating behaviors), an open-loop RPS-ramp engine
//!   ([`workload::RampEngine`]) over pluggable backends (in-process or
//!   HTTP), and knee detection over the recorded trajectory
//!   ([`ars_workload`]).
//!
//! # Quickstart
//!
//! One builder constructs every robust estimator, and each constructor
//! returns a typed [`robust::ArsError`] for out-of-range parameters; the
//! serving surface is a
//! model-enforcing [`robust::StreamSession`] answering typed
//! [`robust::Estimate`] readings, and every estimator is drivable through
//! the object-safe [`robust::RobustEstimator`] trait:
//!
//! ```
//! use adversarial_robust_streaming::robust::{
//!     ArsError, Health, RobustBuilder, RobustEstimator, Strategy, StreamSession,
//! };
//! use adversarial_robust_streaming::stream::{StreamModel, Update};
//!
//! let builder = RobustBuilder::new(0.1).stream_length(10_000).seed(7);
//! let mut session = StreamSession::new(
//!     StreamModel::InsertionOnly,
//!     Box::new(builder.f0()?), // Theorem 1.1; .fp(p)?, .entropy()?, ... likewise
//! );
//! for i in 0..1_000u64 {
//!     session.insert(i % 250).unwrap();
//! }
//! let reading = session.query(); // value + guarantee interval + flips + health
//! assert!((reading.value - 250.0).abs() <= 0.2 * 250.0);
//! assert!(reading.guarantee.contains(250.0));
//! assert_eq!(reading.health, Health::WithinGuarantee);
//! // A deletion breaks the insertion-only promise: typed error, flagged reading.
//! assert!(matches!(session.update(Update::delete(1)), Err(ArsError::Stream(_))));
//! assert_eq!(session.query().health, Health::PromiseViolated);
//!
//! // Heterogeneous fleets run through one trait-object loop, using the
//! // batched hot path to amortize the robustness bookkeeping:
//! let batch: Vec<Update> = (0..1_000u64).map(|i| Update::insert(i % 250)).collect();
//! let mut fleet: Vec<Box<dyn RobustEstimator>> = vec![
//!     Box::new(builder.f0()?),
//!     Box::new(builder.strategy(Strategy::ComputationPaths).f0()?),
//!     Box::new(builder.fp(2.0)?),
//! ];
//! for robust in &mut fleet {
//!     robust.update_batch(&batch);
//!     assert!(robust.query().value > 0.0);
//! }
//! # Ok::<(), ArsError>(())
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The README's Rust examples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use ars_adversary as adversary;
pub use ars_core as robust;
pub use ars_dp as dp;
pub use ars_hash as hash;
pub use ars_serve as serve;
pub use ars_sketch as sketch;
pub use ars_stream as stream;
pub use ars_workload as workload;
