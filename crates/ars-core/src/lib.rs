//! The adversarially robust streaming framework of Ben-Eliezer, Jayaram,
//! Woodruff and Yogev (PODS 2020), organised the way the paper states it:
//! robustness is a **generic transformation** applied to any static sketch
//! with a bounded flip number — not a per-problem algorithm.
//!
//! A streaming algorithm is *adversarially robust* if its `(1 ± ε)`
//! tracking guarantee holds even when every stream update is chosen by an
//! adversary that has seen all of the algorithm's previous outputs. Most
//! classical randomized sketches are **not** robust — Section 9 of the
//! paper (and the `ars-adversary` crate) exhibits an explicit adaptive
//! attack on the AMS sketch.
//!
//! # Architecture
//!
//! * [`engine::Robustify`] — the one robustification engine. It owns the
//!   ε-rounding of published outputs, the flip-number budget, the switch
//!   accounting and the space accounting; everything that is shared between
//!   the paper's constructions exists exactly once, here.
//! * [`engine::StrategyCore`] — the seam along which the constructions
//!   differ, one core per route: [`sketch_switch::SketchSwitch`]
//!   (Algorithm 1 / Theorem 4.1), [`computation_paths::ComputationPaths`]
//!   (Lemma 3.8), the PRF-masking [`crypto_mask::CryptoMask`]
//!   (Theorem 10.1), the DP-aggregation pool
//!   [`dp_aggregation::DpAggregation`] of Hassidim et al. 2020 (`O(√λ)`
//!   copies answering through a private median, built on the `ars-dp`
//!   mechanism crate), and the difference estimators
//!   [`difference_estimators::DifferenceEstimators`] of Attias et al. 2022
//!   (`O(log λ)` copies on a geometric chunk schedule publishing telescoped
//!   difference estimates, with per-chunk flip budgets). A further
//!   follow-up framework is one more core plus one arm in the builder's
//!   route table — the repo-level `docs/ARCHITECTURE.md` walks through the
//!   recipe with difference estimators as the worked example.
//! * [`builder::RobustBuilder`] — the single builder. Problem-specific
//!   constructors (`.f0()`, `.fp(p)`, `.entropy()`, …) are thin factory
//!   selections that compute the problem's flip number and pick the static
//!   sketch; one private route table builds the chosen strategy's core, and
//!   every knob (ε, δ, m, n, M, seed, strategy) is shared.
//! * [`api::RobustEstimator`] — the object-safe trait every estimator
//!   implements, including the batched hot path
//!   [`ars_sketch::Estimator::update_batch`] (amortized rounding/switch
//!   checks; see the trait docs for why batching is sound against adaptive
//!   adversaries).
//! * [`registry`] — every problem × strategy as `Box<dyn RobustEstimator>`
//!   plus scoring metadata, so benches, games and conformance tests drive
//!   all of them through one generic loop.
//! * [`estimate`] / [`error`] / [`session`] / [`manager`] — the typed
//!   serving surface: [`estimate::Estimate`] readings (value, guarantee
//!   interval, flip accounting, [`estimate::Health`]) from
//!   [`api::RobustEstimator::query`], typed [`error::ArsError`] failures
//!   from the builder's problem constructors and the ingestion paths, the
//!   [`session::StreamSession`] driver that enforces the declared
//!   [`ars_stream::StreamModel`] on every update (at the cheapest
//!   [`ars_stream::ValidationTier`] the model admits), and the
//!   multi-tenant [`manager::SessionManager`] — named sessions, aggregate
//!   health, JSON readings, automatic re-provisioning of budget-exhausted
//!   estimators from the session's exact state.
//!
//! # Quickstart
//!
//! ```
//! use ars_core::{ArsError, Health, RobustBuilder, RobustEstimator, StreamSession, Strategy};
//! use ars_stream::{StreamModel, Update};
//!
//! // One builder for every problem; each constructor returns `ArsError`
//! // on out-of-range parameters instead of panicking.
//! let builder = RobustBuilder::new(0.2).stream_length(10_000).seed(7);
//! let f0 = builder.f0()?;                                        // Thm 1.1
//! let f2 = builder.strategy(Strategy::ComputationPaths).fp(2.0)?; // Thm 1.5
//!
//! // The serving surface: a session enforcing the promised stream model,
//! // answering typed readings instead of bare floats.
//! let mut session = StreamSession::new(StreamModel::InsertionOnly, Box::new(f0));
//! for i in 0..1_000u64 {
//!     session.insert(i % 250).unwrap();
//! }
//! let reading = session.query();
//! assert!((reading.value - 250.0).abs() <= 0.25 * 250.0);
//! assert_eq!(reading.health, Health::WithinGuarantee);
//! assert!(matches!(
//!     session.update(Update::delete(1)),            // breaks the promise
//!     Err(ArsError::Stream(_))
//! ));
//!
//! // The batched hot path and trait-object-driven loops still apply.
//! let batch: Vec<Update> = (0..1_000u64).map(|i| Update::insert(i % 250)).collect();
//! let mut boxed: Vec<Box<dyn RobustEstimator>> = vec![Box::new(f2)];
//! for estimator in &mut boxed {
//!     estimator.update_batch(&batch);
//!     assert!(estimator.query().value > 0.0);
//! }
//! # Ok::<(), ArsError>(())
//! ```
//!
//! # Paper map
//!
//! Every scalar problem is one [`builder::RobustBuilder`] constructor
//! returning the engine type [`engine::DynRobust`] (or a typed
//! [`error::BuildError`]); the strategy knob picks the route.
//!
//! | Paper result | Constructor |
//! |---|---|
//! | Theorems 1.1 and 1.2 (distinct elements) | [`RobustBuilder::f0`] |
//! | Theorems 1.4 and 1.5 (`F_p`, `0 < p ≤ 2`) | [`RobustBuilder::fp`] |
//! | Theorem 1.7 (`F_p`, `p > 2`) | [`RobustBuilder::fp_large`] |
//! | Theorem 1.6 (λ-flip turnstile `F_p`) | [`RobustBuilder::turnstile_fp`] |
//! | Theorem 1.9 (`L₂` heavy hitters) | [`RobustBuilder::heavy_hitters`] (the bespoke [`robust_heavy_hitters::RobustL2HeavyHitters`]) |
//! | Theorem 1.10 (entropy) | [`RobustBuilder::entropy`] |
//! | Theorem 1.11 (bounded deletions) | [`RobustBuilder::bounded_deletion_fp`] |
//! | Theorem 10.1 (crypto / random oracle) | `.strategy(Strategy::Crypto(..)).f0()` → [`crypto_mask::CryptoMask`] ([`RobustBuilder::theorem_10_1`] presets it with δ = 1/4) |
//! | Hassidim et al. 2020 (`O(√λ)` DP pool) | `.strategy(Strategy::DpAggregation)` → [`dp_aggregation::DpAggregation`] |
//! | Attias et al. 2022 (`O(log λ)` chunk pool) | `.strategy(Strategy::DifferenceEstimators)` → [`difference_estimators::DifferenceEstimators`] |
//!
//! The supporting machinery — ε-rounding ([`rounding`]), flip-number
//! bounds ([`flip_number`]) and the cores themselves — is public as well,
//! so a robust estimator can be assembled from any static sketch
//! implementing [`ars_sketch::EstimatorFactory`] by handing a core to
//! [`Robustify::new`] under a [`RobustPlan`].
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod builder;
pub mod computation_paths;
pub mod crypto_mask;
pub mod difference_estimators;
pub mod dp_aggregation;
pub mod engine;
pub mod error;
pub mod estimate;
pub mod flip_number;
pub mod json;
pub mod manager;
pub mod registry;
pub mod robust_entropy;
pub mod robust_heavy_hitters;
pub mod rounding;
pub mod session;
pub mod sketch_switch;
pub mod spec;

pub use api::RobustEstimator;
pub use builder::{RobustBuilder, Strategy};
pub use computation_paths::{ComputationPaths, ComputationPathsConfig};
pub use crypto_mask::CryptoBackend;
pub use difference_estimators::{ChunkScheduleInfo, DifferenceEstimators, DifferenceSchedule};
pub use dp_aggregation::{DpAggregation, DpAggregationConfig};
pub use engine::{DynRobust, PublicationState, RobustPlan, Robustify, RoundingMode, StrategyCore};
pub use error::{ArsError, BuildError};
pub use estimate::{Estimate, FlipBudget, Guarantee, Health};
pub use flip_number::{empirical_flip_number, FlipNumberBound};
pub use json::{escape_into, JsonError, JsonValue, JsonWriter};
pub use manager::{SessionManager, TenantHealth};
pub use registry::{standard_registry, RegistryEntry, RegistryParams};
pub use robust_entropy::EntropyMethod;
pub use robust_heavy_hitters::RobustL2HeavyHitters;
pub use rounding::{round_to_power, EpsilonRounder};
pub use session::StreamSession;
pub use sketch_switch::{SketchSwitch, SketchSwitchConfig, SwitchStrategy};
pub use spec::{ProblemSpec, ProvisionerSpec};
