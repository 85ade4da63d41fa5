//! Hashing substrate for the adversarially robust streaming framework.
//!
//! All sketches in `ars-sketch` are built on limited-independence hashing
//! rather than idealized fully random functions, matching the constructions
//! cited by the paper. Everything here is implemented from scratch (no
//! external hashing or crypto crates):
//!
//! * [`field`] — arithmetic modulo the Mersenne prime `2^61 − 1`, the field
//!   every polynomial hash family is defined over.
//! * [`kwise::KWiseHash`] — k-wise independent hashing via degree-(k−1)
//!   polynomials with random coefficients, including the fast multipoint
//!   batching used by the fast `F_0` algorithm (Section 5.1 /
//!   Proposition 5.3's role).
//! * [`chacha`] / [`prf`] — a from-scratch ChaCha20 block function used as
//!   the exponentially-secure PRF of Section 10, plus a [`prf::RandomOracle`]
//!   abstraction for the random-oracle model results.
//!
//! # Paper map
//!
//! | Module | Paper section / result it supports |
//! |---|---|
//! | [`field`] | substrate for every polynomial hash family below |
//! | [`kwise`] | Section 5.1 fast `F₀` (multipoint evaluation, Proposition 5.3's role) |
//! | [`chacha`], [`prf`] | Theorem 10.1 (crypto transformation; PRF and random-oracle halves) |
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha;
pub mod field;
pub mod kwise;
pub mod prf;

pub use kwise::{KWiseHash, SignHash};
pub use prf::{ChaChaPrf, Prf, RandomOracle};
