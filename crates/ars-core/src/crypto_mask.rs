//! The cryptographic transformation of Theorem 10.1: mask every inserted
//! item through a secret PRF and feed the image to an ordinary static
//! sketch.
//!
//! Only sound for sketches whose state is invariant under duplicate
//! insertions (KMV, the level-list sketch): given that, any adaptive
//! adversary is equivalent to one streaming `1, 2, 3, …`, i.e. a static
//! adversary. Outputs are published raw ([`RoundingMode::Raw`]) — the
//! argument does not go through ε-rounding, so the builder's crypto route
//! reports no flip budget.

use ars_hash::prf::{ChaChaPrf, Prf, RandomOracle};
use ars_sketch::{Estimator, EstimatorFactory};
use ars_stream::Update;

use crate::engine::{RoundingMode, StrategyCore};

/// The most masked insertions [`CryptoMask::ingest_batch`] hands the
/// sketch at once; it sizes the stack buffer they are masked into.
const MASK_CHUNK: usize = 64;

/// Which keyed-function backend the cryptographic transformation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CryptoBackend {
    /// A concrete exponentially-secure PRF instantiated with ChaCha20 (the
    /// "under a suitable cryptographic assumption" half of Theorem 10.1).
    #[default]
    ChaChaPrf,
    /// An idealized random oracle (the random-oracle-model half); its
    /// per-item images are not charged to the algorithm's space.
    RandomOracle,
}

#[derive(Debug)]
enum PrfBackend {
    ChaCha(ChaChaPrf),
    Oracle(RandomOracle),
}

impl PrfBackend {
    fn evaluate(&mut self, item: u64) -> u64 {
        match self {
            Self::ChaCha(prf) => prf.evaluate(item),
            Self::Oracle(oracle) => oracle.evaluate(item),
        }
    }

    fn charged_state_bits(&self) -> usize {
        match self {
            Self::ChaCha(prf) => prf.charged_state_bits(),
            Self::Oracle(oracle) => oracle.charged_state_bits(),
        }
    }
}

/// The strategy core of the cryptographic route: a keyed PRF plus one
/// static sketch, publishing raw.
pub struct CryptoMask<E> {
    prf: PrfBackend,
    sketch: E,
}

impl<E: Estimator> CryptoMask<E> {
    /// Keys the PRF from `seed` and builds the one static sketch from
    /// `factory` under an independent seed.
    #[must_use]
    pub fn new<F>(backend: CryptoBackend, factory: &F, seed: u64) -> Self
    where
        F: EstimatorFactory<Output = E>,
    {
        let prf = match backend {
            CryptoBackend::ChaChaPrf => PrfBackend::ChaCha(ChaChaPrf::new(seed)),
            CryptoBackend::RandomOracle => PrfBackend::Oracle(RandomOracle::new(seed)),
        };
        Self {
            prf,
            sketch: factory.build(seed.wrapping_add(1)),
        }
    }
}

impl<E: Estimator + Send> StrategyCore for CryptoMask<E> {
    fn ingest(&mut self, update: Update) {
        // Insertion-only model: deletions are ignored by the F0 family.
        if update.delta <= 0 {
            return;
        }
        let masked = self.prf.evaluate(update.item);
        self.sketch.update(Update::new(masked, update.delta));
    }

    /// Masks the batch's insertions in stream order, so the PRF is
    /// evaluated in the order [`StrategyCore::ingest`] would evaluate it,
    /// and hands them to the sketch's `update_batch` one stack chunk at a
    /// time. Deletions are skipped, as in `ingest`.
    fn ingest_batch(&mut self, updates: &[Update]) {
        let mut masked = [Update::insert(0); MASK_CHUNK];
        let mut n = 0;
        for u in updates.iter().filter(|u| u.delta > 0) {
            masked[n] = Update::new(self.prf.evaluate(u.item), u.delta);
            n += 1;
            if n == MASK_CHUNK {
                self.sketch.update_batch(&masked);
                n = 0;
            }
        }
        if n > 0 {
            self.sketch.update_batch(&masked[..n]);
        }
    }

    fn raw_estimate(&self) -> f64 {
        self.sketch.estimate()
    }

    fn space_bytes(&self) -> usize {
        // The static sketch plus the *charged* PRF state (the key for the
        // concrete PRF; only the seed in the random-oracle model).
        self.sketch.space_bytes() + self.prf.charged_state_bits().div_ceil(8)
    }

    fn rounding_mode(&self) -> RoundingMode {
        RoundingMode::Raw
    }

    fn strategy_name(&self) -> &'static str {
        "crypto-mask"
    }
}

#[cfg(test)]
mod tests {
    use ars_sketch::Estimator;
    use ars_stream::generator::{Generator, ZipfGenerator};
    use ars_stream::Update;

    use super::CryptoBackend;
    use crate::{RobustBuilder, RobustEstimator, Strategy};

    #[test]
    fn batched_masking_reads_what_per_update_masking_reads() {
        // Zipf repeats items across batches; every seventh update is a
        // deletion, which both paths must skip before evaluating the PRF.
        let stream: Vec<Update> = ZipfGenerator::new(1 << 14, 1.1, 3)
            .take_updates(3_000)
            .into_iter()
            .enumerate()
            .map(|(t, u)| {
                if t % 7 == 6 {
                    Update::delete(u.item)
                } else {
                    u
                }
            })
            .collect();
        for backend in [CryptoBackend::ChaChaPrf, CryptoBackend::RandomOracle] {
            let build = || {
                RobustBuilder::new(0.25)
                    .stream_length(stream.len() as u64)
                    .domain(1 << 14)
                    .seed(5)
                    .strategy(Strategy::Crypto(backend))
                    .f0()
                    .unwrap()
            };
            for batch in [1, 63, 64, 65, 1_500] {
                let (mut batched, mut sequential) = (build(), build());
                for (b, chunk) in stream.chunks(batch).enumerate() {
                    batched.update_batch(chunk);
                    for &u in chunk {
                        sequential.update(u);
                    }
                    let (got, want) = (batched.query(), sequential.query());
                    let at = format!("{backend:?}, batch size {batch}, batch {b}");
                    assert_eq!(got.value.to_bits(), want.value.to_bits(), "{at}");
                    assert_eq!(got.guarantee, want.guarantee, "{at}");
                    assert_eq!(got.health, want.health, "{at}");
                }
            }
        }
    }
}
