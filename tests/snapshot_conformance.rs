//! Snapshot/restore conformance across every problem the declarative
//! provisioner spec can express: for each [`ProblemSpec`] variant, drive a
//! tenant through a model-appropriate workload, snapshot the manager,
//! restore into a fresh one, and compare the typed reading.
//!
//! The workload is ingested in small batches ([`CHUNK`] updates each), so
//! the estimator publishes many times before the snapshot and the flip
//! ledger the snapshot must carry is non-trivial. (A single large batch
//! publishes at most once, which would leave that ledger untested.)
//!
//! Engine-backed estimators carry the publication seam
//! (`publication_state` / `restore_publication`), so their restored
//! readings must be **bitwise-identical** JSON. Heavy hitters is the one
//! bespoke estimator without the seam: its restore replays the exact
//! frequency state, which keeps the reading within-guarantee but not
//! necessarily bitwise-stable — the weaker contract is asserted instead.

use adversarial_robust_streaming::robust::spec::{ProblemSpec, ProvisionerSpec};
use adversarial_robust_streaming::robust::{Health, SessionManager};
use adversarial_robust_streaming::stream::generator::{
    Generator, TurnstileWaveGenerator, UniformGenerator,
};
use adversarial_robust_streaming::stream::Update;

/// Updates per ingested batch.
const CHUNK: usize = 16;

/// Whether restored readings for this problem must match bitwise.
fn bitwise(problem: &ProblemSpec) -> bool {
    !matches!(problem, ProblemSpec::HeavyHitters)
}

fn workload(problem: &ProblemSpec) -> Vec<Update> {
    match problem {
        // Turnstile waves oscillate hard enough to exercise flip
        // accounting; everything else takes an insertion-only stream
        // (valid in every model).
        ProblemSpec::TurnstileFp { .. } => TurnstileWaveGenerator::new(200).take_updates(2_000),
        _ => UniformGenerator::new(1 << 8, 13).take_updates(2_000),
    }
}

#[test]
fn every_spec_variant_round_trips_through_snapshot_and_restore() {
    let problems = [
        ProblemSpec::F0,
        ProblemSpec::Fp { p: 2.0 },
        ProblemSpec::FpLarge { p: 3.0 },
        ProblemSpec::TurnstileFp { p: 2.0, lambda: 4 },
        ProblemSpec::BoundedDeletionFp { p: 2.0, alpha: 4.0 },
        ProblemSpec::Entropy,
        ProblemSpec::HeavyHitters,
        ProblemSpec::CryptoF0,
    ];

    for problem in problems {
        let name = problem.name();
        let spec = ProvisionerSpec::new(problem, 0.25)
            .domain(1 << 8)
            .max_frequency(128)
            .stream_length(1 << 12)
            .seed(31);

        let mut manager = SessionManager::new();
        manager
            .register_spec(name, spec)
            .unwrap_or_else(|e| panic!("{name}: register failed: {e}"));
        for chunk in workload(&problem).chunks(CHUNK) {
            manager
                .update_batch(name, chunk)
                .unwrap_or_else(|e| panic!("{name}: ingest failed: {e}"));
        }

        let before = manager
            .query(name)
            .unwrap_or_else(|e| panic!("{name}: query failed: {e}"));
        let snapshot = manager.snapshot_json();

        let mut restored = SessionManager::new();
        let count = restored
            .restore_json(&snapshot)
            .unwrap_or_else(|e| panic!("{name}: restore failed: {e}"));
        assert_eq!(count, 1, "{name}: restored tenant count");

        let after = restored
            .query(name)
            .unwrap_or_else(|e| panic!("{name}: restored query failed: {e}"));

        if bitwise(&problem) {
            assert_eq!(
                before.to_json(),
                after.to_json(),
                "{name}: engine-backed restore must be bitwise-identical"
            );
        } else {
            // Bespoke estimator: exact frequency state is replayed, so the
            // restored reading still honors the guarantee even though its
            // publication ledger is replay-derived.
            assert_eq!(after.health, Health::WithinGuarantee, "{name}");
            assert!(
                after.guarantee.contains(before.value),
                "{name}: restored guarantee {:?} lost the live value {}",
                after.guarantee,
                before.value
            );
        }

        // A restored tenant is live: it keeps accepting updates and a
        // second-generation snapshot parses and restores too.
        restored
            .update(name, Update::insert(3))
            .unwrap_or_else(|e| panic!("{name}: restored ingest failed: {e}"));
        let mut third = SessionManager::new();
        assert_eq!(
            third.restore_json(&restored.snapshot_json()).ok(),
            Some(1),
            "{name}: second-generation restore"
        );
    }
}
