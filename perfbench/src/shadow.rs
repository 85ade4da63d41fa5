//! Shadow replays for the per-layer trace.
//!
//! The manager keeps its validator and estimator private, so the layers
//! below it are timed on shadows: for every tenant, a `StreamValidator`
//! and a `RobustEstimator` positioned at the tenant's state at the start
//! of the fixed-rate phase (a restore of the same snapshot), fed the very
//! batches the tenant received. Replays run after the phases, outside the
//! request spans and the CPU window. When the manager re-provisioned a
//! tenant, its shadow estimator is rebuilt the same way: the spec built at
//! the doubled λ, then the exact state replayed as one batch.

use std::time::{Duration, Instant};

use ars_core::api::RobustEstimator;
use ars_core::manager::SessionManager;
use ars_core::spec::ProvisionerSpec;
use ars_stream::{FrequencyVector, StreamValidator, Update};

use crate::load::Ingest;

struct Shadow {
    spec: ProvisionerSpec,
    validator: StreamValidator,
    estimator: Box<dyn RobustEstimator>,
}

/// An exact frequency state as one replay batch, one update per coordinate.
fn replay_batch(frequency: Option<&FrequencyVector>) -> Vec<Update> {
    frequency
        .map(|f| {
            f.iter()
                .map(|(item, count)| Update::new(item, count))
                .collect()
        })
        .unwrap_or_default()
}

/// Per-layer costs measured on the shadows.
#[derive(Debug, Default)]
pub struct ShadowCosts {
    /// Updates offered to the validators.
    pub validated: u64,
    pub validate: Duration,
    /// Updates the estimators ingested.
    pub ingested: u64,
    pub ingest: Duration,
    /// Σ over batches of ingest time ÷ the estimator's copy count.
    pub ingest_per_copy: f64,
    pub queries: u64,
    pub query: Duration,
}

/// Replays `logs` (fleet-ordered tenant `names`) into shadows restored from
/// `start` up to the end of phase `timed_phase`, timing only its ingests.
pub fn replay(
    start: &mut SessionManager,
    names: &[String],
    logs: &[Vec<Ingest>],
    timed_phase: usize,
) -> Result<ShadowCosts, String> {
    let mut shadows = Vec::with_capacity(names.len());
    for name in names {
        let spec = *start
            .spec(name)
            .ok_or_else(|| format!("shadow: tenant {name} has no spec"))?;
        let session = start
            .deregister(name)
            .ok_or_else(|| format!("shadow: tenant {name} missing from the restore"))?;
        let mut validator = StreamValidator::new(spec.model()).with_exact_state();
        validator
            .apply_all(&replay_batch(session.frequency()))
            .map_err(|err| format!("shadow: {name}: exact state is out of model: {err}"))?;
        shadows.push(Shadow {
            spec,
            validator,
            estimator: session.into_estimator(),
        });
    }

    let mut costs = ShadowCosts::default();
    for ingest in logs
        .iter()
        .flatten()
        .filter(|ingest| ingest.phase <= timed_phase)
    {
        let shadow = &mut shadows[ingest.tenant];
        let timed = ingest.phase == timed_phase;
        let batch = &ingest.batch;

        // The session's contract: validate in order, ingest the admissible
        // prefix as one batch.
        let t0 = Instant::now();
        let admitted = batch
            .iter()
            .position(|&u| shadow.validator.apply(u).is_err())
            .unwrap_or(batch.len());
        let t1 = Instant::now();
        shadow.estimator.update_batch(&batch[..admitted]);
        let t2 = Instant::now();
        let reading = shadow.estimator.query();
        let t3 = Instant::now();
        std::hint::black_box(reading);
        if timed {
            costs.validated += admitted as u64 + u64::from(admitted < batch.len());
            costs.validate += t1 - t0;
            costs.ingested += admitted as u64;
            costs.ingest += t2 - t1;
            costs.ingest_per_copy += (t2 - t1).as_secs_f64() / shadow.estimator.copies() as f64;
            costs.queries += 1;
            costs.query += t3 - t2;
        }

        if let Some(lambda) = ingest.lambda_after {
            let mut fresh = shadow
                .spec
                .build(Some(lambda))
                .map_err(|err| format!("shadow: rebuild at lambda {lambda}: {err}"))?;
            fresh.update_batch(&replay_batch(shadow.validator.frequency()));
            shadow.estimator = fresh;
        }
    }
    Ok(costs)
}
