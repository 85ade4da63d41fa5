//! [`SessionManager`]: a multi-tenant registry of named
//! [`StreamSession`]s with aggregate health reporting, a JSON wire surface
//! for readings, and automatic re-provisioning of budget-exhausted
//! estimators.
//!
//! The paper's guarantee is provisioned, not perpetual: an estimator built
//! for flip budget λ stops being covered once its published output has
//! changed λ times ([`Health::BudgetExhausted`]). Attias–Cohen–Shechner–
//! Stemmer 2022 (arXiv:2204.09136) frames robustness exactly as such a
//! spendable budget; a serving system must therefore treat exhaustion as an
//! operational event, not a terminal state. The manager's answer is the
//! re-provisioning path: when a tenant's reading goes budget-exhausted, a
//! fresh estimator is built from the tenant's [`ProvisionerSpec`] with a
//! doubled λ hint, the session's exact frequency state is replayed into it
//! (one batch — at most one publication), and the estimator is swapped
//! under the unchanged validator. Only a problem whose λ is an explicit
//! promise (turnstile `F_p`) honours the hint; an analytic budget (`F₀`,
//! `F_p`, entropy) is rebuilt at the same size with its flip accounting
//! reset, and the λ reported is always the rebuilt estimator's own.
//! Sessions on the stateless validation tier keep no exact state to
//! replay; re-provisioning them fails with the typed
//! [`ArsError::StateUnavailable`] — the documented price of the `O(1)`
//! fast path.
//!
//! Registration, restore and re-provisioning get their estimator from one
//! rebuild path, which builds the spec, opens its session and replays the
//! given state through the session's model check.
//!
//! ```
//! use ars_core::{ProblemSpec, ProvisionerSpec, SessionManager};
//! use ars_stream::Update;
//!
//! let spec = ProvisionerSpec::new(ProblemSpec::F0, 0.2)
//!     .stream_length(10_000)
//!     .seed(7)
//!     .stateless();
//! let mut manager = SessionManager::new();
//! manager.register_spec("edge-us", spec).unwrap();
//! for i in 0..500u64 {
//!     manager.update("edge-us", Update::insert(i)).unwrap();
//! }
//! let reading = manager.query("edge-us").unwrap();
//! assert!((reading.value - 500.0).abs() <= 0.25 * 500.0);
//! assert!(manager.readings_json().contains("\"edge-us\""));
//! ```

use std::collections::BTreeMap;

use ars_stream::{Update, ValidationTier};

use crate::engine::PublicationState;
use crate::error::ArsError;
use crate::estimate::{Estimate, FlipBudget, Health};
use crate::json::{JsonValue, JsonWriter};
use crate::session::StreamSession;
use crate::spec::ProvisionerSpec;

struct Tenant {
    session: StreamSession,
    reprovisions: usize,
    /// The declarative spec the tenant was registered from: it rebuilds
    /// the estimator on re-provisioning and travels in snapshots.
    spec: ProvisionerSpec,
}

impl Tenant {
    /// The one rebuild path: builds `spec` at the λ hint, opens its session
    /// on [`ProvisionerSpec::model`] (with exact state unless the spec opted
    /// out) and ingests `state` as one batch, so every replayed coordinate
    /// is checked against the model and the engine publishes at most once.
    /// Registration, restore and re-provisioning all go through here; it
    /// touches no manager.
    fn open(
        spec: &ProvisionerSpec,
        lambda: Option<usize>,
        state: &[Update],
    ) -> Result<StreamSession, ArsError> {
        let mut session = StreamSession::new(spec.model(), spec.build(lambda)?);
        if spec.exact_state {
            session = session.with_exact_state();
        }
        session.update_batch(state)?;
        Ok(session)
    }

    /// The health after an ingest, re-provisioning first if the budget is
    /// spent. Best-effort: a stateless tenant keeps no state to replay, and
    /// its degraded health is the signal.
    fn heal(&mut self) -> Health {
        let health = self.session.query().health;
        if health != Health::BudgetExhausted {
            return health;
        }
        let _ = self.reprovision();
        self.session.query().health
    }

    /// Rebuilds the estimator from the session's exact state with a doubled
    /// λ hint. Returns the flip budget the rebuilt estimator has.
    fn reprovision(&mut self) -> Result<usize, ArsError> {
        let lambda = match FlipBudget::from_raw(self.session.estimator().flip_budget()) {
            // An unbounded budget never exhausts: there is no lambda to
            // double and nothing to recover from, and building at the
            // usize::MAX sentinel would size a pool by it.
            FlipBudget::Unbounded => {
                return Err(ArsError::StateUnavailable {
                    reason: "the flip budget is unbounded and can never exhaust; \
                             there is no lambda to double",
                })
            }
            // Clamped below usize::MAX so repeated doubling can never
            // saturate into the sentinel FlipBudget reads as Unbounded
            // (and that the spec must never be built at).
            FlipBudget::Bounded(lambda) => lambda.saturating_mul(2).clamp(1, usize::MAX - 1),
        };
        let Some(frequency) = self.session.frequency() else {
            return Err(ArsError::StateUnavailable {
                reason: "the stateless validation tier keeps no exact state to replay \
                         (open the session with with_exact_state())",
            });
        };
        // One reconstruction update per non-zero coordinate: for every
        // linear or support-based sketch this reproduces the estimator
        // state the true stream would have left (the exact vector is a
        // sufficient statistic for the tracked quantity).
        let replay: Vec<Update> = frequency.iter().map(Update::from).collect();
        let fresh = Self::open(&self.spec, Some(lambda), &replay)?.into_estimator();
        let provisioned = fresh.flip_budget();
        self.session.replace_estimator(fresh);
        self.reprovisions += 1;
        Ok(provisioned)
    }
}

/// One tenant's row in [`SessionManager::health_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantHealth {
    /// The tenant's registered name.
    pub name: String,
    /// Current health verdict of the tenant's readings.
    pub health: Health,
    /// Updates accepted and ingested.
    pub accepted: u64,
    /// Updates refused by the validator.
    pub rejected: usize,
    /// Batch-suffix updates dropped behind a refusal.
    pub dropped: usize,
    /// Times the estimator has been re-provisioned (rebuilt from exact state
    /// with a doubled λ hint).
    pub reprovisions: usize,
    /// Times the published output has changed — the spent part of the flip
    /// budget.
    pub flips_used: usize,
    /// The tenant's flip budget as currently provisioned.
    pub flip_budget: FlipBudget,
    /// End-to-end memory: sketch plus validator state.
    pub space_bytes: usize,
    /// The validator's share of that memory (O(1) on the stateless tier).
    pub validator_bytes: usize,
    /// The validation tier enforcing the tenant's model.
    pub tier: ValidationTier,
}

/// A registry of named [`StreamSession`]s: one serving surface for many
/// tenants, with aggregate health, JSON readings, and automatic
/// re-provisioning (see the module docs).
///
/// Tenants are kept in name order, so reports and JSON output are
/// deterministic.
#[derive(Default)]
pub struct SessionManager {
    tenants: BTreeMap<String, Tenant>,
}

impl SessionManager {
    /// Creates an empty manager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a tenant from a declarative [`ProvisionerSpec`]: the spec
    /// is validated by building the initial estimator, the session enforces
    /// [`ProvisionerSpec::model`] (with exact state unless the spec opted
    /// out), and the spec itself rebuilds the estimator on
    /// re-provisioning and travels in [`SessionManager::snapshot_json`].
    /// A tenant already registered under `name` is replaced and its session
    /// returned.
    pub fn register_spec(
        &mut self,
        name: impl Into<String>,
        spec: ProvisionerSpec,
    ) -> Result<Option<StreamSession>, ArsError> {
        let session = Tenant::open(&spec, None, &[])?;
        Ok(self
            .tenants
            .insert(
                name.into(),
                Tenant {
                    session,
                    reprovisions: 0,
                    spec,
                },
            )
            .map(|t| t.session))
    }

    /// The declarative spec the named tenant was registered from, or
    /// `None` for an unknown name.
    #[must_use]
    pub fn spec(&self, name: &str) -> Option<&ProvisionerSpec> {
        self.tenants.get(name).map(|t| &t.spec)
    }

    /// Removes a tenant, returning its session.
    pub fn deregister(&mut self, name: &str) -> Option<StreamSession> {
        self.tenants.remove(name).map(|t| t.session)
    }

    /// Number of registered tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether no tenants are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// Registered tenant names, in order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.tenants.keys().map(String::as_str).collect()
    }

    /// Read access to a tenant's session.
    #[must_use]
    pub fn session(&self, name: &str) -> Option<&StreamSession> {
        self.tenants.get(name).map(|t| &t.session)
    }

    fn tenant_mut(&mut self, name: &str) -> Result<&mut Tenant, ArsError> {
        self.tenants
            .get_mut(name)
            .ok_or_else(|| ArsError::UnknownSession {
                name: name.to_string(),
            })
    }

    /// Routes one update to the named tenant. Model violations surface as
    /// [`ArsError::Stream`] exactly as on the session itself; on success
    /// the tenant's health after the update is returned — and if that
    /// health is [`Health::BudgetExhausted`], the estimator is rebuilt
    /// first (state replayed) and the post-rebuild health returned. A
    /// tenant whose tier keeps no exact state cannot be auto-rebuilt; it
    /// stays degraded and reports `BudgetExhausted`.
    pub fn update(&mut self, name: &str, update: Update) -> Result<Health, ArsError> {
        let tenant = self.tenant_mut(name)?;
        tenant.session.update(update)?;
        Ok(tenant.heal())
    }

    /// Routes a batch to the named tenant through the session's amortized
    /// hot path, with the same auto-re-provisioning contract and the same
    /// post-batch health as [`SessionManager::update`].
    pub fn update_batch(&mut self, name: &str, updates: &[Update]) -> Result<Health, ArsError> {
        let tenant = self.tenant_mut(name)?;
        tenant.session.update_batch(updates)?;
        Ok(tenant.heal())
    }

    /// The named tenant's current typed reading.
    pub fn query(&self, name: &str) -> Result<Estimate, ArsError> {
        self.tenants
            .get(name)
            .map(|t| t.session.query())
            .ok_or_else(|| ArsError::UnknownSession {
                name: name.to_string(),
            })
    }

    /// Manually re-provisions the named tenant: rebuilt with a doubled λ
    /// hint, exact state replayed, estimator swapped. Returns the flip
    /// budget the rebuilt estimator has, which stays the same for an
    /// analytic budget that ignores the hint. Fails with
    /// [`ArsError::StateUnavailable`] when the tenant's validation tier
    /// keeps no exact state, [`ArsError::UnknownSession`] for unknown
    /// names, and with the spec's own build error if it cannot be built at
    /// the doubled λ.
    pub fn reprovision(&mut self, name: &str) -> Result<usize, ArsError> {
        self.tenant_mut(name)?.reprovision()
    }

    /// Aggregate health: one [`TenantHealth`] row per tenant, in name
    /// order.
    #[must_use]
    pub fn health_report(&self) -> Vec<TenantHealth> {
        self.tenants
            .iter()
            .map(|(name, tenant)| {
                let reading = tenant.session.query();
                TenantHealth {
                    name: name.clone(),
                    health: reading.health,
                    accepted: tenant.session.len(),
                    rejected: tenant.session.rejected(),
                    dropped: tenant.session.dropped(),
                    reprovisions: tenant.reprovisions,
                    flips_used: reading.flips_used,
                    flip_budget: reading.flip_budget,
                    space_bytes: tenant.session.space_bytes(),
                    validator_bytes: tenant.session.validator_bytes(),
                    tier: tenant.session.validator_tier(),
                }
            })
            .collect()
    }

    /// Serializes every tenant's current reading as one JSON object — the
    /// manager's wire surface. Built on [`crate::json::JsonWriter`] like
    /// the rest of the repo's JSON; each reading is [`Estimate::to_json`]
    /// and parses back with [`Estimate::try_from_json`].
    #[must_use]
    pub fn readings_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(64 + 256 * self.tenants.len());
        w.raw("{").key("sessions").raw("[");
        for (i, (name, tenant)) in self.tenants.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            w.raw("{")
                .key("name")
                .string(name)
                .raw(",")
                .key("tier")
                .string(tenant.session.validator_tier().as_str())
                .raw(",")
                .key("reprovisions")
                .uint(tenant.reprovisions as u64)
                .raw(",")
                .key("reading")
                .raw(&tenant.session.query().to_json())
                .raw("}");
        }
        w.raw("]}");
        w.finish()
    }

    /// Serializes the whole fleet for snapshot/restore: for every tenant
    /// its name, registration spec, provisioned λ, publication accounting
    /// (flip ledger and the ε-rounding anchor, when the estimator exposes
    /// the [`PublicationState`] seam), re-provision count, exact frequency
    /// state (item-sorted for determinism; `null` on stateless sessions)
    /// and the current reading.
    ///
    /// [`SessionManager::restore_json`] rebuilds a manager from this
    /// document; for tenants with exact state the restored readings are
    /// **bitwise identical** for every estimator exposing the
    /// publication seam (the engine-backed ones — the bespoke heavy-hitters
    /// structure restores to a within-guarantee reading instead).
    #[must_use]
    pub fn snapshot_json(&self) -> String {
        let mut w = JsonWriter::with_capacity(128 + 512 * self.tenants.len());
        w.raw("{")
            .key("version")
            .uint(1)
            .raw(",")
            .key("tenants")
            .raw("[");
        for (i, (name, tenant)) in self.tenants.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            let estimator = tenant.session.estimator();
            w.raw("{")
                .key("name")
                .string(name)
                .raw(",")
                .key("spec")
                .raw(&tenant.spec.to_json());
            // Raw-token integer: λ may be the usize::MAX - 1 doubling clamp,
            // which does not survive an f64 round trip.
            w.raw(",")
                .key("lambda")
                .uint(estimator.flip_budget() as u64)
                .raw(",")
                .key("flips_used")
                .uint(estimator.output_changes() as u64)
                .raw(",")
                .key("published");
            match estimator.publication_state().and_then(|s| s.published) {
                Some(anchor) => {
                    w.number(anchor);
                }
                None => {
                    w.null();
                }
            }
            w.raw(",")
                .key("reprovisions")
                .uint(tenant.reprovisions as u64)
                .raw(",")
                .key("tier")
                .string(tenant.session.validator_tier().as_str())
                .raw(",")
                .key("frequency");
            match tenant.session.frequency() {
                Some(frequency) => {
                    let mut coords: Vec<Update> = frequency.iter().map(Update::from).collect();
                    coords.sort_unstable_by_key(|u| u.item);
                    w.pairs(&coords);
                }
                None => {
                    w.null();
                }
            }
            w.raw(",")
                .key("reading")
                .raw(&tenant.session.query().to_json())
                .raw("}");
        }
        w.raw("]}");
        w.finish()
    }

    /// Rebuilds tenants from a [`SessionManager::snapshot_json`] document,
    /// merging them into this manager by name (an existing tenant under the
    /// same name is replaced). Returns the number of tenants restored.
    ///
    /// Restoration is two-phase: every tenant is parsed, rebuilt from its
    /// spec (at the snapshotted λ, so a doubled budget survives), replayed
    /// from its exact frequency state and handed its publication accounting
    /// back **before** the manager is touched — a malformed snapshot is a
    /// typed [`ArsError::Wire`] with the manager unchanged. A row whose
    /// spec is missing or `null` cannot be rebuilt and is reported the same
    /// way.
    pub fn restore_json(&mut self, text: &str) -> Result<usize, ArsError> {
        fn wire(reason: String) -> ArsError {
            ArsError::Wire { reason }
        }
        let doc = JsonValue::parse_strict(text).map_err(|err| wire(format!("snapshot: {err}")))?;
        match doc.get("version").and_then(JsonValue::as_u64) {
            Some(1) => {}
            Some(v) => return Err(wire(format!("snapshot: unsupported version {v}"))),
            None => return Err(wire("snapshot: missing integer \"version\"".to_string())),
        }
        let rows = doc
            .get("tenants")
            .and_then(JsonValue::items)
            .ok_or_else(|| wire("snapshot: missing \"tenants\" array".to_string()))?;

        let mut restored: Vec<(String, Tenant)> = Vec::with_capacity(rows.len());
        for row in rows {
            let name = row
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| wire("snapshot: tenant without a \"name\"".to_string()))?
                .to_string();
            let spec = match row.get("spec") {
                Some(JsonValue::Null) | None => {
                    return Err(wire(format!(
                        "snapshot: tenant {name:?} has no provisioner spec; it cannot be \
                         restored"
                    )))
                }
                Some(node) => ProvisionerSpec::from_value(node)
                    .map_err(|err| wire(format!("snapshot: tenant {name:?}: {err}")))?,
            };
            let lambda = row
                .get("lambda")
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| {
                    wire(format!(
                        "snapshot: tenant {name:?}: missing integer \"lambda\""
                    ))
                })?;
            let flips = row
                .get("flips_used")
                .and_then(JsonValue::as_usize)
                .unwrap_or(0);
            let published = match row.get("published") {
                Some(JsonValue::Null) | None => None,
                Some(node) => Some(node.as_f64().ok_or_else(|| {
                    wire(format!(
                        "snapshot: tenant {name:?}: non-numeric \"published\""
                    ))
                })?),
            };
            let reprovisions = row
                .get("reprovisions")
                .and_then(JsonValue::as_usize)
                .unwrap_or(0);

            let replay = match row.get("frequency") {
                Some(JsonValue::Null) | None => Vec::new(),
                Some(node) => node.as_pairs().map_err(|err| {
                    wire(format!("snapshot: tenant {name:?}: \"frequency\": {err}"))
                })?,
            };
            // Rebuild at the snapshotted budget, not the spec's base one:
            // a re-provisioned tenant keeps its doubled λ across restore.
            // The replay's one publication is overwritten by the anchor
            // restore below.
            let hint = match FlipBudget::from_raw(lambda) {
                FlipBudget::Bounded(l) => Some(l),
                FlipBudget::Unbounded => None,
            };
            let mut session = Tenant::open(&spec, hint, &replay).map_err(|err| match err {
                ArsError::Stream(_) => wire(format!(
                    "snapshot: tenant {name:?}: frequency replay violates the spec's stream \
                     model: {err}"
                )),
                err => wire(format!("snapshot: tenant {name:?}: {err}")),
            })?;
            // Hand the publication accounting back so restored readings
            // reproduce the snapshot bitwise (a no-op on estimators without
            // the seam, which fall back to the replay-derived publication).
            session
                .estimator_mut()
                .restore_publication(&PublicationState {
                    published,
                    flips,
                    lambda,
                });
            restored.push((
                name,
                Tenant {
                    session,
                    reprovisions,
                    spec,
                },
            ));
        }

        let count = restored.len();
        for (name, tenant) in restored {
            self.tenants.insert(name, tenant);
        }
        Ok(count)
    }
}

impl std::fmt::Debug for SessionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionManager")
            .field("tenants", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto_mask::CryptoBackend;
    use crate::spec::ProblemSpec;
    use crate::Strategy;
    use ars_stream::generator::{Generator, TurnstileWaveGenerator};

    fn f0_spec() -> ProvisionerSpec {
        ProvisionerSpec::new(ProblemSpec::F0, 0.2)
            .stream_length(20_000)
            .domain(1 << 12)
            .seed(11)
    }

    /// A manager with one stateless-tier F0 tenant.
    fn manager_with_f0(name: &str) -> SessionManager {
        let mut manager = SessionManager::new();
        manager.register_spec(name, f0_spec().stateless()).unwrap();
        manager
    }

    #[test]
    fn routes_updates_and_queries_by_name() {
        let mut manager = manager_with_f0("tenant-a");
        manager
            .register_spec("tenant-b", f0_spec().seed(13).stateless())
            .unwrap();
        assert_eq!(manager.len(), 2);
        assert_eq!(manager.names(), vec!["tenant-a", "tenant-b"]);

        for i in 0..600u64 {
            manager.update("tenant-a", Update::insert(i % 300)).unwrap();
            manager.update("tenant-b", Update::insert(i % 150)).unwrap();
        }
        let a = manager.query("tenant-a").unwrap();
        let b = manager.query("tenant-b").unwrap();
        assert!((a.value - 300.0).abs() <= 0.25 * 300.0, "{a}");
        assert!((b.value - 150.0).abs() <= 0.25 * 150.0, "{b}");

        assert!(matches!(
            manager.update("nobody", Update::insert(1)),
            Err(ArsError::UnknownSession { .. })
        ));
        assert!(matches!(
            manager.query("nobody"),
            Err(ArsError::UnknownSession { .. })
        ));
        assert!(manager.deregister("tenant-b").is_some());
        assert_eq!(manager.len(), 1);
    }

    #[test]
    fn batch_routing_uses_the_session_hot_path() {
        let mut manager = manager_with_f0("bulk");
        let batch: Vec<Update> = (0..2_048u64).map(|i| Update::insert(i % 400)).collect();
        assert_eq!(
            manager.update_batch("bulk", &batch).unwrap(),
            Health::WithinGuarantee
        );
        let reading = manager.query("bulk").unwrap();
        assert!((reading.value - 400.0).abs() <= 0.25 * 400.0, "{reading}");
    }

    #[test]
    fn health_report_covers_every_tenant_in_name_order() {
        let mut manager = manager_with_f0("zeta");
        manager
            .register_spec("alpha", f0_spec().seed(17).stateless())
            .unwrap();
        manager.update("zeta", Update::insert(1)).unwrap();
        // Violate alpha's promise so the report distinguishes the two.
        let _ = manager.update("alpha", Update::delete(1));

        let report = manager.health_report();
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].name, "alpha");
        assert_eq!(report[0].health, Health::PromiseViolated);
        assert_eq!(report[0].rejected, 1);
        assert_eq!(report[1].name, "zeta");
        assert_eq!(report[1].health, Health::WithinGuarantee);
        assert_eq!(report[1].accepted, 1);
        for row in &report {
            assert_eq!(row.tier, ValidationTier::Stateless);
            assert!(row.space_bytes > row.validator_bytes);
            assert!(matches!(row.flip_budget, FlipBudget::Bounded(_)));
        }
    }

    #[test]
    fn readings_json_round_trips_through_the_estimate_parser() {
        let mut manager = manager_with_f0("edge \"eu\"");
        for i in 0..300u64 {
            manager.update("edge \"eu\"", Update::insert(i)).unwrap();
        }
        let json = manager.readings_json();
        assert!(json.starts_with("{\"sessions\":["));
        assert!(json.contains("edge \\\"eu\\\""), "{json}");
        assert!(json.contains("\"tier\":\"stateless\""));
        // The embedded reading parses back to exactly the live reading.
        let start = json.find("\"reading\":").unwrap() + "\"reading\":".len();
        let parsed = Estimate::try_from_json(&json[start..]).expect("embedded reading parses");
        assert_eq!(parsed, manager.query("edge \"eu\"").unwrap());
    }

    #[test]
    fn exhausted_tenants_are_reprovisioned_with_a_doubled_budget() {
        // A turnstile F2 estimator promised a tiny flip budget, driven
        // through insert/delete waves that blow it. The manager must
        // rebuild it with doubled lambda from the session's exact state
        // and keep the readings trustworthy.
        let lambda0 = 2usize;
        let spec = ProvisionerSpec::new(
            ProblemSpec::TurnstileFp {
                p: 2.0,
                lambda: lambda0,
            },
            0.25,
        )
        .stream_length(20_000)
        .domain(1 << 10)
        .max_frequency(64)
        .seed(23);
        let mut manager = SessionManager::new();
        manager.register_spec("waves", spec).unwrap();

        let mut saw_exhaustion_heal = false;
        for u in TurnstileWaveGenerator::new(400).take_updates(6_000) {
            let health = manager.update("waves", u).unwrap();
            if manager.health_report()[0].reprovisions > 0 {
                saw_exhaustion_heal = true;
                // Post-rebuild the reading is trustworthy again.
                assert_eq!(health, Health::WithinGuarantee);
                break;
            }
        }
        assert!(
            saw_exhaustion_heal,
            "the waves never exhausted the {lambda0}-flip budget"
        );
        let report = &manager.health_report()[0];
        assert_eq!(report.reprovisions, 1);
        assert_eq!(report.flip_budget, FlipBudget::Bounded(2 * lambda0));

        // State continuity: push a fresh block so the truth is large, then
        // check the rebuilt estimator tracks the exact answer the session
        // accumulated across the swap.
        for i in 0..200u64 {
            for _ in 0..3 {
                manager.update("waves", Update::insert(600 + i)).unwrap();
            }
        }
        let reading = manager.query("waves").unwrap();
        let truth = manager.session("waves").unwrap().frequency().unwrap().f2();
        assert!(
            (reading.value - truth).abs() <= 0.5 * truth,
            "post-rebuild reading {reading} far from exact F2 {truth}"
        );
    }

    #[test]
    fn stateless_tenants_report_typed_errors_on_reprovision() {
        let mut manager = manager_with_f0("fast-path");
        manager.update("fast-path", Update::insert(1)).unwrap();
        match manager.reprovision("fast-path") {
            Err(ArsError::StateUnavailable { reason }) => {
                assert!(reason.contains("stateless"), "{reason}");
            }
            other => panic!("expected StateUnavailable, got {other:?}"),
        }
        assert!(matches!(
            manager.reprovision("nobody"),
            Err(ArsError::UnknownSession { .. })
        ));
    }

    #[test]
    fn unbounded_budget_tenants_refuse_reprovisioning_without_calling_the_factory() {
        // The crypto route needs no flip budget; re-provisioning it is
        // meaningless, and the spec must never be built at the usize::MAX
        // sentinel as a lambda to size a pool by. (A build would succeed —
        // the crypto route ignores the hint — so a zero re-provision count
        // proves the spec was never called.)
        let spec = ProvisionerSpec {
            problem: ProblemSpec::CryptoF0,
            ..f0_spec()
        }
        .strategy(Strategy::Crypto(CryptoBackend::default()));
        let mut manager = SessionManager::new();
        manager.register_spec("crypto", spec).unwrap();
        manager.update("crypto", Update::insert(1)).unwrap();
        match manager.reprovision("crypto") {
            Err(ArsError::StateUnavailable { reason }) => {
                assert!(reason.contains("unbounded"), "{reason}");
            }
            other => panic!("expected StateUnavailable, got {other:?}"),
        }
        assert_eq!(manager.health_report()[0].reprovisions, 0);
    }

    #[test]
    fn spec_tenants_snapshot_and_restore_bitwise() {
        // A spec-registered turnstile tenant driven past exhaustion (so the
        // snapshot carries a doubled lambda and a non-trivial flip ledger)
        // plus a spec-registered F0 tenant.
        let mut manager = SessionManager::new();
        let waves_spec = ProvisionerSpec::new(ProblemSpec::TurnstileFp { p: 2.0, lambda: 2 }, 0.25)
            .stream_length(20_000)
            .domain(1 << 10)
            .max_frequency(64)
            .seed(23);
        manager.register_spec("waves", waves_spec).unwrap();
        let f0_spec = ProvisionerSpec::new(ProblemSpec::F0, 0.2)
            .stream_length(20_000)
            .domain(1 << 12)
            .seed(11);
        manager.register_spec("edge", f0_spec).unwrap();

        for u in TurnstileWaveGenerator::new(400).take_updates(6_000) {
            manager.update("waves", u).unwrap();
            if manager.health_report()[1].reprovisions > 0 {
                break;
            }
        }
        assert!(
            manager.health_report()[1].reprovisions > 0,
            "the waves never exhausted the budget"
        );
        for i in 0..500u64 {
            manager.update("edge", Update::insert(i % 250)).unwrap();
        }

        let snapshot = manager.snapshot_json();
        let mut restored = SessionManager::new();
        assert_eq!(restored.restore_json(&snapshot).unwrap(), 2);

        // Bitwise-identical readings and identical wire surface.
        for name in ["edge", "waves"] {
            assert_eq!(
                restored.query(name).unwrap().to_json(),
                manager.query(name).unwrap().to_json(),
                "restored reading for {name} diverged"
            );
        }
        assert_eq!(restored.readings_json(), manager.readings_json());
        // Operational state survives: the doubled budget, the ledger, the
        // re-provision count, and the spec itself.
        let (orig, back) = (&manager.health_report()[1], &restored.health_report()[1]);
        assert_eq!(back.flip_budget, orig.flip_budget);
        assert_eq!(back.flips_used, orig.flips_used);
        assert_eq!(back.reprovisions, orig.reprovisions);
        assert_eq!(restored.spec("waves"), manager.spec("waves"));
        // And a snapshot of the restored manager round-trips to the same
        // document (modulo the accepted counter, which restarts at the
        // replayed support size — so compare a second-generation restore).
        let second = {
            let mut m = SessionManager::new();
            m.restore_json(&restored.snapshot_json()).unwrap();
            m
        };
        assert_eq!(second.readings_json(), restored.readings_json());
    }

    #[test]
    fn wide_f0_tenants_restore_bitwise_through_a_multi_chunk_replay() {
        // At ε = 0.25 every KMV keeps k = 1,024 minima, so a replay of
        // more than 3,000 coordinates spans several k-sized chunks.
        let spec = ProvisionerSpec::new(ProblemSpec::F0, 0.25)
            .stream_length(1 << 16)
            .domain(1 << 16)
            .seed(29);
        let mut manager = SessionManager::new();
        manager.register_spec("wide", spec).unwrap();
        let stream: Vec<Update> = (0..7_000u64)
            .map(|t| Update::insert((t * 7_919) % 3_500))
            .collect();
        for batch in stream.chunks(256) {
            manager.update_batch("wide", batch).unwrap();
        }
        let frequency = manager.tenants["wide"].session.frequency().unwrap();
        assert_eq!(frequency.f0(), 3_500);
        let snapshot = manager.snapshot_json();

        let mut restored = SessionManager::new();
        assert_eq!(restored.restore_json(&snapshot).unwrap(), 1);
        assert_eq!(
            restored.query("wide").unwrap().to_json(),
            manager.query("wide").unwrap().to_json()
        );
        // A second restore replays into the same state: its snapshot is the
        // first restore's, byte for byte.
        let mut second = SessionManager::new();
        second.restore_json(&restored.snapshot_json()).unwrap();
        assert_eq!(second.snapshot_json(), restored.snapshot_json());
    }

    #[test]
    fn restored_tenants_keep_serving_and_reprovisioning() {
        let mut manager = SessionManager::new();
        let spec = ProvisionerSpec::new(ProblemSpec::TurnstileFp { p: 2.0, lambda: 2 }, 0.25)
            .stream_length(40_000)
            .domain(1 << 10)
            .max_frequency(64)
            .seed(23);
        manager.register_spec("waves", spec).unwrap();
        let mut wave = TurnstileWaveGenerator::new(400);
        for u in wave.take_updates(1_000) {
            manager.update("waves", u).unwrap();
        }

        let mut restored = SessionManager::new();
        restored.restore_json(&manager.snapshot_json()).unwrap();
        // The restored tenant ingests the rest of the stream and heals
        // itself through its spec-derived provisioner when the budget blows.
        for u in wave.take_updates(8_000) {
            restored.update("waves", u).unwrap();
        }
        let report = &restored.health_report()[0];
        assert!(
            report.reprovisions > 0,
            "restored tenant never re-provisioned"
        );
        assert_eq!(report.health, Health::WithinGuarantee);
    }

    #[test]
    fn restore_rejects_malformed_snapshots_without_touching_the_manager() {
        let mut manager = SessionManager::new();
        manager
            .register_spec("keep", ProvisionerSpec::new(ProblemSpec::F0, 0.2))
            .unwrap();
        for (snapshot, needle) in [
            ("not json", "snapshot"),
            ("{\"tenants\":[]}", "version"),
            ("{\"version\":2,\"tenants\":[]}", "unsupported version"),
            ("{\"version\":1}", "tenants"),
            ("{\"version\":1,\"tenants\":[{\"spec\":null}]}", "name"),
            (
                "{\"version\":1,\"tenants\":[{\"name\":\"x\",\"spec\":null,\"lambda\":4}]}",
                "no provisioner spec",
            ),
            (
                "{\"version\":1,\"tenants\":[{\"name\":\"x\",\"spec\":{\"problem\":\"f0\",\
                 \"epsilon\":0.2}}]}",
                "lambda",
            ),
            // The pair codec's three refusals, and a replay the model
            // check refuses: an F0 tenant's state cannot hold a deletion.
            (
                "{\"version\":1,\"tenants\":[{\"name\":\"x\",\"spec\":{\"problem\":\"f0\",\
                 \"epsilon\":0.2},\"lambda\":4,\"frequency\":{}}]}",
                "not an array",
            ),
            (
                "{\"version\":1,\"tenants\":[{\"name\":\"x\",\"spec\":{\"problem\":\"f0\",\
                 \"epsilon\":0.2},\"lambda\":4,\"frequency\":[[1]]}]}",
                "[item, delta] pairs",
            ),
            (
                "{\"version\":1,\"tenants\":[{\"name\":\"x\",\"spec\":{\"problem\":\"f0\",\
                 \"epsilon\":0.2},\"lambda\":4,\"frequency\":[[1,\"a\"]]}]}",
                "non-integer",
            ),
            (
                "{\"version\":1,\"tenants\":[{\"name\":\"x\",\"spec\":{\"problem\":\"f0\",\
                 \"epsilon\":0.2},\"lambda\":4,\"frequency\":[[1,-1]]}]}",
                "stream model",
            ),
        ] {
            match manager.restore_json(snapshot) {
                Err(ArsError::Wire { reason }) => {
                    assert!(reason.contains(needle), "{snapshot}: {reason}");
                }
                other => panic!("{snapshot}: expected Wire, got {other:?}"),
            }
            assert_eq!(
                manager.names(),
                vec!["keep"],
                "manager must be unchanged after {snapshot}"
            );
        }
    }

    #[test]
    fn manual_reprovision_replays_exact_state() {
        let mut manager = SessionManager::new();
        manager.register_spec("replayed", f0_spec()).unwrap();
        for i in 0..800u64 {
            manager.update("replayed", Update::insert(i % 250)).unwrap();
        }
        let before = manager.query("replayed").unwrap();
        let lambda = manager.reprovision("replayed").unwrap();
        assert!(lambda >= 2, "doubling never provisions below 2");
        let after = manager.query("replayed").unwrap();
        // The rebuilt estimator saw the replayed support: same truth, same
        // guarantee band (values may differ within it).
        assert!(
            (after.value - 250.0).abs() <= 0.25 * 250.0,
            "replayed reading {after} lost the state (before: {before})"
        );
        assert_eq!(manager.health_report()[0].reprovisions, 1);
    }

    #[test]
    fn reprovision_reports_the_budget_the_tenant_has() {
        // F0's budget is analytic: the doubled hint is ignored, so the
        // rebuilt pool has the budget the tenant started with. The turnstile
        // route honours the hint. Either way the returned λ is the one the
        // health report shows.
        let turnstile = ProvisionerSpec::new(ProblemSpec::TurnstileFp { p: 2.0, lambda: 3 }, 0.25)
            .stream_length(20_000)
            .domain(1 << 10)
            .max_frequency(64)
            .seed(23);
        let mut manager = SessionManager::new();
        manager.register_spec("distinct", f0_spec()).unwrap();
        manager.register_spec("waves", turnstile).unwrap();
        for i in 0..300u64 {
            manager.update("distinct", Update::insert(i)).unwrap();
            manager.update("waves", Update::insert(i % 7)).unwrap();
        }
        let before = manager.health_report();
        for (row, name) in before.iter().zip(["distinct", "waves"]) {
            let lambda = manager.reprovision(name).unwrap();
            let after = manager
                .health_report()
                .into_iter()
                .find(|r| r.name == name)
                .unwrap();
            assert_eq!(after.flip_budget, FlipBudget::Bounded(lambda), "{name}");
            let FlipBudget::Bounded(old) = row.flip_budget else {
                panic!("{name}: unbounded budget");
            };
            let expected = if name == "waves" { 2 * old } else { old };
            assert_eq!(lambda, expected, "{name}");
        }
    }
}
