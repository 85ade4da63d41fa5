//! Prometheus-style metrics for the serving surface.
//!
//! Hand-rolled like the rest of the repo's wire formats: the registry
//! keeps request/response counters and a fixed-bucket latency histogram
//! behind one mutex, a lock-free connection counter beside them, and
//! [`MetricsRegistry::render`] emits the text exposition format
//! (`# HELP`/`# TYPE` plus samples) with per-tenant series (counters for
//! the `_total` ones, gauges otherwise) derived from the live
//! [`ars_core::manager::SessionManager`] health report — flip ledger and
//! budget, re-provision count, accepted updates, space, tier.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use ars_core::estimate::FlipBudget;
use ars_core::manager::TenantHealth;

/// Upper bounds (seconds) of the request-latency histogram buckets; the
/// terminal `+Inf` bucket is implicit.
pub const LATENCY_BUCKETS: [f64; 10] = [
    0.000_1, 0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.025, 0.1, 1.0,
];

#[derive(Default)]
struct Counters {
    /// Requests served, by normalized route label.
    requests: BTreeMap<&'static str, u64>,
    /// Responses sent, by status code.
    responses: BTreeMap<u16, u64>,
    /// Latency histogram: cumulative-style counts per bucket (stored
    /// non-cumulative here, accumulated at render time), plus sum/count.
    bucket_counts: [u64; LATENCY_BUCKETS.len() + 1],
    latency_sum: f64,
    latency_count: u64,
}

/// Thread-safe request accounting for the HTTP workers.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<Counters>,
    /// Connections the workers have taken on. With persistent
    /// connections, `requests ÷ connections` is the reuse rate.
    connections: AtomicU64,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one connection a worker has taken on, before its first
    /// request.
    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one served request: its normalized route label (e.g.
    /// `"/tenants/{name}/update"`), the response status, and the
    /// wall-clock service latency, from the request's first byte to the
    /// response being ready to write.
    pub fn record(&self, route: &'static str, status: u16, latency: Duration) {
        let seconds = latency.as_secs_f64();
        let mut counters = self.counters.lock().expect("metrics mutex poisoned");
        *counters.requests.entry(route).or_insert(0) += 1;
        *counters.responses.entry(status).or_insert(0) += 1;
        let bucket = LATENCY_BUCKETS
            .iter()
            .position(|&le| seconds <= le)
            .unwrap_or(LATENCY_BUCKETS.len());
        counters.bucket_counts[bucket] += 1;
        counters.latency_sum += seconds;
        counters.latency_count += 1;
    }

    /// Renders the exposition text: server counters and histogram, then
    /// per-tenant gauges from `report` (the live manager's
    /// [`ars_core::manager::SessionManager::health_report`]).
    #[must_use]
    pub fn render(&self, report: &[TenantHealth]) -> String {
        let mut out = String::with_capacity(2048 + 512 * report.len());

        {
            let counters = self.counters.lock().expect("metrics mutex poisoned");
            out.push_str("# HELP ars_http_requests_total Requests served, by route.\n");
            out.push_str("# TYPE ars_http_requests_total counter\n");
            for (route, count) in &counters.requests {
                out.push_str(&format!(
                    "ars_http_requests_total{{route=\"{}\"}} {count}\n",
                    escape_label(route)
                ));
            }
            out.push_str("# HELP ars_http_responses_total Responses sent, by status code.\n");
            out.push_str("# TYPE ars_http_responses_total counter\n");
            for (status, count) in &counters.responses {
                out.push_str(&format!(
                    "ars_http_responses_total{{status=\"{status}\"}} {count}\n"
                ));
            }
            out.push_str(
                "# HELP ars_http_connections_total Connections accepted by the workers.\n\
                 # TYPE ars_http_connections_total counter\n",
            );
            out.push_str(&format!(
                "ars_http_connections_total {}\n",
                self.connections.load(Ordering::Relaxed)
            ));
            out.push_str(
                "# HELP ars_http_request_duration_seconds Request service latency, \
                 from the request's first byte to its response.\n\
                 # TYPE ars_http_request_duration_seconds histogram\n",
            );
            let mut cumulative = 0u64;
            for (i, le) in LATENCY_BUCKETS.iter().enumerate() {
                cumulative += counters.bucket_counts[i];
                out.push_str(&format!(
                    "ars_http_request_duration_seconds_bucket{{le=\"{le}\"}} {cumulative}\n"
                ));
            }
            cumulative += counters.bucket_counts[LATENCY_BUCKETS.len()];
            out.push_str(&format!(
                "ars_http_request_duration_seconds_bucket{{le=\"+Inf\"}} {cumulative}\n"
            ));
            out.push_str(&format!(
                "ars_http_request_duration_seconds_sum {}\n",
                counters.latency_sum
            ));
            out.push_str(&format!(
                "ars_http_request_duration_seconds_count {}\n",
                counters.latency_count
            ));
        }

        out.push_str("# HELP ars_tenants Registered tenants.\n# TYPE ars_tenants gauge\n");
        out.push_str(&format!("ars_tenants {}\n", report.len()));

        tenant_block(
            &mut out,
            "ars_tenant_flips_used",
            "Times the tenant's published output has changed (spent flip budget).",
            report,
            |row| row.flips_used.to_string(),
        );
        tenant_block(
            &mut out,
            "ars_tenant_flip_budget",
            "The tenant's provisioned flip budget (+Inf when unbounded).",
            report,
            |row| match row.flip_budget {
                FlipBudget::Bounded(lambda) => lambda.to_string(),
                FlipBudget::Unbounded => "+Inf".to_string(),
            },
        );
        tenant_block(
            &mut out,
            "ars_tenant_reprovisions_total",
            "Times the tenant's estimator was rebuilt from its exact state \
             (a doubled flip budget only for turnstile F_p).",
            report,
            |row| row.reprovisions.to_string(),
        );
        tenant_block(
            &mut out,
            "ars_tenant_updates_accepted_total",
            "Updates accepted and ingested.",
            report,
            |row| row.accepted.to_string(),
        );
        tenant_block(
            &mut out,
            "ars_tenant_updates_rejected_total",
            "Updates refused by the model validator.",
            report,
            |row| (row.rejected + row.dropped).to_string(),
        );
        tenant_block(
            &mut out,
            "ars_tenant_space_bytes",
            "End-to-end memory: sketch plus validator state.",
            report,
            |row| row.space_bytes.to_string(),
        );

        out.push_str(
            "# HELP ars_tenant_info Tenant metadata (tier, health) as labels.\n\
             # TYPE ars_tenant_info gauge\n",
        );
        for row in report {
            out.push_str(&format!(
                "ars_tenant_info{{tenant=\"{}\",tier=\"{}\",health=\"{}\"}} 1\n",
                escape_label(&row.name),
                row.tier,
                row.health,
            ));
        }
        out
    }
}

/// One per-tenant series; its Prometheus type is `counter` for a `_total`
/// name and `gauge` otherwise.
fn tenant_block(
    out: &mut String,
    name: &str,
    help: &str,
    report: &[TenantHealth],
    value: impl Fn(&TenantHealth) -> String,
) {
    let kind = if name.ends_with("_total") {
        "counter"
    } else {
        "gauge"
    };
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    for row in report {
        out.push_str(&format!(
            "{name}{{tenant=\"{}\"}} {}\n",
            escape_label(&row.name),
            value(row)
        ));
    }
}

/// Escapes a Prometheus label value: backslash, double quote, newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ars_core::estimate::Health;
    use ars_stream::ValidationTier;

    fn sample_row(name: &str) -> TenantHealth {
        TenantHealth {
            name: name.to_string(),
            health: Health::WithinGuarantee,
            accepted: 123,
            rejected: 1,
            dropped: 2,
            reprovisions: 1,
            flips_used: 7,
            flip_budget: FlipBudget::Bounded(16),
            space_bytes: 4096,
            validator_bytes: 64,
            tier: ValidationTier::Incremental,
        }
    }

    #[test]
    fn renders_counters_histogram_and_tenant_gauges() {
        let registry = MetricsRegistry::new();
        registry.record("/health", 200, Duration::from_micros(150));
        registry.record("/health", 200, Duration::from_micros(90));
        registry.record("/tenants/{name}/update", 422, Duration::from_millis(2));
        let text = registry.render(&[sample_row("edge-us")]);
        for needle in [
            "ars_http_requests_total{route=\"/health\"} 2",
            "ars_http_requests_total{route=\"/tenants/{name}/update\"} 1",
            "ars_http_responses_total{status=\"200\"} 2",
            "ars_http_responses_total{status=\"422\"} 1",
            "ars_http_request_duration_seconds_bucket{le=\"+Inf\"} 3",
            "ars_http_request_duration_seconds_count 3",
            "ars_tenants 1",
            "ars_tenant_flips_used{tenant=\"edge-us\"} 7",
            "ars_tenant_flip_budget{tenant=\"edge-us\"} 16",
            "ars_tenant_reprovisions_total{tenant=\"edge-us\"} 1",
            "ars_tenant_updates_accepted_total{tenant=\"edge-us\"} 123",
            "ars_tenant_updates_rejected_total{tenant=\"edge-us\"} 3",
            "ars_tenant_space_bytes{tenant=\"edge-us\"} 4096",
            "ars_tenant_info{tenant=\"edge-us\",tier=\"incremental\",health=\"within-guarantee\"} 1",
            "# TYPE ars_tenant_flips_used gauge\n",
            "# TYPE ars_tenant_flip_budget gauge\n",
            "# TYPE ars_tenant_reprovisions_total counter\n",
            "# TYPE ars_tenant_updates_accepted_total counter\n",
            "# TYPE ars_tenant_updates_rejected_total counter\n",
            "# TYPE ars_tenant_space_bytes gauge\n",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        // Histogram buckets are cumulative and monotone.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("ars_http_request_duration_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.len(), LATENCY_BUCKETS.len() + 1);
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
    }

    #[test]
    fn connections_count_separately_from_the_requests_they_carry() {
        let registry = MetricsRegistry::new();
        let text = registry.render(&[]);
        assert!(text.contains("ars_http_connections_total 0\n"), "{text}");
        // One kept-alive connection carrying three requests, then one
        // connection that closes before sending a byte.
        registry.record_connection();
        for _ in 0..3 {
            registry.record("/tenants/{name}/query", 200, Duration::from_micros(40));
        }
        registry.record_connection();
        registry.record("(malformed)", 400, Duration::from_micros(5));
        let text = registry.render(&[]);
        assert!(
            text.contains(
                "# TYPE ars_http_connections_total counter\nars_http_connections_total 2\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("ars_http_request_duration_seconds_count 4\n"),
            "{text}"
        );
    }

    #[test]
    fn unbounded_budgets_render_as_inf_and_labels_escape() {
        let registry = MetricsRegistry::new();
        let mut row = sample_row("edge \"eu\"\\n");
        row.flip_budget = FlipBudget::Unbounded;
        let text = registry.render(&[row]);
        assert!(
            text.contains("ars_tenant_flip_budget{tenant=\"edge \\\"eu\\\"\\\\n\"} +Inf"),
            "{text}"
        );
    }
}
