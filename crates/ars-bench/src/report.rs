//! Result rows and table rendering for the experiment harness.

use ars_core::json::escape_into;

/// One measured row of an experiment (one algorithm × workload × parameter
/// point).
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The algorithm or configuration being measured.
    pub algorithm: String,
    /// The workload label.
    pub workload: String,
    /// The approximation parameter ε the algorithm was built for.
    pub epsilon: f64,
    /// Measured memory footprint in bytes.
    pub space_bytes: usize,
    /// Worst-case tracking error observed over the scored part of the
    /// stream (relative, or additive for entropy experiments).
    pub max_error: f64,
    /// Whether the algorithm stayed within its ε guarantee throughout.
    pub within_guarantee: bool,
    /// Free-form notes (overhead factors, first-violation rounds, …).
    pub notes: String,
}

/// A complete experiment: an id (one of
/// [`crate::experiments::all_experiment_ids`]), a human-readable title, and
/// the measured rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment id, e.g. `"E1"`.
    pub id: String,
    /// What the experiment reproduces, e.g. `"Table 1 row: distinct elements"`.
    pub title: String,
    /// The measured rows.
    pub rows: Vec<Row>,
}

impl ExperimentReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(id: &str, title: &str) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            rows: Vec::new(),
        }
    }

    /// Renders the report as a markdown section.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        out.push_str(&print_markdown_table(&self.rows));
        out
    }

    /// Serializes the report as JSON (one line), for machine consumption.
    ///
    /// Hand-rolled writer (the build environment vendors no serde); the
    /// schema is flat enough that escaping strings and formatting numbers
    /// covers it exactly.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 160 * self.rows.len());
        out.push_str("{\"id\":");
        push_json_string(&mut out, &self.id);
        out.push_str(",\"title\":");
        push_json_string(&mut out, &self.title);
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"algorithm\":");
            push_json_string(&mut out, &row.algorithm);
            out.push_str(",\"workload\":");
            push_json_string(&mut out, &row.workload);
            out.push_str(&format!(
                ",\"epsilon\":{},\"space_bytes\":{},\"max_error\":{},\"within_guarantee\":{},\"notes\":",
                json_number(row.epsilon),
                row.space_bytes,
                json_number(row.max_error),
                row.within_guarantee,
            ));
            push_json_string(&mut out, &row.notes);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Formats a float as a JSON number (JSON has no NaN/inf; those become
/// `null`, which downstream tooling treats as "not measured").
fn json_number(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` round-trips f64 exactly and never produces `inf`/`NaN`.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Appends `s` as a JSON string literal; the escaping lives once, in
/// [`ars_core::json::escape_into`].
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Renders rows as a markdown table.
#[must_use]
pub fn print_markdown_table(rows: &[Row]) -> String {
    let mut out = String::from(
        "| algorithm | workload | eps | space (bytes) | max error | within guarantee | notes |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for row in rows {
        out.push_str(&format!(
            "| {} | {} | {:.3} | {} | {:.4} | {} | {} |\n",
            row.algorithm,
            row.workload,
            row.epsilon,
            row.space_bytes,
            row.max_error,
            if row.within_guarantee { "yes" } else { "NO" },
            row.notes
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> Row {
        Row {
            algorithm: "robust-f0".to_string(),
            workload: "uniform(n=1024)".to_string(),
            epsilon: 0.1,
            space_bytes: 4096,
            max_error: 0.07,
            within_guarantee: true,
            notes: "overhead 4.2x".to_string(),
        }
    }

    #[test]
    fn markdown_table_contains_all_fields() {
        let table = print_markdown_table(&[sample_row()]);
        for needle in [
            "robust-f0",
            "uniform(n=1024)",
            "4096",
            "0.0700",
            "yes",
            "overhead",
        ] {
            assert!(table.contains(needle), "missing {needle} in:\n{table}");
        }
    }

    #[test]
    fn json_contains_every_field_and_escapes() {
        let mut report = ExperimentReport::new("E1", "Table 1 row: distinct elements");
        let mut row = sample_row();
        row.notes = "quote \" backslash \\ newline \n done".to_string();
        report.rows.push(row);
        let json = report.to_json();
        for needle in [
            "\"id\":\"E1\"",
            "\"algorithm\":\"robust-f0\"",
            "\"epsilon\":0.1",
            "\"space_bytes\":4096",
            "\"max_error\":0.07",
            "\"within_guarantee\":true",
            "\\\"",
            "\\\\",
            "\\n",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        assert!(report.to_markdown().starts_with("## E1"));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let mut report = ExperimentReport::new("EX", "edge");
        let mut row = sample_row();
        row.max_error = f64::NAN;
        report.rows.push(row);
        assert!(report.to_json().contains("\"max_error\":null"));
    }
}
