//! Result rows and table rendering for the experiment harness.

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
/// [`crate::experiments::EXPERIMENTS`]), a human-readable title, and the
/// measured rows.
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
        let mut report = ExperimentReport::new("E1", "Table 1 row: distinct elements");
        report.rows.push(sample_row());
        assert!(report.to_markdown().starts_with("## E1"));
    }
}
