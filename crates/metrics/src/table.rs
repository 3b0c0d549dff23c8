//! Side-by-side report rendering (the paper's table layout).
//!
//! Every reproduction table — the paper's Tables 3, 4, 6, 7, 8, the CLI
//! `compare` output, and the `dk-bench` table binaries — prints metric
//! rows against graph-variant columns. This is the one formatter they
//! all share; columns are [`Report`]s (single graphs) or
//! [`EnsembleSummary`] means (with the spread carried into the CSV).

use crate::analyzer::EnsembleSummary;
use crate::metric::{AnyMetric, Kind};
use crate::report::Report;

/// A metric-rows × variant-columns table.
///
/// Rows are the union of the scalar metrics present in any column, in
/// registry order; custom rows (e.g. Table 7's `S2/S2max`) append after.
#[derive(Clone, Debug, Default)]
pub struct MetricTable {
    columns: Vec<Column>,
    /// Extra custom rows: (label, per-column values).
    extra_rows: Vec<(String, Vec<Option<f64>>)>,
}

#[derive(Clone, Debug)]
struct Column {
    name: String,
    mean: Report,
    /// Per-metric ensemble std (ensemble columns only) — rendered into
    /// the CSV as `<metric>_std` rows.
    std: Option<Report>,
}

impl MetricTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a single-graph column.
    pub fn push(&mut self, name: impl Into<String>, report: Report) {
        self.columns.push(Column {
            name: name.into(),
            mean: report,
            std: None,
        });
    }

    /// Appends an ensemble column: the table shows the means, the CSV
    /// additionally carries the standard deviations.
    pub fn push_summary(&mut self, name: impl Into<String>, summary: &EnsembleSummary) {
        self.columns.push(Column {
            name: name.into(),
            mean: summary.mean_report(),
            std: Some(summary.std_report()),
        });
    }

    /// Appends a custom row (must supply one value per existing column).
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<Option<f64>>) {
        assert_eq!(values.len(), self.columns.len(), "one value per column");
        self.extra_rows.push((label.into(), values));
    }

    /// Scalar rows present in at least one column, in registry order.
    fn rows(&self) -> Vec<AnyMetric> {
        AnyMetric::all()
            .filter(|m| m.kind() == Kind::Scalar)
            .filter(|m| {
                self.columns
                    .iter()
                    .any(|c| c.mean.records.iter().any(|r| r.metric == *m))
            })
            .collect()
    }

    fn cell(report: &Report, metric: AnyMetric) -> Option<f64> {
        report
            .records
            .iter()
            .find(|r| r.metric == metric)
            .and_then(|r| r.value.as_scalar())
    }

    /// Renders the table (metric rows, then custom rows).
    ///
    /// The label column is as wide as the longest row label (at least
    /// 13); each value column is one wider than its header (at least
    /// 12), so long names never run into their neighbours.
    pub fn render(&self) -> String {
        let rows = self.rows();
        let label_width = rows
            .iter()
            .map(|m| m.name().chars().count())
            .chain(self.extra_rows.iter().map(|(l, _)| l.chars().count()))
            .fold(13, usize::max);
        let widths: Vec<usize> = self
            .columns
            .iter()
            .map(|c| (c.name.chars().count() + 1).max(12))
            .collect();
        let mut out = format!("{:<label_width$}", "metric");
        for (c, width) in self.columns.iter().zip(&widths) {
            out.push_str(&format!("{:>width$}", c.name));
        }
        out.push('\n');
        let mut emit = |label: &str, values: Vec<Option<f64>>| {
            out.push_str(&format!("{label:<label_width$}"));
            for (v, width) in values.into_iter().zip(&widths) {
                out.push_str(&format!("{:>width$}", fmt_opt(v)));
            }
            out.push('\n');
        };
        for metric in rows {
            emit(
                metric.name(),
                self.columns
                    .iter()
                    .map(|c| Self::cell(&c.mean, metric))
                    .collect(),
            );
        }
        for (label, values) in &self.extra_rows {
            emit(label, values.clone());
        }
        out
    }

    /// CSV form (`metric,col1,col2,…`); ensemble columns additionally
    /// produce `<metric>_std` rows after each metric row.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric");
        for c in &self.columns {
            out.push(',');
            out.push_str(&c.name);
        }
        out.push('\n');
        let has_std = self.columns.iter().any(|c| c.std.is_some());
        let mut emit = |label: &str, values: Vec<Option<f64>>| {
            out.push_str(label);
            for v in values {
                out.push(',');
                if let Some(x) = v {
                    out.push_str(&format!("{x}"));
                }
            }
            out.push('\n');
        };
        for metric in self.rows() {
            emit(
                metric.name(),
                self.columns
                    .iter()
                    .map(|c| Self::cell(&c.mean, metric))
                    .collect(),
            );
            if has_std {
                emit(
                    &format!("{}_std", metric.name()),
                    self.columns
                        .iter()
                        .map(|c| c.std.as_ref().and_then(|s| Self::cell(s, metric)))
                        .collect(),
                );
            }
        }
        for (label, values) in &self.extra_rows {
            emit(label, values.clone());
        }
        out
    }

    /// JSON form: `{"columns": {"<name>": <report json>, ...}}` plus the
    /// custom rows — the machine-readable counterpart of [`render`].
    ///
    /// [`render`]: MetricTable::render
    pub fn to_json(&self) -> String {
        let columns = crate::json::object(
            self.columns
                .iter()
                .map(|c| (c.name.clone(), c.mean.to_json())),
        );
        let extra = crate::json::object(self.extra_rows.iter().map(|(label, values)| {
            (
                label.clone(),
                crate::json::array(values.iter().map(|v| match v {
                    Some(x) => crate::json::number(*x),
                    None => "null".to_string(),
                })),
            )
        }));
        crate::json::object([("columns".into(), columns), ("extra_rows".into(), extra)])
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        None => "-".to_string(),
        Some(x) if x.abs() >= 1000.0 => format!("{x:.0}"),
        Some(x) => format!("{x:.3}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::Analyzer;
    use dk_graph::builders;
    use std::collections::BTreeSet;

    #[test]
    fn render_contains_all_columns_and_rows() {
        // the second input carries a 12-character column name and a
        // metric name longer than the 13-wide label minimum
        for (names, second) in [
            ("cheap", "rand"),
            ("cheap,avg_distance_sketch", "synthetic-2K"),
        ] {
            let analyzer = Analyzer::new().metric_names(names).unwrap();
            let mut t = MetricTable::new();
            t.push("orig", analyzer.analyze(&builders::karate_club()));
            t.push(second, analyzer.analyze(&builders::petersen()));
            t.push_row("S2/S2max", vec![Some(0.95), Some(1.0)]);
            let s = t.render();
            assert!(s.contains("orig") && s.contains(second));
            assert!(s.contains("k_avg") && s.contains("S2/S2max"));
            // every line: one label and one cell per column, all aligned
            assert!(s.lines().all(|l| l.split_whitespace().count() == 3), "{s}");
            let widths: BTreeSet<usize> = s.lines().map(|l| l.chars().count()).collect();
            assert_eq!(widths.len(), 1, "{s}");
            let csv = t.to_csv();
            assert!(csv.starts_with(&format!("metric,orig,{second}")));
            // one row per selected scalar + extra row + header, no std rows
            assert_eq!(csv.lines().count(), 1 + analyzer.selected().len() + 1);
            let js = t.to_json();
            assert!(js.contains("\"orig\":{\"graph\""), "{js}");
            assert!(js.contains("\"S2/S2max\":[0.95,1]"), "{js}");
        }
    }

    #[test]
    fn ensemble_columns_carry_std_rows() {
        let a = Analyzer::new().metric_names("n,k_avg").unwrap();
        let summary = a.run_ensemble(3, 1, |_| builders::cycle(5));
        let mut t = MetricTable::new();
        t.push_summary("ens", &summary);
        t.push("orig", a.analyze(&builders::cycle(5)));
        let csv = t.to_csv();
        assert!(csv.contains("k_avg_std,0,"), "{csv}");
        // render shows means only
        assert!(t.render().contains("2.000"));
        assert!(!t.render().contains("k_avg_std"));
    }

    #[test]
    fn missing_metrics_render_as_dashes() {
        let mut t = MetricTable::new();
        t.push(
            "full",
            Analyzer::new()
                .metric_names("k_avg,d_avg")
                .unwrap()
                .analyze(&builders::path(4)),
        );
        t.push(
            "cheap",
            Analyzer::new()
                .metric_names("k_avg")
                .unwrap()
                .analyze(&builders::path(4)),
        );
        let s = t.render();
        let d_row = s.lines().find(|l| l.starts_with("d_avg")).unwrap();
        assert!(d_row.contains('-'), "{d_row}");
    }

    #[test]
    #[should_panic(expected = "one value per column")]
    fn row_arity_checked() {
        let mut t = MetricTable::new();
        t.push(
            "a",
            Analyzer::new()
                .metric_names("k_avg")
                .unwrap()
                .analyze(&builders::path(3)),
        );
        t.push_row("bad", vec![]);
    }
}
