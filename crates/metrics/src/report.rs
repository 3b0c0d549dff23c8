//! Structured analysis reports.
//!
//! A [`Report`] is what [`Analyzer::analyze`](crate::analyzer::Analyzer::analyze)
//! returns: a graph summary plus one [`MetricValue`] per selected metric,
//! in selection order. It renders as an aligned text block
//! ([`Report::to_text`]) or as machine-readable JSON ([`Report::to_json`],
//! hand-rolled — the workspace builds offline without serde). Several
//! reports side by side render through [`MetricTable`](crate::table::MetricTable).

use crate::json;
use crate::metric::{AnyMetric, MetricValue};

/// Bookkeeping about the analyzed graph carried by every [`Report`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GraphSummary {
    /// Nodes in the original input graph.
    pub nodes: usize,
    /// Edges in the original input graph.
    pub edges: usize,
    /// Nodes actually analyzed (the GCC under the default policy).
    pub analyzed_nodes: usize,
    /// Edges actually analyzed.
    pub analyzed_edges: usize,
    /// Fraction of original nodes retained (§5.2 GCC convention).
    pub gcc_fraction: f64,
    /// Whether GCC extraction was applied.
    pub gcc_applied: bool,
}

impl GraphSummary {
    pub(crate) fn to_json(&self) -> String {
        json::object([
            ("nodes".into(), self.nodes.to_string()),
            ("edges".into(), self.edges.to_string()),
            ("analyzed_nodes".into(), self.analyzed_nodes.to_string()),
            ("analyzed_edges".into(), self.analyzed_edges.to_string()),
            ("gcc_fraction".into(), json::number(self.gcc_fraction)),
            ("gcc".into(), self.gcc_applied.to_string()),
        ])
    }
}

/// One computed metric inside a [`Report`].
#[derive(Clone, Debug, PartialEq)]
pub struct MetricRecord {
    /// The registry handle (name, kind, cost).
    pub metric: AnyMetric,
    /// Its value on this graph.
    pub value: MetricValue,
}

/// Analysis result: graph summary + metric values in selection order.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// What was analyzed.
    pub graph: GraphSummary,
    /// The computed metrics.
    pub records: Vec<MetricRecord>,
}

impl Report {
    /// Scalar value of metric `name` (canonical name or alias);
    /// `None` if absent or undefined on this graph.
    pub fn scalar(&self, name: &str) -> Option<f64> {
        self.record(name).and_then(|r| r.value.as_scalar())
    }

    /// Series value of metric `name`; `None` if absent or not a series.
    pub fn series(&self, name: &str) -> Option<&[(usize, f64)]> {
        self.record(name).and_then(|r| r.value.as_series())
    }

    /// The full record for metric `name`.
    pub fn record(&self, name: &str) -> Option<&MetricRecord> {
        let m = AnyMetric::get(name)?;
        self.records.iter().find(|r| r.metric == m)
    }

    /// Aligned text rendering: one row per scalar, then one indented
    /// block per series.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "n = {}, m = {}{}\n",
            self.graph.nodes,
            self.graph.edges,
            if self.graph.gcc_applied {
                format!(
                    " (GCC: {} nodes, {} edges, fraction {:.3})",
                    self.graph.analyzed_nodes, self.graph.analyzed_edges, self.graph.gcc_fraction
                )
            } else {
                " (whole graph, no GCC extraction)".to_string()
            }
        );
        for rec in &self.records {
            if let MetricValue::Series(_) = rec.value {
                continue;
            }
            out.push_str(&format!(
                "{:<13} {}\n",
                rec.metric.name(),
                match rec.value {
                    MetricValue::Scalar(x) => fmt_scalar(x),
                    _ => "-".to_string(),
                }
            ));
        }
        for rec in &self.records {
            if let MetricValue::Series(s) = &rec.value {
                out.push_str(&format!("{}:\n", rec.metric.name()));
                for (x, y) in s {
                    out.push_str(&format!("  {x} {y}\n"));
                }
            }
        }
        out
    }

    /// Machine-readable JSON:
    /// `{"graph": {...}, "metrics": {"k_avg": 4.59, "d_x": [[1, 0.39], ...],
    /// "lambda1": null}}` — undefined metrics serialize as `null`.
    pub fn to_json(&self) -> String {
        json::object([
            ("graph".into(), self.graph.to_json()),
            (
                "metrics".into(),
                json::object(
                    self.records
                        .iter()
                        .map(|rec| (rec.metric.name().to_string(), metric_value_json(&rec.value))),
                ),
            ),
        ])
    }
}

fn metric_value_json(value: &MetricValue) -> String {
    match value {
        MetricValue::Scalar(x) => json::number(*x),
        MetricValue::Undefined => "null".to_string(),
        MetricValue::Series(s) => json::array(
            s.iter()
                .map(|&(x, y)| json::array([x.to_string(), json::number(y)])),
        ),
    }
}

fn fmt_scalar(x: f64) -> String {
    // integer-valued scalars (counts, diameters) and large magnitudes
    // print without a fractional part
    if (x.fract() == 0.0 && x.abs() < 1e15) || x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use crate::analyzer::Analyzer;
    use dk_graph::builders;

    #[test]
    fn report_text_and_json_render() {
        let rep = Analyzer::new()
            .metric_names("n,m,k_avg,d_x")
            .unwrap()
            .analyze(&builders::cycle(5));
        let text = rep.to_text();
        assert!(text.contains("k_avg         2\n"), "{text}");
        assert!(text.contains("d_x:"), "{text}");
        let js = rep.to_json();
        assert!(js.starts_with("{\"graph\":{\"nodes\":5,"), "{js}");
        assert!(js.contains("\"k_avg\":2"), "{js}");
        assert!(js.contains("\"d_x\":[[1,"), "{js}");
    }

    #[test]
    fn json_undefined_is_null() {
        let rep = Analyzer::new()
            .metric_names("lambda1")
            .unwrap()
            .analyze(&builders::path(1));
        assert!(rep.to_json().contains("\"lambda1\":null"));
        assert_eq!(rep.scalar("lambda1"), None);
    }

    #[test]
    fn report_lookup_accepts_aliases() {
        let rep = Analyzer::new().analyze(&builders::complete(4));
        assert_eq!(rep.scalar("avg_degree"), rep.scalar("k_avg"));
        assert!(rep.scalar("b_max").is_none()); // not selected
    }
}
