//! The [`Analyzer`] facade: metric selection, shared-computation cache,
//! parallel execution, and ensemble statistics.
//!
//! The analysis-side mirror of `dk_core::generate::Generator`: a builder
//! that selects metrics (by handle or by name), fixes the GCC policy and
//! tuning knobs, and then
//!
//! * [`Analyzer::analyze`] — one graph → one [`Report`], with every
//!   shared pass (GCC, triangle census, fused distance+betweenness
//!   traversal, spectral solve) computed **once** and independent work
//!   fanned out over the deterministic runner [`dk_graph::ensemble`];
//! * [`Analyzer::run_ensemble`] — a seeded graph ensemble → an
//!   [`EnsembleSummary`] of per-metric mean/std/min/max (what the
//!   paper's Table 2 and figures 5–9 actually report: "averages over
//!   100 graphs generated with a different random seed in each case",
//!   §5).
//!
//! ## Quickstart
//!
//! ```
//! use dk_metrics::analyzer::Analyzer;
//! use dk_graph::builders;
//!
//! let analyzer = Analyzer::new();          // the paper's §2 battery
//! let report = analyzer.analyze(&builders::karate_club());
//! assert_eq!(report.scalar("n"), Some(34.0));
//! assert!(report.scalar("r").unwrap() < 0.0); // karate is disassortative
//! println!("{}", report.to_json());        // machine-readable form
//! ```
//!
//! Determinism: metric values depend only on the input graph (and, for
//! ensembles, the master seed), never on the thread count — parallel
//! output is byte-identical to serial.

use crate::cache::{AnalysisCache, AnalyzeOptions, GccPolicy};
use crate::json;
use crate::metric::{AnyMetric, Kind, MetricValue};
use crate::report::{GraphSummary, MetricRecord, Report};
use dk_graph::{CsrGraph, Graph};
use rand::rngs::StdRng;

/// Builder facade over the metric registry and the shared-computation
/// cache. See the [module docs](self) for a quickstart.
#[derive(Clone, Debug)]
pub struct Analyzer {
    metrics: Vec<AnyMetric>,
    opts: AnalyzeOptions,
}

impl Default for Analyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl Analyzer {
    /// Analyzer over the paper's default battery
    /// ([`AnyMetric::default_set`]).
    pub fn new() -> Self {
        Analyzer {
            metrics: AnyMetric::default_set(),
            opts: AnalyzeOptions::default(),
        }
    }

    /// Replaces the metric selection (duplicates collapse to the first
    /// occurrence; order is preserved and drives report order).
    pub fn metrics(mut self, metrics: impl IntoIterator<Item = AnyMetric>) -> Self {
        self.metrics.clear();
        for m in metrics {
            if !self.metrics.contains(&m) {
                self.metrics.push(m);
            }
        }
        self
    }

    /// Selects metrics from a comma-separated name list
    /// (see [`AnyMetric::parse_list`] for names and set keywords).
    pub fn metric_names(self, names: &str) -> Result<Self, String> {
        let list = AnyMetric::parse_list(names)?;
        Ok(self.metrics(list))
    }

    /// Selects every registered metric.
    pub fn all_metrics(self) -> Self {
        let all: Vec<AnyMetric> = AnyMetric::all().collect();
        self.metrics(all)
    }

    /// Sets the GCC policy (default: extract, the paper's §5.2
    /// convention).
    pub fn gcc(mut self, policy: GccPolicy) -> Self {
        self.opts.gcc = policy;
        self
    }

    /// Sets the Lanczos iteration budget for spectral extremes.
    pub fn lanczos_iter(mut self, iters: usize) -> Self {
        self.opts.lanczos_iter = iters;
        self
    }

    /// Sets the worker-thread count (`0` = all cores). Results are
    /// identical for every value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.opts.threads = threads;
        self
    }

    /// Sets the pivot-source budget `K` for the sampled (`*_approx`)
    /// metrics — the Brandes–Pich estimator runs `K` BFS sources instead
    /// of all `n` and extrapolates by `n/K` (default 64; CLI
    /// `--samples`). Deterministic for any thread count; `K ≥ n` makes
    /// the sampled metrics equal their exact twins bit for bit.
    pub fn sample_sources(mut self, k: usize) -> Self {
        self.opts.samples = k.max(1);
        self
    }

    /// Sets the register-bit count `b` for the sketch (`*_sketch`)
    /// metrics — each node carries `2^b` HyperLogLog registers
    /// ([`crate::sketch`]; CLI `--sketch-bits`, default 8). Larger `b`
    /// tightens the `1.04/√2^b` standard error and costs `n·2^b` bytes
    /// of registers. Values are clamped into
    /// [`MIN_SKETCH_BITS`](crate::sketch::MIN_SKETCH_BITS)`..=`
    /// [`MAX_SKETCH_BITS`](crate::sketch::MAX_SKETCH_BITS); results are
    /// deterministic and thread/shard-count invariant for every value.
    pub fn sketch_bits(mut self, bits: u32) -> Self {
        self.opts.sketch_bits = bits.clamp(
            crate::sketch::MIN_SKETCH_BITS,
            crate::sketch::MAX_SKETCH_BITS,
        );
        self
    }

    /// Caps the HyperANF rounds of the sketch pass (the
    /// rounds-until-convergence threshold; default
    /// [`DEFAULT_SKETCH_ROUNDS`](crate::sketch::DEFAULT_SKETCH_ROUNDS)).
    /// Iteration always stops earlier at the register fixpoint, so the
    /// cap only bites on graphs whose diameter exceeds it — the result
    /// then covers distances up to the cap and reports
    /// `converged = false` internally.
    pub fn sketch_rounds(mut self, rounds: usize) -> Self {
        self.opts.sketch_rounds = rounds.max(1);
        self
    }

    /// Sets the source shard count for the traversal passes (CLI
    /// `--shards`; default
    /// [`DEFAULT_SHARDS`](crate::stream::DEFAULT_SHARDS)). Shard partials
    /// fold into `O(n)` reducers in shard order, so the shard count
    /// fixes the f64 merge tree of the betweenness passes while
    /// traversal memory stays bounded by the worker count. Results are
    /// bit-identical for every thread count at a given shard count;
    /// values are clamped to at least 1. See [`crate::stream`].
    pub fn shards(mut self, shards: usize) -> Self {
        self.opts.shards = Some(shards.max(1));
        self
    }

    /// Stamps a generation counter onto the built caches and reports
    /// (pure bookkeeping for long-lived holders such as the serve
    /// registry: a mutation verb bumps its epoch and any cache carrying
    /// an older stamp is known stale). Has no effect on metric values.
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.opts.epoch = epoch;
        self
    }

    /// Caps the traversal passes' working memory (CLI `--memory-budget`):
    /// the worker count is lowered until `workers × per-worker scratch`
    /// fits the budget (never below one worker). Results are identical
    /// for every budget.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.opts.memory_budget = Some(bytes.max(1));
        self
    }

    /// The current metric selection, in report order.
    pub fn selected(&self) -> &[AnyMetric] {
        &self.metrics
    }

    /// Analyzes one graph: builds the shared cache for the selected
    /// metrics over the CSR frozen from `g` ([`AnalysisCache::build`]),
    /// then computes independent metrics in parallel (serial when the
    /// thread budget is 1 — post-cache computes are cheap, so the
    /// ensemble runner's pool is skipped when it cannot pay off).
    pub fn analyze(&self, g: &Graph) -> Report {
        self.report(&AnalysisCache::build(g, &self.metrics, &self.opts))
    }

    /// [`Analyzer::analyze`] over a CSR graph, analyzed in place when it
    /// is connected ([`AnalysisCache::build_csr`]) — what `dk metrics`
    /// runs on the CSR it reads straight from the edge list.
    pub fn analyze_csr(&self, g: &CsrGraph) -> Report {
        self.report(&AnalysisCache::build_csr(g, &self.metrics, &self.opts))
    }

    /// The report of the selected metrics over a prepared cache.
    fn report(&self, cache: &AnalysisCache<'_>) -> Report {
        let values: Vec<MetricValue> = if self.opts.threads == 1 || self.metrics.len() <= 1 {
            self.metrics.iter().map(|m| m.compute(cache)).collect()
        } else {
            dk_graph::ensemble::run(
                self.metrics.len() as u64,
                0,
                self.opts.threads,
                |i, _rng| self.metrics[i as usize].compute(cache),
            )
        };
        Report {
            graph: GraphSummary {
                nodes: cache.original_nodes(),
                edges: cache.original_edges(),
                analyzed_nodes: cache.graph().node_count(),
                analyzed_edges: cache.graph().edge_count(),
                gcc_fraction: cache.gcc_fraction(),
                gcc_applied: cache.gcc_applied(),
            },
            records: self
                .metrics
                .iter()
                .zip(values)
                .map(|(&metric, value)| MetricRecord { metric, value })
                .collect(),
        }
    }

    /// Runs a percolation / targeted-attack sweep (see [`crate::attack`])
    /// under this analyzer's configuration: the GCC policy decides the
    /// analyzed graph (the CSR frozen from `g`), and the
    /// `sample_sources` / `threads` budgets drive the sampled
    /// betweenness ranking and the checkpoint distance probes.
    pub fn attack(
        &self,
        g: &Graph,
        opts: &crate::attack::AttackOptions,
    ) -> crate::attack::AttackReport {
        crate::attack::attack_sweep_cached(&AnalysisCache::build(g, &[], &self.opts), opts)
    }

    /// [`Analyzer::attack`] over a CSR graph — what `dk attack` runs on
    /// the CSR it reads straight from the edge list.
    pub fn attack_csr(
        &self,
        g: &CsrGraph,
        opts: &crate::attack::AttackOptions,
    ) -> crate::attack::AttackReport {
        crate::attack::attack_sweep_cached(&AnalysisCache::build_csr(g, &[], &self.opts), opts)
    }

    /// Analyzes an ensemble: `make(rng)` builds replica `i` from the
    /// deterministically derived seed, each replica is analyzed, and the
    /// per-metric summary statistics come back as an
    /// [`EnsembleSummary`].
    ///
    /// Replicas fan out over this analyzer's thread budget; the
    /// per-replica analysis runs single-threaded (the fan-out already
    /// saturates the pool). Replica `i`'s RNG depends only on
    /// `(master_seed, i)`, so any thread count produces identical
    /// statistics.
    pub fn run_ensemble<F>(&self, replicas: u64, master_seed: u64, make: F) -> EnsembleSummary
    where
        F: Fn(&mut StdRng) -> Graph + Sync,
    {
        let inner = Analyzer {
            metrics: self.metrics.clone(),
            opts: AnalyzeOptions {
                threads: 1,
                ..self.opts
            },
        };
        let reports =
            dk_graph::ensemble::run(replicas, master_seed, self.opts.threads, |_i, rng| {
                inner.analyze(&make(rng))
            });
        EnsembleSummary::from_reports(&reports)
    }
}

// ---------------------------------------------------------------------
// Ensemble statistics
// ---------------------------------------------------------------------

/// Summary statistics of one scalar across ensemble replicas.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalarSummary {
    /// Mean over replicas where the metric was defined.
    pub mean: f64,
    /// Population standard deviation over the same replicas.
    pub std: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Number of replicas where the metric was defined.
    pub defined: usize,
}

impl ScalarSummary {
    /// Summarizes a non-empty sample; `None` for an empty one.
    pub fn of(values: &[f64]) -> Option<ScalarSummary> {
        if values.is_empty() {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        Some(ScalarSummary {
            mean,
            std: var.sqrt(),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            defined: values.len(),
        })
    }

    fn to_json(self) -> String {
        json::object([
            ("mean".into(), json::number(self.mean)),
            ("std".into(), json::number(self.std)),
            ("min".into(), json::number(self.min)),
            ("max".into(), json::number(self.max)),
            ("defined".into(), self.defined.to_string()),
        ])
    }
}

/// Per-metric ensemble statistics.
#[derive(Clone, Debug, PartialEq)]
pub enum SummaryValue {
    /// Scalar metric: summary over replicas (`None` if never defined).
    Scalar(Option<ScalarSummary>),
    /// Series metric: per-key summary over replicas defining the key.
    Series(Vec<(usize, ScalarSummary)>),
}

/// Per-metric summary statistics over a replica ensemble — the numbers
/// the paper's tables print (column means) and its figures plot (series
/// means), plus the spread the text quotes.
#[derive(Clone, Debug, PartialEq)]
pub struct EnsembleSummary {
    /// Number of replicas analyzed.
    pub replicas: usize,
    /// Field-wise mean of the per-replica graph summaries (counts
    /// rounded to the nearest integer).
    pub graph: GraphSummary,
    /// One entry per selected metric, in selection order.
    pub metrics: Vec<(AnyMetric, SummaryValue)>,
}

impl EnsembleSummary {
    /// Folds per-replica reports (all from the same analyzer) into
    /// summary statistics.
    pub fn from_reports(reports: &[Report]) -> EnsembleSummary {
        let Some(first) = reports.first() else {
            return EnsembleSummary {
                replicas: 0,
                graph: GraphSummary::default(),
                metrics: Vec::new(),
            };
        };
        let n = reports.len() as f64;
        let mean_of = |f: &dyn Fn(&Report) -> f64| reports.iter().map(f).sum::<f64>() / n;
        let graph = GraphSummary {
            nodes: mean_of(&|r| r.graph.nodes as f64).round() as usize,
            edges: mean_of(&|r| r.graph.edges as f64).round() as usize,
            analyzed_nodes: mean_of(&|r| r.graph.analyzed_nodes as f64).round() as usize,
            analyzed_edges: mean_of(&|r| r.graph.analyzed_edges as f64).round() as usize,
            gcc_fraction: mean_of(&|r| r.graph.gcc_fraction),
            gcc_applied: first.graph.gcc_applied,
        };
        let metrics = first
            .records
            .iter()
            .enumerate()
            .map(|(idx, rec)| {
                let values = reports.iter().map(|r| &r.records[idx].value);
                let summary = match rec.metric.kind() {
                    Kind::Scalar => {
                        let defined: Vec<f64> = values.filter_map(MetricValue::as_scalar).collect();
                        SummaryValue::Scalar(ScalarSummary::of(&defined))
                    }
                    Kind::Series => {
                        let mut per_key: std::collections::BTreeMap<usize, Vec<f64>> =
                            std::collections::BTreeMap::new();
                        for v in values {
                            if let MetricValue::Series(s) = v {
                                for &(x, y) in s {
                                    per_key.entry(x).or_default().push(y);
                                }
                            }
                        }
                        SummaryValue::Series(
                            per_key
                                .into_iter()
                                .map(|(x, ys)| {
                                    (
                                        x,
                                        ScalarSummary::of(&ys).expect("non-empty by construction"),
                                    )
                                })
                                .collect(),
                        )
                    }
                };
                (rec.metric, summary)
            })
            .collect();
        EnsembleSummary {
            replicas: reports.len(),
            graph,
            metrics,
        }
    }

    /// Summary of scalar metric `name` (canonical name or alias).
    pub fn scalar(&self, name: &str) -> Option<ScalarSummary> {
        let m = AnyMetric::get(name)?;
        self.metrics.iter().find_map(|(mm, v)| match v {
            SummaryValue::Scalar(s) if *mm == m => *s,
            _ => None,
        })
    }

    /// Per-key summaries of series metric `name`.
    pub fn series(&self, name: &str) -> Option<&[(usize, ScalarSummary)]> {
        let m = AnyMetric::get(name)?;
        self.metrics.iter().find_map(|(mm, v)| match v {
            SummaryValue::Series(s) if *mm == m => Some(s.as_slice()),
            _ => None,
        })
    }

    /// Per-key ensemble means of series metric `name` — the series the
    /// paper's figures plot.
    pub fn series_means(&self, name: &str) -> Option<Vec<(usize, f64)>> {
        Some(
            self.series(name)?
                .iter()
                .map(|&(x, s)| (x, s.mean))
                .collect(),
        )
    }

    fn project(&self, pick: impl Fn(ScalarSummary) -> f64) -> Report {
        Report {
            graph: self.graph.clone(),
            records: self
                .metrics
                .iter()
                .map(|&(metric, ref v)| MetricRecord {
                    metric,
                    value: match v {
                        SummaryValue::Scalar(Some(s)) => MetricValue::Scalar(pick(*s)),
                        SummaryValue::Scalar(None) => MetricValue::Undefined,
                        SummaryValue::Series(s) => {
                            MetricValue::Series(s.iter().map(|&(x, s)| (x, pick(s))).collect())
                        }
                    },
                })
                .collect(),
        }
    }

    /// The ensemble means as a [`Report`] (what table columns print).
    pub fn mean_report(&self) -> Report {
        self.project(|s| s.mean)
    }

    /// The ensemble standard deviations as a [`Report`].
    pub fn std_report(&self) -> Report {
        self.project(|s| s.std)
    }

    /// Machine-readable JSON:
    /// `{"replicas": 5, "graph": {...}, "metrics": {"k_avg": {"mean": ...,
    /// "std": ..., "min": ..., "max": ..., "defined": 5}, "d_x": [[1,
    /// {...}], ...]}}`.
    pub fn to_json(&self) -> String {
        json::object([
            ("replicas".into(), self.replicas.to_string()),
            ("graph".into(), self.graph.to_json()),
            (
                "metrics".into(),
                json::object(self.metrics.iter().map(|(m, v)| {
                    let value = match v {
                        SummaryValue::Scalar(Some(s)) => s.to_json(),
                        SummaryValue::Scalar(None) => "null".to_string(),
                        SummaryValue::Series(s) => json::array(
                            s.iter()
                                .map(|&(x, s)| json::array([x.to_string(), s.to_json()])),
                        ),
                    };
                    (m.name().to_string(), value)
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;
    use rand::Rng;

    #[test]
    fn default_battery_matches_selection() {
        let a = Analyzer::new();
        assert_eq!(a.selected(), AnyMetric::default_set().as_slice());
        for g in [builders::karate_club(), Graph::new()] {
            let rep = a.analyze(&g);
            let (n, m) = (g.node_count() as f64, g.edge_count() as f64);
            assert_eq!(rep.records.len(), a.selected().len());
            assert_eq!(rep.scalar("n"), Some(n));
            assert_eq!(rep.scalar("gcc_fraction"), Some(1.0));
            let k_avg = if n > 0.0 { 2.0 * m / n } else { 0.0 };
            assert!(rep
                .scalar("k_avg")
                .is_some_and(|k| (k - k_avg).abs() < 1e-12));
            // betweenness is opt-in; the spectrum needs edges
            assert!(rep.record("b_max").is_none());
            let spectrum = rep.scalar("lambda1").zip(rep.scalar("lambda_n"));
            assert_eq!(spectrum.is_some(), m > 0.0);
            assert!(spectrum.is_none_or(|(l1, ln)| l1 > 0.0 && ln <= 2.0));
        }
    }

    #[test]
    fn duplicate_selection_collapses() {
        let a = Analyzer::new()
            .metric_names("k_avg,k_avg,avg_degree,r")
            .unwrap();
        assert_eq!(a.selected().len(), 2);
    }

    #[test]
    fn parallel_analysis_identical_to_serial() {
        let g = builders::karate_club();
        let base = Analyzer::new().all_metrics();
        let serial = base.clone().threads(1).analyze(&g);
        for threads in [2, 4, 0] {
            let parallel = base.clone().threads(threads).analyze(&g);
            assert_eq!(serial, parallel, "threads = {threads}");
            assert_eq!(serial.to_json(), parallel.to_json());
        }
    }

    #[test]
    fn ensemble_statistics_on_degenerate_ensemble() {
        // identical replicas → std 0, min == max == mean
        let a = Analyzer::new().metric_names("k_avg,d_avg").unwrap();
        let summary = a.run_ensemble(4, 7, |_rng| builders::cycle(6));
        assert_eq!(summary.replicas, 4);
        let k = summary.scalar("k_avg").unwrap();
        assert_eq!(
            (k.mean, k.std, k.min, k.max, k.defined),
            (2.0, 0.0, 2.0, 2.0, 4)
        );
        let d = summary.scalar("d_avg").unwrap();
        assert!((d.mean - 36.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn ensemble_thread_count_is_invisible() {
        let a = Analyzer::new().metric_names("k_avg,r,c_mean").unwrap();
        let make = |rng: &mut StdRng| {
            let n = 20 + rng.gen_range(0..10);
            builders::cycle(n)
        };
        let serial = a.clone().threads(1).run_ensemble(6, 11, make);
        let parallel = a.clone().threads(4).run_ensemble(6, 11, make);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_json(), parallel.to_json());
    }

    #[test]
    fn summary_projections_and_json() {
        let a = Analyzer::new().metric_names("k_avg,d_x").unwrap();
        let summary = a.run_ensemble(3, 5, |_| builders::path(4));
        let mean = summary.mean_report();
        assert_eq!(mean.scalar("k_avg"), Some(1.5));
        let means = summary.series_means("d_x").unwrap();
        assert_eq!(means.len(), 3); // distances 1..3 in P4
        let js = summary.to_json();
        assert!(js.contains("\"replicas\":3"), "{js}");
        assert!(js.contains("\"k_avg\":{\"mean\":1.5"), "{js}");
        assert!(js.contains("\"d_x\":[[1,{"), "{js}");
        // std report of a degenerate ensemble is all zeros
        assert_eq!(summary.std_report().scalar("k_avg"), Some(0.0));
    }

    #[test]
    fn empty_ensemble_is_empty_summary() {
        let summary = Analyzer::new().run_ensemble(0, 1, |_| builders::path(2));
        assert_eq!(summary.replicas, 0);
        assert!(summary.metrics.is_empty());
        assert!(summary.scalar("k_avg").is_none());
    }

    #[test]
    fn scalar_summary_of_sample() {
        let s = ScalarSummary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.mean, 2.0);
        assert!((s.std - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!((s.min, s.max, s.defined), (1.0, 3.0, 3));
        assert!(ScalarSummary::of(&[]).is_none());
    }
}
