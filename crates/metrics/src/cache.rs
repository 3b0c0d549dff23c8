//! Shared-computation cache behind the [`Analyzer`](crate::analyzer::Analyzer).
//!
//! The legacy battery recomputed everything per metric: requesting the
//! distance distribution *and* betweenness meant two independent
//! all-source sweeps, and every clustering-family scalar re-ran the
//! triangle census. [`AnalysisCache::build`] instead unions the
//! [`Dep`]s of the selected metrics and computes each shared pass once:
//!
//! * **GCC extraction** happens once, up front (§5.2 of the paper: "We
//!   report all the metrics calculated for the giant connected
//!   component"); [`GccPolicy::Whole`] opts out.
//! * **One frozen [`CsrGraph`] snapshot** ([`Dep::Csr`]) of the analyzed
//!   graph backs every traversal-shaped pass — the fused traversal, the
//!   triangle census, the sampled estimator, and k-core peeling all read
//!   the same two flat arrays, so the O(n + m) snapshot cost is paid
//!   once per analyzer run.
//! * **Distances + betweenness** share one fused all-source traversal
//!   ([`crate::betweenness::betweenness_and_distances_csr`]) whenever
//!   both are requested — Brandes' BFS already knows every distance.
//!   Distances alone run the batched multi-source kernel
//!   [`dk_graph::traversal::bfs_batch`] instead, 64 sources per sweep
//!   (see [`crate::distance`]).
//! * **Triangles** are censused once for `c_mean`/`c_k`/`transitivity`.
//! * **Sampled traversal** ([`crate::sampled`]) runs once from
//!   [`AnalyzeOptions::samples`] pivots for the `*_approx` metrics.
//!   When no sampled-*betweenness* reader is selected the cache
//!   prepares the cheaper [`Dep::SampledDistances`] pass instead: the
//!   same pivots walked by the batched
//!   [`dk_graph::traversal::bfs_batch`] kernel, skipping Brandes'
//!   σ/δ bookkeeping entirely (distance histograms only count
//!   `(source, node, distance)` triples, so the reported scalars are
//!   bit-identical).
//! * **Neighborhood sketches** ([`crate::sketch`]) iterate once at
//!   [`AnalyzeOptions::sketch_bits`] register bits for the `*_sketch`
//!   metrics — every round a sharded pass over the same CSR snapshot.
//! * Every traversal-shaped pass runs through the sharded fold of
//!   [`crate::stream`] with the resolved [`ExecPlan`]: per-shard partials
//!   fold into `O(n)` reducers in shard order, the shard count fixes the
//!   f64 merge tree, and the worker count is the thread budget capped by
//!   [`AnalyzeOptions::memory_budget`]. Each pass owns that worker budget
//!   while it runs; passes execute sequentially so an explicit `threads`
//!   cap is never oversubscribed.
//!
//! Metrics computed outside an [`Analyzer`](crate::analyzer::Analyzer)
//! run (no prepared dep) fall back to computing on demand through the
//! same pass and the same plan, so
//! [`Metric::compute`](crate::metric::Metric::compute) is total either
//! way and a prepared value equals its on-demand twin bit for bit.

use crate::betweenness;
use crate::distance::DistanceDistribution;
use crate::metric::{AnyMetric, Dep};
use crate::sampled::{self, SampledDistances, SampledTraversal};
use crate::sketch::{self, HyperAnf};
use crate::stream::{self, ExecPlan};
use crate::{clustering, spectral};
use dk_graph::{traversal, CsrGraph, Graph};
use dk_linalg::laplacian::SpectralExtremes;
use std::borrow::Cow;

/// Fraction of the original `total` nodes retained by the extracted
/// GCC (`1.0` on an empty input, matching the historical convention).
fn retained_fraction(gcc: &Graph, total: usize) -> f64 {
    if total == 0 {
        1.0
    } else {
        gcc.node_count() as f64 / total as f64
    }
}

/// Whether metrics describe the giant connected component (the paper's
/// §5.2 convention, the default) or the whole input graph.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GccPolicy {
    /// Extract the GCC first; `gcc_fraction` reports the retained share.
    #[default]
    Extract,
    /// Analyze the graph as given (CLI `--no-gcc`).
    Whole,
}

/// Tuning knobs shared by the cache and the analyzer.
#[derive(Clone, Copy, Debug)]
pub struct AnalyzeOptions {
    /// GCC extraction policy.
    pub gcc: GccPolicy,
    /// Lanczos budget for spectral extremes above the dense cutoff.
    pub lanczos_iter: usize,
    /// Worker threads for shared passes and the metric fan-out
    /// (`0` = all cores). Any value produces identical results.
    pub threads: usize,
    /// Pivot sources for the sampled (`*_approx`) metrics — the
    /// Brandes–Pich K. Values `≥ n` make the sampled pass exact.
    pub samples: usize,
    /// Register bits `b` for the sketch (`*_sketch`) metrics — each
    /// node carries `2^b` HyperLogLog registers, error `1.04/√2^b`.
    /// Must lie in [`sketch::MIN_SKETCH_BITS`]`..=`[`sketch::MAX_SKETCH_BITS`]
    /// (the builder clamps, the CLI rejects).
    pub sketch_bits: u32,
    /// Cap on HyperANF rounds for the sketch pass; iteration stops
    /// earlier at the register fixpoint (full convergence).
    pub sketch_rounds: usize,
    /// Explicit source shard count for the traversal passes (`None` =
    /// [`stream::DEFAULT_SHARDS`]). It fixes the f64 merge tree of the
    /// betweenness passes; the integer reducers (distances, sketches)
    /// are identical at every shard count.
    pub shards: Option<usize>,
    /// Working-memory budget in bytes for the traversal passes: caps the
    /// worker count so `workers × per-worker scratch` stays under it
    /// (never below one worker). Results are identical for every budget.
    pub memory_budget: Option<u64>,
    /// Generation stamp of the graph this analysis reads. Long-lived
    /// holders (the `dk serve` registry) bump a per-graph epoch on every
    /// mutation and stamp it here at build time; comparing
    /// [`AnalysisCache::epoch`] against the current epoch makes a stale
    /// cache *detectable by construction* instead of silently reusable.
    /// Pure bookkeeping — no effect on any computed value. Default `0`.
    pub epoch: u64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            gcc: GccPolicy::Extract,
            lanczos_iter: 300,
            threads: 0,
            samples: 64,
            sketch_bits: sketch::DEFAULT_SKETCH_BITS,
            sketch_rounds: sketch::DEFAULT_SKETCH_ROUNDS,
            shards: None,
            memory_budget: None,
            epoch: 0,
        }
    }
}

/// One traversal's worth of shared all-pairs results.
struct TraversalData {
    distances: DistanceDistribution,
    /// Normalized node betweenness; `None` when only distances were
    /// requested.
    betweenness: Option<Vec<f64>>,
}

/// Prepared per-graph state every [`Metric`](crate::metric::Metric)
/// computes from.
pub struct AnalysisCache<'g> {
    original_nodes: usize,
    original_edges: usize,
    target: Cow<'g, Graph>,
    gcc_fraction: f64,
    gcc_applied: bool,
    lanczos_iter: usize,
    samples: usize,
    sketch_bits: u32,
    sketch_rounds: usize,
    /// Resolved execution plan for the traversal passes (shard count,
    /// worker count).
    exec: ExecPlan,
    /// Generation stamp copied from [`AnalyzeOptions::epoch`] at build
    /// time (see there).
    epoch: u64,
    /// Frozen CSR snapshot of `target`, shared by every traversal-shaped
    /// pass ([`Dep::Csr`]).
    csr: Option<CsrGraph>,
    triangles: Option<Vec<usize>>,
    traversal: Option<TraversalData>,
    sampled: Option<SampledTraversal>,
    sampled_distances: Option<SampledDistances>,
    sketch: Option<HyperAnf>,
    /// `Some(None)` = computed but undefined (disconnected / too small).
    spectral: Option<Option<SpectralExtremes>>,
}

impl<'g> AnalysisCache<'g> {
    /// Prepares the cache for `metrics` over `g`: applies the GCC
    /// policy, then computes the union of the metrics' [`Dep`]s, one
    /// pass at a time (each pass owns the full thread budget
    /// internally), with distances and betweenness fused into one
    /// traversal when both are needed.
    pub fn build(g: &'g Graph, metrics: &[AnyMetric], opts: &AnalyzeOptions) -> Self {
        let (target, gcc_fraction, gcc_applied) = match opts.gcc {
            GccPolicy::Extract => {
                let (gcc, _) = traversal::giant_component(g);
                let fraction = retained_fraction(&gcc, g.node_count());
                (Cow::Owned(gcc), fraction, true)
            }
            GccPolicy::Whole => (Cow::Borrowed(g), 1.0, false),
        };
        Self::finish(
            g.node_count(),
            g.edge_count(),
            target,
            gcc_fraction,
            gcc_applied,
            metrics,
            opts,
        )
    }

    /// As [`AnalysisCache::build`], but takes the graph by value, so the
    /// cache borrows nothing — the `'static` lifetime long-lived holders
    /// need. The `dk serve` registry keeps one of these warm per graph
    /// (sharing the analyzed graph, the frozen CSR snapshot, and every
    /// prepared dep across requests) next to the epoch that stamps it.
    pub fn build_owned(
        g: Graph,
        metrics: &[AnyMetric],
        opts: &AnalyzeOptions,
    ) -> AnalysisCache<'static> {
        let original_nodes = g.node_count();
        let original_edges = g.edge_count();
        let (target, gcc_fraction, gcc_applied) = match opts.gcc {
            GccPolicy::Extract => {
                let (gcc, _) = traversal::giant_component(&g);
                let fraction = retained_fraction(&gcc, original_nodes);
                (Cow::Owned(gcc), fraction, true)
            }
            GccPolicy::Whole => (Cow::Owned(g), 1.0, false),
        };
        AnalysisCache::finish(
            original_nodes,
            original_edges,
            target,
            gcc_fraction,
            gcc_applied,
            metrics,
            opts,
        )
    }

    /// Shared tail of [`AnalysisCache::build`]/[`AnalysisCache::build_owned`]:
    /// unions the metrics' deps and computes each shared pass once.
    fn finish(
        original_nodes: usize,
        original_edges: usize,
        target: Cow<'g, Graph>,
        gcc_fraction: f64,
        gcc_applied: bool,
        metrics: &[AnyMetric],
        opts: &AnalyzeOptions,
    ) -> Self {
        let deps: Vec<Dep> = {
            let mut d: Vec<Dep> = metrics.iter().flat_map(|m| m.deps()).copied().collect();
            d.sort_unstable();
            d.dedup();
            d
        };
        let exec = stream::plan(target.node_count(), target.edge_count(), opts);
        let mut cache = AnalysisCache {
            original_nodes,
            original_edges,
            target,
            gcc_fraction,
            gcc_applied,
            lanczos_iter: opts.lanczos_iter,
            samples: opts.samples,
            sketch_bits: opts.sketch_bits,
            sketch_rounds: opts.sketch_rounds,
            exec,
            epoch: opts.epoch,
            csr: None,
            triangles: None,
            traversal: None,
            sampled: None,
            sampled_distances: None,
            sketch: None,
            spectral: None,
        };

        let target = cache.target.as_ref();
        // every traversal-shaped dep reads the shared CSR snapshot
        let csr = deps
            .iter()
            .any(|d| d.implies_csr())
            .then(|| CsrGraph::from_graph(target));
        let (shards, workers) = (cache.exec.shards, cache.exec.workers);
        // Passes run one after another; the heavy ones (traversal) use
        // the *full* worker budget internally, parallelizing over BFS
        // source shards. Running passes concurrently on top of that
        // would oversubscribe an explicit `threads` cap (and a memory
        // budget: `workers` is what the budget capped).
        if let Some(snap) = &csr {
            if deps.contains(&Dep::Triangles) {
                cache.triangles = Some(clustering::triangles_per_node(snap));
            }
            if deps.contains(&Dep::Betweenness) {
                // the fused pass hands back distances for free
                let fused = betweenness::betweenness_and_distances_sharded(snap, shards, workers);
                cache.traversal = Some(TraversalData {
                    distances: fused.distances,
                    betweenness: Some(betweenness::normalize_raw(
                        fused.betweenness,
                        target.node_count(),
                    )),
                });
            } else if deps.contains(&Dep::Distances) {
                cache.traversal = Some(TraversalData {
                    distances: DistanceDistribution::from_csr_sharded(snap, shards, workers),
                    betweenness: None,
                });
            }
            if deps.contains(&Dep::Sampled) {
                // the fused pivot pass hands back the distance histogram
                // for free, so a separate distance-only pass would be
                // redundant
                cache.sampled = Some(sampled::sampled_traversal_sharded(
                    snap,
                    opts.samples,
                    shards,
                    workers,
                ));
            } else if deps.contains(&Dep::SampledDistances) {
                // no sampled-betweenness reader: the distance-only pass
                // rides the batched multi-source BFS instead of the
                // Brandes kernel
                cache.sampled_distances = Some(sampled::sampled_distances_sharded(
                    snap,
                    opts.samples,
                    shards,
                    workers,
                ));
            }
            if deps.contains(&Dep::Sketch) {
                cache.sketch = Some(sketch::hyper_anf_sharded(
                    snap,
                    opts.sketch_bits,
                    opts.sketch_rounds,
                    shards,
                    workers,
                ));
            }
        }
        if deps.contains(&Dep::Spectral) {
            cache.spectral = Some(if target.node_count() >= 2 {
                spectral::spectral_extremes_with(target, opts.lanczos_iter).ok()
            } else {
                None
            });
        }
        cache.csr = csr;
        cache
    }

    /// A cache with no precomputed deps — metric computations fall back
    /// to on-demand evaluation. Used by the legacy one-shot entry points.
    pub fn bare(g: &'g Graph, opts: &AnalyzeOptions) -> Self {
        Self::build(g, &[], opts)
    }

    /// The analyzed graph (the GCC under [`GccPolicy::Extract`]).
    pub fn graph(&self) -> &Graph {
        self.target.as_ref()
    }

    /// Node count of the original (pre-GCC) input.
    pub fn original_nodes(&self) -> usize {
        self.original_nodes
    }

    /// Edge count of the original (pre-GCC) input.
    pub fn original_edges(&self) -> usize {
        self.original_edges
    }

    /// Fraction of original nodes retained (1.0 under [`GccPolicy::Whole`]).
    pub fn gcc_fraction(&self) -> f64 {
        self.gcc_fraction
    }

    /// Whether GCC extraction was applied.
    pub fn gcc_applied(&self) -> bool {
        self.gcc_applied
    }

    /// The resolved execution plan for the traversal passes: shard count
    /// and worker count. See [`stream::plan`] for how they are resolved.
    pub fn exec_plan(&self) -> ExecPlan {
        self.exec
    }

    /// The generation stamp this cache was built at
    /// ([`AnalyzeOptions::epoch`]; `0` unless the builder set one).
    /// A holder that mutates its graph must bump its epoch, at which
    /// point `cache.epoch() != current_epoch` marks this cache stale.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The `samples` budget this cache was built with (pivot count for
    /// sampled passes; attack-sweep checkpoints reuse it).
    pub(crate) fn samples_budget(&self) -> usize {
        self.samples
    }

    /// The plan's worker count: an explicit `threads` cap, or the
    /// machine default when unset, lowered by any memory budget.
    pub(crate) fn worker_threads(&self) -> usize {
        self.exec.workers
    }

    /// The frozen CSR snapshot of the analyzed graph (cached when any
    /// traversal-shaped dep was prepared; built on demand otherwise).
    pub fn csr(&self) -> Cow<'_, CsrGraph> {
        match &self.csr {
            Some(c) => Cow::Borrowed(c),
            None => Cow::Owned(CsrGraph::from_graph(self.graph())),
        }
    }

    /// The sampled K-pivot traversal (cached or computed on demand with
    /// this cache's `samples` budget and plan).
    pub fn sampled(&self) -> Cow<'_, SampledTraversal> {
        match &self.sampled {
            Some(s) => Cow::Borrowed(s),
            None => Cow::Owned(sampled::sampled_traversal_sharded(
                self.csr().as_ref(),
                self.samples,
                self.exec.shards,
                self.exec.workers,
            )),
        }
    }

    /// The sampled K-pivot distance histogram — the batched BFS
    /// route. Reads the distance-only pass when
    /// that is what was prepared, falls back to the fused sampled
    /// traversal's histogram (identical integers by construction) when
    /// the Brandes pass ran instead, and computes on demand otherwise.
    pub fn sampled_distances(&self) -> Cow<'_, SampledDistances> {
        if let Some(d) = &self.sampled_distances {
            return Cow::Borrowed(d);
        }
        if let Some(s) = &self.sampled {
            return Cow::Owned(SampledDistances {
                distances: s.distances.clone(),
                sources: s.sources,
                max_depth: s.max_depth,
            });
        }
        Cow::Owned(sampled::sampled_distances_sharded(
            self.csr().as_ref(),
            self.samples,
            self.exec.shards,
            self.exec.workers,
        ))
    }

    /// The HyperANF sketch iteration (cached or computed on demand with
    /// this cache's `sketch_bits`/`sketch_rounds` budget and plan).
    pub fn sketch(&self) -> Cow<'_, HyperAnf> {
        match &self.sketch {
            Some(s) => Cow::Borrowed(s),
            None => Cow::Owned(sketch::hyper_anf_sharded(
                self.csr().as_ref(),
                self.sketch_bits,
                self.sketch_rounds,
                self.exec.shards,
                self.exec.workers,
            )),
        }
    }

    /// Per-node triangle counts (cached or computed on demand).
    pub fn triangles(&self) -> Cow<'_, [usize]> {
        match &self.triangles {
            Some(t) => Cow::Borrowed(t.as_slice()),
            None => Cow::Owned(clustering::triangles_per_node(self.graph())),
        }
    }

    /// Exact distance distribution (cached or computed on demand with
    /// this cache's plan).
    pub fn distances(&self) -> Cow<'_, DistanceDistribution> {
        match &self.traversal {
            Some(t) => Cow::Borrowed(&t.distances),
            None => Cow::Owned(DistanceDistribution::from_csr_sharded(
                self.csr().as_ref(),
                self.exec.shards,
                self.exec.workers,
            )),
        }
    }

    /// Normalized node betweenness (cached or computed on demand with
    /// this cache's plan).
    pub fn betweenness(&self) -> Cow<'_, [f64]> {
        match &self.traversal {
            Some(TraversalData {
                betweenness: Some(b),
                ..
            }) => Cow::Borrowed(b.as_slice()),
            _ => {
                let fused = betweenness::betweenness_and_distances_sharded(
                    self.csr().as_ref(),
                    self.exec.shards,
                    self.exec.workers,
                );
                Cow::Owned(betweenness::normalize_raw(
                    fused.betweenness,
                    self.graph().node_count(),
                ))
            }
        }
    }

    /// Spectral extremes; `None` when undefined on this graph
    /// (fewer than 2 nodes, disconnected under [`GccPolicy::Whole`], or
    /// solver failure).
    pub fn spectral(&self) -> Option<SpectralExtremes> {
        match &self.spectral {
            Some(s) => *s,
            None => {
                if self.graph().node_count() >= 2 {
                    spectral::spectral_extremes_with(self.graph(), self.lanczos_iter).ok()
                } else {
                    None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::MetricValue;
    use dk_graph::builders;

    fn metrics(names: &str) -> Vec<AnyMetric> {
        AnyMetric::parse_list(names).unwrap()
    }

    #[test]
    fn gcc_policy_extract_vs_whole() {
        let mut g = builders::path(4);
        g.add_node();
        g.add_node();
        let opts = AnalyzeOptions::default();
        let cache = AnalysisCache::build(&g, &[], &opts);
        assert_eq!(cache.graph().node_count(), 4);
        assert!((cache.gcc_fraction() - 4.0 / 6.0).abs() < 1e-12);
        assert!(cache.gcc_applied());
        assert_eq!(cache.original_nodes(), 6);

        let whole = AnalysisCache::build(
            &g,
            &[],
            &AnalyzeOptions {
                gcc: GccPolicy::Whole,
                ..opts
            },
        );
        assert_eq!(whole.graph().node_count(), 6);
        assert_eq!(whole.gcc_fraction(), 1.0);
        assert!(!whole.gcc_applied());
    }

    #[test]
    fn cached_deps_match_on_demand_fallback() {
        let g = builders::karate_club();
        let opts = AnalyzeOptions {
            threads: 1,
            ..Default::default()
        };
        let warm = AnalysisCache::build(
            &g,
            &metrics("c_mean,d_avg,b_max,lambda1,avg_distance_sketch"),
            &opts,
        );
        let cold = AnalysisCache::bare(&g, &opts);
        assert_eq!(warm.triangles(), cold.triangles());
        assert_eq!(warm.distances(), cold.distances());
        assert_eq!(warm.betweenness(), cold.betweenness());
        assert_eq!(warm.sketch(), cold.sketch());
        assert_eq!(
            warm.spectral().map(|s| s.lambda1),
            cold.spectral().map(|s| s.lambda1)
        );
    }

    #[test]
    fn fused_traversal_serves_both_families() {
        let g = builders::karate_club();
        let opts = AnalyzeOptions {
            threads: 1,
            ..Default::default()
        };
        let cache = AnalysisCache::build(&g, &metrics("d_avg,b_max"), &opts);
        // both deps present without recomputation: the traversal slot
        // holds distances AND betweenness
        assert!(cache.traversal.as_ref().unwrap().betweenness.is_some());
        assert_eq!(
            cache.distances().as_ref(),
            &DistanceDistribution::from_graph_with_threads(&g, 1)
        );
        assert_eq!(
            cache.betweenness().as_ref(),
            betweenness::normalized_betweenness(&g).as_slice()
        );
    }

    #[test]
    fn distance_only_request_skips_betweenness() {
        let g = builders::cycle(8);
        let cache = AnalysisCache::build(&g, &metrics("d_avg"), &AnalyzeOptions::default());
        assert!(cache.traversal.as_ref().unwrap().betweenness.is_none());
    }

    #[test]
    fn distance_only_battery_skips_brandes_and_matches_the_fused_value() {
        // d_avg_approx without a sampled-betweenness reader prepares the
        // batched distance-only pass (no fused pivot pass in
        // the cache) — and reports the exact same scalar
        let g = builders::karate_club();
        let opts = AnalyzeOptions {
            threads: 2,
            samples: 8,
            ..Default::default()
        };
        let metric = AnyMetric::get("d_avg_approx").unwrap();
        let both = AnalysisCache::build(&g, &metrics("d_avg_approx,b_max_approx"), &opts);
        assert!(both.sampled.is_some());
        assert!(both.sampled_distances.is_none());
        let dist_only = AnalysisCache::build(&g, &metrics("d_avg_approx"), &opts);
        assert!(dist_only.sampled.is_none());
        assert!(dist_only.sampled_distances.is_some());
        assert_eq!(metric.compute(&dist_only), metric.compute(&both));
    }

    #[test]
    fn worker_threads_follow_the_budget_capped_plan() {
        // the attack sweep and every on-demand fallback read the plan's
        // worker count, never the uncapped thread knob
        let g = builders::karate_club();
        let cache = AnalysisCache::bare(
            &g,
            &AnalyzeOptions {
                threads: 4,
                memory_budget: Some(1),
                ..Default::default()
            },
        );
        assert_eq!(cache.exec_plan().workers, 1);
        assert_eq!(cache.worker_threads(), cache.exec_plan().workers);
    }

    #[test]
    fn spectral_undefined_below_two_nodes() {
        let g = builders::path(1);
        let cache = AnalysisCache::build(&g, &metrics("lambda1"), &AnalyzeOptions::default());
        assert!(cache.spectral().is_none());
        assert_eq!(
            AnyMetric::get("lambda1").unwrap().compute(&cache),
            MetricValue::Undefined
        );
    }
}
