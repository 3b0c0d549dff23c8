//! Shared-computation cache behind the [`Analyzer`](crate::analyzer::Analyzer).
//!
//! The legacy battery recomputed everything per metric: requesting the
//! distance distribution *and* betweenness meant two independent
//! all-source sweeps, and every clustering-family scalar re-ran the
//! triangle census. [`AnalysisCache::build_csr`] instead unions the
//! [`Dep`]s of the selected metrics and computes each shared pass once:
//!
//! * **One read-only [`CsrGraph`]** is the analyzed graph, and every
//!   metric and pass reads it ([`AnalysisCache::graph`]): the Brandes and
//!   distance passes, the triangle census, the sketches, k-core
//!   peeling, the attack sweeps and the Laplacian. `dk metrics` reads it
//!   straight from the edge list
//!   ([`dk_graph::io::read_edge_list_csr`]); [`AnalysisCache::build`]
//!   freezes one from a [`Graph`] for callers that hold one.
//! * **The GCC step** happens once, up front (§5.2 of the paper: "We
//!   report all the metrics calculated for the giant connected
//!   component"); [`GccPolicy::Whole`] opts out. Its result is an
//!   [`AnalysisBase`]: the analyzed CSR, the input's counts, the
//!   retained fraction, the policy and a triangle census built on first
//!   use. The components are labeled on the input CSR, and the input is
//!   copied only when its GCC is smaller than it: a connected input is
//!   analyzed in place (a borrowed CSR is not copied), and a
//!   disconnected one is replaced by its GCC,
//!   [`CsrGraph::induced_subgraph`] of the giant component's nodes in
//!   ascending id order — the CSR of [`traversal::giant_component`]'s
//!   graph, built in O(n + m). [`AnalysisCache::build`] and
//!   [`AnalysisCache::build_csr`] build a private base and own it;
//!   [`AnalysisCache::build_on`] borrows one that outlives the cache, so
//!   one base serves any number of analyses. `dk serve` holds one per
//!   graph epoch and GCC policy.
//! * **One traversal pass per source set**: all nodes for the exact
//!   `d_*`/`b_*` metrics, and [`AnalyzeOptions::samples`] pivots for the
//!   `*_approx` metrics ([`crate::sampled`]; the exact set is the pivot
//!   set with `K = n`). A set's pass is Brandes
//!   ([`crate::sampled::sampled_traversal_sharded`]) when a betweenness
//!   reader is selected — Brandes' BFS already knows every distance, so
//!   the distance readers take its histogram — and the batched
//!   distance histogram ([`crate::sampled::sampled_distances_sharded`],
//!   64 sources per [`dk_graph::traversal::bfs_batch`] sweep) otherwise.
//!   Both count the same `(source, node, distance)` triples, so the
//!   distance scalars are bit-identical either way.
//! * **One triangle census** ([`crate::clustering`]'s degree-ordered
//!   forward pass) serves `c_mean`, `c_k`, `transitivity` and `s2`: the
//!   per-node counts and the closed-pair weight `S2` subtracts. It
//!   belongs to the base, so every cache built on one base reads the
//!   same census.
//! * **Neighborhood sketches** ([`crate::sketch`]) iterate once at
//!   [`AnalyzeOptions::sketch_bits`] register bits for the `*_sketch`
//!   metrics — every round a sharded pass over the same CSR.
//! * **Pass order**: the sketch pass, then the census, then the
//!   traversal passes, then the spectral solve. The sketch's two
//!   register files are the largest allocation of a run, so it runs
//!   first: scratch that an earlier pass freed but the allocator still
//!   holds (the census's oriented rows and mark array, the traversal
//!   workers' arenas) would otherwise stay resident beside them and
//!   raise the peak. [`stream::min_bytes`] prices this order (the
//!   [footprint model](crate::stream#footprint-model)); a change to it
//!   changes the model there too.
//! * Every traversal-shaped pass runs through the sharded fold of
//!   [`crate::stream`] with the resolved [`ExecPlan`]: per-shard partials
//!   fold into `O(n)` reducers in shard order, the shard count fixes the
//!   f64 merge tree, and the worker count is the thread budget capped by
//!   [`AnalyzeOptions::memory_budget`], which first pays the snapshot
//!   and the accumulator. A Brandes pass, prepared or on demand, runs
//!   with [`ExecPlan::brandes_workers`], whose budget also paid its
//!   BFS-ordered copy. Each pass owns that worker budget while it runs;
//!   passes execute sequentially so an explicit `threads` cap is never
//!   oversubscribed.
//!
//! Metrics computed outside an [`Analyzer`](crate::analyzer::Analyzer)
//! run (no prepared dep) fall back to computing on demand through the
//! same pass and the same plan, so
//! [`Metric::compute`](crate::metric::Metric::compute) is total either
//! way and a prepared value equals its on-demand twin bit for bit.

use crate::betweenness;
use crate::clustering::{self, TriangleCensus};
use crate::distance::DistanceDistribution;
use crate::metric::{AnyMetric, Dep};
use crate::sampled::{self, SampledDistances, SampledTraversal};
use crate::sketch::{self, HyperAnf};
use crate::spectral;
use crate::stream::{self, ExecPlan};
use dk_graph::{traversal, CsrGraph, Graph};
use dk_linalg::laplacian::SpectralExtremes;
use std::borrow::Cow;
use std::sync::OnceLock;

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
        }
    }
}

/// The traversal pass prepared for one source set (see the module
/// docs).
enum Pass {
    /// Brandes: betweenness and the distance histogram.
    Brandes(SampledTraversal),
    /// The batched distance histogram alone.
    Histogram(SampledDistances),
}

/// The result of an analysis's GCC step, kept apart from its passes so
/// that it can be shared: the analyzed CSR
/// (the input's giant component under [`GccPolicy::Extract`], the whole
/// input under [`GccPolicy::Whole`]), the input's node and edge counts,
/// the retained fraction, the policy, and the triangle census, built on
/// first use. It depends on the input graph and the policy alone, so
/// any number of [`AnalysisCache`]s, with any metrics and options, can
/// run their passes on one base ([`AnalysisCache::build_on`]): `dk
/// serve` keeps one per graph epoch and GCC policy, and every other
/// caller gets a private one from [`AnalysisCache::build`] or
/// [`AnalysisCache::build_csr`].
#[derive(Clone)]
pub struct AnalysisBase<'g> {
    /// The analyzed graph: the input CSR, borrowed or owned, or its GCC.
    graph: Cow<'g, CsrGraph>,
    original_nodes: usize,
    original_edges: usize,
    gcc_fraction: f64,
    policy: GccPolicy,
    census: OnceLock<TriangleCensus>,
}

impl AnalysisBase<'static> {
    /// The base of `g` under `policy`, over a CSR frozen from `g`
    /// ([`CsrGraph::from_graph`]) that the base owns.
    pub fn new(g: &Graph, policy: GccPolicy) -> Self {
        AnalysisBase::extract(Cow::Owned(CsrGraph::from_graph(g)), policy)
    }
}

impl<'g> AnalysisBase<'g> {
    /// Applies `policy` to `input`. The components are labeled on the
    /// input, and it is replaced only when its GCC is smaller: a
    /// connected input is analyzed in place.
    fn extract(input: Cow<'g, CsrGraph>, policy: GccPolicy) -> Self {
        let (original_nodes, original_edges) = (input.node_count(), input.edge_count());
        let (graph, gcc_fraction) = match policy {
            GccPolicy::Extract => {
                let nodes = traversal::giant_component_nodes(input.as_ref());
                if nodes.len() < original_nodes {
                    let gcc = input.induced_subgraph(&nodes);
                    let fraction = gcc.node_count() as f64 / original_nodes as f64;
                    (Cow::Owned(gcc), fraction)
                } else {
                    (input, 1.0)
                }
            }
            GccPolicy::Whole => (input, 1.0),
        };
        AnalysisBase {
            graph,
            original_nodes,
            original_edges,
            gcc_fraction,
            policy,
            census: OnceLock::new(),
        }
    }

    /// The analyzed graph (the GCC under [`GccPolicy::Extract`]). For
    /// a connected input, or under [`GccPolicy::Whole`], this is the
    /// input CSR itself — the caller's, when built by
    /// [`AnalysisCache::build_csr`] — not a copy.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// The triangle census of the analyzed graph, run by its first
    /// reader; concurrent first readers wait for that one run.
    fn census(&self) -> &TriangleCensus {
        self.census.get_or_init(|| clustering::census(self.graph()))
    }
}

/// Prepared per-graph state every [`Metric`](crate::metric::Metric)
/// computes from: an [`AnalysisBase`], owned or shared, and the passes
/// the selected metrics need.
pub struct AnalysisCache<'g> {
    base: Cow<'g, AnalysisBase<'g>>,
    lanczos_iter: usize,
    samples: usize,
    sketch_bits: u32,
    sketch_rounds: usize,
    /// Resolved execution plan for the traversal passes (shard count,
    /// worker count).
    exec: ExecPlan,
    /// The pass from every node (exact `d_*`, `b_*`).
    exact: Option<Pass>,
    /// The pass from the `samples` pivots (`*_approx`).
    pivots: Option<Pass>,
    sketch: Option<HyperAnf>,
    /// `Some(None)` = computed but undefined (disconnected / too small).
    spectral: Option<Option<SpectralExtremes>>,
}

impl<'g> AnalysisCache<'g> {
    /// Prepares the cache for `metrics` over the CSR graph `g`: applies
    /// the GCC policy, then computes the union of the metrics' [`Dep`]s,
    /// one pass at a time (each pass owns the full thread budget
    /// internally), with distances and betweenness fused into one
    /// traversal when both are needed. A connected `g` is analyzed in
    /// place, without a copy.
    pub fn build_csr(g: &'g CsrGraph, metrics: &[AnyMetric], opts: &AnalyzeOptions) -> Self {
        let base = AnalysisBase::extract(Cow::Borrowed(g), opts.gcc);
        Self::prepare(Cow::Owned(base), metrics, opts)
    }

    /// As [`AnalysisCache::build_csr`] over a CSR frozen from `g`
    /// ([`CsrGraph::from_graph`]), which the cache owns, so it borrows
    /// nothing. Kept for every caller that holds a [`Graph`] and
    /// analyzes it once: `dk compare`, the benchmark helper's traced
    /// walks, and the tests.
    pub fn build(
        g: &Graph,
        metrics: &[AnyMetric],
        opts: &AnalyzeOptions,
    ) -> AnalysisCache<'static> {
        AnalysisCache::prepare(Cow::Owned(AnalysisBase::new(g, opts.gcc)), metrics, opts)
    }

    /// Runs the passes for `metrics` on a prepared `base`, borrowing its
    /// CSR and its census: the GCC step is not repeated, and the census
    /// runs at most once per base, however many caches read it. The
    /// base's GCC policy applies; `opts.gcc` is not read.
    pub fn build_on(
        base: &'g AnalysisBase<'_>,
        metrics: &[AnyMetric],
        opts: &AnalyzeOptions,
    ) -> Self {
        Self::prepare(Cow::Borrowed(base), metrics, opts)
    }

    /// The one route behind every builder: unions the metrics' deps and
    /// computes each shared pass once on `base`'s graph.
    fn prepare(
        base: Cow<'g, AnalysisBase<'g>>,
        metrics: &[AnyMetric],
        opts: &AnalyzeOptions,
    ) -> Self {
        let deps = AnyMetric::deps_of(metrics);
        let g: &CsrGraph = base.graph();
        let exec = stream::plan(g.node_count(), g.edge_count(), opts);
        let (shards, workers) = (exec.shards, exec.workers);
        // Passes run one after another; the heavy ones (traversal) use
        // the *full* worker budget internally, parallelizing over BFS
        // source shards. Running passes concurrently on top of that
        // would oversubscribe an explicit `threads` cap (and a memory
        // budget: `workers` is what the budget capped).
        // the sketch pass runs first: its two register files are the
        // run's largest allocation, and scratch an earlier pass freed
        // (the census's rows, the traversal workers' allocator arenas)
        // would otherwise stay resident beside them
        let sketch = deps.contains(&Dep::Sketch).then(|| {
            sketch::hyper_anf_sharded(g, opts.sketch_bits, opts.sketch_rounds, shards, workers)
        });
        if deps.contains(&Dep::Triangles) {
            base.census();
        }
        // one pass per source set: Brandes when a betweenness reader is
        // selected (its histogram serves the distance readers), the
        // batched distance histogram otherwise
        let pass = |k: usize, brandes: Dep, distances: Dep| {
            if deps.contains(&brandes) {
                Some(Pass::Brandes(sampled::sampled_traversal_sharded(
                    g,
                    k,
                    shards,
                    exec.brandes_workers,
                )))
            } else {
                deps.contains(&distances).then(|| {
                    Pass::Histogram(sampled::sampled_distances_sharded(g, k, shards, workers))
                })
            }
        };
        let exact = pass(g.node_count(), Dep::Betweenness, Dep::Distances);
        let pivots = pass(opts.samples, Dep::Sampled, Dep::SampledDistances);
        let spectral = deps
            .contains(&Dep::Spectral)
            .then(|| spectral_of(g, opts.lanczos_iter));
        AnalysisCache {
            base,
            lanczos_iter: opts.lanczos_iter,
            samples: opts.samples,
            sketch_bits: opts.sketch_bits,
            sketch_rounds: opts.sketch_rounds,
            exec,
            exact,
            pivots,
            sketch,
            spectral,
        }
    }

    /// The analyzed graph (the GCC under [`GccPolicy::Extract`]); see
    /// [`AnalysisBase::graph`].
    pub fn graph(&self) -> &CsrGraph {
        self.base.graph()
    }

    /// Node count of the original (pre-GCC) input.
    pub fn original_nodes(&self) -> usize {
        self.base.original_nodes
    }

    /// Edge count of the original (pre-GCC) input.
    pub fn original_edges(&self) -> usize {
        self.base.original_edges
    }

    /// Fraction of original nodes retained (1.0 under [`GccPolicy::Whole`]).
    pub fn gcc_fraction(&self) -> f64 {
        self.base.gcc_fraction
    }

    /// Whether GCC extraction was applied.
    pub fn gcc_applied(&self) -> bool {
        self.base.policy == GccPolicy::Extract
    }

    /// The resolved execution plan for the traversal passes: shard count
    /// and worker count. See [`stream::plan`] for how they are resolved.
    pub fn exec_plan(&self) -> ExecPlan {
        self.exec
    }

    /// The `samples` budget this cache was built with (pivot count for
    /// sampled passes; attack-sweep checkpoints reuse it).
    pub(crate) fn samples_budget(&self) -> usize {
        self.samples
    }

    /// The Brandes pass over `k` sources: the prepared `slot` when it
    /// holds one, else run on demand with this cache's plan.
    fn brandes<'a>(&'a self, slot: &'a Option<Pass>, k: usize) -> Cow<'a, SampledTraversal> {
        match slot {
            Some(Pass::Brandes(t)) => Cow::Borrowed(t),
            _ => Cow::Owned(sampled::sampled_traversal_sharded(
                self.graph(),
                k,
                self.exec.shards,
                self.exec.brandes_workers,
            )),
        }
    }

    /// The distance histogram over `k` sources: read off the prepared
    /// `slot`, whichever pass it holds (identical integers by
    /// construction), else run on demand with this cache's plan.
    fn histogram<'a>(&'a self, slot: &'a Option<Pass>, k: usize) -> Cow<'a, SampledDistances> {
        match slot {
            Some(Pass::Histogram(d)) => Cow::Borrowed(d),
            Some(Pass::Brandes(t)) => Cow::Owned(SampledDistances {
                distances: t.distances.clone(),
                sources: t.sources,
                max_depth: t.max_depth,
            }),
            None => Cow::Owned(sampled::sampled_distances_sharded(
                self.graph(),
                k,
                self.exec.shards,
                self.exec.workers,
            )),
        }
    }

    /// The sampled K-pivot Brandes pass (cached or computed on demand
    /// with this cache's `samples` budget and plan).
    pub fn sampled(&self) -> Cow<'_, SampledTraversal> {
        self.brandes(&self.pivots, self.samples)
    }

    /// The sampled K-pivot distance histogram (cached, read off the
    /// prepared Brandes pivot pass, or computed on demand).
    pub fn sampled_distances(&self) -> Cow<'_, SampledDistances> {
        self.histogram(&self.pivots, self.samples)
    }

    /// The HyperANF sketch iteration (cached or computed on demand with
    /// this cache's `sketch_bits`/`sketch_rounds` budget and plan).
    pub fn sketch(&self) -> Cow<'_, HyperAnf> {
        match &self.sketch {
            Some(s) => Cow::Borrowed(s),
            None => Cow::Owned(sketch::hyper_anf_sharded(
                self.graph(),
                self.sketch_bits,
                self.sketch_rounds,
                self.exec.shards,
                self.exec.workers,
            )),
        }
    }

    /// Per-node triangle counts, from the base's census (run on first
    /// use).
    pub fn triangles(&self) -> &[usize] {
        &self.census().per_node
    }

    /// The triangle census: per-node counts and the closed-pair weight
    /// `s2` reads (the base's, run on first use).
    pub(crate) fn census(&self) -> &TriangleCensus {
        self.base.census()
    }

    /// Exact distance distribution (cached, read off the prepared
    /// Brandes pass, or computed on demand with this cache's plan).
    pub fn distances(&self) -> Cow<'_, DistanceDistribution> {
        match self.histogram(&self.exact, self.graph().node_count()) {
            Cow::Borrowed(d) => Cow::Borrowed(&d.distances),
            Cow::Owned(d) => Cow::Owned(d.distances),
        }
    }

    /// Normalized node betweenness, from the prepared exact Brandes pass
    /// or one computed on demand with this cache's plan.
    pub fn betweenness(&self) -> Vec<f64> {
        let n = self.graph().node_count();
        betweenness::normalize_raw(self.brandes(&self.exact, n).betweenness.clone(), n)
    }

    /// Spectral extremes; `None` when undefined on this graph
    /// (fewer than 2 nodes, disconnected under [`GccPolicy::Whole`], or
    /// solver failure).
    pub fn spectral(&self) -> Option<SpectralExtremes> {
        self.spectral
            .unwrap_or_else(|| spectral_of(self.graph(), self.lanczos_iter))
    }
}

/// Spectral extremes of `g`, or `None` where they are undefined (fewer
/// than 2 nodes, disconnected, or solver failure).
fn spectral_of(g: &CsrGraph, lanczos_iter: usize) -> Option<SpectralExtremes> {
    spectral::spectral_extremes_with(g, lanczos_iter).ok()
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
        let opts = AnalyzeOptions::default();
        // a connected CSR input is analyzed in place; a Graph input is
        // analyzed through the CSR frozen from it
        let karate = builders::karate_club();
        let csr = CsrGraph::from_graph(&karate);
        let cache = AnalysisCache::build_csr(&csr, &metrics("c_mean"), &opts);
        assert!(std::ptr::eq(cache.graph(), &csr));
        assert_eq!(cache.gcc_fraction(), 1.0);
        assert!(cache.gcc_applied());
        let cache = AnalysisCache::build(&karate, &[], &opts);
        assert_eq!(cache.graph(), &csr);
        assert_eq!(cache.gcc_fraction(), 1.0);
        // the analyzer's metric fan-out shares one cache across threads
        fn send_sync<T: Send + Sync>(_: &T) {}
        send_sync(&cache);

        // path(4) plus 2 isolated nodes: the GCC is a copy, the CSR of
        // the graph `giant_component` builds
        let mut g = builders::path(4);
        g.add_node();
        g.add_node();
        let cache = AnalysisCache::build(&g, &[], &opts);
        assert_eq!(cache.graph().node_count(), 4);
        assert!((cache.gcc_fraction() - 4.0 / 6.0).abs() < 1e-12);
        assert!(cache.gcc_applied());
        assert_eq!(cache.original_nodes(), 6);
        assert_eq!(
            cache.graph(),
            &CsrGraph::from_graph(&traversal::giant_component(&g).0)
        );

        // the empty graph keeps the historical fraction of 1
        let empty = Graph::new();
        let cache = AnalysisCache::build(&empty, &[], &opts);
        assert_eq!(cache.graph().node_count(), 0);
        assert_eq!(cache.gcc_fraction(), 1.0);

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
        let cold = AnalysisCache::build(&g, &[], &opts);
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
    fn brandes_pass_serves_both_families() {
        let g = builders::karate_club();
        let opts = AnalyzeOptions {
            threads: 1,
            ..Default::default()
        };
        let cache = AnalysisCache::build(&g, &metrics("d_avg,b_max"), &opts);
        // both deps present without recomputation: the exact slot holds
        // the Brandes pass, whose histogram serves the distance readers
        assert!(matches!(cache.exact, Some(Pass::Brandes(_))));
        assert_eq!(
            cache.distances().as_ref(),
            &DistanceDistribution::from_graph(&g)
        );
        assert_eq!(cache.betweenness(), betweenness::normalized_betweenness(&g));
    }

    #[test]
    fn distance_only_request_skips_betweenness() {
        let g = builders::cycle(8);
        let cache = AnalysisCache::build(&g, &metrics("d_avg"), &AnalyzeOptions::default());
        assert!(matches!(cache.exact, Some(Pass::Histogram(_))));
    }

    #[test]
    fn distance_only_battery_skips_brandes_and_matches_the_fused_value() {
        // d_avg_approx without a sampled-betweenness reader prepares the
        // batched distance-only pass (no Brandes pivot pass in the
        // cache) — and reports the exact same scalar
        let g = builders::karate_club();
        let opts = AnalyzeOptions {
            threads: 2,
            samples: 8,
            ..Default::default()
        };
        let metric = AnyMetric::get("d_avg_approx").unwrap();
        let both = AnalysisCache::build(&g, &metrics("d_avg_approx,b_max_approx"), &opts);
        assert!(matches!(both.pivots, Some(Pass::Brandes(_))));
        let dist_only = AnalysisCache::build(&g, &metrics("d_avg_approx"), &opts);
        assert!(matches!(dist_only.pivots, Some(Pass::Histogram(_))));
        assert_eq!(metric.compute(&dist_only), metric.compute(&both));
    }

    #[test]
    fn worker_threads_follow_the_budget_capped_plan() {
        // the attack sweep and every pass, prepared or on demand, read
        // the plan's worker counts, never the uncapped thread knob: a
        // budget that buys a plain pass 2 workers buys a Brandes pass 1,
        // since it must also hold the BFS-ordered copy
        let g = builders::karate_club();
        let (n, m) = (g.node_count(), g.edge_count());
        let cache = AnalysisCache::build(
            &g,
            &[],
            &AnalyzeOptions {
                threads: 4,
                memory_budget: Some(stream::floor_bytes(n, m, false) + stream::per_worker_bytes(n)),
                ..Default::default()
            },
        );
        let plan = cache.exec_plan();
        assert_eq!((plan.workers, plan.brandes_workers), (2, 1));
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
