//! Sampled (approximate) all-pairs traversal — the Brandes–Pich
//! source-sampling estimator.
//!
//! The exact distance distribution and betweenness run one BFS per node:
//! O(n·m), the dominant cost of the whole evaluation pipeline (§5) and
//! infeasible at 10⁶-node scale. Brandes & Pich ("Centrality estimation
//! in large networks", 2007) showed that running the Brandes pass from
//! `K ≪ n` *pivot* sources and extrapolating by `n/K` estimates
//! betweenness well when pivots cover the graph evenly; the same K BFS
//! trees give an unbiased sample of the distance distribution (each
//! source contributes its full distance row, so ratios of counts — mean,
//! standard deviation, the `d(x)` shape — need no rescaling at all).
//!
//! Behind the metric registry these appear as `distance_approx` /
//! `betweenness_approx` with cost class
//! [`Cost::Sampled`](crate::metric::Cost::Sampled); the pivot budget is
//! the [`Analyzer::sample_sources`](crate::analyzer::Analyzer::sample_sources)
//! knob (CLI `--samples K`).
//!
//! ## Determinism contract
//!
//! * Pivots come from a seeded deterministic stride over the node ids
//!   ([`sample_pivots`]) — a pure function of `(n, K)`, never of thread
//!   count or wall clock. Two runs agree exactly.
//! * The per-pivot partials merge in fixed chunk order (the same
//!   deterministic chunking the exact pass uses), so results are
//!   **bit-identical for every thread count**.
//! * `K ≥ n` degrades to the identity pivot set with scale 1, making the
//!   estimate **equal to the exact pass** bit for bit.

use crate::betweenness::{
    brandes_over_sources, brandes_over_sources_sharded, brandes_over_sources_streamed, BrandesSums,
};
use crate::distance::{histogram_pass, DistanceDistribution};
use crate::stream::DEFAULT_SHARDS;
use dk_graph::{AdjacencyView, CsrGraph, NodeId, Relabeling};

/// Result of one sampled traversal: the shared pass behind the
/// `distance_approx` and `betweenness_approx` registry metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct SampledTraversal {
    /// Distance rows of the pivot sources only (`counts[x]` = ordered
    /// `(pivot, node)` pairs at distance `x`; `nodes` is the full `n`).
    ///
    /// **Caveat**: only ratio statistics of this field — `mean()`,
    /// `std_dev()`, `pdf_positive()` — estimate the exact ones;
    /// absolute-count views (`pdf()`, `unreachable_pairs`) describe the
    /// `K/n` sample, not the graph. Use [`SampledTraversal::pdf_estimate`]
    /// and [`SampledTraversal::unreachable_fraction`] for properly
    /// rescaled whole-graph estimates.
    pub distances: DistanceDistribution,
    /// Estimated node betweenness, unordered-pair convention — the
    /// Brandes dependency sum over pivots, scaled by `n/K` (and halved,
    /// exactly like the exact pass). Equal to the exact values when
    /// `K ≥ n`.
    pub betweenness: Vec<f64>,
    /// Number of pivot sources actually traversed (`min(K, n)`).
    pub sources: usize,
    /// Greatest finite distance discovered from any pivot (the streamed
    /// eccentricity max-merge) — a lower bound on the diameter; equals
    /// `distances.diameter()` by construction.
    pub max_depth: u32,
}

impl SampledTraversal {
    /// Unbiased estimate of the paper-convention PDF `d(x)` (self-pairs
    /// included): `counts[x] / (K·n)` — the sampled counterpart of
    /// [`DistanceDistribution::pdf`], which on this struct's raw sample
    /// would come out scaled by `K/n`. Equals the exact PDF when
    /// `K ≥ n`.
    pub fn pdf_estimate(&self) -> Vec<f64> {
        let denom = self.sources as f64 * self.distances.nodes as f64;
        if denom == 0.0 {
            return Vec::new();
        }
        self.distances
            .counts
            .iter()
            .map(|&c| c as f64 / denom)
            .collect()
    }

    /// Estimated fraction of ordered pairs with no connecting path:
    /// `unreachable_pairs / (K·n)`. Exact when `K ≥ n`.
    pub fn unreachable_fraction(&self) -> f64 {
        let denom = self.sources as f64 * self.distances.nodes as f64;
        if denom == 0.0 {
            0.0
        } else {
            self.distances.unreachable_pairs as f64 / denom
        }
    }
}

/// The `K` pivot sources for a graph of `n` nodes: a deterministic
/// golden-ratio stride over `0..n`, coprime with `n` so the first `K`
/// steps are distinct and spread quasi-uniformly across node ids
/// (construction algorithms assign ids in degree/arrival order, so a
/// stride also spreads pivots across *roles* — hubs and leaves both get
/// sampled).
///
/// `K ≥ n` returns the identity ordering `0..n`, which makes the
/// sampled pass coincide with the exact one.
pub fn sample_pivots(n: usize, k: usize) -> Vec<NodeId> {
    if n == 0 {
        return Vec::new();
    }
    if k >= n {
        return (0..n as NodeId).collect();
    }
    // golden-ratio fraction of n, nudged down to the nearest stride
    // coprime with n (stride 1 always qualifies, so this terminates)
    let mut stride = ((n as f64 * 0.618_033_988_749_895) as usize).max(1);
    while gcd(stride, n) != 1 {
        stride -= 1;
    }
    // fixed offset decorrelates the pivot set from node 0 on small n;
    // SplitMix-style hash of n keeps it a pure function of the graph
    let offset = {
        let mut z = (n as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        (z ^ (z >> 31)) as usize % n
    };
    (0..k)
        .map(|i| ((offset + i * stride) % n) as NodeId)
        .collect()
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Runs the Brandes–Pich pass from `k` pivots over a prepared CSR
/// snapshot. See [`SampledTraversal`] for the output conventions and the
/// [module docs](self) for the determinism contract.
pub fn sampled_traversal_csr(g: &CsrGraph, k: usize, threads: usize) -> SampledTraversal {
    sampled_traversal(g, k, threads)
}

/// **Streaming** Brandes–Pich pass: the pivot sources are partitioned
/// into shards and each worker streams its shards into compact reducers,
/// exactly like the exact streamed pass
/// ([`crate::betweenness::betweenness_and_distances_streamed`]) — same
/// pivots, same merge order, so the result is bit-identical to
/// [`sampled_traversal_csr`] when `shards` is
/// [`DEFAULT_SHARDS`], and to
/// [`sampled_traversal_sharded`] at any equal shard count.
pub fn sampled_traversal_streamed(
    g: &CsrGraph,
    k: usize,
    shards: usize,
    threads: usize,
) -> SampledTraversal {
    let n = g.node_count();
    if n == 0 {
        return SampledTraversal::empty();
    }
    let pivots = sample_pivots(n, k.max(1));
    let sums = brandes_over_sources_streamed(g, &pivots, shards, threads);
    finish_sampled(n, pivots.len(), sums)
}

/// In-memory pivot pass with an explicit shard count — the equivalence
/// oracle for [`sampled_traversal_streamed`] at the same shard count.
pub fn sampled_traversal_sharded(
    g: &CsrGraph,
    k: usize,
    shards: usize,
    threads: usize,
) -> SampledTraversal {
    let n = g.node_count();
    if n == 0 {
        return SampledTraversal::empty();
    }
    let pivots = sample_pivots(n, k.max(1));
    let sums = brandes_over_sources_sharded(g, &pivots, shards, threads);
    finish_sampled(n, pivots.len(), sums)
}

/// The Brandes–Pich pass over a **relabeled** snapshot
/// ([`CsrGraph::from_graph_relabeled`]), returning results in
/// **external** id space — bit-identical to the plain sharded/streamed
/// routes at the same shard count.
///
/// The pivot *identities* are computed in external id space
/// ([`sample_pivots`] strides over external ids exactly as the
/// unpermuted route does) and only then mapped through the permutation
/// — striding over internal ids would silently select a different
/// pivot set whenever the permutation lands, changing every `--samples
/// K` report. The estimated betweenness is inverse-permuted before it
/// leaves; histogram/eccentricity reducers are label-independent.
pub fn sampled_traversal_relabeled(
    g: &CsrGraph,
    relab: &Relabeling,
    k: usize,
    shards: usize,
    threads: usize,
    streamed: bool,
) -> SampledTraversal {
    let n = g.node_count();
    if n == 0 {
        return SampledTraversal::empty();
    }
    let pivots: Vec<NodeId> = sample_pivots(n, k.max(1))
        .into_iter()
        .map(|e| relab.to_new(e))
        .collect();
    let sums = if streamed {
        brandes_over_sources_streamed(g, &pivots, shards, threads)
    } else {
        brandes_over_sources_sharded(g, &pivots, shards, threads)
    };
    let mut out = finish_sampled(n, pivots.len(), sums);
    out.betweenness = relab.invert_values(&out.betweenness);
    out
}

/// The distance-only half of the sampled pass: the pivot distance
/// histogram without the Brandes σ/δ machinery — what the registry's
/// `distance_approx` reads when no sampled *betweenness* metric rides
/// along ([`crate::metric::Dep::SampledDistances`]).
///
/// Splitting it off matters because a plain distance histogram needs
/// no per-source σ/δ state: the pivots run through the batched
/// multi-source kernel [`dk_graph::traversal::bfs_batch`] (the pass
/// the exact distribution uses, see [`crate::distance`]), up to 64 of
/// them per sweep as the bits of one word per node, with bottom-up
/// (pull) levels on the wide mid-BFS levels of scale-free graphs — far
/// cheaper than the Brandes forward pass, which must follow discovery
/// order for its σ accumulation, one source at a time. The histogram
/// reducer only counts `(source, node, level)` triples, so the
/// difference in traversal order is invisible: `distances`, `sources`,
/// and `max_depth` are **bit-identical** to the corresponding
/// [`SampledTraversal`] fields from the fused pass over the same pivots.
#[derive(Clone, Debug, PartialEq)]
pub struct SampledDistances {
    /// Distance rows of the pivot sources only — same conventions (and
    /// caveats) as [`SampledTraversal::distances`].
    pub distances: DistanceDistribution,
    /// Number of pivot sources actually traversed (`min(K, n)`).
    pub sources: usize,
    /// Greatest finite distance discovered from any pivot.
    pub max_depth: u32,
}

/// The distance-only pivot pass over `pivots` on either route — the
/// batched histogram pass shared with the exact distribution.
fn pivot_distances(
    g: &CsrGraph,
    pivots: &[NodeId],
    shards: usize,
    threads: usize,
    streamed: bool,
) -> SampledDistances {
    let n = g.node_count();
    let hist = histogram_pass(
        g,
        pivots.len(),
        |i| pivots[i as usize],
        shards,
        threads,
        streamed,
    );
    SampledDistances {
        max_depth: hist.max_depth,
        distances: DistanceDistribution::from_histogram(n, hist),
        sources: pivots.len(),
    }
}

/// Distance-only pivot pass at the default shard count — the on-demand
/// entry the analyzer cache falls back to.
pub fn sampled_distances_csr(g: &CsrGraph, k: usize, threads: usize) -> SampledDistances {
    sampled_distances_sharded(g, k, DEFAULT_SHARDS, threads)
}

/// In-memory distance-only pivot pass with an explicit shard count —
/// the equivalence oracle for [`sampled_distances_streamed`].
pub fn sampled_distances_sharded(
    g: &CsrGraph,
    k: usize,
    shards: usize,
    threads: usize,
) -> SampledDistances {
    let pivots = sample_pivots(g.node_count(), k.max(1));
    pivot_distances(g, &pivots, shards, threads, false)
}

/// **Streaming** distance-only pivot pass: workers stream their pivot
/// shards through the batched BFS into compact integer reducers —
/// `O(workers · n)` scratch in flight, identical results to
/// [`sampled_distances_sharded`] for every shard and thread count.
pub fn sampled_distances_streamed(
    g: &CsrGraph,
    k: usize,
    shards: usize,
    threads: usize,
) -> SampledDistances {
    let pivots = sample_pivots(g.node_count(), k.max(1));
    pivot_distances(g, &pivots, shards, threads, true)
}

/// Distance-only pivot pass over a **relabeled** snapshot — the pivot
/// identities come from external id space exactly as in
/// [`sampled_traversal_relabeled`]; the histogram/depth reducers are
/// label-independent, so no inverse mapping is needed on the way out.
pub fn sampled_distances_relabeled(
    g: &CsrGraph,
    relab: &Relabeling,
    k: usize,
    shards: usize,
    threads: usize,
    streamed: bool,
) -> SampledDistances {
    let pivots: Vec<NodeId> = sample_pivots(g.node_count(), k.max(1))
        .into_iter()
        .map(|e| relab.to_new(e))
        .collect();
    pivot_distances(g, &pivots, shards, threads, streamed)
}

/// As [`sampled_traversal_csr`], generic over the adjacency view.
pub fn sampled_traversal<V: AdjacencyView + ?Sized>(
    g: &V,
    k: usize,
    threads: usize,
) -> SampledTraversal {
    let n = g.node_count();
    if n == 0 {
        return SampledTraversal::empty();
    }
    let pivots = sample_pivots(n, k.max(1));
    let sums = brandes_over_sources(g, &pivots, threads);
    finish_sampled(n, pivots.len(), sums)
}

impl SampledTraversal {
    fn empty() -> Self {
        SampledTraversal {
            distances: DistanceDistribution {
                counts: vec![],
                nodes: 0,
                unreachable_pairs: 0,
            },
            betweenness: Vec::new(),
            sources: 0,
            max_depth: 0,
        }
    }
}

/// Pair-convention halving plus the `n/K` extrapolation — shared by the
/// in-memory and streamed pivot passes.
fn finish_sampled(n: usize, pivot_count: usize, sums: BrandesSums) -> SampledTraversal {
    let BrandesSums {
        mut bc,
        counts,
        unreachable,
        depth,
    } = sums;
    // pair-convention halving (as in the exact pass), then the n/K
    // extrapolation; K = n gives scale exactly 1.0
    let scale = 0.5 * (n as f64 / pivot_count as f64);
    for v in bc.iter_mut() {
        *v *= scale;
    }
    SampledTraversal {
        distances: DistanceDistribution {
            counts,
            nodes: n,
            unreachable_pairs: unreachable,
        },
        betweenness: bc,
        sources: pivot_count,
        max_depth: depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::betweenness;
    use dk_graph::builders;

    #[test]
    fn pivots_distinct_and_in_range() {
        for (n, k) in [(10, 4), (97, 64), (1000, 64), (5, 5), (5, 99)] {
            let p = sample_pivots(n, k);
            assert_eq!(p.len(), k.min(n));
            let set: std::collections::BTreeSet<_> = p.iter().collect();
            assert_eq!(set.len(), p.len(), "n={n} k={k}: duplicate pivot");
            assert!(p.iter().all(|&v| (v as usize) < n));
        }
        assert!(sample_pivots(0, 8).is_empty());
    }

    #[test]
    fn pivots_are_deterministic() {
        assert_eq!(sample_pivots(100, 16), sample_pivots(100, 16));
        assert_eq!(sample_pivots(7, 99), (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn full_sample_equals_exact_bit_for_bit() {
        let g = builders::karate_club();
        let csr = dk_graph::CsrGraph::from_graph(&g);
        let exact = betweenness::betweenness_and_distances_csr(&csr, 2);
        for k in [34, 35, 1000] {
            let s = sampled_traversal_csr(&csr, k, 2);
            assert_eq!(s.sources, 34);
            assert_eq!(s.betweenness, exact.betweenness, "k = {k}");
            assert_eq!(s.distances, exact.distances, "k = {k}");
        }
    }

    #[test]
    fn thread_count_is_invisible() {
        let g = builders::grid(8, 9);
        let csr = dk_graph::CsrGraph::from_graph(&g);
        let serial = sampled_traversal_csr(&csr, 16, 1);
        for threads in [2, 4, 0] {
            assert_eq!(serial, sampled_traversal_csr(&csr, 16, threads));
        }
    }

    #[test]
    fn estimates_track_exact_on_karate() {
        let g = builders::karate_club();
        let csr = dk_graph::CsrGraph::from_graph(&g);
        let exact = betweenness::betweenness_and_distances_csr(&csr, 1);
        let s = sampled_traversal_csr(&csr, 16, 1);
        // distance mean: scale-free, should land within a few percent
        let rel = (s.distances.mean() - exact.distances.mean()).abs() / exact.distances.mean();
        assert!(rel < 0.1, "d̄ rel error {rel}");
        // betweenness: the hub ordering must survive sampling
        let argmax = |b: &[f64]| {
            b.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0
        };
        assert_eq!(argmax(&s.betweenness), argmax(&exact.betweenness));
    }

    #[test]
    fn pdf_estimate_rescales_the_sample() {
        let g = builders::karate_club();
        let csr = dk_graph::CsrGraph::from_graph(&g);
        // full sample: estimate == exact pdf
        let full = sampled_traversal_csr(&csr, 34, 1);
        let exact = betweenness::betweenness_and_distances_csr(&csr, 1)
            .distances
            .pdf();
        assert_eq!(full.pdf_estimate(), exact);
        assert_eq!(full.unreachable_fraction(), 0.0);
        // partial sample: estimate still sums to ~1 (connected graph),
        // unlike the raw sample's pdf() which is scaled by K/n
        let part = sampled_traversal_csr(&csr, 8, 1);
        let total: f64 = part.pdf_estimate().iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "total {total}");
        let raw_total: f64 = part.distances.pdf().iter().sum();
        assert!((raw_total - 8.0 / 34.0).abs() < 1e-12);
    }

    #[test]
    fn streamed_pivot_pass_bit_identical_to_in_memory() {
        let g = builders::grid(6, 7);
        let csr = dk_graph::CsrGraph::from_graph(&g);
        let n = g.node_count();
        for k in [1, 8, n + 5] {
            for shards in [1, 2, 7, n] {
                let oracle = sampled_traversal_sharded(&csr, k, shards, 1);
                for threads in [1, 3] {
                    assert_eq!(
                        sampled_traversal_streamed(&csr, k, shards, threads),
                        oracle,
                        "k = {k}, shards = {shards}, threads = {threads}"
                    );
                }
            }
            // the default shard count reproduces the historical route
            assert_eq!(
                sampled_traversal_sharded(&csr, k, crate::stream::DEFAULT_SHARDS, 2),
                sampled_traversal_csr(&csr, k, 1)
            );
        }
    }

    #[test]
    fn relabeled_route_is_bit_identical() {
        // same pivots (external id space), same per-source arithmetic,
        // inverse-permuted outputs: the relabeled snapshot must be
        // invisible in the report, bit for bit.
        for g in [
            builders::karate_club(),
            builders::grid(5, 6),
            builders::star(9),
            dk_graph::Graph::from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6)]).unwrap(),
        ] {
            let csr = dk_graph::CsrGraph::from_graph(&g);
            let (rcsr, relab) = dk_graph::CsrGraph::from_graph_relabeled(&g);
            for k in [1, 8, g.node_count() + 3] {
                for streamed in [false, true] {
                    let plain = if streamed {
                        sampled_traversal_streamed(&csr, k, 3, 2)
                    } else {
                        sampled_traversal_sharded(&csr, k, 3, 2)
                    };
                    let rel = sampled_traversal_relabeled(&rcsr, &relab, k, 3, 2, streamed);
                    assert_eq!(plain, rel, "k = {k}, streamed = {streamed}");
                }
            }
        }
        let (e, r) = dk_graph::CsrGraph::from_graph_relabeled(&dk_graph::Graph::new());
        assert_eq!(
            sampled_traversal_relabeled(&e, &r, 8, 2, 1, false).sources,
            0
        );
    }

    #[test]
    fn sampled_distances_match_the_fused_pass_bit_for_bit() {
        // the batched distance-only kernel and the Brandes
        // fused kernel must agree on every integer reducer — histogram,
        // unreached tally, depth — for the same pivots, on every route
        for g in [
            builders::karate_club(),
            builders::grid(5, 6),
            builders::star(9),
            dk_graph::Graph::from_edges(7, [(0, 1), (1, 2), (3, 4), (5, 6)]).unwrap(),
        ] {
            let csr = dk_graph::CsrGraph::from_graph(&g);
            let (rcsr, relab) = dk_graph::CsrGraph::from_graph_relabeled(&g);
            for k in [1, 8, g.node_count() + 3] {
                let fused = sampled_traversal_sharded(&csr, k, 3, 2);
                let check = |d: &SampledDistances, route: &str| {
                    assert_eq!(d.distances, fused.distances, "k = {k}, {route}");
                    assert_eq!(d.sources, fused.sources, "k = {k}, {route}");
                    assert_eq!(d.max_depth, fused.max_depth, "k = {k}, {route}");
                };
                check(&sampled_distances_sharded(&csr, k, 3, 2), "sharded");
                check(&sampled_distances_streamed(&csr, k, 3, 2), "streamed");
                check(&sampled_distances_csr(&csr, k, 1), "csr");
                for streamed in [false, true] {
                    check(
                        &sampled_distances_relabeled(&rcsr, &relab, k, 3, 2, streamed),
                        "relabeled",
                    );
                }
            }
        }
        let empty = dk_graph::CsrGraph::from_graph(&dk_graph::Graph::new());
        assert_eq!(sampled_distances_streamed(&empty, 8, 2, 1).sources, 0);
        let (e, r) = dk_graph::CsrGraph::from_graph_relabeled(&dk_graph::Graph::new());
        assert_eq!(
            sampled_distances_relabeled(&e, &r, 8, 2, 1, true).sources,
            0
        );
    }

    #[test]
    fn estimators_never_divide_by_zero() {
        // empty graph: zero pivots, zero denominators — still defined
        let empty = sampled_traversal(&dk_graph::Graph::new(), 8, 1);
        assert_eq!(empty.sources, 0);
        assert!(empty.pdf_estimate().is_empty());
        assert_eq!(empty.unreachable_fraction(), 0.0);
        assert_eq!(empty.max_depth, 0);
        // disconnected graph: fraction strictly inside (0, 1), all finite
        let g = dk_graph::Graph::from_edges(6, [(0, 1), (2, 3), (3, 4)]).unwrap();
        let csr = dk_graph::CsrGraph::from_graph(&g);
        let s = sampled_traversal_streamed(&csr, 99, 3, 2);
        assert_eq!(s.sources, 6); // K >= n: every node is a pivot
        let f = s.unreachable_fraction();
        assert!(f > 0.0 && f < 1.0, "unreachable fraction {f}");
        assert!(s.pdf_estimate().iter().all(|p| p.is_finite()));
        assert_eq!(s.max_depth as usize, s.distances.diameter());
    }

    #[test]
    fn empty_and_tiny_graphs() {
        let empty = sampled_traversal(&dk_graph::Graph::new(), 8, 1);
        assert_eq!(empty.sources, 0);
        assert!(empty.betweenness.is_empty());
        let p2 = sampled_traversal(&builders::path(2), 8, 1);
        assert_eq!(p2.sources, 2);
    }
}
