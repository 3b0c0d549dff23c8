//! Node betweenness centrality (Brandes' algorithm, exact, parallel).
//!
//! Betweenness of `v` is the weighted sum over source/target pairs of the
//! fraction of shortest paths passing through `v` (paper §2: "it estimates
//! the potential traffic load on a node"). Brandes' algorithm computes it
//! exactly in O(n·m) on unweighted graphs — one BFS plus one dependency
//! back-propagation per source — and sources are embarrassingly parallel.

use crate::distance::{default_threads, DistanceDistribution};
use crate::stream::{run_sharded_fold, DEFAULT_SHARDS};
use dk_graph::{AdjacencyView, CsrGraph, Graph, NodeId};
use std::collections::VecDeque;

/// Joint result of the fused all-source traversal: Brandes' BFS already
/// discovers the distance of every reachable node from every source, so
/// the exact distance distribution falls out of the same pass for the
/// cost of a counter increment per visit.
///
/// This is the shared-computation path behind the analyzer cache: when a
/// metric battery requests both the distance family and the betweenness
/// family, one traversal serves both instead of two all-source sweeps.
#[derive(Clone, Debug)]
pub struct FusedTraversal {
    /// Exact node betweenness, unordered-pair convention (identical to
    /// [`node_betweenness`]).
    pub betweenness: Vec<f64>,
    /// Exact distance distribution (identical to
    /// [`DistanceDistribution::from_graph`]).
    pub distances: DistanceDistribution,
    /// Greatest finite distance discovered from any source — the
    /// max-merge of per-source eccentricities, one of the sharded
    /// pass's compact reducers. Always equals `distances.diameter()`;
    /// carried separately so the pass cross-checks its histogram
    /// against an independently merged reducer.
    pub max_depth: u32,
}

/// Fused all-source pass computing node betweenness **and** the distance
/// distribution in one sweep. See [`FusedTraversal`].
pub fn betweenness_and_distances(g: &Graph) -> FusedTraversal {
    betweenness_and_distances_with_threads(g, default_threads())
}

/// As [`betweenness_and_distances`] with an explicit worker count.
///
/// Takes a fresh [`CsrGraph`] snapshot and traverses that — the fused
/// pass reads every neighbor list `2n` times, so the flat-array layout
/// dominates the O(n + m) snapshot cost on anything but toy graphs.
/// Callers already holding a snapshot (the analyzer cache) use
/// [`betweenness_and_distances_csr`].
pub fn betweenness_and_distances_with_threads(g: &Graph, threads: usize) -> FusedTraversal {
    fused_traversal(&CsrGraph::from_graph(g), threads)
}

/// The fused pass over a prepared CSR snapshot.
pub fn betweenness_and_distances_csr(g: &CsrGraph, threads: usize) -> FusedTraversal {
    fused_traversal(g, threads)
}

/// The fused pass with an explicit shard count: each worker streams its
/// source shards over the snapshot into a compact `BrandesSums` partial
/// (betweenness accumulation, distance-histogram merge, eccentricity
/// max-merge) and partials fold into one global accumulator in shard
/// order — in-flight memory `O(workers · n)`, with **no** per-source
/// n-vector ever materialized beyond the worker's reusable scratch. The
/// shard count fixes the f64 merge tree, so the result is bit-identical
/// for every thread count; at [`DEFAULT_SHARDS`] it is exactly
/// [`betweenness_and_distances_csr`]. This is the pass the analyzer
/// cache runs (see [`crate::stream`]).
pub fn betweenness_and_distances_sharded(
    g: &CsrGraph,
    shards: usize,
    threads: usize,
) -> FusedTraversal {
    let n = g.node_count();
    if n == 0 {
        return FusedTraversal::empty();
    }
    let sources: Vec<NodeId> = (0..n as NodeId).collect();
    finish_fused(
        n,
        brandes_over_sources_sharded(g, &sources, shards, threads),
    )
}

/// The fused pass over `Graph`'s `Vec<Vec<_>>` adjacency directly, with
/// **no** CSR snapshot.
///
/// This is the seed implementation's memory-access pattern, retained
/// deliberately as (a) the baseline the `csr_bench`/`perf_csr` benches
/// measure the snapshot against and (b) the equivalence oracle for the
/// CSR port (results are bit-identical — same neighbor order, same
/// chunking, same merge order). Analysis code should not call this.
pub fn betweenness_and_distances_adjacency(g: &Graph, threads: usize) -> FusedTraversal {
    fused_traversal(g, threads)
}

/// Exact fused traversal over any adjacency view.
fn fused_traversal<V: AdjacencyView + ?Sized>(g: &V, threads: usize) -> FusedTraversal {
    let n = g.node_count();
    if n == 0 {
        return FusedTraversal::empty();
    }
    let sources: Vec<NodeId> = (0..n as NodeId).collect();
    finish_fused(n, brandes_over_sources(g, &sources, threads))
}

impl FusedTraversal {
    fn empty() -> Self {
        FusedTraversal {
            betweenness: Vec::new(),
            distances: DistanceDistribution {
                counts: vec![],
                nodes: 0,
                unreachable_pairs: 0,
            },
            max_depth: 0,
        }
    }
}

/// Applies the pair-convention halving and packages the reducer sums —
/// the step every fused entry point shares after its Brandes pass.
fn finish_fused(n: usize, sums: BrandesSums) -> FusedTraversal {
    let BrandesSums {
        mut bc,
        counts,
        unreachable,
        depth,
    } = sums;
    // each unordered pair was counted from both endpoints
    for v in bc.iter_mut() {
        *v /= 2.0;
    }
    debug_assert_eq!(
        depth as usize,
        counts.len().saturating_sub(1),
        "eccentricity max-merge must agree with the histogram top bin"
    );
    FusedTraversal {
        betweenness: bc,
        distances: DistanceDistribution {
            counts,
            nodes: n,
            unreachable_pairs: unreachable,
        },
        max_depth: depth,
    }
}

/// Compact reducer state of a (possibly partial) Brandes traversal: the
/// raw dependency sums, the distance histogram, the unreached-pair
/// tally, and the max-merged source eccentricity. One of these per shard
/// is all a sharded pass ever holds — per-source vectors live only in
/// the worker's reusable scratch.
pub(crate) struct BrandesSums {
    /// Raw per-node dependency sums over the listed sources (no
    /// pair-convention halving, no sampling scale).
    pub bc: Vec<f64>,
    /// Per-distance visit counts over the listed sources.
    pub counts: Vec<u64>,
    /// Number of (source, node) pairs left unreached.
    pub unreachable: u64,
    /// Greatest finite distance from any listed source (max-merged
    /// per-source eccentricity).
    pub depth: u32,
}

impl BrandesSums {
    fn zero(n: usize) -> Self {
        BrandesSums {
            bc: vec![0.0f64; n],
            counts: Vec::new(),
            unreachable: 0,
            depth: 0,
        }
    }

    /// Shard-order merge — the fold step of every sharded Brandes pass.
    fn merge(&mut self, p: BrandesSums) {
        for (acc, v) in self.bc.iter_mut().zip(p.bc) {
            *acc += v;
        }
        if self.counts.len() < p.counts.len() {
            self.counts.resize(p.counts.len(), 0);
        }
        for (x, v) in p.counts.into_iter().enumerate() {
            self.counts[x] += v;
        }
        self.unreachable += p.unreachable;
        self.depth = self.depth.max(p.depth);
    }
}

/// Per-node forward state packed into one 16-byte slot (`repr(C)`: the
/// i32 distance at offset 0, the f64 path count at offset 8) so each
/// neighbor probe in the hot loops — "is `v` on a shortest path?" plus
/// the `sigma`/`delta` accumulate that follows — lands on one cache
/// line instead of two. The kernel is memory-latency-bound at 10⁶
/// nodes, so halving the random lines touched per edge is the single
/// biggest lever; the arithmetic itself is untouched (same f64 adds in
/// the same order → bit-identical to the split-array layout).
#[derive(Clone, Copy)]
#[repr(C)]
struct PathState {
    dist: i32,
    sigma: f64,
}

const UNSEEN: PathState = PathState {
    dist: -1,
    sigma: 0.0,
};

/// One shard's worth of Brandes sources: BFS + dependency
/// back-propagation per source in `range`, accumulated into one compact
/// [`BrandesSums`] partial. The per-source buffers (`state`, `delta`,
/// `order`) are worker scratch reused across the shard; `order` doubles
/// as the FIFO queue (discovered nodes are appended and scanned by
/// cursor), so the vector left behind IS the BFS visit order the
/// reverse dependency sweep needs — one push per node, no ring buffer.
fn brandes_shard<V: AdjacencyView + ?Sized>(
    g: &V,
    sources: &[NodeId],
    range: std::ops::Range<u32>,
) -> BrandesSums {
    let n = g.node_count();
    let mut out = BrandesSums::zero(n);
    // reusable per-source buffers
    let mut state = vec![UNSEEN; n];
    let mut delta = vec![0.0f64; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    for idx in range {
        let s = sources[idx as usize];
        state.fill(UNSEEN);
        delta.fill(0.0);
        order.clear();
        state[s as usize] = PathState {
            dist: 0,
            sigma: 1.0,
        };
        order.push(s);
        let mut cursor = 0usize;
        while let Some(&u) = order.get(cursor) {
            cursor += 1;
            let du = state[u as usize].dist;
            let dx = du as usize;
            out.depth = out.depth.max(du as u32);
            if out.counts.len() <= dx {
                out.counts.resize(dx + 1, 0);
            }
            out.counts[dx] += 1;
            // sigma[u] is final once u is scanned — every contribution
            // comes from the previous BFS level, all scanned before u —
            // so hoist the read out of the neighbor loop (the aliasing
            // the compiler can't rule out never happens: a neighbor at
            // depth du+1 is never u itself)
            let su = state[u as usize].sigma;
            for &v in g.neighbors(u) {
                let st = &mut state[v as usize];
                if st.dist < 0 {
                    st.dist = du + 1;
                    order.push(v);
                }
                if st.dist == du + 1 {
                    st.sigma += su;
                }
            }
        }
        out.unreachable += n as u64 - order.len() as u64;
        // dependency accumulation in reverse BFS order
        for &w in order.iter().rev() {
            let wi = w as usize;
            let coeff = (1.0 + delta[wi]) / state[wi].sigma;
            let dw = state[wi].dist;
            for &v in g.neighbors(w) {
                let vi = v as usize;
                let st = state[vi];
                if st.dist + 1 == dw {
                    delta[vi] += st.sigma * coeff;
                }
            }
            if w != s {
                out.bc[wi] += delta[wi];
            }
        }
    }
    out
}

/// One Brandes BFS + dependency back-propagation per listed source,
/// parallelized over sources with deterministic sharding (boundaries are
/// a function of `sources.len()` only, so every thread count merges the
/// floating-point partials in the same order → bit-identical results).
///
/// Shared by the exact fused pass (sources = all nodes) and the
/// Brandes–Pich sampled estimator in [`crate::sampled`] (sources = K
/// pivots).
pub(crate) fn brandes_over_sources<V: AdjacencyView + ?Sized>(
    g: &V,
    sources: &[NodeId],
    threads: usize,
) -> BrandesSums {
    brandes_over_sources_sharded(g, sources, DEFAULT_SHARDS, threads)
}

/// As [`brandes_over_sources`] with an explicit shard count: partials
/// fold into the accumulator in shard order as workers finish —
/// `O(workers · n)` in flight, bit-identical for every thread count.
pub(crate) fn brandes_over_sources_sharded<V: AdjacencyView + ?Sized>(
    g: &V,
    sources: &[NodeId],
    shards: usize,
    threads: usize,
) -> BrandesSums {
    let n = g.node_count();
    let k = sources.len();
    let threads = threads.clamp(1, k.max(1));
    run_sharded_fold(
        k as u32,
        shards,
        1,
        threads,
        |range| brandes_shard(g, sources, range),
        BrandesSums::zero(n),
        |acc, p| acc.merge(p),
    )
}

/// Exact node betweenness, **unordered-pair convention**: each `{s, t}`
/// pair contributes once, endpoints excluded.
pub fn node_betweenness(g: &Graph) -> Vec<f64> {
    node_betweenness_with_threads(g, default_threads())
}

/// As [`node_betweenness`] with an explicit worker count.
///
/// Delegates to the fused pass — the distance counters it also maintains
/// cost one array increment per BFS visit, noise next to the Brandes
/// dependency accumulation.
pub fn node_betweenness_with_threads(g: &Graph, threads: usize) -> Vec<f64> {
    betweenness_and_distances_with_threads(g, threads).betweenness
}

/// Betweenness normalized to `\[0, 1\]` by the number of unordered pairs
/// excluding the node itself, `(n−1)(n−2)/2`.
///
/// This is the "normalized node betweenness" of the paper's Figures 6(b)
/// and 9. Returns zeros for `n < 3`.
pub fn normalized_betweenness(g: &Graph) -> Vec<f64> {
    normalize_raw(node_betweenness(g), g.node_count())
}

/// Normalizes raw per-node betweenness (unordered-pair convention) by the
/// `(n−1)(n−2)/2` pair count — the shared step between the whole-graph
/// entry point above, the analyzer cache (which holds raw values), and
/// the sampled estimator's `n/K`-scaled sums.
pub fn normalize_raw(raw: Vec<f64>, n: usize) -> Vec<f64> {
    if n < 3 {
        return vec![0.0; n];
    }
    let scale = 2.0 / ((n as f64 - 1.0) * (n as f64 - 2.0));
    raw.into_iter().map(|b| b * scale).collect()
}

/// Exact **edge** betweenness (paper §2: centrality "both for nodes and
/// links"; "link value \[29\]" is directly related), unordered-pair
/// convention, keyed by canonical edge.
///
/// Same Brandes pass as node betweenness; the dependency flowing across
/// each DAG edge is accumulated per graph edge.
pub fn edge_betweenness(g: &Graph) -> Vec<((NodeId, NodeId), f64)> {
    let n = g.node_count();
    let mut acc: std::collections::BTreeMap<(NodeId, NodeId), f64> =
        g.edges().iter().map(|&e| (e, 0.0)).collect();
    if n == 0 {
        return Vec::new();
    }
    // sequential: edge betweenness is used on small (HOT-scale) graphs
    let mut dist = vec![-1i32; n];
    let mut sigma = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for s in 0..n as u32 {
        for i in 0..n {
            dist[i] = -1;
            sigma[i] = 0.0;
            delta[i] = 0.0;
        }
        order.clear();
        queue.clear();
        dist[s as usize] = 0;
        sigma[s as usize] = 1.0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            let du = dist[u as usize];
            for &v in g.neighbors(u) {
                let vi = v as usize;
                if dist[vi] < 0 {
                    dist[vi] = du + 1;
                    queue.push_back(v);
                }
                if dist[vi] == du + 1 {
                    sigma[vi] += sigma[u as usize];
                }
            }
        }
        for &w in order.iter().rev() {
            let wi = w as usize;
            let coeff = (1.0 + delta[wi]) / sigma[wi];
            let dw = dist[wi];
            for &v in g.neighbors(w) {
                let vi = v as usize;
                if dist[vi] + 1 == dw {
                    let flow = sigma[vi] * coeff;
                    delta[vi] += flow;
                    let key = if v < w { (v, w) } else { (w, v) };
                    *acc.get_mut(&key).expect("edge exists") += flow;
                }
            }
        }
    }
    // each unordered pair contributes from both endpoints
    acc.into_iter().map(|(e, b)| (e, b / 2.0)).collect()
}

/// Mean normalized betweenness of `k`-degree nodes, as `(k, b̄(k))` pairs —
/// the series plotted in the paper's betweenness figures.
pub fn betweenness_by_degree(g: &Graph) -> Vec<(usize, f64)> {
    by_degree_from(g, &normalized_betweenness(g))
}

/// `(k, b̄(k))` series from precomputed normalized betweenness values —
/// lets the analyzer cache reuse one traversal for `b_max` and `b_k`.
pub(crate) fn by_degree_from(g: &Graph, bc: &[f64]) -> Vec<(usize, f64)> {
    let kmax = g.max_degree();
    let mut sum = vec![0.0f64; kmax + 1];
    let mut cnt = vec![0usize; kmax + 1];
    for (v, b) in bc.iter().enumerate() {
        let k = g.degree(v as u32);
        sum[k] += b;
        cnt[k] += 1;
    }
    (0..=kmax)
        .filter(|&k| cnt[k] > 0)
        .map(|k| (k, sum[k] / cnt[k] as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;

    #[test]
    fn path_betweenness_hand_computed() {
        // P5: bc = [0, 3, 4, 3, 0] (pairs routed through each inner node)
        let g = builders::path(5);
        let bc = node_betweenness_with_threads(&g, 1);
        let want = [0.0, 3.0, 4.0, 3.0, 0.0];
        for (b, w) in bc.iter().zip(want) {
            assert!((b - w).abs() < 1e-12, "{bc:?}");
        }
    }

    #[test]
    fn star_center_carries_everything() {
        // S_k: center lies on all (k choose 2) pairs.
        let g = builders::star(6);
        let bc = node_betweenness(&g);
        assert!((bc[0] - 15.0).abs() < 1e-12);
        for &leaf_bc in &bc[1..=6] {
            assert_eq!(leaf_bc, 0.0);
        }
        // normalized: center = 1, leaves = 0
        let nb = normalized_betweenness(&g);
        assert!((nb[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_zero_betweenness() {
        let g = builders::complete(6);
        for b in node_betweenness(&g) {
            assert!(b.abs() < 1e-12);
        }
    }

    #[test]
    fn cycle_betweenness_uniform() {
        // C6: by symmetry all equal; each node lies on... compute: exact
        // value for even cycle n: (n-2)²/8? For n=6: pairs at distance 3
        // have 2 shortest paths. Just assert uniformity and positivity.
        let g = builders::cycle(6);
        let bc = node_betweenness(&g);
        for b in &bc {
            assert!((b - bc[0]).abs() < 1e-12);
        }
        assert!(bc[0] > 0.0);
    }

    #[test]
    fn multiple_shortest_paths_split_credit() {
        // 4-cycle: pairs (0,2) and (1,3) each have two shortest paths, so
        // each inner node gets 1/2 from the one pair it can serve.
        let g = builders::cycle(4);
        let bc = node_betweenness_with_threads(&g, 1);
        for b in bc {
            assert!((b - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = builders::karate_club();
        let a = node_betweenness_with_threads(&g, 1);
        let b = node_betweenness_with_threads(&g, 4);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn karate_hubs_dominate() {
        let g = builders::karate_club();
        let bc = node_betweenness(&g);
        // node 0 has the highest betweenness in the karate club (known)
        let max_idx = bc
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(max_idx, 0);
        // known value: 231.07 (Brandes' paper / networkx)
        assert!((bc[0] - 231.0714).abs() < 0.01, "bc[0] = {}", bc[0]);
    }

    #[test]
    fn by_degree_series_shape() {
        let g = builders::star(5);
        let series = betweenness_by_degree(&g);
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].0, 1);
        assert!((series[0].1).abs() < 1e-12);
        assert_eq!(series[1].0, 5);
        assert!((series[1].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fused_distances_match_distance_module() {
        // the fused pass must reproduce DistanceDistribution exactly,
        // including unreachable-pair accounting on disconnected graphs
        for g in [
            builders::karate_club(),
            builders::grid(5, 7),
            Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap(),
        ] {
            let fused = betweenness_and_distances_with_threads(&g, 3);
            assert_eq!(
                fused.distances,
                crate::distance::DistanceDistribution::from_graph_with_threads(&g, 1)
            );
        }
        let empty = betweenness_and_distances(&Graph::new());
        assert!(empty.betweenness.is_empty());
        assert_eq!(empty.distances.nodes, 0);
    }

    #[test]
    fn csr_pass_bit_identical_to_adjacency_pass() {
        // the CSR port must not change a single bit: same neighbor
        // order, same chunking, same merge order
        for g in [
            builders::karate_club(),
            builders::grid(5, 7),
            Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap(),
        ] {
            for threads in [1, 3] {
                let csr = betweenness_and_distances_with_threads(&g, threads);
                let adj = betweenness_and_distances_adjacency(&g, threads);
                assert_eq!(csr.betweenness, adj.betweenness);
                assert_eq!(csr.distances, adj.distances);
            }
        }
    }

    #[test]
    fn sharded_pass_bit_identical_across_thread_and_shard_counts() {
        for g in [
            builders::karate_club(),
            builders::grid(5, 7),
            Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap(),
        ] {
            let csr = CsrGraph::from_graph(&g);
            let n = g.node_count();
            for shards in [1, 2, 7, n] {
                let oracle = betweenness_and_distances_sharded(&csr, shards, 1);
                for threads in [1, 3] {
                    let par = betweenness_and_distances_sharded(&csr, shards, threads);
                    assert_eq!(par.betweenness, oracle.betweenness, "shards = {shards}");
                    assert_eq!(par.distances, oracle.distances);
                    assert_eq!(par.max_depth, oracle.max_depth);
                }
            }
            // the default shard count reproduces the historical route
            let historical = betweenness_and_distances_csr(&csr, 2);
            let default_sharded = betweenness_and_distances_sharded(&csr, DEFAULT_SHARDS, 1);
            assert_eq!(historical.betweenness, default_sharded.betweenness);
            assert_eq!(historical.distances, default_sharded.distances);
        }
    }

    #[test]
    fn max_depth_reducer_equals_diameter() {
        let g = builders::grid(4, 6);
        let csr = CsrGraph::from_graph(&g);
        let fused = betweenness_and_distances_sharded(&csr, 7, 2);
        assert_eq!(fused.max_depth as usize, fused.distances.diameter());
        assert_eq!(fused.max_depth, 8); // (4-1) + (6-1)
        let empty = betweenness_and_distances_sharded(&CsrGraph::from_graph(&Graph::new()), 3, 2);
        assert_eq!(empty.max_depth, 0);
        assert!(empty.betweenness.is_empty());
    }

    #[test]
    fn tiny_graphs() {
        assert!(node_betweenness(&Graph::new()).is_empty());
        assert_eq!(normalized_betweenness(&builders::path(2)), vec![0.0, 0.0]);
        assert!(edge_betweenness(&Graph::new()).is_empty());
    }

    #[test]
    fn edge_betweenness_on_path() {
        // P4 edges: (0,1) carries pairs {0,1},{0,2},{0,3} → 3;
        // (1,2) carries {0,2},{0,3},{1,2},{1,3} → 4; (2,3) symmetric 3.
        let g = builders::path(4);
        let eb = edge_betweenness(&g);
        let get = |u: u32, v: u32| eb.iter().find(|&&(e, _)| e == (u, v)).unwrap().1;
        assert!((get(0, 1) - 3.0).abs() < 1e-12);
        assert!((get(1, 2) - 4.0).abs() < 1e-12);
        assert!((get(2, 3) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn edge_betweenness_on_star_is_pairs_plus_one() {
        // S_k: each spoke carries its own leaf pair with the hub (1) plus
        // (k−1) leaf–leaf pairs split... no splitting: unique paths.
        // pairs through spoke (0,i): {i, hub} = 1 + {i, j≠i} = k−1 → k.
        let k = 5;
        let g = builders::star(k);
        for (_, b) in edge_betweenness(&g) {
            assert!((b - k as f64).abs() < 1e-12, "b = {b}");
        }
    }

    #[test]
    fn edge_betweenness_splits_over_shortest_paths() {
        // C4: each pair at distance 2 has two shortest paths → each edge
        // carries 4 adjacent pairs' single paths... by symmetry all equal.
        let g = builders::cycle(4);
        let eb = edge_betweenness(&g);
        for &(_, b) in &eb {
            assert!((b - eb[0].1).abs() < 1e-12);
        }
        // total edge betweenness = Σ over pairs of path length
        let total: f64 = eb.iter().map(|&(_, b)| b).sum();
        let dd = crate::distance::DistanceDistribution::from_graph(&g);
        let sum_dist: f64 = dd
            .counts
            .iter()
            .enumerate()
            .map(|(x, &c)| x as f64 * c as f64)
            .sum::<f64>()
            / 2.0;
        assert!((total - sum_dist).abs() < 1e-9);
    }

    #[test]
    fn edge_betweenness_total_equals_sum_of_distances() {
        // identity: Σ_e bc(e) = Σ_{pairs} d(u,v) (every shortest path of
        // length ℓ contributes ℓ edge-visits, split across ties)
        let g = builders::karate_club();
        let total: f64 = edge_betweenness(&g).iter().map(|&(_, b)| b).sum();
        let dd = crate::distance::DistanceDistribution::from_graph(&g);
        let sum_dist: f64 = dd
            .counts
            .iter()
            .enumerate()
            .map(|(x, &c)| x as f64 * c as f64)
            .sum::<f64>()
            / 2.0;
        assert!(
            (total - sum_dist).abs() < 1e-6,
            "Σ edge-bc {total} vs Σ distances {sum_dist}"
        );
    }
}
