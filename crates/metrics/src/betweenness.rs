//! Node betweenness centrality (Brandes' algorithm, exact, parallel).
//!
//! Betweenness of `v` is the weighted sum over source/target pairs of the
//! fraction of shortest paths passing through `v` (paper §2: "it estimates
//! the potential traffic load on a node"). Brandes' algorithm computes it
//! exactly in O(n·m) on unweighted graphs — one BFS plus one dependency
//! back-propagation per source — and sources are embarrassingly parallel.
//!
//! The exact pass is the Brandes–Pich pivot pass of [`crate::sampled`]
//! with every node as a pivot: [`sample_pivots`](crate::sampled::sample_pivots)
//! then returns `0..n` and the `n/K` scale is exactly 1. Brandes' BFS
//! already discovers the distance of every reachable node from every
//! source, so the same pass returns the exact distance distribution for
//! a counter increment per visit.

use crate::distance::default_threads;
use crate::sampled::{self, SampledTraversal};
use crate::stream::{run_sharded_fold, DEFAULT_SHARDS};
use dk_graph::{AdjacencyView, CsrGraph, Graph, NodeId};
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::ops::Range;

/// The exact all-source Brandes pass over a CSR snapshot: node
/// betweenness (unordered-pair convention, as [`node_betweenness`]),
/// the exact distance distribution (as
/// [`DistanceDistribution::from_graph`](crate::distance::DistanceDistribution::from_graph))
/// and the greatest finite distance, in one sweep.
///
/// Each worker streams its source shards over a BFS-ordered copy of the
/// snapshot into a compact `BrandesSums` partial (betweenness accumulation,
/// distance-histogram merge, eccentricity max-merge), and partials fold
/// into one global accumulator in shard order — in-flight memory
/// `O(workers · n)`, with no per-source n-vector beyond the worker's
/// reusable scratch. The shard count fixes the f64 merge tree, so the
/// result is bit-identical for every thread count. This is
/// [`sampled::sampled_traversal_sharded`] with `K = n`.
pub fn betweenness_and_distances_sharded(
    g: &CsrGraph,
    shards: usize,
    threads: usize,
) -> SampledTraversal {
    sampled::sampled_traversal_sharded(g, g.node_count(), shards, threads)
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

/// Level code of a node the current source has not reached. Reached
/// nodes carry their BFS depth mod 3 (see [`brandes_shard`]).
const UNSEEN: u8 = u8::MAX;

/// The shortest-path count σ and the dependency δ of one node, side by
/// side in one 16-byte slot: the forward sweep adds to σ and the reverse
/// sweep adds `σ · coeff` to δ of the same node, so each DAG arc lands
/// on one cache line.
#[derive(Clone, Copy)]
struct Flow {
    sigma: f64,
    delta: f64,
}

/// A queued node and its row span in the [`BfsOrdered`] copy, read once
/// when the node is discovered.
#[derive(Clone, Copy)]
struct Visit {
    node: NodeId,
    span: (u32, u32),
}

/// Marks a node [`BfsOrdered::new`] has not numbered yet.
const UNPLACED: NodeId = NodeId::MAX;

/// The analyzed CSR renumbered in BFS order, the graph every Brandes
/// shard reads. New id `i` is the `i`-th node a BFS discovers, starting
/// from the node of highest degree (the lowest id on ties), then from the
/// lowest unnumbered id of each further component; the BFS scans each
/// row in the source's order. Row `to_new[u]` is the source row of `u`,
/// each target mapped through `to_new`, **in the source row's order**.
///
/// A Brandes BFS from `to_new[s]` therefore discovers `to_new` of the
/// nodes the same BFS from `s` discovers, in the same order, and every
/// σ/δ operation keeps its operands and its place in the sequence: the
/// sums are bit-identical, only their ids are renumbered. What changes
/// is locality: the nodes of one BFS level, and their σ/δ slots, sit
/// close together instead of at arrival-order ids spread over the whole
/// array. The rows are not sorted, so this is not a [`CsrGraph`].
struct BfsOrdered {
    /// Row `u` is `targets[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<u32>,
    targets: Vec<NodeId>,
}

impl BfsOrdered {
    /// The copy of `g` and its id map `to_new` (old id → new id).
    fn new(g: &CsrGraph) -> (Self, Vec<NodeId>) {
        let n = g.node_count();
        let mut to_new = vec![UNPLACED; n];
        // order[i] = the source id of new node i
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        // the first of the highest-degree nodes: the lowest id on ties
        let hub = (0..n as NodeId).min_by_key(|&v| Reverse(g.degree(v)));
        for root in hub.into_iter().chain(0..n as NodeId) {
            if to_new[root as usize] != UNPLACED {
                continue;
            }
            let mut head = order.len();
            to_new[root as usize] = head as NodeId;
            order.push(root);
            while head < order.len() {
                let u = order[head];
                head += 1;
                for &v in g.neighbors(u) {
                    if to_new[v as usize] == UNPLACED {
                        to_new[v as usize] = order.len() as NodeId;
                        order.push(v);
                    }
                }
            }
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for &u in &order {
            targets.extend(g.neighbors(u).iter().map(|&v| to_new[v as usize]));
            // as many targets as the source CSR, whose offsets are u32
            offsets.push(targets.len() as u32);
        }
        (BfsOrdered { offsets, targets }, to_new)
    }

    fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `(lo, hi)` span of `u`'s row in `targets`.
    #[inline]
    fn span(&self, u: NodeId) -> (u32, u32) {
        (self.offsets[u as usize], self.offsets[u as usize + 1])
    }

    /// The targets in a span returned by [`BfsOrdered::span`].
    #[inline]
    fn targets_in(&self, (lo, hi): (u32, u32)) -> &[NodeId] {
        &self.targets[lo as usize..hi as usize]
    }
}

/// One shard's worth of Brandes sources: BFS + dependency
/// back-propagation per source in `range`, accumulated into one compact
/// [`BrandesSums`] partial. The kernel is memory-latency-bound at 10⁶
/// nodes, so its data is laid out for locality:
///
/// * **The graph is the [`BfsOrdered`] copy**, and `sources` are ids in
///   it. Renumbering puts each BFS level's nodes, and so its σ/δ slots
///   and level codes, close together; keeping every row in the source
///   row's order keeps the discovery order, and with it every f64
///   operation, exactly as on the source CSR (see [`BfsOrdered`]).
///
/// The per-source buffers are worker scratch reused across the shard,
/// laid out so that the hot loops branch only on a cache-resident array:
///
/// * **A one-byte level code per node** (`code`) holds the BFS depth
///   mod 3, or [`UNSEEN`]. A neighbour of a depth-`d` node sits at depth
///   `d − 1`, `d` or `d + 1`, and these three are distinct mod 3 at any
///   diameter, so the code alone tells a DAG arc (to `d + 1` forward,
///   to `d − 1` in reverse) from an arc within a level. An `n`-byte
///   array stays cache-resident at 10⁶ nodes, where a 16-byte
///   depth-and-σ probe per arc would miss; the depth itself is the level
///   counter of the walk, so the code never needs more than mod 3.
/// * **σ and δ share one [`Flow`] slot**, touched only on DAG arcs and
///   at the node's own visit. A slot is written whole when its node is
///   discovered (σ from the discovering parent, δ = 0), so no per-source
///   fill of σ or δ is needed; the codes are reset to [`UNSEEN`] by the
///   reverse sweep as it leaves each node.
/// * **The FIFO queue doubles as the visit order** and is walked level by
///   level, keeping each level's start: the reverse sweep runs the
///   levels deepest first, each back to front — the exact reverse BFS
///   order — and knows every node's depth without a lookup. Each entry
///   carries its node's row span, read at discovery, so neither sweep
///   waits on a random `offsets` load before scanning a node.
///
/// Every f64 operation — each σ add, each `(1 + δ_w) / σ_w`, each δ and
/// betweenness add — happens in the same order as in the textbook
/// kernel with an `i32` distance array and per-source fills on the
/// source CSR, so the sums are bit-identical to it
/// (`tests/kernel_equivalence.rs` keeps that kernel as its oracle).
fn brandes_shard(g: &BfsOrdered, sources: &[NodeId], range: Range<u32>) -> BrandesSums {
    let n = g.node_count();
    let mut out = BrandesSums::zero(n);
    let mut code = vec![UNSEEN; n];
    let mut flow = vec![
        Flow {
            sigma: 0.0,
            delta: 0.0
        };
        n
    ];
    let mut queue: Vec<Visit> = Vec::with_capacity(n);
    // queue index where each BFS level starts
    let mut levels: Vec<usize> = Vec::new();
    for idx in range {
        let s = sources[idx as usize];
        queue.clear();
        levels.clear();
        code[s as usize] = 0;
        flow[s as usize] = Flow {
            sigma: 1.0,
            delta: 0.0,
        };
        queue.push(Visit {
            node: s,
            span: g.span(s),
        });
        let mut start = 0;
        while start < queue.len() {
            let depth = levels.len();
            levels.push(start);
            let next = ((depth + 1) % 3) as u8;
            let end = queue.len();
            for i in start..end {
                let Visit { node: u, span } = queue[i];
                // σ of a level is final before the level is scanned:
                // every contribution comes from the level above
                let su = flow[u as usize].sigma;
                for &v in g.targets_in(span) {
                    let vi = v as usize;
                    let c = code[vi];
                    if c == UNSEEN {
                        code[vi] = next;
                        // σ starts at 0 + σ_u, which is σ_u (σ_u ≥ 1)
                        flow[vi] = Flow {
                            sigma: su,
                            delta: 0.0,
                        };
                        queue.push(Visit {
                            node: v,
                            span: g.span(v),
                        });
                    } else if c == next {
                        flow[vi].sigma += su;
                    }
                }
            }
            if out.counts.len() <= depth {
                out.counts.resize(depth + 1, 0);
            }
            out.counts[depth] += (end - start) as u64;
            start = end;
        }
        out.depth = out.depth.max(levels.len() as u32 - 1);
        out.unreachable += n as u64 - queue.len() as u64;
        // dependency accumulation in reverse BFS order; the source (level
        // 0) has no predecessor and no betweenness of its own
        let mut end = queue.len();
        for depth in (1..levels.len()).rev() {
            let prev = ((depth + 2) % 3) as u8;
            for &Visit { node: w, span } in queue[levels[depth]..end].iter().rev() {
                let wi = w as usize;
                let Flow { sigma, delta } = flow[wi];
                let coeff = (1.0 + delta) / sigma;
                for &v in g.targets_in(span) {
                    let vi = v as usize;
                    if code[vi] == prev {
                        let f = &mut flow[vi];
                        f.delta += f.sigma * coeff;
                    }
                }
                out.bc[wi] += delta;
                code[wi] = UNSEEN;
            }
            end = levels[depth];
        }
        code[s as usize] = UNSEEN;
    }
    out
}

/// One Brandes BFS + dependency back-propagation per listed source,
/// parallelized over sources with deterministic sharding: shard
/// boundaries are a function of `sources.len()` and `shards` only, and
/// partials fold into the accumulator in shard order as workers finish
/// — `O(workers · n)` in flight, bit-identical for every thread count.
/// The pass behind both the exact betweenness (sources = all nodes) and
/// the Brandes–Pich estimator of [`crate::sampled`] (sources = K
/// pivots).
///
/// The shards read a [`BfsOrdered`] copy of `g`: the sources are mapped
/// in place into its ids, and the betweenness sums back out of them, so
/// the caller sees `g`'s ids throughout. The copy and its id map are the
/// bytes [`stream::brandes_copy_bytes`](crate::stream::brandes_copy_bytes)
/// charges.
pub(crate) fn brandes_over_sources_sharded(
    g: &CsrGraph,
    mut sources: Vec<NodeId>,
    shards: usize,
    threads: usize,
) -> BrandesSums {
    let n = g.node_count();
    let k = sources.len();
    let threads = threads.clamp(1, k.max(1));
    let (copy, to_new) = BfsOrdered::new(g);
    for s in &mut sources {
        *s = to_new[*s as usize];
    }
    let mut sums = run_sharded_fold(
        k as u32,
        shards,
        1,
        threads,
        |range| brandes_shard(&copy, &sources, range),
        BrandesSums::zero(n),
        |acc, p| acc.merge(p),
    );
    drop(copy);
    sums.bc = to_new.iter().map(|&v| sums.bc[v as usize]).collect();
    sums
}

/// Exact node betweenness, **unordered-pair convention**: each `{s, t}`
/// pair contributes once, endpoints excluded.
///
/// Runs [`betweenness_and_distances_sharded`] over a fresh CSR snapshot
/// at the default shard count on every core — the pass reads every
/// neighbor list `2n` times, so the flat-array layout repays the
/// O(n + m) snapshot on anything but toy graphs.
pub fn node_betweenness(g: &Graph) -> Vec<f64> {
    betweenness_and_distances_sharded(&CsrGraph::from_graph(g), DEFAULT_SHARDS, default_threads())
        .betweenness
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
pub(crate) fn by_degree_from<V: AdjacencyView + ?Sized>(g: &V, bc: &[f64]) -> Vec<(usize, f64)> {
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
    use crate::distance::DistanceDistribution;
    use dk_graph::builders;

    /// The exact pass over a fresh snapshot at the default shard count.
    fn exact(g: &Graph, threads: usize) -> SampledTraversal {
        betweenness_and_distances_sharded(&CsrGraph::from_graph(g), DEFAULT_SHARDS, threads)
    }

    #[test]
    fn path_betweenness_hand_computed() {
        // P5: bc = [0, 3, 4, 3, 0] (pairs routed through each inner node)
        let g = builders::path(5);
        let bc = exact(&g, 1).betweenness;
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
        let bc = exact(&g, 1).betweenness;
        for b in bc {
            assert!((b - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = builders::karate_club();
        let a = exact(&g, 1).betweenness;
        let b = exact(&g, 4).betweenness;
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
        // the Brandes pass must reproduce DistanceDistribution exactly,
        // including unreachable-pair accounting on disconnected graphs
        for g in [
            builders::karate_club(),
            builders::grid(5, 7),
            Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap(),
        ] {
            let csr = CsrGraph::from_graph(&g);
            assert_eq!(
                exact(&g, 3).distances,
                DistanceDistribution::from_csr_sharded(&csr, DEFAULT_SHARDS, 1)
            );
        }
        let empty = exact(&Graph::new(), 2);
        assert!(empty.betweenness.is_empty());
        assert_eq!(empty.distances.nodes, 0);
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
                for threads in [2, 3] {
                    let par = betweenness_and_distances_sharded(&csr, shards, threads);
                    assert_eq!(par.betweenness, oracle.betweenness, "shards = {shards}");
                    assert_eq!(par.distances, oracle.distances);
                    assert_eq!(par.max_depth, oracle.max_depth);
                }
            }
            // the Graph-level convenience is the default shard count
            assert_eq!(
                node_betweenness(&g),
                betweenness_and_distances_sharded(&csr, DEFAULT_SHARDS, 1).betweenness
            );
        }
    }

    #[test]
    fn max_depth_reducer_equals_diameter() {
        let g = builders::grid(4, 6);
        let csr = CsrGraph::from_graph(&g);
        let pass = betweenness_and_distances_sharded(&csr, 7, 2);
        assert_eq!(pass.max_depth as usize, pass.distances.diameter());
        assert_eq!(pass.max_depth, 8); // (4-1) + (6-1)
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
        let dd = DistanceDistribution::from_graph(&g);
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
        let dd = DistanceDistribution::from_graph(&g);
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
