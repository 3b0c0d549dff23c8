//! Clustering `C(k)` and mean clustering `C̄` (paper §2, refs \[4, 14\]).
//!
//! The local clustering of a node `v` with degree `k ≥ 2` is the number of
//! links among its neighbors divided by `k(k−1)/2`. `C(k)` averages this
//! over `k`-degree nodes; `C̄` averages over all nodes of degree ≥ 2 (nodes
//! of degree 0/1 have no defined value; including them as zeros is the
//! other common convention — both are exposed, the paper-facing reports use
//! the degree-≥2 mean, matching CAIDA's usage in ref \[20\]).
//!
//! Every quantity here reads one **triangle census**: a degree-ordered
//! forward pass (Chiba–Nishizeki, Latapy's "compact-forward") that finds
//! each triangle once, at its lowest-ranked corner, and yields the
//! per-node triangle counts and the degree-product weight of the
//! neighbor pairs the triangles close — the term
//! [`likelihood_s2`](crate::likelihood::likelihood_s2) subtracts. The
//! analyzer cache runs it once for `c_mean`, `c_k`, `transitivity` and
//! `s2`.

use dk_graph::{AdjacencyView, NodeId};

/// One triangle census: what the clustering family and `S2` read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct TriangleCensus {
    /// `per_node[v]` = number of triangles through `v`.
    pub(crate) per_node: Vec<usize>,
    /// `Σ k_u·k_v + k_u·k_w + k_v·k_w` over the triangles `{u, v, w}`:
    /// every neighbor pair a triangle closes, weighted by the product of
    /// its degrees, counted once per center.
    pub(crate) closed_weight: u128,
}

/// The degree-ordered forward census of `g` (see the module docs): the
/// triangles of [`for_each_triangle`], tallied per node and weighted by
/// the degree products of the neighbor pairs they close. Every sum is an
/// integer, so the result does not depend on the order triangles are
/// found in.
///
/// # Panics
/// Panics if `g` has more than `u32::MAX` edges (see
/// [`for_each_triangle`]).
pub(crate) fn census<V: AdjacencyView + ?Sized>(g: &V) -> TriangleCensus {
    let mut per_node = vec![0usize; g.node_count()];
    let mut closed_weight = 0u128;
    for_each_triangle(g, |u, v, w| {
        let (ku, kv, kw) = (
            g.degree(u) as u128,
            g.degree(v) as u128,
            g.degree(w) as u128,
        );
        per_node[u as usize] += 1;
        per_node[v as usize] += 1;
        per_node[w as usize] += 1;
        closed_weight += ku * kv + ku * kw + kv * kw;
    });
    TriangleCensus {
        per_node,
        closed_weight,
    }
}

/// Calls `visit(u, v, w)` once per triangle `{u, v, w}` of `g`, from its
/// lowest-ranked corner `u`. The one triangle enumerator of the
/// workspace: the clustering census above and the 3K census of
/// `dk_core::dist::Dist3K` both read it.
///
/// Nodes are ranked by `(degree, id)`, and each keeps a forward row of
/// the neighbors ranked above it — `m` entries in all, behind `u32`
/// offsets. For each `u`, its forward row is marked with `u`; every
/// `w` in the forward row of a `v` in `u`'s that carries the mark closes
/// the triangle `{u, v, w}`, found only there since `u` is its
/// lowest-ranked corner. A hub's forward row holds only neighbors of at
/// least its degree, so the pass costs about `m` times a small forward
/// degree (at most `√(2m)`), not `Σ k²`.
///
/// # Panics
/// Panics if `g` has more than `u32::MAX` edges (the forward rows'
/// offsets are `u32`).
pub fn for_each_triangle<V, F>(g: &V, mut visit: F)
where
    V: AdjacencyView + ?Sized,
    F: FnMut(NodeId, NodeId, NodeId),
{
    let n = g.node_count();
    let m = g.edge_count();
    assert!(
        u32::try_from(m).is_ok(),
        "more than u32::MAX edges overflow the census offsets"
    );
    // forward rows: the neighbors ranked above each node, by (degree, id)
    let mut offsets: Vec<u32> = Vec::with_capacity(n + 1);
    let mut forward: Vec<NodeId> = Vec::with_capacity(m);
    offsets.push(0);
    for u in 0..n as NodeId {
        let ku = g.degree(u);
        forward.extend(
            g.neighbors(u)
                .iter()
                .filter(|&&v| (g.degree(v), v) > (ku, u)),
        );
        offsets.push(forward.len() as u32);
    }
    let row = |u: NodeId| &forward[offsets[u as usize] as usize..offsets[u as usize + 1] as usize];
    // mark[w] == u: w is in u's forward row (no node has id NodeId::MAX)
    let mut mark = vec![NodeId::MAX; n];
    for u in 0..n as NodeId {
        let fu = row(u);
        for &v in fu {
            mark[v as usize] = u;
        }
        for &v in fu {
            for &w in row(v) {
                if mark[w as usize] == u {
                    visit(u, v, w);
                }
            }
        }
    }
}

/// Per-node triangle counts: `t[v]` = number of triangles through `v`.
///
/// One degree-ordered forward census ([module docs](self)), generic over
/// [`AdjacencyView`]: about `m` times a small forward degree, where a
/// merge of both endpoints' rows per edge costs `Σ k²`.
pub fn triangles_per_node<V: AdjacencyView + ?Sized>(g: &V) -> Vec<usize> {
    census(g).per_node
}

/// Total number of triangles in the graph.
pub fn triangle_count<V: AdjacencyView + ?Sized>(g: &V) -> usize {
    triangles_per_node(g).iter().sum::<usize>() / 3
}

/// Local clustering coefficient per node; `None` for degree < 2.
pub fn local_clustering<V: AdjacencyView + ?Sized>(g: &V) -> Vec<Option<f64>> {
    local_clustering_from(g, &triangles_per_node(g))
}

/// [`local_clustering`] from precomputed per-node triangle counts — lets
/// the analyzer cache amortize one triangle census across `c_mean`,
/// `c_k`, and `transitivity`.
pub(crate) fn local_clustering_from<V: AdjacencyView + ?Sized>(
    g: &V,
    tri: &[usize],
) -> Vec<Option<f64>> {
    (0..g.node_count())
        .map(|v| {
            let k = g.degree(v as u32);
            if k < 2 {
                None
            } else {
                Some(tri[v] as f64 / (k as f64 * (k as f64 - 1.0) / 2.0))
            }
        })
        .collect()
}

/// Degree-dependent clustering `C(k)`: mean local clustering of `k`-degree
/// nodes, as `(k, C(k))` pairs for degrees with at least one defined value.
pub fn clustering_by_degree<V: AdjacencyView + ?Sized>(g: &V) -> Vec<(usize, f64)> {
    clustering_by_degree_from(g, &triangles_per_node(g))
}

/// [`clustering_by_degree`] from precomputed triangle counts.
pub(crate) fn clustering_by_degree_from<V: AdjacencyView + ?Sized>(
    g: &V,
    tri: &[usize],
) -> Vec<(usize, f64)> {
    let local = local_clustering_from(g, tri);
    let kmax = g.max_degree();
    let mut sum = vec![0.0f64; kmax + 1];
    let mut cnt = vec![0usize; kmax + 1];
    for (v, c) in local.iter().enumerate() {
        if let Some(c) = c {
            let k = g.degree(v as u32);
            sum[k] += c;
            cnt[k] += 1;
        }
    }
    (0..=kmax)
        .filter(|&k| cnt[k] > 0)
        .map(|k| (k, sum[k] / cnt[k] as f64))
        .collect()
}

/// Mean clustering `C̄` over nodes of degree ≥ 2 (the paper-facing scalar).
///
/// Returns 0.0 if no node has degree ≥ 2.
pub fn mean_clustering<V: AdjacencyView + ?Sized>(g: &V) -> f64 {
    mean_clustering_from(g, &triangles_per_node(g))
}

/// [`mean_clustering`] from precomputed triangle counts.
pub(crate) fn mean_clustering_from<V: AdjacencyView + ?Sized>(g: &V, tri: &[usize]) -> f64 {
    let local = local_clustering_from(g, tri);
    let (mut sum, mut cnt) = (0.0, 0usize);
    for c in local.into_iter().flatten() {
        sum += c;
        cnt += 1;
    }
    if cnt == 0 {
        0.0
    } else {
        sum / cnt as f64
    }
}

/// Mean clustering counting degree-<2 nodes as zero (alternative
/// convention; exposed for cross-checking against other tools).
pub fn mean_clustering_all_nodes<V: AdjacencyView + ?Sized>(g: &V) -> f64 {
    if g.node_count() == 0 {
        return 0.0;
    }
    let local = local_clustering(g);
    local.iter().map(|c| c.unwrap_or(0.0)).sum::<f64>() / g.node_count() as f64
}

/// Global transitivity: `3 × #triangles / #wedges` — a wedge-weighted
/// alternative to `C̄` (dominated by hubs in heavy-tailed graphs).
pub fn transitivity<V: AdjacencyView + ?Sized>(g: &V) -> f64 {
    transitivity_from(g, &triangles_per_node(g))
}

/// [`transitivity`] from precomputed triangle counts.
pub(crate) fn transitivity_from<V: AdjacencyView + ?Sized>(g: &V, tri: &[usize]) -> f64 {
    let tri = tri.iter().sum::<usize>() / 3;
    let wedges: usize = (0..g.node_count() as u32)
        .map(|v| {
            let k = g.degree(v);
            k * (k.saturating_sub(1)) / 2
        })
        .sum();
    if wedges == 0 {
        0.0
    } else {
        3.0 * tri as f64 / wedges as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::{builders, Graph};

    #[test]
    fn triangle_counts_on_classics() {
        assert_eq!(triangle_count(&builders::complete(4)), 4);
        assert_eq!(triangle_count(&builders::complete(5)), 10);
        assert_eq!(triangle_count(&builders::cycle(5)), 0);
        assert_eq!(triangle_count(&builders::petersen()), 0);
        assert_eq!(triangle_count(&builders::star(6)), 0);
    }

    #[test]
    fn per_node_triangles_in_k4() {
        // K4: each node participates in C(3,2) = 3 triangles.
        let t = triangles_per_node(&builders::complete(4));
        assert_eq!(t, vec![3, 3, 3, 3]);
    }

    #[test]
    fn clustering_of_complete_graph_is_one() {
        let g = builders::complete(6);
        assert!((mean_clustering(&g) - 1.0).abs() < 1e-12);
        assert!((transitivity(&g) - 1.0).abs() < 1e-12);
        for (_, c) in clustering_by_degree(&g) {
            assert!((c - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn clustering_of_triangle_free_graph_is_zero() {
        let g = builders::petersen();
        assert_eq!(mean_clustering(&g), 0.0);
        assert_eq!(transitivity(&g), 0.0);
    }

    #[test]
    fn tree_has_no_defined_clustering_for_leaves() {
        let g = builders::star(4);
        let local = local_clustering(&g);
        assert_eq!(local[0], Some(0.0)); // hub: 0 links among neighbors
        for &leaf_c in &local[1..=4] {
            assert_eq!(leaf_c, None);
        }
        assert_eq!(mean_clustering(&g), 0.0);
        assert_eq!(mean_clustering_all_nodes(&g), 0.0);
    }

    #[test]
    fn paw_graph_hand_computed() {
        // Triangle {0,1,2} plus pendant 3 attached to 0.
        // local: node0 (deg 3): 1 link among 3 neighbors → 1/3;
        //        node1, node2 (deg 2): 1/1 = 1; node3: undefined.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)]).unwrap();
        let local = local_clustering(&g);
        assert!((local[0].unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(local[1], Some(1.0));
        assert_eq!(local[2], Some(1.0));
        assert_eq!(local[3], None);
        assert!((mean_clustering(&g) - (1.0 / 3.0 + 2.0) / 3.0).abs() < 1e-12);
        // all-nodes convention divides by 4 instead
        assert!((mean_clustering_all_nodes(&g) - (1.0 / 3.0 + 2.0) / 4.0).abs() < 1e-12);
        // transitivity: 3 triangles-as-wedge-closures / wedges = 3·1/(3+1+1) = 0.6
        assert!((transitivity(&g) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn csr_census_matches_graph_census() {
        for g in [
            builders::karate_club(),
            builders::complete(5),
            builders::petersen(),
        ] {
            let csr = dk_graph::CsrGraph::from_graph(&g);
            assert_eq!(triangles_per_node(&g), triangles_per_node(&csr));
            assert_eq!(triangle_count(&g), triangle_count(&csr));
        }
    }

    #[test]
    fn clustering_by_degree_on_karate() {
        let g = builders::karate_club();
        let ck = clustering_by_degree(&g);
        // sanity: all values in [0,1], degrees ascending
        for w in ck.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        for &(_, c) in &ck {
            assert!((0.0..=1.0).contains(&c));
        }
        // karate has 45 triangles (known value)
        assert_eq!(triangle_count(&g), 45);
    }
}
