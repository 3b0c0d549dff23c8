//! Clustering `C(k)` and mean clustering `C̄` (paper §2, refs \[4, 14\]).
//!
//! The local clustering of a node `v` with degree `k ≥ 2` is the number of
//! links among its neighbors divided by `k(k−1)/2`. `C(k)` averages this
//! over `k`-degree nodes; `C̄` averages over all nodes of degree ≥ 2 (nodes
//! of degree 0/1 have no defined value; including them as zeros is the
//! other common convention — both are exposed, the paper-facing reports use
//! the degree-≥2 mean, matching CAIDA's usage in ref \[20\]).

use dk_graph::AdjacencyView;

/// Per-node triangle counts: `t[v]` = number of triangles through `v`.
///
/// Runs in O(Σ_e (deg(u) + deg(v))) via sorted-adjacency merges, generic
/// over [`AdjacencyView`] — the analyzer cache runs the census on its
/// CSR. Edges are enumerated as `(u, v)` with `v > u`
/// from the sorted neighbor slices; counts are identical either way.
pub fn triangles_per_node<V: AdjacencyView + ?Sized>(g: &V) -> Vec<usize> {
    let n = g.node_count();
    let mut t = vec![0usize; n];
    for u in 0..n as u32 {
        let a = g.neighbors(u);
        for &v in a.iter().filter(|&&v| v > u) {
            // every common neighbor w of (u,v) closes a triangle {u,v,w}
            let b = g.neighbors(v);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let w = a[i];
                        t[w as usize] += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    // each triangle's three edges credit its three opposite vertices, so
    // every vertex of a triangle is counted exactly once
    t
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
