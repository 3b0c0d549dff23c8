//! Joint degree distribution (2K) summaries and the assortativity
//! coefficient `r`.
//!
//! The full JDD object (with canonicalization, distances, and derivations)
//! lives in `dk-core`, where the generators consume it; this module holds
//! the *scalar metric* view: Newman's assortativity coefficient and the
//! average-neighbor-degree curve `k_nn(k)` commonly plotted alongside it.

use dk_graph::{undirected_edges, AdjacencyView};

/// Newman's assortativity coefficient `r` ∈ [−1, 1]
/// (Phys. Rev. Lett. 89, 208701 — paper ref \[25\]).
///
/// Positive: similar degrees attach to each other (assortative);
/// negative: hubs attach to leaves (disassortative, typical of the
/// Internet). The paper reports `r ≈ −0.24` for skitter and `−0.22` for
/// HOT.
///
/// The three edge sums (`Σ j·k`, `Σ (j+k)/2`, `Σ (j²+k²)/2` over edges
/// with endpoint degrees `j`, `k`) are accumulated exactly in integers
/// and converted once, so `r` does not depend on the order edges are
/// visited in, and it equals the f64 sums in any order wherever those
/// are exact (every partial sum below 2⁵³).
///
/// Returns 0.0 when undefined (fewer than 1 edge or zero variance, e.g.
/// regular graphs).
pub fn assortativity<V: AdjacencyView + ?Sized>(g: &V) -> f64 {
    let m = g.edge_count();
    if m == 0 {
        return 0.0;
    }
    let minv = 1.0 / m as f64;
    let (mut jk, mut ends, mut squares) = (0u128, 0u128, 0u128);
    for (u, v) in undirected_edges(g) {
        let (j, k) = (g.degree(u) as u128, g.degree(v) as u128);
        jk += j * k;
        ends += j + k;
        squares += j * j + k * k;
    }
    let (sum_jk, sum_half, sum_sq) = (jk as f64, 0.5 * ends as f64, 0.5 * squares as f64);
    let num = minv * sum_jk - (minv * sum_half).powi(2);
    let den = minv * sum_sq - (minv * sum_half).powi(2);
    if den.abs() < 1e-15 {
        0.0
    } else {
        num / den
    }
}

/// Average degree of the nearest neighbors of `k`-degree nodes,
/// `k_nn(k)`, returned as `(k, k_nn)` pairs for observed degrees.
///
/// A decreasing `k_nn(k)` is the standard signature of disassortativity in
/// AS topologies.
pub fn avg_neighbor_degree<V: AdjacencyView + ?Sized>(g: &V) -> Vec<(usize, f64)> {
    let mut sum = vec![0.0f64; g.max_degree() + 1];
    let mut cnt = vec![0usize; g.max_degree() + 1];
    for u in 0..g.node_count() as u32 {
        let k = g.degree(u);
        if k == 0 {
            continue;
        }
        let s: usize = g.neighbors(u).iter().map(|&v| g.degree(v)).sum();
        sum[k] += s as f64 / k as f64;
        cnt[k] += 1;
    }
    (0..sum.len())
        .filter(|&k| cnt[k] > 0)
        .map(|k| (k, sum[k] / cnt[k] as f64))
        .collect()
}

/// Raw JDD edge counts `m(k1, k2)` with `k1 ≤ k2`, as a sorted vector —
/// the metric-side view used by figure generators (the authoritative
/// distribution type is `dk_core::Dist2K`).
pub fn jdd_counts<V: AdjacencyView + ?Sized>(g: &V) -> Vec<((usize, usize), usize)> {
    let mut map: std::collections::BTreeMap<(usize, usize), usize> =
        std::collections::BTreeMap::new();
    for (u, v) in undirected_edges(g) {
        let a = g.degree(u);
        let b = g.degree(v);
        let key = (a.min(b), a.max(b));
        *map.entry(key).or_insert(0) += 1;
    }
    map.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::{builders, Graph};

    #[test]
    fn star_is_maximally_disassortative() {
        let g = builders::star(8);
        assert!((assortativity(&g) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn regular_graphs_have_undefined_r_reported_as_zero() {
        assert_eq!(assortativity(&builders::cycle(10)), 0.0);
        assert_eq!(assortativity(&builders::complete(5)), 0.0);
        assert_eq!(assortativity(&Graph::new()), 0.0);
    }

    #[test]
    fn double_star_is_disassortative_not_extreme() {
        // Two hubs joined, each with 3 leaves: r < 0 but > −1 because the
        // hub–hub edge is assortative.
        let g =
            Graph::from_edges(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (0, 4)]).unwrap();
        let r = assortativity(&g);
        assert!(r < 0.0 && r > -1.0, "r = {r}");
    }

    #[test]
    fn path_assortativity_known_value() {
        // P4: edges (1,2),(2,2),(2,1) by endpoint degrees.
        // Hand computation: Σjk = 2+4+2 = 8, Σ(j+k)/2 = 1.5+2+1.5 = 5,
        // Σ(j²+k²)/2 = 2.5+4+2.5 = 9, m=3.
        // r = (8/3 − 25/9)/(9/3 − 25/9) = (−1/9)/(2/9) = −0.5
        let g = builders::path(4);
        assert!((assortativity(&g) + 0.5).abs() < 1e-12);
    }

    #[test]
    fn knn_decreasing_for_star() {
        let g = builders::star(5);
        let knn = avg_neighbor_degree(&g);
        // leaves (k=1) see the hub (degree 5); hub (k=5) sees leaves (1.0)
        assert_eq!(knn, vec![(1, 5.0), (5, 1.0)]);
    }

    #[test]
    fn jdd_counts_of_path() {
        let g = builders::path(4); // degrees 1,2,2,1
        let jdd = jdd_counts(&g);
        assert_eq!(jdd, vec![((1, 2), 2), ((2, 2), 1)]);
        // total = m
        assert_eq!(jdd.iter().map(|(_, c)| c).sum::<usize>(), 3);
    }

    #[test]
    fn assortativity_in_range_on_real_graph() {
        let r = assortativity(&builders::karate_club());
        assert!((-1.0..=1.0).contains(&r));
        // karate club is known disassortative (≈ −0.476)
        assert!(r < -0.4 && r > -0.55, "r = {r}");
    }
}
