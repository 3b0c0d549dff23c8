//! Likelihood `S`, second-order likelihood `S2`, and wedge/triangle
//! censuses.
//!
//! * `S = Σ_{(i,j)∈E} k_i·k_j` (paper §2, ref \[19\]) — a scalar summary of
//!   the 2K-distribution, linearly related to assortativity. Used by
//!   1K-space exploration (§4.3).
//! * `S2 ~ Σ k_1·k_3 · P∧(k_1, k_2, k_3)` — the paper's §4.3 scalar summary
//!   of the wedge component of the 3K-distribution: the sum over all
//!   wedges (paths of length 2) of the product of the *endpoint* degrees.
//!   Used by 2K-space exploration.
//!
//! A **wedge** here is an *induced* path of length 2: the endpoints are at
//! distance exactly 2 ("S2 measures the properly normalized correlation of
//! degrees of nodes located at distance 2", §4.3) — a triangle contains no
//! wedge. The whole-graph computation is all neighbor pairs per center via
//! `((Σ k_u)² − Σ k_u²)/2` in O(m), minus the closed (triangle) pairs:
//! the closed-pair weight of the one triangle census
//! ([`crate::clustering`]) that also feeds `C̄`, `C(k)` and transitivity.

use crate::clustering;
use dk_graph::{undirected_edges, AdjacencyView, NodeId};

/// Likelihood `S = Σ_{(i,j)∈E} k_i·k_j`, summed exactly in integers and
/// converted once: independent of edge order, and equal to the f64 sum
/// in any order wherever that sum is exact (below 2⁵³). An edgeless
/// graph has `S = 0` (not the `-0.0` an empty f64 sum starts from).
pub fn likelihood_s<V: AdjacencyView + ?Sized>(g: &V) -> f64 {
    undirected_edges(g)
        .map(|(u, v)| g.degree(u) as u128 * g.degree(v) as u128)
        .sum::<u128>() as f64
}

/// Second-order likelihood: `S2 = Σ_{induced wedges (u−v−w)} k_u·k_w`
/// (each unordered wedge counted once; endpoints at distance exactly 2).
///
/// Summed exactly in integers and converted once, like
/// [`likelihood_s`]; runs one triangle census for the closed pairs.
pub fn likelihood_s2<V: AdjacencyView + ?Sized>(g: &V) -> f64 {
    likelihood_s2_from(g, clustering::census(g).closed_weight)
}

/// [`likelihood_s2`] from a census's closed-pair weight
/// ([`clustering::TriangleCensus::closed_weight`]) — lets the analyzer
/// cache share one census with the clustering family.
pub(crate) fn likelihood_s2_from<V: AdjacencyView + ?Sized>(g: &V, closed_weight: u128) -> f64 {
    // all neighbor pairs (open + closed) per center
    let mut total = 0i128;
    for v in 0..g.node_count() as NodeId {
        let (mut sum, mut sum_sq) = (0i128, 0i128);
        for &u in g.neighbors(v) {
            let k = g.degree(u) as i128;
            sum += k;
            sum_sq += k * k;
        }
        total += (sum * sum - sum_sq) / 2;
    }
    // minus the closed ones, each a triangle's pair seen from its third
    // corner
    (total - closed_weight as i128) as f64
}

/// Number of paths of 2 edges (open **and** closed), `Σ_v C(k_v, 2)` —
/// the denominator of global transitivity.
pub fn wedge_count<V: AdjacencyView + ?Sized>(g: &V) -> u64 {
    (0..g.node_count() as NodeId)
        .map(|v| {
            let k = g.degree(v) as u64;
            k * k.saturating_sub(1) / 2
        })
        .sum()
}

/// Number of *induced* wedges (endpoints at distance exactly 2):
/// `Σ_v C(k_v, 2) − 3·#triangles`. This is the paper's `P∧` total.
pub fn induced_wedge_count<V: AdjacencyView + ?Sized>(g: &V) -> u64 {
    wedge_count(g) - 3 * clustering::triangle_count(g) as u64
}

/// Upper bound on `S` over all simple graphs with the same degree
/// sequence, via the rearrangement inequality: sort the edge-endpoint
/// degree multiset and pair largest-with-largest.
///
/// This is the cheap analytic bound used to sanity-check the
/// rewiring-based `S_max` estimates (the true max over *simple connected*
/// graphs is generally lower).
pub fn likelihood_s_upper_bound<V: AdjacencyView + ?Sized>(g: &V) -> f64 {
    // Each node of degree k contributes k "stubs" of weight k. Pairing the
    // sorted stub weights greedily maximizes Σ products.
    let mut stubs: Vec<f64> = Vec::with_capacity(2 * g.edge_count());
    for v in 0..g.node_count() as NodeId {
        let k = g.degree(v) as f64;
        for _ in 0..g.degree(v) {
            stubs.push(k);
        }
    }
    stubs.sort_by(|a, b| b.partial_cmp(a).expect("degrees are finite"));
    stubs
        .chunks(2)
        .map(|c| if c.len() == 2 { c[0] * c[1] } else { 0.0 })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::{builders, Graph};

    #[test]
    fn s_on_star() {
        // S_k: k edges × (k·1)
        let g = builders::star(5);
        assert_eq!(likelihood_s(&g), 25.0);
    }

    #[test]
    fn s2_on_star_hand_computed() {
        // Star S4: wedges all centered at hub; C(4,2) = 6 wedges with
        // endpoint degrees 1·1 → S2 = 6.
        let g = builders::star(4);
        assert_eq!(likelihood_s2(&g), 6.0);
        assert_eq!(wedge_count(&g), 6);
    }

    #[test]
    fn s2_on_path_hand_computed() {
        // P4 wedges: centered at node1 (ends deg 1,2 → 2), node2 (ends
        // deg 2,1 → 2); S2 = 4.
        let g = builders::path(4);
        assert_eq!(likelihood_s2(&g), 4.0);
        assert_eq!(wedge_count(&g), 2);
    }

    #[test]
    fn s2_on_triangle_is_zero() {
        // K3: every neighbor pair is closed — no induced wedge at all.
        let g = builders::complete(3);
        assert_eq!(likelihood_s2(&g), 0.0);
    }

    #[test]
    fn s2_on_paw_graph() {
        // Triangle {0,1,2} + pendant 3 on node 0. Induced wedges:
        // 1−0−3 (deg 2·1), 2−0−3 (2·1) — the 1−0−2 pair is closed.
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3)]).unwrap();
        assert_eq!(likelihood_s2(&g), 4.0);
    }

    #[test]
    fn s2_brute_force_cross_check() {
        // Compare the subtract-closed-pairs formula against explicit
        // induced-wedge enumeration.
        let g = builders::karate_club();
        let fast = likelihood_s2(&g);
        let mut slow = 0.0;
        for v in g.nodes() {
            let nbrs = g.neighbors(v);
            for i in 0..nbrs.len() {
                for j in (i + 1)..nbrs.len() {
                    if !g.has_edge(nbrs[i], nbrs[j]) {
                        slow += (g.degree(nbrs[i]) as f64) * (g.degree(nbrs[j]) as f64);
                    }
                }
            }
        }
        assert!((fast - slow).abs() < 1e-9);
    }

    #[test]
    fn upper_bound_dominates_actual() {
        for g in [
            builders::karate_club(),
            builders::petersen(),
            builders::star(7),
            builders::path(9),
        ] {
            assert!(likelihood_s_upper_bound(&g) >= likelihood_s(&g) - 1e-9);
        }
    }

    #[test]
    fn upper_bound_tight_for_regular_graphs() {
        // every pairing gives k² on a k-regular graph
        let g = builders::cycle(8);
        assert_eq!(likelihood_s_upper_bound(&g), likelihood_s(&g));
    }

    #[test]
    fn empty_graph_zeroes() {
        let g = Graph::new();
        assert_eq!(likelihood_s(&g), 0.0);
        assert_eq!(likelihood_s2(&g), 0.0);
        assert_eq!(wedge_count(&g), 0);
    }
}
