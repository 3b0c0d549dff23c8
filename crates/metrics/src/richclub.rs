//! Rich-club connectivity.
//!
//! `φ(k)` is the edge density among the nodes of degree > k: do the hubs
//! form a tightly interconnected "club"? AS graphs famously do; HOT-style
//! designed topologies famously do not (their high-degree nodes sit at
//! the periphery, mutually far apart). Like k-cores, this is a
//! beyond-the-paper metric used to check that dK-random graphs also
//! capture properties that were not explicitly on the §2 list.

use dk_graph::{undirected_edges, AdjacencyView};

/// Rich-club coefficient `φ(k) = 2·E_{>k} / (N_{>k}·(N_{>k}−1))` for each
/// degree threshold `k`, returned as `(k, φ)` pairs while `N_{>k} ≥ 2`.
pub fn rich_club<V: AdjacencyView + ?Sized>(g: &V) -> Vec<(usize, f64)> {
    let kmax = g.max_degree();
    if kmax == 0 {
        return Vec::new();
    }
    // Sort edges/nodes once; sweep thresholds from 0 upward.
    let degrees: Vec<usize> = (0..g.node_count() as u32).map(|u| g.degree(u)).collect();
    // counts of nodes with degree > k
    let mut nodes_gt = vec![0usize; kmax + 1];
    for &d in &degrees {
        for entry in nodes_gt.iter_mut().take(d) {
            *entry += 1;
        }
    }
    // counts of edges with both endpoints of degree > k: an edge (u,v)
    // survives thresholds k < min(deg u, deg v)
    let mut edges_gt = vec![0usize; kmax + 1];
    for (u, v) in undirected_edges(g) {
        let m = degrees[u as usize].min(degrees[v as usize]);
        for entry in edges_gt.iter_mut().take(m) {
            *entry += 1;
        }
    }
    (0..=kmax)
        .take_while(|&k| nodes_gt[k] >= 2)
        .map(|k| {
            let n = nodes_gt[k] as f64;
            (k, 2.0 * edges_gt[k] as f64 / (n * (n - 1.0)))
        })
        .collect()
}

/// Normalized rich-club: `φ(k)` divided by the same quantity on a
/// degree-matched reference (caller supplies the reference, typically a
/// 1K-random ensemble mean). Values > 1 mean a genuine rich-club beyond
/// what the degree sequence forces.
pub fn rich_club_normalized<V: AdjacencyView + ?Sized, W: AdjacencyView + ?Sized>(
    g: &V,
    reference: &W,
) -> Vec<(usize, f64)> {
    let a = rich_club(g);
    let b = rich_club(reference);
    let bmap: std::collections::BTreeMap<usize, f64> = b.into_iter().collect();
    a.into_iter()
        .filter_map(|(k, phi)| {
            bmap.get(&k).and_then(|&phi_ref| {
                if phi_ref > 0.0 {
                    Some((k, phi / phi_ref))
                } else {
                    None
                }
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::{builders, Graph};

    #[test]
    fn complete_graph_is_full_club() {
        let g = builders::complete(6);
        let rc = rich_club(&g);
        // all degrees 5: only threshold 0..=4 have ≥ 2 nodes; φ = 1
        assert!(!rc.is_empty());
        for (_, phi) in rc {
            assert!((phi - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn star_has_no_club() {
        // nodes of degree > 1 = just the hub → series stops at k = 0
        let g = builders::star(5);
        let rc = rich_club(&g);
        assert_eq!(rc.len(), 1);
        let (k, phi) = rc[0];
        assert_eq!(k, 0);
        // among all 6 nodes: 5 edges / C(6,2) = 1/3
        assert!((phi - 5.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn two_hubs_joined() {
        // double star with hub–hub edge: at threshold 1, the two hubs
        // remain and are connected → φ = 1
        let g = dk_graph::Graph::from_edges(
            8,
            [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (0, 4)],
        )
        .unwrap();
        let rc = rich_club(&g);
        let at1 = rc.iter().find(|&&(k, _)| k == 1).unwrap().1;
        assert!((at1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn karate_club_series_shape() {
        let g = builders::karate_club();
        let rc = rich_club(&g);
        assert_eq!(rc[0].0, 0);
        // density over all nodes at threshold 0
        assert!((rc[0].1 - 2.0 * 78.0 / (34.0 * 33.0)).abs() < 1e-12);
        for &(_, phi) in &rc {
            assert!((0.0..=1.0).contains(&phi));
        }
    }

    #[test]
    fn normalized_against_self_is_one() {
        let g = builders::karate_club();
        for (_, v) in rich_club_normalized(&g, &g) {
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_graph() {
        assert!(rich_club(&Graph::new()).is_empty());
        assert!(rich_club(&Graph::with_nodes(3)).is_empty());
    }
}
