//! Deterministic construction of named small graphs.
//!
//! These serve as oracles throughout the test suite: their metric values
//! (spectra, distance distributions, clustering, betweenness) have closed
//! forms, so every metric implementation in the workspace is validated
//! against them.

use crate::graph::{Graph, NodeId};

/// Path graph `P_n`: `0 − 1 − … − (n−1)`.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for u in 1..n {
        g.add_edge((u - 1) as NodeId, u as NodeId)
            .expect("distinct consecutive ids");
    }
    g
}

/// Cycle graph `C_n` (requires `n ≥ 3`; smaller n yields a path).
pub fn cycle(n: usize) -> Graph {
    let mut g = path(n);
    if n >= 3 {
        g.add_edge((n - 1) as NodeId, 0)
            .expect("closing edge is new");
    }
    g
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u as NodeId, v as NodeId)
                .expect("each pair added once");
        }
    }
    g
}

/// Star graph `S_k`: node 0 is the hub joined to `k` leaves (`n = k + 1`).
pub fn star(k: usize) -> Graph {
    let mut g = Graph::with_nodes(k + 1);
    for leaf in 1..=k {
        g.add_edge(0, leaf as NodeId).expect("distinct leaves");
    }
    g
}

/// Complete bipartite graph `K_{a,b}`; parts are `0..a` and `a..a+b`.
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut g = Graph::with_nodes(a + b);
    for u in 0..a {
        for v in a..a + b {
            g.add_edge(u as NodeId, v as NodeId)
                .expect("distinct parts");
        }
    }
    g
}

/// 2-D grid graph with `rows × cols` nodes; node `(r, c)` has id
/// `r * cols + c`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut g = Graph::with_nodes(rows * cols);
    let id = |r: usize, c: usize| (r * cols + c) as NodeId;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1))
                    .expect("grid edges unique");
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c))
                    .expect("grid edges unique");
            }
        }
    }
    g
}

/// Balanced tree with branching factor `b` and `depth` levels below the
/// root (depth 0 = a single node).
pub fn balanced_tree(b: usize, depth: usize) -> Graph {
    let mut nodes = 1usize;
    let mut level = 1usize;
    for _ in 0..depth {
        level *= b;
        nodes += level;
    }
    let mut g = Graph::with_nodes(nodes);
    // children of node u are b*u+1 ..= b*u+b (heap layout)
    for u in 0..nodes {
        for j in 1..=b {
            let c = b * u + j;
            if c < nodes {
                g.add_edge(u as NodeId, c as NodeId)
                    .expect("tree edges unique");
            }
        }
    }
    g
}

/// The Petersen graph (3-regular, 10 nodes, girth 5) — a classic
/// counterexample machine, used in tests for clustering (it is
/// triangle-free) and spectra.
pub fn petersen() -> Graph {
    let outer: [(NodeId, NodeId); 5] = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
    let spokes: [(NodeId, NodeId); 5] = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
    let inner: [(NodeId, NodeId); 5] = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
    let mut g = Graph::with_nodes(10);
    for &(u, v) in outer.iter().chain(&spokes).chain(&inner) {
        g.add_edge(u, v).expect("petersen edge list is simple");
    }
    g
}

/// Zachary's karate club graph (34 nodes, 78 edges) — the standard small
/// real-world test graph; it has triangles, hubs, and a mild community
/// structure, which exercises metric code paths that regular graphs miss.
pub fn karate_club() -> Graph {
    const EDGES: [(NodeId, NodeId); 78] = [
        (0, 1),
        (0, 2),
        (0, 3),
        (0, 4),
        (0, 5),
        (0, 6),
        (0, 7),
        (0, 8),
        (0, 10),
        (0, 11),
        (0, 12),
        (0, 13),
        (0, 17),
        (0, 19),
        (0, 21),
        (0, 31),
        (1, 2),
        (1, 3),
        (1, 7),
        (1, 13),
        (1, 17),
        (1, 19),
        (1, 21),
        (1, 30),
        (2, 3),
        (2, 7),
        (2, 8),
        (2, 9),
        (2, 13),
        (2, 27),
        (2, 28),
        (2, 32),
        (3, 7),
        (3, 12),
        (3, 13),
        (4, 6),
        (4, 10),
        (5, 6),
        (5, 10),
        (5, 16),
        (6, 16),
        (8, 30),
        (8, 32),
        (8, 33),
        (9, 33),
        (13, 33),
        (14, 32),
        (14, 33),
        (15, 32),
        (15, 33),
        (18, 32),
        (18, 33),
        (19, 33),
        (20, 32),
        (20, 33),
        (22, 32),
        (22, 33),
        (23, 25),
        (23, 27),
        (23, 29),
        (23, 32),
        (23, 33),
        (24, 25),
        (24, 27),
        (24, 31),
        (25, 31),
        (26, 29),
        (26, 33),
        (27, 33),
        (28, 31),
        (28, 33),
        (29, 32),
        (29, 33),
        (30, 32),
        (30, 33),
        (31, 32),
        (31, 33),
        (32, 33),
    ];
    Graph::from_edges(34, EDGES).expect("karate edge list is simple")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::AdjacencyView;
    use crate::traversal::is_connected;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 2);
        assert!(is_connected(&g));
        assert_eq!(path(1).edge_count(), 0);
        assert_eq!(path(0).node_count(), 0);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!(g.edge_count(), 6);
        assert!(g.degrees().iter().all(|&d| d == 2));
        // degenerate sizes fall back to paths
        assert_eq!(cycle(2).edge_count(), 1);
    }

    #[test]
    fn complete_shape() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert!(g.degrees().iter().all(|&d| d == 5));
    }

    #[test]
    fn star_shape() {
        let g = star(7);
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.degree(0), 7);
        assert_eq!(g.degree(3), 1);
    }

    #[test]
    fn bipartite_shape() {
        let g = complete_bipartite(2, 3);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(4), 2);
        assert!(!g.has_edge(0, 1));
        assert!(!g.has_edge(2, 3));
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        // edges: 3*3 horizontal + 2*4 vertical = 17
        assert_eq!(g.edge_count(), 17);
        assert_eq!(g.degree(0), 2); // corner
        assert_eq!(g.degree(5), 4); // interior
        assert!(is_connected(&g));
    }

    #[test]
    fn balanced_tree_shape() {
        let g = balanced_tree(2, 3);
        assert_eq!(g.node_count(), 15);
        assert_eq!(g.edge_count(), 14);
        assert!(is_connected(&g));
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(14), 1);
        assert_eq!(balanced_tree(3, 0).node_count(), 1);
    }

    #[test]
    fn petersen_is_3_regular_triangle_free() {
        let g = petersen();
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 15);
        assert!(g.degrees().iter().all(|&d| d == 3));
        // triangle-free: no edge's endpoints share a neighbor
        for &(u, v) in g.edges() {
            assert_eq!(g.common_neighbors(u, v), 0);
        }
    }

    #[test]
    fn karate_club_shape() {
        let g = karate_club();
        assert_eq!(g.node_count(), 34);
        assert_eq!(g.edge_count(), 78);
        assert!(is_connected(&g));
        assert_eq!(g.degree(33), 17); // instructor hub
        assert_eq!(g.degree(0), 16); // president hub
        g.check_invariants().unwrap();
    }
}
