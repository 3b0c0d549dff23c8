//! Undirected simple graph with O(1) random-edge access.
//!
//! [`Graph`] is the workhorse of the workspace. It is two halves, each
//! chosen for an access pattern of the dK-series algorithms:
//!
//! * **the edge list** ([`EdgeList`]): node degrees, the canonical edge
//!   list (`(u, v)` with `u < v`) and a deterministic hash index
//!   `(u, v) → position`. The list gives O(1) *uniform* random edge
//!   sampling and the index O(1) presence probes and targeted removal,
//!   the inner-loop operations of every rewiring process (paper §4.1.4);
//! * **sorted adjacency rows** ([`SortedRows`]): O(log deg) membership
//!   tests and O(deg) neighbour iteration, which wedge/triangle censuses,
//!   the 3K swap delta and every traversal read.
//!
//! The swap chains read only the edge list, so they take it out of the
//! graph ([`Graph::into_edge_list`]), run on it, and rebuild the rows
//! once when they hand the graph back ([`Graph::from_edge_list`]).
//!
//! The structure maintains the *simple graph* invariant at all times: no
//! self-loops, no parallel edges. Violations are reported as errors, never
//! silently ignored (callers that want "insert if absent" semantics use
//! [`Graph::try_add_edge`]).

use crate::edges::EdgeList;
use crate::error::GraphError;
use rand::Rng;

/// Node identifier: dense index in `0..node_count()`.
///
/// `u32` keeps adjacency lists compact (half the memory traffic of `usize`
/// on 64-bit hosts); the largest graphs in this workspace (the 10⁶-node
/// benchmark and attack inputs) are far below the 4 Gi limit.
pub type NodeId = u32;

/// Sorted adjacency rows: `neighbors(u)` is the ascending list of the
/// neighbours of `u`.
///
/// The rows half of [`Graph`]; the 3K swap objectives also keep a copy of
/// their own, updated only when a move is committed.
#[derive(Clone, Debug, Default)]
pub struct SortedRows {
    rows: Vec<Vec<NodeId>>,
}

impl SortedRows {
    /// The rows of `list`: each row is sized by its node's degree, filled
    /// from the edge list and sorted.
    pub fn from_edges(list: &EdgeList) -> Self {
        let mut rows: Vec<Vec<NodeId>> = list
            .degrees()
            .iter()
            .map(|&k| Vec::with_capacity(k as usize))
            .collect();
        for &(u, v) in list.edges() {
            rows[u as usize].push(v);
            rows[v as usize].push(u);
        }
        for row in &mut rows {
            row.sort_unstable();
        }
        SortedRows { rows }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// Sorted neighbour slice of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        &self.rows[u as usize]
    }

    /// Inserts `v` into the row of `u` and `u` into the row of `v`. The
    /// caller has checked that the edge is absent.
    pub fn insert(&mut self, u: NodeId, v: NodeId) {
        Self::row_insert(&mut self.rows[u as usize], v);
        Self::row_insert(&mut self.rows[v as usize], u);
    }

    /// Removes `v` from the row of `u` and `u` from the row of `v`. The
    /// caller has checked that the edge is present.
    pub fn remove(&mut self, u: NodeId, v: NodeId) {
        Self::row_remove(&mut self.rows[u as usize], v);
        Self::row_remove(&mut self.rows[v as usize], u);
    }

    #[inline]
    fn row_insert(list: &mut Vec<NodeId>, v: NodeId) {
        match list.binary_search(&v) {
            Err(pos) => list.insert(pos, v),
            Ok(_) => unreachable!("duplicate adjacency entry"),
        }
    }

    #[inline]
    fn row_remove(list: &mut Vec<NodeId>, v: NodeId) {
        match list.binary_search(&v) {
            Ok(pos) => {
                list.remove(pos);
            }
            Err(_) => unreachable!("removing absent adjacency entry"),
        }
    }
}

/// An undirected simple graph: an [`EdgeList`] plus its [`SortedRows`].
///
/// See the [module docs](self) for representation rationale.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// `rows.neighbors(u)` is the sorted list of neighbors of `u`.
    rows: SortedRows,
    /// Degrees, the canonical edge list and its index.
    edges: EdgeList,
}

/// Returns the canonical (ordered) form of an undirected edge.
#[inline]
pub fn canon_edge(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

impl Graph {
    /// Creates an empty graph with zero nodes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            rows: SortedRows {
                rows: vec![Vec::new(); n],
            },
            edges: EdgeList::with_nodes(n),
        }
    }

    /// The graph of `list`, its rows rebuilt by
    /// [`SortedRows::from_edges`]. The edge list and its index move in
    /// unchanged, storage order included.
    pub fn from_edge_list(list: EdgeList) -> Self {
        Graph {
            rows: SortedRows::from_edges(&list),
            edges: list,
        }
    }

    /// The edge-list half: degrees, canonical edges and their index.
    #[inline]
    pub fn edge_list(&self) -> &EdgeList {
        &self.edges
    }

    /// Drops the rows and returns the edge-list half.
    pub fn into_edge_list(self) -> EdgeList {
        self.edges
    }

    /// Builds a graph with `n` nodes from an edge iterator.
    ///
    /// Fails on out-of-range endpoints, self-loops, and duplicate edges.
    pub fn from_edges<I>(n: usize, iter: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut g = Graph::with_nodes(n);
        for (u, v) in iter {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Builds a graph with `n` nodes from an edge iterator, silently
    /// skipping self-loops and duplicate edges.
    ///
    /// This is the "cleanup" constructor used when simplifying the output of
    /// pseudograph algorithms (paper §4.1.2: "remove all loops").
    pub fn from_edges_dedup<I>(n: usize, iter: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut g = Graph::with_nodes(n);
        for (u, v) in iter {
            if u == v {
                continue;
            }
            if (u as usize) >= n || (v as usize) >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: u.max(v),
                    nodes: n,
                });
            }
            let _ = g.try_add_edge(u, v);
        }
        Ok(g)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.rows.rows.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.edge_count()
    }

    /// `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.rows.is_empty()
    }

    /// Iterator over all node ids, `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count() as NodeId
    }

    /// Appends a new isolated node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        self.rows.rows.push(Vec::new());
        self.edges.add_node();
        (self.rows.rows.len() - 1) as NodeId
    }

    /// Degree of node `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range (an internal programming error; use
    /// [`Graph::has_node`] to validate external input first).
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.rows.rows[u as usize].len()
    }

    /// `true` if `u` is a valid node id.
    #[inline]
    pub fn has_node(&self, u: NodeId) -> bool {
        (u as usize) < self.rows.rows.len()
    }

    /// The degree of every node, indexed by node id.
    pub fn degrees(&self) -> Vec<usize> {
        self.rows.rows.iter().map(Vec::len).collect()
    }

    /// Average degree `k̄ = 2m/n`; the paper's 0K-distribution.
    ///
    /// Returns 0.0 for the empty graph.
    pub fn avg_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
    }

    /// Maximum degree, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        self.rows.rows.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Sorted neighbor slice of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        self.rows.neighbors(u)
    }

    /// Membership test, O(log deg(min(u, v))).
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if !self.has_node(u) || !self.has_node(v) {
            return false;
        }
        // Search the shorter adjacency list.
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Membership test through the canonical edge index, O(1).
    ///
    /// Every mutation already maintains the index (a deterministic-hasher
    /// map from canonical edge to its position in the edge list), so
    /// membership is one hash probe regardless of degree, where hub
    /// degrees make even the O(log deg) binary search of
    /// [`Graph::has_edge`] measurable. Out-of-range ids simply hash to an
    /// absent key, so this never panics.
    #[inline]
    pub fn has_edge_indexed(&self, u: NodeId, v: NodeId) -> bool {
        self.edges.has_edge(u, v)
    }

    /// The canonical edge list. Each undirected edge appears exactly once as
    /// `(u, v)` with `u < v`, in **arbitrary but deterministic** order.
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        self.edges.edges()
    }

    /// The `i`-th edge of the canonical edge list.
    #[inline]
    pub fn edge_at(&self, i: usize) -> (NodeId, NodeId) {
        self.edges.edge_at(i)
    }

    /// A uniformly random edge (canonical orientation), O(1).
    ///
    /// # Errors
    /// Returns [`GraphError::EmptyGraph`] if the graph has no edges.
    pub fn random_edge<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
    ) -> Result<(NodeId, NodeId), GraphError> {
        let m = self.edge_count();
        if m == 0 {
            return Err(GraphError::EmptyGraph);
        }
        Ok(self.edge_at(rng.gen_range(0..m)))
    }

    /// Adds undirected edge `(u, v)`.
    ///
    /// # Errors
    /// * [`GraphError::NodeOutOfRange`] for invalid endpoints,
    /// * [`GraphError::SelfLoop`] if `u == v`,
    /// * [`GraphError::DuplicateEdge`] if the edge already exists.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        self.edges.add_edge(u, v)?;
        self.rows.insert(u, v);
        Ok(())
    }

    /// Adds edge `(u, v)` if legal; returns whether it was added.
    ///
    /// Out-of-range endpoints still panic in debug builds via indexing —
    /// this method only tolerates *loops and duplicates*, the two conditions
    /// randomized constructions produce routinely.
    pub fn try_add_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || self.has_edge(u, v) {
            return false;
        }
        self.add_edge(u, v).is_ok()
    }

    /// Removes undirected edge `(u, v)`.
    ///
    /// # Errors
    /// [`GraphError::MissingEdge`] if the edge is not present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        self.edges.remove_edge(u, v)?;
        self.rows.remove(u, v);
        Ok(())
    }

    /// Induced subgraph on `nodes`.
    ///
    /// Returns the subgraph (with nodes renumbered `0..nodes.len()` in the
    /// order given) and the mapping `new id → old id`.
    ///
    /// Built in O(n + m), with no per-edge duplicate probe or sorted
    /// insert: each selected node's sorted neighbor list is filtered
    /// through a dense `old → new` table (and re-sorted only when
    /// `nodes` is not ascending), the edge list is this graph's
    /// [`Graph::edges`] filtered and remapped in the same order, and the
    /// edge index is pre-sized with one insert per edge. The result
    /// equals adding the surviving edges one at a time in `edges()`
    /// order, edge list order included.
    ///
    /// Duplicate entries in `nodes` are an error.
    pub fn subgraph(&self, nodes: &[NodeId]) -> Result<(Graph, Vec<NodeId>), GraphError> {
        // marks nodes outside the selection in the dense table
        const ABSENT: NodeId = NodeId::MAX;
        let mut old_to_new: Vec<NodeId> = vec![ABSENT; self.node_count()];
        for (new, &old) in nodes.iter().enumerate() {
            if !self.has_node(old) {
                return Err(GraphError::NodeOutOfRange {
                    node: old,
                    nodes: self.node_count(),
                });
            }
            if old_to_new[old as usize] != ABSENT {
                return Err(GraphError::ConstructionFailed(format!(
                    "duplicate node {old} in subgraph selection"
                )));
            }
            old_to_new[old as usize] = new as NodeId;
        }
        // an ascending selection keeps the renumbering monotone, so the
        // filtered neighbor lists stay sorted
        let ascending = nodes.windows(2).all(|w| w[0] < w[1]);
        let rows: Vec<Vec<NodeId>> = nodes
            .iter()
            .map(|&old| {
                let mut list: Vec<NodeId> = self
                    .neighbors(old)
                    .iter()
                    .map(|&v| old_to_new[v as usize])
                    .filter(|&v| v != ABSENT)
                    .collect();
                if !ascending {
                    list.sort_unstable();
                }
                list
            })
            .collect();
        let edges: Vec<(NodeId, NodeId)> = self
            .edges()
            .iter()
            .filter_map(|&(u, v)| {
                let (nu, nv) = (old_to_new[u as usize], old_to_new[v as usize]);
                (nu != ABSENT && nv != ABSENT).then(|| canon_edge(nu, nv))
            })
            .collect();
        let deg = rows.iter().map(|row| row.len() as u32).collect();
        let g = Graph {
            rows: SortedRows { rows },
            edges: EdgeList::from_parts(deg, edges),
        };
        Ok((g, nodes.to_vec()))
    }

    /// Sum over edges of the product of endpoint degrees:
    /// the paper's *likelihood* `S = Σ_{(i,j)∈E} k_i·k_j` (§2, ref \[19\]).
    ///
    /// Lives on `Graph` (rather than in `dk-metrics`) because rewiring-based
    /// explorers evaluate it in their inner loop.
    pub fn likelihood_s(&self) -> f64 {
        self.edges()
            .iter()
            .map(|&(u, v)| (self.degree(u) as f64) * (self.degree(v) as f64))
            .sum()
    }

    /// Internal consistency check: adjacency, edge list, degrees and edge
    /// index describe the same simple graph. O(n + m log m). Used by
    /// tests and debug assertions in the generators.
    pub fn check_invariants(&self) -> Result<(), GraphError> {
        let n = self.node_count();
        if self.edges.node_count() != n {
            return Err(GraphError::ConstructionFailed(
                "edge list and adjacency disagree on the node count".into(),
            ));
        }
        let mut from_adj: Vec<(NodeId, NodeId)> = Vec::new();
        for u in 0..n {
            let nbrs = &self.rows.rows[u];
            if !nbrs.windows(2).all(|w| w[0] < w[1]) {
                return Err(GraphError::ConstructionFailed(format!(
                    "adjacency of node {u} not sorted/unique"
                )));
            }
            for &v in nbrs {
                if (v as usize) >= n {
                    return Err(GraphError::NodeOutOfRange { node: v, nodes: n });
                }
                if v as usize == u {
                    return Err(GraphError::SelfLoop(u as NodeId));
                }
                if u < v as usize {
                    from_adj.push((u as NodeId, v));
                }
            }
        }
        let mut from_list = self.edges().to_vec();
        from_adj.sort_unstable();
        from_list.sort_unstable();
        if from_adj != from_list {
            return Err(GraphError::ConstructionFailed(
                "edge list and adjacency disagree".into(),
            ));
        }
        self.edges.check_invariants()
    }
}

impl PartialEq for Graph {
    /// Structural equality: same node count and same edge *set* (edge list
    /// order and index layout are representation details).
    fn eq(&self, other: &Self) -> bool {
        if self.node_count() != other.node_count() || self.edge_count() != other.edge_count() {
            return false;
        }
        self.edges().iter().all(|&(u, v)| other.has_edge(u, v))
    }
}

impl Eq for Graph {}

// Structured (de)serialization is intentionally representation-based:
// `(node_count, edges())` is a complete, stable wire form, and
// `Graph::from_edges` rebuilds from it. The text formats in [`crate::io`]
// are the supported interchange surface; serde impls were dropped when the
// workspace went fully offline (no external dependencies available).

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn square() -> Result<Graph, GraphError> {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn basic_accessors() -> Result<(), GraphError> {
        let g = square()?;
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.avg_degree(), 2.0);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.degrees(), vec![2, 2, 2, 2]);
        assert_eq!(g.neighbors(0), &[1, 3]);
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 99));
        assert_eq!(g.nodes().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        Ok(())
    }

    #[test]
    fn add_edge_rejects_bad_input() -> Result<(), GraphError> {
        let mut g = Graph::with_nodes(3);
        assert_eq!(g.add_edge(0, 0), Err(GraphError::SelfLoop(0)));
        assert_eq!(
            g.add_edge(0, 3),
            Err(GraphError::NodeOutOfRange { node: 3, nodes: 3 })
        );
        assert_eq!(
            g.add_edge(5, 0),
            Err(GraphError::NodeOutOfRange { node: 5, nodes: 3 })
        );
        g.add_edge(0, 1)?;
        assert_eq!(g.add_edge(1, 0), Err(GraphError::DuplicateEdge(0, 1)));
        g.check_invariants()
    }

    #[test]
    fn try_add_edge_tolerates_dups_and_loops() {
        let mut g = Graph::with_nodes(3);
        assert!(g.try_add_edge(0, 1));
        assert!(!g.try_add_edge(1, 0));
        assert!(!g.try_add_edge(2, 2));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn has_edge_indexed_matches_has_edge() -> Result<(), GraphError> {
        let mut g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2)])?;
        // the index must follow mutations, and out-of-range ids answer
        // `false` on both paths
        g.remove_edge(0, 2)?;
        for u in 0..7u32 {
            for v in [0, 1, 2, 3, 4, 5, 6, NodeId::MAX] {
                assert_eq!(g.has_edge(u, v), g.has_edge_indexed(u, v), "({u}, {v})");
            }
        }
        Ok(())
    }

    #[test]
    fn remove_edge_swaps_correctly() -> Result<(), GraphError> {
        let mut g = square()?;
        g.remove_edge(1, 0)?; // reversed orientation must work
        assert_eq!(g.edge_count(), 3);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.remove_edge(0, 1), Err(GraphError::MissingEdge(0, 1)));
        g.check_invariants()?;
        // Remove all remaining edges.
        g.remove_edge(1, 2)?;
        g.remove_edge(2, 3)?;
        g.remove_edge(3, 0)?;
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degrees(), vec![0, 0, 0, 0]);
        g.check_invariants()
    }

    #[test]
    fn from_edges_dedup_skips_junk() -> Result<(), GraphError> {
        let g = Graph::from_edges_dedup(3, [(0, 1), (1, 0), (1, 1), (1, 2)])?;
        assert_eq!(g.edge_count(), 2);
        assert!(Graph::from_edges_dedup(2, [(0, 5)]).is_err());
        Ok(())
    }

    #[test]
    fn random_edge_uniformity() -> Result<(), GraphError> {
        let g = square()?;
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..4000 {
            let e = g.random_edge(&mut rng)?;
            *counts.entry(e).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 4);
        for (_, c) in counts {
            // each edge expected 1000 times; allow generous slack
            assert!((700..1300).contains(&c));
        }
        let empty = Graph::with_nodes(2);
        assert!(empty.random_edge(&mut rng).is_err());
        Ok(())
    }

    #[test]
    fn common_neighbors_counts() -> Result<(), GraphError> {
        use crate::csr::AdjacencyView;
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2)])?;
        assert_eq!(g.common_neighbors(0, 4), 2); // 1 and 2
        assert_eq!(g.common_neighbors(1, 2), 2); // 0 and 4
        assert_eq!(g.common_neighbors(3, 4), 0);
        Ok(())
    }

    #[test]
    fn subgraph_induced() -> Result<(), GraphError> {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])?;
        let (sub, map) = g.subgraph(&[0, 1, 2])?;
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2); // (0,1) and (1,2)
        assert_eq!(map, vec![0, 1, 2]);
        assert!(g.subgraph(&[0, 0]).is_err());
        assert!(g.subgraph(&[99]).is_err());
        Ok(())
    }

    #[test]
    fn subgraph_renumbers_in_selection_order() -> Result<(), GraphError> {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])?;
        // non-identity selection: subgraph order differs from id order
        let (sub, map) = g.subgraph(&[4, 1, 2])?;
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 1); // only (1,2) survives, as new (1,2)
        assert!(sub.has_edge(1, 2));
        assert_eq!(map, vec![4, 1, 2]);
        Ok(())
    }

    #[test]
    fn likelihood_on_star() -> Result<(), GraphError> {
        // Star S4: center degree 4, leaves degree 1 → S = 4 edges × (4·1) = 16.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])?;
        assert_eq!(g.likelihood_s(), 16.0);
        Ok(())
    }

    #[test]
    fn structural_equality_ignores_edge_order() -> Result<(), GraphError> {
        let a = Graph::from_edges(3, [(0, 1), (1, 2)])?;
        let b = Graph::from_edges(3, [(2, 1), (1, 0)])?;
        assert_eq!(a, b);
        let c = Graph::from_edges(3, [(0, 1), (0, 2)])?;
        assert_ne!(a, c);
        Ok(())
    }

    #[test]
    fn wire_repr_roundtrip() -> Result<(), GraphError> {
        // `(node_count, edges())` is the stable wire form; rebuilding from
        // it must reproduce the graph exactly.
        let g = square()?;
        let rebuilt = Graph::from_edges(g.node_count(), g.edges().iter().copied())?;
        assert_eq!(rebuilt.node_count(), 4);
        assert_eq!(rebuilt, g);
        Ok(())
    }

    #[test]
    fn edge_list_roundtrip_keeps_order_and_rebuilds_rows() -> Result<(), GraphError> {
        let mut g = Graph::from_edges(6, [(0, 1), (4, 2), (2, 5), (1, 3), (5, 0)])?;
        g.remove_edge(4, 2)?;
        let order = g.edges().to_vec();
        let back = Graph::from_edge_list(g.clone().into_edge_list());
        back.check_invariants()?;
        assert_eq!(back.edges(), &order[..]);
        for u in g.nodes() {
            assert_eq!(back.neighbors(u), g.neighbors(u));
        }
        assert_eq!(g.edge_list().degrees(), &[2, 2, 1, 1, 0, 2]);
        Ok(())
    }

    #[test]
    fn stress_add_remove_keeps_invariants() -> Result<(), GraphError> {
        let mut rng = StdRng::seed_from_u64(42);
        let mut g = Graph::with_nodes(30);
        use rand::Rng;
        for _ in 0..2000 {
            let u = rng.gen_range(0..30u32);
            let v = rng.gen_range(0..30u32);
            if rng.gen_bool(0.6) {
                let _ = g.try_add_edge(u, v);
            } else if g.has_edge(u, v) {
                g.remove_edge(u, v)?;
            }
        }
        g.check_invariants()
    }
}
