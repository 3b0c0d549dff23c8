//! Frozen CSR (compressed sparse row) snapshot of a graph.
//!
//! [`Graph`] stores adjacency as `Vec<Vec<NodeId>>` — the right shape for
//! *mutation* (rewiring inserts and removes edges in O(deg)), but every
//! neighbor-list access pays a pointer chase to a separately allocated
//! vector, and all-source traversals (distance distribution, Brandes
//! betweenness, GCC extraction, triangle census, k-core peeling) walk
//! those lists millions of times. [`CsrGraph`] freezes the adjacency into
//! two flat arrays:
//!
//! * `offsets[u]..offsets[u + 1]` — the slice of `targets` holding the
//!   (sorted) neighbors of `u`;
//! * `targets` — all neighbor lists back to back, 2·m entries.
//!
//! Built in O(n + m) from a [`Graph`], it preserves neighbor order
//! exactly, so any traversal ported from `Graph` to `CsrGraph` visits
//! nodes in the identical sequence and produces bit-identical results —
//! just without the per-list cache miss.
//!
//! The [`AdjacencyView`] trait abstracts the read-only neighbor access
//! both representations share, letting traversal code in
//! [`crate::traversal`] (and the metric passes in `dk-metrics`) run on
//! either: on a `Graph` for convenience, on a `CsrGraph` snapshot when an
//! analyzer amortizes the build cost across many passes.

use crate::graph::{Graph, NodeId};

/// Read-only adjacency access shared by [`Graph`] and [`CsrGraph`].
///
/// Traversal algorithms are written against this trait so one
/// implementation serves both representations. The contract mirrors
/// `Graph`: node ids are dense in `0..node_count()`, neighbor slices are
/// strictly sorted, and every undirected edge appears in both endpoint
/// slices.
pub trait AdjacencyView: Sync {
    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Sorted neighbor slice of `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    fn neighbors(&self, u: NodeId) -> &[NodeId];

    /// Degree of node `u`.
    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    /// Total edge endpoints `Σ_u deg(u) = 2·m` — the unexplored-edge
    /// budget the push/pull rule of the batched BFS starts from. The
    /// default sums degrees in O(n); both concrete representations
    /// override it with an O(1) answer.
    fn edge_endpoints(&self) -> u64 {
        (0..self.node_count() as NodeId)
            .map(|u| self.degree(u) as u64)
            .sum()
    }
}

impl AdjacencyView for Graph {
    #[inline]
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        Graph::neighbors(self, u)
    }

    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        Graph::degree(self, u)
    }

    #[inline]
    fn edge_endpoints(&self) -> u64 {
        2 * Graph::edge_count(self) as u64
    }
}

/// Frozen CSR snapshot of an undirected simple graph.
///
/// See the [module docs](self) for rationale. Immutable by construction:
/// take a fresh snapshot after mutating the source [`Graph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[u]..offsets[u+1]` delimits the neighbors of `u`;
    /// `offsets.len() == n + 1`, `offsets[n] == 2·m`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists, `2·m` entries.
    targets: Vec<NodeId>,
}

impl CsrGraph {
    /// Builds the snapshot in O(n + m), preserving neighbor order.
    ///
    /// # Panics
    /// Panics if the graph has more than `u32::MAX` edge endpoints
    /// (4 Gi), far beyond the workspace's target scale.
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.node_count();
        let ends = 2 * g.edge_count();
        assert!(u32::try_from(ends).is_ok(), "graph too large for u32 CSR");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(ends);
        offsets.push(0);
        for u in 0..n as NodeId {
            targets.extend_from_slice(g.neighbors(u));
            offsets.push(targets.len() as u32);
        }
        CsrGraph { offsets, targets }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// `true` if the snapshot has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Sorted neighbor slice of `u`.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// The span of `u`'s neighbor list in the flat target array: the
    /// `(lo, hi)` pair with `targets_in((lo, hi)) == neighbors(u)`.
    ///
    /// A traversal that reads the span when it discovers a node and keeps
    /// it beside the node in its queue can scan the list later without a
    /// second, random `offsets` load.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    #[inline]
    pub fn span(&self, u: NodeId) -> (u32, u32) {
        (self.offsets[u as usize], self.offsets[u as usize + 1])
    }

    /// The targets in a span returned by [`CsrGraph::span`] — the
    /// neighbor slice of the node the span was read from.
    ///
    /// # Panics
    /// Panics if the span does not lie within this snapshot's target
    /// array (a span read from another snapshot may).
    #[inline]
    pub fn targets_in(&self, (lo, hi): (u32, u32)) -> &[NodeId] {
        &self.targets[lo as usize..hi as usize]
    }

    /// Degree of node `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// The degree of every node, indexed by node id.
    pub fn degrees(&self) -> Vec<usize> {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .collect()
    }

    /// Maximum degree, or 0 for the empty snapshot.
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Iterator over all node ids, `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.node_count() as NodeId
    }

    /// Heap footprint of the snapshot in bytes (the two flat arrays) —
    /// what the streaming planner and the perf binaries charge for the
    /// shared read-only side of a traversal's working set.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of_val(self.offsets.as_slice())
            + std::mem::size_of_val(self.targets.as_slice())
    }
}

impl AdjacencyView for CsrGraph {
    #[inline]
    fn node_count(&self) -> usize {
        CsrGraph::node_count(self)
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        CsrGraph::neighbors(self, u)
    }

    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        CsrGraph::degree(self, u)
    }

    #[inline]
    fn edge_endpoints(&self) -> u64 {
        self.targets.len() as u64
    }
}

impl<V: AdjacencyView + ?Sized> AdjacencyView for &V {
    #[inline]
    fn node_count(&self) -> usize {
        (**self).node_count()
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        (**self).neighbors(u)
    }

    #[inline]
    fn degree(&self, u: NodeId) -> usize {
        (**self).degree(u)
    }

    #[inline]
    fn edge_endpoints(&self) -> u64 {
        (**self).edge_endpoints()
    }
}

impl From<&Graph> for CsrGraph {
    fn from(g: &Graph) -> Self {
        CsrGraph::from_graph(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    fn snapshot_matches(g: &Graph) {
        let csr = CsrGraph::from_graph(g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        assert_eq!(csr.degrees(), g.degrees());
        assert_eq!(csr.max_degree(), g.max_degree());
        for u in g.nodes() {
            assert_eq!(csr.neighbors(u), g.neighbors(u), "node {u}");
            assert_eq!(csr.targets_in(csr.span(u)), csr.neighbors(u), "node {u}");
            assert_eq!(csr.degree(u), g.degree(u));
        }
    }

    #[test]
    fn snapshot_round_trips_classics() {
        for g in [
            Graph::new(),
            Graph::with_nodes(5),
            builders::path(7),
            builders::complete(6),
            builders::star(5),
            builders::karate_club(),
            builders::petersen(),
        ] {
            snapshot_matches(&g);
        }
    }

    #[test]
    fn size_bytes_counts_both_arrays() {
        let g = builders::path(4); // 4 nodes, 3 edges
        let csr = CsrGraph::from_graph(&g);
        // offsets: (n + 1) u32s; targets: 2m u32s
        assert_eq!(csr.size_bytes(), 5 * 4 + 6 * 4);
    }

    #[test]
    fn empty_snapshot() {
        let csr = CsrGraph::from_graph(&Graph::new());
        assert!(csr.is_empty());
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.max_degree(), 0);
        assert_eq!(csr.nodes().count(), 0);
    }

    #[test]
    fn isolated_nodes_have_empty_slices() {
        let mut g = builders::path(3);
        g.add_node();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.neighbors(3), &[] as &[NodeId]);
        assert_eq!(csr.degree(3), 0);
        assert_eq!(csr.span(3), (4, 4));
        snapshot_matches(&g);
    }

    #[test]
    fn view_trait_agrees_across_representations() {
        fn sum_deg<V: AdjacencyView>(v: &V) -> usize {
            (0..v.node_count() as NodeId).map(|u| v.degree(u)).sum()
        }
        let g = builders::karate_club();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(sum_deg(&g), sum_deg(&csr));
        assert_eq!(sum_deg(&g), 2 * g.edge_count());
    }

    #[test]
    fn snapshot_reflects_mutation_only_after_rebuild() {
        let mut g = builders::path(3);
        let before = CsrGraph::from_graph(&g);
        g.add_edge(0, 2).unwrap();
        assert_eq!(before.edge_count(), 2);
        let after = CsrGraph::from_graph(&g);
        assert_eq!(after.edge_count(), 3);
        assert_ne!(before, after);
    }
}
