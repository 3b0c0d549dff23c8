//! Compressed sparse row (CSR) adjacency: the read-only graph analysis
//! runs on.
//!
//! [`Graph`] stores adjacency as `Vec<Vec<NodeId>>` — the right shape for
//! *mutation* (rewiring inserts and removes edges in O(deg)), but every
//! neighbor-list access pays a pointer chase to a separately allocated
//! vector, and all-source traversals (distance distribution, Brandes
//! betweenness, GCC extraction, triangle census, k-core peeling) walk
//! those lists millions of times. [`CsrGraph`] holds the adjacency in
//! two flat arrays:
//!
//! * `offsets[u]..offsets[u + 1]` — the slice of `targets` holding the
//!   (sorted) neighbors of `u`;
//! * `targets` — all neighbor lists back to back, 2·m entries.
//!
//! A `CsrGraph` comes from one of three constructors:
//!
//! * [`CsrGraph::from_edges`] — a counting sort of an edge list, each row
//!   then sorted and deduplicated; what
//!   [`io::read_edge_list_csr`](crate::io::read_edge_list_csr) builds
//!   from a file, so analysis never allocates a [`Graph`];
//! * [`CsrGraph::from_graph`] — a frozen snapshot of a [`Graph`] in
//!   O(n + m), preserving neighbor order exactly;
//! * [`CsrGraph::induced_subgraph`] — the subgraph on a node set in
//!   O(n + m) (a giant component, an attack checkpoint's residual
//!   component).
//!
//! All three keep the same invariants as `Graph` (sorted, loop-free,
//! symmetric rows), so a traversal visits nodes in the identical
//! sequence on either representation and produces bit-identical
//! results.
//!
//! The [`AdjacencyView`] trait abstracts the read-only neighbor access
//! both representations share, letting traversal code in
//! [`crate::traversal`] (and the metric passes in `dk-metrics`) run on
//! either.

use crate::error::GraphError;
use crate::graph::{Graph, NodeId, SortedRows};

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

    /// Number of undirected edges, `edge_endpoints() / 2`.
    fn edge_count(&self) -> usize {
        (self.edge_endpoints() / 2) as usize
    }

    /// Maximum degree, or 0 for a graph without nodes.
    fn max_degree(&self) -> usize {
        (0..self.node_count() as NodeId)
            .map(|u| self.degree(u))
            .max()
            .unwrap_or(0)
    }

    /// Number of common neighbors of `u` and `v`: a linear merge of the
    /// two sorted neighbor slices.
    fn common_neighbors(&self, u: NodeId, v: NodeId) -> usize {
        let (a, b) = (self.neighbors(u), self.neighbors(v));
        let (mut i, mut j, mut count) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        count
    }
}

/// Every undirected edge of `g` once, as `(u, v)` with `u < v`, in row
/// order (by `u`, then by `v`) — the order a CSR walk visits edges in,
/// which is not a [`Graph`]'s [`Graph::edges`] order. Sums over it that
/// must not depend on the order are kept exact (integer accumulators).
pub fn undirected_edges<V: AdjacencyView + ?Sized>(
    g: &V,
) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
    (0..g.node_count() as NodeId).flat_map(move |u| {
        let row = g.neighbors(u);
        row[row.partition_point(|&v| v < u)..]
            .iter()
            .map(move |&v| (u, v))
    })
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

    #[inline]
    fn edge_count(&self) -> usize {
        Graph::edge_count(self)
    }
}

/// Read-only CSR adjacency of an undirected simple graph.
///
/// See the [module docs](self) for rationale and constructors.
/// Immutable by construction: take a fresh snapshot after mutating a
/// source [`Graph`].
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

    /// Builds the CSR graph on `n` nodes whose edges are `edges`: a
    /// counting sort into rows in O(n + m), then each row sorted and
    /// deduplicated in place. Self-loops are dropped and an edge listed
    /// more than once (in either orientation) is kept once — the graph
    /// `Graph::from_edges_dedup(n, edges)` builds, without its per-edge
    /// hash inserts.
    ///
    /// An endpoint `≥ n` is a [`GraphError::NodeOutOfRange`]; more
    /// distinct edge endpoints than the `u32` offsets hold is a
    /// [`GraphError::ConstructionFailed`] — never a panic or a wrap.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        // ends[u + 1] counts u's endpoints; after the prefix sum ends[u]
        // is where row u starts, and after the scatter where it ends
        let mut ends = vec![0usize; n + 1];
        for &(u, v) in edges {
            if u == v {
                continue;
            }
            if u as usize >= n || v as usize >= n {
                return Err(GraphError::NodeOutOfRange {
                    node: u.max(v),
                    nodes: n,
                });
            }
            ends[u as usize + 1] += 1;
            ends[v as usize + 1] += 1;
        }
        for u in 0..n {
            ends[u + 1] += ends[u];
        }
        let mut targets: Vec<NodeId> = vec![0; ends[n]];
        for &(u, v) in edges.iter().filter(|(u, v)| u != v) {
            targets[ends[u as usize]] = v;
            ends[u as usize] += 1;
            targets[ends[v as usize]] = u;
            ends[v as usize] += 1;
        }
        // sort each row, then compact it left past the repeats dropped
        // from the rows before it
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let (mut lo, mut len) = (0, 0);
        for &hi in &ends[..n] {
            targets[lo..hi].sort_unstable();
            for i in lo..hi {
                if i == lo || targets[i] != targets[i - 1] {
                    targets[len] = targets[i];
                    len += 1;
                }
            }
            lo = hi;
            offsets.push(u32::try_from(len).map_err(|_| {
                GraphError::ConstructionFailed(format!(
                    "more than {} edge endpoints overflow the u32 CSR offsets",
                    u32::MAX
                ))
            })?);
        }
        targets.truncate(len);
        targets.shrink_to_fit();
        Ok(CsrGraph { offsets, targets })
    }

    /// The subgraph induced by `nodes`, renumbered `0..nodes.len()` in
    /// ascending id order, in O(n + m): each selected row is filtered
    /// through a dense old → new table, and stays sorted because the
    /// renumbering is monotone. Subgraph node `i` is `nodes[i]`. Equals
    /// the snapshot of [`Graph::subgraph`] on the same selection — the
    /// giant component the analysis cache extracts, and the residual
    /// components of an attack sweep's checkpoints.
    ///
    /// # Panics
    /// Panics unless `nodes` is strictly ascending and in range.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> Self {
        const ABSENT: NodeId = NodeId::MAX;
        assert!(
            nodes.windows(2).all(|w| w[0] < w[1])
                && nodes
                    .last()
                    .is_none_or(|&u| (u as usize) < self.node_count()),
            "subgraph selection must be ascending node ids"
        );
        let mut old_to_new = vec![ABSENT; self.node_count()];
        for (new, &old) in nodes.iter().enumerate() {
            old_to_new[old as usize] = new as NodeId;
        }
        let mut offsets = Vec::with_capacity(nodes.len() + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for &old in nodes {
            targets.extend(
                self.neighbors(old)
                    .iter()
                    .map(|&v| old_to_new[v as usize])
                    .filter(|&v| v != ABSENT),
            );
            // a subgraph has no more endpoints than `self`, whose
            // offsets are u32
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

    /// Degree of node `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// Average degree `2m/n`, or 0.0 without nodes (as
    /// [`Graph::avg_degree`]).
    pub fn avg_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / self.node_count() as f64
        }
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

    #[inline]
    fn edge_count(&self) -> usize {
        CsrGraph::edge_count(self)
    }

    fn max_degree(&self) -> usize {
        CsrGraph::max_degree(self)
    }
}

impl AdjacencyView for SortedRows {
    #[inline]
    fn node_count(&self) -> usize {
        SortedRows::node_count(self)
    }

    #[inline]
    fn neighbors(&self, u: NodeId) -> &[NodeId] {
        SortedRows::neighbors(self, u)
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
    fn counting_sort_equals_the_frozen_graph() -> Result<(), GraphError> {
        // repeats in both orientations, a self-loop, trailing isolated
        // nodes
        let edges = [
            (3, 1),
            (1, 3),
            (0, 0),
            (2, 0),
            (0, 2),
            (4, 1),
            (1, 2),
            (3, 1),
        ];
        let csr = CsrGraph::from_edges(7, &edges)?;
        assert_eq!(
            csr,
            CsrGraph::from_graph(&Graph::from_edges_dedup(7, edges)?)
        );
        assert_eq!(csr.edge_count(), 4);
        for g in [
            Graph::new(),
            Graph::with_nodes(3),
            builders::karate_club(),
            builders::petersen(),
        ] {
            let csr = CsrGraph::from_edges(g.node_count(), g.edges())?;
            assert_eq!(csr, CsrGraph::from_graph(&g));
        }
        assert_eq!(
            CsrGraph::from_edges(2, &[(0, 2)]),
            Err(GraphError::NodeOutOfRange { node: 2, nodes: 2 })
        );
        Ok(())
    }

    #[test]
    fn induced_subgraph_equals_the_graph_subgraph() -> Result<(), GraphError> {
        let mut g = builders::karate_club();
        g.add_node();
        let csr = CsrGraph::from_graph(&g);
        let every_third: Vec<NodeId> = (0..35).step_by(3).collect();
        let all: Vec<NodeId> = (0..35).collect();
        for nodes in [&[][..], &[0, 1, 2, 33, 34], &every_third, &all] {
            let (sub, _) = g.subgraph(nodes)?;
            assert_eq!(csr.induced_subgraph(nodes), CsrGraph::from_graph(&sub));
        }
        Ok(())
    }

    #[test]
    #[should_panic(expected = "ascending node ids")]
    fn induced_subgraph_refuses_unsorted_selections() {
        CsrGraph::from_graph(&builders::path(3)).induced_subgraph(&[2, 1]);
    }

    #[test]
    fn undirected_edges_visit_each_edge_once_in_row_order() {
        let g = builders::karate_club();
        let csr = CsrGraph::from_graph(&g);
        let mut want = g.edges().to_vec();
        want.sort_unstable();
        assert_eq!(undirected_edges(&csr).collect::<Vec<_>>(), want);
        assert_eq!(undirected_edges(&g).collect::<Vec<_>>(), want);
        assert_eq!(AdjacencyView::edge_count(&csr), 78);
        assert_eq!(AdjacencyView::max_degree(&g), 17);
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
