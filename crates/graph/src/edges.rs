//! The edge-list half of a simple graph: node degrees, the canonical
//! edge list and its position index.
//!
//! [`EdgeList`] is everything a double-edge-swap chain reads: uniform
//! edge sampling (the list), O(1) presence probes (the index) and the
//! degree classes of the endpoints (the degrees). [`crate::Graph`]
//! composes it with sorted adjacency rows; a chain drops the rows while
//! it runs and rebuilds them once when it hands its graph back
//! ([`crate::Graph::from_edge_list`]).

use crate::error::GraphError;
use crate::graph::{canon_edge, NodeId};
use crate::hashers::DetHashMap;
use std::collections::hash_map::Entry;

/// A simple graph as its canonical edge list: the degree of every node,
/// each edge once as `(min, max)`, and each edge's position in the list.
///
/// [`EdgeList::add_edge`] pushes an edge and indexes it;
/// [`EdgeList::remove_edge`] does a `swap_remove` and re-indexes the edge
/// that moved into the gap. Output files carry that order, so every
/// mutation of a [`crate::Graph`] goes through these two.
#[derive(Clone, Debug, Default)]
pub struct EdgeList {
    /// `deg[u]` is the number of edges at `u`.
    deg: Vec<u32>,
    /// Canonical edge list; each edge appears once as `(min, max)`.
    edges: Vec<(NodeId, NodeId)>,
    /// Position of each canonical edge in `edges`.
    index: DetHashMap<(NodeId, NodeId), u32>,
}

impl EdgeList {
    /// `n` isolated nodes.
    pub(crate) fn with_nodes(n: usize) -> Self {
        EdgeList {
            deg: vec![0; n],
            edges: Vec::new(),
            index: DetHashMap::default(),
        }
    }

    /// An edge list whose degrees and canonical, distinct edges the
    /// caller already knows; the index is sized once and filled in list
    /// order.
    pub(crate) fn from_parts(deg: Vec<u32>, edges: Vec<(NodeId, NodeId)>) -> Self {
        let mut index = DetHashMap::with_capacity_and_hasher(edges.len(), Default::default());
        for (i, &e) in edges.iter().enumerate() {
            index.insert(e, i as u32);
        }
        EdgeList { deg, edges, index }
    }

    /// Appends an isolated node.
    pub(crate) fn add_node(&mut self) {
        self.deg.push(0);
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.deg.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Degree of node `u`.
    ///
    /// # Panics
    /// Panics if `u` is out of range.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.deg[u as usize] as usize
    }

    /// The degree of every node, indexed by node id.
    #[inline]
    pub fn degrees(&self) -> &[u32] {
        &self.deg
    }

    /// The canonical edge list, in storage order.
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// The `i`-th edge of the list.
    #[inline]
    pub fn edge_at(&self, i: usize) -> (NodeId, NodeId) {
        self.edges[i]
    }

    /// Membership test, one index probe. Out-of-range ids hash to an
    /// absent key, so this never panics.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.index.contains_key(&canon_edge(u, v))
    }

    /// Appends undirected edge `(u, v)` and indexes it.
    ///
    /// # Errors
    /// * [`GraphError::NodeOutOfRange`] for invalid endpoints,
    /// * [`GraphError::SelfLoop`] if `u == v`,
    /// * [`GraphError::DuplicateEdge`] if the edge already exists.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let n = self.deg.len();
        if (u as usize) >= n {
            return Err(GraphError::NodeOutOfRange { node: u, nodes: n });
        }
        if (v as usize) >= n {
            return Err(GraphError::NodeOutOfRange { node: v, nodes: n });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let key = canon_edge(u, v);
        let pos = self.edges.len() as u32;
        match self.index.entry(key) {
            Entry::Occupied(_) => return Err(GraphError::DuplicateEdge(key.0, key.1)),
            Entry::Vacant(slot) => slot.insert(pos),
        };
        self.edges.push(key);
        self.deg[u as usize] += 1;
        self.deg[v as usize] += 1;
        Ok(())
    }

    /// Removes undirected edge `(u, v)`: the last edge of the list moves
    /// into its position, which keeps uniform sampling O(1).
    ///
    /// # Errors
    /// [`GraphError::MissingEdge`] if the edge is not present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let key = canon_edge(u, v);
        let Some(pos) = self.index.remove(&key) else {
            return Err(GraphError::MissingEdge(key.0, key.1));
        };
        let pos = pos as usize;
        self.edges.swap_remove(pos);
        if let Some(&moved) = self.edges.get(pos) {
            self.index.insert(moved, pos as u32);
        }
        self.deg[u as usize] -= 1;
        self.deg[v as usize] -= 1;
        Ok(())
    }

    /// Consistency check: every edge is canonical, in range and not a
    /// loop, the index maps each edge to its position, and the degrees
    /// count the edges at each node. O(n + m).
    pub(crate) fn check_invariants(&self) -> Result<(), GraphError> {
        let n = self.deg.len();
        let mut counted = vec![0u32; n];
        for (i, &(u, v)) in self.edges.iter().enumerate() {
            if u >= v {
                return Err(GraphError::ConstructionFailed(format!(
                    "edge ({u}, {v}) is not canonical"
                )));
            }
            if (v as usize) >= n {
                return Err(GraphError::NodeOutOfRange { node: v, nodes: n });
            }
            if self.index.get(&(u, v)) != Some(&(i as u32)) {
                return Err(GraphError::ConstructionFailed(format!(
                    "edge index stale for {:?}",
                    (u, v)
                )));
            }
            counted[u as usize] += 1;
            counted[v as usize] += 1;
        }
        if self.index.len() != self.edges.len() {
            return Err(GraphError::ConstructionFailed(
                "edge index size mismatch".into(),
            ));
        }
        if counted != self.deg {
            return Err(GraphError::ConstructionFailed(
                "degrees disagree with the edge list".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_remove_keep_order_index_and_degrees() -> Result<(), GraphError> {
        let mut list = EdgeList::with_nodes(4);
        list.add_edge(1, 0)?;
        list.add_edge(1, 2)?;
        list.add_edge(3, 2)?;
        assert_eq!(list.edges(), &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(list.degrees(), &[1, 2, 2, 1]);
        // the last edge moves into the removed edge's slot
        list.remove_edge(0, 1)?;
        assert_eq!(list.edges(), &[(2, 3), (1, 2)]);
        assert_eq!(list.degree(0), 0);
        assert!(list.has_edge(3, 2) && !list.has_edge(0, 1));
        list.check_invariants()
    }

    #[test]
    fn add_and_remove_report_bad_edges() -> Result<(), GraphError> {
        let mut list = EdgeList::with_nodes(3);
        assert_eq!(list.add_edge(0, 0), Err(GraphError::SelfLoop(0)));
        assert_eq!(
            list.add_edge(0, 3),
            Err(GraphError::NodeOutOfRange { node: 3, nodes: 3 })
        );
        list.add_edge(0, 1)?;
        assert_eq!(list.add_edge(1, 0), Err(GraphError::DuplicateEdge(0, 1)));
        assert_eq!(list.remove_edge(1, 2), Err(GraphError::MissingEdge(1, 2)));
        assert!(!list.has_edge(0, NodeId::MAX));
        list.check_invariants()
    }
}
