//! # dk-graph — graph substrate for the dK-series reproduction
//!
//! This crate provides the graph data structures and low-level graph
//! algorithms that the rest of the workspace builds on. It is written from
//! scratch (no external graph library) and is deliberately simple and
//! predictable, in the spirit of robust systems code:
//!
//! * [`Graph`] — an undirected **simple** graph (no self-loops, no parallel
//!   edges) stored as sorted adjacency vectors plus a canonical edge list.
//!   The edge list gives O(1) uniform random edge sampling, which is the hot
//!   operation of every dK-rewiring algorithm; the sorted adjacency gives
//!   O(log deg) membership tests used by wedge/triangle counting.
//! * [`CsrGraph`] — a frozen CSR snapshot (two flat arrays) of a [`Graph`],
//!   the representation every all-source analysis traversal runs on; the
//!   [`AdjacencyView`] trait lets traversal code accept either form.
//! * [`MultiGraph`] — an undirected **pseudograph** (self-loops and parallel
//!   edges allowed), the natural output of stub-matching ("configuration")
//!   constructions before cleanup (paper §4.1.2).
//! * [`traversal`] — BFS, connected components, giant-connected-component
//!   (GCC) extraction. The paper computes all evaluation metrics on GCCs.
//! * [`unionfind`] — deterministic disjoint-set forest with size and
//!   minimum-id tracking, the substrate of the reverse incremental-GCC
//!   percolation sweeps in `dk-metrics`.
//! * [`degree`] — degree-sequence utilities, including the Erdős–Gallai
//!   graphicality test.
//! * [`io`] — plain-text edge-list reader/writer and Graphviz DOT export.
//! * [`layout`] / [`svg`] — Fruchterman–Reingold force-directed layout and a
//!   minimal SVG renderer, used to regenerate the paper's Figure 3
//!   "picturizations".
//!
//! ## Determinism
//!
//! Every randomized routine in the workspace takes `&mut impl Rng`, and all
//! hash-based containers in this crate use a fixed, seed-free hasher
//! ([`hashers::FxHasher64`]); two runs with the same seed produce
//! bit-identical graphs. This mirrors the reproducibility discipline of
//! event-driven network stacks (cf. smoltcp's deterministic core).
//!
//! ## Example
//!
//! ```
//! use dk_graph::Graph;
//!
//! let mut g = Graph::with_nodes(4);
//! g.add_edge(0, 1).unwrap();
//! g.add_edge(1, 2).unwrap();
//! g.add_edge(2, 3).unwrap();
//! g.add_edge(3, 0).unwrap();
//! assert_eq!(g.node_count(), 4);
//! assert_eq!(g.edge_count(), 4);
//! assert_eq!(g.degree(0), 2);
//! assert!(g.has_edge(0, 3));
//! assert!(!g.has_edge(0, 2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod csr;
pub mod degree;
pub mod ensemble;
pub mod error;
pub mod graph;
pub mod hashers;
pub mod io;
pub mod layout;
pub mod multigraph;
pub mod svg;
pub mod traversal;
pub mod unionfind;

pub use csr::{AdjacencyView, CsrGraph};
pub use error::GraphError;
pub use graph::{canon_edge, Graph, NodeId, SubgraphMap};
pub use multigraph::MultiGraph;
pub use traversal::{bfs_distances, connected_components, giant_component, is_connected};
pub use unionfind::UnionFind;
