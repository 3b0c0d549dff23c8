//! Breadth-first traversal, connected components, and GCC extraction.
//!
//! The paper computes every evaluation metric "for the giant connected
//! component (GCC)" (§5.2) because the construction algorithms do not
//! maintain connectivity. [`giant_component`] is therefore on the hot path
//! of the whole reproduction harness.
//!
//! Every routine here is generic over [`AdjacencyView`], so it runs both
//! on a mutable [`Graph`] and on a [`CsrGraph`](crate::CsrGraph) (two
//! flat arrays, no per-list pointer chase — the representation analysis
//! runs on). Neighbor
//! order is identical in both representations, so results are
//! bit-identical regardless of which one a caller traverses.
//!
//! ## Batched multi-source BFS
//!
//! [`bfs_batch`] runs up to [`BATCH_LANES`] = 64 BFS sources in one
//! sweep (MS-BFS; Then et al., "The More the Merrier", PVLDB 2014):
//! bit `i` of a node's `seen`, `frontier` and `next` words belongs to
//! source `i`, so one word operation advances every lane that shares
//! the node. It reports only `(level, pairs)` counts — the integers a
//! distance histogram needs, identical to summing one [`bfs_distances`]
//! row per source over the batch — which is why the all-source and
//! pivot distance passes in `dk-metrics` run on it.
//!
//! Each level runs **pull** (every node some lane has not reached ORs
//! its neighbors' frontier words, stopping once all its missing lanes
//! are found) or **push** (the frontier node list ORs its words into
//! its neighbors' unseen bits). The choice is the direction-optimizing
//! rule of Beamer et al. ([`DOBFS_ALPHA`] / [`DOBFS_BETA`]) applied to
//! quantities summed over the lanes: `mf`, `mu` and `nf` are each lane's
//! frontier edge endpoints, unexplored edge endpoints and frontier size,
//! added up, and the pull → push test compares `nf · BETA` with
//! `lanes · n`. Every quantity is an integer function of the graph and
//! the sources, so the direction of each level is reproducible. On
//! small-world graphs the lanes meet on the same wide mid-BFS levels and
//! pull shares the work. Push levels are required for high-diameter
//! shapes (cycles, paths, grids): there each lane's frontier is a few
//! nodes for hundreds of levels, lanes rarely share a node, and a pull
//! level still scans all `n` words — a pull-only kernel is several
//! times slower than one BFS per source there, while push costs what
//! the per-source walks cost together. The direction changes speed
//! only: both directions set the same bits at the same level.

use crate::csr::AdjacencyView;
use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Distance sentinel for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// Push → pull switch of [`bfs_batch`]: a push level is followed by a
/// pull level when the frontier carries more than `1/ALPHA` of the
/// unexplored edge endpoints (`mf · ALPHA > mu`). The classic
/// direction-optimizing constant (Beamer et al., SC'12).
pub const DOBFS_ALPHA: u64 = 14;

/// Pull → push switch of [`bfs_batch`]: a pull level is followed by a
/// push level when the frontier shrinks below `n / BETA` nodes per lane
/// (`nf · BETA < lanes · n`).
pub const DOBFS_BETA: u64 = 24;

/// Sources one [`bfs_batch`] call advances together: one bit of a `u64`
/// word per source.
pub const BATCH_LANES: usize = 64;

/// Reusable per-worker scratch for [`bfs_batch`]: the `seen`,
/// `frontier` and `next` words (one `u64` per node, bit `i` belonging
/// to source `i` of the batch) and the frontier node lists the push
/// levels walk — `3·8n + 2·4n = 32n` bytes at most, inside the
/// per-worker charge of `dk_metrics::stream::per_worker_bytes`.
#[derive(Debug, Default)]
pub struct BatchScratch {
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    front_list: Vec<NodeId>,
    next_list: Vec<NodeId>,
}

impl BatchScratch {
    /// Scratch sized for an `n`-node graph (resized on demand by
    /// [`bfs_batch`], so any starting size is valid).
    pub fn new(n: usize) -> Self {
        let mut s = BatchScratch::default();
        s.reset(n);
        s
    }

    /// Zeroes every word and sizes the arrays for `n` nodes.
    fn reset(&mut self, n: usize) {
        for words in [&mut self.seen, &mut self.frontier, &mut self.next] {
            words.clear();
            words.resize(n, 0);
        }
        self.front_list.clear();
        self.next_list.clear();
    }
}

/// Multi-source bit-parallel BFS (MS-BFS; Then et al., PVLDB 2014):
/// up to [`BATCH_LANES`] breadth-first searches advanced in one sweep,
/// source `sources[i]` owning bit `i` of every node's `seen`,
/// `frontier` and `next` word. Sources may repeat; each is its own
/// lane.
///
/// Calls `level(d, pairs)` once per non-empty level, in increasing
/// `d` from `0`, with the number of `(source, node)` pairs at distance
/// exactly `d` — the per-lane [`bfs_distances`] counts summed over
/// the batch. Returns `(reached, depth)`: the reached pairs and the
/// greatest finite distance of any lane. Integer results only, so they
/// are independent of how the levels ran.
///
/// Each level runs either **push** (walk the frontier node list, OR
/// each node's frontier word into its neighbors' unseen bits) or
/// **pull** (every node not yet reached by all lanes ORs its
/// neighbors' frontier words, stopping once every missing lane is
/// found). The direction follows the [`DOBFS_ALPHA`] / [`DOBFS_BETA`]
/// rule on quantities summed over lanes — see the [module docs](self).
///
/// # Panics
/// Panics if a source is out of range or `sources` holds more than
/// [`BATCH_LANES`] entries.
pub fn bfs_batch<V: AdjacencyView + ?Sized>(
    g: &V,
    sources: &[NodeId],
    scratch: &mut BatchScratch,
    mut level: impl FnMut(u32, u64),
) -> (u64, u32) {
    let n = g.node_count();
    assert!(sources.len() <= BATCH_LANES, "more sources than lanes");
    scratch.reset(n);
    if sources.is_empty() {
        return (0, 0);
    }
    let BatchScratch {
        seen,
        frontier,
        next,
        front_list,
        next_list,
    } = scratch;
    let lanes = sources.len() as u64;
    let all = u64::MAX >> (64 - lanes);
    // Lane sums of the direction rule's inputs: `mf` frontier edge
    // endpoints, `mu` endpoints still unexplored by their lane, `nf`
    // frontier size — integers, so the per-level direction is a pure
    // function of (graph, sources).
    let mut mu = lanes * g.edge_endpoints();
    let mut mf = 0u64;
    for (i, &s) in sources.iter().enumerate() {
        assert!((s as usize) < n, "BFS source out of range");
        let deg = g.degree(s) as u64;
        mu -= deg;
        mf += deg;
        if frontier[s as usize] == 0 {
            front_list.push(s);
        }
        frontier[s as usize] |= 1 << i;
        seen[s as usize] |= 1 << i;
    }
    level(0, lanes);
    let mut nf = lanes;
    let mut reached = lanes;
    let mut depth = 0u32;
    let mut pull = false;
    while !front_list.is_empty() {
        pull = if pull {
            nf * DOBFS_BETA >= lanes * n as u64
        } else {
            mf * DOBFS_ALPHA > mu
        };
        let (mut pairs, mut mf_next) = (0u64, 0u64);
        if pull {
            for v in 0..n as NodeId {
                let missing = all & !seen[v as usize];
                if missing == 0 {
                    continue;
                }
                let mut hit = 0u64;
                for &u in g.neighbors(v) {
                    hit |= frontier[u as usize];
                    if hit & missing == missing {
                        break;
                    }
                }
                let new = hit & missing;
                if new != 0 {
                    seen[v as usize] |= new;
                    next[v as usize] = new;
                    next_list.push(v);
                    let k = new.count_ones() as u64;
                    pairs += k;
                    mf_next += k * g.degree(v) as u64;
                }
            }
        } else {
            for &u in front_list.iter() {
                let f = frontier[u as usize];
                for &v in g.neighbors(u) {
                    let new = f & !seen[v as usize];
                    if new != 0 {
                        seen[v as usize] |= new;
                        if next[v as usize] == 0 {
                            next_list.push(v);
                        }
                        next[v as usize] |= new;
                        let k = new.count_ones() as u64;
                        pairs += k;
                        mf_next += k * g.degree(v) as u64;
                    }
                }
            }
        }
        for &u in front_list.iter() {
            frontier[u as usize] = 0;
        }
        std::mem::swap(frontier, next);
        std::mem::swap(front_list, next_list);
        next_list.clear();
        if pairs > 0 {
            depth += 1;
            level(depth, pairs);
        }
        reached += pairs;
        nf = pairs;
        mu -= mf_next;
        mf = mf_next;
    }
    (reached, depth)
}

/// Single-source BFS distances, by a FIFO queue walk.
///
/// Returns a vector of hop counts from `source`; unreachable nodes hold
/// [`UNREACHABLE`].
///
/// # Panics
/// Panics if `source` is out of range.
pub fn bfs_distances<V: AdjacencyView + ?Sized>(g: &V, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    dist[source as usize] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let d = dist[u as usize] + 1;
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = d;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Connected components as a label vector plus component count.
///
/// `labels[u]` is the 0-based component id of node `u`; components are
/// numbered in **increasing order of their smallest member id** (the BFS
/// seeds scan ids ascending), so labeling is deterministic and label
/// order doubles as the workspace-wide size tie-break key: a smaller
/// label means "contains a smaller node id". See
/// [`giant_component_nodes`] for the rule's statement.
pub fn connected_components<V: AdjacencyView + ?Sized>(g: &V) -> (Vec<u32>, usize) {
    let n = g.node_count();
    let mut labels = vec![u32::MAX; n];
    let mut next = 0u32;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if labels[start] != u32::MAX {
            continue;
        }
        labels[start] = next;
        queue.push_back(start as NodeId);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if labels[v as usize] == u32::MAX {
                    labels[v as usize] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    (labels, next as usize)
}

/// Sizes of all connected components, indexed by component label.
pub fn component_sizes<V: AdjacencyView + ?Sized>(g: &V) -> Vec<usize> {
    let (labels, count) = connected_components(g);
    let mut sizes = vec![0usize; count];
    for l in labels {
        sizes[l as usize] += 1;
    }
    sizes
}

/// `true` if the graph is connected. The empty graph is considered
/// connected (it has no pair of disconnected nodes); a graph of isolated
/// nodes is not.
pub fn is_connected<V: AdjacencyView + ?Sized>(g: &V) -> bool {
    let n = g.node_count();
    if n <= 1 {
        return true;
    }
    let dist = bfs_distances(g, 0);
    dist.iter().all(|&d| d != UNREACHABLE)
}

/// Node ids of the giant (largest) connected component, in ascending
/// order. Empty for an empty graph.
///
/// **Tie-break rule:** when two or more components tie for largest, the
/// winner is deterministically the component **containing the smallest
/// node id**. (Component labels from [`connected_components`] ascend
/// with each component's smallest member, so "smallest label wins"
/// implements exactly this.) The rule is workspace-wide: the attack
/// engine in `dk-metrics` replicates it through
/// [`UnionFind::min_of`](crate::unionfind::UnionFind::min_of), so
/// removal-sweep trajectories and thresholds are reproducible against
/// this function step for step.
pub fn giant_component_nodes<V: AdjacencyView + ?Sized>(g: &V) -> Vec<NodeId> {
    if g.node_count() == 0 {
        return Vec::new();
    }
    let (labels, count) = connected_components(g);
    let mut sizes = vec![0usize; count];
    for &l in &labels {
        sizes[l as usize] += 1;
    }
    let giant = sizes
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i as u32)
        .expect("non-empty graph has at least one component");
    (0..g.node_count() as NodeId)
        .filter(|&u| labels[u as usize] == giant)
        .collect()
}

/// Extracts the giant (largest) connected component.
///
/// Returns the GCC with nodes renumbered `0..size` (in ascending
/// original-id order) and the mapping `new id → original id`. When some
/// component is left out, the GCC is [`Graph::subgraph`] of the
/// [`giant_component_nodes`], built in O(n + m). A connected input is
/// its own GCC: the result is `g.clone()` and the identity map, equal
/// to what a rebuild would give (same edge list order, adjacency and
/// edge index) and cheaper. An empty input gives an empty graph. Ties
/// between equal-size components break toward the component containing
/// the smallest node id.
pub fn giant_component(g: &Graph) -> (Graph, Vec<NodeId>) {
    let nodes = giant_component_nodes(g);
    if nodes.len() < g.node_count() {
        g.subgraph(&nodes)
            .expect("component nodes are valid and unique")
    } else {
        (g.clone(), nodes)
    }
}

/// Fraction of nodes inside the giant component (1.0 for connected graphs).
pub fn gcc_fraction<V: AdjacencyView + ?Sized>(g: &V) -> f64 {
    if g.node_count() == 0 {
        return 1.0;
    }
    let sizes = component_sizes(g);
    *sizes.iter().max().expect("non-empty") as f64 / g.node_count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::csr::CsrGraph;

    #[test]
    fn bfs_on_path() {
        let g = builders::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_unreachable_marked() {
        let g = Graph::from_edges(4, [(0, 1)]).unwrap();
        let d = bfs_distances(&g, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn components_labeling_deterministic() {
        // {0,1}, {2,3,4}, {5}
        let g = Graph::from_edges(6, [(0, 1), (2, 3), (3, 4)]).unwrap();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels, vec![0, 0, 1, 1, 1, 2]);
        assert_eq!(component_sizes(&g), vec![2, 3, 1]);
    }

    #[test]
    fn connectivity_edge_cases() {
        assert!(is_connected(&Graph::new()));
        assert!(is_connected(&Graph::with_nodes(1)));
        assert!(!is_connected(&Graph::with_nodes(2)));
        assert!(is_connected(&builders::cycle(5)));
    }

    #[test]
    fn gcc_picks_largest() {
        let g = Graph::from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)]).unwrap();
        let (gcc, map) = giant_component(&g);
        assert_eq!(gcc.node_count(), 3);
        assert_eq!(gcc.edge_count(), 3);
        assert_eq!(map, vec![2, 3, 4]);
        assert!((gcc_fraction(&g) - 3.0 / 7.0).abs() < 1e-12);
        gcc.check_invariants().unwrap();
    }

    #[test]
    fn gcc_of_connected_graph_is_identity_shape() {
        let g = builders::complete(5);
        let (gcc, map) = giant_component(&g);
        assert_eq!(gcc.node_count(), 5);
        assert_eq!(gcc.edge_count(), 10);
        assert_eq!(map, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn gcc_of_empty_graph() {
        let (gcc, map) = giant_component(&Graph::new());
        assert!(gcc.is_empty());
        assert!(map.is_empty());
    }

    #[test]
    fn gcc_tie_breaks_to_first_component() {
        // two components of size 2: {0,1} and {2,3}
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let (_, map) = giant_component(&g);
        assert_eq!(map, vec![0, 1]);
    }

    #[test]
    fn gcc_tie_breaks_to_component_with_smallest_node_id() {
        // two triangles of equal size, with the component containing
        // node 0 listed LAST in the edge list: {1,3,5} then {0,2,4}.
        // The documented rule — on size ties, the component containing
        // the smallest node id wins — must hold regardless of edge
        // insertion order.
        let g = Graph::from_edges(6, [(1, 3), (3, 5), (5, 1), (0, 2), (2, 4), (4, 0)]).unwrap();
        assert_eq!(giant_component_nodes(&g), vec![0, 2, 4]);
        let (gcc, map) = giant_component(&g);
        assert_eq!(map, vec![0, 2, 4]);
        assert_eq!(gcc.edge_count(), 3);
        // and identically on the CSR snapshot
        assert_eq!(
            giant_component_nodes(&CsrGraph::from_graph(&g)),
            vec![0, 2, 4]
        );
    }

    #[test]
    fn bfs_batch_counts_pairs_per_level() -> Result<(), crate::GraphError> {
        // P5 from sources 0 and 2: (source, node) pairs per distance
        let g = builders::path(5);
        let mut scratch = BatchScratch::new(5);
        let mut levels = Vec::new();
        let (reached, depth) = bfs_batch(&g, &[0, 2], &mut scratch, |d, k| levels.push((d, k)));
        assert_eq!(levels, vec![(0, 2), (1, 3), (2, 3), (3, 1), (4, 1)]);
        assert_eq!((reached, depth), (10, 4));
        // repeated sources are separate lanes; unreached pairs are not
        // counted, and the scratch is reusable across graphs
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (3, 4)])?;
        let (reached, depth) = bfs_batch(&g, &[0, 3, 3, 5], &mut scratch, |_, _| {});
        assert_eq!((reached, depth), (3 + 2 + 2 + 1, 2));
        Ok(())
    }

    #[test]
    fn bfs_batch_matches_bfs_distances_across_shapes() -> Result<(), crate::GraphError> {
        // dense shapes run pull levels, sparse high-diameter ones push;
        // either way the per-level pair counts are those of one FIFO BFS
        // per source, summed
        for g in [
            builders::complete(70),
            builders::karate_club(),
            builders::star(80),
            builders::cycle(130),
            builders::grid(7, 11),
            Graph::from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)])?,
        ] {
            let csr = CsrGraph::from_graph(&g);
            let n = g.node_count() as NodeId;
            let sources: Vec<NodeId> = (0..n).collect();
            let mut want = Vec::new();
            for &s in &sources {
                for d in bfs_distances(&csr, s) {
                    if d == UNREACHABLE {
                        continue;
                    }
                    if want.len() <= d as usize {
                        want.resize(d as usize + 1, 0u64);
                    }
                    want[d as usize] += 1;
                }
            }
            let mut got = Vec::new();
            let mut scratch = BatchScratch::new(0);
            for batch in sources.chunks(BATCH_LANES) {
                bfs_batch(&csr, batch, &mut scratch, |d, k| {
                    if got.len() <= d as usize {
                        got.resize(d as usize + 1, 0u64);
                    }
                    got[d as usize] += k;
                });
            }
            assert_eq!(got, want, "n = {n}");
        }
        Ok(())
    }

    #[test]
    fn csr_traversals_match_graph_traversals() {
        // every routine must agree between the two representations
        for g in [
            builders::karate_club(),
            Graph::from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)]).unwrap(),
            Graph::with_nodes(4),
        ] {
            let csr = CsrGraph::from_graph(&g);
            if g.node_count() > 0 {
                assert_eq!(bfs_distances(&g, 0), bfs_distances(&csr, 0));
            }
            assert_eq!(connected_components(&g), connected_components(&csr));
            assert_eq!(component_sizes(&g), component_sizes(&csr));
            assert_eq!(is_connected(&g), is_connected(&csr));
            assert_eq!(gcc_fraction(&g), gcc_fraction(&csr));
            assert_eq!(giant_component_nodes(&g), giant_component_nodes(&csr));
        }
    }
}
