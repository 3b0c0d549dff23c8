//! Kernel equivalence suite: the batched multi-source BFS
//! (`traversal::bfs_batch`, up to 64 sources as the bits of one `u64`
//! word per node) behind every distance-histogram pass must produce
//! exactly the integers one BFS per source produces — the count of
//! `(source, node)` pairs at each distance, the unreachable pairs, and
//! the greatest finite distance — whatever the batch grouping, shard
//! layout or thread count.
//!
//! The oracle is the per-source `bfs_visit` histogram the exact and
//! sampled shard passes ran before the batched kernel replaced them.
//! The graphs cross batch boundaries (n ∈ {1, 63, 64, 65, 129, 200}),
//! include disconnected graphs and isolated nodes, and the
//! high-diameter shapes (cycle, path, grid) whose levels run top-down.

use dk_repro::graph::builders;
use dk_repro::graph::csr::CsrGraph;
use dk_repro::graph::traversal::{self, BatchScratch, BfsScratch, BATCH_LANES};
use dk_repro::graph::{Graph, NodeId};
use dk_repro::metrics::distance::DistanceDistribution;
use dk_repro::metrics::sampled::{self, SampledDistances};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// `(counts, unreachable pairs, greatest finite distance)`.
type Histogram = (Vec<u64>, u64, u32);

/// The oracle: one direction-optimizing BFS per source.
fn per_source(g: &CsrGraph, sources: &[NodeId]) -> Histogram {
    let n = g.node_count() as u64;
    let mut counts: Vec<u64> = Vec::new();
    let (mut unreachable, mut depth) = (0, 0);
    let mut scratch = BfsScratch::new(g.node_count());
    for &s in sources {
        let (reached, d) = traversal::bfs_visit(g, s, &mut scratch, |_, du| {
            let du = du as usize;
            if counts.len() <= du {
                counts.resize(du + 1, 0);
            }
            counts[du] += 1;
        });
        unreachable += n - reached;
        depth = depth.max(d);
    }
    (counts, unreachable, depth)
}

/// The batched kernel driven directly, `lanes` sources per call; also
/// checks that levels arrive in order, each non-empty.
fn batched(g: &CsrGraph, sources: &[NodeId], lanes: usize) -> Histogram {
    let n = g.node_count() as u64;
    let mut counts: Vec<u64> = Vec::new();
    let (mut unreachable, mut depth) = (0, 0);
    let mut scratch = BatchScratch::new(0);
    for batch in sources.chunks(lanes) {
        let mut expect = 0;
        let (reached, d) = traversal::bfs_batch(g, batch, &mut scratch, |level, pairs| {
            assert_eq!(level, expect, "levels out of order");
            assert!(pairs > 0, "empty level {level} reported");
            expect += 1;
            let level = level as usize;
            if counts.len() <= level {
                counts.resize(level + 1, 0);
            }
            counts[level] += pairs;
        });
        assert_eq!(expect, d + 1, "depth is the last reported level");
        unreachable += batch.len() as u64 * n - reached;
        depth = depth.max(d);
    }
    (counts, unreachable, depth)
}

/// A seeded random simple graph: `m` uniform endpoint pairs (self-loops
/// and repeats dropped), so sparse draws leave isolated nodes and
/// several components.
fn random_graph(n: usize, m: usize, seed: u64) -> Graph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let edges: Vec<(NodeId, NodeId)> = (0..m)
        .map(|_| (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId)))
        .collect();
    Graph::from_edges_dedup(n, edges).unwrap()
}

/// Two disjoint cycles and a tail of isolated nodes.
fn disconnected(n: usize) -> Graph {
    let half = n / 3;
    let edges: Vec<(NodeId, NodeId)> = (0..half as NodeId)
        .map(|u| (u, (u + 1) % half as NodeId))
        .chain((0..half as NodeId).map(|u| {
            (
                half as NodeId + u,
                half as NodeId + (u + 1) % half as NodeId,
            )
        }))
        .collect();
    Graph::from_edges(n, edges).unwrap()
}

fn zoo() -> Vec<(String, Graph)> {
    let mut graphs = Vec::new();
    for n in [1, 63, 64, 65, 129, 200] {
        graphs.push((format!("sparse({n})"), random_graph(n, n, n as u64)));
        graphs.push((format!("dense({n})"), random_graph(n, 4 * n, 7 + n as u64)));
        graphs.push((format!("path({n})"), builders::path(n)));
    }
    let mut karate_isolated = builders::karate_club();
    for _ in 0..40 {
        karate_isolated.add_node();
    }
    graphs.extend([
        ("cycle(64)".into(), builders::cycle(64)),
        ("cycle(200)".into(), builders::cycle(200)),
        ("grid(10, 20)".into(), builders::grid(10, 20)),
        ("grid(1, 70)".into(), builders::grid(1, 70)),
        ("star(100)".into(), builders::star(100)),
        ("complete(66)".into(), builders::complete(66)),
        ("disconnected(130)".into(), disconnected(130)),
        ("isolated(70)".into(), Graph::with_nodes(70)),
        ("karate + 40 isolated".into(), karate_isolated),
    ]);
    graphs
}

/// Source lists: every node, lengths that are not multiples of 64,
/// a reversed order, and repeated sources.
fn source_lists(n: usize) -> Vec<Vec<NodeId>> {
    let all: Vec<NodeId> = (0..n as NodeId).collect();
    let mut lists = vec![all.clone(), all.iter().rev().copied().collect()];
    for len in [1, 63, 65, 100] {
        lists.push(all.iter().copied().cycle().step_by(3).take(len).collect());
    }
    lists.push(vec![0, 0, (n / 2) as NodeId, 0]);
    lists
}

#[test]
fn batched_kernel_matches_per_source_oracle() {
    for (name, g) in zoo() {
        let csr = CsrGraph::from_graph(&g);
        for sources in source_lists(g.node_count()) {
            let want = per_source(&csr, &sources);
            for lanes in [1, 7, 63, BATCH_LANES] {
                assert_eq!(
                    batched(&csr, &sources, lanes),
                    want,
                    "{name}, {} sources, {lanes} lanes",
                    sources.len()
                );
            }
        }
    }
}

#[test]
fn exact_distribution_matches_oracle_on_every_route() {
    for (name, g) in zoo() {
        let n = g.node_count();
        let csr = CsrGraph::from_graph(&g);
        let all: Vec<NodeId> = (0..n as NodeId).collect();
        let (counts, unreachable, depth) = per_source(&csr, &all);
        let check = |d: DistanceDistribution, route: &str| {
            assert_eq!(d.counts, counts, "{name}, {route}");
            assert_eq!(d.unreachable_pairs, unreachable, "{name}, {route}");
            assert_eq!(d.nodes, n, "{name}, {route}");
            assert_eq!(d.diameter(), depth as usize, "{name}, {route}");
        };
        check(
            DistanceDistribution::from_graph_with_threads(&g, 2),
            "graph",
        );
        for shards in [1, 2, 7, n] {
            for threads in [1, 3] {
                check(
                    DistanceDistribution::from_csr_sharded(&csr, shards, threads),
                    &format!("shards = {shards}, threads = {threads}"),
                );
            }
        }
    }
}

#[test]
fn sampled_distance_pass_matches_oracle_on_every_route() {
    for (name, g) in zoo() {
        let n = g.node_count();
        let csr = CsrGraph::from_graph(&g);
        for k in [1, 16, 63, 65, n + 3] {
            let pivots = sampled::sample_pivots(n, k);
            let (counts, unreachable, depth) = per_source(&csr, &pivots);
            let check = |d: SampledDistances, route: &str| {
                assert_eq!(d.distances.counts, counts, "{name}, k = {k}, {route}");
                assert_eq!(
                    d.distances.unreachable_pairs, unreachable,
                    "{name}, {route}"
                );
                assert_eq!(d.max_depth, depth, "{name}, k = {k}, {route}");
                assert_eq!(d.sources, pivots.len(), "{name}, k = {k}, {route}");
            };
            check(sampled::sampled_distances_csr(&csr, k, 2), "csr");
            for shards in [1, 2, 7, n] {
                for threads in [1, 3] {
                    check(
                        sampled::sampled_distances_sharded(&csr, k, shards, threads),
                        &format!("shards = {shards}, threads = {threads}"),
                    );
                }
            }
        }
    }
}

#[test]
fn empty_graph_and_empty_batch() {
    let empty = CsrGraph::from_graph(&Graph::new());
    assert_eq!(
        DistanceDistribution::from_csr_sharded(&empty, 4, 2),
        DistanceDistribution::from_graph(&Graph::new())
    );
    assert_eq!(
        sampled::sampled_distances_sharded(&empty, 8, 2, 1).sources,
        0
    );
    let mut scratch = BatchScratch::new(0);
    let mut levels = 0;
    let csr = CsrGraph::from_graph(&builders::path(3));
    assert_eq!(
        traversal::bfs_batch(&csr, &[], &mut scratch, |_, _| levels += 1),
        (0, 0)
    );
    assert_eq!(levels, 0, "an empty batch reports no level");
}

/// Strategy: a random graph on up to 160 nodes (so batches of 64 lanes
/// fill and spill) and a random source list over it.
fn arb_case() -> impl Strategy<Value = (Graph, Vec<NodeId>)> {
    (
        1usize..160,
        proptest::collection::vec((0u32..160, 0u32..160), 0..320),
        proptest::collection::vec(0u32..160, 0..150),
    )
        .prop_map(|(n, edges, sources)| {
            let m = n as NodeId;
            let edges: Vec<_> = edges.into_iter().map(|(u, v)| (u % m, v % m)).collect();
            let g = Graph::from_edges_dedup(n, edges).expect("in range");
            (g, sources.into_iter().map(|s| s % m).collect())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batched kernel equals the per-source oracle on random graphs
    /// and random source lists, in full 64-lane batches and in ragged
    /// ones.
    #[test]
    fn batched_kernel_matches_oracle_on_random_graphs(case in arb_case()) {
        let (g, sources) = case;
        let csr = CsrGraph::from_graph(&g);
        let want = per_source(&csr, &sources);
        prop_assert_eq!(batched(&csr, &sources, BATCH_LANES), want.clone());
        prop_assert_eq!(batched(&csr, &sources, 13), want);
        let all: Vec<NodeId> = (0..g.node_count() as NodeId).collect();
        let (counts, unreachable, _) = per_source(&csr, &all);
        let d = DistanceDistribution::from_csr_sharded(&csr, 3, 2);
        prop_assert_eq!(d.counts, counts);
        prop_assert_eq!(d.unreachable_pairs, unreachable);
    }
}
