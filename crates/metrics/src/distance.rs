//! Distance distribution `d(x)`, average distance `d̄`, and `σ_d`.
//!
//! The paper defines `d(x)` as "the number of pairs of nodes at a distance
//! `x`, divided by the total number of pairs `n²` (self-pairs included)"
//! (§2). We compute it **exactly** by running BFS from every node —
//! still O(n·m) edge work in the worst case, but batched: the
//! multi-source kernel [`traversal::bfs_batch`] advances 64 sources per
//! sweep as the bits of one `u64` word per node, so on small-world
//! inputs most of that work is shared (0.07 s instead of 2.0 s for one
//! BFS per source on the 9k-node skitter-like graph, one thread of a
//! 2-vCPU Xeon), and high-diameter shapes still take push levels that
//! cost no more than per-source BFS. Sources are
//! sharded over scoped threads. All-source sweeps run over a frozen
//! [`CsrGraph`] snapshot (two flat arrays; no per-neighbor-list pointer
//! chase), taken internally by [`DistanceDistribution::from_graph`] or
//! supplied by the analyzer cache via
//! [`DistanceDistribution::from_csr_sharded`], which streams shard
//! histograms through the fold of [`crate::stream`]: `O(workers)`
//! partials in flight, whatever the shard count.
//!
//! The same batched shard pass (`histogram_pass`) serves the sampled
//! distance-only estimator in [`crate::sampled`]: both only count
//! `(source, node, distance)` triples, so the integer histogram — and
//! every scalar derived from it — is the one a per-source BFS gives.
//!
//! The exact distribution carries no sampling noise: reproduction tables
//! must not stack sampling noise on top of ensemble noise. The *opt-in*
//! sampled estimator (registry metric `distance_approx`) lives in
//! [`crate::sampled`].

use crate::stream::{run_sharded_fold, DEFAULT_SHARDS};
use dk_graph::traversal::{self, BatchScratch, BATCH_LANES};
use dk_graph::{AdjacencyView, CsrGraph, Graph, NodeId};
use std::ops::Range;

/// Exact distance distribution of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceDistribution {
    /// `counts[x]` = number of **ordered** pairs `(u, v)` at distance `x`.
    /// `counts\[0\] = n` (self-pairs), matching the paper's convention.
    pub counts: Vec<u64>,
    /// Number of nodes.
    pub nodes: usize,
    /// Ordered pairs with no connecting path (0 on connected graphs).
    pub unreachable_pairs: u64,
}

impl DistanceDistribution {
    /// Computes the exact distribution with one BFS per node, in parallel.
    pub fn from_graph(g: &Graph) -> Self {
        Self::from_graph_with_threads(g, default_threads())
    }

    /// As [`DistanceDistribution::from_graph`] with an explicit thread
    /// count (tests use 1 to exercise the sequential path).
    ///
    /// Takes a fresh [`CsrGraph`] snapshot internally; callers that
    /// already hold one (the analyzer cache) use
    /// [`DistanceDistribution::from_csr_with_threads`] to skip the
    /// rebuild.
    pub fn from_graph_with_threads(g: &Graph, threads: usize) -> Self {
        Self::from_csr_with_threads(&CsrGraph::from_graph(g), threads)
    }

    /// Exact distribution over a prepared CSR snapshot.
    pub fn from_csr_with_threads(g: &CsrGraph, threads: usize) -> Self {
        Self::from_csr_sharded(g, DEFAULT_SHARDS, threads)
    }

    /// Sweep with an explicit shard count: each worker streams its
    /// source shards into a per-shard histogram, and histograms merge
    /// into one accumulator in shard order — `O(workers)` histograms in
    /// flight (see [`crate::stream`]). The histogram reducer is integer,
    /// so every shard and thread count gives identical counts; the knob
    /// fixes the partial layout.
    pub fn from_csr_sharded(g: &CsrGraph, shards: usize, threads: usize) -> Self {
        let n = g.node_count();
        let hist = histogram_pass(g, n, |i| i, shards, threads);
        Self::from_histogram(n, hist)
    }

    /// The distribution a histogram pass over `n` nodes produced.
    pub(crate) fn from_histogram(n: usize, hist: Histogram) -> Self {
        DistanceDistribution {
            counts: hist.counts,
            nodes: n,
            unreachable_pairs: hist.unreachable,
        }
    }

    /// Paper-convention PDF: `d(x) = counts[x]/n²` (self-pairs included).
    pub fn pdf(&self) -> Vec<f64> {
        let n2 = (self.nodes as f64).powi(2);
        self.counts.iter().map(|&c| c as f64 / n2).collect()
    }

    /// PDF over **positive** distances only (what the paper's
    /// distance-distribution figures plot): `counts[x]/Σ_{y≥1} counts[y]`.
    pub fn pdf_positive(&self) -> Vec<f64> {
        let total: u64 = self.counts.iter().skip(1).sum();
        if total == 0 {
            return vec![0.0; self.counts.len()];
        }
        self.counts
            .iter()
            .enumerate()
            .map(|(x, &c)| if x == 0 { 0.0 } else { c as f64 / total as f64 })
            .collect()
    }

    /// Average distance `d̄` over connected ordered pairs (x ≥ 1).
    pub fn mean(&self) -> f64 {
        let total: u64 = self.counts.iter().skip(1).sum();
        if total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .skip(1)
            .map(|(x, &c)| x as f64 * c as f64)
            .sum();
        sum / total as f64
    }

    /// Standard deviation `σ_d` of the positive-distance distribution.
    pub fn std_dev(&self) -> f64 {
        let total: u64 = self.counts.iter().skip(1).sum();
        if total == 0 {
            return 0.0;
        }
        let mean = self.mean();
        let var: f64 = self
            .counts
            .iter()
            .enumerate()
            .skip(1)
            .map(|(x, &c)| (x as f64 - mean).powi(2) * c as f64)
            .sum::<f64>()
            / total as f64;
        var.sqrt()
    }

    /// Longest finite distance (graph diameter on connected graphs).
    pub fn diameter(&self) -> usize {
        self.counts.len().saturating_sub(1)
    }
}

/// Integer result of a distance-histogram pass: `counts[x]` ordered
/// `(source, node)` pairs at distance `x`, the unreached pairs, and the
/// greatest finite distance from any source. Every field merges by
/// integer addition or max, so any shard layout, thread count or batch
/// grouping gives the same values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Histogram {
    pub(crate) counts: Vec<u64>,
    pub(crate) unreachable: u64,
    pub(crate) max_depth: u32,
}

impl Histogram {
    /// Shard-order merge — the fold step of every histogram pass.
    fn merge(&mut self, part: Histogram) {
        if self.counts.len() < part.counts.len() {
            self.counts.resize(part.counts.len(), 0);
        }
        for (x, c) in part.counts.into_iter().enumerate() {
            self.counts[x] += c;
        }
        self.unreachable += part.unreachable;
        self.max_depth = self.max_depth.max(part.max_depth);
    }
}

/// The distance-histogram pass behind both the exact distribution and
/// the sampled distance-only estimator: BFS from `count` sources,
/// source `i` being `source(i)`, sharded over `threads` workers whose
/// shard histograms fold in shard order ([`crate::stream`]).
///
/// Shard lengths are rounded up to whole [`BATCH_LANES`]-source batches
/// — a pure function of `(count, shards)` like every shard layout — so
/// a 16-pivot pass runs as one 16-lane batch instead of 16 one-lane
/// ones.
pub(crate) fn histogram_pass<V: AdjacencyView + ?Sized>(
    g: &V,
    count: usize,
    source: impl Fn(u32) -> NodeId + Sync,
    shards: usize,
    threads: usize,
) -> Histogram {
    let threads = threads.clamp(1, count.max(1));
    run_sharded_fold(
        count as u32,
        shards,
        BATCH_LANES as u32,
        threads,
        |range: Range<u32>| histogram_shard(g, range.map(&source)),
        Histogram::default(),
        Histogram::merge,
    )
}

/// One shard's sources, [`BATCH_LANES`] at a time through
/// [`traversal::bfs_batch`] with one worker-local [`BatchScratch`]
/// (`O(n)`, reused by every batch of the shard).
fn histogram_shard<V: AdjacencyView + ?Sized>(
    g: &V,
    mut sources: impl Iterator<Item = NodeId>,
) -> Histogram {
    let n = g.node_count() as u64;
    let mut hist = Histogram::default();
    let mut scratch = BatchScratch::new(g.node_count());
    let mut batch = [0 as NodeId; BATCH_LANES];
    loop {
        let mut lanes = 0;
        for (slot, s) in batch.iter_mut().zip(sources.by_ref()) {
            *slot = s;
            lanes += 1;
        }
        if lanes == 0 {
            return hist;
        }
        let counts = &mut hist.counts;
        let (reached, depth) =
            traversal::bfs_batch(g, &batch[..lanes], &mut scratch, |d, pairs| {
                let d = d as usize;
                if counts.len() <= d {
                    counts.resize(d + 1, 0);
                }
                counts[d] += pairs;
            });
        hist.unreachable += lanes as u64 * n - reached;
        hist.max_depth = hist.max_depth.max(depth);
    }
}

/// Default worker count: all available cores.
pub(crate) fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// All-pairs average distance convenience (connected graphs).
pub fn average_distance(g: &Graph) -> f64 {
    DistanceDistribution::from_graph(g).mean()
}

impl DistanceDistribution {
    /// Expansion `E(x)`: the average fraction of the graph reachable
    /// within `x` hops — the cumulative form of `d(x)`; the paper notes
    /// its distance distribution "is a normalized version of expansion
    /// \[29\]" (Tangmunarunkit et al.).
    ///
    /// `E(0) = 1/n` (the node itself), `E(diameter) = 1` on connected
    /// graphs.
    pub fn expansion(&self) -> Vec<f64> {
        if self.nodes == 0 {
            return Vec::new();
        }
        let n2 = (self.nodes as f64) * (self.nodes as f64);
        let mut acc = 0.0;
        self.counts
            .iter()
            .map(|&c| {
                acc += c as f64 / n2;
                acc
            })
            .collect()
    }
}

/// Single-source distances re-exported for callers that need raw BFS next
/// to the distribution type.
pub fn distances_from(g: &Graph, s: NodeId) -> Vec<u32> {
    dk_graph::bfs_distances(g, s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;

    #[test]
    fn path_distribution_hand_computed() {
        // P4 ordered pairs: distance 1 → 6, distance 2 → 4, distance 3 → 2.
        let g = builders::path(4);
        let d = DistanceDistribution::from_graph_with_threads(&g, 1);
        assert_eq!(d.counts, vec![4, 6, 4, 2]);
        assert_eq!(d.unreachable_pairs, 0);
        assert_eq!(d.diameter(), 3);
        let want_mean = (6.0 + 8.0 + 6.0) / 12.0;
        assert!((d.mean() - want_mean).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_all_distance_one() {
        let g = builders::complete(5);
        let d = DistanceDistribution::from_graph(&g);
        assert_eq!(d.counts, vec![5, 20]);
        assert_eq!(d.mean(), 1.0);
        assert_eq!(d.std_dev(), 0.0);
    }

    #[test]
    fn pdf_conventions() {
        let g = builders::complete(4);
        let d = DistanceDistribution::from_graph(&g);
        let pdf = d.pdf();
        // d(0) = 4/16, d(1) = 12/16
        assert!((pdf[0] - 0.25).abs() < 1e-12);
        assert!((pdf[1] - 0.75).abs() < 1e-12);
        let pp = d.pdf_positive();
        assert_eq!(pp[0], 0.0);
        assert!((pp[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_counts_unreachable() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let d = DistanceDistribution::from_graph_with_threads(&g, 1);
        // each node reaches 1 other → 4 ordered reachable pairs at distance 1
        assert_eq!(d.counts, vec![4, 4]);
        assert_eq!(d.unreachable_pairs, 8);
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = builders::grid(9, 11);
        let seq = DistanceDistribution::from_graph_with_threads(&g, 1);
        let par = DistanceDistribution::from_graph_with_threads(&g, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn csr_entry_point_matches_graph_entry_point() {
        for g in [
            builders::karate_club(),
            Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap(),
        ] {
            let csr = CsrGraph::from_graph(&g);
            assert_eq!(
                DistanceDistribution::from_csr_with_threads(&csr, 2),
                DistanceDistribution::from_graph_with_threads(&g, 1)
            );
        }
    }

    #[test]
    fn sharded_sweep_identical_for_any_shard_and_thread_count() {
        for g in [
            builders::karate_club(),
            Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap(),
        ] {
            let csr = CsrGraph::from_graph(&g);
            let want = DistanceDistribution::from_csr_with_threads(&csr, 1);
            let n = g.node_count();
            for shards in [1, 2, 7, n] {
                for threads in [1, 3] {
                    assert_eq!(
                        DistanceDistribution::from_csr_sharded(&csr, shards, threads),
                        want,
                        "shards = {shards}, threads = {threads}"
                    );
                }
            }
        }
        let empty = CsrGraph::from_graph(&Graph::new());
        assert_eq!(
            DistanceDistribution::from_csr_sharded(&empty, 4, 2),
            DistanceDistribution::from_graph(&Graph::new())
        );
    }

    #[test]
    fn cycle_mean_distance_closed_form() {
        // C_n (even n): mean distance over ordered pairs = n²/(4(n−1))
        let n = 10usize;
        let g = builders::cycle(n);
        let d = DistanceDistribution::from_graph(&g);
        let want = (n * n) as f64 / (4.0 * (n as f64 - 1.0));
        assert!((d.mean() - want).abs() < 1e-12, "mean {}", d.mean());
    }

    #[test]
    fn empty_graph() {
        let d = DistanceDistribution::from_graph(&Graph::new());
        assert!(d.counts.is_empty());
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.std_dev(), 0.0);
    }

    #[test]
    fn expansion_cumulates_to_one() {
        let g = builders::complete(4);
        let e = DistanceDistribution::from_graph(&g).expansion();
        assert!((e[0] - 0.25).abs() < 1e-12); // 1/n
        assert!((e[1] - 1.0).abs() < 1e-12);
        let g = builders::path(5);
        let e = DistanceDistribution::from_graph(&g).expansion();
        assert!((e.last().unwrap() - 1.0).abs() < 1e-12);
        for w in e.windows(2) {
            assert!(w[0] <= w[1] + 1e-15);
        }
        assert!(DistanceDistribution::from_graph(&Graph::new())
            .expansion()
            .is_empty());
    }

    #[test]
    fn std_dev_of_path() {
        let g = builders::path(3);
        let d = DistanceDistribution::from_graph(&g);
        // positive distances: four 1s, two 2s → mean 4/3
        let mean: f64 = 4.0 / 3.0;
        let var: f64 = (4.0 * (1.0 - mean).powi(2) + 2.0 * (2.0 - mean).powi(2)) / 6.0;
        assert!((d.std_dev() - var.sqrt()).abs() < 1e-12);
    }
}
