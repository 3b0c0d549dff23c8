//! Percolation and targeted-attack sweeps: full GCC-fraction
//! trajectories under node removal, in one near-linear pass.
//!
//! The paper's companion robustness study ("The effects of degree
//! correlations on network topologies and robustness", Zhao et al.)
//! asks which dK level captures *resilience*: how the giant connected
//! component shrinks as nodes are removed by random failure or by
//! targeted attack. This module makes that executable: a removal-order
//! strategy produces a permutation of the analyzed nodes, and the sweep
//! engine computes the GCC size and component count after **every**
//! removal step.
//!
//! ## The reverse-sweep invariant
//!
//! A naive sweep recomputes connected components after each removal —
//! `O(n·(n + m))`, hours at 10⁶ nodes. The engine never removes a node:
//! it processes the removal order **backwards**, re-inserting nodes
//! from last-removed to first into a [`UnionFind`] forest and
//! activating an edge exactly when both endpoints are live. Component
//! sizes only ever grow in that direction, so the largest-component
//! trajectory falls out of one `O(m·α)` pass. Merge order is fixed by
//! node id — each re-inserted node unions with its already-live
//! neighbors in ascending node-id order (sorted adjacency), and the
//! forest itself breaks every tie deterministically — so the whole
//! trajectory is a pure function of `(graph, removal order)`:
//! bit-identical across thread counts and shard counts. Size ties for "the" giant component break toward the
//! component containing the smallest node id, the same rule
//! [`giant_component_nodes`](dk_graph::traversal::giant_component_nodes)
//! documents — so checkpoint snapshots here agree with a per-step
//! recompute oracle node for node (locked down by
//! `tests/attack_equivalence.rs`).
//!
//! ## Strategies
//!
//! * [`Strategy::Random`] — seeded uniform failure order (Fisher–Yates
//!   over the analyzed nodes).
//! * [`Strategy::Degree`] — descending degree on the intact graph, ties
//!   toward the smaller node id.
//! * [`Strategy::Betweenness`] — descending sampled betweenness (the
//!   existing Brandes–Pich twin, [`crate::sampled`]), ties toward the
//!   smaller node id.
//! * [`Strategy::DegreeAdaptive`] — re-ranks on the decremented graph:
//!   always removes the currently highest-degree node, ties toward the
//!   smaller node id. Runs on a bucket queue with lazy per-bucket
//!   min-heaps: `O((n + m) log n)` total, the log paying for the exact
//!   smallest-id tie-break.
//!
//! ## Outputs
//!
//! [`AttackReport`] carries the full trajectory (GCC size and component
//! count at every removal count `0..=n`), the interpolated
//! [`AttackReport::threshold`] where the GCC fraction crosses a level
//! (the registry metrics use 1/2), and optional [`Checkpoint`]s at
//! requested removal fractions — each with a sampled average-distance
//! estimate over the residual GCC (an induced CSR subgraph through
//! [`crate::sampled`]) and results keyed by original node ids.

use crate::cache::AnalysisCache;
use crate::distance::default_threads;
use crate::json;
use crate::metric::{Dep, MetricValue};
use crate::sampled;
use crate::stream::DEFAULT_SHARDS;
use dk_graph::{AdjacencyView, CsrGraph, NodeId, UnionFind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::str::FromStr;

/// Fixed seed of the registry metrics' internal sweeps (the paper's
/// SIGCOMM'06 date) — `attack_threshold` / `random_failure_threshold`
/// must be reproducible with no tuning knobs.
pub const DEFAULT_ATTACK_SEED: u64 = 20060911;

/// Random-failure replicas averaged by the `random_failure_threshold`
/// registry metric (seeds `DEFAULT_ATTACK_SEED..+8`).
pub const FAILURE_REPLICAS: u64 = 8;

/// Removal-order strategy for an attack sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// Seeded uniform random failure (Fisher–Yates).
    Random,
    /// Descending degree on the intact graph, ties toward smaller ids.
    #[default]
    Degree,
    /// Descending sampled betweenness (Brandes–Pich pivots), ties
    /// toward smaller ids.
    Betweenness,
    /// Highest degree on the *decremented* graph at every step, ties
    /// toward smaller ids (bucket queue).
    DegreeAdaptive,
}

impl Strategy {
    /// Every strategy, in listing order.
    pub const fn all() -> [Strategy; 4] {
        [
            Strategy::Random,
            Strategy::Degree,
            Strategy::Betweenness,
            Strategy::DegreeAdaptive,
        ]
    }

    /// Canonical lowercase name (the [`FromStr`] inverse).
    pub const fn name(self) -> &'static str {
        match self {
            Strategy::Random => "random",
            Strategy::Degree => "degree",
            Strategy::Betweenness => "betweenness",
            Strategy::DegreeAdaptive => "degree-adaptive",
        }
    }

    /// One-line human description (CLI help).
    pub const fn description(self) -> &'static str {
        match self {
            Strategy::Random => "seeded uniform random failure order",
            Strategy::Degree => "descending degree on the intact graph",
            Strategy::Betweenness => "descending sampled betweenness (Brandes-Pich pivots)",
            Strategy::DegreeAdaptive => "highest current degree on the decremented graph",
        }
    }

    /// The shared passes the removal order reads: the betweenness
    /// ranking is a sampled Brandes pass ([`Dep::Sampled`]), which holds a
    /// BFS-ordered copy of the graph on top of its workers' scratch, and
    /// the other orders read the graph alone. A sweep's price is
    /// [`stream::min_bytes`](crate::stream::min_bytes) of these deps.
    pub const fn deps(self) -> &'static [Dep] {
        match self {
            Strategy::Betweenness => &[Dep::Sampled],
            Strategy::Random | Strategy::Degree | Strategy::DegreeAdaptive => &[],
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Strategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "random" | "failure" => Ok(Strategy::Random),
            "degree" => Ok(Strategy::Degree),
            "betweenness" => Ok(Strategy::Betweenness),
            "degree-adaptive" | "degree_adaptive" | "adaptive" => Ok(Strategy::DegreeAdaptive),
            other => Err(format!(
                "unknown attack strategy {other:?} (random|degree|betweenness|degree-adaptive)"
            )),
        }
    }
}

/// Options for an attack sweep. Sampling/threading budgets come from
/// the [`Analyzer`](crate::analyzer::Analyzer) that runs the sweep.
#[derive(Clone, Debug)]
pub struct AttackOptions {
    /// Removal-order strategy.
    pub strategy: Strategy,
    /// Seed of the [`Strategy::Random`] order (ignored by the ranked
    /// strategies, which are fully deterministic).
    pub seed: u64,
    /// Removal fractions in `0.0..=1.0` at which to take distance
    /// checkpoints on the residual GCC. Order and duplicates are
    /// irrelevant; the report sorts ascending.
    pub checkpoints: Vec<f64>,
}

impl Default for AttackOptions {
    fn default() -> Self {
        AttackOptions {
            strategy: Strategy::Degree,
            seed: DEFAULT_ATTACK_SEED,
            checkpoints: Vec::new(),
        }
    }
}

/// One distance probe of the residual graph at a removal fraction.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Requested removal fraction.
    pub fraction: f64,
    /// Actual removal count `⌊fraction·n⌋` the probe ran at.
    pub removed: usize,
    /// Nodes in the residual giant component.
    pub gcc_nodes: usize,
    /// `gcc_nodes / n` (n = analyzed node count before removals).
    pub gcc_fraction: f64,
    /// Components among the surviving nodes.
    pub components: usize,
    /// Sampled average distance over the residual GCC (`None` when it
    /// has fewer than two nodes).
    pub avg_distance_estimate: Option<f64>,
    /// Highest-degree node of the residual GCC, keyed by **original**
    /// (pre-subgraph) node id; ties toward the smaller id. `None` when
    /// the residual GCC is empty.
    pub hub: Option<NodeId>,
}

/// Full result of one attack sweep. See the [module docs](self).
#[derive(Clone, Debug, PartialEq)]
pub struct AttackReport {
    /// Strategy that produced the removal order.
    pub strategy: Strategy,
    /// Seed used (meaningful for [`Strategy::Random`] only).
    pub seed: u64,
    /// Analyzed node count `n`.
    pub nodes: usize,
    /// Analyzed edge count.
    pub edges: usize,
    /// The removal order (a permutation of `0..n`).
    pub order: Vec<NodeId>,
    /// `gcc_sizes[i]` = size of the largest component after removing
    /// the first `i` nodes of `order`; length `n + 1`.
    pub gcc_sizes: Vec<u32>,
    /// `component_counts[i]` = number of components among the surviving
    /// nodes after `i` removals; length `n + 1`.
    pub component_counts: Vec<u32>,
    /// Distance probes, ascending by removal count.
    pub checkpoints: Vec<Checkpoint>,
}

impl AttackReport {
    /// GCC fraction after `removed` removals, relative to the analyzed
    /// node count (1.0 convention for the empty graph).
    ///
    /// # Panics
    /// Panics if `removed > nodes`.
    pub fn gcc_fraction_at(&self, removed: usize) -> f64 {
        if self.nodes == 0 {
            return 1.0;
        }
        self.gcc_sizes[removed] as f64 / self.nodes as f64
    }

    /// Smallest removal fraction at which the GCC fraction drops below
    /// `level`, linearly interpolated between adjacent removal counts.
    /// `Some(0.0)` if the intact graph is already below the level;
    /// `None` for an empty graph or a level outside `(0.0, 1.0]`.
    pub fn threshold(&self, level: f64) -> Option<f64> {
        threshold_from_sizes(&self.gcc_sizes, self.nodes, level)
    }

    /// Machine-readable JSON. The trajectory is decimated to at most
    /// ~513 evenly spaced `[removed, gcc_fraction, components]` points
    /// (stride reported as `curve_stride`, last point always included);
    /// checkpoints and the interpolated 1/2 threshold are exact.
    pub fn to_json(&self) -> String {
        let n = self.nodes;
        let stride = n / 512 + 1;
        let mut curve = Vec::new();
        let mut last = None;
        let mut i = 0;
        while i <= n {
            curve.push(self.curve_point(i));
            last = Some(i);
            i += stride;
        }
        if last != Some(n) {
            curve.push(self.curve_point(n));
        }
        let threshold = self
            .threshold(0.5)
            .map_or_else(|| "null".to_string(), json::number);
        json::object([
            (
                "strategy".into(),
                format!("\"{}\"", json::escape(self.strategy.name())),
            ),
            ("seed".into(), self.seed.to_string()),
            ("nodes".into(), self.nodes.to_string()),
            ("edges".into(), self.edges.to_string()),
            ("attack_threshold".into(), threshold),
            ("curve_stride".into(), stride.to_string()),
            ("curve".into(), json::array(curve)),
            (
                "checkpoints".into(),
                json::array(self.checkpoints.iter().map(|c| {
                    json::object([
                        ("fraction".into(), json::number(c.fraction)),
                        ("removed".into(), c.removed.to_string()),
                        ("gcc_nodes".into(), c.gcc_nodes.to_string()),
                        ("gcc_fraction".into(), json::number(c.gcc_fraction)),
                        ("components".into(), c.components.to_string()),
                        (
                            "avg_distance".into(),
                            c.avg_distance_estimate
                                .map_or_else(|| "null".to_string(), json::number),
                        ),
                        (
                            "hub".into(),
                            c.hub.map_or_else(|| "null".to_string(), |h| h.to_string()),
                        ),
                    ])
                })),
            ),
        ])
    }

    fn curve_point(&self, removed: usize) -> String {
        json::array([
            removed.to_string(),
            json::number(self.gcc_fraction_at(removed)),
            self.component_counts[removed].to_string(),
        ])
    }
}

/// Interpolated removal fraction where `gcc_sizes[i]/n` first drops
/// below `level` — the shared backend of [`AttackReport::threshold`]
/// and the registry metrics.
pub fn threshold_from_sizes(gcc_sizes: &[u32], n: usize, level: f64) -> Option<f64> {
    if n == 0 || !(level > 0.0 && level <= 1.0) {
        return None;
    }
    let frac = |i: usize| gcc_sizes[i] as f64 / n as f64;
    if frac(0) < level {
        return Some(0.0);
    }
    for i in 1..=n {
        let (prev, cur) = (frac(i - 1), frac(i));
        if cur < level {
            // crossing inside (i-1, i]: linear interpolation in
            // removal-count space, then normalized to a fraction
            let t = (prev - level) / (prev - cur);
            return Some(((i - 1) as f64 + t) / n as f64);
        }
    }
    // level in (0, 1] and gcc_sizes[n] == 0 < level: unreachable unless
    // the trajectory is malformed; report "never crossed" honestly
    None
}

/// Removal order for `strategy` over the snapshot. `samples`/`threads`
/// budget the sampled betweenness ranking (ignored by the others);
/// `seed` drives [`Strategy::Random`].
pub fn removal_order(
    csr: &CsrGraph,
    strategy: Strategy,
    seed: u64,
    samples: usize,
    threads: usize,
) -> Vec<NodeId> {
    let n = csr.node_count();
    match strategy {
        Strategy::Random => {
            let mut order: Vec<NodeId> = (0..n as NodeId).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            order
        }
        Strategy::Degree => {
            let mut order: Vec<NodeId> = (0..n as NodeId).collect();
            order.sort_by(|&a, &b| csr.degree(b).cmp(&csr.degree(a)).then_with(|| a.cmp(&b)));
            order
        }
        Strategy::Betweenness => {
            let ranked =
                sampled::sampled_traversal_sharded(csr, samples.max(1), DEFAULT_SHARDS, threads);
            let mut order: Vec<NodeId> = (0..n as NodeId).collect();
            order.sort_by(|&a, &b| {
                ranked.betweenness[b as usize]
                    .total_cmp(&ranked.betweenness[a as usize])
                    .then_with(|| a.cmp(&b))
            });
            order
        }
        Strategy::DegreeAdaptive => degree_adaptive_order(csr),
    }
}

/// Adaptive highest-degree-first order with the exact smallest-id
/// tie-break, via a bucket queue of lazy min-heaps (stale entries are
/// skipped when popped; each degree decrement pushes one entry, so the
/// total is `O((n + m) log n)`).
fn degree_adaptive_order(csr: &CsrGraph) -> Vec<NodeId> {
    let n = csr.node_count();
    let mut deg: Vec<u32> = (0..n).map(|u| csr.degree(u as NodeId) as u32).collect();
    let max_deg = deg.iter().copied().max().unwrap_or(0) as usize;
    let mut buckets: Vec<BinaryHeap<Reverse<NodeId>>> = vec![BinaryHeap::new(); max_deg + 1];
    for (u, &d) in deg.iter().enumerate() {
        buckets[d as usize].push(Reverse(u as NodeId));
    }
    let mut alive = vec![true; n];
    let mut order = Vec::with_capacity(n);
    let mut cur = max_deg;
    while order.len() < n {
        match buckets[cur].pop() {
            Some(Reverse(u)) => {
                if !alive[u as usize] || deg[u as usize] as usize != cur {
                    continue; // stale entry: already removed or moved down
                }
                alive[u as usize] = false;
                order.push(u);
                for &v in csr.neighbors(u) {
                    if alive[v as usize] {
                        deg[v as usize] -= 1;
                        buckets[deg[v as usize] as usize].push(Reverse(v));
                    }
                }
                // decrements only push below `cur`, so the current
                // bucket stays the global maximum until it drains
            }
            None => {
                debug_assert!(cur > 0, "nodes remain but every bucket is empty");
                cur -= 1;
            }
        }
    }
    order
}

/// GCC-size and component-count trajectories of a removal order, via
/// the reverse union-find sweep (see the [module docs](self)).
///
/// Returns `(gcc_sizes, component_counts)`, each of length
/// `order.len() + 1`, indexed by nodes removed.
///
/// # Panics
/// Panics if `order` is not a permutation of the graph's node ids.
pub fn gcc_trajectory<V: AdjacencyView + ?Sized>(g: &V, order: &[NodeId]) -> (Vec<u32>, Vec<u32>) {
    let (sizes, counts, _) = sweep_with_snapshots(g, order, &[]);
    (sizes, counts)
}

/// Giant-component member sets keyed by removal count.
type Snapshots = Vec<(usize, Vec<NodeId>)>;

/// The reverse sweep, optionally extracting the giant component's
/// member set at the given removal counts (`wanted` ascending, deduped
/// by the caller). Members come back in ascending node id; the giant
/// root on ties is the component containing the smallest node id.
fn sweep_with_snapshots<V: AdjacencyView + ?Sized>(
    g: &V,
    order: &[NodeId],
    wanted: &[usize],
) -> (Vec<u32>, Vec<u32>, Snapshots) {
    let n = g.node_count();
    assert_eq!(order.len(), n, "removal order must cover every node");
    let mut seen = vec![false; n];
    for &u in order {
        assert!(
            !std::mem::replace(&mut seen[u as usize], true),
            "removal order must be a permutation (node {u} repeats)"
        );
    }
    let mut uf = UnionFind::new(n);
    let mut alive = vec![false; n];
    let mut gcc_sizes = vec![0u32; n + 1];
    let mut component_counts = vec![0u32; n + 1];
    let mut snapshots = Vec::with_capacity(wanted.len());
    // `wanted` ascending; the sweep meets removal counts descending
    let mut next_wanted = wanted.len();
    let take = |removed: usize, uf: &mut UnionFind, alive: &[bool], snapshots: &mut Snapshots| {
        snapshots.push((removed, giant_members(uf, alive)));
    };
    if next_wanted > 0 && wanted[next_wanted - 1] == n {
        next_wanted -= 1;
        take(n, &mut uf, &alive, &mut snapshots);
    }
    let mut largest = 0u32;
    let mut components = 0u32;
    for i in (0..n).rev() {
        let u = order[i];
        alive[u as usize] = true;
        components += 1;
        largest = largest.max(1);
        for &v in g.neighbors(u) {
            // ascending node-id order (sorted adjacency): the fixed
            // merge order of the reverse-sweep invariant
            if alive[v as usize] && uf.union(u, v) {
                components -= 1;
                largest = largest.max(uf.size_of(u));
            }
        }
        gcc_sizes[i] = largest;
        component_counts[i] = components;
        while next_wanted > 0 && wanted[next_wanted - 1] == i {
            next_wanted -= 1;
            take(i, &mut uf, &alive, &mut snapshots);
        }
    }
    snapshots.reverse(); // ascending removal count
    (gcc_sizes, component_counts, snapshots)
}

/// Members (ascending ids) of the giant component among live nodes;
/// size ties break toward the component containing the smallest id.
fn giant_members(uf: &mut UnionFind, alive: &[bool]) -> Vec<NodeId> {
    let mut best: Option<(u32, NodeId)> = None; // (size, min id) of winner
    for (u, &live) in alive.iter().enumerate() {
        if !live {
            continue;
        }
        let u = u as NodeId;
        let (size, min) = (uf.size_of(u), uf.min_of(u));
        let better = match best {
            None => true,
            Some((bs, bm)) => size > bs || (size == bs && min < bm),
        };
        if better {
            best = Some((size, min));
        }
    }
    let Some((_, winner_min)) = best else {
        return Vec::new();
    };
    (0..alive.len() as NodeId)
        .filter(|&u| alive[u as usize] && uf.min_of(u) == winner_min)
        .collect()
}

/// Runs a full attack sweep over `csr`: removal order from the
/// strategy, reverse union-find trajectory, and distance checkpoints on
/// residual-GCC subgraphs ([`CsrGraph::induced_subgraph`]);
/// `samples`/`threads` budget the sampled passes.
pub fn attack_sweep(
    csr: &CsrGraph,
    opts: &AttackOptions,
    samples: usize,
    threads: usize,
) -> AttackReport {
    let n = csr.node_count();
    let threads = if threads == 0 {
        default_threads()
    } else {
        threads
    };
    let order = removal_order(csr, opts.strategy, opts.seed, samples, threads);
    // requested fractions → removal counts (⌊f·n⌋, clamped), ascending
    let mut requested: Vec<(f64, usize)> = opts
        .checkpoints
        .iter()
        .filter(|f| f.is_finite())
        .map(|&f| {
            let clamped = f.clamp(0.0, 1.0);
            (clamped, ((clamped * n as f64).floor() as usize).min(n))
        })
        .collect();
    requested.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.total_cmp(&b.0)));
    requested.dedup();
    let mut wanted: Vec<usize> = requested.iter().map(|&(_, r)| r).collect();
    wanted.dedup();
    let (gcc_sizes, component_counts, snapshots) = sweep_with_snapshots(csr, &order, &wanted);
    let checkpoints = requested
        .iter()
        .map(|&(fraction, removed)| {
            let members = &snapshots
                .iter()
                .find(|&&(r, _)| r == removed)
                .expect("every requested removal count was snapshot")
                .1;
            checkpoint_at(
                csr,
                fraction,
                removed,
                members,
                &component_counts,
                samples,
                threads,
            )
        })
        .collect();
    AttackReport {
        strategy: opts.strategy,
        seed: opts.seed,
        nodes: n,
        edges: csr.edge_count(),
        order,
        gcc_sizes,
        component_counts,
        checkpoints,
    }
}

/// Distance probe over one residual-GCC member set (ascending ids).
fn checkpoint_at(
    g: &CsrGraph,
    fraction: f64,
    removed: usize,
    members: &[NodeId],
    component_counts: &[u32],
    samples: usize,
    threads: usize,
) -> Checkpoint {
    let n = g.node_count();
    let gcc_fraction = if n == 0 {
        1.0
    } else {
        members.len() as f64 / n as f64
    };
    let (avg_distance_estimate, hub) = if members.is_empty() {
        (None, None)
    } else {
        let sub = g.induced_subgraph(members);
        // report the residual hub by ORIGINAL node id: subgraph node i
        // is `members[i]`, which keeps checkpoint output keyed to the
        // input graph
        let degrees = sub.degrees();
        let hub_new = (0..sub.node_count() as NodeId)
            .max_by(|&a, &b| {
                degrees[a as usize]
                    .cmp(&degrees[b as usize])
                    .then(b.cmp(&a))
            })
            .expect("non-empty residual GCC");
        let hub = Some(members[hub_new as usize]);
        // the distance-only pivot pass: the same histogram as the
        // Brandes pass over the same pivots, without its σ/δ work
        let avg = (members.len() >= 2).then(|| {
            sampled::sampled_distances_sharded(&sub, samples.max(1), DEFAULT_SHARDS, threads)
                .distances
                .mean()
        });
        (avg, hub)
    };
    Checkpoint {
        fraction,
        removed,
        gcc_nodes: members.len(),
        gcc_fraction,
        components: component_counts[removed] as usize,
        avg_distance_estimate,
        hub,
    }
}

/// Attack sweep over a prepared [`AnalysisCache`]: sweeps the analyzed
/// CSR with the cache's sampling/threading budgets — the
/// [`Analyzer::attack`](crate::analyzer::Analyzer::attack) backend. A
/// betweenness-ranked sweep runs with the plan's
/// [`brandes_workers`](crate::stream::ExecPlan::brandes_workers), whose
/// memory budget also paid the ranking's BFS-ordered copy.
pub fn attack_sweep_cached(cx: &AnalysisCache<'_>, opts: &AttackOptions) -> AttackReport {
    let plan = cx.exec_plan();
    let threads = if opts.strategy.deps().iter().any(|d| d.runs_brandes()) {
        plan.brandes_workers
    } else {
        plan.workers
    };
    attack_sweep(cx.graph(), opts, cx.samples_budget(), threads)
}

/// `attack_threshold` registry metric: interpolated removal fraction
/// where the GCC halves under the degree-ranked attack order.
pub(crate) fn attack_threshold_metric(cx: &AnalysisCache<'_>) -> MetricValue {
    let csr = cx.graph();
    let n = csr.node_count();
    if n == 0 {
        return MetricValue::Undefined;
    }
    let order = removal_order(csr, Strategy::Degree, DEFAULT_ATTACK_SEED, 1, 1);
    let (sizes, _) = gcc_trajectory(csr, &order);
    threshold_from_sizes(&sizes, n, 0.5).map_or(MetricValue::Undefined, MetricValue::Scalar)
}

/// `random_failure_threshold` registry metric: mean interpolated
/// halving fraction over [`FAILURE_REPLICAS`] fixed-seed uniform
/// failure orders.
pub(crate) fn random_failure_threshold_metric(cx: &AnalysisCache<'_>) -> MetricValue {
    let csr = cx.graph();
    let n = csr.node_count();
    if n == 0 {
        return MetricValue::Undefined;
    }
    let mut total = 0.0f64;
    let mut defined = 0usize;
    for replica in 0..FAILURE_REPLICAS {
        let seed = DEFAULT_ATTACK_SEED.wrapping_add(replica);
        let order = removal_order(csr, Strategy::Random, seed, 1, 1);
        let (sizes, _) = gcc_trajectory(csr, &order);
        if let Some(t) = threshold_from_sizes(&sizes, n, 0.5) {
            total += t; // serial fold in fixed replica order
            defined += 1;
        }
    }
    if defined == 0 {
        MetricValue::Undefined
    } else {
        MetricValue::Scalar(total / defined as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::traversal;
    use dk_graph::{builders, Graph};

    fn csr(g: &Graph) -> CsrGraph {
        CsrGraph::from_graph(g)
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in Strategy::all() {
            assert_eq!(s.name().parse::<Strategy>().unwrap(), s);
            assert_eq!(format!("{s}"), s.name());
            assert!(!s.description().is_empty());
        }
        assert_eq!(
            "adaptive".parse::<Strategy>().unwrap(),
            Strategy::DegreeAdaptive
        );
        let err = "bogus".parse::<Strategy>().unwrap_err();
        assert!(err.contains("degree-adaptive"), "{err}");
    }

    #[test]
    fn star_collapses_at_step_one_under_degree_attack() {
        // S4: center 0 with leaves 1..=4
        let g = builders::star(4);
        let c = csr(&g);
        let order = removal_order(&c, Strategy::Degree, 0, 1, 1);
        assert_eq!(order[0], 0, "center removed first");
        let (sizes, counts) = gcc_trajectory(&c, &order);
        assert_eq!(sizes, vec![5, 1, 1, 1, 1, 0]);
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 4, "removing the hub isolates every leaf");
        // f crosses 1/2 between 0 and 1 removals: 1.0 → 0.2
        let t = threshold_from_sizes(&sizes, 5, 0.5).unwrap();
        assert!((t - 0.125).abs() < 1e-12, "{t}");
    }

    #[test]
    fn complete_graph_decays_one_by_one() {
        let g = builders::complete(5);
        let c = csr(&g);
        for strategy in Strategy::all() {
            let order = removal_order(&c, strategy, 3, 2, 1);
            let (sizes, counts) = gcc_trajectory(&c, &order);
            assert_eq!(sizes, vec![5, 4, 3, 2, 1, 0], "{strategy}");
            assert_eq!(counts, vec![1, 1, 1, 1, 1, 0], "{strategy}");
        }
    }

    #[test]
    fn path_degree_attack_trajectory() {
        // P4 0-1-2-3: degree order [1, 2, 0, 3]
        let g = builders::path(4);
        let c = csr(&g);
        let order = removal_order(&c, Strategy::Degree, 0, 1, 1);
        assert_eq!(order, vec![1, 2, 0, 3]);
        let (sizes, counts) = gcc_trajectory(&c, &order);
        assert_eq!(sizes, vec![4, 2, 1, 1, 0]);
        assert_eq!(counts, vec![1, 2, 2, 1, 0]);
    }

    #[test]
    fn random_order_is_a_seeded_permutation() {
        let g = builders::cycle(12);
        let c = csr(&g);
        let a = removal_order(&c, Strategy::Random, 9, 1, 1);
        let b = removal_order(&c, Strategy::Random, 9, 1, 1);
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, removal_order(&c, Strategy::Random, 10, 1, 1));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn degree_adaptive_rebalances_after_removals() {
        // hub 0 joined to a long path: static degree order would pick
        // path interiors by id; adaptive must follow the decremented
        // degrees. Graph: star center 0 (leaves 1..=3) + path 4-5-6-7
        // attached at 3.
        let g =
            Graph::from_edges(8, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6), (6, 7)]).unwrap();
        let c = csr(&g);
        let order = removal_order(&c, Strategy::DegreeAdaptive, 0, 1, 1);
        // degrees: 0:3, 3:2, 4:2, 5:2, 6:2, 1:1, 2:1, 7:1 → 0 first;
        // removing 0 drops 3 to degree 1, so the deg-2 tie {4,5,6}
        // resolves to 4 (a static degree rank would have picked 3);
        // removing 4 drops 5 to 1, so 6 goes next.
        assert_eq!(order[0], 0);
        assert_eq!(order[1], 4);
        assert_eq!(order[2], 6);
        let oracle: Vec<u32> = (0..=8)
            .map(|i| {
                let keep: Vec<NodeId> = (0..8).filter(|u| !order[..i].contains(u)).collect();
                let (sub, _) = g.subgraph(&keep).unwrap();
                if sub.node_count() == 0 {
                    0
                } else {
                    traversal::component_sizes(&sub).into_iter().max().unwrap() as u32
                }
            })
            .collect();
        assert_eq!(gcc_trajectory(&c, &order).0, oracle);
    }

    #[test]
    fn betweenness_order_targets_the_bridge() {
        // two triangles joined by a bridge node 3: highest betweenness
        let g = Graph::from_edges(
            7,
            [
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 4),
            ],
        )
        .unwrap();
        let c = csr(&g);
        // exact betweenness: samples >= n
        let order = removal_order(&c, Strategy::Betweenness, 0, 16, 1);
        assert_eq!(order[0], 3, "bridge first: {order:?}");
    }

    #[test]
    fn checkpoints_report_original_ids_and_distances() {
        let g = builders::path(10);
        let c = csr(&g);
        let opts = AttackOptions {
            strategy: Strategy::Degree,
            checkpoints: vec![0.0, 0.2, 1.0],
            ..Default::default()
        };
        let rep = attack_sweep(&c, &opts, 64, 1);
        assert_eq!(rep.checkpoints.len(), 3);
        let intact = &rep.checkpoints[0];
        assert_eq!((intact.removed, intact.gcc_nodes), (0, 10));
        // samples >= n: the sampled mean equals the exact P10 mean
        let exact = crate::distance::DistanceDistribution::from_graph(&g).mean();
        assert!((intact.avg_distance_estimate.unwrap() - exact).abs() < 1e-9);
        let emptied = &rep.checkpoints[2];
        assert_eq!((emptied.removed, emptied.gcc_nodes), (10, 0));
        assert_eq!(emptied.avg_distance_estimate, None);
        assert_eq!(emptied.hub, None);
        // hub is keyed by the original node id even after renumbering
        assert!(intact.hub.is_some());
    }

    #[test]
    fn checkpoint_distances_equal_the_fused_pass_bit_for_bit() -> Result<(), dk_graph::GraphError> {
        // checkpoints read the distance-only pivot pass; each estimate
        // must equal the mean of the fused Brandes pass over the same
        // residual GCC to the bit, for partial and full pivot budgets
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut g = Graph::from_edges(300, [(0, 1), (1, 2), (2, 0)])?;
        let mut ends: Vec<NodeId> = vec![0, 1, 1, 2, 2, 0];
        for u in 3..300 {
            for _ in 0..2 {
                let v = ends[rng.gen_range(0..ends.len())];
                if g.try_add_edge(u, v) {
                    ends.extend([u, v]);
                }
            }
        }
        let c = csr(&g);
        for strategy in [Strategy::Degree, Strategy::Random] {
            for samples in [8, 70, 400] {
                let opts = AttackOptions {
                    strategy,
                    checkpoints: vec![0.0, 0.05, 0.2, 0.5],
                    ..Default::default()
                };
                let rep = attack_sweep(&c, &opts, samples, 2);
                for cp in &rep.checkpoints {
                    let alive: Vec<NodeId> = (0..g.node_count() as NodeId)
                        .filter(|u| !rep.order[..cp.removed].contains(u))
                        .collect();
                    let (residual, map) = g.subgraph(&alive)?;
                    let members: Vec<NodeId> = traversal::giant_component_nodes(&residual)
                        .into_iter()
                        .map(|u| map[u as usize])
                        .collect();
                    let want = match members.len() {
                        0 | 1 => None,
                        _ => {
                            let (sub, _) = g.subgraph(&members)?;
                            let brandes = sampled::sampled_traversal_sharded(
                                &csr(&sub),
                                samples,
                                DEFAULT_SHARDS,
                                2,
                            );
                            Some(brandes.distances.mean())
                        }
                    };
                    assert_eq!(
                        cp.avg_distance_estimate.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "{strategy}, samples = {samples}, removed = {}",
                        cp.removed
                    );
                }
            }
        }
        Ok(())
    }

    #[test]
    fn snapshot_tie_breaks_toward_smallest_node_id() {
        // two triangles {0,2,4} and {1,3,5}; remove nothing: the giant
        // member snapshot must pick the component containing node 0,
        // matching giant_component_nodes
        let g = Graph::from_edges(6, [(1, 3), (3, 5), (5, 1), (0, 2), (2, 4), (4, 0)]).unwrap();
        let c = csr(&g);
        let opts = AttackOptions {
            strategy: Strategy::Random,
            checkpoints: vec![0.0],
            ..Default::default()
        };
        let rep = attack_sweep(&c, &opts, 1, 1);
        assert_eq!(rep.checkpoints[0].gcc_nodes, 3);
        assert_eq!(
            rep.checkpoints[0].hub,
            Some(0),
            "members must be {{0,2,4}}: {:?}",
            rep.checkpoints
        );
        assert_eq!(traversal::giant_component_nodes(&c), vec![0, 2, 4]);
    }

    #[test]
    fn threshold_interpolates() {
        // sizes 10,10,4,... over n=10: crossing between 1 and 2 at
        // t = (1.0-0.5)/(1.0-0.4) = 5/6 → fraction (1 + 5/6)/10
        let sizes = [10, 10, 4, 3, 2, 1, 1, 1, 1, 1, 0];
        let t = threshold_from_sizes(&sizes, 10, 0.5).unwrap();
        assert!((t - (1.0 + 5.0 / 6.0) / 10.0).abs() < 1e-12, "{t}");
        assert_eq!(threshold_from_sizes(&[0], 0, 0.5), None);
        assert_eq!(threshold_from_sizes(&sizes, 10, 0.0), None);
        // already below the level at zero removals
        assert_eq!(threshold_from_sizes(&[4, 0], 10, 0.5), Some(0.0));
    }

    #[test]
    fn report_json_shape() {
        let g = builders::karate_club();
        let c = csr(&g);
        let opts = AttackOptions {
            strategy: Strategy::DegreeAdaptive,
            checkpoints: vec![0.25],
            ..Default::default()
        };
        let rep = attack_sweep(&c, &opts, 8, 1);
        let js = rep.to_json();
        assert!(js.contains("\"strategy\":\"degree-adaptive\""), "{js}");
        assert!(js.contains("\"attack_threshold\":"), "{js}");
        assert!(js.contains("\"curve\":[[0,1"), "{js}");
        assert!(js.contains("\"checkpoints\":[{\"fraction\":0.25"), "{js}");
        // last curve point is the fully removed state
        assert!(js.contains(&format!("[{},0,0]]", g.node_count())), "{js}");
    }

    #[test]
    fn registry_metric_backends_match_engine() {
        let g = builders::karate_club();
        let cx = AnalysisCache::build(&g, &[], &crate::cache::AnalyzeOptions::default());
        let MetricValue::Scalar(t) = attack_threshold_metric(&cx) else {
            panic!("defined on karate");
        };
        let c = csr(&g);
        let order = removal_order(&c, Strategy::Degree, DEFAULT_ATTACK_SEED, 1, 1);
        let (sizes, _) = gcc_trajectory(&c, &order);
        assert_eq!(Some(t), threshold_from_sizes(&sizes, 34, 0.5));
        let MetricValue::Scalar(r) = random_failure_threshold_metric(&cx) else {
            panic!("defined on karate");
        };
        assert!(r > t, "random failure is milder than targeted attack");
        assert!(r <= 1.0 && t > 0.0);
    }

    #[test]
    fn empty_graph_sweep() {
        let g = Graph::new();
        let c = csr(&g);
        let rep = attack_sweep(&c, &AttackOptions::default(), 1, 1);
        assert_eq!(rep.gcc_sizes, vec![0]);
        assert_eq!(rep.threshold(0.5), None);
        assert_eq!(rep.gcc_fraction_at(0), 1.0);
    }
}
