//! HOT-like router-level topology — the substitute for the Li et al.
//! HOT graph (paper ref \[19\]; n = 939, m = 988).
//!
//! HOT ("Heuristically Optimal Topology") encodes router technology
//! constraints: core routers carry high bandwidth over *few* ports (low
//! degree), while access routers at the edge aggregate many low-bandwidth
//! customers (high degree). The result is the opposite of what
//! degree-driven random graphs produce — high-degree nodes at the
//! **periphery**, a low-degree mesh **core**, near-zero clustering, and
//! strong disassortativity — precisely why the paper uses it as the hard
//! case where 1K fails and d = 3 is needed.
//!
//! This generator builds that structure from first principles:
//!
//! ```text
//! core ring + chords  (low degree, high "bandwidth")
//!   └── gateways      (per-core fanout)
//!         └── access routers (per-gateway fanout)
//!               └── hosts    (degree-1 leaves, heavy-tailed fanout)
//! plus a redundancy budget of triangle-free cross links
//! ```
//!
//! Defaults are calibrated to the published HOT scale: n ≈ 939,
//! m ≈ 988, `k̄ ≈ 2.1`, `r ≈ −0.22`, `C̄ ≈ 0`, `d̄ ≈ 6.8`.

use dk_graph::{AdjacencyView, Graph, NodeId};
use rand::Rng;

use crate::powerlaw::{sample_sequence, PowerLawParams};

/// Parameters for [`hot_like`].
#[derive(Clone, Copy, Debug)]
pub struct HotLikeParams {
    /// Core mesh size.
    pub core_routers: usize,
    /// Extra chords across the core ring (distance ≥ 3, triangle-free).
    pub core_chords: usize,
    /// Gateways hanging off each core router.
    pub gateways_per_core: usize,
    /// Access routers per gateway.
    pub access_per_gateway: usize,
    /// Total nodes (hosts fill the remainder).
    pub target_nodes: usize,
    /// Total edges (redundancy links fill the remainder).
    pub target_edges: usize,
    /// Power-law exponent of the access-router host fanout.
    pub fanout_gamma: f64,
    /// Cap on a single access router's host count.
    pub max_fanout: usize,
}

impl Default for HotLikeParams {
    fn default() -> Self {
        HotLikeParams {
            core_routers: 12,
            core_chords: 6,
            gateways_per_core: 3,
            access_per_gateway: 4,
            target_nodes: 939,
            target_edges: 988,
            fanout_gamma: 1.6,
            max_fanout: 120,
        }
    }
}

impl HotLikeParams {
    /// CI-scale preset (~1/3 size, same shape).
    pub fn small() -> Self {
        HotLikeParams {
            core_routers: 6,
            core_chords: 3,
            gateways_per_core: 3,
            access_per_gateway: 3,
            target_nodes: 320,
            target_edges: 337,
            ..Default::default()
        }
    }

    /// Number of infrastructure (non-host) nodes.
    pub fn infra_nodes(&self) -> usize {
        let gw = self.core_routers * self.gateways_per_core;
        self.core_routers + gw + gw * self.access_per_gateway
    }
}

/// Generates a HOT-like router topology. Always connected.
///
/// # Panics
/// Panics if `target_nodes` does not leave room for at least one host
/// per ten access routers, or the core is too small for the chords.
pub fn hot_like<R: Rng + ?Sized>(p: &HotLikeParams, rng: &mut R) -> Graph {
    let nc = p.core_routers;
    assert!(nc >= 4, "core needs ≥ 4 routers");
    let n_gw = nc * p.gateways_per_core;
    let n_ar = n_gw * p.access_per_gateway;
    let infra = p.infra_nodes();
    assert!(
        p.target_nodes > infra + n_ar / 10,
        "target_nodes {} leaves no room for hosts over {} infra nodes",
        p.target_nodes,
        infra
    );
    let n_hosts = p.target_nodes - infra;
    let mut g = Graph::with_nodes(p.target_nodes);

    // id layout: [0, nc) core | [nc, nc+n_gw) gateways | access | hosts
    let core = |i: usize| i as NodeId;
    let gw = |i: usize| (nc + i) as NodeId;
    let ar = |i: usize| (nc + n_gw + i) as NodeId;
    let host = |i: usize| (infra + i) as NodeId;

    // core ring
    for i in 0..nc {
        g.add_edge(core(i), core((i + 1) % nc)).expect("ring");
    }
    // chords at distance ≥ 3 (no triangles with ring edges)
    let mut chords_added = 0;
    let mut span = nc / 2;
    'outer: while chords_added < p.core_chords && span >= 3 {
        for i in 0..nc {
            if chords_added >= p.core_chords {
                break 'outer;
            }
            let j = (i + span) % nc;
            if g.try_add_edge(core(i), core(j)) {
                chords_added += 1;
            }
        }
        span -= 1;
    }

    // core → gateways
    for c in 0..nc {
        for s in 0..p.gateways_per_core {
            g.add_edge(core(c), gw(c * p.gateways_per_core + s))
                .expect("gateway tree");
        }
    }
    // gateways → access routers
    for w in 0..n_gw {
        for s in 0..p.access_per_gateway {
            g.add_edge(gw(w), ar(w * p.access_per_gateway + s))
                .expect("access tree");
        }
    }

    // heavy-tailed host fanouts, apportioned to sum exactly to n_hosts
    let raw = sample_sequence(
        &PowerLawParams {
            nodes: n_ar,
            gamma: p.fanout_gamma,
            k_min: 1,
            k_max: Some(p.max_fanout),
        },
        rng,
    );
    let total_raw: usize = raw.iter().sum();
    let mut assigned = 0usize;
    let mut fanouts: Vec<usize> = raw
        .iter()
        .map(|&w| {
            let f = w * n_hosts / total_raw;
            assigned += f;
            f
        })
        .collect();
    // distribute the remainder to the largest raw weights (keeps tail)
    let mut order: Vec<usize> = (0..n_ar).collect();
    order.sort_by(|&a, &b| raw[b].cmp(&raw[a]).then(a.cmp(&b)));
    let mut left = n_hosts - assigned;
    for &i in order.iter().cycle().take(n_ar * 2) {
        if left == 0 {
            break;
        }
        fanouts[i] += 1;
        left -= 1;
    }

    // access routers → hosts
    let mut next_host = 0usize;
    for (i, &f) in fanouts.iter().enumerate() {
        for _ in 0..f {
            g.add_edge(ar(i), host(next_host)).expect("host leaf");
            next_host += 1;
        }
    }
    debug_assert_eq!(next_host, n_hosts);

    // redundancy links up to the edge target: gateway↔gateway or
    // access↔core across different branches, triangle-free to keep C̄ ≈ 0
    let mut guard = 0;
    while g.edge_count() < p.target_edges && guard < 10_000 {
        guard += 1;
        let u = if rng.gen_bool(0.7) {
            gw(rng.gen_range(0..n_gw))
        } else {
            ar(rng.gen_range(0..n_ar))
        };
        let v = if rng.gen_bool(0.5) {
            gw(rng.gen_range(0..n_gw))
        } else {
            core(rng.gen_range(0..nc))
        };
        if u == v || g.has_edge(u, v) || g.common_neighbors(u, v) > 0 {
            continue;
        }
        g.add_edge(u, v).expect("checked");
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn default_instance() -> Graph {
        let mut rng = StdRng::seed_from_u64(1);
        hot_like(&HotLikeParams::default(), &mut rng)
    }

    #[test]
    fn calibration_matches_published_hot_scale() {
        let g = default_instance();
        assert_eq!(g.node_count(), 939);
        assert!(
            (g.edge_count() as i64 - 988).abs() <= 5,
            "m = {}",
            g.edge_count()
        );
        let k = g.avg_degree();
        assert!((1.9..2.3).contains(&k), "k̄ = {k} (paper: 2.10)");
        assert!(dk_graph::is_connected(&g));
        g.check_invariants().unwrap();
    }

    #[test]
    fn near_zero_clustering() {
        let g = default_instance();
        let c = dk_metrics::clustering::mean_clustering(&g);
        assert!(c < 0.02, "C̄ = {c} (paper: 0)");
    }

    #[test]
    fn disassortative() {
        let g = default_instance();
        let r = dk_metrics::jdd::assortativity(&g);
        assert!((-0.5..-0.1).contains(&r), "r = {r} (paper: −0.22)");
    }

    #[test]
    fn high_degree_nodes_sit_at_the_periphery() {
        // The defining HOT feature: the max-degree node is an access
        // router whose neighbors are almost all degree-1 hosts.
        let g = default_instance();
        let vmax = g.nodes().max_by_key(|&u| g.degree(u)).expect("non-empty");
        let leafy = g
            .neighbors(vmax)
            .iter()
            .filter(|&&w| g.degree(w) == 1)
            .count();
        let frac = leafy as f64 / g.degree(vmax) as f64;
        assert!(
            frac > 0.8,
            "max-degree node has only {frac:.0}% leaf neighbors"
        );
        // and the core is low-degree
        let core_max = (0..12u32).map(|u| g.degree(u)).max().unwrap();
        assert!(
            core_max < g.max_degree() / 2,
            "core degree {core_max} vs periphery max {}",
            g.max_degree()
        );
    }

    #[test]
    fn distances_in_hot_range() {
        let g = default_instance();
        let d = dk_metrics::distance::DistanceDistribution::from_graph(&g);
        let mean = d.mean();
        assert!((5.0..9.0).contains(&mean), "d̄ = {mean} (paper: 6.81)");
    }

    #[test]
    fn small_preset_same_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = hot_like(&HotLikeParams::small(), &mut rng);
        assert_eq!(g.node_count(), 320);
        assert!(dk_graph::is_connected(&g));
        assert!(dk_metrics::jdd::assortativity(&g) < -0.1);
        assert!(dk_metrics::clustering::mean_clustering(&g) < 0.05);
    }

    #[test]
    fn deterministic_under_seed() {
        let a = {
            let mut rng = StdRng::seed_from_u64(3);
            hot_like(&HotLikeParams::default(), &mut rng)
        };
        let b = {
            let mut rng = StdRng::seed_from_u64(3);
            hot_like(&HotLikeParams::default(), &mut rng)
        };
        assert_eq!(a, b);
    }
}
