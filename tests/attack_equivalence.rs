//! Equivalence suite for the reverse union-find attack engine
//! (`dk_metrics::attack`): the incremental trajectory must be
//! byte-identical to a per-step `connected_components` recompute oracle
//! across graph shapes, strategies, and seeds — plus closed-form
//! anchors, the GCC tie-break inheritance, and fixed-seed thread-count
//! bit-identity through the ensemble runner. A release-only case runs
//! the 10⁶-node trajectories.

use dk_repro::graph::csr::CsrGraph;
use dk_repro::graph::traversal;
use dk_repro::graph::{builders, ensemble, Graph, NodeId};
use dk_repro::metrics::attack::{
    self, gcc_trajectory, removal_order, AttackOptions, Strategy as AttackStrategy,
    DEFAULT_ATTACK_SEED,
};
use dk_repro::metrics::Analyzer;
use dk_repro::topologies::ba::{barabasi_albert, BaParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a random simple graph with up to `n` nodes.
fn arb_graph(n: u32, max_edges: usize) -> impl Strategy<Value = Graph> {
    proptest::collection::vec((0..n, 0..n), 0..max_edges)
        .prop_map(move |edges| Graph::from_edges_dedup(n as usize, edges).expect("in range"))
}

/// Oracle: recompute component structure from scratch after every
/// removal prefix — the `O(n·(n+m))` baseline the engine replaces.
fn oracle_trajectory(g: &Graph, order: &[NodeId]) -> (Vec<u32>, Vec<u32>) {
    let n = g.node_count();
    let mut alive = vec![true; n];
    let mut gcc_sizes = Vec::with_capacity(n + 1);
    let mut component_counts = Vec::with_capacity(n + 1);
    for i in 0..=n {
        if i > 0 {
            alive[order[i - 1] as usize] = false;
        }
        let keep: Vec<NodeId> = (0..n as NodeId).filter(|&u| alive[u as usize]).collect();
        let (sub, _) = g.subgraph(&keep).expect("valid selection");
        let sizes = traversal::component_sizes(&sub);
        gcc_sizes.push(sizes.iter().copied().max().unwrap_or(0) as u32);
        component_counts.push(sizes.len() as u32);
    }
    (gcc_sizes, component_counts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The reverse union-find sweep equals the per-step recompute
    /// oracle for every strategy on arbitrary graphs.
    #[test]
    fn trajectory_matches_per_step_oracle(
        g in arb_graph(28, 90),
        strategy_idx in 0usize..4,
        seed in 0u64..512,
    ) {
        let strategy = AttackStrategy::all()[strategy_idx];
        let csr = CsrGraph::from_graph(&g);
        let order = removal_order(&csr, strategy, seed, 8, 1);
        let (sizes, counts) = gcc_trajectory(&csr, &order);
        let (oracle_sizes, oracle_counts) = oracle_trajectory(&g, &order);
        prop_assert_eq!(sizes, oracle_sizes, "{} seed {}", strategy, seed);
        prop_assert_eq!(counts, oracle_counts, "{} seed {}", strategy, seed);
    }

    /// Checkpoint snapshots agree with `giant_component_nodes` on the
    /// residual subgraph — same size AND the same smallest-node-id
    /// tie-break rule, at every removal prefix.
    #[test]
    fn checkpoint_gcc_matches_giant_component_nodes(
        g in arb_graph(20, 50),
        seed in 0u64..256,
    ) {
        let n = g.node_count();
        let csr = CsrGraph::from_graph(&g);
        let opts = AttackOptions {
            strategy: AttackStrategy::Random,
            seed,
            checkpoints: (0..=4).map(|i| i as f64 / 4.0).collect(),
        };
        let rep = attack::attack_sweep(&csr, &opts, 1, 1);
        for c in &rep.checkpoints {
            let keep: Vec<NodeId> = (0..n as NodeId)
                .filter(|u| !rep.order[..c.removed].contains(u))
                .collect();
            let (sub, map) = g.subgraph(&keep).expect("valid selection");
            let giant: Vec<NodeId> = traversal::giant_component_nodes(&sub)
                .into_iter()
                .map(|u| map[u as usize])
                .collect();
            prop_assert_eq!(c.gcc_nodes, giant.len(), "removed {}", c.removed);
            // the snapshot's hub must live inside the oracle's winner —
            // a size-tie broken differently would put it elsewhere
            if let Some(hub) = c.hub {
                prop_assert!(giant.contains(&hub), "removed {}: hub {} not in {:?}",
                    c.removed, hub, giant);
            }
        }
    }
}

/// The seeded Barabási–Albert input (2 edges per new node, 3 seed
/// nodes) of the scale checks, at the repository's master seed.
fn ba(nodes: usize) -> Graph {
    barabasi_albert(
        &BaParams {
            nodes,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(20060911),
    )
}

/// The engine against the oracle on a 2000-node BA graph, for every
/// strategy: hubs, long removal tails and many small components, at
/// a scale the arbitrary graphs above never reach.
#[test]
fn ba_trajectories_match_per_step_oracle() {
    let g = ba(2000);
    let csr = CsrGraph::from_graph(&g);
    for strategy in AttackStrategy::all() {
        let order = removal_order(&csr, strategy, 20060911, 16, 2);
        assert_eq!(
            gcc_trajectory(&csr, &order),
            oracle_trajectory(&g, &order),
            "{strategy}"
        );
    }
}

/// Full 10⁶-node removal trajectories: one entry per removal prefix,
/// GCC sizes that never grow and end at zero, and a defined halving
/// threshold.
#[test]
#[ignore = "release only: cargo test --release --test attack_equivalence -- --ignored --exact ba_1m_trajectories_are_well_formed --test-threads=1"]
fn ba_1m_trajectories_are_well_formed() {
    let g = ba(1_000_000);
    let n = g.node_count();
    let csr = CsrGraph::from_graph(&g);
    for strategy in [
        AttackStrategy::Degree,
        AttackStrategy::DegreeAdaptive,
        AttackStrategy::Random,
    ] {
        let order = removal_order(&csr, strategy, 20060911, 16, 0);
        let (sizes, _) = gcc_trajectory(&csr, &order);
        assert_eq!(sizes.len(), n + 1, "{strategy}");
        assert_eq!(sizes[0] as usize, n, "{strategy}: BA graphs are connected");
        assert!(sizes.windows(2).all(|w| w[1] <= w[0]), "{strategy}");
        assert_eq!(sizes[n], 0, "{strategy}");
        let t = attack::threshold_from_sizes(&sizes, n, 0.5);
        assert!(t.is_some_and(|t| t > 0.0 && t < 1.0), "{strategy}: {t:?}");
    }
}

#[test]
fn path_star_and_k5_anchors() {
    // P4 under degree attack: interior node 1 first halves it
    let path = builders::path(4);
    let csr = CsrGraph::from_graph(&path);
    let order = removal_order(&csr, AttackStrategy::Degree, 0, 1, 1);
    let (sizes, _) = gcc_trajectory(&csr, &order);
    assert_eq!(sizes, vec![4, 2, 1, 1, 0]);

    // S4 (hub + 4 leaves) collapses at step 1 under degree attack:
    // 1.0 → 0.2 crossing interpolates to (0.5/0.8)/5 = 0.125
    let star = builders::star(4);
    let csr = CsrGraph::from_graph(&star);
    let order = removal_order(&csr, AttackStrategy::Degree, 0, 1, 1);
    assert_eq!(order[0], 0, "hub first");
    let (sizes, counts) = gcc_trajectory(&csr, &order);
    assert_eq!(sizes[1], 1, "all leaves isolated after one removal");
    assert_eq!(counts[1], 4);
    let t = attack::threshold_from_sizes(&sizes, 5, 0.5).unwrap();
    assert!((t - 0.125).abs() < 1e-12, "{t}");

    // K5 loses exactly one node per removal under any strategy; the
    // 1.0-to-0.8… curve crosses 1/2 midway: threshold 0.5 exactly
    let k5 = builders::complete(5);
    let csr = CsrGraph::from_graph(&k5);
    for strategy in AttackStrategy::all() {
        let order = removal_order(&csr, strategy, 11, 4, 1);
        let (sizes, _) = gcc_trajectory(&csr, &order);
        assert_eq!(sizes, vec![5, 4, 3, 2, 1, 0], "{strategy}");
        let t = attack::threshold_from_sizes(&sizes, 5, 0.5).unwrap();
        assert!((t - 0.5).abs() < 1e-12, "{strategy}: {t}");
    }
}

#[test]
fn two_triangle_tie_break_is_inherited() {
    // components {1,3,5} and {0,2,4} tie at size 3: the documented rule
    // (smallest node id wins) must flow from giant_component_nodes
    // through the attack engine's snapshots
    let g = Graph::from_edges(6, [(1, 3), (3, 5), (5, 1), (0, 2), (2, 4), (4, 0)]).unwrap();
    let csr = CsrGraph::from_graph(&g);
    assert_eq!(traversal::giant_component_nodes(&csr), vec![0, 2, 4]);
    let opts = AttackOptions {
        strategy: AttackStrategy::Random,
        seed: 3,
        checkpoints: vec![0.0],
    };
    let rep = attack::attack_sweep(&csr, &opts, 4, 1);
    let c = &rep.checkpoints[0];
    assert_eq!(c.gcc_nodes, 3);
    assert_eq!(c.hub, Some(0), "winner is the component containing node 0");
}

#[test]
fn fixed_seed_reports_are_bit_identical_across_thread_counts() {
    // fan a batch of sweeps over the ensemble runner at different
    // thread counts: the serialized reports must match byte for byte
    let sweep_batch = |threads: usize| -> Vec<String> {
        ensemble::run(6, 0xDECAF, threads, |i, rng| {
            use rand::Rng;
            let n = 30 + (i as usize) * 7;
            let edges: Vec<(NodeId, NodeId)> = (0..3 * n)
                .map(|_| (rng.gen_range(0..n as NodeId), rng.gen_range(0..n as NodeId)))
                .collect();
            let g = Graph::from_edges_dedup(n, edges).expect("in range");
            let csr = CsrGraph::from_graph(&g);
            let strategy = AttackStrategy::all()[i as usize % 4];
            let opts = AttackOptions {
                strategy,
                seed: DEFAULT_ATTACK_SEED.wrapping_add(i),
                checkpoints: vec![0.1, 0.5],
            };
            attack::attack_sweep(&csr, &opts, 8, 1).to_json()
        })
    };
    let serial = sweep_batch(1);
    let parallel = sweep_batch(4);
    assert_eq!(serial, parallel);
    assert!(serial.iter().all(|j| j.contains("\"attack_threshold\":")));
}

#[test]
fn analyzer_entry_reuses_gcc_policy_and_registry_metrics_are_defined() {
    let g = builders::karate_club();
    let rep = Analyzer::new().attack(
        &g,
        &AttackOptions {
            strategy: AttackStrategy::Degree,
            checkpoints: vec![0.0, 0.5],
            ..Default::default()
        },
    );
    assert_eq!(rep.nodes, 34);
    assert_eq!(rep.gcc_sizes[0], 34);
    assert_eq!(*rep.gcc_sizes.last().unwrap(), 0);
    let t = rep.threshold(0.5).expect("karate halves under attack");
    assert!(t > 0.0 && t < 1.0, "{t}");

    // the registry metrics ride the normal analyze() path and agree
    // with the engine
    let report = Analyzer::new()
        .metric_names("attack_threshold,random_failure_threshold")
        .unwrap()
        .analyze(&g);
    let attack_t = report.scalar("attack_threshold").expect("defined");
    let failure_t = report.scalar("random_failure_threshold").expect("defined");
    assert!((attack_t - t).abs() < 1e-12, "{attack_t} vs {t}");
    assert!(
        failure_t > attack_t,
        "random failure tolerates more removals than targeted attack \
         ({failure_t} vs {attack_t})"
    );
}
