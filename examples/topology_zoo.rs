//! Topology zoo: every generator in `dk-topologies` side by side through
//! the paper's metric battery, plus the annotated-2K extension.
//!
//! ```text
//! cargo run --release --example topology_zoo
//! ```

use dk_repro::core::annotate::{generate_annotated_2k, Annotated2K, LabeledGraph};
use dk_repro::metrics::{Analyzer, MetricTable};
use dk_repro::topologies::{
    as_like::{skitter_like, AsLikeParams},
    ba::{barabasi_albert, BaParams},
    er,
    glp::{glp, GlpParams},
    hot_like::{hot_like, HotLikeParams},
    ws::{watts_strogatz, WsParams},
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let n = 1000;

    let graphs = vec![
        ("ER", er::gnm(n, 3 * n, &mut rng)),
        (
            "BA",
            barabasi_albert(
                &BaParams {
                    nodes: n,
                    edges_per_node: 3,
                    seed_nodes: 4,
                },
                &mut rng,
            ),
        ),
        (
            "GLP",
            glp(
                &GlpParams {
                    nodes: n,
                    ..Default::default()
                },
                &mut rng,
            ),
        ),
        (
            "WS",
            watts_strogatz(
                &WsParams {
                    nodes: n,
                    lattice_degree: 6,
                    beta: 0.1,
                },
                &mut rng,
            ),
        ),
        (
            "AS-like",
            skitter_like(
                &AsLikeParams {
                    nodes: n,
                    anneal_attempts: 200_000,
                    ..AsLikeParams::small()
                },
                &mut rng,
            ),
        ),
        ("HOT-like", hot_like(&HotLikeParams::default(), &mut rng)),
    ];

    let analyzer = Analyzer::new();
    let mut table = MetricTable::new();
    for (name, g) in &graphs {
        table.push(*name, analyzer.analyze(g));
    }
    print!("{}", table.render());

    // Annotated 2K (§6): label AS-like edges as "peering" when endpoint
    // degrees are within 2× of each other, else "customer–provider", then
    // regenerate a topology with the same annotated correlations.
    let as_graph = &graphs[4].1;
    let labeled = LabeledGraph::new_with(as_graph.clone(), |u, v| {
        let (a, b) = (as_graph.degree(u) as f64, as_graph.degree(v) as f64);
        if a.max(b) <= 2.0 * a.min(b) {
            1 // peering
        } else {
            0 // customer-provider
        }
    });
    let annotated = Annotated2K::from_graph(&labeled).expect("all edges labeled");
    let labels = annotated.labels();
    println!(
        "\nannotated 2K on AS-like: labels {labels:?}, {} cells",
        annotated.counts.len()
    );
    let regen = generate_annotated_2k(&annotated, &mut rng).expect("consistent");
    let regen_annotated = Annotated2K::from_graph(&regen).expect("labeled output");
    println!(
        "regenerated labeled topology: n = {}, m = {}, label mass preserved within {:.1}%",
        regen.graph.node_count(),
        regen.graph.edge_count(),
        100.0 * (regen_annotated.edges() as f64 - annotated.edges() as f64).abs()
            / annotated.edges() as f64
    );
}
