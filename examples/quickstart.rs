//! Quickstart: extract a dK-distribution, generate random graphs with the
//! same degree correlations, and *analyze what you generate* — the
//! paper's full analyze → extract → generate → re-analyze loop in one
//! file.
//!
//! Both halves run through unified facades: [`Generator`] checks the
//! capability matrix before dispatching to a construction family, and
//! [`Analyzer`] computes a named metric battery over a shared-computation
//! cache (§2 metric definitions; §5.2 GCC convention).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dk_repro::core::{AnyDist, GenError, Generator, Method};
use dk_repro::graph::builders;
use dk_repro::metrics::{Analyzer, MetricTable};

fn main() {
    // 1. Take an "observed" graph — Zachary's karate club stands in for a
    //    measured topology.
    let observed = builders::karate_club();
    println!(
        "observed: n = {}, m = {}",
        observed.node_count(),
        observed.edge_count()
    );

    // 2. Extract its dK-distributions into the runtime-d container.
    let dists: Vec<AnyDist> = (1..=3)
        .map(|d| AnyDist::from_graph(d, &observed).expect("d ≤ 3"))
        .collect();
    let (d1, d2, d3) = (&dists[0], &dists[1], &dists[2]);
    println!(
        "1K: {} degree classes | 2K: {} JDD cells | 3K: {} wedge + {} triangle cells",
        d1.as_1k()
            .unwrap()
            .counts
            .iter()
            .filter(|&&c| c > 0)
            .count(),
        d2.as_2k().unwrap().counts.len(),
        d3.as_3k().unwrap().wedges().len(),
        d3.as_3k().unwrap().triangles().len()
    );

    // 3. Construct a random graph at each level. One builder per family;
    //    the capability matrix picks what is possible at each d:
    //    pseudograph covers 1K, matching covers 2K, and 3K needs the
    //    rewiring family seeded with the observed graph.
    let g1 = Generator::new(Method::Pseudograph)
        .seed(7)
        .build(d1)
        .expect("graphical")
        .graph;
    let g2 = Generator::new(Method::Matching)
        .seed(7)
        .build(d2)
        .expect("consistent JDD")
        .graph;
    let g3 = Generator::new(Method::Rewiring)
        .reference(&observed)
        .seed(7)
        .build(d3)
        .expect("rewiring with a reference cannot fail")
        .graph;

    // Impossible cells are typed errors, not panics:
    match Generator::new(Method::Pseudograph).build(d3) {
        Err(GenError::Unsupported { method, d }) => {
            println!("(as expected: {method} cannot build d = {d} — capability matrix)")
        }
        other => panic!("expected a typed capability error, got {other:?}"),
    }

    // 4. Analyze what we generated: select metrics by name, side-by-side.
    //    Distances and betweenness share one fused all-source traversal
    //    inside the analyzer's cache.
    let analyzer = Analyzer::new()
        .metric_names("k_avg,r,c_mean,d_avg,b_max")
        .expect("registered metrics");
    let observed_report = analyzer.analyze(&observed);
    let mut table = MetricTable::new();
    table.push("observed", observed_report.clone());
    for (name, g) in [("1K-random", &g1), ("2K-random", &g2), ("3K-random", &g3)] {
        table.push(name, analyzer.analyze(g));
    }
    println!("\n{}", table.render());

    // 5. One graph is an anecdote; the paper averages over an ensemble
    //    ("averages over 100 graphs", §5). run_ensemble fans replicas out
    //    in parallel — deterministically — and reports mean ± std.
    let summary = analyzer.run_ensemble(20, 7, |rng| {
        Generator::new(Method::Matching)
            .build_with_rng(d2, rng)
            .expect("consistent JDD")
            .graph
    });
    let r = summary.scalar("r").expect("selected");
    let c = summary.scalar("c_mean").expect("selected");
    println!(
        "2K ensemble (20 replicas): r = {:.3} ± {:.3}, C̄ = {:.3} ± {:.3}",
        r.mean, r.std, c.mean, c.std
    );
    println!(
        "observed:                  r = {:.3}, C̄ = {:.3}",
        observed_report.scalar("r").unwrap(),
        observed_report.scalar("c_mean").unwrap()
    );

    println!(
        "\nNote how r locks in at d = 2 and clustering only matches at d = 3 —\n\
         the paper's convergence story, now with ensemble error bars.\n\
         Machine-readable form: .analyze(&g).to_json() / summary.to_json()"
    );
}
