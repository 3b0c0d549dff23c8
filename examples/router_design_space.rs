//! Router design space: why degree distributions are not enough for
//! router-level topologies (the paper's HOT argument), and how the
//! dK-series quantifies the gap.
//!
//! Builds a HOT-like router topology, randomizes it at each dK level,
//! and reports (a) the metric drift and (b) the size of each rewiring
//! space (the Table 5 census) — the engineering headroom a designer has
//! at each level of structural constraint.
//!
//! ```text
//! cargo run --release --example router_design_space
//! ```

use dk_repro::core::census::count_initial_rewirings;
use dk_repro::core::generate::rewire::{randomize, verify_randomization, RewireOptions};
use dk_repro::metrics::{Analyzer, MetricTable};
use dk_repro::topologies::hot_like::{hot_like, HotLikeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let hot = hot_like(&HotLikeParams::default(), &mut rng);
    println!(
        "HOT-like router topology: n = {}, m = {} (near-tree, disassortative)",
        hot.node_count(),
        hot.edge_count()
    );

    println!("\nrewiring-space census (how many graphs share this dK?):");
    println!(
        "{:>3} {:>14} {:>22}",
        "d", "rewirings", "minus leaf-swap isos"
    );
    for d in 0..=3u8 {
        let c = count_initial_rewirings(&hot, d);
        println!(
            "{d:>3} {:>14} {:>22}",
            c.total,
            c.excluding_obvious_isomorphic
                .map_or("-".into(), |v| v.to_string())
        );
    }

    println!("\nmetric drift under dK-randomizing rewiring (converged: 1 = yes):");
    let analyzer = Analyzer::new();
    let mut table = MetricTable::new();
    table.push("original", analyzer.analyze(&hot));
    let (mut swaps, mut converged) = (vec![None], vec![None]);
    for d in 0..=3u8 {
        let mut g = hot.clone();
        let stats = randomize(&mut g, d, &RewireOptions::default(), &mut rng);
        let probe = verify_randomization(&g, d, &RewireOptions::default(), &mut rng);
        table.push(format!("{d}K-random"), analyzer.analyze(&g));
        swaps.push(Some(stats.accepted as f64));
        converged.push(Some(f64::from(u8::from(probe.converged(0.05)))));
    }
    table.push_row("swaps", swaps);
    table.push_row("converged", converged);
    print!("{}", table.render());

    println!(
        "\nReading: at d = 1 the router topology falls apart (distances halve,\n\
         the core inverts); at d = 3 the randomized ensemble is pinned to the\n\
         design — the dK-census above shows there is almost nowhere to move."
    );
}
