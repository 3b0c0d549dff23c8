//! **Ablations** of the reproduction's design choices:
//!
//! 1. **Swap budget** — the paper prescribes `10 × census` rewirings;
//!    we default to `50·m` attempts following Gkantsidis et al. \[15\].
//!    Sweep the per-edge factor and measure residual metric drift (the
//!    paper's own convergence criterion): the curve should flatten well
//!    before 50, validating the default.
//! 2. **Targeting bootstrap** — matching (exact degrees) vs pseudograph
//!    (paper-literal, cleanup perturbs degrees): compare reachable `D2`.
//! 3. **Neutral-move acceptance** — plateau moves on vs off for
//!    2K-targeting: effect on final distance and acceptance counts.
//!
//! ```text
//! cargo run -p dk-bench --release --bin ablation
//! # → results/ablation_{budget,bootstrap,neutral}.csv
//! ```

use dk_bench::inputs::{self, Input};
use dk_bench::Config;
use dk_core::dist::{Dist1K, Dist2K};
use dk_core::generate::rewire::{verify_randomization, RewireOptions, SwapBudget};
use dk_core::generate::target::{generate_2k_random, Bootstrap, TargetOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let cfg = Config::from_args();
    let hot = inputs::load(&cfg, Input::HotLike);

    // --- 1. budget ablation -------------------------------------------
    println!("budget ablation: residual drift after randomizing with k·m attempts (d = 1, 2)");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "factor", "d1_C_drift", "d1_r_drift", "d2_C_drift", "d2_r_drift"
    );
    let mut csv = String::from("factor,d1_clustering_drift,d1_assortativity_drift,d2_clustering_drift,d2_assortativity_drift\n");
    for factor in [1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0] {
        let opts = RewireOptions {
            budget: SwapBudget::AttemptsPerEdge(factor),
        };
        let mut row = vec![factor.to_string()];
        let mut cells = Vec::new();
        for d in [1u8, 2] {
            // randomize with the factor, then probe with the same factor:
            // drift ≈ 0 means the chain had already mixed.
            let mut rng = StdRng::seed_from_u64(cfg.run_seed(d as u64));
            let mut g = hot.clone();
            dk_core::generate::rewire::randomize(&mut g, d, &opts, &mut rng);
            let probe = verify_randomization(&g, d, &opts, &mut rng);
            cells.push(probe.clustering_drift);
            cells.push(probe.assortativity_drift);
        }
        println!(
            "{:>8} {:>12.5} {:>12.5} {:>12.5} {:>12.5}",
            factor, cells[0], cells[1], cells[2], cells[3]
        );
        row.extend(cells.iter().map(|c| c.to_string()));
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    std::fs::write(cfg.out_dir.join("ablation_budget.csv"), csv).expect("write");

    // --- 2. bootstrap ablation ----------------------------------------
    println!("\nbootstrap ablation: 2K-targeting final D2 by bootstrap family (5 seeds)");
    let target = Dist2K::from_graph(&hot);
    let mut csv = String::from("bootstrap,seed,final_d2,accepted\n");
    for (name, bootstrap) in [
        ("matching", Bootstrap::Matching),
        ("pseudograph", Bootstrap::Pseudograph),
    ] {
        let mut final_d2 = Vec::new();
        for i in 0..cfg.seeds {
            let mut rng = StdRng::seed_from_u64(cfg.run_seed(i));
            let (_, stats) =
                generate_2k_random(&target, bootstrap, &TargetOptions::default(), &mut rng)
                    .expect("HOT JDD realizable");
            csv.push_str(&format!(
                "{name},{i},{},{}\n",
                stats.final_distance, stats.accepted
            ));
            final_d2.push(stats.final_distance);
        }
        let mean: f64 = final_d2.iter().sum::<f64>() / final_d2.len() as f64;
        println!("  {name:<12} mean final D2 = {mean:.1}  (0 = exact JDD reached)");
    }
    std::fs::write(cfg.out_dir.join("ablation_bootstrap.csv"), csv).expect("write");

    // --- 3. neutral-move ablation --------------------------------------
    println!("\nneutral-move ablation: 2K-targeting with/without plateau acceptance");
    let d1 = Dist1K::from_graph(&hot);
    let mut csv = String::from("accept_neutral,seed,final_d2,accepted\n");
    for accept_neutral in [true, false] {
        let mut vals = Vec::new();
        for i in 0..cfg.seeds {
            let mut rng = StdRng::seed_from_u64(cfg.run_seed(100 + i));
            let mut g = dk_core::generate::matching::generate_1k(&d1, &mut rng)
                .expect("graphical")
                .graph;
            let opts = TargetOptions {
                accept_neutral,
                max_attempts: 1_500_000,
                patience: Some(150_000),
                ..Default::default()
            };
            let stats =
                dk_core::generate::target::target_2k_from_1k(&mut g, &target, &opts, &mut rng);
            csv.push_str(&format!(
                "{accept_neutral},{i},{},{}\n",
                stats.final_distance, stats.accepted
            ));
            vals.push(stats.final_distance);
        }
        let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
        println!("  accept_neutral = {accept_neutral:<5} mean final D2 = {mean:.1}");
    }
    std::fs::write(cfg.out_dir.join("ablation_neutral.csv"), csv).expect("write");
    println!("\nwrote results/ablation_{{budget,bootstrap,neutral}}.csv");
}
