//! **perf_mcmc** — the incremental-move MCMC engine's perf record:
//! 2K generation through `dk-mcmc` (1K-scramble a Barabási–Albert graph,
//! then 2K-target it back to the original JDD through the chain), with
//! moves/s, acceptance rate, and the D₂ descent recorded — and, with
//! `--full`, the same pipeline at 10⁶ nodes verified against the target
//! JDD with the sketch/sampled distance battery.
//!
//! The scramble-then-recover shape guarantees the target JDD is feasible
//! (the original graph realizes it), so the run measures the engine, not
//! the realizability of a synthetic target.
//!
//! The small-n stage also runs a 3K-preserving randomization
//! (`randomize` at `d = 3`, default 50·m budget) on the same graph and
//! asserts the wedge/triangle census is unchanged — the swap-level 3K
//! delta's perf record.
//!
//! Appends `"bench": "mcmc_2k"` / `"bench": "mcmc_3k"` /
//! `"bench": "mcmc_2k_large"` records to the `BENCH_metrics.json`
//! JSON-lines log.
//!
//! ```text
//! cargo run -p dk-bench --release --bin perf_mcmc -- \
//!     [--full] [--n N] [--threads N] [--seed N] [--out DIR]
//! ```

use dk_bench::perf::{ba, mib, peak_rss_bytes, time_s, PerfArgs};
use dk_bench::set;
use dk_core::dist::{Dist2K, Dist3K};
use dk_core::generate::rewire::{randomize, RewireOptions, SwapBudget};
use dk_core::generate::target::{target_2k_from_1k, TargetOptions};
use dk_graph::Graph;
use dk_metrics::{json, Analyzer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Node count of the `--full` large-graph run.
const LARGE_N: usize = 1_000_000;
/// Pivot budget of the sampled-distance verification metric.
const SAMPLES: usize = 64;
/// Register bits of the sketch verification metric (matches the
/// perf_sketch CI-budget point).
const SKETCH_BITS: u32 = 6;

/// One scramble-then-recover run: 1K-randomize `original` through the
/// chain, 2K-target it back to `original`'s JDD, and append the record.
///
/// Returns the recovered graph for downstream verification.
fn mcmc_stage(args: &PerfArgs, bench: &str, original: &Graph, max_attempts: u64) -> Graph {
    let m = original.edge_count() as u64;
    let target = Dist2K::from_graph(original);
    let mut g = original.clone();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x2b);

    let scramble_budget = RewireOptions {
        budget: SwapBudget::Attempts(2 * m),
    };
    let (scramble_s, scramble) = time_s(|| randomize(&mut g, 1, &scramble_budget, &mut rng));
    let d2_scrambled = Dist2K::from_graph(&g).distance_sq(&target);
    println!(
        "{bench}: scrambled in {scramble_s:.2} s ({} accepted / {} attempts), D2 = {d2_scrambled:.3e}",
        scramble.accepted, scramble.attempts
    );

    let opts = TargetOptions {
        max_attempts,
        patience: Some((max_attempts / 10).max(200_000)),
        ..Default::default()
    };
    let (target_s, stats) = time_s(|| target_2k_from_1k(&mut g, &target, &opts, &mut rng));
    let moves_s = stats.attempts as f64 / target_s.max(1e-9);
    let acceptance = stats.accepted as f64 / stats.attempts.max(1) as f64;
    println!(
        "{bench}: 2K-targeted in {target_s:.2} s — {:.2e} attempts ({moves_s:.3e} moves/s, acceptance {acceptance:.3}), D2 {:.3e} → {:.3e}",
        stats.attempts as f64, stats.initial_distance, stats.final_distance
    );
    assert!(
        stats.final_distance < stats.initial_distance * 0.05,
        "2K targeting must recover most of the JDD distance: {} → {}",
        stats.initial_distance,
        stats.final_distance
    );

    let mut fields = vec![
        ("bench".into(), format!("\"{bench}\"")),
        ("n".into(), original.node_count().to_string()),
        ("m".into(), original.edge_count().to_string()),
        // the chain is serial by construction (one rng, one graph)
        ("threads".into(), "1".to_string()),
        ("scramble_attempts".into(), scramble.attempts.to_string()),
        ("scramble_accepted".into(), scramble.accepted.to_string()),
        ("scramble_s".into(), json::number(scramble_s)),
        ("target_attempts".into(), stats.attempts.to_string()),
        ("target_accepted".into(), stats.accepted.to_string()),
        ("target_s".into(), json::number(target_s)),
        ("moves_s".into(), json::number(moves_s)),
        ("acceptance".into(), json::number(acceptance)),
        ("d2_initial".into(), json::number(stats.initial_distance)),
        ("d2_final".into(), json::number(stats.final_distance)),
    ];
    if let Some(p) = peak_rss_bytes() {
        fields.push(("peak_rss_mb".into(), json::number(mib(p))));
    }
    args.record(fields);
    g
}

/// One 3K-preserving randomization of `original` at the default budget:
/// every attempt that passes the 2K checks pays for one swap-level 3K
/// census delta. Asserts the census is unchanged and appends the record.
fn mcmc_3k_stage(args: &PerfArgs, original: &Graph) {
    let before = Dist3K::from_graph(original);
    let mut g = original.clone();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x3b);
    let (rewire3_s, stats) = time_s(|| randomize(&mut g, 3, &RewireOptions::default(), &mut rng));
    let moves_s = stats.attempts as f64 / rewire3_s.max(1e-9);
    println!(
        "mcmc_3k: 3K-randomized in {rewire3_s:.2} s — {} accepted / {} attempts ({moves_s:.3e} moves/s)",
        stats.accepted, stats.attempts
    );
    assert_eq!(
        Dist3K::from_graph(&g),
        before,
        "3K-preserving rewiring changed the wedge/triangle census"
    );
    let mut fields = vec![
        ("bench".into(), "\"mcmc_3k\"".to_string()),
        ("n".into(), original.node_count().to_string()),
        ("m".into(), original.edge_count().to_string()),
        ("threads".into(), "1".to_string()),
        ("attempts".into(), stats.attempts.to_string()),
        ("accepted".into(), stats.accepted.to_string()),
        ("rewire3_s".into(), json::number(rewire3_s)),
        ("moves_s".into(), json::number(moves_s)),
    ];
    if let Some(p) = peak_rss_bytes() {
        fields.push(("peak_rss_mb".into(), json::number(mib(p))));
    }
    args.record(fields);
}

/// Verifies a recovered 10⁶-node graph against the original with the
/// sketch/sampled battery: assortativity `r` is a direct function of the
/// JDD the chain targeted (tight assert); the distance estimators are
/// 2K-correlated but not pinned (recorded, loose assert).
fn verify_large(args: &PerfArgs, original: &Graph, recovered: &Graph) {
    let battery = "r,distance_approx,avg_distance_sketch";
    let analyzer = Analyzer::new()
        .metric_names(battery)
        .expect("battery names are registered")
        .threads(args.threads)
        .sample_sources(SAMPLES)
        .sketch_bits(SKETCH_BITS);
    let (orig_s, orig) = time_s(|| analyzer.analyze(original));
    let (rec_s, rec) = time_s(|| analyzer.analyze(recovered));
    let scalar = |r: &dk_metrics::Report, name: &str| r.scalar(name).unwrap_or(f64::NAN);
    let r_orig = scalar(&orig, "r");
    let r_rec = scalar(&rec, "r");
    let d_orig = scalar(&orig, "avg_distance_sketch");
    let d_rec = scalar(&rec, "avg_distance_sketch");
    let d_gap = (d_rec - d_orig).abs() / d_orig;
    println!(
        "verify: battery on original in {orig_s:.1} s, recovered in {rec_s:.1} s — \
         r {r_orig:.4} vs {r_rec:.4}, d_avg_sketch {d_orig:.4} vs {d_rec:.4} (gap {d_gap:.4})"
    );
    assert!(
        (r_rec - r_orig).abs() < 0.02,
        "assortativity must be pinned by the recovered JDD: {r_orig} vs {r_rec}"
    );
    assert!(
        d_gap < 0.25,
        "sketch distance should stay 2K-correlated: {d_orig} vs {d_rec}"
    );
    let fields = vec![
        ("bench".into(), "\"mcmc_2k_verify\"".to_string()),
        ("n".into(), original.node_count().to_string()),
        ("threads".into(), args.threads.to_string()),
        ("battery".into(), format!("\"{battery}\"")),
        ("r_original".into(), json::number(r_orig)),
        ("r_recovered".into(), json::number(r_rec)),
        (
            "d_approx_original".into(),
            json::number(scalar(&orig, "distance_approx")),
        ),
        (
            "d_approx_recovered".into(),
            json::number(scalar(&rec, "distance_approx")),
        ),
        ("d_sketch_original".into(), json::number(d_orig)),
        ("d_sketch_recovered".into(), json::number(d_rec)),
        ("d_sketch_gap".into(), json::number(d_gap)),
        ("analyze_s".into(), json::number(orig_s + rec_s)),
    ];
    args.record(fields);
}

fn main() {
    let mut n = 5_000;
    let args = PerfArgs::from_args(
        "--full (add the 10^6-node run)  --n N (small-stage nodes, default 5000)",
        vec![("--n", set(&mut n))],
    );
    let (gen_s, small) = time_s(|| ba(n, args.seed));
    println!(
        "small: BA n = {}, m = {}, generated in {gen_s:.2} s",
        small.node_count(),
        small.edge_count()
    );
    mcmc_stage(&args, "mcmc_2k", &small, 4_000_000);
    mcmc_3k_stage(&args, &small);
    if args.full {
        let (gen_s, large) = time_s(|| ba(LARGE_N, args.seed));
        println!(
            "large: BA n = {}, m = {}, generated in {gen_s:.1} s",
            large.node_count(),
            large.edge_count()
        );
        let recovered = mcmc_stage(&args, "mcmc_2k_large", &large, 60_000_000);
        verify_large(&args, &large, &recovered);
    }
}
