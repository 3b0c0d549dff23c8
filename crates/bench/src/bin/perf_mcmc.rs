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

use dk_bench::append_json_line;
use dk_core::dist::{Dist2K, Dist3K};
use dk_core::generate::rewire::{randomize, RewireOptions, SwapBudget};
use dk_core::generate::target::{target_2k_from_1k, TargetOptions};
use dk_graph::Graph;
use dk_metrics::{json, Analyzer};
use dk_topologies::ba::{barabasi_albert, BaParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

/// Node count of the `--full` large-graph run.
const LARGE_N: usize = 1_000_000;
/// Pivot budget of the sampled-distance verification metric.
const SAMPLES: usize = 64;
/// Register bits of the sketch verification metric (matches the
/// perf_sketch CI-budget point).
const SKETCH_BITS: u32 = 6;

struct Args {
    full: bool,
    n: usize,
    threads: usize,
    seed: u64,
    out_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        full: false,
        n: 5_000,
        threads: 0,
        seed: 20060911,
        out_dir: PathBuf::from("results"),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let usage = || -> ! {
        eprintln!(
            "flags: --full (add the 10^6-node run)  --n N (small-stage nodes, default 5000)\n       --threads N (0 = all cores)  --seed N  --out DIR (default results/)"
        );
        std::process::exit(2)
    };
    while i < raw.len() {
        let flag = raw[i].as_str();
        match flag {
            "--full" => args.full = true,
            "--n" | "--threads" | "--seed" | "--out" => {
                i += 1;
                let Some(value) = raw.get(i) else {
                    eprintln!("error: {flag} needs a value");
                    usage()
                };
                match flag {
                    "--n" => args.n = value.parse().unwrap_or_else(|_| usage()),
                    "--threads" => args.threads = value.parse().unwrap_or_else(|_| usage()),
                    "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
                    _ => args.out_dir = PathBuf::from(value),
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown flag {other:?}");
                usage()
            }
        }
        i += 1;
    }
    args
}

/// Process peak RSS in bytes (Linux `VmHWM`; `None` elsewhere).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

fn ba(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    barabasi_albert(
        &BaParams {
            nodes: n,
            edges_per_node: 2,
            seed_nodes: 3,
        },
        &mut rng,
    )
}

fn time_s<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (t0.elapsed().as_secs_f64(), out)
}

/// One scramble-then-recover run: 1K-randomize `original` through the
/// chain, 2K-target it back to `original`'s JDD, and append the record.
///
/// Returns the recovered graph for downstream verification.
fn mcmc_stage(args: &Args, bench: &str, original: &Graph, max_attempts: u64) -> Graph {
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
        fields.push((
            "peak_rss_mb".into(),
            json::number(p as f64 / (1 << 20) as f64),
        ));
    }
    let out = args.out_dir.join("BENCH_metrics.json");
    append_json_line(&out, &json::object(fields)).expect("append to BENCH_metrics.json");
    println!("appended to {}", out.display());
    g
}

/// One 3K-preserving randomization of `original` at the default budget:
/// every attempt that passes the 2K checks pays for one swap-level 3K
/// census delta. Asserts the census is unchanged and appends the record.
fn mcmc_3k_stage(args: &Args, original: &Graph) {
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
        fields.push((
            "peak_rss_mb".into(),
            json::number(p as f64 / (1 << 20) as f64),
        ));
    }
    let out = args.out_dir.join("BENCH_metrics.json");
    append_json_line(&out, &json::object(fields)).expect("append to BENCH_metrics.json");
    println!("appended to {}", out.display());
}

/// Verifies a recovered 10⁶-node graph against the original with the
/// sketch/sampled battery: assortativity `r` is a direct function of the
/// JDD the chain targeted (tight assert); the distance estimators are
/// 2K-correlated but not pinned (recorded, loose assert).
fn verify_large(args: &Args, threads: usize, original: &Graph, recovered: &Graph) {
    let battery = "r,distance_approx,avg_distance_sketch";
    let analyzer = Analyzer::new()
        .metric_names(battery)
        .expect("battery names are registered")
        .threads(threads)
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
        ("threads".into(), threads.to_string()),
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
    let out = args.out_dir.join("BENCH_metrics.json");
    append_json_line(&out, &json::object(fields)).expect("append to BENCH_metrics.json");
    println!("appended to {}", out.display());
}

fn main() {
    let args = parse_args();
    let threads = if args.threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        args.threads
    };
    let (gen_s, small) = time_s(|| ba(args.n, args.seed));
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
        verify_large(&args, threads, &large, &recovered);
    }
}
