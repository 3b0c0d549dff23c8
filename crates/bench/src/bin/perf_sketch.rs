//! **perf_sketch** — the HyperANF sketch estimator's accuracy and perf
//! record: sketch vs exact-oracle distance metrics at an oracle-feasible
//! scale (with the Brandes–Pich sampled twin measured alongside, so the
//! two estimator families stay comparable run over run), and — with
//! `--full` — the 10⁶-node Barabási–Albert end-to-end run of the sketch
//! battery through `dk metrics`' analyzer.
//!
//! At 10⁶ nodes the exact distance family is O(n·m) ≈ hours however it
//! is sharded; the sketch battery covers it in `O(diameter)` sharded
//! register-union passes whose error `1.04/√2^b` is set by
//! `--sketch-bits`, with the `distance_approx` sampled twin (K = 64
//! pivots) recorded next to it for the accuracy-vs-cost comparison the
//! ROADMAP tracks.
//!
//! Appends `"bench": "sketch_oracle"` / `"bench": "sketch_large"`
//! records to the `BENCH_metrics.json` JSON-lines log.
//!
//! ```text
//! cargo run -p dk-bench --release --bin perf_sketch -- \
//!     [--full] [--oracle-n N] [--bits B] [--threads N] [--seed N] [--out DIR]
//! ```

use dk_bench::append_json_line;
use dk_graph::CsrGraph;
use dk_metrics::distance::DistanceDistribution;
use dk_metrics::{json, sketch, AnalysisCache, AnalyzeOptions, Analyzer};
use dk_topologies::ba::{barabasi_albert, BaParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

/// Pivot budget of the sampled twin measured alongside the sketches.
const SAMPLES: usize = 64;
/// Node count of the `--full` large-graph run.
const LARGE_N: usize = 1_000_000;
/// Register bits of the oracle stage's accuracy sweep.
const ORACLE_BITS: [u32; 3] = [6, 8, 10];

struct Args {
    full: bool,
    oracle_n: usize,
    /// Register bits of the `--full` large run (default 6: 64 MiB of
    /// registers per file at 10⁶ nodes, ~13% per-counter error — the
    /// CI-budget point; raise for accuracy at n·2^b bytes).
    bits: u32,
    threads: usize,
    seed: u64,
    out_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        full: false,
        oracle_n: 5_000,
        bits: 6,
        threads: 0,
        seed: 20060911,
        out_dir: PathBuf::from("results"),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let usage = || -> ! {
        eprintln!(
            "flags: --full (add the 10^6-node streaming run)  --oracle-n N (default 5000)\n       --bits B (large-run register bits, 4..=16, default 6)\n       --threads N (0 = all cores)  --seed N  --out DIR (default results/)"
        );
        std::process::exit(2)
    };
    while i < raw.len() {
        let flag = raw[i].as_str();
        match flag {
            "--full" => args.full = true,
            "--oracle-n" | "--bits" | "--threads" | "--seed" | "--out" => {
                i += 1;
                let Some(value) = raw.get(i) else {
                    eprintln!("error: {flag} needs a value");
                    usage()
                };
                match flag {
                    "--oracle-n" => args.oracle_n = value.parse().unwrap_or_else(|_| usage()),
                    "--bits" => {
                        args.bits = value.parse().unwrap_or_else(|_| usage());
                        if !(sketch::MIN_SKETCH_BITS..=sketch::MAX_SKETCH_BITS).contains(&args.bits)
                        {
                            eprintln!("error: --bits must lie in 4..=16");
                            usage()
                        }
                    }
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

fn ba(n: usize, seed: u64) -> dk_graph::Graph {
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

/// Sketch vs exact oracle (and the sampled twin) at oracle-feasible
/// scale: relative error of `d̄` at each register-bit count, asserted
/// against the 3σ HLL bound, bit-identity of the sketch pass across
/// thread counts asserted along the way.
fn oracle_stage(args: &Args, threads: usize) {
    let g = ba(args.oracle_n, args.seed);
    let csr = CsrGraph::from_graph(&g);
    println!(
        "oracle: BA n = {}, m = {}, threads = {threads}",
        g.node_count(),
        g.edge_count()
    );

    let (exact_s, exact) =
        time_s(|| DistanceDistribution::from_csr_sharded(&csr, stream_shards(), threads));
    let d_exact = exact.mean();
    println!("exact all-source BFS       {exact_s:>8.2} s   d_avg = {d_exact:.4}");

    // the sampled twin at the default pivot budget, for the running
    // sketch-vs-sampled accuracy comparison
    let (sampled_s, sampled) = time_s(|| {
        dk_metrics::sampled::sampled_traversal_csr(&csr, SAMPLES, threads)
            .distances
            .mean()
    });
    let sampled_err = (sampled - d_exact).abs() / d_exact;
    println!(
        "sampled twin (K = {SAMPLES})      {sampled_s:>8.2} s   d_avg = {sampled:.4}  rel err = {sampled_err:.4}"
    );

    let mut fields = vec![
        ("bench".into(), "\"sketch_oracle\"".to_string()),
        ("n".into(), g.node_count().to_string()),
        ("m".into(), g.edge_count().to_string()),
        ("threads".into(), threads.to_string()),
        ("d_exact".into(), json::number(d_exact)),
        ("exact_s".into(), json::number(exact_s)),
        ("sampled_err".into(), json::number(sampled_err)),
        ("sampled_s".into(), json::number(sampled_s)),
    ];
    for bits in ORACLE_BITS {
        let (sketch_s, anf) =
            time_s(|| sketch::hyper_anf_sharded(&csr, bits, 128, stream_shards(), threads));
        // the same pass at one thread is its equivalence oracle
        let serial = sketch::hyper_anf_sharded(&csr, bits, 128, stream_shards(), 1);
        assert_eq!(anf, serial, "{threads} threads == 1 thread at b = {bits}");
        let d_sketch = anf.avg_distance();
        let err = (d_sketch - d_exact).abs() / d_exact;
        let bound = 3.0 * sketch::standard_error(bits);
        println!(
            "sketch b = {bits:>2} ({:>5} regs)  {sketch_s:>8.2} s   d_avg = {d_sketch:.4}  rel err = {err:.4} (3σ bound {bound:.4})",
            1u32 << bits
        );
        assert!(
            err <= bound,
            "b = {bits}: sketch error {err} exceeds the 3σ HLL bound {bound}"
        );
        fields.push((format!("sketch_err_b{bits}"), json::number(err)));
        fields.push((format!("sketch_s_b{bits}"), json::number(sketch_s)));
    }
    let out = args.out_dir.join("BENCH_metrics.json");
    append_json_line(&out, &json::object(fields)).expect("append to BENCH_metrics.json");
    println!("appended to {}", out.display());
}

fn stream_shards() -> usize {
    dk_metrics::stream::DEFAULT_SHARDS
}

/// The 10⁶-node end-to-end run: the sketch distance battery (plus the
/// sampled twin for comparison) through the analyzer.
fn large_stage(args: &Args, threads: usize) {
    let battery = "n,m,k_avg,distance_approx,avg_distance_sketch,effective_diameter_sketch";
    let (gen_s, g) = time_s(|| ba(LARGE_N, args.seed));
    println!(
        "large: BA n = {}, m = {}, generated in {gen_s:.1} s",
        g.node_count(),
        g.edge_count()
    );
    let plan = AnalysisCache::build(
        &g,
        &[],
        &AnalyzeOptions {
            threads,
            samples: SAMPLES,
            sketch_bits: args.bits,
            ..Default::default()
        },
    )
    .exec_plan();
    let analyzer = Analyzer::new()
        .metric_names(battery)
        .expect("battery names are registered")
        .threads(threads)
        .sample_sources(SAMPLES)
        .sketch_bits(args.bits);
    let (analyze_s, report) = time_s(|| analyzer.analyze(&g));
    let scalar = |name: &str| report.scalar(name).unwrap_or(f64::NAN);
    let d_sketch = scalar("avg_distance_sketch");
    let d_sampled = scalar("distance_approx");
    let twin_gap = (d_sketch - d_sampled).abs() / d_sampled;
    println!(
        "analyzed in {analyze_s:.1} s (S = {}, workers = {}, b = {}): \
         d_avg_sketch = {d_sketch:.4}, d_avg_approx = {d_sampled:.4} (gap {twin_gap:.4}), \
         effective_diameter_sketch = {:.3}",
        plan.shards,
        plan.workers,
        args.bits,
        scalar("effective_diameter_sketch"),
    );
    let peak = peak_rss_bytes();
    if let Some(p) = peak {
        println!("peak RSS {:.0} MiB", p as f64 / (1 << 20) as f64);
    }

    let mut fields = vec![
        ("bench".into(), "\"sketch_large\"".to_string()),
        ("n".into(), g.node_count().to_string()),
        ("m".into(), g.edge_count().to_string()),
        ("threads".into(), threads.to_string()),
        ("bits".into(), args.bits.to_string()),
        ("samples".into(), SAMPLES.to_string()),
        ("shards".into(), plan.shards.to_string()),
        ("workers".into(), plan.workers.to_string()),
        ("streamed".into(), "true".into()),
        ("battery".into(), format!("\"{battery}\"")),
        ("gen_s".into(), json::number(gen_s)),
        ("analyze_s".into(), json::number(analyze_s)),
        ("d_avg_sketch".into(), json::number(d_sketch)),
        ("d_avg_approx".into(), json::number(d_sampled)),
        ("sketch_vs_sampled_gap".into(), json::number(twin_gap)),
        (
            "effective_diameter_sketch".into(),
            json::number(scalar("effective_diameter_sketch")),
        ),
        (
            "register_file_mb".into(),
            json::number(sketch::sketch_bytes(g.node_count(), args.bits) as f64 / (1 << 20) as f64),
        ),
    ];
    if let Some(p) = peak {
        fields.push((
            "peak_rss_mb".into(),
            json::number(p as f64 / (1 << 20) as f64),
        ));
    }
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
    oracle_stage(&args, threads);
    if args.full {
        large_stage(&args, threads);
    }
}
