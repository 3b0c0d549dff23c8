//! **perf_shard** — the sharded streaming layer's perf and memory
//! record: the fused traversal at one thread vs the run's thread count
//! (bit-identity asserted, both timed) at an oracle-feasible scale, and
//! — with `--full` — the 10⁶-node Barabási–Albert end-to-end run
//! through `dk metrics`' analyzer, with a hard per-worker memory
//! accounting and the process peak RSS.
//!
//! At 10⁶ nodes the *exact* all-pairs battery is a multi-hour
//! computation however it is sharded (O(n·m) edge visits), so the large
//! run exercises the paper-default battery with its two exact all-pairs
//! columns replaced by their registry-sampled twins
//! (`distance_approx`/`betweenness_approx`, K = 64 Brandes–Pich pivots)
//! and the spectral solve omitted — every traversal-shaped pass still
//! goes through the shard executor, which is what this binary
//! measures. The thread-count bit-identity at full exactness is covered
//! by the oracle stage here and by `tests/stream_equivalence.rs`.
//!
//! Appends `"bench": "shard_oracle"` / `"bench": "shard_large"` records
//! to the `BENCH_metrics.json` JSON-lines log.
//!
//! ```text
//! cargo run -p dk-bench --release --bin perf_shard -- \
//!     [--full] [--oracle-n N] [--threads N] [--seed N] [--out DIR]
//! ```

use dk_bench::append_json_line;
use dk_graph::CsrGraph;
use dk_metrics::{betweenness, json, stream, AnalysisCache, AnalyzeOptions, Analyzer};
use dk_topologies::ba::{barabasi_albert, BaParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

/// Pivot budget of the large run's sampled metrics.
const SAMPLES: usize = 64;
/// Node count of the `--full` large-graph run.
const LARGE_N: usize = 1_000_000;

struct Args {
    full: bool,
    oracle_n: usize,
    threads: usize,
    seed: u64,
    out_dir: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        full: false,
        oracle_n: 5_000,
        threads: 0,
        seed: 20060911,
        out_dir: PathBuf::from("results"),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let usage = || -> ! {
        eprintln!(
            "flags: --full (add the 10^6-node streaming run)  --oracle-n N (default 5000)\n       --threads N (0 = all cores)  --seed N  --out DIR (default results/)"
        );
        std::process::exit(2)
    };
    while i < raw.len() {
        let flag = raw[i].as_str();
        match flag {
            "--full" => args.full = true,
            "--oracle-n" | "--threads" | "--seed" | "--out" => {
                i += 1;
                let Some(value) = raw.get(i) else {
                    eprintln!("error: {flag} needs a value");
                    usage()
                };
                match flag {
                    "--oracle-n" => {
                        args.oracle_n = value.parse().unwrap_or_else(|_| usage());
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
    proc_status_bytes("VmHWM:")
}

/// Current process RSS in bytes (Linux `VmRSS`; `None` elsewhere).
fn rss_now_bytes() -> Option<u64> {
    proc_status_bytes("VmRSS:")
}

fn proc_status_bytes(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find(|l| l.starts_with(key))?
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

/// The fused pass at one thread (the oracle) vs the run's thread count
/// at oracle-feasible scale: bit-identity asserted at the default and
/// at a non-default shard count, both timed.
fn oracle_stage(args: &Args, threads: usize) {
    let g = ba(args.oracle_n, args.seed);
    let csr = CsrGraph::from_graph(&g);
    println!(
        "oracle: BA n = {}, m = {}, threads = {threads}",
        g.node_count(),
        g.edge_count()
    );

    let fused = |shards: usize, workers: usize| {
        betweenness::betweenness_and_distances_sharded(&csr, shards, workers)
    };
    let (streamed_s, streamed) = time_s(|| fused(stream::DEFAULT_SHARDS, threads));
    println!(
        "fused, {threads} threads (S = {:>3})  {streamed_s:>8.2} s",
        stream::DEFAULT_SHARDS
    );
    let (serial_s, serial) = time_s(|| fused(stream::DEFAULT_SHARDS, 1));
    println!(
        "fused, 1 thread   (S = {:>3})  {serial_s:>8.2} s",
        stream::DEFAULT_SHARDS
    );
    assert_eq!(
        streamed.betweenness, serial.betweenness,
        "the fused pass must be bit-identical to its one-thread oracle"
    );
    assert_eq!(streamed.distances, serial.distances);
    assert_eq!(streamed.max_depth, serial.max_depth);

    // a non-default shard count changes the merge tree but never the
    // agreement across thread counts
    let odd = 7;
    let par7 = fused(odd, threads);
    let one7 = fused(odd, 1);
    assert_eq!(par7.betweenness, one7.betweenness, "shards = {odd}");
    assert_eq!(par7.distances, one7.distances);
    println!(
        "bit-identity: {threads} threads == 1 thread at S = {} and S = {odd}",
        stream::DEFAULT_SHARDS
    );

    let doc = json::object([
        ("bench".into(), "\"shard_oracle\"".into()),
        ("n".into(), g.node_count().to_string()),
        ("m".into(), g.edge_count().to_string()),
        ("threads".into(), threads.to_string()),
        ("shards".into(), stream::DEFAULT_SHARDS.to_string()),
        ("streamed_s".into(), json::number(streamed_s)),
        ("serial_s".into(), json::number(serial_s)),
        ("bit_identical".into(), "true".into()),
        (
            "per_worker_mb".into(),
            json::number(stream::per_worker_bytes(g.node_count()) as f64 / (1 << 20) as f64),
        ),
        (
            "csr_mb".into(),
            json::number(csr.size_bytes() as f64 / (1 << 20) as f64),
        ),
    ]);
    let out = args.out_dir.join("BENCH_metrics.json");
    append_json_line(&out, &doc).expect("append to BENCH_metrics.json");
    println!("appended to {}", out.display());
}

/// The 10⁶-node end-to-end streaming run: paper-default battery with the
/// exact all-pairs columns swapped for their sampled twins (see the
/// module docs), every traversal pass through the shard executor.
fn large_stage(args: &Args, threads: usize) {
    let battery =
        "n,m,gcc_fraction,k_avg,r,c_mean,s,s2,kcore_max,distance_approx,betweenness_approx";
    let (gen_s, g) = time_s(|| ba(LARGE_N, args.seed));
    println!(
        "large: BA n = {}, m = {}, generated in {gen_s:.1} s",
        g.node_count(),
        g.edge_count()
    );
    // the plan the analyzer actually resolves for these options (GCC
    // policy applied, post-extraction node count) — read back through
    // the cache rather than re-derived, so the bench record cannot
    // drift from the plan used
    let plan = AnalysisCache::build(
        &g,
        &[],
        &AnalyzeOptions {
            threads,
            samples: SAMPLES,
            ..Default::default()
        },
    )
    .exec_plan();

    // memory-model check: the per-worker accounting
    // (`stream::per_worker_bytes`: Brandes scratch, which also covers
    // the batched BFS scratch, plus slack) must stay an upper bound on
    // what a streamed pass actually adds to the process RSS
    let (rss_model_mb, rss_probe_mb) = {
        let csr = CsrGraph::from_graph(&g);
        let before = rss_now_bytes();
        let probe = std::hint::black_box(dk_metrics::sampled::sampled_traversal_sharded(
            &csr,
            SAMPLES,
            plan.shards,
            threads,
        ));
        drop(probe);
        let n = g.node_count();
        // workers × scratch + the O(n) global accumulator, plus slack
        // for allocator overhead and the pass's own output vectors
        let model = threads as u64 * stream::per_worker_bytes(n) + 8 * n as u64 + (64u64 << 20);
        match (before, rss_now_bytes()) {
            (Some(b), Some(a)) => {
                let grown = a.saturating_sub(b);
                assert!(
                    grown <= model,
                    "streamed pass grew RSS by {grown} B, over the {model} B model bound"
                );
                let mb = |x: u64| x as f64 / (1 << 20) as f64;
                println!(
                    "memory model: streamed sampled pass grew RSS by {:.0} MiB (model bound {:.0} MiB)",
                    mb(grown),
                    mb(model)
                );
                (Some(mb(model)), Some(mb(grown)))
            }
            _ => (None, None),
        }
    };

    let analyzer = Analyzer::new()
        .metric_names(battery)
        .expect("battery names are registered")
        .threads(threads)
        .sample_sources(SAMPLES);
    let (analyze_s, report) = time_s(|| analyzer.analyze(&g));
    let scalar = |name: &str| report.scalar(name).unwrap_or(f64::NAN);
    println!(
        "analyzed in {analyze_s:.1} s (S = {}, workers = {}): \
         d_avg_approx = {:.4}, b_max_approx = {:.6}, kcore_max = {}",
        plan.shards,
        plan.workers,
        scalar("distance_approx"),
        scalar("betweenness_approx"),
        scalar("kcore_max"),
    );
    let peak = peak_rss_bytes();
    if let Some(p) = peak {
        println!("peak RSS {:.0} MiB", p as f64 / (1 << 20) as f64);
    }

    let mut fields = vec![
        ("bench".into(), "\"shard_large\"".to_string()),
        ("n".into(), g.node_count().to_string()),
        ("m".into(), g.edge_count().to_string()),
        ("threads".into(), threads.to_string()),
        ("samples".into(), SAMPLES.to_string()),
        ("shards".into(), plan.shards.to_string()),
        ("workers".into(), plan.workers.to_string()),
        ("streamed".into(), "true".into()),
        ("battery".into(), format!("\"{battery}\"")),
        ("gen_s".into(), json::number(gen_s)),
        ("analyze_s".into(), json::number(analyze_s)),
        (
            "per_worker_mb".into(),
            json::number(stream::per_worker_bytes(g.node_count()) as f64 / (1 << 20) as f64),
        ),
        (
            "fixed_mb".into(),
            json::number(
                stream::fixed_bytes(g.node_count(), g.edge_count()) as f64 / (1 << 20) as f64,
            ),
        ),
        (
            "d_avg_approx".into(),
            json::number(scalar("distance_approx")),
        ),
        (
            "b_max_approx".into(),
            json::number(scalar("betweenness_approx")),
        ),
        ("kcore_max".into(), json::number(scalar("kcore_max"))),
    ];
    if let (Some(model), Some(probe)) = (rss_model_mb, rss_probe_mb) {
        fields.push(("rss_model_mb".into(), json::number(model)));
        fields.push(("rss_probe_mb".into(), json::number(probe)));
    }
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
