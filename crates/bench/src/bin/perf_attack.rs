//! **perf_attack** — the reverse union-find attack engine's perf and
//! correctness record: every strategy's incremental trajectory checked
//! bit for bit against a per-step component recompute oracle at an
//! oracle-feasible scale, and — with `--full` — full 10⁶-node
//! Barabási–Albert removal trajectories (degree, degree-adaptive,
//! random) with their interpolated halving thresholds.
//!
//! The naive sweep is `O(n·(n + m))` — at 10⁶ nodes, a million
//! component recomputes. The engine replays the removal order backwards
//! as union-find insertions and reads the whole trajectory out of one
//! `O(m·α)` pass (see `dk_metrics::attack`), so the full curve at 10⁶
//! nodes lands in seconds.
//!
//! Appends `"bench": "attack"` records (stages `oracle` / `large`) to
//! the `BENCH_metrics.json` JSON-lines log.
//!
//! ```text
//! cargo run -p dk-bench --release --bin perf_attack -- \
//!     [--full] [--oracle-n N] [--threads N] [--seed N] [--out DIR]
//! ```

use dk_bench::perf::{ba, mib, peak_rss_bytes, time_s, PerfArgs};
use dk_bench::set;
use dk_graph::{traversal, CsrGraph, Graph, NodeId};
use dk_metrics::attack::{gcc_trajectory, removal_order, threshold_from_sizes, Strategy};
use dk_metrics::json;

/// Node count of the `--full` large-graph runs.
const LARGE_N: usize = 1_000_000;
/// Pivot budget of the oracle stage's betweenness ranking.
const RANK_SAMPLES: usize = 16;

/// The `O(n·(n + m))` baseline: recompute the component structure from
/// scratch after every removal prefix.
fn oracle_trajectory(g: &Graph, order: &[NodeId]) -> (Vec<u32>, Vec<u32>) {
    let n = g.node_count();
    let mut alive = vec![true; n];
    let mut gcc_sizes = Vec::with_capacity(n + 1);
    let mut component_counts = Vec::with_capacity(n + 1);
    let snapshot = |alive: &[bool]| {
        let keep: Vec<NodeId> = (0..n as NodeId).filter(|&u| alive[u as usize]).collect();
        let (sub, _) = g.subgraph(&keep).expect("live nodes are valid");
        let sizes = traversal::component_sizes(&sub);
        (
            sizes.iter().copied().max().unwrap_or(0) as u32,
            sizes.len() as u32,
        )
    };
    let (s, c) = snapshot(&alive);
    gcc_sizes.push(s);
    component_counts.push(c);
    for &u in order {
        alive[u as usize] = false;
        let (s, c) = snapshot(&alive);
        gcc_sizes.push(s);
        component_counts.push(c);
    }
    (gcc_sizes, component_counts)
}

/// Engine vs per-step oracle for every strategy: bit-identical
/// trajectories, speedup recorded.
fn oracle_stage(args: &PerfArgs, oracle_n: usize) {
    let threads = args.threads;
    let g = ba(oracle_n, args.seed);
    let csr = CsrGraph::from_graph(&g);
    println!(
        "oracle: BA n = {}, m = {}, threads = {threads}",
        g.node_count(),
        g.edge_count()
    );
    let mut fields = vec![
        ("bench".into(), "\"attack\"".to_string()),
        ("stage".into(), "\"oracle\"".to_string()),
        ("n".into(), g.node_count().to_string()),
        ("m".into(), g.edge_count().to_string()),
        ("threads".into(), threads.to_string()),
    ];
    for strategy in Strategy::all() {
        let order = removal_order(&csr, strategy, args.seed, RANK_SAMPLES, threads);
        let (engine_s, engine) = time_s(|| gcc_trajectory(&csr, &order));
        let (oracle_s, oracle) = time_s(|| oracle_trajectory(&g, &order));
        assert_eq!(
            engine, oracle,
            "{strategy}: engine trajectory diverged from the per-step oracle"
        );
        let threshold = threshold_from_sizes(&engine.0, g.node_count(), 0.5);
        println!(
            "{strategy:>16}: engine {engine_s:>9.4} s, oracle {oracle_s:>8.2} s ({:>6.0}x), threshold = {}",
            oracle_s / engine_s.max(1e-9),
            threshold.map_or("undefined".into(), |t| format!("{t:.4}")),
        );
        let key = strategy.name().replace('-', "_");
        fields.push((format!("engine_s_{key}"), json::number(engine_s)));
        fields.push((format!("oracle_s_{key}"), json::number(oracle_s)));
        if let Some(t) = threshold {
            fields.push((format!("threshold_{key}"), json::number(t)));
        }
    }
    args.record(fields);
}

/// The 10⁶-node trajectories: ranking + one reverse sweep per strategy.
fn large_stage(args: &PerfArgs) {
    let threads = args.threads;
    let (gen_s, g) = time_s(|| ba(LARGE_N, args.seed));
    println!(
        "large: BA n = {}, m = {}, generated in {gen_s:.1} s",
        g.node_count(),
        g.edge_count()
    );
    let (csr_s, csr) = time_s(|| CsrGraph::from_graph(&g));
    let mut fields = vec![
        ("bench".into(), "\"attack\"".to_string()),
        ("stage".into(), "\"large\"".to_string()),
        ("n".into(), g.node_count().to_string()),
        ("m".into(), g.edge_count().to_string()),
        ("threads".into(), threads.to_string()),
        ("gen_s".into(), json::number(gen_s)),
        ("csr_s".into(), json::number(csr_s)),
    ];
    for strategy in [Strategy::Degree, Strategy::DegreeAdaptive, Strategy::Random] {
        let (rank_s, order) =
            time_s(|| removal_order(&csr, strategy, args.seed, RANK_SAMPLES, threads));
        let (sweep_s, (sizes, _counts)) = time_s(|| gcc_trajectory(&csr, &order));
        let threshold = threshold_from_sizes(&sizes, g.node_count(), 0.5);
        println!(
            "{strategy:>16}: rank {rank_s:>6.2} s + sweep {sweep_s:>6.2} s, threshold = {}",
            threshold.map_or("undefined".into(), |t| format!("{t:.4}")),
        );
        let key = strategy.name().replace('-', "_");
        fields.push((format!("rank_s_{key}"), json::number(rank_s)));
        fields.push((format!("sweep_s_{key}"), json::number(sweep_s)));
        if let Some(t) = threshold {
            fields.push((format!("threshold_{key}"), json::number(t)));
        }
    }
    if let Some(p) = peak_rss_bytes() {
        println!("peak RSS {:.0} MiB", mib(p));
        fields.push(("peak_rss_mb".into(), json::number(mib(p))));
    }
    args.record(fields);
}

fn main() {
    let mut oracle_n = 2_000;
    let args = PerfArgs::from_args(
        "--full (add the 10^6-node trajectories)  --oracle-n N (default 2000)",
        vec![("--oracle-n", set(&mut oracle_n))],
    );
    oracle_stage(&args, oracle_n);
    if args.full {
        large_stage(&args);
    }
}
