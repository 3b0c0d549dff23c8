//! # dk-cli — command implementations for the `dk` tool
//!
//! The paper announces the release of "source code for our analysis tools
//! to measure an input graph's dK-distribution and our generator able to
//! produce random graphs possessing properties `P_d` for d < 4" — the
//! Orbis tool chain. This crate is that interface:
//!
//! ```text
//! dk extract  <d> <graph.edges> -o <dist.dk>      measure a dK-distribution
//! dk generate <d> <dist.dk>     -o <out.edges>    construct a dK-graph
//! dk rewire   <d> <graph.edges> -o <out.edges>    dK-randomizing rewiring
//! dk explore  <s|s2|c> <min|max> <graph.edges> -o <out.edges>
//! dk metrics  <graph.edges> [--metrics LIST] [--format text|json] [--no-gcc] [--samples K]
//!             [--sketch-bits B] [--shards N] [--memory-budget B]
//! dk compare  <a.edges> <b.edges> [--metrics LIST] [--format text|json] [--no-gcc] [--samples K]
//!             [--sketch-bits B] [--shards N] [--memory-budget B]
//! dk attack   <graph.edges> [--strategy S] [--checkpoints F,..] [--seed N] [--format text|json]
//! dk census   <graph.edges>                       Table 5 census
//! dk viz      <graph.edges>     -o <out.svg>      layout + SVG
//! ```
//!
//! All logic lives here (testable, returns `Result`); `main.rs` only
//! parses arguments and prints errors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dk_core::dist::{AnyDist, Dist1K, Dist2K, Dist3K};
use dk_core::explore::{explore_1k_likelihood, explore_2k, Direction, ExploreOptions, Objective2K};
use dk_core::generate::rewire::{randomize, RewireOptions, SwapBudget};
use dk_core::generate::Generator;
use dk_core::{census, io as dist_io};
use dk_graph::{io as graph_io, GraphError};
use dk_metrics::{
    json, sketch, Analyzer, AnyMetric, AttackOptions, GccPolicy, MetricTable, Strategy,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::str::FromStr;

/// Construction algorithm selector for `dk generate`.
///
/// The canonical name set (`stochastic | pseudograph | matching |
/// targeting | rewiring`) lives in core — the CLI, the bench harness,
/// and tests all parse and print through [`dk_core::generate::Method`].
pub type GenAlgo = dk_core::generate::Method;

/// `dk extract`: writes the dK-distribution of a graph to a text file.
pub fn cmd_extract(d: u8, graph_path: &Path, out: &Path) -> Result<String, GraphError> {
    let g = graph_io::load_edge_list(graph_path)?;
    let mut buf = Vec::new();
    let what = match d {
        1 => {
            dist_io::write_1k(&Dist1K::from_graph(&g), &mut buf)?;
            "1K (degree distribution)"
        }
        2 => {
            dist_io::write_2k(&Dist2K::from_graph(&g), &mut buf)?;
            "2K (joint degree distribution)"
        }
        3 => {
            dist_io::write_3k(&Dist3K::from_graph(&g), &mut buf)?;
            "3K (wedge + triangle distributions)"
        }
        other => {
            return Err(GraphError::ConstructionFailed(format!(
                "extract supports d in 1..=3, got {other}"
            )))
        }
    };
    std::fs::write(out, &buf)?;
    Ok(format!(
        "extracted {what} of {} (n = {}, m = {}) -> {}",
        graph_path.display(),
        g.node_count(),
        g.edge_count(),
        out.display()
    ))
}

/// `dk generate`: constructs a dK-graph from a distribution file.
///
/// Single dispatch through the capability-checked [`Generator`] facade —
/// unsupported `(d, algorithm)` cells surface as typed errors from core,
/// not as CLI-side matches.
pub fn cmd_generate(
    d: u8,
    dist_path: &Path,
    out: &Path,
    algo: GenAlgo,
    seed: u64,
) -> Result<String, GraphError> {
    if !(1..=3).contains(&d) {
        return Err(GraphError::ConstructionFailed(format!(
            "generate supports d in 1..=3, got {d}"
        )));
    }
    if algo.needs_reference() {
        return Err(GraphError::ConstructionFailed(
            "--algo rewiring constructs by rewiring an existing graph, not from a \
             distribution file — use `dk rewire <d> <graph.edges>` instead"
                .into(),
        ));
    }
    let file = std::fs::File::open(dist_path)?;
    let dist = AnyDist::read(d, file)?;
    let generated = Generator::new(algo)
        .seed(seed)
        .build(&dist)
        .map_err(GraphError::from)?;
    let g = generated.graph;
    graph_io::save_edge_list(&g, out)?;
    Ok(format!(
        "generated {d}K-graph via {algo}: n = {}, m = {} -> {}",
        g.node_count(),
        g.edge_count(),
        out.display()
    ))
}

/// `dk rewire`: dK-randomizing rewiring of a graph.
pub fn cmd_rewire(
    d: u8,
    graph_path: &Path,
    out: &Path,
    attempts: Option<u64>,
    seed: u64,
) -> Result<String, GraphError> {
    if d > 3 {
        return Err(GraphError::ConstructionFailed(format!(
            "rewire supports d in 0..=3, got {d}"
        )));
    }
    let mut g = graph_io::load_edge_list(graph_path)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let opts = RewireOptions {
        budget: attempts.map_or(SwapBudget::AttemptsPerEdge(50.0), SwapBudget::Attempts),
    };
    let stats = randomize(&mut g, d, &opts, &mut rng);
    graph_io::save_edge_list(&g, out)?;
    Ok(format!(
        "{d}K-randomized: {} accepted / {} attempted swaps -> {}",
        stats.accepted,
        stats.attempts,
        out.display()
    ))
}

/// `dk explore`: drive S, S2, or C̄ to an extreme.
pub fn cmd_explore(
    objective: &str,
    direction: &str,
    graph_path: &Path,
    out: &Path,
    seed: u64,
) -> Result<String, GraphError> {
    let mut g = graph_io::load_edge_list(graph_path)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let dir = match direction {
        "min" => Direction::Minimize,
        "max" => Direction::Maximize,
        other => {
            return Err(GraphError::ConstructionFailed(format!(
                "direction must be min or max, got {other:?}"
            )))
        }
    };
    let opts = ExploreOptions::default();
    let stats = match objective {
        "s" => explore_1k_likelihood(&mut g, dir, &opts, &mut rng),
        "s2" => explore_2k(
            &mut g,
            Objective2K::SecondOrderLikelihood,
            dir,
            &opts,
            &mut rng,
        ),
        "c" => explore_2k(&mut g, Objective2K::MeanClustering, dir, &opts, &mut rng),
        other => {
            return Err(GraphError::ConstructionFailed(format!(
                "objective must be s, s2, or c, got {other:?}"
            )))
        }
    };
    graph_io::save_edge_list(&g, out)?;
    Ok(format!(
        "explored {objective} {direction}: {} -> {} ({} accepted moves) -> {}",
        stats.initial_value,
        stats.final_value,
        stats.accepted,
        out.display()
    ))
}

/// Output format shared by `dk metrics` and `dk compare`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutputFormat {
    /// Human-readable text (the default).
    #[default]
    Text,
    /// Machine-readable JSON (hand-rolled; see `dk_metrics::json`).
    Json,
}

impl FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "text" => Ok(OutputFormat::Text),
            "json" => Ok(OutputFormat::Json),
            other => Err(format!("unknown format {other:?} (text|json)")),
        }
    }
}

/// Options for [`cmd_metrics`], mapped one-to-one from CLI flags.
#[derive(Clone, Debug, Default)]
pub struct MetricsOptions {
    /// `--metrics LIST`: comma-separated names/sets (see
    /// [`AnyMetric::parse_list`]); `None` = the paper's default battery,
    /// `Some("help")` prints the capability listing.
    pub metrics: Option<String>,
    /// `--format text|json`.
    pub format: OutputFormat,
    /// `--no-gcc` clears this (default: extract the GCC, §5.2).
    pub gcc_off: bool,
    /// `--samples K`: pivot budget for the sampled `*_approx` metrics
    /// (`None` = the analyzer default, 64).
    pub samples: Option<usize>,
    /// `--sketch-bits B`: HyperLogLog register bits for the sketch
    /// `*_sketch` metrics, range-checked at parse time by
    /// [`parse_sketch_bits`] (`None` = the analyzer default, 8).
    pub sketch_bits: Option<u32>,
    /// `--shards N`: source shard count for the all-pairs/sampled
    /// traversal passes; it fixes the merge tree of the betweenness
    /// passes (`None` = the analyzer default, 64).
    pub shards: Option<usize>,
    /// `--memory-budget BYTES`: traversal working-memory cap (accepts
    /// K/M/G suffixes at parse time); caps the worker count.
    pub memory_budget: Option<u64>,
}

/// Parses a `--memory-budget` value: a positive integer byte count with
/// an optional `K`/`M`/`G` suffix (powers of 1024, case-insensitive) —
/// e.g. `512M`, `2G`, `67108864`.
pub fn parse_memory_budget(s: &str) -> Result<u64, String> {
    let bad = || {
        format!(
            "bad --memory-budget {s:?}: use a positive byte count, \
             optionally with a K/M/G suffix (e.g. 512M, 2G)"
        )
    };
    let (digits, shift) = match s.chars().last() {
        Some('k') | Some('K') => (&s[..s.len() - 1], 10),
        Some('m') | Some('M') => (&s[..s.len() - 1], 20),
        Some('g') | Some('G') => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let value: u64 = digits.parse().map_err(|_| bad())?;
    if value == 0 {
        return Err(bad());
    }
    value
        .checked_shl(shift)
        .filter(|v| *v >> shift == value)
        .ok_or_else(bad)
}

/// Parses a `--sketch-bits` value: a register-bit count accepted by
/// [`sketch::checked_bits`] (each analyzed node carries `2^B` one-byte
/// registers, so `B` outside that window is either statistically
/// useless or a memory foot-gun).
pub fn parse_sketch_bits(s: &str) -> Result<u32, String> {
    s.parse()
        .ok()
        .and_then(sketch::checked_bits)
        .ok_or_else(|| {
            format!(
                "bad --sketch-bits {s:?}: need a register-bit count in {}..={} \
             (e.g. --sketch-bits 8; error ~1.04/sqrt(2^B), memory n*2^B bytes)",
                sketch::MIN_SKETCH_BITS,
                sketch::MAX_SKETCH_BITS
            )
        })
}

/// Parses a `--shards` value: a positive shard count.
pub fn parse_shards(s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "bad --shards {s:?}: need a positive shard count (e.g. --shards 64)"
        )),
    }
}

fn build_analyzer(
    opts: &MetricsOptions,
    default_metrics: Option<&str>,
) -> Result<Analyzer, GraphError> {
    let mut analyzer = Analyzer::new();
    if let Some(list) = opts.metrics.as_deref().or(default_metrics) {
        analyzer = analyzer
            .metric_names(list)
            .map_err(GraphError::ConstructionFailed)?;
    }
    if opts.gcc_off {
        analyzer = analyzer.gcc(GccPolicy::Whole);
    }
    if let Some(k) = opts.samples {
        analyzer = analyzer.sample_sources(k);
    }
    if let Some(bits) = opts.sketch_bits {
        analyzer = analyzer.sketch_bits(bits);
    }
    if let Some(shards) = opts.shards {
        analyzer = analyzer.shards(shards);
    }
    if let Some(budget) = opts.memory_budget {
        analyzer = analyzer.memory_budget(budget);
    }
    Ok(analyzer)
}

/// `dk compare`: the paper's abstract promises we "can quantitatively
/// measure the distance between two graphs" — this prints `D_1`, `D_2`,
/// `D_3` between two edge lists, plus their scalar batteries side by
/// side (one [`Analyzer`] pass per graph, shared `MetricTable`
/// formatter).
///
/// Honors the full flag set: `--metrics` (default: the `cheap` scalar
/// set), `--no-gcc`, `--format`.
pub fn cmd_compare(
    a_path: &Path,
    b_path: &Path,
    opts: &MetricsOptions,
) -> Result<String, GraphError> {
    if opts.metrics.as_deref() == Some("help") {
        return Ok(AnyMetric::listing());
    }
    let a = graph_io::load_edge_list(a_path)?;
    let b = graph_io::load_edge_list(b_path)?;
    let d1 = Dist1K::from_graph(&a).distance_sq(&Dist1K::from_graph(&b));
    let d2 = Dist2K::from_graph(&a).distance_sq(&Dist2K::from_graph(&b));
    let d3 = Dist3K::from_graph(&a).distance_sq(&Dist3K::from_graph(&b));
    let analyzer = build_analyzer(opts, Some("cheap"))?;
    let ra = analyzer.analyze(&a);
    let rb = analyzer.analyze(&b);
    match opts.format {
        OutputFormat::Json => {
            // reports nest under fixed keys — raw paths as keys could
            // collide with each other or with d1/d2/d3
            let side = |path: &Path, rep: dk_metrics::Report| {
                json::object([
                    (
                        "path".into(),
                        format!("\"{}\"", json::escape(&path.display().to_string())),
                    ),
                    ("report".into(), rep.to_json()),
                ])
            };
            Ok(json::object([
                ("d1".into(), json::number(d1)),
                ("d2".into(), json::number(d2)),
                ("d3".into(), json::number(d3)),
                ("a".into(), side(a_path, ra)),
                ("b".into(), side(b_path, rb)),
            ]))
        }
        OutputFormat::Text => {
            let mut table = MetricTable::new();
            table.push(a_path.display().to_string(), ra);
            table.push(b_path.display().to_string(), rb);
            Ok(format!(
                "dK distances (sums of squared count differences; 0 = same distribution):\n\
                 D1 = {d1}\nD2 = {d2}\nD3 = {d3}\n\n{}",
                table.render()
            ))
        }
    }
}

/// `dk metrics`: analyzes one graph through the [`Analyzer`] facade,
/// over the CSR read straight from the edge list (no [`dk_graph::Graph`]
/// is built).
///
/// The default selection is the paper's Table 2 battery; `--metrics`
/// takes any registry names or sets (`--metrics all` includes
/// betweenness, `--metrics help` lists capabilities), `--no-gcc` skips
/// GCC extraction, `--samples K` sets the pivot budget of the sampled
/// `*_approx` metrics, `--sketch-bits B` sets the HyperLogLog register
/// bits of the sketch `*_sketch` metrics (error `1.04/√2^B`, memory
/// `n·2^B` bytes), `--shards N` fixes the merge tree of the sharded
/// traversal passes, `--memory-budget B` caps their worker count
/// (identical results, memory bounded by workers), and `--format json`
/// emits the machine-readable report.
pub fn cmd_metrics(graph_path: &Path, opts: &MetricsOptions) -> Result<String, GraphError> {
    if opts.metrics.as_deref() == Some("help") {
        return Ok(AnyMetric::listing());
    }
    let g = graph_io::load_edge_list_csr(graph_path)?;
    let analyzer = build_analyzer(opts, None)?;
    let rep = analyzer.analyze_csr(&g);
    Ok(match opts.format {
        OutputFormat::Json => rep.to_json(),
        OutputFormat::Text => format!("{}\n{}", graph_path.display(), rep.to_text()),
    })
}

/// Options for [`cmd_attack`], mapped one-to-one from CLI flags.
#[derive(Clone, Debug)]
pub struct AttackCmdOptions {
    /// `--strategy S`: removal-order strategy name (`None` = `degree`).
    pub strategy: Option<String>,
    /// `--seed N`: seed of the `random` strategy's order (default 1,
    /// like the other verbs; the ranked strategies ignore it).
    pub seed: u64,
    /// `--checkpoints F1,F2,...`: removal fractions in `0..=1` at which
    /// to probe the residual GCC (`None` = `0.01,0.05,0.1,0.25,0.5`).
    pub checkpoints: Option<String>,
    /// `--format text|json`.
    pub format: OutputFormat,
    /// `--no-gcc` clears this (default: sweep the GCC, §5.2).
    pub gcc_off: bool,
    /// `--samples K`: pivot budget of the betweenness ranking and the
    /// checkpoint distance probes (`None` = the analyzer default, 64).
    pub samples: Option<usize>,
}

impl Default for AttackCmdOptions {
    fn default() -> Self {
        AttackCmdOptions {
            strategy: None,
            seed: 1,
            checkpoints: None,
            format: OutputFormat::Text,
            gcc_off: false,
            samples: None,
        }
    }
}

/// Parses a `--checkpoints` value: comma-separated removal fractions,
/// each in `0.0..=1.0`, returned sorted ascending with exact
/// duplicates removed — e.g. `0.5,0.1,0.1` parses to `[0.1, 0.5]`.
/// Normalizing here keeps the CLI surface honest about what the sweep
/// actually probes (the report is checkpoint-sorted regardless), so
/// echoed option strings and downstream keys never disagree on order.
pub fn parse_checkpoints(s: &str) -> Result<Vec<f64>, String> {
    let bad = || {
        format!(
            "bad --checkpoints {s:?}: use comma-separated removal fractions \
             in 0..=1 (e.g. --checkpoints 0.05,0.1,0.25)"
        )
    };
    let mut fractions = s
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| match t.parse::<f64>() {
            Ok(f) if (0.0..=1.0).contains(&f) => Ok(f),
            _ => Err(bad()),
        })
        .collect::<Result<Vec<f64>, String>>()?;
    if fractions.is_empty() {
        return Err(bad());
    }
    // every value passed the 0..=1 range check, so no NaNs here
    fractions.sort_by(f64::total_cmp);
    fractions.dedup();
    Ok(fractions)
}

/// `dk attack`: node-removal percolation sweep over one graph.
///
/// Computes the full GCC-fraction trajectory under the chosen removal
/// strategy (one reverse union-find pass — see `dk_metrics::attack`),
/// probes the residual GCC at the requested removal fractions, and
/// reports the interpolated fraction where the GCC halves. `--format
/// json` emits the machine-readable report with a decimated curve.
pub fn cmd_attack(graph_path: &Path, opts: &AttackCmdOptions) -> Result<String, GraphError> {
    let strategy: Strategy = match opts.strategy.as_deref() {
        None => Strategy::Degree,
        Some(s) => s.parse().map_err(|_| {
            GraphError::ConstructionFailed(format!(
                "bad --strategy {s:?}: use random, degree, betweenness, or degree-adaptive"
            ))
        })?,
    };
    let checkpoints = match opts.checkpoints.as_deref() {
        None => vec![0.01, 0.05, 0.1, 0.25, 0.5],
        Some(s) => parse_checkpoints(s).map_err(GraphError::ConstructionFailed)?,
    };
    let g = graph_io::load_edge_list_csr(graph_path)?;
    let mut analyzer = Analyzer::new();
    if opts.gcc_off {
        analyzer = analyzer.gcc(GccPolicy::Whole);
    }
    if let Some(k) = opts.samples {
        analyzer = analyzer.sample_sources(k);
    }
    let rep = analyzer.attack_csr(
        &g,
        &AttackOptions {
            strategy,
            seed: opts.seed,
            checkpoints,
        },
    );
    Ok(match opts.format {
        OutputFormat::Json => rep.to_json(),
        OutputFormat::Text => {
            let mut out = format!(
                "attack sweep of {} (strategy {}, analyzed n = {}, m = {})\n",
                graph_path.display(),
                rep.strategy,
                rep.nodes,
                rep.edges
            );
            match rep.threshold(0.5) {
                Some(t) => out.push_str(&format!("GCC halves at removal fraction {t:.6}\n")),
                None => out.push_str("GCC never drops below 1/2\n"),
            }
            out.push_str(&format!(
                "{:>9} {:>8} {:>9} {:>11} {:>13} {:>9}\n",
                "fraction", "removed", "gcc", "components", "avg distance", "hub"
            ));
            for c in &rep.checkpoints {
                out.push_str(&format!(
                    "{:>9.4} {:>8} {:>9.4} {:>11} {:>13} {:>9}\n",
                    c.fraction,
                    c.removed,
                    c.gcc_fraction,
                    c.components,
                    c.avg_distance_estimate
                        .map_or("-".to_string(), |d| format!("{d:.4}")),
                    c.hub.map_or("-".to_string(), |h| h.to_string()),
                ));
            }
            out
        }
    })
}

/// `dk serve`: runs the analysis/generation daemon in the foreground
/// until a client sends the `shutdown` op. The protocol reference
/// lives in the `dk_serve` crate docs.
pub fn cmd_serve(
    socket: &Path,
    memory_budget: Option<u64>,
    threads: usize,
) -> Result<String, GraphError> {
    let config = dk_serve::ServerConfig {
        socket: socket.to_path_buf(),
        memory_budget,
        threads,
    };
    dk_serve::run(&config)
        .map_err(|e| GraphError::ConstructionFailed(format!("serve failed on {socket:?}: {e}")))?;
    Ok(format!(
        "serve: shut down, removed socket {}",
        socket.display()
    ))
}

/// `dk client`: sends one JSON request line to a running daemon and
/// prints the one-line response.
pub fn cmd_client(socket: &Path, request: &str) -> Result<String, GraphError> {
    dk_serve::one_shot(socket, request)
        .map_err(|e| GraphError::ConstructionFailed(format!("client failed on {socket:?}: {e}")))
}

/// `dk census`: prints the Table 5 rewiring census.
pub fn cmd_census(graph_path: &Path, max_d: u8) -> Result<String, GraphError> {
    let g = graph_io::load_edge_list(graph_path)?;
    let mut out = format!(
        "rewiring census of {} (n = {}, m = {}):\n{:>3} {:>16} {:>22}\n",
        graph_path.display(),
        g.node_count(),
        g.edge_count(),
        "d",
        "possible",
        "minus obvious isos"
    );
    for d in 0..=max_d.min(3) {
        let c = census::count_initial_rewirings(&g, d);
        out.push_str(&format!(
            "{d:>3} {:>16} {:>22}\n",
            c.total,
            c.excluding_obvious_isomorphic
                .map_or("-".to_string(), |v| v.to_string())
        ));
    }
    Ok(out)
}

/// `dk viz`: force-directed layout to SVG.
pub fn cmd_viz(graph_path: &Path, out: &Path, seed: u64) -> Result<String, GraphError> {
    let g = graph_io::load_edge_list(graph_path)?;
    let (gcc, _) = dk_graph::giant_component(&g);
    let mut rng = StdRng::seed_from_u64(seed);
    let layout_opts = dk_graph::layout::LayoutOptions {
        repulsion_sample: if gcc.node_count() > 2500 {
            Some(32)
        } else {
            None
        },
        ..Default::default()
    };
    let pos = dk_graph::layout::fruchterman_reingold(&gcc, &layout_opts, &mut rng);
    let svg = dk_graph::svg::render_svg(
        &gcc,
        &pos,
        &dk_graph::svg::SvgOptions {
            title: graph_path.display().to_string(),
            ..Default::default()
        },
    );
    std::fs::write(out, svg)?;
    Ok(format!(
        "rendered GCC (n = {}) -> {}",
        gcc.node_count(),
        out.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;

    /// The scratch directory of one test, removed when dropped. The
    /// process id and the test name in its path keep tests running in
    /// parallel (and concurrent test processes) from reading each
    /// other's half-written files.
    struct Scratch(std::path::PathBuf);

    impl std::ops::Deref for Scratch {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn scratch(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("dk_cli_{}_{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn write_karate(dir: &Path) -> std::path::PathBuf {
        let p = dir.join("karate.edges");
        graph_io::save_edge_list(&builders::karate_club(), &p).unwrap();
        p
    }

    #[test]
    fn extract_generate_roundtrip_2k() {
        let dir = scratch("extract_generate_roundtrip_2k");
        let graph = write_karate(&dir);
        let dist = dir.join("karate.2k");
        let out = dir.join("karate_2k.edges");
        cmd_extract(2, &graph, &dist).unwrap();
        let msg = cmd_generate(2, &dist, &out, GenAlgo::Matching, 7).unwrap();
        assert!(msg.contains("m = 78"), "{msg}");
        let g = graph_io::load_edge_list(&out).unwrap();
        assert_eq!(
            Dist2K::from_graph(&g),
            Dist2K::from_graph(&builders::karate_club())
        );
    }

    #[test]
    fn extract_rejects_bad_d() {
        let dir = scratch("extract_rejects_bad_d");
        let graph = write_karate(&dir);
        assert!(cmd_extract(0, &graph, &dir.join("x.dk")).is_err());
        assert!(cmd_extract(4, &graph, &dir.join("x.dk")).is_err());
    }

    #[test]
    fn generate_3k_requires_targeting() {
        let dir = scratch("generate_3k_requires_targeting");
        let graph = write_karate(&dir);
        let dist = dir.join("karate.3k");
        cmd_extract(3, &graph, &dist).unwrap();
        let err = cmd_generate(3, &dist, &dir.join("y.edges"), GenAlgo::Matching, 1).unwrap_err();
        assert!(err.to_string().contains("targeting"), "{err}");
    }

    #[test]
    fn rewire_preserves_level() {
        let dir = scratch("rewire_preserves_level");
        let graph = write_karate(&dir);
        let out = dir.join("karate_rw.edges");
        let msg = cmd_rewire(2, &graph, &out, Some(2000), 3).unwrap();
        assert!(msg.contains("accepted"), "{msg}");
        let g = graph_io::load_edge_list(&out).unwrap();
        assert_eq!(
            Dist2K::from_graph(&g),
            Dist2K::from_graph(&builders::karate_club())
        );
    }

    #[test]
    fn explore_moves_objective() {
        let dir = scratch("explore_moves_objective");
        let graph = write_karate(&dir);
        let out = dir.join("karate_maxs.edges");
        let msg = cmd_explore("s", "max", &graph, &out, 5).unwrap();
        assert!(msg.contains("accepted moves"), "{msg}");
        assert!(cmd_explore("bogus", "max", &graph, &out, 5).is_err());
        assert!(cmd_explore("s", "sideways", &graph, &out, 5).is_err());
    }

    #[test]
    fn compare_zero_on_identical_graphs() {
        let dir = scratch("compare_zero_on_identical_graphs");
        let graph = write_karate(&dir);
        let out = cmd_compare(&graph, &graph, &MetricsOptions::default()).unwrap();
        assert!(out.contains("D1 = 0"), "{out}");
        assert!(out.contains("D2 = 0"));
        assert!(out.contains("D3 = 0"));
        assert!(out.contains("k_avg"), "side-by-side battery: {out}");
        // and nonzero against a rewired version
        let rw = dir.join("karate_cmp.edges");
        cmd_rewire(1, &graph, &rw, Some(2000), 9).unwrap();
        let out = cmd_compare(&graph, &rw, &MetricsOptions::default()).unwrap();
        assert!(out.contains("D1 = 0"), "1K preserved: {out}");
        assert!(!out.contains("D2 = 0"), "JDD should differ: {out}");
    }

    #[test]
    fn compare_json_carries_distances_and_reports() {
        let dir = scratch("compare_json_carries_distances_and_reports");
        let graph = write_karate(&dir);
        let out = cmd_compare(
            &graph,
            &graph,
            &MetricsOptions {
                format: OutputFormat::Json,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.contains("\"d1\":0"), "{out}");
        assert!(out.contains("\"d3\":0"), "{out}");
        assert!(out.contains("\"k_avg\":"), "{out}");
        // identical paths must not collide: reports nest under a/b
        assert!(out.contains("\"a\":{\"path\":"), "{out}");
        assert!(out.contains("\"b\":{\"path\":"), "{out}");
    }

    #[test]
    fn compare_honors_metrics_and_gcc_flags() {
        let dir = scratch("compare_honors_metrics_and_gcc_flags");
        let graph = write_karate(&dir);
        // custom metric selection flows into the side-by-side battery
        let out = cmd_compare(
            &graph,
            &graph,
            &MetricsOptions {
                metrics: Some("k_avg,b_max".into()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(out.contains("b_max"), "{out}");
        // bad selections fail instead of being silently ignored
        assert!(cmd_compare(
            &graph,
            &graph,
            &MetricsOptions {
                metrics: Some("bogus".into()),
                ..Default::default()
            },
        )
        .is_err());
    }

    #[test]
    fn metrics_and_census_render() {
        let dir = scratch("metrics_and_census_render");
        let graph = write_karate(&dir);
        let m = cmd_metrics(&graph, &MetricsOptions::default()).unwrap();
        assert!(m.contains("n = 34"));
        assert!(m.contains("k_avg"));
        assert!(m.contains("lambda1"), "default battery is full: {m}");
        let c = cmd_census(&graph, 1).unwrap();
        assert!(c.lines().count() >= 4);
    }

    #[test]
    fn metrics_selection_reaches_betweenness() {
        let dir = scratch("metrics_selection_reaches_betweenness");
        // pre-facade, betweenness was unreachable from the CLI
        let graph = write_karate(&dir);
        let m = cmd_metrics(
            &graph,
            &MetricsOptions {
                metrics: Some("b_max,b_k".into()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(m.contains("b_max"), "{m}");
        assert!(m.contains("b_k:"), "series block: {m}");
        let err = cmd_metrics(
            &graph,
            &MetricsOptions {
                metrics: Some("bogus".into()),
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown metric"), "{err}");
    }

    #[test]
    fn metrics_sampled_selection_and_samples_flag() {
        let dir = scratch("metrics_sampled_selection_and_samples_flag");
        let graph = write_karate(&dir);
        // samples >= n: sampled metrics must equal their exact twins
        let opts = MetricsOptions {
            metrics: Some("d_avg,b_max,distance_approx,betweenness_approx".into()),
            samples: Some(64),
            ..Default::default()
        };
        let m = cmd_metrics(&graph, &opts).unwrap();
        let value = |name: &str| {
            m.lines()
                .find(|l| l.starts_with(name))
                .unwrap_or_else(|| panic!("{name} missing in {m}"))
                .split_whitespace()
                .nth(1)
                .unwrap()
                .to_string()
        };
        assert_eq!(value("distance_approx"), value("d_avg"), "{m}");
        assert_eq!(value("betweenness_approx"), value("b_max"), "{m}");
        // a small pivot budget still produces defined values
        let approx = cmd_metrics(
            &graph,
            &MetricsOptions {
                metrics: Some("distance_approx".into()),
                samples: Some(8),
                format: OutputFormat::Json,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(approx.contains("\"distance_approx\":"), "{approx}");
        assert!(!approx.contains("null"), "{approx}");
    }

    #[test]
    fn memory_budget_parsing() {
        assert_eq!(parse_memory_budget("123").unwrap(), 123);
        assert_eq!(parse_memory_budget("4K").unwrap(), 4096);
        assert_eq!(parse_memory_budget("512m").unwrap(), 512 << 20);
        assert_eq!(parse_memory_budget("2G").unwrap(), 2 << 30);
        for bad in [
            "0",
            "0M",
            "",
            "G",
            "12X",
            "-5",
            "1.5G",
            "99999999999999999999G",
        ] {
            let err = parse_memory_budget(bad).unwrap_err();
            assert!(err.contains("--memory-budget"), "{bad}: {err}");
            assert!(err.contains("512M"), "hint present: {err}");
        }
    }

    #[test]
    fn sketch_bits_parsing() {
        assert_eq!(parse_sketch_bits("4").unwrap(), 4);
        assert_eq!(parse_sketch_bits("8").unwrap(), 8);
        assert_eq!(parse_sketch_bits("16").unwrap(), 16);
        for bad in ["3", "17", "0", "", "-8", "8.5", "many"] {
            let err = parse_sketch_bits(bad).unwrap_err();
            assert!(err.contains("--sketch-bits"), "{bad}: {err}");
            assert!(err.contains("4..=16"), "range named: {err}");
        }
    }

    #[test]
    fn metrics_sketch_selection_and_bits_flag() {
        let dir = scratch("metrics_sketch_selection_and_bits_flag");
        let graph = write_karate(&dir);
        // sketch metrics are reachable by name and defined on karate
        let m = cmd_metrics(
            &graph,
            &MetricsOptions {
                metrics: Some("d_avg,avg_distance_sketch,effective_diameter_sketch".into()),
                sketch_bits: Some(10),
                format: OutputFormat::Json,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(m.contains("\"avg_distance_sketch\":"), "{m}");
        assert!(m.contains("\"effective_diameter_sketch\":"), "{m}");
        assert!(!m.contains("null"), "sketch values defined: {m}");
        // the series twin renders as a [[x, p], ...] series
        let s = cmd_metrics(
            &graph,
            &MetricsOptions {
                metrics: Some("distance_sketch".into()),
                sketch_bits: Some(8),
                format: OutputFormat::Json,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(s.contains("\"distance_sketch\":[[1,"), "{s}");
    }

    #[test]
    fn shards_parsing() {
        assert_eq!(parse_shards("1").unwrap(), 1);
        assert_eq!(parse_shards("64").unwrap(), 64);
        for bad in ["0", "", "-2", "many"] {
            let err = parse_shards(bad).unwrap_err();
            assert!(err.contains("--shards"), "{bad}: {err}");
        }
    }

    #[test]
    fn metrics_streaming_flags_preserve_output() {
        let dir = scratch("metrics_streaming_flags_preserve_output");
        // the default shard count and a memory budget must not change a
        // single output byte; a custom shard count keeps histogram
        // metrics identical too (integer reducers)
        let graph = write_karate(&dir);
        let base = cmd_metrics(
            &graph,
            &MetricsOptions {
                metrics: Some("d_avg,d_std,diameter,b_max".into()),
                format: OutputFormat::Json,
                ..Default::default()
            },
        )
        .unwrap();
        let streamed = cmd_metrics(
            &graph,
            &MetricsOptions {
                metrics: Some("d_avg,d_std,diameter,b_max".into()),
                format: OutputFormat::Json,
                shards: Some(64),
                memory_budget: Some(1 << 30),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(base, streamed);
        let seven = cmd_metrics(
            &graph,
            &MetricsOptions {
                metrics: Some("d_avg,diameter".into()),
                format: OutputFormat::Json,
                shards: Some(7),
                ..Default::default()
            },
        )
        .unwrap();
        for key in ["\"d_avg\":", "\"diameter\":"] {
            let val = |s: &str| {
                let at = s.find(key).unwrap();
                s[at..]
                    .chars()
                    .take_while(|c| *c != ',' && *c != '}')
                    .collect::<String>()
            };
            assert_eq!(val(&base), val(&seven), "{key}");
        }
    }

    #[test]
    fn metrics_json_and_no_gcc() {
        let dir = scratch("metrics_json_and_no_gcc");
        // karate + isolated node: GCC drops it, --no-gcc keeps it
        let p = dir.join("karate_iso.edges");
        let mut g = builders::karate_club();
        g.add_node();
        graph_io::save_edge_list(&g, &p).unwrap();
        let json_out = cmd_metrics(
            &p,
            &MetricsOptions {
                format: OutputFormat::Json,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(json_out.contains("\"analyzed_nodes\":34"), "{json_out}");
        let whole = cmd_metrics(
            &p,
            &MetricsOptions {
                format: OutputFormat::Json,
                gcc_off: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(whole.contains("\"analyzed_nodes\":35"), "{whole}");
        assert!(whole.contains("\"gcc\":false"), "{whole}");
    }

    #[test]
    fn metrics_help_lists_capabilities() {
        let dir = scratch("metrics_help_lists_capabilities");
        let graph = write_karate(&dir);
        let m = cmd_metrics(
            &graph,
            &MetricsOptions {
                metrics: Some("help".into()),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(m.contains("all-pairs"), "{m}");
        assert!(m.contains("b_max"), "{m}");
    }

    #[test]
    fn attack_renders_text_and_json() {
        let dir = scratch("attack_renders_text_and_json");
        let graph = write_karate(&dir);
        let t = cmd_attack(&graph, &AttackCmdOptions::default()).unwrap();
        assert!(t.contains("strategy degree"), "{t}");
        assert!(t.contains("GCC halves at removal fraction"), "{t}");
        assert!(t.contains("avg distance"), "checkpoint table: {t}");
        let j = cmd_attack(
            &graph,
            &AttackCmdOptions {
                strategy: Some("degree-adaptive".into()),
                checkpoints: Some("0.0, 0.25".into()),
                format: OutputFormat::Json,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(j.contains("\"strategy\":\"degree-adaptive\""), "{j}");
        assert!(j.contains("\"attack_threshold\":"), "{j}");
        assert!(j.contains("\"checkpoints\":[{\"fraction\":0"), "{j}");
        // karate is connected: the sweep covers all 34 nodes
        assert!(j.contains("\"nodes\":34"), "{j}");
    }

    #[test]
    fn attack_random_is_seed_reproducible() {
        let dir = scratch("attack_random_is_seed_reproducible");
        let graph = write_karate(&dir);
        let run = |seed| {
            cmd_attack(
                &graph,
                &AttackCmdOptions {
                    strategy: Some("random".into()),
                    seed,
                    format: OutputFormat::Json,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        assert_eq!(run(7), run(7), "same seed, same report");
        assert_ne!(run(7), run(8), "different failure order");
    }

    #[test]
    fn attack_rejections_are_cli_worded() {
        let dir = scratch("attack_rejections_are_cli_worded");
        let graph = write_karate(&dir);
        let err = cmd_attack(
            &graph,
            &AttackCmdOptions {
                strategy: Some("bogus".into()),
                ..Default::default()
            },
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("--strategy"), "{msg}");
        assert!(msg.contains("degree-adaptive"), "options listed: {msg}");
        assert!(!msg.contains("Strategy"), "library API leaked: {msg}");
        for bad in ["1.5", "-0.1", "0.1;0.2", "", "half"] {
            let err = parse_checkpoints(bad).unwrap_err();
            assert!(err.contains("--checkpoints"), "{bad}: {err}");
            assert!(err.contains("0..=1"), "range named: {err}");
        }
        assert_eq!(parse_checkpoints("0.05, 0.1,0.25").unwrap().len(), 3);
    }

    #[test]
    fn checkpoints_are_sorted_and_deduped() {
        // the doc example: duplicates dropped, order normalized
        assert_eq!(parse_checkpoints("0.5,0.1,0.1").unwrap(), vec![0.1, 0.5]);
        assert_eq!(
            parse_checkpoints("1,0.25,0,0.25").unwrap(),
            vec![0.0, 0.25, 1.0]
        );
        // already-clean input passes through untouched
        assert_eq!(
            parse_checkpoints("0.01,0.05,0.1").unwrap(),
            vec![0.01, 0.05, 0.1]
        );
    }

    #[test]
    fn attack_checkpoints_come_back_ascending() {
        let dir = scratch("attack_checkpoints_come_back_ascending");
        let graph = write_karate(&dir);
        let j = cmd_attack(
            &graph,
            &AttackCmdOptions {
                checkpoints: Some("0.5,0.1,0.1,0.25".into()),
                format: OutputFormat::Json,
                ..Default::default()
            },
        )
        .unwrap();
        let fractions: Vec<f64> = j
            .match_indices("\"fraction\":")
            .map(|(i, _)| {
                let rest = &j[i + "\"fraction\":".len()..];
                let end = rest.find([',', '}']).unwrap();
                rest[..end].parse().unwrap()
            })
            .collect();
        assert_eq!(fractions, vec![0.1, 0.25, 0.5], "ascending, deduped: {j}");
    }

    #[test]
    fn viz_writes_svg() {
        let dir = scratch("viz_writes_svg");
        let graph = write_karate(&dir);
        let out = dir.join("karate.svg");
        cmd_viz(&graph, &out, 1).unwrap();
        let svg = std::fs::read_to_string(&out).unwrap();
        assert!(svg.starts_with("<svg"));
    }

    #[test]
    fn algo_parsing() {
        assert_eq!("matching".parse::<GenAlgo>().unwrap(), GenAlgo::Matching);
        assert!("bogus".parse::<GenAlgo>().is_err());
    }

    #[test]
    fn generate_rejects_rewiring_with_cli_worded_hint() {
        let dir = scratch("generate_rejects_rewiring_with_cli_worded_hint");
        // `rewiring` parses (shared Method name set) but cannot construct
        // from a distribution file; the error must point at `dk rewire`,
        // not at library API.
        let graph = write_karate(&dir);
        let dist = dir.join("karate_rw.2k");
        cmd_extract(2, &graph, &dist).unwrap();
        let err = cmd_generate(2, &dist, &dir.join("z.edges"), GenAlgo::Rewiring, 1).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("dk rewire"), "{msg}");
        assert!(!msg.contains("Generator::"), "library API leaked: {msg}");
    }
}
