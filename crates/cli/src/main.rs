//! `dk` — Orbis-style command line for the dK-series tool chain.
//!
//! Argument parsing only; all behavior lives in [`dk_cli`] (tested there).

use dk_cli::*;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
dk — dK-series topology analysis and generation (SIGCOMM'06 reproduction)

USAGE:
  dk extract  <d: 1..3> <graph.edges> -o <dist.dk>
  dk generate <d: 1..3> <dist.dk>     -o <out.edges> [--algo pseudograph|matching|stochastic|targeting] [--seed N]
  dk rewire   <d: 0..3> <graph.edges> -o <out.edges> [--attempts N] [--seed N]
  dk explore  <s|s2|c>  <min|max> <graph.edges> -o <out.edges> [--seed N]
  dk metrics  <graph.edges> [--metrics LIST] [--format text|json] [--no-gcc] [--samples K]
              [--sketch-bits B] [--shards N] [--memory-budget B]
  dk compare  <a.edges> <b.edges> [--metrics LIST] [--format text|json] [--no-gcc] [--samples K]
              [--sketch-bits B] [--shards N] [--memory-budget B]
  dk attack   <graph.edges> [--strategy random|degree|betweenness|degree-adaptive] [--seed N]
              [--checkpoints F1,F2,...] [--format text|json] [--no-gcc] [--samples K]
  dk census   <graph.edges> [--max-d D]
  dk viz      <graph.edges> -o <out.svg> [--seed N]
  dk serve    --socket <path.sock> [--memory-budget B] [--threads N]
  dk client   --socket <path.sock> '<request JSON>'

Graphs are whitespace edge lists (`#` comments, optional `nodes N` header);
distribution files are the Orbis-style formats documented in dk-core.
`--metrics` takes comma-separated metric names or sets (default, cheap,
scalars, series, all) — `--metrics help` lists every metric. `--samples K`
sets the pivot budget of the sampled distance_approx/betweenness_approx
metrics (default 64; K >= n reproduces the exact values). `rewire` (and
`generate --algo targeting`) runs on the incremental-move MCMC engine:
every double-edge swap is an explicit proposal record validated against an
O(1) edge index, with O(1) census deltas applied on acceptance — `--attempts`
budgets proposed (not accepted) moves, default 50 per edge. `--sketch-bits B`
sets the HyperLogLog register bits of the sketch distance metrics
(distance_sketch/avg_distance_sketch/effective_diameter_sketch; 4..=16,
default 8 — error ~1.04/sqrt(2^B), memory n*2^B bytes). The
all-pairs/sampled passes stream shard by shard (identical results for every
--threads value, memory bounded by workers): `--shards N` fixes their merge
tree (default 64), and `--memory-budget B` caps their workers (bytes, K/M/G
suffixes). `attack` computes
the full node-removal percolation trajectory in one reverse union-find
pass (bit-identical for every thread count): `--strategy` picks the
removal order (default degree), `--checkpoints` probes the residual GCC
at the given removal fractions (default 0.01,0.05,0.1,0.25,0.5; sorted,
duplicates dropped), and the JSON report carries the decimated curve
plus the interpolated fraction where the GCC halves. `serve` runs a
long-lived daemon holding named graphs behind a line-delimited JSON
protocol on a Unix socket (ops: load, metric, compare, attack, rewire,
generate-into, stats, shutdown — full reference in the dk-serve crate
docs): repeated requests replay a per-graph response table until the
graph changes, identical concurrent requests coalesce onto one
computation, `--memory-budget` admission-rejects requests that cannot
fit, and responses are byte-identical for every `--threads` value.
`client` sends one request line and prints the response, e.g.
`dk client --socket /tmp/dk.sock '{\"op\":\"stats\"}'`.";

struct Args {
    positional: Vec<String>,
    out: Option<PathBuf>,
    algo: GenAlgo,
    seed: u64,
    attempts: Option<u64>,
    max_d: u8,
    metrics: Option<String>,
    strategy: Option<String>,
    checkpoints: Option<String>,
    format: OutputFormat,
    no_gcc: bool,
    samples: Option<usize>,
    sketch_bits: Option<u32>,
    shards: Option<usize>,
    memory_budget: Option<u64>,
    socket: Option<PathBuf>,
    threads: Option<usize>,
}

fn parse(mut raw: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        positional: Vec::new(),
        out: None,
        algo: GenAlgo::Pseudograph,
        seed: 1,
        attempts: None,
        max_d: 3,
        metrics: None,
        strategy: None,
        checkpoints: None,
        format: OutputFormat::Text,
        no_gcc: false,
        samples: None,
        sketch_bits: None,
        shards: None,
        memory_budget: None,
        socket: None,
        threads: None,
    };
    raw.reverse();
    while let Some(tok) = raw.pop() {
        match tok.as_str() {
            "-o" | "--out" => {
                args.out = Some(PathBuf::from(raw.pop().ok_or("missing value after -o")?))
            }
            "--algo" => args.algo = raw.pop().ok_or("missing value after --algo")?.parse()?,
            "--metrics" => args.metrics = Some(raw.pop().ok_or("missing value after --metrics")?),
            "--strategy" => {
                args.strategy = Some(raw.pop().ok_or("missing value after --strategy")?)
            }
            "--checkpoints" => {
                args.checkpoints = Some(raw.pop().ok_or("missing value after --checkpoints")?)
            }
            "--format" => args.format = raw.pop().ok_or("missing value after --format")?.parse()?,
            "--no-gcc" => args.no_gcc = true,
            "--samples" => {
                args.samples = Some(
                    raw.pop()
                        .ok_or("missing value after --samples")?
                        .parse()
                        .map_err(|e| format!("bad --samples: {e}"))?,
                )
            }
            "--sketch-bits" => {
                args.sketch_bits = Some(parse_sketch_bits(
                    &raw.pop().ok_or("missing value after --sketch-bits")?,
                )?)
            }
            "--shards" => {
                args.shards = Some(parse_shards(
                    &raw.pop().ok_or("missing value after --shards")?,
                )?)
            }
            "--memory-budget" => {
                args.memory_budget = Some(parse_memory_budget(
                    &raw.pop().ok_or("missing value after --memory-budget")?,
                )?)
            }
            "--socket" => {
                args.socket = Some(PathBuf::from(
                    raw.pop().ok_or("missing value after --socket")?,
                ))
            }
            "--threads" => {
                args.threads = Some(
                    raw.pop()
                        .ok_or("missing value after --threads")?
                        .parse()
                        .map_err(|e| format!("bad --threads: {e}"))?,
                )
            }
            "--seed" => {
                args.seed = raw
                    .pop()
                    .ok_or("missing value after --seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--attempts" => {
                args.attempts = Some(
                    raw.pop()
                        .ok_or("missing value after --attempts")?
                        .parse()
                        .map_err(|e| format!("bad --attempts: {e}"))?,
                )
            }
            "--max-d" => {
                args.max_d = raw
                    .pop()
                    .ok_or("missing value after --max-d")?
                    .parse()
                    .map_err(|e| format!("bad --max-d: {e}"))?
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            _ => args.positional.push(tok),
        }
    }
    Ok(args)
}

fn need_out(a: &Args) -> Result<&PathBuf, String> {
    a.out.as_ref().ok_or_else(|| "missing -o <output>".into())
}

impl Args {
    fn attack_options(&self) -> AttackCmdOptions {
        AttackCmdOptions {
            strategy: self.strategy.clone(),
            seed: self.seed,
            checkpoints: self.checkpoints.clone(),
            format: self.format,
            gcc_off: self.no_gcc,
            samples: self.samples,
        }
    }

    fn metrics_options(&self) -> MetricsOptions {
        MetricsOptions {
            metrics: self.metrics.clone(),
            format: self.format,
            gcc_off: self.no_gcc,
            samples: self.samples,
            sketch_bits: self.sketch_bits,
            shards: self.shards,
            memory_budget: self.memory_budget,
        }
    }
}

fn run() -> Result<String, String> {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" {
        return Ok(USAGE.to_string());
    }
    let cmd = argv.remove(0);
    let a = parse(argv)?;
    let p = |i: usize| -> Result<&String, String> {
        a.positional
            .get(i)
            .ok_or_else(|| format!("missing argument #{} — see `dk --help`", i + 1))
    };
    let parse_d =
        |s: &str| -> Result<u8, String> { s.parse().map_err(|e| format!("bad d {s:?}: {e}")) };
    let err = |e: dk_graph::GraphError| e.to_string();
    match cmd.as_str() {
        "extract" => cmd_extract(parse_d(p(0)?)?, p(1)?.as_ref(), need_out(&a)?).map_err(err),
        "generate" => cmd_generate(
            parse_d(p(0)?)?,
            p(1)?.as_ref(),
            need_out(&a)?,
            a.algo,
            a.seed,
        )
        .map_err(err),
        "rewire" => cmd_rewire(
            parse_d(p(0)?)?,
            p(1)?.as_ref(),
            need_out(&a)?,
            a.attempts,
            a.seed,
        )
        .map_err(err),
        "explore" => cmd_explore(p(0)?, p(1)?, p(2)?.as_ref(), need_out(&a)?, a.seed).map_err(err),
        // `--metrics help` needs no graph files — don't demand any
        "metrics" | "compare" if a.metrics.as_deref() == Some("help") => {
            cmd_metrics(std::path::Path::new(""), &a.metrics_options()).map_err(err)
        }
        "metrics" => cmd_metrics(p(0)?.as_ref(), &a.metrics_options()).map_err(err),
        "compare" => cmd_compare(p(0)?.as_ref(), p(1)?.as_ref(), &a.metrics_options()).map_err(err),
        "attack" => cmd_attack(p(0)?.as_ref(), &a.attack_options()).map_err(err),
        "census" => cmd_census(p(0)?.as_ref(), a.max_d).map_err(err),
        "viz" => cmd_viz(p(0)?.as_ref(), need_out(&a)?, a.seed).map_err(err),
        "serve" => {
            let socket = a.socket.as_ref().ok_or("missing --socket <path.sock>")?;
            cmd_serve(socket, a.memory_budget, a.threads.unwrap_or(1)).map_err(err)
        }
        "client" => {
            let socket = a.socket.as_ref().ok_or("missing --socket <path.sock>")?;
            cmd_client(socket, p(0)?).map_err(err)
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let written = run().and_then(|msg| {
        let mut stdout = std::io::stdout().lock();
        match writeln!(stdout, "{msg}").and_then(|()| stdout.flush()) {
            // the reader is gone (`dk metrics g.edges | head -1`): no
            // one is left to tell, so exit quietly as a filter should
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Ok(()),
            written => written.map_err(|e| format!("writing to stdout: {e}")),
        }
    });
    match written {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
