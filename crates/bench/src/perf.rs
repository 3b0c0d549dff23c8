//! The shared harness of the `perf_*` binaries: their common flags, the
//! seeded Barabási–Albert input, wall-clock timing, process RSS, and the
//! record each stage appends to the `BENCH_metrics.json` JSON-lines log
//! (see [`append_json_line`]).

use crate::{append_json_line, parse_flags, set, Config, FlagError, Setter};
use dk_graph::Graph;
use dk_metrics::json;
use dk_topologies::ba::{barabasi_albert, BaParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

/// The flags every `perf_*` binary accepts.
pub struct PerfArgs {
    /// `--full`: add the large-graph stage.
    pub full: bool,
    /// `--threads N`, with the default `0` resolved to all cores.
    pub threads: usize,
    /// `--seed N` (default: [`Config`]'s master seed).
    pub seed: u64,
    /// `--out DIR` (default `results/`): where the log goes.
    pub out_dir: PathBuf,
}

impl PerfArgs {
    /// Parses the common flags plus the binary's own value flags `own`,
    /// whose slots hold their defaults; `help` describes those own flags
    /// in the usage text. `--help`, an unknown flag, or a missing or bad
    /// value prints the usage and exits with status 2.
    pub fn from_args(help: &str, own: Vec<(&str, Setter<'_>)>) -> PerfArgs {
        let defaults = Config::default();
        let (mut full, mut threads, mut seed, mut out_dir) = (
            false,
            defaults.threads,
            defaults.master_seed,
            defaults.out_dir,
        );
        let mut values = own;
        values.extend([
            ("--threads", set(&mut threads)),
            ("--seed", set(&mut seed)),
            ("--out", set(&mut out_dir)),
        ]);
        if let Err(err) = parse_flags(&mut full, &mut values) {
            if let FlagError::Refused(msg) = err {
                eprintln!("error: {msg}");
            }
            eprintln!(
                "flags: {help}\n       --threads N (0 = all cores)  --seed N  --out DIR (default results/)"
            );
            std::process::exit(2);
        }
        drop(values);
        if threads == 0 {
            threads = std::thread::available_parallelism().map_or(1, |p| p.get());
        }
        PerfArgs {
            full,
            threads,
            seed,
            out_dir,
        }
    }

    /// Appends one record to `<out>/BENCH_metrics.json` and says so.
    pub fn record(&self, fields: impl IntoIterator<Item = (String, String)>) {
        let out = self.out_dir.join("BENCH_metrics.json");
        append_json_line(&out, &json::object(fields)).expect("append to BENCH_metrics.json");
        println!("appended to {}", out.display());
    }
}

/// The seeded Barabási–Albert input every `perf_*` stage measures
/// (2 edges per new node, 3 seed nodes).
pub fn ba(n: usize, seed: u64) -> Graph {
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

/// Runs `f` once: wall seconds and its result.
pub fn time_s<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (t0.elapsed().as_secs_f64(), out)
}

/// Process peak RSS in bytes (Linux `VmHWM`; `None` elsewhere).
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_bytes("VmHWM:")
}

/// Current process RSS in bytes (Linux `VmRSS`; `None` elsewhere).
pub fn rss_now_bytes() -> Option<u64> {
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

/// Bytes in MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}
