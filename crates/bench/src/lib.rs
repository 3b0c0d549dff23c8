//! # dk-bench — reproduction harness for every table and figure
//!
//! One binary per experiment (`cargo run -p dk-bench --release --bin
//! table6`), each printing the paper-format rows to stdout and writing
//! machine-readable series under `results/`. Shared infrastructure lives
//! here:
//!
//! * [`Config`] — common CLI flags (`--full`, `--seeds N`, `--out DIR`);
//! * [`inputs`] — the two evaluation inputs (skitter-like, HOT-like) at
//!   CI or paper scale, disk-cached per (kind, scale, seed) so repeated
//!   experiment runs reuse identical inputs;
//! * [`ensemble`] — seed fan-out through `dk_metrics::Analyzer`
//!   (per-metric mean/std/min/max, per-degree / per-distance series
//!   means);
//! * [`csv`] — series CSV output (tables use the shared
//!   `dk_metrics::MetricTable` formatter).
//!
//! Paper-scale notes: the paper averages over 100 graphs; the default
//! here is 5 seeds at CI scale so every experiment finishes in minutes —
//! `--full --seeds 100` reproduces the paper's protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod ensemble;
pub mod inputs;
pub mod variants;

use std::path::PathBuf;

/// Common experiment configuration, parsed from CLI arguments.
#[derive(Clone, Debug)]
pub struct Config {
    /// Paper-scale inputs (skitter-like n = 9204) instead of CI scale.
    pub full: bool,
    /// Ensemble size (paper: 100).
    pub seeds: u64,
    /// Output directory for CSV/SVG artifacts.
    pub out_dir: PathBuf,
    /// Master seed; per-run seeds derive from it.
    pub master_seed: u64,
    /// Ensemble worker threads (`0` = all available cores). Any value
    /// produces identical results — see [`dk_graph::ensemble::run`].
    pub threads: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            full: false,
            seeds: 5,
            out_dir: PathBuf::from("results"),
            master_seed: 20060911, // SIGCOMM'06 started Sept 11, 2006
            threads: 0,
        }
    }
}

impl Config {
    /// Parses flags: `--full`, `--seeds N`, `--out DIR`, `--seed N`,
    /// `--threads N`.
    ///
    /// Unknown flags abort with a usage message (misspelled flags
    /// silently ignored would corrupt experiments).
    pub fn from_args() -> Config {
        let mut cfg = Config::default();
        let mut raw = std::env::args().skip(1);
        while let Some(flag) = raw.next() {
            let parsed = match flag.as_str() {
                "--full" => {
                    cfg.full = true;
                    Ok(())
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --full (paper scale)  --seeds N (ensemble size, default 5)\n       --seed N (master seed)   --out DIR (default results/)\n       --threads N (ensemble workers, default 0 = all cores)"
                    );
                    std::process::exit(0);
                }
                "--seeds" => flag_value(&flag, raw.next()).map(|v| cfg.seeds = v),
                "--seed" => flag_value(&flag, raw.next()).map(|v| cfg.master_seed = v),
                "--threads" => flag_value(&flag, raw.next()).map(|v| cfg.threads = v),
                "--out" => flag_value(&flag, raw.next()).map(|v| cfg.out_dir = v),
                _ => Err(format!("unknown flag {flag:?}")),
            };
            if let Err(msg) = parsed {
                eprintln!("error: {msg}\nrun with --help for flags");
                std::process::exit(2)
            }
        }
        std::fs::create_dir_all(&cfg.out_dir).expect("create output dir");
        cfg
    }

    /// Derives the i-th run seed from the master seed. Delegates to
    /// [`dk_graph::ensemble::derive_seed`] so hand-rolled loops and the
    /// parallel runner agree replica by replica.
    pub fn run_seed(&self, i: u64) -> u64 {
        dk_graph::ensemble::derive_seed(self.master_seed, i)
    }
}

/// The value of `flag`, which must be present and parse.
fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("bad {flag} value {value:?}"))
}

/// Writes a text artifact, creating parent dirs — so every emitter is
/// self-sufficient even when the caller built a [`Config`] directly
/// (only [`Config::from_args`] pre-creates the output dir).
fn write_text(path: &std::path::Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// JSON form of an integer-keyed series: `[[x, y], ...]` — used by the
/// figure binaries for their original-graph reference series.
pub fn series_json(s: &[(usize, f64)]) -> String {
    use dk_metrics::json;
    json::array(
        s.iter()
            .map(|&(x, y)| json::array([x.to_string(), json::number(y)])),
    )
}

/// Persists one table experiment: `<name>.csv` (means + `_std` rows) and
/// `<name>.json` (full column reports) under `cfg.out_dir`, announcing
/// both paths — the one artifact convention every table binary shares.
pub fn emit_table(cfg: &Config, name: &str, table: &dk_metrics::MetricTable) {
    let out = cfg.out_dir.join(format!("{name}.csv"));
    write_text(&out, &table.to_csv()).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!("wrote {}", out.display());
    let out = cfg.out_dir.join(format!("{name}.json"));
    write_text(&out, &table.to_json()).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!("wrote {}", out.display());
}

/// Persists one figure panel: the plotted means as `<name>.csv` and the
/// per-variant JSON entries (ensemble summaries / reference series) as
/// `<name>.json` — the figure-binary counterpart of [`emit_table`].
pub fn emit_series(
    cfg: &Config,
    name: &str,
    x_label: &str,
    set: &csv::SeriesSet,
    entries: Vec<(String, String)>,
) {
    let out = cfg.out_dir.join(format!("{name}.csv"));
    set.write(&out, x_label)
        .unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!("wrote {}", out.display());
    let out = cfg.out_dir.join(format!("{name}.json"));
    write_text(&out, &dk_metrics::json::object(entries))
        .unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    println!("wrote {}", out.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_seeds_are_distinct() {
        let cfg = Config::default();
        let seeds: std::collections::BTreeSet<u64> = (0..100).map(|i| cfg.run_seed(i)).collect();
        assert_eq!(seeds.len(), 100);
    }

    #[test]
    fn run_seed_depends_on_master() {
        let a = Config::default();
        let b = Config {
            master_seed: 1,
            ..Config::default()
        };
        assert_ne!(a.run_seed(0), b.run_seed(0));
    }
}
