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
//!   `dk_metrics::MetricTable` formatter);
//! * [`perf`] — the shared harness of the `perf_*` binaries (flags,
//!   seeded input, timing, RSS, `BENCH_metrics.json` records).
//!
//! Paper-scale notes: the paper averages over 100 graphs; the default
//! here is 5 seeds at CI scale so every experiment finishes in minutes —
//! `--full --seeds 100` reproduces the paper's protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csv;
pub mod ensemble;
pub mod inputs;
pub mod perf;
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
        let parsed = parse_flags(
            &mut cfg.full,
            &mut [
                ("--seeds", set(&mut cfg.seeds)),
                ("--seed", set(&mut cfg.master_seed)),
                ("--threads", set(&mut cfg.threads)),
                ("--out", set(&mut cfg.out_dir)),
            ],
        );
        match parsed {
            Ok(()) => {}
            Err(FlagError::Help) => {
                eprintln!(
                    "flags: --full (paper scale)  --seeds N (ensemble size, default 5)\n       --seed N (master seed)   --out DIR (default results/)\n       --threads N (ensemble workers, default 0 = all cores)"
                );
                std::process::exit(0);
            }
            Err(FlagError::Refused(msg)) => {
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

/// Stores one flag value; `false` when the value does not parse.
pub type Setter<'a> = Box<dyn FnMut(&str) -> bool + 'a>;

/// A [`Setter`] that parses the value into `slot`.
pub fn set<T: std::str::FromStr>(slot: &mut T) -> Setter<'_> {
    Box::new(move |v| v.parse().map(|x| *slot = x).is_ok())
}

/// Why [`parse_flags`] refused a command line.
enum FlagError {
    /// `-h` / `--help`.
    Help,
    /// An unknown flag, a missing value or a value that does not parse.
    Refused(String),
}

/// The one flag loop of the bench binaries ([`Config::from_args`] and
/// [`perf::PerfArgs::from_args`]): `--full` is the only switch, and
/// each flag named in `values` takes the next argument, which its
/// setter must accept.
fn parse_flags(full: &mut bool, values: &mut [(&str, Setter<'_>)]) -> Result<(), FlagError> {
    let mut raw = std::env::args().skip(1);
    while let Some(flag) = raw.next() {
        match flag.as_str() {
            "--full" => *full = true,
            "--help" | "-h" => return Err(FlagError::Help),
            _ => {
                let Some((_, setter)) = values.iter_mut().find(|(name, _)| *name == flag) else {
                    return Err(FlagError::Refused(format!("unknown flag {flag:?}")));
                };
                let Some(value) = raw.next() else {
                    return Err(FlagError::Refused(format!("{flag} needs a value")));
                };
                if !setter(&value) {
                    return Err(FlagError::Refused(format!("bad {flag} value {value:?}")));
                }
            }
        }
    }
    Ok(())
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

/// Writes a machine-readable JSON artifact next to the CSVs (creating
/// parent dirs) — every experiment binary persists its
/// `Report`/`EnsembleSummary` data this way so runs are diffable without
/// re-parsing the human-facing tables.
pub fn write_json(path: &std::path::Path, json: &str) -> std::io::Result<()> {
    write_text(path, json)
}

/// Appends one JSON record to a JSON-lines log (creating parent dirs).
///
/// `results/BENCH_metrics.json` is such a log: one self-contained bench
/// record per line (each tagged with a `"bench"` key), so the perf
/// trajectory of the hot paths **accumulates** run over run instead of
/// each binary overwriting the last one's point. Tolerates a legacy
/// record written without a trailing newline.
pub fn append_json_line(path: &std::path::Path, record: &str) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let needs_newline = match std::fs::read(path) {
        Ok(existing) => !existing.is_empty() && !existing.ends_with(b"\n"),
        Err(_) => false,
    };
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if needs_newline {
        f.write_all(b"\n")?;
    }
    f.write_all(record.as_bytes())?;
    f.write_all(b"\n")
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
    write_json(&out, &table.to_json()).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
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
    write_json(&out, &dk_metrics::json::object(entries))
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
    fn append_json_line_accumulates_and_repairs_missing_newline() {
        let dir = std::env::temp_dir().join("dk_bench_jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("log.json");
        let _ = std::fs::remove_file(&path);
        append_json_line(&path, "{\"bench\":\"a\"}").unwrap();
        append_json_line(&path, "{\"bench\":\"b\"}").unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"bench\":\"a\"}\n{\"bench\":\"b\"}\n"
        );
        // a legacy record without a trailing newline stays on its own line
        std::fs::write(&path, "{\"legacy\":1}").unwrap();
        append_json_line(&path, "{\"bench\":\"c\"}").unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"legacy\":1}\n{\"bench\":\"c\"}\n"
        );
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
