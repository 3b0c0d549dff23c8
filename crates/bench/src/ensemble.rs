//! Ensemble execution for the reproduction binaries: run a
//! graph-producing closure across seeds and summarize the metric
//! batteries through the [`Analyzer`] facade.
//!
//! "Our results represent averages over 100 graphs generated with a
//! different random seed in each case" (paper §5).
//!
//! All fan-out goes through [`dk_metrics::Analyzer::run_ensemble`] (and
//! thus the deterministic runner `dk_graph::ensemble`): replica `i` is
//! always seeded from `(cfg.master_seed, i)` regardless of the thread
//! count, so `--threads 1` and `--threads N` produce identical tables
//! and CSVs.

use crate::Config;
use dk_graph::Graph;
use dk_metrics::{Analyzer, EnsembleSummary};
use rand::rngs::StdRng;

/// Runs `make` once per seed and summarizes the analyzer's battery:
/// per-metric mean/std/min/max over the ensemble.
///
/// `make` receives a seeded RNG and returns the graph to measure (GCC
/// extraction happens inside the analyzer). Members are computed in
/// parallel; the statistics are identical to the serial loop.
pub fn scalar_ensemble<F>(cfg: &Config, analyzer: &Analyzer, make: F) -> EnsembleSummary
where
    F: Fn(&mut StdRng) -> Graph + Sync,
{
    analyzer
        .clone()
        .threads(cfg.threads)
        .run_ensemble(cfg.seeds, cfg.master_seed, make)
}

/// Runs `make` once per seed and returns the full [`EnsembleSummary`] of
/// one series metric (registry name, e.g. `"d_x"`, `"c_k"`, `"b_k"`) —
/// per-key mean/std/min/max, the machine-readable form the figure
/// binaries persist as JSON next to their CSVs.
pub fn series_ensemble_summary<F>(cfg: &Config, metric: &str, make: F) -> EnsembleSummary
where
    F: Fn(&mut StdRng) -> Graph + Sync,
{
    let analyzer = Analyzer::new()
        .metric_names(metric)
        .expect("known series metric")
        .threads(cfg.threads);
    analyzer.run_ensemble(cfg.seeds, cfg.master_seed, make)
}

/// Runs `make` once per seed and returns the per-key ensemble mean of
/// one series metric — the series the paper's figures plot.
pub fn series_ensemble<F>(cfg: &Config, metric: &str, make: F) -> Vec<(usize, f64)>
where
    F: Fn(&mut StdRng) -> Graph + Sync,
{
    series_ensemble_summary(cfg, metric, make)
        .series_means(metric)
        .expect("series metric")
}

fn one_series(g: &Graph, metric: &str) -> Vec<(usize, f64)> {
    Analyzer::new()
        .metric_names(metric)
        .expect("known series metric")
        .analyze(g)
        .series(metric)
        .expect("series metric")
        .to_vec()
}

/// Distance-distribution PDF of the GCC as an integer-keyed series
/// (positive distances, paper figure convention).
pub fn distance_series(g: &Graph) -> Vec<(usize, f64)> {
    one_series(g, "d_x")
}

/// Mean normalized betweenness per degree, of the GCC.
pub fn betweenness_series(g: &Graph) -> Vec<(usize, f64)> {
    one_series(g, "b_k")
}

/// Mean clustering per degree, of the GCC.
pub fn clustering_series(g: &Graph) -> Vec<(usize, f64)> {
    one_series(g, "c_k")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;

    #[test]
    fn ensemble_runs_with_config_seeds() {
        let cfg = crate::Config {
            seeds: 3,
            out_dir: std::env::temp_dir(),
            ..Default::default()
        };
        let analyzer = Analyzer::new().metric_names("cheap").unwrap();
        let rep = scalar_ensemble(&cfg, &analyzer, |rng| dk_topologies::er::gnm(50, 100, rng));
        assert_eq!(rep.replicas, 3);
        assert!(rep.scalar("k_avg").unwrap().mean > 0.0);
    }

    #[test]
    fn scalar_ensemble_thread_count_is_invisible() {
        let base = crate::Config {
            seeds: 6,
            out_dir: std::env::temp_dir(),
            ..Default::default()
        };
        let analyzer = Analyzer::new().metric_names("cheap").unwrap();
        let make = |rng: &mut rand::rngs::StdRng| {
            crate::variants::dk_random(&builders::karate_club(), 1, rng)
        };
        let serial = scalar_ensemble(
            &crate::Config {
                threads: 1,
                ..base.clone()
            },
            &analyzer,
            make,
        );
        let parallel = scalar_ensemble(&crate::Config { threads: 4, ..base }, &analyzer, make);
        assert_eq!(serial, parallel, "threading must not change results");
    }

    #[test]
    fn series_ensemble_matches_hand_rolled_loop() {
        use rand::SeedableRng;
        let cfg = crate::Config {
            seeds: 4,
            out_dir: std::env::temp_dir(),
            ..Default::default()
        };
        let original = builders::karate_club();
        let fast = series_ensemble(&cfg, "c_k", |rng| {
            crate::variants::dk_random(&original, 2, rng)
        });
        // the pre-facade pattern: serial loop + per-key accumulation
        let mut sums: std::collections::BTreeMap<usize, (f64, usize)> = Default::default();
        for i in 0..cfg.seeds {
            let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.run_seed(i));
            for (x, y) in clustering_series(&crate::variants::dk_random(&original, 2, &mut rng)) {
                let e = sums.entry(x).or_insert((0.0, 0));
                e.0 += y;
                e.1 += 1;
            }
        }
        let slow: Vec<(usize, f64)> = sums
            .iter()
            .map(|(&x, &(sum, n))| (x, sum / n as f64))
            .collect();
        assert_eq!(fast, slow);
    }

    #[test]
    fn series_helpers_on_karate() {
        let g = builders::karate_club();
        let d = distance_series(&g);
        assert_eq!(d[0].0, 1);
        let total: f64 = d.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(!betweenness_series(&g).is_empty());
        assert!(!clustering_series(&g).is_empty());
    }

    #[test]
    fn series_helpers_extract_gcc_first() {
        // isolated nodes must not dilute the series
        let mut g = builders::karate_club();
        g.add_node();
        assert_eq!(
            clustering_series(&g),
            clustering_series(&builders::karate_club())
        );
    }
}
