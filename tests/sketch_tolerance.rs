//! Statistical tolerance harness for the HyperANF sketch estimators:
//! every sketch estimate is verified against the **exact CSR oracle**
//! (closed-form values on K5/S5/C6, literature values on the karate
//! club, the all-source BFS oracle on generated graphs), with tolerances
//! **derived from the HyperLogLog standard error** `1.04/√2^b`
//! ([`sketch::standard_error`]) — never hand-tuned constants. The
//! working bound is three standard errors; the 10⁴-node acceptance run
//! holds `b = 6` and `8` to it and additionally pins `avg_distance_sketch`
//! at `b = 10` within 5% of the oracle across ≥ 5 seeds.

use dk_repro::graph::csr::CsrGraph;
use dk_repro::graph::{builders, Graph};
use dk_repro::metrics::distance::DistanceDistribution;
use dk_repro::metrics::sketch::{self, hyper_anf_sharded, HyperAnf};
use dk_repro::metrics::stream::DEFAULT_SHARDS;
use dk_repro::metrics::Analyzer;
use dk_repro::topologies::ba::{barabasi_albert, BaParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The tolerance every comparison uses: three HLL standard errors at the
/// run's register-bit count. 3σ of a well-behaved estimator — loose
/// enough to be stable, tight enough that a broken estimator (wrong
/// α_m, off-by-one rank, missing small-range correction) fails by a
/// wide margin.
fn tol(bits: u32) -> f64 {
    3.0 * sketch::standard_error(bits)
}

fn rel_err(got: f64, want: f64) -> f64 {
    (got - want).abs() / want
}

/// The register-bit sweep the golden tests run: 6 → 39% tolerance,
/// 8 → 19.5%, 10 → 9.75%.
const BITS: [u32; 3] = [6, 8, 10];

const ROUNDS: usize = 64;

fn anf(g: &Graph, bits: u32) -> HyperAnf {
    hyper_anf_sharded(&CsrGraph::from_graph(g), bits, ROUNDS, DEFAULT_SHARDS, 2)
}

/// Exact N(t) from the oracle histogram: cumulative ordered pairs
/// within distance `t`, self-pairs included — the quantity HyperANF
/// estimates round by round.
fn exact_neighborhood(d: &DistanceDistribution) -> Vec<f64> {
    let mut acc = 0.0;
    d.counts
        .iter()
        .map(|&c| {
            acc += c as f64;
            acc
        })
        .collect()
}

/// Exact effective diameter at quantile `q`, using the same linear
/// interpolation as [`HyperAnf::effective_diameter`] so the comparison
/// isolates estimator error from convention mismatch.
fn exact_effective_diameter(nf: &[f64], q: f64) -> f64 {
    let target = q * nf.last().unwrap();
    if nf[0] >= target {
        return 0.0;
    }
    for t in 1..nf.len() {
        if nf[t] >= target {
            return (t - 1) as f64 + (target - nf[t - 1]) / (nf[t] - nf[t - 1]);
        }
    }
    (nf.len() - 1) as f64
}

// ---------------------------------------------------------------------
// Golden closed-form values: K5, S5, C6
// ---------------------------------------------------------------------

#[test]
fn closed_form_neighborhood_functions_and_mean_distance() {
    // (graph, exact N(t) by hand, exact d̄)
    let cases: Vec<(&str, Graph, Vec<f64>, f64)> = vec![
        // K5: every pair adjacent — N(1) = 25 ordered pairs + selves
        ("K5", builders::complete(5), vec![5.0, 25.0], 1.0),
        // S5 (hub + 5 leaves): hub ball(1) = 6, leaf ball(1) = 2 →
        // N(1) = 6 + 5·2 = 16; everything within 2 hops → N(2) = 36;
        // d̄ = (10·1 + 20·2)/30 = 5/3
        ("S5", builders::star(5), vec![6.0, 16.0, 36.0], 5.0 / 3.0),
        // C6: each node reaches 2 more per hop until the antipode →
        // N = 6, 18, 30, 36; d̄ = (12 + 24 + 18)/30 = 1.8
        ("C6", builders::cycle(6), vec![6.0, 18.0, 30.0, 36.0], 1.8),
    ];
    for (name, g, want_nf, want_mean) in cases {
        // the hand-computed N(t) agrees with the exact oracle histogram
        let oracle = exact_neighborhood(&DistanceDistribution::from_graph(&g));
        assert_eq!(oracle, want_nf, "{name}: closed form vs oracle");
        for bits in BITS {
            let a = anf(&g, bits);
            assert!(a.converged, "{name} b={bits}");
            assert_eq!(
                a.neighborhood.len(),
                want_nf.len(),
                "{name} b={bits}: sketch round count tracks the diameter"
            );
            for (t, (&got, &want)) in a.neighborhood.iter().zip(&want_nf).enumerate() {
                assert!(
                    rel_err(got, want) <= tol(bits),
                    "{name} b={bits}: N({t}) = {got}, want {want} ± {}",
                    tol(bits)
                );
            }
            assert!(
                rel_err(a.avg_distance(), want_mean) <= tol(bits),
                "{name} b={bits}: d̄ = {}, want {want_mean}",
                a.avg_distance()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Karate club: literature values
// ---------------------------------------------------------------------

#[test]
fn karate_club_matches_literature_and_oracle() {
    let g = builders::karate_club();
    let exact = DistanceDistribution::from_graph(&g);
    // literature anchor (same value analyzer_golden.rs pins): d̄ = 2.4082
    assert!(
        (exact.mean() - 2.4082).abs() < 1e-3,
        "oracle d̄ = {}",
        exact.mean()
    );
    let nf_exact = exact_neighborhood(&exact);
    for bits in BITS {
        let a = anf(&g, bits);
        assert!(a.converged);
        assert!(
            rel_err(a.avg_distance(), exact.mean()) <= tol(bits),
            "b={bits}: d̄ = {}, oracle {}",
            a.avg_distance(),
            exact.mean()
        );
        let eff = a.effective_diameter(0.9);
        let eff_exact = exact_effective_diameter(&nf_exact, 0.9);
        assert!(
            rel_err(eff, eff_exact) <= tol(bits),
            "b={bits}: eff diameter {eff}, oracle {eff_exact}"
        );
        // full-quantile effective diameter reaches the true diameter 5
        assert!(
            (a.effective_diameter(1.0) - 5.0).abs() < 0.5,
            "b={bits}: diameter {}",
            a.effective_diameter(1.0)
        );
    }
}

#[test]
fn karate_distance_distribution_shape() {
    let g = builders::karate_club();
    let exact = DistanceDistribution::from_graph(&g);
    let exact_pdf = exact.pdf_positive();
    for bits in BITS {
        let pdf = anf(&g, bits).distance_pdf();
        assert_eq!(
            pdf.len(),
            exact.diameter(),
            "b={bits}: one bin per positive distance"
        );
        let total: f64 = pdf.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9, "b={bits}: Σ = {total}");
        for &(x, p) in &pdf {
            // per-bin absolute tolerance at 3σ: bins are shares of a
            // ratio of two estimates, so absolute (not relative) error
            // is the meaningful bound for near-empty bins
            assert!(
                (p - exact_pdf[x]).abs() <= tol(bits),
                "b={bits}: d({x}) = {p}, exact {}",
                exact_pdf[x]
            );
        }
    }
}

// ---------------------------------------------------------------------
// Register over-provisioning: n < 2^b must degrade gracefully
// ---------------------------------------------------------------------

#[test]
fn max_register_count_degrades_gracefully_on_small_graphs() {
    // b = 16 is 65536 registers per node — far more than these graphs
    // have nodes. The small-range (linear counting) correction must keep
    // every estimate finite and near-exact: no panic, no NaN, no zero
    // denominators anywhere in the derived family.
    for (g, want_mean) in [
        (builders::karate_club(), 2.4082),
        (builders::path(5), 2.0),
        (builders::complete(3), 1.0),
    ] {
        let a = anf(&g, sketch::MAX_SKETCH_BITS);
        assert!(a.converged);
        assert!(a.neighborhood.iter().all(|x| x.is_finite()), "finite N(t)");
        let d = a.avg_distance();
        assert!(d.is_finite());
        // linear-counting regime: error collapses far below 3σ
        assert!(
            rel_err(d, want_mean) < 0.02,
            "n ≪ 2^b is near-exact: d̄ = {d}, want {want_mean}"
        );
        assert!(a.effective_diameter(0.9).is_finite());
        assert!(a
            .distance_pdf()
            .iter()
            .all(|&(_, p)| p.is_finite() && p >= 0.0));
    }
    // degenerate shapes under maximum bits: still no panic, no NaN
    for g in [Graph::new(), Graph::with_nodes(1), Graph::with_nodes(4)] {
        let a = hyper_anf_sharded(
            &CsrGraph::from_graph(&g),
            sketch::MAX_SKETCH_BITS,
            8,
            DEFAULT_SHARDS,
            2,
        );
        assert!(a.avg_distance().is_finite());
        assert!(a.effective_diameter(0.9).is_finite());
    }
}

// ---------------------------------------------------------------------
// Analyzer integration: registry metrics against their exact twins
// ---------------------------------------------------------------------

#[test]
fn registry_sketch_metrics_track_exact_twins() {
    let g = builders::karate_club();
    for bits in BITS {
        let rep = Analyzer::new()
            .metric_names("d_avg,diameter,avg_distance_sketch,effective_diameter_sketch")
            .unwrap()
            .sketch_bits(bits)
            .analyze(&g);
        let d_exact = rep.scalar("d_avg").unwrap();
        let d_sketch = rep.scalar("avg_distance_sketch").unwrap();
        assert!(
            rel_err(d_sketch, d_exact) <= tol(bits),
            "b={bits}: sketch {d_sketch} vs exact {d_exact}"
        );
        let eff = rep.scalar("effective_diameter_sketch").unwrap();
        assert!(
            eff > 0.0 && eff <= rep.scalar("diameter").unwrap() + 0.5,
            "b={bits}: eff diameter {eff} bounded by the true diameter"
        );
    }
}

#[test]
fn analyzer_sketch_routes_and_bits_knob_are_deterministic() {
    let g = builders::grid(6, 7);
    let names = "avg_distance_sketch,effective_diameter_sketch,distance_sketch";
    let oracle = Analyzer::new()
        .metric_names(names)
        .unwrap()
        .threads(1)
        .analyze(&g);
    // any shard/thread count: identical reports
    for shards in [1, 2, 7, 42] {
        for threads in [1, 4] {
            let streamed = Analyzer::new()
                .metric_names(names)
                .unwrap()
                .shards(shards)
                .threads(threads)
                .analyze(&g);
            // sketches are shard-count-invariant outright (integer
            // registers + fixed-order sums), so any shard count matches
            assert_eq!(oracle, streamed, "shards = {shards}, threads = {threads}");
            assert_eq!(oracle.to_json(), streamed.to_json());
        }
    }
    // out-of-range builder bits clamp instead of panicking (the CLI
    // rejects; the library stays total)
    let lo = Analyzer::new()
        .metric_names(names)
        .unwrap()
        .sketch_bits(0)
        .analyze(&g);
    let hi = Analyzer::new()
        .metric_names(names)
        .unwrap()
        .sketch_bits(99)
        .analyze(&g);
    assert!(lo.scalar("avg_distance_sketch").unwrap().is_finite());
    assert!(hi.scalar("avg_distance_sketch").unwrap().is_finite());
}

#[test]
fn round_capped_runs_report_undefined_not_truncated_estimates() {
    // P20 has diameter 19: a 2-round cap cannot converge, and a
    // truncated N(0..2) would claim d̄ ≤ 2 — the registry metrics must
    // refuse (Undefined) instead of confidently reporting it
    let g = builders::path(20);
    let names = "avg_distance_sketch,effective_diameter_sketch,distance_sketch";
    let capped = Analyzer::new()
        .metric_names(names)
        .unwrap()
        .sketch_rounds(2)
        .analyze(&g);
    assert_eq!(capped.scalar("avg_distance_sketch"), None);
    assert_eq!(capped.scalar("effective_diameter_sketch"), None);
    assert!(capped.series("distance_sketch").is_none());
    // a budget past the diameter converges and defines the full battery
    let full = Analyzer::new()
        .metric_names(names)
        .unwrap()
        .sketch_rounds(64)
        .analyze(&g);
    assert!(full.scalar("avg_distance_sketch").is_some());
    assert!(full.scalar("effective_diameter_sketch").is_some());
    assert!(full.series("distance_sketch").is_some());
}

/// The seeded Barabási–Albert input (2 edges per new node, 3 seed nodes).
fn ba(nodes: usize, seed: u64) -> Graph {
    barabasi_albert(
        &BaParams {
            nodes,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(seed),
    )
}

// ---------------------------------------------------------------------
// The acceptance run: 10⁴-node BA, b = 6 and 8 within 3σ, b = 10 within
// 5%, ≥ 5 seeds
// ---------------------------------------------------------------------

#[test]
fn ba_10k_avg_distance_within_five_percent_across_seeds() {
    let bits = 10;
    let n = 10_000;
    let seeds: [u64; 5] = [1, 2, 3, 4, 5];
    let mut worst = 0.0f64;
    for seed in seeds {
        let g = ba(n, seed);
        let csr = CsrGraph::from_graph(&g);
        let exact = DistanceDistribution::from_csr_sharded(&csr, DEFAULT_SHARDS, 0).mean();
        for coarse in [6, 8] {
            let a = hyper_anf_sharded(&csr, coarse, ROUNDS, DEFAULT_SHARDS, 0);
            assert!(a.converged, "seed {seed}, b = {coarse}");
            let rel = rel_err(a.avg_distance(), exact);
            assert!(
                rel <= tol(coarse),
                "seed {seed}, b = {coarse}: sketch d̄ = {}, exact {exact}, rel {rel}",
                a.avg_distance()
            );
        }
        let a = hyper_anf_sharded(&csr, bits, ROUNDS, DEFAULT_SHARDS, 0);
        assert!(a.converged, "seed {seed}");
        let rel = rel_err(a.avg_distance(), exact);
        worst = worst.max(rel);
        assert!(
            rel < 0.05,
            "seed {seed}: sketch d̄ = {}, exact {exact}, rel {rel}",
            a.avg_distance()
        );
    }
    // the 5% acceptance bound sits above the 3σ derivation (9.75% at
    // b = 10 per counter) only because summing n correlated counters
    // cancels much of the per-counter noise — record the observed worst
    // case so a future estimator regression is visible in the log
    println!("worst relative error across seeds: {worst:.4}");
}

// ---------------------------------------------------------------------
// Release-only scale check (10⁶ nodes)
// ---------------------------------------------------------------------

/// The sketch battery on a 10⁶-node BA graph at `b = 6` (64 MiB of
/// registers), where no exact oracle is affordable: every estimate
/// converges and is finite, and the sketch's d̄ stays within 3σ of the
/// sampled Brandes–Pich twin (K = 64 pivots) computed alongside.
#[test]
#[ignore = "release only: cargo test --release --test sketch_tolerance -- --ignored --exact ba_1m_sketch_battery_tracks_sampled_twin --test-threads=1"]
fn ba_1m_sketch_battery_tracks_sampled_twin() {
    let bits = 6;
    let battery = "n,m,k_avg,distance_approx,avg_distance_sketch,effective_diameter_sketch";
    let report = Analyzer::new()
        .metric_names(battery)
        .unwrap()
        .threads(0)
        .sample_sources(64)
        .sketch_bits(bits)
        .analyze(&ba(1_000_000, 20060911));
    let scalar = |name: &str| {
        let value = report.scalar(name);
        assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
        value.unwrap()
    };
    for name in battery.split(',') {
        scalar(name);
    }
    let (sketch, sampled) = (scalar("avg_distance_sketch"), scalar("distance_approx"));
    assert!(
        rel_err(sketch, sampled) <= tol(bits),
        "sketch d̄ = {sketch}, sampled twin {sampled}"
    );
}
