//! CSR equivalence suite: the frozen-snapshot port of every analysis
//! traversal must keep the pre-CSR golden values, and the
//! sampled (Brandes–Pich) estimators must be deterministic, within
//! tolerance of exact, and *equal* to exact when `samples ≥ n`.
//!
//! Golden anchors: K5 / S5 / C6 closed forms and Zachary's karate club
//! (the same anchors `analyzer_golden.rs` pins for the exact metrics).

use dk_repro::graph::builders;
use dk_repro::graph::csr::CsrGraph;
use dk_repro::graph::{traversal, Graph};
use dk_repro::metrics::{sampled, stream, Analyzer, Report};

fn close(got: f64, want: f64, what: &str) {
    assert!((got - want).abs() < 1e-9, "{what}: got {got}, want {want}");
}

/// The graphs every equivalence check runs over: the golden anchors plus
/// a disconnected graph (unreachable-pair accounting) and a graph with
/// isolated nodes (GCC extraction path).
fn zoo() -> Vec<Graph> {
    let mut with_isolated = builders::karate_club();
    with_isolated.add_node();
    with_isolated.add_node();
    vec![
        builders::complete(5),
        builders::star(5),
        builders::cycle(6),
        builders::karate_club(),
        Graph::from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)]).unwrap(),
        with_isolated,
    ]
}

// ---------------------------------------------------------------------
// CSR-backed metrics keep the pre-CSR golden values
// ---------------------------------------------------------------------

#[test]
fn analyzer_reports_unchanged_on_golden_anchors() {
    // the full registry through the facade: CSR-backed values must match
    // the pre-CSR golden values (spot anchors from analyzer_golden.rs)
    let all = |g: &Graph| -> Report { Analyzer::new().all_metrics().threads(1).analyze(g) };
    let k5 = all(&builders::complete(5));
    close(k5.scalar("d_avg").unwrap(), 1.0, "K5 d_avg");
    close(k5.scalar("b_max").unwrap(), 0.0, "K5 b_max");
    close(k5.scalar("c_mean").unwrap(), 1.0, "K5 c_mean");
    close(k5.scalar("kcore_max").unwrap(), 4.0, "K5 kcore_max");

    let s5 = all(&builders::star(5));
    close(s5.scalar("d_avg").unwrap(), 5.0 / 3.0, "S5 d_avg");
    close(s5.scalar("b_max").unwrap(), 1.0, "S5 b_max");
    close(s5.scalar("kcore_max").unwrap(), 1.0, "S5 kcore_max");

    let c6 = all(&builders::cycle(6));
    close(c6.scalar("d_avg").unwrap(), 1.8, "C6 d_avg");
    close(c6.scalar("b_max").unwrap(), 0.2, "C6 b_max");
    close(c6.scalar("diameter").unwrap(), 3.0, "C6 diameter");

    let karate = all(&builders::karate_club());
    close(karate.scalar("n").unwrap(), 34.0, "karate n");
    close(
        karate.scalar("kcore_max").unwrap(),
        4.0,
        "karate degeneracy",
    );
    // Brandes' paper / networkx value through the normalized convention
    // (literature constant is truncated at 4 decimals, hence the tol)
    let b_max = karate.scalar("b_max").unwrap();
    let want = 231.0714 * 2.0 / (33.0 * 32.0);
    assert!(
        (b_max - want).abs() < 1e-5,
        "karate b_max {b_max} vs {want}"
    );
}

#[test]
fn giant_component_identical_through_csr_labeling() {
    for g in zoo() {
        let (gcc, map) = traversal::giant_component(&g);
        gcc.check_invariants().unwrap();
        // the mapping must select a maximal component, ascending ids
        assert!(map.windows(2).all(|w| w[0] < w[1]));
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(map, traversal::giant_component_nodes(&csr));
        assert_eq!(
            gcc.node_count() as f64 / g.node_count().max(1) as f64,
            traversal::gcc_fraction(&g).min(1.0)
        );
    }
}

#[test]
fn parallel_equals_serial_through_the_facade() {
    // thread-count byte-identity must survive the CSR port
    let g = builders::karate_club();
    let base = Analyzer::new().all_metrics();
    let serial = base.clone().threads(1).analyze(&g);
    for threads in [2, 4, 0] {
        let parallel = base.clone().threads(threads).analyze(&g);
        assert_eq!(serial, parallel, "threads = {threads}");
        assert_eq!(serial.to_json(), parallel.to_json());
    }
}

// ---------------------------------------------------------------------
// Sampled estimators
// ---------------------------------------------------------------------

#[test]
fn sampled_equals_exact_when_samples_cover_all_nodes() {
    // karate has 34 nodes; the default budget (64) and anything larger
    // must reproduce the exact metrics bit for bit
    let g = builders::karate_club();
    for k in [34, 64, 10_000] {
        let rep = Analyzer::new()
            .metric_names("d_avg,b_max,distance_approx,betweenness_approx")
            .unwrap()
            .sample_sources(k)
            .analyze(&g);
        assert_eq!(
            rep.scalar("distance_approx"),
            rep.scalar("d_avg"),
            "k = {k}"
        );
        assert_eq!(
            rep.scalar("betweenness_approx"),
            rep.scalar("b_max"),
            "k = {k}"
        );
    }
}

#[test]
fn sampled_within_tolerance_of_exact_on_karate() {
    let g = builders::karate_club();
    let rep = Analyzer::new()
        .metric_names("d_avg,b_max,distance_approx,betweenness_approx")
        .unwrap()
        .sample_sources(16)
        .analyze(&g);
    let d_exact = rep.scalar("d_avg").unwrap();
    let d_approx = rep.scalar("distance_approx").unwrap();
    assert!(
        (d_approx - d_exact).abs() / d_exact < 0.1,
        "d̄: exact {d_exact}, sampled {d_approx}"
    );
    let b_exact = rep.scalar("b_max").unwrap();
    let b_approx = rep.scalar("betweenness_approx").unwrap();
    assert!(
        (b_approx - b_exact).abs() / b_exact < 0.35,
        "b_max: exact {b_exact}, sampled {b_approx}"
    );
}

#[test]
fn sampled_deterministic_across_thread_counts() {
    let g = builders::grid(8, 9);
    let analyzer = Analyzer::new()
        .metric_names("distance_approx,betweenness_approx")
        .unwrap()
        .sample_sources(12);
    let serial = analyzer.clone().threads(1).analyze(&g);
    for threads in [2, 4, 0] {
        let parallel = analyzer.clone().threads(threads).analyze(&g);
        assert_eq!(serial, parallel, "threads = {threads}");
    }
    // and across repeated runs (seeded pivot stride, no wall-clock state)
    assert_eq!(serial, analyzer.threads(1).analyze(&g));
}

#[test]
fn sampled_pass_usable_standalone() {
    // library surface: the sampled pass without the facade
    let g = builders::karate_club();
    let csr = CsrGraph::from_graph(&g);
    let s = sampled::sampled_traversal_sharded(&csr, 8, stream::DEFAULT_SHARDS, 1);
    assert_eq!(s.sources, 8);
    assert_eq!(s.betweenness.len(), 34);
    assert!(s.distances.mean() > 0.0);
    let pivots = sampled::sample_pivots(34, 8);
    assert_eq!(pivots.len(), 8);
}

#[test]
fn sampled_undefined_on_degenerate_graphs() {
    let rep = Analyzer::new()
        .metric_names("distance_approx,betweenness_approx")
        .unwrap()
        .analyze(&builders::path(1));
    assert_eq!(rep.scalar("distance_approx"), None);
    assert_eq!(rep.scalar("betweenness_approx"), None);
}
