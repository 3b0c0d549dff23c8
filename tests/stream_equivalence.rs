//! Streaming equivalence suite: every traversal-shaped metric runs
//! through one sharded streaming executor, and at a given shard count it
//! must be **bit-identical** for every thread count to the same pass at
//! `threads = 1` — the oracle, since one worker computes each shard and
//! merges it in shard order, the same operations as collect-then-merge.
//! The default analyzer output must not change a byte under `--shards`
//! at the default count or a memory budget, and a metric computed on
//! demand from a bare cache must equal the prepared one bit for bit.
//!
//! The sampled (Brandes–Pich) estimators ride the same shard executor,
//! so their edge cases live here too: disconnected, empty, and `n < K`
//! graphs; `K ≥ n` equal to exact bit for bit; estimator denominators
//! never zero.

use dk_repro::graph::builders;
use dk_repro::graph::csr::CsrGraph;
use dk_repro::graph::Graph;
use dk_repro::metrics::metric::AnyMetric;
use dk_repro::metrics::stream;
use dk_repro::metrics::{betweenness, distance::DistanceDistribution, sampled, Analyzer};
use dk_repro::metrics::{AnalysisCache, AnalyzeOptions};
use dk_repro::topologies::ba::{barabasi_albert, BaParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The seeded Barabási–Albert input (2 edges per new node, 3 seed
/// nodes) of the scale checks, at the repository's master seed.
fn ba(nodes: usize) -> Graph {
    barabasi_albert(
        &BaParams {
            nodes,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(20060911),
    )
}

/// The graphs every equivalence check runs over: golden anchors plus a
/// disconnected graph (unreachable-pair accounting) and one with
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
        builders::grid(5, 7),
        Graph::from_edges(7, [(0, 1), (2, 3), (3, 4), (4, 2), (5, 6)]).unwrap(),
        with_isolated,
    ]
}

/// Comma-separated names of every registry metric whose pass rides the
/// shard executor (exact, sampled, or sketch) — derived from the
/// registry's dependency metadata via `Dep::rides_shard_executor`, so a
/// future estimator metric is covered automatically instead of silently
/// skipping the equivalence sweep.
fn traversal_metric_names() -> String {
    let names: Vec<&str> = AnyMetric::all()
        .filter(|m| m.deps().iter().any(|d| d.rides_shard_executor()))
        .map(|m| m.name())
        .collect();
    assert!(
        names.len() >= 11,
        "registry lost traversal metrics: {names:?}"
    );
    assert!(
        names.contains(&"avg_distance_sketch"),
        "dep metadata must route the sketch metrics into the sweep: {names:?}"
    );
    names.join(",")
}

// ---------------------------------------------------------------------
// Library-level bit-identity: any thread count vs the one-thread oracle
// ---------------------------------------------------------------------

#[test]
fn fused_streamed_bit_identical_to_oracle_across_shards_and_threads() {
    // the zoo at every shard shape, and a 2000-node BA graph, whose hubs
    // give the f64 merge tree something to round, at the default and an
    // odd shard count
    let zoo = zoo().into_iter().map(|g| {
        let n = g.node_count();
        (g, vec![1, 2, 7, n])
    });
    for (g, shard_counts) in zoo.chain([(ba(2000), vec![stream::DEFAULT_SHARDS, 7])]) {
        let csr = CsrGraph::from_graph(&g);
        for shards in shard_counts {
            let oracle = betweenness::betweenness_and_distances_sharded(&csr, shards, 1);
            for threads in [1, 3] {
                let s = betweenness::betweenness_and_distances_sharded(&csr, shards, threads);
                // Vec<f64> equality is exact — any rounding drift fails
                assert_eq!(s.betweenness, oracle.betweenness, "shards = {shards}");
                assert_eq!(s.distances, oracle.distances);
                assert_eq!(s.max_depth, oracle.max_depth);
            }
        }
    }
}

#[test]
fn distance_streamed_identical_for_every_shard_count() {
    // the histogram reducer is integer, so the result at ANY shard
    // count matches the default shard count's, not just at equal ones
    for g in zoo() {
        let csr = CsrGraph::from_graph(&g);
        let want = DistanceDistribution::from_csr_sharded(&csr, stream::DEFAULT_SHARDS, 1);
        for shards in [1, 2, 7, g.node_count()] {
            for threads in [1, 3] {
                assert_eq!(
                    DistanceDistribution::from_csr_sharded(&csr, shards, threads),
                    want,
                    "shards = {shards}, threads = {threads}"
                );
            }
        }
    }
}

#[test]
fn sampled_streamed_bit_identical_to_oracle() {
    for g in zoo() {
        let csr = CsrGraph::from_graph(&g);
        let n = g.node_count();
        for k in [1, 8, n, n + 10] {
            for shards in [1, 2, 7, n] {
                let oracle = sampled::sampled_traversal_sharded(&csr, k, shards, 1);
                for threads in [1, 3] {
                    assert_eq!(
                        sampled::sampled_traversal_sharded(&csr, k, shards, threads),
                        oracle,
                        "k = {k}, shards = {shards}, threads = {threads}"
                    );
                }
            }
        }
    }
}

#[test]
fn eccentricity_reducer_agrees_with_histogram() {
    for g in zoo() {
        let csr = CsrGraph::from_graph(&g);
        let exact = betweenness::betweenness_and_distances_sharded(&csr, 7, 2);
        assert_eq!(exact.max_depth as usize, exact.distances.diameter());
        let s = sampled::sampled_traversal_sharded(&csr, 8, 3, 2);
        assert_eq!(s.max_depth as usize, s.distances.diameter());
    }
}

// ---------------------------------------------------------------------
// Analyzer-level equivalence (the facade and its cache)
// ---------------------------------------------------------------------

#[test]
fn analyzer_streamed_report_identical_to_in_memory_oracle() {
    let names = traversal_metric_names();
    for g in zoo() {
        let n = g.node_count();
        for shards in [1, 2, 7, n.max(1)] {
            let oracle = Analyzer::new()
                .metric_names(&names)
                .unwrap()
                .shards(shards)
                .threads(1)
                .analyze(&g);
            for threads in [1, 4] {
                let streamed = Analyzer::new()
                    .metric_names(&names)
                    .unwrap()
                    .shards(shards)
                    .threads(threads)
                    .analyze(&g);
                assert_eq!(oracle, streamed, "shards = {shards}, threads = {threads}");
                assert_eq!(oracle.to_json(), streamed.to_json());
            }
        }
    }
}

#[test]
fn analyzer_default_route_unchanged_by_streaming_optin() {
    // shards at the default count + a generous memory budget must not
    // change a byte of the default report
    let g = builders::karate_club();
    let base = Analyzer::new().all_metrics().analyze(&g);
    let streamed = Analyzer::new()
        .all_metrics()
        .shards(stream::DEFAULT_SHARDS)
        .memory_budget(1 << 30)
        .analyze(&g);
    assert_eq!(base, streamed);
    assert_eq!(base.to_json(), streamed.to_json());
}

#[test]
fn analyzer_memory_budget_caps_workers_without_changing_results() {
    let g = builders::grid(6, 8);
    let names = traversal_metric_names();
    let roomy = Analyzer::new()
        .metric_names(&names)
        .unwrap()
        .threads(4)
        .analyze(&g);
    // a one-worker budget: same results, just less parallelism
    let starved = Analyzer::new()
        .metric_names(&names)
        .unwrap()
        .threads(4)
        .memory_budget(1)
        .analyze(&g);
    assert_eq!(roomy, starved);
}

#[test]
fn cache_plan_is_visible_and_auto_threshold_applies() {
    let g = builders::karate_club();
    let plan = |opts: AnalyzeOptions| AnalysisCache::build(&g, &[], &opts).exec_plan();
    let default = plan(AnalyzeOptions {
        threads: 3,
        ..Default::default()
    });
    assert_eq!(
        (default.shards, default.workers),
        (stream::DEFAULT_SHARDS, 3)
    );
    let sharded = plan(AnalyzeOptions {
        shards: Some(7),
        ..Default::default()
    });
    assert_eq!(sharded.shards, 7);
    // a one-byte budget caps the workers at the floor of one
    let budgeted = plan(AnalyzeOptions {
        threads: 4,
        memory_budget: Some(1),
        ..Default::default()
    });
    assert_eq!(
        (budgeted.shards, budgeted.workers),
        (stream::DEFAULT_SHARDS, 1)
    );
}

#[test]
fn bare_cache_fallbacks_equal_prepared_deps_bitwise() {
    // a metric computed on demand from a bare cache runs the same sharded
    // pass with the same plan as the prepared dep — so a non-default
    // shard count yields the same f64 merge tree either way
    let names = [
        "b_max",
        "b_k",
        "betweenness_approx",
        "d_avg",
        "avg_distance_sketch",
    ];
    for g in [builders::karate_club(), builders::grid(9, 11)] {
        for shards in [1, 3, 7] {
            let opts = AnalyzeOptions {
                shards: Some(shards),
                threads: 2,
                samples: 16,
                ..Default::default()
            };
            let bare = AnalysisCache::bare(&g, &opts);
            for name in names {
                let metric = AnyMetric::get(name).unwrap();
                let prepared = AnalysisCache::build(&g, &[metric], &opts);
                assert_eq!(
                    metric.compute(&prepared),
                    metric.compute(&bare),
                    "{name}, n = {}, shards = {shards}",
                    g.node_count()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sampled estimator edge cases (disconnected / empty / n < K)
// ---------------------------------------------------------------------

#[test]
fn sampled_metrics_undefined_on_empty_and_degenerate_graphs() {
    let analyzer = Analyzer::new()
        .metric_names("distance_approx,betweenness_approx")
        .unwrap();
    let empty = analyzer.analyze(&Graph::new());
    assert_eq!(empty.scalar("distance_approx"), None);
    assert_eq!(empty.scalar("betweenness_approx"), None);
    let single = analyzer.analyze(&builders::path(1));
    assert_eq!(single.scalar("distance_approx"), None);
    assert_eq!(single.scalar("betweenness_approx"), None);
    // two nodes: distance defined, betweenness undefined (n < 3)
    let pair = analyzer.analyze(&builders::path(2));
    assert_eq!(pair.scalar("distance_approx"), Some(1.0));
    assert_eq!(pair.scalar("betweenness_approx"), None);
}

#[test]
fn sampled_equals_exact_bitwise_when_k_covers_n() {
    // n < K for every zoo graph at K = 10_000: sampled twins must equal
    // their exact metrics bit for bit, at the default and a custom shard
    // count
    for g in zoo() {
        for shards in [None, Some(7)] {
            let mut analyzer = Analyzer::new()
                .metric_names("d_avg,d_std,b_max,distance_approx,betweenness_approx")
                .unwrap()
                .sample_sources(10_000);
            if let Some(s) = shards {
                analyzer = analyzer.shards(s);
            }
            let rep = analyzer.analyze(&g);
            assert_eq!(
                rep.scalar("distance_approx"),
                rep.scalar("d_avg"),
                "shards = {shards:?}"
            );
            assert_eq!(rep.scalar("betweenness_approx"), rep.scalar("b_max"));
        }
    }
}

#[test]
fn sampled_estimators_finite_on_disconnected_graphs() {
    // heavily disconnected graph straight through the sharded pass:
    // no NaN, no division by zero, fractions in range
    let g = Graph::from_edges(9, [(0, 1), (2, 3), (3, 4), (5, 6)]).unwrap();
    let csr = CsrGraph::from_graph(&g);
    for k in [1, 3, 9, 50] {
        let s = sampled::sampled_traversal_sharded(&csr, k, 4, 2);
        let f = s.unreachable_fraction();
        assert!(f.is_finite() && (0.0..=1.0).contains(&f), "k = {k}: {f}");
        assert!(s.pdf_estimate().iter().all(|p| p.is_finite() && *p >= 0.0));
        assert!(s.distances.mean().is_finite());
        assert!(s.betweenness.iter().all(|b| b.is_finite()));
    }
    // all-isolated graph: every pair unreachable, mean distance 0
    let isolated = Graph::with_nodes(4);
    let s = sampled::sampled_traversal_sharded(
        &CsrGraph::from_graph(&isolated),
        2,
        stream::DEFAULT_SHARDS,
        1,
    );
    assert_eq!(s.distances.mean(), 0.0);
    assert!(s.unreachable_fraction() > 0.0);
    assert!(s.pdf_estimate().iter().all(|p| p.is_finite()));
}

// ---------------------------------------------------------------------
// Release-only scale check (10⁶ nodes)
// ---------------------------------------------------------------------

/// Process resident set in bytes (Linux `VmRSS`).
fn rss_now_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmRSS line in /proc/self/status");
    kib * 1024
}

/// The memory model at 10⁶ nodes: a streamed sampled pass (K = 64
/// pivots) grows the process RSS by at most its workers' scratch
/// (`stream::per_worker_bytes`), the O(n) global accumulator and 64 MiB
/// of slack for the allocator and the pass's output; then the default
/// battery, with its exact all-pairs columns swapped for their sampled
/// twins, analyzes the graph through the shard executor. Any other test
/// in the process would move the RSS, so it runs alone.
#[test]
#[ignore = "release only: cargo test --release --test stream_equivalence -- --ignored --exact large_sampled_pass_fits_the_memory_model --test-threads=1"]
fn large_sampled_pass_fits_the_memory_model() {
    let samples = 64;
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let g = ba(1_000_000);
    let n = g.node_count();
    let csr = CsrGraph::from_graph(&g);
    let before = rss_now_bytes();
    let pass = sampled::sampled_traversal_sharded(&csr, samples, stream::DEFAULT_SHARDS, threads);
    let grown = rss_now_bytes().saturating_sub(before);
    let model = threads as u64 * stream::per_worker_bytes(n) + 8 * n as u64 + (64 << 20);
    assert!(
        grown <= model,
        "the streamed pass grew RSS by {grown} B, over the {model} B model bound"
    );
    assert!(pass.distances.mean() > 0.0);
    drop(pass);
    drop(csr);

    let battery =
        "n,m,gcc_fraction,k_avg,r,c_mean,s,s2,kcore_max,distance_approx,betweenness_approx";
    let report = Analyzer::new()
        .metric_names(battery)
        .unwrap()
        .threads(threads)
        .sample_sources(samples)
        .analyze(&g);
    for name in battery.split(',') {
        let value = report.scalar(name);
        assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
    }
    assert_eq!(report.scalar("n"), Some(n as f64));
}
