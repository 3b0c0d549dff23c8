//! CSR equivalence suite: the frozen-snapshot port of every analysis
//! traversal must keep the pre-CSR golden values, and the
//! sampled (Brandes–Pich) estimators must be deterministic, within
//! tolerance of exact, and *equal* to exact when `samples ≥ n`.
//!
//! Golden anchors: K5 / S5 / C6 closed forms and Zachary's karate club
//! (the same anchors `analyzer_golden.rs` pins for the exact metrics).
//!
//! Analysis reads one CSR whose edges come in row order, not a
//! `Graph`'s `edges()` order, so the edge sums of `r`, `S` and `S2` are
//! exact integers; the exact-sum oracles below hold them to the f64
//! `edges()`-order sums, bit for bit, and the GCC oracle holds the
//! cache's CSR giant component to `giant_component`'s graph.
//!
//! The triangle census is one degree-ordered forward pass; the census
//! oracles hold its per-node counts and `S2` to the sorted-merge census
//! it replaced, bit for bit.
//!
//! A cache built on a shared `AnalysisBase` (the GCC step and its
//! census, as `dk serve` keeps one per graph epoch) reports what a cache
//! that builds its own base reports, bit for bit.

use dk_repro::graph::builders;
use dk_repro::graph::csr::CsrGraph;
use dk_repro::graph::{traversal, undirected_edges, AdjacencyView, Graph, GraphError, NodeId};
use dk_repro::metrics::{
    clustering, jdd, likelihood, sampled, stream, AnalysisBase, AnalysisCache, AnalyzeOptions,
    Analyzer, AnyMetric, GccPolicy, MetricValue, Report,
};
use dk_repro::topologies::ba::{barabasi_albert, BaParams};
use dk_repro::topologies::{skitter_like, AsLikeParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

// ---------------------------------------------------------------------
// Exact edge sums keep the edges()-order f64 sums, bit for bit
// ---------------------------------------------------------------------

/// `r` as it was summed before analysis read a CSR: f64 terms added in
/// `edges()` order.
fn assortativity_f64(g: &Graph) -> f64 {
    let m = g.edge_count();
    if m == 0 {
        return 0.0;
    }
    let minv = 1.0 / m as f64;
    let (mut sum_jk, mut sum_half, mut sum_sq) = (0.0, 0.0, 0.0);
    for &(u, v) in g.edges() {
        let j = g.degree(u) as f64;
        let k = g.degree(v) as f64;
        sum_jk += j * k;
        sum_half += 0.5 * (j + k);
        sum_sq += 0.5 * (j * j + k * k);
    }
    let num = minv * sum_jk - (minv * sum_half).powi(2);
    let den = minv * sum_sq - (minv * sum_half).powi(2);
    if den.abs() < 1e-15 {
        0.0
    } else {
        num / den
    }
}

/// `S` summed in f64 in `edges()` order (`Graph::likelihood_s`).
fn likelihood_s_f64(g: &Graph) -> f64 {
    g.edges()
        .iter()
        .map(|&(u, v)| (g.degree(u) as f64) * (g.degree(v) as f64))
        .sum()
}

/// `S2` summed in f64: neighbor pairs per center, then the closed pairs
/// subtracted in `edges()` order.
fn likelihood_s2_f64(g: &Graph) -> f64 {
    let mut total = 0.0f64;
    for v in g.nodes() {
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        for &u in g.neighbors(v) {
            let k = g.degree(u) as f64;
            sum += k;
            sum_sq += k * k;
        }
        total += (sum * sum - sum_sq) / 2.0;
    }
    for &(u, v) in g.edges() {
        let t = g.common_neighbors(u, v) as f64;
        total -= t * (g.degree(u) as f64) * (g.degree(v) as f64);
    }
    total
}

/// `g` with its `edges()` order scrambled: random edges removed (the
/// list swap-removes) and re-added (appended), reversed.
fn scrambled(g: &Graph, seed: u64) -> Result<Graph, GraphError> {
    let mut h = g.clone();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..2 * g.edge_count() {
        let (u, v) = h.edge_at(rng.gen_range(0..h.edge_count()));
        h.remove_edge(u, v)?;
        h.add_edge(v, u)?;
    }
    Ok(h)
}

/// The small skitter-like graph and a BA graph of 2·10⁴ nodes, seeded
/// as the CLI digests seed them.
fn large_inputs() -> Vec<Graph> {
    let skitter = skitter_like(&AsLikeParams::small(), &mut StdRng::seed_from_u64(27));
    let ba = barabasi_albert(
        &BaParams {
            nodes: 20_000,
            edges_per_node: 2,
            seed_nodes: 3,
        },
        &mut StdRng::seed_from_u64(1),
    );
    vec![skitter, ba]
}

#[test]
fn exact_edge_sums_equal_the_edge_order_f64_sums() -> Result<(), GraphError> {
    let mut inputs = zoo();
    for (seed, g) in zoo().iter().enumerate() {
        let h = scrambled(g, seed as u64)?;
        assert_eq!(&h, g);
        inputs.push(h);
    }
    inputs.extend(large_inputs());
    for g in &inputs {
        let csr = CsrGraph::from_graph(g);
        let cases = [
            (
                "r",
                assortativity_f64(g),
                jdd::assortativity(&csr),
                jdd::assortativity(g),
            ),
            (
                "s",
                likelihood_s_f64(g),
                likelihood::likelihood_s(&csr),
                likelihood::likelihood_s(g),
            ),
            (
                "s2",
                likelihood_s2_f64(g),
                likelihood::likelihood_s2(&csr),
                likelihood::likelihood_s2(g),
            ),
        ];
        for (name, want, on_csr, on_graph) in cases {
            let n = g.node_count();
            assert_eq!(
                on_csr.to_bits(),
                want.to_bits(),
                "{name}, n = {n}: {on_csr} vs {want}"
            );
            assert_eq!(
                on_graph.to_bits(),
                want.to_bits(),
                "{name} on the Graph, n = {n}"
            );
        }
    }
    // the one intended change: an edgeless graph's S is 0, where the
    // empty f64 sum gave -0
    let edgeless = Graph::with_nodes(3);
    assert_eq!(likelihood_s_f64(&edgeless).to_bits(), (-0.0f64).to_bits());
    let s = likelihood::likelihood_s(&CsrGraph::from_graph(&edgeless));
    assert_eq!(s.to_bits(), 0.0f64.to_bits());
    Ok(())
}

// ---------------------------------------------------------------------
// The forward census keeps the merge census's counts and S2, bit for bit
// ---------------------------------------------------------------------

/// `clustering::triangles_per_node` as it was before the degree-ordered
/// census: its body verbatim, one sorted-adjacency merge per edge.
fn triangles_per_node_oracle<V: AdjacencyView + ?Sized>(g: &V) -> Vec<usize> {
    let n = g.node_count();
    let mut t = vec![0usize; n];
    for u in 0..n as u32 {
        let a = g.neighbors(u);
        for &v in a.iter().filter(|&&v| v > u) {
            // every common neighbor w of (u,v) closes a triangle {u,v,w}
            let b = g.neighbors(v);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        let w = a[i];
                        t[w as usize] += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    // each triangle's three edges credit its three opposite vertices, so
    // every vertex of a triangle is counted exactly once
    t
}

/// `likelihood::likelihood_s2` as it was before it read the census's
/// closed-pair weight: its body verbatim, the closed pairs subtracted
/// by one `common_neighbors` merge per edge.
fn likelihood_s2_oracle<V: AdjacencyView + ?Sized>(g: &V) -> f64 {
    // all neighbor pairs (open + closed) per center
    let mut total = 0i128;
    for v in 0..g.node_count() as NodeId {
        let (mut sum, mut sum_sq) = (0i128, 0i128);
        for &u in g.neighbors(v) {
            let k = g.degree(u) as i128;
            sum += k;
            sum_sq += k * k;
        }
        total += (sum * sum - sum_sq) / 2;
    }
    // subtract closed pairs: for every edge (u,v) and common neighbor w,
    // the pair {u,v} is a triangle-closed neighbor pair of center w
    for (u, v) in undirected_edges(g) {
        let t = g.common_neighbors(u, v) as i128;
        total -= t * g.degree(u) as i128 * g.degree(v) as i128;
    }
    total as f64
}

/// Holds the census to both oracles on `g` and on its CSR.
fn assert_census_matches_oracle(g: &Graph, what: &str) {
    let csr = CsrGraph::from_graph(g);
    let want = triangles_per_node_oracle(g);
    assert_eq!(clustering::triangles_per_node(g), want, "{what}: Graph");
    assert_eq!(clustering::triangles_per_node(&csr), want, "{what}: CSR");
    let s2 = likelihood_s2_oracle(g).to_bits();
    assert_eq!(
        likelihood::likelihood_s2(g).to_bits(),
        s2,
        "{what}: S2 on the Graph"
    );
    assert_eq!(
        likelihood::likelihood_s2(&csr).to_bits(),
        s2,
        "{what}: S2 on the CSR"
    );
}

/// Two hubs of equal degree (a rank tie the id breaks) joined to each
/// other and to every leaf, a clique among the first leaves, and a
/// third, smaller hub on the last leaves.
fn star_clique_hubs() -> Result<Graph, GraphError> {
    let mut g = Graph::with_nodes(42);
    g.add_edge(0, 1)?;
    for leaf in 3..42 {
        g.add_edge(0, leaf)?;
        g.add_edge(1, leaf)?;
    }
    for u in 3..9 {
        for v in u + 1..9 {
            g.add_edge(u, v)?;
        }
    }
    for leaf in 30..42 {
        g.add_edge(2, leaf)?;
    }
    Ok(g)
}

/// The census inputs: the zoo, complete graphs, degree-regular graphs
/// whose every rank tie falls to the id, hub-heavy graphs, and
/// edgeless ones.
fn census_inputs() -> Result<Vec<(String, Graph)>, GraphError> {
    let mut inputs: Vec<(String, Graph)> = zoo()
        .into_iter()
        .enumerate()
        .map(|(i, g)| (format!("zoo[{i}]"), g))
        .collect();
    for k in 3..=12 {
        inputs.push((format!("K{k}"), builders::complete(k)));
    }
    inputs.extend([
        ("cycle(9)".to_string(), builders::cycle(9)),
        ("petersen".to_string(), builders::petersen()),
        ("grid(6, 7)".to_string(), builders::grid(6, 7)),
        ("star+clique hubs".to_string(), star_clique_hubs()?),
        (
            "BA(2000)".to_string(),
            barabasi_albert(
                &BaParams {
                    nodes: 2000,
                    edges_per_node: 2,
                    seed_nodes: 3,
                },
                &mut StdRng::seed_from_u64(5),
            ),
        ),
        (
            "skitter_like(small)".to_string(),
            skitter_like(&AsLikeParams::small(), &mut StdRng::seed_from_u64(27)),
        ),
        ("edgeless(5)".to_string(), Graph::with_nodes(5)),
        ("empty".to_string(), Graph::new()),
    ]);
    Ok(inputs)
}

#[test]
fn census_matches_the_merge_oracle() -> Result<(), GraphError> {
    for (what, g) in census_inputs()? {
        assert_census_matches_oracle(&g, &what);
    }
    Ok(())
}

/// Strategy: a simple graph on 40 nodes in which about half the edge
/// endpoints land on one of 1–4 hubs spread over the id range, so the
/// degrees span a wide range while the leaves tie on degree often.
fn arb_hub_heavy() -> impl Strategy<Value = Graph> {
    (
        1u32..5,
        proptest::collection::vec((0u32..40, 0u32..40, 0u32..4), 0..200),
    )
        .prop_map(|(hubs, ends)| {
            let hub = |x: u32| (x % hubs) * 13 % 40;
            let edges = ends.into_iter().map(|(u, v, pick)| match pick {
                0 | 1 => (hub(u), v),
                _ => (u, v),
            });
            Graph::from_edges_dedup(40, edges).expect("ids below 40")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The census equals the merge oracle on random hub-heavy graphs.
    #[test]
    fn census_matches_the_merge_oracle_on_hub_heavy_graphs(g in arb_hub_heavy()) {
        assert_census_matches_oracle(&g, "hub-heavy");
    }
}

/// A metric value's bits: scalars and series points by `f64::to_bits`.
fn value_bits(v: &MetricValue) -> Vec<u64> {
    match v {
        MetricValue::Scalar(x) => vec![x.to_bits()],
        MetricValue::Series(s) => s
            .iter()
            .flat_map(|&(k, y)| [k as u64, y.to_bits()])
            .collect(),
        MetricValue::Undefined => vec![u64::MAX],
    }
}

#[test]
fn one_prepared_census_serves_each_metric_as_alone() -> Result<(), GraphError> {
    let together = AnyMetric::parse_list("c_mean,c_k,transitivity,s2").expect("registry names");
    for (what, g) in census_inputs()? {
        let report = Analyzer::new().metrics(together.clone()).analyze(&g);
        // no dep prepared: every read runs the census on demand
        let on_demand = AnalysisCache::build(&g, &[], &AnalyzeOptions::default());
        for (metric, record) in together.iter().zip(&report.records) {
            let want = value_bits(&record.value);
            let got = value_bits(&metric.compute(&on_demand));
            assert_eq!(got, want, "{what}: {metric} on demand");
            let alone = Analyzer::new().metrics([*metric]).analyze(&g);
            assert_eq!(
                value_bits(&alone.records[0].value),
                want,
                "{what}: {metric} alone"
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The cache's CSR GCC is the CSR of `giant_component`'s graph
// ---------------------------------------------------------------------

#[test]
fn cache_gcc_is_the_csr_of_the_giant_component() -> Result<(), GraphError> {
    let tied_triangles = Graph::from_edges(7, [(1, 3), (3, 5), (5, 1), (0, 2), (2, 4), (4, 0)])?;
    let mut tied_k4s = Graph::with_nodes(11);
    for (lo, hi) in [(6u32, 10u32), (1, 5)] {
        for u in lo..hi {
            for v in u + 1..hi {
                tied_k4s.add_edge(u, v)?;
            }
        }
    }
    let mut inputs: Vec<Graph> = zoo();
    inputs.extend([tied_triangles, tied_k4s]);
    for g in large_inputs() {
        // the large graph beside a path of three, and beside its own
        // copy (a tie broken toward the smaller ids)
        let n = g.node_count() as u32;
        let mut edges: Vec<(u32, u32)> = g.edges().to_vec();
        edges.extend([(n + 1, n + 2), (n + 2, n + 3)]);
        inputs.push(Graph::from_edges(n as usize + 4, edges.iter().copied())?);
        edges.truncate(g.edge_count());
        edges.extend(g.edges().iter().map(|&(u, v)| (u + n, v + n)));
        inputs.push(Graph::from_edges(2 * n as usize, edges)?);
    }
    let opts = AnalyzeOptions::default();
    for g in &inputs {
        let want = CsrGraph::from_graph(&traversal::giant_component(g).0);
        let csr = CsrGraph::from_graph(g);
        let cache = AnalysisCache::build_csr(&csr, &[], &opts);
        assert_eq!(cache.graph(), &want, "n = {}", g.node_count());
        assert_eq!(AnalysisCache::build(g, &[], &opts).graph(), &want);
        if want.node_count() == g.node_count() {
            assert!(std::ptr::eq(cache.graph(), &csr), "connected: in place");
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// A cache on a shared analysis base equals one that builds its own
// ---------------------------------------------------------------------

/// A cache's graph summary: the input's counts, the analyzed counts,
/// the retained fraction's bits and the policy flag.
fn summary_bits(c: &AnalysisCache<'_>) -> (usize, usize, usize, usize, u64, bool) {
    (
        c.original_nodes(),
        c.original_edges(),
        c.graph().node_count(),
        c.graph().edge_count(),
        c.gcc_fraction().to_bits(),
        c.gcc_applied(),
    )
}

#[test]
fn caches_on_one_base_match_their_own_builds() -> Result<(), GraphError> {
    let all: Vec<AnyMetric> = AnyMetric::all().collect();
    let mut inputs = zoo();
    // beyond the zoo's: a path and a triangle apart, isolated nodes
    // only, and the empty graph
    inputs.extend([
        Graph::from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4)])?,
        Graph::with_nodes(3),
        Graph::new(),
    ]);
    for (i, g) in inputs.iter().enumerate() {
        for policy in [GccPolicy::Extract, GccPolicy::Whole] {
            // one base for both thread counts: a base read by earlier
            // caches serves a later one unchanged
            let base = AnalysisBase::new(g, policy);
            for threads in [1, 2] {
                let opts = AnalyzeOptions {
                    gcc: policy,
                    threads,
                    ..AnalyzeOptions::default()
                };
                let own = AnalysisCache::build(g, &all, &opts);
                let shared = AnalysisCache::build_on(&base, &all, &opts);
                let what = format!("input {i}, {policy:?}, threads {threads}");
                assert_eq!(summary_bits(&shared), summary_bits(&own), "{what}");
                assert_eq!(shared.graph(), own.graph(), "{what}");
                for metric in &all {
                    assert_eq!(
                        value_bits(&metric.compute(&shared)),
                        value_bits(&metric.compute(&own)),
                        "{what}: {metric}"
                    );
                }
            }
        }
        // two caches on one base read one census: the first prepares it,
        // the second reads it on demand
        let base = AnalysisBase::new(g, GccPolicy::Extract);
        let opts = AnalyzeOptions::default();
        let c_mean = AnyMetric::parse_list("c_mean").expect("registry name");
        let prepared = AnalysisCache::build_on(&base, &c_mean, &opts);
        let on_demand = AnalysisCache::build_on(&base, &[], &opts);
        assert!(
            std::ptr::eq(prepared.triangles(), on_demand.triangles()),
            "input {i}"
        );
    }
    Ok(())
}
