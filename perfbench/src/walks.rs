//! The traced per-layer walks. Each walk calls the public function of
//! every layer its workload exercises, in the order the `dk` entry
//! points call them, with a span around each call.
//!
//! A walk has two kinds of spans under its root:
//! * the **mirror** — the calls the untraced end-to-end pass makes
//!   (parse, analyzer cache build, metric fold, emit, extraction,
//!   chains, request handling); `trace.overhead` compares its wall
//!   time with the untraced pass;
//! * **breakdown** groups — the analyzer's kernels called one by one
//!   (GCC, CSR, triangles, traversals, Lanczos), plus 1- vs 2-thread
//!   scaling probes; they attribute time the mirror spends inside
//!   `AnalysisCache::build`, and their results cross-check the report.

use crate::inputs::{self, Kind};
use crate::trace::{stage_peak, Tracer};
use dk_core::dist::{AnyDist, Dist0K, Dist1K, Dist2K, Dist3K};
use dk_core::generate::matching;
use dk_core::generate::rewire::{randomize, RewireOptions, SwapBudget};
use dk_core::generate::target::{target_2k_from_1k, target_3k_from_2k, TargetOptions};
use dk_graph::{giant_component, io as graph_io, CsrGraph, Graph};
use dk_metrics::distance::DistanceDistribution;
use dk_metrics::report::{GraphSummary, MetricRecord};
use dk_metrics::{
    betweenness, clustering, jdd, kcore, sampled, sketch, spectral, stream, AnalysisCache,
    AnalyzeOptions, AnyMetric, Report,
};
use dk_serve::{handle_line, Client, Counters, Registry, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::Path;

/// The `metrics_1m` battery (the union of the two 10⁶-node batteries).
pub const M1M_METRICS: &str = "n,m,gcc_fraction,k_avg,r,c_mean,kcore_max,distance_approx,\
betweenness_approx,avg_distance_sketch,effective_diameter_sketch";
/// Pivot sources and register bits of the `metrics_1m` battery.
pub const M1M_SAMPLES: usize = 64;
pub const M1M_BITS: u32 = 6;
/// Pivots and round cap of the 1- vs 2-thread scaling probes (a slice
/// of the full passes: same kernels, less time).
const SCALING_SAMPLES: usize = 16;
const SCALING_ROUNDS: usize = 4;

/// Per-layer values plus the output checks the walk made.
#[derive(Default)]
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
    /// Names whose layer was unavailable here (e.g. no `clear_refs`).
    pub nulls: Vec<String>,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Wall time of the mirror spans (see the module docs).
    pub mirror_s: f64,
    pub root: usize,
}

impl Outcome {
    fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    fn add(&mut self, name: &str, v: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += v;
    }

    fn set_opt(&mut self, name: &str, v: Option<f64>) {
        match v {
            Some(v) => {
                let cur = self.values.get(name).copied().unwrap_or(f64::MIN);
                self.set(name, cur.max(v));
            }
            None => self.nulls.push(name.to_string()),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

fn load(tr: &mut Tracer, path: &Path) -> (Graph, f64) {
    tr.time("io.parse", || {
        graph_io::load_edge_list(path).expect("benchmark input parses")
    })
}

/// Mean clustering over degree-≥2 nodes from per-node triangle counts,
/// in the same summation order as the registry's `c_mean`.
fn c_mean(g: &Graph, tri: &[usize]) -> f64 {
    let (mut sum, mut cnt) = (0.0, 0usize);
    for (v, &t) in tri.iter().enumerate() {
        let k = g.degree(v as u32) as f64;
        if k >= 2.0 {
            sum += t as f64 / (k * (k - 1.0) / 2.0);
            cnt += 1;
        }
    }
    if cnt == 0 {
        0.0
    } else {
        sum / cnt as f64
    }
}

/// The analyzer route `dk metrics` takes: cache build, metric fold,
/// JSON emit — three mirror spans.
fn analyze(
    tr: &mut Tracer,
    g: &Graph,
    metrics: &[AnyMetric],
    opts: &AnalyzeOptions,
) -> (Report, String) {
    let (cache, _) = tr.time("cache.build", || AnalysisCache::build(g, metrics, opts));
    let (report, _) = tr.time("report.fold", || Report {
        graph: GraphSummary {
            nodes: cache.original_nodes(),
            edges: cache.original_edges(),
            analyzed_nodes: cache.graph().node_count(),
            analyzed_edges: cache.graph().edge_count(),
            gcc_fraction: cache.gcc_fraction(),
            gcc_applied: cache.gcc_applied(),
        },
        records: metrics
            .iter()
            .map(|&metric| MetricRecord {
                metric,
                value: metric.compute(&cache),
            })
            .collect(),
    });
    let (json, _) = tr.time("report.emit", || report.to_json());
    (report, json)
}

/// Compares named report scalars with values derived from the layer calls.
fn check_scalars(out: &mut Outcome, report: &Report, derived: &[(&str, f64)], tag: &str) {
    for &(name, want) in derived {
        let got = report.scalar(name);
        out.check(got == Some(want), || {
            format!("{tag}: report {name} = {got:?}, layer calls give {want}")
        });
    }
}

fn scaling(tr: &mut Tracer, name: &str, mut run: impl FnMut(usize)) -> f64 {
    let group = tr.begin(&format!("{name}.scaling"), None);
    let (_, t1) = tr.time(&format!("{name}.1t"), || run(1));
    let (_, t2) = tr.time(&format!("{name}.2t"), || run(2));
    tr.end(group);
    t1 / t2
}

/// `metrics_1m`: parse → GCC → CSR → triangles → sampled Brandes →
/// HyperANF → k-core, then the analyzer route over the same graph.
/// Writes the analyzer route's JSON report to `report_out`.
pub fn metrics_walk(tr: &mut Tracer, path: &Path, report_out: &Path) -> Outcome {
    let mut out = Outcome::default();
    let root = tr.begin("walk.metrics", None);
    out.root = root;
    let ((g, parse_s), rss) = stage_peak(|| load(tr, path));
    out.set("io.parse_s", parse_s);
    out.set("io.edges_per_s", g.edge_count() as f64 / parse_s);
    out.set_opt("io.peak_rss_mb", rss);
    let opts = AnalyzeOptions {
        samples: M1M_SAMPLES,
        sketch_bits: M1M_BITS,
        ..AnalyzeOptions::default()
    };

    let breakdown = tr.begin("breakdown", None);
    let ((gcc, _), gcc_s) = tr.time("traversal.gcc", || giant_component(&g));
    let plan = stream::plan(gcc.node_count(), gcc.edge_count(), &opts);
    let (csr, freeze_s) = tr.time("csr.freeze", || CsrGraph::from_graph(&gcc));
    let (tri, tri_s) = tr.time("clustering.triangles", || {
        clustering::triangles_per_node(&csr)
    });
    let ((st, brandes_s), rss) = stage_peak(|| {
        tr.time("sampled.brandes", || {
            if plan.streamed {
                sampled::sampled_traversal_streamed(&csr, M1M_SAMPLES, plan.shards, plan.workers)
            } else {
                sampled::sampled_traversal_sharded(&csr, M1M_SAMPLES, plan.shards, plan.workers)
            }
        })
    });
    out.set_opt("sampled.peak_rss_mb", rss);
    let hyper = |csr: &CsrGraph, rounds: usize, workers: usize| {
        if plan.streamed {
            sketch::hyper_anf_streamed(csr, M1M_BITS, rounds, plan.shards, workers)
        } else {
            sketch::hyper_anf_sharded(csr, M1M_BITS, rounds, plan.shards, workers)
        }
    };
    let ((anf, sketch_s), rss) = stage_peak(|| {
        tr.time("sketch.hyperanf", || {
            hyper(&csr, opts.sketch_rounds, plan.workers)
        })
    });
    out.set_opt("sketch.peak_rss_mb", rss);
    let (core, core_s) = tr.time("kcore.coreness", || kcore::coreness(&csr));
    tr.end(breakdown);

    let n = gcc.node_count();
    let m2 = 2 * gcc.edge_count();
    out.set("traversal.gcc_s", gcc_s);
    out.set("csr.freeze_s", freeze_s);
    out.set("clustering.triangles_s", tri_s);
    out.set("kcore.coreness_s", core_s);
    out.set("sampled.brandes_s", brandes_s);
    out.set("sampled.edges_scanned", (st.sources * m2) as f64);
    out.set("sketch.hyperanf_s", sketch_s);
    let rounds = anf.neighborhood.len().saturating_sub(1);
    out.set("sketch.rounds", rounds as f64);
    // each round reads every node's register block once per incident
    // edge end and writes the next register file once
    let node_bytes = (1u64 << M1M_BITS) as f64;
    out.set(
        "sketch.bytes_moved",
        rounds as f64 * node_bytes * (m2 + n) as f64,
    );
    let derived = [
        ("n", n as f64),
        ("m", gcc.edge_count() as f64),
        ("gcc_fraction", n as f64 / g.node_count() as f64),
        ("k_avg", gcc.avg_degree()),
        ("r", jdd::assortativity(&gcc)),
        ("c_mean", c_mean(&gcc, &tri)),
        ("kcore_max", core.iter().copied().max().unwrap_or(0) as f64),
        ("distance_approx", st.distances.mean()),
        (
            "betweenness_approx",
            betweenness::normalize_raw(st.betweenness.clone(), n)
                .into_iter()
                .fold(f64::MIN, f64::max),
        ),
        ("avg_distance_sketch", anf.avg_distance()),
        ("effective_diameter_sketch", anf.effective_diameter(0.9)),
    ];
    drop((tri, st, anf, core, gcc));

    let scale = tr.begin("breakdown", None);
    out.set(
        "sampled.scaling_2t",
        scaling(tr, "sampled", |w| {
            sampled::sampled_traversal_streamed(&csr, SCALING_SAMPLES, plan.shards, w);
        }),
    );
    out.set(
        "sketch.scaling_2t",
        scaling(tr, "sketch", |w| {
            hyper(&csr, SCALING_ROUNDS, w);
        }),
    );
    tr.end(scale);
    drop(csr);

    let metrics = AnyMetric::parse_list(M1M_METRICS).expect("battery names are registered");
    let (report, json) = analyze(tr, &g, &metrics, &opts);
    tr.end(root);
    std::fs::write(report_out, format!("{json}\n")).expect("write report");
    check_scalars(&mut out, &report, &derived, "metrics_1m");
    finish_cache(
        tr,
        &mut out,
        root,
        &[
            "traversal.gcc",
            "csr.freeze",
            "clustering.triangles",
            "sampled.brandes",
            "sketch.hyperanf",
        ],
    );
    out.mirror_s = mirror(tr, root);
    out
}

/// `cache.build_s` and `cache.overhead_s` (build time minus the
/// breakdown kernels it repeats).
fn finish_cache(tr: &Tracer, out: &mut Outcome, root: usize, kernels: &[&str]) {
    let by = tr.self_by_name(root);
    let build = by.get("cache.build").copied().unwrap_or(0.0);
    let repeated: f64 = kernels.iter().filter_map(|n| by.get(*n)).sum();
    out.set("cache.build_s", build);
    out.set("cache.overhead_s", build - repeated);
    out.set(
        "report.emit_s",
        by.get("report.emit").copied().unwrap_or(0.0),
    );
}

/// Wall time of `root` minus its breakdown groups.
fn mirror(tr: &Tracer, root: usize) -> f64 {
    let groups: f64 = tr
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent == Some(root) && s.name == "breakdown")
        .map(|(i, _)| tr.wall(i))
        .sum();
    tr.wall(root) - groups
}

/// Seeds of the `dk rewire` / `dk generate` calls of a `dk_series` pass.
pub fn rewire_seed(seed: u64, d: u8) -> u64 {
    seed.wrapping_mul(100).wrapping_add(d as u64)
}
pub fn generate_seed(seed: u64, d: u8) -> u64 {
    seed.wrapping_mul(100).wrapping_add(10 + d as u64)
}

/// Saves `g` under `dir/name` inside an `io.save` span.
fn save(tr: &mut Tracer, g: &Graph, dir: &Path, name: &str) {
    tr.time("io.save", || inputs::save(g, &dir.join(name)));
}

/// `dk_series`: the paper's §5 protocol. Extract 1K–3K with a file
/// round trip, dK-randomize d = 0..3, 2K/3K targeting from the files,
/// then the default battery on the original and the six generated
/// graphs. Generated graphs and reports land in `dir` under `walk_*`.
pub fn dk_walk(tr: &mut Tracer, input: &Path, seed: u64, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let root = tr.begin("walk.dk", None);
    out.root = root;
    let (g, parse_s) = load(tr, input);
    out.add("io.parse_s", parse_s);

    let mut dists: Vec<AnyDist> = Vec::new();
    for d in 1..=3u8 {
        let (dist, dt) = tr.time(&format!("dist.extract_{d}k"), || {
            AnyDist::from_graph(d, &g).expect("extraction succeeds")
        });
        out.set(&format!("dist.extract_{d}k_s"), dt);
        let file = dir.join(format!("walk.{d}k"));
        let (back, io_s) = tr.time("dist.io", || {
            let mut buf = Vec::new();
            dist.write(&mut buf).expect("serialize distribution");
            std::fs::write(&file, &buf).expect("write distribution");
            AnyDist::read(d, std::fs::File::open(&file).expect("open distribution"))
                .expect("parse distribution")
        });
        out.add("dist.io_s", io_s);
        out.check(back.distance_sq(&dist) == Some(0.0), || {
            format!("{d}K distribution changed across its file round trip")
        });
        dists.push(back);
    }

    let (mut attempts, mut accepted, mut chain_s) = (0u64, 0u64, 0.0);
    let mut rewired = Vec::new();
    for d in 0..=3u8 {
        let mut rng = StdRng::seed_from_u64(rewire_seed(seed, d));
        let ((h, stats), dt) = tr.time(&format!("mcmc.rewire_d{d}"), || {
            let mut h = g.clone();
            let opts = RewireOptions {
                budget: SwapBudget::AttemptsPerEdge(50.0),
            };
            let stats = randomize(&mut h, d, &opts, &mut rng);
            (h, stats)
        });
        out.set(&format!("mcmc.rewire_d{d}_s"), dt);
        attempts += stats.attempts;
        accepted += stats.accepted;
        chain_s += dt;
        save(tr, &h, dir, &format!("walk_rw{d}.edges"));
        rewired.push(h);
    }

    let mut targeted = Vec::new();
    for (d, dist) in [(2u8, &dists[1]), (3u8, &dists[2])] {
        let mut rng = StdRng::seed_from_u64(generate_seed(seed, d));
        let (d2, d3) = match dist {
            AnyDist::D2(d2) => (d2.clone(), None),
            AnyDist::D3(d3) => (d3.to_2k_checked().expect("consistent 3K"), Some(d3)),
            _ => unreachable!("orders 2 and 3 only"),
        };
        let d1 = d2.to_1k().expect("consistent 2K");
        let (boot, dt) = tr.time("generate.bootstrap", || {
            matching::generate_1k(&d1, &mut rng)
                .expect("1K bootstrap")
                .graph
        });
        out.add("generate.bootstrap_s", dt);
        let mut h = boot;
        let ((stats, dt), rss) = stage_peak(|| {
            tr.time("mcmc.target_2k", || {
                target_2k_from_1k(&mut h, &d2, &TargetOptions::default(), &mut rng)
            })
        });
        out.add("mcmc.target_2k_s", dt);
        out.set_opt("mcmc.peak_rss_mb", rss);
        attempts += stats.attempts;
        accepted += stats.accepted;
        chain_s += dt;
        if let Some(d3) = d3 {
            let ((stats, dt), rss) = stage_peak(|| {
                tr.time("mcmc.target_3k", || {
                    target_3k_from_2k(&mut h, d3, &TargetOptions::default(), &mut rng)
                })
            });
            out.set("mcmc.target_3k_s", dt);
            out.set_opt("mcmc.peak_rss_mb", rss);
            attempts += stats.attempts;
            accepted += stats.accepted;
            chain_s += dt;
        }
        save(tr, &h, dir, &format!("walk_t{d}.edges"));
        targeted.push(h);
    }
    out.set("mcmc.attempts", attempts as f64);
    out.set("mcmc.acceptance", accepted as f64 / attempts.max(1) as f64);
    out.set("mcmc.moves_per_s", attempts as f64 / chain_s);

    // census checks, as in `perfbench check-dk`
    let group = tr.begin("breakdown", None);
    let (census, dt) = tr.time("dist.distance", || {
        census_distances(&g, &rewired, &targeted)
    });
    out.set("dist.distance_s", dt);
    tr.end(group);
    check_census(&mut out, &census);

    // the default battery over the original and the six generated graphs
    let opts = AnalyzeOptions::default();
    let metrics = AnyMetric::default_set();
    let names = ["orig", "rw0", "rw1", "rw2", "rw3", "t2", "t3"];
    let graphs: Vec<&Graph> = std::iter::once(&g)
        .chain(rewired.iter())
        .chain(targeted.iter())
        .collect();
    for (name, h) in names.iter().zip(graphs) {
        let group = tr.begin("breakdown", None);
        let ((gcc, _), dt) = tr.time("traversal.gcc", || giant_component(h));
        out.add("traversal.gcc_s", dt);
        let (csr, dt) = tr.time("csr.freeze", || CsrGraph::from_graph(&gcc));
        out.add("csr.freeze_s", dt);
        let (_, dt) = tr.time("clustering.triangles", || {
            clustering::triangles_per_node(&csr)
        });
        out.add("clustering.triangles_s", dt);
        let plan = stream::plan(gcc.node_count(), gcc.edge_count(), &opts);
        let (dist, dt) = tr.time("distance.exact", || {
            DistanceDistribution::from_csr_sharded(&csr, plan.shards, plan.workers)
        });
        out.add("distance.exact_s", dt);
        let (spec, dt) = tr.time("spectral.lanczos", || {
            spectral::spectral_extremes_with(&gcc, opts.lanczos_iter).ok()
        });
        out.add("spectral.lanczos_s", dt);
        if *name == "orig" {
            out.set(
                "distance.exact.scaling_2t",
                scaling(tr, "distance.exact", |w| {
                    DistanceDistribution::from_csr_sharded(&csr, plan.shards, w);
                }),
            );
        }
        tr.end(group);
        // `dk metrics` parses its file again
        let file = if *name == "orig" {
            input.to_path_buf()
        } else {
            dir.join(format!("walk_{name}.edges"))
        };
        let (h, dt) = load(tr, &file);
        out.add("io.parse_s", dt);
        let (report, json) = analyze(tr, &h, &metrics, &opts);
        std::fs::write(dir.join(format!("walk_{name}.json")), format!("{json}\n"))
            .expect("write report");
        let mut derived = vec![("d_avg", dist.mean()), ("d_std", dist.std_dev())];
        if let Some(s) = spec {
            derived.extend([("lambda1", s.lambda1), ("lambda_n", s.lambda_max)]);
        }
        check_scalars(&mut out, &report, &derived, name);
    }
    tr.end(root);
    finish_cache(
        tr,
        &mut out,
        root,
        &[
            "traversal.gcc",
            "csr.freeze",
            "clustering.triangles",
            "distance.exact",
            "spectral.lanczos",
        ],
    );
    out.mirror_s = mirror(tr, root);
    out
}

/// `[d0, d1, d2, d3]` census distances of each rewired and targeted
/// graph from the original.
pub fn census_distances(
    g: &Graph,
    rewired: &[Graph],
    targeted: &[Graph],
) -> Vec<(String, [f64; 4])> {
    let (c0, c1, c2, c3) = (
        Dist0K::from_graph(g),
        Dist1K::from_graph(g),
        Dist2K::from_graph(g),
        Dist3K::from_graph(g),
    );
    let names = ["rw0", "rw1", "rw2", "rw3", "t2", "t3"];
    names
        .iter()
        .zip(rewired.iter().chain(targeted.iter()))
        .map(|(name, h)| {
            (
                name.to_string(),
                [
                    Dist0K::from_graph(h).distance_sq(&c0),
                    Dist1K::from_graph(h).distance_sq(&c1),
                    Dist2K::from_graph(h).distance_sq(&c2),
                    Dist3K::from_graph(h).distance_sq(&c3),
                ],
            )
        })
        .collect()
}

/// Each `rw{d}` keeps its order-d census exactly (and every lower
/// order); targeting graphs keep the 1K census (their D₂ / D₃ are
/// recorded, not required to be zero).
pub fn check_census(out: &mut Outcome, census: &[(String, [f64; 4])]) {
    for (name, ds) in census {
        let keep = match name.as_str() {
            "rw0" => 0,
            "rw1" | "t2" | "t3" => 1,
            "rw2" => 2,
            _ => 3,
        };
        out.check(ds[..=keep].iter().all(|&x| x == 0.0), || {
            format!("{name}: census distances {ds:?} not zero up to order {keep}")
        });
    }
}

/// Transcripts, per-request timings and registry counters of a serial
/// replay.
pub struct Replayed {
    pub responses: [Vec<String>; 2],
    /// `(kind, answered by the memo or a coalesced flight, seconds)` per
    /// request, both clients.
    pub timings: Vec<(Kind, bool, f64)>,
    /// `[computed, reused, rejected]` at the end.
    pub counters: [u64; 3],
}

/// Serial in-process replay of both client scripts into one
/// [`Registry`], interleaved cycle by cycle. Loads `shared`, `own0` and
/// `own1` from `graph_path` first.
pub fn replay(
    tr: &mut Tracer,
    graph_path: &Path,
    scripts: &[Vec<String>; 2],
    threads: usize,
) -> Replayed {
    let reg = Registry::new(None, threads);
    for name in ["shared", "own0", "own1"] {
        let req = format!(
            r#"{{"op":"load","graph":"{name}","path":"{}"}}"#,
            dk_metrics::json::escape(&graph_path.display().to_string())
        );
        let (resp, _) = tr.time("server.load", || handle_line(&reg, &req));
        assert!(resp.contains(r#""ok":true"#), "load failed: {resp}");
    }
    let c = &reg.counters;
    let reused = || Counters::get(&c.memo_hits) + Counters::get(&c.coalesced);
    let mut responses = [Vec::new(), Vec::new()];
    let mut timings = Vec::new();
    let len = scripts[0].len().max(scripts[1].len());
    for start in (0..len).step_by(inputs::CYCLE) {
        for (client, script) in scripts.iter().enumerate() {
            for (i, req) in script.iter().enumerate().skip(start).take(inputs::CYCLE) {
                let before = (reused(), Counters::get(&c.computed));
                let id = tr.begin("server.handle", Some((client * 1_000_000 + i) as u64));
                let resp = handle_line(&reg, req);
                let dt = tr.end(id);
                let hit = reused() > before.0 && Counters::get(&c.computed) == before.1;
                timings.push((inputs::kind_at(i), hit, dt));
                responses[client].push(resp);
            }
        }
    }
    Replayed {
        responses,
        timings,
        counters: [
            Counters::get(&c.computed),
            reused(),
            Counters::get(&c.rejected),
        ],
    }
}

fn p50(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// `serve_mixed`: the analysis layers one by one over the served graph
/// (breakdown), then the serial replay of both client scripts through
/// `handle_line` (mirror), then a socket round-trip probe of memo hits.
pub fn serve_walk(
    tr: &mut Tracer,
    graph_path: &Path,
    scripts: &[Vec<String>; 2],
    dir: &Path,
) -> (Outcome, Replayed) {
    let mut out = Outcome::default();
    let root = tr.begin("walk.serve", None);
    out.root = root;

    let group = tr.begin("breakdown", None);
    let ((g, dt), rss) = stage_peak(|| load(tr, graph_path));
    out.set("io.parse_s", dt);
    out.set("io.edges_per_s", g.edge_count() as f64 / dt);
    out.set_opt("io.peak_rss_mb", rss);
    let ((gcc, _), dt) = tr.time("traversal.gcc", || giant_component(&g));
    out.set("traversal.gcc_s", dt);
    let (csr, dt) = tr.time("csr.freeze", || CsrGraph::from_graph(&gcc));
    out.set("csr.freeze_s", dt);
    let (_, dt) = tr.time("clustering.triangles", || {
        clustering::triangles_per_node(&csr)
    });
    out.set("clustering.triangles_s", dt);
    let opts = AnalyzeOptions {
        threads: 1,
        samples: 16,
        ..AnalyzeOptions::default()
    };
    let plan = stream::plan(gcc.node_count(), gcc.edge_count(), &opts);
    let ((_, dt), rss) = stage_peak(|| {
        tr.time("sampled.bfs", || {
            sampled::sampled_distances_sharded(&csr, opts.samples, plan.shards, plan.workers)
        })
    });
    out.set("sampled.bfs_s", dt);
    out.set_opt("sampled.peak_rss_mb", rss);
    let cheap = AnyMetric::cheap_set();
    let (cache, dt) = tr.time("cache.build", || AnalysisCache::build(&g, &cheap, &opts));
    out.set("cache.build_s", dt);
    drop(cache);
    drop((csr, gcc, g));
    tr.end(group);

    let replayed = replay(tr, graph_path, scripts, 1);
    tr.end(root);
    let by = tr.self_by_name(root);
    out.set(
        "cache.overhead_s",
        out.values["cache.build_s"]
            - ["traversal.gcc", "csr.freeze", "clustering.triangles"]
                .iter()
                .filter_map(|n| by.get(*n))
                .sum::<f64>(),
    );
    let class = |want: &dyn Fn(Kind, bool) -> bool| {
        p50(replayed
            .timings
            .iter()
            .filter(|(k, hit, _)| want(*k, *hit))
            .map(|t| t.2 * 1e3)
            .collect())
    };
    let hit_ms = class(&|_, hit| hit);
    out.set("server.handle_hit_ms", hit_ms);
    out.set(
        "server.handle_compute_ms",
        class(&|k, hit| !hit && matches!(k, Kind::OwnRead | Kind::SharedVarying | Kind::Attack)),
    );
    out.set("server.handle_write_ms", class(&|k, _| k == Kind::Write));
    let [computed, reused, rejected] = replayed.counters;
    out.set("registry.computed", computed as f64);
    out.set("registry.reused", reused as f64);
    out.set(
        "registry.reuse_ratio",
        reused as f64 / (computed + reused).max(1) as f64,
    );
    out.set("registry.rejected", rejected as f64);
    out.mirror_s = mirror(tr, root);

    let rt_ms = socket_hits(graph_path, &dir.join("probe.sock"));
    out.set("transport.overhead_ms", rt_ms - hit_ms);
    (out, replayed)
}

/// Client round-trip p50 (ms) of memo-hit reads over a real socket, to
/// an in-process daemon at the default one thread.
fn socket_hits(graph_path: &Path, socket: &Path) -> f64 {
    let server = Server::spawn(&ServerConfig {
        socket: socket.to_path_buf(),
        memory_budget: None,
        threads: 1,
    })
    .expect("bind probe socket");
    let mut client = Client::connect(socket).expect("connect probe socket");
    let load = format!(
        r#"{{"op":"load","graph":"shared","path":"{}"}}"#,
        dk_metrics::json::escape(&graph_path.display().to_string())
    );
    client.request(&load).expect("load over the socket");
    let req = r#"{"op":"metric","graph":"shared","metrics":"cheap"}"#;
    client.request(req).expect("warm the memo");
    let times = (0..400)
        .map(|_| {
            let t0 = std::time::Instant::now();
            client.request(req).expect("memo hit");
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    drop(client);
    server.stop();
    p50(times)
}
