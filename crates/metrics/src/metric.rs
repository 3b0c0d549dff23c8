//! The [`Metric`] registry rows and their handle ([`AnyMetric`]).
//!
//! Mirrors the design of `dk_core::generate::Method` on the generation
//! side: one canonical name set, parsed and printed everywhere (CLI
//! `--metrics` flag, bench harness, JSON reports), with machine-checkable
//! capability metadata — here a [`Cost`] class and the shared
//! computations ([`Dep`]) a metric reads from the [`AnalysisCache`].
//!
//! ## The registry
//!
//! | name | kind | cost | paper notation |
//! |------|------|------|----------------|
//! | `n`, `m`, `gcc_fraction`, `k_avg` | scalar | trivial | `n`, `m`, —, `k̄` (§2) |
//! | `r` | scalar | linear | assortativity `r` (§2) |
//! | `c_mean`, `transitivity` | scalar | linear | `C̄` (§2) |
//! | `s`, `s2` | scalar | linear | likelihood `S`, `S2` (§4.3) |
//! | `kcore_max` | scalar | linear | — (beyond-paper check) |
//! | `attack_threshold`, `random_failure_threshold` | scalar | incremental | — (robustness study) |
//! | `d_avg`, `d_std`, `diameter` | scalar | all-pairs | `d̄`, `σ_d` (§2) |
//! | `b_max` | scalar | all-pairs | max normalized betweenness (§2) |
//! | `distance_approx` | scalar | sampled | `d̄` estimate (Brandes–Pich pivots) |
//! | `betweenness_approx` | scalar | sampled | `b_max` estimate (Brandes–Pich) |
//! | `avg_distance_sketch` | scalar | sketch | `d̄` estimate (HyperANF sketches) |
//! | `effective_diameter_sketch` | scalar | sketch | 90% effective diameter (HyperANF) |
//! | `lambda1`, `lambda_n` | scalar | spectral | `λ1`, `λ_{n−1}` (§2) |
//! | `degree_dist` | series | trivial | `P(k)` (§2) |
//! | `knn` | series | linear | `k_nn(k)` |
//! | `c_k` | series | linear | `C(k)` (§2) |
//! | `rich_club` | series | linear | — (beyond-paper check) |
//! | `d_x` | series | all-pairs | `d(x)` (§2) |
//! | `b_k` | series | all-pairs | `b̄(k)` (figs 6b, 9) |
//! | `distance_sketch` | series | sketch | `d(x)` estimate (HyperANF) |
//!
//! Metrics sharing a [`Dep`] are computed from one shared pass: `d_*` and
//! `b_*` both ride the all-source Brandes pass
//! ([`crate::betweenness::betweenness_and_distances_sharded`]) when a
//! `b_*` metric is selected, and the clustering family and `s2` share
//! one triangle census. Every metric and pass reads the cache's one
//! [`CsrGraph`](dk_graph::CsrGraph), the analyzed graph.
//!
//! ## Approximate (sampled) modes
//!
//! The `*_approx` metrics are explicit [`Cost::Sampled`] alternatives to
//! the `Cost::AllPairs` exact passes: K pivot sources (default 64, the
//! [`Analyzer::sample_sources`](crate::analyzer::Analyzer::sample_sources)
//! knob / CLI `--samples`) instead of all n, estimates extrapolated by
//! `n/K` (Brandes–Pich). Accuracy caveats: estimates are deterministic
//! (seeded pivot stride, thread-count invariant) but carry sampling
//! error of order `1/√K` — fine for ranking hubs and for `d̄`-style
//! means, **not** for reproduction tables, which must stay on the exact
//! metrics. `K ≥ n` makes them equal to the exact values bit for bit.
//!
//! ## Sketch (HyperANF) modes
//!
//! The `*_sketch` metrics ([`Cost::Sketch`], between [`Cost::Sampled`]
//! and [`Cost::AllPairs`]) estimate the **distance family** from
//! HyperLogLog neighborhood sketches ([`crate::sketch`], Boldi–Rosa–
//! Vigna HyperANF): `O(rounds)` sharded passes of bit-parallel register
//! unions instead of `n` BFS sweeps, with relative error governed by
//! the register count — standard error `1.04/√(2^b)` per counter
//! ([`crate::sketch::standard_error`]), `b` being the
//! [`Analyzer::sketch_bits`](crate::analyzer::Analyzer::sketch_bits)
//! knob / CLI `--sketch-bits` (default 8). Deterministic (node-id
//! seeded, no entropy) and invariant to shard/thread counts; memory is
//! the `n·2^b`-byte register file (×2 while a round runs). Where the
//! sampled estimators spend `O(K·m)` to cover betweenness *and*
//! distances with `~1/√K` error, the sketches spend a dozen or so
//! register-union passes to cover the distance family alone — the
//! better trade at 10⁶ nodes, where even `K = 64` pivot sweeps dwarf
//! the union rounds.
//!
//! ## Execution routes and memory bounds
//!
//! Each cost class maps to an execution route over the analyzed
//! [`CsrGraph`](dk_graph::CsrGraph); the traversal-shaped
//! classes run through the **sharded streaming** executor of
//! [`crate::stream`]:
//!
//! | cost | route | traversal working memory |
//! |------|-------|--------------------------|
//! | `trivial`, `linear` | single pass over the CSR | O(n + m) |
//! | `sampled` | the `all-pairs` route from K pivots instead of all n nodes | **O(workers·n)** |
//! | `sketch` | ≤ diameter rounds of register unions through the shard executor | **n·2^b bytes** per register file (×2 per run: Jacobi double buffer), error 1.04/√2^b |
//! | `incremental` | reverse union-find percolation sweep over the CSR ([`crate::attack`]) | O(n) forest + trajectory |
//! | `all-pairs` | n sources through the shard executor: per-source Brandes when a betweenness metric is selected, else batched BFS, 64 sources per sweep | **O(workers·n)** |
//! | `spectral` | Lanczos three-term recurrence on the sparse Laplacian (dense Jacobi below cutoff) | O(n + m) Laplacian + O(n) iteration vectors; **16·n² bytes** on the dense path ([`spectral::spectral_bytes`](crate::spectral::spectral_bytes)) |
//!
//! Per-source vectors are worker scratch only, so per-worker buffers
//! stay O(n) in total — the
//! [`stream::per_worker_bytes`](crate::stream::per_worker_bytes) model
//! charges `40n` bytes of Brandes scratch, which also covers the
//! batched BFS scratch of the distance-only passes (three `u64` words
//! and two frontier lists per node, at most `32n` bytes), plus `2·n/8`
//! bytes of slack. A Brandes pass also holds one BFS-ordered copy of the
//! graph and its id map, whatever its worker count (the
//! [footprint model](crate::stream#footprint-model), whose one price is
//! [`stream::min_bytes`](crate::stream::min_bytes)).
//! `Analyzer::memory_budget` (CLI `--memory-budget`) caps the worker
//! count against that model; results are bit-identical for every worker
//! count at a given shard count.

use crate::cache::AnalysisCache;
use crate::{betweenness, clustering, jdd, kcore, likelihood, richclub};
use std::fmt;
use std::str::FromStr;

/// Value of one metric on one graph.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A single number (most Table 2 columns).
    Scalar(f64),
    /// An integer-keyed `(x, y)` series (degree- or distance-indexed).
    Series(Vec<(usize, f64)>),
    /// The metric is not defined on this graph (e.g. spectral extremes
    /// of a graph with fewer than 2 nodes). Serialized as JSON `null`.
    Undefined,
}

impl MetricValue {
    /// The scalar payload, if any.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            MetricValue::Scalar(x) => Some(*x),
            _ => None,
        }
    }

    /// The series payload, if any.
    pub fn as_series(&self) -> Option<&[(usize, f64)]> {
        match self {
            MetricValue::Series(s) => Some(s),
            _ => None,
        }
    }
}

/// Output shape of a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One number per graph.
    Scalar,
    /// An `(x, y)` series per graph.
    Series,
}

/// Asymptotic cost class, used for capability listings and for choosing
/// default metric sets (`cheap` excludes everything super-linear).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cost {
    /// O(n) or better — degree sums, counts.
    Trivial,
    /// O(m·log) — triangle census, edge scans.
    Linear,
    /// O(K·m) — K-pivot sampled traversal (Brandes–Pich), the explicit
    /// approximate alternative to [`Cost::AllPairs`]. Deterministic but
    /// carries ~`1/√K` sampling error; see the module docs.
    Sampled,
    /// O((n + m)·2^b·rounds) byte-ops — HyperANF neighborhood sketches
    /// ([`crate::sketch`]), the distance-family estimator whose error
    /// `1.04/√2^b` is set by the register count, not a pivot budget;
    /// see the module docs.
    Sketch,
    /// O(m·α(n)) per sweep — reverse incremental union-find percolation
    /// trajectories ([`crate::attack`]): the whole removal curve in one
    /// near-linear pass, exact (not an estimator) and bit-identical
    /// across thread counts; see the module docs' route table.
    Incremental,
    /// O(n·m) — all-source BFS (distances, betweenness). Runs through
    /// the sharded streaming executor with O(workers·n) working memory;
    /// see the module docs' route table.
    AllPairs,
    /// Eigensolver (Jacobi / Lanczos).
    Spectral,
}

impl Cost {
    /// Canonical lowercase label.
    pub const fn name(self) -> &'static str {
        match self {
            Cost::Trivial => "trivial",
            Cost::Linear => "linear",
            Cost::Sampled => "sampled",
            Cost::Sketch => "sketch",
            Cost::Incremental => "incremental",
            Cost::AllPairs => "all-pairs",
            Cost::Spectral => "spectral",
        }
    }

    /// Whether this class is an *estimator* (sampled pivots or
    /// neighborhood sketches) rather than an exact computation. Estimator
    /// metrics are opt-in by name: no set keyword except `all` includes
    /// them, because reproduction batteries must not mix estimator noise
    /// with exact values.
    pub const fn is_estimator(self) -> bool {
        matches!(self, Cost::Sampled | Cost::Sketch)
    }
}

/// A shared computation a metric reads from the [`AnalysisCache`].
///
/// The analyzer unions the deps of every selected metric and computes
/// each shared pass **once**; metrics then read the cached result. When
/// both [`Dep::Distances`] and [`Dep::Betweenness`] are requested, one
/// all-source Brandes pass serves both.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Dep {
    /// The triangle census ([`crate::clustering`]): per-node triangle
    /// counts for the clustering family (`c_mean`, `c_k`,
    /// `transitivity`) and the closed-pair weight `s2` subtracts.
    Triangles,
    /// Exact distance distribution (all-source BFS).
    Distances,
    /// Exact node betweenness (Brandes; subsumes [`Dep::Distances`]).
    Betweenness,
    /// Sampled K-pivot traversal (Brandes–Pich) — the `*_approx`
    /// metrics' shared pass.
    Sampled,
    /// Sampled K-pivot **distance histogram only** — the batched
    /// multi-source BFS route ([`crate::sampled`]'s
    /// `sampled_distances_*` family). Declared by sampled metrics that
    /// never read σ/δ path counts, so a battery without a sampled
    /// *betweenness* metric skips the Brandes machinery entirely;
    /// subsumed by [`Dep::Sampled`] when one rides along (the Brandes
    /// pass's integer histogram is identical by construction).
    SampledDistances,
    /// HyperANF neighborhood-sketch iteration ([`crate::sketch`]) — the
    /// `*_sketch` metrics' shared pass.
    Sketch,
    /// Normalized-Laplacian spectral extremes.
    Spectral,
}

impl Dep {
    /// Whether this dep's pass runs **through the sharded traversal
    /// executor** ([`crate::stream`]) and therefore owes the
    /// thread-count equivalence contract (any worker count reproduces
    /// the serial pass bit for bit). The equivalence
    /// suites (`tests/stream_equivalence.rs`, the
    /// `proptests::streamed_analysis_equals_in_memory` property) derive
    /// their metric list from this predicate, so a future estimator dep
    /// added here is swept automatically — and one *not* added here is
    /// a metadata bug, not a silently skipped test.
    pub fn rides_shard_executor(self) -> bool {
        matches!(
            self,
            Dep::Distances | Dep::Betweenness | Dep::Sampled | Dep::SampledDistances | Dep::Sketch
        )
    }

    /// Whether this dep's pass is a Brandes pass, the one that holds a
    /// BFS-ordered copy of the graph: [`stream::min_bytes`](crate::stream::min_bytes)
    /// prices the copy in, and the cache runs the pass with the plan's
    /// [`brandes_workers`](crate::stream::ExecPlan::brandes_workers),
    /// whose memory budget paid for it.
    pub fn runs_brandes(self) -> bool {
        matches!(self, Dep::Betweenness | Dep::Sampled)
    }
}

/// A topology metric: name, capability metadata, and the computation
/// over the shared cache — one row of the registry.
///
/// All built-in metrics are registered in [`AnyMetric::all`]; external
/// code normally consumes them through the [`AnyMetric`] handle and the
/// [`Analyzer`](crate::analyzer::Analyzer) facade.
pub struct Metric {
    name: &'static str,
    aliases: &'static [&'static str],
    description: &'static str,
    kind: Kind,
    cost: Cost,
    deps: &'static [Dep],
    compute: fn(&AnalysisCache<'_>) -> MetricValue,
}

impl Metric {
    /// Canonical lowercase name (the [`AnyMetric::from_str`] inverse).
    pub fn name(&self) -> &'static str {
        self.name
    }
    /// Accepted alternative spellings.
    pub fn aliases(&self) -> &'static [&'static str] {
        self.aliases
    }
    /// One-line human description (capability listings).
    pub fn description(&self) -> &'static str {
        self.description
    }
    /// Scalar or series output.
    pub fn kind(&self) -> Kind {
        self.kind
    }
    /// Asymptotic cost class.
    pub fn cost(&self) -> Cost {
        self.cost
    }
    /// Shared computations read from the cache.
    pub fn deps(&self) -> &'static [Dep] {
        self.deps
    }
    /// Computes the metric over a prepared cache.
    pub fn compute(&self, cx: &AnalysisCache<'_>) -> MetricValue {
        (self.compute)(cx)
    }
}

fn scalar(x: f64) -> MetricValue {
    MetricValue::Scalar(x)
}

static REGISTRY: &[Metric] = &[
    Metric {
        name: "n",
        aliases: &["nodes"],
        description: "node count of the analyzed graph (GCC by default)",
        kind: Kind::Scalar,
        cost: Cost::Trivial,
        deps: &[],
        compute: |cx| scalar(cx.graph().node_count() as f64),
    },
    Metric {
        name: "m",
        aliases: &["edges"],
        description: "edge count of the analyzed graph",
        kind: Kind::Scalar,
        cost: Cost::Trivial,
        deps: &[],
        compute: |cx| scalar(cx.graph().edge_count() as f64),
    },
    Metric {
        name: "gcc_fraction",
        aliases: &[],
        description: "fraction of the original nodes retained by the GCC (§5.2)",
        kind: Kind::Scalar,
        cost: Cost::Trivial,
        deps: &[],
        compute: |cx| scalar(cx.gcc_fraction()),
    },
    Metric {
        name: "k_avg",
        aliases: &["avg_degree"],
        description: "average degree k̄ (§2)",
        kind: Kind::Scalar,
        cost: Cost::Trivial,
        deps: &[],
        compute: |cx| scalar(cx.graph().avg_degree()),
    },
    Metric {
        name: "r",
        aliases: &["assortativity"],
        description: "Newman assortativity coefficient r (§2)",
        kind: Kind::Scalar,
        cost: Cost::Linear,
        deps: &[],
        compute: |cx| scalar(jdd::assortativity(cx.graph())),
    },
    Metric {
        name: "c_mean",
        aliases: &["mean_clustering"],
        description: "mean clustering C̄ over degree-≥2 nodes (§2)",
        kind: Kind::Scalar,
        cost: Cost::Linear,
        deps: &[Dep::Triangles],
        compute: |cx| scalar(clustering::mean_clustering_from(cx.graph(), cx.triangles())),
    },
    Metric {
        name: "transitivity",
        aliases: &[],
        description: "global transitivity 3·triangles/wedges",
        kind: Kind::Scalar,
        cost: Cost::Linear,
        deps: &[Dep::Triangles],
        compute: |cx| scalar(clustering::transitivity_from(cx.graph(), cx.triangles())),
    },
    Metric {
        name: "s",
        aliases: &["likelihood"],
        description: "likelihood S = Σ_(i,j)∈E k_i·k_j (§2)",
        kind: Kind::Scalar,
        cost: Cost::Linear,
        deps: &[],
        compute: |cx| scalar(likelihood::likelihood_s(cx.graph())),
    },
    Metric {
        name: "s2",
        aliases: &["likelihood_s2"],
        description: "second-order likelihood S2 over induced wedges (§4.3)",
        kind: Kind::Scalar,
        cost: Cost::Linear,
        deps: &[Dep::Triangles],
        compute: |cx| {
            scalar(likelihood::likelihood_s2_from(
                cx.graph(),
                cx.census().closed_weight,
            ))
        },
    },
    Metric {
        name: "kcore_max",
        aliases: &["degeneracy"],
        description: "graph degeneracy (maximum k-core index)",
        kind: Kind::Scalar,
        cost: Cost::Linear,
        deps: &[],
        compute: |cx| scalar(kcore::degeneracy(cx.graph()) as f64),
    },
    Metric {
        name: "d_avg",
        aliases: &["avg_distance"],
        description: "average distance d̄ over connected pairs (§2)",
        kind: Kind::Scalar,
        cost: Cost::AllPairs,
        deps: &[Dep::Distances],
        compute: |cx| {
            if cx.graph().node_count() <= 1 {
                MetricValue::Undefined
            } else {
                scalar(cx.distances().mean())
            }
        },
    },
    Metric {
        name: "d_std",
        aliases: &["distance_std"],
        description: "distance standard deviation σ_d (§2)",
        kind: Kind::Scalar,
        cost: Cost::AllPairs,
        deps: &[Dep::Distances],
        compute: |cx| {
            if cx.graph().node_count() <= 1 {
                MetricValue::Undefined
            } else {
                scalar(cx.distances().std_dev())
            }
        },
    },
    Metric {
        name: "diameter",
        aliases: &[],
        description: "longest finite shortest-path distance",
        kind: Kind::Scalar,
        cost: Cost::AllPairs,
        deps: &[Dep::Distances],
        compute: |cx| {
            if cx.graph().node_count() == 0 {
                MetricValue::Undefined
            } else {
                scalar(cx.distances().diameter() as f64)
            }
        },
    },
    Metric {
        name: "b_max",
        aliases: &["max_betweenness"],
        description: "maximum normalized node betweenness (§2)",
        kind: Kind::Scalar,
        cost: Cost::AllPairs,
        deps: &[Dep::Betweenness],
        compute: |cx| {
            if cx.graph().node_count() < 3 {
                return MetricValue::Undefined;
            }
            cx.betweenness()
                .iter()
                .copied()
                .max_by(|a, b| a.partial_cmp(b).expect("finite betweenness"))
                .map_or(MetricValue::Undefined, scalar)
        },
    },
    Metric {
        name: "distance_approx",
        aliases: &["d_avg_approx"],
        description: "sampled estimate of d̄ (K pivot sources, Brandes–Pich)",
        kind: Kind::Scalar,
        cost: Cost::Sampled,
        deps: &[Dep::SampledDistances],
        compute: |cx| {
            if cx.graph().node_count() <= 1 {
                MetricValue::Undefined
            } else {
                scalar(cx.sampled_distances().distances.mean())
            }
        },
    },
    Metric {
        name: "betweenness_approx",
        aliases: &["b_max_approx"],
        description: "sampled estimate of max normalized betweenness",
        kind: Kind::Scalar,
        cost: Cost::Sampled,
        deps: &[Dep::Sampled],
        compute: |cx| {
            if cx.graph().node_count() < 3 {
                return MetricValue::Undefined;
            }
            let sampled = cx.sampled();
            betweenness::normalize_raw(sampled.betweenness.clone(), cx.graph().node_count())
                .into_iter()
                .max_by(|a, b| a.partial_cmp(b).expect("finite betweenness"))
                .map_or(MetricValue::Undefined, scalar)
        },
    },
    Metric {
        name: "avg_distance_sketch",
        aliases: &["d_avg_sketch"],
        description: "sketch estimate of d̄ (HyperANF neighborhood function)",
        kind: Kind::Scalar,
        cost: Cost::Sketch,
        deps: &[Dep::Sketch],
        compute: |cx| {
            // a round-capped (non-converged) iteration only covers
            // distances up to the cap — report Undefined rather than a
            // silently truncated mean (raise Analyzer::sketch_rounds)
            let sketch = cx.sketch();
            if cx.graph().node_count() <= 1 || !sketch.converged {
                MetricValue::Undefined
            } else {
                scalar(sketch.avg_distance())
            }
        },
    },
    Metric {
        name: "effective_diameter_sketch",
        aliases: &["eff_diameter_sketch"],
        description: "sketch estimate of the 90% effective diameter (HyperANF)",
        kind: Kind::Scalar,
        cost: Cost::Sketch,
        deps: &[Dep::Sketch],
        compute: |cx| {
            let sketch = cx.sketch();
            if cx.graph().node_count() == 0 || !sketch.converged {
                MetricValue::Undefined
            } else {
                scalar(sketch.effective_diameter(0.9))
            }
        },
    },
    Metric {
        name: "attack_threshold",
        aliases: &["degree_attack_threshold"],
        description: "removal fraction halving the GCC under the degree-ranked attack",
        kind: Kind::Scalar,
        cost: Cost::Incremental,
        deps: &[],
        compute: crate::attack::attack_threshold_metric,
    },
    Metric {
        name: "random_failure_threshold",
        aliases: &["failure_threshold"],
        description: "mean removal fraction halving the GCC under seeded uniform failure",
        kind: Kind::Scalar,
        cost: Cost::Incremental,
        deps: &[],
        compute: crate::attack::random_failure_threshold_metric,
    },
    Metric {
        name: "lambda1",
        aliases: &[],
        description: "smallest nonzero normalized-Laplacian eigenvalue λ1 (§2)",
        kind: Kind::Scalar,
        cost: Cost::Spectral,
        deps: &[Dep::Spectral],
        compute: |cx| {
            cx.spectral()
                .map_or(MetricValue::Undefined, |s| scalar(s.lambda1))
        },
    },
    Metric {
        name: "lambda_n",
        aliases: &["lambda_max"],
        description: "largest normalized-Laplacian eigenvalue λ_{n−1} (§2)",
        kind: Kind::Scalar,
        cost: Cost::Spectral,
        deps: &[Dep::Spectral],
        compute: |cx| {
            cx.spectral()
                .map_or(MetricValue::Undefined, |s| scalar(s.lambda_max))
        },
    },
    Metric {
        name: "degree_dist",
        aliases: &["pk"],
        description: "degree distribution P(k) over observed degrees (§2)",
        kind: Kind::Series,
        cost: Cost::Trivial,
        deps: &[],
        compute: |cx| {
            let dd = crate::degree::DegreeDistribution::from_graph(cx.graph());
            MetricValue::Series(
                dd.counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &c)| c > 0)
                    .map(|(k, &c)| (k, c as f64 / dd.nodes as f64))
                    .collect(),
            )
        },
    },
    Metric {
        name: "knn",
        aliases: &["avg_neighbor_degree"],
        description: "average neighbor degree k_nn(k)",
        kind: Kind::Series,
        cost: Cost::Linear,
        deps: &[],
        compute: |cx| MetricValue::Series(jdd::avg_neighbor_degree(cx.graph())),
    },
    Metric {
        name: "c_k",
        aliases: &["clustering_by_degree"],
        description: "degree-dependent clustering C(k) (§2)",
        kind: Kind::Series,
        cost: Cost::Linear,
        deps: &[Dep::Triangles],
        compute: |cx| {
            MetricValue::Series(clustering::clustering_by_degree_from(
                cx.graph(),
                cx.triangles(),
            ))
        },
    },
    Metric {
        name: "rich_club",
        aliases: &[],
        description: "rich-club connectivity φ(k)",
        kind: Kind::Series,
        cost: Cost::Linear,
        deps: &[],
        compute: |cx| MetricValue::Series(richclub::rich_club(cx.graph())),
    },
    Metric {
        name: "d_x",
        aliases: &["distance_dist"],
        description: "distance distribution d(x) over positive distances (§2)",
        kind: Kind::Series,
        cost: Cost::AllPairs,
        deps: &[Dep::Distances],
        compute: |cx| {
            MetricValue::Series(
                cx.distances()
                    .pdf_positive()
                    .into_iter()
                    .enumerate()
                    .skip(1)
                    .collect(),
            )
        },
    },
    Metric {
        name: "b_k",
        aliases: &["betweenness_by_degree"],
        description: "mean normalized betweenness of k-degree nodes (figs 6b, 9)",
        kind: Kind::Series,
        cost: Cost::AllPairs,
        deps: &[Dep::Betweenness],
        compute: |cx| {
            MetricValue::Series(betweenness::by_degree_from(cx.graph(), &cx.betweenness()))
        },
    },
    Metric {
        name: "distance_sketch",
        aliases: &["d_x_sketch"],
        description: "sketch estimate of the distance distribution d(x) (HyperANF)",
        kind: Kind::Series,
        cost: Cost::Sketch,
        deps: &[Dep::Sketch],
        compute: |cx| {
            let sketch = cx.sketch();
            if sketch.converged {
                MetricValue::Series(sketch.distance_pdf())
            } else {
                // the PDF over a capped round range would be silently
                // renormalized over a truncated support — refuse instead
                MetricValue::Undefined
            }
        },
    },
];

/// Handle to a registered metric.
///
/// `Copy`, compared by canonical name, parsed with [`FromStr`], printed
/// with [`fmt::Display`] — the analysis-side mirror of
/// `dk_core::generate::Method`.
#[derive(Clone, Copy)]
pub struct AnyMetric(&'static Metric);

impl AnyMetric {
    /// Every registered metric, in canonical (registry) order — scalars
    /// cheap-to-expensive, then series.
    pub fn all() -> impl Iterator<Item = AnyMetric> {
        REGISTRY.iter().map(AnyMetric)
    }

    /// Looks a metric up by canonical name or alias.
    pub fn get(name: &str) -> Option<AnyMetric> {
        REGISTRY
            .iter()
            .find(|d| d.name == name || d.aliases.contains(&name))
            .map(AnyMetric)
    }

    /// The paper's default scalar battery (Table 2 / Table 6 columns plus
    /// the bookkeeping scalars `n`, `m`, `gcc_fraction`, `s`, `s2`).
    /// Betweenness is excluded — as in the paper's tables — but is one
    /// `--metrics` selection away.
    pub fn default_set() -> Vec<AnyMetric> {
        [
            "n",
            "m",
            "gcc_fraction",
            "k_avg",
            "r",
            "c_mean",
            "d_avg",
            "d_std",
            "s",
            "s2",
            "lambda1",
            "lambda_n",
        ]
        .iter()
        .map(|n| AnyMetric::get(n).expect("registered"))
        .collect()
    }

    /// The sub-quadratic scalars — safe to recompute in tight loops
    /// (rewiring convergence probes, quick CLI summaries).
    pub fn cheap_set() -> Vec<AnyMetric> {
        ["n", "m", "gcc_fraction", "k_avg", "r", "c_mean", "s", "s2"]
            .iter()
            .map(|n| AnyMetric::get(n).expect("registered"))
            .collect()
    }

    /// The union of `metrics`' [`Dep`]s, sorted and deduplicated: the
    /// passes an analysis of `metrics` runs.
    /// [`AnalysisCache`] prepares them and
    /// [`stream::min_bytes`](crate::stream::min_bytes) prices them.
    pub fn deps_of(metrics: &[AnyMetric]) -> Vec<Dep> {
        let mut deps: Vec<Dep> = metrics.iter().flat_map(|m| m.deps()).copied().collect();
        deps.sort_unstable();
        deps.dedup();
        deps
    }

    /// Parses a comma-separated metric list. Each element is a metric
    /// name, an alias, or a set keyword: `default` (paper battery),
    /// `cheap` (sub-quadratic scalars), `scalars` (every *exact* scalar
    /// — the sampled and sketch estimators stay opt-in by name, as
    /// reproduction batteries must not mix estimator noise with exact
    /// values), `series` (every exact series), or `all` (everything,
    /// estimators included). Duplicates are removed, first occurrence
    /// wins.
    pub fn parse_list(list: &str) -> Result<Vec<AnyMetric>, String> {
        let mut out: Vec<AnyMetric> = Vec::new();
        let mut push = |m: AnyMetric| {
            if !out.contains(&m) {
                out.push(m);
            }
        };
        for item in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            match item {
                "default" | "paper" => AnyMetric::default_set().into_iter().for_each(&mut push),
                "cheap" => AnyMetric::cheap_set().into_iter().for_each(&mut push),
                "all" => AnyMetric::all().for_each(&mut push),
                "scalars" => AnyMetric::all()
                    .filter(|m| m.kind() == Kind::Scalar && !m.cost().is_estimator())
                    .for_each(&mut push),
                "series" => AnyMetric::all()
                    .filter(|m| m.kind() == Kind::Series && !m.cost().is_estimator())
                    .for_each(&mut push),
                name => push(name.parse::<AnyMetric>()?),
            }
        }
        if out.is_empty() {
            return Err("empty metric list".into());
        }
        Ok(out)
    }

    /// One line per registered metric: name, kind, cost, description —
    /// the capability listing printed by `dk metrics --metrics help`.
    pub fn listing() -> String {
        let mut out = String::from("metric        kind    cost       description\n");
        for m in AnyMetric::all() {
            out.push_str(&format!(
                "{:<13} {:<7} {:<10} {}\n",
                m.name(),
                match m.kind() {
                    Kind::Scalar => "scalar",
                    Kind::Series => "series",
                },
                m.cost().name(),
                m.description(),
            ));
        }
        out.push_str(
            "sets: default (paper battery), cheap, scalars (exact only), \
             series (exact only), all\n",
        );
        out.push_str(
            "sampled metrics estimate their all-pairs twin from K pivot sources \
             (--samples, default 64): deterministic, ~1/sqrt(K) error, exact when \
             K >= n; select them by name — no set except `all` includes them\n",
        );
        out.push_str(
            "sketch metrics estimate the distance family from HyperANF \
             neighborhood sketches (--sketch-bits B in 4..=16, default 8): \
             deterministic, ~1.04/sqrt(2^B) error, n*2^B bytes of registers; \
             select them by name — no set except `all` includes them\n",
        );
        out.push_str(
            "incremental metrics replay a full node-removal sweep in reverse as \
             union-find insertions (one O(m*alpha) pass, exact and thread-count \
             invariant); `dk attack` exposes the full trajectory behind them\n",
        );
        out.push_str(
            "all-pairs/sampled/sketch passes stream shard by shard: --shards N \
             fixes the merge tree (default 64), --memory-budget B caps the \
             workers; same results bit for bit at every thread count, traversal \
             memory bounded by workers, not shards\n",
        );
        out
    }
}

impl std::ops::Deref for AnyMetric {
    type Target = Metric;

    fn deref(&self) -> &Self::Target {
        self.0
    }
}

impl PartialEq for AnyMetric {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
    }
}

impl Eq for AnyMetric {}

impl fmt::Debug for AnyMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AnyMetric({})", self.name())
    }
}

impl fmt::Display for AnyMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for AnyMetric {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        AnyMetric::get(s).ok_or_else(|| {
            format!(
                "unknown metric {s:?} — known metrics: {}",
                REGISTRY
                    .iter()
                    .map(|d| d.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in AnyMetric::all() {
            assert!(seen.insert(m.name()), "duplicate name {}", m.name());
            assert_eq!(m.name().parse::<AnyMetric>().unwrap(), m);
            for a in m.aliases() {
                assert_eq!(a.parse::<AnyMetric>().unwrap(), m, "alias {a}");
                assert!(seen.insert(a), "alias {a} collides");
            }
            assert_eq!(format!("{m}"), m.name());
        }
    }

    #[test]
    fn unknown_name_lists_known_metrics() {
        let err = "bogus".parse::<AnyMetric>().unwrap_err();
        assert!(err.contains("k_avg"), "{err}");
    }

    #[test]
    fn parse_list_expands_sets_and_dedups() {
        let d = AnyMetric::parse_list("default").unwrap();
        assert_eq!(d, AnyMetric::default_set());
        let l = AnyMetric::parse_list("k_avg, r ,k_avg,b_max").unwrap();
        assert_eq!(l.len(), 3);
        assert_eq!(l[0].name(), "k_avg");
        assert_eq!(l[2].name(), "b_max");
        let all = AnyMetric::parse_list("all").unwrap();
        assert_eq!(all.len(), AnyMetric::all().count());
        // scalars + series covers everything EXCEPT the estimators
        // (sampled pivots, sketches), which only `all` (or naming them)
        // selects
        let both = AnyMetric::parse_list("scalars,series").unwrap();
        let estimator_count = AnyMetric::all().filter(|m| m.cost().is_estimator()).count();
        assert!(estimator_count >= 5, "sampled + sketch metrics registered");
        assert_eq!(both.len(), all.len() - estimator_count);
        assert!(both.iter().all(|m| !m.cost().is_estimator()));
        assert!(AnyMetric::parse_list("").is_err());
        assert!(AnyMetric::parse_list("k_avg,bogus").is_err());
    }

    #[test]
    fn cheap_set_is_sub_quadratic() {
        for m in AnyMetric::cheap_set() {
            assert!(m.cost() <= Cost::Linear, "{} too expensive", m.name());
        }
    }

    #[test]
    fn listing_mentions_every_metric() {
        let listing = AnyMetric::listing();
        for m in AnyMetric::all() {
            assert!(listing.contains(m.name()));
        }
    }
}
