//! # dk-metrics — the paper's topology metric suite (§2, Table 2)
//!
//! Implements every graph metric the paper uses to compare original and
//! dK-random topologies, behind one composable analysis API:
//!
//! * [`metric::Metric`] — a metric's name, cost class, shared-computation
//!   dependencies, and scalar/series output, one row of the registry
//!   behind [`metric::AnyMetric`] (`FromStr`, capability listing),
//!   mirroring the generation side's `Method`;
//! * [`analyzer::Analyzer`] — builder facade: select metrics by name or
//!   set, fix the GCC policy (§5.2), and analyze one graph
//!   ([`analyzer::Analyzer::analyze`]) or a seeded ensemble
//!   ([`analyzer::Analyzer::run_ensemble`] → per-metric mean/std/min/max,
//!   the numbers the paper's Table 2 and figures 5–9 report);
//! * [`cache::AnalysisCache`] — shared computations (GCC extraction,
//!   triangle census, one traversal pass per source set, spectral
//!   solve) computed once per graph and reused across metrics;
//! * [`report::Report`] / [`table::MetricTable`] — structured results
//!   with text and hand-rolled JSON rendering.
//!
//! ## Quickstart
//!
//! ```
//! use dk_metrics::analyzer::Analyzer;
//! use dk_graph::builders;
//!
//! // the paper's default battery on one graph
//! let report = Analyzer::new().analyze(&builders::karate_club());
//! assert_eq!(report.scalar("n"), Some(34.0));
//!
//! // custom selection by name — distances and betweenness share one
//! // all-source Brandes pass in the cache
//! let report = Analyzer::new()
//!     .metric_names("d_avg,b_max,c_k")
//!     .unwrap()
//!     .analyze(&builders::karate_club());
//! assert!(report.scalar("b_max").unwrap() > 0.0);
//! println!("{}", report.to_json());
//! ```
//!
//! ## The metric modules
//!
//! | metric | module | paper notation |
//! |--------|--------|----------------|
//! | degree distribution | [`degree`] | `P(k)` |
//! | average degree | [`degree`] | `k̄` |
//! | joint degree distribution | [`jdd`] | `P(k1,k2)` |
//! | assortativity coefficient | [`jdd`] | `r` |
//! | likelihood | [`likelihood`] | `S` |
//! | second-order likelihood | [`likelihood`] | `S2` |
//! | clustering | [`clustering`] | `C(k)`, `C̄` |
//! | distance distribution | [`distance`] | `d(x)`, `d̄`, `σ_d` |
//! | betweenness | [`betweenness`] | — |
//! | Laplacian spectrum extremes | [`spectral`] | `λ1`, `λ_{n−1}` |
//! | k-core decomposition | [`kcore`] | — (beyond-paper check) |
//! | rich-club connectivity | [`richclub`] | — (beyond-paper check) |
//! | attack/failure percolation | [`attack`] | — (robustness study) |
//!
//! ## Conventions
//!
//! * All metrics are computed on the **giant connected component** by
//!   default; the paper extracts the GCC first (§5.2: "We report all the
//!   metrics calculated for the giant connected component"). Opt out with
//!   [`cache::GccPolicy::Whole`].
//! * All-pairs computations (distances, betweenness) run **exactly** by
//!   default and in parallel across BFS sources using scoped threads;
//!   every metric reads the analyzer's one [`dk_graph::CsrGraph`],
//!   which `dk metrics` reads straight from the edge list. Graphs
//!   at paper scale (10⁴ nodes, 3×10⁴ edges) complete in seconds. For
//!   larger graphs the explicit `distance_approx`/`betweenness_approx`
//!   metrics ([`sampled`], `Cost::Sampled`) estimate from K pivot
//!   sources, and the `distance_sketch`/`avg_distance_sketch`/
//!   `effective_diameter_sketch` metrics ([`sketch`], `Cost::Sketch`)
//!   estimate the distance family from HyperANF neighborhood sketches
//!   whose error `1.04/√2^b` is set by the register count.
//! * Every traversal pass runs through one **sharded streaming**
//!   executor ([`stream`]): per-shard partials fold into `O(n)` reducers
//!   in shard order, so traversal memory is bounded by the worker count.
//!   The shard count (`Analyzer::shards`, CLI `--shards`) fixes the f64
//!   merge tree; a memory budget (`Analyzer::memory_budget`, CLI
//!   `--memory-budget`) caps the worker count.
//! * Results never depend on thread counts: parallel analysis is
//!   byte-identical to serial.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod attack;
pub mod betweenness;
pub mod cache;
pub mod clustering;
pub mod degree;
pub mod distance;
pub mod jdd;
pub mod json;
pub mod kcore;
pub mod likelihood;
pub mod metric;
pub mod report;
pub mod richclub;
pub mod sampled;
pub mod sketch;
pub mod spectral;
pub mod stream;
pub mod table;

pub use analyzer::{Analyzer, EnsembleSummary, ScalarSummary};
pub use attack::{AttackOptions, AttackReport, Checkpoint, Strategy};
pub use cache::{AnalysisCache, AnalyzeOptions, GccPolicy};
pub use metric::{AnyMetric, Metric, MetricValue};
pub use report::Report;
pub use stream::ExecPlan;
pub use table::MetricTable;
