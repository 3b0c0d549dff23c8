//! Construction algorithms for dK-graphs (paper §4.1), behind one
//! capability-checked facade.
//!
//! ## The construction families and their capability matrix
//!
//! Five families, mirroring the paper's taxonomy. [`Method::supports`]
//! encodes this table machine-checkably; [`Generator::build`] consults it
//! and turns impossible combinations into typed [`GenError`]s instead of
//! scattered per-call-site matches:
//!
//! | [`Method`] | module | d = 0 | d = 1 | d = 2 | d = 3 | character |
//! |------------|--------|:-----:|:-----:|:-----:|:-----:|-----------|
//! | `Stochastic` | [`stochastic`] | ✓ | ✓ | ✓ | — | expected-value match, high variance |
//! | `Pseudograph` | [`pseudograph`] | — | ✓ | ✓ | — | exact match pre-cleanup, loops/parallels |
//! | `Matching` | [`matching`] | — | ✓ | ✓ | — | exact simple-graph match, deadlock-prone |
//! | `Targeting` | [`target`] | — | — | ✓ | ✓ | bootstrap + dK-targeting rewiring chain |
//! | `Rewiring` | [`rewire`] | ✓ | ✓ | ✓ | ✓ | needs a reference graph |
//!
//! The paper could not generalize pseudograph/matching beyond `d = 2`
//! (subgraphs overlap over edges from `d = 3` on); neither do we — the
//! rewiring and targeting families cover `d = 3`, exactly as in the
//! paper. Targeting at `d ≤ 1` is pointless because pseudograph/matching
//! are already exact there.
//!
//! ## The facade
//!
//! ```
//! use dk_core::dist::AnyDist;
//! use dk_core::generate::{Generator, Method};
//! use dk_graph::builders;
//!
//! let observed = builders::karate_club();
//! let jdd = AnyDist::from_graph(2, &observed).unwrap();
//! let random2k = Generator::new(Method::Pseudograph)
//!     .seed(7)
//!     .build(&jdd)
//!     .unwrap();
//! assert_eq!(random2k.graph.node_count(), observed.node_count());
//! ```
//!
//! The per-family free functions (`pseudograph::generate_2k`, …) remain
//! available as the low-level layer — the facade dispatches to them, and
//! its output is byte-identical to calling them directly with
//! `StdRng::seed_from_u64(seed)` (the facade-equivalence tests assert
//! this cell by cell). New code should prefer the facade; the free
//! functions are kept for compatibility and for callers that thread
//! their own RNG.

pub mod delta;
pub mod matching;
pub mod objective;
pub mod pseudograph;
pub mod rewire;
pub mod stochastic;
pub mod target;

use crate::constraints::{NoConstraint, RewireConstraint};
use crate::dist::AnyDist;
use dk_graph::multigraph::Badness;
use dk_graph::{ensemble, Graph, GraphError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::str::FromStr;

pub use target::Bootstrap;

/// Output of a construction: the simple graph plus whatever non-simple
/// artifacts ("badnesses", §5.1) were removed during cleanup.
///
/// Loop-free constructions report a zero [`Badness`]. GCC extraction is
/// deliberately *not* performed here — the paper treats it as part of
/// measurement, not construction, and the reproduction harness wants to
/// report GCC fractions.
#[derive(Clone, Debug)]
pub struct Generated {
    /// The constructed simple graph (possibly disconnected).
    pub graph: Graph,
    /// Self-loops / parallel edges removed during simplification.
    pub badness: Badness,
}

impl Generated {
    /// Wraps a graph produced without any cleanup.
    pub fn clean(graph: Graph) -> Self {
        Generated {
            graph,
            badness: Badness::default(),
        }
    }
}

// ---------------------------------------------------------------------
// Capability matrix
// ---------------------------------------------------------------------

/// A construction algorithm family (paper §4.1).
///
/// Parsing and display use one canonical name set — shared by the CLI's
/// `--algo` flag, the bench harness, and tests:
/// `stochastic`, `pseudograph`, `matching`, `targeting`, `rewiring`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// §4.1.1 stochastic: per-pair probabilities (0K/1K/2K).
    Stochastic,
    /// §4.1.2 pseudograph (configuration) with cleanup (1K/2K).
    Pseudograph,
    /// §4.1.3 matching: loop-avoiding exact construction (1K/2K).
    Matching,
    /// §4.1.4 dK-targeting d'K-preserving rewiring chain (2K/3K).
    Targeting,
    /// §4.1.4 dK-randomizing rewiring of a reference graph (0K..3K).
    Rewiring,
}

impl Method {
    /// All five families, in the paper's presentation order.
    pub const ALL: [Method; 5] = [
        Method::Stochastic,
        Method::Pseudograph,
        Method::Matching,
        Method::Targeting,
        Method::Rewiring,
    ];

    /// The Table-2-style capability matrix: can this family construct a
    /// dK-graph of order `d`?
    pub const fn supports(self, d: u8) -> bool {
        match self {
            Method::Stochastic => d <= 2,
            Method::Pseudograph | Method::Matching => d == 1 || d == 2,
            Method::Targeting => d == 2 || d == 3,
            Method::Rewiring => d <= 3,
        }
    }

    /// The orders this family supports, ascending.
    pub fn supported_orders(self) -> Vec<u8> {
        (0..=3).filter(|&d| self.supports(d)).collect()
    }

    /// Canonical lowercase name (the [`FromStr`] inverse).
    pub const fn name(self) -> &'static str {
        match self {
            Method::Stochastic => "stochastic",
            Method::Pseudograph => "pseudograph",
            Method::Matching => "matching",
            Method::Targeting => "targeting",
            Method::Rewiring => "rewiring",
        }
    }

    /// Whether the family constructs from a distribution alone
    /// (`false` for [`Method::Rewiring`], which needs a reference graph).
    pub const fn needs_reference(self) -> bool {
        matches!(self, Method::Rewiring)
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Method {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "stochastic" => Ok(Method::Stochastic),
            "pseudograph" => Ok(Method::Pseudograph),
            "matching" => Ok(Method::Matching),
            "targeting" => Ok(Method::Targeting),
            "rewiring" => Ok(Method::Rewiring),
            other => Err(format!(
                "unknown algorithm {other:?} (stochastic|pseudograph|matching|targeting|rewiring)"
            )),
        }
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Typed failure of a [`Generator`] build.
#[derive(Debug)]
pub enum GenError {
    /// The `(method, d)` cell is empty in the capability matrix.
    Unsupported {
        /// The requested family.
        method: Method,
        /// The requested order.
        d: u8,
    },
    /// [`Method::Rewiring`] was asked to build without a reference graph.
    NeedsReference,
    /// [`Generator::build_randomized`] was called on a family that
    /// constructs from a distribution, not from a reference graph.
    DistributionRequired(Method),
    /// A [`crate::constraints::RewireConstraint`] was attached to a
    /// family that cannot honor constraints.
    ConstraintUnsupported(Method),
    /// The underlying construction failed (inconsistent distribution,
    /// matching deadlock, …).
    Graph(GraphError),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::Unsupported { method, d } => {
                let supported: Vec<String> = method
                    .supported_orders()
                    .iter()
                    .map(|x| x.to_string())
                    .collect();
                write!(
                    f,
                    "method `{method}` does not support d = {d} (supports d ∈ {{{}}})",
                    supported.join(", ")
                )?;
                if *d == 3 {
                    write!(
                        f,
                        "; d = 3 construction requires targeting or rewiring \
                         (pseudograph/matching do not generalize past d = 2, paper §4.1.2)"
                    )?;
                }
                Ok(())
            }
            GenError::NeedsReference => write!(
                f,
                "dK-randomizing rewiring constructs from a reference graph; \
                 attach one with Generator::reference(..)"
            ),
            GenError::DistributionRequired(method) => write!(
                f,
                "method `{method}` constructs from a dK-distribution; \
                 distribution-free construction is the rewiring family's"
            ),
            GenError::ConstraintUnsupported(method) => write!(
                f,
                "external rewiring constraints are honored by the rewiring family, \
                 not by `{method}`"
            ),
            GenError::Graph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for GenError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GenError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for GenError {
    fn from(e: GraphError) -> Self {
        GenError::Graph(e)
    }
}

impl From<GenError> for GraphError {
    /// Flattens into the workspace-wide error type (used by the CLI,
    /// whose commands return [`GraphError`]).
    fn from(e: GenError) -> Self {
        match e {
            GenError::Graph(inner) => inner,
            other => GraphError::ConstructionFailed(other.to_string()),
        }
    }
}

// ---------------------------------------------------------------------
// The Generator facade
// ---------------------------------------------------------------------

/// Builder facade over every construction family.
///
/// One entry point for "construct a dK-graph of runtime-chosen `d` with
/// runtime-chosen algorithm": configure once, [`Generator::build`] from
/// any [`AnyDist`], or fan out whole ensembles with
/// [`Generator::sample_iter`] / [`Generator::sample_ensemble`].
///
/// See the [module docs](self) for the capability matrix and an example.
pub struct Generator {
    method: Method,
    seed: u64,
    bootstrap: Bootstrap,
    target_opts: target::TargetOptions,
    rewire_opts: rewire::RewireOptions,
    reference: Option<Graph>,
    constraint: Option<Box<dyn RewireConstraint + Send + Sync>>,
}

impl fmt::Debug for Generator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Generator")
            .field("method", &self.method)
            .field("seed", &self.seed)
            .field("bootstrap", &self.bootstrap)
            .field(
                "reference",
                &self.reference.as_ref().map(|g| g.node_count()),
            )
            .field("constrained", &self.constraint.is_some())
            .finish()
    }
}

impl Generator {
    /// Starts a builder for the given family (seed 1, matching
    /// bootstrap, default options, no reference, no constraints).
    pub fn new(method: Method) -> Self {
        Generator {
            method,
            seed: 1,
            bootstrap: Bootstrap::Matching,
            target_opts: target::TargetOptions::default(),
            rewire_opts: rewire::RewireOptions::default(),
            reference: None,
            constraint: None,
        }
    }

    /// The configured family.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Sets the RNG seed (each [`Generator::build`] call re-seeds, so
    /// repeated builds are identical).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Chooses the 1K bootstrap of the targeting chain (paper §5.1).
    pub fn bootstrap(mut self, bootstrap: Bootstrap) -> Self {
        self.bootstrap = bootstrap;
        self
    }

    /// Overrides the targeting-rewiring options.
    pub fn target_options(mut self, opts: target::TargetOptions) -> Self {
        self.target_opts = opts;
        self
    }

    /// Overrides the randomizing-rewiring options.
    pub fn rewire_options(mut self, opts: rewire::RewireOptions) -> Self {
        self.rewire_opts = opts;
        self
    }

    /// Attaches the reference graph required by [`Method::Rewiring`]
    /// (the construction clones and dK-randomizes it, preserving its own
    /// order-`d` distribution).
    pub fn reference(mut self, g: &Graph) -> Self {
        self.reference = Some(g.clone());
        self
    }

    /// Attaches an external rewiring constraint (paper §6). Honored by
    /// [`Method::Rewiring`]; other families return
    /// [`GenError::ConstraintUnsupported`] at build time.
    pub fn constraints<C>(mut self, constraint: C) -> Self
    where
        C: RewireConstraint + Send + Sync + 'static,
    {
        self.constraint = Some(Box::new(constraint));
        self
    }

    /// Constructs one graph from `dist`, seeding a fresh RNG from the
    /// configured seed. Deterministic: same configuration, same output.
    ///
    /// For [`Method::Rewiring`] the *reference graph* defines the
    /// distribution being preserved; `dist` only selects the order `d`
    /// and its contents are not consulted (checking them would cost a
    /// full order-`d` census per build). Pass a dist extracted from the
    /// reference itself, or use [`Generator::build_randomized`], which
    /// makes the distribution-free contract explicit.
    pub fn build(&self, dist: &AnyDist) -> Result<Generated, GenError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.build_with_rng(dist, &mut rng)
    }

    /// Constructs one graph, drawing randomness from a caller-supplied
    /// RNG (for callers that thread one RNG through a larger protocol).
    ///
    /// This is the single dispatch point over `(method, d)` in the
    /// workspace; every impossible cell returns a typed error.
    pub fn build_with_rng<R: Rng + ?Sized>(
        &self,
        dist: &AnyDist,
        rng: &mut R,
    ) -> Result<Generated, GenError> {
        let d = dist.order();
        if !self.method.supports(d) {
            return Err(GenError::Unsupported {
                method: self.method,
                d,
            });
        }
        if self.constraint.is_some() && self.method != Method::Rewiring {
            return Err(GenError::ConstraintUnsupported(self.method));
        }
        match (self.method, dist) {
            (Method::Stochastic, AnyDist::D0(d0)) => Ok(stochastic::generate_0k(d0, rng)),
            (Method::Stochastic, AnyDist::D1(d1)) => Ok(stochastic::generate_1k(d1, rng)?),
            (Method::Stochastic, AnyDist::D2(d2)) => Ok(stochastic::generate_2k(d2, rng)?),

            (Method::Pseudograph, AnyDist::D1(d1)) => Ok(pseudograph::generate_1k(d1, rng)?),
            (Method::Pseudograph, AnyDist::D2(d2)) => Ok(pseudograph::generate_2k(d2, rng)?),

            (Method::Matching, AnyDist::D1(d1)) => Ok(matching::generate_1k(d1, rng)?),
            (Method::Matching, AnyDist::D2(d2)) => Ok(matching::generate_2k(d2, rng)?),

            (Method::Targeting, AnyDist::D2(d2)) => {
                let (graph, _stats) =
                    target::generate_2k_random(d2, self.bootstrap, &self.target_opts, rng)?;
                Ok(Generated::clean(graph))
            }
            (Method::Targeting, AnyDist::D3(d3)) => {
                let (graph, _stats) =
                    target::generate_3k_random(d3, self.bootstrap, &self.target_opts, rng)?;
                Ok(Generated::clean(graph))
            }

            (Method::Rewiring, _) => self.rewire_reference(d, rng),

            // every remaining cell is rejected by the supports() gate
            _ => unreachable!("capability matrix covers all reachable cells"),
        }
    }

    /// Distribution-free entry for the rewiring family: the reference
    /// graph *is* the order-`d` distribution, so callers that only need
    /// "a dK-random counterpart of this graph" skip the (potentially
    /// expensive, immediately discarded) census extraction that
    /// `build(&AnyDist::from_graph(d, g))` would imply.
    ///
    /// # Errors
    /// [`GenError::DistributionRequired`] for every family other than
    /// [`Method::Rewiring`]; otherwise as [`Generator::build`].
    pub fn build_randomized(&self, d: u8) -> Result<Generated, GenError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.build_randomized_with_rng(d, &mut rng)
    }

    /// [`Generator::build_randomized`] with a caller-supplied RNG.
    pub fn build_randomized_with_rng<R: Rng + ?Sized>(
        &self,
        d: u8,
        rng: &mut R,
    ) -> Result<Generated, GenError> {
        if self.method != Method::Rewiring {
            return Err(GenError::DistributionRequired(self.method));
        }
        if !self.method.supports(d) {
            return Err(GenError::Unsupported {
                method: self.method,
                d,
            });
        }
        self.rewire_reference(d, rng)
    }

    /// The rewiring family's construction: clone the reference and
    /// dK-randomize it at order `d` under the configured constraint.
    fn rewire_reference<R: Rng + ?Sized>(&self, d: u8, rng: &mut R) -> Result<Generated, GenError> {
        let Some(reference) = &self.reference else {
            return Err(GenError::NeedsReference);
        };
        let mut graph = reference.clone();
        match &self.constraint {
            Some(c) => rewire::randomize_with(&mut graph, d, &self.rewire_opts, c.as_ref(), rng),
            None => rewire::randomize_with(&mut graph, d, &self.rewire_opts, &NoConstraint, rng),
        };
        Ok(Generated::clean(graph))
    }

    /// Lazy ensemble: replica `i` is built with the derived seed
    /// [`ensemble::derive_seed`]`(seed, i)`, so any subset of
    /// replicas can be regenerated independently — and the parallel
    /// runner ([`Generator::sample_ensemble`]) produces *identical*
    /// graphs in any thread configuration.
    pub fn sample_iter<'a>(
        &'a self,
        dist: &'a AnyDist,
        replicas: u64,
    ) -> impl Iterator<Item = Result<Generated, GenError>> + 'a {
        (0..replicas).map(move |i| {
            let mut rng = StdRng::seed_from_u64(ensemble::derive_seed(self.seed, i));
            self.build_with_rng(dist, &mut rng)
        })
    }

    /// Parallel ensemble: `replicas` independent builds fanned out over
    /// `threads` worker threads (`0` = all available cores). Per-replica
    /// seeds are derived exactly as in [`Generator::sample_iter`], so the
    /// result is byte-identical to the serial iterator, in order.
    pub fn sample_ensemble(
        &self,
        dist: &AnyDist,
        replicas: u64,
        threads: usize,
    ) -> Vec<Result<Generated, GenError>> {
        ensemble::run(replicas, self.seed, threads, |_i, rng| {
            self.build_with_rng(dist, rng)
        })
    }
}

#[cfg(test)]
mod facade_tests {
    use super::*;
    use crate::dist::Dist2K;
    use dk_graph::builders;

    #[test]
    fn capability_matrix_shape() {
        // spot-check the documented table
        assert!(Method::Stochastic.supports(0));
        assert!(!Method::Stochastic.supports(3));
        assert!(Method::Pseudograph.supports(2));
        assert!(!Method::Pseudograph.supports(0));
        assert!(!Method::Matching.supports(3));
        assert!(Method::Targeting.supports(3));
        assert!(!Method::Targeting.supports(1));
        assert!(Method::Rewiring.supports(0) && Method::Rewiring.supports(3));
        // every family supports at least one order; d > 3 never supported
        for m in Method::ALL {
            assert!(!m.supported_orders().is_empty(), "{m}");
            assert!(!m.supports(4), "{m}");
        }
    }

    #[test]
    fn method_name_roundtrip() {
        for m in Method::ALL {
            assert_eq!(m.to_string().parse::<Method>().unwrap(), m);
        }
        assert!("bogus".parse::<Method>().is_err());
    }

    #[test]
    fn build_dispatches_and_reports_badness() {
        let g = builders::karate_club();
        let dist = AnyDist::from_graph(2, &g).unwrap();
        let out = Generator::new(Method::Matching)
            .seed(3)
            .build(&dist)
            .unwrap();
        assert_eq!(
            Dist2K::from_graph(&out.graph),
            Dist2K::from_graph(&g),
            "matching is exact"
        );
        assert_eq!(out.badness.total(), 0, "matching never cleans up");
        // repeated builds are identical (the seed re-seeds per build)
        let again = Generator::new(Method::Matching)
            .seed(3)
            .build(&dist)
            .unwrap();
        assert_eq!(out.graph, again.graph);
    }

    #[test]
    fn rewiring_needs_reference() {
        let g = builders::karate_club();
        let dist = AnyDist::from_graph(2, &g).unwrap();
        let err = Generator::new(Method::Rewiring).build(&dist).unwrap_err();
        assert!(matches!(err, GenError::NeedsReference), "{err}");
        let ok = Generator::new(Method::Rewiring)
            .reference(&g)
            .seed(5)
            .build(&dist)
            .unwrap();
        assert_eq!(Dist2K::from_graph(&ok.graph), Dist2K::from_graph(&g));
    }

    #[test]
    fn constraints_accepted_by_rewiring_only() {
        use crate::constraints::DegreeProductCap;
        let g = builders::karate_club();
        let dist = AnyDist::from_graph(1, &g).unwrap();
        let err = Generator::new(Method::Matching)
            .constraints(DegreeProductCap { cap: 50 })
            .build(&dist)
            .unwrap_err();
        assert!(
            matches!(err, GenError::ConstraintUnsupported(Method::Matching)),
            "{err}"
        );
        let ok = Generator::new(Method::Rewiring)
            .reference(&g)
            .constraints(DegreeProductCap { cap: 10_000 })
            .build(&dist);
        assert!(ok.is_ok());
    }

    #[test]
    fn unsupported_cells_are_typed_errors() {
        let g = builders::karate_club();
        let d3 = AnyDist::from_graph(3, &g).unwrap();
        let err = Generator::new(Method::Matching).build(&d3).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("targeting"), "d = 3 hint missing: {msg}");
        assert!(matches!(
            err,
            GenError::Unsupported {
                method: Method::Matching,
                d: 3
            }
        ));
    }

    #[test]
    fn build_randomized_equals_dist_driven_rewiring() {
        let g = builders::karate_club();
        for d in 0..=3u8 {
            let gen = Generator::new(Method::Rewiring).reference(&g).seed(13);
            let via_dist = gen.build(&AnyDist::from_graph(d, &g).unwrap()).unwrap();
            let direct = gen.build_randomized(d).unwrap();
            assert_eq!(via_dist.graph, direct.graph, "d = {d}");
        }
        // non-rewiring families have no distribution-free entry
        let err = Generator::new(Method::Matching)
            .build_randomized(2)
            .unwrap_err();
        assert!(
            matches!(err, GenError::DistributionRequired(Method::Matching)),
            "{err}"
        );
        // unsupported order still checked
        let err = Generator::new(Method::Rewiring)
            .reference(&g)
            .build_randomized(4)
            .unwrap_err();
        assert!(matches!(err, GenError::Unsupported { d: 4, .. }), "{err}");
        // and the reference is still required
        let err = Generator::new(Method::Rewiring)
            .build_randomized(2)
            .unwrap_err();
        assert!(matches!(err, GenError::NeedsReference), "{err}");
    }

    #[test]
    fn sample_iter_matches_parallel_ensemble() {
        let g = builders::karate_club();
        let dist = AnyDist::from_graph(2, &g).unwrap();
        let gen = Generator::new(Method::Pseudograph).seed(11);
        let serial: Vec<Graph> = gen
            .sample_iter(&dist, 6)
            .map(|r| r.unwrap().graph)
            .collect();
        let parallel: Vec<Graph> = gen
            .sample_ensemble(&dist, 6, 3)
            .into_iter()
            .map(|r| r.unwrap().graph)
            .collect();
        assert_eq!(serial, parallel);
        // replicas are genuinely independent draws
        assert!(serial.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn error_conversion_flattens_for_the_cli() {
        let e: GraphError = GenError::Unsupported {
            method: Method::Pseudograph,
            d: 3,
        }
        .into();
        assert!(matches!(e, GraphError::ConstructionFailed(_)));
        let inner = GraphError::NotGraphical("x".into());
        let e: GraphError = GenError::Graph(inner.clone()).into();
        assert_eq!(e, inner);
    }

    #[test]
    fn generator_is_order_agnostic() {
        // one facade covers d = 0..=3 without caller-side matching
        let g = builders::karate_club();
        for d in 0..=3u8 {
            let dist = AnyDist::from_graph(d, &g).unwrap();
            assert_eq!(dist.order(), d);
            let gen = Generator::new(Method::Rewiring).reference(&g).seed(2);
            let out = gen.build(&dist).unwrap();
            out.graph.check_invariants().unwrap();
        }
    }
}
