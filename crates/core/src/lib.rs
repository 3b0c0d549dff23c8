//! # dk-core — the dK-series: analysis and generation via degree correlations
//!
//! This crate implements the primary contribution of
//! *"Systematic Topology Analysis and Generation Using Degree Correlations"*
//! (Mahadevan, Krioukov, Fall, Vahdat — SIGCOMM 2006):
//!
//! * the **dK-distributions** for `d = 0, 1, 2, 3` — degree correlations
//!   within connected subgraphs of size `d` ([`Dist0K`], [`Dist1K`],
//!   [`Dist2K`], [`Dist3K`]), with extraction from arbitrary graphs,
//!   inclusion/derivation maps (paper Table 1), distance metrics `D_d`
//!   (§4.1.4), and an Orbis-style text file format ([`io`]);
//! * every **construction algorithm family** of §4.1:
//!   [`generate::stochastic`] (0K/1K/2K), [`generate::pseudograph`]
//!   (1K/2K), [`generate::matching`] (1K/2K with deadlock resolution),
//!   [`generate::rewire`] (dK-randomizing rewiring, `d = 0..3`), and
//!   [`generate::target`] (2K- and 3K-targeting d'K-preserving rewiring
//!   with simulated-annealing temperature, §4.1.4). Every swap-based
//!   family runs on the one `dk-mcmc` chain, whose `check_swap` is the
//!   only swap-validity rule;
//! * the **rewiring census** of Table 5 ([`census`]);
//! * **dK-space exploration** (§4.3): extremal rewiring that maximizes or
//!   minimizes scalar metrics defined by `P_{d+1}` — likelihood `S`,
//!   second-order likelihood `S2`, mean clustering `C̄`, or any
//!   user-supplied objective ([`explore`]);
//! * the §6 extensions: external **constraint hooks** on rewiring
//!   ([`constraints`]), **rescaling** of dK-distributions to arbitrary
//!   graph sizes ([`rescale`]), and **annotated** (link-labeled) 2K
//!   distributions ([`annotate`]).
//!
//! ## Subgraph-counting convention
//!
//! For `d = 3` the two geometries are counted over **induced** subgraphs:
//! a node triple contributes to the wedge component `P∧` iff its induced
//! subgraph is a path of length 2, and to the triangle component `P△` iff
//! it is a 3-clique. Every connected node triple therefore contributes to
//! exactly one component, which is what makes the pair (P∧, P△) a
//! *distribution* over size-3 geometries and makes 3K-preserving rewiring
//! well-defined.
//!
//! ## Quickstart
//!
//! The dK-series is *one* family indexed by `d`, and the public API
//! treats it that way: extract a distribution of runtime-chosen order
//! into an [`AnyDist`], then construct graphs through the capability-
//! checked [`Generator`] builder — no per-`(d, algorithm)` dispatch on
//! the caller's side:
//!
//! ```
//! use dk_core::{AnyDist, Generator, Method};
//! use dk_graph::builders;
//!
//! let observed = builders::karate_club();
//!
//! // Extract the joint degree distribution (d = 2)...
//! let jdd = AnyDist::from_graph(2, &observed).unwrap();
//!
//! // ...and build a 2K-random graph with the pseudograph family.
//! let random2k = Generator::new(Method::Pseudograph)
//!     .seed(7)
//!     .build(&jdd)
//!     .unwrap();
//! assert_eq!(random2k.graph.node_count(), observed.node_count());
//!
//! // Impossible combinations are typed errors, not panics or footguns:
//! let d3 = AnyDist::from_graph(3, &observed).unwrap();
//! assert!(Generator::new(Method::Pseudograph).build(&d3).is_err());
//!
//! // Ensembles fan out in parallel, bit-identical to the serial loop:
//! let graphs = Generator::new(Method::Pseudograph)
//!     .seed(7)
//!     .sample_ensemble(&jdd, 4, 0);
//! assert_eq!(graphs.len(), 4);
//! ```
//!
//! The per-family modules ([`generate::pseudograph`],
//! [`generate::matching`], …) remain available as the low-level layer
//! for callers that thread their own RNG; the facade's output is
//! byte-identical to them under the same seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotate;
pub mod census;
pub mod constraints;
pub mod dist;
pub mod explore;
pub mod generate;
pub mod io;
pub mod rescale;

pub use dist::{canon_triangle, canon_wedge, AnyDist, Dist0K, Dist1K, Dist2K, Dist3K};
pub use generate::rewire::{randomize, RewireOptions};
pub use generate::target::TargetOptions;
pub use generate::{GenError, Generated, Generator, Method};
