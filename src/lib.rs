//! # dk-repro — umbrella crate for the dK-series reproduction
//!
//! Re-exports the workspace crates under one roof so examples and
//! integration tests (and downstream users who want everything) need a
//! single dependency:
//!
//! * [`graph`] — graph substrate (`dk-graph`);
//! * [`linalg`] — spectral solvers (`dk-linalg`);
//! * [`metrics`] — the paper's §2 metric suite (`dk-metrics`);
//! * [`mcmc`] — the incremental-move double-edge-swap engine
//!   (`dk-mcmc`);
//! * [`core`] — dK-distributions, generators, rewiring, exploration
//!   (`dk-core`);
//! * [`topologies`] — evaluation inputs and baselines (`dk-topologies`).
//!
//! Each crate's own documentation is its quickstart; `examples/` holds
//! runnable end-to-end workflows.

#![forbid(unsafe_code)]

pub use dk_core as core;
pub use dk_graph as graph;
pub use dk_linalg as linalg;
pub use dk_mcmc as mcmc;
pub use dk_metrics as metrics;
pub use dk_topologies as topologies;
