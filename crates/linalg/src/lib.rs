//! # dk-linalg — spectral substrate for graph metrics
//!
//! The paper's metric suite (§2) includes the extreme eigenvalues `λ1`
//! (smallest nonzero) and `λ_{n−1}` (largest) of the **normalized graph
//! Laplacian**, whose elements are
//!
//! ```text
//! L_ij = 1                  if i = j
//!      = −1/√(k_i·k_j)      if {i, j} ∈ E
//!      = 0                  otherwise
//! ```
//!
//! All its eigenvalues lie in `[0, 2]`; `0` is always an eigenvalue, with
//! eigenvector `v0 ∝ (√k_1, …, √k_n)` on a connected graph. These extremes
//! bound network resilience and maximum throughput (paper refs [8, 19, 29]).
//!
//! No linear-algebra crate is available offline, so this crate implements
//! the needed solvers from scratch:
//!
//! * [`sparse::SparseSym`] — symmetric CSR matrix with `matvec`;
//! * [`dense::DenseSym`] + cyclic **Jacobi** — full eigensystem for small
//!   matrices; the test oracle and the solver used below Lanczos scale;
//! * [`tridiag::tridiag_eigenvalues`] — implicit-shift **QL** for symmetric
//!   tridiagonal matrices;
//! * [`lanczos`] — **Lanczos** as the plain three-term recurrence with
//!   the kernel deflated every step and a local second Gram–Schmidt pass;
//!   it holds a handful of n-vectors, stores no Krylov basis, and
//!   converges to the spectrum extremes in a few hundred iterations even
//!   for the ≈10⁴-node skitter-scale graphs;
//! * [`laplacian`] — the graph-facing API: [`laplacian::spectral_extremes`]
//!   returns `(λ1, λ_{n−1})`, deflating the analytically-known null vector
//!   rather than estimating it numerically; [`laplacian::spectral_bytes`]
//!   is its memory model, which the daemon's admission control charges.
//!
//! Solvers are deterministic: Lanczos uses a fixed arithmetic start vector
//! (orthogonalized against the deflation space), not a random one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod lanczos;
pub mod laplacian;
pub mod sparse;
pub mod tridiag;

pub use laplacian::{spectral_extremes, SpectralExtremes};
pub use sparse::SparseSym;
