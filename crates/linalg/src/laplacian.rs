//! Graph-facing spectral API: `λ1` and `λ_{n−1}` of the normalized
//! Laplacian.
//!
//! This is the single entry point the metric suite uses. Strategy selection
//! is automatic and boring on purpose:
//!
//! * `n ≤ DENSE_CUTOFF` → dense Jacobi (exact, trivially robust);
//! * larger → Lanczos on the sparse Laplacian with the kernel vector
//!   `D^{1/2}·1` deflated analytically.
//!
//! The input must be **connected** (pass a GCC — the paper computes all
//! metrics on GCCs). On a disconnected graph the "smallest nonzero
//! eigenvalue" is ill-defined for the intended interpretation, so the
//! function returns an error rather than a misleading number.

use crate::dense::{jacobi_eigenvalues, DenseSym};
use crate::lanczos::{lanczos_ritz_values, LanczosOptions};
use crate::sparse::SparseSym;
use dk_graph::{is_connected, AdjacencyView};

/// Below this node count the dense Jacobi path is used.
pub const DENSE_CUTOFF: usize = 512;

/// The two spectral metrics of the paper's Table 2: `λ1` (smallest nonzero)
/// and `λ_{n−1}` (largest) eigenvalue of the normalized Laplacian.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpectralExtremes {
    /// Smallest nonzero eigenvalue (algebraic connectivity analogue).
    pub lambda1: f64,
    /// Largest eigenvalue (≤ 2; = 2 iff the graph is bipartite).
    pub lambda_max: f64,
}

/// Errors from spectral computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpectralError {
    /// The graph must be connected (extract the GCC first).
    NotConnected,
    /// The graph is too small for the metrics to be defined (n < 2).
    TooSmall,
}

impl std::fmt::Display for SpectralError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpectralError::NotConnected => {
                write!(f, "graph not connected; extract the giant component first")
            }
            SpectralError::TooSmall => write!(f, "need at least 2 nodes for spectral extremes"),
        }
    }
}

impl std::error::Error for SpectralError {}

/// Computes [`SpectralExtremes`] for a connected graph.
///
/// `lanczos_iter` bounds the Krylov dimension on the sparse path; the
/// default (via [`spectral_extremes`]) is 300. On the ≈ 9·10³-node
/// skitter-like topology both extremes have converged long before that:
/// they move by less than 1e-14 between 100 and 3000 steps, and they
/// match a fully reorthogonalized Lanczos run to within 5e-15 (the
/// `spectral_equivalence` test suite asserts 3e-14).
pub fn spectral_extremes_with<V: AdjacencyView + ?Sized>(
    g: &V,
    lanczos_iter: usize,
) -> Result<SpectralExtremes, SpectralError> {
    let n = g.node_count();
    if n < 2 {
        return Err(SpectralError::TooSmall);
    }
    if !is_connected(g) {
        return Err(SpectralError::NotConnected);
    }
    if n <= DENSE_CUTOFF {
        let eig = jacobi_eigenvalues(&DenseSym::normalized_laplacian(g));
        // eig[0] ≈ 0 (kernel); λ1 = eig[1]
        Ok(SpectralExtremes {
            lambda1: eig[1],
            lambda_max: *eig.last().expect("n ≥ 2"),
        })
    } else {
        let l = SparseSym::normalized_laplacian(g);
        let v0: Vec<f64> = (0..n as u32).map(|u| (g.degree(u) as f64).sqrt()).collect();
        let ritz = lanczos_ritz_values(
            &l,
            &[v0],
            &LanczosOptions {
                max_iter: lanczos_iter,
                ..Default::default()
            },
        );
        assert!(
            !ritz.is_empty(),
            "connected graph with n > 2 has nonempty deflated spectrum"
        );
        Ok(SpectralExtremes {
            lambda1: ritz[0].max(0.0),
            lambda_max: ritz.last().copied().expect("nonempty").min(2.0),
        })
    }
}

/// Memory model of [`spectral_extremes_with`]: the bytes it holds at its
/// peak on a connected graph of at most `n` nodes and `m` edges (the
/// metric battery runs it on the giant component of such a graph).
///
/// * `n ≤ DENSE_CUTOFF`: `16·n²`, the dense matrix plus the working copy
///   Jacobi rotates (the `O(n)` eigenvalue list is ignored);
/// * above: the sparse Laplacian (`n + 1` row offsets, and a `u32`
///   column and an `f64` value for each of its `n + 2m` entries) plus
///   six `f64` `n`-vectors. The solve holds five beside the matrix (the
///   kernel vector and its normalized copy, the recurrence's `v_{j−1}`,
///   `v_j` and `w`); the sixth covers the connectivity check's BFS
///   scratch and the build's inverse square-root degrees. The Lanczos
///   coefficients are `O(lanczos_iter)` and ignored. A giant component
///   below the cutoff takes the dense path, so the dense cost at the
///   cutoff is a floor.
pub fn spectral_bytes(n: usize, m: usize) -> u64 {
    let dense = |n: usize| 16 * (n as u64) * (n as u64);
    if n <= DENSE_CUTOFF {
        dense(n)
    } else {
        let sparse = SparseSym::laplacian_bytes(n, m) + 6 * 8 * n as u64;
        sparse.max(dense(DENSE_CUTOFF))
    }
}

/// [`spectral_extremes_with`] using the default Lanczos budget.
pub fn spectral_extremes<V: AdjacencyView + ?Sized>(
    g: &V,
) -> Result<SpectralExtremes, SpectralError> {
    spectral_extremes_with(g, LanczosOptions::default().max_iter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::{builders, Graph};

    #[test]
    fn complete_graph_extremes() {
        // K_n: λ1 = λ_max = n/(n−1)
        let g = builders::complete(10);
        let s = spectral_extremes(&g).unwrap();
        assert!((s.lambda1 - 10.0 / 9.0).abs() < 1e-9);
        assert!((s.lambda_max - 10.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn star_extremes() {
        // S_k: spectrum {0, 1, …, 1, 2}
        let g = builders::star(9);
        let s = spectral_extremes(&g).unwrap();
        assert!((s.lambda1 - 1.0).abs() < 1e-9);
        assert!((s.lambda_max - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cycle_extremes() {
        let n = 20usize;
        let g = builders::cycle(n);
        let s = spectral_extremes(&g).unwrap();
        let want1 = 1.0 - (2.0 * std::f64::consts::PI / n as f64).cos();
        assert!((s.lambda1 - want1).abs() < 1e-9);
        // C_20 bipartite (even cycle) → λ_max = 2
        assert!((s.lambda_max - 2.0).abs() < 1e-9);
        // odd cycle is not bipartite → λ_max < 2
        let g = builders::cycle(21);
        let s = spectral_extremes(&g).unwrap();
        assert!(s.lambda_max < 2.0 - 1e-6);
    }

    #[test]
    fn errors_on_bad_input() {
        assert_eq!(
            spectral_extremes(&Graph::with_nodes(1)),
            Err(SpectralError::TooSmall)
        );
        let disconnected = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(
            spectral_extremes(&disconnected),
            Err(SpectralError::NotConnected)
        );
    }

    #[test]
    fn lanczos_path_matches_closed_form() {
        // A graph above the dense cutoff exercises the Lanczos path.
        // K_{a,a} has normalized-Laplacian spectrum {0, 1 × (n−2), 2}
        // in closed form, so no dense solve is needed as oracle.
        let g = builders::complete_bipartite(300, 300); // n = 600 > 512
        let s = spectral_extremes(&g).unwrap();
        assert!((s.lambda1 - 1.0).abs() < 1e-8, "λ1 = {}", s.lambda1);
        assert!(
            (s.lambda_max - 2.0).abs() < 1e-8,
            "λ_max = {}",
            s.lambda_max
        );
    }

    #[test]
    fn lanczos_path_matches_dense_path_on_irregular_graph() {
        // Same graph, both paths: force the sparse path via a small
        // Lanczos budget check against the dense oracle (n < cutoff, so
        // call the internals directly).
        let g = builders::grid(12, 12);
        let eig = jacobi_eigenvalues(&DenseSym::normalized_laplacian(&g));
        let l = SparseSym::normalized_laplacian(&g);
        let v0: Vec<f64> = (0..g.node_count() as u32)
            .map(|u| (g.degree(u) as f64).sqrt())
            .collect();
        let ritz = crate::lanczos::lanczos_ritz_values(
            &l,
            &[v0],
            &LanczosOptions {
                max_iter: 120,
                ..Default::default()
            },
        );
        assert!(
            (ritz[0] - eig[1]).abs() < 1e-7,
            "λ1 {} vs {}",
            ritz[0],
            eig[1]
        );
        assert!((ritz.last().unwrap() - eig.last().unwrap()).abs() < 1e-7);
    }

    #[test]
    fn spectral_bytes_model() {
        // dense: the matrix and Jacobi's copy
        assert_eq!(spectral_bytes(100, 300), 16 * 100 * 100);
        let floor = spectral_bytes(DENSE_CUTOFF, 0);
        // just above the cutoff the giant component may still be dense
        assert_eq!(spectral_bytes(DENSE_CUTOFF + 1, 1000), floor);
        // large sparse graphs: the CSR plus six n-vectors
        let (n, m) = (100_000, 200_000);
        assert_eq!(
            spectral_bytes(n, m),
            SparseSym::laplacian_bytes(n, m) + 48 * n as u64
        );
        assert!(spectral_bytes(n, m) > floor);
    }

    #[test]
    fn extremes_bounded_by_two() {
        let g = builders::karate_club();
        let s = spectral_extremes(&g).unwrap();
        assert!(s.lambda1 > 0.0 && s.lambda1 < 2.0);
        assert!(s.lambda_max > 0.0 && s.lambda_max <= 2.0);
        assert!(s.lambda1 <= s.lambda_max);
    }
}
