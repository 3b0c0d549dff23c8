//! Spectral metrics: thin graph-facing wrapper over `dk-linalg`.
//!
//! Exists so that `dk-metrics` is the single dependency a caller needs for
//! the full Table 2 battery; the heavy lifting (Jacobi/Lanczos) lives in
//! [`dk_linalg`].

use dk_graph::AdjacencyView;
pub use dk_linalg::laplacian::{spectral_bytes, SpectralError, SpectralExtremes};

/// `λ1` and `λ_{n−1}` of the normalized Laplacian of a **connected** graph.
///
/// See [`dk_linalg::laplacian::spectral_extremes`] for strategy and
/// accuracy notes.
pub fn spectral_extremes<V: AdjacencyView + ?Sized>(
    g: &V,
) -> Result<SpectralExtremes, SpectralError> {
    dk_linalg::spectral_extremes(g)
}

/// As [`spectral_extremes`] with an explicit Lanczos iteration budget for
/// large graphs.
pub fn spectral_extremes_with<V: AdjacencyView + ?Sized>(
    g: &V,
    lanczos_iter: usize,
) -> Result<SpectralExtremes, SpectralError> {
    dk_linalg::laplacian::spectral_extremes_with(g, lanczos_iter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::{builders, Graph};

    #[test]
    fn wrapper_delegates() {
        let g = builders::complete(6);
        let s = spectral_extremes(&g).unwrap();
        assert!((s.lambda1 - 1.2).abs() < 1e-9);
        assert!((s.lambda_max - 1.2).abs() < 1e-9);
    }

    #[test]
    fn wrapper_propagates_errors() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(spectral_extremes(&g), Err(SpectralError::NotConnected));
    }
}
