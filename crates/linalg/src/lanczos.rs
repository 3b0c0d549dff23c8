//! Lanczos iteration: the plain three-term recurrence with explicit
//! deflation.
//!
//! Lanczos builds an orthonormal Krylov basis `v_1, v_2, …` of a symmetric
//! operator `A` and a tridiagonal matrix `T` whose eigenvalues ("Ritz
//! values") converge — extremes first — to the eigenvalues of `A`. That is
//! exactly what the dK metric suite needs: only `λ1` and `λ_{n−1}` of the
//! normalized Laplacian matter (paper §2).
//!
//! The iteration keeps only `v_{j−1}`, `v_j` and the new residual `w`, so
//! its memory is a handful of n-vectors whatever the Krylov dimension:
//!
//! 1. **No global reorthogonalization.** In floating point the Lanczos
//!    vectors lose orthogonality once a Ritz pair converges. What that
//!    costs is duplicate "ghost" copies of Ritz values that have *already*
//!    converged (Paige, Linear Algebra Appl. 34, 1980): the extremes stay
//!    correct, only interior multiplicities become meaningless. Since the
//!    extremes are all that is reported, re-projecting every new vector
//!    against the whole stored basis (O(k·n) memory and O(k²·n) traffic)
//!    buys nothing here.
//! 2. **Deflation, every step.** On a connected graph the Laplacian kernel
//!    is known in closed form (`v0 ∝ D^{1/2}·1`). Projecting it out
//!    *exactly* — rather than hoping the iteration separates a 0
//!    eigenvalue from a tiny `λ1` — makes the smallest *nonzero*
//!    eigenvalue an extreme of the deflated operator. Rounding
//!    reintroduces a kernel component in every matvec, and without a
//!    global reorthogonalization nothing else removes it, so the
//!    deflation set is projected out of each new residual; skipping this
//!    lets `λ1` collapse towards 0.
//! 3. **A local second pass.** After the deflation, `w` gets one more
//!    Gram–Schmidt pass against `v_j` and `v_{j−1}`, at O(n) per step.
//!    Without it the extremes drift by up to a few 1e-13 on graphs whose
//!    Krylov space is exhausted early (barbells, trees: a fully
//!    reorthogonalized run breaks down there within a few dozen steps,
//!    while this one keeps going on rounding noise); with it they stay
//!    within ~1e-14 of the fully reorthogonalized values.

use crate::sparse::SparseSym;
use crate::tridiag::tridiag_eigenvalues;

/// Options for [`lanczos_ritz_values`].
#[derive(Clone, Copy, Debug)]
pub struct LanczosOptions {
    /// Maximum Krylov dimension (iterations). The effective dimension is
    /// capped at `n − deflate.len()`.
    pub max_iter: usize,
    /// Breakdown tolerance: a β below this means an exact invariant
    /// subspace was found and iteration stops (success, not failure).
    pub beta_tol: f64,
}

impl Default for LanczosOptions {
    fn default() -> Self {
        LanczosOptions {
            max_iter: 300,
            beta_tol: 1e-12,
        }
    }
}

/// Runs Lanczos on `a`, restricted to the orthogonal complement of
/// `deflate`, and returns the Ritz values in ascending order.
///
/// `deflate` vectors must be nonzero; they are orthonormalized internally.
/// The start vector is deterministic (alternating-sign ramp) so results are
/// reproducible without threading an RNG through metric computation.
///
/// Only the two extremes are meaningful: once a Ritz value has converged
/// the recurrence may produce further copies of it, so interior values can
/// repeat. The returned length is the number of steps taken, not a count
/// of distinct eigenvalues.
///
/// Returns an empty vector when the deflated space is empty.
pub fn lanczos_ritz_values(a: &SparseSym, deflate: &[Vec<f64>], opts: &LanczosOptions) -> Vec<f64> {
    let n = a.n();
    if n == 0 {
        return Vec::new();
    }
    // Orthonormalize the deflation set (modified Gram-Schmidt).
    let mut defl: Vec<Vec<f64>> = Vec::with_capacity(deflate.len());
    for v in deflate {
        assert_eq!(v.len(), n, "deflation vector length mismatch");
        let mut w = v.clone();
        for d in &defl {
            let proj = dot(&w, d);
            axpy(&mut w, -proj, d);
        }
        let norm = nrm2(&w);
        if norm > 1e-12 {
            scale(&mut w, 1.0 / norm);
            defl.push(w);
        }
    }
    let dim = n - defl.len();
    if dim == 0 {
        return Vec::new();
    }
    let m = opts.max_iter.min(dim);

    // Deterministic start vector, projected into the deflated subspace.
    let mut v: Vec<f64> = (0..n)
        .map(|i| {
            let x = (i + 1) as f64 / n as f64;
            if i % 2 == 0 {
                1.0 + x
            } else {
                -1.0 - 0.5 * x
            }
        })
        .collect();
    project_out(&mut v, &defl);
    let norm = nrm2(&v);
    assert!(
        norm > 1e-12,
        "start vector annihilated by deflation (graph too degenerate)"
    );
    scale(&mut v, 1.0 / norm);

    let mut alphas: Vec<f64> = Vec::with_capacity(m);
    let mut betas: Vec<f64> = Vec::with_capacity(m.saturating_sub(1));
    let mut v_prev = vec![0.0; n];
    let mut w = vec![0.0; n];

    for j in 0..m {
        // three-term recurrence: w = A·v_j − α_j·v_j − β_{j−1}·v_{j−1}
        a.matvec(&v, &mut w);
        let alpha = dot(&w, &v);
        alphas.push(alpha);
        axpy(&mut w, -alpha, &v);
        if let Some(&beta_prev) = betas.last() {
            axpy(&mut w, -beta_prev, &v_prev);
        }
        // rounding puts the kernel back every step: deflate again
        project_out(&mut w, &defl);
        // local second Gram–Schmidt pass against v_j, then v_{j−1}
        let proj = dot(&w, &v);
        axpy(&mut w, -proj, &v);
        if j > 0 {
            let proj = dot(&w, &v_prev);
            axpy(&mut w, -proj, &v_prev);
        }
        let beta = nrm2(&w);
        if j + 1 == m || beta < opts.beta_tol {
            break;
        }
        betas.push(beta);
        // v_{j−1} ← v_j, v_j ← w / β_j
        std::mem::swap(&mut v_prev, &mut v);
        let inv = 1.0 / beta;
        for (vi, wi) in v.iter_mut().zip(&w) {
            *vi = wi * inv;
        }
    }
    tridiag_eigenvalues(&alphas, &betas)
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[inline]
fn nrm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[inline]
fn scale(a: &mut [f64], s: f64) {
    for x in a {
        *x *= s;
    }
}

#[inline]
fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

fn project_out(v: &mut [f64], basis: &[Vec<f64>]) {
    for b in basis {
        let proj = dot(v, b);
        axpy(v, -proj, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{jacobi_eigenvalues, DenseSym};
    use dk_graph::builders;

    fn laplacian_pair(g: &dk_graph::Graph) -> (SparseSym, Vec<f64>) {
        let l = SparseSym::normalized_laplacian(g);
        let eig = jacobi_eigenvalues(&DenseSym::normalized_laplacian(g));
        (l, eig)
    }

    #[test]
    fn full_krylov_finds_all_distinct_eigenvalues() {
        // A single Krylov sequence can only see one copy of each distinct
        // eigenvalue; Petersen (strongly regular) has exactly 3 distinct
        // normalized-Laplacian eigenvalues {0, 2/3, 5/3}, so Lanczos must
        // break down after 3 steps having found precisely those.
        let g = builders::petersen();
        let (l, want) = laplacian_pair(&g);
        let ritz = lanczos_ritz_values(&l, &[], &LanczosOptions::default());
        let mut distinct: Vec<f64> = Vec::new();
        for w in want {
            if distinct.last().is_none_or(|d| (w - d).abs() > 1e-8) {
                distinct.push(w);
            }
        }
        assert_eq!(ritz.len(), distinct.len());
        for (r, w) in ritz.iter().zip(&distinct) {
            assert!((r - w).abs() < 1e-9, "ritz {ritz:?} want {distinct:?}");
        }
        // spot-check the known values
        assert!(ritz[0].abs() < 1e-9);
        assert!((ritz[1] - 2.0 / 3.0).abs() < 1e-9);
        assert!((ritz[2] - 5.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn deflation_removes_kernel() {
        let g = builders::karate_club();
        let (l, want) = laplacian_pair(&g);
        let v0: Vec<f64> = (0..g.node_count() as u32)
            .map(|u| (g.degree(u) as f64).sqrt())
            .collect();
        let ritz = lanczos_ritz_values(&l, &[v0], &LanczosOptions::default());
        // smallest Ritz value ≈ λ1 (the smallest NONZERO eigenvalue)
        let lambda1 = want[1];
        assert!(
            (ritz[0] - lambda1).abs() < 1e-8,
            "got {}, want {lambda1}",
            ritz[0]
        );
        // largest Ritz value ≈ λ_{n−1}
        let lmax = want.last().unwrap();
        assert!((ritz.last().unwrap() - lmax).abs() < 1e-8);
        // no Ritz value near zero survives deflation
        assert!(ritz[0] > 1e-6);
    }

    #[test]
    fn truncated_iteration_still_nails_extremes() {
        let g = builders::grid(12, 12); // n = 144
        let (l, want) = laplacian_pair(&g);
        let v0: Vec<f64> = (0..g.node_count() as u32)
            .map(|u| (g.degree(u) as f64).sqrt())
            .collect();
        let opts = LanczosOptions {
            max_iter: 70, // < n: genuinely truncated
            ..Default::default()
        };
        let ritz = lanczos_ritz_values(&l, &[v0], &opts);
        assert!((ritz[0] - want[1]).abs() < 1e-6);
        assert!((ritz.last().unwrap() - want.last().unwrap()).abs() < 1e-6);
    }

    #[test]
    fn empty_operator() {
        let l = SparseSym::from_rows(vec![]);
        assert!(lanczos_ritz_values(&l, &[], &LanczosOptions::default()).is_empty());
    }

    #[test]
    fn deflating_everything_yields_empty() {
        let g = builders::path(2);
        let l = SparseSym::normalized_laplacian(&g);
        let basis = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        assert!(lanczos_ritz_values(&l, &basis, &LanczosOptions::default()).is_empty());
    }

    #[test]
    fn duplicate_deflation_vectors_collapse() {
        let g = builders::path(3);
        let l = SparseSym::normalized_laplacian(&g);
        let v0: Vec<f64> = (0..3u32).map(|u| (g.degree(u) as f64).sqrt()).collect();
        // same vector twice: second must be dropped, leaving dim 2
        let ritz = lanczos_ritz_values(&l, &[v0.clone(), v0], &LanczosOptions::default());
        assert_eq!(ritz.len(), 2);
        // P3 spectrum is {0, 1, 2}; kernel deflated → {1, 2}
        assert!((ritz[0] - 1.0).abs() < 1e-9);
        assert!((ritz[1] - 2.0).abs() < 1e-9);
    }
}
