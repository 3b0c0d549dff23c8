//! Dense symmetric matrices and the cyclic Jacobi eigensolver.
//!
//! Jacobi is slow (O(n³) per sweep) but unconditionally robust and simple
//! to verify — exactly the property we want in the *oracle* eigensolver
//! that the Lanczos path is validated against. It is also the production
//! path for small graphs (n ≤ 512), where its cost is negligible.

use dk_graph::AdjacencyView;

/// Dense symmetric matrix (row-major, full storage).
#[derive(Clone, Debug)]
pub struct DenseSym {
    n: usize,
    a: Vec<f64>,
}

impl DenseSym {
    /// Zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        DenseSym {
            n,
            a: vec![0.0; n * n],
        }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.a[i * self.n + j]
    }

    /// Symmetric entry setter (writes both `(i,j)` and `(j,i)`).
    #[inline]
    pub fn set_sym(&mut self, i: usize, j: usize, v: f64) {
        self.a[i * self.n + j] = v;
        self.a[j * self.n + i] = v;
    }

    /// Normalized Laplacian of `g` as a dense matrix.
    pub fn normalized_laplacian<V: AdjacencyView + ?Sized>(g: &V) -> Self {
        let n = g.node_count();
        let mut m = DenseSym::zeros(n);
        for u in 0..n as u32 {
            if g.degree(u) > 0 {
                m.set_sym(u as usize, u as usize, 1.0);
            }
            for &v in g.neighbors(u).iter().filter(|&&v| v > u) {
                let w = -1.0 / ((g.degree(u) as f64) * (g.degree(v) as f64)).sqrt();
                m.set_sym(u as usize, v as usize, w);
            }
        }
        m
    }

    /// Sum of squares of off-diagonal entries (Jacobi convergence measure).
    fn off_diag_sq(&self) -> f64 {
        let mut s = 0.0;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    s += self.get(i, j).powi(2);
                }
            }
        }
        s
    }
}

/// All eigenvalues of a dense symmetric matrix via cyclic Jacobi rotations,
/// returned in ascending order.
///
/// Accuracy: off-diagonal Frobenius norm reduced below `1e-12 · n`; for the
/// well-conditioned Laplacians used here this yields ≥ 10 correct digits.
pub fn jacobi_eigenvalues(m: &DenseSym) -> Vec<f64> {
    let n = m.n();
    if n == 0 {
        return Vec::new();
    }
    let mut a = m.clone();
    let tol = 1e-24 * n as f64 * n as f64;
    // Classical bound: O(log precision) sweeps; 100 is far beyond need but
    // guards against pathological stalls (we assert convergence below).
    for _sweep in 0..100 {
        if a.off_diag_sq() <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q);
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                let theta = (aqq - app) / (2.0 * apq);
                // stable tangent of the rotation angle
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // apply rotation G(p, q, θ) on both sides
                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set_sym(k, p, c * akp - s * akq);
                    a.set_sym(k, q, s * akp + c * akq);
                }
                // fix the 2x2 block (the loop above clobbered it)
                let new_pp = c * c * app - 2.0 * s * c * apq + s * s * aqq;
                let new_qq = s * s * app + 2.0 * s * c * apq + c * c * aqq;
                a.set_sym(p, p, new_pp);
                a.set_sym(q, q, new_qq);
                a.set_sym(p, q, 0.0);
            }
        }
    }
    debug_assert!(
        a.off_diag_sq() <= tol * 1e6,
        "jacobi failed to converge: off = {}",
        a.off_diag_sq()
    );
    let mut eig: Vec<f64> = (0..n).map(|i| a.get(i, i)).collect();
    eig.sort_by(|x, y| x.partial_cmp(y).expect("eigenvalues are finite"));
    eig
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;

    fn assert_close(got: &[f64], want: &[f64], tol: f64) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < tol, "got {got:?}, want {want:?}");
        }
    }

    #[test]
    fn identity_eigenvalues() {
        let mut m = DenseSym::zeros(4);
        for i in 0..4 {
            m.set_sym(i, i, 1.0);
        }
        assert_close(&jacobi_eigenvalues(&m), &[1.0; 4], 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2, 1], [1, 2]] → eigenvalues 1, 3
        let mut m = DenseSym::zeros(2);
        m.set_sym(0, 0, 2.0);
        m.set_sym(1, 1, 2.0);
        m.set_sym(0, 1, 1.0);
        assert_close(&jacobi_eigenvalues(&m), &[1.0, 3.0], 1e-12);
    }

    #[test]
    fn complete_graph_spectrum() {
        // K_n normalized Laplacian: {0, n/(n−1) × (n−1)}
        for n in [3usize, 5, 8] {
            let g = builders::complete(n);
            let eig = jacobi_eigenvalues(&DenseSym::normalized_laplacian(&g));
            let mut want = vec![n as f64 / (n as f64 - 1.0); n - 1];
            want.insert(0, 0.0);
            assert_close(&eig, &want, 1e-10);
        }
    }

    #[test]
    fn path_graph_spectrum() {
        // P_n normalized Laplacian: 1 − cos(πk/(n−1)), k = 0..n−1
        let n = 6;
        let g = builders::path(n);
        let eig = jacobi_eigenvalues(&DenseSym::normalized_laplacian(&g));
        let mut want: Vec<f64> = (0..n)
            .map(|k| 1.0 - (std::f64::consts::PI * k as f64 / (n as f64 - 1.0)).cos())
            .collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_close(&eig, &want, 1e-10);
    }

    #[test]
    fn cycle_graph_spectrum() {
        // C_n: 1 − cos(2πk/n)
        let n = 7;
        let g = builders::cycle(n);
        let eig = jacobi_eigenvalues(&DenseSym::normalized_laplacian(&g));
        let mut want: Vec<f64> = (0..n)
            .map(|k| 1.0 - (2.0 * std::f64::consts::PI * k as f64 / n as f64).cos())
            .collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_close(&eig, &want, 1e-10);
    }

    #[test]
    fn star_graph_spectrum() {
        // S_k: {0, 1 × (k−1), 2}
        let k = 6;
        let g = builders::star(k);
        let eig = jacobi_eigenvalues(&DenseSym::normalized_laplacian(&g));
        let mut want = vec![1.0; k - 1];
        want.insert(0, 0.0);
        want.push(2.0);
        assert_close(&eig, &want, 1e-10);
    }

    #[test]
    fn bipartite_largest_is_two() {
        let g = builders::complete_bipartite(3, 4);
        let eig = jacobi_eigenvalues(&DenseSym::normalized_laplacian(&g));
        assert!((eig[0]).abs() < 1e-10);
        assert!((eig.last().unwrap() - 2.0).abs() < 1e-10);
    }

    #[test]
    fn eigenvalues_in_unit_interval_of_two() {
        let g = builders::karate_club();
        let eig = jacobi_eigenvalues(&DenseSym::normalized_laplacian(&g));
        assert!(eig.iter().all(|&x| (-1e-10..=2.0 + 1e-10).contains(&x)));
        // connected → exactly one (near-)zero eigenvalue
        assert!(eig[0].abs() < 1e-10);
        assert!(eig[1] > 1e-6);
    }

    #[test]
    fn disconnected_graph_has_multiple_zeros() {
        let g = dk_graph::Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let eig = jacobi_eigenvalues(&DenseSym::normalized_laplacian(&g));
        assert!(eig[0].abs() < 1e-10);
        assert!(eig[1].abs() < 1e-10);
        assert!(eig[2] > 1e-6);
    }

    #[test]
    fn empty_matrix() {
        assert!(jacobi_eigenvalues(&DenseSym::zeros(0)).is_empty());
    }
}
