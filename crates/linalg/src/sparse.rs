//! Symmetric sparse matrices in CSR form.

use dk_graph::AdjacencyView;

/// A symmetric sparse matrix stored in CSR (compressed sparse row) layout.
///
/// Both triangles are stored explicitly — matvec is the only hot operation
/// and a full CSR keeps it branch-free and sequential.
#[derive(Clone, Debug)]
pub struct SparseSym {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl SparseSym {
    /// Builds a matrix from per-row `(column, value)` lists.
    ///
    /// Each row's columns must be in range and strictly ascending (which
    /// also makes them unique). Symmetry is the caller's responsibility
    /// (checked in debug builds).
    pub fn from_rows(rows: Vec<Vec<(u32, f64)>>) -> Self {
        let n = rows.len();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for row in &rows {
            assert!(
                row.windows(2).all(|p| p[0].0 < p[1].0),
                "row columns must be strictly ascending"
            );
            for &(c, v) in row {
                assert!((c as usize) < n, "column {c} out of range");
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Self::checked(n, row_ptr, col_idx, values)
    }

    /// Normalized Laplacian `L = I − D^{−1/2} A D^{−1/2}` of a graph.
    ///
    /// Isolated nodes produce an all-zero row (their diagonal is 0 by the
    /// convention `L_ii = deg_i > 0 ? 1 : 0`); in practice callers pass
    /// GCCs, where every degree is positive.
    ///
    /// Built straight into the CSR arrays: every row stores its diagonal
    /// plus one entry per neighbour, in ascending column order, so the
    /// matrix holds exactly `n + 2m` entries.
    pub fn normalized_laplacian<V: AdjacencyView + ?Sized>(g: &V) -> Self {
        let n = g.node_count();
        let inv_sqrt_deg: Vec<f64> = (0..n as u32)
            .map(|u| {
                let d = g.degree(u);
                if d == 0 {
                    0.0
                } else {
                    1.0 / (d as f64).sqrt()
                }
            })
            .collect();
        let nnz = n + g.edge_endpoints() as usize;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for u in 0..n as u32 {
            let neighbors = g.neighbors(u);
            let diag = if neighbors.is_empty() { 0.0 } else { 1.0 };
            let off_diag = |&v: &u32| (v, -inv_sqrt_deg[u as usize] * inv_sqrt_deg[v as usize]);
            // neighbour lists are sorted and loop-free: the diagonal goes
            // between the smaller and the larger neighbours
            let split = neighbors.partition_point(|&v| v < u);
            let row = (neighbors[..split].iter().map(off_diag))
                .chain([(u, diag)])
                .chain(neighbors[split..].iter().map(off_diag));
            for (c, v) in row {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        Self::checked(n, row_ptr, col_idx, values)
    }

    /// Bytes [`Self::normalized_laplacian`] holds for a graph with `n`
    /// nodes and `m` edges: `row_ptr` (`n + 1` words) plus a `u32` column
    /// and an `f64` value for each of the `n + 2m` entries.
    pub(crate) fn laplacian_bytes(n: usize, m: usize) -> u64 {
        let (n, m) = (n as u64, m as u64);
        let word = std::mem::size_of::<usize>() as u64;
        word * (n + 1) + 12 * (n + 2 * m)
    }

    fn checked(n: usize, row_ptr: Vec<usize>, col_idx: Vec<u32>, values: Vec<f64>) -> Self {
        let m = SparseSym {
            n,
            row_ptr,
            col_idx,
            values,
        };
        debug_assert!(m.is_symmetric(1e-12), "matrix must be symmetric");
        m
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `y = A·x`.
    ///
    /// # Panics
    /// Panics if `x` or `y` have the wrong length.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for (out, bounds) in y.iter_mut().zip(self.row_ptr.windows(2)) {
            let (lo, hi) = (bounds[0], bounds[1]);
            let mut acc = 0.0;
            for (&a, &c) in self.values[lo..hi].iter().zip(&self.col_idx[lo..hi]) {
                acc += a * x[c as usize];
            }
            *out = acc;
        }
    }

    /// Allocating matvec convenience.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.matvec(x, &mut y);
        y
    }

    /// Entry lookup, O(log row nnz) (rows are column-sorted). For tests
    /// and debugging.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let Ok(j) = u32::try_from(j) else {
            return 0.0;
        };
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Checks `|A_ij − A_ji| ≤ tol` for all stored entries.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for i in 0..self.n {
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let j = self.col_idx[k] as usize;
                if (self.values[k] - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::{builders, Graph};

    #[test]
    fn laplacian_of_single_edge() {
        let g = builders::path(2);
        let l = SparseSym::normalized_laplacian(&g);
        assert_eq!(l.n(), 2);
        assert_eq!(l.get(0, 0), 1.0);
        assert_eq!(l.get(1, 1), 1.0);
        assert!((l.get(0, 1) + 1.0).abs() < 1e-12);
        assert!(l.is_symmetric(1e-12));
    }

    #[test]
    fn laplacian_entries_match_paper_definition() {
        // Star S3: hub degree 3, leaves degree 1 → off-diag = -1/√3.
        let g = builders::star(3);
        let l = SparseSym::normalized_laplacian(&g);
        let expect = -1.0 / 3f64.sqrt();
        for leaf in 1..=3 {
            assert!((l.get(0, leaf) - expect).abs() < 1e-12);
            assert!((l.get(leaf, 0) - expect).abs() < 1e-12);
            assert_eq!(l.get(leaf, leaf), 1.0);
        }
        assert_eq!(l.get(1, 2), 0.0);
    }

    #[test]
    fn isolated_node_row_is_zero() {
        let mut g = builders::path(2);
        g.add_node();
        let l = SparseSym::normalized_laplacian(&g);
        assert_eq!(l.get(2, 2), 0.0);
        assert_eq!(l.get(2, 0), 0.0);
    }

    /// The row-list construction [`SparseSym::normalized_laplacian`] went
    /// through before it built the CSR arrays directly.
    fn laplacian_via_rows(g: &Graph) -> SparseSym {
        let n = g.node_count();
        let inv_sqrt_deg: Vec<f64> = (0..n as u32)
            .map(|u| {
                let d = g.degree(u);
                if d == 0 {
                    0.0
                } else {
                    1.0 / (d as f64).sqrt()
                }
            })
            .collect();
        let mut rows: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n);
        for u in 0..n as u32 {
            let deg = g.degree(u);
            let mut row = Vec::with_capacity(deg + 1);
            let mut pushed_diag = false;
            let diag = if deg > 0 { 1.0 } else { 0.0 };
            for &v in g.neighbors(u) {
                if !pushed_diag && v > u {
                    row.push((u, diag));
                    pushed_diag = true;
                }
                row.push((v, -inv_sqrt_deg[u as usize] * inv_sqrt_deg[v as usize]));
            }
            if !pushed_diag {
                row.push((u, diag));
            }
            rows.push(row);
        }
        SparseSym::from_rows(rows)
    }

    #[test]
    fn direct_laplacian_equals_row_list_build() {
        let mut g = builders::karate_club();
        g.add_node(); // isolated: a lone zero diagonal entry
        for g in [g, builders::star(5), builders::path(2)] {
            let want = laplacian_via_rows(&g);
            let got = SparseSym::normalized_laplacian(&g);
            assert_eq!(got.n, want.n);
            assert_eq!(got.row_ptr, want.row_ptr);
            assert_eq!(got.col_idx, want.col_idx);
            let bits = |m: &SparseSym| m.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn laplacian_bytes_is_the_exact_allocation() {
        let mut g = builders::karate_club();
        g.add_node();
        let l = SparseSym::normalized_laplacian(&g);
        let held = l.row_ptr.capacity() * std::mem::size_of::<usize>()
            + l.col_idx.capacity() * 4
            + l.values.capacity() * 8;
        assert_eq!(
            held as u64,
            SparseSym::laplacian_bytes(g.node_count(), g.edge_count())
        );
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_rows_rejects_unsorted_columns() {
        SparseSym::from_rows(vec![vec![(1, 0.5), (0, 1.0)], vec![(0, 0.5), (1, 1.0)]]);
    }

    #[test]
    fn matvec_against_dense_oracle() {
        let g = builders::karate_club();
        let l = SparseSym::normalized_laplacian(&g);
        let n = l.n();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y = l.apply(&x);
        // dense re-computation
        for (i, &yi) in y.iter().enumerate() {
            let mut acc = 0.0;
            for (j, &xj) in x.iter().enumerate() {
                acc += l.get(i, j) * xj;
            }
            assert!((acc - yi).abs() < 1e-10, "row {i}");
        }
    }

    #[test]
    fn null_vector_annihilated() {
        // L · D^{1/2}·1 = 0 on any graph with no isolated nodes.
        let g = builders::karate_club();
        let l = SparseSym::normalized_laplacian(&g);
        let v: Vec<f64> = (0..g.node_count() as u32)
            .map(|u| (g.degree(u) as f64).sqrt())
            .collect();
        let y = l.apply(&v);
        let norm: f64 = y.iter().map(|a| a * a).sum::<f64>().sqrt();
        assert!(norm < 1e-10, "residual {norm}");
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn matvec_checks_lengths() {
        let g = builders::path(3);
        let l = SparseSym::normalized_laplacian(&g);
        let x = vec![0.0; 2];
        let mut y = vec![0.0; 3];
        l.matvec(&x, &mut y);
    }
}
