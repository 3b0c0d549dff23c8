//! Spectral equivalence suite: the production Lanczos solver (the plain
//! three-term recurrence, which stores no Krylov basis) must report the
//! same spectral extremes as the fully reorthogonalized iteration it
//! replaced.
//!
//! The oracle is that iteration, kept verbatim below: every new Lanczos
//! vector is re-projected against the deflation set and the whole stored
//! basis, twice. Both solvers start from the same deterministic vector
//! and deflate the same kernel vector `D^{1/2}·1`; only the two extremes
//! are compared, since the recurrence may repeat converged interior Ritz
//! values.
//!
//! The shapes cover the two regimes of the oracle:
//! - **Krylov-exhausted** (barbells, a balanced tree): the start vector
//!   spans a small invariant subspace, so the oracle breaks down within a
//!   few dozen steps while the recurrence keeps running on rounding
//!   noise;
//! - **generic** (grid, path, a BA tree): the oracle runs to `max_iter`.
//!
//! Above the dense cutoff the comparison goes through
//! [`spectral_extremes_with`], the entry point the metric suite uses,
//! with its clamps applied to both sides.

use dk_repro::core::generate::rewire::{randomize, RewireOptions, SwapBudget};
use dk_repro::graph::traversal::giant_component;
use dk_repro::graph::{builders, Graph, NodeId};
use dk_repro::linalg::lanczos::{lanczos_ritz_values, LanczosOptions};
use dk_repro::linalg::laplacian::{spectral_extremes_with, DENSE_CUTOFF};
use dk_repro::linalg::tridiag::tridiag_eigenvalues;
use dk_repro::linalg::SparseSym;
use dk_repro::topologies::ba::{barabasi_albert, BaParams};
use dk_repro::topologies::{skitter_like, AsLikeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest allowed |Δλ| between the solver and the oracle, per extreme.
const TOL: f64 = 3e-14;

/// The fully reorthogonalized Lanczos iteration (the production solver
/// before the three-term recurrence replaced it), verbatim.
fn oracle_ritz_values(a: &SparseSym, deflate: &[Vec<f64>], opts: &LanczosOptions) -> Vec<f64> {
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
    let mut q: Vec<Vec<f64>> = Vec::new();
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
    let mut w = vec![0.0; n];

    q.push(v);
    for j in 0..m {
        a.matvec(&q[j], &mut w);
        // subtract projections: deflation space + previous Lanczos vectors
        project_out(&mut w, &defl);
        let alpha = dot(&w, &q[j]);
        alphas.push(alpha);
        axpy(&mut w, -alpha, &q[j]);
        if j > 0 {
            let beta_prev = betas[j - 1];
            axpy(&mut w, -beta_prev, &q[j - 1]);
        }
        // full reorthogonalization (twice is enough — Kahan)
        for _ in 0..2 {
            project_out(&mut w, &defl);
            for qi in &q {
                let proj = dot(&w, qi);
                axpy(&mut w, -proj, qi);
            }
        }
        let beta = nrm2(&w);
        if j + 1 == m || beta < opts.beta_tol {
            break;
        }
        betas.push(beta);
        let mut next = w.clone();
        scale(&mut next, 1.0 / beta);
        q.push(next);
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

/// Two `K_k` cliques joined by a path of `l` extra nodes (the networkx
/// `barbell_graph(k, l)` shape): `2k + l` nodes.
fn barbell(k: usize, l: usize) -> Graph {
    let n = 2 * k + l;
    let mut g = Graph::with_nodes(n);
    for offset in [0, k + l] {
        for u in offset..offset + k {
            for v in u + 1..offset + k {
                g.add_edge(u as NodeId, v as NodeId).expect("clique edge");
            }
        }
    }
    // bridge path: last node of the left clique .. first of the right
    for u in k - 1..k + l {
        g.add_edge(u as NodeId, (u + 1) as NodeId)
            .expect("bridge edge");
    }
    g
}

/// Barabási–Albert graph with `m` edges per arriving node.
fn ba(nodes: usize, m: usize, seed: u64) -> Graph {
    barabasi_albert(
        &BaParams {
            nodes,
            edges_per_node: m,
            seed_nodes: m + 1,
        },
        &mut StdRng::seed_from_u64(seed),
    )
}

/// The Laplacian kernel vector `D^{1/2}·1` the production path deflates.
fn kernel(g: &Graph) -> Vec<f64> {
    (0..g.node_count() as NodeId)
        .map(|u| (g.degree(u) as f64).sqrt())
        .collect()
}

/// `(λ_min, λ_max)` of a Ritz set.
fn extremes(ritz: &[f64]) -> (f64, f64) {
    (ritz[0], *ritz.last().expect("nonempty Ritz set"))
}

/// Compares both extremes of [`lanczos_ritz_values`] against the oracle
/// at every budget in `iters` (budgets above the deflated dimension
/// `n − 1` are one run).
fn assert_matches_oracle(name: &str, g: &Graph, iters: &[usize]) {
    let l = SparseSym::normalized_laplacian(g);
    let v0 = [kernel(g)];
    let mut budgets: Vec<usize> = iters.iter().map(|&k| k.min(g.node_count() - 1)).collect();
    budgets.dedup();
    for max_iter in budgets {
        let opts = LanczosOptions {
            max_iter,
            ..Default::default()
        };
        let got = extremes(&lanczos_ritz_values(&l, &v0, &opts));
        let want = extremes(&oracle_ritz_values(&l, &v0, &opts));
        assert!(
            (got.0 - want.0).abs() <= TOL && (got.1 - want.1).abs() <= TOL,
            "{name} (n = {}), max_iter {max_iter}: got {got:?}, oracle {want:?}",
            g.node_count()
        );
    }
}

/// Compares [`spectral_extremes_with`] at `max_iter` against the oracle
/// under the same clamps.
fn assert_entry_matches_oracle(name: &str, g: &Graph, max_iter: usize) {
    assert!(
        g.node_count() > DENSE_CUTOFF,
        "{name} must take the sparse path"
    );
    let s = spectral_extremes_with(g, max_iter).expect("connected graph");
    let l = SparseSym::normalized_laplacian(g);
    let opts = LanczosOptions {
        max_iter,
        ..Default::default()
    };
    let (lo, hi) = extremes(&oracle_ritz_values(&l, &[kernel(g)], &opts));
    let want = (lo.max(0.0), hi.min(2.0));
    assert!(
        (s.lambda1 - want.0).abs() <= TOL && (s.lambda_max - want.1).abs() <= TOL,
        "{name}, max_iter {max_iter}: got ({}, {}), oracle {want:?}",
        s.lambda1,
        s.lambda_max
    );
}

/// Budgets of the tier-1 cases: truncated, the production default, and
/// the whole deflated space.
fn budgets(g: &Graph) -> [usize; 3] {
    [70, 300, g.node_count() - 1]
}

// Krylov-exhausted shapes: the oracle breaks down early on these; the
// recurrence keeps going and its ghosts must not move either extreme.

#[test]
fn barbell_150_3_matches_oracle() {
    let g = barbell(150, 3);
    assert_matches_oracle("barbell(150,3)", &g, &budgets(&g));
}

#[test]
fn barbell_120_10_matches_oracle() {
    let g = barbell(120, 10);
    assert_matches_oracle("barbell(120,10)", &g, &budgets(&g));
}

#[test]
fn barbell_200_20_matches_oracle() {
    let g = barbell(200, 20);
    assert_matches_oracle("barbell(200,20)", &g, &budgets(&g));
}

#[test]
fn balanced_tree_matches_oracle() {
    let g = builders::balanced_tree(3, 5);
    assert_matches_oracle("balanced_tree(3,5)", &g, &budgets(&g));
}

// Generic shapes: the oracle runs to `max_iter` (the full budget is in
// the release-only case below; the oracle's O(k²·n) basis sweeps make it
// slow in a debug build).

#[test]
fn grid_matches_oracle() {
    assert_matches_oracle("grid(20,20)", &builders::grid(20, 20), &[70, 300]);
}

#[test]
fn path_matches_oracle() {
    assert_matches_oracle("path(400)", &builders::path(400), &[70, 300]);
}

#[test]
fn ba_tree_matches_oracle() {
    assert_matches_oracle("ba(500, m = 1)", &ba(500, 1, 7), &[70, 300]);
}

#[test]
fn entry_point_matches_oracle_above_cutoff() {
    assert_entry_matches_oracle("barbell(300,20)", &barbell(300, 20), 300);
}

#[test]
fn closed_forms_above_cutoff() {
    // Both spectra are {0, 1, …, 1, 2}: λ1 = 1 and λ_{n−1} = 2 exactly.
    for (name, g) in [
        ("K(300,300)", builders::complete_bipartite(300, 300)),
        ("star(600)", builders::star(600)),
    ] {
        assert!(
            g.node_count() > DENSE_CUTOFF,
            "{name} must take the sparse path"
        );
        let s = spectral_extremes_with(&g, 300).expect("connected graph");
        assert!(
            (s.lambda1 - 1.0).abs() <= TOL && (s.lambda_max - 2.0).abs() <= TOL,
            "{name}: ({}, {}) vs (1, 2)",
            s.lambda1,
            s.lambda_max
        );
    }
}

/// The generic shapes at the full budget, and the paper-scale
/// skitter-like input (the `dk_series` original) with one 2K-rewired
/// twin. About 3 s in a release build; the oracle's O(k²·n) basis sweeps
/// make it far slower in a debug build.
#[test]
#[ignore = "release only: cargo test --release --test spectral_equivalence -- --ignored"]
fn paper_scale_inputs_match_oracle() {
    for (name, g) in [
        ("grid(20,20)", builders::grid(20, 20)),
        ("path(400)", builders::path(400)),
        ("ba(500, m = 1)", ba(500, 1, 7)),
    ] {
        assert_matches_oracle(name, &g, &[g.node_count() - 1]);
    }
    // the repository's canonical skitter-like input (master seed 20060911)
    let mut rng = StdRng::seed_from_u64(20060911 ^ 0xd15c_0b01);
    let original = skitter_like(&AsLikeParams::default(), &mut rng);
    assert_entry_matches_oracle("skitter-like", &original, 300);
    let mut twin = original.clone();
    let opts = RewireOptions {
        budget: SwapBudget::AttemptsPerEdge(10.0),
    };
    randomize(&mut twin, 2, &opts, &mut StdRng::seed_from_u64(1));
    let (gcc, _) = giant_component(&twin);
    assert_entry_matches_oracle("skitter-like, 2K-rewired", &gcc, 300);
}
