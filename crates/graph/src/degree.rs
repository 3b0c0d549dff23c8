//! Degree-sequence utilities.
//!
//! Degree sequences are the lingua franca between the dK-distributions and
//! the construction algorithms: a 1K-distribution *is* a normalized degree
//! sequence, and both pseudograph and matching constructions start from
//! realized sequences. This module provides the sequence-level checks and
//! transforms they need.

use crate::csr::AdjacencyView;
use crate::error::GraphError;
use crate::graph::{Graph, NodeId};

/// Degree histogram: `hist[k]` = number of nodes of degree `k`
/// (`n(k)` in the paper's notation).
pub fn degree_histogram<V: AdjacencyView + ?Sized>(g: &V) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for u in 0..g.node_count() as NodeId {
        hist[g.degree(u)] += 1;
    }
    hist
}

/// `true` if the degree-sum is even — necessary for any multigraph
/// realization (handshake lemma).
pub fn has_even_sum(seq: &[usize]) -> bool {
    seq.iter().sum::<usize>() % 2 == 0
}

/// Erdős–Gallai test: is `seq` realizable as a **simple** graph?
///
/// The sequence need not be sorted. Runs in O(n log n).
pub fn is_graphical(seq: &[usize]) -> bool {
    if seq.is_empty() {
        return true;
    }
    if !has_even_sum(seq) {
        return false;
    }
    let n = seq.len();
    let mut d: Vec<usize> = seq.to_vec();
    d.sort_unstable_by(|a, b| b.cmp(a));
    if d[0] >= n {
        return false;
    }
    // prefix sums of the sorted sequence
    let mut prefix = vec![0usize; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + d[i];
    }
    for k in 1..=n {
        let lhs = prefix[k];
        // rhs = k(k-1) + Σ_{i>k} min(d_i, k)
        let mut rhs = k * (k - 1);
        for &di in &d[k..] {
            rhs += di.min(k);
        }
        if lhs > rhs {
            return false;
        }
    }
    true
}

/// Validates a degree sequence for simple-graph realization, with a
/// descriptive error.
pub fn check_graphical(seq: &[usize]) -> Result<(), GraphError> {
    if !has_even_sum(seq) {
        return Err(GraphError::NotGraphical(format!(
            "degree sum {} is odd",
            seq.iter().sum::<usize>()
        )));
    }
    if !is_graphical(seq) {
        return Err(GraphError::NotGraphical(
            "violates Erdős–Gallai inequalities".into(),
        ));
    }
    Ok(())
}

/// Havel–Hakimi realization: builds *a* simple graph with the given degree
/// sequence (deterministic, highly assortative — useful as a seed graph and
/// as an independent graphicality oracle in tests).
///
/// # Errors
/// [`GraphError::NotGraphical`] if the sequence is not graphical.
pub fn havel_hakimi(seq: &[usize]) -> Result<Graph, GraphError> {
    check_graphical(seq)?;
    let n = seq.len();
    let mut g = Graph::with_nodes(n);
    // (remaining degree, node id)
    let mut rem: Vec<(usize, u32)> = seq
        .iter()
        .enumerate()
        .map(|(i, &d)| (d, i as u32))
        .collect();
    while !rem.is_empty() {
        rem.sort_unstable_by(|a, b| b.cmp(a));
        let (d, u) = rem[0];
        if d == 0 {
            break;
        }
        if d >= rem.len() {
            // cannot happen for a graphical sequence, but keep the error
            // path instead of panicking on an internal inconsistency
            return Err(GraphError::NotGraphical("ran out of partners".into()));
        }
        for item in rem.iter_mut().take(d + 1).skip(1) {
            let (dv, v) = *item;
            if dv == 0 {
                return Err(GraphError::NotGraphical("exhausted partner degree".into()));
            }
            g.add_edge(u, v)
                .map_err(|e| GraphError::NotGraphical(format!("havel-hakimi collision: {e}")))?;
            item.0 = dv - 1;
        }
        rem[0].0 = 0;
    }
    Ok(g)
}

/// Empirical complementary CDF of a degree sequence:
/// `ccdf[i] = (#nodes with degree ≥ i-th distinct degree) / n`, returned as
/// `(degree, fraction)` pairs in ascending degree order. Used by power-law
/// diagnostics in `dk-topologies`.
pub fn degree_ccdf(g: &Graph) -> Vec<(usize, f64)> {
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let hist = degree_histogram(g);
    let mut out = Vec::new();
    let mut tail = n;
    for (k, &cnt) in hist.iter().enumerate() {
        if cnt > 0 {
            out.push((k, tail as f64 / n as f64));
        }
        tail -= cnt;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use proptest::prelude::*;

    #[test]
    fn histogram_of_star() {
        let g = builders::star(4);
        assert_eq!(degree_histogram(&g), vec![0, 4, 0, 0, 1]);
    }

    #[test]
    fn graphical_classics() {
        assert!(is_graphical(&[])); // empty
        assert!(is_graphical(&[0, 0])); // isolated nodes
        assert!(is_graphical(&[1, 1]));
        assert!(is_graphical(&[2, 2, 2]));
        assert!(is_graphical(&[3, 3, 3, 3]));
        assert!(!is_graphical(&[1])); // odd sum
        assert!(!is_graphical(&[3, 1])); // degree ≥ n
        assert!(!is_graphical(&[3, 3, 1, 1])); // fails Erdős–Gallai
        assert!(is_graphical(&[2, 2, 1, 1]));
    }

    #[test]
    fn check_graphical_errors() {
        assert!(matches!(
            check_graphical(&[1]),
            Err(GraphError::NotGraphical(_))
        ));
        assert!(matches!(
            check_graphical(&[3, 3, 1, 1]),
            Err(GraphError::NotGraphical(_))
        ));
        assert!(check_graphical(&[1, 1]).is_ok());
    }

    #[test]
    fn havel_hakimi_realizes_sequences() {
        for seq in [
            vec![1usize, 1],
            vec![2, 2, 2],
            vec![3, 3, 3, 3],
            vec![4, 3, 2, 2, 2, 1],
            vec![5, 5, 4, 4, 2, 2, 2, 2, 1, 1],
        ] {
            let g = havel_hakimi(&seq).unwrap();
            let mut got = g.degrees();
            let mut want = seq.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "sequence {seq:?}");
            g.check_invariants().unwrap();
        }
        assert!(havel_hakimi(&[3, 1]).is_err());
    }

    #[test]
    fn ccdf_monotone() {
        let g = builders::karate_club();
        let ccdf = degree_ccdf(&g);
        assert!((ccdf[0].1 - 1.0).abs() < 1e-12);
        for w in ccdf.windows(2) {
            assert!(w[0].1 >= w[1].1);
            assert!(w[0].0 < w[1].0);
        }
    }

    proptest! {
        /// Any sequence realized by Havel–Hakimi must pass is_graphical,
        /// and the degrees of any realized graph match the input.
        #[test]
        fn hh_agrees_with_erdos_gallai(seq in proptest::collection::vec(0usize..6, 0..12)) {
            let realized = havel_hakimi(&seq);
            prop_assert_eq!(realized.is_ok(), is_graphical(&seq));
            if let Ok(g) = realized {
                let mut got = g.degrees();
                let mut want = seq.clone();
                got.sort_unstable();
                want.sort_unstable();
                prop_assert_eq!(got, want);
            }
        }

        /// Degree histograms of arbitrary graphs sum to n.
        #[test]
        fn histogram_sums_to_n(edges in proptest::collection::vec((0u32..15, 0u32..15), 0..40)) {
            let g = crate::graph::Graph::from_edges_dedup(15, edges).unwrap();
            let hist = degree_histogram(&g);
            prop_assert_eq!(hist.iter().sum::<usize>(), 15);
        }
    }
}
