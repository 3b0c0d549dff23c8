//! Degree distribution `P(k)` — the paper's 1K-distribution viewed as a
//! metric.

use dk_graph::AdjacencyView;

/// Empirical degree distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeDistribution {
    /// `counts[k]` = number of nodes with degree `k` (`n(k)`).
    pub counts: Vec<usize>,
    /// Total number of nodes.
    pub nodes: usize,
}

impl DegreeDistribution {
    /// Extracts `P(k)` from a graph.
    pub fn from_graph<V: AdjacencyView + ?Sized>(g: &V) -> Self {
        DegreeDistribution {
            counts: dk_graph::degree::degree_histogram(g),
            nodes: g.node_count(),
        }
    }

    /// `P(k) = n(k)/n`; 0.0 outside the observed range.
    pub fn pk(&self, k: usize) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        self.counts.get(k).copied().unwrap_or(0) as f64 / self.nodes as f64
    }

    /// Average degree `k̄ = Σ k·P(k)`.
    pub fn mean(&self) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        let sum: usize = self.counts.iter().enumerate().map(|(k, &c)| k * c).sum();
        sum as f64 / self.nodes as f64
    }

    /// Second moment `⟨k²⟩`.
    pub fn second_moment(&self) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        let sum: usize = self
            .counts
            .iter()
            .enumerate()
            .map(|(k, &c)| k * k * c)
            .sum();
        sum as f64 / self.nodes as f64
    }

    /// Maximum observed degree.
    pub fn max_degree(&self) -> usize {
        self.counts.len().saturating_sub(1)
    }

    /// Shannon entropy `H[P(k)] = −Σ P(k)·log P(k)` (natural log).
    ///
    /// Used by the maximum-entropy tests of Table 1: among distributions
    /// with fixed mean on a finite support, the binomial maximizes entropy.
    pub fn entropy(&self) -> f64 {
        let n = self.nodes as f64;
        self.counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.ln()
            })
            .sum()
    }

    /// Total-variation distance to another degree distribution:
    /// `½ Σ_k |P(k) − Q(k)|` ∈ [0, 1].
    pub fn tv_distance(&self, other: &DegreeDistribution) -> f64 {
        let kmax = self.counts.len().max(other.counts.len());
        let mut acc = 0.0;
        for k in 0..kmax {
            acc += (self.pk(k) - other.pk(k)).abs();
        }
        acc / 2.0
    }
}

/// Poisson pmf `e^{−λ} λ^k / k!`, the paper's closed form for the
/// 1K-distribution of 0K-random (Erdős–Rényi) graphs (Table 1).
pub fn poisson_pmf(lambda: f64, k: usize) -> f64 {
    if lambda <= 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    // compute in log space to dodge overflow for large k
    let mut log_p = -lambda + k as f64 * lambda.ln();
    for i in 1..=k {
        log_p -= (i as f64).ln();
    }
    log_p.exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::{builders, Graph};

    #[test]
    fn star_distribution() {
        let g = builders::star(5);
        let d = DegreeDistribution::from_graph(&g);
        assert_eq!(d.pk(1), 5.0 / 6.0);
        assert_eq!(d.pk(5), 1.0 / 6.0);
        assert_eq!(d.pk(3), 0.0);
        assert_eq!(d.pk(99), 0.0);
        assert!((d.mean() - 10.0 / 6.0).abs() < 1e-12);
        assert_eq!(d.max_degree(), 5);
    }

    #[test]
    fn regular_graph_entropy_zero() {
        let g = builders::cycle(8);
        let d = DegreeDistribution::from_graph(&g);
        assert!(d.entropy().abs() < 1e-12); // single-point distribution
    }

    #[test]
    fn second_moment_of_star() {
        let g = builders::star(4); // degrees: 4, 1,1,1,1
        let d = DegreeDistribution::from_graph(&g);
        assert!((d.second_moment() - (16.0 + 4.0) / 5.0).abs() < 1e-12);
    }

    #[test]
    fn tv_distance_properties() {
        let a = DegreeDistribution::from_graph(&builders::cycle(6));
        let b = DegreeDistribution::from_graph(&builders::path(6));
        assert_eq!(a.tv_distance(&a), 0.0);
        let d = a.tv_distance(&b);
        assert!(d > 0.0 && d <= 1.0);
        assert!((a.tv_distance(&b) - b.tv_distance(&a)).abs() < 1e-15);
    }

    #[test]
    fn empty_graph_degenerates_gracefully() {
        let d = DegreeDistribution::from_graph(&Graph::new());
        assert_eq!(d.mean(), 0.0);
        assert_eq!(d.pk(0), 0.0);
        assert_eq!(d.entropy(), 0.0);
    }

    #[test]
    fn poisson_pmf_sums_to_one() {
        let lambda = 3.7;
        let total: f64 = (0..200).map(|k| poisson_pmf(lambda, k)).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // mode near λ
        assert!(poisson_pmf(lambda, 3) > poisson_pmf(lambda, 10));
        // degenerate λ = 0
        assert_eq!(poisson_pmf(0.0, 0), 1.0);
        assert_eq!(poisson_pmf(0.0, 3), 0.0);
    }
}
