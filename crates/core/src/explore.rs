//! dK-space exploration (paper §4.3): constructing *non-random*
//! dK-graphs with extreme values of metrics defined by `P_{d+1}`.
//!
//! "To explore structural diversity among all dK-graphs, we must generate
//! dK-graphs that are not random. … accept a rewiring step only if it
//! maximizes or minimizes: 1) S2, or 2) C̄."
//!
//! * **1K-space** — 1K-preserving rewiring driving the likelihood
//!   `S = Σ_{edges} k_i·k_j` to its extremes (the Li et al. experiment
//!   the paper cites as motivating `d = 1`'s insufficiency);
//! * **2K-space** — 2K-preserving rewiring driving the second-order
//!   likelihood `S2` (wedge component) or the mean clustering `C̄`
//!   (triangle component) to their extremes;
//! * **custom** — any user objective, re-evaluated per candidate (slow
//!   but fully general).
//!
//! All exploration is greedy hill climbing, exactly as in the paper; the
//! returned extreme is a local optimum of the rewiring neighborhood.

use crate::generate::delta::{frozen_degrees, Delta3K};
use crate::generate::rewire::pick_2k_swap;
use dk_graph::Graph;
use dk_mcmc::{apply_swap, propose_swap, revert_swap, ProposalKind};
use rand::Rng;

/// Whether to drive the objective up or down.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Accept only increases.
    Maximize,
    /// Accept only decreases.
    Minimize,
}

impl Direction {
    fn improves(self, delta: f64) -> bool {
        match self {
            Direction::Maximize => delta > 0.0,
            Direction::Minimize => delta < 0.0,
        }
    }
}

/// Options for exploration runs.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOptions {
    /// Maximum attempted moves.
    pub max_attempts: u64,
    /// Stop after this many attempts without an accepted move.
    pub patience: Option<u64>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_attempts: 1_000_000,
            patience: Some(100_000),
        }
    }
}

/// Outcome of an exploration run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExploreStats {
    /// Moves attempted.
    pub attempts: u64,
    /// Moves accepted.
    pub accepted: u64,
    /// Objective before.
    pub initial_value: f64,
    /// Objective after.
    pub final_value: f64,
}

/// 1K-space exploration: drive `S` to an extreme with 1K-preserving
/// swaps. `ΔS` is O(1) per candidate (degrees are invariant).
pub fn explore_1k_likelihood<R: Rng + ?Sized>(
    g: &mut Graph,
    dir: Direction,
    opts: &ExploreOptions,
    rng: &mut R,
) -> ExploreStats {
    let mut value = g.likelihood_s();
    let mut stats = ExploreStats {
        attempts: 0,
        accepted: 0,
        initial_value: value,
        final_value: value,
    };
    if g.edge_count() < 2 {
        return stats;
    }
    let deg = frozen_degrees(g);
    let kd = |u: u32| deg[u as usize] as f64;
    let mut since = 0u64;
    for _ in 0..opts.max_attempts {
        if let Some(p) = opts.patience {
            if since >= p {
                break;
            }
        }
        stats.attempts += 1;
        since += 1;
        let Ok(swap) = propose_swap(g.edge_list(), ProposalKind::Plain, rng) else {
            continue;
        };
        let [(a, b), (c, d)] = swap.remove;
        let delta = kd(a) * kd(d) + kd(c) * kd(b) - kd(a) * kd(b) - kd(c) * kd(d);
        if !dir.improves(delta) {
            continue;
        }
        apply_swap(g, &swap);
        value += delta;
        stats.accepted += 1;
        since = 0;
    }
    stats.final_value = g.likelihood_s();
    debug_assert!((stats.final_value - value).abs() < 1e-6 * value.abs().max(1.0));
    stats
}

/// Which `P_3`-defined scalar a 2K-space exploration drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective2K {
    /// Second-order likelihood `S2` (wedge component).
    SecondOrderLikelihood,
    /// Mean clustering `C̄` (triangle component).
    MeanClustering,
}

/// 2K-space exploration: drive `S2` or `C̄` to an extreme with
/// 2K-preserving swaps, evaluating the objective change from the exact
/// wedge/triangle delta of each candidate.
pub fn explore_2k<R: Rng + ?Sized>(
    g: &mut Graph,
    objective: Objective2K,
    dir: Direction,
    opts: &ExploreOptions,
    rng: &mut R,
) -> ExploreStats {
    let initial = match objective {
        Objective2K::SecondOrderLikelihood => dk_metrics::likelihood::likelihood_s2(g),
        Objective2K::MeanClustering => dk_metrics::clustering::mean_clustering(g),
    };
    let mut stats = ExploreStats {
        attempts: 0,
        accepted: 0,
        initial_value: initial,
        final_value: initial,
    };
    if g.edge_count() < 2 {
        return stats;
    }
    let deg = frozen_degrees(g);
    // number of nodes with degree ≥ 2 — invariant under 2K moves; used to
    // convert triangle-weight deltas into mean-clustering deltas
    let n2 = deg.iter().filter(|&&k| k >= 2).count().max(1) as f64;
    let tri_weight = |a: u32, b: u32, c: u32| -> f64 {
        let w = |k: u32| {
            let k = k as f64;
            2.0 / (k * (k - 1.0))
        };
        w(a) + w(b) + w(c)
    };
    let mut delta = Delta3K::default();
    let mut since = 0u64;
    for _ in 0..opts.max_attempts {
        if let Some(p) = opts.patience {
            if since >= p {
                break;
            }
        }
        stats.attempts += 1;
        since += 1;
        let Some(swap) = pick_2k_swap(g.edge_list(), rng) else {
            continue;
        };
        delta.clear();
        delta.track_swap(g, &deg, swap.remove);
        // Applied before the verdict for the edge order: a rejection's
        // revert permutes the edge list, which the next pick reads.
        apply_swap(g, &swap);
        let obj_delta = match objective {
            Objective2K::SecondOrderLikelihood => delta
                .wedges
                .iter()
                .map(|(&(x, _, z), &dv)| (x as f64) * (z as f64) * dv as f64)
                .sum::<f64>(),
            Objective2K::MeanClustering => {
                delta
                    .triangles
                    .iter()
                    .map(|(&(x, y, z), &dv)| tri_weight(x, y, z) * dv as f64)
                    .sum::<f64>()
                    / n2
            }
        };
        if dir.improves(obj_delta) {
            stats.accepted += 1;
            since = 0;
        } else {
            revert_swap(g, &swap);
        }
    }
    stats.final_value = match objective {
        Objective2K::SecondOrderLikelihood => dk_metrics::likelihood::likelihood_s2(g),
        Objective2K::MeanClustering => dk_metrics::clustering::mean_clustering(g),
    };
    stats
}

/// Generic exploration with a user objective, under `d`-preserving moves
/// (`d ∈ {1, 2}`). The objective is re-evaluated on the whole graph per
/// candidate — O(cost(f)) per attempt; use the specialized explorers when
/// they apply.
pub fn explore_custom<R: Rng + ?Sized, F: Fn(&Graph) -> f64>(
    g: &mut Graph,
    d: u8,
    dir: Direction,
    objective: F,
    opts: &ExploreOptions,
    rng: &mut R,
) -> ExploreStats {
    assert!(d == 1 || d == 2, "custom exploration supports d ∈ {{1, 2}}");
    let mut value = objective(g);
    let mut stats = ExploreStats {
        attempts: 0,
        accepted: 0,
        initial_value: value,
        final_value: value,
    };
    if g.edge_count() < 2 {
        return stats;
    }
    let mut since = 0u64;
    for _ in 0..opts.max_attempts {
        if let Some(p) = opts.patience {
            if since >= p {
                break;
            }
        }
        stats.attempts += 1;
        since += 1;
        // candidate selection per level
        let swap = if d == 2 {
            pick_2k_swap(g.edge_list(), rng)
        } else {
            propose_swap(g.edge_list(), ProposalKind::Plain, rng).ok()
        };
        let Some(swap) = swap else { continue };
        apply_swap(g, &swap);
        let new_value = objective(g);
        if dir.improves(new_value - value) {
            value = new_value;
            stats.accepted += 1;
            since = 0;
        } else {
            revert_swap(g, &swap);
        }
    }
    stats.final_value = value;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Dist1K, Dist2K};
    use dk_graph::builders;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn opts() -> ExploreOptions {
        ExploreOptions {
            max_attempts: 60_000,
            patience: Some(15_000),
        }
    }

    #[test]
    fn s_exploration_preserves_1k_and_moves_s() {
        let original = builders::karate_club();
        let d1 = Dist1K::from_graph(&original);
        let mut rng = StdRng::seed_from_u64(1);

        let mut gmax = original.clone();
        let smax = explore_1k_likelihood(&mut gmax, Direction::Maximize, &opts(), &mut rng);
        assert!(smax.final_value > smax.initial_value);
        assert_eq!(Dist1K::from_graph(&gmax), d1);

        let mut gmin = original.clone();
        let smin = explore_1k_likelihood(&mut gmin, Direction::Minimize, &opts(), &mut rng);
        assert!(smin.final_value < smin.initial_value);
        assert_eq!(Dist1K::from_graph(&gmin), d1);

        // max-S graphs are more assortative than min-S graphs
        let rmax = dk_metrics::jdd::assortativity(&gmax);
        let rmin = dk_metrics::jdd::assortativity(&gmin);
        assert!(rmax > rmin, "r_max {rmax} vs r_min {rmin}");
    }

    #[test]
    fn clustering_exploration_preserves_2k() {
        let original = builders::karate_club();
        let d2 = Dist2K::from_graph(&original);
        let mut rng = StdRng::seed_from_u64(2);

        let mut gmax = original.clone();
        let cmax = explore_2k(
            &mut gmax,
            Objective2K::MeanClustering,
            Direction::Maximize,
            &opts(),
            &mut rng,
        );
        assert_eq!(Dist2K::from_graph(&gmax), d2, "2K must be preserved");
        assert!(
            cmax.final_value >= cmax.initial_value,
            "C̄ {} → {}",
            cmax.initial_value,
            cmax.final_value
        );

        let mut gmin = original.clone();
        let cmin = explore_2k(
            &mut gmin,
            Objective2K::MeanClustering,
            Direction::Minimize,
            &opts(),
            &mut rng,
        );
        assert_eq!(Dist2K::from_graph(&gmin), d2);
        assert!(cmin.final_value <= cmin.initial_value);
        assert!(
            cmax.final_value > cmin.final_value,
            "exploration must open a clustering gap: {} vs {}",
            cmax.final_value,
            cmin.final_value
        );
    }

    #[test]
    fn s2_exploration_moves_s2_and_preserves_2k() {
        let original = builders::karate_club();
        let d2 = Dist2K::from_graph(&original);
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = original.clone();
        let st = explore_2k(
            &mut g,
            Objective2K::SecondOrderLikelihood,
            Direction::Maximize,
            &opts(),
            &mut rng,
        );
        assert_eq!(Dist2K::from_graph(&g), d2);
        assert!(st.final_value >= st.initial_value);
        // incremental bookkeeping must agree with recomputation
        assert!((dk_metrics::likelihood::likelihood_s2(&g) - st.final_value).abs() < 1e-9);
    }

    #[test]
    fn custom_objective_triangle_count() {
        let original = builders::karate_club();
        let mut rng = StdRng::seed_from_u64(4);
        let mut g = original.clone();
        let st = explore_custom(
            &mut g,
            1,
            Direction::Minimize,
            |g| dk_metrics::clustering::triangle_count(g) as f64,
            &ExploreOptions {
                max_attempts: 3000,
                patience: Some(1500),
            },
            &mut rng,
        );
        assert!(st.final_value <= st.initial_value);
        assert_eq!(
            dk_metrics::clustering::triangle_count(&g) as f64,
            st.final_value
        );
        // degrees preserved by d = 1 moves
        assert_eq!(Dist1K::from_graph(&g), Dist1K::from_graph(&original));
    }

    #[test]
    #[should_panic(expected = "supports d")]
    fn custom_rejects_d3() {
        let mut g = builders::path(4);
        let mut rng = StdRng::seed_from_u64(5);
        explore_custom(
            &mut g,
            3,
            Direction::Maximize,
            |_| 0.0,
            &ExploreOptions::default(),
            &mut rng,
        );
    }

    #[test]
    fn tiny_graph_no_moves() {
        let mut g = builders::path(2);
        let mut rng = StdRng::seed_from_u64(6);
        let st = explore_1k_likelihood(&mut g, Direction::Maximize, &opts(), &mut rng);
        assert_eq!(st.accepted, 0);
    }
}
