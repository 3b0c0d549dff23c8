//! dK-randomizing rewiring (paper §4.1.4 and Figure 4).
//!
//! Rewire random (pairs of) edges while preserving the graph's
//! dK-distribution:
//!
//! * `d = 0` — move a random edge to a random unoccupied node pair
//!   (preserves `k̄` only);
//! * `d = 1` — swap the partners of two random edges
//!   (`{a,b},{c,d} → {a,d},{c,b}`; preserves every degree);
//! * `d = 2` — a 1K-swap restricted to orientations with matching
//!   endpoint degrees, which leaves the JDD intact (Figure 4's condition:
//!   "at least two nodes of equal degrees adjacent to the different
//!   edges");
//! * `d = 3` — a 2K-swap that additionally leaves the wedge and triangle
//!   histograms unchanged, verified exactly by the swap-level census
//!   delta ([`super::delta`]) with revert on violation.
//!
//! Every order runs on the graph's [`EdgeList`] — degrees, canonical
//! edges and their index, which is all a move reads — and the sorted
//! rows are rebuilt once at the end ([`randomize_edges`] is that entry;
//! [`randomize`] and [`randomize_with`] wrap it for a [`Graph`]). The
//! swap families (`d ≥ 1`) run on the [`dk_mcmc`] engine: explicit
//! [`MoveProposal`] records, O(1) edge-index presence checks, and — for
//! `d = 3` — the [`Preserve3K`] objective deciding acceptance from the
//! swap-level census delta on rows of its own. The `d = 0` relocation
//! loop keeps the degrees of its edge list current. External
//! [`RewireConstraint`]s plug in as the chain's veto filter, and see the
//! pre-move edge list.
//!
//! ## Convergence budget
//!
//! The paper performs `10 ×` (number of possible initial rewirings) steps
//! and then verifies stationarity. That recipe is quadratic in `m` for
//! `d ≥ 1` and infeasible at skitter scale for `d = 0`; Gkantsidis et
//! al. \[15\] show O(m) steps suffice in practice. The budget is
//! therefore counted in attempts — **50·m** by default
//! ([`SwapBudget::AttemptsPerEdge`]) or a fixed count
//! ([`SwapBudget::Attempts`]) — and [`verify_randomization`] implements
//! the paper's stationarity probe (rewire more, confirm metrics stay
//! put).

use crate::constraints::{NoConstraint, RewireConstraint};
use crate::generate::objective::Preserve3K;
use dk_graph::{EdgeList, Graph};
use dk_mcmc::{
    check_swap, ChainOptions, McmcChain, MoveProposal, NullObjective, ProposalKind, RunBudget,
};
use rand::Rng;

/// How many rewiring steps to attempt.
#[derive(Clone, Copy, Debug)]
pub enum SwapBudget {
    /// Fixed number of attempted moves.
    Attempts(u64),
    /// `factor × m` attempted moves (default policy).
    AttemptsPerEdge(f64),
}

impl Default for SwapBudget {
    fn default() -> Self {
        SwapBudget::AttemptsPerEdge(50.0)
    }
}

/// Options for [`randomize`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RewireOptions {
    /// Attempt budget.
    pub budget: SwapBudget,
}

/// Outcome counters of a rewiring run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RewireStats {
    /// Moves attempted.
    pub attempts: u64,
    /// Moves that passed validity (and preservation) checks and were
    /// applied.
    pub accepted: u64,
}

/// dK-randomizing rewiring in place, `d ∈ {0, 1, 2, 3}`.
///
/// # Panics
/// Panics if `d > 3` (the paper's and our implementations stop at 3).
pub fn randomize<R: Rng + ?Sized>(
    g: &mut Graph,
    d: u8,
    opts: &RewireOptions,
    rng: &mut R,
) -> RewireStats {
    randomize_with(g, d, opts, &NoConstraint, rng)
}

/// [`randomize`] with an external [`RewireConstraint`] (paper §6).
///
/// Runs [`randomize_edges`] on the edge list of `g` and rebuilds the
/// sorted rows once from the result.
///
/// # Panics
/// Panics if `d > 3`.
pub fn randomize_with<R: Rng + ?Sized, C: RewireConstraint + ?Sized>(
    g: &mut Graph,
    d: u8,
    opts: &RewireOptions,
    constraint: &C,
    rng: &mut R,
) -> RewireStats {
    let mut edges = std::mem::take(g).into_edge_list();
    let stats = randomize_edges(&mut edges, d, opts, constraint, rng);
    *g = Graph::from_edge_list(edges);
    stats
}

/// dK-randomizing rewiring of a graph's [`EdgeList`] in place, under an
/// external [`RewireConstraint`]: the entry point [`randomize_with`]
/// wraps, and the one `dk serve`'s `rewire` runs on a copy of a
/// snapshot's edge list.
///
/// `d ∈ {1, 2, 3}` runs on the [`dk_mcmc`] double-edge-swap chain
/// (neutral temperature: every valid, constraint-allowed, preserving
/// move is accepted), so each attempt costs O(1) presence lookups plus
/// — for `d = 3` only — the swap-level census delta, whose cost follows
/// the swapped edges' common neighbours (see [`super::delta`]). The `d = 0`
/// move is an edge *relocation*, not a swap, and keeps its dedicated
/// loop, which updates the degrees it moves.
///
/// # Panics
/// Panics if `d > 3` (the paper's and our implementations stop at 3).
pub fn randomize_edges<R: Rng + ?Sized, C: RewireConstraint + ?Sized>(
    edges: &mut EdgeList,
    d: u8,
    opts: &RewireOptions,
    constraint: &C,
    rng: &mut R,
) -> RewireStats {
    assert!(d <= 3, "dK-randomizing rewiring implemented for d ≤ 3");
    let attempts = resolve_budget(edges.edge_count(), opts.budget);
    let mut stats = RewireStats::default();
    if edges.edge_count() < 2 {
        return stats;
    }
    if d == 0 {
        for _ in 0..attempts {
            stats.attempts += 1;
            if try_move_0k(edges, constraint, rng) {
                stats.accepted += 1;
            }
        }
        return stats;
    }
    let chain_opts = ChainOptions {
        proposal: if d == 1 {
            ProposalKind::Plain
        } else {
            ProposalKind::JddPreserving
        },
        ..Default::default()
    };
    let veto = |e: &EdgeList, p: &MoveProposal| constraint.allows(e, &p.remove, &p.add);
    let preserve = (d == 3).then(|| Preserve3K::new(edges));
    let mut chain = McmcChain::from_edges(std::mem::take(edges), rng, chain_opts);
    let budget = RunBudget::steps(attempts);
    let run = match preserve {
        Some(mut obj) => chain.run_filtered(&mut obj, &budget, &veto),
        None => chain.run_filtered(&mut NullObjective, &budget, &veto),
    };
    *edges = chain.into_edges();
    RewireStats {
        attempts: run.attempts,
        accepted: run.accepted,
    }
}

fn resolve_budget(m: usize, budget: SwapBudget) -> u64 {
    match budget {
        SwapBudget::Attempts(n) => n,
        SwapBudget::AttemptsPerEdge(f) => (f * m as f64).ceil() as u64,
    }
}

/// 0K move: relocate one random edge to a random empty slot. The edge
/// list keeps the degrees current, so a constraint sees those of the
/// pre-move graph.
fn try_move_0k<R: Rng + ?Sized, C: RewireConstraint + ?Sized>(
    edges: &mut EdgeList,
    constraint: &C,
    rng: &mut R,
) -> bool {
    let m = edges.edge_count();
    if m == 0 {
        return false;
    }
    let (u, v) = edges.edge_at(rng.gen_range(0..m));
    let n = edges.node_count() as u32;
    let x = rng.gen_range(0..n);
    let y = rng.gen_range(0..n);
    // endpoints sampled from 0..n are valid by construction
    if x == y || edges.has_edge(x, y) {
        return false;
    }
    if !constraint.allows(edges, &[(u, v)], &[(x, y)]) {
        return false;
    }
    edges.remove_edge(u, v).expect("sampled edge exists");
    edges.add_edge(x, y).expect("checked empty slot");
    true
}

/// Draws two distinct random edges.
fn two_edges<R: Rng + ?Sized>(edges: &EdgeList, rng: &mut R) -> Option<((u32, u32), (u32, u32))> {
    let m = edges.edge_count();
    if m < 2 {
        return None;
    }
    let i = rng.gen_range(0..m);
    let j = rng.gen_range(0..m - 1);
    let j = if j >= i { j + 1 } else { j };
    Some((edges.edge_at(i), edges.edge_at(j)))
}

/// Selects two edges plus an orientation such that the swap passes
/// [`check_swap`] as a [`ProposalKind::JddPreserving`] move, trying the
/// other orientation as a fallback, and returns it as the move record the
/// caller applies and reverts. Returns `None` if the sampled pair admits
/// no such orientation (the attempt just fails).
///
/// Used by the exploration walks ([`crate::explore`]), which want the
/// higher hit rate of the fallback scan. The rewiring/targeting chains
/// instead propose a *single* uniform orientation through
/// [`dk_mcmc::propose_swap`], whose proposal probabilities are exactly
/// symmetric — the fallback would bias the MH proposal density. The
/// greedy walks never read the proposal probabilities, so the record
/// carries `1.0` for both.
pub(crate) fn pick_2k_swap<R: Rng + ?Sized>(edges: &EdgeList, rng: &mut R) -> Option<MoveProposal> {
    let (e1, e2) = two_edges(edges, rng)?;
    let (a, b) = e1;
    let mut orientations = [true, false];
    if rng.gen_bool(0.5) {
        orientations.swap(0, 1);
    }
    for orient in orientations {
        let (c, d) = if orient { e2 } else { (e2.1, e2.0) };
        if check_swap(edges, ProposalKind::JddPreserving, [(a, b), (c, d)]).is_ok() {
            return Some(MoveProposal {
                remove: [(a, b), (c, d)],
                add: [(a, d), (c, b)],
                forward_prob: 1.0,
                reverse_prob: 1.0,
            });
        }
    }
    None
}

/// Stationarity probe (paper §4.1.4): rewires a *copy* further and
/// reports the drift of cheap scalar metrics. Small drift ⇒ the original
/// randomization had converged.
#[derive(Clone, Copy, Debug)]
pub struct ConvergenceProbe {
    /// |Δ mean clustering|.
    pub clustering_drift: f64,
    /// |Δ assortativity|.
    pub assortativity_drift: f64,
    /// |Δ likelihood S| / max(1, S).
    pub likelihood_rel_drift: f64,
}

impl ConvergenceProbe {
    /// `true` if all drifts fall under the given tolerance.
    pub fn converged(&self, tol: f64) -> bool {
        self.clustering_drift < tol
            && self.assortativity_drift < tol
            && self.likelihood_rel_drift < tol
    }
}

/// Runs the paper's "keep rewiring and check nothing moves" verification.
pub fn verify_randomization<R: Rng + ?Sized>(
    g: &Graph,
    d: u8,
    opts: &RewireOptions,
    rng: &mut R,
) -> ConvergenceProbe {
    let mut probe = g.clone();
    let before_c = dk_metrics::clustering::mean_clustering(&probe);
    let before_r = dk_metrics::jdd::assortativity(&probe);
    let before_s = probe.likelihood_s();
    randomize(&mut probe, d, opts, rng);
    ConvergenceProbe {
        clustering_drift: (dk_metrics::clustering::mean_clustering(&probe) - before_c).abs(),
        assortativity_drift: (dk_metrics::jdd::assortativity(&probe) - before_r).abs(),
        likelihood_rel_drift: (probe.likelihood_s() - before_s).abs() / before_s.max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Dist0K, Dist1K, Dist2K, Dist3K};
    use dk_graph::builders;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn opts(attempts: u64) -> RewireOptions {
        RewireOptions {
            budget: SwapBudget::Attempts(attempts),
        }
    }

    #[test]
    fn d0_preserves_only_average_degree() {
        let mut g = builders::karate_club();
        let before = Dist0K::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(1);
        let stats = randomize(&mut g, 0, &opts(2000), &mut rng);
        assert!(stats.accepted > 500);
        g.check_invariants().unwrap();
        assert_eq!(Dist0K::from_graph(&g), before);
        // degrees should have been scrambled
        assert_ne!(
            Dist1K::from_graph(&g),
            Dist1K::from_graph(&builders::karate_club())
        );
    }

    #[test]
    fn d1_preserves_every_degree() {
        let mut g = builders::karate_club();
        let before_deg = g.degrees();
        let before_jdd = Dist2K::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(2);
        let stats = randomize(&mut g, 1, &opts(3000), &mut rng);
        assert!(stats.accepted > 500);
        g.check_invariants().unwrap();
        assert_eq!(g.degrees(), before_deg);
        // JDD generally changes under 1K randomization
        assert_ne!(Dist2K::from_graph(&g), before_jdd);
    }

    #[test]
    fn d2_preserves_jdd_exactly() {
        let mut g = builders::karate_club();
        let before = Dist2K::from_graph(&g);
        let before_3k = Dist3K::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(3);
        let stats = randomize(&mut g, 2, &opts(5000), &mut rng);
        assert!(stats.accepted > 300, "accepted {}", stats.accepted);
        g.check_invariants().unwrap();
        assert_eq!(Dist2K::from_graph(&g), before);
        // 3K generally changes under 2K randomization
        assert_ne!(Dist3K::from_graph(&g), before_3k);
    }

    #[test]
    fn d3_preserves_wedges_and_triangles_exactly() {
        let mut g = builders::karate_club();
        let before2 = Dist2K::from_graph(&g);
        let before3 = Dist3K::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(4);
        let stats = randomize(&mut g, 3, &opts(4000), &mut rng);
        g.check_invariants().unwrap();
        assert_eq!(Dist2K::from_graph(&g), before2);
        assert_eq!(Dist3K::from_graph(&g), before3);
        // 3K moves are rare but must exist on a graph this size
        assert!(stats.accepted > 0, "no accepted 3K moves");
    }

    #[test]
    fn d1_randomization_destroys_clustering() {
        // 1K-random graphs of a clustered graph lose most clustering —
        // the qualitative point of the paper's skitter Figure 6(c).
        let g0 = builders::karate_club();
        let c0 = dk_metrics::clustering::mean_clustering(&g0);
        let mut g = g0.clone();
        let mut rng = StdRng::seed_from_u64(5);
        randomize(&mut g, 1, &opts(5000), &mut rng);
        let c1 = dk_metrics::clustering::mean_clustering(&g);
        assert!(c1 < c0 * 0.8, "clustering {c0} → {c1} should drop");
    }

    #[test]
    fn budget_resolution() {
        let g = builders::karate_club();
        let m = g.edge_count();
        assert_eq!(resolve_budget(m, SwapBudget::Attempts(7)), 7);
        assert_eq!(resolve_budget(m, SwapBudget::AttemptsPerEdge(2.0)), 156);
    }

    #[test]
    fn constraint_blocks_moves() {
        use crate::constraints::PredicateConstraint;
        let mut g = builders::karate_club();
        let veto = PredicateConstraint(|_: &EdgeList, _: &[(u32, u32)], _: &[(u32, u32)]| false);
        let mut rng = StdRng::seed_from_u64(6);
        let stats = randomize_with(&mut g, 1, &opts(500), &veto, &mut rng);
        assert_eq!(stats.accepted, 0);
        assert_eq!(g, builders::karate_club());
    }

    #[test]
    fn tiny_graphs_no_panic() {
        let mut rng = StdRng::seed_from_u64(7);
        for d in 0..=3u8 {
            let mut g = builders::path(2);
            let stats = randomize(&mut g, d, &opts(50), &mut rng);
            assert_eq!(stats.accepted, 0, "d = {d}");
        }
    }

    #[test]
    fn convergence_probe_on_randomized_graph() {
        // After heavy randomization, more rewiring barely moves metrics —
        // but karate has only 34 nodes, so a *single* probe is noisy: over
        // 48 chain-owned seeds the per-probe |drift| measures mean ≈ 0.057
        // with σ ≈ 0.049 (clustering, the widest of the three components).
        // Averaging K = 16 probes shrinks the sampling error to
        // σ/√K ≈ 0.012, so the tolerance is set at
        // mean + 4·σ/√K ≈ 0.057 + 0.049 ≈ 0.105 — a drift beyond that is
        // slow mixing, not small-graph noise.
        const K: u64 = 16;
        let (mut c, mut r, mut s) = (0.0, 0.0, 0.0);
        for seed in 0..K {
            let mut g = builders::karate_club();
            let mut rng = StdRng::seed_from_u64(8 + seed);
            randomize(&mut g, 1, &opts(20_000), &mut rng);
            let probe = verify_randomization(&g, 1, &opts(20_000), &mut rng);
            c += probe.clustering_drift;
            r += probe.assortativity_drift;
            s += probe.likelihood_rel_drift;
        }
        let avg = ConvergenceProbe {
            clustering_drift: c / K as f64,
            assortativity_drift: r / K as f64,
            likelihood_rel_drift: s / K as f64,
        };
        assert!(
            avg.converged(0.105),
            "drift too large: {avg:?} (randomization not converged)"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = builders::karate_club();
        let mut b = builders::karate_club();
        randomize(&mut a, 2, &opts(1000), &mut StdRng::seed_from_u64(9));
        randomize(&mut b, 2, &opts(1000), &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
