//! dK-targeting d'K-preserving rewiring — "Metropolis dynamics"
//! (paper §4.1.4).
//!
//! Starting from any d'K-graph, rewire with d'K-preserving moves and
//! accept each move based on the change `ΔD_d` of the squared distance to
//! a *target* dK-distribution:
//!
//! * `ΔD < 0` — accept (closer to the target);
//! * `ΔD > 0` — accept with probability `e^(−ΔD/T)`; the temperature `T`
//!   interpolates between strict targeting (`T → 0`) and plain
//!   d'K-randomizing (`T → ∞`), the paper's simulated-annealing ergodicity
//!   device;
//! * `ΔD = 0` — accepted by default (plateau moves aid mixing; disable
//!   with [`TargetOptions::accept_neutral`] for the paper-literal strict
//!   descent).
//!
//! Two instances are provided, both on the [`dk_mcmc`] chain and matching
//! the paper's §5.1 pipeline: 2K-targeting 1K-preserving swaps
//! ([`target_2k_from_1k`]) and 3K-targeting 2K-preserving swaps
//! ([`target_3k_from_2k`]); plus the bootstrap helpers
//! [`generate_2k_random`] / [`generate_3k_random`] ("construct 1K-random
//! graphs with the pseudograph algorithm, then apply 2K-targeting
//! 1K-preserving rewiring…, then 3K-targeting 2K-preserving rewiring").
//! Targeting at `d ≤ 1` is pointless: the pseudograph and matching
//! constructions are already exact there.

use crate::dist::{Dist2K, Dist3K};
use crate::generate::objective::{Objective2K, Objective3K};
use crate::generate::{matching, pseudograph};
use dk_graph::{Graph, GraphError};
use dk_mcmc::{ChainOptions, McmcChain, ProposalKind, RunBudget, SwapObjective};
use rand::Rng;

/// Options for targeting rewiring.
#[derive(Clone, Copy, Debug)]
pub struct TargetOptions {
    /// Maximum attempted moves.
    pub max_attempts: u64,
    /// Metropolis temperature; `0.0` = strict descent (paper default).
    pub temperature: f64,
    /// Accept moves with `ΔD = 0` (plateau walks). Default `true`.
    pub accept_neutral: bool,
    /// Stop as soon as `D = 0` (exact target reached). Default `true`.
    pub stop_at_zero: bool,
    /// Give up after this many attempts without an accepted improving
    /// move (`None` = never).
    pub patience: Option<u64>,
}

impl Default for TargetOptions {
    fn default() -> Self {
        TargetOptions {
            max_attempts: 2_000_000,
            temperature: 0.0,
            accept_neutral: true,
            stop_at_zero: true,
            patience: Some(200_000),
        }
    }
}

/// Outcome of a targeting run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TargetStats {
    /// Moves attempted.
    pub attempts: u64,
    /// Moves accepted.
    pub accepted: u64,
    /// `D_d` before the run.
    pub initial_distance: f64,
    /// `D_d` after the run (0.0 = target reached exactly).
    pub final_distance: f64,
}

// ---------------------------------------------------------------------
// 2K-targeting 1K-preserving rewiring
// ---------------------------------------------------------------------

/// Maps [`TargetOptions`] onto the chain's acceptance knobs and budget.
fn chain_config(opts: &TargetOptions, proposal: ProposalKind) -> (ChainOptions, RunBudget) {
    (
        ChainOptions {
            temperature: opts.temperature,
            accept_neutral: opts.accept_neutral,
            proposal,
        },
        RunBudget {
            max_steps: opts.max_attempts,
            patience: opts.patience,
            stop_at_zero: opts.stop_at_zero,
        },
    )
}

/// Runs one targeting pass on the [`dk_mcmc`] chain: hand it the graph's
/// edge list, drive the objective to budget exhaustion (or target), put
/// the graph back with its rows rebuilt, and report [`TargetStats`].
fn run_targeting_chain<R: Rng + ?Sized, O: SwapObjective>(
    g: &mut Graph,
    obj: &mut O,
    opts: &TargetOptions,
    proposal: ProposalKind,
    rng: &mut R,
) -> TargetStats {
    let initial = obj.distance().unwrap_or(0.0);
    let mut stats = TargetStats {
        attempts: 0,
        accepted: 0,
        initial_distance: initial,
        final_distance: initial,
    };
    if g.edge_count() < 2 {
        return stats;
    }
    let (chain_opts, budget) = chain_config(opts, proposal);
    let mut chain = McmcChain::from_rng(std::mem::take(g), rng, chain_opts);
    let run = chain.run(obj, &budget);
    *g = chain.into_graph();
    stats.attempts = run.attempts;
    stats.accepted = run.accepted;
    stats.final_distance = obj.distance().unwrap_or(0.0);
    stats
}

/// Rewires `g` with 1K-preserving swaps toward a target JDD, minimizing
/// `D_2 = Σ (m_cur(k1,k2) − m_tgt(k1,k2))²` (the paper's §4.1.4 metric).
///
/// Runs on the [`dk_mcmc`] chain with the O(1)-per-move [`Objective2K`]
/// census delta — four cells of its dense table over the frozen degree
/// classes per proposal, no re-extraction.
pub fn target_2k_from_1k<R: Rng + ?Sized>(
    g: &mut Graph,
    target: &Dist2K,
    opts: &TargetOptions,
    rng: &mut R,
) -> TargetStats {
    let mut obj = Objective2K::new(g, target);
    let mut stats = run_targeting_chain(g, &mut obj, opts, ProposalKind::Plain, rng);
    stats.final_distance = Dist2K::from_graph(g).distance_sq(target);
    debug_assert!(
        (stats.final_distance - obj.current_distance()).abs() < 1e-6,
        "incremental D2 drifted: {} vs {}",
        obj.current_distance(),
        stats.final_distance
    );
    stats
}

// ---------------------------------------------------------------------
// 3K-targeting 2K-preserving rewiring
// ---------------------------------------------------------------------

/// Rewires `g` with 2K-preserving swaps toward a target 3K-distribution,
/// minimizing `D_3` (wedge + triangle squared differences).
///
/// Runs on the [`dk_mcmc`] chain with [`ProposalKind::JddPreserving`]
/// proposals and the swap-level [`Objective3K`] delta. The reported
/// `final_distance` is the objective's incrementally maintained `D_3`
/// (integer terms, exact in f64); debug builds cross-check it against a
/// full re-extraction.
pub fn target_3k_from_2k<R: Rng + ?Sized>(
    g: &mut Graph,
    target: &Dist3K,
    opts: &TargetOptions,
    rng: &mut R,
) -> TargetStats {
    let mut obj = Objective3K::new(g, target);
    let stats = run_targeting_chain(g, &mut obj, opts, ProposalKind::JddPreserving, rng);
    debug_assert!(
        (Dist3K::from_graph(g).distance_sq(target) - stats.final_distance).abs() < 1e-6,
        "incremental D3 {} drifted from the re-extraction",
        stats.final_distance
    );
    stats
}

// ---------------------------------------------------------------------
// §5.1 bootstrap pipelines
// ---------------------------------------------------------------------

/// Which construction seeds the targeting chain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Bootstrap {
    /// 1K matching (exact degrees, so `D_2 = 0` is reachable). Default.
    #[default]
    Matching,
    /// 1K pseudograph + cleanup (the paper's §5.1 literal choice; cleanup
    /// may perturb degrees slightly, bounding achievable `D_2`).
    Pseudograph,
}

/// Builds a 2K-random graph from a target JDD alone:
/// 1K bootstrap → 2K-targeting 1K-preserving rewiring (paper §5.1).
pub fn generate_2k_random<R: Rng + ?Sized>(
    target: &Dist2K,
    bootstrap: Bootstrap,
    opts: &TargetOptions,
    rng: &mut R,
) -> Result<(Graph, TargetStats), GraphError> {
    let d1 = target.to_1k()?;
    let mut g = match bootstrap {
        Bootstrap::Matching => matching::generate_1k(&d1, rng)?.graph,
        Bootstrap::Pseudograph => pseudograph::generate_1k(&d1, rng)?.graph,
    };
    let stats = target_2k_from_1k(&mut g, target, opts, rng);
    Ok((g, stats))
}

/// Builds a 3K-random graph from a target 3K-distribution alone:
/// 1K bootstrap → 2K-targeting → 3K-targeting (paper §5.1 chain).
pub fn generate_3k_random<R: Rng + ?Sized>(
    target: &Dist3K,
    bootstrap: Bootstrap,
    opts: &TargetOptions,
    rng: &mut R,
) -> Result<(Graph, TargetStats), GraphError> {
    let d2 = target.to_2k_checked()?;
    let (mut g, _) = generate_2k_random(&d2, bootstrap, opts, rng)?;
    let stats = target_3k_from_2k(&mut g, target, opts, rng);
    Ok((g, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_opts() -> TargetOptions {
        TargetOptions {
            max_attempts: 400_000,
            patience: Some(60_000),
            ..Default::default()
        }
    }

    #[test]
    fn targeting_2k_reaches_zero_from_matching_bootstrap() {
        let original = builders::karate_club();
        let target = Dist2K::from_graph(&original);
        let mut rng = StdRng::seed_from_u64(1);
        let (g, stats) =
            generate_2k_random(&target, Bootstrap::Matching, &quick_opts(), &mut rng).unwrap();
        assert_eq!(stats.final_distance, 0.0, "stats: {stats:?}");
        assert_eq!(Dist2K::from_graph(&g), target);
        g.check_invariants().unwrap();
    }

    #[test]
    fn targeting_monotone_distance() {
        let original = builders::karate_club();
        let target = Dist2K::from_graph(&original);
        let d1 = target.to_1k().unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = matching::generate_1k(&d1, &mut rng).unwrap().graph;
        let stats = target_2k_from_1k(&mut g, &target, &quick_opts(), &mut rng);
        assert!(stats.final_distance <= stats.initial_distance);
    }

    #[test]
    fn targeting_3k_reduces_d3_substantially() {
        let original = builders::karate_club();
        let target3 = Dist3K::from_graph(&original);
        let mut rng = StdRng::seed_from_u64(3);
        let (g, stats) =
            generate_3k_random(&target3, Bootstrap::Matching, &quick_opts(), &mut rng).unwrap();
        assert!(
            stats.final_distance < stats.initial_distance * 0.25,
            "D3 {} → {}",
            stats.initial_distance,
            stats.final_distance
        );
        // 2K stays exact through the 3K stage (moves are 2K-preserving)
        assert_eq!(Dist2K::from_graph(&g), Dist2K::from_graph(&original));
    }

    #[test]
    fn temperature_infinity_behaves_like_randomizing() {
        // With huge T every candidate is accepted: distance can grow.
        let original = builders::karate_club();
        let target = Dist2K::from_graph(&original);
        let mut g = original.clone();
        let mut rng = StdRng::seed_from_u64(5);
        let opts = TargetOptions {
            max_attempts: 3000,
            temperature: 1e12,
            stop_at_zero: false,
            patience: None,
            ..Default::default()
        };
        let stats = target_2k_from_1k(&mut g, &target, &opts, &mut rng);
        // Every *valid* candidate is accepted at huge T; validity itself
        // fails for many random pairs, so compare against a cold run.
        let mut g_cold = original.clone();
        let mut rng2 = StdRng::seed_from_u64(5);
        let cold = target_2k_from_1k(
            &mut g_cold,
            &target,
            &TargetOptions {
                max_attempts: 3000,
                temperature: 0.0,
                accept_neutral: false,
                stop_at_zero: false,
                patience: None,
            },
            &mut rng2,
        );
        assert!(
            stats.accepted > 10 * cold.accepted.max(1),
            "hot run ({}) must accept far more than cold ({})",
            stats.accepted,
            cold.accepted
        );
        assert!(stats.final_distance > 0.0, "JDD should drift at T = ∞");
    }

    #[test]
    fn strict_descent_never_increases() {
        let original = builders::karate_club();
        let target = Dist2K::from_graph(&original);
        let d1 = target.to_1k().unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut g = matching::generate_1k(&d1, &mut rng).unwrap().graph;
        let opts = TargetOptions {
            accept_neutral: false,
            max_attempts: 50_000,
            patience: Some(20_000),
            ..Default::default()
        };
        let d_before = Dist2K::from_graph(&g).distance_sq(&target);
        let stats = target_2k_from_1k(&mut g, &target, &opts, &mut rng);
        assert!(stats.final_distance <= d_before);
    }
}
