//! Census objectives driving the [`dk_mcmc`] chain.
//!
//! The engine (`dk-mcmc`) knows moves, validation, and acceptance; it
//! knows nothing about dK-distributions. These objectives supply the
//! census side of the contract: per validated proposal they report the
//! distance change `ΔD_d` to a target distribution — via the O(1)
//! [`Delta2K`] for JDD targets, or the swap-level [`Delta3K`] (read off
//! the pre-swap graph) for wedge/triangle targets — and fold the pending
//! delta into their running histograms only when the chain commits the
//! move.
//!
//! The 3K objectives still apply each evaluated move
//! ([`Evaluation::applied`]), although their delta does not need the
//! mutated graph: a rejection then goes through [`dk_mcmc::revert_swap`],
//! which moves the two removed edges to the end of `Graph::edges`, and
//! the proposal sampler reads that order. Generated graphs are written in
//! that order, so the apply is part of their byte-identity
//! (`tests/mcmc_equivalence.rs` pins it with golden edge-order digests).

use crate::dist::{Degree, Dist2K, Dist3K};
use crate::generate::delta::{Delta2K, Delta3K};
use dk_graph::hashers::{det_hash_map, DetHashMap};
use dk_graph::Graph;
use dk_mcmc::{apply_swap, Evaluation, MoveProposal, SwapObjective};

/// 2K-targeting objective: minimizes
/// `D_2 = Σ (m_cur(k1,k2) − m_tgt(k1,k2))²` (the paper's §4.1.4 metric)
/// with four O(1) histogram bumps per proposal.
#[derive(Clone, Debug)]
pub struct Objective2K {
    cur: DetHashMap<(Degree, Degree), i64>,
    tgt: DetHashMap<(Degree, Degree), i64>,
    d_cur: f64,
    pending: Delta2K,
    pending_dd: f64,
}

impl Objective2K {
    /// Extracts the current JDD of `g` once; every subsequent update is
    /// incremental.
    pub fn new(g: &Graph, target: &Dist2K) -> Self {
        let mut cur: DetHashMap<(Degree, Degree), i64> = det_hash_map();
        for (&k, &v) in &Dist2K::from_graph(g).counts {
            cur.insert(k, v as i64);
        }
        let tgt: DetHashMap<(Degree, Degree), i64> =
            target.counts.iter().map(|(&k, &v)| (k, v as i64)).collect();
        let mut d_cur = 0.0;
        for (k, &a) in &cur {
            let b = tgt.get(k).copied().unwrap_or(0);
            d_cur += ((a - b) as f64).powi(2);
        }
        for (k, &b) in &tgt {
            if !cur.contains_key(k) {
                d_cur += (b as f64).powi(2);
            }
        }
        Objective2K {
            cur,
            tgt,
            d_cur,
            pending: Delta2K::default(),
            pending_dd: 0.0,
        }
    }

    /// The incrementally maintained `D_2`.
    pub fn current_distance(&self) -> f64 {
        self.d_cur
    }

    /// The incrementally maintained JDD (for equivalence harnesses).
    pub fn current_jdd(&self) -> Dist2K {
        let mut out = Dist2K::default();
        for (&k, &v) in &self.cur {
            if v > 0 {
                out.counts.insert(k, v as u64);
            }
        }
        out
    }
}

impl SwapObjective for Objective2K {
    fn evaluate(&mut self, _g: &mut Graph, deg: &[u32], p: &MoveProposal) -> Evaluation {
        self.pending.clear();
        self.pending.track_swap(deg, &p.remove, &p.add);
        let mut dd = 0.0;
        for (key, &dv) in &self.pending.counts {
            if dv == 0 {
                continue;
            }
            let c0 = self.cur.get(key).copied().unwrap_or(0);
            let t0 = self.tgt.get(key).copied().unwrap_or(0);
            let before = (c0 - t0) as f64;
            let after = (c0 + dv - t0) as f64;
            dd += after * after - before * before;
        }
        self.pending_dd = dd;
        Evaluation {
            delta_d: dd,
            applied: false,
        }
    }

    fn commit(&mut self) {
        for (key, &dv) in &self.pending.counts {
            if dv != 0 {
                *self.cur.entry(*key).or_insert(0) += dv;
            }
        }
        self.d_cur += self.pending_dd;
    }

    fn distance(&self) -> Option<f64> {
        Some(self.d_cur)
    }
}

/// 3K-targeting objective: minimizes `D_3` (wedge + triangle squared
/// differences). `ΔD_3` comes from [`Delta3K::track_swap`] on the
/// pre-swap graph; evaluation then applies the move
/// ([`Evaluation::applied`]) and the chain reverts it on rejection, which
/// keeps the edge-list order — and so every output — unchanged (see the
/// module doc).
#[derive(Clone, Debug)]
pub struct Objective3K {
    cur: Dist3K,
    tgt: Dist3K,
    d_cur: f64,
    pending: Delta3K,
    pending_dd: f64,
}

impl Objective3K {
    /// Extracts the current 3K census of `g` once; every subsequent
    /// update is incremental.
    pub fn new(g: &Graph, target: &Dist3K) -> Self {
        let cur = Dist3K::from_graph(g);
        let d_cur = cur.distance_sq(target);
        Objective3K {
            cur,
            tgt: target.clone(),
            d_cur,
            pending: Delta3K::default(),
            pending_dd: 0.0,
        }
    }

    /// The incrementally maintained `D_3`.
    pub fn current_distance(&self) -> f64 {
        self.d_cur
    }

    /// The incrementally maintained 3K census (for equivalence
    /// harnesses).
    pub fn current_census(&self) -> &Dist3K {
        &self.cur
    }
}

impl SwapObjective for Objective3K {
    fn evaluate(&mut self, g: &mut Graph, deg: &[u32], p: &MoveProposal) -> Evaluation {
        self.pending.clear();
        self.pending.track_swap(g, deg, p.remove);
        // Applied only for the edge order: a rejection reverts through
        // `revert_swap`, which permutes `Graph::edges`, and the proposal
        // sampler reads that order.
        apply_swap(g, p);
        let mut dd = 0.0;
        for (key, &dv) in &self.pending.wedges {
            if dv == 0 {
                continue;
            }
            let c0 = self.cur.wedges.get(key).copied().unwrap_or(0) as i64;
            let t0 = self.tgt.wedges.get(key).copied().unwrap_or(0) as i64;
            let before = (c0 - t0) as f64;
            let after = (c0 + dv - t0) as f64;
            dd += after * after - before * before;
        }
        for (key, &dv) in &self.pending.triangles {
            if dv == 0 {
                continue;
            }
            let c0 = self.cur.triangles.get(key).copied().unwrap_or(0) as i64;
            let t0 = self.tgt.triangles.get(key).copied().unwrap_or(0) as i64;
            let before = (c0 - t0) as f64;
            let after = (c0 + dv - t0) as f64;
            dd += after * after - before * before;
        }
        self.pending_dd = dd;
        Evaluation {
            delta_d: dd,
            applied: true,
        }
    }

    fn commit(&mut self) {
        self.pending.apply_to(&mut self.cur);
        self.d_cur += self.pending_dd;
    }

    fn distance(&self) -> Option<f64> {
        Some(self.d_cur)
    }
}

/// 3K-*preserving* objective for `d = 3` randomizing runs: evaluates the
/// swap-level [`Delta3K`] of each (already 2K-preserving) proposal and
/// reports `ΔD = 0` when the wedge/triangle histograms are untouched,
/// `+∞` otherwise — so a zero-temperature chain accepts exactly the
/// 3K-preserving moves and reverts the rest. Like [`Objective3K`] it
/// applies every evaluated move, for the edge-list order (see the module
/// doc).
#[derive(Clone, Debug, Default)]
pub struct Preserve3K {
    pending: Delta3K,
}

impl SwapObjective for Preserve3K {
    fn evaluate(&mut self, g: &mut Graph, deg: &[u32], p: &MoveProposal) -> Evaluation {
        self.pending.clear();
        self.pending.track_swap(g, deg, p.remove);
        // applied only for the edge order, as in `Objective3K::evaluate`
        apply_swap(g, p);
        Evaluation {
            delta_d: if self.pending.is_zero() {
                0.0
            } else {
                f64::INFINITY
            },
            applied: true,
        }
    }

    fn commit(&mut self) {}

    fn distance(&self) -> Option<f64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::delta::frozen_degrees;
    use dk_graph::builders;
    use dk_mcmc::{ChainOptions, McmcChain, ProposalKind, RunBudget};

    #[test]
    fn objective2k_distance_matches_full_extraction() {
        let g = builders::karate_club();
        let target = Dist2K::from_graph(&builders::petersen());
        let obj = Objective2K::new(&g, &target);
        assert_eq!(
            obj.current_distance(),
            Dist2K::from_graph(&g).distance_sq(&target)
        );
        assert_eq!(obj.current_jdd(), Dist2K::from_graph(&g));
    }

    #[test]
    fn objective2k_tracks_chain_moves() {
        let g0 = builders::karate_club();
        let target = Dist2K::from_graph(&g0);
        // start from a degree-preserving scramble so D2 > 0
        let mut chain = McmcChain::seeded(g0, 9, ChainOptions::default());
        chain.run(&mut dk_mcmc::NullObjective, &RunBudget::steps(5000));
        let scrambled = chain.into_graph();

        let mut obj = Objective2K::new(&scrambled, &target);
        let mut chain = McmcChain::seeded(scrambled, 10, ChainOptions::default());
        chain.run(&mut obj, &RunBudget::steps(20_000));
        let g = chain.into_graph();
        assert_eq!(obj.current_jdd(), Dist2K::from_graph(&g));
        let exact = Dist2K::from_graph(&g).distance_sq(&target);
        assert!(
            (obj.current_distance() - exact).abs() < 1e-6,
            "incremental D2 drifted: {} vs {exact}",
            obj.current_distance()
        );
    }

    #[test]
    fn objective3k_tracks_chain_moves() {
        let g0 = builders::karate_club();
        let target = Dist3K::from_graph(&builders::petersen());
        let mut obj = Objective3K::new(&g0, &target);
        let opts = ChainOptions {
            proposal: ProposalKind::JddPreserving,
            ..Default::default()
        };
        let mut chain = McmcChain::seeded(g0, 11, opts);
        let run = chain.run(&mut obj, &RunBudget::steps(5000));
        assert!(run.accepted > 0);
        let g = chain.into_graph();
        assert_eq!(obj.current_census(), &Dist3K::from_graph(&g));
        let exact = Dist3K::from_graph(&g).distance_sq(&target);
        assert!(
            (obj.current_distance() - exact).abs() < 1e-6,
            "incremental D3 drifted: {} vs {exact}",
            obj.current_distance()
        );
    }

    #[test]
    fn preserve3k_keeps_census_byte_identical() {
        let g0 = builders::karate_club();
        let before = Dist3K::from_graph(&g0);
        let opts = ChainOptions {
            proposal: ProposalKind::JddPreserving,
            ..Default::default()
        };
        let mut chain = McmcChain::seeded(g0, 12, opts);
        let run = chain.run(&mut Preserve3K::default(), &RunBudget::steps(4000));
        assert!(run.accepted > 0, "no accepted 3K-preserving moves");
        assert!(run.rejected_metropolis > 0, "every move preserved 3K?");
        let g = chain.into_graph();
        assert_eq!(Dist3K::from_graph(&g), before);
    }

    #[test]
    fn frozen_degrees_match_chain_assumption() {
        let g = builders::karate_club();
        let deg = frozen_degrees(&g);
        assert_eq!(deg.len(), g.node_count());
    }
}
