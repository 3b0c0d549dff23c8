//! Census objectives driving the [`dk_mcmc`] chain.
//!
//! The engine (`dk-mcmc`) knows moves, validation, and acceptance; it
//! knows nothing about dK-distributions. These objectives supply the
//! census side of the contract: per validated proposal they report the
//! distance change `ΔD_d` to a target distribution, and fold the pending
//! delta into their running histograms only when the chain commits the
//! move. The chain runs on the graph's [`EdgeList`] alone, so each
//! objective keeps what its delta reads:
//!
//! * [`Objective2K`] keeps the current and the target JDD in one dense
//!   table over the graph's degree classes, and a swap's `ΔD_2` is four
//!   cell reads;
//! * [`Objective3K`] and [`Preserve3K`] keep sorted rows of their own
//!   ([`SortedRows`]) for the swap-level [`Delta3K`], and update them
//!   only when a move is committed.
//!
//! The 3K objectives still apply each evaluated move to the chain's edge
//! list ([`Evaluation::applied`]), although their delta does not need the
//! mutated list: a rejection then goes through [`dk_mcmc::revert_swap`],
//! which moves the two removed edges to the end of the edge list, and the
//! proposal sampler reads that order. Generated graphs are written in
//! that order, so the apply is part of their byte-identity
//! (`tests/mcmc_equivalence.rs` pins it with golden edge-order digests).

use crate::dist::{Degree, Dist2K, Dist3K};
use crate::generate::delta::Delta3K;
use dk_graph::{EdgeList, Graph, NodeId, SortedRows};
use dk_mcmc::{apply_swap, Evaluation, MoveProposal, SwapObjective};

/// One cell of [`Objective2K`]'s table: the current and the target edge
/// count of one canonical pair of degree classes.
#[derive(Clone, Copy, Debug, Default)]
struct Cell {
    cur: i64,
    tgt: i64,
}

/// 2K-targeting objective: minimizes
/// `D_2 = Σ (m_cur(k1,k2) − m_tgt(k1,k2))²` (the paper's §4.1.4 metric)
/// in O(1) per proposal.
///
/// The degrees are frozen along the chain, so its classes are the
/// distinct degrees of the graph's non-isolated nodes, `C` of them, and
/// every edge the chain can ever hold falls in one of their `C(C+1)/2`
/// canonical pairs. The table is indexed by the rank of each class and
/// holds both counts per pair; `Σ_k k·N_k = 2m` gives `C ≤ 2√m`, so the
/// table is O(m) at worst (the skitter-like input has 146 classes). A
/// target pair outside the table never gains an edge, so its `m_tgt²`
/// is a constant term of `D_2`.
///
/// A swap changes four cells by ±1; the pending delta holds those four
/// slots, with a cell named twice merged into its first slot.
///
/// **Exactness.** Every count is an integer, so every term of `D_2` and
/// every `ΔD_2` is one. With `M` the larger of the graph's and the
/// target's edge totals, each term and each partial sum is at most
/// `4M²`; while `4M² < 2⁵³` they are all exact in f64, and summing them
/// in any order gives the same bits. The targeting pipeline builds the
/// graph from the target's own degree sequence, so there `M = m` and the
/// bound reads `4m² < 2⁵³` (`m` below ≈ 4.7·10⁷ edges).
#[derive(Clone, Debug)]
pub struct Objective2K {
    /// The degree of each class, ascending.
    classes: Vec<Degree>,
    /// The class rank of each node; isolated nodes are never read.
    rank: Vec<u32>,
    /// Pair `(r, s)`, `r ≤ s`, sits at `row[r] + s`.
    row: Vec<usize>,
    cells: Vec<Cell>,
    d_cur: f64,
    /// `(cell, ΔJDD)` of the evaluated swap's two removed and two added
    /// edges.
    pending: [(usize, i64); 4],
    pending_dd: f64,
}

impl Objective2K {
    /// Tabulates the current JDD of `g` and the target once; every
    /// subsequent update is incremental. The chain it drives must run on
    /// `g`.
    pub fn new(g: &Graph, target: &Dist2K) -> Self {
        let deg = g.edge_list().degrees();
        let mut classes: Vec<Degree> = deg.iter().copied().filter(|&k| k > 0).collect();
        classes.sort_unstable();
        classes.dedup();
        let rank = deg
            .iter()
            .map(|k| classes.binary_search(k).map_or(0, |r| r as u32))
            .collect();
        let c = classes.len();
        let row = (0..c).map(|r| r * (2 * c - r - 1) / 2).collect();
        let mut obj = Objective2K {
            classes,
            rank,
            row,
            cells: vec![Cell::default(); c * (c + 1) / 2],
            d_cur: 0.0,
            pending: [(0, 0); 4],
            pending_dd: 0.0,
        };
        for &(u, v) in g.edges() {
            let i = obj.cell(u, v);
            obj.cells[i].cur += 1;
        }
        let mut outside = 0.0;
        for (&(k1, k2), &v) in &target.counts {
            let ranks = (
                obj.classes.binary_search(&k1),
                obj.classes.binary_search(&k2),
            );
            match ranks {
                (Ok(r), Ok(s)) if r <= s => obj.cells[obj.row[r] + s].tgt = v as i64,
                _ => outside += (v as f64).powi(2),
            }
        }
        let inside: f64 = obj
            .cells
            .iter()
            .map(|c| ((c.cur - c.tgt) as f64).powi(2))
            .sum();
        obj.d_cur = inside + outside;
        obj
    }

    /// The table cell of edge `(u, v)`.
    #[inline]
    fn cell(&self, u: NodeId, v: NodeId) -> usize {
        let (r, s) = (self.rank[u as usize], self.rank[v as usize]);
        let (r, s) = if r <= s { (r, s) } else { (s, r) };
        self.row[r as usize] + s as usize
    }

    /// The incrementally maintained `D_2`.
    pub fn current_distance(&self) -> f64 {
        self.d_cur
    }

    /// The incrementally maintained JDD (for equivalence harnesses).
    pub fn current_jdd(&self) -> Dist2K {
        let mut out = Dist2K::default();
        for (r, &k1) in self.classes.iter().enumerate() {
            for (s, &k2) in self.classes.iter().enumerate().skip(r) {
                let cur = self.cells[self.row[r] + s].cur;
                if cur > 0 {
                    out.counts.insert((k1, k2), cur as u64);
                }
            }
        }
        out
    }
}

impl SwapObjective for Objective2K {
    fn evaluate(&mut self, _g: &mut EdgeList, p: &MoveProposal) -> Evaluation {
        let [(a, b), (c, d)] = p.remove;
        self.pending = [
            (self.cell(a, b), -1),
            (self.cell(c, d), -1),
            (self.cell(a, d), 1),
            (self.cell(c, b), 1),
        ];
        for j in 1..4 {
            if let Some(i) = (0..j).find(|&i| self.pending[i].0 == self.pending[j].0) {
                self.pending[i].1 += self.pending[j].1;
                self.pending[j].1 = 0;
            }
        }
        let mut dd = 0.0;
        for &(i, dv) in &self.pending {
            if dv == 0 {
                continue;
            }
            let Cell { cur, tgt } = self.cells[i];
            let before = (cur - tgt) as f64;
            let after = (cur + dv - tgt) as f64;
            dd += after * after - before * before;
        }
        self.pending_dd = dd;
        Evaluation {
            delta_d: dd,
            applied: false,
        }
    }

    fn commit(&mut self) {
        for &(i, dv) in &self.pending {
            self.cells[i].cur += dv;
        }
        self.d_cur += self.pending_dd;
    }

    fn distance(&self) -> Option<f64> {
        Some(self.d_cur)
    }
}

/// Moves the committed swap into an objective's own rows.
fn commit_rows(rows: &mut SortedRows, [(a, b), (c, d)]: [(u32, u32); 2]) {
    rows.remove(a, b);
    rows.remove(c, d);
    rows.insert(a, d);
    rows.insert(c, b);
}

/// 3K-targeting objective: minimizes `D_3` (wedge + triangle squared
/// differences). `ΔD_3` comes from [`Delta3K::track_swap`] on the
/// objective's own pre-swap rows, which it updates on commit; evaluation
/// then applies the move to the chain's edge list
/// ([`Evaluation::applied`]) and the chain reverts it on rejection, which
/// keeps the edge-list order — and so every output — unchanged (see the
/// module doc).
#[derive(Clone, Debug)]
pub struct Objective3K {
    cur: Dist3K,
    tgt: Dist3K,
    d_cur: f64,
    rows: SortedRows,
    pending: Delta3K,
    pending_swap: [(u32, u32); 2],
    pending_dd: f64,
}

impl Objective3K {
    /// Extracts the current 3K census of `g` and copies its rows once;
    /// every subsequent update is incremental. The chain it drives must
    /// run on `g`.
    pub fn new(g: &Graph, target: &Dist3K) -> Self {
        let cur = Dist3K::from_graph(g);
        let d_cur = cur.distance_sq(target);
        Objective3K {
            cur,
            tgt: target.clone(),
            d_cur,
            rows: SortedRows::from_edges(g.edge_list()),
            pending: Delta3K::default(),
            pending_swap: [(0, 0); 2],
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
    fn evaluate(&mut self, g: &mut EdgeList, p: &MoveProposal) -> Evaluation {
        self.pending.clear();
        self.pending.track_swap(&self.rows, g.degrees(), p.remove);
        self.pending_swap = p.remove;
        // Applied only for the edge order: a rejection reverts through
        // `revert_swap`, which permutes the edge list, and the proposal
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
        commit_rows(&mut self.rows, self.pending_swap);
    }

    fn distance(&self) -> Option<f64> {
        Some(self.d_cur)
    }
}

/// 3K-*preserving* objective for `d = 3` randomizing runs: evaluates the
/// swap-level [`Delta3K`] of each (already 2K-preserving) proposal on its
/// own rows and reports `ΔD = 0` when the wedge/triangle histograms are
/// untouched, `+∞` otherwise — so a zero-temperature chain accepts
/// exactly the 3K-preserving moves and reverts the rest. Like
/// [`Objective3K`] it updates its rows on commit and applies every
/// evaluated move to the chain's edge list, for the edge-list order (see
/// the module doc).
#[derive(Clone, Debug)]
pub struct Preserve3K {
    rows: SortedRows,
    pending: Delta3K,
    pending_swap: [(u32, u32); 2],
}

impl Preserve3K {
    /// An objective for a chain over `edges`, with the rows built from
    /// it once.
    pub fn new(edges: &EdgeList) -> Self {
        Preserve3K {
            rows: SortedRows::from_edges(edges),
            pending: Delta3K::default(),
            pending_swap: [(0, 0); 2],
        }
    }
}

impl SwapObjective for Preserve3K {
    fn evaluate(&mut self, g: &mut EdgeList, p: &MoveProposal) -> Evaluation {
        self.pending.clear();
        self.pending.track_swap(&self.rows, g.degrees(), p.remove);
        self.pending_swap = p.remove;
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

    fn commit(&mut self) {
        commit_rows(&mut self.rows, self.pending_swap);
    }

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
        let mut preserve = Preserve3K::new(g0.edge_list());
        let mut chain = McmcChain::seeded(g0, 12, opts);
        let run = chain.run(&mut preserve, &RunBudget::steps(4000));
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
