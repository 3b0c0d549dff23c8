//! The seeded, resumable chain: propose a validated record →
//! Metropolis–Hastings accept/reject → delta commit, with acceptance
//! statistics and a convergence probe on the objective's distance.

use crate::proposal::{apply_swap, propose_swap, revert_swap, MoveProposal, ProposalKind};
use dk_graph::{EdgeList, Graph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What an objective reports about one validated proposal.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Evaluation {
    /// Change `ΔD` of the objective's distance if the move is applied.
    pub delta_d: f64,
    /// `true` if evaluation tentatively applied the move to the chain's
    /// edge list. The chain reverts it on rejection and skips its own
    /// apply on acceptance. The revert moves the two removed edges to the
    /// end of the edge list, which later proposals read, so an objective
    /// whose outputs are pinned to that edge order (the 3K objectives in
    /// `dk_core::generate::objective`) applies every move it evaluates,
    /// although its delta reads only its own rows.
    pub applied: bool,
}

/// A census objective driving the chain: evaluates the distance change
/// of each validated proposal, and folds the resulting delta into its
/// bookkeeping only when the chain accepts.
///
/// Contract: the chain calls `evaluate` once per validated proposal,
/// then `commit` if it accepts the move (the edge list is then in the
/// post-move state). A rejected move gets no call: the chain restores
/// the edge list, and the next `evaluate` overwrites the pending delta.
/// The chain runs on an [`EdgeList`] alone, so an objective that reads
/// neighbours keeps rows of its own and updates them in `commit`.
/// `distance` reports the current distance to the target, if the
/// objective has one; the chain records it into its [`DistanceTrace`]
/// after every accepted move and uses it for
/// [`RunBudget::stop_at_zero`].
pub trait SwapObjective {
    /// Evaluates `ΔD` for a validated proposal. May tentatively mutate
    /// `g` (see [`Evaluation::applied`]); must not mutate its own
    /// accepted-state bookkeeping until `commit`. The degrees of `g` are
    /// the frozen degrees of the chain.
    fn evaluate(&mut self, g: &mut EdgeList, p: &MoveProposal) -> Evaluation;
    /// The chain accepted the evaluated move: fold the pending delta in.
    fn commit(&mut self);
    /// Current distance to the target (`None` for unconstrained
    /// randomizing objectives).
    fn distance(&self) -> Option<f64>;
}

/// The unconstrained objective: every valid move is neutral (`ΔD = 0`).
/// Drives plain dK-randomizing runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObjective;

impl SwapObjective for NullObjective {
    fn evaluate(&mut self, _g: &mut EdgeList, _p: &MoveProposal) -> Evaluation {
        Evaluation {
            delta_d: 0.0,
            applied: false,
        }
    }
    fn commit(&mut self) {}
    fn distance(&self) -> Option<f64> {
        None
    }
}

/// Chain configuration.
#[derive(Clone, Copy, Debug)]
pub struct ChainOptions {
    /// Metropolis temperature; `0.0` = strict descent (paper default).
    pub temperature: f64,
    /// Accept `ΔD = 0` moves (plateau walks aid mixing). Default `true`.
    pub accept_neutral: bool,
    /// Which swaps the sampler proposes.
    pub proposal: ProposalKind,
}

impl Default for ChainOptions {
    fn default() -> Self {
        ChainOptions {
            temperature: 0.0,
            accept_neutral: true,
            proposal: ProposalKind::Plain,
        }
    }
}

/// Step budget of one [`McmcChain::run`] call.
#[derive(Clone, Copy, Debug)]
pub struct RunBudget {
    /// Maximum attempted steps.
    pub max_steps: u64,
    /// Give up after this many attempts without an accepted improving
    /// move (`None` = never).
    pub patience: Option<u64>,
    /// Stop as soon as the objective reports distance `0.0`.
    pub stop_at_zero: bool,
}

impl RunBudget {
    /// A plain fixed-step budget (no patience, no early stop) — the
    /// randomizing-run shape.
    pub fn steps(max_steps: u64) -> Self {
        RunBudget {
            max_steps,
            patience: None,
            stop_at_zero: false,
        }
    }
}

/// Attempt/acceptance counters, with rejections broken down by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Steps attempted.
    pub attempts: u64,
    /// Moves accepted and applied.
    pub accepted: u64,
    /// Proposals that failed structural validation (self-loop, parallel
    /// edge, degree-class mismatch, …).
    pub rejected_invalid: u64,
    /// Valid proposals vetoed by the caller's filter (external
    /// constraints, paper §6).
    pub rejected_vetoed: u64,
    /// Valid proposals turned down by Metropolis–Hastings.
    pub rejected_metropolis: u64,
}

impl ChainStats {
    fn since(&self, earlier: &ChainStats) -> ChainStats {
        ChainStats {
            attempts: self.attempts - earlier.attempts,
            accepted: self.accepted - earlier.accepted,
            rejected_invalid: self.rejected_invalid - earlier.rejected_invalid,
            rejected_vetoed: self.rejected_vetoed - earlier.rejected_vetoed,
            rejected_metropolis: self.rejected_metropolis - earlier.rejected_metropolis,
        }
    }
}

/// Convergence probe on the objective's distance: a sliding window over
/// the distances recorded after each accepted move. The chain has
/// converged (mixed to its plateau) when a full window shows no relative
/// improvement beyond a tolerance.
#[derive(Clone, Debug)]
pub struct DistanceTrace {
    window: std::collections::VecDeque<f64>,
    cap: usize,
    recorded: u64,
}

impl DistanceTrace {
    /// Window length of the probe.
    pub const DEFAULT_WINDOW: usize = 1024;

    fn new(cap: usize) -> Self {
        DistanceTrace {
            window: std::collections::VecDeque::with_capacity(cap),
            cap,
            recorded: 0,
        }
    }

    fn record(&mut self, d: f64) {
        if self.window.len() == self.cap {
            self.window.pop_front();
        }
        self.window.push_back(d);
        self.recorded += 1;
    }

    /// Total distances recorded (one per accepted move with a distance).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Most recently recorded distance.
    pub fn last(&self) -> Option<f64> {
        self.window.back().copied()
    }

    /// Relative improvement across the window, `(first − last)/first`;
    /// `None` until the window is full. A converged (or stalled) chain
    /// reports ≈ 0; distance 0 reports 0.
    pub fn relative_improvement(&self) -> Option<f64> {
        if self.window.len() < self.cap {
            return None;
        }
        let first = *self.window.front().expect("window is full");
        let last = *self.window.back().expect("window is full");
        if first == 0.0 {
            return Some(0.0);
        }
        Some((first - last) / first)
    }

    /// `true` once a full window shows relative improvement below `tol`.
    pub fn converged(&self, tol: f64) -> bool {
        self.relative_improvement()
            .is_some_and(|imp| imp.abs() < tol)
    }
}

/// Metropolis–Hastings acceptance on a distance change, including the
/// proposal ratio `q_rev/q_fwd` at positive temperature. At `T = 0` the
/// chain is in strict-descent (plus optional plateau) mode and the ratio
/// is irrelevant — there is no stationary distribution to keep honest.
fn metropolis<R: Rng + ?Sized>(delta: f64, ratio: f64, opts: &ChainOptions, rng: &mut R) -> bool {
    if opts.temperature > 0.0 {
        let p = ((-delta / opts.temperature).exp() * ratio).min(1.0);
        if p >= 1.0 {
            true
        } else {
            rng.gen_bool(p.max(0.0))
        }
    } else if delta < 0.0 {
        true
    } else if delta == 0.0 {
        opts.accept_neutral
    } else {
        false
    }
}

/// A seeded, resumable double-edge-swap chain over one graph.
///
/// The chain owns the graph's [`EdgeList`] — what its proposals read: the
/// canonical edges, their index and the degrees (every move it makes is
/// degree-preserving, so the degrees never go stale) — plus its RNG
/// stream, cumulative [`ChainStats`], and a [`DistanceTrace`] fed by the
/// driving objective. A graph handed in drops its sorted rows, and
/// [`McmcChain::into_graph`] rebuilds them once. Runs compose: `run(k)`
/// then `run(m)` is byte-identical to `run(k + m)`.
#[derive(Clone, Debug)]
pub struct McmcChain<R> {
    edges: EdgeList,
    rng: R,
    opts: ChainOptions,
    stats: ChainStats,
    trace: DistanceTrace,
}

impl McmcChain<StdRng> {
    /// A chain owning a fresh RNG stream derived from `seed`.
    pub fn seeded(graph: Graph, seed: u64, opts: ChainOptions) -> Self {
        McmcChain::from_rng(graph, StdRng::seed_from_u64(seed), opts)
    }
}

impl<R: Rng> McmcChain<R> {
    /// A chain over `graph` drawing from the given RNG (used by callers
    /// that thread one stream through a bootstrap + targeting pipeline).
    pub fn from_rng(graph: Graph, rng: R, opts: ChainOptions) -> Self {
        McmcChain::from_edges(graph.into_edge_list(), rng, opts)
    }

    /// A chain over the graph of `edges`, drawing from the given RNG.
    pub fn from_edges(edges: EdgeList, rng: R, opts: ChainOptions) -> Self {
        McmcChain {
            edges,
            rng,
            opts,
            stats: ChainStats::default(),
            trace: DistanceTrace::new(DistanceTrace::DEFAULT_WINDOW),
        }
    }

    /// Cumulative statistics over the chain's whole lifetime.
    pub fn stats(&self) -> ChainStats {
        self.stats
    }

    /// The convergence probe over the objective's distance.
    pub fn trace(&self) -> &DistanceTrace {
        &self.trace
    }

    /// `true` once the distance trace shows a full window of relative
    /// improvement below `tol`.
    pub fn converged(&self, tol: f64) -> bool {
        self.trace.converged(tol)
    }

    /// Consumes the chain, returning the final graph with its rows
    /// rebuilt from the edge list.
    pub fn into_graph(self) -> Graph {
        Graph::from_edge_list(self.edges)
    }

    /// Consumes the chain, returning the final edge list.
    pub fn into_edges(self) -> EdgeList {
        self.edges
    }

    /// Attempts one move, letting `veto` reject valid candidates before
    /// evaluation (external rewiring constraints, paper §6). Returns the
    /// objective change `ΔD` of the accepted move, or `None` when no move
    /// was applied.
    fn step<O, F>(&mut self, obj: &mut O, veto: &F) -> Option<f64>
    where
        O: SwapObjective,
        F: Fn(&EdgeList, &MoveProposal) -> bool,
    {
        self.stats.attempts += 1;
        let Ok(p) = propose_swap(&self.edges, self.opts.proposal, &mut self.rng) else {
            self.stats.rejected_invalid += 1;
            return None;
        };
        if !veto(&self.edges, &p) {
            self.stats.rejected_vetoed += 1;
            return None;
        }
        let ev = obj.evaluate(&mut self.edges, &p);
        if metropolis(ev.delta_d, p.proposal_ratio(), &self.opts, &mut self.rng) {
            if !ev.applied {
                apply_swap(&mut self.edges, &p);
            }
            obj.commit();
            self.stats.accepted += 1;
            if let Some(d) = obj.distance() {
                self.trace.record(d);
            }
            Some(ev.delta_d)
        } else {
            if ev.applied {
                revert_swap(&mut self.edges, &p);
            }
            self.stats.rejected_metropolis += 1;
            None
        }
    }

    /// Runs until the budget is exhausted (or the target is reached /
    /// patience runs out). Returns the statistics of **this run** —
    /// cumulative counters are on [`McmcChain::stats`].
    pub fn run<O: SwapObjective>(&mut self, obj: &mut O, budget: &RunBudget) -> ChainStats {
        self.run_filtered(obj, budget, &|_, _| true)
    }

    /// [`McmcChain::run`] with a per-move veto filter, which sees the
    /// pre-move edge list.
    pub fn run_filtered<O, F>(&mut self, obj: &mut O, budget: &RunBudget, veto: &F) -> ChainStats
    where
        O: SwapObjective,
        F: Fn(&EdgeList, &MoveProposal) -> bool,
    {
        let before = self.stats;
        let mut since_improve = 0u64;
        for _ in 0..budget.max_steps {
            if budget.stop_at_zero && obj.distance() == Some(0.0) {
                break;
            }
            if let Some(p) = budget.patience {
                if since_improve >= p {
                    break;
                }
            }
            match self.step(obj, veto) {
                Some(delta_d) if delta_d < 0.0 => since_improve = 0,
                _ => since_improve += 1,
            }
        }
        self.stats.since(&before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;

    #[test]
    fn resumable_runs_compose() {
        let g = builders::karate_club();
        let mut whole = McmcChain::seeded(g.clone(), 42, ChainOptions::default());
        whole.run(&mut NullObjective, &RunBudget::steps(2000));

        let mut split = McmcChain::seeded(g, 42, ChainOptions::default());
        split.run(&mut NullObjective, &RunBudget::steps(700));
        split.run(&mut NullObjective, &RunBudget::steps(1300));

        assert_eq!(whole.stats(), split.stats());
        assert_eq!(whole.into_graph(), split.into_graph());
    }

    #[test]
    fn randomizing_run_preserves_degrees() {
        let g0 = builders::karate_club();
        let before = g0.degrees();
        let mut chain = McmcChain::seeded(g0, 7, ChainOptions::default());
        let run = chain.run(&mut NullObjective, &RunBudget::steps(3000));
        assert!(run.accepted > 500, "accepted {}", run.accepted);
        assert_eq!(
            run.attempts,
            run.accepted + run.rejected_invalid + run.rejected_vetoed + run.rejected_metropolis
        );
        let g = chain.into_graph();
        g.check_invariants().expect("simple-graph invariants hold");
        assert_eq!(g.degrees(), before);
    }

    #[test]
    fn vetoed_chain_leaves_graph_untouched() {
        let g0 = builders::karate_club();
        let mut chain = McmcChain::seeded(g0.clone(), 3, ChainOptions::default());
        let run = chain.run_filtered(&mut NullObjective, &RunBudget::steps(500), &|_, _| false);
        assert_eq!(run.accepted, 0);
        assert!(run.rejected_vetoed > 0);
        assert_eq!(chain.into_graph(), g0);
    }

    /// An objective that dislikes every move — exercises the tentative
    /// mutate-and-revert path.
    struct RejectAll {
        pending: u64,
        committed: u64,
    }

    impl SwapObjective for RejectAll {
        fn evaluate(&mut self, g: &mut EdgeList, p: &MoveProposal) -> Evaluation {
            crate::proposal::apply_swap(g, p);
            self.pending += 1;
            Evaluation {
                delta_d: f64::INFINITY,
                applied: true,
            }
        }
        fn commit(&mut self) {
            self.committed += 1;
        }
        fn distance(&self) -> Option<f64> {
            None
        }
    }

    #[test]
    fn rejected_tentative_moves_are_reverted() {
        let g0 = builders::karate_club();
        let mut chain = McmcChain::seeded(g0.clone(), 11, ChainOptions::default());
        let mut obj = RejectAll {
            pending: 0,
            committed: 0,
        };
        let run = chain.run(&mut obj, &RunBudget::steps(800));
        assert_eq!(run.accepted, 0);
        assert!(obj.pending > 0, "no move was ever evaluated");
        assert_eq!(obj.committed, 0);
        assert!(run.rejected_metropolis > 0);
        assert_eq!(chain.into_graph(), g0);
    }

    #[test]
    fn trace_converges_at_zero_distance() {
        let mut t = DistanceTrace::new(4);
        for _ in 0..3 {
            t.record(0.0);
        }
        assert!(!t.converged(0.01), "window not yet full");
        t.record(0.0);
        assert!(t.converged(0.01));
        assert_eq!(t.last(), Some(0.0));
        assert_eq!(t.recorded(), 4);
    }

    #[test]
    fn trace_sees_improvement_until_plateau() {
        let mut t = DistanceTrace::new(3);
        t.record(100.0);
        t.record(50.0);
        t.record(10.0);
        // 90% improvement across the window: not converged
        assert!(!t.converged(0.05));
        t.record(10.0);
        t.record(10.0);
        // window now [10, 10, 10]
        assert!(t.converged(0.05));
    }

    #[test]
    fn patience_stops_a_stalled_run() {
        let g = builders::karate_club();
        let mut chain = McmcChain::seeded(g, 5, ChainOptions::default());
        let budget = RunBudget {
            max_steps: 100_000,
            patience: Some(50),
            stop_at_zero: false,
        };
        // NullObjective never improves (ΔD is always 0), so patience
        // must cut the run short.
        let run = chain.run(&mut NullObjective, &budget);
        assert_eq!(run.attempts, 50);
    }
}
