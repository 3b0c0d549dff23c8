//! # dk-mcmc — incremental-move double-edge-swap MCMC engine
//!
//! The generation side of the dK reproduction (targeting and
//! dK-preserving randomization, paper §4.1.4) is a Markov chain over
//! simple graphs whose only move is the double-edge swap
//! `{a,b},{c,d} → {a,d},{c,b}`. This crate is that chain, factored out
//! of `dk-core` so every move is an **explicit, inspectable record**
//! instead of a fused sample-validate-mutate loop, and so per-move costs
//! are O(1) at 10⁶-node scale.
//!
//! ## The move / validation / delta contract
//!
//! * **Move records** ([`MoveProposal`]): a proposal names the two edges
//!   it removes, the two it adds, and its forward/reverse proposal
//!   probabilities under the sampler that produced it. Nothing about a
//!   proposal is implicit: the acceptance rule, the objective and the
//!   revert path all read the same record.
//! * **One validity rule** ([`check_swap`]): a swap is valid when it
//!   creates no self-loop and no parallel edge, and — for
//!   [`ProposalKind::JddPreserving`] — satisfies Figure 4's degree-class
//!   condition. The sampler ([`propose_swap`]), the explorers' scan and
//!   the Table 5 census in `dk-core` all decide validity through it, and
//!   it reports a typed reason ([`SwapInvalid`]) on failure: the first
//!   of its tests that fails (self-loop, then the class condition, then
//!   the presence probes), so a counter of reasons counts each invalid
//!   proposal once, under that first test.
//! * **Census deltas** ([`SwapObjective`]): the chain never re-extracts
//!   a distribution. An objective inspects a validated proposal, reports
//!   the distance change `ΔD` of the move (for 2K targets this is four
//!   O(1) reads of a dense table over the frozen degree classes; see
//!   `dk_core::generate::objective`), and folds the pending delta into its
//!   bookkeeping **only when the chain accepts** (`commit`); on a
//!   rejection the engine reverts any tentative mutation and the pending
//!   delta is simply overwritten by the next evaluation.
//!
//! ## Acceptance
//!
//! Acceptance is Metropolis–Hastings on `ΔD` at a configurable
//! temperature, with the proposal ratio `q_rev/q_fwd` taken from the
//! move record (Bassler et al., "Exact sampling of graphs with
//! prescribed degree correlations"). The uniform pair-plus-orientation
//! sampler used here is symmetric — `q_rev = q_fwd` — so plain runs
//! reduce to classic Metropolis; the probabilities stay explicit so any
//! future non-uniform sampler (degree-biased pair selection, fallback
//! scans) keeps the stationary distribution honest by construction.
//!
//! ## Determinism
//!
//! A chain owns its RNG stream: seed it once ([`McmcChain::seeded`]) and
//! every subsequent draw — edge pair, orientation, acceptance coin — is
//! taken from that stream in a fixed order, so a run is exactly
//! re-runnable and **resumable**: running `k` steps and then `m` steps
//! is byte-identical to running `k + m` steps.
//!
//! ## State
//!
//! A chain runs on a [`dk_graph::EdgeList`]: the degrees, the canonical
//! edge list and its index, which is all its proposals read. Presence
//! probes go through that index ([`dk_graph::EdgeList::has_edge`], a
//! deterministic-hasher map every mutation maintains), so validity checks
//! are O(1) regardless of degree, and an accepted move edits the list and
//! its index, not four sorted adjacency rows. A [`dk_graph::Graph`]
//! handed to a chain drops its rows, and [`McmcChain::into_graph`]
//! rebuilds them once. The swap helpers also apply to a whole `Graph`
//! ([`SwapTarget`]) for the walks that read neighbours on every step.

#![forbid(unsafe_code)]

mod chain;
mod proposal;

pub use chain::{
    ChainOptions, ChainStats, DistanceTrace, Evaluation, McmcChain, NullObjective, RunBudget,
    SwapObjective,
};
pub use proposal::{
    apply_swap, check_swap, propose_swap, revert_swap, MoveProposal, ProposalKind, SwapInvalid,
    SwapTarget,
};
