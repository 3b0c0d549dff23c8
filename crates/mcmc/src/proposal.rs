//! Double-edge-swap move records: the swap-validity rule, sampling, and
//! the mutating paths.

use dk_graph::{EdgeList, Graph, GraphError};
use rand::Rng;

/// Which swaps the sampler may propose.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProposalKind {
    /// Any simple-graph-valid double-edge swap. Preserves every node's
    /// degree (1K-preserving).
    #[default]
    Plain,
    /// Only swaps whose endpoint degrees satisfy Figure 4's condition
    /// `deg(b) = deg(d) ∨ deg(a) = deg(c)`, which conserve the edge
    /// degree classes and therefore the JDD (2K-preserving).
    JddPreserving,
}

/// Why a double-edge swap cannot be applied to a simple graph.
///
/// [`check_swap`] runs its tests in a fixed order and reports the first
/// that fails, so a swap that fails several is counted under the first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwapInvalid {
    /// Fewer than two edges — no swap exists.
    NeedTwoEdges,
    /// A rewired pair shares its endpoints (`a = d` or `c = b`): the
    /// swap would create a self-loop.
    SelfLoop,
    /// A replacement edge is already present: the swap would create a
    /// parallel edge.
    EdgeExists,
    /// The swap would change the JDD although the sampler is restricted
    /// to [`ProposalKind::JddPreserving`] moves.
    ClassMismatch,
}

/// One proposed double-edge swap, fully explicit: the edges it removes,
/// the edges it adds, and the probabilities of proposing this move
/// (`forward_prob`, from the current state) and its exact inverse
/// (`reverse_prob`, from the post-move state) under the sampler that
/// produced it. The Metropolis–Hastings ratio `q_rev/q_fwd` comes
/// straight off the record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MoveProposal {
    /// Edges removed: `(a,b)` and `(c,d)` in the sampled orientation.
    pub remove: [(u32, u32); 2],
    /// Edges added: `(a,d)` and `(c,b)`.
    pub add: [(u32, u32); 2],
    /// Probability the sampler proposes exactly this move.
    pub forward_prob: f64,
    /// Probability the sampler, run on the post-move graph, proposes the
    /// inverse move.
    pub reverse_prob: f64,
}

impl MoveProposal {
    /// The Metropolis–Hastings proposal ratio `q_rev / q_fwd`.
    pub fn proposal_ratio(&self) -> f64 {
        self.reverse_prob / self.forward_prob
    }
}

/// Decides whether the swap `{a,b},{c,d} → {a,d},{c,b}` keeps the graph
/// of `edges` simple and, for [`ProposalKind::JddPreserving`], its JDD:
/// the one validity rule behind every sampler, explorer and census in
/// the workspace.
///
/// The two removed edges must be distinct edges of the graph; the check
/// reads only what the swap adds, in this order:
///
/// 1. the self-loop test (`a = d` or `c = b`);
/// 2. for [`ProposalKind::JddPreserving`], Figure 4's class condition on
///    the degrees of `edges`, which equal the frozen degrees on any walk
///    of degree-preserving moves (on the skitter-like input 94.6 % of
///    uniform JDD-preserving proposals fail it, so it runs before the
///    probes);
/// 3. two O(1) presence probes of the canonical edge index
///    ([`EdgeList::has_edge`]), regardless of degree.
///
/// The reason reported is the first test that fails.
#[inline]
pub fn check_swap(
    edges: &EdgeList,
    kind: ProposalKind,
    [(a, b), (c, d)]: [(u32, u32); 2],
) -> Result<(), SwapInvalid> {
    if a == d || c == b {
        return Err(SwapInvalid::SelfLoop);
    }
    if kind == ProposalKind::JddPreserving {
        let deg = edges.degrees();
        if deg[b as usize] != deg[d as usize] && deg[a as usize] != deg[c as usize] {
            return Err(SwapInvalid::ClassMismatch);
        }
    }
    if edges.has_edge(a, d) || edges.has_edge(c, b) {
        return Err(SwapInvalid::EdgeExists);
    }
    Ok(())
}

/// Samples one double-edge-swap proposal: two distinct uniform edges of
/// `edges` plus a uniform orientation of the second, validated by
/// [`check_swap`]. Every move this sampler produces preserves all
/// degrees, so the degrees of `edges` never change along a chain.
///
/// The sampler always consumes exactly three RNG draws, whether or not
/// the candidate validates, so rejection never desynchronizes a seeded
/// stream.
///
/// Both probabilities on the returned record equal `1/(m(m−1))`: the
/// unordered pair is hit by two of the `m(m−1)` ordered draws, the
/// orientation coin is `1/2`, and the inverse move is sampled from the
/// post-move graph (also `m` edges) by the identical computation. The
/// symmetry is asserted by the MH-balance tests; it is what lets a
/// neutral-temperature chain sample 2K-graphs uniformly (Bassler et
/// al.).
pub fn propose_swap<R: Rng + ?Sized>(
    edges: &EdgeList,
    kind: ProposalKind,
    rng: &mut R,
) -> Result<MoveProposal, SwapInvalid> {
    let m = edges.edge_count();
    if m < 2 {
        return Err(SwapInvalid::NeedTwoEdges);
    }
    let i = rng.gen_range(0..m);
    let j = rng.gen_range(0..m - 1);
    let j = if j >= i { j + 1 } else { j };
    let (a, b) = edges.edge_at(i);
    let e2 = edges.edge_at(j);
    // random orientation of the second edge covers both swap variants
    let (c, d) = if rng.gen_bool(0.5) { e2 } else { (e2.1, e2.0) };
    check_swap(edges, kind, [(a, b), (c, d)])?;
    let q = 1.0 / (m as f64 * (m - 1) as f64);
    Ok(MoveProposal {
        remove: [(a, b), (c, d)],
        add: [(a, d), (c, b)],
        forward_prob: q,
        reverse_prob: q,
    })
}

/// A simple graph a validated swap is applied to: a bare [`EdgeList`]
/// (what [`crate::McmcChain`] runs on) or a whole [`Graph`] (its edge
/// list and its sorted rows, for the walks that read neighbours on
/// every step). Both mutate the edge list the same way, so a swap
/// sequence leaves the same edge order on either.
pub trait SwapTarget {
    /// Removes edge `(u, v)`.
    fn remove_edge(&mut self, u: u32, v: u32) -> Result<(), GraphError>;
    /// Adds edge `(u, v)`.
    fn add_edge(&mut self, u: u32, v: u32) -> Result<(), GraphError>;
}

impl SwapTarget for EdgeList {
    #[inline]
    fn remove_edge(&mut self, u: u32, v: u32) -> Result<(), GraphError> {
        EdgeList::remove_edge(self, u, v)
    }
    #[inline]
    fn add_edge(&mut self, u: u32, v: u32) -> Result<(), GraphError> {
        EdgeList::add_edge(self, u, v)
    }
}

impl SwapTarget for Graph {
    #[inline]
    fn remove_edge(&mut self, u: u32, v: u32) -> Result<(), GraphError> {
        Graph::remove_edge(self, u, v)
    }
    #[inline]
    fn add_edge(&mut self, u: u32, v: u32) -> Result<(), GraphError> {
        Graph::add_edge(self, u, v)
    }
}

/// Applies a **validated** proposal.
///
/// # Panics
/// Panics if the proposal does not validate against `g` — callers only
/// apply records freshly produced by [`propose_swap`] or checked by
/// [`check_swap`].
pub fn apply_swap<G: SwapTarget + ?Sized>(g: &mut G, p: &MoveProposal) {
    for &(u, v) in &p.remove {
        g.remove_edge(u, v).expect("validated swap: edge present");
    }
    for &(u, v) in &p.add {
        g.add_edge(u, v).expect("validated swap: slot free");
    }
}

/// Reverts a just-applied proposal (applies its exact inverse). The two
/// removed edges return at the end of the edge list.
///
/// # Panics
/// Panics if the graph is not in the proposal's post-move state.
pub fn revert_swap<G: SwapTarget + ?Sized>(g: &mut G, p: &MoveProposal) {
    for &(u, v) in &p.add {
        g.remove_edge(u, v).expect("reverting a just-applied swap");
    }
    for &(u, v) in &p.remove {
        g.add_edge(u, v).expect("reverting a just-applied swap");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn proposal_probabilities_are_symmetric_and_uniform() {
        let g = builders::karate_club();
        let m = g.edge_count() as f64;
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = 0;
        while seen < 50 {
            if let Ok(p) = propose_swap(g.edge_list(), ProposalKind::Plain, &mut rng) {
                assert_eq!(p.forward_prob, p.reverse_prob);
                assert_eq!(p.forward_prob, 1.0 / (m * (m - 1.0)));
                assert_eq!(p.proposal_ratio(), 1.0);
                seen += 1;
            }
        }
    }

    #[test]
    fn apply_then_revert_roundtrips() {
        let g0 = builders::karate_club();
        let mut rng = StdRng::seed_from_u64(2);
        let mut done = 0;
        while done < 30 {
            let Ok(p) = propose_swap(g0.edge_list(), ProposalKind::Plain, &mut rng) else {
                continue;
            };
            let mut g = g0.clone();
            apply_swap(&mut g, &p);
            assert_ne!(g, g0);
            // the bare edge list takes the same swap to the same order
            let mut list = g0.edge_list().clone();
            apply_swap(&mut list, &p);
            assert_eq!(list.edges(), g.edges());
            revert_swap(&mut g, &p);
            assert_eq!(g, g0);
            done += 1;
        }
    }

    #[test]
    fn check_swap_catches_each_reason() {
        let g = builders::karate_club();
        let check = |kind, swap| check_swap(g.edge_list(), kind, swap);
        // (0,1),(2,0) → (0,0),(2,1): a = d
        assert_eq!(
            check(ProposalKind::Plain, [(0, 1), (2, 0)]),
            Err(SwapInvalid::SelfLoop)
        );
        // (0,1),(3,2) → (0,2),(3,1): both replacements are karate edges
        assert_eq!(
            check(ProposalKind::Plain, [(0, 1), (3, 2)]),
            Err(SwapInvalid::EdgeExists)
        );
        // (0,1),(32,33) → (0,33),(32,1): simple, but k(1) = 9 ≠ k(33) = 17
        // and k(0) = 16 ≠ k(32) = 12, so the JDD moves
        assert_eq!(check(ProposalKind::Plain, [(0, 1), (32, 33)]), Ok(()));
        assert_eq!(
            check(ProposalKind::JddPreserving, [(0, 1), (32, 33)]),
            Err(SwapInvalid::ClassMismatch)
        );
        // the class test runs before the presence probes: (0,1),(2,3) →
        // (0,3),(2,1) re-adds two karate edges, and k(1) = 9 ≠ k(3) = 6,
        // k(0) = 16 ≠ k(2) = 10, so it fails both and reports the class
        assert_eq!(
            check(ProposalKind::Plain, [(0, 1), (2, 3)]),
            Err(SwapInvalid::EdgeExists)
        );
        assert_eq!(
            check(ProposalKind::JddPreserving, [(0, 1), (2, 3)]),
            Err(SwapInvalid::ClassMismatch)
        );
    }

    #[test]
    fn jdd_preserving_kind_rejects_class_changing_orientations() {
        let g = builders::karate_club();
        let deg = g.edge_list().degrees();
        let mut rng = StdRng::seed_from_u64(4);
        let mut checked = 0;
        while checked < 200 {
            if let Ok(p) = propose_swap(g.edge_list(), ProposalKind::JddPreserving, &mut rng) {
                let [(a, b), (c, d)] = p.remove;
                assert!(
                    deg[b as usize] == deg[d as usize] || deg[a as usize] == deg[c as usize],
                    "JDD-preserving sampler produced a class-changing move"
                );
            }
            checked += 1;
        }
    }
}
