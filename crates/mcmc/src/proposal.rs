//! Double-edge-swap move records: the swap-validity rule, sampling, and
//! the mutating paths.

use dk_graph::Graph;
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

/// Decides whether the swap `{a,b},{c,d} → {a,d},{c,b}` keeps `g` simple
/// and, for [`ProposalKind::JddPreserving`], its JDD: the one validity
/// rule behind every sampler, explorer and census in the workspace.
///
/// The two removed edges must be distinct edges of `g`; the check reads
/// only what the swap adds. Presence goes through the canonical edge
/// index ([`Graph::has_edge_indexed`]), two O(1) probes regardless of
/// degree. Degrees are read from the caller's frozen degree vector `deg`,
/// which equals `g`'s degrees on any walk of degree-preserving moves.
#[inline]
pub fn check_swap(
    g: &Graph,
    deg: &[u32],
    kind: ProposalKind,
    [(a, b), (c, d)]: [(u32, u32); 2],
) -> Result<(), SwapInvalid> {
    if a == d || c == b {
        return Err(SwapInvalid::SelfLoop);
    }
    if g.has_edge_indexed(a, d) || g.has_edge_indexed(c, b) {
        return Err(SwapInvalid::EdgeExists);
    }
    if kind == ProposalKind::JddPreserving
        && deg[b as usize] != deg[d as usize]
        && deg[a as usize] != deg[c as usize]
    {
        return Err(SwapInvalid::ClassMismatch);
    }
    Ok(())
}

/// Samples one double-edge-swap proposal: two distinct uniform edges plus
/// a uniform orientation of the second, validated against `g` by
/// [`check_swap`]. Degrees are read from the caller's frozen degree
/// vector `deg` — every move this sampler produces preserves all
/// degrees, so the vector never goes stale.
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
    g: &Graph,
    deg: &[u32],
    kind: ProposalKind,
    rng: &mut R,
) -> Result<MoveProposal, SwapInvalid> {
    let m = g.edge_count();
    if m < 2 {
        return Err(SwapInvalid::NeedTwoEdges);
    }
    let i = rng.gen_range(0..m);
    let j = rng.gen_range(0..m - 1);
    let j = if j >= i { j + 1 } else { j };
    let (a, b) = g.edge_at(i);
    let e2 = g.edge_at(j);
    // random orientation of the second edge covers both swap variants
    let (c, d) = if rng.gen_bool(0.5) { e2 } else { (e2.1, e2.0) };
    check_swap(g, deg, kind, [(a, b), (c, d)])?;
    let q = 1.0 / (m as f64 * (m - 1) as f64);
    Ok(MoveProposal {
        remove: [(a, b), (c, d)],
        add: [(a, d), (c, b)],
        forward_prob: q,
        reverse_prob: q,
    })
}

/// Applies a **validated** proposal.
///
/// # Panics
/// Panics if the proposal does not validate against `g` — callers only
/// apply records freshly produced by [`propose_swap`] or checked by
/// [`check_swap`].
pub fn apply_swap(g: &mut Graph, p: &MoveProposal) {
    for &(u, v) in &p.remove {
        g.remove_edge(u, v).expect("validated swap: edge present");
    }
    for &(u, v) in &p.add {
        g.add_edge(u, v).expect("validated swap: slot free");
    }
}

/// Reverts a just-applied proposal (applies its exact inverse).
///
/// # Panics
/// Panics if the graph is not in the proposal's post-move state.
pub fn revert_swap(g: &mut Graph, p: &MoveProposal) {
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

    fn frozen(g: &Graph) -> Vec<u32> {
        g.degrees().iter().map(|&d| d as u32).collect()
    }

    #[test]
    fn proposal_probabilities_are_symmetric_and_uniform() {
        let g = builders::karate_club();
        let deg = frozen(&g);
        let m = g.edge_count() as f64;
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = 0;
        while seen < 50 {
            if let Ok(p) = propose_swap(&g, &deg, ProposalKind::Plain, &mut rng) {
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
        let deg = frozen(&g0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut done = 0;
        while done < 30 {
            let Ok(p) = propose_swap(&g0, &deg, ProposalKind::Plain, &mut rng) else {
                continue;
            };
            let mut g = g0.clone();
            apply_swap(&mut g, &p);
            assert_ne!(g, g0);
            revert_swap(&mut g, &p);
            assert_eq!(g, g0);
            done += 1;
        }
    }

    #[test]
    fn check_swap_catches_each_reason() {
        let g = builders::karate_club();
        let deg = frozen(&g);
        let check = |kind, swap| check_swap(&g, &deg, kind, swap);
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
    }

    #[test]
    fn jdd_preserving_kind_rejects_class_changing_orientations() {
        let g = builders::karate_club();
        let deg = frozen(&g);
        let mut rng = StdRng::seed_from_u64(4);
        let mut checked = 0;
        while checked < 200 {
            if let Ok(p) = propose_swap(&g, &deg, ProposalKind::JddPreserving, &mut rng) {
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
