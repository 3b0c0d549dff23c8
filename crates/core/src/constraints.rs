//! External constraints on rewiring (paper §6).
//!
//! "We can simply adjust our rewiring algorithms to not accept rewirings
//! violating this dependency. In other words, we can always consider
//! ensembles of dK-random graphs subject to various forms of external
//! constraints imposed by the specifics of a given network."
//!
//! A [`RewireConstraint`] is consulted *before* a candidate swap is
//! applied; rejecting keeps the graph untouched. The rewiring chains run
//! on the graph's [`EdgeList`], so that is what the constraint sees: the
//! degree of every node, edge membership and the edge list itself, in
//! the pre-move state, plus the proposed edge changes. Rules over node
//! attributes and degrees (router degree–bandwidth feasibility,
//! geography, link-type budgets) are all expressible; a rule that needs
//! neighbour lists is not.

use dk_graph::EdgeList;

/// A predicate over candidate rewiring steps.
pub trait RewireConstraint {
    /// `true` if replacing `removed` with `added` is allowed. The edge
    /// list is in its *pre-move* state.
    fn allows(&self, g: &EdgeList, removed: &[(u32, u32)], added: &[(u32, u32)]) -> bool;
}

/// The default: everything allowed.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoConstraint;

impl RewireConstraint for NoConstraint {
    fn allows(&self, _: &EdgeList, _: &[(u32, u32)], _: &[(u32, u32)]) -> bool {
        true
    }
}

/// Example technology constraint from the paper's §6 discussion (after
/// Li et al. \[19\]): a router has a total capacity budget, so the product
/// of endpoint degrees on any link — a proxy for the bandwidth the link
/// must carry — may not exceed a cap.
#[derive(Clone, Copy, Debug)]
pub struct DegreeProductCap {
    /// Maximum allowed `deg(u) · deg(v)` on any created edge.
    pub cap: u64,
}

impl RewireConstraint for DegreeProductCap {
    fn allows(&self, g: &EdgeList, _removed: &[(u32, u32)], added: &[(u32, u32)]) -> bool {
        added
            .iter()
            .all(|&(u, v)| (g.degree(u) as u64) * (g.degree(v) as u64) <= self.cap)
    }
}

/// Adapter for arbitrary closures.
pub struct PredicateConstraint<F>(pub F);

impl<F> RewireConstraint for PredicateConstraint<F>
where
    F: Fn(&EdgeList, &[(u32, u32)], &[(u32, u32)]) -> bool,
{
    fn allows(&self, g: &EdgeList, removed: &[(u32, u32)], added: &[(u32, u32)]) -> bool {
        (self.0)(g, removed, added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;

    #[test]
    fn no_constraint_allows_all() {
        let g = builders::path(3);
        assert!(NoConstraint.allows(g.edge_list(), &[(0, 1)], &[(0, 2)]));
    }

    #[test]
    fn degree_product_cap() {
        let star = builders::star(5); // hub degree 5, leaves 1
        let g = star.edge_list();
        let c = DegreeProductCap { cap: 4 };
        // hub–leaf edge product = 5 — over cap
        assert!(!c.allows(g, &[], &[(0, 1)]));
        // leaf–leaf product = 1 — fine
        assert!(c.allows(g, &[], &[(1, 2)]));
        let generous = DegreeProductCap { cap: 100 };
        assert!(generous.allows(g, &[], &[(0, 1)]));
    }

    #[test]
    fn predicate_adapter() {
        let path = builders::path(4);
        let g = path.edge_list();
        // forbid touching node 0
        let c = PredicateConstraint(|_: &EdgeList, rm: &[(u32, u32)], ad: &[(u32, u32)]| {
            rm.iter().chain(ad).all(|&(u, v)| u != 0 && v != 0)
        });
        assert!(!c.allows(g, &[(0, 1)], &[(1, 2)]));
        assert!(c.allows(g, &[(1, 2)], &[(2, 3)]));
    }
}
