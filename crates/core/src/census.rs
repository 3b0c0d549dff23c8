//! Census of possible initial dK-preserving rewirings (paper Table 5).
//!
//! "We first calculate the number of possible initial dK-preserving
//! rewirings … We then subtract the number of rewirings that leave the
//! graph isomorphic. For example, rewiring of any two (1,k)- and
//! (1,k')-edges … the graph before rewiring is isomorphic to the graph
//! after rewiring."
//!
//! The census doubles as a size indicator of the dK-graph space: it
//! collapses dramatically as `d` grows (Table 5 reports 435M → 478K →
//! 326K → 146 for HOT), which is the quantitative face of Figure 2's
//! shrinking circles.
//!
//! Complexity: O(m²) pair enumeration for `d ≥ 1` (with a swap-level 3K
//! delta per valid pair at `d = 3`, whose cost follows the swapped
//! edges' common neighbours) — intended for HOT-scale graphs, exactly
//! like the paper's own Table 5. The `d = 0` count is a closed form in
//! `n` and `m`.

use crate::generate::delta::{frozen_degrees, Delta3K};
use dk_graph::Graph;
use dk_mcmc::{check_swap, ProposalKind};

/// Result of [`count_initial_rewirings`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RewireCensus {
    /// Edge (pairs) admitting at least one valid dK-preserving rewiring.
    /// `u128` because the `d = 0` count `m · (C(n,2) − m)` passes
    /// `u64::MAX` at a few million nodes (≈ 4.5·10¹⁹ at n = 3·10⁶,
    /// m = 10⁷); it fits exactly for any graph with `u32` node ids.
    pub total: u128,
    /// As `total`, excluding pairs whose only valid rewirings are obvious
    /// isomorphisms (leaf swaps). `None` for `d = 0`, where the paper
    /// reports no discount (Table 5's "-").
    pub excluding_obvious_isomorphic: Option<u64>,
}

/// Counts the possible initial dK-preserving rewirings of `g`.
///
/// * `d = 0`: every (edge, empty slot) combination: `m · (C(n,2) − m)`.
/// * `d ≥ 1`: unordered pairs of edges admitting ≥ 1 valid orientation
///   (simple-graph-valid; JDD-preserving for `d = 2`; additionally
///   3K-preserving for `d = 3`).
///
/// # Panics
/// Panics if `d > 3`.
pub fn count_initial_rewirings(g: &Graph, d: u8) -> RewireCensus {
    assert!(d <= 3, "census implemented for d ≤ 3");
    if d == 0 {
        return RewireCensus {
            total: edge_relocations(g.node_count() as u64, g.edge_count() as u64),
            excluding_obvious_isomorphic: None,
        };
    }
    let deg = frozen_degrees(g);
    let mut scratch = Delta3K::default();
    let m = g.edge_count();
    let mut total = 0u128;
    let mut non_iso = 0u64;
    for i in 0..m {
        let (a, b) = g.edge_at(i);
        for j in (i + 1)..m {
            let (c0, d0) = g.edge_at(j);
            let mut any_valid = false;
            let mut any_non_iso = false;
            // two orientations of the second edge
            for (c, dd) in [(c0, d0), (d0, c0)] {
                if !swap_ok(g, d, &deg, &mut scratch, [(a, b), (c, dd)]) {
                    continue;
                }
                any_valid = true;
                // swap {a,b},{c,dd} → {a,dd},{c,b}: exchanges partners
                // b ↔ dd; obvious isomorphism when both are leaves
                // (the paper's (1,k)/(1,k') case), or when the other
                // exchanged pair a ↔ c are both leaves.
                let leaf_swap = (g.degree(b) == 1 && g.degree(dd) == 1)
                    || (g.degree(a) == 1 && g.degree(c) == 1);
                if !leaf_swap {
                    any_non_iso = true;
                }
            }
            if any_valid {
                total += 1;
            }
            if any_non_iso {
                non_iso += 1;
            }
        }
    }
    RewireCensus {
        total,
        excluding_obvious_isomorphic: Some(non_iso),
    }
}

/// The `d = 0` census `m · (C(n,2) − m)`: every edge times every empty
/// node pair it could move to. With `m ≤ C(n,2)` and `n ≤ 2³²` (`u32`
/// node ids) the product stays below 2¹²⁵, so `u128` holds it exactly.
fn edge_relocations(n: u64, m: u64) -> u128 {
    let (n, m) = (u128::from(n), u128::from(m));
    m * (n * n.saturating_sub(1) / 2 - m)
}

/// Checks the swap `{a,b},{c,d} → {a,d},{c,b}` for validity at level `dk`
/// without mutating `g`: [`check_swap`] (JDD-preserving from `dk = 2`),
/// then, at `dk = 3`, a zero swap-level 3K delta.
fn swap_ok(g: &Graph, dk: u8, deg: &[u32], scratch: &mut Delta3K, swap: [(u32, u32); 2]) -> bool {
    let kind = if dk >= 2 {
        ProposalKind::JddPreserving
    } else {
        ProposalKind::Plain
    };
    if check_swap(g.edge_list(), kind, swap).is_err() {
        return false;
    }
    if dk < 3 {
        return true;
    }
    scratch.clear();
    scratch.track_swap(g, deg, swap);
    scratch.is_zero()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;

    #[test]
    fn census_0k_formula() {
        let g = builders::karate_club(); // n = 34, m = 78
        let c = count_initial_rewirings(&g, 0);
        let slots = 34u128 * 33 / 2 - 78;
        assert_eq!(c.total, 78 * slots);
        assert_eq!(c.excluding_obvious_isomorphic, None);
    }

    #[test]
    fn census_0k_formula_does_not_wrap_at_scale() {
        // n = 3·10⁶, m = 10⁷: C(n,2) = 4,499,998,500,000 slots, and
        // m · (C(n,2) − m) ≈ 4.5·10¹⁹ is past u64::MAX ≈ 1.8·10¹⁹
        let want = 44_999_885_000_000_000_000u128;
        assert!(want > u128::from(u64::MAX));
        assert_eq!(edge_relocations(3_000_000, 10_000_000), want);
        // the worst case over u32 node ids, m = C(n,2)/2 at n = 2³²,
        // still fits
        let n = 1u64 << 32;
        let pairs = u128::from(n) * u128::from(n - 1) / 2;
        let m = pairs / 2;
        assert_eq!(
            edge_relocations(n, m as u64),
            21_267_647_922_655_133_653_330_792_269_899_366_400
        );
    }

    #[test]
    fn census_shrinks_with_d() {
        // the Table 5 monotonicity: |rewirings| collapses as d grows
        let g = builders::karate_club();
        let c0 = count_initial_rewirings(&g, 0).total;
        let c1 = count_initial_rewirings(&g, 1).total;
        let c2 = count_initial_rewirings(&g, 2).total;
        let c3 = count_initial_rewirings(&g, 3).total;
        assert!(c0 > c1, "0K {c0} vs 1K {c1}");
        assert!(c1 > c2, "1K {c1} vs 2K {c2}");
        assert!(c2 > c3, "2K {c2} vs 3K {c3}");
        assert!(c3 > 0, "karate admits some 3K rewirings");
    }

    #[test]
    fn complete_graph_admits_no_swaps() {
        let g = builders::complete(6);
        for d in 1..=3u8 {
            assert_eq!(count_initial_rewirings(&g, d).total, 0, "d = {d}");
        }
    }

    #[test]
    fn star_rewirings_are_all_obvious_isomorphisms() {
        // In a star every edge is (1,k); every 1K swap exchanges leaves.
        let g = builders::star(5);
        let c = count_initial_rewirings(&g, 1);
        // no swap is even valid: (a=hub,b,hub,d) → (hub,d) already exists…
        // both orientations collapse. Expect zero total.
        assert_eq!(c.total, 0);
        assert_eq!(c.excluding_obvious_isomorphic, Some(0));
    }

    /// Two hubs joined, three leaves on each: leaf-pair swaps across the
    /// hubs are valid but isomorphic-obvious.
    fn double_star() -> Graph {
        Graph::from_edges(8, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (0, 4)]).unwrap()
    }

    #[test]
    fn leaf_swap_discount_on_double_star() {
        let g = double_star();
        let c1 = count_initial_rewirings(&g, 1);
        assert!(c1.total > 0);
        let ex = c1.excluding_obvious_isomorphic.unwrap();
        assert!(
            u128::from(ex) < c1.total,
            "leaf swaps must be discounted: {} vs {}",
            ex,
            c1.total
        );
    }

    #[test]
    fn census_nonincreasing_in_d_on_grid() {
        let g = builders::grid(4, 4);
        let c1 = count_initial_rewirings(&g, 1).total;
        let c2 = count_initial_rewirings(&g, 2).total;
        let c3 = count_initial_rewirings(&g, 3).total;
        assert!(c1 >= c2 && c2 >= c3);
    }

    #[test]
    fn census_counts_are_pinned() {
        // (total, excluding obvious isomorphisms) for d = 0..=3. Every
        // valid swap of the double star exchanges two leaves, so its
        // whole count is discounted.
        let cases = [
            (
                "karate",
                builders::karate_club(),
                [37_674, 1_820, 408, 17],
                [1_820, 408, 17],
            ),
            (
                "petersen",
                builders::petersen(),
                [450, 75, 75, 60],
                [75, 75, 60],
            ),
            (
                "grid(5, 5)",
                builders::grid(5, 5),
                [10_400, 686, 486, 190],
                [686, 486, 190],
            ),
            ("double star", double_star(), [147, 9, 9, 9], [0, 0, 0]),
        ];
        for (name, g, totals, non_iso) in cases {
            let c0 = count_initial_rewirings(&g, 0);
            assert_eq!(
                (c0.total, c0.excluding_obvious_isomorphic),
                (totals[0], None),
                "{name}"
            );
            for d in 1..=3u8 {
                let c = count_initial_rewirings(&g, d);
                assert_eq!(
                    (c.total, c.excluding_obvious_isomorphic),
                    (totals[d as usize], Some(non_iso[d as usize - 1])),
                    "{name}, d = {d}"
                );
            }
        }
    }

    #[test]
    fn census_leaves_graph_untouched() {
        let g = builders::karate_club();
        let before = g.clone();
        let _ = count_initial_rewirings(&g, 3);
        assert_eq!(g, before);
    }
}
