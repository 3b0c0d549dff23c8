//! Incremental census bookkeeping for rewiring.
//!
//! A degree-preserving double-edge swap `{a,b},{c,d} → {a,d},{c,b}`
//! changes the JDD in exactly four entries (the dense table of
//! [`super::objective::Objective2K`], O(1) per move) and the
//! wedge/triangle census only around its four endpoints
//! ([`Delta3K::track_swap`]) — the difference between an O(1)-amortized
//! rewiring step and re-extracting an O(Σ deg²) distribution per step.
//! The MCMC chain's objectives ([`super::objective`]) compute these
//! deltas per proposed move and fold them in only on acceptance.
//!
//! Degrees are read from a *frozen* degree vector `k(·)` captured before
//! the swap: all moves used with this module preserve every node's
//! degree, so the frozen degrees equal both the pre- and post-swap
//! degrees and every key is exact.
//!
//! ## The 3K swap delta
//!
//! [`Delta3K::track_swap`] reads the pre-swap sorted rows only (any
//! [`AdjacencyView`]: a [`dk_graph::Graph`], or the rows a 3K objective
//! keeps beside the chain's edge list). Split the
//! induced-wedge census into *paths* (all 2-paths `u − v − w`, keyed
//! `(k(u), k(v), k(w))` with the centre in the middle) minus *closed
//! wedges* (the three paths around each triangle):
//!
//! * **Paths** change only at the four endpoints, and each of them
//!   trades one partner `p` for `p′`: `a: b→d`, `c: d→b`, `b: a→c`,
//!   `d: c→a`. The other arm ranges over `N(v) ∖ {p}` before and after.
//!   If `k(p) = k(p′)` nothing changes at `v`; otherwise every
//!   `z ∈ N(v) ∖ {p}` moves one path from `(k(p), k(v), k(z))` to
//!   `(k(p′), k(v), k(z))`. A JDD-preserving swap has `k(b) = k(d)` or
//!   `k(a) = k(c)`, so at least one side — in practice the hub's — is
//!   skipped.
//! * **Triangles** change only on the swapped edges. They die on `{a,b}`
//!   (`z ∈ N(a) ∩ N(b)`) and on `{c,d}` (`z ∈ N(c) ∩ N(d)`), and are
//!   born on `{a,d}` (`z ∈ N(a) ∩ N(d) ∖ {b,c}`) and on `{c,b}`
//!   (`z ∈ N(c) ∩ N(b) ∖ {a,d}`).
//! * **Open wedges = paths − closed wedges**: a dying triangle bumps its
//!   triangle key by `−1` and the open-wedge key at each of its three
//!   corners by `+1`; a born triangle flips both signs.
//!
//! Cost per swap: one intersection per common-neighbour pair (scan the
//! shorter sorted list, binary-search the longer), plus one walk over
//! the neighbours of each centre whose partner changes degree. In the
//! 3K chains on the skitter-like input (n = 9,071, m = 30,505) that is
//! ≈ 14.6 intersection probes plus ≈ 9.7 neighbours walked per evaluated
//! swap; walking both endpoints' neighbour lists for each of the four
//! edge operations would visit ≈ 1,720.

use crate::dist::{canon_triangle, canon_wedge, Degree, Dist3K};
use dk_graph::hashers::DetHashMap;
use dk_graph::{AdjacencyView, Graph};

/// Signed change to the wedge/triangle histograms.
#[derive(Clone, Debug, Default)]
pub struct Delta3K {
    /// Wedge count changes by canonical triple.
    pub wedges: DetHashMap<(Degree, Degree, Degree), i64>,
    /// Triangle count changes by canonical triple.
    pub triangles: DetHashMap<(Degree, Degree, Degree), i64>,
}

impl Delta3K {
    /// `true` if every accumulated change cancels out (the swap was
    /// 3K-preserving).
    pub fn is_zero(&self) -> bool {
        self.wedges.values().all(|&v| v == 0) && self.triangles.values().all(|&v| v == 0)
    }

    /// Resets the delta for reuse.
    pub fn clear(&mut self) {
        self.wedges.clear();
        self.triangles.clear();
    }

    /// Applies the delta to a [`Dist3K`] (used by targeting rewiring to
    /// keep its "current" histograms in sync after accepting a move).
    ///
    /// # Panics
    /// Panics if a count would go negative — that is a bookkeeping bug,
    /// not a data condition.
    pub fn apply_to(&self, dist: &mut Dist3K) {
        for (&key, &dv) in &self.wedges {
            if dv == 0 {
                continue;
            }
            let e = dist.wedges.entry(key).or_insert(0);
            let nv = (*e as i64) + dv;
            assert!(nv >= 0, "wedge count underflow at {key:?}");
            if nv == 0 {
                dist.wedges.remove(&key);
            } else {
                *e = nv as u64;
            }
        }
        for (&key, &dv) in &self.triangles {
            if dv == 0 {
                continue;
            }
            let e = dist.triangles.entry(key).or_insert(0);
            let nv = (*e as i64) + dv;
            assert!(nv >= 0, "triangle count underflow at {key:?}");
            if nv == 0 {
                dist.triangles.remove(&key);
            } else {
                *e = nv as u64;
            }
        }
    }

    /// Accumulates the 3K change of the double-edge swap
    /// `{a,b},{c,d} → {a,d},{c,b}` (`swap = [(a, b), (c, d)]`), reading
    /// the **pre-swap** sorted rows `g`, which are not mutated. `a, b, c, d`
    /// must be distinct and `{a,d}`, `{c,b}` absent (a valid proposal);
    /// keys use the frozen degrees `deg`.
    ///
    /// Paths centred on the four endpoints trade one partner; triangles
    /// die and are born only through the four common-neighbour sets
    /// (see the module doc for the derivation). Triangle keys reach
    /// [`Delta3K::triangles`] in a fixed order — dying on `{a,b}`, then
    /// `{c,d}`, born on `{a,d}`, then `{c,b}`, each by ascending node id
    /// — so order-sensitive f64 folds over the map are reproducible.
    pub fn track_swap<G: AdjacencyView + ?Sized>(
        &mut self,
        g: &G,
        deg: &[Degree],
        swap: [(u32, u32); 2],
    ) {
        let [(a, b), (c, d)] = swap;
        let k = |v: u32| deg[v as usize];
        // centre v trades partner p for q; the other arm z ranges over
        // N(v) ∖ {p} both before and after the swap
        for (v, p, q) in [(a, b, d), (c, d, b), (b, a, c), (d, c, a)] {
            if k(p) == k(q) {
                continue;
            }
            for &z in g.neighbors(v) {
                if z != p {
                    self.bump_wedge(canon_wedge(k(p), k(v), k(z)), -1);
                    self.bump_wedge(canon_wedge(k(q), k(v), k(z)), 1);
                }
            }
        }
        self.track_triangles(g, deg, (a, b), &[], -1);
        self.track_triangles(g, deg, (c, d), &[], -1);
        self.track_triangles(g, deg, (a, d), &[b, c], 1);
        self.track_triangles(g, deg, (c, b), &[a, d], 1);
    }

    /// Bumps the triangles `{x, y, z}` over `z ∈ N(x) ∩ N(y) ∖ skip` by
    /// `dv`, and each of their three closed paths by `−dv` on the
    /// open-wedge side. Scans the shorter sorted list and binary-searches
    /// the longer one, so `z` ascends either way.
    fn track_triangles<G: AdjacencyView + ?Sized>(
        &mut self,
        g: &G,
        deg: &[Degree],
        (x, y): (u32, u32),
        skip: &[u32],
        dv: i64,
    ) {
        let (nx, ny) = (g.neighbors(x), g.neighbors(y));
        let (short, long) = if nx.len() <= ny.len() {
            (nx, ny)
        } else {
            (ny, nx)
        };
        let (kx, ky) = (deg[x as usize], deg[y as usize]);
        for &z in short {
            if skip.contains(&z) || long.binary_search(&z).is_err() {
                continue;
            }
            let kz = deg[z as usize];
            self.bump_tri(canon_triangle(kx, ky, kz), dv);
            self.bump_wedge(canon_wedge(ky, kx, kz), -dv);
            self.bump_wedge(canon_wedge(kx, ky, kz), -dv);
            self.bump_wedge(canon_wedge(kx, kz, ky), -dv);
        }
    }

    fn bump_wedge(&mut self, key: (Degree, Degree, Degree), dv: i64) {
        *self.wedges.entry(key).or_insert(0) += dv;
    }

    fn bump_tri(&mut self, key: (Degree, Degree, Degree), dv: i64) {
        *self.triangles.entry(key).or_insert(0) += dv;
    }
}

/// Captures the degree vector used as frozen keys during a swap.
pub fn frozen_degrees(g: &Graph) -> Vec<Degree> {
    g.degrees().iter().map(|&d| d as Degree).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;
    use dk_mcmc::{apply_swap, propose_swap, ProposalKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Oracle: delta computed by full re-extraction.
    fn oracle_delta(before: &Dist3K, after: &Dist3K) -> Delta3K {
        let mut d = Delta3K::default();
        let keys: std::collections::BTreeSet<_> = before
            .wedges
            .keys()
            .chain(after.wedges.keys())
            .copied()
            .collect();
        for k in keys {
            let dv = after.wedges.get(&k).copied().unwrap_or(0) as i64
                - before.wedges.get(&k).copied().unwrap_or(0) as i64;
            if dv != 0 {
                d.wedges.insert(k, dv);
            }
        }
        let keys: std::collections::BTreeSet<_> = before
            .triangles
            .keys()
            .chain(after.triangles.keys())
            .copied()
            .collect();
        for k in keys {
            let dv = after.triangles.get(&k).copied().unwrap_or(0) as i64
                - before.triangles.get(&k).copied().unwrap_or(0) as i64;
            if dv != 0 {
                d.triangles.insert(k, dv);
            }
        }
        d
    }

    type SortedDelta = Vec<((u32, u32, u32), i64)>;

    fn normalize(d: &Delta3K) -> (SortedDelta, SortedDelta) {
        let mut w: Vec<_> = d
            .wedges
            .iter()
            .filter(|(_, &v)| v != 0)
            .map(|(&k, &v)| (k, v))
            .collect();
        let mut t: Vec<_> = d
            .triangles
            .iter()
            .filter(|(_, &v)| v != 0)
            .map(|(&k, &v)| (k, v))
            .collect();
        w.sort_unstable();
        t.sort_unstable();
        (w, t)
    }

    #[test]
    fn full_swap_delta_matches_oracle() {
        // A full degree-preserving swap keeps endpoint degrees intact, so
        // the frozen-degree swap delta, read off the pre-swap graph, must
        // equal the re-extraction delta.
        let g0 = builders::karate_club();
        let before = Dist3K::from_graph(&g0);
        let deg = frozen_degrees(&g0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut done = 0;
        while done < 30 {
            let Ok(p) = propose_swap(g0.edge_list(), ProposalKind::Plain, &mut rng) else {
                continue;
            };
            let mut delta = Delta3K::default();
            delta.track_swap(&g0, &deg, p.remove);
            let mut g = g0.clone();
            apply_swap(&mut g, &p);
            let after = Dist3K::from_graph(&g);
            let want = oracle_delta(&before, &after);
            assert_eq!(normalize(&delta), normalize(&want));
            // and applying the delta to `before` gives `after`
            let mut patched = before.clone();
            delta.apply_to(&mut patched);
            assert_eq!(patched, after);
            done += 1;
        }
    }

    #[test]
    fn zero_delta_detection() {
        let mut d = Delta3K::default();
        assert!(d.is_zero());
        d.bump_wedge((1, 2, 3), 1);
        assert!(!d.is_zero());
        d.bump_wedge((1, 2, 3), -1);
        assert!(d.is_zero()); // cancelled entries count as zero
        d.clear();
        assert!(d.is_zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn apply_to_catches_underflow() {
        let mut d = Delta3K::default();
        d.bump_tri((2, 2, 2), -1);
        let mut dist = Dist3K::default();
        d.apply_to(&mut dist);
    }
}
