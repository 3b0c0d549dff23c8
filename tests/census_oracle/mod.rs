//! The 3K census as it ran before `Dist3K` became one sorted census: two
//! hash maps filled by a scan of every neighbour pair, written by sorting
//! their entries, compared by an f64 sum in map order, patched by
//! `Delta3K::apply_to` and reduced to a JDD through a hash-map incidence.
//! The oracle of `census_equivalence` and of the 3K chain oracles in
//! `mcmc_equivalence`.
#![allow(dead_code)]

use dk_repro::core::dist::{canon_pair, canon_triangle, canon_wedge, Degree, Dist2K, Dist3K};
use dk_repro::core::generate::delta::Delta3K;
use dk_repro::graph::hashers::{det_hash_map, DetHashMap};
use dk_repro::graph::{Graph, GraphError};
use std::io::Write;

/// A 3K key.
pub type Key = (Degree, Degree, Degree);

/// The pre-change `Dist3K`: wedge and triangle counts in hash maps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MapCensus {
    /// Induced-wedge counts per canonical `(end, center, end)` triple.
    pub wedges: DetHashMap<Key, u64>,
    /// Triangle counts per sorted degree triple.
    pub triangles: DetHashMap<Key, u64>,
}

impl MapCensus {
    /// The wedge/triangle census by the neighbour-pair scan: `O(Σ_v
    /// deg(v)²)` pairs with an adjacency test each.
    pub fn from_graph(g: &Graph) -> Self {
        let mut d = MapCensus::default();
        let deg: Vec<Degree> = g.degrees().iter().map(|&x| x as Degree).collect();
        for u in 0..g.node_count() as u32 {
            let nbrs = g.neighbors(u);
            for i in 0..nbrs.len() {
                for j in (i + 1)..nbrs.len() {
                    let (v, w) = (nbrs[i], nbrs[j]);
                    if g.has_edge(v, w) {
                        // triangle {u, v, w}: count once, from its
                        // smallest-id corner (v < w always holds here)
                        if u < v {
                            let key =
                                canon_triangle(deg[u as usize], deg[v as usize], deg[w as usize]);
                            *d.triangles.entry(key).or_insert(0) += 1;
                        }
                    } else {
                        // induced wedge v — u — w, centered at u
                        let key = canon_wedge(deg[v as usize], deg[u as usize], deg[w as usize]);
                        *d.wedges.entry(key).or_insert(0) += 1;
                    }
                }
            }
        }
        d
    }

    /// The maps of a sorted census (filled in its order).
    pub fn of(d: &Dist3K) -> Self {
        MapCensus {
            wedges: d.wedges().iter().copied().collect(),
            triangles: d.triangles().iter().copied().collect(),
        }
    }

    /// The sorted census of these maps.
    pub fn to_sorted(&self) -> Dist3K {
        Dist3K::from_entries(self.wedges.clone(), self.triangles.clone())
            .expect("map entries are distinct")
    }

    /// Entries in deterministic order: wedges then triangles, each sorted
    /// by key. The `bool` is `true` for triangles.
    pub fn sorted_entries(&self) -> Vec<(bool, Key, u64)> {
        let mut w: Vec<_> = self.wedges.iter().map(|(&k, &c)| (false, k, c)).collect();
        let mut t: Vec<_> = self.triangles.iter().map(|(&k, &c)| (true, k, c)).collect();
        w.sort_unstable();
        t.sort_unstable();
        w.extend(t);
        w
    }

    /// The `.3k` text `io::write_3k` wrote: a sort, then `writeln!`.
    pub fn write_3k<W: Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "# dK-series 3K distribution: `W k1 k2 k3 n` (wedge, center k2) / `T k1 k2 k3 n` (triangle)"
        )?;
        for (is_tri, (a, b, c), n) in self.sorted_entries() {
            let tag = if is_tri { 'T' } else { 'W' };
            writeln!(w, "{tag} {a} {b} {c} {n}")?;
        }
        Ok(())
    }

    /// `D_3` as an f64 sum in the maps' iteration order.
    pub fn distance_sq(&self, other: &MapCensus) -> f64 {
        fn half(a: &DetHashMap<Key, u64>, b: &DetHashMap<Key, u64>) -> f64 {
            let mut acc = 0.0;
            for (k, &x) in a {
                let y = b.get(k).copied().unwrap_or(0);
                acc += (x as f64 - y as f64).powi(2);
            }
            for (k, &y) in b {
                if !a.contains_key(k) {
                    acc += (y as f64).powi(2);
                }
            }
            acc
        }
        half(&self.wedges, &other.wedges) + half(&self.triangles, &other.triangles)
    }

    /// `Delta3K::apply_to`: adds a swap delta, dropping keys whose count
    /// reaches zero.
    ///
    /// # Panics
    /// Panics if a count would go negative (a bookkeeping bug).
    pub fn apply(&mut self, delta: &Delta3K) {
        for (map, changes) in [
            (&mut self.wedges, &delta.wedges),
            (&mut self.triangles, &delta.triangles),
        ] {
            for (&key, &dv) in changes {
                if dv == 0 {
                    continue;
                }
                let e = map.entry(key).or_insert(0);
                let nv = (*e as i64) + dv;
                assert!(nv >= 0, "count underflow at {key:?}");
                if nv == 0 {
                    map.remove(&key);
                } else {
                    *e = nv as u64;
                }
            }
        }
    }

    /// `Dist3K::to_2k_checked` over a hash-map incidence, naming the
    /// first inconsistent class in that map's order.
    pub fn to_2k_checked(&self) -> Result<Dist2K, GraphError> {
        let mut incidence: DetHashMap<(Degree, Degree), u64> = det_hash_map();
        for (&(a, b, c), &n) in &self.wedges {
            *incidence.entry(canon_pair(a, b)).or_insert(0) += n;
            *incidence.entry(canon_pair(b, c)).or_insert(0) += n;
        }
        for (&(a, b, c), &n) in &self.triangles {
            for key in [canon_pair(a, b), canon_pair(b, c), canon_pair(a, c)] {
                *incidence.entry(key).or_insert(0) += 2 * n;
            }
        }
        let mut d = Dist2K::default();
        for (&(k1, k2), &inc) in &incidence {
            let div = (k1 + k2) as u64 - 2;
            if div == 0 {
                continue;
            }
            if !inc.is_multiple_of(div) {
                return Err(GraphError::NotGraphical(format!(
                    "3K inconsistent: class ({k1}, {k2})"
                )));
            }
            if inc / div > 0 {
                d.counts.insert((k1, k2), inc / div);
            }
        }
        Ok(d)
    }
}
