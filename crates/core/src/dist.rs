//! The dK-distributions for `d = 0..=3` (paper §3).
//!
//! A dK-distribution records degree correlations within connected
//! subgraphs of `d` nodes:
//!
//! * [`Dist0K`] — average degree `k̄` (equivalently `(n, m)`);
//! * [`Dist1K`] — degree distribution `n(k)`;
//! * [`Dist2K`] — joint degree distribution `m(k1, k2)`;
//! * [`Dist3K`] — wedge (`P∧`) and triangle (`P△`) histograms over
//!   **induced** node triples (see the crate docs for the convention).
//!
//! Each type supports extraction (`from_graph`), the Table 1 derivation
//! maps (`to_1k`, `to_2k`, `to_0k`) and the squared distance `D_d` of
//! §4.1.4 (`distance_sq`) as inherent methods; Orbis-style text I/O lives
//! in [`crate::io`] and §6 rescaling in [`crate::rescale`].
//!
//! ## One family, one runtime type
//!
//! [`AnyDist`] holds "a dK-distribution of runtime-chosen `d`" — the
//! input type of the [`crate::generate::Generator`] facade — and
//! dispatches extraction, I/O, distance and rescaling to the concrete
//! type of its order:
//!
//! ```
//! use dk_core::dist::AnyDist;
//! use dk_graph::builders;
//!
//! let g = builders::karate_club();
//! let dist = AnyDist::from_graph(2, &g).unwrap();
//! assert_eq!(dist.order(), 2);
//! ```

use dk_graph::hashers::{det_hash_map, DetHashMap};
use dk_graph::{degree, Graph, GraphError};
use std::collections::BTreeMap;
use std::io::{Read, Write};

/// Node degree, as used in distribution keys.
pub type Degree = u32;

/// Canonical (sorted) form of an unordered degree pair.
#[inline]
pub fn canon_pair(a: Degree, b: Degree) -> (Degree, Degree) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Canonical form of a wedge `a — center — b`: ends sorted, center kept
/// in the middle position.
#[inline]
pub fn canon_wedge(a: Degree, center: Degree, b: Degree) -> (Degree, Degree, Degree) {
    if a <= b {
        (a, center, b)
    } else {
        (b, center, a)
    }
}

/// Canonical (sorted) form of a triangle's degree triple.
#[inline]
pub fn canon_triangle(a: Degree, b: Degree, c: Degree) -> (Degree, Degree, Degree) {
    let mut t = [a, b, c];
    t.sort_unstable();
    (t[0], t[1], t[2])
}

// ---------------------------------------------------------------------
// 0K
// ---------------------------------------------------------------------

/// The 0K-distribution: node and edge totals (equivalently `k̄`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Dist0K {
    /// Number of nodes `n`.
    pub nodes: usize,
    /// Number of edges `m`.
    pub edges: usize,
}

impl Dist0K {
    /// Extracts `(n, m)` from a graph.
    pub fn from_graph(g: &Graph) -> Self {
        Dist0K {
            nodes: g.node_count(),
            edges: g.edge_count(),
        }
    }

    /// Average degree `k̄ = 2m/n` (0 for the empty graph).
    pub fn k_avg(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            2.0 * self.edges as f64 / self.nodes as f64
        }
    }

    /// Edge probability of the matching `G(n, p)`: `m / C(n, 2)`
    /// (so the expected edge count of the 0K construction equals `m`).
    pub fn edge_probability(&self) -> f64 {
        let pairs = self.nodes as f64 * (self.nodes as f64 - 1.0) / 2.0;
        if pairs <= 0.0 {
            0.0
        } else {
            self.edges as f64 / pairs
        }
    }

    /// Squared distance `D_0`: squared differences of node and edge
    /// totals.
    pub fn distance_sq(&self, other: &Dist0K) -> f64 {
        let dn = self.nodes as f64 - other.nodes as f64;
        let dm = self.edges as f64 - other.edges as f64;
        dn * dn + dm * dm
    }
}

// ---------------------------------------------------------------------
// 1K
// ---------------------------------------------------------------------

/// The 1K-distribution: degree histogram `counts[k] = n(k)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Dist1K {
    /// `counts[k]` is the number of nodes of degree `k`.
    pub counts: Vec<usize>,
}

impl Dist1K {
    /// Extracts the degree histogram from a graph.
    pub fn from_graph(g: &Graph) -> Self {
        Dist1K {
            counts: degree::degree_histogram(g),
        }
    }

    /// Builds from an explicit degree sequence.
    pub fn from_degree_sequence(seq: &[usize]) -> Self {
        let kmax = seq.iter().copied().max().unwrap_or(0);
        let mut counts = vec![0usize; kmax + 1];
        for &k in seq {
            counts[k] += 1;
        }
        Dist1K { counts }
    }

    /// Total number of nodes `n = Σ_k n(k)`.
    pub fn nodes(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Total degree `Σ_k k·n(k)`.
    pub fn degree_sum(&self) -> usize {
        self.counts.iter().enumerate().map(|(k, &c)| k * c).sum()
    }

    /// Edge count `m = Σ k·n(k) / 2`.
    ///
    /// # Errors
    /// [`GraphError::NotGraphical`] if the degree sum is odd (handshake
    /// lemma — not realizable even as a multigraph).
    pub fn edges(&self) -> Result<usize, GraphError> {
        let sum = self.degree_sum();
        if !sum.is_multiple_of(2) {
            return Err(GraphError::NotGraphical(format!("degree sum {sum} is odd")));
        }
        Ok(sum / 2)
    }

    /// Erdős–Gallai test: realizable as a **simple** graph?
    pub fn is_graphical(&self) -> bool {
        degree::is_graphical(&self.to_degree_sequence())
    }

    /// Expands the histogram back into an explicit sequence (ascending).
    pub fn to_degree_sequence(&self) -> Vec<usize> {
        let mut seq = Vec::with_capacity(self.nodes());
        for (k, &c) in self.counts.iter().enumerate() {
            seq.extend(std::iter::repeat_n(k, c));
        }
        seq
    }

    /// Fraction of nodes with degree `k`.
    pub fn pk(&self, k: usize) -> f64 {
        let n = self.nodes();
        if n == 0 {
            0.0
        } else {
            self.counts.get(k).copied().unwrap_or(0) as f64 / n as f64
        }
    }

    /// Table 1 inclusion: forgets everything but `(n, m)`.
    ///
    /// An odd degree sum rounds `m` down (only reachable on distributions
    /// that no construction would accept anyway).
    pub fn to_0k(&self) -> Dist0K {
        Dist0K {
            nodes: self.nodes(),
            edges: self.degree_sum() / 2,
        }
    }

    /// Squared distance `D_1 = Σ_k (n_a(k) − n_b(k))²`.
    pub fn distance_sq(&self, other: &Dist1K) -> f64 {
        let len = self.counts.len().max(other.counts.len());
        let mut acc = 0.0;
        for k in 0..len {
            let a = self.counts.get(k).copied().unwrap_or(0) as f64;
            let b = other.counts.get(k).copied().unwrap_or(0) as f64;
            acc += (a - b) * (a - b);
        }
        acc
    }
}

// ---------------------------------------------------------------------
// 2K
// ---------------------------------------------------------------------

/// The 2K-distribution (joint degree distribution): `m(k1, k2)` edges
/// between degree-`k1` and degree-`k2` nodes, keyed canonically
/// (`k1 ≤ k2`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Dist2K {
    /// Edge counts per canonical degree pair.
    pub counts: DetHashMap<(Degree, Degree), u64>,
}

impl Dist2K {
    /// Extracts the JDD from a graph.
    pub fn from_graph(g: &Graph) -> Self {
        let mut counts = det_hash_map();
        for &(u, v) in g.edges() {
            let key = canon_pair(g.degree(u) as Degree, g.degree(v) as Degree);
            *counts.entry(key).or_insert(0) += 1;
        }
        Dist2K { counts }
    }

    /// Edge count between degree classes `k1` and `k2` (order-free).
    pub fn m(&self, k1: Degree, k2: Degree) -> u64 {
        self.counts.get(&canon_pair(k1, k2)).copied().unwrap_or(0)
    }

    /// Total edges `m = Σ m(k1, k2)`.
    pub fn edges(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of edge-ends ("stubs") attached to degree-`k` nodes:
    /// `Σ_{k'} m(k, k') + m(k, k)` (diagonal cells contribute two ends).
    pub fn stubs_of_degree(&self, k: Degree) -> u64 {
        let mut stubs = 0;
        for (&(k1, k2), &c) in &self.counts {
            if k1 == k {
                stubs += c;
            }
            if k2 == k {
                stubs += c;
            }
        }
        stubs
    }

    /// Entries sorted by key — deterministic order for output and tests.
    pub fn sorted_entries(&self) -> Vec<((Degree, Degree), u64)> {
        let mut v: Vec<_> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        v.sort_unstable();
        v
    }

    /// Table 1 inclusion: derives the degree histogram. Each degree class
    /// `k` must own a multiple of `k` stubs; `n(k) = stubs(k)/k`.
    ///
    /// Isolated (degree-0) nodes are invisible to a JDD, so they are
    /// absent from the result.
    ///
    /// Nothing is sized before the classes are checked: the stubs are
    /// totalled per degree in an ordered map, the classes are checked for
    /// divisibility in ascending order, and the node count `n = Σ n(k)` is
    /// summed. A degree of `n` or more is refused, since no node of a
    /// simple graph on `n` nodes has that many neighbours, so the dense
    /// histogram built last is at most `n` long. A key whose count is 0
    /// owns no stubs and sizes nothing.
    ///
    /// # Errors
    /// [`GraphError::NotGraphical`] if a key mentions degree 0, a class's
    /// stub total or the node total overflows, some class's stub count is
    /// not divisible by its degree (the smallest such class is named), or
    /// a degree is impossible for the implied node count (the smallest is
    /// named).
    pub fn to_1k(&self) -> Result<Dist1K, GraphError> {
        if self.counts.keys().any(|&(k1, k2)| k1 == 0 || k2 == 0) {
            return Err(GraphError::NotGraphical(
                "2K key mentions degree 0 (degree-0 nodes cannot carry edges)".into(),
            ));
        }
        let mut stubs: BTreeMap<Degree, u64> = BTreeMap::new();
        for (&(k1, k2), &c) in &self.counts {
            if c == 0 {
                continue;
            }
            for k in [k1, k2] {
                let s = stubs.entry(k).or_insert(0);
                *s = s.checked_add(c).ok_or_else(|| {
                    GraphError::NotGraphical(format!(
                        "2K inconsistent: the stubs of degree class {k} overflow a u64"
                    ))
                })?;
            }
        }
        let mut nodes: u64 = 0;
        for (&k, &s) in &stubs {
            if !s.is_multiple_of(u64::from(k)) {
                return Err(GraphError::NotGraphical(format!(
                    "2K inconsistent: degree class {k} owns {s} stubs, not divisible by {k}"
                )));
            }
            nodes = nodes.checked_add(s / u64::from(k)).ok_or_else(|| {
                GraphError::NotGraphical("2K inconsistent: the node total overflows a u64".into())
            })?;
        }
        // a node total past u32 allows every degree
        let impossible = u32::try_from(nodes)
            .ok()
            .and_then(|n| stubs.range(n..).next());
        if let Some((&k, _)) = impossible {
            return Err(GraphError::NotGraphical(format!(
                "2K inconsistent: degree {k} is impossible: the classes total {nodes} nodes"
            )));
        }
        let len = stubs.last_key_value().map_or(0, |(&k, _)| k as usize + 1);
        let mut counts = vec![0usize; len];
        for (k, s) in stubs {
            counts[k as usize] = (s / u64::from(k)) as usize;
        }
        Ok(Dist1K { counts })
    }

    /// Consistency check: canonical keys, no degree-0 classes, per-class
    /// stub divisibility (i.e. [`Dist2K::to_1k`] succeeds).
    pub fn validate(&self) -> Result<(), GraphError> {
        for &(k1, k2) in self.counts.keys() {
            if k1 > k2 {
                return Err(GraphError::NotGraphical(format!(
                    "2K key ({k1}, {k2}) is not canonical (k1 must be ≤ k2)"
                )));
            }
        }
        self.to_1k().map(drop)
    }

    /// Squared distance `D_2 = Σ (m_a(k1,k2) − m_b(k1,k2))²` (§4.1.4).
    pub fn distance_sq(&self, other: &Dist2K) -> f64 {
        let mut acc = 0.0;
        for (k, &a) in &self.counts {
            let b = other.counts.get(k).copied().unwrap_or(0);
            acc += (a as f64 - b as f64).powi(2);
        }
        for (k, &b) in &other.counts {
            if !self.counts.contains_key(k) {
                acc += (b as f64).powi(2);
            }
        }
        acc
    }
}

// ---------------------------------------------------------------------
// 3K
// ---------------------------------------------------------------------

/// The 3K-distribution: wedge and triangle histograms over **induced**
/// connected node triples.
///
/// * a wedge key `(k1, k2, k3)` has the *center* degree in the middle and
///   sorted end degrees (`k1 ≤ k3`);
/// * a triangle key is fully sorted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Dist3K {
    /// Induced-wedge counts per canonical `(end, center, end)` triple.
    pub wedges: DetHashMap<(Degree, Degree, Degree), u64>,
    /// Triangle counts per sorted degree triple.
    pub triangles: DetHashMap<(Degree, Degree, Degree), u64>,
}

impl Dist3K {
    /// Extracts the wedge/triangle census from a graph.
    ///
    /// Cost: `O(Σ_v deg(v)²)` neighbor-pair enumeration with an
    /// `O(log deg)` adjacency test per pair.
    pub fn from_graph(g: &Graph) -> Self {
        let mut d = Dist3K::default();
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

    /// Wedge count for ends `a, b` and center `center` (end-order-free).
    pub fn wedge(&self, a: Degree, center: Degree, b: Degree) -> u64 {
        self.wedges
            .get(&canon_wedge(a, center, b))
            .copied()
            .unwrap_or(0)
    }

    /// Triangle count for a degree triple (order-free).
    pub fn triangle(&self, a: Degree, b: Degree, c: Degree) -> u64 {
        self.triangles
            .get(&canon_triangle(a, b, c))
            .copied()
            .unwrap_or(0)
    }

    /// Total induced wedges `Σ P∧`.
    pub fn wedge_total(&self) -> u64 {
        self.wedges.values().sum()
    }

    /// Total triangles `Σ P△`.
    pub fn triangle_total(&self) -> u64 {
        self.triangles.values().sum()
    }

    /// Second-order likelihood `S2 = Σ_wedges k_end · k_end'` — the §4.3
    /// scalar summary of the wedge component.
    pub fn s2(&self) -> f64 {
        self.wedges
            .iter()
            .map(|(&(a, _, c), &n)| a as f64 * c as f64 * n as f64)
            .sum()
    }

    /// Entries in deterministic order: wedges then triangles, each sorted
    /// by key. The `bool` is `true` for triangles.
    pub fn sorted_entries(&self) -> Vec<(bool, (Degree, Degree, Degree), u64)> {
        let mut w: Vec<_> = self.wedges.iter().map(|(&k, &c)| (false, k, c)).collect();
        let mut t: Vec<_> = self.triangles.iter().map(|(&k, &c)| (true, k, c)).collect();
        w.sort_unstable();
        t.sort_unstable();
        w.extend(t);
        w
    }

    /// Table 1 derivation: recovers the JDD from the wedge/triangle
    /// censuses.
    ///
    /// Every edge of class `(k1, k2)` lies in exactly `k1 + k2 − 2`
    /// connected triples: `(k1 − 1) − t` wedges centered at its first
    /// endpoint, `(k2 − 1) − t` at its second, and `t` triangles (where
    /// `t` is the edge's common-neighbor count). Summing *wedge leg*
    /// incidences plus **twice** the triangle edge incidences therefore
    /// gives `m(k1, k2) · (k1 + k2 − 2)` per class, independent of `t`.
    ///
    /// Blind spot: `(1, 1)`-edges (isolated edges) lie in no triple and
    /// cannot be recovered — exactly the paper's observation that the
    /// inclusion holds on connected components of ≥ 3 nodes.
    ///
    /// Graph-extracted 3Ks are always consistent; on a hand-edited
    /// distribution whose incidences don't divide, this rounds the class
    /// counts down. Use [`Dist3K::to_2k_checked`] when the input is
    /// untrusted (e.g. parsed from a file).
    pub fn to_2k(&self) -> Dist2K {
        let (d, _consistent) = self.derive_2k();
        d
    }

    /// [`Dist3K::to_2k`] that rejects inconsistent inputs instead of
    /// rounding: every class incidence must divide by `k1 + k2 − 2`.
    ///
    /// # Errors
    /// [`GraphError::NotGraphical`] when some incidence doesn't divide —
    /// no graph can have this wedge/triangle census.
    pub fn to_2k_checked(&self) -> Result<Dist2K, GraphError> {
        match self.derive_2k() {
            (d, None) => Ok(d),
            (_, Some((k1, k2))) => Err(GraphError::NotGraphical(format!(
                "3K inconsistent: class ({k1}, {k2}) incidence is not divisible by \
                 {} — no graph realizes this wedge/triangle census",
                (k1 + k2) as u64 - 2
            ))),
        }
    }

    /// Shared 3K → 2K derivation; returns the (floor-divided) JDD plus
    /// the first inconsistent class, if any.
    fn derive_2k(&self) -> (Dist2K, Option<(Degree, Degree)>) {
        let mut incidence: DetHashMap<(Degree, Degree), u64> = det_hash_map();
        for (&(a, b, c), &n) in &self.wedges {
            // legs of the wedge a — b — c
            *incidence.entry(canon_pair(a, b)).or_insert(0) += n;
            *incidence.entry(canon_pair(b, c)).or_insert(0) += n;
        }
        for (&(a, b, c), &n) in &self.triangles {
            for key in [canon_pair(a, b), canon_pair(b, c), canon_pair(a, c)] {
                *incidence.entry(key).or_insert(0) += 2 * n;
            }
        }
        let mut d = Dist2K::default();
        let mut inconsistent = None;
        for (&(k1, k2), &inc) in &incidence {
            let div = (k1 + k2) as u64 - 2;
            if div == 0 {
                continue;
            }
            if !inc.is_multiple_of(div) && inconsistent.is_none() {
                inconsistent = Some((k1, k2));
            }
            let m = inc / div;
            if m > 0 {
                d.counts.insert((k1, k2), m);
            }
        }
        (d, inconsistent)
    }

    /// Squared distance `D_3`: wedge plus triangle squared differences.
    pub fn distance_sq(&self, other: &Dist3K) -> f64 {
        fn half(
            a: &DetHashMap<(Degree, Degree, Degree), u64>,
            b: &DetHashMap<(Degree, Degree, Degree), u64>,
        ) -> f64 {
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
}

// ---------------------------------------------------------------------
// Type erasure
// ---------------------------------------------------------------------

/// A dK-distribution whose order `d` is chosen at runtime.
///
/// This is the input type of the [`crate::generate::Generator`] facade:
/// CLI and harness code that reads "a dK-distribution file of order `d`"
/// holds an `AnyDist` and never matches on `d` itself.
#[derive(Clone, Debug, PartialEq)]
pub enum AnyDist {
    /// `d = 0`.
    D0(Dist0K),
    /// `d = 1`.
    D1(Dist1K),
    /// `d = 2`.
    D2(Dist2K),
    /// `d = 3`.
    D3(Dist3K),
}

impl AnyDist {
    /// Extracts the order-`d` distribution of a graph.
    ///
    /// # Errors
    /// [`GraphError::ConstructionFailed`] for `d > 3`.
    pub fn from_graph(d: u8, g: &Graph) -> Result<Self, GraphError> {
        Ok(match d {
            0 => AnyDist::D0(Dist0K::from_graph(g)),
            1 => AnyDist::D1(Dist1K::from_graph(g)),
            2 => AnyDist::D2(Dist2K::from_graph(g)),
            3 => AnyDist::D3(Dist3K::from_graph(g)),
            other => {
                return Err(GraphError::ConstructionFailed(format!(
                    "the dK-series is implemented for d ≤ 3, got {other}"
                )))
            }
        })
    }

    /// Reads an order-`d` distribution from its Orbis-style text form.
    pub fn read<R: Read>(d: u8, r: R) -> Result<Self, GraphError> {
        Ok(match d {
            0 => AnyDist::D0(crate::io::read_0k(r)?),
            1 => AnyDist::D1(crate::io::read_1k(r)?),
            2 => AnyDist::D2(crate::io::read_2k(r)?),
            3 => AnyDist::D3(crate::io::read_3k(r)?),
            other => {
                return Err(GraphError::ConstructionFailed(format!(
                    "the dK-series is implemented for d ≤ 3, got {other}"
                )))
            }
        })
    }

    /// Writes the Orbis-style text form of the wrapped distribution.
    pub fn write<W: Write>(&self, w: W) -> Result<(), GraphError> {
        match self {
            AnyDist::D0(d) => crate::io::write_0k(d, w),
            AnyDist::D1(d) => crate::io::write_1k(d, w),
            AnyDist::D2(d) => crate::io::write_2k(d, w),
            AnyDist::D3(d) => crate::io::write_3k(d, w),
        }
    }

    /// The order `d` of the wrapped distribution.
    pub fn order(&self) -> u8 {
        match self {
            AnyDist::D0(_) => 0,
            AnyDist::D1(_) => 1,
            AnyDist::D2(_) => 2,
            AnyDist::D3(_) => 3,
        }
    }

    /// Squared distance to another distribution; `None` when the orders
    /// differ (the metric is only defined within one order).
    pub fn distance_sq(&self, other: &AnyDist) -> Option<f64> {
        match (self, other) {
            (AnyDist::D0(a), AnyDist::D0(b)) => Some(a.distance_sq(b)),
            (AnyDist::D1(a), AnyDist::D1(b)) => Some(a.distance_sq(b)),
            (AnyDist::D2(a), AnyDist::D2(b)) => Some(a.distance_sq(b)),
            (AnyDist::D3(a), AnyDist::D3(b)) => Some(a.distance_sq(b)),
            _ => None,
        }
    }

    /// Rescales the wrapped distribution (§6); errors for 3K.
    pub fn rescale(&self, new_nodes: usize) -> Result<Self, GraphError> {
        Ok(match self {
            AnyDist::D0(d) => AnyDist::D0(crate::rescale::rescale_0k(d, new_nodes)),
            AnyDist::D1(d) => AnyDist::D1(crate::rescale::rescale_1k(d, new_nodes)?),
            AnyDist::D2(d) => AnyDist::D2(crate::rescale::rescale_2k(d, new_nodes)?),
            AnyDist::D3(_) => {
                return Err(GraphError::ConstructionFailed(
                    "3K rescaling is not defined: the paper's §6 strategy stops at 2K \
                     (rescale the derived 2K instead, via to_2k())"
                        .into(),
                ))
            }
        })
    }

    /// The wrapped [`Dist0K`], if `d = 0`.
    pub fn as_0k(&self) -> Option<&Dist0K> {
        match self {
            AnyDist::D0(d) => Some(d),
            _ => None,
        }
    }

    /// The wrapped [`Dist1K`], if `d = 1`.
    pub fn as_1k(&self) -> Option<&Dist1K> {
        match self {
            AnyDist::D1(d) => Some(d),
            _ => None,
        }
    }

    /// The wrapped [`Dist2K`], if `d = 2`.
    pub fn as_2k(&self) -> Option<&Dist2K> {
        match self {
            AnyDist::D2(d) => Some(d),
            _ => None,
        }
    }

    /// The wrapped [`Dist3K`], if `d = 3`.
    pub fn as_3k(&self) -> Option<&Dist3K> {
        match self {
            AnyDist::D3(d) => Some(d),
            _ => None,
        }
    }
}

impl From<Dist0K> for AnyDist {
    fn from(d: Dist0K) -> Self {
        AnyDist::D0(d)
    }
}

impl From<Dist1K> for AnyDist {
    fn from(d: Dist1K) -> Self {
        AnyDist::D1(d)
    }
}

impl From<Dist2K> for AnyDist {
    fn from(d: Dist2K) -> Self {
        AnyDist::D2(d)
    }
}

impl From<Dist3K> for AnyDist {
    fn from(d: Dist3K) -> Self {
        AnyDist::D3(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;

    #[test]
    fn canonicalizers() {
        assert_eq!(canon_pair(3, 2), (2, 3));
        assert_eq!(canon_pair(2, 3), (2, 3));
        assert_eq!(canon_wedge(5, 1, 3), (3, 1, 5));
        assert_eq!(canon_wedge(3, 1, 5), (3, 1, 5));
        assert_eq!(canon_triangle(3, 1, 2), (1, 2, 3));
    }

    #[test]
    fn dist0k_basics() {
        let d = Dist0K::from_graph(&builders::karate_club());
        assert_eq!(
            d,
            Dist0K {
                nodes: 34,
                edges: 78
            }
        );
        assert!((d.k_avg() - 2.0 * 78.0 / 34.0).abs() < 1e-12);
        let p = d.edge_probability();
        assert!((p - 78.0 / (34.0 * 33.0 / 2.0)).abs() < 1e-12);
        assert_eq!(d.distance_sq(&d), 0.0);
        assert_eq!(Dist0K::default().k_avg(), 0.0);
        assert_eq!(Dist0K::default().edge_probability(), 0.0);
    }

    #[test]
    fn dist1k_extraction_and_sequence() {
        let star = builders::star(4);
        let d = Dist1K::from_graph(&star);
        assert_eq!(d.counts, vec![0, 4, 0, 0, 1]);
        assert_eq!(d.nodes(), 5);
        assert_eq!(d.edges().unwrap(), 4);
        assert_eq!(d.to_degree_sequence(), vec![1, 1, 1, 1, 4]);
        assert!(d.is_graphical());
        assert!((d.pk(1) - 0.8).abs() < 1e-12);
        assert_eq!(d.to_0k(), Dist0K { nodes: 5, edges: 4 });

        let odd = Dist1K::from_degree_sequence(&[3, 1, 1]);
        assert!(odd.edges().is_err());

        let non_graphical = Dist1K::from_degree_sequence(&[5, 5, 1, 1, 1, 1]);
        assert!(
            non_graphical.edges().is_ok(),
            "even sum passes the cheap check"
        );
        assert!(!non_graphical.is_graphical());
    }

    #[test]
    fn dist1k_distance() {
        let a = Dist1K::from_degree_sequence(&[1, 1, 2, 2]);
        let b = Dist1K::from_degree_sequence(&[1, 1, 1, 1]);
        // counts a = [0,2,2], b = [0,4]: diff at k=1 is 2, at k=2 is 2
        assert_eq!(a.distance_sq(&b), 8.0);
        assert_eq!(a.distance_sq(&a), 0.0);
    }

    #[test]
    fn dist2k_extraction_on_star() {
        let d = Dist2K::from_graph(&builders::star(4));
        assert_eq!(d.m(1, 4), 4);
        assert_eq!(d.m(4, 1), 4, "order-free lookup");
        assert_eq!(d.edges(), 4);
        assert_eq!(d.stubs_of_degree(1), 4);
        assert_eq!(d.stubs_of_degree(4), 4);
        let d1 = d.to_1k().unwrap();
        assert_eq!(d1.counts, vec![0, 4, 0, 0, 1]);
        d.validate().unwrap();
    }

    #[test]
    fn dist2k_diagonal_stubs() {
        // triangle: all edges in class (2,2); stubs(2) = 6
        let d = Dist2K::from_graph(&builders::complete(3));
        assert_eq!(d.m(2, 2), 3);
        assert_eq!(d.stubs_of_degree(2), 6);
        assert_eq!(d.to_1k().unwrap().counts, vec![0, 0, 3]);
    }

    #[test]
    fn dist2k_inconsistencies_rejected() {
        let mut d = Dist2K::default();
        d.counts.insert((5, 7), 1); // class 5 has 1 stub
        assert!(d.to_1k().is_err());
        assert!(d.validate().is_err());

        let mut z = Dist2K::default();
        z.counts.insert((0, 2), 2);
        assert!(z.to_1k().is_err());

        let mut nc = Dist2K::default();
        nc.counts.insert((3, 2), 6); // non-canonical key
        assert!(nc.validate().is_err());
    }

    #[test]
    fn dist3k_census_on_classics() {
        // K3: one triangle (2,2,2), no wedges
        let d = Dist3K::from_graph(&builders::complete(3));
        assert_eq!(d.triangle(2, 2, 2), 1);
        assert_eq!(d.triangle_total(), 1);
        assert_eq!(d.wedge_total(), 0);

        // P4: wedges (1,2,2) ×2 — centered at the two middle nodes
        let d = Dist3K::from_graph(&builders::path(4));
        assert_eq!(d.wedge(1, 2, 2), 2);
        assert_eq!(d.triangle_total(), 0);
        assert_eq!(d.s2(), 4.0);

        // karate: 45 triangles (known), s2 matches the metric suite
        let karate = builders::karate_club();
        let d = Dist3K::from_graph(&karate);
        assert_eq!(d.triangle_total(), 45);
        let s2 = dk_metrics::likelihood::likelihood_s2(&karate);
        assert!((d.s2() - s2).abs() < 1e-9, "{} vs {s2}", d.s2());
    }

    #[test]
    fn inclusion_maps_are_exact() {
        for g in [
            builders::karate_club(),
            builders::petersen(),
            builders::grid(5, 5),
            builders::complete(6),
            builders::star(7),
        ] {
            let d3 = Dist3K::from_graph(&g);
            let d2 = Dist2K::from_graph(&g);
            let d1 = Dist1K::from_graph(&g);
            assert_eq!(d3.to_2k(), d2);
            assert_eq!(d2.to_1k().unwrap(), d1);
            assert_eq!(d1.to_0k(), Dist0K::from_graph(&g));
        }
    }

    #[test]
    fn to_2k_checked_rejects_inconsistent_census() {
        // a single wedge (2, 2, 2): class (2,2) incidence 2, divisor 2 — ok
        let mut d = Dist3K::default();
        d.wedges.insert((2, 2, 2), 1);
        assert!(d.to_2k_checked().is_ok());
        // bump to 3 wedges: incidence 6 over (2,2)... still divisible; use
        // a wedge (2, 3, 2): incidence 2 on class (2,3), divisor 3 — no
        // graph realizes a lone such wedge
        let mut d = Dist3K::default();
        d.wedges.insert((2, 3, 2), 1);
        let err = d.to_2k_checked().unwrap_err();
        assert!(
            err.to_string().contains("3K inconsistent"),
            "unexpected error: {err}"
        );
        // the unchecked derivation still answers (floor), documented
        let _ = d.to_2k();
        // graph-extracted censuses always pass the check
        let g = builders::karate_club();
        assert_eq!(
            Dist3K::from_graph(&g).to_2k_checked().unwrap(),
            Dist2K::from_graph(&g)
        );
    }

    #[test]
    fn isolated_edge_blind_spot() {
        // two disjoint edges: 3K sees nothing, so to_2k loses them
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let d3 = Dist3K::from_graph(&g);
        assert_eq!(d3.wedge_total() + d3.triangle_total(), 0);
        assert_eq!(d3.to_2k(), Dist2K::default());
        // ...while the direct 2K extraction records them
        assert_eq!(Dist2K::from_graph(&g).m(1, 1), 2);
    }

    #[test]
    fn anydist_roundtrip() {
        let g = builders::karate_club();
        for d in 0..=3u8 {
            let dist = AnyDist::from_graph(d, &g).unwrap();
            assert_eq!(dist.order(), d);
            let mut buf = Vec::new();
            dist.write(&mut buf).unwrap();
            let back = AnyDist::read(d, buf.as_slice()).unwrap();
            assert_eq!(back, dist, "d = {d}");
            assert_eq!(dist.distance_sq(&back), Some(0.0));
        }
        assert!(AnyDist::from_graph(4, &g).is_err());
        let a = AnyDist::from_graph(1, &g).unwrap();
        let b = AnyDist::from_graph(2, &g).unwrap();
        assert_eq!(a.distance_sq(&b), None, "cross-order distance undefined");
    }

    #[test]
    fn anydist_rescale_follows_the_paper() {
        let g = builders::karate_club();
        let d1 = AnyDist::from_graph(1, &g).unwrap();
        let r = d1.rescale(68).unwrap();
        assert_eq!(r.as_1k().unwrap().nodes(), 68);
        let d3 = AnyDist::from_graph(3, &g).unwrap();
        assert!(d3.rescale(68).is_err(), "no 3K rescaling strategy");
    }

    #[test]
    fn anydist_accessors_and_from() {
        let g = builders::petersen();
        let d: AnyDist = Dist2K::from_graph(&g).into();
        assert!(d.as_2k().is_some());
        assert!(d.as_1k().is_none());
        assert!(d.as_0k().is_none());
        assert!(d.as_3k().is_none());
    }

    use dk_graph::Graph;
}
