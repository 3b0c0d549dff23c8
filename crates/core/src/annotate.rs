//! Annotated (link-labeled) dK-distributions (paper §6).
//!
//! "In the AS-level topology case, the link types can represent business
//! AS relationships, e.g., customer-provider or peering. … the dK-series
//! would describe correlations among different types of nodes connected
//! by different types of links within d-sized geometries. … we believe
//! that 2K-random annotated graphs could provide appropriate descriptions
//! of observed networks in a variety of settings."
//!
//! This module implements the 2K case the paper singles out: the
//! **annotated JDD** `m(k1, k2, ℓ)` — edge counts between degree classes
//! *per link label* — with extraction, consistency checks, and a
//! pseudograph-style generator whose output matches the annotated JDD
//! exactly before cleanup.

use crate::dist::{canon_pair, Degree, Dist2K, ExactSum};
use dk_graph::hashers::{det_hash_map, DetHashMap};
use dk_graph::{Graph, GraphError, MultiGraph};
use rand::seq::SliceRandom;
use rand::Rng;

/// Link label (e.g. 0 = customer-provider, 1 = peering).
pub type Label = u16;

/// A graph whose edges carry labels.
#[derive(Clone, Debug)]
pub struct LabeledGraph {
    /// The underlying simple graph.
    pub graph: Graph,
    /// Label per canonical edge. Every edge of `graph` must have an entry.
    pub labels: DetHashMap<(u32, u32), Label>,
}

impl LabeledGraph {
    /// Builds from a graph and a labeling function.
    pub fn new_with(graph: Graph, f: impl Fn(u32, u32) -> Label) -> Self {
        let mut labels = det_hash_map();
        for &(u, v) in graph.edges() {
            labels.insert((u, v), f(u, v));
        }
        LabeledGraph { graph, labels }
    }

    /// Label of edge `(u, v)`.
    pub fn label(&self, u: u32, v: u32) -> Option<Label> {
        let key = if u <= v { (u, v) } else { (v, u) };
        self.labels.get(&key).copied()
    }

    /// Checks that every edge is labeled.
    pub fn validate(&self) -> Result<(), GraphError> {
        for &(u, v) in self.graph.edges() {
            if !self.labels.contains_key(&(u, v)) {
                return Err(GraphError::ConstructionFailed(format!(
                    "edge ({u}, {v}) missing a label"
                )));
            }
        }
        Ok(())
    }
}

/// The annotated 2K-distribution: `m(k1, k2, ℓ)` with `k1 ≤ k2`.
#[derive(Clone, Debug, Default)]
pub struct Annotated2K {
    /// Edge counts keyed by (degree pair, label).
    pub counts: DetHashMap<(Degree, Degree, Label), u64>,
}

impl PartialEq for Annotated2K {
    fn eq(&self, other: &Self) -> bool {
        self.counts.len() == other.counts.len()
            && self
                .counts
                .iter()
                .all(|(k, v)| other.counts.get(k) == Some(v))
    }
}

impl Eq for Annotated2K {}

impl Annotated2K {
    /// Extracts the annotated JDD from a labeled graph.
    ///
    /// # Errors
    /// Fails if some edge is unlabeled.
    pub fn from_graph(lg: &LabeledGraph) -> Result<Self, GraphError> {
        lg.validate()?;
        let mut counts = det_hash_map();
        for &(u, v) in lg.graph.edges() {
            let (k1, k2) = canon_pair(lg.graph.degree(u) as Degree, lg.graph.degree(v) as Degree);
            let l = lg.label(u, v).expect("validated above");
            *counts.entry((k1, k2, l)).or_insert(0) += 1;
        }
        Ok(Annotated2K { counts })
    }

    /// Forgets labels: the plain 2K-distribution (inclusion map).
    pub fn to_2k(&self) -> Dist2K {
        let mut d = Dist2K::default();
        for (&(k1, k2, _), &c) in &self.counts {
            *d.counts.entry((k1, k2)).or_insert(0) += c;
        }
        d
    }

    /// Total edges.
    pub fn edges(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Distinct labels present.
    pub fn labels(&self) -> Vec<Label> {
        let mut v: Vec<Label> = self.counts.keys().map(|&(_, _, l)| l).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Squared distance between annotated JDDs (the `D_2` analogue),
    /// summed exactly and converted once, so the maps' iteration order
    /// does not reach its bits.
    pub fn distance_sq(&self, other: &Annotated2K) -> f64 {
        let mut acc = ExactSum::default();
        for (k, &a) in &self.counts {
            let b = other.counts.get(k).copied().unwrap_or(0);
            acc.add_square(a.abs_diff(b));
        }
        for (k, &b) in &other.counts {
            if !self.counts.contains_key(k) {
                acc.add_square(b);
            }
        }
        acc.to_f64()
    }
}

/// Pseudograph-style construction of a labeled graph matching an
/// annotated JDD exactly before cleanup.
///
/// The algorithm is the paper's 2K pseudograph with labels riding along:
/// labeled edge instances are created per `(k1, k2, ℓ)` class; edge-end
/// grouping into nodes ignores labels entirely (labels constrain edges,
/// not stub grouping), so the degree structure matches the plain 2K
/// construction while each edge keeps its label.
pub fn generate_annotated_2k<R: Rng + ?Sized>(
    d: &Annotated2K,
    rng: &mut R,
) -> Result<LabeledGraph, GraphError> {
    let plain = d.to_2k();
    let d1 = plain.to_1k()?;
    let n = d1.nodes();
    let kmax = d1.counts.len();

    // labeled edge instances
    let mut ends_of: Vec<Vec<(u64, u8)>> = vec![Vec::new(); kmax];
    let mut edge_labels: Vec<Label> = Vec::new();
    let mut entries: Vec<(&(Degree, Degree, Label), &u64)> = d.counts.iter().collect();
    entries.sort_unstable(); // deterministic order before shuffling
    for (&(k1, k2, l), &m) in entries {
        for _ in 0..m {
            let e = edge_labels.len() as u64;
            ends_of[k1 as usize].push((e, 0));
            ends_of[k2 as usize].push((e, 1));
            edge_labels.push(l);
        }
    }
    let mut endpoint: Vec<[u32; 2]> = vec![[u32::MAX; 2]; edge_labels.len()];
    let mut node = 0u32;
    for (k, list) in ends_of.iter_mut().enumerate() {
        if k == 0 || list.is_empty() {
            continue;
        }
        list.shuffle(rng);
        for group in list.chunks(k) {
            for &(e, side) in group {
                endpoint[e as usize][side as usize] = node;
            }
            node += 1;
        }
    }
    let mut mg = MultiGraph::with_nodes(n);
    for ep in &endpoint {
        mg.add_edge(ep[0], ep[1]);
    }
    let (graph, _badness) = mg.simplify();
    // label surviving edges: first instance wins for collapsed parallels
    let mut labels: DetHashMap<(u32, u32), Label> = det_hash_map();
    for (e, ep) in endpoint.iter().enumerate() {
        let (u, v) = (ep[0].min(ep[1]), ep[0].max(ep[1]));
        if u != v && graph.has_edge(u, v) {
            labels.entry((u, v)).or_insert(edge_labels[e]);
        }
    }
    let lg = LabeledGraph { graph, labels };
    lg.validate()?;
    Ok(lg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::builders;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn labeled_karate() -> LabeledGraph {
        // label: 0 if the edge touches a hub (deg ≥ 10), else 1 — a crude
        // "customer-provider vs peering" stand-in
        let g = builders::karate_club();
        LabeledGraph::new_with(g.clone(), |u, v| {
            if g.degree(u) >= 10 || g.degree(v) >= 10 {
                0
            } else {
                1
            }
        })
    }

    #[test]
    fn extraction_counts_labels() {
        let lg = labeled_karate();
        let a = Annotated2K::from_graph(&lg).unwrap();
        assert_eq!(a.edges(), 78);
        assert_eq!(a.labels(), vec![0, 1]);
        // forgetting labels gives the plain JDD
        assert_eq!(a.to_2k(), Dist2K::from_graph(&lg.graph));
    }

    #[test]
    fn unlabeled_edge_rejected() {
        let g = builders::path(3);
        let lg = LabeledGraph {
            graph: g,
            labels: det_hash_map(),
        };
        assert!(lg.validate().is_err());
        assert!(Annotated2K::from_graph(&lg).is_err());
    }

    #[test]
    fn generation_matches_annotated_jdd_modulo_cleanup() {
        let lg = labeled_karate();
        let target = Annotated2K::from_graph(&lg).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let out = generate_annotated_2k(&target, &mut rng).unwrap();
        out.validate().unwrap();
        let got = Annotated2K::from_graph(&out).unwrap();
        // Cleanup drops a few edges, which shifts hub degrees and thereby
        // relabels whole JDD rows (the paper's own k̄/r-discrepancy
        // effect), so cellwise distance is a poor yardstick. Assert the
        // robust invariants instead:
        // 1. edge count within cleanup noise,
        let (e_got, e_tgt) = (got.edges() as f64, target.edges() as f64);
        assert!(
            (e_got - e_tgt).abs() / e_tgt < 0.15,
            "edge count {e_got} too far from target {e_tgt}"
        );
        // 2. per-label edge mass approximately preserved,
        for l in target.labels() {
            let mass = |a: &Annotated2K| -> f64 {
                a.counts
                    .iter()
                    .filter(|(&(_, _, ll), _)| ll == l)
                    .map(|(_, &c)| c as f64)
                    .sum()
            };
            let (mg, mt) = (mass(&got), mass(&target));
            assert!(
                (mg - mt).abs() / mt.max(1.0) < 0.25,
                "label {l}: mass {mg} vs target {mt}"
            );
        }
        // 3. every surviving edge labeled, labels drawn from the target set
        for &(u, v) in out.graph.edges() {
            let l = out.label(u, v).unwrap();
            assert!(l == 0 || l == 1);
        }
    }

    #[test]
    fn label_lookup_orientation_free() {
        let lg = labeled_karate();
        assert_eq!(lg.label(0, 1), lg.label(1, 0));
        assert_eq!(lg.label(0, 999), None);
    }

    #[test]
    fn distance_sq_zero_on_self() {
        let a = Annotated2K::from_graph(&labeled_karate()).unwrap();
        assert_eq!(a.distance_sq(&a), 0.0);
    }
}
