//! Census equivalence suite: `Dist3K` is one sorted census, extracted by
//! one pass grouped by degree class, and it must equal the census the
//! neighbour-pair scan built before it (`census_oracle`), entry for
//! entry and byte for byte in its `.3k` text. Its distance, and the 1K
//! and 2K distances, are exact integer sums converted once; they must
//! keep the bits of the f64 sums they replaced, which were exact on every
//! input below (each partial sum is below 2⁵³). `to_2k_checked` must
//! derive the JDD the hash-map incidence derived.
//!
//! The graphs cover isolated nodes, leaves, stars and cliques, several
//! components, the empty graph, and graphs whose degree-class count is
//! close to `n`. A release-only case runs the census on a 10⁵-node BA
//! graph, the scale of the benchmark's serve and probe inputs.

mod census_oracle;

use census_oracle::MapCensus;
use dk_repro::core::dist::{Dist1K, Dist2K, Dist3K};
use dk_repro::core::io;
use dk_repro::graph::{builders, CsrGraph, Graph};
use dk_repro::topologies::ba::{barabasi_albert, BaParams};
use dk_repro::topologies::{skitter_like, AsLikeParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `Dist1K::distance_sq` as it summed: f64 terms in degree order.
fn d1_f64(a: &Dist1K, b: &Dist1K) -> f64 {
    let len = a.counts.len().max(b.counts.len());
    let mut acc = 0.0;
    for k in 0..len {
        let x = a.counts.get(k).copied().unwrap_or(0) as f64;
        let y = b.counts.get(k).copied().unwrap_or(0) as f64;
        acc += (x - y) * (x - y);
    }
    acc
}

/// `Dist2K::distance_sq` as it summed: f64 terms in map order.
fn d2_f64(a: &Dist2K, b: &Dist2K) -> f64 {
    let mut acc = 0.0;
    for (k, &x) in &a.counts {
        let y = b.counts.get(k).copied().unwrap_or(0);
        acc += (x as f64 - y as f64).powi(2);
    }
    for (k, &y) in &b.counts {
        if !a.counts.contains_key(k) {
            acc += (y as f64).powi(2);
        }
    }
    acc
}

/// The new census of `g` against the pair-scan oracle: the same entries
/// in strictly ascending order, the same `.3k` bytes, the same census
/// read back, and the JDD the oracle's incidence derives; the census of
/// a CSR of `g` equals the census of `g`.
fn assert_census_matches(g: &Graph) {
    let got = Dist3K::from_graph(g);
    let want = MapCensus::from_graph(g);
    let entries = |d: &Dist3K| {
        let w = d.wedges().iter().map(|&(k, n)| (false, k, n));
        let t = d.triangles().iter().map(|&(k, n)| (true, k, n));
        w.chain(t).collect::<Vec<_>>()
    };
    assert_eq!(entries(&got), want.sorted_entries());
    for column in [got.wedges(), got.triangles()] {
        assert!(column.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(column.iter().all(|&(_, n)| n > 0), "no zero count");
    }
    let mut bytes = Vec::new();
    io::write_3k(&got, &mut bytes).expect("write to a Vec");
    let mut oracle_bytes = Vec::new();
    want.write_3k(&mut oracle_bytes).expect("write to a Vec");
    assert_eq!(bytes, oracle_bytes, ".3k bytes");
    assert_eq!(io::read_3k(bytes.as_slice()), Ok(got.clone()));
    assert_eq!(got.to_2k_checked(), want.to_2k_checked());
    assert_eq!(got, want.to_sorted());
    assert_eq!(
        Dist3K::from_graph(&CsrGraph::from_graph(g)),
        got,
        "CSR census"
    );
}

/// The exact distances of `a` to `b` against the f64 sums they replaced,
/// bit for bit.
fn assert_distances_match(a: &Graph, b: &Graph) {
    let (x, y) = (Dist3K::from_graph(a), Dist3K::from_graph(b));
    let want = MapCensus::from_graph(a).distance_sq(&MapCensus::from_graph(b));
    assert_eq!(x.distance_sq(&y).to_bits(), want.to_bits(), "D3");
    assert_eq!(y.distance_sq(&x).to_bits(), want.to_bits(), "D3 swapped");
    let (x, y) = (Dist2K::from_graph(a), Dist2K::from_graph(b));
    assert_eq!(x.distance_sq(&y).to_bits(), d2_f64(&x, &y).to_bits(), "D2");
    let (x, y) = (Dist1K::from_graph(a), Dist1K::from_graph(b));
    assert_eq!(x.distance_sq(&y).to_bits(), d1_f64(&x, &y).to_bits(), "D1");
}

/// The disjoint union of `parts`, each shifted past the ones before it.
fn union(parts: &[Graph]) -> Graph {
    let n = parts.iter().map(Graph::node_count).sum();
    let mut edges = Vec::new();
    let mut offset = 0;
    for g in parts {
        edges.extend(g.edges().iter().map(|&(u, v)| (u + offset, v + offset)));
        offset += g.node_count() as u32;
    }
    Graph::from_edges(n, edges).expect("shifted parts are disjoint")
}

/// An antiregular-like graph: `i ~ j` iff `i + j ≥ n` (nodes `1..=n`),
/// whose `n` nodes take `n − 1` distinct degrees, toggled at `flips`.
fn near_antiregular(n: u32, flips: &[(u32, u32)]) -> Graph {
    let mut edges: Vec<(u32, u32)> = (1..=n)
        .flat_map(|i| {
            (i + 1..=n)
                .filter(move |&j| i + j >= n)
                .map(move |j| (i - 1, j - 1))
        })
        .collect();
    for &(u, v) in flips {
        let (u, v) = (u % n, v % n);
        let e = (u.min(v), u.max(v));
        match edges.iter().position(|&x| x == e) {
            Some(i) => {
                edges.swap_remove(i);
            }
            None => edges.push(e),
        }
    }
    Graph::from_edges_dedup(n as usize, edges).expect("ids in range")
}

/// The fixed graphs: golden anchors, the empty graph, isolated nodes, a
/// star, cliques, several components and the small skitter-like input.
fn fixed_graphs() -> Vec<Graph> {
    let mut rng = StdRng::seed_from_u64(20060911);
    vec![
        Graph::new(),
        union(&[Graph::from_edges(5, []).expect("isolated nodes")]),
        builders::karate_club(),
        builders::petersen(),
        builders::grid(5, 5),
        builders::complete(6),
        builders::star(7),
        union(&[
            builders::star(4),
            builders::complete(5),
            builders::path(3),
            Graph::from_edges(2, []).expect("isolated nodes"),
            builders::cycle(6),
        ]),
        near_antiregular(30, &[]),
        skitter_like(&AsLikeParams::small(), &mut rng),
    ]
}

#[test]
fn census_matches_the_pair_scan_oracle_on_fixed_graphs() {
    let graphs = fixed_graphs();
    for g in &graphs {
        assert_census_matches(g);
    }
    for a in &graphs {
        for b in &graphs {
            assert_distances_match(a, b);
        }
    }
}

/// A zero count a file names stays an entry: it is written back out and
/// counted (as 0) in the distance, as the map census kept it.
#[test]
fn zero_counts_stay_entries() {
    let text = "W 1 2 3 0\nW 3 2 1 4\nT 2 2 2 0\n";
    let d = io::read_3k(text.as_bytes()).expect("well formed");
    assert_eq!(d.wedges(), &[((1, 2, 3), 4)]);
    let d = io::read_3k("W 1 2 3 0\nT 2 2 2 0\n".as_bytes()).expect("well formed");
    assert_eq!(d.wedges(), &[((1, 2, 3), 0)]);
    assert_eq!(d.triangles(), &[((2, 2, 2), 0)]);
    assert_ne!(d, Dist3K::default());
    let mut bytes = Vec::new();
    io::write_3k(&d, &mut bytes).expect("write to a Vec");
    let text = String::from_utf8(bytes).expect("ASCII");
    assert!(text.ends_with("W 1 2 3 0\nT 2 2 2 0\n"), "{text}");
    assert_eq!(d.distance_sq(&Dist3K::default()), 0.0);
    let built = Dist3K::from_entries([((3, 2, 1), 0)], [((2, 2, 2), 0)]).expect("no overflow");
    assert_eq!(built, d);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The census of random graphs against the pair-scan oracle, and
    /// the exact distances between two of them against the f64 sums:
    /// sparse graphs with isolated nodes and leaves, unions of a star, a
    /// clique, a path and a random part, near-antiregular graphs (class
    /// count close to `n`) and dense graphs.
    #[test]
    fn census_matches_the_pair_scan_oracle(
        shape in 0..4usize,
        n in 1..40u32,
        edges in proptest::collection::vec((0..40u32, 0..40u32), 0..120),
        sizes in (1..9usize, 1..7usize, 1..6usize),
        other in proptest::collection::vec((0..40u32, 0..40u32), 0..80),
    ) {
        let random = |n: u32, edges: &[(u32, u32)]| {
            Graph::from_edges_dedup(n as usize, edges.iter().map(|&(u, v)| (u % n, v % n)))
                .expect("ids in range")
        };
        let g = match shape {
            0 => random(n, &edges[..edges.len() / 3]),
            1 => union(&[
                builders::star(sizes.0),
                builders::complete(sizes.1),
                builders::path(sizes.2),
                random(n, &edges[..edges.len() / 4]),
            ]),
            2 => near_antiregular(n + 2, &edges[..edges.len() % 5]),
            _ => random(n.min(14), &edges),
        };
        assert_census_matches(&g);
        assert_distances_match(&g, &random(n, &other));
    }
}

/// Release only (the pair-scan oracle is slow in a debug build): the
/// census of a 10⁵-node BA graph, two edges per arriving node as the
/// benchmark builds its serve and probe inputs, equals the oracle's
/// entries and `.3k` bytes.
#[test]
#[ignore]
fn ba_1e5_census_matches_the_pair_scan_oracle() {
    let mut rng = StdRng::seed_from_u64(1);
    let g = barabasi_albert(
        &BaParams {
            nodes: 100_000,
            edges_per_node: 2,
            seed_nodes: 3,
        },
        &mut rng,
    );
    assert_census_matches(&g);
}
