//! Cross-crate property tests on randomly generated graphs.

use dk_repro::core::dist::{Dist1K, Dist2K, Dist3K};
use dk_repro::core::generate::rewire::{randomize, RewireOptions, SwapBudget};
use dk_repro::core::io;
use dk_repro::graph::csr::CsrGraph;
use dk_repro::graph::{builders, traversal, Graph, GraphError, NodeId};
use dk_repro::topologies::{ba, er};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Strategy: a random simple graph with up to `n` nodes.
fn arb_graph(n: u32, max_edges: usize) -> impl Strategy<Value = Graph> {
    proptest::collection::vec((0..n, 0..n), 0..max_edges)
        .prop_map(move |edges| Graph::from_edges_dedup(n as usize, edges).expect("in range"))
}

/// The per-edge induced-subgraph construction, kept as the oracle of
/// `Graph::subgraph`: `g.edges()` filtered to the selection,
/// remapped, and added one at a time in that order.
fn subgraph_oracle(g: &Graph, nodes: &[NodeId]) -> Graph {
    let mut old_to_new = vec![None; g.node_count()];
    for (new, &old) in nodes.iter().enumerate() {
        old_to_new[old as usize] = Some(new as NodeId);
    }
    Graph::from_edges(
        nodes.len(),
        g.edges()
            .iter()
            .filter_map(|&(u, v)| Some((old_to_new[u as usize]?, old_to_new[v as usize]?))),
    )
    .expect("a valid selection induces a simple graph")
}

/// The most nodes an edge list may hold (`NodeId::MAX`), as the reader
/// oracle below refuses past it.
const MAX_NODES: usize = NodeId::MAX as usize;

/// The edge-list reader as it was before one byte-level parser fed both
/// the `Graph` and the CSR builders — its body verbatim, split before
/// its last line (`Graph::from_edges_dedup(n, edges)`) so a test can
/// see the node count before anything that size is allocated. See
/// [`read_edge_list_oracle`].
fn oracle_edges<R: std::io::Read>(reader: R) -> Result<(usize, Vec<(NodeId, NodeId)>), GraphError> {
    use std::io::{BufRead, BufReader};
    let buf = BufReader::new(reader);
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let mut declared_nodes: Option<usize> = None;
    // the largest id so far and the line it first appears on
    let mut max_id: Option<(NodeId, usize)> = None;
    for (lineno, line) in buf.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.map_err(GraphError::from)?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let first = parts.next().expect("non-empty trimmed line has a token");
        if first == "nodes" {
            let n = parts
                .next()
                .ok_or_else(|| GraphError::Parse {
                    line: lineno,
                    msg: "header `nodes` missing count".into(),
                })?
                .parse::<usize>()
                .map_err(|e| GraphError::Parse {
                    line: lineno,
                    msg: format!("bad node count: {e}"),
                })?;
            if n > MAX_NODES {
                return Err(GraphError::Parse {
                    line: lineno,
                    msg: format!("node count {n} is past the id space (at most {MAX_NODES})"),
                });
            }
            declared_nodes = Some(n);
            continue;
        }
        let u: NodeId = first.parse().map_err(|e| GraphError::Parse {
            line: lineno,
            msg: format!("bad node id {first:?}: {e}"),
        })?;
        let vtok = parts.next().ok_or_else(|| GraphError::Parse {
            line: lineno,
            msg: "expected two node ids".into(),
        })?;
        let v: NodeId = vtok.parse().map_err(|e| GraphError::Parse {
            line: lineno,
            msg: format!("bad node id {vtok:?}: {e}"),
        })?;
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: lineno,
                msg: "trailing tokens after edge".into(),
            });
        }
        let top = u.max(v);
        if top as usize >= MAX_NODES {
            return Err(GraphError::Parse {
                line: lineno,
                msg: format!(
                    "node id {top} needs a node count past the id space (at most {MAX_NODES})"
                ),
            });
        }
        if max_id.is_none_or(|(m, _)| top > m) {
            max_id = Some((top, lineno));
        }
        edges.push((u, v));
    }
    let n = match (declared_nodes, max_id) {
        (Some(n), Some((top, line))) if n <= top as usize => {
            return Err(GraphError::Parse {
                line,
                msg: format!("declared nodes {n} smaller than max id {top}"),
            })
        }
        (Some(n), _) => n,
        (None, _) => max_id.map_or(0, |(top, _)| top as usize + 1),
    };
    Ok((n, edges))
}

/// The oracle reader: [`oracle_edges`] and its last line. Measured
/// topology snapshots routinely contain both (u,v) and (v,u); treat
/// duplicates as one undirected edge rather than failing.
fn read_edge_list_oracle(n: usize, edges: Vec<(NodeId, NodeId)>) -> Result<Graph, GraphError> {
    Graph::from_edges_dedup(n, edges)
}

/// Fragments of the reader fuzz's lines, `FIELD SEP FIELD END`: node
/// ids (signed, at the edge of the id space and past it), `nodes`, `#`
/// and junk in the field slots; every whitespace the parser trims or
/// splits on (ASCII, U+00A0, U+3000) as separators; and line ends that
/// add a third token, a lone `\r`, a comment, a non-UTF-8 byte, or no
/// newline at all (gluing the line to the next). The first
/// `CLEAN_FIELDS` fields (`CLEAN_IDS` in the second slot) and the first
/// `CLEAN_SEPS` separators and `CLEAN_ENDS` ends only make well-formed
/// lines, so clean cases reach the graph builders.
const LINE_FIELDS: &[&[u8]] = &[
    b"0",
    b"1",
    b"2",
    b"3",
    b"7",
    b"12",
    b"+4",
    b"nodes",
    b"#",
    b"-1",
    b"4294967294",
    b"4294967295",
    b"4294967296",
    b"",
    b"x",
];
const LINE_SEPS: &[&[u8]] = &[
    b" ",
    b" ",
    b"\t",
    b"  ",
    "\u{a0}".as_bytes(),
    "\u{3000}".as_bytes(),
    b"\x0b",
    b"",
];
const LINE_ENDS: &[&[u8]] = &[
    b"\n",
    b"\n",
    b"\n",
    b"\r\n",
    b" \n",
    "\u{a0}\n".as_bytes(),
    b"\r",
    b" 5\n",
    b"\xff\n",
    b"\xe3\x80\n",
    b" # c\n",
    b"",
];
const CLEAN_FIELDS: usize = 9;
const CLEAN_IDS: usize = 7;
const CLEAN_SEPS: usize = 7;
const CLEAN_ENDS: usize = 6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Extraction → derivation equals direct extraction at every level.
    #[test]
    fn inclusion_chain_holds(g in arb_graph(24, 80)) {
        let d3 = Dist3K::from_graph(&g);
        let d2 = Dist2K::from_graph(&g);
        let d1 = Dist1K::from_graph(&g);
        // 3K → 2K is exact except the (1,1) blind spot
        let via = d3.to_2k();
        for (&key, &m) in &d2.counts {
            if key == (1, 1) { continue; }
            prop_assert_eq!(via.m(key.0, key.1), m, "class {:?}", key);
        }
        // 2K → 1K loses only isolated nodes
        let d1_via = d2.to_1k().unwrap();
        for k in 1..d1.counts.len() {
            prop_assert_eq!(
                d1_via.counts.get(k).copied().unwrap_or(0),
                d1.counts[k],
                "degree {}", k
            );
        }
    }

    /// dK text formats round-trip for arbitrary graphs.
    #[test]
    fn dist_files_roundtrip(g in arb_graph(20, 60)) {
        let d1 = Dist1K::from_graph(&g);
        let mut buf = Vec::new();
        io::write_1k(&d1, &mut buf).unwrap();
        prop_assert_eq!(io::read_1k(buf.as_slice()).unwrap(), d1);

        let d2 = Dist2K::from_graph(&g);
        let mut buf = Vec::new();
        io::write_2k(&d2, &mut buf).unwrap();
        prop_assert_eq!(io::read_2k(buf.as_slice()).unwrap(), d2);

        let d3 = Dist3K::from_graph(&g);
        let mut buf = Vec::new();
        io::write_3k(&d3, &mut buf).unwrap();
        prop_assert_eq!(io::read_3k(buf.as_slice()).unwrap(), d3);
    }

    /// Rewiring preserves exactly what it promises, on arbitrary graphs.
    #[test]
    fn rewiring_invariants(g in arb_graph(20, 60), d in 0u8..=3, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut h = g.clone();
        let opts = RewireOptions { budget: SwapBudget::Attempts(300) };
        randomize(&mut h, d, &opts, &mut rng);
        h.check_invariants().unwrap();
        prop_assert_eq!(h.node_count(), g.node_count());
        prop_assert_eq!(h.edge_count(), g.edge_count());
        if d >= 1 {
            prop_assert_eq!(h.degrees(), g.degrees());
        }
        if d >= 2 {
            prop_assert_eq!(Dist2K::from_graph(&h), Dist2K::from_graph(&g));
        }
        if d >= 3 {
            prop_assert_eq!(Dist3K::from_graph(&h), Dist3K::from_graph(&g));
        }
    }

    /// Graph edge-list text I/O round-trips arbitrary graphs.
    #[test]
    fn edge_list_roundtrip(g in arb_graph(30, 100)) {
        let mut buf = Vec::new();
        dk_repro::graph::io::write_edge_list(&g, &mut buf).unwrap();
        let back = dk_repro::graph::io::read_edge_list(buf.as_slice()).unwrap();
        prop_assert_eq!(back, g);
    }

    /// S2 computed three ways agrees: metric formula, 3K distribution,
    /// and brute-force wedge enumeration.
    #[test]
    fn s2_consistency(g in arb_graph(16, 50)) {
        let fast = dk_repro::metrics::likelihood::likelihood_s2(&g);
        let via_3k = Dist3K::from_graph(&g).s2();
        prop_assert!((fast - via_3k).abs() < 1e-9, "fast {} vs 3K {}", fast, via_3k);
    }

    /// Triangle counts agree between the metric suite and the 3K census.
    #[test]
    fn triangle_consistency(g in arb_graph(16, 50)) {
        let a = dk_repro::metrics::clustering::triangle_count(&g) as u64;
        let b = Dist3K::from_graph(&g).triangle_total();
        prop_assert_eq!(a, b);
    }

    /// Sharded streaming analysis at any thread count is bit-identical
    /// to the same analysis at one thread (the collect-then-merge
    /// oracle), across shard counts {1, 2, 7, n}, for
    /// every metric whose pass rides the shard executor (exact distance
    /// family, betweenness family, the sampled estimators, the HyperANF
    /// sketches — the set is derived from the registry's dependency
    /// metadata via `Dep::rides_shard_executor`, so a future estimator
    /// metric is swept automatically instead of silently skipped).
    #[test]
    fn streamed_analysis_equals_in_memory(g in arb_graph(24, 80), threads in 1usize..4) {
        use dk_repro::metrics::metric::AnyMetric;
        use dk_repro::metrics::Analyzer;
        let names = AnyMetric::all()
            .filter(|m| m.deps().iter().any(|d| d.rides_shard_executor()))
            .map(|m| m.name())
            .collect::<Vec<_>>()
            .join(",");
        let n = g.node_count();
        for shards in [1, 2, 7, n.max(1)] {
            let oracle = Analyzer::new()
                .metric_names(&names)
                .unwrap()
                .shards(shards)
                .threads(1)
                .analyze(&g);
            let streamed = Analyzer::new()
                .metric_names(&names)
                .unwrap()
                .shards(shards)
                .threads(threads)
                .analyze(&g);
            prop_assert_eq!(&oracle, &streamed, "shards {}, threads {}", shards, threads);
            prop_assert_eq!(oracle.to_json(), streamed.to_json());
        }
    }

    /// The register union kernel (a per-byte `max` the compiler
    /// vectorizes) equals the scalar per-byte `if d < s { d = s }` loop
    /// on arbitrary register files: every length from 0 to 199, so
    /// vector bodies and scalar tails alike, and bytes on both sides of
    /// the 0x80 boundary where a signed byte compare would go wrong.
    /// The name is kept from the word-packed SWAR kernel it first
    /// checked.
    #[test]
    fn swar_union_matches_scalar_oracle(
        pairs in proptest::collection::vec((0u8..=255, 0u8..=255), 0..200)
    ) {
        let (mut dst, src): (Vec<u8>, Vec<u8>) = pairs.into_iter().unzip();
        let mut oracle = dst.clone();
        for (d, s) in oracle.iter_mut().zip(&src) {
            if *d < *s {
                *d = *s;
            }
        }
        dk_repro::metrics::sketch::union_registers(&mut dst, &src);
        prop_assert_eq!(dst, oracle);
    }

    /// Sketch union-merge is a semilattice: associative, commutative,
    /// and idempotent — the algebra HyperANF's correctness rests on
    /// (register files may be unioned in any grouping or order without
    /// changing a bit).
    #[test]
    fn sketch_union_is_a_semilattice(
        xs in proptest::collection::vec(0u64..1000, 0..40),
        ys in proptest::collection::vec(0u64..1000, 0..40),
        zs in proptest::collection::vec(0u64..1000, 0..40),
        bits in 4u32..=8,
    ) {
        use dk_repro::metrics::sketch::HllSketch;
        let of = |items: &[u64]| {
            let mut s = HllSketch::new(bits);
            for &v in items {
                s.insert(v);
            }
            s
        };
        let (a, b, c) = (of(&xs), of(&ys), of(&zs));
        // associative: (a ∪ b) ∪ c == a ∪ (b ∪ c)
        let mut left = a.clone();
        left.union(&b);
        left.union(&c);
        let mut right_bc = b.clone();
        right_bc.union(&c);
        let mut right = a.clone();
        right.union(&right_bc);
        prop_assert_eq!(&left, &right);
        // commutative: a ∪ b == b ∪ a
        let mut ab = a.clone();
        ab.union(&b);
        let mut ba = b.clone();
        ba.union(&a);
        prop_assert_eq!(&ab, &ba);
        // idempotent: a ∪ a == a
        let mut aa = a.clone();
        aa.union(&a);
        prop_assert_eq!(&aa, &a);
        // NOTE: estimate() monotonicity under union is deliberately NOT
        // asserted — the registers only grow, but the small-range
        // (linear counting) correction can dip at its hand-off point,
        // which is exactly why HyperAnf clamps N(t) monotone. The
        // estimate must merely stay finite and positive here.
        prop_assert!(ab.estimate().is_finite() && ab.estimate() >= 0.0);
    }

    /// HyperANF results are bit-identical across thread counts and
    /// shard counts {1, 2, 7, n} against the one-shard, one-thread pass
    /// — the same invariant family as
    /// `streamed_analysis_equals_in_memory`, at the library layer.
    #[test]
    fn hyperanf_bit_identical_across_shards_and_threads(
        g in arb_graph(24, 80),
        threads in 1usize..4,
        bits in 4u32..=7,
    ) {
        use dk_repro::metrics::sketch::hyper_anf_sharded;
        let csr = CsrGraph::from_graph(&g);
        let n = g.node_count();
        let oracle = hyper_anf_sharded(&csr, bits, 64, 1, 1);
        for shards in [1, 2, 7, n.max(1)] {
            prop_assert_eq!(
                &hyper_anf_sharded(&csr, bits, 64, shards, threads),
                &oracle,
                "shards {}", shards
            );
        }
    }

    /// The CSR snapshot round-trips any graph: node/edge counts, degrees,
    /// and every sorted neighbor slice are identical.
    #[test]
    fn csr_snapshot_round_trips(g in arb_graph(32, 120)) {
        let csr = CsrGraph::from_graph(&g);
        prop_assert_eq!(csr.node_count(), g.node_count());
        prop_assert_eq!(csr.edge_count(), g.edge_count());
        prop_assert_eq!(csr.degrees(), g.degrees());
        prop_assert_eq!(csr.max_degree(), g.max_degree());
        for u in g.nodes() {
            prop_assert_eq!(csr.neighbors(u), g.neighbors(u), "node {}", u);
            // neighbor slices stay strictly sorted (the membership-test
            // invariant triangle merges rely on)
            prop_assert!(csr.neighbors(u).windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// `Graph::subgraph`'s O(n + m) construction equals the
    /// per-edge oracle exactly — edge list order included, which
    /// `Graph`'s set equality cannot see but `r`, `s` and the MCMC
    /// proposals read — on ER, BA and karate inputs whose edge order
    /// removing a quarter of their edges has scrambled, for ascending
    /// (GCC-like and random), shuffled, single-node, empty and identity
    /// selections.
    /// Duplicate and out-of-range selections keep their errors.
    #[test]
    fn subgraph_matches_per_edge_oracle(kind in 0u8..3, n in 2usize..60, seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = match kind {
            0 => {
                let max = n * (n - 1) / 2;
                er::gnm(n, rng.gen_range(0..=max.min(2 * n)), &mut rng)
            }
            1 => ba::barabasi_albert(
                &ba::BaParams {
                    nodes: n.max(3),
                    edges_per_node: 2,
                    seed_nodes: 3,
                },
                &mut rng,
            ),
            _ => builders::karate_club(),
        };
        for _ in 0..g.edge_count() / 4 {
            let (u, v) = g.random_edge(&mut rng).expect("edges remain");
            g.remove_edge(u, v).expect("present");
        }
        let n = g.node_count();
        let ascending: Vec<NodeId> = g.nodes().filter(|_| rng.gen_bool(0.7)).collect();
        let mut shuffled = ascending.clone();
        shuffled.shuffle(&mut rng);
        let selections = [
            traversal::giant_component_nodes(&g),
            ascending,
            shuffled,
            vec![rng.gen_range(0..n as NodeId)],
            Vec::new(),
            g.nodes().collect(),
        ];
        for sel in &selections {
            let (sub, map) = g.subgraph(sel).expect("valid selection");
            let oracle = subgraph_oracle(&g, sel);
            prop_assert_eq!(map.as_slice(), sel.as_slice());
            prop_assert_eq!(sub.node_count(), oracle.node_count());
            prop_assert_eq!(sub.edges(), oracle.edges(), "selection {:?}", sel);
            for u in sub.nodes() {
                prop_assert_eq!(sub.neighbors(u), oracle.neighbors(u), "node {}", u);
            }
            prop_assert!(sub.check_invariants().is_ok());
            let k = sub.node_count() as NodeId;
            for u in 0..=k {
                for v in 0..=k {
                    prop_assert_eq!(sub.has_edge_indexed(u, v), oracle.has_edge_indexed(u, v));
                }
            }
        }
        let last = n as NodeId - 1;
        prop_assert_eq!(
            g.subgraph(&[last, 0, last]).map(|_| ()),
            Err(GraphError::ConstructionFailed(format!(
                "duplicate node {last} in subgraph selection"
            )))
        );
        prop_assert_eq!(
            g.subgraph(&[0, n as NodeId]).map(|_| ()),
            Err(GraphError::NodeOutOfRange { node: n as NodeId, nodes: n })
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Both edge-list readers agree with the oracle on arbitrary bytes:
    /// `read_edge_list` returns the oracle's graph (node count and
    /// `edges()` order) or its error (variant, line and message), and
    /// `read_edge_list_csr` returns that graph's CSR or the same error.
    /// A valid file declaring more than 2^16 nodes (an id near
    /// `u32::MAX`) is checked up to its node count only: neither reader
    /// can build a 4·10⁹-node graph here.
    #[test]
    fn edge_list_readers_match_the_oracle(
        clean in 0..2usize,
        lines in proptest::collection::vec(
            (0..LINE_FIELDS.len(), 0..LINE_SEPS.len(), 0..LINE_FIELDS.len(), 0..LINE_ENDS.len()),
            0..24,
        )
    ) {
        use dk_repro::graph::io::{read_edge_list, read_edge_list_csr};
        let pick = |table: &[&'static [u8]], i: usize, clean_len: usize| {
            table[if clean == 1 { i % clean_len } else { i }]
        };
        let bytes: Vec<u8> = lines
            .iter()
            .flat_map(|&(a, sep, b, end)| {
                [
                    pick(LINE_FIELDS, a, CLEAN_FIELDS),
                    pick(LINE_SEPS, sep, CLEAN_SEPS),
                    pick(LINE_FIELDS, b, CLEAN_IDS),
                    pick(LINE_ENDS, end, CLEAN_ENDS),
                ]
                .concat()
            })
            .collect();
        let want = match oracle_edges(bytes.as_slice()) {
            Ok((n, _)) if n > 1 << 16 => return Ok(()),
            Ok((n, edges)) => read_edge_list_oracle(n, edges),
            Err(e) => Err(e),
        };
        let got = read_edge_list(bytes.as_slice());
        let csr = read_edge_list_csr(bytes.as_slice());
        match &want {
            Ok(g) => {
                prop_assert!(got.is_ok(), "{:?}: {:?}", bytes, got);
                let h = got.as_ref().ok();
                prop_assert_eq!(h.map(Graph::node_count), Some(g.node_count()), "{:?}", bytes);
                prop_assert_eq!(h.map(Graph::edges), Some(g.edges()), "{:?}", bytes);
                prop_assert_eq!(csr, Ok(CsrGraph::from_graph(g)), "{:?}", bytes);
            }
            Err(e) => {
                prop_assert_eq!(got.as_ref().err(), Some(e), "{:?}", bytes);
                prop_assert_eq!(csr.as_ref().err(), Some(e), "{:?}", bytes);
            }
        }
    }
}

/// The 3K reader as it ran before it read lines into one reused buffer
/// and sorted columns: `BufRead::lines` (a `String` per line), the tokens
/// collected into a `Vec`, each parsed by `str::parse`, each count merged
/// into a hash map as its line is read; the maps then build the sorted
/// census. The oracle of `io::read_3k`.
fn read_3k_oracle<R: std::io::Read>(r: R) -> Result<Dist3K, GraphError> {
    use dk_repro::core::dist::{canon_triangle, canon_wedge};
    use dk_repro::graph::hashers::DetHashMap;
    use std::io::BufRead;
    let parse_err = |line: usize, msg: String| GraphError::Parse { line, msg };
    let mut wedges: DetHashMap<(u32, u32, u32), u64> = DetHashMap::default();
    let mut triangles: DetHashMap<(u32, u32, u32), u64> = DetHashMap::default();
    for (no, line) in std::io::BufReader::new(r).lines().enumerate() {
        let no = no + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.len() != 5 {
            return Err(parse_err(no, "expected `W|T k1 k2 k3 count`".into()));
        }
        let parse_u32 = |s: &str| -> Result<u32, GraphError> {
            s.parse()
                .map_err(|e| parse_err(no, format!("bad degree: {e}")))
        };
        let (a, b, c) = (
            parse_u32(toks[1])?,
            parse_u32(toks[2])?,
            parse_u32(toks[3])?,
        );
        let n: u64 = toks[4]
            .parse()
            .map_err(|e| parse_err(no, format!("bad count: {e}")))?;
        let total = match toks[0] {
            "W" => wedges.entry(canon_wedge(a, b, c)),
            "T" => triangles.entry(canon_triangle(a, b, c)),
            other => return Err(parse_err(no, format!("unknown tag {other:?}"))),
        }
        .or_insert(0);
        *total = total.checked_add(n).ok_or_else(|| {
            parse_err(
                no,
                "count overflows when merged with an earlier line".into(),
            )
        })?;
    }
    Dist3K::from_entries(wedges, triangles)
}

/// Counts of the 3K reader fuzz's well-formed keyed lines: zero (kept as
/// an entry), small, and large enough that two of them on one key
/// overflow a `u64`.
const COUNTS_3K: &[u64] = &[0, 1, 5, 1 << 63, u64::MAX];

/// Fragments of the 3K reader fuzz's lines, `TAG SEP K SEP K SEP K SEP
/// COUNT END`: tags (and a comment mark) in the tag slot; degrees and
/// counts plain, signed, zero-padded, at the edge of `u32` and `u64` and
/// past them, empty and junk; every whitespace the reader trims or splits
/// on (ASCII, U+0085, U+00A0, U+3000) as separators, plus none at all;
/// and line ends that add a sixth token, a lone `\r`, a comment, a
/// non-UTF-8 byte, or no newline (gluing the line to the next). The
/// first `CLEAN_*` entries of each table make only well-formed lines.
const TAGS_3K: &[&str] = &["W", "T", "X", "w", "#", "", "W5"];
const NUMS_3K: &[&str] = &[
    "1",
    "2",
    "3",
    "7",
    "12",
    "007",
    "000000000005",
    "18446744073709551615",
    "+4",
    "-1",
    "4294967295",
    "4294967296",
    "99999999999",
    "18446744073709551616",
    "x",
    "",
];
const SEPS_3K: &[&str] = &[
    " ", "\t", "  ", "\x0b", "\x0c", "\u{85}", "\u{a0}", "\u{3000}", "",
];
const ENDS_3K: &[&[u8]] = &[
    b"\n",
    b"\r\n",
    b" \n",
    "\u{a0}\n".as_bytes(),
    b"\r",
    b" 5\n",
    b"\xff\n",
    b"\xe3\x80\n",
    b" # c\n",
    b"",
];
const CLEAN_TAGS_3K: usize = 2;
const CLEAN_NUMS_3K: usize = 7;
const CLEAN_SEPS_3K: usize = 8;
const CLEAN_ENDS_3K: usize = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `io::read_3k` (one reused byte buffer, tokens taken without a
    /// `Vec`, keys pushed into sorted columns) against the line-by-line
    /// hash-map reader it replaced, on fuzzed bytes: the same error
    /// (variant, line and message, the `Io` error of a non-UTF-8 line and
    /// an overflow that only the final merge of an out-of-order column
    /// finds included), or the same census, whose columns are strictly
    /// ascending and keep zero-count entries. The fuzzed lines follow
    /// well-formed keyed lines over three small degrees, so keys repeat,
    /// come non-canonical, and come in the order drawn, ascending (as
    /// `write_3k` writes them) or descending.
    #[test]
    fn read_3k_matches_the_line_reader_oracle(
        clean in 0..2usize,
        lines in proptest::collection::vec(
            (
                0..TAGS_3K.len(),
                proptest::collection::vec((0..SEPS_3K.len(), 0..NUMS_3K.len()), 4..5),
                0..ENDS_3K.len(),
            ),
            0..24,
        ),
        keyed in proptest::collection::vec(
            (0..2usize, (1..4u32, 1..4u32, 1..4u32), 0..COUNTS_3K.len()),
            0..24,
        ),
        keyed_order in 0..3usize,
    ) {
        use dk_repro::core::dist::{canon_triangle, canon_wedge};
        use dk_repro::core::io::read_3k;
        let pick = |len: usize, i: usize, clean_len: usize| {
            if clean == 1 { i % clean_len } else { i % len }
        };
        let canon = |&(tri, (a, b, c), _): &(usize, (u32, u32, u32), usize)| {
            (tri, if tri == 1 { canon_triangle(a, b, c) } else { canon_wedge(a, b, c) })
        };
        let mut keyed = keyed;
        match keyed_order {
            1 => keyed.sort_by_key(canon),
            2 => keyed.sort_by_key(|line| std::cmp::Reverse(canon(line))),
            _ => {}
        }
        let mut bytes: Vec<u8> = Vec::new();
        for &(tri, (a, b, c), count) in &keyed {
            let tag = if tri == 1 { 'T' } else { 'W' };
            bytes.extend_from_slice(format!("{tag} {a} {b} {c} {}\n", COUNTS_3K[count]).as_bytes());
        }
        for (tag, fields, end) in &lines {
            bytes.extend_from_slice(TAGS_3K[pick(TAGS_3K.len(), *tag, CLEAN_TAGS_3K)].as_bytes());
            for &(sep, num) in fields {
                bytes.extend_from_slice(SEPS_3K[pick(SEPS_3K.len(), sep, CLEAN_SEPS_3K)].as_bytes());
                bytes.extend_from_slice(NUMS_3K[pick(NUMS_3K.len(), num, CLEAN_NUMS_3K)].as_bytes());
            }
            bytes.extend_from_slice(ENDS_3K[pick(ENDS_3K.len(), *end, CLEAN_ENDS_3K)]);
        }
        let want = read_3k_oracle(bytes.as_slice());
        let got = read_3k(bytes.as_slice());
        prop_assert_eq!(&got, &want, "{:?}", String::from_utf8_lossy(&bytes));
        if let Ok(got) = &got {
            for column in [got.wedges(), got.triangles()] {
                prop_assert!(column.windows(2).all(|w| w[0].0 < w[1].0), "{:?}", column);
            }
        }
    }
}
