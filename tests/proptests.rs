//! Cross-crate property tests on randomly generated graphs.

use dk_repro::core::dist::{Dist1K, Dist2K, Dist3K};
use dk_repro::core::generate::rewire::{randomize, RewireOptions, SwapBudget};
use dk_repro::core::io;
use dk_repro::graph::csr::CsrGraph;
use dk_repro::graph::Graph;
use proptest::prelude::*;

/// Strategy: a random simple graph with up to `n` nodes.
fn arb_graph(n: u32, max_edges: usize) -> impl Strategy<Value = Graph> {
    proptest::collection::vec((0..n, 0..n), 0..max_edges)
        .prop_map(move |edges| Graph::from_edges_dedup(n as usize, edges).expect("in range"))
}

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

    /// The word-packed SWAR union kernel (8 registers per `u64`, PR 10)
    /// equals the scalar per-byte `if d < s { d = s }` loop on
    /// arbitrary register files — including lengths that exercise both
    /// the 8-byte fast path and the scalar remainder, and bytes on both
    /// sides of the 0x80 sign-bit boundary the SWAR compare splits on.
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
}
