//! Equivalence harness for the `dk-mcmc` engine (PR contract):
//!
//! * **Delta equivalence** — `Delta2K`/`Delta3K` accumulated over a
//!   random accepted-move sequence equal recompute-from-scratch on the
//!   final graph, across seeds and graph shapes (hub-rich ones included);
//! * **Swap-delta oracle** — on small fixtures, every simple-valid swap's
//!   swap-level `Delta3K::track_swap` equals both a per-edge oracle (one
//!   tracked neighbourhood walk per edge removal or addition on a
//!   mutating graph) and the re-extraction difference;
//! * **MH balance** — forward and reverse proposal probabilities are
//!   symmetric for plain double-edge swaps, so the proposal ratio drops
//!   out of the acceptance rule;
//! * **Determinism** — fixed-seed chain output is bit-identical across
//!   thread counts;
//! * **Rejection hygiene** — an all-rejecting run leaves graph *and*
//!   census byte-identical (exercising the tentative-apply revert path);
//! * **Edge order** — golden digests of `Graph::edges()` after the
//!   0K–3K randomizing chains, the 3K targeting chain and the 1K-, 2K-
//!   and custom-objective explorers pin the order the output files
//!   carry.

use dk_repro::core::dist::{canon_triangle, canon_wedge, Degree, Dist2K, Dist3K};
use dk_repro::core::generate::delta::{frozen_degrees, Delta2K, Delta3K};
use dk_repro::core::generate::objective::{Objective2K, Objective3K};
use dk_repro::graph::{builders, ensemble, Graph};
use dk_repro::mcmc::{
    apply_swap, propose_swap, ChainOptions, McmcChain, NullObjective, ProposalKind, RunBudget,
};
use dk_repro::topologies::ba::{barabasi_albert, BaParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// ---------------------------------------------------------------------
// Oracle: the 3K delta as four per-edge tracked walks on a mutating graph
// ---------------------------------------------------------------------

/// `Delta3K`'s private bump helpers, over its public maps, so the oracle
/// below keeps its original text.
trait OracleBumps {
    fn bump_wedge(&mut self, key: (Degree, Degree, Degree), dv: i64);
    fn bump_tri(&mut self, key: (Degree, Degree, Degree), dv: i64);
}

impl OracleBumps for Delta3K {
    fn bump_wedge(&mut self, key: (Degree, Degree, Degree), dv: i64) {
        *self.wedges.entry(key).or_insert(0) += dv;
    }

    fn bump_tri(&mut self, key: (Degree, Degree, Degree), dv: i64) {
        *self.triangles.entry(key).or_insert(0) += dv;
    }
}

/// Removes edge `(x, y)`, accumulating the 3K change.
///
/// # Panics
/// Panics if the edge is absent (caller bug — swaps pick existing edges).
pub fn remove_edge_tracked(g: &mut Graph, x: u32, y: u32, deg: &[Degree], delta: &mut Delta3K) {
    // Enumerate with the edge still present.
    for &z in g.neighbors(x) {
        if z == y {
            continue;
        }
        if g.has_edge(z, y) {
            // triangle {x,y,z} dies; an induced wedge centered at z is born
            delta.bump_tri(
                canon_triangle(deg[x as usize], deg[y as usize], deg[z as usize]),
                -1,
            );
            delta.bump_wedge(
                canon_wedge(deg[x as usize], deg[z as usize], deg[y as usize]),
                1,
            );
        } else {
            // wedge y−x−z (centered at x) dies
            delta.bump_wedge(
                canon_wedge(deg[y as usize], deg[x as usize], deg[z as usize]),
                -1,
            );
        }
    }
    for &z in g.neighbors(y) {
        if z == x || g.has_edge(z, x) {
            continue; // triangles handled from the x side
        }
        // wedge x−y−z (centered at y) dies
        delta.bump_wedge(
            canon_wedge(deg[x as usize], deg[y as usize], deg[z as usize]),
            -1,
        );
    }
    g.remove_edge(x, y).expect("swap removes an existing edge");
}

/// Adds edge `(x, y)`, accumulating the 3K change.
///
/// # Panics
/// Panics if the edge already exists or `x == y` (caller bug — swap
/// validity is checked before application).
pub fn add_edge_tracked(g: &mut Graph, x: u32, y: u32, deg: &[Degree], delta: &mut Delta3K) {
    // Enumerate with the edge still absent.
    for &z in g.neighbors(x) {
        if z == y {
            continue;
        }
        if g.has_edge(z, y) {
            // wedge x−z−y closes into a triangle
            delta.bump_wedge(
                canon_wedge(deg[x as usize], deg[z as usize], deg[y as usize]),
                -1,
            );
            delta.bump_tri(
                canon_triangle(deg[x as usize], deg[y as usize], deg[z as usize]),
                1,
            );
        } else {
            // new wedge y−x−z centered at x
            delta.bump_wedge(
                canon_wedge(deg[y as usize], deg[x as usize], deg[z as usize]),
                1,
            );
        }
    }
    for &z in g.neighbors(y) {
        if z == x || g.has_edge(z, x) {
            continue;
        }
        delta.bump_wedge(
            canon_wedge(deg[x as usize], deg[y as usize], deg[z as usize]),
            1,
        );
    }
    g.add_edge(x, y).expect("swap adds a checked-legal edge");
}

/// Strategy: a random simple graph with up to `n` nodes.
fn arb_graph(n: u32, max_edges: usize) -> impl Strategy<Value = Graph> {
    proptest::collection::vec((0..n, 0..n), 4..max_edges)
        .prop_map(move |edges| Graph::from_edges_dedup(n as usize, edges).expect("in range"))
}

/// Strategy: a star core (node 0 joined to the next `hub − 1` nodes)
/// plus random edges — hub-rich graphs whose swaps move a hub's partner
/// across degree classes and sweep large common-neighbour sets.
fn arb_hub_graph(n: u32, max_edges: usize) -> impl Strategy<Value = Graph> {
    (
        n / 2..n,
        proptest::collection::vec((0..n, 0..n), 4..max_edges),
    )
        .prop_map(move |(hub, edges)| {
            let core = (1..hub).map(|v| (0, v));
            Graph::from_edges_dedup(n as usize, core.chain(edges)).expect("in range")
        })
}

/// Runs 200 plain proposals on `g`, applying each one and accumulating
/// its swap-level `Delta3K` (read before the apply). Returns the initial
/// census patched by the accumulated delta, and the final census.
fn accumulate_swap_deltas(mut g: Graph, seed: u64) -> (Dist3K, Dist3K) {
    let initial = Dist3K::from_graph(&g);
    if g.edge_count() < 2 {
        return (initial.clone(), initial);
    }
    let deg = frozen_degrees(&g);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut acc = Delta3K::default();
    let mut step = Delta3K::default();
    for _ in 0..200 {
        let Ok(p) = propose_swap(&g, &deg, ProposalKind::Plain, &mut rng) else {
            continue;
        };
        step.clear();
        step.track_swap(&g, &deg, p.remove);
        apply_swap(&mut g, &p);
        for (&k, &dv) in &step.wedges {
            *acc.wedges.entry(k).or_insert(0) += dv;
        }
        for (&k, &dv) in &step.triangles {
            *acc.triangles.entry(k).or_insert(0) += dv;
        }
    }
    let mut patched = initial;
    acc.apply_to(&mut patched);
    (patched, Dist3K::from_graph(&g))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Accumulated `Delta2K` over accepted plain swaps == re-extraction.
    #[test]
    fn delta2k_accumulation_matches_extraction(g in arb_graph(16, 48), seed in 0u64..500) {
        let mut g = g;
        if g.edge_count() < 2 {
            return Ok(());
        }
        let deg = frozen_degrees(&g);
        let initial = Dist2K::from_graph(&g);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc = Delta2K::default();
        let mut accepted = 0u32;
        for _ in 0..400 {
            let Ok(p) = propose_swap(&g, &deg, ProposalKind::Plain, &mut rng) else {
                continue;
            };
            apply_swap(&mut g, &p);
            acc.track_swap(&deg, &p.remove, &p.add);
            accepted += 1;
        }
        let mut patched = initial;
        acc.apply_to(&mut patched);
        prop_assert_eq!(patched, Dist2K::from_graph(&g), "after {} accepted", accepted);
    }

    /// Accumulated swap-level `Delta3K` over accepted plain swaps ==
    /// re-extraction, on sparse random graphs and on hub-rich ones.
    #[test]
    fn delta3k_accumulation_matches_extraction(
        g in arb_graph(14, 40),
        hubbed in arb_hub_graph(18, 40),
        seed in 0u64..500,
    ) {
        for g in [g, hubbed] {
            let (patched, fin) = accumulate_swap_deltas(g, seed);
            prop_assert_eq!(patched, fin);
        }
    }

    /// Plain double-edge swaps are drawn from a symmetric proposal
    /// density: `q(G → G') = q(G' → G)`, so the MH ratio is 1.
    #[test]
    fn plain_proposal_probabilities_symmetric(g in arb_graph(16, 48), seed in 0u64..500) {
        let g = g;
        if g.edge_count() < 2 {
            return Ok(());
        }
        let deg = frozen_degrees(&g);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let Ok(p) = propose_swap(&g, &deg, ProposalKind::Plain, &mut rng) else {
                continue;
            };
            prop_assert_eq!(p.forward_prob, p.reverse_prob);
            prop_assert_eq!(p.proposal_ratio(), 1.0);
        }
    }
}

/// A fixed-seed chain produces bit-identical output regardless of the
/// thread count of the surrounding ensemble runner.
#[test]
fn chain_output_identical_across_thread_counts() {
    let base = builders::karate_club();
    let run_one = |_i: u64, rng: &mut StdRng| -> Graph {
        let seed = rng.gen::<u64>();
        let mut chain = McmcChain::seeded(base.clone(), seed, ChainOptions::default());
        chain.run(&mut NullObjective, &RunBudget::steps(2000));
        chain.into_graph()
    };
    let serial = ensemble::run(6, 42, 1, run_one);
    let parallel = ensemble::run(6, 42, 3, run_one);
    assert_eq!(serial, parallel);
    // and the replicas are genuinely distinct walks
    assert!(serial.windows(2).any(|w| w[0] != w[1]));
}

/// An all-rejecting run leaves graph and census byte-identical — both
/// for the non-mutating 2K objective and for the tentative-apply 3K
/// objective (whose rejections go through `revert_swap`).
#[test]
fn rejected_moves_leave_graph_and_census_byte_identical() {
    let original = builders::karate_club();
    let strict = ChainOptions {
        accept_neutral: false, // ΔD = 0 moves rejected too → reject all
        ..Default::default()
    };

    // 2K objective at its own target: every move has ΔD ≥ 0 → rejected.
    let mut obj2 = Objective2K::new(&original, &Dist2K::from_graph(&original));
    let mut chain = McmcChain::seeded(original.clone(), 7, strict);
    let run = chain.run(&mut obj2, &RunBudget::steps(3000));
    assert_eq!(run.accepted, 0);
    assert!(run.attempts > 0);
    let g = chain.into_graph();
    assert_eq!(g, original, "rejected 2K moves must not mutate");
    assert_eq!(obj2.current_jdd(), Dist2K::from_graph(&original));

    // 3K objective at its own target: evaluate mutates tentatively, so
    // every rejection exercises the revert path.
    let strict3 = ChainOptions {
        accept_neutral: false,
        proposal: ProposalKind::JddPreserving,
        ..Default::default()
    };
    let mut obj3 = Objective3K::new(&original, &Dist3K::from_graph(&original));
    let mut chain = McmcChain::seeded(original.clone(), 8, strict3);
    let run = chain.run(&mut obj3, &RunBudget::steps(3000));
    assert_eq!(run.accepted, 0);
    let g = chain.into_graph();
    assert_eq!(g, original, "reverted 3K moves must restore the graph");
    assert_eq!(obj3.current_census(), &Dist3K::from_graph(&original));
    assert_eq!(
        obj3.current_distance(),
        0.0,
        "incremental D3 must stay pinned at the target"
    );
}

type SortedDelta = (
    Vec<((Degree, Degree, Degree), i64)>,
    Vec<((Degree, Degree, Degree), i64)>,
);

/// A delta's nonzero entries, sorted (wedges, triangles).
fn nonzero_sorted(d: &Delta3K) -> SortedDelta {
    let pick = |m: &dk_repro::graph::hashers::DetHashMap<(Degree, Degree, Degree), i64>| {
        let mut v: Vec<_> = m
            .iter()
            .filter(|(_, &dv)| dv != 0)
            .map(|(&k, &dv)| (k, dv))
            .collect();
        v.sort_unstable();
        v
    };
    (pick(&d.wedges), pick(&d.triangles))
}

/// `after − before`, entry by entry.
fn extraction_delta(before: &Dist3K, after: &Dist3K) -> Delta3K {
    let mut d = Delta3K::default();
    for (&k, &v) in &after.wedges {
        *d.wedges.entry(k).or_insert(0) += v as i64;
    }
    for (&k, &v) in &before.wedges {
        *d.wedges.entry(k).or_insert(0) -= v as i64;
    }
    for (&k, &v) in &after.triangles {
        *d.triangles.entry(k).or_insert(0) += v as i64;
    }
    for (&k, &v) in &before.triangles {
        *d.triangles.entry(k).or_insert(0) -= v as i64;
    }
    d
}

/// Which kinds of swap an enumeration reached.
#[derive(Debug, Default)]
struct SwapCoverage {
    valid: u64,
    /// `k(b) = k(d)`, `k(a) ≠ k(c)`: JDD-preserving on the b–d side only.
    jdd_bd: u64,
    /// `k(a) = k(c)`, `k(b) ≠ k(d)`: JDD-preserving on the a–c side only.
    jdd_ac: u64,
    /// Neither: a plain (JDD-changing) swap.
    plain: u64,
    /// `a ~ c` or `b ~ d`: the four endpoints are not independent.
    adjacent: u64,
    /// Swaps whose 3K delta is nonzero.
    changing: u64,
}

impl SwapCoverage {
    fn add(&mut self, other: &SwapCoverage) {
        self.valid += other.valid;
        self.jdd_bd += other.jdd_bd;
        self.jdd_ac += other.jdd_ac;
        self.plain += other.plain;
        self.adjacent += other.adjacent;
        self.changing += other.changing;
    }
}

/// Every ordered pair of distinct edges × both orientations of the
/// second: each simple-valid swap's swap-level delta must equal the
/// per-edge oracle and the re-extraction difference.
fn check_every_swap(g: &Graph) -> SwapCoverage {
    let deg = frozen_degrees(g);
    let before = Dist3K::from_graph(g);
    let k = |v: u32| deg[v as usize];
    let mut cov = SwapCoverage::default();
    for (i, &(a, b)) in g.edges().iter().enumerate() {
        for (j, &e2) in g.edges().iter().enumerate() {
            if i == j {
                continue;
            }
            for (c, d) in [e2, (e2.1, e2.0)] {
                if a == d || c == b || g.has_edge(a, d) || g.has_edge(c, b) {
                    continue;
                }
                let mut swap = Delta3K::default();
                swap.track_swap(g, &deg, [(a, b), (c, d)]);

                let mut h = g.clone();
                let mut oracle = Delta3K::default();
                remove_edge_tracked(&mut h, a, b, &deg, &mut oracle);
                remove_edge_tracked(&mut h, c, d, &deg, &mut oracle);
                add_edge_tracked(&mut h, a, d, &deg, &mut oracle);
                add_edge_tracked(&mut h, c, b, &deg, &mut oracle);
                let extracted = extraction_delta(&before, &Dist3K::from_graph(&h));

                let got = nonzero_sorted(&swap);
                assert_eq!(
                    got,
                    nonzero_sorted(&oracle),
                    "swap {{{a},{b}}},{{{c},{d}}} vs the per-edge oracle"
                );
                assert_eq!(
                    got,
                    nonzero_sorted(&extracted),
                    "swap {{{a},{b}}},{{{c},{d}}} vs re-extraction"
                );

                cov.valid += 1;
                match (k(b) == k(d), k(a) == k(c)) {
                    (true, false) => cov.jdd_bd += 1,
                    (false, true) => cov.jdd_ac += 1,
                    (false, false) => cov.plain += 1,
                    (true, true) => {}
                }
                if g.has_edge(a, c) || g.has_edge(b, d) {
                    cov.adjacent += 1;
                }
                if !swap.is_zero() {
                    cov.changing += 1;
                }
            }
        }
    }
    cov
}

/// The wheel `W_k`: `star(k)` plus a cycle through its `k` leaves.
fn wheel(k: u32) -> Graph {
    let mut g = builders::star(k as usize);
    for v in 1..=k {
        g.add_edge(v, v % k + 1).expect("rim edge is new");
    }
    g
}

/// Exhaustive oracle check of the swap-level 3K delta on small fixtures
/// with triangles (karate, wheel), without them (grid), and with hubs
/// (karate, Barabási–Albert).
#[test]
fn swap_delta_matches_per_edge_oracle_on_every_swap() {
    let ba = barabasi_albert(
        &BaParams {
            nodes: 40,
            edges_per_node: 2,
            seed_nodes: 3,
        },
        &mut StdRng::seed_from_u64(5),
    );
    let fixtures = [
        ("karate", builders::karate_club()),
        ("grid(4, 4)", builders::grid(4, 4)),
        ("wheel(9)", wheel(9)),
        ("ba(40, 2)", ba),
    ];
    let mut total = SwapCoverage::default();
    for (name, g) in &fixtures {
        let cov = check_every_swap(g);
        assert!(
            cov.valid > 0 && cov.changing > 0 && cov.adjacent > 0,
            "{name}: {cov:?}"
        );
        total.add(&cov);
    }
    assert!(
        total.jdd_bd > 0,
        "no b–d-side JDD-preserving swap: {total:?}"
    );
    assert!(
        total.jdd_ac > 0,
        "no a–c-side JDD-preserving swap: {total:?}"
    );
    assert!(total.plain > 0, "no plain swap: {total:?}");
    assert!(
        total.changing < total.valid,
        "no 3K-preserving swap: {total:?}"
    );
}

/// FNV-1a over the edge list in storage order. `Graph`'s `PartialEq` is
/// set equality, so this is what pins the order `write_edge_list` emits.
fn edge_order_digest(g: &Graph) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(u, v) in g.edges() {
        for byte in u.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The 3K chains, the 2K-space explorer and the custom-objective
/// explorer apply every evaluated move and revert the rejected ones, and
/// `revert_swap` moves the two removed edges to the end of the edge
/// list; the 0K–2K randomizing chains and the 1K explorer apply only the
/// moves they accept. Output files carry that order, so it is part of
/// the byte-identity contract. The digests were recorded with the
/// per-edge oracle above computing the 3K deltas, with the explorers
/// drawing and applying their swaps inline, and with each caller writing
/// out its own swap-validity checks; they hold for any code that keeps
/// the moves, their order and the RNG draws.
#[test]
fn chain_outputs_keep_their_edge_order() {
    use dk_repro::core::explore::{
        explore_1k_likelihood, explore_2k, explore_custom, Direction, ExploreOptions,
        Objective2K as Explore,
    };
    use dk_repro::core::generate::rewire::{randomize, RewireOptions};
    use dk_repro::core::generate::target::{generate_3k_random, Bootstrap, TargetOptions};
    use dk_repro::metrics::clustering::triangle_count;

    let ba = barabasi_albert(
        &BaParams {
            nodes: 200,
            edges_per_node: 2,
            seed_nodes: 3,
        },
        &mut StdRng::seed_from_u64(17),
    );
    let fixtures = [
        ("karate", builders::karate_club()),
        ("grid12", builders::grid(12, 12)),
        ("ba200", ba),
    ];
    let mut got: Vec<(String, u64)> = Vec::new();
    for (name, g0) in &fixtures {
        for d in 0..=3u8 {
            let mut g = g0.clone();
            let mut rng = StdRng::seed_from_u64(103);
            let st = randomize(&mut g, d, &RewireOptions::default(), &mut rng);
            assert!(st.accepted > 0, "randomize({d}) on {name} accepted nothing");
            got.push((format!("randomize{d}/{name}"), edge_order_digest(&g)));
        }

        let opts = TargetOptions {
            max_attempts: 20_000,
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(113);
        let (g, st) = generate_3k_random(
            &Dist3K::from_graph(g0),
            Bootstrap::Matching,
            &opts,
            &mut rng,
        )
        .expect("a graph's own 3K census is realizable");
        assert!(st.accepted > 0, "3K targeting on {name} accepted nothing");
        got.push((format!("target3/{name}"), edge_order_digest(&g)));

        let explore = ExploreOptions {
            max_attempts: 6_000,
            patience: Some(3_000),
        };
        for (tag, objective, dir) in [
            (
                "s2_max",
                Explore::SecondOrderLikelihood,
                Direction::Maximize,
            ),
            (
                "s2_min",
                Explore::SecondOrderLikelihood,
                Direction::Minimize,
            ),
            ("cbar_max", Explore::MeanClustering, Direction::Maximize),
            ("cbar_min", Explore::MeanClustering, Direction::Minimize),
        ] {
            let mut g = g0.clone();
            let mut rng = StdRng::seed_from_u64(7);
            explore_2k(&mut g, objective, dir, &explore, &mut rng);
            got.push((format!("explore_{tag}/{name}"), edge_order_digest(&g)));
        }
        for (tag, dir) in [
            ("s_max", Direction::Maximize),
            ("s_min", Direction::Minimize),
        ] {
            let mut g = g0.clone();
            let mut rng = StdRng::seed_from_u64(7);
            explore_1k_likelihood(&mut g, dir, &explore, &mut rng);
            got.push((format!("explore_{tag}/{name}"), edge_order_digest(&g)));
        }
        let custom = ExploreOptions {
            max_attempts: 1_500,
            patience: Some(750),
        };
        for d in [1, 2] {
            let mut g = g0.clone();
            let mut rng = StdRng::seed_from_u64(7);
            let triangles = |g: &Graph| triangle_count(g) as f64;
            explore_custom(&mut g, d, Direction::Maximize, triangles, &custom, &mut rng);
            got.push((format!("explore_custom{d}/{name}"), edge_order_digest(&g)));
        }
    }
    let expected: [(&str, u64); 39] = [
        ("randomize0/karate", 0x1328be76d7fabed3),
        ("randomize1/karate", 0xb4bd6a26f662aa8c),
        ("randomize2/karate", 0x560f958d429d193c),
        ("randomize3/karate", 0x464b4fd6f6fe2e1c),
        ("target3/karate", 0x2d302b1e79a29593),
        ("explore_s2_max/karate", 0xaafc43c9aa1171ec),
        ("explore_s2_min/karate", 0x55db7aef2dc7008c),
        ("explore_cbar_max/karate", 0x6109bd1c2c015b0c),
        ("explore_cbar_min/karate", 0xd08e4675a5d1116c),
        ("explore_s_max/karate", 0xdfa0b65642db0e7c),
        ("explore_s_min/karate", 0x0354d77bf95f9e3c),
        ("explore_custom1/karate", 0x9bc7e13e86834d7c),
        ("explore_custom2/karate", 0x3da5eea8f06e3c3c),
        ("randomize0/grid12", 0x2d90b12201dc81f0),
        ("randomize1/grid12", 0xe3a066f255f8f8b5),
        ("randomize2/grid12", 0x44be7190229a9ab5),
        ("randomize3/grid12", 0xff226fccec239385),
        ("target3/grid12", 0x4830a88ed2e23f75),
        ("explore_s2_max/grid12", 0xdd735d01f465feb5),
        ("explore_s2_min/grid12", 0xd35cd163410f4725),
        ("explore_cbar_max/grid12", 0x721c9087fc7339b5),
        ("explore_cbar_min/grid12", 0x2bce11965faeefe5),
        ("explore_s_max/grid12", 0xa2bd76d0a3ee7465),
        ("explore_s_min/grid12", 0x8e5d39fc4c9eef85),
        ("explore_custom1/grid12", 0xbd6e4a827fe29ac5),
        ("explore_custom2/grid12", 0xf855d5e76c66c335),
        ("randomize0/ba200", 0x3a468c4b6a9f6d54),
        ("randomize1/ba200", 0xd0ad8c84fcc01836),
        ("randomize2/ba200", 0xfc5b280c4e62f626),
        ("randomize3/ba200", 0x09f95e4b827ad656),
        ("target3/ba200", 0x4cce18f15befaf2a),
        ("explore_s2_max/ba200", 0xb56e41edadf852b6),
        ("explore_s2_min/ba200", 0xd33028470aa077c6),
        ("explore_cbar_max/ba200", 0xf95a5a1312f0ad06),
        ("explore_cbar_min/ba200", 0xc0bff726f71daec6),
        ("explore_s_max/ba200", 0x3bd99887b1cbee36),
        ("explore_s_min/ba200", 0xf4dc0f2fe92d9fa6),
        ("explore_custom1/ba200", 0xfdd2208a8e71d466),
        ("explore_custom2/ba200", 0x327a88e3211d1596),
    ];
    let expected: Vec<(String, u64)> = expected.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    assert_eq!(got, expected);
}
