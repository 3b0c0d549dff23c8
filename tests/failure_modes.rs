//! Failure-injection tests: every construction rejects malformed input
//! with a descriptive error instead of looping, panicking, or silently
//! producing a wrong graph.

use dk_repro::core::dist::{Dist1K, Dist2K, Dist3K};
use dk_repro::core::generate::target::{generate_2k_random, Bootstrap, TargetOptions};
use dk_repro::core::generate::{matching, pseudograph, stochastic};
use dk_repro::core::{io, rescale};
use dk_repro::graph::edges::edge_position;
use dk_repro::graph::{Graph, GraphError};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng() -> StdRng {
    StdRng::seed_from_u64(1)
}

#[test]
fn odd_degree_sums_rejected_everywhere() {
    let d = Dist1K::from_degree_sequence(&[3, 3, 1]);
    assert!(matches!(
        pseudograph::generate_1k(&d, &mut rng()),
        Err(GraphError::NotGraphical(_))
    ));
    assert!(matches!(
        matching::generate_1k(&d, &mut rng()),
        Err(GraphError::NotGraphical(_))
    ));
    assert!(matches!(
        stochastic::generate_1k(&d, &mut rng()),
        Err(GraphError::NotGraphical(_))
    ));
}

#[test]
fn inconsistent_jdd_rejected_everywhere() {
    // degree-5 class with 1 stub: impossible
    let mut d = Dist2K::default();
    d.counts.insert((5, 7), 1);
    assert!(pseudograph::generate_2k(&d, &mut rng()).is_err());
    assert!(matching::generate_2k(&d, &mut rng()).is_err());
    assert!(stochastic::generate_2k(&d, &mut rng()).is_err());
    assert!(generate_2k_random(
        &d,
        Bootstrap::Matching,
        &TargetOptions::default(),
        &mut rng()
    )
    .is_err());
}

#[test]
fn non_graphical_but_even_sequence_fails_in_construction_not_forever() {
    // [5,5,1,1,1,1]: even sum, fails Erdős–Gallai. Matching must
    // terminate with an error (bounded repair), not spin.
    let d = Dist1K::from_degree_sequence(&[5, 5, 1, 1, 1, 1]);
    // lint: allow(no-wall-clock) — watchdog bound on the failure path; this failure_modes test asserts speed, not results
    let start = std::time::Instant::now();
    let res = matching::generate_1k(&d, &mut rng());
    assert!(res.is_err());
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "failure must be fast"
    );
}

#[test]
fn impossible_3k_target_respects_patience() {
    // Target the 3K of a *different* degree sequence: unreachable by
    // 2K-preserving moves. The run must stop via patience, not hang.
    let a = dk_repro::graph::builders::karate_club();
    let b = dk_repro::graph::builders::grid(5, 7); // different world
    let target = Dist3K::from_graph(&b);
    let mut g = a.clone();
    let opts = TargetOptions {
        max_attempts: 200_000,
        patience: Some(10_000),
        ..Default::default()
    };
    let stats =
        dk_repro::core::generate::target::target_3k_from_2k(&mut g, &target, &opts, &mut rng());
    assert!(stats.final_distance > 0.0, "cannot possibly reach 0");
    assert!(stats.attempts <= 200_000);
    // 2K (hence degrees) of the original must be intact regardless
    assert_eq!(Dist2K::from_graph(&g), Dist2K::from_graph(&a));
}

#[test]
fn dist_file_parse_errors_carry_context() {
    let expect_parse = |err: GraphError, want_line: usize, want: &str| match err {
        GraphError::Parse { line, msg } => {
            assert_eq!(line, want_line, "{msg}");
            assert!(msg.contains(want), "{msg}");
        }
        other => panic!("expected parse error, got {other}"),
    };
    expect_parse(io::read_2k("1 2 x\n".as_bytes()).unwrap_err(), 1, "count");
    // duplicate lines merge by addition; a sum past u64 (usize for 1K)
    // is refused on the line that overflows instead of wrapping to 0
    let max = u64::MAX;
    let dup_1k = format!("2 {max}\n2 1\n");
    expect_parse(io::read_1k(dup_1k.as_bytes()).unwrap_err(), 2, "overflow");
    let dup_2k = format!("1 2 {max}\n# comment\n2 1 1\n");
    expect_parse(io::read_2k(dup_2k.as_bytes()).unwrap_err(), 3, "overflow");
    for tag in ["W", "T"] {
        let dup_3k = format!("{tag} 1 2 3 {max}\n{tag} 3 2 1 1\n");
        expect_parse(io::read_3k(dup_3k.as_bytes()).unwrap_err(), 2, "overflow");
        // out of order, the repeated key merges once the input ends, and
        // the line that overflows still beats a later bad line
        let late =
            format!("{tag} 9 9 9 1\n{tag} 1 2 3 {max}\n{tag} 2 2 2 1\n{tag} 3 2 1 1\nW 1 2\n");
        expect_parse(io::read_3k(late.as_bytes()).unwrap_err(), 4, "overflow");
    }
    // a degree past u32, as the 2K and 3K readers already reject
    let huge_degree = format!("{max} 1\n");
    expect_parse(
        io::read_1k(huge_degree.as_bytes()).unwrap_err(),
        1,
        "degree",
    );
    // the node total passing usize is an overflow on the line that
    // passes it, even across degrees
    let total = format!("2 {max}\n3 1\n");
    expect_parse(io::read_1k(total.as_bytes()).unwrap_err(), 2, "overflow");
    // a degree no node of a graph with the file's node count can have:
    // refused by name, after every line is parsed
    expect_parse(io::read_1k("3 1\n".as_bytes()).unwrap_err(), 1, "degree");
    expect_parse(
        io::read_1k("1 2\n# comment\n5 1\n2 1\n".as_bytes()).unwrap_err(),
        3,
        "degree",
    );
    // a representable degree near 4·10^9 is refused before the dense
    // count vector is sized for it (≈ 32 GB before this check)
    expect_parse(
        io::read_1k("4000000000 1\n".as_bytes()).unwrap_err(),
        1,
        "degree",
    );
    // a zero-count line parses but sizes nothing
    let zero = io::read_1k("0 3\n9 0\n".as_bytes()).expect("zero counts parse");
    assert_eq!(zero.counts, [3]);
    // duplicate lines still merge
    let merged = io::read_1k("2 3\n2 4\n".as_bytes()).expect("duplicates merge");
    assert_eq!(merged.counts, [0, 0, 7]);
}

/// `Dist2K::to_1k` — the path `dk generate 2` and `3` take — checks
/// every class before it sizes its dense vectors, so a degree no node of
/// the implied node count can have is refused by name. The first case
/// sized two dense vectors of ≈ 32 GB each before this check.
#[test]
fn to_1k_refuses_an_impossible_degree_before_sizing() {
    let refused = |file: &str, want: &str| {
        let d = io::read_2k(file.as_bytes()).expect("the file parses");
        match d.to_1k() {
            Err(GraphError::NotGraphical(msg)) => assert!(msg.contains(want), "{file:?}: {msg}"),
            other => panic!("{file:?}: expected NotGraphical, got {other:?}"),
        }
    };
    // one stub in the degree-4·10⁹ class: not divisible, and refused
    // with no dense vector sized, through the generator too
    refused("1 4000000000 1\n", "class 4000000000 owns 1 stubs");
    let hostile = io::read_2k("1 4000000000 1\n".as_bytes()).expect("the file parses");
    assert!(matches!(
        generate_2k_random(
            &hostile,
            Bootstrap::Matching,
            &TargetOptions::default(),
            &mut rng()
        ),
        Err(GraphError::NotGraphical(_))
    ));
    // divisible but impossible: one node of degree 4·10⁹ alone
    refused(
        "4000000000 4000000000 2000000000\n",
        "degree 4000000000 is impossible: the classes total 1 nodes",
    );
    refused(
        "2 2 1\n",
        "degree 2 is impossible: the classes total 1 nodes",
    );
    // the smallest impossible degree is named
    refused("1 3 1\n1 5 1\n1 1 1\n", "class 3 owns 1 stubs");
    refused(
        "4 4 2\n3 3 3\n",
        "degree 3 is impossible: the classes total 3 nodes",
    );
    // degree 0 is refused first, a zero count included
    refused("1 4000000000 1\n0 2 0\n", "degree 0");
    // stub and node totals are summed with checks
    let max = u64::MAX;
    refused(&format!("1 1 {max}\n"), "stubs of degree class 1 overflow");
    let half = max / 2;
    refused(&format!("1 1 {half}\n2 2 {half}\n"), "node total overflows");
    // a zero-count key owns no stubs and sizes nothing
    let zero = io::read_2k("1 1 1\n1 3000000000 0\n".as_bytes()).expect("the file parses");
    assert_eq!(zero.to_1k().expect("one edge, two nodes").counts, [0, 2]);
}

#[test]
fn rescale_rejects_empty_inputs() {
    assert!(rescale::rescale_1k(&Dist1K::default(), 10).is_err());
    assert!(rescale::rescale_2k(&Dist2K::default(), 10).is_err());
}

#[test]
fn generators_survive_extreme_but_valid_inputs() {
    // single edge
    let d = Dist1K::from_degree_sequence(&[1, 1]);
    let g = matching::generate_1k(&d, &mut rng()).unwrap().graph;
    assert_eq!(g.edge_count(), 1);
    // complete graph's JDD forces K_n exactly
    let k5 = dk_repro::graph::builders::complete(5);
    let jdd = Dist2K::from_graph(&k5);
    let g = matching::generate_2k(&jdd, &mut rng()).unwrap().graph;
    assert_eq!(g, k5);
    // a JDD with a single huge star
    let star = dk_repro::graph::builders::star(50);
    let jdd = Dist2K::from_graph(&star);
    let g = matching::generate_2k(&jdd, &mut rng()).unwrap().graph;
    assert_eq!(Dist2K::from_graph(&g), jdd);
}

#[test]
fn graph_io_rejects_truncated_and_corrupt_files() {
    use dk_repro::graph::io::read_edge_list;
    for bad in [
        "0\n",
        "0 1 2\n",
        "nodes\n",
        "a b\n",
        "nodes 1\n0 5\n",
        // node counts past the id space: refused, not allocated
        "nodes 18446744073709551615\n0 1\n",
        "nodes 5000000000\n0 1\n",
    ] {
        assert!(read_edge_list(bad.as_bytes()).is_err(), "{bad:?}");
    }
}

/// `EdgeList` stores each edge's list position as a `u32`: the last
/// position that fits is indexed, and the next one is a typed error where
/// a cast would wrap it onto the position of the list's first edge.
#[test]
fn edge_positions_past_u32_fail_loudly() {
    let last = u32::MAX as usize;
    assert_eq!(edge_position(last), Ok(u32::MAX));
    assert!(matches!(
        edge_position(last + 1),
        Err(GraphError::ConstructionFailed(_))
    ));
}

#[test]
fn zero_size_everything() {
    let mut r = rng();
    assert_eq!(
        pseudograph::generate_1k(&Dist1K::default(), &mut r)
            .unwrap()
            .graph
            .node_count(),
        0
    );
    assert_eq!(
        stochastic::generate_0k(&dk_repro::core::dist::Dist0K { nodes: 0, edges: 0 }, &mut r)
            .graph
            .node_count(),
        0
    );
    let empty = Graph::new();
    assert_eq!(Dist3K::from_graph(&empty), Dist3K::default());
}
