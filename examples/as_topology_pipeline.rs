//! AS-topology pipeline: the workflow the paper's tooling (Orbis)
//! supported — measure a topology once, ship its dK-distribution as a
//! small text file, and let anyone regenerate statistically equivalent
//! topologies at will (including rescaled ones).
//!
//! The whole pipeline runs through the unified API: [`AnyDist`] holds
//! "a dK-distribution of runtime-chosen d", and the [`Generator`]
//! builder constructs from it — no per-(d, algorithm) dispatch.
//!
//! ```text
//! cargo run --release --example as_topology_pipeline
//! ```

use dk_repro::core::{AnyDist, Generator, Method};
use dk_repro::metrics::{Analyzer, MetricTable};
use dk_repro::topologies::as_like::{skitter_like, AsLikeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);

    // 1. "Measure" an AS topology (synthetic skitter-scale stand-in).
    let params = AsLikeParams {
        nodes: 1500,
        anneal_attempts: 300_000,
        ..AsLikeParams::small()
    };
    let measured = skitter_like(&params, &mut rng);
    println!(
        "measured AS-like topology: n = {}, m = {}",
        measured.node_count(),
        measured.edge_count()
    );

    // 2. Extract the JDD and write it in the Orbis-style text format.
    let jdd = AnyDist::from_graph(2, &measured).expect("d ≤ 3");
    let mut file = Vec::new();
    jdd.write(&mut file).expect("serialize 2K");
    println!(
        "2K distribution: {} cells, {} bytes as text",
        jdd.as_2k().expect("order 2").counts.len(),
        file.len()
    );

    // 3. Anyone can now regenerate topologies from the file alone.
    let restored = AnyDist::read(2, file.as_slice()).expect("parse 2K");
    assert_eq!(restored.distance_sq(&jdd), Some(0.0));
    let generator = Generator::new(Method::Pseudograph).seed(7);
    let synthetic = generator.build(&restored).expect("consistent").graph;

    // 4. Rescale the JDD to twice the size and generate again — the §6
    //    extension: "skitter at 2× the size".
    let scaled = restored
        .rescale(2 * measured.node_count())
        .expect("rescale");
    let big = generator.seed(8).build(&scaled).expect("consistent").graph;

    let analyzer = Analyzer::new();
    let mut table = MetricTable::new();
    table.push("measured", analyzer.analyze(&measured));
    table.push("synthetic-2K", analyzer.analyze(&synthetic));
    table.push("rescaled-2x", analyzer.analyze(&big));
    print!("\n{}", table.render());
    println!(
        "\nrescaled graph: n = {} (target {}), same degree-correlation shape",
        big.node_count(),
        2 * measured.node_count()
    );
}
