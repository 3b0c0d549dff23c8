//! Seeded inputs: the graphs each workload reads and the request
//! scripts of the `serve_mixed` clients. The same seed always gives the
//! same files.

use dk_graph::{io as graph_io, Graph};
use dk_topologies::ba::{barabasi_albert, BaParams};
use dk_topologies::{skitter_like, AsLikeParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Requests per client cycle.
pub const CYCLE: usize = 20;
/// Swap attempts of each scripted `rewire` write.
pub const REWIRE_ATTEMPTS: u64 = 20_000;

/// Barabási–Albert graph, two edges per arriving node.
pub fn ba(nodes: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    barabasi_albert(
        &BaParams {
            nodes,
            edges_per_node: 2,
            seed_nodes: 3,
        },
        &mut rng,
    )
}

/// Generation seed of the `dk_series` topology: the repository's
/// canonical paper-scale skitter-like input (master seed 20060911, as in
/// `dk_bench::inputs`). As in the paper, every run rewires and
/// regenerates this one topology and the workload seed drives the
/// chains; it also keeps set-up time from depending on the seed (the
/// generator anneals until it reaches its target clustering).
pub const SKITTER_SEED: u64 = 20060911 ^ 0xd15c_0b01;

/// The skitter-like AS topology (already its own GCC); `small` selects
/// the CI-scale preset.
pub fn as_like(seed: u64, small: bool) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let params = if small {
        AsLikeParams::small()
    } else {
        AsLikeParams::default()
    };
    skitter_like(&params, &mut rng)
}

/// Writes `g` in the `dk` edge-list format through a buffer (the
/// library's `save_edge_list` writes unbuffered, which at 10⁶ nodes
/// would make input generation mostly syscall time).
pub fn save(g: &Graph, path: &std::path::Path) {
    let file = std::fs::File::create(path).expect("create edge list");
    let mut out = std::io::BufWriter::new(file);
    graph_io::write_edge_list(g, &mut out).expect("write edge list");
    std::io::Write::flush(&mut out).expect("flush edge list");
}

/// The request kind at each position of a cycle, used both to build
/// the script and to classify latencies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Repeated `cheap` read on `shared`: a memo hit after the first.
    Hit,
    /// Read on the client's own graph with distinct knobs.
    OwnRead,
    /// Read on `shared` whose knobs change per cycle; both clients send it.
    SharedVarying,
    Stats,
    /// `memory_budget: 64` read that must come back `over_budget`.
    Probe,
    Attack,
    /// `rewire` d = 1 on the client's own graph (bumps its epoch).
    Write,
}

pub fn kind_at(pos: usize) -> Kind {
    match pos % CYCLE {
        1 | 5 | 9 => Kind::OwnRead,
        3 | 15 => Kind::Stats,
        7 => Kind::SharedVarying,
        11 => Kind::Probe,
        13 => Kind::Attack,
        17 => Kind::Write,
        _ => Kind::Hit,
    }
}

/// The request script of client `client` (0 or 1): `cycles` cycles of
/// [`CYCLE`] requests. Only client `i` reads or writes `own{i}`, so
/// every response other than `stats` is a function of the script.
pub fn script(client: usize, cycles: usize, seed: u64) -> Vec<String> {
    let own = format!("own{client}");
    let mut out = Vec::with_capacity(cycles * CYCLE);
    for c in 0..cycles {
        for pos in 0..CYCLE {
            out.push(match (kind_at(pos), pos) {
                (Kind::Hit, _) => r#"{"op":"metric","graph":"shared","metrics":"cheap"}"#.into(),
                (Kind::OwnRead, 1) => format!(r#"{{"op":"metric","graph":"{own}","metrics":"cheap"}}"#),
                (Kind::OwnRead, 5) => format!(
                    r#"{{"op":"metric","graph":"{own}","metrics":"k_avg,r,c_mean,kcore_max"}}"#
                ),
                (Kind::OwnRead, _) => format!(
                    r#"{{"op":"metric","graph":"{own}","metrics":"distance_approx","samples":16}}"#
                ),
                (Kind::SharedVarying, _) => format!(
                    r#"{{"op":"metric","graph":"shared","metrics":"k_avg,distance_approx","samples":{}}}"#,
                    8 + c
                ),
                (Kind::Stats, _) => r#"{"op":"stats"}"#.into(),
                (Kind::Probe, _) => {
                    r#"{"op":"metric","graph":"shared","memory_budget":64}"#.into()
                }
                (Kind::Attack, _) => format!(
                    r#"{{"op":"attack","graph":"{own}","strategy":"degree","checkpoints":[0.05,0.25],"samples":8,"seed":{c}}}"#
                ),
                (Kind::Write, _) => format!(
                    r#"{{"op":"rewire","graph":"{own}","d":1,"attempts":{REWIRE_ATTEMPTS},"seed":{}}}"#,
                    (seed % 100_000) * 10_000 + (client * 1_000 + c) as u64
                ),
            });
        }
    }
    out
}
