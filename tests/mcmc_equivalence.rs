//! Equivalence harness for the `dk-mcmc` engine (PR contract):
//!
//! * **Delta equivalence** — `Objective2K`'s dense JDD table and the
//!   swap-level `Delta3K` accumulated over a random accepted-move
//!   sequence equal recompute-from-scratch on the final graph, across
//!   seeds and graph shapes (hub-rich ones included);
//! * **Graph oracle** — the chain as it ran on `Graph` (sorted rows
//!   edited by every applied and reverted move, presence probes before
//!   the class test, the `d = 0` loop on `Graph`, the hash-map
//!   `Objective2K` and the 3K objectives reading the chain's own rows)
//!   is kept below; the edge-list chain matches it bit for bit on edge
//!   order, chain statistics, RNG position and distance, on hubs,
//!   isolated nodes, graphs with one edge and with none, a
//!   `DegreeProductCap` veto at `d = 0` and `d = 1`, and a 2K target
//!   whose degree set differs from the graph's (a pseudograph
//!   bootstrap);
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
//!   carry;
//! * **Recovery** — a 1K-scrambled BA graph 2K-targeted back to its own
//!   JDD recovers ≥ 95 % of the D₂ distance, at 2000 nodes and (release
//!   only) at 10⁶, where the recovered graph's assortativity and sketch
//!   d̄ must also stay near the original's.

use dk_repro::core::constraints::DegreeProductCap;
use dk_repro::core::dist::{canon_pair, canon_triangle, canon_wedge, Degree, Dist2K, Dist3K};
use dk_repro::core::generate::delta::{frozen_degrees, Delta3K};
use dk_repro::core::generate::objective::{Objective2K, Objective3K};
use dk_repro::core::generate::pseudograph;
use dk_repro::core::generate::rewire::{randomize, randomize_with, RewireOptions, SwapBudget};
use dk_repro::core::generate::target::{generate_2k_random, Bootstrap, TargetOptions};
use dk_repro::graph::hashers::{det_hash_map, DetHashMap};
use dk_repro::graph::{builders, ensemble, Graph};
use dk_repro::mcmc::{
    apply_swap, propose_swap, revert_swap, ChainOptions, ChainStats, Evaluation, McmcChain,
    MoveProposal, NullObjective, ProposalKind, RunBudget, SwapObjective,
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

// ---------------------------------------------------------------------
// Oracle: the chain as it ran on `Graph`
// ---------------------------------------------------------------------

/// The swap-validity rule as it ran on `Graph`: the self-loop test, the
/// two presence probes, then the class test. It accepts the same swaps as
/// `check_swap`; only the reason reported for a swap failing both of the
/// last two tests differs, and the chain counts every invalid proposal
/// alike.
fn oracle_valid(
    g: &Graph,
    deg: &[u32],
    kind: ProposalKind,
    [(a, b), (c, d)]: [(u32, u32); 2],
) -> bool {
    if a == d || c == b {
        return false;
    }
    if g.has_edge_indexed(a, d) || g.has_edge_indexed(c, b) {
        return false;
    }
    !(kind == ProposalKind::JddPreserving
        && deg[b as usize] != deg[d as usize]
        && deg[a as usize] != deg[c as usize])
}

/// `propose_swap` as it ran on `Graph`: three draws, then the rule.
fn oracle_propose<R: Rng>(
    g: &Graph,
    deg: &[u32],
    kind: ProposalKind,
    rng: &mut R,
) -> Option<MoveProposal> {
    let m = g.edge_count();
    if m < 2 {
        return None;
    }
    let i = rng.gen_range(0..m);
    let j = rng.gen_range(0..m - 1);
    let j = if j >= i { j + 1 } else { j };
    let (a, b) = g.edge_at(i);
    let e2 = g.edge_at(j);
    let (c, d) = if rng.gen_bool(0.5) { e2 } else { (e2.1, e2.0) };
    if !oracle_valid(g, deg, kind, [(a, b), (c, d)]) {
        return None;
    }
    let q = 1.0 / (m as f64 * (m - 1) as f64);
    Some(MoveProposal {
        remove: [(a, b), (c, d)],
        add: [(a, d), (c, b)],
        forward_prob: q,
        reverse_prob: q,
    })
}

/// The objective contract as it ran: evaluation saw the chain's `Graph`
/// and its frozen degrees.
trait OracleObjective {
    fn evaluate(&mut self, g: &mut Graph, deg: &[u32], p: &MoveProposal) -> Evaluation;
    fn commit(&mut self);
    fn distance(&self) -> Option<f64>;
}

struct OracleNull;

impl OracleObjective for OracleNull {
    fn evaluate(&mut self, _g: &mut Graph, _deg: &[u32], _p: &MoveProposal) -> Evaluation {
        Evaluation {
            delta_d: 0.0,
            applied: false,
        }
    }
    fn commit(&mut self) {}
    fn distance(&self) -> Option<f64> {
        None
    }
}

/// `Objective2K` as it ran: the current and target JDD in two hash maps,
/// and the swap's four bumps in a third (the deleted `Delta2K`), summed
/// in that map's order.
struct Oracle2K {
    cur: DetHashMap<(Degree, Degree), i64>,
    tgt: DetHashMap<(Degree, Degree), i64>,
    d_cur: f64,
    pending: DetHashMap<(Degree, Degree), i64>,
    pending_dd: f64,
}

impl Oracle2K {
    fn new(g: &Graph, target: &Dist2K) -> Self {
        let mut cur: DetHashMap<(Degree, Degree), i64> = det_hash_map();
        for (&k, &v) in &Dist2K::from_graph(g).counts {
            cur.insert(k, v as i64);
        }
        let tgt: DetHashMap<(Degree, Degree), i64> =
            target.counts.iter().map(|(&k, &v)| (k, v as i64)).collect();
        let mut d_cur = 0.0;
        for (k, &a) in &cur {
            let b = tgt.get(k).copied().unwrap_or(0);
            d_cur += ((a - b) as f64).powi(2);
        }
        for (k, &b) in &tgt {
            if !cur.contains_key(k) {
                d_cur += (b as f64).powi(2);
            }
        }
        Oracle2K {
            cur,
            tgt,
            d_cur,
            pending: det_hash_map(),
            pending_dd: 0.0,
        }
    }

    fn current_jdd(&self) -> Dist2K {
        let mut out = Dist2K::default();
        for (&k, &v) in &self.cur {
            if v > 0 {
                out.counts.insert(k, v as u64);
            }
        }
        out
    }
}

impl OracleObjective for Oracle2K {
    fn evaluate(&mut self, _g: &mut Graph, deg: &[u32], p: &MoveProposal) -> Evaluation {
        self.pending.clear();
        let kd = |u: u32| deg[u as usize];
        for &(u, v) in &p.remove {
            *self.pending.entry(canon_pair(kd(u), kd(v))).or_insert(0) -= 1;
        }
        for &(u, v) in &p.add {
            *self.pending.entry(canon_pair(kd(u), kd(v))).or_insert(0) += 1;
        }
        let mut dd = 0.0;
        for (key, &dv) in &self.pending {
            if dv == 0 {
                continue;
            }
            let c0 = self.cur.get(key).copied().unwrap_or(0);
            let t0 = self.tgt.get(key).copied().unwrap_or(0);
            let before = (c0 - t0) as f64;
            let after = (c0 + dv - t0) as f64;
            dd += after * after - before * before;
        }
        self.pending_dd = dd;
        Evaluation {
            delta_d: dd,
            applied: false,
        }
    }

    fn commit(&mut self) {
        for (key, &dv) in &self.pending {
            if dv != 0 {
                *self.cur.entry(*key).or_insert(0) += dv;
            }
        }
        self.d_cur += self.pending_dd;
    }

    fn distance(&self) -> Option<f64> {
        Some(self.d_cur)
    }
}

/// `Objective3K` as it ran: the swap delta read off the chain's own
/// `Graph`, then the move applied to it for the edge order.
struct Oracle3K {
    cur: Dist3K,
    tgt: Dist3K,
    d_cur: f64,
    pending: Delta3K,
    pending_dd: f64,
}

impl Oracle3K {
    fn new(g: &Graph, target: &Dist3K) -> Self {
        let cur = Dist3K::from_graph(g);
        let d_cur = cur.distance_sq(target);
        Oracle3K {
            cur,
            tgt: target.clone(),
            d_cur,
            pending: Delta3K::default(),
            pending_dd: 0.0,
        }
    }
}

impl OracleObjective for Oracle3K {
    fn evaluate(&mut self, g: &mut Graph, deg: &[u32], p: &MoveProposal) -> Evaluation {
        self.pending.clear();
        self.pending.track_swap(g, deg, p.remove);
        apply_swap(g, p);
        let mut dd = 0.0;
        for (key, &dv) in &self.pending.wedges {
            if dv == 0 {
                continue;
            }
            let c0 = self.cur.wedges.get(key).copied().unwrap_or(0) as i64;
            let t0 = self.tgt.wedges.get(key).copied().unwrap_or(0) as i64;
            let before = (c0 - t0) as f64;
            let after = (c0 + dv - t0) as f64;
            dd += after * after - before * before;
        }
        for (key, &dv) in &self.pending.triangles {
            if dv == 0 {
                continue;
            }
            let c0 = self.cur.triangles.get(key).copied().unwrap_or(0) as i64;
            let t0 = self.tgt.triangles.get(key).copied().unwrap_or(0) as i64;
            let before = (c0 - t0) as f64;
            let after = (c0 + dv - t0) as f64;
            dd += after * after - before * before;
        }
        self.pending_dd = dd;
        Evaluation {
            delta_d: dd,
            applied: true,
        }
    }

    fn commit(&mut self) {
        self.pending.apply_to(&mut self.cur);
        self.d_cur += self.pending_dd;
    }

    fn distance(&self) -> Option<f64> {
        Some(self.d_cur)
    }
}

/// `Preserve3K` as it ran: `Oracle3K`'s delta and apply, accepting only
/// a zero delta.
#[derive(Default)]
struct OraclePreserve3K {
    pending: Delta3K,
}

impl OracleObjective for OraclePreserve3K {
    fn evaluate(&mut self, g: &mut Graph, deg: &[u32], p: &MoveProposal) -> Evaluation {
        self.pending.clear();
        self.pending.track_swap(g, deg, p.remove);
        apply_swap(g, p);
        Evaluation {
            delta_d: if self.pending.is_zero() {
                0.0
            } else {
                f64::INFINITY
            },
            applied: true,
        }
    }
    fn commit(&mut self) {}
    fn distance(&self) -> Option<f64> {
        None
    }
}

/// The chain's Metropolis–Hastings rule, as it ran.
fn oracle_metropolis<R: Rng>(delta: f64, ratio: f64, opts: &ChainOptions, rng: &mut R) -> bool {
    if opts.temperature > 0.0 {
        let p = ((-delta / opts.temperature).exp() * ratio).min(1.0);
        if p >= 1.0 {
            true
        } else {
            rng.gen_bool(p.max(0.0))
        }
    } else if delta < 0.0 {
        true
    } else if delta == 0.0 {
        opts.accept_neutral
    } else {
        false
    }
}

/// `McmcChain` as it ran: it owned a `Graph`, so every applied and
/// reverted move also edited four sorted rows.
struct OracleChain<R> {
    graph: Graph,
    deg: Vec<u32>,
    rng: R,
    opts: ChainOptions,
    stats: ChainStats,
}

impl<R: Rng> OracleChain<R> {
    fn new(graph: Graph, rng: R, opts: ChainOptions) -> Self {
        let deg = graph.degrees().iter().map(|&d| d as u32).collect();
        OracleChain {
            graph,
            deg,
            rng,
            opts,
            stats: ChainStats::default(),
        }
    }

    fn step<O, F>(&mut self, obj: &mut O, veto: &F) -> Option<f64>
    where
        O: OracleObjective,
        F: Fn(&Graph, &MoveProposal) -> bool,
    {
        self.stats.attempts += 1;
        let Some(p) = oracle_propose(&self.graph, &self.deg, self.opts.proposal, &mut self.rng)
        else {
            self.stats.rejected_invalid += 1;
            return None;
        };
        if !veto(&self.graph, &p) {
            self.stats.rejected_vetoed += 1;
            return None;
        }
        let ev = obj.evaluate(&mut self.graph, &self.deg, &p);
        if oracle_metropolis(ev.delta_d, p.proposal_ratio(), &self.opts, &mut self.rng) {
            if !ev.applied {
                apply_swap(&mut self.graph, &p);
            }
            obj.commit();
            self.stats.accepted += 1;
            Some(ev.delta_d)
        } else {
            if ev.applied {
                revert_swap(&mut self.graph, &p);
            }
            self.stats.rejected_metropolis += 1;
            None
        }
    }

    /// `run_filtered` on a fresh chain: its stats are the run's.
    fn run<O, F>(&mut self, obj: &mut O, budget: &RunBudget, veto: &F) -> ChainStats
    where
        O: OracleObjective,
        F: Fn(&Graph, &MoveProposal) -> bool,
    {
        let mut since_improve = 0u64;
        for _ in 0..budget.max_steps {
            if budget.stop_at_zero && obj.distance() == Some(0.0) {
                break;
            }
            if let Some(p) = budget.patience {
                if since_improve >= p {
                    break;
                }
            }
            match self.step(obj, veto) {
                Some(delta_d) if delta_d < 0.0 => since_improve = 0,
                _ => since_improve += 1,
            }
        }
        self.stats
    }
}

/// `DegreeProductCap` as it read a `Graph` (`None` allows every move).
fn oracle_cap_allows(cap: Option<u64>, g: &Graph, added: &[(u32, u32)]) -> bool {
    cap.is_none_or(|cap| {
        added
            .iter()
            .all(|&(u, v)| (g.degree(u) as u64) * (g.degree(v) as u64) <= cap)
    })
}

/// `randomize_with` as it ran on `Graph`, for `attempts` attempts: the
/// `d = 0` relocation loop on the graph itself, else the chain. Returns
/// `(attempts, accepted)`.
fn oracle_randomize<R: Rng>(
    g: &mut Graph,
    d: u8,
    attempts: u64,
    cap: Option<u64>,
    rng: &mut R,
) -> (u64, u64) {
    if g.edge_count() < 2 {
        return (0, 0);
    }
    if d == 0 {
        let mut accepted = 0;
        for _ in 0..attempts {
            let Ok((u, v)) = g.random_edge(rng) else {
                continue;
            };
            let n = g.node_count() as u32;
            let x = rng.gen_range(0..n);
            let y = rng.gen_range(0..n);
            if x == y || g.has_edge_indexed(x, y) || !oracle_cap_allows(cap, g, &[(x, y)]) {
                continue;
            }
            g.remove_edge(u, v).expect("sampled edge exists");
            g.add_edge(x, y).expect("checked empty slot");
            accepted += 1;
        }
        return (attempts, accepted);
    }
    let opts = ChainOptions {
        proposal: if d == 1 {
            ProposalKind::Plain
        } else {
            ProposalKind::JddPreserving
        },
        ..Default::default()
    };
    let veto = |gr: &Graph, p: &MoveProposal| oracle_cap_allows(cap, gr, &p.add);
    let mut chain = OracleChain::new(std::mem::take(g), rng, opts);
    let budget = RunBudget::steps(attempts);
    let run = if d == 3 {
        chain.run(&mut OraclePreserve3K::default(), &budget, &veto)
    } else {
        chain.run(&mut OracleNull, &budget, &veto)
    };
    *g = chain.graph;
    (run.attempts, run.accepted)
}

/// The oracle fixtures: `shape` 0 has no edge, 1 has one edge beside
/// isolated nodes, 2 is `edges` on 18 nodes (isolated ones included) and
/// 3 is a star core of `hub` nodes plus `edges`.
fn oracle_fixture(shape: usize, edges: &[(u32, u32)], hub: u32) -> Graph {
    match shape {
        0 => Graph::with_nodes(6),
        1 => Graph::from_edges(5, [(1, 3)]).expect("one edge"),
        2 => Graph::from_edges_dedup(18, edges.iter().copied()).expect("in range"),
        _ => {
            let core = (1..hub).map(|v| (0, v));
            Graph::from_edges_dedup(18, core.chain(edges.iter().copied())).expect("in range")
        }
    }
}

/// The acceptance knobs of the targeting cases: strict descent, plateau
/// walks and two positive temperatures, which draw acceptance coins.
fn oracle_chain_options(knob: usize, proposal: ProposalKind) -> ChainOptions {
    let (temperature, accept_neutral) =
        [(0.0, false), (0.0, true), (2.0, true), (40.0, true)][knob];
    ChainOptions {
        temperature,
        accept_neutral,
        proposal,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `randomize` and `randomize_with` on the edge list against the
    /// `Graph` oracle at every order, with and without a
    /// `DegreeProductCap` veto: the same edge order, the same counts and
    /// the same RNG position afterwards.
    #[test]
    fn randomize_matches_the_graph_chain_oracle(
        shape in 0..4usize,
        edges in proptest::collection::vec((0..18u32, 0..18u32), 0..60),
        hub in 2..18u32,
        d in 0..4u8,
        cap in 0..40u64,
        seed in 0u64..10_000,
    ) {
        let g = oracle_fixture(shape, &edges, hub);
        let attempts = 400;
        let cap = (cap > 4).then_some(cap);
        let mut want = g.clone();
        let mut oracle_rng = StdRng::seed_from_u64(seed);
        let (attempted, accepted) = oracle_randomize(&mut want, d, attempts, cap, &mut oracle_rng);

        let mut got = g;
        let mut rng = StdRng::seed_from_u64(seed);
        let opts = RewireOptions {
            budget: SwapBudget::Attempts(attempts),
        };
        let st = match cap {
            Some(cap) => randomize_with(&mut got, d, &opts, &DegreeProductCap { cap }, &mut rng),
            None => randomize(&mut got, d, &opts, &mut rng),
        };
        prop_assert_eq!(got.edges(), want.edges(), "d = {}", d);
        prop_assert_eq!((st.attempts, st.accepted), (attempted, accepted), "d = {}", d);
        prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>(), "d = {}", d);
        prop_assert!(got.check_invariants().is_ok());
    }

    /// The dense 2K objective on the edge-list chain against the
    /// hash-map oracle on the `Graph` chain, under plain proposals at
    /// four acceptance settings: the same edge order, statistics, RNG
    /// position, `D₂` bits and tracked JDD. The target is the JDD of a
    /// second graph, so its degree set differs from the chain's.
    #[test]
    fn targeting_2k_chain_matches_the_hash_map_oracle(
        edges in proptest::collection::vec((0..16u32, 0..16u32), 2..48),
        other in proptest::collection::vec((0..20u32, 0..20u32), 2..60),
        hub in 2..16u32,
        knob in 0..4usize,
        seed in 0u64..10_000,
    ) {
        let g = oracle_fixture(3, &edges, hub);
        let target = Dist2K::from_graph(
            &Graph::from_edges_dedup(20, other).expect("in range"),
        );
        let opts = oracle_chain_options(knob, ProposalKind::Plain);
        let budget = RunBudget::steps(1500);

        let mut oracle = Oracle2K::new(&g, &target);
        let mut want = OracleChain::new(g.clone(), StdRng::seed_from_u64(seed), opts);
        let want_run = want.run(&mut oracle, &budget, &|_, _| true);

        let mut obj = Objective2K::new(&g, &target);
        let mut chain = McmcChain::seeded(g, seed, opts);
        let run = chain.run(&mut obj, &budget);
        prop_assert_eq!(run, want_run);
        prop_assert_eq!(obj.current_distance().to_bits(), oracle.d_cur.to_bits());
        prop_assert_eq!(obj.current_jdd(), oracle.current_jdd());
        let got = chain.into_graph();
        prop_assert_eq!(got.edges(), want.graph.edges());
        prop_assert_eq!(
            obj.current_distance().to_bits(),
            Dist2K::from_graph(&got).distance_sq(&target).to_bits()
        );
    }

    /// The `§5.1` pipeline from a pseudograph bootstrap against the
    /// oracle, bit for bit (see [`pseudograph_targeting_vs_oracle`]).
    #[test]
    fn pseudograph_bootstrap_targeting_matches_the_oracle(
        other in proptest::collection::vec((0..20u32, 0..20u32), 4..70),
        seed in 0u64..10_000,
    ) {
        let target = Dist2K::from_graph(&Graph::from_edges_dedup(20, other).expect("in range"));
        let (got, want) = pseudograph_targeting_vs_oracle(&target, seed);
        prop_assert_eq!(got, want);
    }

    /// The 3K objective on its own rows beside the edge-list chain
    /// against the oracle reading the `Graph` chain, under
    /// JDD-preserving proposals at four acceptance settings: the same
    /// edge order, statistics, `D₃` bits and tracked census.
    #[test]
    fn targeting_3k_chain_matches_the_graph_oracle(
        edges in proptest::collection::vec((0..16u32, 0..16u32), 2..48),
        other in proptest::collection::vec((0..16u32, 0..16u32), 2..48),
        hub in 2..16u32,
        knob in 0..4usize,
        seed in 0u64..10_000,
    ) {
        let g = oracle_fixture(3, &edges, hub);
        let target = Dist3K::from_graph(&oracle_fixture(2, &other, hub));
        let opts = oracle_chain_options(knob, ProposalKind::JddPreserving);
        let budget = RunBudget::steps(1500);

        let mut oracle = Oracle3K::new(&g, &target);
        let mut want = OracleChain::new(g.clone(), StdRng::seed_from_u64(seed), opts);
        let want_run = want.run(&mut oracle, &budget, &|_, _| true);

        let mut obj = Objective3K::new(&g, &target);
        let mut chain = McmcChain::seeded(g, seed, opts);
        let run = chain.run(&mut obj, &budget);
        prop_assert_eq!(run, want_run);
        prop_assert_eq!(obj.current_distance().to_bits(), oracle.d_cur.to_bits());
        prop_assert_eq!(obj.current_census(), &oracle.cur);
        let got = chain.into_graph();
        prop_assert_eq!(got.edges(), want.graph.edges());
    }
}

/// What one `§5.1` targeting run reports: the graph's edges in order,
/// attempts, accepted moves, and the initial and final `D₂` bits — or
/// the bootstrap's error.
type TargetingRun = Result<(Vec<(u32, u32)>, u64, u64, u64, u64), String>;

/// `generate_2k_random` from a pseudograph bootstrap, whose cleanup
/// drops loops and parallel edges and so can leave the graph with
/// another degree set than the target's, beside the same RNG stream
/// through `pseudograph::generate_1k`, the `Graph` chain and the
/// hash-map oracle.
fn pseudograph_targeting_vs_oracle(target: &Dist2K, seed: u64) -> (TargetingRun, TargetingRun) {
    let opts = TargetOptions {
        max_attempts: 3_000,
        patience: Some(800),
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let got = generate_2k_random(target, Bootstrap::Pseudograph, &opts, &mut rng)
        .map(|(g, st)| {
            (
                g.edges().to_vec(),
                st.attempts,
                st.accepted,
                st.initial_distance.to_bits(),
                st.final_distance.to_bits(),
            )
        })
        .map_err(|e| e.to_string());

    let mut oracle_rng = StdRng::seed_from_u64(seed);
    let want = target
        .to_1k()
        .and_then(|d1| pseudograph::generate_1k(&d1, &mut oracle_rng))
        .map(|boot| {
            let mut g = boot.graph;
            let mut oracle = Oracle2K::new(&g, target);
            let initial = oracle.d_cur;
            let (mut attempts, mut accepted) = (0, 0);
            if g.edge_count() >= 2 {
                let chain_opts = ChainOptions {
                    temperature: opts.temperature,
                    accept_neutral: opts.accept_neutral,
                    proposal: ProposalKind::Plain,
                };
                let budget = RunBudget {
                    max_steps: opts.max_attempts,
                    patience: opts.patience,
                    stop_at_zero: opts.stop_at_zero,
                };
                let mut chain =
                    OracleChain::new(std::mem::take(&mut g), &mut oracle_rng, chain_opts);
                let run = chain.run(&mut oracle, &budget, &|_, _| true);
                (attempts, accepted) = (run.attempts, run.accepted);
                g = chain.graph;
            }
            let fin = Dist2K::from_graph(&g).distance_sq(target);
            (
                g.edges().to_vec(),
                attempts,
                accepted,
                initial.to_bits(),
                fin.to_bits(),
            )
        })
        .map_err(|e| e.to_string());
    assert_eq!(
        rng.gen::<u64>(),
        oracle_rng.gen::<u64>(),
        "the library and the oracle drew different RNG counts"
    );
    (got, want)
}

/// The fixed pseudograph case: karate's JDD, where the bootstrap at seed
/// 3 lands on a degree set other than the target's, so the dense table
/// holds target pairs outside its classes.
#[test]
fn pseudograph_bootstrap_with_other_degree_classes_matches_the_oracle() {
    let target = Dist2K::from_graph(&builders::karate_club());
    let d1 = target.to_1k().expect("karate's own JDD");
    let boot = pseudograph::generate_1k(&d1, &mut StdRng::seed_from_u64(3))
        .expect("pseudograph bootstrap")
        .graph;
    let classes = |degrees: Vec<usize>| {
        let mut k: Vec<usize> = degrees.into_iter().filter(|&k| k > 0).collect();
        k.sort_unstable();
        k.dedup();
        k
    };
    assert_ne!(
        classes(boot.degrees()),
        classes(builders::karate_club().degrees()),
        "the bootstrap kept the target's degree set"
    );
    let (got, want) = pseudograph_targeting_vs_oracle(&target, 3);
    assert!(got.is_ok(), "{got:?}");
    assert_eq!(got, want);
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
        let Ok(p) = propose_swap(g.edge_list(), ProposalKind::Plain, &mut rng) else {
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

    /// `Objective2K`'s dense table, committed over accepted plain swaps,
    /// == re-extraction: the tracked JDD and the exact `D₂` to the start.
    #[test]
    fn delta2k_accumulation_matches_extraction(g in arb_graph(16, 48), seed in 0u64..500) {
        if g.edge_count() < 2 {
            return Ok(());
        }
        let initial = Dist2K::from_graph(&g);
        let mut obj = Objective2K::new(&g, &initial);
        let mut edges = g.into_edge_list();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut accepted = 0u32;
        for _ in 0..400 {
            let Ok(p) = propose_swap(&edges, ProposalKind::Plain, &mut rng) else {
                continue;
            };
            obj.evaluate(&mut edges, &p);
            apply_swap(&mut edges, &p);
            obj.commit();
            accepted += 1;
        }
        let g = Graph::from_edge_list(edges);
        let fin = Dist2K::from_graph(&g);
        prop_assert_eq!(obj.current_jdd(), fin.clone(), "after {} accepted", accepted);
        prop_assert_eq!(obj.current_distance(), fin.distance_sq(&initial));
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
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            let Ok(p) = propose_swap(g.edge_list(), ProposalKind::Plain, &mut rng) else {
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

/// The seeded Barabási–Albert input (2 edges per new node, 3 seed
/// nodes) of the recovery checks, at the repository's master seed.
fn ba(nodes: usize) -> Graph {
    barabasi_albert(
        &BaParams {
            nodes,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(20060911),
    )
}

/// Scramble-then-recover: 1K-randomizes `original` (2·m attempts), then
/// 2K-targets it back to `original`'s JDD within `max_attempts`. The
/// original realizes the target, so the run measures the chain, not the
/// realizability of a synthetic JDD. Returns the recovered graph.
fn scramble_then_recover_2k(original: &Graph, max_attempts: u64) -> Graph {
    use dk_repro::core::generate::rewire::{randomize, RewireOptions, SwapBudget};
    use dk_repro::core::generate::target::{target_2k_from_1k, TargetOptions};

    let target = Dist2K::from_graph(original);
    let mut g = original.clone();
    let mut rng = StdRng::seed_from_u64(20060911 ^ 0x2b);
    let scramble = RewireOptions {
        budget: SwapBudget::Attempts(2 * original.edge_count() as u64),
    };
    randomize(&mut g, 1, &scramble, &mut rng);
    let opts = TargetOptions {
        max_attempts,
        patience: Some((max_attempts / 10).max(200_000)),
        ..Default::default()
    };
    let stats = target_2k_from_1k(&mut g, &target, &opts, &mut rng);
    assert!(
        stats.final_distance < stats.initial_distance * 0.05,
        "2K targeting must recover most of the JDD distance: D2 {} -> {} in {} attempts",
        stats.initial_distance,
        stats.final_distance,
        stats.attempts
    );
    g
}

/// 2K recovery on a 2000-node BA graph, and a 3K-preserving
/// randomization of the same graph at the default budget: every accepted
/// swap's census delta must cancel, so the census ends where it started.
#[test]
fn scrambled_ba_recovers_its_jdd_and_3k_randomizing_keeps_the_census() {
    use dk_repro::core::generate::rewire::{randomize, RewireOptions};

    let original = ba(2000);
    scramble_then_recover_2k(&original, 4_000_000);

    let mut g = original.clone();
    let mut rng = StdRng::seed_from_u64(20060911 ^ 0x3b);
    let stats = randomize(&mut g, 3, &RewireOptions::default(), &mut rng);
    assert!(stats.accepted > 0, "no 3K-preserving swap accepted");
    assert_eq!(
        Dist3K::from_graph(&g),
        Dist3K::from_graph(&original),
        "3K-preserving rewiring changed the wedge/triangle census"
    );
}

/// The recovery at 10⁶ nodes with 6·10⁷ attempts. Assortativity is a
/// function of the JDD the chain targets, so it must match closely; the
/// sketch d̄ (b = 6) is 2K-correlated but not pinned, so it only has to
/// stay within 25 %.
#[test]
#[ignore = "release only: cargo test --release --test mcmc_equivalence -- --ignored --exact ba_1m_recovers_its_jdd --test-threads=1"]
fn ba_1m_recovers_its_jdd() {
    use dk_repro::metrics::Analyzer;

    let original = ba(1_000_000);
    let recovered = scramble_then_recover_2k(&original, 60_000_000);
    let analyzer = Analyzer::new()
        .metric_names("r,avg_distance_sketch")
        .unwrap()
        .threads(0)
        .sketch_bits(6);
    let (before, after) = (analyzer.analyze(&original), analyzer.analyze(&recovered));
    let scalar = |report: &dk_repro::metrics::Report, name: &str| {
        report
            .scalar(name)
            .unwrap_or_else(|| panic!("{name} undefined"))
    };
    let (r0, r1) = (scalar(&before, "r"), scalar(&after, "r"));
    assert!((r1 - r0).abs() < 0.02, "assortativity {r0} -> {r1}");
    let (d0, d1) = (
        scalar(&before, "avg_distance_sketch"),
        scalar(&after, "avg_distance_sketch"),
    );
    assert!((d1 - d0).abs() / d0 < 0.25, "sketch d̄ {d0} -> {d1}");
}
