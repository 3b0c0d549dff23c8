//! HyperANF-style neighborhood sketches — the distance family at
//! 10⁶-node scale.
//!
//! The exact all-pairs battery is O(n·m) (hours at 10⁶ nodes, however
//! it is sharded — see [`crate::stream`]), and the Brandes–Pich estimator of
//! [`crate::sampled`] trades that for K pivot BFS trees with `~1/√K`
//! error. This module adds the complementary estimator of Boldi, Rosa &
//! Vigna ("HyperANF: approximating the neighbourhood function of very
//! large graphs on a budget", 2011; refined as HyperBall): give every
//! node a **HyperLogLog counter** seeded with its own id, then iterate
//!
//! ```text
//! sketch_{t}[v] = union(sketch_{t-1}[v], sketch_{t-1}[w] for w ~ v)
//! ```
//!
//! After round `t`, node `v`'s counter estimates `|B(v, t)|`, the number
//! of nodes within distance `t` of `v` — so the per-round sums
//!
//! ```text
//! N(t) = Σ_v |B(v, t)|      (the neighborhood function)
//! ```
//!
//! carry the whole distance family: `N(t) − N(t−1)` estimates the number
//! of ordered pairs at distance exactly `t`, which yields the distance
//! distribution, the average distance `d̄`, and the (effective) diameter
//! in `O(rounds)` sharded passes of bit-parallel register unions instead
//! of `n` BFS sweeps. Error is controlled by the **register count**
//! `m = 2^b` (per-counter standard error [`standard_error`]: `1.04/√m`),
//! not by a pivot budget — the knob the registry exposes as
//! `--sketch-bits` behind the `distance_sketch` / `avg_distance_sketch`
//! / `effective_diameter_sketch` metrics
//! ([`Cost::Sketch`](crate::metric::Cost::Sketch)).
//!
//! ## Determinism contract
//!
//! * Counters are seeded from the **node ids alone** ([`node_hash`], a
//!   SplitMix64 finalizer) — no wall clock, no entropy: two runs of the
//!   same graph are bit-identical.
//! * A round is a Jacobi-style double-buffered update: every new counter
//!   reads only the previous round's registers, so the result is a pure
//!   function of the input — **independent of shard count and thread
//!   count** (the registers are `u8` max-merges, and the `N(t)` sums
//!   are accumulated in fixed node order).
//! * Rounds run as sharded passes over the analyzed
//!   [`CsrGraph`] through the same streaming
//!   machinery as the exact traversals ([`crate::stream`] →
//!   [`dk_graph::ensemble::run_fold`]): each shard writes its node
//!   range of the next register file in place, and the memory budget /
//!   worker caps of the analyzer plan apply unchanged.
//!
//! ## Memory
//!
//! The register file is `n · 2^b` bytes. A run allocates two files
//! once, the previous round's and the next (the Jacobi buffer the
//! determinism contract requires), and swaps them after every round:
//! each shard writes its node range of the next file in place, so the
//! pass peaks at `2 · n · 2^b` bytes plus one `f64` estimate per node of
//! the shards in flight.

use crate::stream::{run_sharded_fold, shard_layout};
use dk_graph::CsrGraph;
use std::ops::Range;
use std::sync::Mutex;

/// Smallest supported register-bit count (`m = 16` registers).
pub const MIN_SKETCH_BITS: u32 = 4;
/// Largest supported register-bit count (`m = 65536` registers —
/// 64 KiB per node; past this the "sketch" stops being one).
pub const MAX_SKETCH_BITS: u32 = 16;
/// Default register-bit count: `m = 256` registers, ~6.5% per-counter
/// standard error, 256 bytes per node.
pub const DEFAULT_SKETCH_BITS: u32 = 8;
/// Default cap on HyperANF rounds. Iteration always stops as soon as the
/// registers reach their fixpoint (no counter changed — the sketch
/// analogue of BFS frontier exhaustion), so the cap only bites on graphs
/// whose diameter exceeds it.
pub const DEFAULT_SKETCH_ROUNDS: usize = 128;

/// The one range check on a requested register-bit count: `Some(bits)`
/// when it lies in [`MIN_SKETCH_BITS`]`..=`[`MAX_SKETCH_BITS`], `None`
/// otherwise. The CLI's `--sketch-bits` and the daemon's `sketch_bits`
/// knob both validate through it.
pub fn checked_bits(bits: u64) -> Option<u32> {
    u32::try_from(bits)
        .ok()
        .filter(|b| (MIN_SKETCH_BITS..=MAX_SKETCH_BITS).contains(b))
}

/// The HyperLogLog per-counter relative standard error `1.04 / √(2^b)` —
/// the quantity every tolerance in `tests/sketch_tolerance.rs` derives
/// from (never a hand-tuned constant).
pub fn standard_error(bits: u32) -> f64 {
    1.04 / ((1u64 << bits) as f64).sqrt()
}

/// SplitMix64 finalizer over a node id — the deterministic per-node
/// seeding of the sketches (a pure function of the id; no clock, no
/// entropy, so HyperANF runs are reproducible bit for bit).
pub fn node_hash(v: u64) -> u64 {
    let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// HyperLogLog bias-correction constant α_m (Flajolet et al. 2007).
fn alpha(m: usize) -> f64 {
    match m {
        16 => 0.673,
        32 => 0.697,
        64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m as f64),
    }
}

/// Register index and rank of one hashed item: the low `bits` bits pick
/// the register, the leading-zero run of the remaining `64 − bits` bits
/// (plus one) is the rank. Max rank `65 − bits` fits `u8` for every
/// supported `bits`.
#[inline]
fn index_and_rank(h: u64, bits: u32) -> (usize, u8) {
    let index = (h & ((1u64 << bits) - 1)) as usize;
    // the high `bits` bits of `h >> bits` are zero, so leading_zeros is
    // at least `bits`; an all-zero remainder saturates at rank 65 − bits
    let rank = (h >> bits).leading_zeros() + 1 - bits;
    (index, rank as u8)
}

/// HLL cardinality estimate of one register slice: the raw harmonic-mean
/// estimator with the standard small-range (linear-counting) correction,
/// so counters over-provisioned for their graph (`n < 2^b`) degrade
/// gracefully to near-exact counts instead of panicking or returning
/// NaN.
fn estimate_registers(regs: &[u8], bits: u32) -> f64 {
    let m = regs.len();
    debug_assert_eq!(m, 1usize << bits);
    let mut inv_sum = 0.0f64;
    let mut zeros = 0usize;
    for &r in regs {
        inv_sum += f64::from_bits((1023u64 - u64::from(r)) << 52); // 2^-r
        if r == 0 {
            zeros += 1;
        }
    }
    let mf = m as f64;
    let raw = alpha(m) * mf * mf / inv_sum;
    if raw <= 2.5 * mf && zeros > 0 {
        mf * (mf / zeros as f64).ln()
    } else {
        raw
    }
}

/// One HyperLogLog counter — `2^bits` dense `u8` registers.
///
/// [`NodeSketches`] flattens `n` of these into one register file; this
/// standalone form exists for the union-algebra property tests and for
/// callers estimating ad-hoc sets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HllSketch {
    bits: u32,
    regs: Vec<u8>,
}

impl HllSketch {
    /// An empty counter with `2^bits` zero registers.
    ///
    /// # Panics
    /// Panics unless `bits` is within
    /// [`MIN_SKETCH_BITS`]`..=`[`MAX_SKETCH_BITS`].
    pub fn new(bits: u32) -> Self {
        assert!(
            (MIN_SKETCH_BITS..=MAX_SKETCH_BITS).contains(&bits),
            "sketch bits {bits} outside {MIN_SKETCH_BITS}..={MAX_SKETCH_BITS}"
        );
        HllSketch {
            bits,
            regs: vec![0u8; 1usize << bits],
        }
    }

    /// Register-bit count `b`.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The raw registers (test hook for the union-algebra properties).
    pub fn registers(&self) -> &[u8] {
        &self.regs
    }

    /// Inserts an item by value ([`node_hash`]ed internally).
    pub fn insert(&mut self, item: u64) {
        let (index, rank) = index_and_rank(node_hash(item), self.bits);
        if self.regs[index] < rank {
            self.regs[index] = rank;
        }
    }

    /// Merges `other` into `self` — elementwise register max, the union
    /// of the underlying sets. Associative, commutative, idempotent
    /// (locked down by `proptests::sketch_union_is_a_semilattice`).
    ///
    /// # Panics
    /// Panics if the register-bit counts differ.
    pub fn union(&mut self, other: &HllSketch) {
        assert_eq!(self.bits, other.bits, "union of mismatched sketches");
        union_registers(&mut self.regs, &other.regs);
    }

    /// Estimated cardinality of the inserted/unioned set.
    pub fn estimate(&self) -> f64 {
        estimate_registers(&self.regs, self.bits)
    }
}

/// Elementwise register max — the union kernel shared by [`HllSketch`]
/// and the HyperANF round: the per-byte `if *d < *s { *d = *s }` loop,
/// written as a `max` the compiler turns into packed byte-max
/// instructions. A unit test holds it to that loop on every byte pair,
/// and `proptests::swar_union_matches_scalar_oracle` on arbitrary
/// register files of every length from 0 to 199.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn union_registers(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "union of mismatched register files");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = (*d).max(s);
    }
}

/// The register file of one HyperANF iteration: `n` HLL counters of
/// `2^bits` `u8` registers each, flattened node-major.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSketches {
    bits: u32,
    nodes: usize,
    regs: Vec<u8>,
}

impl NodeSketches {
    /// Round-zero file: node `v`'s counter holds exactly `{v}` (seeded
    /// via [`node_hash`]).
    pub fn init(nodes: usize, bits: u32) -> Self {
        assert!(
            (MIN_SKETCH_BITS..=MAX_SKETCH_BITS).contains(&bits),
            "sketch bits {bits} outside {MIN_SKETCH_BITS}..={MAX_SKETCH_BITS}"
        );
        let m = 1usize << bits;
        let mut regs = vec![0u8; nodes * m];
        for v in 0..nodes {
            let (index, rank) = index_and_rank(node_hash(v as u64), bits);
            regs[v * m + index] = rank;
        }
        NodeSketches { bits, nodes, regs }
    }

    /// Node `v`'s register slice.
    #[inline]
    pub fn node(&self, v: u32) -> &[u8] {
        let m = 1usize << self.bits;
        &self.regs[v as usize * m..(v as usize + 1) * m]
    }

    /// Estimated `|B(v, t)|` for node `v` at this file's round.
    pub fn estimate_node(&self, v: u32) -> f64 {
        estimate_registers(self.node(v), self.bits)
    }

    /// `Σ_v |B(v, t)|` — the neighborhood-function point `N(t)`.
    /// Summed **sequentially in node order**, so the floating-point
    /// result is independent of shard and thread counts (the registers
    /// it reads already are: they are integer max-merges).
    pub fn sum_estimates(&self) -> f64 {
        (0..self.nodes as u32).map(|v| self.estimate_node(v)).sum()
    }
}

/// One shard's worth of a HyperANF round, written in place: for every
/// node in `range`, `block` (the range's slice of the next register
/// file) gets the union of the **previous** round's own counter with the
/// previous counters of its neighbors. Returns those nodes' estimates in
/// node order, plus whether any register changed (the convergence
/// reducer).
fn union_shard(
    g: &CsrGraph,
    prev: &NodeSketches,
    range: Range<u32>,
    block: &mut [u8],
) -> (Vec<f64>, bool) {
    let m = 1usize << prev.bits;
    let mut estimates = Vec::with_capacity(range.len());
    let mut changed = false;
    for (v, dst) in range.zip(block.chunks_exact_mut(m)) {
        dst.copy_from_slice(prev.node(v));
        for &w in g.neighbors(v) {
            union_registers(dst, prev.node(w));
        }
        // once one node changed, the shard's flag is settled — skip the
        // 2^b-register compare for the rest (near-every node changes in
        // early rounds, so this halves the hot loop's register reads)
        if !changed {
            changed = dst != prev.node(v);
        }
        estimates.push(estimate_registers(dst, prev.bits));
    }
    (estimates, changed)
}

/// One HyperANF round over `prev`, written into `next` (a file of the
/// same size): each shard fills its node range of `next` through its
/// own slot of `chunks_mut`, which only that shard locks. Returns
/// `N(t)`, the estimates added one by one in node order as the shards
/// fold in shard order, and whether any register changed.
fn union_round(
    g: &CsrGraph,
    prev: &NodeSketches,
    next: &mut [u8],
    shards: usize,
    threads: usize,
) -> (f64, bool) {
    let n = g.node_count() as u32;
    let (len, _) = shard_layout(n, shards, 1);
    let slots: Vec<Mutex<&mut [u8]>> = next
        .chunks_mut((len as usize) << prev.bits)
        .map(Mutex::new)
        .collect();
    run_sharded_fold(
        n,
        shards,
        1,
        threads,
        |range: Range<u32>| {
            let slot = &slots[(range.start / len) as usize];
            let mut block = slot
                .lock()
                .expect("a slot is locked once per round, by its own shard");
            union_shard(g, prev, range, &mut block)
        },
        (0.0f64, false),
        |acc, (estimates, changed)| {
            for e in estimates {
                acc.0 += e;
            }
            acc.1 |= changed;
        },
    )
}

/// The HyperANF result: the estimated neighborhood function and the
/// distance-family views derived from it.
#[derive(Clone, Debug, PartialEq)]
pub struct HyperAnf {
    /// Register-bit count the run used.
    pub bits: u32,
    /// `neighborhood[t]` = estimated `N(t) = Σ_v |B(v, t)|` (ordered
    /// pairs within distance `t`, self-pairs included; `N(0) ≈ n`).
    /// Clamped monotone non-decreasing: the registers only grow, but the
    /// HLL small-range correction can jitter at its hand-off point, and
    /// a distance distribution must not go negative.
    pub neighborhood: Vec<f64>,
    /// Whether the registers reached their fixpoint within the round
    /// cap (`false` only when the cap bit before convergence — the
    /// estimates then cover distances up to the cap only).
    pub converged: bool,
}

impl HyperAnf {
    /// Estimated number of ordered pairs at distance exactly `t`, for
    /// `t ≥ 1`: the increments `N(t) − N(t−1)` (non-negative by the
    /// monotone clamp).
    pub fn pair_increments(&self) -> Vec<f64> {
        self.neighborhood.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Estimated average distance `d̄` over connected ordered pairs —
    /// the sketch twin of
    /// [`DistanceDistribution::mean`](crate::distance::DistanceDistribution::mean):
    /// `Σ_t t·(N(t) − N(t−1)) / (N(max) − N(0))`. Returns `0.0` when no
    /// positive-distance pairs were found (matching the exact metric's
    /// empty-total convention).
    pub fn avg_distance(&self) -> f64 {
        let nf = &self.neighborhood;
        let Some((&last, &first)) = nf.last().zip(nf.first()) else {
            return 0.0;
        };
        let total = last - first;
        if total <= 0.0 {
            return 0.0;
        }
        let sum: f64 = self
            .pair_increments()
            .iter()
            .enumerate()
            .map(|(i, &d)| (i + 1) as f64 * d)
            .sum();
        sum / total
    }

    /// Effective diameter at quantile `q` (the HyperANF paper's
    /// convention, `q = 0.9` behind the registry metric): the smallest
    /// `t` — linearly interpolated between rounds — such that
    /// `N(t) ≥ q·N(max)`.
    pub fn effective_diameter(&self, q: f64) -> f64 {
        let nf = &self.neighborhood;
        let Some(&last) = nf.last() else {
            return 0.0;
        };
        let target = q * last;
        if nf[0] >= target {
            return 0.0;
        }
        for t in 1..nf.len() {
            if nf[t] >= target {
                let prev = nf[t - 1];
                let step = nf[t] - prev;
                let frac = if step > 0.0 {
                    (target - prev) / step
                } else {
                    1.0
                };
                return (t - 1) as f64 + frac;
            }
        }
        (nf.len() - 1) as f64
    }

    /// Estimated distance PDF over **positive** distances — the sketch
    /// twin of the exact `d_x` series
    /// ([`DistanceDistribution::pdf_positive`](crate::distance::DistanceDistribution::pdf_positive)):
    /// `(t, ΔN(t)/Σ_s ΔN(s))` for `t ≥ 1`. Empty when no
    /// positive-distance pairs were found.
    pub fn distance_pdf(&self) -> Vec<(usize, f64)> {
        let inc = self.pair_increments();
        let total: f64 = inc.iter().sum();
        if total <= 0.0 {
            return Vec::new();
        }
        inc.iter()
            .enumerate()
            .map(|(i, &d)| (i + 1, d / total))
            .collect()
    }
}

/// HyperANF with an explicit shard count: the run allocates its two
/// register files once, and each round's shards write their node ranges
/// of the next file in place and estimate those nodes; the estimates
/// fold into `N(t)` in node order as the shards fold in shard order
/// ([`dk_graph::ensemble::run_fold`] via [`crate::stream`]). Since
/// registers are integer max-merges and every `N(t)` is one left fold
/// over nodes `0..n`, the result is identical for **any** shard and
/// thread count.
pub fn hyper_anf_sharded(
    g: &CsrGraph,
    bits: u32,
    max_rounds: usize,
    shards: usize,
    threads: usize,
) -> HyperAnf {
    let n = g.node_count();
    if n == 0 {
        return HyperAnf {
            bits,
            neighborhood: Vec::new(),
            converged: true,
        };
    }
    let threads = threads.clamp(1, n);
    let mut cur = NodeSketches::init(n, bits);
    let mut next = vec![0u8; cur.regs.len()];
    let mut neighborhood = vec![cur.sum_estimates()];
    let mut converged = false;
    for _round in 1..=max_rounds.max(1) {
        let (sum, changed) = union_round(g, &cur, &mut next, shards, threads);
        if !changed {
            // fixpoint: this round's file equals the last one, so its
            // estimate adds no information — stop without recording it
            converged = true;
            break;
        }
        std::mem::swap(&mut cur.regs, &mut next);
        let prev = *neighborhood.last().expect("N(0) recorded");
        neighborhood.push(sum.max(prev));
    }
    HyperAnf {
        bits,
        neighborhood,
        converged,
    }
}

/// Forwards to [`hyper_anf_sharded`]. Kept for the benchmark helper
/// under `perfbench/`, which calls it, until that helper next changes.
pub fn hyper_anf_streamed(
    g: &CsrGraph,
    bits: u32,
    max_rounds: usize,
    shards: usize,
    threads: usize,
) -> HyperAnf {
    hyper_anf_sharded(g, bits, max_rounds, shards, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::DEFAULT_SHARDS;
    use dk_graph::{builders, Graph};

    #[test]
    fn rank_and_index_cover_their_ranges() {
        for bits in [MIN_SKETCH_BITS, 8, MAX_SKETCH_BITS] {
            let (i0, r0) = index_and_rank(0, bits);
            assert_eq!(i0, 0);
            assert_eq!(u32::from(r0), 65 - bits, "all-zero remainder saturates");
            let (imax, rmax) = index_and_rank(u64::MAX, bits);
            assert_eq!(imax, (1usize << bits) - 1);
            assert_eq!(rmax, 1);
        }
    }

    #[test]
    fn hll_estimates_small_sets_nearly_exactly() {
        // n ≪ 2^b is the linear-counting regime: error far below the
        // 1.04/√m standard error
        for bits in [6, 10, MAX_SKETCH_BITS] {
            let mut s = HllSketch::new(bits);
            for v in 0..40u64 {
                s.insert(v);
            }
            let est = s.estimate();
            assert!(est.is_finite());
            let rel = (est - 40.0).abs() / 40.0;
            assert!(rel < 0.15, "bits {bits}: estimate {est}");
        }
    }

    #[test]
    fn hll_estimate_within_standard_error_at_scale() {
        // 50k items into m = 1024 registers: raw-estimator regime; the
        // deterministic hash must land within a few standard errors
        let bits = 10;
        let mut s = HllSketch::new(bits);
        for v in 0..50_000u64 {
            s.insert(v);
        }
        let rel = (s.estimate() - 50_000.0).abs() / 50_000.0;
        assert!(rel < 3.0 * standard_error(bits), "rel error {rel}");
    }

    #[test]
    fn union_is_max_and_estimate_monotone() {
        let mut a = HllSketch::new(6);
        let mut b = HllSketch::new(6);
        for v in 0..30 {
            a.insert(v);
        }
        for v in 20..60 {
            b.insert(v);
        }
        let ea = a.estimate();
        let mut u = a.clone();
        u.union(&b);
        assert!(u.estimate() >= ea, "union can only grow the set");
        // idempotence of a self-union
        let before = u.clone();
        u.union(&before);
        assert_eq!(u, before);
    }

    #[test]
    #[should_panic(expected = "sketch bits")]
    fn bits_out_of_range_panics() {
        HllSketch::new(MAX_SKETCH_BITS + 1);
    }

    #[test]
    fn init_seeds_exactly_one_register_per_node() {
        let s = NodeSketches::init(10, 5);
        for v in 0..10u32 {
            let set = s.node(v).iter().filter(|&&r| r > 0).count();
            assert_eq!(set, 1, "node {v}");
        }
        // N(0) ≈ n: every ball of radius 0 is a single node
        let n0 = s.sum_estimates();
        assert!((n0 - 10.0).abs() / 10.0 < 0.05, "N(0) = {n0}");
    }

    #[test]
    fn hyper_anf_converges_on_path_and_matches_ball_sizes() {
        // P4: balls grow by one hop per round; exact N(t) by hand:
        // N(0)=4, N(1)=4+6=10, N(2)=14, N(3)=16 (ordered pairs + self)
        let g = builders::path(4);
        let csr = CsrGraph::from_graph(&g);
        let anf = hyper_anf_sharded(&csr, 10, 64, DEFAULT_SHARDS, 1);
        assert!(anf.converged);
        assert_eq!(anf.neighborhood.len(), 4, "diameter 3 → rounds 0..=3");
        for (t, want) in [(0usize, 4.0), (1, 10.0), (2, 14.0), (3, 16.0)] {
            let got = anf.neighborhood[t];
            assert!(
                (got - want).abs() / want < 0.05,
                "N({t}) = {got}, want ≈ {want}"
            );
        }
        // d̄ of P4 = 5/3 over connected ordered pairs
        let want = 5.0 / 3.0;
        assert!((anf.avg_distance() - want).abs() / want < 0.05);
    }

    #[test]
    fn round_cap_reports_non_convergence() {
        let g = builders::path(10);
        let csr = CsrGraph::from_graph(&g);
        let capped = hyper_anf_sharded(&csr, 8, 2, DEFAULT_SHARDS, 1);
        assert!(!capped.converged);
        assert_eq!(capped.neighborhood.len(), 3, "N(0)..N(2) only");
        let full = hyper_anf_sharded(&csr, 8, 64, DEFAULT_SHARDS, 1);
        assert!(full.converged);
        assert_eq!(full.neighborhood[..3], capped.neighborhood[..]);
    }

    #[test]
    fn identical_across_shards_and_threads() {
        let g = builders::grid(5, 6);
        let csr = CsrGraph::from_graph(&g);
        let n = g.node_count();
        let oracle = hyper_anf_sharded(&csr, 7, 64, 1, 1);
        for shards in [1, 2, 7, n] {
            for threads in [1, 3] {
                assert_eq!(
                    hyper_anf_sharded(&csr, 7, 64, shards, threads),
                    oracle,
                    "shards = {shards}, threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn swar_union_agrees_with_scalar_loop() {
        // every one of the 65,536 (dst, src) byte pairs, so the
        // boundary bytes 0x00/0x7F/0x80/0xFF meet each other in both
        // operands; three more pairs leave a tail past the vector body.
        // The name is kept from the word-packed SWAR kernel it first
        // checked.
        let mut pairs: Vec<(u8, u8)> = (0..=255u8)
            .flat_map(|d| (0..=255u8).map(move |s| (d, s)))
            .collect();
        pairs.extend([(0x7F, 0x80), (0x80, 0x7F), (0xFF, 0x00)]);
        let (mut a, b): (Vec<u8>, Vec<u8>) = pairs.into_iter().unzip();
        let mut expect = a.clone();
        for (d, s) in expect.iter_mut().zip(&b) {
            if *d < *s {
                *d = *s;
            }
        }
        union_registers(&mut a, &b);
        assert_eq!(a, expect);
    }

    #[test]
    fn disconnected_graphs_stop_at_component_balls() {
        // two components: balls never cross, N(max) < n²
        let g = Graph::from_edges(5, [(0, 1), (2, 3), (3, 4)]).unwrap();
        let csr = CsrGraph::from_graph(&g);
        let anf = hyper_anf_sharded(&csr, 10, 64, DEFAULT_SHARDS, 1);
        assert!(anf.converged);
        // exact: N(0)=5, N(1)=5+2+6=13? pairs: (0,1)x2 at d1; (2,3),(3,4),(2,4 via 3 at d2)...
        // N(max) = 2² + 3² = 13 ordered pairs within components
        let last = *anf.neighborhood.last().unwrap();
        assert!((last - 13.0).abs() / 13.0 < 0.05, "N(max) = {last}");
        assert!(anf.avg_distance() > 0.0);
        assert!(anf.avg_distance().is_finite());
    }

    #[test]
    fn empty_and_single_node_graphs() {
        let anf = |g: &Graph, threads| {
            hyper_anf_sharded(&CsrGraph::from_graph(g), 8, 8, DEFAULT_SHARDS, threads)
        };
        let empty = anf(&Graph::new(), 2);
        assert!(empty.neighborhood.is_empty());
        assert!(empty.converged);
        assert_eq!(empty.avg_distance(), 0.0);
        assert_eq!(empty.effective_diameter(0.9), 0.0);
        assert!(empty.distance_pdf().is_empty());

        let one = anf(&Graph::with_nodes(1), 1);
        assert!(one.converged);
        assert_eq!(one.avg_distance(), 0.0);
        assert_eq!(one.effective_diameter(0.9), 0.0);
    }

    #[test]
    fn oversized_registers_degrade_gracefully() {
        // n = 5 ≪ 2^16 registers: linear counting everywhere — finite,
        // near-exact, no panic (the explicit n < 2^b requirement)
        let g = builders::complete(5);
        let csr = CsrGraph::from_graph(&g);
        let anf = hyper_anf_sharded(&csr, MAX_SKETCH_BITS, 16, DEFAULT_SHARDS, 2);
        assert!(anf.converged);
        assert!(anf.neighborhood.iter().all(|x| x.is_finite()));
        let d = anf.avg_distance();
        assert!((d - 1.0).abs() < 0.02, "K5 d̄ = {d}");
        assert!(anf.effective_diameter(0.9).is_finite());
    }

    #[test]
    fn effective_diameter_interpolates() {
        // star: N(0)=6, N(1)=16, N(2)=36 (exact); q=0.9 target 32.4 →
        // between rounds 1 and 2
        let g = builders::star(5);
        let csr = CsrGraph::from_graph(&g);
        let anf = hyper_anf_sharded(&csr, 12, 16, DEFAULT_SHARDS, 1);
        let eff = anf.effective_diameter(0.9);
        assert!(eff > 1.0 && eff < 2.0, "eff diameter {eff}");
        // q = 1.0 reaches the full diameter
        let full = anf.effective_diameter(1.0);
        assert!((full - 2.0).abs() < 0.05, "diameter {full}");
    }

    #[test]
    fn distance_pdf_sums_to_one() {
        let g = builders::karate_club();
        let csr = CsrGraph::from_graph(&g);
        let anf = hyper_anf_sharded(&csr, 10, 32, DEFAULT_SHARDS, 2);
        let pdf = anf.distance_pdf();
        assert!(!pdf.is_empty());
        let total: f64 = pdf.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9, "Σ pdf = {total}");
        assert!(pdf.iter().all(|&(_, p)| p >= 0.0));
        assert_eq!(pdf[0].0, 1, "positive distances start at 1");
    }

    #[test]
    fn standard_error_formula() {
        assert!((standard_error(8) - 1.04 / 16.0).abs() < 1e-12);
        assert!((standard_error(10) - 1.04 / 32.0).abs() < 1e-12);
    }
}
