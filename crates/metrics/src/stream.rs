//! Sharded streaming execution for the all-pairs traversal passes.
//!
//! The exact §5 metrics (distance distribution, betweenness) run one BFS
//! or Brandes sweep per source; the sampled estimator runs one per
//! pivot, and HyperANF one register-union round per node range. Every
//! such pass goes through the one executor here, `run_sharded_fold`:
//!
//! * **Shards** (`shard_layout`): sources are partitioned into
//!   contiguous shards whose boundaries are a pure function of the
//!   source count and the shard count — never of the worker count
//!   ([`DEFAULT_SHARDS`] reproduces the historical chunking exactly).
//! * **Streaming reducers**: each worker streams its shard over the
//!   shared frozen [`CsrGraph`](dk_graph::CsrGraph) (the Brandes passes
//!   over one shared BFS-ordered copy of it) into compact
//!   per-shard state — a distance histogram, an `O(n)` betweenness
//!   partial, a max-merged eccentricity — and partials fold into **one**
//!   global accumulator in strict shard order
//!   ([`dk_graph::ensemble::run_fold`]). In-flight memory is
//!   `O(workers · n)`; the per-source BFS/Brandes vectors are worker
//!   scratch, never materialized per source.
//! * **Bit-identity**: with one worker the fold computes each shard and
//!   merges it, in shard order — the same operations as collecting every
//!   partial and merging front to back. Since the shard layout ignores
//!   the worker count, a pass at `threads = 1` is the oracle for the same
//!   pass at any thread count (`tests/stream_equivalence.rs`, the
//!   `proptests::streamed_analysis_equals_in_memory` property).
//! * **Planning** ([`plan`]): resolves the shard count (`Analyzer::shards`,
//!   CLI `--shards`; default [`DEFAULT_SHARDS`]), which fixes the f64
//!   merge tree of the betweenness passes, and the worker counts (the
//!   thread knob, capped by `Analyzer::memory_budget` / CLI
//!   `--memory-budget` so the traversal working set, with a Brandes
//!   pass's BFS-ordered copy, stays under it).
//! * **Pricing** ([`min_bytes`]): the least memory the passes of one
//!   analysis need, the price `dk serve` compares with a request's
//!   budget before it allocates (see the footprint model below).
//!
//! This is the Brandes–Pich shape (source partitioning with streaming
//! per-source accumulation) applied to the *exact* passes; the sampled
//! estimator in [`crate::sampled`] rides the same shard executor with
//! pivot sources.
//!
//! # Footprint model
//!
//! One byte model prices every analysis: [`plan`] buys workers with it,
//! and [`min_bytes`] composes it into the one price `dk serve` admits a
//! request at. On an analyzed graph of `n` nodes and `m` edges, every
//! traversal pass holds the *fixed* bytes (the CSR, `4(n+1) + 8m`, and
//! an `8n`-byte accumulator) and [`per_worker_bytes`] per worker; a
//! Brandes pass also holds a BFS-ordered copy of the CSR and a `4n`-byte
//! id map. The triangle census keeps `8n` bytes of counts in the cache
//! and frees its oriented rows (`4(n+1) + 4m`) and `4n`-byte mark array.
//! HyperANF holds two register files of `n·2^b` bytes, and the spectral
//! solve [`spectral_bytes`].
//!
//! [`AnalysisCache`](crate::cache::AnalysisCache) runs the sketch pass,
//! then the census, then the traversal passes, then the spectral solve.
//! [`min_bytes`] prices that order at one worker: the floor (the fixed
//! bytes, one worker's scratch, and the Brandes copy when a Brandes pass
//! runs), plus the census counts when a traversal pass runs after the
//! census, raised to the census's own footprint on top of the fixed
//! bytes where that is larger, plus the sketch registers and the
//! spectral working set. Adding the last two over-approximates the
//! peak: the sketch pass frees its registers before the traversal
//! passes run, and the spectral solve starts after they end. With no
//! pass selected the price is the floor alone.

use crate::cache::AnalyzeOptions;
use crate::distance::default_threads;
use crate::metric::Dep;
use crate::spectral::spectral_bytes;
use std::ops::Range;

/// Default shard count — the historical `run_chunked` chunking (enough
/// shards that work-stealing balances uneven BFS costs, few enough that
/// per-shard setup stays negligible).
pub const DEFAULT_SHARDS: usize = 64;

/// Shard layout for `n` sources split `shards` ways: `(length, count)`
/// with every shard `length` sources long except a possibly-short last
/// one. The length is rounded up to a multiple of `quantum` — `1` for
/// the per-source passes, [`BATCH_LANES`](dk_graph::traversal::BATCH_LANES)
/// for the batched distance-histogram passes, whose shards then hold
/// whole 64-source batches. A pure function of `(n, shards, quantum)`
/// — never of the worker count — so the floating-point merge tree of a
/// sharded pass is fixed by the shard count alone. `shards` is clamped
/// to `1..=n`.
pub(crate) fn shard_layout(n: u32, shards: usize, quantum: u32) -> (u32, u32) {
    let shards = shards.clamp(1, n.max(1) as usize) as u32;
    let len = n.div_ceil(shards).max(1).next_multiple_of(quantum);
    (len, n.div_ceil(len))
}

/// Runs `work` on every shard of `0..n` (laid out by [`shard_layout`])
/// across `threads` workers and folds each shard partial into `acc` in
/// strict shard order as soon as it is ready — `O(workers · |partial|)`
/// in flight. The fold order is fixed by the shard layout alone, so the
/// result is bit-identical for every thread count.
pub(crate) fn run_sharded_fold<T, A, F, M>(
    n: u32,
    shards: usize,
    quantum: u32,
    threads: usize,
    work: F,
    mut acc: A,
    fold: M,
) -> A
where
    F: Fn(Range<u32>) -> T + Sync,
    M: Fn(&mut A, T) + Sync,
    T: Send,
    A: Send,
{
    if n == 0 {
        fold(&mut acc, work(0..0));
        return acc;
    }
    let (len, count) = shard_layout(n, shards, quantum);
    dk_graph::ensemble::run_fold(
        count as u64,
        0,
        threads,
        |i, _rng| {
            let lo = i as u32 * len;
            work(lo..(lo + len).min(n))
        },
        acc,
        |acc, _i, partial| fold(acc, partial),
    )
}

/// How the traversal-shaped passes of one analyzer run execute. Built by
/// [`plan`]; read back via
/// [`AnalysisCache::exec_plan`](crate::cache::AnalysisCache::exec_plan).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecPlan {
    /// Always `true`: every pass streams through `run_sharded_fold`.
    /// Kept for the benchmark helper under `perfbench/`, which reads it,
    /// until that helper next changes.
    pub streamed: bool,
    /// Source shard count (fixes the merge tree; default
    /// [`DEFAULT_SHARDS`]).
    pub shards: usize,
    /// Worker threads for the traversal passes (the resolved thread
    /// budget, possibly lowered by a memory budget).
    pub workers: usize,
    /// Worker threads for a Brandes pass (exact or sampled betweenness,
    /// and the betweenness attack ranking): `workers`, lowered further
    /// when a memory budget must also pay the pass's BFS-ordered copy
    /// (see the [footprint model](self#footprint-model)).
    pub brandes_workers: usize,
}

/// Working-set bytes one streaming worker needs for the Brandes pass
/// (betweenness and distances) on an `n`-node graph: the `O(n)`
/// betweenness partial (`f64`) plus the kernel's per-source scratch (the
/// packed σ/δ slot, the one-byte level code, the span-carrying FIFO
/// queue). The distance histogram and the level starts are
/// `O(diameter)` — noise.
///
/// Total traversal memory is `workers × per_worker_bytes` plus the
/// fixed bytes (and a Brandes pass's copy) of the
/// [footprint model](self#footprint-model), never a function of the
/// shard count.
pub fn per_worker_bytes(n: usize) -> u64 {
    // bc 8 + sigma/delta 16 + level code 1 + queue entry 12 (node and
    // its row span) = 37 B/node; round up to 40 for allocator slack and
    // the histogram. The distance-only passes (exact and sampled) run
    // the batched kernel, whose `BatchScratch` — three u64 words plus
    // two frontier node lists, at most 32 B/node — fits inside the same
    // 40 B/node. The two n-bit terms are slack, kept so that the worker
    // counts a memory budget plans, and the byte counts `dk serve`
    // reports in its `over_budget` rejections, stay what clients and
    // scripts already see.
    40 * n as u64 + 2 * (n as u64).div_ceil(8)
}

/// Bytes every traversal pass holds regardless of the worker count: the
/// analyzed [`CsrGraph`](dk_graph::CsrGraph) (`n + 1` `u32` offsets and
/// `2m` `u32` targets: `4(n+1) + 8m`) plus the `O(n)` global
/// accumulator the shard partials fold into. A memory budget is
/// charged these up front; only the remainder buys workers.
pub(crate) fn fixed_bytes(n: usize, edges: usize) -> u64 {
    let snapshot = 4 * (n as u64 + 1) + 8 * edges as u64;
    let accumulator = 8 * n as u64;
    snapshot + accumulator
}

/// Bytes a Brandes pass (exact or sampled betweenness) holds on top of
/// [`fixed_bytes`], whatever its worker count: the BFS-ordered copy of
/// the analyzed graph its shards read (the snapshot's layout again,
/// `4(n+1) + 8m`) and the `4n`-byte id map that renumbers the pivots
/// into the copy and the betweenness back out. Charged here and
/// nowhere else: [`plan`] pays it before it buys
/// [`ExecPlan::brandes_workers`], the worker count every Brandes pass
/// runs with, and [`floor_bytes`] adds it to the floor of a Brandes
/// pass.
pub(crate) fn brandes_copy_bytes(n: usize, edges: usize) -> u64 {
    let copy = 4 * (n as u64 + 1) + 8 * edges as u64;
    let id_map = 4 * n as u64;
    copy + id_map
}

/// Bytes the triangle census ([`crate::clustering`]) holds on top of
/// [`fixed_bytes`] while it runs: the kept `8n`-byte per-node counts, its
/// oriented copy of the rows (`n + 1` `u32` offsets and one `u32` per
/// edge, `4(n+1) + 4m`) and its `4n`-byte mark array. Up to an average
/// degree of about 12 this stays under one worker's
/// [`per_worker_bytes`], so [`floor_bytes`] covers it; [`min_bytes`]
/// prices a census at the larger of the two.
pub(crate) fn census_bytes(n: usize, edges: usize) -> u64 {
    let counts = census_counts_bytes(n);
    let rows = 4 * (n as u64 + 1) + 4 * edges as u64;
    let mark = 4 * n as u64;
    counts + rows + mark
}

/// The `8n` bytes of per-node triangle counts that the census keeps in
/// the cache (part of [`census_bytes`]). They stay resident while the
/// traversal passes after the census run, so [`min_bytes`] adds them to
/// the floor of an analysis that runs both.
pub(crate) fn census_counts_bytes(n: usize) -> u64 {
    8 * n as u64
}

/// The least memory a pass runs in: [`fixed_bytes`] and one worker's
/// [`per_worker_bytes`], plus [`brandes_copy_bytes`] when it is a
/// Brandes pass. [`plan`] never plans below one worker, so a budget
/// under this floor is exceeded whatever the worker count.
pub(crate) fn floor_bytes(n: usize, edges: usize, brandes: bool) -> u64 {
    let copy = if brandes {
        brandes_copy_bytes(n, edges)
    } else {
        0
    };
    fixed_bytes(n, edges)
        .saturating_add(per_worker_bytes(n))
        .saturating_add(copy)
}

/// The least memory the passes for `deps` need on an analyzed graph of
/// `n` nodes and `edges` edges: the [footprint model](self#footprint-model)
/// composed in the order [`AnalysisCache`](crate::cache::AnalysisCache)
/// runs them, at one worker, saturating throughout. `sketch_bits` sizes
/// the HyperANF register files and is read only when `deps` holds
/// [`Dep::Sketch`]. [`plan`] never plans below one worker, so a memory
/// budget under this price is exceeded whatever the worker count: `dk
/// serve` rejects such a request before it allocates.
pub fn min_bytes(n: usize, edges: usize, deps: &[Dep], sketch_bits: u32) -> u64 {
    let brandes = deps.iter().any(|d| d.runs_brandes());
    let mut bytes = floor_bytes(n, edges, brandes);
    if deps.contains(&Dep::Triangles) {
        // the census's counts stay in the cache while the traversal
        // passes after it run
        let traverses = deps.iter().any(|d| {
            matches!(
                d,
                Dep::Distances | Dep::Betweenness | Dep::Sampled | Dep::SampledDistances
            )
        });
        if traverses {
            bytes = bytes.saturating_add(census_counts_bytes(n));
        }
        // the census itself runs before them, with no worker scratch
        // beside it: it raises the price only where the floor does not
        // cover it
        bytes = bytes.max(fixed_bytes(n, edges).saturating_add(census_bytes(n, edges)));
    }
    if deps.contains(&Dep::Sketch) {
        // two register files of n·2^b bytes
        let registers = (n as u64)
            .saturating_mul(1u64.checked_shl(sketch_bits).unwrap_or(u64::MAX))
            .saturating_mul(2);
        bytes = bytes.saturating_add(registers);
    }
    if deps.contains(&Dep::Spectral) {
        bytes = bytes.saturating_add(spectral_bytes(n, edges));
    }
    bytes
}

/// Resolves the execution plan for one analyzer run over an analyzed
/// graph of `n` nodes and `edges` edges: the shard count (`opts.shards`,
/// default [`DEFAULT_SHARDS`]) and the worker counts, from the thread
/// knob in `opts` (`0` = all cores). A `memory_budget` first pays the
/// worker-independent fixed bytes (snapshot + global accumulator), and
/// for [`ExecPlan::brandes_workers`] also the Brandes copy (see the
/// [footprint model](self#footprint-model)), then lowers the worker
/// count until the per-worker scratch fits the remainder — never below
/// 1 worker, the floor the pass needs to run at all.
pub fn plan(n: usize, edges: usize, opts: &AnalyzeOptions) -> ExecPlan {
    let threads = if opts.threads == 0 {
        default_threads()
    } else {
        opts.threads
    };
    let within = |fixed: u64| match opts.memory_budget {
        Some(budget) => {
            let fit = budget.saturating_sub(fixed) / per_worker_bytes(n).max(1);
            threads.min(fit.max(1) as usize)
        }
        None => threads,
    };
    let fixed = fixed_bytes(n, edges);
    ExecPlan {
        streamed: true,
        shards: opts.shards.unwrap_or(DEFAULT_SHARDS).max(1),
        workers: within(fixed),
        brandes_workers: within(fixed + brandes_copy_bytes(n, edges)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::Strategy;
    use crate::metric::{AnyMetric, Cost};

    #[test]
    fn shard_layout_matches_historical_chunking() {
        // DEFAULT_SHARDS reproduces run_chunked's ceil(n/64) layout
        for n in [1u32, 7, 63, 64, 65, 1000, 12345] {
            let (len, count) = shard_layout(n, DEFAULT_SHARDS, 1);
            let want_len = n.div_ceil(64).max(1);
            assert_eq!(len, want_len, "n = {n}");
            assert_eq!(count, n.div_ceil(want_len), "n = {n}");
            // shards tile 0..n exactly
            assert!((count - 1) * len < n && count * len >= n);
        }
    }

    #[test]
    fn shard_layout_clamps() {
        assert_eq!(shard_layout(5, 0, 1), (5, 1));
        assert_eq!(shard_layout(5, 1, 1), (5, 1));
        assert_eq!(shard_layout(5, 5, 1), (1, 5));
        assert_eq!(shard_layout(5, 99, 1), (1, 5));
        assert_eq!(shard_layout(0, 3, 1), (1, 0));
    }

    #[test]
    fn batched_layout_holds_whole_batches() {
        // shard lengths round up to whole 64-source batches: a 16-pivot
        // pass at the default shard count is one batch, not 16
        assert_eq!(shard_layout(16, DEFAULT_SHARDS, 64), (64, 1));
        assert_eq!(shard_layout(9071, DEFAULT_SHARDS, 64), (192, 48));
        assert_eq!(shard_layout(129, 2, 64), (128, 2));
        assert_eq!(shard_layout(200, 200, 64), (64, 4));
        assert_eq!(shard_layout(0, 3, 64), (64, 0));
    }

    fn opts_threads(threads: usize) -> AnalyzeOptions {
        AnalyzeOptions {
            threads,
            ..AnalyzeOptions::default()
        }
    }

    #[test]
    fn plan_defaults() {
        let p = plan(1000, 2000, &opts_threads(1));
        assert!(p.streamed);
        assert_eq!(
            (p.shards, p.workers, p.brandes_workers),
            (DEFAULT_SHARDS, 1, 1)
        );
        // without a budget the copy costs no workers
        let p = plan(10_000_000, 0, &opts_threads(3));
        assert_eq!((p.workers, p.brandes_workers), (3, 3));
    }

    #[test]
    fn plan_explicit_knobs() {
        let p = plan(
            100,
            200,
            &AnalyzeOptions {
                shards: Some(7),
                ..opts_threads(2)
            },
        );
        assert_eq!(p.shards, 7);
        let p = plan(
            100,
            200,
            &AnalyzeOptions {
                memory_budget: Some(1 << 30),
                ..opts_threads(2)
            },
        );
        assert_eq!(p.workers, 2);
    }

    #[test]
    fn plan_memory_budget_caps_workers_but_never_below_one() {
        let (n, m) = (1_000_000, 2_000_000);
        // the fixed costs (snapshot + accumulator) are charged first:
        // exactly 3 workers' scratch on top of them admits 3 workers...
        let generous = plan(
            n,
            m,
            &AnalyzeOptions {
                memory_budget: Some(fixed_bytes(n, m) + per_worker_bytes(n) * 3),
                ..opts_threads(8)
            },
        );
        assert_eq!(generous.workers, 3);
        // ...while the same budget without the fixed share admits fewer
        let uncharged = plan(
            n,
            m,
            &AnalyzeOptions {
                memory_budget: Some(per_worker_bytes(n) * 3),
                ..opts_threads(8)
            },
        );
        assert!(uncharged.workers < 3);
        // a Brandes pass pays its copy before it buys workers: the
        // budget that bought 3 workers above buys it 2
        assert_eq!(generous.brandes_workers, 2);
        let tiny = plan(
            n,
            m,
            &AnalyzeOptions {
                memory_budget: Some(1),
                ..opts_threads(8)
            },
        );
        assert_eq!((tiny.workers, tiny.brandes_workers), (1, 1));
    }

    #[test]
    fn census_fits_the_floor_up_to_average_degree_twelve() {
        // fixed + census stays under the plain floor while the oriented
        // rows (4 bytes per edge) fit the worker scratch it replaces
        let n = 100_000;
        let under = |m: usize| fixed_bytes(n, m) + census_bytes(n, m) <= floor_bytes(n, m, false);
        assert!(under(2 * n) && under(6 * n));
        assert!(!under(6 * n + n / 10) && !under(16 * n));
    }

    #[test]
    fn floor_bytes_is_the_one_worker_footprint() {
        let (n, m) = (1_000_000, 2_000_000);
        let plain = floor_bytes(n, m, false);
        let brandes = floor_bytes(n, m, true);
        assert_eq!(plain, fixed_bytes(n, m) + per_worker_bytes(n));
        assert_eq!(brandes, plain + brandes_copy_bytes(n, m));
        // the floor plus one more worker's scratch buys each pass
        // exactly 2 workers
        let two = |floor: u64| {
            plan(
                n,
                m,
                &AnalyzeOptions {
                    memory_budget: Some(floor + per_worker_bytes(n)),
                    ..opts_threads(8)
                },
            )
        };
        assert_eq!(two(plain).workers, 2);
        assert_eq!(two(brandes).brandes_workers, 2);
    }

    /// `dk serve`'s admission price before the model moved here: the
    /// composition `Registry::admit` ran over the selected metrics,
    /// copied verbatim (its `dk_metrics::` paths read `crate::`), with
    /// the sketch and spectral terms keyed on `Cost` classes and the
    /// register bytes written out inline.
    fn admit_oracle(nodes: usize, edges: usize, metrics: &[AnyMetric], sketch_bits: u32) -> u64 {
        let brandes = metrics
            .iter()
            .any(|m| m.deps().iter().any(|d| d.runs_brandes()));
        let mut min_bytes = crate::stream::floor_bytes(nodes, edges, brandes);
        if metrics.iter().any(|m| m.deps().contains(&Dep::Triangles)) {
            // the census's counts stay in the cache while the traversal
            // passes after it run
            let traverses = metrics.iter().flat_map(|m| m.deps()).any(|d| {
                matches!(
                    d,
                    Dep::Distances | Dep::Betweenness | Dep::Sampled | Dep::SampledDistances
                )
            });
            if traverses {
                min_bytes = min_bytes.saturating_add(crate::stream::census_counts_bytes(nodes));
            }
            // the census itself runs before them, with no worker scratch
            // beside it: it raises the minimum only where the floor does
            // not cover it
            let census = crate::stream::fixed_bytes(nodes, edges)
                .saturating_add(crate::stream::census_bytes(nodes, edges));
            min_bytes = min_bytes.max(census);
        }
        if metrics.iter().any(|m| m.cost() == Cost::Sketch) {
            let registers = (nodes as u64)
                .saturating_mul(1u64 << sketch_bits)
                .saturating_mul(2);
            min_bytes = min_bytes.saturating_add(registers);
        }
        if metrics.iter().any(|m| m.cost() == Cost::Spectral) {
            min_bytes = min_bytes.saturating_add(crate::spectral::spectral_bytes(nodes, edges));
        }
        min_bytes
    }

    /// `Registry::admit_attack`'s floor before the model moved here,
    /// copied verbatim, with `Strategy::runs_brandes` inlined.
    fn admit_attack_oracle(nodes: usize, edges: usize, strategy: Strategy) -> u64 {
        crate::stream::floor_bytes(nodes, edges, matches!(strategy, Strategy::Betweenness))
    }

    /// The graph sizes the model is held to the oracle at: empty, one
    /// node, BA(10^4) and a twin of average degree 32, BA(10^5) (the
    /// `serve_mixed` graph) and BA(10^6).
    const SIZES: [(usize, usize); 6] = [
        (0, 0),
        (1, 0),
        (10_000, 19_997),
        (10_000, 160_000),
        (100_000, 199_997),
        (1_000_000, 2_000_000),
    ];

    /// The price of analyzing `metrics`, as `dk serve` asks for it.
    fn price(n: usize, m: usize, metrics: &[AnyMetric], sketch_bits: u32) -> u64 {
        min_bytes(n, m, &AnyMetric::deps_of(metrics), sketch_bits)
    }

    /// The registered metrics named in `names`, in registry order.
    fn named(names: &[&str]) -> Vec<AnyMetric> {
        AnyMetric::all()
            .filter(|m| names.contains(&m.name()))
            .collect()
    }

    #[test]
    fn min_bytes_matches_the_admission_oracle() {
        let all: Vec<AnyMetric> = AnyMetric::all().collect();
        let mut sets = vec![
            Vec::new(),
            AnyMetric::cheap_set(),
            AnyMetric::default_set(),
            all.clone(),
        ];
        for (i, &a) in all.iter().enumerate() {
            sets.push(vec![a]);
            sets.extend(all[i + 1..].iter().map(|&b| vec![a, b]));
        }
        for (n, m) in SIZES {
            for bits in [4, 8, 16] {
                for set in &sets {
                    assert_eq!(
                        price(n, m, set, bits),
                        admit_oracle(n, m, set, bits),
                        "n = {n}, m = {m}, b = {bits}, {set:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn min_bytes_matches_the_attack_oracle() {
        for (n, m) in SIZES {
            for strategy in Strategy::all() {
                // no strategy runs a sketch pass, so the bits are unread
                for bits in [0, 4, 8, 16] {
                    assert_eq!(
                        min_bytes(n, m, strategy.deps(), bits),
                        admit_attack_oracle(n, m, strategy),
                        "n = {n}, m = {m}, b = {bits}, {strategy}"
                    );
                }
            }
        }
    }

    /// The oracle priced the sketch registers and the spectral working
    /// set by `Cost` class, the model by `Dep`: the two coincide on
    /// every registered metric.
    #[test]
    fn sketch_and_spectral_costs_coincide_with_their_deps() {
        for m in AnyMetric::all() {
            let (cost, deps) = (m.cost(), m.deps());
            assert_eq!(cost == Cost::Sketch, deps.contains(&Dep::Sketch), "{m}");
            assert_eq!(cost == Cost::Spectral, deps.contains(&Dep::Spectral), "{m}");
        }
    }

    #[test]
    fn min_bytes_prices_the_spectral_pass_in() {
        let spectral = named(&["lambda1"]);
        assert!(spectral.len() == 1 && spectral[0].cost() == Cost::Spectral);
        // the daemon's BA n = 10^5 graph: two edges per arriving node
        let n = 100_000;
        let m = 200_000;
        let plain_floor = floor_bytes(n, m, false);
        let spectral_floor = plain_floor + spectral_bytes(n, m);
        // a budget between the two prices
        let budget = (plain_floor + spectral_floor) / 2;
        assert!(price(n, m, &AnyMetric::cheap_set(), 8) <= budget);
        assert_eq!(price(n, m, &spectral, 8), spectral_floor);
        // so is the paper battery (`metrics: default`), which includes it
        assert!(price(n, m, &AnyMetric::default_set(), 8) > budget);
    }

    #[test]
    fn min_bytes_prices_the_brandes_copy_in() {
        let n = 10_000;
        let m = 20_000;
        let plain_floor = floor_bytes(n, m, false);
        let brandes_floor = floor_bytes(n, m, true);
        assert!(brandes_floor > plain_floor);
        // a budget between the two floors: the batched distance pass
        // fits, the Brandes pass and its BFS-ordered copy do not
        let budget = (plain_floor + brandes_floor) / 2;
        assert_eq!(named(&["distance_approx"]).len(), 1);
        assert!(price(n, m, &named(&["distance_approx"]), 8) <= budget);
        for name in ["betweenness_approx", "b_max"] {
            assert_eq!(named(&[name]).len(), 1, "{name}");
            assert_eq!(price(n, m, &named(&[name]), 8), brandes_floor, "{name}");
        }
    }

    #[test]
    fn min_bytes_prices_the_census_in_where_the_floor_does_not_cover_it() {
        let census_floor = |n: usize, m: usize| fixed_bytes(n, m) + census_bytes(n, m);
        // average degree 32: the census needs more than the floor
        let (n, m) = (10_000, 160_000);
        let plain_floor = floor_bytes(n, m, false);
        let census = census_floor(n, m);
        assert!(census > plain_floor);
        // a budget between the two prices
        let budget = (plain_floor + census) / 2;
        assert!(price(n, m, &named(&["k_avg"]), 8) <= budget);
        for name in ["c_mean", "s2"] {
            assert_eq!(named(&[name]).len(), 1, "{name}");
            assert_eq!(price(n, m, &named(&[name]), 8), census, "{name}");
        }
        // BA(10^4), two edges per arriving node: the floor covers it, so
        // the price is the floor itself
        let (n, m) = (10_000, 19_997);
        let plain_floor = floor_bytes(n, m, false);
        assert!(census_floor(n, m) < plain_floor);
        for name in ["c_mean", "s2", "k_avg"] {
            assert_eq!(price(n, m, &named(&[name]), 8), plain_floor, "{name}");
        }
    }

    #[test]
    fn min_bytes_keeps_the_census_counts_beside_the_traversal_passes() {
        // BA(10^4), two edges per arriving node: the floor covers the
        // census, but its per-node counts stay in the cache while the
        // Brandes pass after it runs
        let (n, m) = (10_000, 19_997);
        let old_floor = floor_bytes(n, m, true);
        let new_floor = old_floor + census_counts_bytes(n);
        // a budget between the two prices
        let budget = (old_floor + new_floor) / 2;
        assert!(price(n, m, &named(&["c_mean"]), 8) <= budget);
        assert!(price(n, m, &named(&["betweenness_approx"]), 8) <= budget);
        let pair = named(&["c_mean", "betweenness_approx"]);
        assert_eq!(pair.len(), 2);
        assert_eq!(price(n, m, &pair, 8), new_floor);
    }

    #[test]
    fn min_bytes_prices_the_betweenness_attack_in() {
        let n = 10_000;
        let m = 20_000;
        let plain_floor = floor_bytes(n, m, false);
        let brandes_floor = floor_bytes(n, m, true);
        // the sweeps ranked without a Brandes pass run at the plain
        // floor, the betweenness ranking also pays its copy
        for strategy in Strategy::all() {
            let want = if strategy == Strategy::Betweenness {
                brandes_floor
            } else {
                plain_floor
            };
            assert_eq!(min_bytes(n, m, strategy.deps(), 0), want, "{strategy}");
        }
    }

    #[test]
    fn min_bytes_prices_sketch_registers_in() {
        let sketchy: Vec<AnyMetric> = AnyMetric::all()
            .filter(|m| m.cost() == Cost::Sketch)
            .collect();
        assert!(!sketchy.is_empty(), "sketch metrics exist");
        let n = 10_000;
        let m = 20_000;
        let plain_floor = floor_bytes(n, m, false);
        // a budget that fits the plain floor but not the register files
        assert!(price(n, m, &AnyMetric::cheap_set(), 8) <= plain_floor + 1);
        assert_eq!(price(n, m, &sketchy, 8), plain_floor + 2 * 256 * n as u64);
    }
}
