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
//!
//! This is the Brandes–Pich shape (source partitioning with streaming
//! per-source accumulation) applied to the *exact* passes; the sampled
//! estimator in [`crate::sampled`] rides the same shard executor with
//! pivot sources.

use crate::cache::AnalyzeOptions;
use crate::distance::default_threads;
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
    /// ([`brandes_copy_bytes`]).
    pub brandes_workers: usize,
}

/// Working-set bytes one streaming worker needs for the Brandes pass
/// (betweenness and distances) on an `n`-node graph: the `O(n)`
/// betweenness partial (`f64`) plus the kernel's per-source scratch (the
/// packed σ/δ slot, the one-byte level code, the span-carrying FIFO
/// queue). The distance histogram and the level starts are
/// `O(diameter)` — noise.
///
/// Total traversal memory is `workers × per_worker_bytes` plus
/// [`fixed_bytes`] (and [`brandes_copy_bytes`] for a Brandes pass),
/// never a function of the shard count.
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
pub fn fixed_bytes(n: usize, edges: usize) -> u64 {
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
/// runs with, and [`floor_bytes`] adds it to the floor `dk serve`
/// admits a Brandes request at.
pub fn brandes_copy_bytes(n: usize, edges: usize) -> u64 {
    let copy = 4 * (n as u64 + 1) + 8 * edges as u64;
    let id_map = 4 * n as u64;
    copy + id_map
}

/// Bytes the triangle census ([`crate::clustering`]) holds on top of
/// [`fixed_bytes`] while it runs: the kept `8n`-byte per-node counts, its
/// oriented copy of the rows (`n + 1` `u32` offsets and one `u32` per
/// edge, `4(n+1) + 4m`) and its `4n`-byte mark array. Up to an average
/// degree of about 12 this stays under one worker's
/// [`per_worker_bytes`], so [`floor_bytes`] covers it; `dk serve` admits
/// a census at the larger of the two.
pub fn census_bytes(n: usize, edges: usize) -> u64 {
    let counts = census_counts_bytes(n);
    let rows = 4 * (n as u64 + 1) + 4 * edges as u64;
    let mark = 4 * n as u64;
    counts + rows + mark
}

/// The `8n` bytes of per-node triangle counts that the census keeps in
/// the cache (part of [`census_bytes`]). They stay resident while the
/// traversal passes after the census run, so `dk serve` adds them to the
/// floor of a request that selects both kinds of metric.
pub fn census_counts_bytes(n: usize) -> u64 {
    8 * n as u64
}

/// The least memory a pass runs in: [`fixed_bytes`] and one worker's
/// [`per_worker_bytes`], plus [`brandes_copy_bytes`] when it is a
/// Brandes pass. [`plan`] never plans below one worker, so a budget
/// under this floor is exceeded whatever the worker count; `dk serve`
/// rejects such a request before it allocates.
pub fn floor_bytes(n: usize, edges: usize, brandes: bool) -> u64 {
    let copy = if brandes {
        brandes_copy_bytes(n, edges)
    } else {
        0
    };
    fixed_bytes(n, edges)
        .saturating_add(per_worker_bytes(n))
        .saturating_add(copy)
}

/// Resolves the execution plan for one analyzer run over an analyzed
/// graph of `n` nodes and `edges` edges: the shard count (`opts.shards`,
/// default [`DEFAULT_SHARDS`]) and the worker counts, from the thread
/// knob in `opts` (`0` = all cores). A `memory_budget` first pays the
/// worker-independent [`fixed_bytes`] (snapshot + global accumulator),
/// and for [`ExecPlan::brandes_workers`] also [`brandes_copy_bytes`],
/// then lowers the worker count until the per-worker scratch fits the
/// remainder — never below 1 worker, the floor the pass needs to run at
/// all.
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
}
