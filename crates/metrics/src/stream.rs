//! Sharded streaming execution for the all-pairs traversal passes.
//!
//! The exact §5 metrics (distance distribution, betweenness) run one BFS
//! or Brandes sweep per source. Since PR 2 those sweeps are chunked over
//! sources and merged in fixed chunk order, which makes results
//! thread-count-invariant — but the in-memory route *collects every
//! chunk's partial* before merging, and a betweenness partial is an
//! `O(n)` vector. At 10⁶ nodes, 64 collected partials are half a
//! gigabyte of `f64`s before the merge even starts, and the footprint
//! grows with the shard count, not the worker count.
//!
//! This module fixes the shape, not the math:
//!
//! * **Shards** (`shard_layout`): sources are partitioned into
//!   contiguous shards whose boundaries are a pure function of the
//!   source count and the shard count — never of the worker count (the
//!   invariant `run_chunked` established; [`DEFAULT_SHARDS`] reproduces
//!   its historical layout exactly).
//! * **Streaming reducers** (`run_sharded_fold`): each worker streams
//!   its shard over the shared frozen [`CsrGraph`](dk_graph::CsrGraph)
//!   into compact per-shard state — a distance-histogram, an `O(n)`
//!   betweenness partial, a max-merged eccentricity — and partials fold
//!   into **one** global accumulator in strict shard order
//!   ([`dk_graph::ensemble::run_fold`]). In-flight memory is
//!   `O(workers · n)`; the per-source BFS/Brandes vectors are worker
//!   scratch, never materialized per source.
//! * **Bit-identity**: the in-memory route (`run_sharded`) merges the
//!   same partials, with the same floating-point operations, in the same
//!   shard order — so for any shard count the streamed result is
//!   **bit-identical** to the in-memory one, which stays retained as the
//!   equivalence oracle (`tests/stream_equivalence.rs`, the
//!   `proptests::streamed_equals_in_memory` property).
//! * **Planning** ([`plan`]): the streamed route is selected explicitly
//!   (`Analyzer::shards` / `Analyzer::memory_budget`, CLI `--shards` /
//!   `--memory-budget`) or automatically once the analyzed graph exceeds
//!   [`AUTO_STREAM_NODES`]; a memory budget caps the worker count so the
//!   traversal working set stays under it.
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
/// per-shard setup stays negligible). The default analyzer route uses
/// this layout whether it streams or not, so default results never
/// depend on the route taken.
pub const DEFAULT_SHARDS: usize = 64;

/// Node count above which [`plan`] auto-selects the streamed route
/// (2¹⁷): below it the collected partials fit comfortably in memory;
/// above it they grow past hundreds of megabytes toward the 10⁶-node
/// scale the streaming layer exists for.
pub const AUTO_STREAM_NODES: usize = 1 << 17;

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
/// across `threads` workers and returns the per-shard partials **in
/// shard order** — the in-memory route, `O(shards · |partial|)`
/// resident. Callers that merge partials in the returned order produce
/// bit-identical results for every thread count.
pub(crate) fn run_sharded<A, F>(
    n: u32,
    shards: usize,
    quantum: u32,
    threads: usize,
    work: F,
) -> Vec<A>
where
    F: Fn(Range<u32>) -> A + Sync,
    A: Send,
{
    if n == 0 {
        return vec![work(0..0)];
    }
    let (len, count) = shard_layout(n, shards, quantum);
    dk_graph::ensemble::run(count as u64, 0, threads, |i, _rng| {
        let lo = i as u32 * len;
        work(lo..(lo + len).min(n))
    })
}

/// As `run_sharded`, but each shard partial folds into `acc` in strict
/// shard order as soon as it is ready — the streaming route,
/// `O(workers · |partial|)` in flight. Fold order and fold operations
/// are exactly those of merging `run_sharded`'s vector front to back,
/// so the two routes are bit-identical at equal shard counts.
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
    /// `true` → shard partials stream through `run_sharded_fold`;
    /// `false` → the retained in-memory collect-then-merge route.
    pub streamed: bool,
    /// Source shard count (fixes the merge tree; default
    /// [`DEFAULT_SHARDS`]).
    pub shards: usize,
    /// Worker threads for the traversal passes (the resolved thread
    /// budget, possibly lowered by a memory budget).
    pub workers: usize,
}

/// Route selection policy for the traversal passes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Stream when asked to (`shards`/`memory_budget` set) or when the
    /// analyzed graph exceeds [`AUTO_STREAM_NODES`]; in-memory otherwise.
    #[default]
    Auto,
    /// Force the in-memory route — the equivalence oracle.
    InMemory,
    /// Force the streamed route.
    Streamed,
}

/// Working-set bytes one streaming worker needs for the fused
/// Brandes+distance pass on an `n`-node graph: the `O(n)` betweenness
/// partial (`f64`) plus the BFS scratch (`dist`, `sigma`, `delta`,
/// `order`, queue). The distance histogram is `O(diameter)` — noise.
///
/// This is the per-worker bound the acceptance criterion names: total
/// traversal memory is `workers × per_worker_bytes` plus the
/// route-independent [`fixed_bytes`], never a function of the shard
/// count.
pub fn per_worker_bytes(n: usize) -> u64 {
    // bc 8 + sigma 8 + delta 8 + dist 4 + order 4 + queue 4 = 36 B/node;
    // round up for allocator slack and the histogram. The distance-only
    // passes (exact and sampled) run the batched kernel, whose
    // `BatchScratch` — three u64 words plus two frontier node lists,
    // at most 32 B/node — fits inside the same 40 B/node. The two n-bit
    // terms are the frontier bitmaps the single-source
    // direction-optimizing BFS once charged here; no shard pass uses
    // that scratch any more, and they stay as slack so the planned
    // worker count does not move.
    40 * n as u64 + 2 * (n as u64).div_ceil(8)
}

/// Route-independent bytes every traversal pass holds regardless of the
/// worker count: the shared frozen [`CsrGraph`](dk_graph::CsrGraph)
/// snapshot (`CsrGraph::size_bytes`: `4(n+1) + 8m`) plus the `O(n)`
/// global accumulator the shard partials fold into. A memory budget is
/// charged these up front; only the remainder buys workers.
pub fn fixed_bytes(n: usize, edges: usize) -> u64 {
    let snapshot = 4 * (n as u64 + 1) + 8 * edges as u64;
    let accumulator = 8 * n as u64;
    snapshot + accumulator
}

/// Resolves the execution plan for one analyzer run over an analyzed
/// graph of `n` nodes and `edges` edges, honoring the thread knob in
/// `opts` (`0` = all cores). A `memory_budget` first pays the
/// route-independent [`fixed_bytes`] (snapshot + global accumulator),
/// then lowers the worker count until the per-worker scratch fits the
/// remainder — never below 1 worker, the floor the pass needs to run at
/// all.
pub fn plan(n: usize, edges: usize, opts: &AnalyzeOptions) -> ExecPlan {
    let streamed = match opts.exec {
        ExecMode::InMemory => false,
        ExecMode::Streamed => true,
        ExecMode::Auto => {
            opts.shards.is_some() || opts.memory_budget.is_some() || n > AUTO_STREAM_NODES
        }
    };
    let mut workers = if opts.threads == 0 {
        default_threads()
    } else {
        opts.threads
    };
    if let Some(budget) = opts.memory_budget {
        let scratch = budget.saturating_sub(fixed_bytes(n, edges));
        let fit = scratch / per_worker_bytes(n).max(1);
        workers = workers.min(fit.max(1) as usize);
    }
    ExecPlan {
        streamed,
        shards: opts.shards.unwrap_or(DEFAULT_SHARDS).max(1),
        workers,
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

    #[test]
    fn sharded_and_fold_agree_on_integer_reduction() {
        let work = |r: Range<u32>| r.map(|x| x as u64).sum::<u64>();
        for shards in [1, 2, 7, 100] {
            for quantum in [1, 64] {
                let collected: u64 = run_sharded(100, shards, quantum, 3, work).into_iter().sum();
                let folded = run_sharded_fold(100, shards, quantum, 3, work, 0u64, |a, p| *a += p);
                assert_eq!(collected, folded, "shards = {shards}");
                assert_eq!(folded, 4950);
            }
        }
    }

    fn opts_threads(threads: usize) -> AnalyzeOptions {
        AnalyzeOptions {
            threads,
            ..AnalyzeOptions::default()
        }
    }

    #[test]
    fn plan_auto_thresholds() {
        let p = plan(1000, 2000, &opts_threads(1));
        assert!(!p.streamed);
        assert_eq!((p.shards, p.workers), (DEFAULT_SHARDS, 1));
        assert!(plan(AUTO_STREAM_NODES + 1, 0, &opts_threads(1)).streamed);
        assert!(!plan(AUTO_STREAM_NODES, 0, &opts_threads(1)).streamed);
    }

    #[test]
    fn plan_explicit_knobs_force_streaming() {
        let p = plan(
            100,
            200,
            &AnalyzeOptions {
                shards: Some(7),
                ..opts_threads(2)
            },
        );
        assert!(p.streamed);
        assert_eq!(p.shards, 7);
        let p = plan(
            100,
            200,
            &AnalyzeOptions {
                memory_budget: Some(1 << 30),
                ..opts_threads(2)
            },
        );
        assert!(p.streamed);
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
        let tiny = plan(
            n,
            m,
            &AnalyzeOptions {
                memory_budget: Some(1),
                ..opts_threads(8)
            },
        );
        assert_eq!(tiny.workers, 1);
    }

    #[test]
    fn plan_mode_overrides_win() {
        let streamed_small = plan(
            10,
            20,
            &AnalyzeOptions {
                exec: ExecMode::Streamed,
                ..opts_threads(1)
            },
        );
        assert!(streamed_small.streamed);
        let in_memory_large = plan(
            10_000_000,
            20_000_000,
            &AnalyzeOptions {
                exec: ExecMode::InMemory,
                shards: Some(7),
                ..opts_threads(1)
            },
        );
        assert!(!in_memory_large.streamed);
        assert_eq!(in_memory_large.shards, 7);
    }
}
