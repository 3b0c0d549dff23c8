//! Deterministic parallel fan-out — the workspace's work-distribution
//! primitives: [`run`] (collect all results in job order) and
//! [`run_fold`] (stream results into one accumulator in job order, with
//! in-flight memory bounded by the worker count).
//!
//! "Our results represent averages over 100 graphs generated with a
//! different random seed in each case" (paper §5) — every reproduction
//! experiment is an embarrassingly parallel fan-out over seeds, and the
//! metric analyzer fans independent metrics out over the same runner.
//! The module lives in `dk-graph` (the workspace root crate) so that both
//! the generation stack (`dk_core::generate::Generator`) and the analysis
//! stack (`dk_metrics::Analyzer`) can share it without a dependency
//! cycle.
//!
//! ## Determinism contract
//!
//! Job `i` always computes with `StdRng::seed_from_u64(`[`derive_seed`]
//! `(master, i))` — a function of the master seed and the job index
//! only. Work distribution (which thread runs which job) therefore
//! cannot affect any result: the parallel runner is **bit-identical** to
//! a serial loop, and results come back ordered by job index.
//!
//! The build environment has no rayon, so the pool is hand-rolled on
//! `std::thread::scope` with an atomic work queue — jobs have wildly
//! unequal costs (e.g. targeting chains vs stochastic draws, or spectral
//! solves vs degree sums), so dynamic stealing beats static chunking.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Derives the job-`i` seed from a master seed (SplitMix64 step over
/// a golden-ratio stride — avoids the correlated streams that adjacent
/// raw seeds would give some generators).
pub fn derive_seed(master: u64, i: u64) -> u64 {
    let mut z = master.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Number of worker threads for a requested `threads` value (`0` = all
/// available cores) and a job count — never more workers than jobs.
fn worker_count(threads: usize, jobs: u64) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let want = if threads == 0 { hw } else { threads };
    want.clamp(1, jobs.max(1) as usize)
}

/// Runs `job(i, rng_i)` for every index `i < jobs` across `threads`
/// workers (`0` = all cores) and returns results **in job order**. With
/// `threads = 1` the loop is strictly serial; any other thread count
/// returns bit-identical results (see the module docs).
pub fn run<T, F>(jobs: u64, master_seed: u64, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64, &mut StdRng) -> T + Sync,
{
    let workers = worker_count(threads, jobs);
    if workers <= 1 {
        return (0..jobs)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(derive_seed(master_seed, i));
                job(i, &mut rng)
            })
            .collect();
    }

    let next = AtomicU64::new(0);
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..jobs).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let mut rng = StdRng::seed_from_u64(derive_seed(master_seed, i));
                let out = job(i, &mut rng);
                results.lock().expect("no worker panicked holding the lock")[i as usize] =
                    Some(out);
            });
        }
    });
    results
        .into_inner()
        .expect("all workers joined")
        .into_iter()
        .map(|slot| slot.expect("every job index was dispatched exactly once"))
        .collect()
}

/// State shared by the [`run_fold`] workers: the next job index allowed
/// to merge, the accumulator, and an abort flag raised when any worker
/// panics (so waiters wake up instead of blocking on a turn that will
/// never come).
struct FoldTurn<A> {
    next: u64,
    acc: Option<A>,
    aborted: bool,
}

/// Wakes [`run_fold`] waiters if the owning worker unwinds; disarmed on
/// normal completion.
struct FoldAbort<'a, A> {
    turn: &'a Mutex<FoldTurn<A>>,
    ready: &'a Condvar,
    armed: bool,
}

impl<A> Drop for FoldAbort<'_, A> {
    fn drop(&mut self) {
        if self.armed {
            if let Ok(mut t) = self.turn.lock() {
                t.aborted = true;
            }
            self.ready.notify_all();
        }
    }
}

/// Ordered **streaming fold** over `jobs`: like [`run`], every job `i`
/// computes from its deterministically derived RNG, but instead of
/// collecting all job outputs into a `Vec`, each output is folded into a
/// single accumulator **in strict job-index order** as soon as its turn
/// comes up.
///
/// This is the work-distribution primitive behind the sharded streaming
/// traversals in `dk-metrics`: a job output there is one shard's partial
/// reducer state (an `O(n)` betweenness partial, a distance histogram),
/// and folding in job order keeps the floating-point merge tree a pure
/// function of the job count — **bit-identical to collecting the same
/// outputs with [`run`] and merging them in a loop**, for every thread
/// count.
///
/// Memory: at most one completed-but-unmerged output per worker is alive
/// at any moment (a worker that finishes out of turn blocks on a condvar
/// until the preceding jobs have merged), so the in-flight footprint is
/// `O(workers · |T|)` — never `O(jobs · |T|)` like [`run`]'s collected
/// result vector.
pub fn run_fold<T, A, F, M>(
    jobs: u64,
    master_seed: u64,
    threads: usize,
    job: F,
    mut acc: A,
    fold: M,
) -> A
where
    T: Send,
    A: Send,
    F: Fn(u64, &mut StdRng) -> T + Sync,
    M: Fn(&mut A, u64, T) + Sync,
{
    let workers = worker_count(threads, jobs);
    if workers <= 1 {
        for i in 0..jobs {
            let mut rng = StdRng::seed_from_u64(derive_seed(master_seed, i));
            let out = job(i, &mut rng);
            fold(&mut acc, i, out);
        }
        return acc;
    }

    let next_job = AtomicU64::new(0);
    let turn = Mutex::new(FoldTurn {
        next: 0,
        acc: Some(acc),
        aborted: false,
    });
    let ready = Condvar::new();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut guard = FoldAbort {
                    turn: &turn,
                    ready: &ready,
                    armed: true,
                };
                loop {
                    let i = next_job.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let mut rng = StdRng::seed_from_u64(derive_seed(master_seed, i));
                    let out = job(i, &mut rng);
                    let mut t = turn.lock().expect("no worker panicked holding the lock");
                    while t.next != i && !t.aborted {
                        t = ready.wait(t).expect("no worker panicked holding the lock");
                    }
                    if t.aborted {
                        // a sibling panicked; its unwind is what the
                        // caller sees when the scope joins
                        break;
                    }
                    fold(
                        t.acc.as_mut().expect("accumulator lives until scope end"),
                        i,
                        out,
                    );
                    t.next += 1;
                    drop(t);
                    ready.notify_all();
                }
                guard.armed = false;
            });
        }
    });
    turn.into_inner()
        .expect("all workers joined")
        .acc
        .take()
        .expect("accumulator lives until scope end")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_and_master_dependent() {
        let seeds: std::collections::BTreeSet<u64> = (0..1000).map(|i| derive_seed(7, i)).collect();
        assert_eq!(seeds.len(), 1000);
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn parallel_identical_to_serial() {
        use rand::Rng;
        let job = |i: u64, rng: &mut StdRng| -> (u64, u64) { (i, rng.gen_range(0..1_000_000)) };
        let serial = run(64, 99, 1, job);
        for threads in [2, 3, 8, 0] {
            let parallel = run(64, 99, threads, job);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn results_come_back_in_job_order() {
        let out = run(32, 5, 4, |i, _| i);
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_and_single_job() {
        assert!(run(0, 1, 0, |i, _| i).is_empty());
        assert_eq!(run(1, 1, 0, |i, _| i), vec![0]);
    }

    #[test]
    fn worker_count_clamps() {
        assert_eq!(worker_count(1, 100), 1);
        assert_eq!(worker_count(8, 3), 3);
        assert!(worker_count(0, 1000) >= 1);
    }

    #[test]
    fn run_fold_matches_collect_then_merge() {
        use rand::Rng;
        // f64 folding is order-sensitive — the streaming fold must
        // reproduce the collect-then-merge result bit for bit
        let job = |i: u64, rng: &mut StdRng| -> f64 {
            (i as f64 + 1.0).recip() + rng.gen_range(0..1000) as f64 * 1e-7
        };
        let collected = run(100, 42, 4, job);
        let mut want = 0.0f64;
        for p in collected {
            want += p;
        }
        for threads in [1, 2, 3, 8, 0] {
            let got = run_fold(100, 42, threads, job, 0.0f64, |acc, _i, p| *acc += p);
            assert_eq!(got.to_bits(), want.to_bits(), "threads = {threads}");
        }
    }

    #[test]
    fn run_fold_sees_every_index_in_order() {
        let order = run_fold(
            33,
            7,
            4,
            |i, _| i,
            Vec::new(),
            |acc: &mut Vec<u64>, i, out| {
                assert_eq!(i, out);
                acc.push(i);
            },
        );
        assert_eq!(order, (0..33).collect::<Vec<_>>());
    }

    #[test]
    fn run_fold_zero_and_single_jobs() {
        assert_eq!(run_fold(0, 1, 0, |i, _| i, 99u64, |a, _, v| *a += v), 99);
        assert_eq!(run_fold(1, 1, 0, |i, _| i + 5, 0u64, |a, _, v| *a += v), 5);
    }

    #[test]
    fn run_fold_uneven_costs_keep_order() {
        // early jobs sleep: later workers finish first and must wait
        // their turn instead of merging out of order
        let out = run_fold(
            16,
            3,
            4,
            |i, _| {
                if i < 4 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                i
            },
            Vec::new(),
            |acc: &mut Vec<u64>, _, v| acc.push(v),
        );
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_job_costs_still_ordered() {
        // longer work for low indices: stealing reorders execution, but
        // never the results
        let out = run(16, 3, 4, |i, _| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }
}
