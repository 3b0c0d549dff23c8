//! The daemon's shared state: named graphs, each with an epoch, a
//! snapshot and a response table, and the admission-control gate.
//!
//! # Epochs
//!
//! Every registry entry carries a monotonically increasing **epoch**.
//! Mutation verbs (`load`, `rewire`, `generate-into`) bump it, swap in a
//! new [`Snapshot`] and clear the entry's response table atomically
//! under the entry lock. A snapshot holds the epoch's graph and one
//! [`AnalysisBase`] per GCC policy, which the epoch's first computed
//! read under that policy builds (frozen CSR, GCC, and the triangle
//! census on first use); every later computed read of the epoch, with
//! any key, analyzes the same base. Nothing is built at install, and a
//! replaced snapshot's bases are dropped with its last reader. A read
//! verb observes the epoch and the snapshot under one lock acquisition
//! and computes from that snapshot, so no response mixes two epochs. A
//! read whose observed epoch is already behind the entry's computes
//! without touching the table, so a stale response can never land in a
//! newer epoch's table.
//!
//! # Coalescing
//!
//! Each entry's table maps a request key (op and knobs) to a pending
//! flight or to a finished response body. In [`Registry::coalesce`], a
//! finished body is replayed ([`Counters::memo_hits`]); a pending flight
//! parks the caller on its condvar until it resolves
//! ([`Counters::coalesced`]); otherwise the caller registers a pending
//! flight and computes ([`Counters::computed`]). Only a successful body
//! stays in the table: an error, or a computation that panics, removes
//! its pending entry, and the caller and its parked followers get the
//! error (a structured `io` error after a panic), so nobody is left
//! unanswered or wedged. Tables belong to one entry, so two graphs never
//! share a key.
//!
//! # Admission
//!
//! [`Registry::admit`] is a gate. It compares a request's price, the
//! least memory its passes need ([`dk_metrics::stream::min_bytes`], the
//! one price of the
//! [footprint model](dk_metrics::stream#footprint-model)), with the
//! effective budget: the smaller of the server-wide `--memory-budget`
//! and the request's own `memory_budget` knob. A price over the budget is
//! rejected with a structured `over_budget` error before anything is
//! allocated. An admitted request carries the effective budget into the
//! analyzer, which lowers its worker count to stay inside it.

use crate::protocol::ReqError;
use dk_graph::hashers::DetHashMap;
use dk_graph::Graph;
use dk_metrics::{AnalysisBase, GccPolicy};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Locks a mutex, recovering the data from a poisoned lock (a panicking
/// handler thread must not wedge the whole daemon).
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Monotonic event counters, readable via the `stats` op. Counter
/// values reflect scheduling (how many requests raced) and are the one
/// part of the protocol exempt from the byte-identity contract.
#[derive(Debug, Default)]
pub struct Counters {
    /// Requests answered (including errors).
    pub served: AtomicU64,
    /// Computations actually executed.
    pub computed: AtomicU64,
    /// Requests that piggybacked on an identical in-flight computation.
    pub coalesced: AtomicU64,
    /// Requests answered from a finished body in the response table.
    pub memo_hits: AtomicU64,
    /// Requests rejected by admission control (`over_budget`).
    pub rejected: AtomicU64,
}

impl Counters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// One epoch of a named graph: its graph and the analysis bases its
/// first computed reads build, one per GCC policy.
pub struct Snapshot {
    graph: Graph,
    extract: OnceLock<AnalysisBase<'static>>,
    whole: OnceLock<AnalysisBase<'static>>,
}

impl Snapshot {
    /// A snapshot of `graph` with no base built yet.
    pub fn new(graph: Graph) -> Snapshot {
        Snapshot {
            graph,
            extract: OnceLock::new(),
            whole: OnceLock::new(),
        }
    }

    /// The epoch's graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The epoch's analysis base under `policy`, built by its first
    /// reader: concurrent first readers wait for that one build, and a
    /// build that panics leaves the cell empty for the next reader.
    pub fn base(&self, policy: GccPolicy) -> &AnalysisBase<'static> {
        self.cell(policy)
            .get_or_init(|| AnalysisBase::new(&self.graph, policy))
    }

    fn cell(&self, policy: GccPolicy) -> &OnceLock<AnalysisBase<'static>> {
        match policy {
            GccPolicy::Extract => &self.extract,
            GccPolicy::Whole => &self.whole,
        }
    }
}

/// Mutable state of one named graph.
pub struct GraphState {
    /// Generation counter; bumped by every mutation verb.
    pub epoch: u64,
    /// This epoch's snapshot, handed to readers (cheap `Arc` clone under
    /// the entry lock; all computation happens outside it).
    pub snapshot: Arc<Snapshot>,
    /// This epoch's responses, keyed by op and knobs; cleared on
    /// mutation.
    responses: DetHashMap<String, Response>,
}

/// One named graph: a lock around its [`GraphState`].
pub type GraphSlot = Arc<Mutex<GraphState>>;

/// One response-table entry.
enum Response {
    /// Being computed; identical requests park on the flight.
    Pending(Arc<Flight>),
    /// The finished body, replayed to later repeats.
    Done(String),
}

/// One in-flight computation other requests can coalesce onto.
#[derive(Default)]
struct Flight {
    /// `None` while computing; the outcome after.
    result: Mutex<Option<Result<String, ReqError>>>,
    done: Condvar,
}

impl Flight {
    /// Parks until the flight resolves, then returns its outcome.
    fn wait(&self) -> Result<String, ReqError> {
        let mut result = lock(&self.result);
        loop {
            if let Some(outcome) = result.as_ref() {
                return outcome.clone();
            }
            result = self
                .done
                .wait(result)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }
}

/// The error a computation that panicked answers with.
fn panicked() -> ReqError {
    ReqError::new("io", "the computation serving this request panicked")
}

/// Runs `compute`, turning a panic into the [`panicked`] error, so the
/// caller's own client is answered. Nothing `compute` can leave half
/// done stays broken: the registry's locks recover from poisoning
/// ([`lock`]), a snapshot's base cell stays empty after a panicking
/// build, and the counters are atomics.
fn run_caught(compute: impl FnOnce() -> Result<String, ReqError>) -> Result<String, ReqError> {
    panic::catch_unwind(AssertUnwindSafe(compute)).unwrap_or_else(|_| Err(panicked()))
}

/// Resolves a registered flight when dropped, so a computation that
/// panics still resolves it (with the [`panicked`] error): otherwise
/// its followers, and every later identical request, would park
/// forever.
struct Resolve<'a> {
    slot: &'a GraphSlot,
    key: &'a str,
    flight: Arc<Flight>,
    /// The computation's outcome; `None` while it runs or after a panic.
    outcome: Option<Result<String, ReqError>>,
}

impl Drop for Resolve<'_> {
    fn drop(&mut self) {
        let outcome = self.outcome.take().unwrap_or_else(|| Err(panicked()));
        let mut state = lock(self.slot);
        // a mutation may have cleared the table, and a newer epoch's
        // flight may hold the key by now: leave that one be
        let ours = matches!(
            state.responses.get(self.key),
            Some(Response::Pending(f)) if Arc::ptr_eq(f, &self.flight)
        );
        if ours {
            match &outcome {
                Ok(body) => state
                    .responses
                    .insert(self.key.to_string(), Response::Done(body.clone())),
                Err(_) => state.responses.remove(self.key),
            };
        }
        drop(state);
        *lock(&self.flight.result) = Some(outcome);
        self.flight.done.notify_all();
    }
}

/// The daemon's shared state (see the [module docs](self)).
pub struct Registry {
    graphs: Mutex<DetHashMap<String, GraphSlot>>,
    /// Event counters (`stats` op).
    pub counters: Counters,
    /// Server-wide memory budget (`dk serve --memory-budget`).
    pub memory_budget: Option<u64>,
    /// Thread budget handed to each analysis pass (`dk serve
    /// --threads`). Metric values are thread-count invariant (the PR 4
    /// ordered-fold contract), so this affects latency only.
    pub threads: usize,
    /// Set by the `shutdown` op; the accept loop exits when it sees it.
    pub shutdown: AtomicBool,
}

impl Registry {
    /// An empty registry with the given server-wide budgets.
    pub fn new(memory_budget: Option<u64>, threads: usize) -> Registry {
        Registry {
            graphs: Mutex::new(DetHashMap::default()),
            counters: Counters::default(),
            memory_budget,
            threads: threads.max(1),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The slot registered under `name`, or an `unknown_graph` error.
    pub fn slot(&self, name: &str) -> Result<GraphSlot, ReqError> {
        lock(&self.graphs).get(name).cloned().ok_or_else(|| {
            ReqError::new(
                "unknown_graph",
                format!("no graph named {name:?} is loaded (use the load op first)"),
            )
        })
    }

    /// Installs `graph` under `name` as a new [`Snapshot`], bumping the
    /// epoch and atomically clearing the response table. Builds no
    /// analysis base. Returns the new epoch.
    pub fn install(&self, name: &str, graph: Graph) -> u64 {
        let slot = {
            let mut graphs = lock(&self.graphs);
            graphs
                .entry(name.to_string())
                .or_insert_with(|| {
                    Arc::new(Mutex::new(GraphState {
                        epoch: 0,
                        snapshot: Arc::new(Snapshot::new(Graph::with_nodes(0))),
                        responses: DetHashMap::default(),
                    }))
                })
                .clone()
        };
        let mut state = lock(&slot);
        state.epoch += 1;
        state.snapshot = Arc::new(Snapshot::new(graph));
        state.responses.clear();
        state.epoch
    }

    /// `(name, epoch, nodes, edges)` for every entry, sorted by name
    /// (the `stats` op must not leak hash-map iteration order).
    pub fn listing(&self) -> Vec<(String, u64, usize, usize)> {
        let slots: Vec<(String, GraphSlot)> = {
            let graphs = lock(&self.graphs);
            let mut pairs: Vec<(String, GraphSlot)> =
                graphs.iter().map(|(n, s)| (n.clone(), s.clone())).collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            pairs
        };
        slots
            .into_iter()
            .map(|(name, slot)| {
                let state = lock(&slot);
                (
                    name,
                    state.epoch,
                    state.snapshot.graph().node_count(),
                    state.snapshot.graph().edge_count(),
                )
            })
            .collect()
    }

    /// Runs `compute` for `key` through `slot`'s response table, as a
    /// caller that observed `epoch`:
    ///
    /// 1. a finished body → replay it (a memo hit);
    /// 2. a pending flight → park, count as coalesced, return its
    ///    outcome;
    /// 3. otherwise register a pending flight, compute (counted in
    ///    [`Counters::computed`]), keep an `Ok` body in the table, and
    ///    wake the parked followers.
    ///
    /// A caller whose `epoch` is behind the entry's computes without
    /// reading or registering anything. The entry lock is never held
    /// while computing or waiting. A `compute` that panics returns the
    /// structured `io` error its followers get.
    pub fn coalesce(
        &self,
        slot: &GraphSlot,
        epoch: u64,
        key: &str,
        compute: impl FnOnce() -> Result<String, ReqError>,
    ) -> Result<String, ReqError> {
        let mut state = lock(slot);
        if state.epoch != epoch {
            drop(state);
            Counters::bump(&self.counters.computed);
            return run_caught(compute);
        }
        let flight = match state.responses.get(key) {
            Some(Response::Done(body)) => {
                Counters::bump(&self.counters.memo_hits);
                return Ok(body.clone());
            }
            Some(Response::Pending(flight)) => {
                let flight = flight.clone();
                drop(state);
                Counters::bump(&self.counters.coalesced);
                return flight.wait();
            }
            None => Arc::new(Flight::default()),
        };
        let pending = Response::Pending(flight.clone());
        state.responses.insert(key.to_string(), pending);
        drop(state);
        Counters::bump(&self.counters.computed);
        let mut resolve = Resolve {
            slot,
            key,
            flight,
            outcome: None,
        };
        let outcome = run_caught(compute);
        resolve.outcome = Some(outcome.clone());
        outcome
    }

    /// Admission gate (see the [module docs](self)): rejects a request
    /// whose price `min_bytes` (from [`dk_metrics::stream::min_bytes`],
    /// on a graph of `nodes` nodes and `edges` edges) exceeds the
    /// effective budget, the smaller of the server's and the request's.
    /// `Ok(effective budget)` to pass into the analyzer, or an
    /// `over_budget` error.
    pub fn admit(
        &self,
        nodes: usize,
        edges: usize,
        min_bytes: u64,
        request_budget: Option<u64>,
    ) -> Result<Option<u64>, ReqError> {
        let effective = match (self.memory_budget, request_budget) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let Some(budget) = effective else {
            return Ok(None);
        };
        if budget < min_bytes {
            Counters::bump(&self.counters.rejected);
            return Err(ReqError::new(
                "over_budget",
                format!(
                    "request needs at least {min_bytes} bytes \
                     (n = {nodes}, m = {edges}, single worker) but the \
                     effective memory budget is {budget} bytes"
                ),
            ));
        }
        Ok(Some(budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::handle_line;
    use dk_graph::{CsrGraph, GraphError};
    use dk_metrics::AnyMetric;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// A `k_avg` read of graph `g`, and the response-table key it files
    /// its body under.
    const K_AVG: &str = r#"{"op":"metric","graph":"g","metrics":"k_avg"}"#;
    const K_AVG_KEY: &str = "metric:metrics=k_avg;gcc=true;samples=None;bits=None;shards=None";

    /// A registry holding `path(n)` as graph `g`, and that graph's slot.
    fn registry_with_path(n: usize) -> (Arc<Registry>, GraphSlot) {
        let reg = Registry::new(None, 1);
        reg.install("g", path_graph(n));
        let slot = reg.slot("g").expect("loaded");
        (Arc::new(reg), slot)
    }

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            g.add_edge((i - 1) as u32, i as u32).expect("valid edge");
        }
        g
    }

    #[test]
    fn install_bumps_epoch_and_clears_the_table() {
        let (reg, slot) = registry_with_path(3);
        lock(&slot)
            .responses
            .insert("k".to_string(), Response::Done("cached".to_string()));
        assert_eq!(reg.install("g", path_graph(5)), 2);
        let state = lock(&slot);
        assert_eq!(state.epoch, 2);
        assert_eq!(state.snapshot.graph().node_count(), 5);
        assert!(state.responses.is_empty());
    }

    #[test]
    fn unknown_graph_is_a_structured_error() {
        let reg = Registry::new(None, 1);
        let err = reg.slot("nope").err().expect("missing graph rejected");
        assert_eq!(err.code, "unknown_graph");
    }

    #[test]
    fn memo_replays_and_mutation_invalidates() {
        let (reg, slot) = registry_with_path(3);
        let body = reg
            .coalesce(&slot, 1, "metric:x", || Ok("body".to_string()))
            .expect("ok");
        assert_eq!(body, "body");
        assert_eq!(Counters::get(&reg.counters.computed), 1);
        // replay: no second compute
        let again = reg
            .coalesce(&slot, 1, "metric:x", || {
                Err(ReqError::new("io", "must not recompute"))
            })
            .expect("memo hit");
        assert_eq!(again, "body");
        assert_eq!(Counters::get(&reg.counters.memo_hits), 1);
        // mutation clears the table; the same key recomputes
        reg.install("g", path_graph(3));
        let fresh = reg
            .coalesce(&slot, 2, "metric:x", || Ok("fresh".to_string()))
            .expect("ok");
        assert_eq!(fresh, "fresh");
        assert_eq!(Counters::get(&reg.counters.computed), 2);
    }

    #[test]
    fn stale_epoch_does_not_publish_into_the_memo() {
        let (reg, slot) = registry_with_path(3);
        // a compute that observed epoch 1 finishes after a mutation
        let body = reg
            .coalesce(&slot, 1, "metric:x", || {
                reg.install("g", path_graph(4));
                Ok("stale".to_string())
            })
            .expect("ok");
        assert_eq!(body, "stale"); // the waiter still gets its answer…
        assert!(lock(&slot).responses.is_empty()); // …but nothing is kept
    }

    #[test]
    fn an_error_outcome_is_not_replayed() {
        let (reg, slot) = registry_with_path(3);
        let failed = reg.coalesce(&slot, 1, "metric:x", || {
            Err(ReqError::new("io", "transient"))
        });
        assert_eq!(failed.map_err(|e| e.code), Err("io"));
        let body = reg.coalesce(&slot, 1, "metric:x", || Ok("body".to_string()));
        assert_eq!(body, Ok("body".to_string()));
        assert_eq!(Counters::get(&reg.counters.computed), 2);
        assert_eq!(Counters::get(&reg.counters.memo_hits), 0);
    }

    /// The coalescing proof: two identical requests race, the leader
    /// blocks inside `compute` until the follower has parked, and the
    /// counters show exactly one computation served both.
    #[test]
    fn concurrent_identical_requests_coalesce() {
        let (reg, slot) = registry_with_path(3);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let leader = {
            let reg = reg.clone();
            let slot = slot.clone();
            thread::spawn(move || {
                reg.coalesce(&slot, 1, "e1:metric:slow", move || {
                    release_rx
                        .recv()
                        .map_err(|_| ReqError::new("io", "release channel closed"))?;
                    Ok("slow-body".to_string())
                })
            })
        };
        // wait until the leader holds the flight, then start a follower
        while Counters::get(&reg.counters.computed) == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        let follower = {
            let reg = reg.clone();
            let slot = slot.clone();
            thread::spawn(move || {
                reg.coalesce(&slot, 1, "e1:metric:slow", || {
                    Err(ReqError::new("io", "follower must never compute"))
                })
            })
        };
        // the follower must park on the flight before we release
        while Counters::get(&reg.counters.coalesced) == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        release_tx.send(()).expect("leader is waiting");
        let a = leader.join().expect("leader").expect("ok");
        let b = follower.join().expect("follower").expect("ok");
        assert_eq!(a, "slow-body");
        assert_eq!(b, "slow-body");
        assert_eq!(Counters::get(&reg.counters.computed), 1);
        assert_eq!(Counters::get(&reg.counters.coalesced), 1);
    }

    /// A mutation lands while a follower is parked on the leader's
    /// flight: both still get the leader's body (the epoch they
    /// observed), the cleared table keeps nothing of it, the next read
    /// at the new epoch computes, and a caller still at the old epoch
    /// computes without touching the new epoch's table.
    #[test]
    fn a_mutation_under_a_parked_follower_keeps_nothing_stale() {
        let (reg, slot) = registry_with_path(3);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let leader = {
            let reg = reg.clone();
            let slot = slot.clone();
            thread::spawn(move || {
                reg.coalesce(&slot, 1, "metric:slow", move || {
                    release_rx
                        .recv()
                        .map_err(|_| ReqError::new("io", "release channel closed"))?;
                    Ok("epoch-1 body".to_string())
                })
            })
        };
        while Counters::get(&reg.counters.computed) == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        let follower = {
            let reg = reg.clone();
            let slot = slot.clone();
            thread::spawn(move || {
                reg.coalesce(&slot, 1, "metric:slow", || {
                    Err(ReqError::new("io", "follower must never compute"))
                })
            })
        };
        while Counters::get(&reg.counters.coalesced) == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(reg.install("g", path_graph(4)), 2);
        let _ = release_tx.send(());
        let epoch_1 = Some(Ok("epoch-1 body".to_string()));
        assert_eq!(leader.join().ok(), epoch_1);
        assert_eq!(follower.join().ok(), epoch_1);
        assert!(lock(&slot).responses.is_empty());
        let fresh = reg.coalesce(&slot, 2, "metric:slow", || Ok("epoch-2 body".to_string()));
        assert_eq!(fresh, Ok("epoch-2 body".to_string()));
        let stale = reg.coalesce(&slot, 1, "metric:slow", || Ok("stale".to_string()));
        assert_eq!(stale, Ok("stale".to_string()));
        let again = reg.coalesce(&slot, 2, "metric:slow", || {
            Err(ReqError::new("io", "must not recompute"))
        });
        assert_eq!(again, fresh);
        assert_eq!(Counters::get(&reg.counters.computed), 3);
        assert_eq!(Counters::get(&reg.counters.coalesced), 1);
        assert_eq!(Counters::get(&reg.counters.memo_hits), 1);
    }

    /// Panic safety: a leader that panics inside `compute` must still
    /// resolve the flight — the leader's own caller and its parked
    /// followers get a structured `io` error, and the key is freed so the
    /// next request recomputes instead of parking on a wedged flight
    /// forever.
    #[test]
    fn panicking_compute_does_not_wedge_the_flight() {
        let (reg, slot) = registry_with_path(3);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let leader = {
            let reg = reg.clone();
            let slot = slot.clone();
            thread::spawn(move || {
                reg.coalesce(&slot, 1, "metric:boom", move || {
                    let _ = release_rx.recv();
                    panic!("computation exploded");
                })
            })
        };
        while Counters::get(&reg.counters.computed) == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        let follower = {
            let reg = reg.clone();
            let slot = slot.clone();
            thread::spawn(move || {
                reg.coalesce(&slot, 1, "metric:boom", || {
                    Err(ReqError::new("io", "follower must never compute"))
                })
            })
        };
        while Counters::get(&reg.counters.coalesced) == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        release_tx.send(()).expect("leader is waiting");
        let led = leader
            .join()
            .ok()
            .map(|r| r.map_err(|e| (e.code, e.message)));
        assert_eq!(led, Some(Err(("io", panicked().message))));
        let followed = follower.join().ok().map(|r| r.map_err(|e| e.code));
        assert_eq!(followed, Some(Err("io")));
        // nothing was memoized and the key is free again: recomputes
        let fresh = reg.coalesce(&slot, 1, "metric:boom", || Ok("fresh".to_string()));
        assert_eq!(fresh, Ok("fresh".to_string()));
        assert_eq!(Counters::get(&reg.counters.computed), 2);
    }

    /// A caller whose epoch is already stale computes outside the table:
    /// when that computation panics, the caller still gets the
    /// structured `io` error, and the table stays empty.
    #[test]
    fn a_panicking_stale_epoch_compute_answers_its_caller() {
        let (reg, slot) = registry_with_path(3);
        assert_eq!(reg.install("g", path_graph(4)), 2);
        let stale = reg.coalesce(&slot, 1, "metric:boom", || panic!("stale compute exploded"));
        assert_eq!(stale.map_err(|e| e.message), Err(panicked().message));
        assert_eq!(Counters::get(&reg.counters.computed), 1);
        assert!(lock(&slot).responses.is_empty());
    }

    #[test]
    fn admission_rejects_undersized_budgets_and_takes_the_min() {
        let reg = Registry::new(Some(1 << 30), 1);
        let deps = AnyMetric::deps_of(&AnyMetric::cheap_set());
        let price = dk_metrics::stream::min_bytes(100, 200, &deps, 8);
        // no request budget: the generous server budget admits
        assert_eq!(reg.admit(100, 200, price, None), Ok(Some(1 << 30)));
        // a tiny request budget wins the min and rejects
        let err = reg.admit(100, 200, price, Some(64)).unwrap_err();
        assert_eq!(err.code, "over_budget");
        assert_eq!(Counters::get(&reg.counters.rejected), 1);
        // the price itself is enough: the plan never goes below one worker
        assert_eq!(reg.admit(100, 200, price, Some(price)), Ok(Some(price)));
        assert_eq!(Counters::get(&reg.counters.rejected), 1);
        // no budgets anywhere: always admitted
        let open = Registry::new(None, 1);
        assert_eq!(open.admit(1 << 20, 1 << 22, u64::MAX, None), Ok(None));
    }

    /// An `over_budget` message quotes the model's price: a `cheap` read
    /// (the default metrics) on a graph of the `serve_mixed` size, under a
    /// 64-byte request budget, needs the one-worker floor, which covers
    /// the census at this density.
    #[test]
    fn an_over_budget_message_quotes_the_models_bytes() -> Result<(), GraphError> {
        // n = 10^5, m = 199,997: each node joined to the two before it
        let n: u32 = 100_000;
        let near = (1..n).map(|v| (v - 1, v)).chain((2..n).map(|v| (v - 2, v)));
        let g = Graph::from_edges(n as usize, near)?;
        assert_eq!(g.edge_count(), 199_997);
        let reg = Registry::new(None, 1);
        reg.install("g", g);
        let probe = r#"{"op":"metric","graph":"g","memory_budget":64}"#;
        assert_eq!(
            handle_line(&reg, probe),
            r#"{"ok":false,"error":{"code":"over_budget","message":"request needs at least 6824980 bytes (n = 100000, m = 199997, single worker) but the effective memory budget is 64 bytes"}}"#
        );
        assert_eq!(Counters::get(&reg.counters.rejected), 1);
        Ok(())
    }

    /// The current snapshot of `slot`.
    fn snapshot_of(slot: &GraphSlot) -> Arc<Snapshot> {
        lock(slot).snapshot.clone()
    }

    /// The CSR of the base a computed read built under `policy`, if any.
    fn built(snap: &Snapshot, policy: GccPolicy) -> Option<*const CsrGraph> {
        snap.cell(policy)
            .get()
            .map(|b| b.graph() as *const CsrGraph)
    }

    fn ok(response: String) -> String {
        assert!(response.starts_with(r#"{"ok":true"#), "{response}");
        response
    }

    #[test]
    fn computed_reads_of_one_epoch_share_one_base() {
        let (reg, slot) = registry_with_path(6);
        let snap = snapshot_of(&slot);
        assert_eq!(
            built(&snap, GccPolicy::Extract),
            None,
            "install builds nothing"
        );
        // an attack, then metric reads with other keys: one base
        ok(handle_line(&reg, r#"{"op":"attack","graph":"g"}"#));
        let csr = built(&snap, GccPolicy::Extract);
        assert!(csr.is_some(), "the first computed read builds the base");
        ok(handle_line(&reg, K_AVG));
        ok(handle_line(
            &reg,
            r#"{"op":"metric","graph":"g","metrics":"c_mean,s2"}"#,
        ));
        assert_eq!(Counters::get(&reg.counters.computed), 3);
        assert_eq!(built(&snap, GccPolicy::Extract), csr);
        assert_eq!(built(&snap, GccPolicy::Whole), None);
        // the other policy gets its own base, built by its own first read
        ok(handle_line(
            &reg,
            r#"{"op":"metric","graph":"g","metrics":"k_avg","no_gcc":true}"#,
        ));
        assert!(built(&snap, GccPolicy::Whole).is_some());
        assert_eq!(built(&snap, GccPolicy::Extract), csr);
    }

    #[test]
    fn a_mutation_swaps_in_a_new_base_and_the_old_snapshot_keeps_its_own() {
        let (reg, slot) = registry_with_path(6);
        ok(handle_line(&reg, K_AVG));
        let old = snapshot_of(&slot);
        let old_csr = built(&old, GccPolicy::Extract);
        assert!(old_csr.is_some());
        assert_eq!(reg.install("g", path_graph(7)), 2);
        let new = snapshot_of(&slot);
        assert_eq!(
            built(&new, GccPolicy::Extract),
            None,
            "a mutation builds nothing"
        );
        assert!(ok(handle_line(&reg, K_AVG)).contains(r#""epoch":2"#));
        let new_csr = built(&new, GccPolicy::Extract);
        assert!(new_csr.is_some() && new_csr != old_csr);
        assert_eq!(new.base(GccPolicy::Extract).graph().node_count(), 7);
        // a read that captured the old snapshot computes at epoch 1, on
        // that snapshot's base
        let body = reg.coalesce(&slot, 1, K_AVG_KEY, || {
            let csr = old.base(GccPolicy::Extract).graph();
            assert_eq!(Some(csr as *const CsrGraph), old_csr);
            Ok(csr.node_count().to_string())
        });
        assert_eq!(body, Ok("6".to_string()));
    }

    /// Two first reads of one epoch with different keys: the first holds
    /// the base's build on a channel, the second parks on the cell (not
    /// on a flight) and reads the base the first one built.
    #[test]
    fn concurrent_first_reads_build_the_base_once() {
        let (reg, slot) = registry_with_path(6);
        let snap = snapshot_of(&slot);
        let builds = Arc::new(AtomicU64::new(0));
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let leader = {
            let (reg, slot, snap, builds) =
                (reg.clone(), slot.clone(), snap.clone(), builds.clone());
            thread::spawn(move || {
                reg.coalesce(&slot, 1, "metric:held", move || {
                    let base = snap.cell(GccPolicy::Extract).get_or_init(|| {
                        let _ = release_rx.recv();
                        builds.fetch_add(1, Ordering::SeqCst);
                        AnalysisBase::new(snap.graph(), GccPolicy::Extract)
                    });
                    Ok(format!("{:p}", base.graph()))
                })
            })
        };
        while Counters::get(&reg.counters.computed) == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        let follower = {
            let reg = reg.clone();
            thread::spawn(move || handle_line(&reg, K_AVG))
        };
        while Counters::get(&reg.counters.computed) < 2 {
            thread::sleep(Duration::from_millis(1));
        }
        // the held build keeps a waiting second read from finishing; a
        // read that built its own base would finish within this grace
        thread::sleep(Duration::from_millis(20));
        assert!(!follower.is_finished(), "the second read waits on the cell");
        assert_eq!(built(&snap, GccPolicy::Extract), None);
        let _ = release_tx.send(());
        let csr = format!("{:p}", snap.base(GccPolicy::Extract).graph());
        assert_eq!(leader.join().ok(), Some(Ok(csr)));
        assert!(follower
            .join()
            .is_ok_and(|r| r.starts_with(r#"{"ok":true"#)));
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(Counters::get(&reg.counters.computed), 2);
        assert_eq!(Counters::get(&reg.counters.coalesced), 0);
    }

    #[test]
    fn memo_hits_and_rejections_build_no_base() {
        let (reg, slot) = registry_with_path(6);
        let snap = snapshot_of(&slot);
        // a body filed under the k_avg read's key: the read replays it
        let planted = reg.coalesce(&slot, 1, K_AVG_KEY, || Ok("planted".to_string()));
        assert_eq!(planted, Ok("planted".to_string()));
        assert!(handle_line(&reg, K_AVG).contains("planted"));
        assert_eq!(Counters::get(&reg.counters.memo_hits), 1);
        let probe = r#"{"op":"metric","graph":"g","memory_budget":64}"#;
        assert!(handle_line(&reg, probe).contains(r#""code":"over_budget""#));
        assert_eq!(Counters::get(&reg.counters.rejected), 1);
        for policy in [GccPolicy::Extract, GccPolicy::Whole] {
            assert_eq!(built(&snap, policy), None, "{policy:?}");
        }
    }

    /// A build that panics leaves its cell empty; the flight's drop
    /// guard answers the parked follower with the structured `io` error,
    /// and the next read builds the base.
    #[test]
    fn a_panicking_build_leaves_the_cell_empty() {
        let (reg, slot) = registry_with_path(6);
        let snap = snapshot_of(&slot);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let leader = {
            let (reg, slot, snap) = (reg.clone(), slot.clone(), snap.clone());
            thread::spawn(move || {
                reg.coalesce(&slot, 1, "metric:boom", move || {
                    snap.cell(GccPolicy::Extract).get_or_init(|| {
                        let _ = release_rx.recv();
                        panic!("build exploded");
                    });
                    Ok("unreachable".to_string())
                })
            })
        };
        while Counters::get(&reg.counters.computed) == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        let follower = {
            let (reg, slot) = (reg.clone(), slot.clone());
            thread::spawn(move || {
                reg.coalesce(&slot, 1, "metric:boom", || {
                    Err(ReqError::new("io", "follower must never compute"))
                })
            })
        };
        while Counters::get(&reg.counters.coalesced) == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        let _ = release_tx.send(());
        let led = leader
            .join()
            .ok()
            .map(|r| r.map_err(|e| (e.code, e.message)));
        assert_eq!(led, Some(Err(("io", panicked().message))));
        let followed = follower.join().ok().map(|r| r.map_err(|e| e.code));
        assert_eq!(followed, Some(Err("io")));
        assert_eq!(built(&snap, GccPolicy::Extract), None);
        ok(handle_line(&reg, K_AVG));
        assert!(built(&snap, GccPolicy::Extract).is_some());
    }

    /// The budget only caps the worker count, so requests that differ in
    /// it alone share one body; admission still runs per request.
    #[test]
    fn the_memory_budget_is_not_part_of_the_metric_key() {
        let (reg, slot) = registry_with_path(6);
        let bodies: Vec<String> = [1u64 << 30, 1 << 31, 1 << 32]
            .iter()
            .map(|b| {
                let req = format!(
                    r#"{{"op":"metric","graph":"g","metrics":"k_avg","memory_budget":{b}}}"#
                );
                ok(handle_line(&reg, &req))
            })
            .collect();
        assert!(bodies.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(Counters::get(&reg.counters.computed), 1);
        assert_eq!(Counters::get(&reg.counters.memo_hits), 2);
        let probe = r#"{"op":"metric","graph":"g","metrics":"k_avg","memory_budget":64}"#;
        assert!(handle_line(&reg, probe).contains(r#""code":"over_budget""#));
        assert_eq!(Counters::get(&reg.counters.rejected), 1);
        assert_eq!(lock(&slot).responses.len(), 1);
    }
}
