//! The daemon's shared state: named graphs with warm caches and epochs,
//! the in-flight coalescing table, the per-epoch response memo, and the
//! admission-control gate.
//!
//! # Epochs
//!
//! Every registry entry carries a monotonically increasing **epoch**.
//! Mutation verbs (`load`, `rewire`, `generate-into`) bump it and drop
//! the entry's warm [`AnalysisCache`] and response memo atomically
//! under the entry lock, so analysis started before a mutation can
//! never publish its (now stale) cache or memoized response back into
//! the entry: publication re-checks the epoch first. Read verbs stamp
//! the epoch they observed into their flight/memo keys, which makes a
//! stale hit structurally impossible rather than merely unlikely.
//!
//! # Coalescing
//!
//! Identical concurrent work — same `(graph, epoch, op, knobs)` key —
//! collapses onto one computation: the first requester inserts a
//! `Flight` and computes; later arrivals find the flight, park on its
//! condvar, and are counted in [`Counters::coalesced`]. The flight
//! table is registry-global, so every key embeds the graph *name* as
//! well as the observed epoch — two same-epoch graphs must never share
//! a flight. A computation that panics still resolves its flight (with
//! a structured `io` error) on unwind, so followers are never wedged.
//! Completed responses are memoized per entry (keyed by the same
//! string), so *sequential* repeats are also free
//! ([`Counters::memo_hits`]) until the next mutation clears the memo.
//!
//! # Admission
//!
//! [`Registry::admit`] prices a request before any allocation using the
//! exact byte model the sharded executor plans with
//! ([`dk_metrics::stream::fixed_bytes`] /
//! [`dk_metrics::stream::per_worker_bytes`]), plus HyperANF register
//! sheets when a sketch metric is selected and the spectral solver's
//! working set ([`dk_metrics::spectral::spectral_bytes`]: the dense
//! matrices below the Lanczos cutoff, the sparse Laplacian and a few
//! n-vectors above it) when `lambda1` or `lambda_n` is. The spectral
//! term is added, not maxed: the spectral job runs after the traversal
//! jobs, so the sum over-approximates the peak. Requests whose
//! *minimum* footprint (one worker) exceeds the effective budget — the
//! smaller of the server-wide `--memory-budget` and the request's own
//! `memory_budget` knob — are rejected with a structured `over_budget`
//! error. Admitted requests carry the effective budget into the
//! analyzer, which lowers the worker count to stay inside it; the
//! daemon never OOMs on an admitted request.

use crate::protocol::ReqError;
use dk_graph::hashers::DetHashMap;
use dk_graph::Graph;
use dk_metrics::metric::Cost;
use dk_metrics::{AnalysisCache, AnyMetric};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

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
    /// Computations actually executed (cache builds + metric passes).
    pub computed: AtomicU64,
    /// Requests that piggybacked on an identical in-flight computation.
    pub coalesced: AtomicU64,
    /// Requests answered from the per-epoch response memo.
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

/// A warm analysis cache retained by a registry entry, valid only while
/// the entry's epoch matches and only for the knob key it was built
/// under.
pub struct WarmCache {
    /// Canonical knob key (metric list + analysis knobs) the cache's
    /// dependency passes were planned for.
    pub knobs: String,
    /// Epoch of the graph snapshot the cache was built from.
    pub epoch: u64,
    /// The cache itself; `'static` because it owns its graph copy.
    pub cache: Arc<AnalysisCache<'static>>,
}

/// Mutable state of one named graph.
pub struct GraphState {
    /// Generation counter; bumped by every mutation verb.
    pub epoch: u64,
    /// Frozen snapshot handed to readers (cheap `Arc` clone under the
    /// entry lock; all computation happens outside it).
    pub graph: Arc<Graph>,
    /// Warm cache from the most recent metric pass, if still valid.
    pub warm: Option<WarmCache>,
    /// Completed response bodies keyed by `(graph, epoch, op, knobs)`
    /// strings; cleared on mutation.
    pub memo: DetHashMap<String, String>,
}

/// One named graph: a lock around its [`GraphState`].
pub type GraphSlot = Arc<Mutex<GraphState>>;

/// One in-flight computation other requests can coalesce onto.
struct Flight {
    /// `None` while computing; the finished response body after.
    result: Mutex<Option<Result<String, ReqError>>>,
    done: Condvar,
}

/// The daemon's shared state (see the [module docs](self)).
pub struct Registry {
    graphs: Mutex<DetHashMap<String, GraphSlot>>,
    flights: Mutex<DetHashMap<String, Arc<Flight>>>,
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
            flights: Mutex::new(DetHashMap::default()),
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

    /// Installs `graph` under `name`, bumping the epoch and atomically
    /// dropping any warm cache and memoized responses. Returns the new
    /// epoch.
    pub fn install(&self, name: &str, graph: Graph) -> u64 {
        let slot = {
            let mut graphs = lock(&self.graphs);
            graphs
                .entry(name.to_string())
                .or_insert_with(|| {
                    Arc::new(Mutex::new(GraphState {
                        epoch: 0,
                        graph: Arc::new(Graph::with_nodes(0)),
                        warm: None,
                        memo: DetHashMap::default(),
                    }))
                })
                .clone()
        };
        let mut state = lock(&slot);
        state.epoch += 1;
        state.graph = Arc::new(graph);
        state.warm = None;
        state.memo.clear();
        state.epoch
    }

    /// `(name, epoch, nodes, edges, warm?)` for every entry, sorted by
    /// name (the `stats` op must not leak hash-map iteration order).
    pub fn listing(&self) -> Vec<(String, u64, usize, usize, bool)> {
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
                    state.graph.node_count(),
                    state.graph.edge_count(),
                    state.warm.is_some(),
                )
            })
            .collect()
    }

    /// Runs `compute` under the coalescing/memo discipline for `key`
    /// (which must already embed the graph name and the observed
    /// epoch — the flight table is registry-global):
    ///
    /// 1. memo hit on `slot` → replay the stored response;
    /// 2. identical flight in progress → park, count as coalesced,
    ///    return its result;
    /// 3. otherwise compute (counted in [`Counters::computed`]), publish
    ///    to the memo if the epoch is still current, wake waiters.
    pub fn coalesce(
        &self,
        slot: &GraphSlot,
        epoch: u64,
        key: &str,
        compute: impl FnOnce() -> Result<String, ReqError>,
    ) -> Result<String, ReqError> {
        if let Some(hit) = lock(slot).memo.get(key) {
            Counters::bump(&self.counters.memo_hits);
            return Ok(hit.clone());
        }
        let (flight, leader) = {
            let mut flights = lock(&self.flights);
            match flights.get(key) {
                Some(f) => (f.clone(), false),
                None => {
                    let f = Arc::new(Flight {
                        result: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    flights.insert(key.to_string(), f.clone());
                    (f, true)
                }
            }
        };
        if !leader {
            Counters::bump(&self.counters.coalesced);
            let mut result = lock(&flight.result);
            while result.is_none() {
                result = flight
                    .done
                    .wait(result)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            return result
                .clone()
                .unwrap_or_else(|| Err(ReqError::new("io", "in-flight computation vanished")));
        }
        Counters::bump(&self.counters.computed);
        // resolve-on-drop guard: if `compute` panics, the unwind still
        // publishes an error result, wakes parked followers, and frees
        // the key — otherwise the flight would wedge forever (current
        // followers *and* every future identical request).
        struct Resolve<'a> {
            reg: &'a Registry,
            flight: &'a Flight,
            key: &'a str,
        }
        impl Drop for Resolve<'_> {
            fn drop(&mut self) {
                let mut result = lock(&self.flight.result);
                if result.is_none() {
                    *result = Some(Err(ReqError::new(
                        "io",
                        "the computation serving this request panicked",
                    )));
                }
                drop(result);
                self.flight.done.notify_all();
                lock(&self.reg.flights).remove(self.key);
            }
        }
        let resolve = Resolve {
            reg: self,
            flight: &flight,
            key,
        };
        let outcome = compute();
        if let Ok(body) = &outcome {
            let mut state = lock(slot);
            if state.epoch == epoch {
                state.memo.insert(key.to_string(), body.clone());
            }
        }
        *lock(&flight.result) = Some(outcome.clone());
        drop(resolve);
        outcome
    }

    /// Admission gate (see the [module docs](self)): `Ok(effective
    /// budget)` to pass into the analyzer, or an `over_budget` error.
    pub fn admit(
        &self,
        nodes: usize,
        edges: usize,
        metrics: &[AnyMetric],
        sketch_bits: u32,
        request_budget: Option<u64>,
    ) -> Result<Option<u64>, ReqError> {
        let effective = match (self.memory_budget, request_budget) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let Some(budget) = effective else {
            return Ok(None);
        };
        let mut min_bytes = dk_metrics::stream::fixed_bytes(nodes, edges)
            .saturating_add(dk_metrics::stream::per_worker_bytes(nodes));
        if metrics.iter().any(|m| m.cost() == Cost::Sketch) {
            let registers = (nodes as u64)
                .saturating_mul(1u64 << sketch_bits)
                .saturating_mul(2);
            min_bytes = min_bytes.saturating_add(registers);
        }
        if metrics.iter().any(|m| m.cost() == Cost::Spectral) {
            min_bytes =
                min_bytes.saturating_add(dk_metrics::spectral::spectral_bytes(nodes, edges));
        }
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
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    fn registry_with(name: &str, g: Graph) -> Registry {
        let reg = Registry::new(None, 1);
        reg.install(name, g);
        reg
    }

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            g.add_edge((i - 1) as u32, i as u32).expect("valid edge");
        }
        g
    }

    #[test]
    fn install_bumps_epoch_and_clears_warm_state() {
        let reg = registry_with("g", path_graph(3));
        let slot = reg.slot("g").expect("loaded");
        lock(&slot)
            .memo
            .insert("k".to_string(), "cached".to_string());
        assert_eq!(reg.install("g", path_graph(5)), 2);
        let state = lock(&slot);
        assert_eq!(state.epoch, 2);
        assert_eq!(state.graph.node_count(), 5);
        assert!(state.warm.is_none());
        assert!(state.memo.is_empty());
    }

    #[test]
    fn unknown_graph_is_a_structured_error() {
        let reg = Registry::new(None, 1);
        let err = reg.slot("nope").err().expect("missing graph rejected");
        assert_eq!(err.code, "unknown_graph");
    }

    #[test]
    fn memo_replays_and_mutation_invalidates() {
        let reg = registry_with("g", path_graph(3));
        let slot = reg.slot("g").expect("loaded");
        let body = reg
            .coalesce(&slot, 1, "e1:metric:x", || Ok("body".to_string()))
            .expect("ok");
        assert_eq!(body, "body");
        assert_eq!(Counters::get(&reg.counters.computed), 1);
        // replay: no second compute
        let again = reg
            .coalesce(&slot, 1, "e1:metric:x", || {
                Err(ReqError::new("io", "must not recompute"))
            })
            .expect("memo hit");
        assert_eq!(again, "body");
        assert_eq!(Counters::get(&reg.counters.memo_hits), 1);
        // mutation clears the memo; the new epoch key recomputes
        reg.install("g", path_graph(3));
        let fresh = reg
            .coalesce(&slot, 2, "e2:metric:x", || Ok("fresh".to_string()))
            .expect("ok");
        assert_eq!(fresh, "fresh");
        assert_eq!(Counters::get(&reg.counters.computed), 2);
    }

    #[test]
    fn stale_epoch_does_not_publish_into_the_memo() {
        let reg = registry_with("g", path_graph(3));
        let slot = reg.slot("g").expect("loaded");
        // a compute that observed epoch 1 finishes after a mutation
        let body = reg
            .coalesce(&slot, 1, "e1:metric:x", || {
                reg.install("g", path_graph(4));
                Ok("stale".to_string())
            })
            .expect("ok");
        assert_eq!(body, "stale"); // the waiter still gets its answer…
        assert!(lock(&slot).memo.is_empty()); // …but nothing is cached
    }

    /// The coalescing proof: two identical requests race, the leader
    /// blocks inside `compute` until the follower has parked, and the
    /// counters show exactly one computation served both.
    #[test]
    fn concurrent_identical_requests_coalesce() {
        let reg = Arc::new(registry_with("g", path_graph(3)));
        let slot = reg.slot("g").expect("loaded");
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

    /// Panic safety: a leader that panics inside `compute` must still
    /// resolve the flight — parked followers get a structured `io`
    /// error, and the key is freed so the next request recomputes
    /// instead of parking on a wedged flight forever.
    #[test]
    fn panicking_compute_does_not_wedge_the_flight() {
        let reg = Arc::new(registry_with("g", path_graph(3)));
        let slot = reg.slot("g").expect("loaded");
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let leader = {
            let reg = reg.clone();
            let slot = slot.clone();
            thread::spawn(move || {
                reg.coalesce(&slot, 1, "g=g;e1:metric:boom", move || {
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
                reg.coalesce(&slot, 1, "g=g;e1:metric:boom", || {
                    Err(ReqError::new("io", "follower must never compute"))
                })
            })
        };
        while Counters::get(&reg.counters.coalesced) == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        release_tx.send(()).expect("leader is waiting");
        assert!(leader.join().is_err(), "leader panicked");
        let err = follower
            .join()
            .expect("follower thread survives")
            .expect_err("follower sees the failure");
        assert_eq!(err.code, "io");
        // nothing was memoized and the key is free again: recomputes
        let fresh = reg
            .coalesce(&slot, 1, "g=g;e1:metric:boom", || Ok("fresh".to_string()))
            .expect("ok");
        assert_eq!(fresh, "fresh");
        assert_eq!(Counters::get(&reg.counters.computed), 2);
    }

    #[test]
    fn admission_rejects_undersized_budgets_and_takes_the_min() {
        let reg = Registry::new(Some(1 << 30), 1);
        let metrics = AnyMetric::cheap_set();
        // no request budget: the generous server budget admits
        assert_eq!(
            reg.admit(100, 200, &metrics, 8, None).expect("admitted"),
            Some(1 << 30)
        );
        // a tiny request budget wins the min and rejects
        let err = reg.admit(100, 200, &metrics, 8, Some(64)).unwrap_err();
        assert_eq!(err.code, "over_budget");
        assert_eq!(Counters::get(&reg.counters.rejected), 1);
        // no budgets anywhere: always admitted
        let open = Registry::new(None, 1);
        assert_eq!(open.admit(1 << 20, 1 << 22, &metrics, 8, None), Ok(None));
    }

    #[test]
    fn admission_prices_the_spectral_pass_in() {
        let spectral: Vec<AnyMetric> = AnyMetric::all().filter(|m| m.name() == "lambda1").collect();
        assert!(spectral.len() == 1 && spectral[0].cost() == Cost::Spectral);
        // the daemon's BA n = 10^5 graph: two edges per arriving node
        let n = 100_000;
        let m = 200_000;
        let plain_floor =
            dk_metrics::stream::fixed_bytes(n, m) + dk_metrics::stream::per_worker_bytes(n);
        let spectral_floor = plain_floor + dk_metrics::spectral::spectral_bytes(n, m);
        // a budget between the two minimums
        let reg = Registry::new(Some((plain_floor + spectral_floor) / 2), 1);
        assert!(reg.admit(n, m, &AnyMetric::cheap_set(), 8, None).is_ok());
        let err = reg.admit(n, m, &spectral, 8, None).unwrap_err();
        assert_eq!(err.code, "over_budget");
        assert!(err.message.contains(&spectral_floor.to_string()));
        // so is the paper battery (`metrics: default`), which includes it
        assert!(reg.admit(n, m, &AnyMetric::default_set(), 8, None).is_err());
    }

    #[test]
    fn admission_prices_sketch_registers_in() {
        let sketchy: Vec<AnyMetric> = AnyMetric::all()
            .filter(|m| m.cost() == Cost::Sketch)
            .collect();
        assert!(!sketchy.is_empty(), "sketch metrics exist");
        let n = 10_000;
        let m = 20_000;
        let plain_floor =
            dk_metrics::stream::fixed_bytes(n, m) + dk_metrics::stream::per_worker_bytes(n);
        // a budget that fits the plain floor but not the register sheets
        let reg = Registry::new(Some(plain_floor + 1), 1);
        assert!(reg.admit(n, m, &AnyMetric::cheap_set(), 8, None).is_ok());
        assert_eq!(
            reg.admit(n, m, &sketchy, 8, None).unwrap_err().code,
            "over_budget"
        );
    }
}
