//! The daemon itself: Unix-socket accept loop, connection threads, and
//! the op dispatcher.
//!
//! [`handle_line`] is the whole protocol — one request line in, one
//! response line out — and touches nothing but the registry, so
//! integration tests can drive it directly without sockets. The socket
//! layer ([`Server`] / [`run`]) adds framing (line-delimited JSON, the
//! [`MAX_REQUEST_BYTES`] cap) and threading (one thread per
//! connection; requests on one connection are handled strictly in
//! order, which is what makes a request *stream* reproducible).
//!
//! Responses are deterministic: every response body is a pure function
//! of the registry's graph states and the request (the `stats` op,
//! which reports scheduling counters, is the documented exception).
//! Metric values are thread-count and route invariant, so the same
//! request stream over one connection produces byte-identical
//! transcripts for every `--threads` value.

use crate::protocol::{quoted, tagged_value, Req, ReqError, MAX_REQUEST_BYTES};
use crate::registry::{lock, Counters, GraphSlot, Registry, Snapshot};
use dk_core::constraints::NoConstraint;
use dk_core::dist::{AnyDist, Dist1K, Dist2K, Dist3K};
use dk_core::generate::rewire::{randomize_edges, RewireOptions, SwapBudget};
use dk_core::generate::{Generator, Method};
use dk_graph::{io as graph_io, Graph};
use dk_metrics::attack::attack_sweep_cached;
use dk_metrics::{json, sketch, stream};
use dk_metrics::{AnalysisCache, AnalyzeOptions, AnyMetric, AttackOptions, GccPolicy, Strategy};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Knobs of one daemon instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Path of the Unix socket to bind (a stale socket file is
    /// replaced; a live daemon's socket or a non-socket file is not).
    pub socket: PathBuf,
    /// Server-wide memory budget for admission control.
    pub memory_budget: Option<u64>,
    /// Thread budget per analysis pass (latency only; values are
    /// thread-count invariant).
    pub threads: usize,
}

/// Default per-request metric list (the cheap scalar battery — the
/// same default `dk compare` uses).
pub const DEFAULT_METRICS: &str = "cheap";

/// Seed used by ops that accept `seed` when the request omits it.
pub const DEFAULT_SEED: u64 = 1;

// ---------------------------------------------------------------------
// Op dispatch
// ---------------------------------------------------------------------

/// Handles one request line, returning one response line (no trailing
/// newline). Never panics on untrusted input: malformed requests come
/// back as structured errors.
pub fn handle_line(reg: &Registry, line: &str) -> String {
    reg.counters.served.fetch_add(1, Ordering::Relaxed);
    match dispatch(reg, line) {
        Ok(body) => body,
        Err(e) => e.to_response(),
    }
}

fn dispatch(reg: &Registry, line: &str) -> Result<String, ReqError> {
    if line.len() > MAX_REQUEST_BYTES {
        return Err(ReqError::new(
            "oversized",
            format!(
                "request line is {} bytes; the limit is {MAX_REQUEST_BYTES}",
                line.len()
            ),
        ));
    }
    let value = dk_json::JsonValue::parse(line)
        .map_err(|e| ReqError::new("parse", format!("invalid JSON: {e}")))?;
    let req = Req::new(&value)?;
    let op = req.str_field("op")?;
    match op {
        "load" => op_load(reg, &req),
        "metric" => op_metric(reg, &req),
        "compare" => op_compare(reg, &req),
        "attack" => op_attack(reg, &req),
        "rewire" => op_rewire(reg, &req),
        "generate-into" => op_generate_into(reg, &req),
        "stats" => Ok(op_stats(reg)),
        "shutdown" => Ok(op_shutdown(reg)),
        other => Err(ReqError::new(
            "unknown_op",
            format!(
                "no op named {other:?}; known ops: load, metric, compare, attack, \
                 rewire, generate-into, stats, shutdown"
            ),
        )),
    }
}

fn ok_head(op: &str) -> Vec<(String, String)> {
    vec![("ok".into(), "true".into()), ("op".into(), quoted(op))]
}

fn op_load(reg: &Registry, req: &Req<'_>) -> Result<String, ReqError> {
    let name = req.str_field("graph")?;
    let path = req.str_field("path")?;
    let g = graph_io::load_edge_list(Path::new(path))
        .map_err(|e| ReqError::new("io", format!("cannot load {path:?}: {e}")))?;
    let (n, m) = (g.node_count(), g.edge_count());
    let epoch = reg.install(name, g);
    let mut fields = ok_head("load");
    fields.extend([
        ("graph".into(), quoted(name)),
        ("epoch".into(), epoch.to_string()),
        ("n".into(), n.to_string()),
        ("m".into(), m.to_string()),
    ]);
    Ok(json::object(fields))
}

/// Analysis knobs shared by `metric` and `compare`.
struct MetricKnobs {
    metrics: Vec<AnyMetric>,
    gcc: GccPolicy,
    samples: Option<u64>,
    sketch_bits: Option<u32>,
    shards: Option<u64>,
    memory_budget: Option<u64>,
    /// Response-table key: the op, the resolved metric names and every
    /// knob that can change the body, so two requests coalesce exactly
    /// when their analysis is identical. `memory_budget` is left out: it
    /// only caps the worker count, and every metric is worker-count
    /// invariant.
    key: String,
}

fn parse_metric_knobs(req: &Req<'_>) -> Result<MetricKnobs, ReqError> {
    let list = req.opt_str("metrics")?.unwrap_or(DEFAULT_METRICS);
    let metrics = AnyMetric::parse_list(list).map_err(|e| ReqError::new("unknown_metric", e))?;
    let no_gcc = req.opt_bool("no_gcc")?.unwrap_or(false);
    let samples = req.opt_u64("samples")?;
    // the CLI's ranges, checked before the key is built
    let sketch_bits = match req.opt_u64("sketch_bits")? {
        None => None,
        Some(b) => Some(sketch::checked_bits(b).ok_or_else(|| {
            ReqError::new(
                "bad_knob",
                format!(
                    "knob \"sketch_bits\" must lie in {}..={}, got {b}",
                    sketch::MIN_SKETCH_BITS,
                    sketch::MAX_SKETCH_BITS
                ),
            )
        })?),
    };
    let shards = req.opt_positive_u64("shards")?;
    let memory_budget = req.opt_positive_u64("memory_budget")?;
    let names: Vec<&str> = metrics.iter().map(|m| m.name()).collect();
    let key = format!(
        "metric:metrics={};gcc={};samples={:?};bits={:?};shards={:?}",
        names.join(","),
        !no_gcc,
        samples,
        sketch_bits,
        shards,
    );
    Ok(MetricKnobs {
        metrics,
        gcc: if no_gcc {
            GccPolicy::Whole
        } else {
            GccPolicy::Extract
        },
        samples,
        sketch_bits,
        shards,
        memory_budget,
        key,
    })
}

fn analyze_options(reg: &Registry, knobs: &MetricKnobs, budget: Option<u64>) -> AnalyzeOptions {
    let mut opts = AnalyzeOptions {
        gcc: knobs.gcc,
        threads: reg.threads,
        // shard counts clamp to the node count, so saturating is exact
        shards: knobs
            .shards
            .map(|s| usize::try_from(s).unwrap_or(usize::MAX)),
        memory_budget: budget,
        ..AnalyzeOptions::default()
    };
    if let Some(k) = knobs.samples {
        opts.samples = (k as usize).max(1);
    }
    if let Some(bits) = knobs.sketch_bits {
        opts.sketch_bits = bits;
    }
    opts
}

/// One consistent view of a slot for an analysis pass: the observed
/// epoch and that epoch's [`Snapshot`], read under a single lock
/// acquisition. A computed read analyzes the snapshot's base, which the
/// epoch's first computed read builds, so a mutation that lands
/// meanwhile never mixes into the response.
fn snapshot(slot: &GraphSlot) -> (u64, Arc<Snapshot>) {
    let state = lock(slot);
    (state.epoch, state.snapshot.clone())
}

/// The per-graph analysis fragment
/// (`{"epoch":…,"graph_summary":…,"values":…}`), produced through the
/// graph's response table.
fn metric_fragment(reg: &Registry, name: &str, knobs: &MetricKnobs) -> Result<String, ReqError> {
    let slot = reg.slot(name)?;
    let (epoch, snap) = snapshot(&slot);
    metric_fragment_at(reg, &slot, epoch, &snap, knobs)
}

/// [`metric_fragment`] over an already-captured `(epoch, snapshot)`
/// pair, so `compare` can pin both sides once up front. Admission runs
/// first, at the price of the passes the metrics need; only a computed
/// fragment reads (or builds) the snapshot's base, and it runs just
/// those passes.
fn metric_fragment_at(
    reg: &Registry,
    slot: &GraphSlot,
    epoch: u64,
    snap: &Snapshot,
    knobs: &MetricKnobs,
) -> Result<String, ReqError> {
    let (n, m) = (snap.graph().node_count(), snap.graph().edge_count());
    let deps = AnyMetric::deps_of(&knobs.metrics);
    let bits = knobs.sketch_bits.unwrap_or(sketch::DEFAULT_SKETCH_BITS);
    let price = stream::min_bytes(n, m, &deps, bits);
    let budget = reg.admit(n, m, price, knobs.memory_budget)?;
    reg.coalesce(slot, epoch, &knobs.key, || {
        let opts = analyze_options(reg, knobs, budget);
        let cache = AnalysisCache::build_on(snap.base(knobs.gcc), &knobs.metrics, &opts);
        let summary = json::object([
            ("nodes".into(), cache.original_nodes().to_string()),
            ("edges".into(), cache.original_edges().to_string()),
            (
                "analyzed_nodes".into(),
                cache.graph().node_count().to_string(),
            ),
            (
                "analyzed_edges".into(),
                cache.graph().edge_count().to_string(),
            ),
            ("gcc_fraction".into(), json::number(cache.gcc_fraction())),
            ("gcc".into(), cache.gcc_applied().to_string()),
        ]);
        let values = json::object(
            knobs
                .metrics
                .iter()
                .map(|m| (m.name().to_string(), tagged_value(&m.compute(&cache)))),
        );
        Ok(json::object([
            ("epoch".into(), epoch.to_string()),
            ("graph_summary".into(), summary),
            ("values".into(), values),
        ]))
    })
}

fn op_metric(reg: &Registry, req: &Req<'_>) -> Result<String, ReqError> {
    let name = req.str_field("graph")?;
    let knobs = parse_metric_knobs(req)?;
    let fragment = metric_fragment(reg, name, &knobs)?;
    let mut fields = ok_head("metric");
    fields.extend([("graph".into(), quoted(name)), ("result".into(), fragment)]);
    Ok(json::object(fields))
}

fn op_compare(reg: &Registry, req: &Req<'_>) -> Result<String, ReqError> {
    let a_name = req.str_field("a")?;
    let b_name = req.str_field("b")?;
    let knobs = parse_metric_knobs(req)?;
    let slot_a = reg.slot(a_name)?;
    let slot_b = reg.slot(b_name)?;
    // one snapshot per side, captured up front: the metric fragments
    // and the dK-distance block below describe the same (epoch, graph)
    // pair even if a mutation lands mid-compare
    let (ea, ga) = snapshot(&slot_a);
    let (eb, gb) = snapshot(&slot_b);
    // per-graph batteries share response keys with the metric op — a
    // compare racing a metric on the same graph coalesces with it
    let frag_a = metric_fragment_at(reg, &slot_a, ea, &ga, &knobs)?;
    let frag_b = metric_fragment_at(reg, &slot_b, eb, &gb, &knobs)?;
    // dK-distances over the same snapshots, in `a`'s table under a key
    // that names `b` and its epoch (a mutation of `b` does not clear
    // `a`'s table)
    let dist_key = format!("compare-dist:g={b_name};eb={eb}");
    let distances = reg.coalesce(&slot_a, ea, &dist_key, || {
        let (ga, gb) = (ga.graph(), gb.graph());
        let d1 = Dist1K::from_graph(ga).distance_sq(&Dist1K::from_graph(gb));
        let d2 = Dist2K::from_graph(ga).distance_sq(&Dist2K::from_graph(gb));
        let d3 = Dist3K::from_graph(ga).distance_sq(&Dist3K::from_graph(gb));
        Ok(json::object([
            ("d1".into(), json::number(d1)),
            ("d2".into(), json::number(d2)),
            ("d3".into(), json::number(d3)),
            ("epoch_a".into(), ea.to_string()),
            ("epoch_b".into(), eb.to_string()),
        ]))
    })?;
    let side = |name: &str, frag: String| {
        json::object([("graph".into(), quoted(name)), ("result".into(), frag)])
    };
    let mut fields = ok_head("compare");
    fields.extend([
        ("distances".into(), distances),
        ("a".into(), side(a_name, frag_a)),
        ("b".into(), side(b_name, frag_b)),
    ]);
    Ok(json::object(fields))
}

fn op_attack(reg: &Registry, req: &Req<'_>) -> Result<String, ReqError> {
    let name = req.str_field("graph")?;
    let strategy_name = req.opt_str("strategy")?.unwrap_or("degree");
    let strategy: Strategy = strategy_name
        .parse()
        .map_err(|e: String| ReqError::new("bad_knob", e))?;
    let seed = req.opt_u64("seed")?.unwrap_or(DEFAULT_SEED);
    let checkpoints = req.opt_f64_array("checkpoints")?.unwrap_or_default();
    if checkpoints.iter().any(|f| !(0.0..=1.0).contains(f)) {
        return Err(ReqError::new(
            "bad_knob",
            "knob \"checkpoints\" entries must lie in 0.0..=1.0",
        ));
    }
    let samples = req.opt_u64("samples")?;
    let no_gcc = req.opt_bool("no_gcc")?.unwrap_or(false);
    let slot = reg.slot(name)?;
    let (epoch, snap) = snapshot(&slot);
    // a sweep's CSR and union-find fit the one-worker floor; price the
    // passes its ranking runs (no sketch pass, so no register bits), and
    // cap the sweep's workers by the budget
    let (n, m) = (snap.graph().node_count(), snap.graph().edge_count());
    let budget = reg.admit(n, m, stream::min_bytes(n, m, strategy.deps(), 0), None)?;
    let key = format!(
        "attack:strategy={strategy};seed={seed};\
         checkpoints={checkpoints:?};samples={samples:?};gcc={}",
        !no_gcc
    );
    let attack_opts = AttackOptions {
        strategy,
        seed,
        checkpoints,
    };
    let gcc = if no_gcc {
        GccPolicy::Whole
    } else {
        GccPolicy::Extract
    };
    reg.coalesce(&slot, epoch, &key, || {
        // the options `Analyzer::attack` would run with, on the epoch's base
        let mut opts = AnalyzeOptions {
            gcc,
            threads: reg.threads,
            memory_budget: budget,
            ..AnalyzeOptions::default()
        };
        if let Some(k) = samples {
            opts.samples = (k as usize).max(1);
        }
        let cache = AnalysisCache::build_on(snap.base(gcc), &[], &opts);
        let report = attack_sweep_cached(&cache, &attack_opts);
        let mut fields = ok_head("attack");
        fields.extend([
            ("graph".into(), quoted(name)),
            ("epoch".into(), epoch.to_string()),
            ("report".into(), report.to_json()),
        ]);
        Ok(json::object(fields))
    })
}

fn op_rewire(reg: &Registry, req: &Req<'_>) -> Result<String, ReqError> {
    let name = req.str_field("graph")?;
    let d = parse_order(req)?;
    let seed = req.opt_u64("seed")?.unwrap_or(DEFAULT_SEED);
    let attempts = req.opt_u64("attempts")?;
    let slot = reg.slot(name)?;
    let snap = lock(&slot).snapshot.clone();
    let graph = snap.graph();
    // the rewire runs on a copy of the snapshot's edge list (degrees,
    // edges, index) and rebuilds the rows of the new graph once; it runs
    // no analysis pass, so the one-worker floor of no deps stands in as
    // the price of that footprint, checked before allocating it
    let (n, m) = (graph.node_count(), graph.edge_count());
    reg.admit(n, m, stream::min_bytes(n, m, &[], 0), None)?;
    let mut edges = graph.edge_list().clone();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    let opts = RewireOptions {
        budget: attempts.map_or(SwapBudget::AttemptsPerEdge(50.0), SwapBudget::Attempts),
    };
    let stats = randomize_edges(&mut edges, d, &opts, &NoConstraint, &mut rng);
    let g = Graph::from_edge_list(edges);
    let (n, m) = (g.node_count(), g.edge_count());
    let epoch = reg.install(name, g);
    let mut fields = ok_head("rewire");
    fields.extend([
        ("graph".into(), quoted(name)),
        ("epoch".into(), epoch.to_string()),
        ("d".into(), d.to_string()),
        ("accepted".into(), stats.accepted.to_string()),
        ("attempts".into(), stats.attempts.to_string()),
        ("n".into(), n.to_string()),
        ("m".into(), m.to_string()),
    ]);
    Ok(json::object(fields))
}

fn op_generate_into(reg: &Registry, req: &Req<'_>) -> Result<String, ReqError> {
    let name = req.str_field("graph")?;
    let from = req.str_field("from")?;
    let d = parse_order(req)?;
    let algo_name = req.opt_str("algo")?.unwrap_or("pseudograph");
    let algo: Method = algo_name
        .parse()
        .map_err(|e: String| ReqError::new("bad_knob", e))?;
    let seed = req.opt_u64("seed")?.unwrap_or(DEFAULT_SEED);
    let snap = {
        let slot = reg.slot(from)?;
        let state = lock(&slot);
        state.snapshot.clone()
    };
    let source = snap.graph();
    // generation materializes a census and a graph on the source's
    // scale; it runs no analysis pass, so the one-worker floor of no
    // deps stands in as the price of that footprint
    let (n, m) = (source.node_count(), source.edge_count());
    reg.admit(n, m, stream::min_bytes(n, m, &[], 0), None)?;
    let generated = if algo.needs_reference() {
        Generator::new(algo)
            .seed(seed)
            .reference(source)
            .build_randomized(d)
    } else {
        let dist = AnyDist::from_graph(d, source)
            .map_err(|e| ReqError::new("bad_knob", format!("cannot extract {d}K: {e}")))?;
        Generator::new(algo).seed(seed).build(&dist)
    }
    .map_err(|e| ReqError::new("bad_knob", format!("generation failed: {e}")))?;
    let g = generated.graph;
    let (n, m) = (g.node_count(), g.edge_count());
    let epoch = reg.install(name, g);
    let mut fields = ok_head("generate-into");
    fields.extend([
        ("graph".into(), quoted(name)),
        ("from".into(), quoted(from)),
        ("algo".into(), quoted(&algo.to_string())),
        ("d".into(), d.to_string()),
        ("epoch".into(), epoch.to_string()),
        ("n".into(), n.to_string()),
        ("m".into(), m.to_string()),
    ]);
    Ok(json::object(fields))
}

fn parse_order(req: &Req<'_>) -> Result<u8, ReqError> {
    match req.opt_u64("d")? {
        Some(d) if d <= 3 => Ok(d as u8),
        Some(d) => Err(ReqError::new(
            "bad_knob",
            format!("knob \"d\" must be 0..=3, got {d}"),
        )),
        None => Err(ReqError::new("bad_request", "missing required field \"d\"")),
    }
}

fn op_stats(reg: &Registry) -> String {
    let graphs = json::object(reg.listing().into_iter().map(|(name, epoch, n, m)| {
        (
            name,
            json::object([
                ("epoch".into(), epoch.to_string()),
                ("n".into(), n.to_string()),
                ("m".into(), m.to_string()),
            ]),
        )
    }));
    let c = &reg.counters;
    let counters = json::object([
        ("served".into(), Counters::get(&c.served).to_string()),
        ("computed".into(), Counters::get(&c.computed).to_string()),
        ("coalesced".into(), Counters::get(&c.coalesced).to_string()),
        ("memo_hits".into(), Counters::get(&c.memo_hits).to_string()),
        ("rejected".into(), Counters::get(&c.rejected).to_string()),
    ]);
    let mut fields = ok_head("stats");
    fields.extend([("graphs".into(), graphs), ("counters".into(), counters)]);
    json::object(fields)
}

fn op_shutdown(reg: &Registry) -> String {
    reg.shutdown.store(true, Ordering::SeqCst);
    json::object(ok_head("shutdown"))
}

// ---------------------------------------------------------------------
// Socket layer
// ---------------------------------------------------------------------

/// A running daemon: accept thread + per-connection threads, stoppable
/// from tests and from the CLI.
pub struct Server {
    registry: Arc<Registry>,
    socket: PathBuf,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.socket` and spawns the accept loop.
    ///
    /// A pre-existing file at the path is only removed when it is a
    /// socket nobody answers on (a stale file left by a dead daemon):
    /// if a live daemon accepts a connection the bind is refused with
    /// `AddrInUse`, and a non-socket file is never deleted.
    pub fn spawn(config: &ServerConfig) -> std::io::Result<Server> {
        use std::os::unix::fs::FileTypeExt;
        match std::fs::symlink_metadata(&config.socket) {
            Ok(meta) if meta.file_type().is_socket() => {
                if UnixStream::connect(&config.socket).is_ok() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!("a daemon is already listening on {:?}", config.socket),
                    ));
                }
                std::fs::remove_file(&config.socket)?;
            }
            Ok(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AlreadyExists,
                    format!(
                        "{:?} exists and is not a socket; refusing to replace it",
                        config.socket
                    ),
                ));
            }
            Err(_) => {}
        }
        let listener = UnixListener::bind(&config.socket)?;
        let registry = Arc::new(Registry::new(config.memory_budget, config.threads));
        let reg = registry.clone();
        let socket = config.socket.clone();
        let accept = std::thread::spawn(move || accept_loop(&listener, &reg, &socket));
        Ok(Server {
            registry,
            socket: config.socket.clone(),
            accept: Some(accept),
        })
    }

    /// The shared registry (tests read the counters through this).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Requests shutdown and joins the accept loop. Idempotent with a
    /// client-sent `shutdown` op.
    pub fn stop(mut self) {
        self.registry.shutdown.store(true, Ordering::SeqCst);
        // wake the blocking accept() with a throwaway connection
        let _ = UnixStream::connect(&self.socket);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Runs a daemon in the foreground until a `shutdown` op arrives (the
/// blocking entry point `dk serve` uses).
pub fn run(config: &ServerConfig) -> std::io::Result<()> {
    let mut server = Server::spawn(config)?;
    if let Some(handle) = server.accept.take() {
        let _ = handle.join();
    }
    let _ = std::fs::remove_file(&server.socket);
    Ok(())
}

fn accept_loop(listener: &UnixListener, reg: &Arc<Registry>, socket: &Path) {
    // each entry keeps a second handle on the connection so shutdown can
    // unblock a thread parked in read_line before joining it
    let mut conns: Vec<(UnixStream, JoinHandle<()>)> = Vec::new();
    for stream in listener.incoming() {
        if reg.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // reap finished connections so a long-lived daemon does not
        // accumulate dead join handles (and their cloned descriptors)
        let (done, live): (Vec<_>, Vec<_>) = conns.into_iter().partition(|(_, h)| h.is_finished());
        conns = live;
        for (_, handle) in done {
            let _ = handle.join();
        }
        let Ok(stream) = stream else { continue };
        let Ok(peer) = stream.try_clone() else {
            continue;
        };
        let reg = reg.clone();
        let socket = socket.to_path_buf();
        conns.push((
            peer,
            std::thread::spawn(move || serve_connection(stream, &reg, &socket)),
        ));
    }
    for (peer, handle) in conns {
        let _ = peer.shutdown(std::net::Shutdown::Both);
        let _ = handle.join();
    }
}

/// Handles one connection: requests are read and answered strictly in
/// order. Returns (closing the connection) on EOF, I/O errors, an
/// oversized request, or server shutdown.
fn serve_connection(stream: UnixStream, reg: &Arc<Registry>, socket: &Path) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    loop {
        if reg.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let mut line = String::new();
        match (&mut reader)
            .take((MAX_REQUEST_BYTES + 2) as u64)
            .read_line(&mut line)
        {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let trimmed = line.trim_end_matches(['\n', '\r']);
        if trimmed.is_empty() {
            continue;
        }
        let oversized = trimmed.len() > MAX_REQUEST_BYTES;
        let response = if oversized {
            reg.counters.served.fetch_add(1, Ordering::Relaxed);
            ReqError::new(
                "oversized",
                format!("request line exceeds {MAX_REQUEST_BYTES} bytes; closing connection"),
            )
            .to_response()
        } else {
            handle_line(reg, trimmed)
        };
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
        if reg.shutdown.load(Ordering::SeqCst) {
            // a shutdown op was just answered: the accept loop is still
            // parked in accept(); a throwaway connection unblocks it so
            // the daemon can exit without waiting for a new client
            let _ = UnixStream::connect(socket);
            return;
        }
        if oversized {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dk_graph::Graph;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 1..n {
            g.add_edge((i - 1) as u32, i as u32).expect("valid edge");
        }
        g
    }

    /// Response tables are per graph: while graph `a`'s flight is open,
    /// a request on graph `b` with the same key string (same epoch too)
    /// computes its own body instead of parking behind `a`'s.
    #[test]
    fn same_epoch_requests_on_different_graphs_do_not_coalesce() {
        let reg = Arc::new(Registry::new(None, 1));
        reg.install("a", path_graph(3));
        reg.install("b", path_graph(5));
        let slot_a = reg.slot("a").expect("loaded");
        let slot_b = reg.slot("b").expect("loaded");
        let key = "metric:metrics=c_mean";
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let leader = {
            let reg = reg.clone();
            thread::spawn(move || {
                reg.coalesce(&slot_a, 1, key, move || {
                    let _ = release_rx.recv();
                    Ok("a-body".to_string())
                })
            })
        };
        while Counters::get(&reg.counters.computed) == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        let body = reg
            .coalesce(&slot_b, 1, key, || Ok("b-body".to_string()))
            .expect("ok");
        assert_eq!(body, "b-body", "graph b computed its own response");
        assert_eq!(Counters::get(&reg.counters.coalesced), 0);
        assert_eq!(Counters::get(&reg.counters.computed), 2);
        release_tx.send(()).expect("leader is waiting");
        assert_eq!(leader.join().expect("leader").expect("ok"), "a-body");
    }
}
