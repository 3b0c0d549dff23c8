//! **perf_serve** — throughput and tail-latency record of the `dk
//! serve` daemon under concurrent mixed load.
//!
//! Spawns an in-process daemon on a Unix socket, loads a Barabási–
//! Albert graph, and drives ≥ 1000 concurrent requests from a pool of
//! client connections: warm metric lookups (memo hits), distinct-knob
//! metric passes, `stats` polls, and deliberately over-budget requests
//! (which must come back as structured `over_budget` errors, not
//! allocations). A separate cold-cache barrage fires identical
//! expensive requests from every client at once to measure request
//! coalescing — the `computed`/`coalesced` counters prove the collapse.
//!
//! Appends `"bench": "serve"` records (stages `mixed` / `coalesce`,
//! plus `large` with `--full`) to the `BENCH_metrics.json` JSON-lines
//! log: throughput, p50/p95/p99 latency, and the scheduler counters.
//!
//! ```text
//! cargo run -p dk-bench --release --bin perf_serve -- \
//!     [--full] [--n N] [--clients C] [--requests R] [--threads N] [--seed N] [--out DIR]
//! ```

use dk_bench::perf::{ba, mib, peak_rss_bytes, PerfArgs};
use dk_bench::set;
use dk_graph::io as graph_io;
use dk_json::JsonValue;
use dk_metrics::json;
use dk_serve::{Client, Counters, Server, ServerConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Node count of the `--full` large-graph stage.
const LARGE_N: usize = 200_000;

/// The binary's own flags.
struct Workload {
    n: usize,
    clients: usize,
    requests: usize,
}

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("perf_serve_{}_{tag}.sock", std::process::id()))
}

fn is_ok(response: &str) -> bool {
    JsonValue::parse(response)
        .ok()
        .and_then(|v| v.get("ok").and_then(JsonValue::as_bool))
        == Some(true)
}

fn error_code(response: &str) -> Option<String> {
    let v = JsonValue::parse(response).ok()?;
    Some(v.get("error")?.get("code")?.as_str()?.to_string())
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One client's slice of the mixed workload. Returns per-request
/// latencies in seconds and the number of `over_budget` rejections it
/// observed (which are expected, deliberate probes).
fn client_workload(socket: &Path, requests: usize, id: usize) -> (Vec<f64>, u64) {
    let mut client = Client::connect(socket).expect("connect to daemon");
    let mut latencies = Vec::with_capacity(requests);
    let mut rejected = 0u64;
    for i in 0..requests {
        // a 16-request cycle: mostly warm lookups, a few distinct-knob
        // passes, stats polls, and one over-budget probe
        let request = match i % 16 {
            0..=9 => r#"{"op":"metric","graph":"g","metrics":"cheap"}"#.to_string(),
            10 | 11 => r#"{"op":"metric","graph":"g","metrics":"k_avg,r"}"#.to_string(),
            12 => format!(
                r#"{{"op":"metric","graph":"g","metrics":"cheap","samples":{}}}"#,
                32 + (id % 4) * 16
            ),
            13 | 14 => r#"{"op":"stats"}"#.to_string(),
            _ => r#"{"op":"metric","graph":"g","memory_budget":64}"#.to_string(),
        };
        let t0 = Instant::now();
        let response = client.request(&request).expect("request");
        latencies.push(t0.elapsed().as_secs_f64());
        if i % 16 == 15 {
            assert_eq!(
                error_code(&response).as_deref(),
                Some("over_budget"),
                "budget probe must be rejected: {response}"
            );
            rejected += 1;
        } else {
            assert!(is_ok(&response), "request failed: {response}");
        }
    }
    (latencies, rejected)
}

fn snapshot(c: &Counters) -> (u64, u64, u64, u64, u64) {
    (
        Counters::get(&c.served),
        Counters::get(&c.computed),
        Counters::get(&c.coalesced),
        Counters::get(&c.memo_hits),
        Counters::get(&c.rejected),
    )
}

/// The concurrent mixed-load stage: `clients × requests` requests, tail
/// latencies, throughput, counter accounting.
fn mixed_stage(args: &PerfArgs, work: &Workload) {
    let threads = args.threads;
    let g = ba(work.n, args.seed);
    let (n, m) = (g.node_count(), g.edge_count());
    let edges = std::env::temp_dir().join(format!("perf_serve_{}_g.edges", std::process::id()));
    graph_io::save_edge_list(&g, &edges).expect("write edge list");
    let config = ServerConfig {
        socket: sock_path("mixed"),
        memory_budget: None,
        threads,
    };
    let server = Server::spawn(&config).expect("bind socket");
    let mut boot = Client::connect(&config.socket).expect("connect");
    let load = boot
        .request(&format!(
            r#"{{"op":"load","graph":"g","path":"{}"}}"#,
            edges.display()
        ))
        .expect("load");
    assert!(is_ok(&load), "{load}");

    let total = work.clients * work.requests;
    println!(
        "mixed: BA n = {n}, m = {m}, {} clients x {} requests = {total}, threads = {threads}",
        work.clients, work.requests
    );
    let t0 = Instant::now();
    let handles: Vec<_> = (0..work.clients)
        .map(|id| {
            let socket = config.socket.clone();
            let requests = work.requests;
            std::thread::spawn(move || client_workload(&socket, requests, id))
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::with_capacity(total);
    let mut probe_rejections = 0u64;
    for handle in handles {
        let (lats, rejected) = handle.join().expect("client thread");
        latencies.extend(lats);
        probe_rejections += rejected;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    latencies.sort_by(f64::total_cmp);
    let (p50, p95, p99) = (
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 0.99),
    );
    let throughput = total as f64 / wall_s.max(1e-9);
    let (served, computed, coalesced, memo_hits, rejected) = snapshot(&server.registry().counters);
    assert!(rejected >= probe_rejections, "rejection counter accounting");
    assert!(
        computed + coalesced + memo_hits + rejected > 0,
        "scheduler counters must move under load"
    );
    println!(
        "{total} requests in {wall_s:.2} s = {throughput:.0} req/s; p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
        p50 * 1e3,
        p95 * 1e3,
        p99 * 1e3
    );
    println!(
        "counters: served {served}, computed {computed}, coalesced {coalesced}, memo_hits {memo_hits}, rejected {rejected}"
    );
    server.stop();
    let _ = std::fs::remove_file(&edges);

    let fields = vec![
        ("bench".into(), "\"serve\"".to_string()),
        ("stage".into(), "\"mixed\"".to_string()),
        ("n".into(), n.to_string()),
        ("m".into(), m.to_string()),
        ("threads".into(), threads.to_string()),
        ("clients".into(), work.clients.to_string()),
        ("requests".into(), total.to_string()),
        ("time_s".into(), json::number(wall_s)),
        ("throughput_rps".into(), json::number(throughput)),
        ("p50_ms".into(), json::number(p50 * 1e3)),
        ("p95_ms".into(), json::number(p95 * 1e3)),
        ("p99_ms".into(), json::number(p99 * 1e3)),
        ("served".into(), served.to_string()),
        ("computed".into(), computed.to_string()),
        ("coalesced".into(), coalesced.to_string()),
        ("memo_hits".into(), memo_hits.to_string()),
        ("rejected".into(), rejected.to_string()),
    ];
    args.record(fields);
}

/// The coalescing barrage: every client fires the *same* cold-cache
/// request at once; the counters prove most of them collapsed onto the
/// leader's computation (or replayed its memoized result).
fn coalesce_stage(args: &PerfArgs, work: &Workload) {
    let threads = args.threads;
    let g = ba(work.n, args.seed + 1);
    let (n, m) = (g.node_count(), g.edge_count());
    let edges = std::env::temp_dir().join(format!("perf_serve_{}_c.edges", std::process::id()));
    graph_io::save_edge_list(&g, &edges).expect("write edge list");
    let config = ServerConfig {
        socket: sock_path("coalesce"),
        memory_budget: None,
        threads,
    };
    let server = Server::spawn(&config).expect("bind socket");
    let mut boot = Client::connect(&config.socket).expect("connect");
    let load = boot
        .request(&format!(
            r#"{{"op":"load","graph":"g","path":"{}"}}"#,
            edges.display()
        ))
        .expect("load");
    assert!(is_ok(&load), "{load}");

    // an expensive distinct key nothing has warmed: sampled distances
    let barrage = r#"{"op":"metric","graph":"g","metrics":"cheap","samples":48}"#;
    let clients = work.clients.max(4);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let socket = config.socket.clone();
            let request = barrage.to_string();
            std::thread::spawn(move || {
                let mut client = Client::connect(&socket).expect("connect");
                let response = client.request(&request).expect("request");
                assert!(is_ok(&response), "{response}");
                response
            })
        })
        .collect();
    let bodies: Vec<String> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    let wall_s = t0.elapsed().as_secs_f64();
    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "coalesced responses must be byte-identical"
    );
    let (_, computed, coalesced, memo_hits, _) = snapshot(&server.registry().counters);
    // every client got the same body from ONE computation: the rest
    // parked on the flight or replayed the memo
    assert_eq!(computed, 1, "exactly one computation for {clients} clients");
    assert_eq!(
        coalesced + memo_hits,
        clients as u64 - 1,
        "all other requests collapsed"
    );
    println!(
        "coalesce: {clients} identical requests in {wall_s:.2} s -> computed {computed}, coalesced {coalesced}, memo_hits {memo_hits}"
    );
    server.stop();
    let _ = std::fs::remove_file(&edges);

    let fields = vec![
        ("bench".into(), "\"serve\"".to_string()),
        ("stage".into(), "\"coalesce\"".to_string()),
        ("n".into(), n.to_string()),
        ("m".into(), m.to_string()),
        ("threads".into(), threads.to_string()),
        ("clients".into(), clients.to_string()),
        ("time_s".into(), json::number(wall_s)),
        ("computed".into(), computed.to_string()),
        ("coalesced".into(), coalesced.to_string()),
        ("memo_hits".into(), memo_hits.to_string()),
    ];
    args.record(fields);
}

/// The `--full` stage: a 200k-node graph behind the daemon — cold
/// cheap-battery pass, warm repeat, and one attack sweep.
fn large_stage(args: &PerfArgs) {
    let threads = args.threads;
    let t_gen = Instant::now();
    let g = ba(LARGE_N, args.seed);
    let gen_s = t_gen.elapsed().as_secs_f64();
    let (n, m) = (g.node_count(), g.edge_count());
    let edges = std::env::temp_dir().join(format!("perf_serve_{}_l.edges", std::process::id()));
    graph_io::save_edge_list(&g, &edges).expect("write edge list");
    println!("large: BA n = {n}, m = {m}, generated in {gen_s:.1} s");
    let config = ServerConfig {
        socket: sock_path("large"),
        memory_budget: None,
        threads,
    };
    let server = Server::spawn(&config).expect("bind socket");
    let mut client = Client::connect(&config.socket).expect("connect");
    let mut timed = |label: &str, request: String| -> f64 {
        let t0 = Instant::now();
        let response = client.request(&request).expect("request");
        let dt = t0.elapsed().as_secs_f64();
        assert!(is_ok(&response), "{label}: {response}");
        println!("{label:>12}: {dt:.2} s");
        dt
    };
    let load_s = timed(
        "load",
        format!(
            r#"{{"op":"load","graph":"g","path":"{}"}}"#,
            edges.display()
        ),
    );
    let cold_s = timed(
        "cold cheap",
        r#"{"op":"metric","graph":"g","metrics":"cheap"}"#.to_string(),
    );
    let warm_s = timed(
        "warm cheap",
        r#"{"op":"metric","graph":"g","metrics":"cheap"}"#.to_string(),
    );
    assert!(
        warm_s < cold_s,
        "memoized repeat must beat the cold pass ({warm_s:.3} s vs {cold_s:.3} s)"
    );
    let attack_s = timed(
        "attack",
        r#"{"op":"attack","graph":"g","strategy":"degree","checkpoints":[0.05,0.25],"samples":16}"#
            .to_string(),
    );
    server.stop();
    let _ = std::fs::remove_file(&edges);

    let mut fields = vec![
        ("bench".into(), "\"serve\"".to_string()),
        ("stage".into(), "\"large\"".to_string()),
        ("n".into(), n.to_string()),
        ("m".into(), m.to_string()),
        ("threads".into(), threads.to_string()),
        ("gen_s".into(), json::number(gen_s)),
        ("load_s".into(), json::number(load_s)),
        ("cold_cheap_s".into(), json::number(cold_s)),
        ("warm_cheap_s".into(), json::number(warm_s)),
        ("attack_s".into(), json::number(attack_s)),
    ];
    if let Some(p) = peak_rss_bytes() {
        println!("peak RSS {:.0} MiB", mib(p));
        fields.push(("peak_rss_mb".into(), json::number(mib(p))));
    }
    args.record(fields);
}

fn main() {
    let mut work = Workload {
        n: 20_000,
        clients: 8,
        requests: 150,
    };
    let args = PerfArgs::from_args(
        &format!(
            "--full (add the {LARGE_N}-node stage)  --n N (default 20000)\n       --clients C (default 8)  --requests R per client (default 150)"
        ),
        vec![
            ("--n", set(&mut work.n)),
            ("--clients", set(&mut work.clients)),
            ("--requests", set(&mut work.requests)),
        ],
    );
    mixed_stage(&args, &work);
    coalesce_stage(&args, &work);
    if args.full {
        large_stage(&args);
    }
}
