//! End-to-end suite for the `dk serve` daemon (see the `dk_serve` crate
//! docs for the protocol reference):
//!
//! * round trips for every op over a real Unix socket;
//! * the epoch contract — mutation verbs atomically invalidate warm
//!   caches and memoized responses (observed via the computed/memo
//!   counters), and recomputed values match an out-of-band replica of
//!   the mutation;
//! * admission control — over-budget requests come back as structured
//!   `over_budget` errors, never an allocation attempt;
//! * the tagged value encoding — `undefined` distinguishable from
//!   `not_finite` on the wire while the legacy report JSON keeps its
//!   untagged `null`s;
//! * byte-identity of response transcripts across `--threads` values;
//! * concurrent load — mixed requests from several connections, and a
//!   barrage of identical cold requests that one computation answers
//!   (at 2·10⁴ and 2·10⁵ nodes in a release-only case);
//! * a malformed-request battery: truncated JSON, unknown verbs, bad
//!   knob values, and oversized requests all produce structured errors
//!   and never kill the daemon.

use dk_json::JsonValue;
use dk_repro::graph::{builders, io as graph_io};
use dk_repro::metrics::{Analyzer, MetricValue, Report};
use dk_repro::topologies::ba::{barabasi_albert, BaParams};
use dk_serve::{handle_line, Client, Registry, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Barrier;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dk_serve_{}_{name}", std::process::id()));
    p
}

fn write_karate(tag: &str) -> PathBuf {
    let path = tmp(&format!("{tag}_karate.edges"));
    graph_io::save_edge_list(&builders::karate_club(), &path).expect("write edge list");
    path
}

fn parse(line: &str) -> JsonValue {
    JsonValue::parse(line).unwrap_or_else(|e| panic!("response is not JSON ({e}): {line}"))
}

fn assert_ok(line: &str) -> JsonValue {
    let v = parse(line);
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(true),
        "expected ok response: {line}"
    );
    v
}

fn assert_error(line: &str, code: &str) {
    let v = parse(line);
    assert_eq!(
        v.get("ok").and_then(JsonValue::as_bool),
        Some(false),
        "expected error response: {line}"
    );
    let got = v
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("error response lacks a code: {line}"));
    assert_eq!(got, code, "wrong error code in: {line}");
}

fn counter_snapshot(reg: &Registry) -> (u64, u64, u64, u64) {
    (
        reg.counters.computed.load(Ordering::Relaxed),
        reg.counters.coalesced.load(Ordering::Relaxed),
        reg.counters.memo_hits.load(Ordering::Relaxed),
        reg.counters.rejected.load(Ordering::Relaxed),
    )
}

#[test]
fn socket_round_trip_all_ops() {
    let karate = write_karate("roundtrip");
    let config = ServerConfig {
        socket: tmp("roundtrip.sock"),
        memory_budget: None,
        threads: 1,
    };
    let server = Server::spawn(&config).expect("bind socket");
    let mut client = Client::connect(&config.socket).expect("connect");
    let req = |c: &mut Client, r: String| c.request(&r).expect("request");

    let load = assert_ok(&req(
        &mut client,
        format!(
            r#"{{"op":"load","graph":"k","path":"{}"}}"#,
            karate.display()
        ),
    ));
    assert_eq!(load.get("n").and_then(JsonValue::as_u64), Some(34));
    assert_eq!(load.get("epoch").and_then(JsonValue::as_u64), Some(1));

    let metric = assert_ok(&req(
        &mut client,
        r#"{"op":"metric","graph":"k"}"#.to_string(),
    ));
    let result = metric.get("result").expect("result fragment");
    let summary = result.get("graph_summary").expect("summary");
    assert_eq!(summary.get("nodes").and_then(JsonValue::as_u64), Some(34));
    let c_mean = result
        .get("values")
        .and_then(|v| v.get("c_mean"))
        .expect("c_mean value");
    assert_eq!(c_mean.get("status").and_then(JsonValue::as_str), Some("ok"));

    let generated = assert_ok(&req(
        &mut client,
        r#"{"op":"generate-into","graph":"g1","from":"k","d":1,"seed":3}"#.to_string(),
    ));
    assert_eq!(generated.get("epoch").and_then(JsonValue::as_u64), Some(1));
    assert!(generated.get("n").and_then(JsonValue::as_u64).unwrap_or(0) > 0);

    let compare = assert_ok(&req(
        &mut client,
        r#"{"op":"compare","a":"k","b":"g1"}"#.to_string(),
    ));
    let d1 = compare
        .get("distances")
        .and_then(|d| d.get("d1"))
        .and_then(JsonValue::as_f64)
        .expect("d1");
    assert!(d1 >= 0.0, "squared distance: {d1}");
    assert!(compare.get("a").and_then(|s| s.get("result")).is_some());

    // unsorted, duplicated checkpoints: the report sorts ascending
    let attack = assert_ok(&req(
        &mut client,
        r#"{"op":"attack","graph":"k","checkpoints":[0.5,0.1,0.1],"samples":8}"#.to_string(),
    ));
    let report = attack.get("report").expect("embedded attack report");
    let fractions: Vec<f64> = report
        .get("checkpoints")
        .and_then(JsonValue::as_array)
        .expect("checkpoints array")
        .iter()
        .map(|c| {
            c.get("fraction")
                .and_then(JsonValue::as_f64)
                .expect("fraction")
        })
        .collect();
    assert_eq!(fractions, vec![0.1, 0.5], "ascending + deduped");

    let rewire = assert_ok(&req(
        &mut client,
        r#"{"op":"rewire","graph":"k","d":1,"seed":7,"attempts":200}"#.to_string(),
    ));
    assert_eq!(rewire.get("epoch").and_then(JsonValue::as_u64), Some(2));
    assert_eq!(rewire.get("m").and_then(JsonValue::as_u64), Some(78));

    let stats = assert_ok(&req(&mut client, r#"{"op":"stats"}"#.to_string()));
    let graphs = stats.get("graphs").expect("graphs listing");
    let names: Vec<&str> = graphs
        .entries()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(names, ["g1", "k"], "sorted by name");
    assert_eq!(
        graphs
            .get("k")
            .and_then(|g| g.get("epoch"))
            .and_then(JsonValue::as_u64),
        Some(2)
    );

    assert_ok(&req(&mut client, r#"{"op":"shutdown"}"#.to_string()));
    server.stop();
    let _ = std::fs::remove_file(&karate);
}

/// Satellite: mutation invalidates the warm cache/memo — load → metric
/// → rewire → same metric must recompute (proved by the counters), and
/// the recomputed values match an out-of-band replica of the rewire.
#[test]
fn mutation_invalidates_warm_cache_and_memo() {
    let karate = write_karate("epoch");
    let reg = Registry::new(None, 1);
    let load = format!(
        r#"{{"op":"load","graph":"k","path":"{}"}}"#,
        karate.display()
    );
    assert_ok(&handle_line(&reg, &load));
    let metric = r#"{"op":"metric","graph":"k","metrics":"c_mean,r,k_avg"}"#;

    let first = assert_ok(&handle_line(&reg, metric));
    assert_eq!(counter_snapshot(&reg), (1, 0, 0, 0), "first: computed");
    // karate is connected: the warm cache analyzes the CSR frozen from
    // the registry's snapshot, not a GCC copy of it
    {
        let slot = reg.slot("k").expect("loaded");
        let state = dk_serve::registry::lock(&slot);
        let warm = state.warm.as_ref().expect("cold read leaves a warm cache");
        assert_eq!(
            warm.cache.graph(),
            &dk_repro::graph::CsrGraph::from_graph(&state.graph),
            "warm cache analyzes the snapshot's CSR"
        );
        assert_eq!(warm.cache.gcc_fraction(), 1.0);
    }
    let repeat = assert_ok(&handle_line(&reg, metric));
    assert_eq!(counter_snapshot(&reg), (1, 0, 1, 0), "repeat: memo hit");
    assert_eq!(first.to_string(), repeat.to_string());

    let rewire = r#"{"op":"rewire","graph":"k","d":1,"seed":7}"#;
    assert_ok(&handle_line(&reg, rewire));
    let after = assert_ok(&handle_line(&reg, metric));
    assert_eq!(
        counter_snapshot(&reg),
        (2, 0, 1, 0),
        "after rewire: recomputed, not replayed"
    );
    let epoch = after
        .get("result")
        .and_then(|r| r.get("epoch"))
        .and_then(JsonValue::as_u64);
    assert_eq!(epoch, Some(2), "epoch visibly bumped");

    // replicate the rewire out of band and check the recomputed value
    use dk_repro::core::generate::rewire::{randomize, RewireOptions, SwapBudget};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut g = builders::karate_club();
    let mut rng = StdRng::seed_from_u64(7);
    randomize(
        &mut g,
        1,
        &RewireOptions {
            budget: SwapBudget::AttemptsPerEdge(50.0),
        },
        &mut rng,
    );
    let want = Analyzer::new()
        .metric_names("c_mean,r,k_avg")
        .expect("metric list")
        .analyze(&g);
    let got = after
        .get("result")
        .and_then(|r| r.get("values"))
        .and_then(|v| v.get("c_mean"))
        .and_then(|v| v.get("value"))
        .and_then(JsonValue::as_f64)
        .expect("recomputed c_mean");
    let want_c = want.scalar("c_mean").expect("replica c_mean");
    assert!(
        (got - want_c).abs() < 1e-12,
        "serve recomputed {got}, replica says {want_c}"
    );
    let _ = std::fs::remove_file(&karate);
}

/// Satellite: `Undefined` and non-finite floats are distinguishable on
/// the serve wire, while the legacy report JSON still collapses both to
/// `null` (its historical shape, unchanged).
#[test]
fn tagged_values_distinguish_undefined_from_not_finite() {
    // lambda1 needs >= 2 nodes: a single-node graph is undefined
    let single = tmp("single.edges");
    std::fs::write(&single, "nodes 1\n").expect("write");
    let reg = Registry::new(None, 1);
    assert_ok(&handle_line(
        &reg,
        &format!(
            r#"{{"op":"load","graph":"one","path":"{}"}}"#,
            single.display()
        ),
    ));
    let resp = assert_ok(&handle_line(
        &reg,
        r#"{"op":"metric","graph":"one","metrics":"lambda1","no_gcc":true}"#,
    ));
    let lambda1 = resp
        .get("result")
        .and_then(|r| r.get("values"))
        .and_then(|v| v.get("lambda1"))
        .expect("lambda1 entry");
    assert_eq!(
        lambda1.get("status").and_then(JsonValue::as_str),
        Some("undefined"),
        "tagged undefined on the wire: {resp}"
    );

    // the legacy report path keeps emitting untagged null for both...
    let report = Report {
        graph: Default::default(),
        records: vec![
            record("lambda1", MetricValue::Undefined),
            record("r", MetricValue::Scalar(f64::NAN)),
        ],
    };
    let legacy = report.to_json();
    assert!(
        legacy.contains("\"lambda1\":null") && legacy.contains("\"r\":null"),
        "report JSON unchanged: {legacy}"
    );
    // ...which is exactly the ambiguity the tagged encoding resolves
    use dk_serve::protocol::tagged_value;
    assert_eq!(
        tagged_value(&MetricValue::Scalar(f64::NAN)),
        r#"{"status":"not_finite","repr":"nan"}"#
    );
    assert_eq!(
        tagged_value(&MetricValue::Undefined),
        r#"{"status":"undefined"}"#
    );
    let _ = std::fs::remove_file(&single);
}

fn record(name: &str, value: MetricValue) -> dk_repro::metrics::report::MetricRecord {
    dk_repro::metrics::report::MetricRecord {
        metric: dk_repro::metrics::AnyMetric::get(name).expect("registered"),
        value,
    }
}

/// Satellite: admission control — requests that cannot fit the
/// effective budget are rejected with a structured error before any
/// allocation, and the effective budget is min(server, request).
#[test]
fn over_budget_requests_are_rejected_structurally() {
    let karate = write_karate("budget");
    // an open server: the request's own budget triggers rejection
    let reg = Registry::new(None, 1);
    assert_ok(&handle_line(
        &reg,
        &format!(
            r#"{{"op":"load","graph":"k","path":"{}"}}"#,
            karate.display()
        ),
    ));
    let tiny = r#"{"op":"metric","graph":"k","memory_budget":16}"#;
    assert_error(&handle_line(&reg, tiny), "over_budget");
    assert_eq!(reg.counters.rejected.load(Ordering::Relaxed), 1);
    // same request without the budget knob succeeds
    assert_ok(&handle_line(&reg, r#"{"op":"metric","graph":"k"}"#));

    // a server-wide budget rejects even budget-less requests
    let strict = Registry::new(Some(16), 1);
    assert_ok(&handle_line(
        &strict,
        &format!(
            r#"{{"op":"load","graph":"k","path":"{}"}}"#,
            karate.display()
        ),
    ));
    assert_error(
        &handle_line(&strict, r#"{"op":"metric","graph":"k"}"#),
        "over_budget",
    );
    // mutation verbs are priced through the same gate: neither may
    // clone the graph (rewire) or materialize a census (generate-into)
    // once the budget cannot fit the footprint
    assert_error(
        &handle_line(&strict, r#"{"op":"rewire","graph":"k","d":1,"seed":7}"#),
        "over_budget",
    );
    assert_error(
        &handle_line(
            &strict,
            r#"{"op":"generate-into","graph":"x","from":"k","d":1,"seed":7}"#,
        ),
        "over_budget",
    );
    // the rejected rewire mutated nothing: the entry is still epoch 1
    let stats = assert_ok(&handle_line(&strict, r#"{"op":"stats"}"#));
    assert_eq!(
        stats
            .get("graphs")
            .and_then(|g| g.get("k"))
            .and_then(|g| g.get("epoch"))
            .and_then(JsonValue::as_u64),
        Some(1),
        "rejected mutation must not bump the epoch"
    );
    // a generous budget is admitted and forwarded to the executor
    let roomy = Registry::new(Some(1 << 30), 1);
    assert_ok(&handle_line(
        &roomy,
        &format!(
            r#"{{"op":"load","graph":"k","path":"{}"}}"#,
            karate.display()
        ),
    ));
    assert_ok(&handle_line(&roomy, r#"{"op":"metric","graph":"k"}"#));
    let _ = std::fs::remove_file(&karate);
}

/// Tentpole contract: the same request stream + seeds produce
/// byte-identical response transcripts regardless of the server's
/// thread count.
#[test]
fn transcripts_are_byte_identical_across_thread_counts() {
    let karate = write_karate("threads");
    let run = |threads: usize| -> Vec<String> {
        let config = ServerConfig {
            socket: tmp(&format!("threads{threads}.sock")),
            memory_budget: None,
            threads,
        };
        let server = Server::spawn(&config).expect("bind");
        let mut client = Client::connect(&config.socket).expect("connect");
        let stream = [
            format!(r#"{{"op":"load","graph":"k","path":"{}"}}"#, karate.display()),
            r#"{"op":"metric","graph":"k","metrics":"default","samples":8}"#.to_string(),
            r#"{"op":"generate-into","graph":"g","from":"k","d":1,"seed":11}"#.to_string(),
            r#"{"op":"compare","a":"k","b":"g","metrics":"cheap"}"#.to_string(),
            r#"{"op":"attack","graph":"k","strategy":"degree","checkpoints":[0.1,0.5],"samples":8}"#
                .to_string(),
            r#"{"op":"rewire","graph":"k","d":1,"seed":7,"attempts":100}"#.to_string(),
            r#"{"op":"metric","graph":"k","metrics":"cheap"}"#.to_string(),
        ];
        let transcript = stream
            .iter()
            .map(|r| client.request(r).expect("request"))
            .collect();
        server.stop();
        transcript
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial, parallel, "byte-identical transcripts");
    let _ = std::fs::remove_file(&karate);
}

/// Satellite: malformed-request battery — structured errors for every
/// abuse, and the registry keeps serving afterwards.
#[test]
fn malformed_requests_get_structured_errors() {
    let karate = write_karate("malformed");
    let reg = Registry::new(None, 1);
    assert_ok(&handle_line(
        &reg,
        &format!(
            r#"{{"op":"load","graph":"k","path":"{}"}}"#,
            karate.display()
        ),
    ));
    let cases: &[(&str, &str)] = &[
        // truncated / invalid JSON (a slice of the jsonchk corpus)
        ("{", "parse"),
        (r#"{"op": }"#, "parse"),
        (r#"{"op":"stats"} trailing"#, "parse"),
        (r#"{"n": 1.2.3}"#, "parse"),
        ("\"open", "parse"),
        // structurally valid JSON, protocol-invalid requests
        ("[1,2]", "bad_request"),
        ("42", "bad_request"),
        (r#"{"no_op_here":1}"#, "bad_request"),
        (r#"{"op":"zap"}"#, "unknown_op"),
        (r#"{"op":"metric"}"#, "bad_request"),
        (r#"{"op":"metric","graph":"missing"}"#, "unknown_graph"),
        (
            r#"{"op":"metric","graph":"k","metrics":"bogus"}"#,
            "unknown_metric",
        ),
        (r#"{"op":"metric","graph":"k","samples":-3}"#, "bad_knob"),
        (r#"{"op":"metric","graph":"k","samples":1.5}"#, "bad_knob"),
        (r#"{"op":"metric","graph":"k","no_gcc":"yes"}"#, "bad_knob"),
        // knobs the CLI refuses are refused here too, never clamped
        (
            r#"{"op":"metric","graph":"k","sketch_bits":99}"#,
            "bad_knob",
        ),
        (r#"{"op":"metric","graph":"k","sketch_bits":3}"#, "bad_knob"),
        (
            r#"{"op":"metric","graph":"k","sketch_bits":4294967304}"#,
            "bad_knob",
        ),
        (r#"{"op":"metric","graph":"k","shards":0}"#, "bad_knob"),
        (
            r#"{"op":"metric","graph":"k","memory_budget":0}"#,
            "bad_knob",
        ),
        (
            r#"{"op":"attack","graph":"k","strategy":"bogus"}"#,
            "bad_knob",
        ),
        (
            r#"{"op":"attack","graph":"k","checkpoints":[2.0]}"#,
            "bad_knob",
        ),
        (
            r#"{"op":"attack","graph":"k","checkpoints":"0.5"}"#,
            "bad_knob",
        ),
        (r#"{"op":"rewire","graph":"k","d":7}"#, "bad_knob"),
        (r#"{"op":"rewire","graph":"k"}"#, "bad_request"),
        (
            r#"{"op":"generate-into","graph":"x","from":"k","d":1,"algo":"bogus"}"#,
            "bad_knob",
        ),
        (
            r#"{"op":"generate-into","graph":"x","from":"k","d":3,"algo":"matching"}"#,
            "bad_knob",
        ),
        (
            r#"{"op":"load","graph":"x","path":"/nonexistent/nope.edges"}"#,
            "io",
        ),
    ];
    for (request, code) in cases {
        assert_error(&handle_line(&reg, request), code);
    }
    // the daemon state survived the whole battery
    assert_ok(&handle_line(&reg, r#"{"op":"metric","graph":"k"}"#));
    let _ = std::fs::remove_file(&karate);
}

/// Binding discipline: a second daemon must not steal a live daemon's
/// socket, a stale socket file (dead daemon) is replaced, and a
/// non-socket file at the path is never deleted.
#[test]
fn spawn_refuses_to_steal_a_live_daemons_socket() {
    let config = ServerConfig {
        socket: tmp("livesock.sock"),
        memory_budget: None,
        threads: 1,
    };
    let server = Server::spawn(&config).expect("bind");
    let err = match Server::spawn(&config) {
        Err(e) => e,
        Ok(_) => panic!("second daemon must refuse to bind"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
    // the refusal left the first daemon fully operational
    let mut client = Client::connect(&config.socket).expect("still alive");
    assert_ok(&client.request(r#"{"op":"stats"}"#).expect("stats"));
    server.stop();

    // a stale socket file nobody accepts on is replaced
    {
        let _dead = std::os::unix::net::UnixListener::bind(&config.socket).expect("bind stale");
        // listener dropped here; the socket file stays behind
    }
    assert!(config.socket.exists(), "stale socket file left on disk");
    let revived = Server::spawn(&config).expect("stale socket replaced");
    let mut client = Client::connect(&config.socket).expect("connect");
    assert_ok(&client.request(r#"{"op":"stats"}"#).expect("stats"));
    revived.stop();

    // an unrelated regular file at the path survives untouched
    let plain = tmp("livesock_plain");
    std::fs::write(&plain, "precious").expect("write");
    let clobber = ServerConfig {
        socket: plain.clone(),
        memory_budget: None,
        threads: 1,
    };
    assert!(
        Server::spawn(&clobber).is_err(),
        "refuses to replace a non-socket file"
    );
    assert_eq!(
        std::fs::read_to_string(&plain).expect("still there"),
        "precious"
    );
    let _ = std::fs::remove_file(&plain);
}

/// Oversized requests: structured error over the real socket, then the
/// connection is closed; the daemon itself keeps serving.
#[test]
fn oversized_requests_close_the_connection_not_the_daemon() {
    let config = ServerConfig {
        socket: tmp("oversized.sock"),
        memory_budget: None,
        threads: 1,
    };
    let server = Server::spawn(&config).expect("bind");
    let mut client = Client::connect(&config.socket).expect("connect");
    // a single line larger than the cap, sent raw (Client::request
    // refuses to send it, which is itself part of the contract)
    let huge = format!(
        r#"{{"op":"stats","pad":"{}"}}"#,
        "x".repeat(dk_serve::MAX_REQUEST_BYTES)
    );
    assert!(client.request(&huge).is_err(), "client refuses oversized");
    {
        use std::io::{BufRead, BufReader, Write};
        let mut raw = std::os::unix::net::UnixStream::connect(&config.socket).expect("connect");
        raw.write_all(huge.as_bytes()).expect("send");
        raw.write_all(b"\n").expect("send");
        let mut line = String::new();
        BufReader::new(&raw).read_line(&mut line).expect("read");
        assert_error(line.trim_end(), "oversized");
    }
    // a fresh connection still works: the daemon survived
    let mut again = Client::connect(&config.socket).expect("reconnect");
    assert_ok(&again.request(r#"{"op":"stats"}"#).expect("stats"));
    server.stop();
}

/// A seeded Barabási–Albert graph (2 edges per new node, 3 seed nodes)
/// written as an edge list.
fn write_ba(tag: &str, nodes: usize, seed: u64) -> PathBuf {
    let path = tmp(&format!("{tag}_ba.edges"));
    let g = barabasi_albert(
        &BaParams {
            nodes,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(seed),
    );
    graph_io::save_edge_list(&g, &path).expect("write edge list");
    path
}

/// A daemon on its own socket holding `edges` as graph `g`.
fn serve_graph(tag: &str, edges: &Path) -> (Server, PathBuf) {
    let config = ServerConfig {
        socket: tmp(&format!("{tag}.sock")),
        memory_budget: None,
        threads: 2,
    };
    let server = Server::spawn(&config).expect("bind socket");
    let mut client = Client::connect(&config.socket).expect("connect");
    let load = format!(
        r#"{{"op":"load","graph":"g","path":"{}"}}"#,
        edges.display()
    );
    assert_ok(&client.request(&load).expect("load"));
    (server, config.socket)
}

/// One client's share of [`mixed_load`]: `requests` requests cycling
/// through ten warm lookups, two distinct-knob passes, one per-client
/// sample budget, two stats polls and one `over_budget` probe. Every
/// probe must be rejected and every other request succeed; returns the
/// number of probes.
fn client_mix(socket: &Path, id: usize, requests: usize) -> u64 {
    let mut client = Client::connect(socket).expect("connect");
    let mut probes = 0;
    for i in 0..requests {
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
        let response = client.request(&request).expect("request");
        if i % 16 == 15 {
            assert_error(&response, "over_budget");
            probes += 1;
        } else {
            assert_ok(&response);
        }
    }
    probes
}

/// `clients` connections run [`client_mix`] at once against a BA graph
/// of `nodes` nodes; the rejection counter must have seen every probe.
fn mixed_load(tag: &str, nodes: usize, clients: usize, requests: usize) {
    let edges = write_ba(tag, nodes, 20060911);
    let (server, socket) = serve_graph(tag, &edges);
    let socket = socket.as_path();
    let probes: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|id| scope.spawn(move || client_mix(socket, id, requests)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .sum()
    });
    let (_, _, _, rejected) = counter_snapshot(server.registry());
    assert!(
        rejected >= probes,
        "{rejected} rejections for {probes} probes"
    );
    server.stop();
    let _ = std::fs::remove_file(&edges);
}

/// `clients` connections send one identical cold request at once: one
/// computation answers all of them byte for byte, and every other
/// request parked on its flight or replayed its memo.
fn coalescing_barrage(tag: &str, nodes: usize, clients: usize) {
    let edges = write_ba(tag, nodes, 20060912);
    let (server, socket) = serve_graph(tag, &edges);
    let start = Barrier::new(clients);
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::connect(&socket).expect("connect");
                    start.wait();
                    client
                        .request(r#"{"op":"metric","graph":"g","metrics":"cheap","samples":48}"#)
                        .expect("request")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_ok(&bodies[0]);
    assert!(
        bodies.iter().all(|b| *b == bodies[0]),
        "coalesced responses must be byte-identical"
    );
    let (computed, coalesced, memo_hits, _) = counter_snapshot(server.registry());
    assert_eq!(computed, 1, "one computation for {clients} clients");
    assert_eq!(coalesced + memo_hits, clients as u64 - 1);
    server.stop();
    let _ = std::fs::remove_file(&edges);
}

#[test]
fn concurrent_mixed_load_and_coalescing_barrage() {
    mixed_load("mixed", 2000, 4, 32);
    coalescing_barrage("barrage", 2000, 4);
}

/// The daemon at scale: 8 × 150 concurrent mixed requests and an
/// 8-client barrage on 2·10⁴ nodes, then a 2·10⁵-node graph behind it:
/// a cold cheap pass, its warm repeat (a memo hit that computes
/// nothing and replays the same bytes) and one attack sweep.
#[test]
#[ignore = "release only: cargo test --release --test serve_protocol -- --ignored --exact large_graphs_under_concurrent_load --test-threads=1"]
fn large_graphs_under_concurrent_load() {
    mixed_load("mixed_large", 20_000, 8, 150);
    coalescing_barrage("barrage_large", 20_000, 8);

    let edges = write_ba("large", 200_000, 20060911);
    let (server, socket) = serve_graph("large", &edges);
    let mut client = Client::connect(&socket).expect("connect");
    let cheap = r#"{"op":"metric","graph":"g","metrics":"cheap"}"#;
    let cold = client.request(cheap).expect("cold request");
    assert_ok(&cold);
    let (computed, _, memo_hits, _) = counter_snapshot(server.registry());
    let warm = client.request(cheap).expect("warm request");
    assert_eq!(warm, cold, "the memo replays the cold response");
    let (computed_after, _, memo_hits_after, _) = counter_snapshot(server.registry());
    assert_eq!(
        (computed_after, memo_hits_after),
        (computed, memo_hits + 1),
        "the repeat is a memo hit"
    );
    let attack =
        r#"{"op":"attack","graph":"g","strategy":"degree","checkpoints":[0.05,0.25],"samples":16}"#;
    assert_ok(&client.request(attack).expect("attack request"));
    server.stop();
    let _ = std::fs::remove_file(&edges);
}
