//! End-to-end tests of the `dk` binary: the Orbis-style workflow driven
//! through the real executable (argument parsing included).

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;

/// The `dk` binary of this test's profile, built once per test process.
/// Cargo rebuilds it when a crate it uses changed and does nothing when
/// it is fresh, so the suite never drives a stale binary.
fn dk_bin() -> &'static Path {
    static DK: OnceLock<PathBuf> = OnceLock::new();
    DK.get_or_init(|| {
        let mut args = vec!["build", "-q", "-p", "dk-cli"];
        if !cfg!(debug_assertions) {
            args.push("--release");
        }
        let status = Command::new(env!("CARGO"))
            .args(&args)
            .status()
            .expect("cargo build dk-cli");
        assert!(status.success(), "cargo build -p dk-cli failed");
        // this test runs as `<target dir>/<profile>/deps/cli_end_to_end-<hash>`
        // and cargo builds the `dk` binary of the same profile into
        // `<target dir>/<profile>`, wherever `CARGO_TARGET_DIR` points
        let exe = std::env::current_exe().expect("test executable path");
        let profile_dir = exe
            .parent()
            .and_then(Path::parent)
            .expect("test executable lives in <profile>/deps");
        profile_dir.join(format!("dk{}", std::env::consts::EXE_SUFFIX))
    })
}

/// The scratch directory of one test, removed when dropped. The process
/// id and the test name in its path keep tests running in parallel (and
/// concurrent test processes) from reading each other's half-written
/// files.
struct Scratch(PathBuf);

impl std::ops::Deref for Scratch {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn tmpdir(test: &str) -> Scratch {
    let d = std::env::temp_dir().join(format!("dk_e2e_{}_{test}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    Scratch(d)
}

fn write_karate(dir: &Path) -> PathBuf {
    let p = dir.join("karate.edges");
    let g = dk_repro::graph::builders::karate_club();
    dk_repro::graph::io::save_edge_list(&g, &p).unwrap();
    p
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(dk_bin()).args(args).output().expect("run dk");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn help_and_unknown_command() {
    let (ok, text) = run(&["--help"]);
    assert!(ok);
    assert!(text.contains("USAGE"));
    let (ok, text) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(text.contains("unknown command"));
}

#[test]
fn extract_generate_compare_workflow() {
    let dir = tmpdir("extract_generate_compare_workflow");
    let graph = write_karate(&dir);
    let dist = dir.join("karate.2k");
    let out = dir.join("karate_regen.edges");

    let (ok, text) = run(&[
        "extract",
        "2",
        graph.to_str().unwrap(),
        "-o",
        dist.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("n = 34"));

    let (ok, text) = run(&[
        "generate",
        "2",
        dist.to_str().unwrap(),
        "-o",
        out.to_str().unwrap(),
        "--algo",
        "matching",
        "--seed",
        "5",
    ]);
    assert!(ok, "{text}");

    let (ok, text) = run(&["compare", graph.to_str().unwrap(), out.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(
        text.contains("D1 = 0"),
        "degrees must match exactly: {text}"
    );
    assert!(text.contains("D2 = 0"), "JDD must match exactly: {text}");
}

#[test]
fn rewire_and_metrics_via_binary() {
    let dir = tmpdir("rewire_and_metrics_via_binary");
    let graph = write_karate(&dir);
    let out = dir.join("karate_3k.edges");
    let (ok, text) = run(&[
        "rewire",
        "3",
        graph.to_str().unwrap(),
        "-o",
        out.to_str().unwrap(),
        "--attempts",
        "3000",
    ]);
    assert!(ok, "{text}");
    let (ok, text) = run(&["compare", graph.to_str().unwrap(), out.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(text.contains("D3 = 0"), "3K rewiring preserves 3K: {text}");
    let (ok, text) = run(&["metrics", graph.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(text.contains("k_avg"));
}

#[test]
fn rewire_refuses_orders_past_three() {
    // refused before the graph is read: the path need not exist
    let dir = tmpdir("rewire_refuses_orders_past_three");
    let graph = dir.join("absent.edges");
    let out = dir.join("out.edges");
    let (ok, text) = run(&[
        "rewire",
        "4",
        graph.to_str().unwrap(),
        "-o",
        out.to_str().unwrap(),
    ]);
    assert!(!ok, "{text}");
    assert!(!text.contains("panicked"), "{text}");
    assert!(text.contains("rewire supports d in 0..=3, got 4"), "{text}");
    assert!(!out.exists());
}

#[test]
fn metrics_flags_via_binary() {
    let dir = tmpdir("metrics_flags_via_binary");
    let graph = write_karate(&dir);
    let path = graph.to_str().unwrap();

    // --metrics reaches betweenness (unreachable pre-facade)
    let (ok, text) = run(&["metrics", path, "--metrics", "b_max,d_avg"]);
    assert!(ok, "{text}");
    assert!(text.contains("b_max"), "{text}");

    // --format json emits the machine-readable report
    let (ok, text) = run(&["metrics", path, "--format", "json", "--metrics", "k_avg"]);
    assert!(ok, "{text}");
    assert!(text.contains("\"metrics\":{\"k_avg\":"), "{text}");

    // --no-gcc is reflected in the graph summary
    let (ok, text) = run(&["metrics", path, "--format", "json", "--no-gcc"]);
    assert!(ok, "{text}");
    assert!(text.contains("\"gcc\":false"), "{text}");

    // unknown metric and unknown format fail cleanly
    let (ok, text) = run(&["metrics", path, "--metrics", "bogus"]);
    assert!(!ok);
    assert!(text.contains("unknown metric"), "{text}");
    let (ok, text) = run(&["metrics", path, "--format", "yaml"]);
    assert!(!ok);
    assert!(text.contains("unknown format"), "{text}");

    // --metrics help prints the capability listing, even without a graph
    let (ok, text) = run(&["metrics", "--metrics", "help"]);
    assert!(ok, "{text}");
    assert!(text.contains("all-pairs"), "{text}");

    // compare honors the shared flags instead of silently ignoring them
    let (ok, text) = run(&["compare", path, path, "--metrics", "bogus"]);
    assert!(!ok);
    assert!(text.contains("unknown metric"), "{text}");
}

#[test]
fn streaming_flags_via_binary() {
    let dir = tmpdir("streaming_flags_via_binary");
    let graph = write_karate(&dir);
    let path = graph.to_str().unwrap();
    let battery = ["--metrics", "d_avg,d_std,diameter,b_max,distance_approx"];

    // baseline: default route, machine-readable report
    let (ok, base) = run(&[&["metrics", path, "--format", "json"], &battery[..]].concat());
    assert!(ok, "{base}");

    // --shards at the default count must not change a single byte of
    // the JSON report, and the shape keys must all be present
    let (ok, streamed) = run(&[
        &["metrics", path, "--format", "json", "--shards", "64"],
        &battery[..],
    ]
    .concat());
    assert!(ok, "{streamed}");
    assert_eq!(base, streamed, "--shards 64 changed the report");
    for key in [
        "\"graph\":{",
        "\"analyzed_nodes\":34",
        "\"metrics\":{",
        "\"d_avg\":",
        "\"b_max\":",
        "\"distance_approx\":",
    ] {
        assert!(streamed.contains(key), "missing {key}: {streamed}");
    }

    // --memory-budget with suffixes parses and leaves results identical
    let (ok, budgeted) = run(&[
        &[
            "metrics",
            path,
            "--format",
            "json",
            "--memory-budget",
            "512M",
        ],
        &battery[..],
    ]
    .concat());
    assert!(ok, "{budgeted}");
    assert_eq!(base, budgeted);

    // compare honors the shared streaming flags too
    let (ok, text) = run(&["compare", path, path, "--shards", "8"]);
    assert!(ok, "{text}");
    assert!(text.contains("D1 = 0"), "{text}");

    // invalid values are rejected with CLI-worded errors naming the flag
    let (ok, text) = run(&["metrics", path, "--shards", "0"]);
    assert!(!ok);
    assert!(text.contains("--shards"), "{text}");
    assert!(text.contains("positive shard count"), "{text}");
    let (ok, text) = run(&["metrics", path, "--shards", "lots"]);
    assert!(!ok);
    assert!(text.contains("--shards"), "{text}");
    for bad in ["0", "huh", "12Q", ""] {
        let (ok, text) = run(&["metrics", path, "--memory-budget", bad]);
        assert!(!ok, "--memory-budget {bad:?} must be rejected");
        assert!(text.contains("--memory-budget"), "{text}");
        assert!(text.contains("512M"), "hint present: {text}");
        assert!(!text.contains("Analyzer"), "library API leaked: {text}");
    }
    // missing values fail cleanly
    let (ok, text) = run(&["metrics", path, "--shards"]);
    assert!(!ok);
    assert!(text.contains("missing value after --shards"), "{text}");

    // the capability listing documents the streaming flags
    let (ok, text) = run(&["metrics", "--metrics", "help"]);
    assert!(ok, "{text}");
    assert!(text.contains("--shards"), "{text}");
    assert!(text.contains("--memory-budget"), "{text}");
}

#[test]
fn sketch_flags_via_binary() {
    let dir = tmpdir("sketch_flags_via_binary");
    let graph = write_karate(&dir);
    let path = graph.to_str().unwrap();

    // the sketch metrics are reachable by name; the JSON report carries
    // the scalar twins and the [[x, p], ...] series shape
    let (ok, text) = run(&[
        "metrics",
        path,
        "--metrics",
        "distance_sketch,avg_distance_sketch,effective_diameter_sketch",
        "--sketch-bits",
        "8",
        "--format",
        "json",
    ]);
    assert!(ok, "{text}");
    for key in [
        "\"graph\":{",
        "\"analyzed_nodes\":34",
        "\"distance_sketch\":[[1,",
        "\"avg_distance_sketch\":",
        "\"effective_diameter_sketch\":",
    ] {
        assert!(text.contains(key), "missing {key}: {text}");
    }
    assert!(!text.contains("null"), "sketch values defined: {text}");

    // --sketch-bits is honored: a bigger register file sharpens the
    // estimate, so the two reports generally differ — but both parse
    let (ok, b10) = run(&[
        "metrics",
        path,
        "--metrics",
        "avg_distance_sketch",
        "--sketch-bits",
        "10",
        "--format",
        "json",
    ]);
    assert!(ok, "{b10}");
    assert!(b10.contains("\"avg_distance_sketch\":"), "{b10}");

    // invalid values are rejected with CLI-worded errors naming the flag
    for bad in ["3", "17", "0", "huh", "-4", "8.5"] {
        let (ok, text) = run(&["metrics", path, "--sketch-bits", bad]);
        assert!(!ok, "--sketch-bits {bad:?} must be rejected");
        assert!(text.contains("--sketch-bits"), "{text}");
        assert!(text.contains("4..=16"), "range named: {text}");
        assert!(!text.contains("Analyzer"), "library API leaked: {text}");
    }
    let (ok, text) = run(&["metrics", path, "--sketch-bits"]);
    assert!(!ok);
    assert!(text.contains("missing value after --sketch-bits"), "{text}");

    // compare honors the flag too
    let (ok, text) = run(&[
        "compare",
        path,
        path,
        "--metrics",
        "k_avg,avg_distance_sketch",
        "--sketch-bits",
        "6",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("avg_distance_sketch"), "{text}");

    // the capability listing documents the new cost class and its knob
    let (ok, text) = run(&["metrics", "--metrics", "help"]);
    assert!(ok, "{text}");
    assert!(text.contains("sketch"), "{text}");
    assert!(text.contains("--sketch-bits"), "{text}");
    assert!(
        text.contains("1.04/sqrt(2^B)"),
        "error formula listed: {text}"
    );
}

#[test]
fn missing_arguments_fail_cleanly() {
    let (ok, text) = run(&["extract", "2"]);
    assert!(!ok);
    assert!(text.contains("missing argument"), "{text}");
    let dir = tmpdir("missing_arguments_fail_cleanly");
    let graph = write_karate(&dir);
    let (ok, text) = run(&["extract", "2", graph.to_str().unwrap()]);
    assert!(!ok);
    assert!(text.contains("missing -o"), "{text}");
}

/// `dk` writes its result through a checked write. A reader that went
/// away ends it quietly with status 0; any other write error is an
/// `error:` line and status 2. Neither may panic (status 101).
#[test]
fn closed_or_full_stdout_fails_cleanly() {
    let dir = tmpdir("closed_or_full_stdout_fails_cleanly");
    let graph = write_karate(&dir);
    let dk = |stdout: Stdio| -> Output {
        Command::new(dk_bin())
            .args(["metrics", graph.to_str().unwrap()])
            .stdout(stdout)
            .output()
            .expect("run dk")
    };

    // a pipe whose read end is closed before `dk` starts
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = dk(writer.into());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(
        stderr.is_empty(),
        "a closed reader is not an error: {stderr}"
    );

    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("open /dev/full");
    let out = dk(full.into());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// SHA-256 of `data` as lowercase hex (FIPS 180-4), for pinning report
/// bytes without storing them.
fn sha256_hex(data: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&(8 * data.len() as u64).to_be_bytes());
    for block in msg.chunks(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (x, y) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *x = x.wrapping_add(y);
        }
    }
    h.iter().map(|x| format!("{x:08x}")).collect()
}

/// Runs `dk` in `dir` (so relative paths echoed into a report are the
/// same on every run) and returns the sha256 of its stdout.
fn stdout_digest(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(dk_bin())
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run dk");
    assert!(
        out.status.success(),
        "dk {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    sha256_hex(&out.stdout)
}

/// Report bytes pinned at the commit before analysis read its graph
/// from a CSR built straight from the edge list: every report below
/// must keep its exact bytes. The inputs cover a connected graph
/// analyzed in place, a GCC copy, an annealed skitter-like graph whose
/// file order is far from sorted (`r`, `s` and `s2` sum over edges),
/// the attack sweep, `compare`, and a 2·10⁴-node BA graph under the
/// sampled and sketch battery of the 10⁶-node benchmark.
#[test]
fn reports_match_parent_digests() {
    use dk_repro::graph::{builders, io::save_edge_list};
    use dk_repro::topologies::ba::{barabasi_albert, BaParams};
    use dk_repro::topologies::{skitter_like, AsLikeParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // the digest itself, on published vectors (one and two blocks)
    assert_eq!(
        sha256_hex(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    assert_eq!(
        sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );

    let dir = tmpdir("reports_match_parent_digests");
    save_edge_list(&builders::karate_club(), dir.join("karate.edges")).unwrap();
    let mut split = builders::path(4);
    split.add_node();
    split.add_node();
    save_edge_list(&split, dir.join("split.edges")).unwrap();
    let skitter = skitter_like(&AsLikeParams::small(), &mut StdRng::seed_from_u64(27));
    save_edge_list(&skitter, dir.join("skitter.edges")).unwrap();
    let ba = barabasi_albert(
        &BaParams {
            nodes: 20_000,
            edges_per_node: 2,
            seed_nodes: 3,
        },
        &mut StdRng::seed_from_u64(1),
    );
    save_edge_list(&ba, dir.join("ba.edges")).unwrap();

    let battery_1m = "n,m,gcc_fraction,k_avg,r,c_mean,kcore_max,distance_approx,\
betweenness_approx,avg_distance_sketch,effective_diameter_sketch";
    let json = ["--format", "json"];
    let cases: [(&[&str], &str); 10] = [
        (
            &["metrics", "karate.edges"],
            "a39739b7cc807a7850d2bdc1c85386953cc0a5470291047b48b0dfc747e963d6",
        ),
        (
            &["metrics", "karate.edges", "--metrics", "all"],
            "006e0824f91878d8907e57c01f7fd42eb83ae650d7df32a0a1254841e3c04e77",
        ),
        (
            &["metrics", "karate.edges", "--no-gcc", "--metrics", "all"],
            "0eee6ebc3ff41031cd74ad5a264ce5d277d6cb9ecca8cc80452ea261e195a314",
        ),
        (
            &["metrics", "split.edges", "--metrics", "all"],
            "a01eb0d022486572602badf9b11a934a3f001953787e317f8f681dae23214a23",
        ),
        (
            &["metrics", "skitter.edges"],
            "ce5c6be758b5ff2851d91feb100e98c6f5b100c37b48de113346a5758cb3e39c",
        ),
        (
            &["metrics", "skitter.edges", "--metrics", "all"],
            "f5dc5d420c88d0b6048b383d0027c2448dfaa5eff2b2b55499439297a3084b85",
        ),
        (
            &["attack", "skitter.edges"],
            "2cfeb75e2a81aade89088190b52de6e586ad62e26a768690b15d6d54aeabfe10",
        ),
        (
            &["compare", "skitter.edges", "karate.edges"],
            "736dda60523bbe01abadcb5d347a766ea6a19da96f70d76dba84af2aba36d375",
        ),
        (
            &[
                "compare",
                "skitter.edges",
                "karate.edges",
                "--metrics",
                "default,s2",
            ],
            "cab4b0f24574f66fbd44d4055bef4cd284916b5886b5f3d4244451011f754d67",
        ),
        (
            &[
                "metrics",
                "ba.edges",
                "--metrics",
                battery_1m,
                "--sketch-bits",
                "6",
            ],
            "428637e5462e1665a4bac77da38eb5829922a6df499f3966b6f180949bbba7b8",
        ),
    ];
    let mut wrong = Vec::new();
    for (args, want) in cases {
        let got = stdout_digest(&dir, &[args, &json[..]].concat());
        if got != want {
            wrong.push(format!("{args:?}: {got}"));
        }
    }
    assert!(wrong.is_empty(), "reports changed:\n{}", wrong.join("\n"));
}

/// An edgeless analyzed graph has likelihood `S = 0`, printed `0`: the
/// sum starts from an exact zero, not from the `-0.0` an empty f64 sum
/// gives.
#[test]
fn edgeless_inputs_report_s_zero() {
    let dir = tmpdir("edgeless_inputs_report_s_zero");
    for (name, text) in [("empty", ""), ("nodes3", "nodes 3\n"), ("loop", "0 0\n")] {
        let path = dir.join(format!("{name}.edges"));
        std::fs::write(&path, text).unwrap();
        let (ok, out) = run(&["metrics", path.to_str().unwrap(), "--format", "json"]);
        assert!(ok, "{name}: {out}");
        assert!(out.contains("\"s\":0,"), "{name}: {out}");
        assert!(!out.contains("\"s\":-0"), "{name}: {out}");
    }
}
