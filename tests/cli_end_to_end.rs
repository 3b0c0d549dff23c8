//! End-to-end tests of the `dk` binary: the Orbis-style workflow driven
//! through the real executable (argument parsing included).

use std::path::{Path, PathBuf};
use std::process::Command;

fn dk_bin() -> PathBuf {
    // this test runs as `<target dir>/<profile>/deps/cli_end_to_end-<hash>`
    // and cargo builds the `dk` binary of the same profile into
    // `<target dir>/<profile>`, wherever `CARGO_TARGET_DIR` points
    let exe = std::env::current_exe().expect("test executable path");
    let profile_dir = exe
        .parent()
        .and_then(Path::parent)
        .expect("test executable lives in <profile>/deps");
    profile_dir.join(format!("dk{}", std::env::consts::EXE_SUFFIX))
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
    let bin = dk_bin();
    if !bin.exists() {
        // binary not built in this profile — build it once
        let mut args = vec!["build", "-p", "dk-cli"];
        if !cfg!(debug_assertions) {
            args.push("--release");
        }
        let status = Command::new(env!("CARGO"))
            .args(&args)
            .status()
            .expect("cargo build dk-cli");
        assert!(status.success());
    }
    let out = Command::new(&bin).args(args).output().expect("run dk");
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
