//! `perfbench` — the compiled half of the repository benchmark.
//!
//! `run.py` drives the `dk` binary for the timed end-to-end passes and
//! calls this helper for everything around them:
//!
//! ```text
//! perfbench gen      --workload W --seed S --dir D   seeded input files
//! perfbench check-dk --dir D                         census checks of a dk_series pass
//! perfbench replay   --dir D                         serial replay of the serve scripts
//! perfbench trace    --workload W --seed S --dir D   traced per-layer walk
//! ```
//!
//! Every subcommand prints one JSON object on stdout.

mod inputs;
mod trace;
mod walks;

use dk_metrics::json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use trace::Tracer;
use walks::Outcome;

/// Node counts of the workload inputs and of the small probe inputs a
/// traced run uses for layers its own workload does not exercise.
const M1M_NODES: usize = 1_000_000;
const SERVE_NODES: usize = 100_000;
const SERVE_CYCLES: usize = 20;
const PROBE_METRICS_NODES: usize = 20_000;
const PROBE_SERVE_NODES: usize = 5_000;
const PROBE_SERVE_CYCLES: usize = 2;

struct Args {
    cmd: String,
    flags: BTreeMap<String, String>,
}

impl Args {
    fn parse() -> Args {
        let mut raw = std::env::args().skip(1);
        let cmd = raw.next().unwrap_or_default();
        let mut flags = BTreeMap::new();
        while let Some(flag) = raw.next() {
            let key = flag.trim_start_matches("--").to_string();
            let value = raw
                .next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
            flags.insert(key, value);
        }
        Args { cmd, flags }
    }

    fn get(&self, key: &str) -> &str {
        self.flags
            .get(key)
            .map(String::as_str)
            .unwrap_or_else(|| fail(&format!("missing --{key}")))
    }

    fn dir(&self) -> PathBuf {
        PathBuf::from(self.get("dir"))
    }

    fn seed(&self) -> u64 {
        self.get("seed")
            .parse()
            .unwrap_or_else(|_| fail("bad --seed"))
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    std::process::exit(2)
}

fn main() {
    let args = Args::parse();
    let out = match args.cmd.as_str() {
        "gen" => gen(args.get("workload"), args.seed(), &args.dir()),
        "check-dk" => check_dk(&args.dir()),
        "replay" => replay(&args.dir()),
        "trace" => traced(args.get("workload"), args.seed(), &args.dir()),
        other => fail(&format!(
            "unknown subcommand {other:?} (gen|check-dk|replay|trace)"
        )),
    };
    println!("{out}");
}

fn write_script(path: &Path, script: &[String]) {
    std::fs::write(path, script.join("\n") + "\n").expect("write script");
}

fn read_scripts(dir: &Path) -> [Vec<String>; 2] {
    [0, 1].map(|i| {
        std::fs::read_to_string(dir.join(format!("script{i}.txt")))
            .expect("read script")
            .lines()
            .map(str::to_string)
            .collect()
    })
}

/// Writes the inputs of `workload` into `dir`.
fn gen(workload: &str, seed: u64, dir: &Path) -> String {
    let (file, g) = match workload {
        "metrics_1m" => ("ba1m.edges", inputs::ba(M1M_NODES, seed)),
        "dk_series" => ("as.edges", inputs::as_like(inputs::SKITTER_SEED, false)),
        "serve_mixed" => {
            for i in 0..2 {
                let script = inputs::script(i, SERVE_CYCLES, seed);
                write_script(&dir.join(format!("script{i}.txt")), &script);
            }
            ("serve.edges", inputs::ba(SERVE_NODES, seed))
        }
        other => fail(&format!("unknown workload {other:?}")),
    };
    inputs::save(&g, &dir.join(file));
    json::object([
        ("file".into(), format!("\"{file}\"")),
        ("n".into(), g.node_count().to_string()),
        ("m".into(), g.edge_count().to_string()),
    ])
}

fn checks_json(attempted: u64, failures: &[String]) -> Vec<(String, String)> {
    vec![
        ("attempted".into(), attempted.to_string()),
        (
            "failures".into(),
            json::array(failures.iter().map(|f| format!("\"{}\"", json::escape(f)))),
        ),
    ]
}

/// Census checks of the graphs a `dk_series` pass wrote into `dir`.
fn check_dk(dir: &Path) -> String {
    let load =
        |name: &str| dk_graph::io::load_edge_list(dir.join(name)).expect("pass output parses");
    let g = load("as.edges");
    let rewired: Vec<_> = (0..4).map(|d| load(&format!("rw{d}.edges"))).collect();
    let targeted: Vec<_> = [2, 3]
        .iter()
        .map(|d| load(&format!("t{d}.edges")))
        .collect();
    let census = walks::census_distances(&g, &rewired, &targeted);
    let mut out = Outcome::default();
    walks::check_census(&mut out, &census);
    let mut fields = checks_json(out.attempted, &out.failures);
    fields.push((
        "census".into(),
        json::object(census.iter().map(|(name, ds)| {
            (
                name.clone(),
                json::array(ds.iter().map(|&x| json::number(x))),
            )
        })),
    ));
    json::object(fields)
}

/// Serial in-process replay of each client's script into a registry of
/// its own (both run side by side: only client `i` touches `own{i}`,
/// and `shared` is read-only, so each transcript is what that client
/// must see); writes `dir/replay{0,1}.txt`.
fn replay(dir: &Path) -> String {
    let graph = dir.join("serve.edges");
    std::thread::scope(|s| {
        for (i, script) in read_scripts(dir).into_iter().enumerate() {
            let graph = &graph;
            s.spawn(move || {
                let mut solo = [Vec::new(), Vec::new()];
                solo[i] = script;
                let replayed = walks::replay(&mut Tracer::new(), graph, &solo, 1);
                write_script(&dir.join(format!("replay{i}.txt")), &replayed.responses[i]);
            });
        }
    });
    json::object([(
        "transcripts".into(),
        json::array(["\"replay0.txt\"".into(), "\"replay1.txt\"".into()]),
    )])
}

/// The traced run: the workload's own walk over its inputs in `dir`,
/// then small probe walks for the layers that workload does not
/// exercise (their names are listed under `probe_keys`).
fn traced(workload: &str, seed: u64, dir: &Path) -> String {
    let mut tr = Tracer::new();
    let probe_dir = dir.join("probe");
    std::fs::create_dir_all(&probe_dir).expect("create probe dir");
    let run = |tr: &mut Tracer, which: &str, dir: &Path, probe: bool| -> Outcome {
        match which {
            "metrics_1m" => {
                let input = dir.join("ba1m.edges");
                if probe {
                    inputs::save(&inputs::ba(PROBE_METRICS_NODES, seed), &input);
                }
                walks::metrics_walk(tr, &input, &dir.join("walk_report.json"))
            }
            "dk_series" => {
                let input = dir.join("as.edges");
                if probe {
                    inputs::save(&inputs::as_like(seed, true), &input);
                }
                walks::dk_walk(tr, &input, seed, dir)
            }
            _ => {
                let input = dir.join("serve.edges");
                let scripts = if probe {
                    inputs::save(&inputs::ba(PROBE_SERVE_NODES, seed), &input);
                    [0, 1].map(|i| inputs::script(i, PROBE_SERVE_CYCLES, seed))
                } else {
                    read_scripts(dir)
                };
                let (out, replayed) = walks::serve_walk(tr, &input, &scripts, dir);
                for (i, responses) in replayed.responses.iter().enumerate() {
                    write_script(&dir.join(format!("walk_replay{i}.txt")), responses);
                }
                out
            }
        }
    };
    let own = run(&mut tr, workload, dir, false);
    let coverage = tr.coverage(own.root);
    let mut values = own.values;
    let mut nulls = own.nulls;
    let (mut attempted, mut failures) = (own.attempted, own.failures);
    let mut probe_keys = Vec::new();
    for other in ["metrics_1m", "dk_series", "serve_mixed"] {
        if other == workload {
            continue;
        }
        let probe = run(&mut tr, other, &probe_dir, true);
        attempted += probe.attempted;
        failures.extend(
            probe
                .failures
                .into_iter()
                .map(|f| format!("probe {other}: {f}")),
        );
        for (k, v) in probe.values {
            if !values.contains_key(&k) && !nulls.contains(&k) {
                probe_keys.push(k.clone());
                values.insert(k, v);
            }
        }
        nulls.extend(probe.nulls.into_iter().filter(|k| !values.contains_key(k)));
    }
    nulls.sort();
    nulls.dedup();
    tr.write(&dir.join("spans.jsonl")).expect("write spans");
    let mut fields = checks_json(attempted, &failures);
    fields.extend([
        (
            "metrics".into(),
            json::object(values.iter().map(|(k, &v)| (k.clone(), json::number(v)))),
        ),
        (
            "nulls".into(),
            json::array(nulls.iter().map(|k| format!("\"{k}\""))),
        ),
        (
            "probe_keys".into(),
            json::array(probe_keys.iter().map(|k| format!("\"{k}\""))),
        ),
        ("coverage".into(), json::number(coverage)),
        ("mirror_s".into(), json::number(own.mirror_s)),
    ]);
    json::object(fields)
}
