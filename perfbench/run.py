#!/usr/bin/env python3
"""Repository benchmark: the three end-to-end paths of the dK pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload metrics_1m --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for what each stresses):
  metrics_1m   edge list -> JSON report: `dk metrics` on a 10^6-node BA graph
  dk_series    dK file -> generated graph: the paper's section 5 protocol
               (`dk extract`, `dk rewire`, `dk generate`, `dk metrics`)
  serve_mixed  client request -> response: a `dk serve` daemon under two
               closed-loop client connections with reads, writes and probes

The script builds `dk` and the `perfbench` helper from source (cargo,
offline, into $CARGO_TARGET_DIR or .bench_build), makes the inputs from
--seed, times whole passes until --seconds are used, checks every
output, and prints two JSON lines: a provenance record, then the result
`{"correct", "attempted", "failed", "metrics"}`. --trace 1 instead runs
one untraced pass plus the traced per-layer walk and reports the
per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("metrics_1m", "dk_series", "serve_mixed")
# Setup is repeated at least this often per run; setup_s is the median.
SETUP_SAMPLES = 5
# A single child process may not run longer than this.
CHILD_TIMEOUT_S = 150
M1M_METRICS = ("n,m,gcc_fraction,k_avg,r,c_mean,kcore_max,distance_approx,"
               "betweenness_approx,avg_distance_sketch,effective_diameter_sketch")
SERVE_CYCLE = 20
HIT_POSITIONS = {0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 19}
STATS_POSITIONS = {3, 15}
PROBE_POSITION = 11


class BenchError(Exception):
    """The benchmark cannot run here (no sources, failed build)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def source_digest():
    """Hash of every source file the build reads (the checkout is not
    necessarily a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path) for f in fs
            if "target" not in d.split(os.sep) and "__pycache__" not in d)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            h.update(sha256_file(f).encode())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def build():
    """Builds `dk` and the helper; returns their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates", "cli"))):
        raise BenchError("run from the root of a dk-repro checkout (no Cargo.toml / crates/cli)")
    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for extra in (["-p", "dk-cli"],
                  ["--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + extra
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(target, "release", "dk"), os.path.join(target, "release", "perfbench")


def reap(p, timeout):
    """Waits for child `p` (killing it after `timeout` s); returns its
    exit code and its own peak RSS in MiB (`wait4`, so per process)."""
    watchdog = threading.Timer(timeout, p.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        watchdog.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, usage.ru_maxrss / 1024.0


class Proc:
    """One finished child: wall seconds, exit code, peak RSS, stdout."""

    def __init__(self, cmd):
        err_path = os.path.join(ROOT, ".bench_stderr")
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
            self.stdout = p.stdout.read()
            self.code, self.rss_mb = reap(p, CHILD_TIMEOUT_S)
            self.wall = time.perf_counter() - t0
        p.stdout.close()
        with open(err_path, "rb") as err:
            self.stderr = err.read().decode(errors="replace")
        os.remove(err_path)

    def ok(self):
        return self.code == 0

    def json(self):
        return json.loads(self.stdout.decode().strip().splitlines()[-1])


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            log("CHECK FAILED: " + what)
        return ok

    def merge(self, attempted, failures):
        """Adds checks made by the helper."""
        self.attempted += attempted - len(failures)
        for f in failures:
            self.expect(False, f)


def pctl(values, q):
    """Nearest-rank percentile of a non-empty list."""
    xs = sorted(values)
    rank = max(1, -(-len(xs) * q // 100))
    return xs[int(rank) - 1]


class Workload:
    """Common run loop: setup samples, timed passes, aggregation."""

    name = ""
    # A run times at least this many passes, and at least --seconds of
    # them; every end-to-end time is a median over passes. The counts
    # keep one run of each workload within about 50 s on a 2-core
    # machine, so that many repeated runs stay affordable.
    min_passes = 2

    def __init__(self, dk, helper, seed, work, checks):
        self.dk, self.helper, self.seed, self.checks = dk, helper, seed, checks
        self.rel_work = os.path.relpath(work, ROOT)
        self.inputs = {}
        self.commands = []

    def path(self, name):
        return os.path.join(self.rel_work, name)

    def run(self, cmd):
        p = Proc(cmd)
        self.commands.append(" ".join(os.path.relpath(c, ROOT) if os.path.isabs(c) else c
                                      for c in cmd))
        self.checks.expect(p.ok(), f"{cmd[1] if len(cmd) > 1 else cmd[0]} exited {p.code}: "
                           f"{p.stderr.strip()[-300:]}")
        return p

    def generate(self):
        p = self.run([self.helper, "gen", "--workload", self.name, "--seed", str(self.seed),
                      "--dir", self.rel_work])
        self.gen_info = p.json()

    def setup(self):
        """One setup sample; returns its seconds."""
        t0 = time.perf_counter()
        self.generate()
        self.boot()
        return time.perf_counter() - t0

    def boot(self):
        pass

    def teardown(self):
        pass

    def measure(self, seconds):
        setups, passes = [], []
        while True:
            setups.append(self.setup())
            passes.append(self.one_pass())
            self.teardown()
            if len(passes) >= self.min_passes and sum(p["wall"] for p in passes) >= seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.setup())
            self.teardown()
        self.verify(passes)
        for name in self.input_files():
            self.inputs[name] = sha256_file(self.path(name))
        lats = [x for p in passes for x in p["latencies"]]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
            "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MiB"),
            "throughput_ops": (len(lats) / sum(p["wall"] for p in passes), "ops/s"),
            "latency_p50_ms": (1e3 * statistics.median(lats), "ms"),
            "latency_p99_ms": (1e3 * pctl(lats, 99), "ms"),
        }
        extra = {"passes": len(passes), "setup_samples": len(setups),
                 "latency_samples": len(lats), "pass_walls_s": [p["wall"] for p in passes],
                 "setups_s": setups}
        extra.update(self.extra(passes))
        return metrics, extra

    def extra(self, passes):
        return {}

    def verify(self, passes):
        pass


class Metrics1M(Workload):
    """`dk metrics` on the 10^6-node BA edge list (streamed route)."""

    name = "metrics_1m"

    def input_files(self):
        return ["ba1m.edges"]

    def cli(self):
        return [self.dk, "metrics", self.path("ba1m.edges"), "--metrics", M1M_METRICS,
                "--sketch-bits", "6", "--format", "json"]

    def one_pass(self):
        p = self.run(self.cli())
        return {"wall": p.wall, "rss_mb": p.rss_mb, "latencies": [p.wall],
                "report": p.stdout}

    def check_report(self, raw):
        c = self.checks
        try:
            rep = json.loads(raw)
        except ValueError:
            return c.expect(False, "metrics_1m: report is not JSON")
        g, m = rep["graph"], rep["metrics"]
        n, edges = self.gen_info["n"], self.gen_info["m"]
        c.expect(g["nodes"] == n and g["edges"] == edges, f"metrics_1m: graph summary {g}")
        c.expect(m.get("n") == n and m.get("m") == edges and m.get("gcc_fraction") == 1,
                 f"metrics_1m: n/m/gcc_fraction {m}")
        c.expect(m.get("k_avg") == 2 * edges / n, f"metrics_1m: k_avg {m.get('k_avg')}")
        c.expect(m.get("kcore_max") == 2, f"metrics_1m: kcore_max {m.get('kcore_max')}")
        names = M1M_METRICS.split(",")
        c.expect(all(isinstance(m.get(k), (int, float)) for k in names),
                 f"metrics_1m: missing or undefined scalars {m}")
        # the two distance estimators agree within the sketch's error
        d_s, d_a = m.get("avg_distance_sketch"), m.get("distance_approx")
        c.expect(isinstance(d_s, float) and isinstance(d_a, float)
                 and abs(d_s - d_a) / d_a < 0.1, f"metrics_1m: d_avg sketch {d_s} vs sampled {d_a}")
        return True

    def verify(self, passes):
        self.check_report(passes[0]["report"])
        for p in passes[1:]:
            self.checks.expect(p["report"] == passes[0]["report"],
                               "metrics_1m: report differs between passes")
        self.report_digest = hashlib.sha256(passes[0]["report"]).hexdigest()

    def extra(self, passes):
        return {"report_sha256": self.report_digest}


class DkSeries(Workload):
    """The paper's section 5 protocol on the skitter-like input."""

    name = "dk_series"
    min_passes = 1
    GRAPHS = ("as", "rw0", "rw1", "rw2", "rw3", "t2", "t3")

    def input_files(self):
        return ["as.edges"]

    def rewire_seed(self, d):
        return self.seed * 100 + d

    def generate_seed(self, d):
        return self.seed * 100 + 10 + d

    def one_pass(self):
        dk, path = self.dk, self.path
        calls, gen_s, rss = 0, 0.0, 0.0
        t0 = time.perf_counter()

        def call(cmd, generating=False):
            nonlocal calls, gen_s, rss
            p = self.run(cmd)
            calls += 1
            rss = max(rss, p.rss_mb)
            if generating:
                gen_s += p.wall
            return p

        for d in (1, 2, 3):
            call([dk, "extract", str(d), path("as.edges"), "-o", path(f"as.{d}k")])
        for d in (0, 1, 2, 3):
            call([dk, "rewire", str(d), path("as.edges"), "-o", path(f"rw{d}.edges"),
                  "--seed", str(self.rewire_seed(d))], generating=True)
        for d in (2, 3):
            call([dk, "generate", str(d), path(f"as.{d}k"), "-o", path(f"t{d}.edges"),
                  "--algo", "targeting", "--seed", str(self.generate_seed(d))], generating=True)
        reports = {}
        for g in self.GRAPHS:
            reports[g] = call([dk, "metrics", path(f"{g}.edges"), "--format", "json"]).stdout
        wall = time.perf_counter() - t0
        outputs = {g: sha256_file(path(f"{g}.edges")) for g in self.GRAPHS[1:]}
        outputs.update({f"{g}.json": hashlib.sha256(r).hexdigest() for g, r in reports.items()})
        # the pipeline counts as one operation: its latency is the pass
        return {"wall": wall, "rss_mb": rss, "latencies": [wall], "generate_s": gen_s,
                "outputs": outputs, "reports": reports, "calls": calls}

    def verify(self, passes):
        c = self.checks
        for p in passes[1:]:
            c.expect(p["outputs"] == passes[0]["outputs"], "dk_series: outputs differ between passes")
        for g, raw in passes[0]["reports"].items():
            try:
                m = json.loads(raw)["metrics"]
                c.expect(all(isinstance(m.get(k), (int, float)) for k in
                             ("n", "m", "k_avg", "r", "c_mean", "d_avg", "lambda1")),
                         f"dk_series: {g} report lacks scalars")
            except (ValueError, KeyError):
                c.expect(False, f"dk_series: {g} report is not a JSON report")
        p = self.run([self.helper, "check-dk", "--dir", self.rel_work])
        if p.ok():
            out = p.json()
            c.merge(out["attempted"], out["failures"])
            self.census = out["census"]
        self.outputs = passes[0]["outputs"]

    def extra(self, passes):
        return {"generate_s": statistics.median(p["generate_s"] for p in passes),
                "calls_per_pass": passes[0]["calls"],
                "final_d2_targeting": self.census.get("t2", [None] * 4)[2],
                "final_d3_targeting": self.census.get("t3", [None] * 4)[3],
                "census": self.census, "output_sha256": self.outputs}


class ServeClient:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.reader = self.sock.makefile("rb")

    def request(self, line):
        self.sock.sendall(line.encode() + b"\n")
        resp = self.reader.readline()
        if not resp:
            raise ConnectionError("daemon closed the connection")
        return resp.rstrip(b"\n").decode()

    def close(self):
        self.reader.close()
        self.sock.close()


class ServeMixed(Workload):
    """A `dk serve` daemon (default --threads 1) under two client connections."""

    name = "serve_mixed"

    def input_files(self):
        return ["serve.edges", "script0.txt", "script1.txt"]

    daemon = boot_client = None

    def boot(self):
        sock = self.path("dk.sock")
        if os.path.exists(sock):
            os.remove(sock)
        self.daemon = subprocess.Popen([self.dk, "serve", "--socket", sock], cwd=ROOT,
                                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.perf_counter() + 30
        while True:
            try:
                self.boot_client = ServeClient(sock)
                break
            except OSError:
                if time.perf_counter() > deadline or self.daemon.poll() is not None:
                    raise BenchError("dk serve did not come up")
                time.sleep(0.002)
        for name in ("shared", "own0", "own1"):
            resp = self.boot_client.request(json.dumps(
                {"op": "load", "graph": name, "path": self.path("serve.edges")}))
            self.checks.expect('"ok":true' in resp, f"serve_mixed: load {name}: {resp}")

    def teardown(self):
        """Shuts the daemon down; returns its peak RSS in MiB."""
        daemon, client = self.daemon, self.boot_client
        self.daemon = self.boot_client = None
        if daemon is None or daemon.returncode is not None:
            return None
        try:
            client.request('{"op":"shutdown"}')
            client.close()
        except (AttributeError, OSError):
            daemon.kill()
        return reap(daemon, 30)[1]

    def one_pass(self):
        scripts = self.read_pair("script")
        results = [None, None]
        start = threading.Barrier(3)

        def client(i):
            conn = ServeClient(self.path("dk.sock"))
            start.wait()
            rows = []
            for line in scripts[i]:
                t0 = time.perf_counter()
                resp = conn.request(line)
                rows.append((time.perf_counter() - t0, resp))
            conn.close()
            results[i] = rows

        threads = [threading.Thread(target=client, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        start.wait()
        t0 = time.perf_counter()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        stats = json.loads(self.boot_client.request('{"op":"stats"}'))["counters"]
        rss = self.teardown()
        lat = [r[0] for rows in results for r in rows]
        hits = [r[0] for rows in results for k, r in enumerate(rows)
                if k % SERVE_CYCLE in HIT_POSITIONS]
        return {"wall": wall, "rss_mb": rss, "latencies": lat,
                "hit_p50_ms": 1e3 * statistics.median(hits),
                "transcripts": [[r[1] for r in rows] for rows in results], "counters": stats}

    def read_pair(self, prefix):
        """Lines of `<prefix>0.txt` and `<prefix>1.txt` (one per client)."""
        out = []
        for i in (0, 1):
            with open(self.path(f"{prefix}{i}.txt")) as f:
                out.append(f.read().splitlines())
        return out

    def expected_counters(self, cycles):
        """Registry counts the scripts imply. Per client and cycle, 16
        requests go through the coalesce/memo path (11 hits, 3 own reads,
        the shared varying read, the attack); the distinct computations
        are the 4 own ones per client, one shared varying read per cycle,
        and the first `cheap` read on `shared`. Each probe is one rejection."""
        computed = 2 * 4 * cycles + cycles + 1
        return {"computed": computed, "reused": 2 * 16 * cycles - computed,
                "rejected": 2 * cycles}

    def verify(self, passes, replay=None):
        """Checks each pass against serial in-process replays of the
        scripts (`replay`: the transcripts, made here when None)."""
        c = self.checks
        if replay is None:
            if not self.run([self.helper, "replay", "--dir", self.rel_work]).ok():
                return
            replay = self.read_pair("replay")
        self.expected = self.expected_counters(len(replay[0]) // SERVE_CYCLE)
        want = [digest(t) for t in replay]
        for n, ps in enumerate(passes):
            for i, transcript in enumerate(ps["transcripts"]):
                c.expect(digest(transcript) == want[i],
                         f"serve_mixed: pass {n} client {i} transcript differs from the replay")
                for k, resp in enumerate(transcript):
                    if k % SERVE_CYCLE == PROBE_POSITION:
                        c.expect('"code":"over_budget"' in resp,
                                 f"serve_mixed: probe {k} not rejected: {resp[:200]}")
                    elif k % SERVE_CYCLE not in STATS_POSITIONS:
                        c.expect(resp.startswith('{"ok":true'),
                                 f"serve_mixed: request {k} failed: {resp[:200]}")
            cnt = ps["counters"]
            got = {"computed": cnt["computed"], "reused": cnt["coalesced"] + cnt["memo_hits"],
                   "rejected": cnt["rejected"]}
            c.expect(got == self.expected, f"serve_mixed: counters {got}, scripts imply {self.expected}")

    def extra(self, passes):
        return {"counters": passes[-1]["counters"],
                "hit_p50_ms": statistics.median(p["hit_p50_ms"] for p in passes)}


def digest(transcript):
    """sha256 of a transcript without its `stats` responses."""
    h = hashlib.sha256()
    for k, resp in enumerate(transcript):
        if k % SERVE_CYCLE not in STATS_POSITIONS:
            h.update(resp.encode() + b"\n")
    return h.hexdigest()


KINDS = {"metrics_1m": Metrics1M, "dk_series": DkSeries, "serve_mixed": ServeMixed}


def traced(w, checks):
    """One untraced pass, then the helper's traced walk; per-layer metrics."""
    w.setup()
    untraced = w.one_pass()
    w.teardown()
    if w.name != "serve_mixed":
        w.verify([untraced])
    for name in w.input_files():
        w.inputs[name] = sha256_file(w.path(name))
    p = w.run([w.helper, "trace", "--workload", w.name, "--seed", str(w.seed), "--dir", w.rel_work])
    if not p.ok():
        return {}, {}
    out = p.json()
    checks.merge(out["attempted"], out["failures"])
    # the walk's outputs must equal the CLI's, byte for byte
    if w.name == "metrics_1m":
        with open(w.path("walk_report.json"), "rb") as f:
            checks.expect(f.read() == untraced["report"],
                          "metrics_1m: traced report differs from `dk metrics`")
    elif w.name == "dk_series":
        for g in DkSeries.GRAPHS:
            with open(w.path(f"walk_{'orig' if g == 'as' else g}.json"), "rb") as f:
                checks.expect(f.read() == untraced["reports"][g],
                              f"dk_series: traced report of {g} differs from `dk metrics`")
            if g != "as":
                checks.expect(sha256_file(w.path(f"walk_{g}.edges")) == untraced["outputs"][g],
                              f"dk_series: traced {g} graph differs from the CLI's")
    else:
        m = out["metrics"]
        w.verify([untraced], w.read_pair("walk_replay"))
        got = {k: m[f"registry.{k}"] for k in ("computed", "reused", "rejected")}
        checks.expect(got == w.expected,
                      f"serve_mixed: replay counters {got}, scripts imply {w.expected}")
    values = dict(out["metrics"], **{k: None for k in out["nulls"]})
    values["trace.coverage"] = out["coverage"]
    values["trace.overhead"] = out["mirror_s"] / untraced["wall"]
    metrics = {k: (values[k], unit) for k, unit in layer_units().items()}
    extra = {"untraced_wall_s": untraced["wall"], "mirror_s": out["mirror_s"],
             "probe_keys": out["probe_keys"], "spans": os.path.join(w.rel_work, "spans.jsonl")}
    return metrics, extra


def layer_units():
    """Unit of every per-layer metric, as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


def run_workload(name, args, dk, helper):
    """Runs one workload; returns (provenance record, result) or None."""
    work = os.path.join(ROOT, ".bench_work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    checks = Checks()
    w = KINDS[name](dk, helper, args.seed, work, checks)
    try:
        if args.trace:
            metrics, extra = traced(w, checks)
        else:
            metrics, extra = w.measure(args.seconds)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {name} aborted: {e!r}")
        return None
    finally:
        w.teardown()
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(), "source_sha256": source_digest(),
        "input_sha256": w.inputs, "commands": sorted(set(w.commands)),
        "threads": {"nproc": os.cpu_count(), "analysis": "all cores (dk default)",
                    "serve": 1, "clients": 2 if name == "serve_mixed" else 0},
        "metrics": {k: v for k, (v, _) in metrics.items()}, "detail": extra,
        "checks": {"attempted": checks.attempted, "failures": checks.failures},
    }
    os.makedirs(os.path.join(ROOT, ".bench_results"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_results", "records.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    if not args.trace:
        shutil.rmtree(work, ignore_errors=True)
    return record, {
        "correct": not checks.failures,
        "attempted": max(1, checks.attempted),
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind through the `finally` blocks that stop the daemon
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        dk, helper = build()
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        done = run_workload(name, args, dk, helper)
        if done is None:
            return 1
        record, results[name] = done
        print(json.dumps(record))
        if args.workload == "all":
            for k, m in results[name]["metrics"].items():
                log(f"{name:12s} {k:28s} {m['value']!s:>24} {m['unit']}")
    # the last stdout line is the result (one object per workload for `all`)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
