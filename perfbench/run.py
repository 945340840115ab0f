#!/usr/bin/env python3
"""The qbgraph benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see perfbench/README.md):

  verify-all    `qbgraph verify --suite all` in one fresh interpreter
  export-large  five CLI exports at the largest size each layer handles,
                each in its own fresh interpreter
  query-mix     a seeded mix of warm queries against prebuilt A5/A2 contexts

A run repeats passes over the workload until the next pass would end past
--seconds (at least one pass), every pass in fresh interpreters, then
checks every output.  With --trace 0 it prints the end-to-end metrics, in
reference seconds: each worker probes the host's speed as it runs (see
speed.py), and every timed interval is scaled by the speed measured around
it.  With --trace 1 it runs one untraced and one traced pass over the same
inputs, requires byte-identical outputs, and prints the per-layer metrics,
in plain seconds.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import querymix  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
from speed import now  # noqa: E402

PINS = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))

EXPORTS = {
    "e6-quotient": ["qbg", "--type", "E", "--rank", "6", "--parabolic", "2,3,4,5,6",
                    "--format", "json"],
    "a6-graph": ["qbg", "--type", "A", "--rank", "6", "--format", "json"],
    "a6-walk-lift": ["lift", "--type", "A", "--rank", "6", "--parabolic", "1", "--start=",
                     "--walk=0,1,0,0,0,0", "--format", "json"],
    "a5-edge-lifts": ["lift", "--type", "A", "--rank", "5", "--parabolic", "3",
                      "--format", "json"],
    "c4-slice": ["poset", "--type", "C", "--rank", "4", "--lambda", "1,1,1,1",
                 "--window", "8", "--format", "json"],
}
QUERIES_PER_PASS = 1000
SETUP_SAMPLES = 7  # set-up is measured this many times per run; the median counts
RUN_LIMIT_S = 170  # every child is killed past this point; a run must end by 180 s
LAYERS = ("root_system", "weyl", "qbg", "affine", "level_zero", "tilted", "verify",
          "render", "cli")


def sha256_file(path: pathlib.Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Child:
    """One finished worker process: stamps, exit code, peak RSS, status."""

    def __init__(self, spawn, exit_, code, rss_mb, status, err):
        self.spawn, self.exit, self.code = spawn, exit_, code
        self.rss_mb, self.status, self.err = rss_mb, status, err
        self.samples = [tuple(x) for x in status["samples"]] if status else []
        self.paused = status["paused"] if status else 0.0

    @property
    def ok(self) -> bool:
        return self.code == 0 and self.status is not None

    @property
    def whole(self) -> tuple[float, float, float]:
        """(start, end, probe time inside) from spawn to exit."""
        return self.spawn, self.exit, self.paused

    @property
    def setup(self) -> tuple[float, float, float]:
        """(start, end, probe time inside) from spawn until ready."""
        return self.spawn, self.status["ready"], self.status["paused_ready"]


def raw_s(parts) -> float:
    return sum(b - a - paused for a, b, paused in parts)


def adjusted_s(parts, host: speed.Speed) -> float:
    return sum(host.adjust(*part) for part in parts)


class Runner:
    """Starts workers inside a scratch directory and reaps each one."""

    def __init__(self, tmp: pathlib.Path, deadline: float, sample: bool):
        self.tmp = tmp
        self.deadline = deadline
        self.sample = sample  # run the host speed sampler in timed workers
        self.children: list[Child] = []
        self.serial = 0
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src

    def path(self, stem: str) -> pathlib.Path:
        self.serial += 1
        return self.tmp / f"{self.serial:03d}-{stem}"

    def spawn(self, *args: str) -> Child:
        status = self.path("status.json")
        errors = self.path("stderr.txt")
        sample = ["--sample"] if self.sample and args[0] != "figures" else []
        argv = [sys.executable, str(HERE / "worker.py"), args[0], "--status", str(status),
                *sample, *args[1:]]
        with open(errors, "wb") as err:
            t0 = now()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            wait_status, rusage = _wait(proc.pid, self.deadline - now())
            t1 = now()
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        doc = None
        if proc.returncode == 0 and status.exists():
            doc = json.loads(status.read_text(encoding="utf-8"))
        tail = errors.read_text(encoding="utf-8", errors="replace")[-2000:]
        child = Child(t0, t1, proc.returncode, rusage.ru_maxrss / 1024, doc, tail)
        self.children.append(child)
        return child


def _wait(pid: int, timeout: float):
    """wait4 with a deadline: past it the child is killed, then reaped."""

    def expire(_signum, _frame):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, wait_status, rusage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return wait_status, rusage


class Pass:
    """One pass over a workload's requests, with what its gates found.

    Times are kept as lists of (start, end, probe time inside) intervals, so
    that they can be turned into reference seconds once the whole run's
    speed samples are in."""

    def __init__(self):
        self.children: list[Child] = []
        self.labels: list[str] = []  # what each child ran
        self.wall_parts: list[tuple] = []
        self.requests: list[list[tuple]] = []  # the intervals of each request
        self.kinds: list[str] = []  # request kind per request
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[str, str] = {}  # request -> output digest
        self.problems: list[str] = []
        self.trace_paths: list[str] = []

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    @property
    def wall(self) -> float:
        return raw_s(self.wall_parts)

    @property
    def latencies(self) -> list[float]:
        return [raw_s(parts) for parts in self.requests]


# -- workloads ---------------------------------------------------------------------------


def verify_pass(runner: Runner, seed: int, trace: bool) -> Pass:
    del seed  # the suites are fixed
    res = Pass()
    report = runner.path("verify.json")
    trace_path = str(runner.path("trace.json")) if trace else ""
    child = runner.spawn("cli", "--trace", trace_path, "verify", "--suite", "all",
                         "--format", "json", "--out", str(report))
    res.children.append(child)
    res.labels.append("verify")
    res.wall_parts = [child.whole]
    pinned = PINS["verify_cases"]
    res.attempted = sum(pinned.values())
    if not child.ok or not report.exists():
        res.fail(res.attempted, f"verify exited {child.code}: {child.err}")
        return res
    if trace:
        res.trace_paths.append(trace_path)
    res.requests = [res.wall_parts]
    res.kinds = ["verify"]
    res.outputs["verify"] = sha256_file(report)
    doc = json.loads(report.read_text(encoding="utf-8"))
    got = {s["suite"]: s for s in doc["suites"]}
    res.attempted = sum(max(len(got[n]["cases"]) if n in got else 0, pinned.get(n, 0))
                        for n in set(got) | set(pinned))
    for name, count in pinned.items():
        cases = got[name]["cases"] if name in got else []
        if len(cases) < count:
            res.fail(count - len(cases), f"suite {name}: {len(cases)} cases, pinned {count}")
    for name, suite in got.items():
        bad = [c["name"] for c in suite["cases"] if not c["passed"]]
        if bad or not suite["passed"]:
            res.fail(len(bad), f"suite {name} failed: {bad}")
    if not doc["passed"]:
        res.problems.append("report says not passed")
        res.failed = max(res.failed, 1)
    return res


def export_pass(runner: Runner, seed: int, trace: bool) -> Pass:
    res = Pass()
    order = sorted(EXPORTS)
    random.Random(seed).shuffle(order)
    for name in order:
        out = runner.path(f"{name}.json")
        trace_path = str(runner.path("trace.json")) if trace else ""
        child = runner.spawn("cli", "--trace", trace_path, *EXPORTS[name], "--out", str(out))
        res.children.append(child)
        res.labels.append(name)
        res.wall_parts.append(child.whole)
        res.attempted += 1
        if not child.ok or not out.exists():
            res.fail(1, f"{name} exited {child.code}: {child.err}")
            continue
        if trace:
            res.trace_paths.append(trace_path)
        digest = sha256_file(out)
        out.unlink()
        res.outputs[name] = digest
        if digest != PINS["exports"][name]:
            res.fail(1, f"{name}: sha256 {digest} differs from the pinned output")
    # One request is the whole batch: a median over five unlike exports
    # would jump between them from run to run.
    res.requests = [res.wall_parts]
    res.kinds = ["export-large"]
    return res


def query_pass(runner: Runner, seed: int, trace: bool) -> Pass:
    res = Pass()
    queries = querymix.make_queries(seed, QUERIES_PER_PASS)
    inputs = runner.path("queries.json")
    inputs.write_text(json.dumps(queries), encoding="utf-8")
    trace_path = str(runner.path("trace.json")) if trace else ""
    child = runner.spawn("queries", "--inputs", str(inputs), "--trace", trace_path)
    res.children.append(child)
    res.labels.append("queries")
    res.attempted = len(queries)
    res.outputs["inputs"] = sha256_file(inputs)
    if not child.ok:
        res.wall_parts = [child.whole]
        res.fail(len(queries), f"query worker exited {child.code}: {child.err}")
        return res
    if trace:
        res.trace_paths.append(trace_path)
    status = child.status
    res.wall_parts = [(child.spawn, status["done"], status["paused_done"])]
    res.requests = [[(t0, t0 + lat, 0.0)]
                    for t0, lat in zip(status["starts"], status["latencies"])]
    res.kinds = [q["kind"] for q in queries]
    res.outputs["answers"] = status["answers_digest"]
    for i, problem in sorted(status["errors"].items(), key=lambda kv: int(kv[0])):
        res.fail(1, f"query {i} ({queries[int(i)]['kind']}): {problem}")
    return res


WORKLOADS = {
    "verify-all": (verify_pass, ()),
    "export-large": (export_pass, ()),
    "query-mix": (query_pass, ("--context",)),
}


def figures_gate(runner: Runner) -> Pass:
    """The four reference figures, regenerated and compared byte for byte."""
    res = Pass()
    outdir = runner.path("figures")
    outdir.mkdir()
    child = runner.spawn("figures", "--outdir", str(outdir))
    pinned = PINS["figures"]
    res.attempted = len(pinned)
    if not child.ok:
        res.fail(len(pinned), f"figures exited {child.code}: {child.err}")
        return res
    for name, digest in pinned.items():
        made = outdir / name
        if not made.exists() or child.status["codes"].get(name) != 0:
            res.fail(1, f"figure {name} was not written")
            continue
        reference = ROOT / "out" / name
        if sha256_file(made) != digest or (
                reference.exists() and made.read_bytes() != reference.read_bytes()):
            res.fail(1, f"figure {name} differs from out/")
    return res


# -- metrics -----------------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(value, percentile) for p99, or the highest percentile that still has
    ten samples beyond it; with ten samples or fewer, the largest."""
    xs = sorted(values)
    n = len(xs)
    rank = n if n <= 10 else min(math.ceil(0.99 * n), n - 10)
    return xs[rank - 1], 100.0 * rank / n


def median_ms(values: list[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def timing_metrics(walls: list[float], setups: list[float], lat: list[float]) -> dict:
    p99, _ = tail_percentile(lat) if lat else (0.0, 0.0)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups) if setups else 0.0, "s"),
        "requests_per_s": (len(lat) / sum(lat) if lat else 0.0, "1/s"),
        "request_p50_ms": (median_ms(lat), "ms"),
        "request_p99_ms": (1000.0 * p99, "ms"),
    }


def end_to_end(passes: list[Pass], setups: list[tuple], host: speed.Speed
               ) -> tuple[dict, list[str]]:
    """The end-to-end metrics in reference seconds, and notes that give the
    same metrics in plain seconds."""
    requests = [parts for p in passes for parts in p.requests]
    metrics = timing_metrics([adjusted_s(p.wall_parts, host) for p in passes],
                             [adjusted_s([s], host) for s in setups],
                             [adjusted_s(parts, host) for parts in requests])
    metrics["peak_rss_mb"] = (max(c.rss_mb for p in passes for c in p.children), "MB")
    plain_lat = [raw_s(parts) for parts in requests]
    plain = timing_metrics([p.wall for p in passes], [raw_s([s]) for s in setups], plain_lat)
    _, pct = tail_percentile(plain_lat) if plain_lat else (0.0, 0.0)
    notes = [f"passes {len(passes)}, pass walls {[round(p.wall, 3) for p in passes]} s",
             f"setup samples {len(setups)}",
             f"request latency samples {len(plain_lat)}; request_p99_ms is p{pct:.1f}",
             f"host speed samples {len(host.rates)}, mean speed "
             f"{statistics.fmean(host.rates or [1.0]):.4f} reference seconds per second"]
    notes += [f"plain {name} = {value:.6g} {unit}" for name, (value, unit) in plain.items()]
    for i, p in enumerate(passes):
        notes += [f"pass {i} {label}: {c.exit - c.spawn:.3f} s, {c.rss_mb:.1f} MB"
                  for label, c in zip(p.labels, p.children)]
    return metrics, notes


def layer_metrics(summary: dict, base: Pass, traced: Pass, workload: str) -> dict:
    ops, counts = summary["ops"], summary["counts"]

    def self_s(*names):
        return sum(ops[n]["self_s"] for n in names if n in ops)

    def calls(*names):
        return sum(ops[n]["calls"] for n in names if n in ops)

    m = {
        "root_system.build_s": (self_s("root_system.build"), "s"),
        "root_system.pairing_calls": (counts.get("root_system.pairing", 0), "count"),
        "weyl.enumerate_s": (self_s("weyl.enumerate"), "s"),
        "weyl.elements": (counts.get("weyl.elements", 0), "count"),
        "weyl.min_coset_rep_calls": (calls("weyl.min_coset_rep"), "count"),
        "weyl.min_coset_rep_s": (self_s("weyl.min_coset_rep"), "s"),
        "weyl.reflection_calls": (counts.get("weyl.reflection", 0), "count"),
        "qbg.build_s": (self_s("qbg.build"), "s"),
        "qbg.vertices": (counts.get("qbg.vertices", 0), "count"),
        "qbg.edges": (counts.get("qbg.edges", 0), "count"),
        "qbg.bfs_s": (self_s("qbg.bfs"), "s"),
        "qbg.bfs_calls": (calls("qbg.bfs"), "count"),
        "qbg.bfs_sources": (counts.get("qbg.bfs_sources", 0), "count"),
        "qbg.diameter_s": (self_s("qbg.diameter"), "s"),
        "affine.length_s": (self_s("affine.length"), "s"),
        "affine.length_calls": (calls("affine.length"), "count"),
        "affine.lift_s": (self_s("affine.lift_edge", "affine.lift_path"), "s"),
        "affine.lift_edges": (calls("affine.lift_edge"), "count"),
        "affine.project_s": (self_s("affine.project"), "s"),
        "affine.project_calls": (calls("affine.project"), "count"),
        "affine.sigma_s": (self_s("affine.sigma"), "s"),
        "level_zero.hasse_s": (self_s("level_zero.hasse"), "s"),
        "level_zero.closure_elems": (counts.get("level_zero.closure_elems", 0), "count"),
        "level_zero.leq_calls": (calls("level_zero.leq"), "count"),
        "level_zero.leq_s": (self_s("level_zero.leq"), "s"),
        "level_zero.dist_s": (self_s("level_zero.dist"), "s"),
        "level_zero.covers_s": (self_s("level_zero.covers"), "s"),
        "tilted.coset_min_s": (self_s("tilted.coset_min"), "s"),
        "tilted.qlen_s": (self_s("tilted.qlen"), "s"),
        "tilted.path_weights_s": (self_s("tilted.path_weights"), "s"),
        "tilted.left_step_calls": (counts.get("tilted.left_step", 0), "count"),
        "verify.cases": (counts.get("verify.cases", 0), "count"),
        "verify.cases_failed": (counts.get("verify.cases_failed", 0), "count"),
        "render.s": (self_s(*(n for n in ops if n.startswith("render."))), "s"),
        "render.calls": (counts.get("render.calls", 0), "count"),
        "render.bytes": (counts.get("render.bytes", 0), "count"),
    }
    for layer in LAYERS:
        if layer != "render":
            m[f"{layer}.self_s"] = (self_s(*(n for n in ops if n.startswith(layer + "."))), "s")
    for suite in PINS["verify_cases"]:
        op = ops.get(f"verify.suite.{suite}")
        m[f"verify.suite.{suite}_s"] = (op["total_s"] if op else 0.0, "s")
    by_request = dict(zip(base.labels, base.children))
    for name in EXPORTS:
        child = by_request.get(name)
        m[f"cli.{name}_s"] = (child.exit - child.spawn if child else 0.0, "s")
        m[f"cli.{name}.rss_mb"] = (child.rss_mb if child else 0.0, "MB")
    for kind in querymix.KINDS:
        lat = [x for k, x in zip(base.kinds, base.latencies) if k == kind]
        m[f"query.{kind}_p50_ms"] = (median_ms(lat), "ms")
    m["trace.spans"] = (summary["spans"], "count")
    m["trace.overhead_frac"] = (traced.wall / base.wall - 1.0 if base.wall else 0.0, "ratio")
    return m


def merge_traces(paths: list[str]) -> dict:
    ops: dict[str, dict] = {}
    counts: dict[str, int] = {}
    spans = 0
    for path in paths:
        one = tracer.summarize(path)
        for name, row in one["ops"].items():
            acc = ops.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for name, value in one["counts"].items():
            counts[name] = counts.get(name, 0) + value
        spans += sum(row["calls"] for row in one["ops"].values())
    return {"ops": ops, "counts": counts, "spans": spans}


# -- the run -----------------------------------------------------------------------------


def host_speed_ms() -> float:
    """Median of nine speed probes.  The load average misses a host whose
    other tenants slow this one down; this does not."""
    return round(1000.0 * statistics.median(speed.probe() for _ in range(9)), 3)


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "load1_start": os.getloadavg()[0], "probe_ms_start": host_speed_ms(),
            "commit": commit}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = now()
    env = environment()
    run_pass, probe_args = WORKLOADS[workload]
    tmp = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(tmp, started + RUN_LIMIT_S, sample=not trace)
        runner.spawn("probe")  # compiles bytecode; users do not pay for that per run
        gates = [figures_gate(runner)]
        passes: list[Pass] = []
        lines = []
        if trace:
            base = run_pass(runner, seed * 1000, False)
            traced = run_pass(runner, seed * 1000, True)
            passes = [base, traced]
            differ = sorted(k for k in set(base.outputs) | set(traced.outputs)
                            if base.outputs.get(k) != traced.outputs.get(k))
            if differ:
                traced.fail(len(differ), f"traced outputs differ from untraced: {differ}")
            metrics = layer_metrics(merge_traces(traced.trace_paths), base, traced, workload)
        else:
            # Set-up is sampled before and after the passes, so that one slow
            # stretch of the host does not decide its median.
            probes = [runner.spawn("probe", *probe_args) for _ in range(SETUP_SAMPLES // 2)]
            measure_from = now()
            while True:
                passes.append(run_pass(runner, seed * 1000 + len(passes), False))
                elapsed = now() - measure_from
                if elapsed + passes[-1].wall > seconds or now() > runner.deadline - 30:
                    break
            probes += [c for p in passes for c in p.children]
            while sum(c.ok for c in probes) < SETUP_SAMPLES and now() < runner.deadline - 30:
                probes.append(runner.spawn("probe", *probe_args))
            setups = [c.setup for c in probes if c.ok]
            host = speed.Speed([x for c in runner.children for x in c.samples])
            metrics, lines = end_to_end(passes, setups, host)
            if workload == "query-mix":
                for i, p in enumerate(passes):
                    lines.append(f"pass {i} seed {seed * 1000 + i}: inputs sha256 "
                                 f"{p.outputs['inputs']}, answers sha256 "
                                 f"{p.outputs.get('answers', 'none')}")
        attempted = sum(p.attempted for p in passes + gates)
        failed = sum(p.failed for p in passes + gates)
        problems = [x for p in passes + gates for x in p.problems]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    env["load1_end"] = os.getloadavg()[0]
    env["probe_ms_end"] = host_speed_ms()
    env["run_s"] = round(now() - started, 3)
    return {"metrics": metrics, "lines": lines, "env": env, "attempted": attempted,
            "failed": failed, "problems": problems}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "qbgraph" / "__init__.py").is_file():
        print(f"error: no qbgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}")
    for line in result["lines"]:
        print(line)
    for name, (value, unit) in result["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    frac = result["failed"] / result["attempted"]
    print(f"failed_frac = {frac:.6g} ({result['failed']} of {result['attempted']} requests)")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
