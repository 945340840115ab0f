#!/usr/bin/env python3
"""Run every byte-identity pin of the repository and check its sha256.

    python3 scripts/check_pins.py [--src DIR]

The pins are the entries of `scripts/pins.json`, then the five exports of
`perfbench/run.py`'s export-large workload against `perfbench/pins.json`;
both files are read, never written.  A manifest entry is a `name`, the
command's `argv` and its `sha256`; `python` adds interpreter options
(`["-O"]`) and `cpus` pins the child to those CPUs (`os.sched_setaffinity`
before it starts).  Adding a pin is adding one entry.

Each pin runs in a fresh interpreter with its stdout written to a file in a
temporary directory, which is hashed in blocks and removed.  A pin fails when
its command exits non-zero or its output's sha256 differs from the pin.  One
line per pin gives its verdict, wall time and peak RSS; a child started by
`Popen` keeps the runner's RSS high-water mark across exec, so the peak is
floored at the runner's own.  The last line counts the pins that match, and
the command exits 1 naming every pin that failed.  `--src` runs the package
from another checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
MANIFEST = ROOT / "scripts" / "pins.json"
CODE = "import sys; from qbgraph.cli import main; sys.exit(main(sys.argv[1:]))"


def manifest() -> list[dict]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def exports() -> list[dict]:
    """The benchmark's export commands from perfbench/run.py, as pins."""
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))["exports"]
    return [{"name": name, "argv": argv, "sha256": pins[name]}
            for name, argv in run.EXPORTS.items()]


def _sha256(path: pathlib.Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def run_pin(src: pathlib.Path, pin: dict, out: pathlib.Path):
    """(exit code, wall seconds, peak RSS in MB) of one pin's command in a
    fresh interpreter, its stdout written to ``out``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cpus = pin.get("cpus")
    t0 = time.perf_counter()
    with open(out, "wb") as f:
        proc = subprocess.Popen(
            [sys.executable, *pin.get("python", []), "-c", CODE, *pin["argv"]],
            env=env, stdin=subprocess.DEVNULL, stdout=f,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def check(pins: list[dict], src: pathlib.Path) -> list[str]:
    """Run each pin, print its line, and return the names of those that failed."""
    failed = []
    with tempfile.TemporaryDirectory(prefix="check-pins-") as tmp:
        out = pathlib.Path(tmp) / "out"
        for pin in pins:
            code, wall, rss = run_pin(src, pin, out)
            if code != 0:
                verdict = f"FAILED (exit {code})"
            elif _sha256(out) != pin["sha256"]:
                verdict = "MISMATCH"
            else:
                verdict = "ok"
            out.unlink()
            if verdict != "ok":
                failed.append(pin["name"])
            print(f"{verdict:15} wall {wall:6.2f} s  peak RSS {rss:6.1f} MB  "
                  f"{pin['name']}", flush=True)
    return failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src/ directory to run (default: this checkout's)")
    args = parser.parse_args()
    src = pathlib.Path(args.src)
    pins = manifest()
    failed = check(pins, src)
    # loaded once the manifest has run: perfbench's imports grow the runner's
    # RSS, which floors the peak of every child started after them
    more = exports()
    failed += check(more, src)
    total = len(pins) + len(more)
    print(f"{total - len(failed)} of {total} pins match")
    if failed:
        print("failed: " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
