#!/usr/bin/env python3
"""Run the five pinned exports of the benchmark and check their sha256.

    python3 scripts/check_exports.py [--src DIR]

Each export of `perfbench/run.py`'s export-large workload runs in a fresh
interpreter, writing into a temporary directory.  One line per export gives
whether its sha256 matches `perfbench/pins.json` (read, never written), its
wall time and its peak RSS.  Exits 1 when an export fails or differs from
its pin.  `--src` runs the package from another checkout's src/ directory.
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


def _exports() -> dict[str, list[str]]:
    """The benchmark's export commands, by name, from perfbench/run.py."""
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.EXPORTS


def _sha256(path: pathlib.Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_export(src: pathlib.Path, argv: list[str], out: pathlib.Path):
    """(exit code, wall seconds, peak RSS in MB) of one export in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys; from qbgraph.cli import main; sys.exit(main(sys.argv[1:]))"
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", code, *argv, "--out", str(out)],
                            env=env, stdin=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the src/ directory to run (default: this checkout's)")
    args = parser.parse_args()
    pins = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))["exports"]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="check-exports-") as tmp:
        for name, argv in _exports().items():
            out = pathlib.Path(tmp) / f"{name}.out"
            code, wall, rss = run_export(pathlib.Path(args.src), argv, out)
            if code != 0 or not out.exists():
                verdict = f"FAILED (exit {code})"
            elif _sha256(out) != pins[name]:
                verdict = "MISMATCH"
            else:
                verdict = "ok"
            bad += verdict != "ok"
            print(f"{name:14} {verdict:10} wall {wall:6.2f} s  peak RSS {rss:6.1f} MB",
                  flush=True)
    print(f"{len(pins) - bad} of {len(pins)} exports match their pins")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
