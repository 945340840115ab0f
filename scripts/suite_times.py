#!/usr/bin/env python3
"""Time each verification suite alone, and fingerprint its cases.

    python3 scripts/suite_times.py [--repeat N] [--check] [--src DIR]

Each suite runs alone in a fresh interpreter, N times (default 3).  The
output is one JSON object with, per suite in report order, the median of
its in-process run times (`median_s`: building the suite's contexts
included, interpreter start and imports not), their first and third
quartiles (`quartiles_s`, the spread to read a change in the median
against; both equal the one time when N is 1) and the sha256 of its cases
as the `qbgraph/verify/1` report lists them (`cases_sha256`).

`--src DIR` also times the package in another checkout's src/ directory:
each suite's fresh runs alternate between the two sides, this checkout
first on even runs and DIR first on odd ones, and DIR's median,
quartiles and cases sha256 are added to the suite's entry as `src_median_s`,
`src_quartiles_s` and `src_cases_sha256`.

`--check` also runs `verify --suite all` once in a fresh interpreter, and
exits 1 when some suite's cases there differ from its cases run alone: the
suites share state (contexts, and per-group tables of facts), and a suite
must not pass only because an earlier one filled that state.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# argv: suite names; prints per suite [seconds, cases] as one JSON list
CHILD = """
import json, sys, time
from qbgraph import render
from qbgraph.verify import run_suite
out = []
for name in sys.argv[1:]:
    t0 = time.perf_counter()
    res = run_suite(name)
    t = time.perf_counter() - t0
    out.append([t, json.loads(render.report_to_json([res]))["suites"][0]["cases"]])
print(json.dumps(out))
"""


def run(names: list[str], src: pathlib.Path = SRC) -> list[tuple[float, str]]:
    """(seconds, cases sha256) per suite of NAMES, run in that order in one
    fresh interpreter on the package in SRC."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, *names], env=env,
                          capture_output=True, text=True, check=True)
    return [
        (t, hashlib.sha256(json.dumps(cases, sort_keys=True).encode()).hexdigest())
        for t, cases in json.loads(proc.stdout)
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeat", type=int, default=3, help="fresh runs per suite")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 when a suite's cases alone differ from --suite all")
    ap.add_argument("--src", type=pathlib.Path,
                    help="another checkout's src/ directory, timed alternately with this one")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    sys.path.insert(0, str(SRC))
    from qbgraph.verify import SUITES

    names = list(SUITES)
    sides = {"": SRC} if args.src is None else {"": SRC, "src_": args.src.resolve()}
    report = {}
    for name in names:
        runs = {prefix: [] for prefix in sides}
        for i in range(args.repeat):
            for prefix in sorted(sides, reverse=bool(i % 2)):
                runs[prefix].append(run([name], sides[prefix])[0])
        report[name] = {}
        for prefix, got in runs.items():
            digests = {h for _t, h in got}
            if len(digests) != 1:
                print(f"suite {name}: cases differ between fresh runs", file=sys.stderr)
                return 1
            times = [t for t, _h in got]
            q1, median, q3 = (statistics.quantiles(times, n=4, method="inclusive")
                              if len(times) > 1 else times * 3)
            report[name].update({f"{prefix}median_s": round(median, 4),
                                 f"{prefix}quartiles_s": [round(q1, 4), round(q3, 4)],
                                 f"{prefix}cases_sha256": digests.pop()})
    print(json.dumps({"repeat": args.repeat, "suites": report}, indent=2))
    if args.check:
        together = dict(zip(names, (h for _t, h in run(names))))
        differ = [n for n in names if together[n] != report[n]["cases_sha256"]]
        for n in differ:
            print(f"suite {n}: cases alone differ from its cases in --suite all",
                  file=sys.stderr)
        return 1 if differ else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
