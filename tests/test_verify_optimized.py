"""The verification suites still fail on a broken graph under python -O.

Each run starts a fresh `python -O` interpreter, swaps the graph builder the
suites use for a sabotaged one, and reports which suites passed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
SUITES = ("reference-graphs", "example-chain", "reference-slice")

SCRIPT = """
import json
import sys

import qbgraph.level_zero as level_zero
import qbgraph.qbg as qbg
import qbgraph.verify as verify

real = qbg.build_qbg


def sabotaged(W, J):
    g = real(W, J)
    edges = list(g.edges)
    if sys.argv[1] == "reversed":
        edges = [qbg.QbgEdge(e.target, e.source, e.label, e.kind, e.weight) for e in edges]
    else:
        edges.remove(next(e for e in edges if e.kind == qbg.BRUHAT))
    return qbg.QbgGraph(W, J, g.vertices, edges)


verify.build_qbg = level_zero.build_qbg = sabotaged
passed = {name: verify.run_suite(name, None).passed for name in sys.argv[2:]}
print(json.dumps({"debug": __debug__, "passed": passed}))
"""


@pytest.mark.parametrize("sabotage", ["reversed", "dropped-edge"])
def test_suites_fail_on_a_sabotaged_graph_under_O(sabotage):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT, sabotage, *SUITES],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["debug"] is False  # asserts really were stripped
    assert report["passed"] == {name: False for name in SUITES}
