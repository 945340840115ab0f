"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report; every stated runtime bound is asserted with a monotonic clock.
The suites run once over their default cases, shared by every criterion
that reads them and by the pin on the `qbgraph/verify/1` report.
"""

import hashlib
import inspect
import sys
import time

import pytest

from qbgraph import render
from qbgraph.affine import AffineWeyl
from qbgraph.qbg import build_qbg
from qbgraph.root_system import build_root_system
from qbgraph.tilted import quantum_length
from qbgraph.verify import SUITES, run_suite
from qbgraph.weyl import WeylGroup

#: sha256 of `qbgraph verify --suite all --format json`
REPORT_SHA256 = "1f86e38f8156b33b2b300d0b82c5b17d33007e37568765ad8c489217ef7fd458"
#: sha256 of `qbgraph verify --suite all` (text)
TEXT_REPORT_SHA256 = "6a175373c2889b57c68a8a1e2d1903099b10226bdb079c6f5abab28207dfc7a3"


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number:02d} pass: {text}")


def _passed(res):
    failures = [c for c in res.cases if not c.passed]
    assert not failures, failures
    return res


def _run(name, types):
    return _passed(run_suite(name, types))


@pytest.fixture(scope="module")
def counted_run():
    """Every suite over its default cases, in report order: name -> (result,
    seconds), each suite timed on its own; and the (AffineWeyl, mu,
    J.nodes) of every component decomposition the run made."""
    runs, calls = {}, []
    real = AffineWeyl._component_decomposition
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(AffineWeyl, "_component_decomposition",
                   lambda aw, mu, J: calls.append((aw, mu, J.nodes)) or real(aw, mu, J))
        for name in SUITES:
            start = time.monotonic()
            res = run_suite(name)
            runs[name] = (res, time.monotonic() - start)
    return runs, calls


@pytest.fixture(scope="module")
def default_run(counted_run):
    return counted_run[0]


@pytest.fixture
def suite_run(default_run):
    """(result, seconds) of one suite from the shared run; it must pass."""

    def get(name):
        res, elapsed = default_run[name]
        return _passed(res), elapsed

    return get


def test_suites_decompose_each_mu_once_per_affine_weyl(counted_run):
    # each AffineWeyl keeps (z_mu, phi_J(mu)) per (mu, J) in its fact table
    calls = counted_run[1]
    assert 0 < len(calls) <= 2000
    assert len(calls) == len(set(calls))


def test_verify_report_is_pinned(default_run):
    doc = render.report_to_json([res for res, _ in default_run.values()])
    assert hashlib.sha256(doc.encode()).hexdigest() == REPORT_SHA256


def test_verify_text_report_is_pinned(default_run):
    text = render.report_to_text([res for res, _ in default_run.values()])
    assert hashlib.sha256(text.encode()).hexdigest() == TEXT_REPORT_SHA256


def test_criterion_01_quantum_roots(suite_run):
    res, elapsed = suite_run("quantum-roots")
    assert elapsed < 10.0
    assert len(res.cases) == 13
    _report(1, f"quantum-root characterization on 13 types in {elapsed:.2f}s")


def test_criterion_02_full_rank2_graph(suite_run):
    rs = build_root_system("A", 2)
    W = WeylGroup(rs)
    g = build_qbg(W, rs.parabolic(()))
    assert len(g.edges) == 15
    assert len(g.quantum_edges()) == 7
    theta = [e for e in g.quantum_edges() if e.label == rs.theta]
    assert theta == [g.edge(W.longest_element().index, rs.theta)]
    assert theta[0].target == W.identity.index
    # the structure suite re-derives the edge list from raw lengths
    _run("qbg-structure", [("A", 2)])
    suite_run("reference-graphs")
    _report(2, "A2 graph: 15 edges, 7 quantum, theta edge from the top; oracle match")


def test_criterion_03_parabolic_rank3_graph():
    rs = build_root_system("A", 3)
    W = WeylGroup(rs)
    g = build_qbg(W, rs.parabolic((1, 3)))
    assert len(g.edges) == 8
    quantum = {
        (W.describe(e.source), W.describe(e.target), e.label)
        for e in g.quantum_edges()
    }
    assert quantum == {("3412", "1324", (0, 1, 0)), ("2413", "1234", (0, 1, 0))}
    _run("qbg-structure", [("A", 3)])
    _report(3, "A3 J={1,3}: the 8 expected edges with both quantum arrows")


def test_criterion_04_worked_example(suite_run):
    rs = build_root_system("A", 2)
    W = WeylGroup(rs)
    g = build_qbg(W, rs.parabolic((1,)))
    assert len(g.vertices) == 3 and len(g.edges) == 3
    assert len(g.quantum_edges()) == 1
    suite_run("example-chain")
    _report(4, "rank-2 parabolic 3-cycle and its affine ladder with exact labels")


def test_criterion_05_lift_roundtrip(suite_run):
    res, _ = suite_run("lift-roundtrip")
    assert len(res.cases) == 19  # proper parabolics of A2, A3, B2, C2, G2
    _report(5, f"lift/projection round trip on {len(res.cases)} parabolic graphs")


def test_criterion_06_diamonds(suite_run):
    res, elapsed = suite_run("diamond")
    assert elapsed < 300.0
    counts = [int(c.detail.split()[0]) for c in res.cases]
    # per (type, J) in suite order: A2, A3, B2, C2, G2, each J by size
    assert counts == [
        24, 0, 0, 0,
        296, 64, 48, 64, 0, 8, 0, 0,
        40, 0, 4, 0,
        40, 4, 0, 0,
        76, 12, 4, 0,
    ]
    _report(6, f"{sum(counts)} diamond completions across A2, A3, B2, C2, G2 "
               f"in {elapsed:.1f}s")


def test_criterion_07_level_zero_covers(suite_run):
    res, _ = suite_run("level-zero")
    suite_run("reference-slice")
    _report(7, f"cover characterization on {len(res.cases)} weight orbits; "
               "regular rank-2 slice has 18 vertices")


def test_criterion_08_tilted_minima(suite_run):
    res, elapsed = suite_run("tilted")
    assert elapsed < 120.0
    total = sum(int(c.detail.split()[0]) for c in res.cases)
    _report(8, f"{total} coset minima, all unique, in {elapsed:.1f}s")


def test_criterion_09_path_weight_comparison(suite_run):
    suite_run("path-weights")
    _report(9, "weight comparison on all bounded paths over A2, A3, B2")


def test_criterion_10_connectivity(suite_run):
    res, _ = suite_run("connectivity")
    rs = build_root_system("A", 2)
    W = WeylGroup(rs)
    g = build_qbg(W, rs.parabolic(()))
    assert quantum_length(g, W.longest_element().index) == 1
    _report(10, f"left-step connectivity on {len(res.cases)} graphs; "
                "top element one step from the identity")


def test_criterion_11_special_lengths(suite_run):
    res, _ = suite_run("special-lengths")
    assert len(res.cases) == 13
    _report(11, "special factor lengths match the coefficient pairing on 13 types")


def test_criterion_12_determinism(suite_run):
    suite_run("determinism")
    from qbgraph.cli import main
    import io
    from contextlib import redirect_stdout

    def capture(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        assert code == 0
        return buf.getvalue().encode()

    args = ["verify", "--suite", "reference-graphs,example-chain,determinism"]
    assert capture(args) == capture(args)
    export = ["qbg", "--type", "A", "--rank", "3", "--parabolic", "1,3",
              "--format", "json"]
    assert capture(export) == capture(export)
    _report(12, "byte-identical output across repeated runs")


# suites that back no numbered criterion, with their case counts
UNNUMBERED = {"weyl-basics": 5, "affine-core": 4, "orderings": 5}


@pytest.mark.parametrize("name", sorted(UNNUMBERED))
def test_unnumbered_suite(suite_run, name):
    res, _ = suite_run(name)
    assert len(res.cases) == UNNUMBERED[name]


def test_every_suite_runs_here():
    source = inspect.getsource(sys.modules[__name__])
    missing = [name for name in SUITES if f'"{name}"' not in source]
    assert not missing, f"suites with no Tier-1 test: {missing}"
