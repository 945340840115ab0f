"""The program names that the benchmark calls and wraps still work.

`perfbench/querymix.py` issues the query-mix workload through the public
API, and `perfbench/tracer.py` wraps entry points by module and attribute
name.  Both are loaded by path and only read, so a renamed or removed name
fails here instead of in a benchmark run.
"""

import importlib.util
import pathlib

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_query_mix_answers_pass_their_oracle_checks():
    querymix = _load("querymix")
    ctx = querymix.Context()
    oracle = querymix.Oracle(ctx)
    queries = querymix.make_queries(1, 100)
    assert {q["kind"] for q in queries} == set(querymix.KINDS)
    for q in queries:
        result = querymix.run_query(ctx, q)
        querymix.answer(ctx, q, result)
        assert oracle.check(q, result) == "", q


def test_every_tracer_target_resolves():
    import qbgraph.cli  # noqa: F401
    import qbgraph.verify  # noqa: F401

    tracer = _load("tracer")
    targets = [(module, path) for _layer, _op, module, path in tracer.SPANS + tracer.COUNTS]
    assert targets
    assert [t for t in targets if tracer._resolve(*t) is None] == []
