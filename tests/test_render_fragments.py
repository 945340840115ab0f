"""The graph edge rows and slice cover rows, written from text fragments
made once per edge type or cover label (``RowTexts``), equal the stdlib's
text and the text of the same rows written through the checked ``Rows``
path; bad cells still raise ``TypeError``, and a streamed graph document
keeps no text per vertex."""

import json
import tracemalloc

import pytest

from qbgraph import render
from qbgraph.level_zero import LevelZeroPoset
from qbgraph.qbg import QbgEdge, QbgGraph, build_qbg
from qbgraph.verify import LEVEL_ZERO_CASES, all_parabolics
from qbgraph.weyl import build_weyl_group

GRAPH_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4),
               ("G", 2)]
GRAPHS = [(t, r, J) for t, r in GRAPH_TYPES for J in all_parabolics(r)]


def through_rows(monkeypatch, key, values):
    """Make ``render.json_chunks`` write the document's ``RowTexts`` under
    key as value ``Rows`` of the given values: the checked path."""
    real = render.json_chunks

    def checked(doc):
        assert type(doc[key]) is render.RowTexts
        yield from real({**doc, key: render.Rows(doc[key].columns, values)})

    monkeypatch.setattr(render, "json_chunks", checked)


def assert_stdlib(text):
    assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize("cartan_type,rank,nodes", GRAPHS,
                         ids=lambda c: str(c).replace(" ", ""))
def test_graph_edge_rows_match_the_checked_rows(monkeypatch, cartan_type, rank, nodes):
    W = build_weyl_group(cartan_type, rank)
    graph = build_qbg(W, W.rs.parabolic(nodes))
    text = render.graph_to_json(graph)
    assert_stdlib(text)
    assert len(json.loads(text)["edges"]) == len(graph.edges)
    through_rows(monkeypatch, "edges", ((dst, kind, label, src, weight)
                                        for src, dst, label, kind, weight in graph.edge_rows()))
    assert render.graph_to_json(graph) == text


@pytest.mark.parametrize("cartan_type,rank,lam", LEVEL_ZERO_CASES,
                         ids=lambda c: str(c).replace(" ", ""))
@pytest.mark.parametrize("window", [0, 3])
def test_slice_cover_rows_match_the_checked_rows(monkeypatch, cartan_type, rank, lam, window):
    poset = LevelZeroPoset(build_weyl_group(cartan_type, rank), lam)
    text = render.slice_to_json(poset, window)
    assert_stdlib(text)
    covers = list(poset.window_covers(window))
    assert len(json.loads(text)["covers"]) == len(covers)
    through_rows(monkeypatch, "covers", ((dst, kind, (label.alpha, label.k), src)
                                         for src, dst, label, kind in covers))
    assert render.slice_to_json(poset, window) == text


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.5], ids=repr)
def test_a_bad_edge_weight_raises_type_error(bad):
    # the first edge's (label, kind, weight) is the one its type entry keeps
    W = build_weyl_group("A", 3)
    graph = build_qbg(W, W.rs.parabolic(()))
    edges = list(graph.edges)
    e = edges[0]
    edges[0] = QbgEdge(e.source, e.target, e.label, e.kind, (bad,) + tuple(e.weight[1:]))
    bad_graph = QbgGraph(W, graph.J, graph.vertices, edges)
    assert type(bad) in map(type, bad_graph._type_table[0][2])
    with pytest.raises(TypeError):
        render.graph_to_json(bad_graph)


def test_a_streamed_graph_keeps_no_text_per_vertex():
    # the A6 graph has 5,040 vertices, each with its own word; the int-list
    # texts of its rows are kept for one batch of rows, not the document
    W = build_weyl_group("A", 6)
    graph = build_qbg(W, W.rs.parabolic(()))
    tracemalloc.start()
    try:
        size = sum(map(len, render.graph_json_chunks(graph)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 10_000_000
    assert peak < 500_000
