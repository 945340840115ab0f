"""``render.json_chunks`` and its joined form ``render.dump_json`` write
exactly what ``json.dumps(doc, indent=1, sort_keys=True)`` writes, on every
document the CLI emits, on edge cases, and on lazy row sequences."""

import json
from collections.abc import Iterator

import pytest

from qbgraph import render
from qbgraph.cli import main


def stdlib(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True)


CLI_RUNS = [
    ["qbg", "--type", "A", "--rank", "3", "--parabolic", "1", "--format", "json"],
    ["pqbg", "--type", "B", "--rank", "2", "--format", "json"],
    ["qbg", "--type", "G", "--rank", "2", "--parabolic", "1,2", "--format", "json"],
    ["lift", "--type", "A", "--rank", "2", "--parabolic", "1", "--format", "json"],
    ["lift", "--type", "A", "--rank", "2", "--parabolic", "1", "--mu=-2,-4",
     "--start", "", "--walk", "0,1;1,1;0,1", "--format", "json"],
    ["poset", "--type", "A", "--rank", "2", "--lambda", "2,1", "--window", "1",
     "--format", "json"],
    ["poset", "--type", "B", "--rank", "2", "--lambda", "0,1", "--window", "2",
     "--format", "json"],
    ["verify", "--suite", "reference-graphs,example-chain", "--format", "json"],
    ["verify", "--suite", "quantum-roots,weyl-basics", "--types", "A2,G2",
     "--format", "json"],
]


def materialised(doc):
    """doc with every lazy row sequence read into a list."""
    if isinstance(doc, Iterator):
        return list(doc)
    if type(doc) is dict:
        return {key: materialised(value) for key, value in doc.items()}
    return doc


@pytest.mark.parametrize("argv", CLI_RUNS, ids=lambda argv: " ".join(argv[:5]))
def test_cli_documents_match_the_stdlib(monkeypatch, capsys, argv):
    # every JSON export, streamed or not, goes through json_chunks once
    seen = []
    real = render.json_chunks

    def recording(doc):
        doc = materialised(doc)
        text = "".join(real(doc))
        seen.append((doc, text))
        yield text

    monkeypatch.setattr(render, "json_chunks", recording)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert len(seen) == 1
    doc, text = seen[0]
    assert text == stdlib(doc)
    assert out == text + "\n"


EDGE_CASES = [
    {},
    [],
    (),
    {"a": [], "b": {}, "c": ()},
    [[], {}, [[]], [{}]],
    {"z": 1, "a": 2, "m": {"y": 0, "b": -1}},
    [1, [2, [3, [4]]], {"k": [5, [6]]}],
    [-1, -20, 0, 10**30, -(10**30)],
    [True, False, None],
    [1, True, 0, False],
    {"t": True, "f": False, "n": None},
    (1, 2, (3, 4), [5, (6,)]),
    {"same": [1, 2], "nested": [[1, 2], {"deeper": [1, 2]}], "z": (1, 2)},
    'quote " and backslash \\ and slash /',
    ["control \x00 \x01 \x1f \n \r \t \b \f", "\u007f"],
    {"non-ascii é ß ∑": "😀   ퟿", "é": ["ü"]},
    {"key \"quoted\"": "value \\ escaped"},
    "",
    0,
    -7,
    True,
    None,
]


@pytest.mark.parametrize("doc", EDGE_CASES, ids=lambda d: repr(d)[:40])
def test_edge_cases_match_the_stdlib(doc):
    assert render.dump_json(doc) == stdlib(doc)


def test_repeated_int_lists_render_at_each_depth():
    doc = [[1, 2], {"a": [1, 2], "b": [[1, 2]]}, [[[1, 2]]], [1, 2]]
    assert render.dump_json(doc) == stdlib(doc)
    assert render.dump_json(doc) == render.dump_json(json.loads(stdlib(doc)))


@pytest.mark.parametrize(
    "doc",
    [1.5, [1.0], [1, 2.0], {"a": 2.0}, {"a": [0.5]}, float("nan"), {1: 2}, {"a": {3}},
     b"bytes", pytest.param([object()], id="[object()]")],
    ids=repr,
)
def test_unsupported_types_raise_type_error(doc):
    with pytest.raises(TypeError):
        render.dump_json(doc)


LAZY_DOCS = [
    lambda: {"rows": iter([])},
    lambda: {"rows": iter([{"a": 1, "b": [1, 2]}, [1, 2], "x", None, 7, [], {}])},
    lambda: {"z": 0, "a": {"b": (row for row in ([1], [2, [3]], {"c": (4, 5)}))}},
    lambda: {"x": iter([1, 2]), "y": iter([[1, 2]]), "empty": {}},
    lambda: iter([{"k": [1, 2]}, 3, True]),
    lambda: iter([]),
    # rows of differing key sets, in differing insertion orders, so that
    # each shape gets its own plan
    lambda: {"rows": iter([{"b": 1, "a": [2]}, {"a": [2], "b": 1}, {"c": None, "a": {"d": 3}},
                           {"b": 1, "a": [2]}, {"z": "s", "é": [1, [2]]}, {"a": 1}])},
    lambda: {"rows": iter([{}, {}, {"a": {}}, {}, {"a": []}, {}])},
    lambda: {"rows": iter([{"k": (1, 2), "v": (x, {"w": [x]})} for x in range(5)])},
]


@pytest.mark.parametrize("chunk", [1, 3, 2048, 4096])
@pytest.mark.parametrize("make", LAZY_DOCS, ids=lambda make: repr(materialised(make()))[:40])
def test_lazy_rows_write_as_their_lists(monkeypatch, chunk, make):
    monkeypatch.setattr(render, "CHUNK", chunk)
    assert "".join(render.json_chunks(make())) == stdlib(materialised(make()))
    assert render.dump_json(make()) == stdlib(materialised(make()))


@pytest.mark.parametrize("chunk", [1, 3, 2048])
@pytest.mark.parametrize(
    "rows",
    [
        [{"a": 1}, {"a": 2}, {"a": 3, 4: "x"}],
        [{"a": 1}, {"b": 1}, {"b": 2, None: 0}],
        [{"a": 1}, {"a": 1.5}],
        [{"a": [1]}, {"a": [2, {3}]}],
        [{"a": 1}, {"a": object()}],
    ],
    ids=["int key", "None key", "float value", "set value", "object value"],
)
def test_lazy_rows_raise_type_error_on_a_late_bad_row(monkeypatch, chunk, rows):
    # the bad key or value sits in a row after good rows, and a bad key
    # comes in a shape seen only there
    monkeypatch.setattr(render, "CHUNK", chunk)
    with pytest.raises(TypeError):
        "".join(render.json_chunks({"rows": iter(rows)}))


def test_lazy_rows_are_written_before_they_are_all_read(monkeypatch):
    monkeypatch.setattr(render, "CHUNK", 8)
    read = []

    def rows():
        for i in range(100):
            read.append(i)
            yield {"i": i, "label": [i, 0]}

    chunks = render.json_chunks({"rows": rows(), "schema": "s"})
    first = next(chunks)
    assert first.startswith('{\n "rows": [')
    assert len(read) < 10
    rest = "".join(chunks)
    assert len(read) == 100
    assert first + rest == stdlib({"rows": [{"i": i, "label": [i, 0]} for i in range(100)],
                                   "schema": "s"})


@pytest.mark.parametrize("doc", [[iter([1])], {"a": [iter([])]}, ({"b": iter([])},)],
                         ids=["list", "list in dict", "dict in tuple"])
def test_iterators_outside_dict_values_raise_type_error(doc):
    with pytest.raises(TypeError):
        render.dump_json(doc)
