"""``render.json_chunks`` and its joined form ``render.dump_json`` write
exactly what ``json.dumps(doc, indent=1, sort_keys=True)`` writes, on every
document the CLI emits, on edge cases, and on ``Rows`` (lazy row sequences
written through one template per row shape) and ``RowTexts`` (rows written
from fragments of that template); so does ``chain_to_json``, which writes a
lifted chain through its own planned row templates."""

import json
from itertools import chain

import pytest

from qbgraph import render
from qbgraph.affine import AffineWeyl
from qbgraph.cli import main
from qbgraph.qbg import QbgPath, build_qbg
from qbgraph.root_system import cover_label
from qbgraph.weyl import build_weyl_group


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


def replayable(doc):
    """doc with the values of every ``Rows`` read into a list and the texts
    of every ``RowTexts`` kept as first written, so that it can be written
    more than once."""
    if type(doc) is render.Rows:
        return render.Rows(doc.columns, list(doc.values))
    if type(doc) is render.RowTexts:
        texts = []

        def write(cut):
            if not texts:
                texts.extend(doc.write(cut))
            return texts

        return render.RowTexts(doc.columns, write)
    if type(doc) is dict:
        return {key: replayable(value) for key, value in doc.items()}
    return doc


def plain(kind, value):
    """A row value as the document it stands for."""
    if kind in (int, str):
        return value
    if kind is tuple:
        return list(value)
    return {key: plain(k, v) for (key, k), v in zip(kind, value)}


def chain_doc(W, chain) -> dict:
    """The documented ``qbgraph/chain/1`` document of a lifted chain: per
    element its w's word, its mu and its text, and on every step the
    positive representative of its label."""
    rows = []
    for x, gamma in chain:
        row = {"w_word": list(W.element(x.w).word), "mu": list(x.mu),
               "text": render.affine_element_text(W, x)}
        if gamma is not None:
            label = cover_label(gamma)
            row["label"] = {"alpha": list(label.alpha), "delta": label.k}
        rows.append(row)
    return {"schema": "qbgraph/chain/1", "chain": rows}


def as_stdlib(doc):
    """doc with every ``Rows`` as the list of dicts it writes, and every
    replayable ``RowTexts`` already written as its row texts, each parsed
    by the stdlib and holding exactly its columns' keys."""
    if type(doc) is render.Rows:
        return [{key: plain(kind, value) for (key, kind), value in zip(doc.columns, row)}
                for row in doc.values]
    if type(doc) is render.RowTexts:
        rows = [json.loads(text) for text in doc.write(None)]
        assert all([*row] == [key for key, _ in doc.columns] for row in rows)
        return rows
    if type(doc) is dict:
        return {key: as_stdlib(value) for key, value in doc.items()}
    return doc


@pytest.mark.parametrize("argv", CLI_RUNS, ids=lambda argv: " ".join(argv[:5]))
def test_cli_documents_match_the_stdlib(monkeypatch, capsys, argv):
    # every JSON export, streamed or not, goes through json_chunks once, or
    # is a chain, written by chain_to_json; rows are written through their
    # templates and compared in full, row texts each parsed on its own, a
    # chain's with the document built here from it
    seen = []
    real, real_chain = render.json_chunks, render.chain_to_json

    def recording(doc):
        doc = replayable(doc)
        text = "".join(real(doc))
        seen.append((as_stdlib(doc), text))
        yield text

    def recording_chain(aw, chain):
        text = real_chain(aw, chain)
        seen.append((chain_doc(aw.W, chain), text.removesuffix("\n")))
        return text

    monkeypatch.setattr(render, "json_chunks", recording)
    monkeypatch.setattr(render, "chain_to_json", recording_chain)
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


LABEL = (("alpha", tuple), ("delta", int))
NESTED = (("%d", str), ("alpha", tuple), ("delta", int), ("note", (("k", int),)), ("é", ()))

ALL_KINDS = (("id", int), ("label", NESTED), ("text", str), ("word", tuple))
ALL_KIND_ROWS = [
    (0, ("a", (1, 0), 0, (0,), ()), "e", ()),
    (-3, ("%s", (0, -1), 1, (-1,), ()), 'quote " back \\ slash / é 😀 \x00\x1f', b"\x01\x02"),
    (10**30, ("a", (1, 0), 0, (0,), ()), "", (2, 1, 2)),
    (7, ("", (), 2, (10**30,), ()), "%s %d %%", b""),
]

def rows_of(kinds: dict, rows: list[dict]) -> render.Rows:
    """``Rows`` of the given dicts, columns in sorted key order."""
    keys = sorted(kinds)
    return render.Rows(tuple((key, kinds[key]) for key in keys),
                       iter([tuple(row[key] for key in keys) for row in rows]))


ROW_DOCS = [
    lambda: {"rows": render.Rows((("a", int),), iter([]))},
    lambda: {"rows": render.Rows(ALL_KINDS, iter(ALL_KIND_ROWS))},
    lambda: render.Rows(ALL_KINDS, iter(ALL_KIND_ROWS)),
    lambda: render.Rows((("a", int),), iter([])),
    # keys the template must escape: %, quotes, backslashes, non-ASCII and
    # control characters
    lambda: {"%": rows_of(
        {"%": int, "%d": str, '"q"': tuple, "\\": int, "\x01\n": str, "a%%b": tuple,
         "é": int, "😀": str},
        [{"%": 1, "%d": "x", '"q"': (1,), "\\": 2, "\x01\n": "%", "a%%b": (), "é": 3,
          "😀": "y"},
         {"%": -1, "%d": "%(a)s", '"q"': (), "\\": 0, "\x01\n": "", "a%%b": (5, 5), "é": 9,
          "😀": ""}],
    ), "z%s": 1},
    # Rows beside plain values, at several depths, with nested labels
    lambda: {"z": 0, "a": {"b": render.Rows((("k", tuple), ("v", LABEL)),
                                            iter([((1, 2), ((3,), 4)), ((), ((), 0))]))},
             "empty": {}, "list": [1, [2]]},
    lambda: {"x": render.Rows((("n", int),), iter([(1,), (2,)])),
             "y": render.Rows((), iter([(), ()])), "e": render.Rows((), iter([]))},
    # more rows than a chunk, with repeated int lists and labels
    lambda: {"rows": render.Rows(
        (("dst", int), ("kind", str), ("label", tuple), ("src", int), ("weight", tuple)),
        ((i, ("bruhat", "quantum")[i % 2], (i % 3, 1), i // 2, (0, i % 2)) for i in range(700)),
    ), "schema": "s"},
]


@pytest.mark.parametrize("chunk", [1, 3, 256, 4096])
@pytest.mark.parametrize("make", ROW_DOCS, ids=lambda make: repr(as_stdlib(make()))[:40])
def test_rows_write_as_their_lists(monkeypatch, chunk, make):
    monkeypatch.setattr(render, "CHUNK", chunk)
    want = stdlib(as_stdlib(make()))
    assert "".join(render.json_chunks(make())) == want
    assert render.dump_json(make()) == want


def fragments(doc):
    """doc with every ``Rows`` as ``RowTexts`` that cut each row at its int
    columns and write those cells back in."""
    if type(doc) is render.Rows:
        ints = [kind is int for _, kind in doc.columns]

        def write(cut):
            for row in doc.values:
                parts = cut(tuple(None if i else v for i, v in zip(ints, row)))
                cells = [repr(v) for i, v in zip(ints, row) if i]
                yield "".join(chain.from_iterable(zip(parts, cells))) + parts[-1]

        return render.RowTexts(doc.columns, write)
    if type(doc) is dict:
        return {key: fragments(value) for key, value in doc.items()}
    return doc


@pytest.mark.parametrize("chunk", [1, 256])
@pytest.mark.parametrize("make", ROW_DOCS, ids=lambda make: repr(as_stdlib(make()))[:40])
def test_row_texts_write_as_their_lists(monkeypatch, chunk, make):
    monkeypatch.setattr(render, "CHUNK", chunk)
    assert render.dump_json(fragments(make())) == stdlib(as_stdlib(make()))


@pytest.mark.parametrize(
    "columns,row",
    [((("a", int), ("b", str)), (None, 1)),
     ((("a", int), ("b", tuple)), (None, (1, True))),
     ((("a", int), ("b", tuple)), (None, (1, 2.0))),
     ((("a", LABEL), ("b", int)), (((1,), True), None)),
     ((("a", LABEL), ("b", int)), (((1.0,), 1), None))],
    ids=["int in str", "bool in tuple", "float in tuple", "bool in nested",
         "float in nested tuple"],
)
def test_a_bad_cut_raises_type_error(columns, row):
    with pytest.raises(TypeError):
        render.dump_json({"rows": render.RowTexts(columns, lambda cut: ["".join(cut(row))])})


def test_rows_straddling_a_chunk_are_handed_on_whole(monkeypatch):
    # each chunk of a row sequence ends at a row boundary, after CHUNK rows
    monkeypatch.setattr(render, "CHUNK", 3)
    rows = render.Rows((("i", int), ("s", str)), ((i, "x" * i) for i in range(10)))
    chunks = list(render.json_chunks({"rows": rows}))
    assert "".join(chunks) == stdlib({"rows": [{"i": i, "s": "x" * i} for i in range(10)]})
    assert len(chunks) == 4
    assert all(chunk.endswith("}") for chunk in chunks[:-1])


@pytest.mark.parametrize("chunk", [1, 3, 256])
@pytest.mark.parametrize(
    "columns,rows",
    [
        ((("a", int),), [(1,), ("x",)]),
        ((("a", int),), [(1,), (None,)]),
        ((("a", int),), [(1,), (1.5,)]),
        ((("a", int),), [(1,), (1.0,)]),
        ((("a", int),), [(1,), (True,)]),
        ((("a", str),), [("x",), (1,)]),
        ((("a", tuple),), [((1,),), ((1, 1.5),)]),
        ((("a", tuple),), [((1, 2),), ((1.0, 2),)]),
        ((("a", tuple),), [((1, 2),), ((True, 2),)]),
        ((("a", tuple),), [((1,),), ([1],)]),
        ((("a", tuple),), [((1,),), ((1, None),)]),
        ((("a", LABEL),), [(((1,), 2),), (((1,), 2.5),)]),
        ((("a", LABEL),), [(((1,), 1),), (((1,), True),)]),
        ((("a", LABEL),), [(((1,), 1),), (((1.0,), 1),)]),
        ((("a", LABEL),), [(((1,), 1),), ([(1,), 1],)]),
        ((("a", LABEL),), [(((1,), 1),), (((1,),),)]),
        ((("a", int), ("b", int)), [(1, 2), (1,)]),
        ((("a", int),), [(1,), (1, 2)]),
        ((("a", int),), [(1,), [1]]),
        ((("a", int), (4, int)), [(1, 2)]),
    ],
    ids=["str in int", "None in int", "float in int", "equal float in int", "bool in int",
         "int in str", "float in tuple", "equal float in tuple", "bool in tuple",
         "list in tuple", "None in tuple", "float in nested", "bool in nested",
         "equal float in nested tuple", "list as nested", "short nested", "short row",
         "long row", "list row", "int key"],
)
def test_rows_raise_type_error_on_a_late_bad_row(monkeypatch, chunk, columns, rows):
    # the bad value sits in a row after good rows, whose texts are already
    # made: a value equal to one of theirs (1.0 or True for 1) still raises
    monkeypatch.setattr(render, "CHUNK", chunk)
    with pytest.raises(TypeError):
        "".join(render.json_chunks({"rows": render.Rows(columns, iter(rows))}))


@pytest.mark.parametrize("columns", [(("b", int), ("a", int)), (("a", int), ("a", str)),
                                     (("a", (("c", int), ("b", int))),)],
                         ids=["unsorted", "repeated", "unsorted nested"])
def test_row_columns_must_be_distinct_and_sorted(columns):
    with pytest.raises(ValueError):
        render.dump_json({"rows": render.Rows(columns, iter([]))})


@pytest.mark.parametrize("kind", [float, bool, list, dict, lambda v: {"v": v}, (("a", float),)],
                         ids=["float", "bool", "list", "dict", "function", "nested float"])
def test_row_column_kinds_are_int_str_tuple_or_columns(kind):
    with pytest.raises(ValueError):
        render.dump_json({"rows": render.Rows((("a", kind),), iter([]))})


def test_rows_are_written_before_they_are_all_read(monkeypatch):
    monkeypatch.setattr(render, "CHUNK", 8)
    read = []

    def rows():
        for i in range(100):
            read.append(i)
            yield i, (i, 0)

    chunks = render.json_chunks({"rows": render.Rows((("i", int), ("label", tuple)), rows()),
                                 "schema": "s"})
    first = next(chunks)
    assert first.startswith('{\n "rows": [')
    assert len(read) < 10
    rest = "".join(chunks)
    assert len(read) == 100
    assert first + rest == stdlib({"rows": [{"i": i, "label": [i, 0]} for i in range(100)],
                                   "schema": "s"})


EMPTY = render.Rows((("a", int),), ())


@pytest.mark.parametrize("doc", [[EMPTY], {"a": [EMPTY]}, ({"b": EMPTY},), {"a": iter([])}],
                         ids=["list", "list in dict", "dict in tuple", "iterator"])
def test_rows_outside_dict_values_raise_type_error(doc):
    with pytest.raises(TypeError):
        render.dump_json(doc)


CHAIN_CASES = [("A", 2, (1,)), ("B", 3, (2,)), ("C", 3, (1,)), ("D", 4, (2,)), ("G", 2, (1,))]


@pytest.mark.parametrize("cartan_type,rank,nodes", CHAIN_CASES,
                         ids=lambda c: str(c).replace(" ", ""))
def test_chain_json_matches_the_stdlib(cartan_type, rank, nodes):
    # lift_path chains along the shortest paths out of the last vertex, the
    # empty path to itself (one element, no label) among them; labels go
    # deep, so some step's delta is at least 2
    W = build_weyl_group(cartan_type, rank)
    J = W.rs.parabolic(nodes)
    g = build_qbg(W, J)
    aw = AffineWeyl(W)
    mu = aw.superantidominant_mu(W.identity, J, aw.lift_depth(g))
    start = g.vertices[-1]
    paths = [QbgPath(start, ())] + [g.shortest_path(start, v) for v in g.vertices[:40]]
    deltas = set()
    for path in paths:
        chain = aw.lift_path(g, path, mu)
        doc = chain_doc(W, chain)
        assert render.chain_to_json(aw, chain) == stdlib(doc) + "\n"
        deltas.update(row["label"]["delta"] for row in doc["chain"][1:])
        assert "label" not in doc["chain"][0]
    assert len(aw.lift_path(g, paths[0], mu)) == 1
    assert max(deltas) >= 2


def test_an_empty_chain_matches_the_stdlib():
    aw = AffineWeyl(build_weyl_group("A", 2))
    assert render.chain_to_json(aw, []) == stdlib({"schema": "qbgraph/chain/1", "chain": []}) + "\n"


#: words reduced in A3, B3 and A4, with their shortlex forms alike in all three
SHARED_WORDS = [(1,), (1, 2), (2, 1), (1, 2, 1), (2, 3), (1, 2, 3)]


def lifted_chains(cartan_type, rank):
    """The AffineWeyl of a group and the lifts, over its full graph, of the
    shortest paths from e to each element of ``SHARED_WORDS``."""
    W = build_weyl_group(cartan_type, rank)
    J = W.rs.parabolic(())
    g = build_qbg(W, J)
    aw = AffineWeyl(W)
    mu = aw.superantidominant_mu(W.identity, J, aw.lift_depth(g))
    return aw, [aw.lift_path(g, g.shortest_path(0, W.from_word(w).index), mu)
                for w in SHARED_WORDS]


def clear_chain_cells():
    render._element_cells.cache_clear()
    render._mu_cells.cache_clear()
    render._label_cell.cache_clear()


def test_chain_texts_never_cross_groups():
    # the chain writers keep element cells by value across calls: elements
    # that share a word in A3 and B3 (one-line form against word form), and
    # in A3 and A4 (one word, two one-line forms), keep their own texts.
    # Written one group after another through the kept cells, every output
    # equals the output written with the cells cleared
    writers = (render.chain_to_json, render.chain_to_text, render.chain_to_dot)
    clear_chain_cells()
    groups = [lifted_chains(t, r) for t, r in (("A", 3), ("B", 3), ("A", 4))]
    words = [{aw.W._word[x.w] for c in chains for x, _ in c} for aw, chains in groups]
    assert len(words[0] & words[1]) >= len(SHARED_WORDS)
    assert len(words[0] & words[2]) >= len(SHARED_WORDS)
    kept = [[[write(aw, c) for write in writers] for c in chains] for aw, chains in groups]
    for (aw, chains), texts in zip(groups, kept):
        for c, got in zip(chains, texts):
            clear_chain_cells()
            assert got == [write(aw, c) for write in writers]
            assert got[0] == stdlib(chain_doc(aw.W, c)) + "\n"
            assert got[1].splitlines()[0] == render.affine_element_text(aw.W, c[0][0])
