"""Deterministic text, DOT and JSON renderings of graphs, chains and slices.

Identical inputs give byte-identical output: everything is emitted in sorted
order and nothing depends on hashing or timestamps.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from itertools import islice
from json.encoder import encode_basestring_ascii

from .affine import AffineElement, AffineRoot, AffineWeyl, cover_label
from .level_zero import LevelZeroPoset, LevelZeroWeight
from .qbg import QUANTUM, QbgGraph
from .weyl import WeylGroup

SCHEMA_GRAPH = "qbgraph/graph/1"
SCHEMA_CHAIN = "qbgraph/chain/1"
SCHEMA_SLICE = "qbgraph/slice/1"
SCHEMA_LIFTS = "qbgraph/lifts/1"
SCHEMA_VERIFY = "qbgraph/verify/1"


# -- JSON ------------------------------------------------------------------------

#: text pieces gathered before they are handed on as one chunk
CHUNK = 2048


def json_chunks(doc) -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=1, sort_keys=True)``, in chunks.

    The one JSON emitter.  The stdlib encoder runs in pure Python whenever
    ``indent`` is set; this one emits by exact type, escapes strings with
    the stdlib's ASCII escaper, plans each dict's keys once per (key tuple,
    depth) and renders each flat list of ints once per (values, depth).
    Documents hold dicts with str keys, lists, tuples, str, int, bool and
    None; anything else, floats included, raises ``TypeError``.  A dict
    value may also be an iterator, a lazy row sequence: it is written as a
    list, one row at a time, and the text is handed on every ``CHUNK``
    pieces, so its rows never sit in memory together.  Rows and lists hold
    no iterators.
    """
    out: list[str] = []
    yield from _stream_json(doc, 0, out, {})
    if out:
        yield "".join(out)


def dump_json(doc) -> str:
    """``json.dumps(doc, indent=1, sort_keys=True)``, byte for byte: the
    joined form of ``json_chunks``."""
    return "".join(json_chunks(doc))


def _stream_json(o, depth: int, out: list, memo: dict) -> Iterator[str]:
    """Append the text of o to out, yielding full chunks of it as rows of
    its iterators are written; dicts are walked here, all else is plain."""
    if isinstance(o, Iterator):
        inner = "\n" + " " * (depth + 1)
        sep = "[" + inner
        for row in o:
            out.append(sep)
            sep = "," + inner
            _emit_json(row, depth + 1, out, memo)
            if len(out) >= CHUNK:
                yield "".join(out)
                out.clear()
        out.append("[]" if sep[0] == "[" else inner[:-1] + "]")
    elif type(o) is dict and o:
        items, close = _plan(o, depth, memo)
        for key, prefix in items:
            out.append(prefix)
            yield from _stream_json(o[key], depth + 1, out, memo)
        out.append(close)
    else:
        _emit_json(o, depth, out, memo)


def _plan(o: dict, depth: int, memo: dict) -> tuple[list[tuple[str, str]], str]:
    """The sorted keys of a non-empty dict at the given depth, each with the
    text written before its value, and the closing text: made once per key
    tuple and depth, kept in memo under (depth, keys), unlike int lists."""
    shape = tuple(o)
    plan = memo.get((depth, shape))
    if plan is None:
        for key in shape:
            if type(key) is not str:
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
        inner = "\n" + " " * (depth + 1)
        items = []
        sep = "{" + inner
        for key in sorted(shape):
            items.append((key, sep + encode_basestring_ascii(key) + ": "))
            sep = "," + inner
        plan = memo[(depth, shape)] = (items, inner[:-1] + "}")
    return plan


#: the text of each scalar type a document may hold, by exact type
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_INT_ONLY = {int}


def _emit_json(o, depth: int, out: list, memo: dict) -> None:
    """Append the text of o, a value at the given nesting depth; memo holds
    the dict plans and the text of each flat int list per (values, depth)."""
    t = type(o)
    if t is dict:
        if not o:
            out.append("{}")
            return
        items, close = _plan(o, depth, memo)
        for key, prefix in items:
            value = o[key]
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                out.append(prefix + scalar(value))
            else:
                out.append(prefix)
                _emit_json(value, depth + 1, out, memo)
        out.append(close)
    elif t is list or t is tuple:
        if not o:
            out.append("[]")
            return
        inner = "\n" + " " * (depth + 1)
        if {*map(type, o)} == _INT_ONLY:
            key = (tuple(o), depth)
            text = memo.get(key)
            if text is None:
                text = memo[key] = (
                    "[" + inner + ("," + inner).join(map(int.__repr__, o)) + inner[:-1] + "]"
                )
            out.append(text)
            return
        sep = "[" + inner
        for value in o:
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                out.append(sep + scalar(value))
            else:
                out.append(sep)
                _emit_json(value, depth + 1, out, memo)
            sep = "," + inner
        out.append(inner[:-1] + "]")
    else:
        scalar = _SCALARS.get(t)
        if scalar is None:
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
        out.append(scalar(o))


def root_text(alpha: tuple[int, ...]) -> str:
    """ASCII form of a root vector, e.g. 'a1+2a2' or '-a1'."""
    parts = []
    for i, c in enumerate(alpha):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        parts.append(f"{sign}{'' if mag == 1 else mag}a{i + 1}")
    return "".join(parts) if parts else "0"


def affine_root_text(beta: AffineRoot) -> str:
    """Positive-representative display, e.g. '6d-a2' or 'a1+a2'."""
    pos = cover_label(beta)
    if pos.k == 0:
        return root_text(pos.alpha)
    head = f"{'' if pos.k == 1 else pos.k}d"
    tail = root_text(pos.alpha) if any(pos.alpha) else ""
    if tail and not tail.startswith("-"):
        tail = "+" + tail
    return head + tail


def affine_element_text(W: WeylGroup, x: AffineElement) -> str:
    """Rendering 'w t(mu)' with mu in simple-coroot coordinates."""
    w = W.describe(W.element(x.w))
    mu = ",".join(str(c) for c in x.mu)
    return f"{w} t({mu})"


def _lines_in_chunks(lines_fn):
    """Turn a generator of text lines into one of chunks of ``CHUNK`` lines."""

    @functools.wraps(lines_fn)
    def chunks(*args) -> Iterator[str]:
        lines = lines_fn(*args)
        while batch := list(islice(lines, CHUNK)):
            yield "".join(batch)

    return chunks


def _vertex_names(graph: QbgGraph) -> dict[int, str]:
    return {v: graph.W.describe(graph.W.element(v)) for v in graph.vertices}


@_lines_in_chunks
def graph_dot_chunks(graph: QbgGraph) -> Iterator[str]:
    """Graphviz text; quantum edges dashed and red."""
    names = _vertex_names(graph)
    yield "digraph qbg {\n"
    for v in graph.vertices:
        yield f'  "{names[v]}";\n'
    for v in graph.vertices:
        for e in graph.out[v]:
            attrs = [f'label="{root_text(e.label)}"']
            if e.kind == QUANTUM:
                attrs.append("style=dashed")
                attrs.append("color=red")
            yield f'  "{names[e.source]}" -> "{names[e.target]}" [{", ".join(attrs)}];\n'
    yield "}\n"


def graph_json_chunks(graph: QbgGraph) -> Iterator[str]:
    """The ``qbgraph/graph/1`` document; vertex and edge rows are made as
    they are written."""
    W = graph.W
    type_a = graph.rs.cartan_type == "A"

    def vertex_rows():
        for pos, v in enumerate(graph.vertices):
            el = W.element(v)
            if type_a:
                # the one-line form is both the text and the permutation
                text = "".join(map(str, W.one_line(el)))
                yield {"id": pos, "word": list(el.word), "text": text, "permutation": text}
            else:
                yield {"id": pos, "word": list(el.word), "text": W.describe(el)}

    pos_of = graph.vertex_pos
    edge_rows = (
        {
            "src": pos_of[e.source],
            "dst": pos_of[e.target],
            "label": list(e.label),
            "kind": e.kind,
            "weight": list(e.weight),
        }
        for v in graph.vertices
        for e in graph.out[v]
    )
    doc = {
        "schema": SCHEMA_GRAPH,
        "cartan_type": graph.rs.cartan_type,
        "rank": graph.rs.rank,
        "parabolic": list(graph.J.nodes),
        "vertices": vertex_rows(),
        "edges": edge_rows,
    }
    yield from json_chunks(doc)
    yield "\n"


@_lines_in_chunks
def graph_text_chunks(graph: QbgGraph) -> Iterator[str]:
    names = _vertex_names(graph)
    yield f"# QB(W^J) {graph.rs.cartan_type}{graph.rs.rank} J={list(graph.J.nodes)}\n"
    yield (
        f"# vertices={len(graph.vertices)} edges={len(graph.edges)} "
        f"quantum={len(graph.quantum_edges())}\n"
    )
    for v in graph.vertices:
        for e in graph.out[v]:
            yield f"{names[e.source]} -> {names[e.target]} [{root_text(e.label)}] {e.kind}\n"


def graph_to_dot(graph: QbgGraph) -> str:
    return "".join(graph_dot_chunks(graph))


def graph_to_json(graph: QbgGraph) -> str:
    return "".join(graph_json_chunks(graph))


def graph_to_text(graph: QbgGraph) -> str:
    return "".join(graph_text_chunks(graph))


# -- affine chains ------------------------------------------------------------------


def chain_to_text(aw: AffineWeyl, chain) -> str:
    lines = []
    for x, gamma in chain:
        if gamma is None:
            lines.append(affine_element_text(aw.W, x))
        else:
            lines.append(f"  > [{affine_root_text(gamma)}] {affine_element_text(aw.W, x)}")
    return "\n".join(lines) + "\n"


def chain_to_dot(aw: AffineWeyl, chain) -> str:
    lines = ["digraph chain {"]
    prev = None
    for x, gamma in chain:
        name = affine_element_text(aw.W, x)
        lines.append(f'  "{name}";')
        if prev is not None:
            lines.append(
                f'  "{prev}" -> "{name}" [label="{affine_root_text(gamma)}"];'
            )
        prev = name
    lines.append("}")
    return "\n".join(lines) + "\n"


def chain_to_json(aw: AffineWeyl, chain) -> str:
    rows = []
    for x, gamma in chain:
        row = {
            "w_word": list(aw.W.element(x.w).word),
            "mu": list(x.mu),
            "text": affine_element_text(aw.W, x),
        }
        if gamma is not None:
            pos = cover_label(gamma)
            row["label"] = {"alpha": list(pos.alpha), "delta": pos.k}
        rows.append(row)
    doc = {"schema": SCHEMA_CHAIN, "chain": rows}
    return dump_json(doc) + "\n"


# -- level-zero slices ---------------------------------------------------------------


def weight_text(poset: LevelZeroPoset, mu: LevelZeroWeight) -> str:
    """Type A: affine-fundamental-weight style '2L0+L1-3L2+2d'; otherwise
    the (coset word, n) form."""
    W = poset.W
    if poset.rs.cartan_type == "A":
        coords = poset.weight_coordinates(mu)
        c0 = -sum(coords)
        parts = []
        for i, c in enumerate((c0,) + coords):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            parts.append(f"{sign}{'' if mag == 1 else mag}L{i}")
        body = "".join(parts) if parts else "0"
        if mu.n:
            sign = "-" if mu.n < 0 else "+"
            mag = abs(mu.n)
            body += f"{sign}{'' if mag == 1 else mag}d"
        return body
    return f"({W.describe(W.element(mu.w))}, {mu.n})"


@_lines_in_chunks
def slice_dot_chunks(poset: LevelZeroPoset, window: int) -> Iterator[str]:
    """Hasse slice with the n = 0 layer (and its internal covers) in red."""
    elems = poset.slice_elements(window)
    yield "digraph slice {\n"
    for mu in elems:
        attrs = ' [color=red, fontcolor=red]' if mu.n == 0 else ""
        yield f'  "{weight_text(poset, mu)}"{attrs};\n'
    in_slice = set(elems)
    for mu in elems:
        for cov in poset.covers(mu):
            if cov.upper not in in_slice:
                continue
            attrs = [f'label="{affine_root_text(cov.label)}"']
            if mu.n == 0 and cov.upper.n == 0:
                attrs.append("color=red")
            yield (
                f'  "{weight_text(poset, mu)}" -> "{weight_text(poset, cov.upper)}"'
                f' [{", ".join(attrs)}];\n'
            )
    yield "}\n"


@_lines_in_chunks
def slice_text_chunks(poset: LevelZeroPoset, window: int) -> Iterator[str]:
    """A header line, then one 'mu < upper [label], ...' line per element
    with its graph-derived covers."""
    rs = poset.rs
    yield f"# slice {rs.cartan_type}{rs.rank} lambda={list(poset.lam)} window={window}\n"
    for mu in poset.slice_elements(window):
        covers = ", ".join(
            f"{weight_text(poset, c.upper)} [{affine_root_text(c.label)}]"
            for c in poset.covers(mu)
        )
        yield f"{weight_text(poset, mu)} < {covers}\n"


def slice_json_chunks(poset: LevelZeroPoset, window: int) -> Iterator[str]:
    """The ``qbgraph/slice/1`` document; vertex and cover rows are made as
    they are written."""
    elems = poset.slice_elements(window)
    pos_of = {mu: i for i, mu in enumerate(elems)}
    vertex_rows = (
        {
            "id": i,
            "coset_word": list(poset.W.element(mu.w).word),
            "n": mu.n,
            "text": weight_text(poset, mu),
        }
        for i, mu in enumerate(elems)
    )
    cover_rows = (
        {
            "src": pos_of[mu],
            "dst": pos_of[cov.upper],
            "label": {"alpha": list(cov.label.alpha), "delta": cov.label.k},
            "kind": cov.kind,
        }
        for mu in elems
        for cov in poset.covers(mu)
        if cov.upper in pos_of
    )
    doc = {
        "schema": SCHEMA_SLICE,
        "cartan_type": poset.rs.cartan_type,
        "rank": poset.rs.rank,
        "lambda": list(poset.lam),
        "window": window,
        "vertices": vertex_rows,
        "covers": cover_rows,
    }
    yield from json_chunks(doc)
    yield "\n"


def slice_to_dot(poset: LevelZeroPoset, window: int) -> str:
    return "".join(slice_dot_chunks(poset, window))


def slice_to_text(poset: LevelZeroPoset, window: int) -> str:
    return "".join(slice_text_chunks(poset, window))


def slice_to_json(poset: LevelZeroPoset, window: int) -> str:
    return "".join(slice_json_chunks(poset, window))


# -- lift tables and verify reports ---------------------------------------------------

# A lift table is an iterable of rows {"upper", "lower", "label", "kind"}, one
# per lifted edge, consumed once.


@_lines_in_chunks
def lifts_text_chunks(rows) -> Iterator[str]:
    """One 'upper > [label] lower' line per lifted edge."""
    for row in rows:
        yield f"{row['upper']} > [{row['label']}] {row['lower']}\n"


@_lines_in_chunks
def lifts_dot_chunks(rows) -> Iterator[str]:
    """Graphviz text: one labelled arrow per lifted edge."""
    yield "digraph lifts {\n"
    for row in rows:
        yield f'  "{row["upper"]}" -> "{row["lower"]}" [label="{row["label"]}"];\n'
    yield "}\n"


def lifts_json_chunks(mu, rows) -> Iterator[str]:
    """The ``qbgraph/lifts/1`` document: one row per lifted edge."""
    yield from json_chunks({"schema": SCHEMA_LIFTS, "mu": list(mu), "covers": iter(rows)})
    yield "\n"


def lifts_to_text(rows) -> str:
    return "".join(lifts_text_chunks(rows))


def lifts_to_dot(rows) -> str:
    return "".join(lifts_dot_chunks(rows))


def lifts_to_json(mu, rows) -> str:
    return "".join(lifts_json_chunks(mu, rows))


def report_to_text(results) -> str:
    """Per suite its claim, one pass/FAIL line per case, and a RESULT line."""
    lines = []
    for res in results:
        lines.append(f"suite {res.suite}: {res.claim}")
        for case in res.cases:
            status = "pass" if case.passed else "FAIL"
            detail = f" ({case.detail})" if case.detail else ""
            lines.append(f"  {case.name}: {status}{detail}")
        lines.append(f"RESULT suite={res.suite} {'pass' if res.passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def report_to_json(results) -> str:
    """The ``qbgraph/verify/1`` document of a list of suite results."""
    doc = {
        "schema": SCHEMA_VERIFY,
        "passed": all(r.passed for r in results),
        "suites": [
            {
                "suite": r.suite,
                "claim": r.claim,
                "passed": r.passed,
                "cases": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in r.cases
                ],
            }
            for r in results
        ],
    }
    return dump_json(doc) + "\n"
