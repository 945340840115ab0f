"""Deterministic text, DOT and JSON renderings of graphs, chains and slices.

Identical inputs give byte-identical output: everything is emitted in sorted
order and nothing depends on hashing or timestamps.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NamedTuple

from .qbg import QUANTUM, QbgGraph
from .root_system import AffineRoot, ParabolicIndex, cover_label
from .weyl import WeylGroup, element_name

if TYPE_CHECKING:  # annotations only: a graph export loads no affine or poset code
    from .affine import AffineElement, AffineWeyl
    from .level_zero import LevelZeroPoset, LevelZeroWeight

SCHEMA_GRAPH = "qbgraph/graph/1"
SCHEMA_CHAIN = "qbgraph/chain/1"
SCHEMA_SLICE = "qbgraph/slice/1"
SCHEMA_LIFTS = "qbgraph/lifts/1"
SCHEMA_VERIFY = "qbgraph/verify/1"


# -- JSON ------------------------------------------------------------------------

#: text pieces (JSON rows or text lines) gathered before they are handed on
#: as one chunk; 256 rows of the A5 graph JSON are about 60 kB
CHUNK = 256


class Rows(NamedTuple):
    """A lazy row sequence: a list of dicts that all share one key tuple.

    ``columns`` names each key with its kind, in sorted key order:
    - ``int``: an int;
    - ``str``: a string, escaped as every JSON string is;
    - ``tuple``: a flat int sequence, a tuple of ints or ``bytes``, its
      text made once per values in each batch of ``CHUNK`` rows;
    - a tuple of columns: a nested dict, its value a tuple in the order of
      those columns.
    ``values`` yields one tuple per row, in column order, and is read once.
    Every value must be of its column's type exactly (a bool is not an
    int), or the rows raise ``TypeError``.  Rows stand as a document or a
    dict value outside every list: below a list or tuple they raise
    ``TypeError`` (``_stream_json``).
    """

    columns: tuple[tuple[str, object], ...]
    values: Iterable[tuple]


class RowTexts(NamedTuple):
    """Rows whose cells repeat, written from fragments made once: with
    ``columns`` as in ``Rows``, ``write(cut)`` yields each row's text, where
    ``cut(values)`` is one row's text split at its None values, the others
    checked as in ``Rows``.  RowTexts stand where ``Rows`` may."""

    columns: tuple[tuple[str, object], ...]
    write: Callable[[Callable[[tuple], list[str]]], Iterable[str]]


def json_chunks(doc) -> Iterator[str]:
    """The text of ``json.dumps(doc, indent=1, sort_keys=True)``, in chunks.

    The one JSON emitter.  The stdlib encoder runs in pure Python whenever
    ``indent`` is set; this one emits by exact type, escapes strings with
    the stdlib's ASCII escaper and plans each dict's keys once per (key
    tuple, depth).  Documents hold dicts with str keys, lists, tuples, str,
    int, bool and None; anything else, floats included, raises
    ``TypeError``.  A dict value may also be ``Rows`` or ``RowTexts``: it
    is written as a list, ``CHUNK`` rows at a time through one %-template
    made from the rows' plan, and the text is handed on after every
    ``CHUNK`` rows, so the rows never sit in memory together.  Rows and
    lists hold no ``Rows``.
    """
    out: list[str] = []
    yield from _stream_json(doc, 0, out, {})
    if out:
        yield "".join(out)


def dump_json(doc) -> str:
    """``json.dumps(doc, indent=1, sort_keys=True)``, byte for byte: the
    joined form of ``json_chunks``."""
    return "".join(json_chunks(doc))


def _stream_json(o, depth: int, out: list, memo: dict, rows_ok: bool = True) -> Iterator[str]:
    """Append the text of o, a value at the given nesting depth, to out,
    yielding full chunks of it as the rows of a ``Rows`` are written; memo
    holds the dict plans under (depth, keys).  The one JSON walker: a
    ``Rows`` below a list or tuple (``rows_ok`` false) raises ``TypeError``,
    as any other type does."""
    t = type(o)
    scalar = _SCALARS.get(t)
    if scalar is not None:
        out.append(scalar(o))
    elif t is dict:
        items, close = _plan(tuple(o), depth, memo) if o else ((), "{}")
        for key, prefix in items:
            out.append(prefix)
            yield from _stream_json(o[key], depth + 1, out, memo, rows_ok)
        out.append(close)
    elif (t is list or t is tuple) and {*map(type, o)} == _INT_ONLY:
        out.append(_int_list_text(depth, o))
    elif t is list or t is tuple:
        inner = "\n" + " " * (depth + 1)
        sep = "[" + inner
        for value in o:
            out.append(sep)
            yield from _stream_json(value, depth + 1, out, memo, False)
            sep = "," + inner
        out.append(inner[:-1] + "]" if o else "[]")
    elif (t is Rows or t is RowTexts) and rows_ok:
        inner = "\n" + " " * (depth + 1)
        sep = "," + inner
        fmt = _row_format(o.columns, depth + 1, memo)
        if t is Rows:  # each batch of values is checked whole, then written
            values = iter(o.values)
            batches = iter(lambda: list(islice(values, CHUNK)), [])
            texts = chain.from_iterable(_row_texts(fmt, b, depth + 1) for b in batches)
        else:
            texts = iter(o.write(functools.partial(_cut, fmt, depth + 1)))
        first = True
        while batch := list(islice(texts, CHUNK)):
            out.append(("[" if first else ",") + inner)
            out.append(sep.join(batch))
            first = False
            if len(batch) == CHUNK:
                yield "".join(out)
                out.clear()
        out.append("[]" if first else inner[:-1] + "]")
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _plan(shape: tuple, depth: int, memo: dict) -> tuple[list[tuple[str, str]], str]:
    """The sorted keys of a non-empty dict at the given depth, each with the
    text written before its value, and the closing text: made once per key
    tuple and depth, kept in memo under (depth, keys)."""
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


def _row_format(columns, depth: int, memo: dict):
    """(template, kinds) of rows of dicts at the given depth: the row's
    %-template, made from its plan with a %s per column, and each column's
    kind, a nested dict's as its own (template, kinds)."""
    keys = tuple(key for key, _ in columns)
    if not keys:
        return "{}", ()
    items, close = _plan(keys, depth, memo)
    if tuple(key for key, _ in items) != keys or len(set(keys)) < len(keys):
        raise ValueError(f"row columns must be distinct and in sorted key order, not {keys}")
    kinds = []
    for _, kind in columns:
        if type(kind) is tuple:
            kind = _row_format(kind, depth + 1, memo)
        elif kind not in (int, str, tuple):
            raise ValueError(f"a row column is of int, str, tuple or a tuple of columns, "
                             f"not {kind!r}")
        kinds.append(kind)
    template = "".join(prefix.replace("%", "%%") + "%s" for _, prefix in items) + close
    return template, tuple(kinds)


def _row_texts(fmt, rows, depth: int):
    """The texts of rows of dicts at the given depth, written through fmt
    from ``_row_format``; their values are checked and converted a column
    at a time, and any value not of its column's type raises ``TypeError``
    before a text is made.  An int tuple's text is made once per call."""
    template, kinds = fmt
    if {*map(type, rows)} - _TUPLE or {*map(len, rows)} - {len(kinds)}:
        raise TypeError(f"rows must be tuples of {len(kinds)} values")
    if not kinds:
        return [template] * len(rows)
    texts = []
    for kind, values in zip(kinds, zip(*rows)):
        if kind is int or kind is str:
            if {*map(type, values)} - {kind}:
                raise TypeError(f"a {kind.__name__} column holds {_type_names(values)}")
            texts.append(values if kind is int else map(encode_basestring_ascii, values))
        elif kind is tuple:
            # the elements of each distinct object: rows often share them
            objects = dict(zip(map(id, values), values)).values()
            if ({*map(type, objects)} - _INT_SEQUENCES
                    or {*map(type, chain.from_iterable(objects))} - _INT_ONLY):
                raise TypeError(f"an int tuple column holds {_type_names(values)}")
            texts.append(map(_Memo(functools.partial(_int_list_text, depth + 1)).__getitem__,
                             values))
        else:
            texts.append(_row_texts(kind, values, depth + 1))
    return map(template.__mod__, zip(*texts))


def _cut(fmt, depth: int, values: tuple) -> list[str]:
    """The text of one row at the given depth through fmt, split at its
    None values (JSON text holds no raw NUL, so a NUL marks each cut); the
    other values are checked and written as ``_row_texts`` does."""
    template, kinds = fmt
    cells = ["\0" if value is None else next(_row_texts(("%s", (kind,)), [(value,)], depth))
             for kind, value in zip(kinds, values, strict=True)]
    return (template % tuple(cells)).split("\0")


def _type_names(values) -> str:
    return ", ".join(sorted({type(v).__name__ for v in values}))


class _Memo(dict):
    """A dict that fills a missing key k with fn(k)."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _int_list_text(depth: int, values) -> str:
    """The text of a flat int sequence at the given depth."""
    if not values:
        return "[]"
    inner = "\n" + " " * (depth + 1)
    return "[" + inner + ("," + inner).join(map(int.__repr__, values)) + inner[:-1] + "]"


#: the text of each scalar type a document may hold, by exact type
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_INT_ONLY = {int}
_INT_SEQUENCES = {tuple, bytes}
_TUPLE = {tuple}


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
    return f"{W.describe(x.w)} t({','.join(map(str, x.mu))})"


def _lines_in_chunks(lines_fn):
    """Turn a generator of text lines into one of chunks of ``CHUNK`` lines."""

    @functools.wraps(lines_fn)
    def chunks(*args) -> Iterator[str]:
        lines = lines_fn(*args)
        while batch := list(islice(lines, CHUNK)):
            yield "".join(batch)

    return chunks


def _vertex_names(graph: QbgGraph) -> list[str]:
    """Each vertex's text, by vertex position."""
    return [graph.W.describe(v) for v in graph.vertices]


@_lines_in_chunks
def graph_dot_chunks(graph: QbgGraph) -> Iterator[str]:
    """Graphviz text; quantum edges dashed and red."""
    names = _vertex_names(graph)
    yield "digraph qbg {\n"
    for name in names:
        yield f'  "{name}";\n'
    labels = _Memo(root_text)
    for p, q, label, kind, _weight in graph.edge_rows():
        style = ", style=dashed, color=red" if kind == QUANTUM else ""
        yield f'  "{names[p]}" -> "{names[q]}" [label="{labels[label]}"{style}];\n'
    yield "}\n"


def graph_json_chunks(graph: QbgGraph) -> Iterator[str]:
    """The ``qbgraph/graph/1`` document; vertex and edge rows are made as
    they are written, each edge row from the columns and its type's text."""
    W = graph.W

    if graph.rs.cartan_type == "A":
        # the one-line form is both the text and the permutation
        vertex_columns = (("id", int), ("permutation", str), ("text", str), ("word", tuple))

        def vertex_rows():
            for pos, v in enumerate(graph.vertices):
                text = "".join(map(str, W.one_line(v)))
                yield pos, text, text, W._word[v]
    else:
        vertex_columns = (("id", int), ("text", str), ("word", tuple))

        def vertex_rows():
            for pos, v in enumerate(graph.vertices):
                yield pos, W.describe(v), W._word[v]

    def edge_texts(cut):  # head + dst + mid + src + tail, cut once per type entry
        cuts = [cut((None, kind, label, None, weight))
                for label, kind, weight in graph._type_table]
        offsets, targets, types = graph._offsets, graph._targets, graph._types
        for p in range(len(graph.vertices)):
            lo, hi, src = offsets[p], offsets[p + 1], str(p)
            for q, t in zip(targets[lo:hi], types[lo:hi]):
                head, mid, tail = cuts[t]
                yield f"{head}{q}{mid}{src}{tail}"

    doc = {
        "schema": SCHEMA_GRAPH,
        "cartan_type": graph.rs.cartan_type,
        "rank": graph.rs.rank,
        "parabolic": list(graph.J.nodes),
        "vertices": Rows(vertex_columns, vertex_rows()),
        "edges": RowTexts(
            (("dst", int), ("kind", str), ("label", tuple), ("src", int), ("weight", tuple)),
            edge_texts,
        ),
    }
    yield from json_chunks(doc)
    yield "\n"


@_lines_in_chunks
def graph_text_chunks(graph: QbgGraph) -> Iterator[str]:
    names = _vertex_names(graph)
    per_type = Counter(graph._types)  # edges per type-table entry, from one pass
    quantum = sum(per_type[t] for t, entry in enumerate(graph._type_table) if entry[1] == QUANTUM)
    yield f"# QB(W^J) {graph.rs.cartan_type}{graph.rs.rank} J={list(graph.J.nodes)}\n"
    yield f"# vertices={len(graph.vertices)} edges={len(graph.edges)} quantum={quantum}\n"
    labels = _Memo(root_text)
    for p, q, label, kind, _weight in graph.edge_rows():
        yield f"{names[p]} -> {names[q]} [{labels[label]}] {kind}\n"


def graph_to_dot(graph: QbgGraph) -> str:
    return "".join(graph_dot_chunks(graph))


def graph_to_json(graph: QbgGraph) -> str:
    return "".join(graph_json_chunks(graph))


def graph_to_text(graph: QbgGraph) -> str:
    return "".join(graph_text_chunks(graph))


# -- affine chains ------------------------------------------------------------------


#: the most chain elements, translation parts and labels whose cells the
#: chain writers keep; one query-mix pass on A5 meets about 300 elements
_CHAIN_CELLS = 4096


@functools.lru_cache(maxsize=_CHAIN_CELLS)
def _element_cells(cartan_type: str, rank: int, word: bytes) -> tuple[str, str]:
    """(name, JSON int list at depth 3) of the element with this word:
    ``element_name`` and the ``w_word`` cell, kept by value."""
    return element_name(cartan_type, rank, word), _int_list_text(3, word)


@functools.lru_cache(maxsize=_CHAIN_CELLS)
def _mu_cells(mu: tuple[int, ...]) -> tuple[str, str]:
    """(' t(mu)', JSON int list at depth 3) of a translation part: the tail
    of ``affine_element_text`` and the ``mu`` cell, kept by value."""
    return f" t({','.join(map(str, mu))})", _int_list_text(3, mu)


def _chain_name(W: WeylGroup, x: AffineElement) -> str:
    """``affine_element_text`` of a chain element, from the kept cells."""
    return _element_cells(W.rs.cartan_type, W.rs.rank, W._word[x.w])[0] + _mu_cells(x.mu)[0]


def chain_to_text(aw: AffineWeyl, chain) -> str:
    lines = []
    for x, gamma in chain:
        if gamma is None:
            lines.append(_chain_name(aw.W, x))
        else:
            lines.append(f"  > [{affine_root_text(gamma)}] {_chain_name(aw.W, x)}")
    return "\n".join(lines) + "\n"


def chain_to_dot(aw: AffineWeyl, chain) -> str:
    lines = ["digraph chain {"]
    prev = None
    for x, gamma in chain:
        name = _chain_name(aw.W, x)
        lines.append(f'  "{name}";')
        if prev is not None:
            lines.append(
                f'  "{prev}" -> "{name}" [label="{affine_root_text(gamma)}"];'
            )
        prev = name
    lines.append("}")
    return "\n".join(lines) + "\n"


#: the columns of a chain element's row in the ``qbgraph/chain/1``
#: document, and of a step's, which also carries its positive label
_CHAIN_START = (("mu", tuple), ("text", str), ("w_word", tuple))
_CHAIN_STEP = (("label", (("alpha", tuple), ("delta", int))),) + _CHAIN_START


@functools.cache
def _chain_format() -> tuple[str, str, str, str, str]:
    """(head, start template, step template, label template, tail) of the
    ``qbgraph/chain/1`` document, planned once per process: the rows are
    dicts at depth 2, in the list under "chain", and the head and tail are
    the text around that list."""
    memo: dict = {}
    [(_, head), (_, middle)], close = _plan(("chain", "schema"), 0, memo)
    start, _ = _row_format(_CHAIN_START, 2, memo)
    step, ((label, _), *_) = _row_format(_CHAIN_STEP, 2, memo)
    tail = middle + encode_basestring_ascii(SCHEMA_CHAIN) + close + "\n"
    return head, start, step, label, tail


@functools.lru_cache(maxsize=_CHAIN_CELLS)
def _label_cell(gamma: AffineRoot) -> str:
    """The ``label`` cell of a step down by gamma, its positive
    representative, kept by value."""
    pos = cover_label(gamma)
    return _chain_format()[3] % (_int_list_text(4, pos.alpha), pos.k)


def chain_to_json(aw: AffineWeyl, chain) -> str:
    """The ``qbgraph/chain/1`` document of a chain from ``lift_path``: one
    row per element, its label (the positive representative of the root
    stepped down by) on every row but the first.  The text is
    ``json.dumps(doc, indent=1, sort_keys=True)``'s, each row written
    through its planned template."""
    head, start, step, _label, tail = _chain_format()
    W = aw.W
    kind, rank, words = W.rs.cartan_type, W.rs.rank, W._word
    rows = []
    # the rows sit at depth 2, so their int lists at depth 3 and a label's
    # alpha at depth 4; the cells are kept by value across calls
    for x, gamma in chain:
        name, word = _element_cells(kind, rank, words[x.w])
        suffix, mu = _mu_cells(x.mu)
        cells = (mu, encode_basestring_ascii(name + suffix), word)
        if gamma is None:
            rows.append(start % cells)
        else:
            rows.append(step % ((_label_cell(gamma),) + cells))
    body = "[\n  " + ",\n  ".join(rows) + "\n ]" if rows else "[]"
    return head + body + tail


# -- level-zero slices ---------------------------------------------------------------


def weight_text(poset: LevelZeroPoset, mu: LevelZeroWeight) -> str:
    """Type A: affine-fundamental-weight style '2L0+L1-3L2+2d'; otherwise
    the (coset word, n) form."""
    return _coset_text(poset, mu.w) + _delta_text(poset, mu.n)


def _coset_text(poset: LevelZeroPoset, w: int) -> str:
    """The part of ``weight_text`` that depends on the coset alone."""
    W = poset.W
    if poset.rs.cartan_type != "A":
        return f"({W.describe(w)}, "
    from .level_zero import LevelZeroWeight

    coords = poset.weight_coordinates(LevelZeroWeight(w, 0))
    parts = []
    for i, c in enumerate((-sum(coords),) + coords):
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        mag = abs(c)
        parts.append(f"{sign}{'' if mag == 1 else mag}L{i}")
    return "".join(parts) if parts else "0"


def _delta_text(poset: LevelZeroPoset, n: int) -> str:
    """The part of ``weight_text`` that depends on the delta part n alone."""
    if poset.rs.cartan_type != "A":
        return f"{n})"
    if not n:
        return ""
    mag = abs(n)
    return f"{'-' if n < 0 else '+'}{'' if mag == 1 else mag}d"


def _slice_texts(poset: LevelZeroPoset) -> tuple[dict[int, str], _Memo]:
    """(coset texts by coset id, delta texts by n made on first use): the
    text of w(lambda) + n*delta is their concatenation."""
    heads = {w: _coset_text(poset, w) for w in poset.graph.vertices}
    return heads, _Memo(functools.partial(_delta_text, poset))


@_lines_in_chunks
def slice_dot_chunks(poset: LevelZeroPoset, window: int) -> Iterator[str]:
    """Hasse slice with the n = 0 layer (and its internal covers) in red."""
    heads, tails = _slice_texts(poset)
    ns = poset.slice_levels(window)
    names = [heads[w] + tails[n] for w in poset.graph.vertices for n in ns]
    levels, zero = len(ns), ns.index(0)  # ids are c * levels + level; n = 0 at level zero
    yield "digraph slice {\n"
    for i, name in enumerate(names):
        attrs = ' [color=red, fontcolor=red]' if i % levels == zero else ""
        yield f'  "{name}"{attrs};\n'
    labels = _Memo(affine_root_text)
    for lower, upper, label, _kind in poset.window_covers(window):
        red = ", color=red" if lower % levels == zero == upper % levels else ""
        yield f'  "{names[lower]}" -> "{names[upper]}" [label="{labels[label]}"{red}];\n'
    yield "}\n"


@_lines_in_chunks
def slice_text_chunks(poset: LevelZeroPoset, window: int) -> Iterator[str]:
    """A header line, then one 'mu < upper [label], ...' line per element
    with its graph-derived covers."""
    rs = poset.rs
    yield f"# slice {rs.cartan_type}{rs.rank} lambda={list(poset.lam)} window={window}\n"
    heads, tails = _slice_texts(poset)
    ns = poset.slice_levels(window)
    labels = _Memo(lambda label: f" [{affine_root_text(label)}]")
    for w in poset.graph.vertices:
        ups = [(heads[target], drop, labels[label])
               for target, drop, label, _kind in poset.coset_covers(w)]
        for n in ns:
            covers = ", ".join(head + tails[n - drop] + label for head, drop, label in ups)
            yield f"{heads[w]}{tails[n]} < {covers}\n"


def slice_json_chunks(poset: LevelZeroPoset, window: int) -> Iterator[str]:
    """The ``qbgraph/slice/1`` document; vertex and cover rows are made as
    they are written, each cover row from its ids and its label's text."""
    heads, tails = _slice_texts(poset)
    ns = poset.slice_levels(window)

    def vertex_rows():
        i = 0
        for w in poset.graph.vertices:
            word = poset.W._word[w]
            for n in ns:
                yield word, i, n, heads[w] + tails[n]
                i += 1

    def cover_texts(cut):  # head + dst + mid + src + close, cut once per (label, kind)
        cuts = _Memo(lambda key: cut((None, key[1], (key[0].alpha, key[0].k), None)))
        for src, dst, label, kind in poset.window_covers(window):
            head, mid, close = cuts[label, kind]
            yield f"{head}{dst}{mid}{src}{close}"

    doc = {
        "schema": SCHEMA_SLICE,
        "cartan_type": poset.rs.cartan_type,
        "rank": poset.rs.rank,
        "lambda": list(poset.lam),
        "window": window,
        "vertices": Rows(
            (("coset_word", tuple), ("id", int), ("n", int), ("text", str)), vertex_rows()
        ),
        "covers": RowTexts(
            (("dst", int), ("kind", str), ("label", (("alpha", tuple), ("delta", int))),
             ("src", int)),
            cover_texts,
        ),
    }
    yield from json_chunks(doc)
    yield "\n"


def slice_to_dot(poset: LevelZeroPoset, window: int) -> str:
    return "".join(slice_dot_chunks(poset, window))


def slice_to_json(poset: LevelZeroPoset, window: int) -> str:
    return "".join(slice_json_chunks(poset, window))


# -- lift tables and verify reports ---------------------------------------------------

# A lift table is what ``AffineWeyl.lift_table`` yields: (x, [(edge, y,
# gamma), ...]) per source, read once; x's text is made once per source.


def _lift_rows(W: WeylGroup, table) -> Iterator[tuple[str, str, str, str]]:
    """(kind, label, lower, upper) texts per lifted edge, in JSON key order;
    each label's text is made once per table, as one mu gives few labels."""
    labels = _Memo(affine_root_text)
    for x, lifts in table:
        upper = affine_element_text(W, x)
        for edge, y, gamma in lifts:
            yield edge.kind, labels[gamma], affine_element_text(W, y), upper


@_lines_in_chunks
def lifts_text_chunks(W: WeylGroup, table) -> Iterator[str]:
    """One 'upper > [label] lower' line per lifted edge."""
    for _kind, label, lower, upper in _lift_rows(W, table):
        yield f"{upper} > [{label}] {lower}\n"


@_lines_in_chunks
def lifts_dot_chunks(W: WeylGroup, table) -> Iterator[str]:
    """Graphviz text: one labelled arrow per lifted edge."""
    yield "digraph lifts {\n"
    for _kind, label, lower, upper in _lift_rows(W, table):
        yield f'  "{upper}" -> "{lower}" [label="{label}"];\n'
    yield "}\n"


def lifts_json_chunks(W: WeylGroup, mu, table) -> Iterator[str]:
    """The ``qbgraph/lifts/1`` document: one row per lifted edge."""
    covers = Rows((("kind", str), ("label", str), ("lower", str), ("upper", str)),
                  _lift_rows(W, table))
    yield from json_chunks({"schema": SCHEMA_LIFTS, "mu": list(mu), "covers": covers})
    yield "\n"


def tilted_to_text(W: WeylGroup, J: ParabolicIndex, u: int, z: int, x: int, distance: int) -> str:
    """The ``tilted`` answer: the base u, the coset z W_J, its minimum x in
    the tilted order at u, and the distance from u to x; u, z and x are
    element ids."""
    return (f"base    : {W.describe(u)}\n"
            f"coset   : {W.describe(z)} W_J, J={list(J.nodes)}\n"
            f"minimum : {W.describe(x)}\n"
            f"distance: {distance}\n")


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
