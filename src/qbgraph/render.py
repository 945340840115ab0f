"""Deterministic text, DOT and JSON renderings of graphs, chains and slices.

Identical inputs give byte-identical output: everything is emitted in sorted
order and nothing depends on hashing or timestamps.
"""

from __future__ import annotations

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


def dump_json(doc) -> str:
    """``json.dumps(doc, indent=1, sort_keys=True)``, byte for byte.

    The stdlib encoder runs in pure Python whenever ``indent`` is set; this
    one emits by exact type, escapes strings with the stdlib's ASCII
    escaper, and renders each flat list of ints once per (values, depth).
    Documents hold dicts with str keys, lists, tuples, str, int, bool and
    None; anything else, floats included, raises ``TypeError``.
    """
    out: list[str] = []
    _emit_json(doc, 0, out, {})
    return "".join(out)


#: the text of each scalar type a document may hold, by exact type
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
_INT_ONLY = {int}


def _emit_json(o, depth: int, out: list, int_lists: dict) -> None:
    """Append the text of o, a value at the given nesting depth."""
    t = type(o)
    inner = "\n" + " " * (depth + 1)
    if t is dict:
        if not o:
            out.append("{}")
            return
        sep = "{" + inner
        for key in sorted(o):
            if type(key) is not str:
                raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
            value = o[key]
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                out.append(sep + encode_basestring_ascii(key) + ": " + scalar(value))
            else:
                out.append(sep + encode_basestring_ascii(key) + ": ")
                _emit_json(value, depth + 1, out, int_lists)
            sep = "," + inner
        out.append(inner[:-1] + "}")
    elif t is list or t is tuple:
        if not o:
            out.append("[]")
            return
        if {*map(type, o)} == _INT_ONLY:
            key = (tuple(o), depth)
            text = int_lists.get(key)
            if text is None:
                text = int_lists[key] = (
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
                _emit_json(value, depth + 1, out, int_lists)
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


def _vertex_names(graph: QbgGraph) -> dict[int, str]:
    return {v: graph.W.describe(graph.W.element(v)) for v in graph.vertices}


def graph_to_dot(graph: QbgGraph) -> str:
    """Graphviz text; quantum edges dashed and red."""
    names = _vertex_names(graph)
    lines = ["digraph qbg {"]
    for v in graph.vertices:
        lines.append(f'  "{names[v]}";')
    for v in graph.vertices:
        for e in graph.out[v]:
            attrs = [f'label="{root_text(e.label)}"']
            if e.kind == QUANTUM:
                attrs.append("style=dashed")
                attrs.append("color=red")
            lines.append(
                f'  "{names[e.source]}" -> "{names[e.target]}" [{", ".join(attrs)}];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: QbgGraph) -> str:
    W = graph.W
    verts = []
    for pos, v in enumerate(graph.vertices):
        el = W.element(v)
        row = {"id": pos, "word": list(el.word), "text": W.describe(el)}
        if graph.rs.cartan_type == "A":
            row["permutation"] = "".join(str(x) for x in W.one_line(el))
        verts.append(row)
    pos_of = {v: i for i, v in enumerate(graph.vertices)}
    edges = [
        {
            "src": pos_of[e.source],
            "dst": pos_of[e.target],
            "label": list(e.label),
            "kind": e.kind,
            "weight": list(e.weight),
        }
        for v in graph.vertices
        for e in graph.out[v]
    ]
    doc = {
        "schema": SCHEMA_GRAPH,
        "cartan_type": graph.rs.cartan_type,
        "rank": graph.rs.rank,
        "parabolic": list(graph.J.nodes),
        "vertices": verts,
        "edges": edges,
    }
    return dump_json(doc) + "\n"


def graph_to_text(graph: QbgGraph) -> str:
    names = _vertex_names(graph)
    lines = [
        f"# QB(W^J) {graph.rs.cartan_type}{graph.rs.rank} J={list(graph.J.nodes)}",
        f"# vertices={len(graph.vertices)} edges={len(graph.edges)} "
        f"quantum={len(graph.quantum_edges())}",
    ]
    for v in graph.vertices:
        for e in graph.out[v]:
            lines.append(
                f"{names[e.source]} -> {names[e.target]}"
                f" [{root_text(e.label)}] {e.kind}"
            )
    return "\n".join(lines) + "\n"


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


def slice_to_dot(poset: LevelZeroPoset, window: int) -> str:
    """Hasse slice with the n = 0 layer (and its internal covers) in red."""
    elems = poset.slice_elements(window)
    lines = ["digraph slice {"]
    for mu in elems:
        attrs = ' [color=red, fontcolor=red]' if mu.n == 0 else ""
        lines.append(f'  "{weight_text(poset, mu)}"{attrs};')
    in_slice = set(elems)
    for mu in elems:
        for cov in poset.covers(mu):
            if cov.upper not in in_slice:
                continue
            attrs = [f'label="{affine_root_text(cov.label)}"']
            if mu.n == 0 and cov.upper.n == 0:
                attrs.append("color=red")
            lines.append(
                f'  "{weight_text(poset, mu)}" -> "{weight_text(poset, cov.upper)}"'
                f' [{", ".join(attrs)}];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def slice_to_text(poset: LevelZeroPoset, window: int) -> str:
    """A header line, then one 'mu < upper [label], ...' line per element
    with its graph-derived covers."""
    rs = poset.rs
    lines = [f"# slice {rs.cartan_type}{rs.rank} lambda={list(poset.lam)} window={window}"]
    for mu in poset.slice_elements(window):
        covers = ", ".join(
            f"{weight_text(poset, c.upper)} [{affine_root_text(c.label)}]"
            for c in poset.covers(mu)
        )
        lines.append(f"{weight_text(poset, mu)} < {covers}")
    return "\n".join(lines) + "\n"


def slice_to_json(poset: LevelZeroPoset, window: int) -> str:
    elems = poset.slice_elements(window)
    pos_of = {mu: i for i, mu in enumerate(elems)}
    verts = [
        {
            "id": i,
            "coset_word": list(poset.W.element(mu.w).word),
            "n": mu.n,
            "text": weight_text(poset, mu),
        }
        for i, mu in enumerate(elems)
    ]
    edges = []
    for mu in elems:
        for cov in poset.covers(mu):
            if cov.upper not in pos_of:
                continue
            edges.append(
                {
                    "src": pos_of[mu],
                    "dst": pos_of[cov.upper],
                    "label": {"alpha": list(cov.label.alpha), "delta": cov.label.k},
                    "kind": cov.kind,
                }
            )
    doc = {
        "schema": SCHEMA_SLICE,
        "cartan_type": poset.rs.cartan_type,
        "rank": poset.rs.rank,
        "lambda": list(poset.lam),
        "window": window,
        "vertices": verts,
        "covers": edges,
    }
    return dump_json(doc) + "\n"


# -- lift tables and verify reports ---------------------------------------------------


def lifts_to_text(rows: list[dict]) -> str:
    """One 'upper > [label] lower' line per lifted edge."""
    lines = [f"{row['upper']} > [{row['label']}] {row['lower']}" for row in rows]
    return "\n".join(lines) + "\n"


def lifts_to_dot(rows: list[dict]) -> str:
    """Graphviz text: one labelled arrow per lifted edge."""
    lines = ["digraph lifts {"]
    for row in rows:
        lines.append(f'  "{row["upper"]}" -> "{row["lower"]}" [label="{row["label"]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def lifts_to_json(mu, rows: list[dict]) -> str:
    """The ``qbgraph/lifts/1`` document: one row per lifted edge."""
    doc = {"schema": SCHEMA_LIFTS, "mu": list(mu), "covers": rows}
    return dump_json(doc) + "\n"


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
