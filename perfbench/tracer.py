"""Per-layer tracing of qbgraph, installed from outside the package.

`Tracer.install` wraps the public entry points of each layer at class
level, and replaces every by-name import of a wrapped module-level function
(`qbgraph.cli.build_qbg`, `qbgraph.verify.build_qbg`, ...) and the suite
registry in `qbgraph.verify.SUITES`.  A span wrapper records (parent span,
operation, start, end) into flat in-memory arrays; a count wrapper only
bumps a counter, for calls too frequent and too small to time.  `save`
writes the spans out when the traced work ends; `summarize` derives each
operation's self time from them (its span minus the spans directly below
it) in the benchmark's parent process.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from array import array
from collections import Counter

# (layer, operation, module, attribute path); module functions are also
# replaced wherever another qbgraph module imported them by name.
SPANS = [
    ("root_system", "build", "qbgraph.root_system", "RootSystem.__init__"),
    ("root_system", "parabolic", "qbgraph.root_system", "RootSystem.parabolic"),
    ("weyl", "enumerate", "qbgraph.weyl", "WeylGroup.__init__"),
    ("weyl", "min_coset_rep", "qbgraph.weyl", "WeylGroup.min_coset_rep"),
    ("weyl", "min_coset_reps", "qbgraph.weyl", "WeylGroup.min_coset_reps"),
    ("weyl", "coset", "qbgraph.weyl", "WeylGroup.coset"),
    ("weyl", "subgroup", "qbgraph.weyl", "WeylGroup.subgroup_elements"),
    ("weyl", "longest", "qbgraph.weyl", "WeylGroup.longest_element"),
    ("weyl", "bruhat", "qbgraph.weyl", "WeylGroup.bruhat_leq"),
    ("weyl", "bruhat", "qbgraph.weyl", "WeylGroup.bruhat_covers"),
    ("qbg", "build", "qbgraph.qbg", "build_qbg"),
    ("qbg", "build", "qbgraph.qbg", "build_subsystem_qbg"),
    ("qbg", "build", "qbgraph.qbg", "induced_coset_subgraph"),
    ("qbg", "bfs", "qbgraph.qbg", "QbgGraph.distances_from"),
    ("qbg", "bfs", "qbgraph.qbg", "QbgGraph.shortest_path"),
    ("qbg", "diameter", "qbgraph.qbg", "QbgGraph.diameter"),
    ("qbg", "orderings", "qbgraph.qbg", "increasing_path"),
    ("qbg", "orderings", "qbgraph.qbg", "lexicographically_minimal_shortest"),
    ("qbg", "orderings", "qbgraph.qbg", "lambda_ordering"),
    ("qbg", "orderings", "qbgraph.qbg", "reflection_ordering_from_word"),
    ("affine", "length", "qbgraph.affine", "AffineWeyl.length"),
    ("affine", "length_by_inversions", "qbgraph.affine", "AffineWeyl.length_by_inversions"),
    ("affine", "lift_edge", "qbgraph.affine", "AffineWeyl.lift_edge"),
    ("affine", "lift_path", "qbgraph.affine", "AffineWeyl.lift_path"),
    ("affine", "lift_depth", "qbgraph.affine", "AffineWeyl.lift_depth"),
    ("affine", "project", "qbgraph.affine", "AffineWeyl.project"),
    ("affine", "project_cover", "qbgraph.affine", "AffineWeyl.project_cover"),
    ("affine", "cocovers", "qbgraph.affine", "AffineWeyl.cocovers"),
    ("affine", "sigma", "qbgraph.affine", "AffineWeyl.sigma_J"),
    ("affine", "z_mu", "qbgraph.affine", "AffineWeyl.z_mu"),
    ("affine", "superantidominant", "qbgraph.affine", "AffineWeyl.superantidominant_mu"),
    ("affine", "diamond", "qbgraph.affine", "complete_bottom"),
    ("affine", "diamond", "qbgraph.affine", "complete_top"),
    ("level_zero", "init", "qbgraph.level_zero", "LevelZeroPoset.__init__"),
    ("level_zero", "hasse", "qbgraph.level_zero", "LevelZeroPoset.hasse_covers"),
    ("level_zero", "leq", "qbgraph.level_zero", "LevelZeroPoset.leq"),
    ("level_zero", "dist", "qbgraph.level_zero", "LevelZeroPoset.dist"),
    ("level_zero", "covers", "qbgraph.level_zero", "LevelZeroPoset.covers"),
    ("tilted", "coset_min", "qbgraph.tilted", "TiltedOrder.coset_min"),
    ("tilted", "qlen", "qbgraph.tilted", "quantum_length"),
    ("tilted", "path_weights", "qbgraph.tilted", "compare_path_weights"),
    ("tilted", "path_weights", "qbgraph.tilted", "transform_path"),
    ("tilted", "path_weights", "qbgraph.tilted", "expected_weight_shift"),
    ("tilted", "connectivity", "qbgraph.tilted", "left_step_subgraph_strongly_connected"),
    ("render", "graph", "qbgraph.render", "graph_to_dot"),
    ("render", "graph", "qbgraph.render", "graph_to_json"),
    ("render", "graph", "qbgraph.render", "graph_to_text"),
    ("render", "chain", "qbgraph.render", "chain_to_dot"),
    ("render", "chain", "qbgraph.render", "chain_to_json"),
    ("render", "chain", "qbgraph.render", "chain_to_text"),
    ("render", "slice", "qbgraph.render", "slice_to_dot"),
    ("render", "slice", "qbgraph.render", "slice_to_json"),
    ("render", "text", "qbgraph.render", "affine_element_text"),
    ("render", "text", "qbgraph.render", "affine_root_text"),
    ("render", "text", "qbgraph.render", "weight_text"),
    ("cli", "qbg", "qbgraph.cli", "cmd_qbg"),
    ("cli", "lift", "qbgraph.cli", "cmd_lift"),
    ("cli", "poset", "qbgraph.cli", "cmd_poset"),
    ("cli", "tilted", "qbgraph.cli", "cmd_tilted"),
    ("cli", "qlen", "qbgraph.cli", "cmd_qlen"),
    ("cli", "verify", "qbgraph.cli", "cmd_verify"),
]

COUNTS = [
    ("root_system", "pairing", "qbgraph.root_system", "RootSystem.pairing"),
    ("weyl", "reflection", "qbgraph.weyl", "WeylGroup.reflection"),
    ("tilted", "left_step", "qbgraph.tilted", "left_step_edge"),
    ("tilted", "left_step", "qbgraph.tilted", "left_multiplication_step"),
]

RENDER_WRITERS = ("graph", "chain", "slice")


def _resolve(module: str, path: str):
    """(owner, attribute name, original) or None when the target is gone."""
    owner = sys.modules.get(module)
    if owner is None:
        return None
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(name)
    else:
        original = getattr(owner, name, None)
    if not callable(original):
        return None
    return owner, name, original


class Tracer:
    def __init__(self):
        self.ops: list[str] = []
        self._op_ids: dict[str, int] = {}
        self.parent = array("q")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._bfs_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._closure_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- wrappers ---------------------------------------------------------------

    def _op_id(self, name: str) -> int:
        got = self._op_ids.get(name)
        if got is None:
            got = self._op_ids[name] = len(self.ops)
            self.ops.append(name)
        return got

    def _span(self, name: str, fn, after=None):
        op_id = self._op_id(name)
        parent, op, start, end, stack = self.parent, self.op, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            op.append(op_id)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- size counters read at the wrapped boundaries ----------------------------

    def _after(self, layer: str, op: str, path: str):
        counts = self.counts
        if path == "WeylGroup.__init__":
            return lambda args, _kw, _r: counts.update({"weyl.elements": len(args[0])})
        if path in ("build_qbg", "build_subsystem_qbg"):
            def graph_size(_args, _kw, graph):
                counts["qbg.vertices"] += len(graph.vertices)
                counts["qbg.edges"] += len(graph.edges)
            return graph_size
        if path == "QbgGraph.distances_from":
            return self._note_bfs
        if layer == "level_zero" and op in ("hasse", "leq", "dist"):
            return self._note_closure
        if layer == "render" and op in RENDER_WRITERS:
            def rendered(_args, _kw, text):
                counts["render.calls"] += 1
                counts["render.bytes"] += len(text.encode())
            return rendered
        return None

    def _note_bfs(self, args, _kwargs, _result):
        """Distinct (graph, source) pairs: the BFS runs a per-source cache
        cannot avoid.  A graph is keyed weakly so the trace pins nothing."""
        seen = self._bfs_seen.setdefault(args[0], set())
        if args[1] not in seen:
            seen.add(args[1])
            self.counts["qbg.bfs_sources"] += 1

    def _note_closure(self, args, kwargs, _result):
        """Elements spanned by each (poset, window) closure a query needs."""
        poset, window = args[0], kwargs.get("window", args[-1])
        seen = self._closure_seen.setdefault(poset, set())
        if window not in seen:
            seen.add(window)
            self.counts["level_zero.closure_elems"] += len(poset.slice_elements(window))

    def _suite(self, name: str, fn):
        counts = self.counts

        def cases(_args, _kwargs, res):
            counts["verify.cases"] += len(res.cases)
            counts["verify.cases_failed"] += sum(1 for c in res.cases if not c.passed)

        return self._span(f"verify.suite.{name}", fn, cases)

    # -- installation -------------------------------------------------------------

    def _replace(self, owner, name: str, original, wrapped) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapped)
        if isinstance(owner, type):
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not mod_name.startswith("qbgraph"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def install(self) -> None:
        """Wrap every listed entry point; targets that no longer exist are skipped."""
        import qbgraph.cli  # noqa: F401 - loads every layer
        import qbgraph.verify as verify

        for layer, op, module, path in SPANS:
            got = _resolve(module, path)
            if got is not None:
                name = f"{layer}.{op}"
                self._replace(*got, self._span(name, got[2], self._after(layer, op, path)))
        for layer, op, module, path in COUNTS:
            got = _resolve(module, path)
            if got is not None:
                self._replace(*got, self._count(f"{layer}.{op}", got[2]))
        for suite, entry in list(verify.SUITES.items()):
            fn, rest = entry[0], entry[1:]
            self._patches.append((verify.SUITES, suite, entry))
            verify.SUITES[suite] = (self._suite(suite, fn), *rest)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Spans as four raw arrays in PATH.spans; operation names, the span
        count and the counters as JSON in PATH."""
        with open(path + ".spans", "wb") as f:
            for arr in (self.parent, self.op, self.start, self.end):
                arr.tofile(f)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"ops": self.ops, "spans": len(self.start),
                       "counts": dict(self.counts)}, f)


def summarize(path: str) -> dict:
    """Per-operation calls, total and self seconds from a saved trace."""
    with open(path, encoding="utf-8") as f:
        meta = json.load(f)
    n = meta["spans"]
    parent, op, start, end = array("q"), array("l"), array("d"), array("d")
    with open(path + ".spans", "rb") as f:
        for arr in (parent, op, start, end):
            arr.fromfile(f, n)
    child = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    ops = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in meta["ops"]}
    names = meta["ops"]
    for i in range(n):
        row = ops[names[op[i]]]
        dur = end[i] - start[i]
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - child[i]
    return {"ops": ops, "counts": meta["counts"]}
