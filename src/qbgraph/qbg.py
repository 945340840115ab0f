"""The quantum Bruhat graph on W^J: construction, paths, duality, orderings.

``build_qbg`` decides every edge of QB(W^J) on the orbit W.lambda_J (for J
empty, the orbit of rho), ``weyl.WeightOrbit``.  Its vertices are the ids of
the enumerated group W for every caller that goes on to use group
operations (lifts, posets, tilted queries, verify), or the orbit's own ids
for the ``qbg`` command, which only renders the graph and never enumerates W.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator, Mapping, Sequence
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import index, mul
from typing import NamedTuple

from .root_system import (
    Coroot,
    ParabolicIndex,
    Root,
    add_vec,
)
from .weyl import WeightOrbit, WeylGroup

BRUHAT = "bruhat"
QUANTUM = "quantum"

#: the entry of a BFS row grown part way for a vertex not yet settled, and
#: (in ``settled_row``'s working row only) for a target not yet settled
UNSETTLED = 0xFFFF
WANTED = 0xFFFE


class PartialRow(NamedTuple):
    """A BFS row of ``QbgGraph.settled_row`` stopped part way, kept in the
    form it is grown in: ``dist`` by vertex position (UNSETTLED where no
    distance is known yet), the FIFO ``queue`` of settled positions in the
    order they were settled, and ``reader``, the iterator over that queue
    whose next item is the first position not yet expanded."""

    dist: list[int]
    queue: list[int]
    reader: Iterator[int]


def _bfs(start: int, adjacency: Sequence[Iterable[int]]) -> list[int]:
    """Per position the fewest steps from position start, a step going from
    p to each position of ``adjacency[p]``, or UNSETTLED where start does not
    reach: one FIFO BFS, each position's steps in their given order."""
    dist = [UNSETTLED] * len(adjacency)
    dist[start] = 0
    queue = [start]
    for p in queue:  # the queue grows as it is read
        d = dist[p] + 1
        for q in adjacency[p]:
            if dist[q] == UNSETTLED:
                dist[q] = d
                queue.append(q)
    return dist


def _reversed(n: int, columns, targets: Sequence[int]) -> list[list[int]]:
    """Per position q of n the positions p of the edges p -> q, in the order
    given: each column pairs sources p with CSR slots k, the edge p ->
    ``targets[k]``, or no edge for k = -1, filled straight into the lists."""
    preds: list[list[int]] = [[] for _ in range(n)]
    for sources, slots in columns:
        for p, k in zip(sources, slots):
            if k >= 0:
                preds[targets[k]].append(p)
    return preds


class GraphInvariantError(AssertionError):
    """A structural guarantee of the graph failed; signals a bug."""


class QbgEdge:
    """Directed edge source -> target labeled by a positive root.

    ``QbgGraph.out`` makes records from the graph's columns on demand.
    ``weight`` is the label's coroot on quantum edges and zero otherwise.
    It is never changed once made.  Edges are equal, and hash alike, on
    all five fields.
    """

    __slots__ = ("source", "target", "label", "kind", "weight")

    def __init__(self, source: int, target: int, label: Root, kind: str, weight: Coroot):
        self.source = source
        self.target = target
        self.label = label
        self.kind = kind
        self.weight = weight

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.source, self.target, self.label, self.kind, self.weight)
                == (other.source, other.target, other.label, other.kind, other.weight))

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.label, self.kind, self.weight))

    def __repr__(self) -> str:
        return (f"QbgEdge(source={self.source!r}, target={self.target!r}, label={self.label!r}, "
                f"kind={self.kind!r}, weight={self.weight!r})")


class QbgPath:
    """A directed path: a start vertex id plus consecutive edges.  Two paths
    are equal, and hash alike, when their starts and edges are."""

    __slots__ = ("start", "edges")

    def __init__(self, start: int, edges: tuple[QbgEdge, ...]):
        self.start = start
        self.edges = edges

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.start, self.edges) == (other.start, other.edges)

    def __hash__(self) -> int:
        return hash((self.start, self.edges))

    def __repr__(self) -> str:
        return f"QbgPath(start={self.start!r}, edges={self.edges!r})"

    @property
    def end(self) -> int:
        return self.edges[-1].target if self.edges else self.start

    def __len__(self) -> int:
        return len(self.edges)

    def weight(self, rank: int) -> Coroot:
        if not self.edges:
            return (0,) * rank
        return tuple(map(sum, zip(*(e.weight for e in self.edges))))


class _OutEdges(Mapping):
    """``QbgGraph.out``, read only: per vertex its edges in (label, kind)
    order.  A vertex's records are made from the graph's columns on first
    use and kept, so each read of an edge gives the same ``QbgEdge``.  It
    holds the columns, not the graph, so a graph is freed without the cycle
    collector."""

    __slots__ = ("vertices", "pos", "offsets", "targets", "types", "fields", "_made")

    def __init__(self, vertices, pos, offsets, targets, types, table):
        self.vertices, self.pos = vertices, pos
        self.offsets, self.targets, self.types = offsets, targets, types
        # the labels, kinds and weights of the type table, each a tuple
        self.fields = tuple(zip(*table)) or ((), (), ())
        self._made: dict[int, tuple[QbgEdge, ...]] = {}

    def __getitem__(self, v: int) -> tuple[QbgEdge, ...]:
        got = self._made.get(v)
        if got is None:
            p = self.pos[v]
            lo, hi = self.offsets[p], self.offsets[p + 1]
            types = self.types[lo:hi]
            labels, kinds, weights = self.fields
            got = tuple(map(
                QbgEdge, repeat(self.vertices[p], hi - lo),
                map(self.vertices.__getitem__, self.targets[lo:hi]),
                map(labels.__getitem__, types), map(kinds.__getitem__, types),
                map(weights.__getitem__, types),
            ))
            self._made[v] = got
        return got

    def __contains__(self, v) -> bool:
        return v in self.pos

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


class _EdgeList(Sequence):
    """``QbgGraph.edges``, read only: every edge, vertex by vertex in
    ``out`` order.  Its length is read from the columns and its records
    from ``out``; a slice is a tuple."""

    __slots__ = ("_out",)

    def __init__(self, out: _OutEdges):
        self._out = out

    def __len__(self) -> int:
        return len(self._out.targets)

    def __iter__(self):
        out = self._out
        return chain.from_iterable(map(out.__getitem__, out.vertices))

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        out, n, k = self._out, len(self), index(i)
        if not -n <= k < n:
            raise IndexError("edge index out of range")
        p = bisect_right(out.offsets, k % n) - 1  # a negative k counts from the end
        return out[out.vertices[p]][k % n - out.offsets[p]]

    def __eq__(self, other):
        if isinstance(other, (tuple, _EdgeList)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(tuple(self))


class QbgGraph:
    """Directed graph over W^J with Bruhat and quantum edges.

    Immutable once built.  The edges are held in flat columns, CSR form:
    per vertex position p, its edges are the slots ``_offsets[p]`` to
    ``_offsets[p + 1]`` of ``_targets`` (the target's vertex position) and
    ``_types`` (an index into ``_type_table``, the graph's distinct (label,
    kind, weight) triples, sorted by (label, kind)).  Each vertex's slots
    are sorted by (label, kind), so exports and searches are deterministic
    and a vertex's type indices never fall; each label's span of them is
    kept at its position in ``rs.positive_roots``.  ``out`` and ``edges``
    make ``QbgEdge`` records on demand, ``shortest_path`` and the left action
    only for the edges they return.  W is the ``WeylGroup`` whose ids the
    vertices are, or the ``WeightOrbit`` whose ids they are: an orbit graph
    is rendered and searched, but the left action and duality need the group.
    """

    def __init__(self, W: WeylGroup | WeightOrbit, J: ParabolicIndex, vertices, edges):
        """The graph of the given edges, each sorted into its source's slots
        by (label, kind), edges that tie keeping their given order."""
        vertices = tuple(vertices)
        pos = {v: i for i, v in enumerate(vertices)}
        edges = sorted(edges, key=lambda e: (pos[e.source], e.label, e.kind))
        table = sorted(dict.fromkeys((e.label, e.kind, e.weight) for e in edges),
                       key=lambda t: (t[0], t[1]))
        index = {t: i for i, t in enumerate(table)}
        degree = [0] * len(vertices)
        for e in edges:
            degree[pos[e.source]] += 1
        self._setup(W, J, vertices, pos, array("I", accumulate(degree, initial=0)),
                    array("I", [pos[e.target] for e in edges]),
                    array("H", [index[(e.label, e.kind, e.weight)] for e in edges]),
                    tuple(table))

    @classmethod
    def _from_columns(cls, W, J, vertices, offsets: array, targets: array, types: array,
                      table: tuple) -> QbgGraph:
        """The graph of columns already in CSR form and (label, kind) order."""
        graph = cls.__new__(cls)
        vertices = tuple(vertices)
        graph._setup(W, J, vertices, {v: i for i, v in enumerate(vertices)},
                     offsets, targets, types, table)
        return graph

    def _setup(self, W, J, vertices, vertex_pos, offsets, targets, types, table) -> None:
        self.W = W
        self.rs = W.rs
        self.J = J
        self.vertices = vertices
        self.vertex_pos = vertex_pos
        self._offsets, self._targets, self._types = offsets, targets, types
        self._type_table: tuple[tuple[Root, str, Coroot], ...] = table
        # per positive root position the span [first, end) of type indices it labels
        spans = self._label_spans = [(0, 0)] * len(self.rs.positive_roots)
        for t, (label, _kind, _weight) in enumerate(table):
            if (b := self.rs._root_index.get(label)) is not None:
                spans[b] = (spans[b][0] if spans[b][1] else t, t + 1)
        self.out = _OutEdges(vertices, vertex_pos, offsets, targets, types, table)
        self.edges = _EdgeList(self.out)
        # per vertex position the positions of its out-edge targets, in
        # ``out`` order; per source id its complete BFS row by vertex
        # position, or its row grown part way in working form
        # (``settled_row``); all filled on first use
        self._succ: list[tuple[int, ...]] | None = None
        self._dist: dict[int, array] = {}
        self._partial: dict[int, PartialRow] = {}
        # the left action of s_0, ..., s_r, filled on first use: per j its
        # columns (``_left_steps``) and pushed slots (``_pushed``), the
        # subgraph of step edges, and the fewest steps from each vertex to e
        self._step_columns: dict[int, tuple[bytes, array, array]] = {}
        self._pushed_slots: dict[int, array] = {}
        self._step_graph: QbgGraph | None = None
        self._step_lengths: array | None = None
        # per j the surgery sign row (``sign_row``) and the theta coroot row
        # (``theta_coroots``), both read off the label columns; the
        # AffineWeyl of the theta steps' checks, filled by ``tilted``
        self._sign_rows: dict[int, list[int]] = {}
        self._theta_coroots: list[Coroot] | None = None
        self._affine_weyl = None

    # -- lookups -----------------------------------------------------------

    def edge_rows(self) -> Iterator[tuple[int, int, Root, str, Coroot]]:
        """(source position, target position, label, kind, weight) per edge,
        in ``edges`` order, read from the columns: no ``QbgEdge`` is made."""
        offsets, targets, types, table = self._offsets, self._targets, self._types, self._type_table
        for p in range(len(self.vertices)):
            lo, hi = offsets[p], offsets[p + 1]
            for q, t in zip(targets[lo:hi], types[lo:hi]):
                yield (p, q, *table[t])

    def edge(self, source: int, label: Root) -> QbgEdge | None:
        """The edge out of source with this label: a vertex has at most one.
        Found by ``_slot`` at the label's position and read from ``out``."""
        p, b = self.vertex_pos.get(source), self.rs._root_index.get(label)
        if p is None or b is None:
            return None
        k = self._slot(p, b)
        return None if k < 0 else self.out[source][k - self._offsets[p]]

    def _record(self, p: int, k: int) -> QbgEdge:
        """A record, made alone, of the edge in CSR slot k out of position p."""
        return QbgEdge(self.vertices[p], self.vertices[self._targets[k]],
                       *self._type_table[self._types[k]])

    def _edge_slot(self, edge: QbgEdge) -> tuple[int, int]:
        """(source position, CSR slot) of an edge record; ValueError when it
        is not an edge of the graph."""
        p, b = self._position(edge.source), self.rs._root_index.get(edge.label)
        k = -1 if b is None else self._slot(p, b)
        if (k < 0 or self.vertices[self._targets[k]] != edge.target
                or self._type_table[self._types[k]] != (edge.label, edge.kind, edge.weight)):
            raise ValueError(f"{edge!r} is not an edge of this graph")
        return p, k

    def _slot(self, p: int, b: int) -> int:
        """The CSR slot of the edge out of position p labelled by root position b, or -1."""
        first, end = self._label_spans[b]
        types, lo, hi = self._types, self._offsets[p], self._offsets[p + 1]
        k = bisect_left(types, first, lo, hi)
        return k if k < hi and types[k] < end else -1

    # -- the left action of s_0, ..., s_r ---------------------------------------

    def _left_steps(self, j: int) -> tuple[bytes, array, array]:
        """The left action of s_j (s_0 = r_theta) on every vertex x, as columns by
        vertex position: the label x^{-1}(tilde alpha_j), a position in ``W._signed``
        read off x^{-1}'s signed root permutation; the CSR slot (``_slot``) of the
        step edge x -> floor(s_j x), present exactly when the label is in Phi+ minus
        Phi_J, else -1; and floor(s_j x) from the group's tables, checked against
        each slot's target.  Kept per j.  Before any table is read, an orbit graph
        raises TypeError and a j out of 0..rank ValueError."""
        got = self._step_columns.get(j)
        if got is None:
            if not isinstance(self.W, WeylGroup):
                raise TypeError("the left action needs a graph on the enumerated WeylGroup")
            W, J, vertices, tilde = self.W, self.J, self.vertices, self.rs.tilde_root(j)
            i, inverse, get, perm = W._signed_pos[tilde], W._inverse, W._perms.get, W._signed_perm
            labels = bytes([(get(w) or perm(w))[i] for w in map(inverse.__getitem__, vertices)])
            if j:  # s_j x = (x^{-1} r_j)^{-1}, from the right table
                col = W._right[j - 1]
                moved = [inverse[col[inverse[x]]] for x in vertices]
            else:
                moved = map(W.mul, repeat(W.right_reflect(0, tilde)), vertices)
            floors = array("I", [W.coset_floor(w, J) for w in moved])
            slots, in_J = array("i", [-1]) * len(vertices), J.in_phi_J
            for p, b in enumerate(labels):
                if b < len(in_J) and not in_J[b]:
                    k = self._slot(p, b)
                    if k < 0 or vertices[self._targets[k]] != floors[p]:
                        raise GraphInvariantError(
                            f"left step by {j} at W[{W.describe(vertices[p])}] is not a graph edge"
                        )
                    slots[p] = k
            got = self._step_columns[j] = (labels, slots, floors)
        return got

    def left_step(self, j: int, x: int) -> tuple[int, QbgEdge | None]:
        """floor(s_j x) and the step edge out of x, or None, from ``_left_steps``,
        making only that edge's record; ValueError when x is not a vertex."""
        _labels, slots, floors = self._left_steps(j)
        p = self._position(x)
        return floors[p], (None if slots[p] < 0 else self._record(p, slots[p]))

    def step_label(self, j: int, x: int) -> Root:
        """x^{-1}(tilde alpha_j), the label of ``left_step(j, x)``."""
        return self.W._signed[self._left_steps(j)[0][self._position(x)]]

    def sign_row(self, j: int) -> list[int]:
        """Per vertex position x the surgery sign <tilde alpha_j^vee, x(lambda_J)>
        = <(x^{-1} tilde alpha_j)^vee, lambda_J>, one pairing per distinct label
        of ``_left_steps(j)``.  Kept per j."""
        got = self._sign_rows.get(j)
        if got is None:
            labels, signed, coroot = self._left_steps(j)[0], self.W._signed, self.rs.coroot
            pair = {b: sum(map(mul, coroot(signed[b]), self.J.lambda_J)) for b in set(labels)}
            got = self._sign_rows[j] = list(map(pair.__getitem__, labels))
        return got

    def theta_coroots(self) -> list[Coroot]:
        """Per vertex position x the coroot x^{-1}(tilde alpha_0^vee) of its
        theta step label, read off ``_left_steps(0)``.  Kept."""
        got = self._theta_coroots
        if got is None:
            signed, coroot = self.W._signed, self.rs.coroot
            got = self._theta_coroots = [coroot(signed[b]) for b in self._left_steps(0)[0]]
        return got

    def push_edge(self, j: int, edge: QbgEdge) -> QbgEdge:
        """The edge floor(s_j a) -> floor(s_j b) parallel to the edge a -> b of
        the graph (``_push_slot``), read from ``out``."""
        return self.edges[self._push_slot(j, *self._edge_slot(edge))]

    def _pushed(self, j: int) -> array:
        """Per CSR slot its ``_push_slot`` across s_j, or -1 while unfilled."""
        got = self._pushed_slots.get(j)
        if got is None:
            got = self._pushed_slots[j] = array("i", [-1]) * len(self._targets)
        return got

    def _push_slot(self, j: int, p: int, k: int) -> int:
        """The slot of the edge floor(s_j a) -> floor(s_j b) parallel to the
        edge a -> b in slot k out of position p.  It keeps the label,
        twisted for j = 0 by the theta twist z of a (r_theta a =
        floor(r_theta a) z).  Kept in ``_pushed(j)`` once its check passes."""
        floors, table = self._left_steps(j)[2], self._pushed(j)  # j checked first
        got = table[k]
        if got < 0:
            label = self._type_table[self._types[k]][0]
            if j == 0:
                label = self.W.act(self.W.theta_twist(self.vertices[p], self.J), label)
            a, b = self.vertex_pos.get(floors[p]), self.rs._root_index.get(label)
            got = -1 if a is None or b is None else self._slot(a, b)
            if got < 0 or self.vertices[self._targets[got]] != floors[self._targets[k]]:
                raise GraphInvariantError("pushed edge is missing from the graph")
            table[k] = got
        return got

    def step_graph(self) -> QbgGraph:
        """The subgraph of the step edges x -> floor(s_j x), j in 0..rank."""
        if self._step_graph is None:
            kept = sorted(k for j in range(self.rs.rank + 1)
                          for k in self._left_steps(j)[1] if k >= 0)
            self._step_graph = QbgGraph._from_columns(
                self.W, self.J, self.vertices,
                array("I", [bisect_left(kept, k) for k in self._offsets]),
                array("I", map(self._targets.__getitem__, kept)),
                array("H", map(self._types.__getitem__, kept)), self._type_table)
        return self._step_graph

    def step_lengths(self) -> array:
        """Per vertex position the fewest step edges x -> floor(s_j x) from
        the vertex to e, or UNSETTLED where e is out of reach: one BFS from
        e over the step slots reversed.  Built on first use and kept."""
        row = self._step_lengths
        if row is None:
            n = len(self.vertices)
            preds = _reversed(n, ((range(n), self._left_steps(j)[1])
                                  for j in range(self.rs.rank + 1)), self._targets)
            row = self._step_lengths = array("H", _bfs(self._position(0), preds))
        return row

    # -- distances -----------------------------------------------------------

    def _position(self, v: int) -> int:
        pos = self.vertex_pos.get(v)
        if pos is None:
            raise ValueError(f"{v} is not a vertex of this graph")
        return pos

    def _successors(self) -> list[tuple[int, ...]]:
        succ = self._succ
        if succ is None:
            offsets, targets = self._offsets, self._targets
            succ = self._succ = [tuple(targets[offsets[p]:offsets[p + 1]])
                                 for p in range(len(self.vertices))]
        return succ

    def settled_row(self, u: int, targets=None) -> Sequence[int]:
        """u's BFS row by vertex position (``vertex_pos``), grown until every
        position in targets is settled; with no targets, the complete row.

        The BFS expands one vertex at a time from a FIFO queue, each
        vertex's successors in ``out`` order, and stops after the vertex
        whose expansion settles the last target.  The row is complete once
        every vertex has entered the queue, which each settled vertex does
        once; it is then packed into an ``array("H")`` kept in ``_dist``.
        A row stopped short of that is kept in ``_partial`` in its working
        form (``PartialRow``: the distance list, the queue and the queue's
        reader) and returned as that list, whose entries read UNSETTLED
        where no distance is known yet; the next call for u resumes it in
        place.  When the queue runs out with a target unsettled, or with
        any vertex unsettled and no targets, it raises GraphInvariantError
        and keeps nothing of u's row.
        """
        row = self._dist.get(u)
        if row is not None:
            return row
        state = self._partial.get(u)
        if state is None:
            start = self._position(u)
            dist = [UNSETTLED] * len(self.vertices)
            dist[start] = 0
            queue = [start]
            reader = iter(queue)
        else:
            dist, queue, reader = state
        # the targets still unsettled read WANTED in the working row, so a
        # settle tells whether it was one; with no targets, left never
        # reaches zero and the queue runs out
        left = -1
        if targets is not None:
            left = 0
            for t in targets:
                if dist[t] == UNSETTLED:
                    dist[t] = WANTED
                    left += 1
            if not left and state is not None:
                return dist
        if left:
            succ, wanted = self._successors(), WANTED
            for p in reader:  # the queue grows as it is read
                d = dist[p] + 1
                for q in succ[p]:
                    if dist[q] >= wanted:
                        if dist[q] == wanted:
                            left -= 1
                        dist[q] = d
                        queue.append(q)
                if not left:
                    break
        if len(queue) == len(dist):
            self._partial.pop(u, None)
            row = self._dist[u] = array("H", dist)
            return row
        if left:  # the queue ran out short of a target, or of the whole row
            self._partial.pop(u, None)
            raise GraphInvariantError("graph is not strongly connected")
        if state is None:
            self._partial[u] = PartialRow(dist, queue, reader)
        return dist

    def distances_from(self, u: int) -> array:
        """The BFS distance from u to every vertex, indexed by vertex position
        (``vertex_pos``); kept per source.  Raises GraphInvariantError when
        some vertex is unreachable from u."""
        return self.settled_row(u)

    def distance(self, u: int, v: int) -> int:
        """The BFS distance from u to v, from u's row grown only until v is
        settled; raises GraphInvariantError when v is unreachable from u."""
        p = self._position(v)
        return self.settled_row(u, (p,))[p]

    def shortest_path(self, u: int, v: int) -> QbgPath:
        """A BFS witness path, deterministic via sorted adjacency: each vertex
        is reached by the first edge, in ``out`` order, of the first vertex
        in BFS order that has an edge to it; only its records are made."""
        start, goal = self._position(u), self._position(v)
        succ = self._successors()
        parent = [-1] * len(succ)
        parent[start] = start
        queue = [start]
        for p in queue:  # the list grows as it is read: a FIFO queue
            if parent[goal] >= 0:
                break
            for q in succ[p]:
                if parent[q] < 0:
                    parent[q] = p
                    queue.append(q)
        if parent[goal] < 0:
            raise GraphInvariantError("graph is not strongly connected")
        edges = []
        q = goal
        while q != start:
            p = parent[q]
            edges.append(self._record(p, self._offsets[p] + succ[p].index(q)))
            q = p
        edges.reverse()
        return QbgPath(u, tuple(edges))

    def weights_from(self, u: int) -> list[Coroot]:
        """Per vertex position v the weight of ``shortest_path(u, v)``, summed
        down the same FIFO BFS tree; GraphInvariantError when some vertex is
        unreachable from u."""
        offsets, targets, types = self._offsets, self._targets, self._types
        weights = [t[2] for t in self._type_table]
        start = self._position(u)
        row: list = [None] * len(self.vertices)
        row[start] = self.rs.zero
        queue = [start]
        for p in queue:  # the queue grows as it is read
            w = row[p]
            for k in range(offsets[p], offsets[p + 1]):
                if row[q := targets[k]] is None:
                    row[q] = add_vec(w, weights[types[k]])
                    queue.append(q)
        if len(queue) < len(row):
            raise GraphInvariantError("graph is not strongly connected")
        return row

    def strongly_connected(self) -> bool:
        """Whether every vertex reaches every other: one BFS from the first
        vertex over the edges, then one over the edges reversed.  Nothing is
        kept on the graph."""
        n, offsets, targets = len(self.vertices), self._offsets, self._targets
        ends = offsets[1:]
        if UNSETTLED in _bfs(0, [targets[lo:hi] for lo, hi in zip(offsets, ends)]):
            return False
        preds = _reversed(n, zip(map(repeat, range(n)), map(range, offsets, ends)), targets)
        return UNSETTLED not in _bfs(0, preds)

    def diameter(self) -> int:
        """The exact diameter, the largest entry of one ``_bfs`` per source over
        the successors, no row kept; GraphInvariantError if not strongly connected."""
        succ = self._successors()
        top = max(max(_bfs(p, succ)) for p in range(len(succ)))
        if top == UNSETTLED:
            raise GraphInvariantError("graph is not strongly connected")
        return top

    def iter_paths(self, u: int, v: int, max_len: int):
        """Yield every directed path u -> v of length at most max_len.

        Depth first over the sorted adjacency lists, shorter prefixes first;
        the walk keeps one edge iterator per step on an explicit stack.
        """
        if u == v:
            yield QbgPath(u, ())
        if max_len <= 0:
            return
        edges: list[QbgEdge] = []
        frames = [iter(self.out[u])]
        while frames:
            e = next(frames[-1], None)
            if e is None:
                frames.pop()
                if edges:
                    edges.pop()
                continue
            edges.append(e)
            if e.target == v:
                yield QbgPath(u, tuple(edges))
            if len(edges) < max_len:
                frames.append(iter(self.out[e.target]))
            else:
                edges.pop()

    def quantum_edges(self) -> tuple[QbgEdge, ...]:
        return tuple(e for e in self.edges if e.kind == QUANTUM)


def quotient_diameter(J: ParabolicIndex) -> int:
    """The diameter of QB(W^J) in closed form: |Phi+ minus Phi_J+|.

    Upper bound: by the shellability of QB(W^J), for every u, v there is a
    unique path u -> v whose labels increase in a lambda-reflection
    ordering, and it is a shortest path (``increasing_paths`` checks both,
    and the ``orderings`` suite runs it).  Its labels are distinct roots of
    Phi+ minus Phi_J+, so d(u, v) <= |Phi+ minus Phi_J+|.  Lower bound: an
    edge raises the length by at most one, so d(e, floor(w_0)) >=
    l(floor(w_0)) = |Phi+| - |Phi_J+|.  No graph is searched.
    """
    return len(J.in_phi_J) - len(J.phi_plus)


def build_qbg(W: WeylGroup | WeightOrbit, J: ParabolicIndex) -> QbgGraph:
    """The quantum Bruhat graph on the minimum-length coset representatives,
    decided on the orbit W.lambda_J.

    W is the enumerated group, whose ids become the vertices, or the orbit
    ``WeightOrbit(rs, J)`` itself, whose own ids do.  The searched orbit
    lists W^J in (length, shortlex) order, and W names each point by the id
    its word spells (``WeylGroup.min_coset_ids``); the vertices are listed
    in that order.

    The edges are written straight into the graph's columns, one type
    index pair (Bruhat, quantum) per label; ``positive_roots`` is sorted, so
    each vertex's slots come out in (label, kind) order.  The target
    floor(w r_alpha) is the orbit point w r_alpha(lambda_J) =
    v - <alpha^vee, lambda_J> w(alpha) for w's name v, with w(alpha) read
    from w's signed root permutation; names are packed, so the target's key
    is w's key minus one precomputed int.  The edge is Bruhat when the
    target's length is l(w) + 1, and quantum when it is l(w) + 1 -
    <alpha^vee, 2rho - 2rho_J>.  That shift is checked to be at least 2 per
    label, so the kinds never collide; a target that is not an orbit point
    raises ``GraphInvariantError``.
    """
    orbit = W if isinstance(W, WeightOrbit) else WeightOrbit(W.rs, J)
    if J != orbit.J:
        raise ValueError(f"the orbit is of J = {orbit.J.nodes}, not {J.nodes}")
    # the vertices, and every edge's ends, share the int objects of ids
    ids = tuple(range(len(W))) if orbit is W else W.min_coset_ids(J, orbit)
    found = {key: p for p, key in enumerate(orbit._key)}
    rs = orbit.rs
    # per signed root position, the packed w(alpha) with no offset
    images = orbit._moves()
    length, zero = W._length, rs.zero
    plan, table = [], []
    for b, alpha in enumerate(rs.positive_roots):
        if not J.in_phi_J[b]:
            shift = J.quantum_shift[alpha]
            if shift < 2:
                raise GraphInvariantError(f"quantum shift {shift} of {alpha} is below 2")
            coroot = rs.coroot(alpha)
            c = sum(map(mul, coroot, J.lambda_J))
            plan.append((b, alpha, shift, len(table), [c * x for x in images]))
            table += [(alpha, BRUHAT, zero), (alpha, QUANTUM, coroot)]
    lengths = [length[w] for w in ids]
    offsets, targets, types = array("I", [0]), array("I"), array("H")
    end, target, kind = offsets.append, targets.append, types.append
    for w, key, perm, lw in zip(ids, orbit._key, orbit._perm, lengths):
        up = lw + 1
        for b, alpha, shift, t, moved in plan:
            try:
                x = found[key - moved[perm[b]]]
            except KeyError:
                raise GraphInvariantError(
                    f"the target of {alpha} out of W[{W.describe(w)}] is not in W^J"
                ) from None
            lx = lengths[x]
            if lx == up:
                target(x)
                kind(t)
            elif lx == up - shift:
                target(x)
                kind(t + 1)
        end(len(targets))
    return QbgGraph._from_columns(W, J, ids, offsets, targets, types, tuple(table))


def build_subsystem_qbg(W: WeylGroup, J: ParabolicIndex) -> QbgGraph:
    """The quantum Bruhat graph of the parabolic subsystem W_J itself, a
    different graph from QB(W^J): over the elements of W_J and the labels
    Phi_J^+, w -> w r_alpha is Bruhat when the length goes up by one, and
    quantum when it is l(w) + 1 - <alpha^vee, 2rho_J>, which is
    <alpha^vee, 2rho> on Phi_J (2rho - 2rho_J is W_J-invariant)."""
    rs, length = W.rs, W._length
    shift = rs.parabolic(()).quantum_shift
    order = W.subgroup_elements(J.nodes)
    edges = []
    for w in order:
        row, up = W.reflection_row(w), length[w] + 1
        for b, alpha in zip(J.phi_plus_pos, J.phi_plus):
            x = row[b]
            if length[x] == up:
                edges.append(QbgEdge(w, x, alpha, BRUHAT, rs.zero))
            elif length[x] == up - shift[alpha]:
                edges.append(QbgEdge(w, x, alpha, QUANTUM, rs.coroot(alpha)))
    return QbgGraph(W, J, order, edges)


def induced_coset_subgraph(graph: QbgGraph, z: int, J: ParabolicIndex) -> QbgGraph:
    """Induced subgraph of QB(W) on the coset z W_J."""
    ids = set(graph.W.coset_ids(z, J))
    keep = [e for e in graph.edges if e.source in ids and e.target in ids]
    return QbgGraph(graph.W, J, sorted(ids), keep)


def dual_involution(graph: QbgGraph, w: int) -> int:
    """The duality w -> w_0 w w_0^J on W^J; reverses edges, preserves kinds."""
    W = graph.W
    return W.mul(W.mul(W.longest(), w), W.longest(graph.J.nodes))


# -- reflection orderings -----------------------------------------------------


class ReflectionOrdering:
    """A total order on a set of positive roots.

    For any two ordered roots whose sum is also in the set, the sum sits
    strictly between them.  Orderings are equal, and hash alike, on their sequence.
    """

    def __init__(self, sequence: tuple[Root, ...]):
        self.sequence = sequence

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sequence == other.sequence

    def __hash__(self) -> int:
        return hash((self.sequence,))

    def __repr__(self) -> str:
        return f"ReflectionOrdering(sequence={self.sequence!r})"

    def position(self, alpha: Root) -> int:
        return self._pos[alpha]

    @cached_property
    def _pos(self) -> dict[Root, int]:
        return {a: i for i, a in enumerate(self.sequence)}

    def validate(self) -> None:
        pos = self._pos
        for a, i in pos.items():
            for b, j in pos.items():
                if i < j:
                    s = add_vec(a, b)
                    k = pos.get(s)
                    if k is not None and not (i < k < j):
                        raise GraphInvariantError(
                            f"betweenness fails: {a} < {b} but {s} at {k}"
                        )


def _word_roots(W: WeylGroup, word) -> tuple[tuple[Root, ...], int]:
    """The roots r_{i_1} ... r_{i_{k-1}}(alpha_{i_k}) along a word of 1-based
    generator indices, and the id of the word's product."""
    roots = []
    prefix = 0
    simples = W.rs.simple_roots()
    for k in word:
        if not 1 <= k <= W.rank:
            raise ValueError(f"generator index {k} out of range")
        roots.append(W.act(prefix, simples[k - 1]))
        prefix = W._right[k - 1][prefix]
    return tuple(roots), prefix


def reflection_ordering_from_word(W: WeylGroup, word) -> ReflectionOrdering:
    """The ordering beta_k = r_{i_1} ... r_{i_{k-1}}(alpha_{i_k}) from a
    reduced word for the longest element."""
    seq, w = _word_roots(W, word)
    w0 = W.longest()
    if w != w0 or len(seq) != W._length[w0]:
        raise ValueError("word is not a reduced word for the longest element")
    if sorted(seq) != sorted(W.rs.positive_roots):
        raise GraphInvariantError("word ordering does not enumerate Phi+")
    ordering = ReflectionOrdering(seq)
    ordering.validate()
    return ordering


def subsystem_word_ordering(W: WeylGroup, J: ParabolicIndex) -> tuple[Root, ...]:
    """Ordering of Phi_J^+ derived from the shortlex word of w_0^J."""
    seq, _ = _word_roots(W, W._word[W.longest(J.nodes)])
    if sorted(seq) != sorted(J.phi_plus):
        raise GraphInvariantError("subsystem word ordering does not enumerate Phi_J+")
    return seq


def lambda_ordering(W: WeylGroup, lam: tuple[int, ...], J: ParabolicIndex,
                    sub_order: tuple[Root, ...] | None = None) -> ReflectionOrdering:
    """Ordering with Phi+ minus Phi_J+ first, sorted by the lexicographic
    order on coroot vectors scaled by 1 / <alpha^vee, lambda>.

    lam is given over the fundamental weights and must have stabilizer
    exactly W_J, i.e. its zero set must be J.
    """
    rs = W.rs
    if len(lam) != rs.rank or any(c < 0 for c in lam):
        raise ValueError("lambda must be dominant")
    zeros = tuple(i + 1 for i, c in enumerate(lam) if c == 0)
    if zeros != J.nodes:
        raise ValueError("stabilizer of lambda does not match J")

    outer = [(rs.coroot(a), a) for a in rs.positive_roots if not J.supports(a)]
    # every coroot over one common denominator, the lcm of the <alpha^vee, lambda>
    denoms = [sum(map(mul, cor, lam)) for cor, _ in outer]
    common = math.lcm(*denoms)
    outer = [(tuple(c * (common // d) for c in cor), a) for (cor, a), d in zip(outer, denoms)]
    keys = [k for k, _ in outer]
    if len(set(keys)) != len(keys):
        raise GraphInvariantError("scaled coroot images are not distinct")
    outer.sort()
    inner = subsystem_word_ordering(W, J) if sub_order is None else sub_order
    ordering = ReflectionOrdering(tuple(a for _, a in outer) + tuple(inner))
    ordering.validate()
    return ordering


def _increasing_walk(graph: QbgGraph, u: int,
                     ordering: ReflectionOrdering) -> dict[int, list[tuple[QbgEdge, ...]]]:
    """Every path out of u whose labels strictly increase, by its end.

    Exhaustive search with monotone pruning: one walk from u finds the
    increasing paths to every end at once.
    """
    pos = ordering._pos
    hits: dict[int, list[tuple[QbgEdge, ...]]] = {u: [()]}
    edges: list[QbgEdge] = []
    # one (edge iterator, position of the label that entered it) per step
    frames = [(iter(graph.out[u]), -1)]
    while frames:
        it, floor_pos = frames[-1]
        e = next(it, None)
        if e is None:
            frames.pop()
            if edges:
                edges.pop()
            continue
        p = pos[e.label]
        if p > floor_pos:
            edges.append(e)
            hits.setdefault(e.target, []).append(tuple(edges))
            frames.append((iter(graph.out[e.target]), p))
    return hits


def _unique_increasing(graph: QbgGraph, u: int, v: int, found) -> QbgPath:
    """The one increasing path u -> v among those found; raises if the count
    is not exactly one, which would mean the ordering is not a reflection
    ordering or the graph is corrupt, or if it is not a shortest path."""
    if len(found) != 1:
        raise GraphInvariantError(
            f"expected exactly one increasing path, found {len(found)}"
        )
    path = QbgPath(u, found[0])
    if len(path) != graph.distance(u, v):
        raise GraphInvariantError("increasing path is not a shortest path")
    return path


def increasing_paths(graph: QbgGraph, u: int, ordering: ReflectionOrdering) -> dict[int, QbgPath]:
    """The unique path u -> v whose labels strictly increase, for every
    vertex v in the order of ``graph.vertices``, from one search out of u.
    Raises unless every vertex is the end of exactly one increasing path
    and that path is a shortest path."""
    hits = _increasing_walk(graph, u, ordering)
    return {v: _unique_increasing(graph, u, v, hits.get(v, ())) for v in graph.vertices}


def increasing_path(graph: QbgGraph, u: int, v: int, ordering: ReflectionOrdering) -> QbgPath:
    """The unique path u -> v whose labels strictly increase: the search of
    ``increasing_paths``, checked at v alone."""
    return _unique_increasing(graph, u, v, _increasing_walk(graph, u, ordering).get(v, ()))


def lexicographically_minimal_shortest(graph: QbgGraph, u: int, v: int,
                                       ordering: ReflectionOrdering) -> tuple[Root, ...]:
    """Label sequence of the lex-minimal shortest path, by brute force."""
    d = graph.distance(u, v)
    best: list[tuple[int, ...]] | None = None
    for path in graph.iter_paths(u, v, d):
        if len(path) != d:
            continue
        key = tuple(ordering.position(e.label) for e in path.edges)
        if best is None or key < best[0]:
            best = [key, tuple(e.label for e in path.edges)]
    if best is None:
        raise GraphInvariantError("iter_paths found no path of the BFS length")
    return best[1]
