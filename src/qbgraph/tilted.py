"""Tilted order queries, coset minima, quantum length, and path surgery."""

from __future__ import annotations

from typing import NamedTuple

from .affine import AffineWeyl
from .qbg import UNSETTLED, GraphInvariantError, QbgEdge, QbgGraph, QbgPath
from .root_system import (
    Coroot,
    ParabolicIndex,
    is_positive_vec,
    neg_vec,
    sub_vec,
)
from .weyl import Trichotomy, WeylElement


class TieError(AssertionError):
    """Two coset elements at minimal distance; contradicts uniqueness."""


class TiltedOrder:
    """Distance-based order on a strongly connected graph, tilted at a base."""

    def __init__(self, graph: QbgGraph):
        self.graph = graph
        self.W = graph.W

    def leq(self, u: int, w1: int, w2: int) -> bool:
        """w1 below w2 seen from u: some shortest u -> w2 path passes w1."""
        d = self.graph.distance
        return d(u, w2) == d(u, w1) + d(w1, w2)

    def coset_min(self, u: int, z: WeylElement, J: ParabolicIndex) -> WeylElement:
        """The unique distance-minimizer of the coset z W_J seen from u.

        Also checks that the minimizer sits below every coset member in the
        tilted order; a tie raises, since uniqueness is guaranteed.  Reads
        two BFS rows, u's and the minimizer's, each grown only until every
        coset member is settled.
        """
        graph = self.graph
        coset = self.W.coset_ids(z.index, J)
        at = [graph._position(x) for x in coset]
        row = graph.settled_row(u, at)
        dists = [row[p] for p in at]
        best = min(dists)
        winners = [x for d, x in zip(dists, coset) if d == best]
        if len(winners) != 1:
            raise TieError(
                f"coset {self.W.describe(z.index)} W_J has {len(winners)} minimizers from "
                f"{self.W.describe(u)}"
            )
        x0 = winners[0]
        below = graph.settled_row(x0, at)
        # leq(u, x0, x): d(u, x) = d(u, x0) + d(x0, x)
        if any(d != best + below[p] for d, p in zip(dists, at)):
            raise GraphInvariantError("coset minimum is not below a coset member")
        return self.W.element(x0)


# -- left multiplication steps ---------------------------------------------------


def left_step_edge(graph: QbgGraph, i: int, x: int) -> QbgEdge | None:
    """The edge x -> floor(s_i x) when x^{-1}(tilde alpha_i) is a usable label."""
    return graph.left_step(i, x)[1]


class LeftStep(NamedTuple):
    """Outcome of left multiplication by s_j at a coset representative.

    For UP the edge leaves w, for DOWN it enters w, for FIXED there is no
    edge and floor(s_j w) = w.  The twist is the W_J factor appearing on
    the theta step's label; its image of the crossing coroot is adjusted.
    """

    classification: Trichotomy
    edge: QbgEdge | None
    twist: int | None


def _affine(graph: QbgGraph) -> AffineWeyl:
    """The graph's one ``AffineWeyl``, made on first use and kept on it, so
    its component data and fact table last as long as the graph."""
    aw = graph._affine_weyl
    if aw is None:
        aw = graph._affine_weyl = AffineWeyl(graph.W)
    return aw


def left_multiplication_step(graph: QbgGraph, w: int, j: int) -> LeftStep:
    """Classify w^{-1}(tilde alpha_j) and return the induced edge.

    j ranges over 0..rank with s_0 the reflection in theta; the edge is
    Bruhat for j != 0 and quantum for j = 0.  The descending edge is the
    step out of floor(s_j w), checked to land on w with the label
    -w^{-1} alpha_j, or z(w^{-1} theta) for the theta twist z of w.
    """
    rs, W, J = graph.rs, graph.W, graph.J
    target, edge = graph.left_step(j, w)
    img = graph.step_label(j, w)
    if J.supports(img):
        if target != w:
            raise GraphInvariantError("fixed case moved the coset")
        return LeftStep(Trichotomy.FIXED, None, None)
    if is_positive_vec(img):
        # crossing root w^{-1}theta is negative here; with w already a
        # coset representative the adjusted element is minus its coroot
        if j == 0 and not _affine(graph).is_adjusted(rs.coroot(img), J):
            raise GraphInvariantError("crossing coroot is not adjusted")
        return LeftStep(Trichotomy.UP, edge, None)
    label = neg_vec(img)
    twist = None
    if j == 0:
        aw = _affine(graph)
        twist = W.theta_twist(w, J)
        gamma = label  # w^{-1}theta, positive off Phi_J
        if W.mul(W.right_reflect(0, rs.theta), w) != W.mul(target, twist):
            raise GraphInvariantError("twist does not factor the theta product")
        if twist != W._inverse[aw.z_mu(rs.coroot(gamma), J)]:
            raise GraphInvariantError("twist is not the inverse crossing factor")
        label = W.act(twist, gamma)
        if not aw.is_adjusted(rs.coroot(label), J):
            raise GraphInvariantError("twisted crossing coroot is not adjusted")
    edge = graph.left_step(j, target)[1]
    if edge is None or edge.target != w or edge.label != label:
        raise GraphInvariantError("descending left step is not a graph edge")
    return LeftStep(Trichotomy.DOWN, edge, twist)


def quantum_length(graph: QbgGraph, u: int) -> int:
    """Fewest left steps by simple or theta reflections from u to the identity.

    Read from the graph's one row of step lengths (``QbgGraph.step_lengths``),
    built on the first query and kept for every later one.  Raises
    ValueError when u is not a vertex and GraphInvariantError when e is out
    of u's reach.
    """
    row = graph.step_lengths()
    got = row[graph._position(u)]
    if got == UNSETTLED:
        raise GraphInvariantError("graph is not strongly connected")
    return got


def left_step_subgraph_strongly_connected(graph: QbgGraph) -> bool:
    """Strong connectivity of the subgraph of left multiplication steps."""
    return graph.step_graph().strongly_connected()


# -- path surgery ------------------------------------------------------------------


def _positions(graph: QbgGraph, path: QbgPath) -> list[int]:
    """The vertex positions along a path; ValueError unless its start is a
    vertex and each edge is a graph edge (``QbgGraph._edge_slot``) that
    starts where the edge before it ends."""
    at, targets = [graph._position(path.start)], graph._targets
    for edge in path.edges:
        p, k = graph._edge_slot(edge)
        if p != at[-1]:
            raise ValueError(f"{edge!r} does not start where the path before it ends")
        at.append(targets[k])
    return at


#: the sign hypothesis of each surgery case, named when it fails
_CASE_NEEDS = {
    1: "case 1 needs a nonnegative vertex and negative end",
    2: "case 2 needs negative signs at both endpoints",
    3: "case 3 needs a positive start and a nonpositive vertex",
    4: "case 4 needs positive signs at both endpoints",
}


def transform_path(graph: QbgGraph, path: QbgPath, j: int, case: int) -> QbgPath:
    """Move a directed path across left multiplication by s_j.

    With s_x = <tilde alpha_j^vee, x(lambda_J)> along the path
    (``QbgGraph.sign_row``): case 1 needs s < 0 at the end and s >= 0 at
    some vertex, case 2 s < 0 at both ends, case 3 s > 0 at the start and
    s <= 0 at some vertex, case 4 s > 0 at both ends.  ValueError, checked
    in this order: the case is out of 1..4, the endpoint signs fail its
    hypothesis, the path is off the graph (``_positions``), the other signs
    fail it.  Case 1 drops the edge out of the last vertex x with s >= 0,
    whose end must fold back onto x, and pushes the edges after it
    (``QbgGraph.push_edge``); case 3, from floor(s_j start), pushes the
    edges before the first vertex x with s <= 0 but the one into x, whose
    source must fold forward onto x.  Case 2 (4) pushes every edge when
    every sign is negative (positive), else extends case 1's (3's) path by
    the descent edge into the start (the ascent edge out of the end).  A
    failed fold, descent or ascent raises GraphInvariantError."""
    if case not in (1, 2, 3, 4):
        raise ValueError("case must be 1..4")
    signs = graph.sign_row(j)
    first, last = signs[graph._position(path.start)], signs[graph._position(path.end)]
    if not (last < 0, first < 0 > last, first > 0, first > 0 < last)[case - 1]:
        raise ValueError(_CASE_NEEDS[case])
    at = _positions(graph, path)
    sv = [signs[p] for p in at]
    top, bottom = max(sv), min(sv)
    if case == 1 and top < 0 or case == 3 and bottom > 0:
        raise ValueError(_CASE_NEEDS[case])
    edges, vertices = path.edges, graph.vertices

    def floor(p: int) -> int:
        return graph.left_step(j, vertices[p])[0]

    def pushed(part: tuple[QbgEdge, ...]) -> tuple[QbgEdge, ...]:
        return tuple([graph.push_edge(j, e) for e in part])

    if top < 0 or bottom > 0:  # cases 2 and 4 with one sign throughout
        return QbgPath(floor(at[0]), pushed(edges))
    if case <= 2:
        k = max(i for i, s in enumerate(sv) if s >= 0)
        if floor(at[k + 1]) != vertices[at[k]]:
            raise GraphInvariantError("transition vertex does not fold back")
        kept = edges[:k] + pushed(edges[k + 1:])
        if case == 1:
            return QbgPath(path.start, kept)
        start = floor(at[0])
        down = graph.left_step(j, start)[1]
        if down is None or down.target != path.start:
            raise GraphInvariantError("descent edge into the start is missing")
        return QbgPath(start, (down,) + kept)
    k = min(i for i, s in enumerate(sv) if s <= 0)
    if floor(at[k - 1]) != vertices[at[k]]:
        raise GraphInvariantError("transition vertex does not fold forward")
    moved = QbgPath(floor(at[0]), pushed(edges[:k - 1]) + edges[k:])
    if case == 3:
        return moved
    up = graph.left_step(j, path.end)[1]
    if up is None:
        raise GraphInvariantError("ascent edge out of the end is missing")
    return QbgPath(moved.start, moved.edges + (up,))


def expected_weight_shift(graph: QbgGraph, path: QbgPath, j: int, case: int) -> Coroot:
    """The weight correction, modulo Q_J^vee, of surgery by s_j in the case
    on the path: for j = 0 the end's ``QbgGraph.theta_coroots`` entry in
    cases 1, 2, 4 minus the start's in 2, 3, 4, else zero.  ValueError for
    a path off the graph, and for a case out of 1..4, as ``transform_path``."""
    at = _positions(graph, path)
    if case not in (1, 2, 3, 4):
        raise ValueError("case must be 1..4")
    if j != 0:
        return graph.rs.zero
    images = graph.theta_coroots()
    plus = graph.rs.zero if case == 3 else images[at[-1]]
    return plus if case == 1 else sub_vec(plus, images[at[0]])


# -- path weight comparison ---------------------------------------------------------


def compare_path_weights(graph: QbgGraph, shortest: QbgPath, other: QbgPath) -> Coroot:
    """Class of wt(other) - wt(shortest) modulo Q_J^vee.

    The first path must be certified shortest; the contract is that every
    coordinate of the result is nonnegative, and zero when the second path
    is shortest too.  ValueError for a path off the graph (``_positions``).
    """
    for path in (shortest, other):
        _positions(graph, path)
    if shortest.start != other.start or shortest.end != other.end:
        raise ValueError("paths must share endpoints")
    if len(shortest) != graph.distance(shortest.start, shortest.end):
        raise ValueError("first path is not shortest")
    rank = graph.rs.rank
    diff = sub_vec(other.weight(rank), shortest.weight(rank))
    return graph.J.weight_class(diff)
