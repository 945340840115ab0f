"""Tilted order queries, coset minima, quantum length, and path surgery."""

from __future__ import annotations

from itertools import repeat
from operator import mul
from typing import NamedTuple

from .affine import AffineWeyl
from .qbg import UNSETTLED, GraphInvariantError, QbgEdge, QbgGraph, QbgPath
from .root_system import (
    Coroot,
    ParabolicIndex,
    add_vec,
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


def _signs(graph: QbgGraph, j: int) -> list[int]:
    """<tilde alpha_j^vee, x(lambda_J)> = <(x^{-1} tilde alpha_j)^vee,
    lambda_J> per vertex position x, from ``QbgGraph.step_label``'s label.
    Built once per (graph, j) and kept on the graph."""
    got = graph._surgery_signs.get(j)
    if got is None:
        coroot, label, lam = graph.rs.coroot, graph.step_label, graph.J.lambda_J
        got = graph._surgery_signs[j] = [sum(map(mul, coroot(label(j, x)), lam))
                                         for x in graph.vertices]
    return got


def surgery_signs(graph: QbgGraph, j: int) -> dict[int, int]:
    """The surgery sign of every vertex id (``_signs``)."""
    return dict(zip(graph.vertices, _signs(graph, j)))


#: the sign hypothesis of each surgery case, named when it fails
_CASE_NEEDS = {
    1: "case 1 needs a nonnegative vertex and negative end",
    2: "case 2 needs negative signs at both endpoints",
    3: "case 3 needs a positive start and a nonpositive vertex",
    4: "case 4 needs positive signs at both endpoints",
}


def surgeries(graph: QbgGraph, j: int, start: int,
              slots: tuple[int, ...]) -> list[tuple[int, int, tuple[int, ...]]]:
    """(case, start position, slots) of each surgery by s_j of the path from
    vertex position start along the CSR slots, per case whose sign
    hypotheses hold, in case order.

    With s_x = <tilde alpha_j^vee, x(lambda)> along the path: case 1 needs
    s < 0 at the end and s >= 0 at some vertex, case 2 s < 0 at both ends,
    case 3 s > 0 at the start and s <= 0 at some vertex, case 4 s > 0 at
    both ends.  1 and 3 drop one step (at floor(s_j end), resp. floor(s_j
    start)); 2 and 4 move both ends, extending case 1's (case 3's) path
    unless every sign is negative (positive), when every slot is pushed
    (``QbgGraph._push_slot``).  Each fold, step and push is checked."""
    signs, targets = _signs(graph, j), graph._targets
    first = signs[start]
    last = signs[targets[slots[-1]]] if slots else first
    if first <= 0 <= last:
        return []
    _labels, steps, floors = graph._left_steps(j)
    vertices, at, table, push = graph.vertices, graph.vertex_pos, graph._pushed(j), graph._push_slot
    verts = [start, *map(targets.__getitem__, slots)]
    sv = list(map(signs.__getitem__, verts))
    top, bottom = max(sv), min(sv)

    def pushed(lo: int, hi: int) -> tuple[int, ...]:
        kept = tuple(map(table.__getitem__, slots[lo:hi]))
        if -1 in kept:  # some slot not pushed yet: push and check it
            kept = tuple(map(push, repeat(j), verts[lo:hi], slots[lo:hi]))
        return kept

    got = []
    if last < 0:
        if top >= 0:
            k = max(i for i, s in enumerate(sv) if s >= 0)
            if floors[verts[k + 1]] != vertices[verts[k]]:
                raise GraphInvariantError("transition vertex does not fold back")
            got.append(one := (1, start, slots[:k] + pushed(k + 1, len(slots))))
        if first < 0:
            new = at[floors[start]]
            if top < 0:
                got.append((2, new, pushed(0, len(slots))))
            else:
                down = steps[new]
                if down < 0 or targets[down] != start:
                    raise GraphInvariantError("descent edge into the start is missing")
                got.append((2, new, (down,) + one[2]))
    if first > 0:
        new = at[floors[start]]
        if bottom <= 0:
            k = min(i for i, s in enumerate(sv) if s <= 0)
            if floors[verts[k - 1]] != vertices[verts[k]]:
                raise GraphInvariantError("transition vertex does not fold forward")
            got.append(three := (3, new, pushed(0, k - 1) + slots[k:]))
        if last > 0:
            if bottom > 0:
                got.append((4, new, pushed(0, len(slots))))
            else:
                up = steps[verts[-1]]
                if up < 0:
                    raise GraphInvariantError("ascent edge out of the end is missing")
                got.append((4, new, three[2] + (up,)))
    return got


def _path_slots(graph: QbgGraph, path: QbgPath) -> tuple[int, tuple[int, ...]]:
    """A path's start position and slots (``QbgGraph._edge_slot``)."""
    return graph._position(path.start), tuple(graph._edge_slot(e)[1] for e in path.edges)


def surgery_cases(graph: QbgGraph, path: QbgPath, j: int) -> tuple[int, ...]:
    """The cases of ``surgeries`` for path and j: those ``transform_path`` accepts."""
    return tuple(case for case, *_ in surgeries(graph, j, *_path_slots(graph, path)))


def transform_path(graph: QbgGraph, path: QbgPath, j: int, case: int) -> QbgPath:
    """Move a directed path across left multiplication by s_j: the case's
    path of ``surgeries``, read from ``edges``.  ValueError when the case's
    sign hypotheses fail; GraphInvariantError when any case's check does."""
    if case not in (1, 2, 3, 4):
        raise ValueError("case must be 1..4")
    for found, start, slots in surgeries(graph, j, *_path_slots(graph, path)):
        if found == case:
            return QbgPath(graph.vertices[start], tuple(map(graph.edges.__getitem__, slots)))
    raise ValueError(_CASE_NEEDS[case])


def theta_coroot_images(graph: QbgGraph) -> dict[int, Coroot]:
    """x^{-1}(tilde alpha_0^vee) for every vertex id x: the coroot of the
    label x^{-1}(tilde alpha_0) that ``QbgGraph.step_label`` forms.  Built
    once per graph and kept on it, as ``_signs`` is."""
    got = graph._theta_coroot_images
    if got is None:
        coroot, label = graph.rs.coroot, graph.step_label
        got = graph._theta_coroot_images = {x: coroot(label(0, x)) for x in graph.vertices}
    return got


def expected_weight_shift(graph: QbgGraph, path: QbgPath, j: int, case: int) -> Coroot:
    """``weight_shift`` at the path's endpoints."""
    return weight_shift(graph, j, case, graph._position(path.start), graph._position(path.end))


def weight_shift(graph: QbgGraph, j: int, case: int, start: int, end: int) -> Coroot:
    """The weight correction, modulo Q_J^vee, of surgery by s_j in the case
    on a path from vertex position start to end: for j = 0 the end's
    ``theta_coroot_images`` in cases 1, 2, 4 minus the start's in 2, 3, 4,
    else zero.  ValueError for a case out of 1..4, as ``transform_path``."""
    if case not in (1, 2, 3, 4):
        raise ValueError("case must be 1..4")
    shift = graph.rs.zero
    if j != 0:
        return shift
    images, vertices = theta_coroot_images(graph), graph.vertices
    if case != 3:
        shift = add_vec(shift, images[vertices[end]])
    if case != 1:
        shift = sub_vec(shift, images[vertices[start]])
    return shift


# -- path weight comparison ---------------------------------------------------------


def compare_path_weights(graph: QbgGraph, shortest: QbgPath, other: QbgPath) -> Coroot:
    """Class of wt(other) - wt(shortest) modulo Q_J^vee.

    The first path must be certified shortest; the contract is that every
    coordinate of the result is nonnegative, and zero when the second path
    is shortest too.
    """
    if shortest.start != other.start or shortest.end != other.end:
        raise ValueError("paths must share endpoints")
    if len(shortest) != graph.distance(shortest.start, shortest.end):
        raise ValueError("first path is not shortest")
    rank = graph.rs.rank
    diff = sub_vec(other.weight(rank), shortest.weight(rank))
    return graph.J.weight_class(diff)
