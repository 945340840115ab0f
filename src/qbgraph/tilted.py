"""Tilted order queries, coset minima, quantum length, and path surgery."""

from __future__ import annotations

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
    steps = graph.step_graph()
    try:
        steps.diameter()
    except GraphInvariantError:
        return False
    return True


# -- path surgery ------------------------------------------------------------------


def surgery_signs(graph: QbgGraph, j: int) -> dict[int, int]:
    """<tilde alpha_j^vee, x(lambda_J)> for every vertex id x, with
    ``J.lambda_J``: it is <(x^{-1} tilde alpha_j)^vee, lambda_J>, read from
    the label ``QbgGraph.step_label`` forms.  Built once per (graph, j) and
    kept on the graph."""
    got = graph._surgery_signs.get(j)
    if got is None:
        coroot, label, lam = graph.rs.coroot, graph.step_label, graph.J.lambda_J
        got = graph._surgery_signs[j] = {
            x: sum(map(mul, coroot(label(j, x)), lam)) for x in graph.vertices
        }
    return got


#: the sign hypothesis of each surgery case, named when it fails
_CASE_NEEDS = {
    1: "case 1 needs a nonnegative vertex and negative end",
    2: "case 2 needs negative signs at both endpoints",
    3: "case 3 needs a positive start and a nonpositive vertex",
    4: "case 4 needs positive signs at both endpoints",
}


def surgery_cases(graph: QbgGraph, path: QbgPath, j: int) -> tuple[int, ...]:
    """The surgery cases whose sign hypotheses hold for path and j, in order:
    exactly the cases ``transform_path`` accepts.

    With s_x = <tilde alpha_j^vee, x(lambda)> along the path's vertices:
    case 1 needs s < 0 at the end and s >= 0 at some vertex, case 2 s < 0
    at both endpoints, case 3 s > 0 at the start and s <= 0 at some vertex,
    case 4 s > 0 at both endpoints.  The endpoint signs are read first, and
    the inner vertices only where they decide a case.
    """
    table = surgery_signs(graph, j)
    first, last = table[path.start], table[path.end]
    cases = []
    if last < 0:
        if first >= 0 or any(table[e.target] >= 0 for e in path.edges):
            cases.append(1)
        if first < 0:
            cases.append(2)
    if first > 0:
        if last <= 0 or any(table[e.target] <= 0 for e in path.edges):
            cases.append(3)
        if last > 0:
            cases.append(4)
    return tuple(cases)


def transform_path(graph: QbgGraph, path: QbgPath, j: int, case: int) -> QbgPath:
    """Move a directed path across left multiplication by s_j.

    The four cases mirror the sign pattern of <tilde alpha_j^vee, . lambda>
    at the endpoints: 1 and 3 shorten the path by one (ending at
    floor(s_j end), resp. starting at floor(s_j start)); 2 and 4 keep the
    length and move both endpoints.  Raises ValueError when the sign
    hypotheses of the requested case fail, as ``surgery_cases`` decides.
    """
    if case not in (1, 2, 3, 4):
        raise ValueError("case must be 1..4")
    if case not in surgery_cases(graph, path, j):
        raise ValueError(_CASE_NEEDS[case])
    return _transform(graph, path, j, case)


def _transform(graph: QbgGraph, path: QbgPath, j: int, case: int) -> QbgPath:
    """``transform_path`` once the case's sign hypotheses hold.  Case 2
    falls back on case 1 and case 4 on case 3 without a second check: a
    path whose endpoint signs are both negative (positive) and that is not
    negative (positive) throughout has a vertex of the other sign."""
    table = surgery_signs(graph, j)
    verts = [path.start] + [e.target for e in path.edges]
    signs = [table[x] for x in verts]

    def floor(x: int) -> int:
        return graph.left_step(j, x)[0]

    def push(edges) -> tuple[QbgEdge, ...]:
        return tuple(graph.push_edge(j, e) for e in edges)

    if case == 1:
        k = max(i for i, s in enumerate(signs) if s >= 0)
        if floor(verts[k + 1]) != verts[k]:
            raise GraphInvariantError("transition vertex does not fold back")
        return QbgPath(path.start, path.edges[:k] + push(path.edges[k + 1 :]))

    if case == 2:
        start = floor(path.start)
        if all(s < 0 for s in signs):
            return QbgPath(start, push(path.edges))
        shorter = _transform(graph, path, j, 1)
        down = graph.left_step(j, start)[1]
        if down is None or down.target != path.start:
            raise GraphInvariantError("descent edge into the start is missing")
        return QbgPath(start, (down,) + shorter.edges)

    if case == 3:
        k = min(i for i, s in enumerate(signs) if s <= 0)
        if floor(verts[k - 1]) != verts[k]:
            raise GraphInvariantError("transition vertex does not fold forward")
        return QbgPath(floor(path.start), push(path.edges[: k - 1]) + path.edges[k:])

    if all(s > 0 for s in signs):
        return QbgPath(floor(path.start), push(path.edges))
    shorter = _transform(graph, path, j, 3)
    up = graph.left_step(j, verts[-1])[1]
    if up is None:
        raise GraphInvariantError("ascent edge out of the end is missing")
    return QbgPath(shorter.start, shorter.edges + (up,))


def theta_coroot_images(graph: QbgGraph) -> dict[int, Coroot]:
    """x^{-1}(tilde alpha_0^vee) for every vertex id x: the coroot of the
    label x^{-1}(tilde alpha_0) that ``QbgGraph.step_label`` forms.  Built
    once per graph and kept on it, as ``surgery_signs`` is."""
    got = graph._theta_coroot_images
    if got is None:
        coroot, label = graph.rs.coroot, graph.step_label
        got = graph._theta_coroot_images = {x: coroot(label(0, x)) for x in graph.vertices}
    return got


def expected_weight_shift(graph: QbgGraph, path: QbgPath, j: int, case: int) -> Coroot:
    """The weight correction the surgery should apply, modulo Q_J^vee."""
    shift = graph.rs.zero
    if j != 0:
        return shift
    images = theta_coroot_images(graph)
    if case in (1, 2, 4):
        shift = add_vec(shift, images[path.end])
    if case in (2, 3, 4):
        shift = sub_vec(shift, images[path.start])
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
