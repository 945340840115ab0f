"""Tilted order queries, coset minima, quantum length, and path surgery."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .qbg import GraphInvariantError, QbgEdge, QbgGraph, QbgPath
from .root_system import (
    Coroot,
    ParabolicIndex,
    Root,
    add_vec,
    is_positive_vec,
    neg_vec,
    sub_vec,
)
from .weyl import Trichotomy, WeylElement, WeylGroup


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
        tilted order; a tie raises, since uniqueness is guaranteed.
        """
        coset = self.W.coset(z, J)
        dists = [(self.graph.distance(u, x.index), x) for x in coset]
        best = min(d for d, _ in dists)
        winners = [x for d, x in dists if d == best]
        if len(winners) != 1:
            raise TieError(
                f"coset {self.W.describe(z)} W_J has {len(winners)} minimizers from "
                f"{self.W.describe(self.W.element(u))}"
            )
        x0 = winners[0]
        for _, x in dists:
            if not self.leq(u, x0.index, x.index):
                raise GraphInvariantError("coset minimum is not below a coset member")
        return x0


# -- left multiplication steps ---------------------------------------------------


def tilde_coroot(rs, i: int) -> Coroot:
    if i == 0:
        return neg_vec(rs.coroot(rs.theta))
    return rs.simple_coroot(i)


def _tilde_image(W: WeylGroup, i: int, x: WeylElement) -> Root:
    """x^{-1}(tilde alpha_i), where tilde alpha_i is alpha_i for i >= 1 and
    minus theta for i = 0."""
    if i == 0:
        return neg_vec(x.inverse().act(W.rs.theta))
    return W.simple_image(x.inverse(), i)


def floor_smul(graph: QbgGraph, i: int, x: WeylElement) -> WeylElement:
    """floor(s_i x) where s_0 is the reflection in theta."""
    W = graph.W
    sx = W.reflection(graph.rs.theta) * x if i == 0 else W.left_mul(i, x)
    return W.min_coset_rep(sx, graph.J)


def left_step_edge(graph: QbgGraph, i: int, x: WeylElement) -> QbgEdge | None:
    """The edge x -> floor(s_i x) when x^{-1}(tilde alpha_i) is a usable label."""
    label = _tilde_image(graph.W, i, x)
    if not is_positive_vec(label) or graph.J.supports(label):
        return None
    edge = graph.edge(x.index, label)
    if edge is None or edge.target != floor_smul(graph, i, x).index:
        raise GraphInvariantError(f"left step by {i} at {x} is not a graph edge")
    return edge


@dataclass(frozen=True)
class LeftStep:
    """Outcome of left multiplication by s_j at a coset representative.

    For UP the edge leaves w, for DOWN it enters w, for FIXED there is no
    edge and floor(s_j w) = w.  The twist is the W_J factor appearing on
    the theta step's label; its image of the crossing coroot is adjusted.
    """

    classification: Trichotomy
    edge: QbgEdge | None
    twist: WeylElement | None


def left_multiplication_step(graph: QbgGraph, w: WeylElement, j: int) -> LeftStep:
    """Classify w^{-1}(tilde alpha_j) and return the induced edge.

    j ranges over 0..rank with s_0 the reflection in theta; the edge is
    Bruhat for j != 0 and quantum for j = 0.
    """
    rs, W, J = graph.rs, graph.W, graph.J
    img = _tilde_image(W, j, w)
    target = floor_smul(graph, j, w)
    if J.supports(img):
        if target != w:
            raise GraphInvariantError("fixed case moved the coset")
        return LeftStep(Trichotomy.FIXED, None, None)
    aw = _affine_ops(W)
    if is_positive_vec(img):
        edge = graph.edge(w.index, img)
        if edge is None or edge.target != target.index:
            raise GraphInvariantError("ascending left step is not a graph edge")
        twist = None
        if j == 0:
            # crossing root w^{-1}theta is negative here; with w already a
            # coset representative the adjusted element is minus its coroot
            if not aw.is_adjusted(rs.coroot(img), J):
                raise GraphInvariantError("crossing coroot is not adjusted")
        return LeftStep(Trichotomy.UP, edge, twist)
    twist = None
    if j == 0:
        twist = W.theta_twist(w, J)
        gamma = neg_vec(img)  # w^{-1}theta, positive off Phi_J
        if (W.reflection(rs.theta) * w).index != (target * twist).index:
            raise GraphInvariantError("twist does not factor the theta product")
        if twist != aw.z_mu(rs.coroot(gamma), J).inverse():
            raise GraphInvariantError("twist is not the inverse crossing factor")
        if not aw.is_adjusted(twist.act_coroot(rs.coroot(gamma)), J):
            raise GraphInvariantError("twisted crossing coroot is not adjusted")
        label = twist.act(gamma)
    else:
        label = neg_vec(img)
    edge = graph.edge(target.index, label)
    if edge is None or edge.target != w.index:
        raise GraphInvariantError("descending left step is not a graph edge")
    return LeftStep(Trichotomy.DOWN, edge, twist)


def _affine_ops(W: WeylGroup):
    from .affine import AffineWeyl

    ops = getattr(W, "_affine_ops_cache", None)
    if ops is None:
        ops = AffineWeyl(W)
        W._affine_ops_cache = ops
    return ops


def quantum_length(graph: QbgGraph, u: int) -> int:
    """Fewest left steps by simple or theta reflections from u to the identity."""
    W = graph.W
    dist = {u: 0}
    queue = deque([u])
    while queue:
        cur = queue.popleft()
        if cur == W.identity.index:
            return dist[cur]
        for i in range(0, graph.rs.rank + 1):
            edge = left_step_edge(graph, i, W.element(cur))
            if edge is not None and edge.target not in dist:
                dist[edge.target] = dist[cur] + 1
                queue.append(edge.target)
    raise GraphInvariantError("identity unreachable by left steps")


def left_step_subgraph_strongly_connected(graph: QbgGraph) -> bool:
    """Strong connectivity of the subgraph of left multiplication steps."""
    succ = {}
    for v in graph.vertices:
        outs = []
        for i in range(0, graph.rs.rank + 1):
            e = left_step_edge(graph, i, graph.W.element(v))
            if e is not None:
                outs.append(e.target)
        succ[v] = outs
    start = graph.vertices[0]

    def reach(adj):
        seen = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    pred: dict[int, list[int]] = {v: [] for v in graph.vertices}
    for v, outs in succ.items():
        for t in outs:
            pred[t].append(v)
    n = len(graph.vertices)
    return len(reach(succ)) == n and len(reach(pred)) == n


# -- path surgery ------------------------------------------------------------------


def _canonical_lambda(graph: QbgGraph) -> tuple[int, ...]:
    return tuple(
        0 if (i + 1) in graph.J.nodes else 1 for i in range(graph.rs.rank)
    )


def _signs(graph: QbgGraph, j: int, verts: list[int]) -> list[int]:
    """<tilde alpha_j^vee, x(lambda)> at each vertex id x, for the canonical
    lambda of J."""
    pair = graph.W.weight_pairings(_canonical_lambda(graph)).pair
    cor = tilde_coroot(graph.rs, j)
    return [pair(cor, x) for x in verts]


def _push_edge(graph: QbgGraph, j: int, edge: QbgEdge) -> QbgEdge:
    """The parallel edge floor(s_j a) -> floor(s_j b) below/above a -> b."""
    W = graph.W
    a = W.element(edge.source)
    label = edge.label
    if j == 0:
        label = W.theta_twist(a, graph.J).act(label)
    target = floor_smul(graph, j, W.element(edge.target))
    moved = graph.edge(floor_smul(graph, j, a).index, label)
    if moved is None or moved.target != target.index:
        raise GraphInvariantError("pushed edge is missing from the graph")
    return moved


def _vertices(graph: QbgGraph, path: QbgPath) -> list[int]:
    out = [path.start]
    for e in path.edges:
        out.append(e.target)
    return out


def transform_path(graph: QbgGraph, path: QbgPath, j: int, case: int) -> QbgPath:
    """Move a directed path across left multiplication by s_j.

    The four cases mirror the sign pattern of <tilde alpha_j^vee, . lambda>
    at the endpoints: 1 and 3 shorten the path by one (ending at
    floor(s_j end), resp. starting at floor(s_j start)); 2 and 4 keep the
    length and move both endpoints.  Raises ValueError when the sign
    hypotheses of the requested case fail.
    """
    if case not in (1, 2, 3, 4):
        raise ValueError("case must be 1..4")
    W = graph.W
    verts = _vertices(graph, path)
    signs = _signs(graph, j, verts)
    n = len(path.edges)

    if case == 1:
        if not (signs[-1] < 0 and any(s >= 0 for s in signs)):
            raise ValueError("case 1 needs a nonnegative vertex and negative end")
        k = max(i for i, s in enumerate(signs) if s >= 0)
        if floor_smul(graph, j, W.element(verts[k + 1])).index != verts[k]:
            raise GraphInvariantError("transition vertex does not fold back")
        new_edges = list(path.edges[:k])
        for e in path.edges[k + 1 :]:
            new_edges.append(_push_edge(graph, j, e))
        return QbgPath(path.start, tuple(new_edges))

    if case == 2:
        if not (signs[0] < 0 and signs[-1] < 0):
            raise ValueError("case 2 needs negative signs at both endpoints")
        if all(s < 0 for s in signs):
            new_edges = [_push_edge(graph, j, e) for e in path.edges]
            return QbgPath(floor_smul(graph, j, W.element(path.start)).index,
                           tuple(new_edges))
        shorter = transform_path(graph, path, j, 1)
        start = floor_smul(graph, j, W.element(path.start))
        down = graph.edge(start.index, _down_label(graph, j, W.element(path.start)))
        if down is None or down.target != path.start:
            raise GraphInvariantError("descent edge into the start is missing")
        return QbgPath(start.index, (down,) + shorter.edges)

    if case == 3:
        if not (signs[0] > 0 and any(s <= 0 for s in signs)):
            raise ValueError("case 3 needs a positive start and a nonpositive vertex")
        k = min(i for i, s in enumerate(signs) if s <= 0)
        if floor_smul(graph, j, W.element(verts[k - 1])).index != verts[k]:
            raise GraphInvariantError("transition vertex does not fold forward")
        new_edges = [_push_edge(graph, j, e) for e in path.edges[: k - 1]]
        new_edges.extend(path.edges[k:])
        return QbgPath(floor_smul(graph, j, W.element(path.start)).index,
                       tuple(new_edges))

    if not (signs[0] > 0 and signs[-1] > 0):
        raise ValueError("case 4 needs positive signs at both endpoints")
    if all(s > 0 for s in signs):
        new_edges = [_push_edge(graph, j, e) for e in path.edges]
        return QbgPath(floor_smul(graph, j, W.element(path.start)).index,
                       tuple(new_edges))
    shorter = transform_path(graph, path, j, 3)
    end = W.element(verts[-1])
    up = graph.edge(end.index, _tilde_image(W, j, end))
    if up is None or up.target != floor_smul(graph, j, end).index:
        raise GraphInvariantError("ascent edge out of the end is missing")
    return QbgPath(shorter.start, shorter.edges + (up,))


def _down_label(graph: QbgGraph, j: int, w: WeylElement) -> Root:
    """Label of the edge floor(s_j w) -> w when the sign at w is negative."""
    if j == 0:
        z = graph.W.theta_twist(w, graph.J)
        return z.act(w.inverse().act(graph.rs.theta))
    return neg_vec(_tilde_image(graph.W, j, w))


def expected_weight_shift(graph: QbgGraph, path: QbgPath, j: int, case: int) -> Coroot:
    """The weight correction the surgery should apply, modulo Q_J^vee."""
    rs = graph.rs
    zero = (0,) * rs.rank
    if j != 0:
        return zero
    W = graph.W
    w1 = W.element(path.start)
    w2 = W.element(_vertices(graph, path)[-1])
    cor = tilde_coroot(rs, 0)
    shift = zero
    if case in (1, 2, 4):
        shift = add_vec(shift, w2.inverse().act_coroot(cor))
    if case in (2, 3, 4):
        shift = sub_vec(shift, w1.inverse().act_coroot(cor))
    return shift


def weights_congruent(graph: QbgGraph, a: Coroot, b: Coroot) -> bool:
    return all(
        x == y
        for i, (x, y) in enumerate(zip(a, b))
        if (i + 1) not in graph.J.nodes
    )


# -- path weight comparison ---------------------------------------------------------


def weight_class(graph: QbgGraph, vec: Coroot) -> Coroot:
    """Representative of vec modulo Q_J^vee: zero out the J coordinates."""
    return tuple(
        0 if (i + 1) in graph.J.nodes else c for i, c in enumerate(vec)
    )


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
    return weight_class(graph, diff)
