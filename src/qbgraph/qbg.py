"""The quantum Bruhat graph on W^J: construction, paths, duality, orderings."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .root_system import (
    Coroot,
    ParabolicIndex,
    Root,
    add_vec,
)
from .weyl import WeylElement, WeylGroup

BRUHAT = "bruhat"
QUANTUM = "quantum"


class GraphInvariantError(AssertionError):
    """A structural guarantee of the graph failed; signals a bug."""


@dataclass(frozen=True)
class QbgEdge:
    """Directed edge source -> target labeled by a positive root.

    ``weight`` is the label's coroot on quantum edges and zero otherwise.
    """

    source: int
    target: int
    label: Root
    kind: str
    weight: Coroot


@dataclass(frozen=True)
class QbgPath:
    """A directed path: a start vertex id plus consecutive edges."""

    start: int
    edges: tuple[QbgEdge, ...]

    @property
    def end(self) -> int:
        return self.edges[-1].target if self.edges else self.start

    def __len__(self) -> int:
        return len(self.edges)

    def weight(self, rank: int) -> Coroot:
        if not self.edges:
            return (0,) * rank
        return tuple(map(sum, zip(*(e.weight for e in self.edges))))


def edge_between(W: WeylGroup, J: ParabolicIndex, w: WeylElement, alpha: Root):
    """The edge out of w in the label alpha's direction, or None.

    alpha must lie in Phi^+ minus Phi_J^+.  At most one of the two edge
    kinds can fire for a given (w, alpha).
    """
    rs = W.rs
    if not rs.is_positive_root(alpha) or alpha in J.phi_plus:
        raise ValueError(f"label {alpha} not in Phi+ minus Phi_J+")
    x = w * W.reflection(alpha)
    lw = w.length
    bruhat = x.length == lw + 1
    floor = W.min_coset_rep(x, J)
    quantum = floor.length == lw + 1 - J.quantum_shift[alpha]
    if bruhat and quantum:
        raise GraphInvariantError(f"edge kinds collide at ({w}, {alpha})")
    if bruhat:
        if floor.index != x.index:
            raise GraphInvariantError(f"Bruhat target {x} left W^J at ({w}, {alpha})")
        return QbgEdge(w.index, x.index, alpha, BRUHAT, (0,) * rs.rank)
    if quantum:
        return QbgEdge(w.index, floor.index, alpha, QUANTUM, rs.coroot(alpha))
    return None


class QbgGraph:
    """Directed graph over W^J with Bruhat and quantum edges.

    Immutable once built; adjacency lists are sorted by (label, kind) so
    exports and searches are deterministic.
    """

    def __init__(self, W: WeylGroup, J: ParabolicIndex, vertices, edges):
        self.W = W
        self.rs = W.rs
        self.J = J
        self.vertices = tuple(vertices)
        self.vertex_pos = {v: i for i, v in enumerate(self.vertices)}
        self.edges = tuple(edges)
        out: dict[int, list[QbgEdge]] = {v: [] for v in self.vertices}
        into: dict[int, list[QbgEdge]] = {v: [] for v in self.vertices}
        by_key: dict[tuple[int, Root], QbgEdge] = {}
        for e in self.edges:
            out[e.source].append(e)
            into[e.target].append(e)
            by_key[(e.source, e.label)] = e
        self.out = {v: tuple(sorted(es, key=lambda e: (e.label, e.kind))) for v, es in out.items()}
        self.into = {v: tuple(sorted(es, key=lambda e: (e.label, e.kind))) for v, es in into.items()}
        self._by_key = by_key
        self._dist: dict[int, dict[int, int]] | None = None
        self._diameter: int | None = None

    # -- lookups -----------------------------------------------------------

    def edge(self, source: int, label: Root) -> QbgEdge | None:
        return self._by_key.get((source, label))

    def element(self, vid: int) -> WeylElement:
        return self.W.element(vid)

    def empty_path(self, v: int) -> QbgPath:
        return QbgPath(v, ())

    # -- distances -----------------------------------------------------------

    def distances_from(self, u: int) -> dict[int, int]:
        if self._dist is None:
            self._dist = {}
        cached = self._dist.get(u)
        if cached is not None:
            return cached
        dist = {u: 0}
        queue = deque([u])
        while queue:
            cur = queue.popleft()
            for e in self.out[cur]:
                if e.target not in dist:
                    dist[e.target] = dist[cur] + 1
                    queue.append(e.target)
        if len(dist) != len(self.vertices):
            raise GraphInvariantError("graph is not strongly connected")
        self._dist[u] = dist
        return dist

    def distance(self, u: int, v: int) -> int:
        return self.distances_from(u)[v]

    def shortest_path(self, u: int, v: int) -> QbgPath:
        """A BFS witness path, deterministic via sorted adjacency."""
        parent: dict[int, QbgEdge] = {}
        dist = {u: 0}
        queue = deque([u])
        while queue:
            cur = queue.popleft()
            if cur == v:
                break
            for e in self.out[cur]:
                if e.target not in dist:
                    dist[e.target] = dist[cur] + 1
                    parent[e.target] = e
                    queue.append(e.target)
        if v not in dist:
            raise GraphInvariantError("graph is not strongly connected")
        edges = []
        cur = v
        while cur != u:
            e = parent[cur]
            edges.append(e)
            cur = e.source
        return QbgPath(u, tuple(reversed(edges)))

    def diameter(self) -> int:
        """The exact diameter, by bit-parallel reachability.

        After r rounds, bit i of ``reach[v]`` is set exactly when vertex i
        reaches v in at most r steps: each round ORs every predecessor's
        bitset into v's.  The diameter is the number of rounds until every
        bitset is full.  A round that changes nothing before then means the
        graph is not strongly connected.  No distance table is stored.
        """
        if self._diameter is None:
            pos = self.vertex_pos
            preds = [[pos[e.source] for e in self.into[v]] for v in self.vertices]
            full = (1 << len(self.vertices)) - 1
            reach = [1 << i for i in range(len(self.vertices))]
            rounds = 0
            while any(r != full for r in reach):
                nxt = []
                for acc, ps in zip(reach, preds):
                    for p in ps:
                        acc |= reach[p]
                    nxt.append(acc)
                if nxt == reach:
                    raise GraphInvariantError("graph is not strongly connected")
                reach = nxt
                rounds += 1
            self._diameter = rounds
        return self._diameter

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


def build_qbg(W: WeylGroup, J: ParabolicIndex) -> QbgGraph:
    """The quantum Bruhat graph on the minimum-length coset representatives."""
    rs = W.rs
    reps = W.min_coset_reps(J)
    order = sorted(reps, key=lambda w: (w.length, w.word))
    labels = [a for a in rs.positive_roots if not J.supports(a)]
    edges = []
    for w in order:
        for a in labels:
            e = edge_between(W, J, w, a)
            if e is not None:
                edges.append(e)
    return QbgGraph(W, J, (w.index for w in order), edges)


def build_subsystem_qbg(W: WeylGroup, J: ParabolicIndex) -> QbgGraph:
    """The quantum Bruhat graph of the parabolic subsystem W_J itself.

    Vertices are the elements of W_J; labels run over Phi_J^+ and the
    quantum length condition uses the subsystem's positive-root sum.
    """
    rs = W.rs
    ids = W.subgroup_elements(J.nodes)
    order = sorted((W.element(i) for i in ids), key=lambda w: (w.length, w.word))
    edges = []
    for w in order:
        lw = w.length
        for a in J.phi_plus:
            x = w * W.reflection(a)
            pair = rs.pairing(rs.coroot(a), J.two_rho_J)
            if x.length == lw + 1:
                edges.append(QbgEdge(w.index, x.index, a, BRUHAT, (0,) * rs.rank))
            elif x.length == lw + 1 - pair and rs.is_quantum_root(a):
                edges.append(QbgEdge(w.index, x.index, a, QUANTUM, rs.coroot(a)))
    return QbgGraph(W, J, (w.index for w in order), edges)


def induced_coset_subgraph(graph: QbgGraph, z: WeylElement, J: ParabolicIndex) -> QbgGraph:
    """Induced subgraph of QB(W) on the coset z W_J."""
    ids = {w.index for w in graph.W.coset(z, J)}
    keep = [e for e in graph.edges if e.source in ids and e.target in ids]
    order = sorted(ids, key=lambda i: (graph.W._length[i], graph.W._word[i]))
    return QbgGraph(graph.W, J, order, keep)


def dual_involution(graph: QbgGraph, w: WeylElement) -> WeylElement:
    """The duality w -> w_0 w w_0^J on W^J; reverses edges, preserves kinds."""
    W = graph.W
    return W.longest_element() * w * W.longest_element(graph.J.nodes)


# -- reflection orderings -----------------------------------------------------


@dataclass(frozen=True)
class ReflectionOrdering:
    """A total order on a set of positive roots.

    For any two ordered roots whose sum is also in the set, the sum sits
    strictly between them.
    """

    sequence: tuple[Root, ...]

    def position(self, alpha: Root) -> int:
        return self._pos[alpha]

    @property
    def _pos(self) -> dict[Root, int]:
        pos = self.__dict__.get("_pos_cache")
        if pos is None:
            pos = {a: i for i, a in enumerate(self.sequence)}
            self.__dict__["_pos_cache"] = pos
        return pos

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


def reflection_ordering_from_word(W: WeylGroup, word) -> ReflectionOrdering:
    """The ordering beta_k = r_{i_1} ... r_{i_{k-1}}(alpha_{i_k}) from a
    reduced word for the longest element."""
    rs = W.rs
    word = tuple(word)
    w = W.from_word(word)
    if w.index != W.longest_element().index or len(word) != w.length:
        raise ValueError("word is not a reduced word for the longest element")
    seq = []
    prefix = W.identity
    for k in word:
        alpha = tuple(1 if j == k - 1 else 0 for j in range(rs.rank))
        seq.append(prefix.act(alpha))
        prefix = prefix * W.simple_reflection(k)
    if sorted(seq) != sorted(rs.positive_roots):
        raise GraphInvariantError("word ordering does not enumerate Phi+")
    ordering = ReflectionOrdering(tuple(seq))
    ordering.validate()
    return ordering


def subsystem_word_ordering(W: WeylGroup, J: ParabolicIndex) -> tuple[Root, ...]:
    """Ordering of Phi_J^+ derived from the shortlex word of w_0^J."""
    rs = W.rs
    word = W.longest_element(J.nodes).word
    seq = []
    prefix = W.identity
    for k in word:
        alpha = tuple(1 if j == k - 1 else 0 for j in range(rs.rank))
        seq.append(prefix.act(alpha))
        prefix = prefix * W.simple_reflection(k)
    if sorted(seq) != sorted(J.phi_plus):
        raise GraphInvariantError("subsystem word ordering does not enumerate Phi_J+")
    return tuple(seq)


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

    def lam_pair(cor: Coroot) -> int:
        return sum(c * v for c, v in zip(cor, lam))

    outer = []
    for a in rs.positive_roots:
        if J.supports(a):
            continue
        cor = rs.coroot(a)
        denom = lam_pair(cor)
        outer.append((tuple(Fraction(c, denom) for c in cor), a))
    keys = [k for k, _ in outer]
    if len(set(keys)) != len(keys):
        raise GraphInvariantError("scaled coroot images are not distinct")
    outer.sort()
    inner = subsystem_word_ordering(W, J) if sub_order is None else sub_order
    ordering = ReflectionOrdering(tuple(a for _, a in outer) + tuple(inner))
    ordering.validate()
    return ordering


def increasing_path(graph: QbgGraph, u: int, v: int, ordering: ReflectionOrdering) -> QbgPath:
    """The unique path u -> v whose labels strictly increase.

    Exhaustive search with monotone pruning; raises if the count is not
    exactly one, which would mean the ordering is not a reflection ordering
    or the graph is corrupt.
    """
    pos = ordering._pos
    hits: list[tuple[QbgEdge, ...]] = [()] if u == v else []
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
            if e.target == v:
                hits.append(tuple(edges))
            frames.append((iter(graph.out[e.target]), p))
    if len(hits) != 1:
        raise GraphInvariantError(
            f"expected exactly one increasing path, found {len(hits)}"
        )
    path = QbgPath(u, hits[0])
    if len(path) != graph.distance(u, v):
        raise GraphInvariantError("increasing path is not a shortest path")
    return path


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
    assert best is not None
    return best[1]
