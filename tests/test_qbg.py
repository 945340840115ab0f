import gc
import random
import re
import sys
from array import array
from collections import deque

import pytest

from qbgraph import qbg
from qbgraph.qbg import (
    BRUHAT,
    QUANTUM,
    UNSETTLED,
    GraphInvariantError,
    QbgEdge,
    QbgGraph,
    QbgPath,
    ReflectionOrdering,
    build_qbg,
    build_subsystem_qbg,
    dual_involution,
    increasing_path,
    increasing_paths,
    induced_coset_subgraph,
    lambda_ordering,
    lexicographically_minimal_shortest,
    quotient_diameter,
    reflection_ordering_from_word,
)
from qbgraph.root_system import ParabolicIndex, build_root_system, is_positive_vec
from qbgraph.verify import PATH_WEIGHT_CASES, ROOT_TYPES, SMALL_TYPES, _dual_label, all_parabolics
from qbgraph.weyl import WeightOrbit, WeylGroup
from test_weyl_enumeration import reference


@pytest.fixture(scope="module")
def a2():
    rs = build_root_system("A", 2)
    return rs, WeylGroup(rs)


@pytest.fixture(scope="module")
def groups():
    """Weyl groups by (type, rank), built once for this module (E6 takes
    seconds to enumerate)."""
    built = {}

    def get(cartan_type, rank):
        key = (cartan_type, rank)
        if key not in built:
            rs = build_root_system(cartan_type, rank)
            built[key] = rs, WeylGroup(rs)
        return built[key]

    return get


@pytest.fixture(scope="module")
def a2_graph(a2):
    rs, W = a2
    return build_qbg(W, rs.parabolic(()))


def test_edge_between_examples(a2):
    # the edge out of a vertex with a given label, read with graph.edge
    rs, W = a2
    J1 = rs.parabolic((1,))
    g = build_qbg(W, J1)
    e = g.edge(W.identity.index, (0, 1))
    assert e.kind == BRUHAT and e.target == W.from_word([2]).index
    e = g.edge(W.from_word([2]).index, (1, 1))
    assert e.kind == BRUHAT and e.target == W.from_word([1, 2]).index
    e = g.edge(W.from_word([1, 2]).index, (0, 1))
    assert e.kind == QUANTUM and e.target == W.identity.index
    # a label inside Phi_J makes no edge
    assert g.edge(W.identity.index, (1, 0)) is None


def test_edge_between_full_graph(a2, a2_graph):
    rs, W = a2
    g = a2_graph
    e = g.edge(W.from_word([1, 2]).index, (1, 0))
    assert e.kind == BRUHAT and e.target == W.longest_element().index
    e = g.edge(W.longest_element().index, rs.theta)
    assert e.kind == QUANTUM and e.target == W.identity.index
    assert g.edge(W.longest_element().index, (1, 0)).kind == QUANTUM


def test_a_zero_quantum_shift_trips_the_kind_collision():
    # with <alpha_2^vee, 2rho - 2rho_J> forced to 0, the Bruhat edge
    # e -> r_2 of A2, J = {1}, would also pass the quantum test; the shift
    # is checked per label before any edge is decided
    rs = build_root_system("A", 2)
    W = WeylGroup(rs)
    J = rs.parabolic((1,))
    broken = ParabolicIndex(J.nodes, J.phi_plus, J.two_rho_J, J.components,
                            {**J.quantum_shift, (0, 1): 0}, J.in_phi_J, J.phi_plus_pos,
                            J.lambda_J)
    for group in (W, WeightOrbit(rs, J)):
        with pytest.raises(GraphInvariantError, match=r"^quantum shift 0 of \(0, 1\) is below 2$"):
            build_qbg(group, broken)
    assert build_qbg(W, J).edge(W.identity.index, (0, 1)).kind == BRUHAT


class OffTheOrbit(WeightOrbit):
    """The orbit with e's root permutation sabotaged: alpha_2 is sent to
    -alpha_2, so the target of alpha_2 out of e is the weight
    omega_2 + C alpha_2 = (-1, 3), which is no orbit point."""

    def __init__(self, rs, J):
        super().__init__(rs, J)
        b = rs.positive_roots.index((0, 1))
        perm = bytearray(self._perm[0])
        perm[b] += len(rs.positive_roots)
        self._perm[0] = bytes(perm)


def test_a_target_outside_the_orbit_trips_its_check(monkeypatch):
    rs = build_root_system("A", 2)
    J = rs.parabolic((1,))
    message = r"^the target of \(0, 1\) out of W\[123\] is not in W\^J$"
    with pytest.raises(GraphInvariantError, match=message):
        build_qbg(OffTheOrbit(rs, J), J)
    # the group's graph is decided on the same orbit
    monkeypatch.setattr(qbg, "WeightOrbit", OffTheOrbit)
    with pytest.raises(GraphInvariantError, match=message):
        build_qbg(WeylGroup(rs), J)


def test_an_orbit_of_another_parabolic_is_refused():
    rs = build_root_system("A", 2)
    with pytest.raises(ValueError, match=r"^the orbit is of J = \(1,\), not \(2,\)$"):
        build_qbg(WeightOrbit(rs, rs.parabolic((1,))), rs.parabolic((2,)))


@pytest.mark.parametrize("cartan_type,name", [("A", "132"), ("B", "r2")])
def test_a_left_step_off_the_graph_names_its_vertex(cartan_type, name):
    # with the left-step kernel's slot lookup sabotaged to miss at r_2, the
    # step by s_1 out of r_2, whose label r_2(alpha_1) is positive, is no
    # longer a graph edge
    rs = build_root_system(cartan_type, 2)
    W = WeylGroup(rs)
    g = build_qbg(W, rs.parabolic(()))
    x = W.from_word([2]).index
    real = g._slot
    g._slot = lambda p, b: -1 if g.vertices[p] == x else real(p, b)
    with pytest.raises(GraphInvariantError,
                       match=rf"^left step by 1 at W\[{name}\] is not a graph edge$"):
        g.left_step(1, x)


def test_a2_graph_structure(a2, a2_graph):
    rs, W = a2
    g = a2_graph
    assert len(g.vertices) == 6
    assert len(g.edges) == 15
    assert len(g.quantum_edges()) == 7
    theta_edges = [e for e in g.quantum_edges() if e.label == rs.theta]
    assert len(theta_edges) == 1
    assert theta_edges[0].source == W.longest_element().index
    assert theta_edges[0].target == W.identity.index
    for e in g.edges:
        if e.kind == QUANTUM:
            assert e.weight == rs.coroot(e.label)
        else:
            assert e.weight == (0, 0)


def test_a3_parabolic_reference():
    rs = build_root_system("A", 3)
    W = WeylGroup(rs)
    g = build_qbg(W, rs.parabolic((1, 3)))
    assert len(g.vertices) == 6
    assert len(g.edges) == 8
    q = {
        (W.describe(e.source), W.describe(e.target), e.label)
        for e in g.quantum_edges()
    }
    assert q == {("2413", "1234", (0, 1, 0)), ("3412", "1324", (0, 1, 0))}


def test_distances(a2, a2_graph):
    rs, W = a2
    g = a2_graph
    for v in g.vertices:
        assert g.distance(v, v) == 0
    assert g.distance(W.longest_element().index, W.identity.index) == 1
    g1 = build_qbg(W, rs.parabolic((1,)))
    assert g1.distance(W.from_word([1, 2]).index, W.from_word([2]).index) == 2
    p = g1.shortest_path(W.from_word([1, 2]).index, W.from_word([2]).index)
    assert len(p) == 2 and p.start == W.from_word([1, 2]).index


def test_a_vertex_outside_the_graph_raises_value_error(a2):
    rs, W = a2
    g = build_qbg(W, rs.parabolic((1,)))
    bad = W.from_word([1]).index  # r1 is not in W^J for J = {1}
    assert bad not in g.vertex_pos
    with pytest.raises(ValueError, match=f"^{bad} is not a vertex"):
        g.shortest_path(g.vertices[0], bad)
    with pytest.raises(ValueError, match=f"^{bad} is not a vertex"):
        g.shortest_path(bad, g.vertices[0])
    with pytest.raises(ValueError, match=f"^{bad} is not a vertex"):
        g.distance(g.vertices[0], bad)
    with pytest.raises(ValueError, match=f"^{bad} is not a vertex"):
        g.distance(bad, g.vertices[0])
    with pytest.raises(ValueError, match=f"^{bad} is not a vertex"):
        g.distances_from(bad)
    assert bad not in g._dist


def reference_bfs(g, u):
    """Distances from u and the BFS tree's entering edge of each vertex: a
    FIFO queue over ``g.out``, each vertex entered by the first edge that
    reaches it.  Shares no code with the engine's BFS."""
    dist = {u: 0}
    entering = {}
    queue = deque([u])
    while queue:
        cur = queue.popleft()
        for e in g.out[cur]:
            if e.target not in dist:
                dist[e.target] = dist[cur] + 1
                entering[e.target] = e
                queue.append(e.target)
    return dist, entering


def reference_path(entering, u, v):
    edges = []
    while v != u:
        edges.append(entering[v])
        v = edges[-1].source
    return tuple(reversed(edges))


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_distances_and_paths_match_a_reference_bfs(groups, cartan_type, rank):
    rs, W = groups(cartan_type, rank)
    for J in all_parabolics(rank):
        g = build_qbg(W, rs.parabolic(J))
        for u in g.vertices:
            dist, entering = reference_bfs(g, u)
            assert list(g.distances_from(u)) == [dist[v] for v in g.vertices], (J, u)
            for v in g.vertices:
                assert g.distance(u, v) == dist[v]
                p = g.shortest_path(u, v)
                assert p.start == u and p.end == v
                assert p.edges == reference_path(entering, u, v), (J, u, v)


@pytest.mark.parametrize("cartan_type,rank,J", [("A", 2, ()), ("A", 2, (1,)),
                                                 ("A", 3, (1, 3)), ("G", 2, (1,))])
def test_distances_and_paths_reject_graphs_that_are_not_strongly_connected(
        groups, cartan_type, rank, J):
    # drop each edge in turn: the engine agrees with the reference BFS where
    # it reaches, and raises where it does not
    rs, W = groups(cartan_type, rank)
    g = build_qbg(W, rs.parabolic(J))
    raised = 0
    for k in range(len(g.edges)):
        h = QbgGraph(W, g.J, g.vertices, g.edges[:k] + g.edges[k + 1:])
        for u in h.vertices:
            dist, entering = reference_bfs(h, u)
            if len(dist) == len(h.vertices):
                assert list(h.distances_from(u)) == [dist[v] for v in h.vertices]
            else:
                with pytest.raises(GraphInvariantError, match="not strongly connected"):
                    h.distances_from(u)
                assert u not in h._dist
                raised += 1
            for v in h.vertices:
                if v in dist:
                    assert h.shortest_path(u, v).edges == reference_path(entering, u, v)
                else:
                    with pytest.raises(GraphInvariantError, match="not strongly connected"):
                        h.shortest_path(u, v)
    # QB(A2) stays strongly connected without any one edge; the others do not
    assert (raised == 0) == (J == ())


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_bounded_distances_match_a_reference_bfs(groups, cartan_type, rank):
    # distance grows u's row only until v is settled; asked in shuffled
    # order, every answer is the reference's, and the row grown that way
    # then completes to the reference row
    rs, W = groups(cartan_type, rank)
    rng = random.Random(f"{cartan_type}{rank}")
    stopped = 0
    for J in all_parabolics(rank):
        g = build_qbg(W, rs.parabolic(J))
        for u in g.vertices:
            dist, _ = reference_bfs(g, u)
            targets = list(g.vertices)
            rng.shuffle(targets)
            for v in targets:
                assert g.distance(u, v) == dist[v], (J, u, v)
                if u in g._partial:
                    stopped += 1
                    row = g._partial[u].dist
                    assert all(d in (UNSETTLED, dist[x]) for d, x in zip(row, g.vertices))
                    assert UNSETTLED in row
            assert list(g.distances_from(u)) == [dist[v] for v in g.vertices], (J, u)
            assert u in g._dist and u not in g._partial
    assert stopped > 0


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_a_resumed_row_equals_a_fresh_full_row(groups, cartan_type, rank):
    # a row stopped at a target and resumed, once for a farther target and
    # once to the end, is the row of a fresh graph's BFS
    rs, W = groups(cartan_type, rank)
    resumed = 0
    for J in all_parabolics(rank):
        g = build_qbg(W, rs.parabolic(J))
        fresh = build_qbg(W, rs.parabolic(J))
        pos = g.vertex_pos
        for u in g.vertices:
            dist, _ = reference_bfs(g, u)
            by_distance = sorted(g.vertices, key=dist.get)
            near, far = by_distance[len(by_distance) // 3], by_distance[-1]
            row = g.settled_row(u, [pos[near]])
            assert row[pos[near]] == dist[near]
            if UNSETTLED in row:
                assert u in g._partial and u not in g._dist
                assert row is g._partial[u].dist
                resumed += 1
            else:
                assert u in g._dist and u not in g._partial
            row = g.settled_row(u, [pos[far]])
            assert row[pos[far]] == dist[far]
            assert g.distances_from(u) == fresh.distances_from(u)
            assert u not in g._partial
    assert resumed > 0


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2)])
def test_rows_grown_through_target_sets_complete_in_compact_form(groups, cartan_type, rank):
    # every row grows through seeded target sets, some repeated and some
    # already settled: its working form stays in _partial, resumed in place,
    # until its last vertex is settled; the row then sits in _dist as an
    # array("H") equal to a fresh graph's.  A raise keeps nothing of the row
    rs, W = groups(cartan_type, rank)
    rng = random.Random(f"rows {cartan_type}{rank}")
    repeated = already = raised = 0
    for J in all_parabolics(rank):
        g = build_qbg(W, rs.parabolic(J))
        fresh = build_qbg(W, rs.parabolic(J))
        n = len(g.vertices)
        for u in g.vertices:
            want = fresh.distances_from(u)
            asked = []
            while u not in g._dist:
                if asked and rng.random() < 0.25:
                    targets = rng.choice(asked)
                    repeated += 1
                else:
                    targets = rng.sample(range(n), rng.randint(1, min(3, n)))
                    asked.append(targets)
                state = g._partial.get(u)
                settled = state is not None and all(state.dist[t] != UNSETTLED for t in targets)
                before = None if state is None else len(state.queue)
                row = g.settled_row(u, targets)
                assert [row[t] for t in targets] == [want[t] for t in targets]
                if settled:  # nothing to grow: the row is handed back as kept
                    already += 1
                    assert g._partial.get(u) is state and len(state.queue) == before
                if u in g._partial:
                    state = g._partial[u]
                    assert row is state.dist and u not in g._dist
                    known = [p for p, d in enumerate(row) if d != UNSETTLED]
                    assert [row[p] for p in known] == [want[p] for p in known]
                    # each settled vertex entered the queue once
                    assert sorted(state.queue) == known and len(known) < n
            row = g._dist[u]
            assert type(row) is array and row.typecode == "H"
            assert row == want and u not in g._partial
            assert g.settled_row(u, asked[0]) is row
        if n == 1:
            continue
        # without the edges into v, v is out of every other source's reach
        v = g.vertices[-1]
        h = QbgGraph(W, g.J, g.vertices, [e for e in g.edges if e.target != v])
        for u in h.vertices[:-1]:
            reach, _ = reference_bfs(h, u)
            near = rng.choice(sorted(reach))
            h.settled_row(u, [h.vertex_pos[near]])
            for targets in ([h.vertex_pos[v]], [h.vertex_pos[near], h.vertex_pos[v]], None):
                with pytest.raises(GraphInvariantError, match="not strongly connected"):
                    h.settled_row(u, targets)
                assert u not in h._dist and u not in h._partial
                raised += 1
            assert h.settled_row(u, [h.vertex_pos[near]])[h.vertex_pos[near]] == reach[near]
    assert repeated > 0 and already > 0 and raised > 0


@pytest.mark.parametrize("cartan_type,rank,J", [("A", 2, (1,)), ("A", 3, (1, 3)),
                                                 ("G", 2, (1,))])
def test_bounded_distances_on_graphs_that_are_not_strongly_connected(
        groups, cartan_type, rank, J):
    # drop each edge in turn: a reachable v gets its distance from a row
    # grown part way, an unreachable v raises, and a raise keeps no row
    rs, W = groups(cartan_type, rank)
    g = build_qbg(W, rs.parabolic(J))
    rng = random.Random(f"{cartan_type}{rank}{J}")
    raised = answered = 0
    for k in range(len(g.edges)):
        h = QbgGraph(W, g.J, g.vertices, g.edges[:k] + g.edges[k + 1:])
        for u in h.vertices:
            dist, _ = reference_bfs(h, u)
            targets = list(h.vertices)
            rng.shuffle(targets)
            for v in targets:
                if v in dist:
                    assert h.distance(u, v) == dist[v]
                    answered += len(dist) < len(h.vertices)
                else:
                    with pytest.raises(GraphInvariantError, match="not strongly connected"):
                        h.distance(u, v)
                    assert u not in h._dist and u not in h._partial
                    raised += 1
    assert raised > 0 and answered > 0


def reference_diameter(g):
    """The largest ``reference_bfs`` distance over all sources, or None when
    some vertex does not reach another."""
    rows = [reference_bfs(g, u)[0] for u in g.vertices]
    if any(len(row) < len(g.vertices) for row in rows):
        return None
    return max(max(row.values()) for row in rows)


def _row_state(g):
    """What a graph keeps of its BFS work: complete rows, partial rows (by
    value) and the successor tuples (by identity)."""
    return (dict(g._dist), {u: (list(r.dist), list(r.queue)) for u, r in g._partial.items()},
            id(g._succ))


@pytest.mark.parametrize("cartan_type,rank,J", [("A", 2, ()), ("B", 2, (1,)), ("G", 2, ()),
                                                 ("A", 3, (2,)), ("A", 2, (1, 2))])
def test_strongly_connected_matches_a_bfs_reference(groups, cartan_type, rank, J):
    # the graph (one vertex for J = I) and each copy with one edge dropped:
    # the two engine BFS agree with a reference BFS from every vertex, and
    # leave the kept rows as they were.  Every drop cuts B2 J = {1}; none
    # cuts the other graphs of two or more vertices
    rs, W = groups(cartan_type, rank)
    g = build_qbg(W, rs.parabolic(J))
    g.distances_from(g.vertices[-1])  # a complete row, and the successor tuples
    g.distance(g.vertices[0], g.vertices[0])  # a row stopped at its source
    assert g._succ is not None and (g._partial or len(g.vertices) == 1)
    answers = []
    for k in range(-1, len(g.edges)):
        h = g if k < 0 else QbgGraph(W, g.J, g.vertices, g.edges[:k] + g.edges[k + 1:])
        before = _row_state(h)
        answers.append(h.strongly_connected())
        assert answers[-1] is (reference_diameter(h) is not None), k
        assert _row_state(h) == before, k
    assert answers[0] and answers.count(False) == (len(g.edges) if J == (1,) else 0)
    assert g.diameter() == quotient_diameter(g.J)


def test_diameter_rejects_graphs_that_are_not_strongly_connected(a2, a2_graph):
    rs, W = a2
    cycle = build_qbg(W, rs.parabolic((1,)))  # a directed 3-cycle
    cut = QbgGraph(W, cycle.J, cycle.vertices, cycle.edges[1:])
    assert not cut.strongly_connected()
    with pytest.raises(GraphInvariantError, match="not strongly connected"):
        cut.diameter()
    # drop each edge of QB(A2) in turn: the diameter and the reference BFS
    # agree, or both find the graph not strongly connected
    g = a2_graph
    for k in range(len(g.edges)):
        h = QbgGraph(W, g.J, g.vertices, g.edges[:k] + g.edges[k + 1:])
        expect = reference_diameter(h)
        if expect is None:
            assert not h.strongly_connected()
            with pytest.raises(GraphInvariantError, match="not strongly connected"):
                h.diameter()
        else:
            assert h.strongly_connected()
            assert h.diameter() == expect


@pytest.mark.parametrize(
    "cartan_type,rank",
    ROOT_TYPES + [("A", 5), ("A", 6), ("B", 5), ("D", 5), ("E", 6)],
)
def test_diameter_is_the_number_of_roots_outside_phi_j(groups, cartan_type, rank):
    # diam QB(W^J) = |Phi+ minus Phi_J+|, the closed form of
    # ``quotient_diameter`` that the lift depth and the path-weights cap read
    from qbgraph.affine import AffineWeyl

    rs, W = groups(cartan_type, rank)
    aw = AffineWeyl(W)
    if rank <= 4:
        parabolics = list(all_parabolics(rank))
    else:  # two small quotients: J is every node but node 1, or node 2
        parabolics = [tuple(j for j in range(1, rank + 1) if j != k) for k in (1, 2)]
    if (cartan_type, rank) == ("A", 5):
        parabolics.append((1,))  # 360 vertices
    for J in parabolics:
        par = rs.parabolic(J)
        g = build_qbg(W, par)
        assert g.strongly_connected(), J
        assert g.diameter() == quotient_diameter(par) == (
            len(rs.positive_roots) - len(par.phi_plus)), J
        assert aw.lift_depth(g) == g.diameter() + 2, J


def test_dual_involution(a2):
    rs, W = a2
    for nodes in [(), (1,), (2,)]:
        J = rs.parabolic(nodes)
        g = build_qbg(W, J)
        top = W.min_coset_rep(W.longest_element(), J)
        assert dual_involution(g, W.identity.index) == top.index
        for v in g.vertices:
            assert dual_involution(g, dual_involution(g, v)) == v


def test_dual_involution_a3():
    rs = build_root_system("A", 3)
    W = WeylGroup(rs)
    g = build_qbg(W, rs.parabolic((1, 3)))
    e_dual = dual_involution(g, W.identity.index)
    assert W._length[e_dual] == 4
    assert W.describe(e_dual) == "3412"


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_dual_involution_matches_concatenated_words(cartan_type, rank):
    # the reference product is from_word on the concatenated words, which
    # shares no code with mul
    W = WeylGroup(build_root_system(cartan_type, rank))
    w0 = W.longest_element().word
    for nodes in all_parabolics(rank):
        g = build_qbg(W, W.rs.parabolic(nodes))
        w0J = W.longest_element(nodes).word
        for x in g.vertices:
            want = W.from_word(w0 + W.element(x).word + w0J)
            assert W.element(dual_involution(g, x)) == want


def test_dual_label_rejects_a_negative_label():
    """The dual label w0J u(alpha) of a real edge is positive; on the
    reverse of the quantum edge 3 -> 0 of G2 J={1} it is (-3, -2), and the
    check names the edge instead of flipping it to (3, 2)."""
    rs = build_root_system("G", 2)
    W = WeylGroup(rs)
    J = rs.parabolic((1,))
    w0J = W.longest(J.nodes)
    real = build_qbg(W, J).edge(3, (0, 1))
    assert (real.target, real.kind) == (0, QUANTUM)
    assert is_positive_vec(_dual_label(W, w0J, real)[0])
    forged = QbgEdge(0, 3, (0, 1), QUANTUM, (0, 1))
    with pytest.raises(AssertionError, match="not positive") as info:
        _dual_label(W, w0J, forged)
    assert str(forged) in str(info.value)


def test_word_ordering(a2):
    rs, W = a2
    o = reflection_ordering_from_word(W, (1, 2, 1))
    assert o.sequence == ((1, 0), (1, 1), (0, 1))
    o2 = reflection_ordering_from_word(W, (2, 1, 2))
    assert o2.sequence == ((0, 1), (1, 1), (1, 0))
    with pytest.raises(ValueError):
        reflection_ordering_from_word(W, (1, 2))
    with pytest.raises(ValueError):
        reflection_ordering_from_word(W, (1, 2, 1, 1, 2))


def test_word_ordering_rank_one():
    rs = build_root_system("A", 1)
    W = WeylGroup(rs)
    o = reflection_ordering_from_word(W, (1,))
    assert o.sequence == ((1,),)


def test_lambda_ordering(a2):
    rs, W = a2
    J = rs.parabolic((1,))
    o = lambda_ordering(W, (0, 1), J)
    assert o.sequence == ((0, 1), (1, 1), (1, 0))
    with pytest.raises(ValueError):
        lambda_ordering(W, (1, 1), J)  # stabilizer mismatch
    with pytest.raises(ValueError):
        lambda_ordering(W, (0, -1), J)


def test_betweenness_catches_bad_order(a2):
    rs, W = a2
    from qbgraph.qbg import ReflectionOrdering

    bad = ReflectionOrdering(((1, 1), (1, 0), (0, 1)))
    with pytest.raises(GraphInvariantError):
        bad.validate()


def test_increasing_path_unique_everywhere(a2, a2_graph):
    rs, W = a2
    g = a2_graph
    for word in [(1, 2, 1), (2, 1, 2)]:
        o = reflection_ordering_from_word(W, word)
        for u in g.vertices:
            for v in g.vertices:
                p = increasing_path(g, u, v, o)
                assert len(p) == g.distance(u, v)
                labels = [o.position(e.label) for e in p.edges]
                assert labels == sorted(labels)
                assert tuple(e.label for e in p.edges) == (
                    lexicographically_minimal_shortest(g, u, v, o)
                )
    assert len(increasing_path(g, g.vertices[0], g.vertices[0], o)) == 0


def test_lexicographically_minimal_shortest_raises_without_a_path(monkeypatch, a2, a2_graph):
    # a raise, not an assert, so python -O keeps it
    rs, W = a2
    o = reflection_ordering_from_word(W, (1, 2, 1))
    monkeypatch.setattr(a2_graph, "iter_paths", lambda *args: iter(()))
    with pytest.raises(GraphInvariantError, match="no path of the BFS length"):
        lexicographically_minimal_shortest(a2_graph, a2_graph.vertices[0], a2_graph.vertices[-1], o)


def test_subsystem_graph_matches_coset_subgraph(a2, a2_graph):
    rs, W = a2
    J = rs.parabolic((1,))
    ref = build_subsystem_qbg(W, J)
    sub = induced_coset_subgraph(a2_graph, W.identity.index, J)
    assert {(e.source, e.target, e.label, e.kind) for e in ref.edges} == {
        (e.source, e.target, e.label, e.kind) for e in sub.edges
    }


def test_path_weight(a2_graph, a2):
    rs, W = a2
    g = a2_graph
    w0 = W.longest_element()
    p = g.shortest_path(w0.index, W.identity.index)
    assert p.weight(2) == rs.coroot(rs.theta)
    assert QbgPath(0, ()).weight(2) == (0, 0)


def test_mixed_length_subsystem_coset_copies():
    # a rank-2 subsystem with both root lengths inside a rank-3 ambient group
    rs = build_root_system("C", 3)
    W = WeylGroup(rs)
    J = rs.parabolic((2, 3))
    g = build_qbg(W, rs.parabolic(()))
    ref = build_subsystem_qbg(W, J)
    assert len(ref.edges) == 22 and len(ref.quantum_edges()) == 10
    for z in [W.identity, W.from_word([1]), W.from_word([1, 2, 1])]:
        z0 = W.min_coset_rep(z, J)
        sub = induced_coset_subgraph(g, z.index, J)
        mapped = {
            (W.mul(z0.index, e.source), W.mul(z0.index, e.target), e.label, e.kind)
            for e in ref.edges
        }
        got = {(e.source, e.target, e.label, e.kind) for e in sub.edges}
        assert mapped == got


@pytest.mark.parametrize(
    "cartan_type,rank,parabolics",
    [("A", 3, None), ("B", 3, None), ("C", 3, None), ("G", 2, None),
     ("E", 6, [(2, 3, 4, 5, 6)])],
)
def test_min_coset_reps_match_the_matrix_action(groups, cartan_type, rank, parabolics):
    rs, W = groups(cartan_type, rank)
    simples = rs.simple_roots()
    for nodes in parabolics or all_parabolics(rank):
        J = rs.parabolic(nodes)
        expect = [
            w for w in range(len(W))
            if all(is_positive_vec(W.act(w, simples[j - 1])) for j in nodes)
        ]
        assert [w.index for w in W.min_coset_reps(J)] == expect, nodes
        assert all(W.coset_floor(w, J) == w for w in expect)


@pytest.mark.parametrize(
    "cartan_type,rank,parabolics",
    [("A", 2, None), ("A", 3, None), ("A", 4, None), ("A", 5, None), ("B", 3, None),
     ("C", 3, None), ("D", 4, None), ("F", 4, None), ("G", 2, None),
     ("E", 6, [tuple(j for j in range(1, 7) if j != i) for i in range(1, 7)]),
     ("B", 4, None), ("C", 4, None), ("D", 5, None)],
)
def test_min_coset_ids_match_the_descent_definition(groups, cartan_type, rank, parabolics):
    # the search from e by left multiplication against a scan of all of W
    # for the ids with no right descent in J, contents and order
    rs, W = groups(cartan_type, rank)
    length, right = W._length, W._right
    for nodes in parabolics or all_parabolics(rank):
        expect = tuple(w for w in range(len(W))
                       if all(length[right[j - 1][w]] > length[w] for j in nodes))
        assert W.min_coset_ids(rs.parabolic(nodes)) == expect, nodes


def recursive_paths(g, u, v, max_len):
    """The recursive depth-first walk that iter_paths replaced."""
    stack = []

    def rec(cur):
        if cur == v:
            yield QbgPath(u, tuple(stack))
        if len(stack) == max_len:
            return
        for e in g.out[cur]:
            stack.append(e)
            yield from rec(e.target)
            stack.pop()

    yield from rec(u)


def recursive_increasing_paths(g, u, v, ordering):
    """Every path u -> v with strictly increasing labels, found recursively."""
    hits, stack = [], []

    def rec(cur, floor_pos):
        if cur == v:
            hits.append(tuple(stack))
        for e in g.out[cur]:
            p = ordering.position(e.label)
            if p > floor_pos:
                stack.append(e)
                rec(e.target, p)
                stack.pop()

    rec(u, -1)
    return hits


def test_walks_match_the_recursive_order_on_a3():
    rs = build_root_system("A", 3)
    W = WeylGroup(rs)
    g = build_qbg(W, rs.parabolic(()))
    ordering = reflection_ordering_from_word(W, W.longest_element().word)
    for u in g.vertices:
        for v in g.vertices:
            d = g.distance(u, v)
            for max_len in (d, d + 1):
                got = list(g.iter_paths(u, v, max_len))
                assert got == list(recursive_paths(g, u, v, max_len)), (u, v)
            (hit,) = recursive_increasing_paths(g, u, v, ordering)
            assert increasing_path(g, u, v, ordering).edges == hit


def single_target_increasing_path(graph, u, v, ordering):
    """The one-target search that ``increasing_paths`` replaced: a walk of
    the whole increasing tree out of u that keeps the paths ending at v."""
    pos = ordering._pos
    hits = [()] if u == v else []
    edges = []
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
        raise GraphInvariantError(f"expected exactly one increasing path, found {len(hits)}")
    path = QbgPath(u, hits[0])
    if len(path) != graph.distance(u, v):
        raise GraphInvariantError("increasing path is not a shortest path")
    return path


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 2), ("G", 2)])
def test_increasing_paths_match_the_single_target_search(groups, cartan_type, rank):
    rs, W = groups(cartan_type, rank)
    g = build_qbg(W, rs.parabolic(()))
    word = W.longest_element().word
    # w0 is an involution, so its reversed word is reduced for it too
    for o in (reflection_ordering_from_word(W, word),
              reflection_ordering_from_word(W, tuple(reversed(word)))):
        for u in g.vertices:
            paths = increasing_paths(g, u, o)
            assert list(paths) == list(g.vertices)
            for v in g.vertices:
                assert paths[v] == single_target_increasing_path(g, u, v, o), (u, v)
                assert increasing_path(g, u, v, o) == paths[v]


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 2), ("G", 2)])
def test_increasing_paths_reject_a_non_reflection_ordering(groups, cartan_type, rank):
    rs, W = groups(cartan_type, rank)
    g = build_qbg(W, rs.parabolic(()))
    bad = ReflectionOrdering(tuple(sorted(rs.positive_roots)))
    with pytest.raises(GraphInvariantError, match="betweenness"):
        bad.validate()
    raised = 0
    for u in g.vertices:
        try:
            want = [single_target_increasing_path(g, u, v, bad) for v in g.vertices]
        except GraphInvariantError as exc:
            # the first vertex, in vertex order, that the old search rejects
            with pytest.raises(GraphInvariantError, match=re.escape(str(exc))):
                increasing_paths(g, u, bad)
            raised += 1
            continue
        assert list(increasing_paths(g, u, bad).values()) == want
    assert raised > 0


def test_walks_run_deeper_than_the_recursion_limit(a2):
    rs, W = a2
    n = 300
    labels = [(k,) for k in range(n)]
    edges = [QbgEdge(k, (k + 1) % n, labels[k], BRUHAT, (0, 0)) for k in range(n)]
    g = QbgGraph(W, rs.parabolic(()), range(n), edges)
    ordering = ReflectionOrdering(tuple(labels))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        (path,) = g.iter_paths(0, n - 1, n)
        assert len(path) == n - 1 and path.end == n - 1
        assert increasing_path(g, 0, n - 1, ordering).edges == path.edges
    finally:
        sys.setrecursionlimit(limit)



def matrix_edges(rs, W, J):
    """QB(W^J) edge by edge, per (w, alpha) from matrices on the simple
    roots: w -> floor(w r_alpha) is Bruhat when the floor has length
    l(w) + 1, and quantum when it has length l(w) + 1 - <alpha^vee, 2rho - 2rho_J>.
    The matrix of w is the matrix-keyed reference's, whose ids are W's."""
    mats = reference(rs.cartan_type, rs.rank)[0]
    simples = rs.simple_roots()
    # <beta^vee, alpha_j> for every root beta and node j
    pairings = {b: tuple(rs.pairing(rs.coroot(b), s) for s in simples) for b in rs.positive_roots}

    def times_reflection(mat, beta):
        # rows x(alpha_j) -> rows (x r_beta)(alpha_j) = x(alpha_j) - <beta^vee, alpha_j> x(beta)
        x_beta = tuple(map(sum, zip(*([c * v for v in row] for c, row in zip(beta, mat)))))
        return tuple(
            tuple(v - p * y for v, y in zip(row, x_beta)) for row, p in zip(mat, pairings[beta])
        )

    named = {}

    def name(mat):
        # the id and length of the element with this matrix, by stripping
        # right descents (x(alpha_j) < 0) down to the identity
        got = named.get(mat)
        if got is None:
            word, cur = [], mat
            while True:
                j = next((j for j, row in enumerate(cur) if not is_positive_vec(row)), None)
                if j is None:
                    break
                cur = times_reflection(cur, simples[j])
                word.append(j + 1)
            got = named[mat] = (W.from_word(reversed(word)).index, len(word))
        return got

    def floor(mat):
        while True:
            j = next((j for j in J.nodes if not is_positive_vec(mat[j - 1])), None)
            if j is None:
                return mat
            mat = times_reflection(mat, simples[j - 1])

    inside = [a for a in rs.positive_roots if all(c == 0 or i + 1 in J.nodes for i, c in enumerate(a))]
    two_rho_j = tuple(map(sum, zip(rs.two_rho, *([-c for c in a] for a in inside))))
    labels = [(a, rs.pairing(rs.coroot(a), two_rho_j)) for a in rs.positive_roots if a not in inside]
    edges = []
    for w in range(len(W)):
        mat = mats[w]
        if any(not is_positive_vec(mat[j - 1]) for j in J.nodes):
            continue  # not in W^J
        length = name(mat)[1]
        for a, shift in labels:
            target, tlen = name(floor(times_reflection(mat, a)))
            if tlen == length + 1:
                edges.append(QbgEdge(w, target, a, BRUHAT, (0,) * rs.rank))
            elif tlen == length + 1 - shift:
                edges.append(QbgEdge(w, target, a, QUANTUM, rs.coroot(a)))
    return edges


@pytest.mark.parametrize(
    "cartan_type,rank,parabolics",
    [(t, r, None) for t, r in SMALL_TYPES]
    + [("A", 5, [(3,)]), ("A", 6, [(1,)]), ("E", 6, [(2, 3, 4, 5, 6)])],
)
def test_graph_edges_match_the_matrix_definition(groups, cartan_type, rank, parabolics):
    rs, W = groups(cartan_type, rank)
    for nodes in parabolics or all_parabolics(rank):
        J = rs.parabolic(nodes)
        assert list(build_qbg(W, J).edges) == matrix_edges(rs, W, J), nodes


def subsystem_reference_edges(rs, W, J):
    """QB(W_J) edge by edge, per (w, alpha) over W_J and Phi_J^+, from
    lengths alone: w -> w r_alpha is Bruhat when the length goes up by one
    and quantum when it drops to l(w) + 1 - <alpha^vee, 2rho_J>."""
    two_rho_j = tuple(map(sum, zip(*J.phi_plus))) if J.phi_plus else (0,) * rs.rank
    edges = []
    for w in sorted(W.subgroup_elements(J.nodes)):
        for a in J.phi_plus:
            x = W.mul(w, W.reflection(a).index)
            if W._length[x] == W._length[w] + 1:
                edges.append(QbgEdge(w, x, a, BRUHAT, (0,) * rs.rank))
            elif W._length[x] == W._length[w] + 1 - rs.pairing(rs.coroot(a), two_rho_j):
                edges.append(QbgEdge(w, x, a, QUANTUM, rs.coroot(a)))
    return edges


@pytest.mark.parametrize(
    "cartan_type,rank", SMALL_TYPES + [("B", 3), ("C", 3), ("D", 4), ("F", 4)]
)
def test_subsystem_edges_match_a_length_reference(groups, cartan_type, rank):
    rs, W = groups(cartan_type, rank)
    for nodes in all_parabolics(rank):
        J = rs.parabolic(nodes)
        assert list(build_subsystem_qbg(W, J).edges) == subsystem_reference_edges(rs, W, J), nodes


def test_edge_lookup_matches_the_edge_list(groups):
    rs, W = groups("B", 3)
    quotient = build_qbg(W, rs.parabolic((2,)))
    full = build_qbg(W, rs.parabolic(()))
    z = W.from_word([3, 2]).index
    graphs = [quotient, quotient.step_graph(), induced_coset_subgraph(full, z, rs.parabolic((1, 2)))]
    labels = rs.positive_roots + tuple(tuple(-c for c in a) for a in rs.positive_roots)
    for g in graphs:
        assert g.edges
        by_key = {(e.source, e.label): e for e in g.edges}
        assert len(by_key) == len(g.edges)
        for source in range(len(W)):
            for label in labels:
                assert g.edge(source, label) is by_key.get((source, label)), (source, label)


def test_bruhat_edges_share_one_zero_weight(groups):
    rs, W = groups("A", 4)
    graphs = [build_qbg(W, rs.parabolic(())), build_qbg(W, rs.parabolic((2, 3))),
              build_subsystem_qbg(W, rs.parabolic((1, 2, 4)))]
    weights = {id(e.weight) for g in graphs for e in g.edges if e.kind == BRUHAT}
    assert len(weights) == 1
    assert graphs[0].edges[0].weight == (0,) * rs.rank


def test_edges_are_records_equal_and_hashed_field_by_field(a2_graph):
    g = a2_graph
    assert repr(QbgEdge(0, 3, (0, 1), QUANTUM, (0, 1))) == (
        "QbgEdge(source=0, target=3, label=(0, 1), kind='quantum', weight=(0, 1))"
    )
    for e in g.edges:
        twin = QbgEdge(e.source, e.target, e.label, e.kind, e.weight)
        assert twin is not e and twin == e and hash(twin) == hash(e)
        assert repr(twin) == repr(e)
        assert not hasattr(twin, "__dict__")
    assert len(set(g.edges)) == len(g.edges)
    e = g.edges[0]
    fields = (e.source, e.target, e.label, e.kind, e.weight)
    assert e != fields and fields != e
    for i, other in enumerate((e.source + 1, e.target + 1, (5, 5), "other", (7, 7))):
        changed = list(fields)
        changed[i] = other
        assert QbgEdge(*changed) != e
    # an equal edge finds the pushed slot kept for the original's slot
    moved = g.push_edge(1, e)
    twin = QbgEdge(*fields)
    assert g.edges[g._pushed(1)[g._edge_slot(twin)[1]]] is moved
    assert g.push_edge(1, twin) is moved


@pytest.mark.parametrize("cartan_type,rank,J", [("A", 3, ()), ("B", 3, (2,)), ("G", 2, (1,)),
                                                ("C", 3, (1, 3))])
def test_adjacency_is_the_same_for_edges_in_any_order(groups, cartan_type, rank, J):
    # build_qbg hands each vertex's edges over in label order; edges in
    # shuffled or reversed order are sorted into the same adjacency
    from qbgraph.render import graph_to_dot, graph_to_json, graph_to_text

    rs, W = groups(cartan_type, rank)
    g = build_qbg(W, rs.parabolic(J))
    for v in g.vertices:
        keys = [(e.label, e.kind) for e in g.out[v]]
        assert keys == sorted(keys) and len({e.label for e in g.out[v]}) == len(keys)
    shuffled = list(g.edges)
    random.Random(11).shuffle(shuffled)
    for edges in (shuffled, g.edges[::-1]):
        h = QbgGraph(W, g.J, g.vertices, edges)
        assert any(tuple(e for e in edges if e.source == v) != g.out[v] for v in g.vertices)
        assert h.out == g.out
        for export in (graph_to_json, graph_to_text, graph_to_dot):
            assert export(h) == export(g)


def test_adjacency_orders_one_label_by_kind(a2):
    rs, W = a2
    label = (1, 0)
    quantum = QbgEdge(0, 1, label, QUANTUM, (1, 0))
    bruhat = QbgEdge(0, 2, label, BRUHAT, (0, 0))
    g = QbgGraph(W, rs.parabolic(()), range(3), [quantum, bruhat])
    assert g.out == {0: (bruhat, quantum), 1: (), 2: ()}


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_edge_finds_what_a_scan_of_out_finds(groups, cartan_type, rank):
    # edge() bisects the source's type indices; a scan of the records is
    # the reference, labels with no edge (Phi_J and negative roots) included.
    # edge() runs first, and the records it returns must be the ones
    # ``out`` hands over later
    rs, W = groups(cartan_type, rank)
    labels = rs.positive_roots + tuple(tuple(-c for c in a) for a in rs.positive_roots)
    for J in all_parabolics(rank):
        g = build_qbg(W, rs.parabolic(J))
        got = {(v, label): g.edge(v, label) for v in g.vertices for label in labels}
        for (v, label), e in got.items():
            want = next((e for e in g.out[v] if e.label == label), None)
            assert e is want and g.edge(v, label) is want, (J, v, label)
        assert g.edge(-1, rs.theta) is None


def test_the_qbg_exports_make_no_edge_records():
    # build_qbg writes the columns and the three exports read them: no
    # QbgEdge is made
    from qbgraph.render import graph_to_dot, graph_to_json, graph_to_text

    def records():
        gc.collect()
        return sum(type(o) is QbgEdge for o in gc.get_objects())

    rs = build_root_system("A", 5)
    J = rs.parabolic(())
    before = records()
    g = build_qbg(WeightOrbit(rs, J), J)
    for export in (graph_to_json, graph_to_text, graph_to_dot):
        assert export(g)
    quantum = sum(kind == QUANTUM for _p, _q, _label, kind, _weight in g.edge_rows())
    assert len(g.edges) == 6_264 and quantum == 2_556
    assert records() == before
    assert g.edges[0] == g.out[0][0] and records() == before + len(g.out[0])


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_a_graph_rebuilt_from_its_edges_equals_build_qbg(groups, cartan_type, rank):
    # the constructor turns edge records into the same columns that
    # build_qbg writes
    from qbgraph.render import graph_to_dot, graph_to_json, graph_to_text

    rs, W = groups(cartan_type, rank)
    for J in all_parabolics(rank):
        g = build_qbg(W, rs.parabolic(J))
        h = QbgGraph(W, g.J, g.vertices, g.edges)
        assert h.out == g.out and dict(h.out) == dict(g.out), J
        assert h.edges == g.edges and list(h.edges) == list(g.edges), J
        assert len(h.edges) == len(g.edges) and h.edges[-1:] == g.edges[-1:], J
        assert [h.edges[k] for k in range(-len(g.edges), 0)] == list(g.edges), J
        for v in g.vertices:
            for label in rs.positive_roots:
                assert h.edge(v, label) == g.edge(v, label), (J, v, label)
        assert h._successors() == g._successors(), J
        for export in (graph_to_json, graph_to_text, graph_to_dot):
            assert export(h) == export(g), J


@pytest.mark.parametrize("cartan_type,rank,J", PATH_WEIGHT_CASES + [("A", 3, (2,))])
def test_shortest_paths_from_are_the_shortest_paths_of_iter_paths(groups, cartan_type, rank, J):
    # one walk per source yields, per end v, the paths of
    # iter_paths(u, v, d(u, v)) in their order, each with its weight
    rs, W = groups(cartan_type, rank)
    g = build_qbg(W, rs.parabolic(J))
    total = 0
    for u in g.vertices:
        by_end = {v: [] for v in g.vertices}
        for path, weight in g.shortest_paths_from(u):
            assert path.start == u and weight == path.weight(rank)
            by_end[path.end].append(path)
        for v, paths in by_end.items():
            assert paths == list(g.iter_paths(u, v, g.distance(u, v))), (u, v)
            total += len(paths)
    assert total >= len(g.vertices) ** 2
