import sys

import pytest

from qbgraph.qbg import (
    BRUHAT,
    QUANTUM,
    GraphInvariantError,
    QbgEdge,
    QbgGraph,
    QbgPath,
    ReflectionOrdering,
    build_qbg,
    build_subsystem_qbg,
    dual_involution,
    edge_between,
    increasing_path,
    induced_coset_subgraph,
    lambda_ordering,
    lexicographically_minimal_shortest,
    reflection_ordering_from_word,
)
from qbgraph.root_system import build_root_system, is_positive_vec
from qbgraph.verify import SMALL_TYPES, all_parabolics
from qbgraph.weyl import WeylGroup


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
    rs, W = a2
    J1 = rs.parabolic((1,))
    e = edge_between(W, J1, W.identity, (0, 1))
    assert e.kind == BRUHAT and e.target == W.simple_reflection(2).index
    e = edge_between(W, J1, W.simple_reflection(2), (1, 1))
    assert e.kind == BRUHAT and e.target == W.from_word([1, 2]).index
    e = edge_between(W, J1, W.from_word([1, 2]), (0, 1))
    assert e.kind == QUANTUM and e.target == W.identity.index
    # labels inside Phi_J are rejected
    with pytest.raises(ValueError):
        edge_between(W, J1, W.identity, (1, 0))


def test_edge_between_full_graph(a2, a2_graph):
    rs, W = a2
    J0 = rs.parabolic(())
    e = edge_between(W, J0, W.from_word([1, 2]), (1, 0))
    assert e.kind == BRUHAT and e.target == W.longest_element().index
    e = edge_between(W, J0, W.longest_element(), rs.theta)
    assert e.kind == QUANTUM and e.target == W.identity.index
    assert edge_between(W, J0, W.longest_element(), (1, 0)).kind == QUANTUM


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
        (W.describe(W.element(e.source)), W.describe(W.element(e.target)), e.label)
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
    assert g1.distance(W.from_word([1, 2]).index, W.simple_reflection(2).index) == 2
    p = g1.shortest_path(W.from_word([1, 2]).index, W.simple_reflection(2).index)
    assert len(p) == 2 and p.start == W.from_word([1, 2]).index


def bfs_diameter(g):
    """Reference diameter: the largest BFS eccentricity over all vertices."""
    return max(max(g.distances_from(u).values()) for u in g.vertices)


@pytest.mark.parametrize(
    "cartan_type,rank,parabolics",
    [(t, r, None) for t, r in SMALL_TYPES] + [("A", 5, [(1,)]), ("F", 4, [()])],
)
def test_diameter_matches_bfs_eccentricities(cartan_type, rank, parabolics):
    rs = build_root_system(cartan_type, rank)
    W = WeylGroup(rs)
    for J in parabolics or all_parabolics(rank):
        g = build_qbg(W, rs.parabolic(J))
        assert g.diameter() == bfs_diameter(g), J


def test_diameter_rejects_graphs_that_are_not_strongly_connected(a2, a2_graph):
    rs, W = a2
    cycle = build_qbg(W, rs.parabolic((1,)))  # a directed 3-cycle
    cut = QbgGraph(W, cycle.J, cycle.vertices, cycle.edges[1:])
    with pytest.raises(GraphInvariantError, match="not strongly connected"):
        cut.diameter()
    # drop each edge of QB(A2) in turn: the diameter and the BFS reference
    # agree, or both find the graph not strongly connected
    g = a2_graph
    for k in range(len(g.edges)):
        h = QbgGraph(W, g.J, g.vertices, g.edges[:k] + g.edges[k + 1:])
        try:
            expect = bfs_diameter(h)
        except GraphInvariantError:
            with pytest.raises(GraphInvariantError):
                h.diameter()
        else:
            assert h.diameter() == expect


@pytest.mark.parametrize(
    "cartan_type,rank",
    [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("B", 5), ("D", 5), ("E", 6)],
)
def test_diameter_is_the_number_of_roots_outside_phi_j(groups, cartan_type, rank):
    # an observed identity, diam QB(W^J) = |Phi+ minus Phi_J+|; the lift
    # depth does not rely on it
    rs, W = groups(cartan_type, rank)
    if rank <= 4:
        parabolics = list(all_parabolics(rank))
    else:  # two small quotients: J is every node but node 1, or node 2
        parabolics = [tuple(j for j in range(1, rank + 1) if j != k) for k in (1, 2)]
    for J in parabolics:
        par = rs.parabolic(J)
        g = build_qbg(W, par)
        assert g.diameter() == len(rs.positive_roots) - len(par.phi_plus), J


def test_dual_involution(a2):
    rs, W = a2
    for nodes in [(), (1,), (2,)]:
        J = rs.parabolic(nodes)
        g = build_qbg(W, J)
        top = W.min_coset_rep(W.longest_element(), J)
        assert dual_involution(g, W.identity) == top
        for v in g.vertices:
            el = W.element(v)
            assert dual_involution(g, dual_involution(g, el)) == el


def test_dual_involution_a3():
    rs = build_root_system("A", 3)
    W = WeylGroup(rs)
    g = build_qbg(W, rs.parabolic((1, 3)))
    e_dual = dual_involution(g, W.identity)
    assert e_dual.length == 4
    assert W.describe(e_dual) == "3412"


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


def test_subsystem_graph_matches_coset_subgraph(a2, a2_graph):
    rs, W = a2
    J = rs.parabolic((1,))
    ref = build_subsystem_qbg(W, J)
    sub = induced_coset_subgraph(a2_graph, W.identity, J)
    assert {(e.source, e.target, e.label, e.kind) for e in ref.edges} == {
        (e.source, e.target, e.label, e.kind) for e in sub.edges
    }


def test_path_weight(a2_graph, a2):
    rs, W = a2
    g = a2_graph
    w0 = W.longest_element()
    p = g.shortest_path(w0.index, W.identity.index)
    assert p.weight(2) == rs.coroot(rs.theta)
    assert g.empty_path(0).weight(2) == (0, 0)


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
        sub = induced_coset_subgraph(g, z, J)
        mapped = {
            (
                (z0 * W.element(e.source)).index,
                (z0 * W.element(e.target)).index,
                e.label,
                e.kind,
            )
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
            w for w in W.elements()
            if all(is_positive_vec(w.act(simples[j - 1])) for j in nodes)
        ]
        assert list(W.min_coset_reps(J)) == expect, nodes
        assert all(W.in_min_coset_reps(w, J) for w in expect)


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
