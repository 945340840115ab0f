from operator import mul

import pytest

import qbgraph.tilted as tilted
from qbgraph.qbg import GraphInvariantError, QbgGraph, QbgPath, build_qbg
from qbgraph.root_system import build_root_system
from qbgraph.tilted import (
    TieError,
    TiltedOrder,
    compare_path_weights,
    expected_weight_shift,
    left_multiplication_step,
    left_step_edge,
    left_step_subgraph_strongly_connected,
    quantum_length,
    surgery_cases,
    surgery_signs,
    theta_coroot_images,
    transform_path,
)
from qbgraph.verify import all_parabolics
from qbgraph.weyl import Trichotomy, WeylGroup, build_weight_orbit
from test_step_lengths import _dropping
from test_weyl_enumeration import apply, reference


@pytest.fixture(scope="module")
def a2():
    rs = build_root_system("A", 2)
    return rs, WeylGroup(rs)


@pytest.fixture(scope="module")
def graph(a2):
    rs, W = a2
    return build_qbg(W, rs.parabolic(()))


def test_tilted_reflexive(graph):
    T = TiltedOrder(graph)
    for v in graph.vertices:
        for u in graph.vertices:
            assert T.leq(u, v, v)


def test_identity_base_is_bruhat_order(a2, graph):
    rs, W = a2
    T = TiltedOrder(graph)
    e = W.identity.index
    elements = [W.element(i) for i in range(len(W))]
    for v in elements:
        for w in elements:
            assert T.leq(e, v.index, w.index) == W.bruhat_leq(v, w)


def test_tilted_from_top(a2, graph):
    rs, W = a2
    T = TiltedOrder(graph)
    w0 = W.longest_element().index
    e = W.identity.index
    r1 = W.from_word([1]).index
    assert T.leq(w0, w0, e)
    assert graph.distance(w0, e) == 1
    assert graph.distance(w0, r1) == 2
    # a shortest route to r1 may pass the identity, but not conversely
    assert T.leq(w0, e, r1)
    assert not T.leq(w0, r1, e)


def test_coset_min_examples(a2, graph):
    rs, W = a2
    T = TiltedOrder(graph)
    J = rs.parabolic((1,))
    w0 = W.longest_element()
    m = T.coset_min(w0.index, W.identity, J)
    assert m == W.identity
    assert graph.distance(w0.index, m.index) == 1
    # from the identity the minimum is the coset floor
    elements = [W.element(i) for i in range(len(W))]
    for z in elements:
        assert T.coset_min(W.identity.index, z, J) == W.min_coset_rep(z, J)
    # the empty parabolic gives back the element itself
    J0 = rs.parabolic(())
    for u in graph.vertices:
        for z in elements:
            assert T.coset_min(u, z, J0) == z


def _sabotaged_cosets():
    """Per (u, coset) of A3 J = {1, 2} with its minimizer x0 and another member
    x: the order over a fresh graph, u's cached row, and both positions."""
    rs = build_root_system("A", 3)
    W = WeylGroup(rs)
    J = rs.parabolic((1, 2))
    T = TiltedOrder(build_qbg(W, rs.parabolic(())))
    pos = T.graph.vertex_pos
    for u in T.graph.vertices:
        for z in W.min_coset_ids(J):
            x0 = T.coset_min(u, W.element(z), J).index
            row = T.graph.distances_from(u)
            for x in W.coset_ids(z, J):
                if x != x0:
                    yield T, u, W.element(z), J, row, pos[x0], pos[x]


def test_coset_min_raises_tie_error_on_two_minimizers():
    tried = 0
    for T, u, z, J, row, p0, p in _sabotaged_cosets():
        kept = row[p]
        row[p] = row[p0]
        with pytest.raises(TieError, match="has 2 minimizers"):
            T.coset_min(u, z, J)
        row[p] = kept
        tried += 1
    assert tried == 24 * 4 * 5


def test_a_tie_names_the_coset_and_the_base():
    # z and u are named as the CLI names them: one-line forms in type A
    rs = build_root_system("A", 3)
    W = WeylGroup(rs)
    J = rs.parabolic((1, 2))
    T = TiltedOrder(build_qbg(W, rs.parabolic(())))
    u, z = W.from_word([1]).index, W.from_word([3])
    x0 = T.coset_min(u, z, J).index
    row, pos = T.graph.distances_from(u), T.graph.vertex_pos
    x = next(x for x in W.coset_ids(z.index, J) if x != x0)
    row[pos[x]] = row[pos[x0]]
    with pytest.raises(TieError, match=r"^coset 1243 W_J has 2 minimizers from 2134$"):
        T.coset_min(u, z, J)


def test_coset_min_raises_when_the_minimizer_is_not_below_a_member():
    tried = 0
    for T, u, z, J, row, p0, p in _sabotaged_cosets():
        if row[p0] == 0:
            continue  # x0 = u is below everything whatever u's row says
        row[p] += 1  # still farther than x0, but off every path through x0
        with pytest.raises(GraphInvariantError, match="not below a coset member"):
            T.coset_min(u, z, J)
        row[p] -= 1
        tried += 1
    assert tried == 24 * 3 * 5


def _partial_rows():
    """Per (u, coset) of A3 J = {1, 2} whose minimizer x0 is not u, over a
    fresh graph each: the order after one ``coset_min``, the rows it grew of
    u and x0 when both stopped short of the whole graph, and the positions
    of x0 and of each other member x."""
    rs = build_root_system("A", 3)
    W = WeylGroup(rs)
    J = rs.parabolic((1, 2))
    for u in W.min_coset_ids(rs.parabolic(())):
        for z in W.min_coset_ids(J):
            T = TiltedOrder(build_qbg(W, rs.parabolic(())))
            graph = T.graph
            x0 = T.coset_min(u, W.element(z), J).index
            if x0 == u or u not in graph._partial or x0 not in graph._partial:
                continue
            assert u not in graph._dist and x0 not in graph._dist
            row, below = graph._partial[u].dist, graph._partial[x0].dist
            pos = graph.vertex_pos
            for x in W.coset_ids(z, J):
                if x != x0:
                    yield T, u, W.element(z), J, row, below, pos[x0], pos[x]


def test_coset_min_checks_rows_grown_part_way():
    # the two checks of coset_min read rows that stopped once the coset was
    # settled: a tie in u's row, or a member off every path through x0 in
    # x0's row, raises as it does on complete rows
    ties = offs = 0
    for T, u, z, J, row, below, p0, p in _partial_rows():
        kept = row[p]
        row[p] = row[p0]
        with pytest.raises(TieError, match="has 2 minimizers"):
            T.coset_min(u, z, J)
        row[p] = kept
        ties += 1
        below[p] += 1
        with pytest.raises(GraphInvariantError, match="not below a coset member"):
            T.coset_min(u, z, J)
        below[p] -= 1
        offs += 1
        assert T.coset_min(u, z, J).index == T.graph.vertices[p0]
    assert ties == offs > 0


def test_left_steps_make_one_affine_weyl_per_graph(monkeypatch):
    # the theta steps' checks share their graph's AffineWeyl: over the
    # connectivity suite, one per case, each case building one graph
    from qbgraph.verify import run_suite

    made = []

    class Counted(tilted.AffineWeyl):
        def __init__(self, W):
            made.append(W)
            super().__init__(W)

    monkeypatch.setattr(tilted, "AffineWeyl", Counted)
    result = run_suite("connectivity")
    assert result.passed and len(made) == len(result.cases) > 0


def test_quantum_length_values(a2, graph):
    rs, W = a2
    assert quantum_length(graph, W.identity.index) == 0
    assert quantum_length(graph, W.longest_element().index) == 1
    # simple reflections need the long way around: up, across the top, down
    assert quantum_length(graph, W.from_word([1]).index) == 3
    assert quantum_length(graph, W.from_word([2]).index) == 3


def test_quantum_length_rank_one():
    rs = build_root_system("A", 1)
    W = WeylGroup(rs)
    g = build_qbg(W, rs.parabolic(()))
    assert quantum_length(g, W.from_word([1]).index) == 1


def test_left_multiplication_step_cases(a2):
    rs, W = a2
    J = rs.parabolic((1,))
    g = build_qbg(W, J)
    up = left_multiplication_step(g, W.identity.index, 2)
    assert up.classification is Trichotomy.UP
    assert up.edge.kind == "bruhat"
    assert up.edge.source == W.identity.index
    assert up.edge.target == W.from_word([2]).index

    fixed = left_multiplication_step(g, W.identity.index, 1)
    assert fixed.classification is Trichotomy.FIXED
    assert fixed.edge is None and fixed.twist is None

    # the theta step out of the top of the cycle is the quantum edge
    w = W.from_word([1, 2])
    out = left_multiplication_step(g, w.index, 0)
    assert out.classification is Trichotomy.UP
    assert out.edge.kind == "quantum"
    assert out.edge.label == (0, 1)
    assert out.edge.target == W.identity.index

    # the theta step at the identity comes in with a twist
    down = left_multiplication_step(g, W.identity.index, 0)
    assert down.classification is Trichotomy.DOWN
    assert down.edge.target == W.identity.index
    assert down.twist == W.from_word([1]).index
    assert down.edge.label == (0, 1)


def test_left_steps_are_edges(a2, graph):
    rs, W = a2
    assert left_step_subgraph_strongly_connected(graph)
    for v in graph.vertices:
        for i in range(0, rs.rank + 1):
            edge = left_step_edge(graph, i, v)
            if edge is not None:
                assert graph.edge(edge.source, edge.label) == edge


@pytest.mark.parametrize("cartan_type,rank", [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                                               ("C", 2), ("C", 3), ("D", 4), ("F", 4), ("G", 2)])
def test_the_left_steps_connect_every_proper_parabolic(cartan_type, rank):
    rs = build_root_system(cartan_type, rank)
    W = WeylGroup(rs)
    for nodes in all_parabolics(rank, proper=True):
        assert left_step_subgraph_strongly_connected(build_qbg(W, rs.parabolic(nodes))), nodes


def test_the_left_steps_do_not_connect_without_the_steps_out_of_w0(monkeypatch):
    rs = build_root_system("A", 3)
    W = WeylGroup(rs)
    J = rs.parabolic(())
    assert left_step_subgraph_strongly_connected(build_qbg(W, J))
    w0 = W.longest_element().index
    _dropping(monkeypatch, {(j, w0) for j in range(rs.rank + 1)})
    g = build_qbg(W, J)
    assert not left_step_subgraph_strongly_connected(g)
    assert not g.step_graph().out[w0]


@pytest.mark.parametrize("query", [
    lambda g: g.left_step(1, 0),
    lambda g: quantum_length(g, 0),
    left_step_subgraph_strongly_connected,
], ids=["left_step", "quantum_length", "left_step_subgraph_strongly_connected"])
def test_the_left_action_on_an_orbit_graph_asks_for_the_group(query):
    orbit = build_weight_orbit("A", 3, (1,))
    g = build_qbg(orbit, orbit.rs.parabolic((1,)))
    with pytest.raises(TypeError, match="enumerated WeylGroup"):
        query(g)
    assert not g._step_columns


def test_transform_case1_worked_example(a2):
    rs, W = a2
    J = rs.parabolic((1,))
    g = build_qbg(W, J)
    e1 = g.edge(W.identity.index, (0, 1))
    e2 = g.edge(e1.target, (1, 1))
    p = QbgPath(W.identity.index, (e1, e2))
    p2 = transform_path(g, p, 1, 1)
    assert len(p2) == 1
    assert p2.start == W.identity.index
    assert p2.end == W.from_word([2]).index
    assert p2.weight(2) == (0, 0)  # no correction away from the theta step


def test_transform_case4_empty_path(a2):
    rs, W = a2
    J = rs.parabolic((1,))
    g = build_qbg(W, J)
    p = QbgPath(W.identity.index, ())
    p2 = transform_path(g, p, 2, 4)  # pairing of alpha_2 against lambda is 1 > 0
    assert len(p2) == 0
    assert p2.start == W.from_word([2]).index


def test_transform_rejects_bad_cases(a2):
    rs, W = a2
    J = rs.parabolic((1,))
    g = build_qbg(W, J)
    p = QbgPath(W.identity.index, ())
    with pytest.raises(ValueError):
        transform_path(g, p, 2, 1)
    with pytest.raises(ValueError):
        transform_path(g, p, 2, 7)


def test_theta_corrections_only_for_theta_steps(a2, graph):
    rs, W = a2
    g2 = build_qbg(W, rs.parabolic((1,)))
    for j in (1, 2):
        for case in (1, 2, 3, 4):
            for u in g2.vertices:
                for v in g2.vertices:
                    d = g2.distance(u, v)
                    for p in g2.iter_paths(u, v, d):
                        if len(p) != d:
                            continue
                        assert expected_weight_shift(g2, p, j, case) == (0, 0)


def test_transform_preserves_shortest(a2, graph):
    rs, W = a2
    g = graph
    rank = rs.rank
    for u in g.vertices:
        for v in g.vertices:
            d = g.distance(u, v)
            for p in g.iter_paths(u, v, d):
                if len(p) != d:
                    continue
                for j in range(0, rank + 1):
                    for case in (1, 2, 3, 4):
                        try:
                            p2 = transform_path(g, p, j, case)
                        except ValueError:
                            continue
                        assert len(p2) == g.distance(p2.start, p2.end)
                        shift = expected_weight_shift(g, p, j, case)
                        want = tuple(
                            a + b for a, b in zip(p.weight(rank), shift)
                        )
                        assert g.J.weight_class(p2.weight(rank)) == g.J.weight_class(want)


def test_compare_path_weights(a2):
    rs, W = a2
    J = rs.parabolic((1,))
    g = build_qbg(W, J)
    e = W.identity.index
    empty = QbgPath(e, ())
    assert compare_path_weights(g, empty, empty) == (0, 0)
    # the full cycle back to the identity carries the quantum coroot
    e1 = g.edge(e, (0, 1))
    e2 = g.edge(e1.target, (1, 1))
    e3 = g.edge(e2.target, (0, 1))
    cycle = QbgPath(e, (e1, e2, e3))
    assert compare_path_weights(g, empty, cycle) == (0, 1)
    with pytest.raises(ValueError):
        compare_path_weights(g, cycle, empty)


def test_two_shortest_paths_same_weight():
    rs = build_root_system("A", 3)
    W = WeylGroup(rs)
    g = build_qbg(W, rs.parabolic(()))
    u = W.identity.index
    v = W.from_word([1, 2]).index  # one-line 2314
    assert W.describe(v) == "2314"
    d = g.distance(u, v)
    paths = [p for p in g.iter_paths(u, v, d) if len(p) == d]
    assert len(paths) == 2
    assert {p.weight(3) for p in paths} == {(0, 0, 0)}
    base = g.shortest_path(u, v)
    for p in paths:
        assert compare_path_weights(g, base, p) == (0, 0, 0)


def _all_surgeries(g):
    """transform_path on every shortest path, every j and every case."""
    for u in g.vertices:
        for v in g.vertices:
            d = g.distance(u, v)
            for p in g.iter_paths(u, v, d):
                if len(p) != d:
                    continue
                for j in range(0, g.rs.rank + 1):
                    for case in (1, 2, 3, 4):
                        try:
                            transform_path(g, p, j, case)
                        except ValueError:
                            pass


def tilde_coroot(rs, j):
    """The coroot of tilde alpha_j, the finite part of the affine simple
    root alpha_j."""
    return rs.coroot(rs.tilde_root(j))


def reference_pair(cartan_type, rank, lam):
    """<c, x(lam)> = <x^{-1}(c), lam> for a coroot c and a vertex id x, with
    x^{-1}(c) through the matrix-keyed reference's comatrix of x^{-1}."""
    _, comats, *_, inverse, _ = reference(cartan_type, rank)

    def pair(cor, x):
        return sum(map(mul, apply(comats[inverse[x]], cor), lam))

    return pair


def reference_cases(pair, cor, path):
    """The cases whose sign hypotheses hold, from the pairings of every
    vertex along the path; shares no code with ``surgery_cases``."""
    signs = [pair(cor, x) for x in [path.start] + [e.target for e in path.edges]]
    first, last = signs[0], signs[-1]
    return tuple(case for case, holds in (
        (1, last < 0 and any(s >= 0 for s in signs)),
        (2, first < 0 and last < 0),
        (3, first > 0 and any(s <= 0 for s in signs)),
        (4, first > 0 and last > 0),
    ) if holds)


@pytest.mark.parametrize("cartan,J_nodes", [(("A", 3), (1,)), (("B", 2), ()), (("G", 2), ())])
def test_surgery_cases_are_the_cases_transform_path_accepts(cartan, J_nodes):
    rs = build_root_system(*cartan)
    W = WeylGroup(rs)
    g = build_qbg(W, rs.parabolic(J_nodes))
    pair = reference_pair(*cartan, tuple(0 if i + 1 in J_nodes else 1 for i in range(rs.rank)))
    seen = {case: 0 for case in (1, 2, 3, 4)}
    for u in g.vertices:
        for v in g.vertices:
            d = g.distance(u, v)
            for p in g.iter_paths(u, v, d):
                if len(p) != d:
                    continue
                for j in range(0, rs.rank + 1):
                    accepted = []
                    for case in (1, 2, 3, 4):
                        try:
                            transform_path(g, p, j, case)
                        except ValueError:
                            continue
                        accepted.append(case)
                    got = surgery_cases(g, p, j)
                    assert got == tuple(accepted), (p, j)
                    assert got == reference_cases(pair, tilde_coroot(rs, j), p), (p, j)
                    for case in got:
                        seen[case] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("cartan,J_nodes", [(("A", 3), (1,)), (("B", 2), ())])
def test_surgery_signs_are_the_pairings(cartan, J_nodes):
    rs = build_root_system(*cartan)
    W = WeylGroup(rs)
    g = build_qbg(W, rs.parabolic(J_nodes))
    lam = tuple(0 if i + 1 in J_nodes else 1 for i in range(rs.rank))
    pair = reference_pair(*cartan, lam)
    for j in range(0, rs.rank + 1):
        table = surgery_signs(g, j)
        assert set(table) == set(g.vertices)
        for x, sign in table.items():
            assert sign == pair(tilde_coroot(rs, j), x)


def test_surgery_signs_and_theta_images_match_the_reference_matrices():
    """On every proper parabolic of A3, B3, C3, G2, D4 and F4, each sign is
    <tilde alpha_j^vee, x(lambda_J)> and each theta image x^{-1}(tilde
    alpha_0^vee), with x(lambda_J) and x^{-1} from the matrix-keyed
    reference's comatrices: 37,638 (graph, j, x) in all."""
    checked = 0
    for cartan_type, rank in [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4), ("F", 4)]:
        rs = build_root_system(cartan_type, rank)
        W = WeylGroup(rs)
        _, comats, *_, inverse, _ = reference(cartan_type, rank)
        tilde = [tilde_coroot(rs, j) for j in range(rank + 1)]
        for nodes in all_parabolics(rank, proper=True):
            g = build_qbg(W, rs.parabolic(nodes))
            lam = tuple(0 if i + 1 in nodes else 1 for i in range(rank))
            tables = [surgery_signs(g, j) for j in range(rank + 1)]
            images = theta_coroot_images(g)
            assert all(set(t) == set(g.vertices) for t in tables + [images])
            for x in g.vertices:
                comat = comats[inverse[x]]
                # x(lambda_J) over the fundamental weights: entry i is
                # <x^{-1}(alpha_i^vee), lambda_J>
                weight = tuple(sum(map(mul, row, lam)) for row in comat)
                for j, table in enumerate(tables):
                    assert table[x] == sum(map(mul, tilde[j], weight)), (nodes, j, x)
                assert images[x] == apply(comat, tilde[0]), (nodes, x)
                checked += rank + 2
    assert checked == 37638


def test_surgery_tables_belong_to_their_graph():
    rs = build_root_system("A", 3)
    W = WeylGroup(rs)
    g0 = build_qbg(W, rs.parabolic(()))
    g1 = build_qbg(W, rs.parabolic((1,)))
    _all_surgeries(g1)
    _all_surgeries(g0)
    for g, lam in ((g0, (1, 1, 1)), (g1, (0, 1, 1))):
        pair = reference_pair("A", 3, lam)
        for j in range(0, rs.rank + 1):
            table = surgery_signs(g, j)
            assert set(table) == set(g.vertices)
            assert all(s == pair(tilde_coroot(rs, j), x) for x, s in table.items())
        pushed = [(j, g.edges[k], g.edges[k2]) for j, table in g._pushed_slots.items()
                  for k, k2 in enumerate(table) if k2 >= 0]
        assert pushed
        for j, edge, moved in pushed:
            assert g.edge(edge.source, edge.label) is edge
            assert g.edge(moved.source, moved.label) is moved
            assert moved.source == g.left_step(j, edge.source)[0]
            assert moved.target == g.left_step(j, edge.target)[0]


def test_a_failed_push_is_not_kept():
    rs = build_root_system("A", 2)
    W = WeylGroup(rs)
    J = rs.parabolic(())
    g = build_qbg(W, J)
    edge = g.edges[0]
    moved = g.push_edge(1, edge)
    broken = QbgGraph(W, J, g.vertices, [e for e in g.edges if e != moved])
    for _ in range(2):
        with pytest.raises(GraphInvariantError, match="pushed edge is missing"):
            broken.push_edge(1, edge)
    assert set(broken._pushed(1)) == {-1}


def test_surgery_pairs_each_vertex_once_per_j(monkeypatch):
    """At most |V| (rank + 1) step labels read over every surgery of A3
    J={1}: the sign table reads the label x^{-1}(tilde alpha_j) once per
    (x, j)."""
    calls = 0
    real = QbgGraph.step_label

    def counting(self, j, x):
        nonlocal calls
        calls += 1
        return real(self, j, x)

    monkeypatch.setattr(QbgGraph, "step_label", counting)
    rs = build_root_system("A", 3)
    g = build_qbg(WeylGroup(rs), rs.parabolic((1,)))
    _all_surgeries(g)
    assert 0 < calls <= len(g.vertices) * (rs.rank + 1)


def test_transform_path_checks_its_case_once(monkeypatch):
    """One ``surgeries`` call per ``transform_path`` call, also when case
    2 falls back on case 1 or case 4 on case 3."""
    rs = build_root_system("A", 3)
    g = build_qbg(WeylGroup(rs), rs.parabolic((1,)))
    calls = 0
    real = tilted.surgeries

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(tilted, "surgeries", counting)
    made = 0
    fallbacks = {2: 0, 4: 0}
    for u in g.vertices:
        for p, _weight in g.shortest_paths_from(u):
            for j in range(0, rs.rank + 1):
                signs = [surgery_signs(g, j)[x] for x in [p.start] + [e.target for e in p.edges]]
                # the cases that fall back: one sign of the other kind
                falls = {2: not all(s < 0 for s in signs), 4: not all(s > 0 for s in signs)}
                for case in (1, 2, 3, 4):
                    try:
                        transform_path(g, p, j, case)
                    except ValueError:
                        accepted = False
                    else:
                        accepted = True
                    made += 1
                    assert calls == made
                    if accepted and falls.get(case):
                        fallbacks[case] += 1
    assert all(fallbacks.values()), fallbacks
