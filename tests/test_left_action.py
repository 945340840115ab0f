"""The left action of s_0, ..., s_r on W^J kept on ``QbgGraph``: steps,
pushed edges, and the consumers that read them (diamonds, quantum length)."""

from collections import deque

import pytest

from qbgraph.affine import (
    DIAMOND_CASES,
    affine_simple_root,
    complete_bottom,
    complete_top,
    iter_bottom_configurations,
    iter_top_configurations,
)
from qbgraph.level_zero import LevelZeroPoset, LevelZeroWeight
from qbgraph.qbg import BRUHAT, QUANTUM, build_qbg
from qbgraph.root_system import build_root_system, neg_vec
from qbgraph.tilted import quantum_length, transform_path
from qbgraph.verify import all_parabolics
from qbgraph.weyl import WeylGroup


def _graphs(cartan):
    rs = build_root_system(*cartan)
    W = WeylGroup(rs)
    for J_nodes in all_parabolics(rs.rank):
        yield rs, W, build_qbg(W, rs.parabolic(J_nodes))


def test_tilde_roots():
    rs = build_root_system("B", 3)
    assert rs.tilde_root(0) == neg_vec(rs.theta)
    assert [rs.tilde_root(j) for j in range(1, 4)] == list(rs.simple_roots())


@pytest.mark.parametrize("j", [-1, -4, 4, 7])
def test_affine_node_indices_out_of_range_raise(j):
    rs = build_root_system("A", 3)
    W = WeylGroup(rs)
    g = build_qbg(W, rs.parabolic((2,)))
    P = LevelZeroPoset(W, (1, 0, 2))
    x = g.vertices[3]
    match = f"{j} out of range"
    with pytest.raises(ValueError, match=match):
        rs.tilde_root(j)
    perms = len(W._perms)
    with pytest.raises(ValueError, match=match):
        g.left_step(j, x)
    # raised before any table is read or filled
    assert not g._step_columns and len(W._perms) == perms
    with pytest.raises(ValueError, match=match):
        affine_simple_root(rs, j)
    with pytest.raises(ValueError, match=match):
        transform_path(g, g.shortest_path(x, g.vertices[0]), j, 2)
    with pytest.raises(ValueError, match=match):
        P.affine_simple_pairing(j, LevelZeroWeight(x, 0))
    # the valid indices 0..rank still work
    assert [P.affine_simple_pairing(i, LevelZeroWeight(0, 0)) for i in range(4)] == [-3, 1, 0, 2]


@pytest.mark.parametrize("cartan", [("A", 3), ("B", 3), ("G", 2)], ids=["A3", "B3", "G2"])
def test_left_step_is_the_floored_reflection(cartan):
    for rs, W, g in _graphs(cartan):
        J = g.J
        for x in g.vertices:
            for j in range(rs.rank + 1):
                tilde = rs.tilde_root(j)
                target, edge = g.left_step(j, x)
                assert g.left_step(j, target)[0] == x
                assert target == W.coset_floor(W.mul(W.reflection(tilde).index, x), J)
                img = W.act(W._inverse[x], tilde)
                usable = rs.is_positive_root(img) and img not in J.phi_plus
                assert (edge is not None) == usable
                if edge is not None:
                    assert (edge.source, edge.target, edge.label) == (x, target, img)
                    assert edge.kind == (QUANTUM if j == 0 else BRUHAT)
                elif not J.supports(img):
                    # s_j descends into x along the step out of floor(s_j x)
                    down = g.left_step(j, target)[1]
                    label = neg_vec(img)
                    if j == 0:
                        label = W.act(W.theta_twist(x, J), label)
                    assert (down.target, down.label) == (x, label)


@pytest.mark.parametrize("cartan", [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2)],
                         ids=["A2", "A3", "B2", "C2", "G2"])
def test_diamond_slots_are_steps_and_pushed_edges(cartan):
    completed = 0
    for rs, W, g in _graphs(cartan):
        for case in DIAMOND_CASES:
            for configurations, complete in (
                (iter_bottom_configurations, complete_bottom),
                (iter_top_configurations, complete_top),
            ):
                for w, gamma, alpha in configurations(g, case):
                    d = complete(g, case, w, gamma, alpha)
                    j = 0 if alpha is None else alpha.index(1) + 1
                    b = d.bottom_left.source
                    assert d.bottom_right.source == b
                    assert d.bottom_left == g.left_step(j, b)[1]
                    assert d.top_left == g.push_edge(j, d.bottom_right)
                    assert d.top_right == g.left_step(j, d.bottom_right.target)[1]
                    completed += 1
    assert completed > 0


def _plain_quantum_length(rs, W, J, u):
    """Breadth-first search over floor(r_beta x) for beta = alpha_j or theta
    whenever x^{-1} beta, resp. -x^{-1} theta, is positive off Phi_J."""
    steps = [(rs.theta, -1)] + [(a, 1) for a in rs.simple_roots()]
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == W.identity.index:
            return dist[x]
        for beta, sign in steps:
            img = W.act(W._inverse[x], beta)
            if sign < 0:
                img = neg_vec(img)
            if not rs.is_positive_root(img) or img in J.phi_plus:
                continue
            y = W.coset_floor(W.mul(W.reflection(beta).index, x), J)
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    raise AssertionError("identity unreachable")


@pytest.mark.parametrize("cartan,J_nodes", [(("A", 3), (1,)), (("B", 2), ()), (("G", 2), ())],
                         ids=["A3-J1", "B2", "G2"])
def test_quantum_length_matches_a_plain_search(cartan, J_nodes):
    rs = build_root_system(*cartan)
    W = WeylGroup(rs)
    J = rs.parabolic(J_nodes)
    g = build_qbg(W, J)
    lengths = [quantum_length(g, u) for u in g.vertices]
    assert lengths == [_plain_quantum_length(rs, W, J, u) for u in g.vertices]
    assert max(lengths) > 1
