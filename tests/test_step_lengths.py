"""Quantum length read from the graph's one row of step lengths, checked
against the step graph's own BFS distances, and the permutation form of
``WeylGroup.act`` checked against the matrix action of the matrix-keyed
reference in ``test_weyl_enumeration``."""

import random
import re
from array import array

import pytest

from qbgraph.qbg import GraphInvariantError, QbgGraph, build_qbg
from qbgraph.root_system import build_root_system, neg_vec
from qbgraph.tilted import left_multiplication_step, quantum_length
from qbgraph.verify import all_parabolics
from qbgraph.weyl import WeylGroup
from test_weyl_enumeration import apply, reference, word_matrix

ORACLE_TYPES = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]


def _group(cartan_type, rank):
    return WeylGroup(build_root_system(cartan_type, rank))


def _old_answer(graph, u):
    """The answer, or the exception, of quantum length as a step-graph
    distance toward e."""
    try:
        return graph.step_graph().distance(u, 0)
    except (ValueError, GraphInvariantError) as exc:
        return type(exc), str(exc)


def _new_answer(graph, u):
    try:
        return quantum_length(graph, u)
    except (ValueError, GraphInvariantError) as exc:
        return type(exc), str(exc)


def _check_all_vertices(W, J):
    g = build_qbg(W, J)
    steps = g.step_graph()
    for v in g.vertices:
        assert quantum_length(g, v) == steps.distance(v, 0), (J.nodes, W.describe(v))


@pytest.mark.parametrize("cartan_type,rank", ORACLE_TYPES)
def test_quantum_length_is_the_step_graph_distance(cartan_type, rank):
    W = _group(cartan_type, rank)
    for nodes in all_parabolics(rank, proper=True):
        _check_all_vertices(W, W.rs.parabolic(nodes))


def test_quantum_length_is_the_step_graph_distance_on_f4():
    W = _group("F", 4)
    _check_all_vertices(W, W.rs.parabolic((1,)))


def test_the_row_is_built_once_per_graph(monkeypatch):
    W = _group("A", 3)
    g = build_qbg(W, W.rs.parabolic((2,)))
    calls = []
    real = QbgGraph._left_steps

    def counting(self, j):
        calls.append(j)
        return real(self, j)

    monkeypatch.setattr(QbgGraph, "_left_steps", counting)
    answers = [quantum_length(g, v) for v in g.vertices]
    # each j's column is read once, on the first query, and no later query
    # reads one; a column holds the step of every vertex
    assert sorted(calls) == list(range(4))
    assert all(len(col) == len(g.vertices) for j in range(4) for col in g._step_columns[j])
    assert answers[0] == 0 and max(answers) > 0


def test_a_non_vertex_raises_as_before():
    W = _group("B", 3)
    J = W.rs.parabolic((1,))
    u = W.from_word([1]).index  # r_1 lies outside W^J
    old = _old_answer(build_qbg(W, J), u)
    assert old == (ValueError, f"{u} is not a vertex of this graph")
    assert _new_answer(build_qbg(W, J), u) == old


def _dropping(monkeypatch, dropped):
    """Patch the left-step kernel so that the steps (j, x) in dropped have
    no edge: their slots read -1."""
    real = QbgGraph._left_steps

    def patched(self, j):
        labels, slots, floors = real(self, j)
        slots = array("i", slots)
        for i, x in dropped:
            if i == j:
                slots[self.vertex_pos[x]] = -1
        return labels, slots, floors

    monkeypatch.setattr(QbgGraph, "_left_steps", patched)


def test_an_unreachable_vertex_raises_as_before(monkeypatch):
    W = _group("A", 3)
    J = W.rs.parabolic(())
    u = W.longest_element().index
    _dropping(monkeypatch, {(j, u) for j in range(4)})
    old = _old_answer(build_qbg(W, J), u)
    assert old == (GraphInvariantError, "graph is not strongly connected")
    assert _new_answer(build_qbg(W, J), u) == old
    # every other vertex still reaches e
    g = build_qbg(W, J)
    for v in g.vertices:
        if v != u:
            assert quantum_length(g, v) == g.step_graph().distance(v, 0)


def test_dropping_one_descending_step_changes_an_answer(monkeypatch):
    W = _group("C", 3)
    J = W.rs.parabolic((2,))
    g = build_qbg(W, J)
    before = {v: quantum_length(g, v) for v in g.vertices}
    # a vertex with exactly one step toward e, and that step
    found = None
    for v in g.vertices:
        down = [j for j in range(4)
                if (e := g.left_step(j, v)[1]) is not None and before[e.target] == before[v] - 1]
        if len(down) == 1:
            found = (down[0], v)
            break
    assert found is not None
    _dropping(monkeypatch, {found})
    sabotaged = build_qbg(W, J)
    after = {v: _new_answer(sabotaged, v) for v in sabotaged.vertices}
    assert after != before
    assert after[found[1]] != before[found[1]]


# -- the permutation form of act ---------------------------------------------------


def _signed(rs):
    return rs.positive_roots + tuple(map(neg_vec, rs.positive_roots))


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_act_is_the_matrix_action(cartan_type, rank):
    W = _group(cartan_type, rank)
    roots = _signed(W.rs)
    mats = reference(cartan_type, rank)[0]
    for w in range(len(W)):
        for beta in roots:
            assert W.act(w, beta) == apply(mats[w], beta), (W.describe(w), beta)


@pytest.mark.parametrize("cartan_type,rank,seed", [("F", 4, 5), ("E", 6, 6)])
def test_act_filled_in_random_order_is_the_matrix_action(cartan_type, rank, seed):
    W = _group(cartan_type, rank)
    roots = _signed(W.rs)
    rng = random.Random(seed)
    for w in rng.sample(range(len(W)), 200):
        got = [W.act(w, beta) for beta in roots]
        mat = word_matrix(W.rs, W._word[w])
        assert got == [apply(mat, beta) for beta in roots], W.describe(w)


def test_act_rejects_a_non_root():
    W = _group("A", 3)
    for v in [(2, 0, 0), (0, 0, 0), (1, 0, 1)]:
        with pytest.raises(ValueError, match="^" + re.escape(f"{v} is not a root")):
            W.act(1, v)


def test_a_left_multiplication_step_reads_the_step_label(monkeypatch):
    W = _group("B", 3)
    J = W.rs.parabolic((2,))
    g = build_qbg(W, J)
    for x in g.vertices:
        for j in range(4):
            g.left_step(j, x)
    real = W.act
    calls = []

    def counting(w, v):
        calls.append((w, v))
        return real(w, v)

    monkeypatch.setattr(W, "act", counting)
    for x in g.vertices:
        for j in range(4):
            left_multiplication_step(g, x, j)
            # x^{-1}(tilde alpha_j) comes from the kept step, not from act
            assert (W._inverse[x], W.rs.tilde_root(j)) not in calls
            calls.clear()
