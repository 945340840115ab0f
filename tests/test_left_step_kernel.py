"""The left-step kernel ``QbgGraph._left_steps`` against the per-(j, x) rule
it replaced, its checks and errors, and ``shortest_path``'s path-only
records against a BFS-parent reference over ``out``."""

import re
from collections import deque

import pytest

from qbgraph.qbg import GraphInvariantError, QbgEdge, QbgGraph, build_qbg
from qbgraph.root_system import build_root_system, is_positive_vec
from qbgraph.tilted import quantum_length
from qbgraph.verify import all_parabolics
from qbgraph.weyl import WeylGroup

KERNEL_TYPES = [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]
PATH_TYPES = [("A", 3), ("B", 3), ("C", 3), ("G", 2)]


def _group(cartan_type, rank):
    return WeylGroup(build_root_system(cartan_type, rank))


def _fields(edge):
    return type(edge), edge.source, edge.target, edge.label, edge.kind, edge.weight


def _reference_step(g, j, x):
    """(floor(s_j x), the step edge or None, the label) as the step was
    formed per (j, x): the label a root tuple from ``W.act``, its usability
    by sign and by Phi_J, and the edge by a scan of ``out``."""
    W, J = g.W, g.J
    tilde = g.rs.tilde_root(j)
    xinv = W._inverse[x]
    moved = W._inverse[W._right[j - 1][xinv]] if j else W.left_reflect(x, tilde)
    target = W.coset_floor(moved, J)
    label = W.act(xinv, tilde)
    edge = None
    if is_positive_vec(label) and label not in J.phi_plus:
        (edge,) = [e for e in g.out[x] if e.label == label]
        assert edge.target == target
    return target, edge, label


@pytest.mark.parametrize("cartan_type,rank", KERNEL_TYPES)
def test_the_kernel_is_the_per_step_rule(cartan_type, rank):
    W = _group(cartan_type, rank)
    checked = 0
    for nodes in all_parabolics(rank):
        J = W.rs.parabolic(nodes)
        g, ref = build_qbg(W, J), build_qbg(W, J)
        steps = set()
        for x in g.vertices:
            for j in range(rank + 1):
                target, edge, label = _reference_step(ref, j, x)
                got_target, got_edge = g.left_step(j, x)
                assert got_target == target, (nodes, j, W.describe(x))
                assert g.step_label(j, x) == label
                if edge is None:
                    assert got_edge is None
                else:
                    assert _fields(got_edge) == _fields(edge)
                    steps.add(_fields(edge))
                checked += 1
        assert set(map(_fields, g.step_graph().edges)) == steps
    assert checked == sum(len(W) // W.rs.parabolic(n).subgroup_order() * (rank + 1)
                          for n in all_parabolics(rank))


def _without(g, edge):
    return QbgGraph(g.W, g.J, g.vertices, [e for e in g.edges if e != edge])


@pytest.mark.parametrize("cartan_type,rank,nodes", [("A", 3, (2,)), ("C", 3, ()), ("G", 2, (1,))])
def test_a_dropped_or_moved_step_edge_is_not_a_graph_edge(cartan_type, rank, nodes):
    W = _group(cartan_type, rank)
    J = W.rs.parabolic(nodes)
    g = build_qbg(W, J)
    raised = 0
    for j in range(rank + 1):
        x, edge = next((x, e) for x in g.vertices if (e := g.left_step(j, x)[1]) is not None)
        message = rf"^left step by {j} at W\[{re.escape(W.describe(x))}\] is not a graph edge$"
        dropped = _without(g, edge)
        with pytest.raises(GraphInvariantError, match=message):
            dropped.left_step(j, x)
        with pytest.raises(GraphInvariantError, match=message):
            quantum_length(_without(g, edge), x)
        assert j not in dropped._step_columns
        # the same label to another target fails the target check
        other = next(v for v in g.vertices if v not in (edge.target, x))
        moved = QbgEdge(x, other, edge.label, edge.kind, edge.weight)
        bent = QbgGraph(W, J, g.vertices, [moved if e == edge else e for e in g.edges])
        with pytest.raises(GraphInvariantError, match=message):
            bent.left_step(j, x)
        raised += 3
    assert raised == 3 * (rank + 1)


@pytest.mark.parametrize("j", [-1, 3, 9])
def test_an_affine_node_out_of_range_raises_before_any_table(j):
    W = _group("A", 2)
    g = build_qbg(W, W.rs.parabolic(()))
    perms = len(W._perms)
    edge = g.edges[0]
    for call in (lambda: g.left_step(j, 0), lambda: g.step_label(j, 0),
                 lambda: g.push_edge(j, edge)):
        with pytest.raises(ValueError, match=f"^affine node index {j} out of range$"):
            call()
    assert not g._step_columns and not g._pushed_slots and len(W._perms) == perms


def test_a_non_vertex_raises_value_error():
    W = _group("B", 3)
    g = build_qbg(W, W.rs.parabolic((1,)))
    x = W.from_word([1]).index  # r_1 lies outside W^J
    for call in (g.left_step, g.step_label):
        for j in (0, 2):
            with pytest.raises(ValueError, match=f"^{x} is not a vertex of this graph$"):
                call(j, x)


def test_steps_make_records_alone_and_edge_reads_out():
    W = _group("A", 3)
    g = build_qbg(W, W.rs.parabolic(()))
    w0 = W.longest()
    path = g.shortest_path(0, w0)
    steps = [g.left_step(j, x)[1] for x in g.vertices for j in range(4)]
    # no vertex's whole row of records was made for them
    assert not g.out._made and len(path) == 6 and any(steps)
    for e in (*path.edges, *filter(None, steps), g.push_edge(1, path.edges[0])):
        found = g.edge(e.source, e.label)
        assert found == e and found is g.out[e.source][g.out[e.source].index(e)]


def _reference_paths(g, u):
    """Per reached vertex, the parent edge of the BFS out of u over ``out``:
    each vertex is reached by the first edge, in ``out`` order, of the first
    vertex in BFS order with an edge to it."""
    parent = {u: None}
    queue = deque([u])
    while queue:
        v = queue.popleft()
        for e in g.out[v]:
            if e.target not in parent:
                parent[e.target] = e
                queue.append(e.target)
    return parent


@pytest.mark.parametrize("cartan_type,rank", PATH_TYPES)
def test_shortest_paths_are_the_bfs_parent_paths(cartan_type, rank):
    W = _group(cartan_type, rank)
    pairs = 0
    for nodes in all_parabolics(rank):
        J = W.rs.parabolic(nodes)
        ref, g = build_qbg(W, J), build_qbg(W, J)
        for u in g.vertices:
            parent = _reference_paths(ref, u)
            for v in g.vertices:
                want = []
                while (e := parent[want[-1].source if want else v]) is not None:
                    want.append(e)
                path = g.shortest_path(u, v)
                assert path.start == u and path.end == v
                assert list(map(_fields, path.edges)) == list(map(_fields, reversed(want)))
                pairs += 1
        assert not g.out._made
    assert pairs == sum((len(W) // W.rs.parabolic(n).subgroup_order()) ** 2
                        for n in all_parabolics(rank))
