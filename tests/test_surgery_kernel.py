"""The slot-level surgery kernel ``tilted.surgeries`` against a record-level
reference, its four fold, descent and ascent checks tripped on sabotaged
columns, and the BFS-tree weight row ``QbgGraph.weights_from`` against
``shortest_path``."""

from array import array
from itertools import repeat

import pytest

from qbgraph.qbg import GraphInvariantError, QbgEdge, QbgGraph, QbgPath, build_qbg
from qbgraph.root_system import build_root_system
from qbgraph.tilted import expected_weight_shift, surgeries, surgery_signs, transform_path
from qbgraph.verify import PATH_WEIGHT_CASES, all_parabolics
from qbgraph.weyl import WeylGroup

_groups = {}


def _group(cartan_type, rank):
    key = (cartan_type, rank)
    if key not in _groups:
        _groups[key] = WeylGroup(build_root_system(cartan_type, rank))
    return _groups[key]


class _Reference:
    """Surgery on records, as it was done before the slot kernel: each
    floor, step edge and pushed edge read per vertex or per edge record
    (the step edges through ``edge``, so every record is ``out``'s, which
    lives as long as the graph), and kept per (j, vertex) or per j and
    record so that every path can be checked."""

    def __init__(self, graph):
        self.graph = graph
        self.steps = []
        for j in range(graph.rs.rank + 1):
            floors = {x: graph.left_step(j, x)[0] for x in graph.vertices}
            edges = {x: graph.edge(x, graph.step_label(j, x)) for x in graph.vertices}
            self.steps.append((floors, edges))
        self.pushed = [{} for _ in self.steps]

    def push(self, j, edge):
        """The edge floor(s_j a) -> floor(s_j b) parallel to a -> b, found
        by label, the label twisted for j = 0."""
        got = self.pushed[j].get(id(edge))
        if got is None:
            g, label, floors = self.graph, edge.label, self.steps[j][0]
            if j == 0:
                label = g.W.act(g.W.theta_twist(edge.source, g.J), label)
            got = g.edge(floors[edge.source], label)
            assert got is not None and got.target == floors[edge.target]
            self.pushed[j][id(edge)] = got
        return got

    def transform(self, j, verts, signs, edges, case):
        """(start, edges) of the surgery once the case's sign hypotheses
        hold for the path along verts with these signs: case 2 falls back
        on case 1 and case 4 on case 3."""
        floors, steps = self.steps[j]

        def push(part):
            return tuple([self.push(j, e) for e in part])

        if case == 1:
            k = max(i for i, s in enumerate(signs) if s >= 0)
            assert floors[verts[k + 1]] == verts[k]
            return verts[0], edges[:k] + push(edges[k + 1:])
        if case == 2:
            start = floors[verts[0]]
            if all(s < 0 for s in signs):
                return start, push(edges)
            down = steps[start]
            assert down is not None and down.target == verts[0]
            return start, (down,) + self.transform(j, verts, signs, edges, 1)[1]
        if case == 3:
            k = min(i for i, s in enumerate(signs) if s <= 0)
            assert floors[verts[k - 1]] == verts[k]
            return floors[verts[0]], push(edges[: k - 1]) + edges[k:]
        if all(s > 0 for s in signs):
            return floors[verts[0]], push(edges)
        start, shorter = self.transform(j, verts, signs, edges, 3)
        up = steps[verts[-1]]
        assert up is not None
        return start, shorter + (up,)


def _reference_cases(signs):
    first, last = signs[0], signs[-1]
    return [case for case, holds in (
        (1, last < 0 and any(s >= 0 for s in signs)),
        (2, first < 0 and last < 0),
        (3, first > 0 and any(s <= 0 for s in signs)),
        (4, first > 0 and last > 0),
    ) if holds]


KERNEL_GRAPHS = sorted(
    {(t, r, J) for t, r in [("A", 3), ("B", 3), ("C", 3), ("G", 2)] for J in all_parabolics(r)}
    | set(PATH_WEIGHT_CASES)
)


@pytest.mark.parametrize("cartan_type,rank,J", KERNEL_GRAPHS)
def test_the_kernel_is_the_record_level_surgery(cartan_type, rank, J):
    W = _group(cartan_type, rank)
    g = build_qbg(W, W.rs.parabolic(J))
    edge = list(g.edges).__getitem__
    ref = _Reference(g)
    tables = [surgery_signs(g, j) for j in range(rank + 1)]
    checked = 0
    for u in range(len(g.vertices)):
        for slots in g._shortest_slot_paths(u):
            edges = tuple(map(edge, slots))
            verts = [g.vertices[u]] + [e.target for e in edges]
            for j, table in enumerate(tables):
                signs = [table[x] for x in verts]
                got = surgeries(g, j, u, slots)
                assert [case for case, *_ in got] == _reference_cases(signs)
                for case, start, moved in got:
                    want = ref.transform(j, verts, signs, edges, case)
                    assert (g.vertices[start], tuple(map(edge, moved))) == want
                    checked += 1
    assert checked or len(g.vertices) == 1


def _find(g, holds):
    """The first (j, start, slots) whose sign list satisfies holds."""
    targets = g._targets
    for u in range(len(g.vertices)):
        for slots in g._shortest_slot_paths(u):
            for j in range(g.rs.rank + 1):
                table = surgery_signs(g, j)
                verts = [u, *map(targets.__getitem__, slots)]
                signs = [table[g.vertices[p]] for p in verts]
                if holds(signs):
                    return j, u, slots, verts, signs
    raise AssertionError("no path of the wanted sign pattern")


def _a3():
    W = _group("A", 3)
    return build_qbg(W, W.rs.parabolic((1,)))


def _sabotage(g, j, floors=None, steps=None):
    """Replace s_j's floor column or step-slot column by a copy edited at
    the given {position: value}."""
    labels, slots, floor_col = g._left_steps(j)
    if floors:
        floor_col = array("I", floor_col)
        for p, x in floors.items():
            floor_col[p] = x
    if steps:
        slots = array("i", slots)
        for p, k in steps.items():
            slots[p] = k
    g._step_columns[j] = (labels, slots, floor_col)


def _other(g, x):
    return next(v for v in g.vertices if v != x)


def test_a_floor_that_does_not_fold_back_raises():
    g = _a3()
    j, u, slots, verts, signs = _find(g, lambda s: s[-1] < 0 and max(s) >= 0)
    assert surgeries(g, j, u, slots)[0][0] == 1
    k = max(i for i, s in enumerate(signs) if s >= 0)
    _sabotage(g, j, floors={verts[k + 1]: _other(g, g.vertices[verts[k]])})
    with pytest.raises(GraphInvariantError, match="^transition vertex does not fold back$"):
        surgeries(g, j, u, slots)


def test_a_floor_that_does_not_fold_forward_raises():
    g = _a3()
    j, u, slots, verts, signs = _find(g, lambda s: s[0] > 0 and s[-1] >= 0 and min(s) <= 0)
    assert [case for case, *_ in surgeries(g, j, u, slots)][0] == 3
    k = min(i for i, s in enumerate(signs) if s <= 0)
    _sabotage(g, j, floors={verts[k - 1]: _other(g, g.vertices[verts[k]])})
    with pytest.raises(GraphInvariantError, match="^transition vertex does not fold forward$"):
        surgeries(g, j, u, slots)


def test_a_missing_descent_into_the_start_raises():
    g = _a3()
    j, u, slots, verts, signs = _find(g, lambda s: s[0] < 0 and s[-1] < 0 and max(s) >= 0)
    assert [case for case, *_ in surgeries(g, j, u, slots)] == [1, 2]
    floor = g.vertex_pos[g._left_steps(j)[2][u]]
    _sabotage(g, j, steps={floor: -1})
    with pytest.raises(GraphInvariantError, match="^descent edge into the start is missing$"):
        surgeries(g, j, u, slots)


def test_a_descent_to_another_vertex_raises():
    g = _a3()
    j, u, slots, verts, signs = _find(g, lambda s: s[0] < 0 and s[-1] < 0 and max(s) >= 0)
    floor = g.vertex_pos[g._left_steps(j)[2][u]]
    # a slot out of the floor that does not enter the start
    wrong = next(k for k in range(g._offsets[floor], g._offsets[floor + 1])
                 if g._targets[k] != u)
    _sabotage(g, j, steps={floor: wrong})
    with pytest.raises(GraphInvariantError, match="^descent edge into the start is missing$"):
        surgeries(g, j, u, slots)


def test_a_missing_ascent_out_of_the_end_raises():
    g = _a3()
    j, u, slots, verts, signs = _find(g, lambda s: s[0] > 0 and s[-1] > 0 and min(s) <= 0)
    assert [case for case, *_ in surgeries(g, j, u, slots)] == [3, 4]
    _sabotage(g, j, steps={verts[-1]: -1})
    with pytest.raises(GraphInvariantError, match="^ascent edge out of the end is missing$"):
        surgeries(g, j, u, slots)


@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("case", [0, 5, 7, -1])
def test_the_weight_shift_rejects_a_case_out_of_range(j, case):
    W = _group("A", 2)
    g = build_qbg(W, W.rs.parabolic(()))
    path = g.shortest_path(0, W.longest())
    with pytest.raises(ValueError, match=r"^case must be 1\.\.4$"):
        expected_weight_shift(g, path, j, case)
    with pytest.raises(ValueError, match=r"^case must be 1\.\.4$"):
        transform_path(g, path, j, case)


@pytest.mark.parametrize("cartan_type,rank,J", KERNEL_GRAPHS)
def test_the_weight_row_is_the_shortest_path_weight(cartan_type, rank, J):
    W = _group(cartan_type, rank)
    g = build_qbg(W, W.rs.parabolic(J))
    for u in g.vertices:
        row = g.weights_from(u)
        assert len(row) == len(g.vertices)
        for p, v in enumerate(g.vertices):
            assert row[p] == g.shortest_path(u, v).weight(rank), (u, v)


def test_the_weight_row_follows_a_sabotaged_edge_weight():
    W = _group("B", 3)
    g = build_qbg(W, W.rs.parabolic((2,)))
    edges = list(g.edges)
    i = next(i for i, e in enumerate(edges) if e.kind == "quantum")
    e = edges[i]
    edges[i] = QbgEdge(e.source, e.target, e.label, e.kind, tuple(c + 1 for c in e.weight))
    broken = QbgGraph(W, g.J, g.vertices, edges)
    moved = 0
    for u in g.vertices:
        row, kept = broken.weights_from(u), g.weights_from(u)
        for p, v in enumerate(g.vertices):
            assert row[p] == broken.shortest_path(u, v).weight(W.rank), (u, v)
            moved += row[p] != kept[p]
    assert moved
