"""The record-level surgery ``tilted.transform_path`` against an
independent record-level reference on every shortest path, its four fold,
descent and ascent checks tripped on sabotaged columns, the BFS-tree weight
row ``QbgGraph.weights_from`` against ``shortest_path``, and the path-weights
edge checks (``verify.path_claims``): their surgery count against the
surgeries ``transform_path`` makes, and each check tripped on a sabotaged
copy of a graph."""

import copy
from array import array
from functools import cache

import pytest

from qbgraph.qbg import GraphInvariantError, QbgEdge, QbgGraph, QbgPath, build_qbg
from qbgraph.root_system import build_root_system
from qbgraph.tilted import _CASE_NEEDS, expected_weight_shift, transform_path
from qbgraph.verify import PATH_WEIGHT_CASES, all_parabolics, path_claims
from qbgraph.weyl import WeylGroup

_groups = {}


def _group(cartan_type, rank):
    key = (cartan_type, rank)
    if key not in _groups:
        _groups[key] = WeylGroup(build_root_system(cartan_type, rank))
    return _groups[key]


def _shortest_paths(g, u):
    """(path, vertex positions) of every shortest path out of u: a depth-first
    walk over the ``out`` records that climb one layer of u's
    ``distances_from`` row."""
    dist, at, out, vertices = g.distances_from(u), g.vertex_pos, g.out, g.vertices
    stack = [((), [at[u]])]
    while stack:
        edges, ps = stack.pop()
        yield QbgPath(u, edges), ps
        d = dist[ps[-1]] + 1
        for e in reversed(out[vertices[ps[-1]]]):
            if dist[q := at[e.target]] == d:
                stack.append((edges + (e,), ps + [q]))


class _Reference:
    """Surgery on records, sharing no code with ``transform_path``: each
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
        (1, last < 0 and max(signs) >= 0),
        (2, first < 0 and last < 0),
        (3, first > 0 and min(signs) <= 0),
        (4, first > 0 and last > 0),
    ) if holds]


KERNEL_GRAPHS = sorted(
    {(t, r, J) for t, r in [("A", 3), ("B", 3), ("C", 3), ("G", 2)] for J in all_parabolics(r)}
    | set(PATH_WEIGHT_CASES)
)


@cache
def _checked_surgeries(cartan_type, rank, J):
    """transform_path on every shortest path and j of the graph: each case
    that ``_reference_cases`` accepts gives the reference's path, and one
    case it rejects raises that case's ``_CASE_NEEDS`` message.  The number
    of surgeries made."""
    W = _group(cartan_type, rank)
    g = build_qbg(W, W.rs.parabolic(J))
    ref, rows = _Reference(g), [g.sign_row(j) for j in range(rank + 1)]
    made = 0
    for u in g.vertices:
        for path, at in _shortest_paths(g, u):
            verts = [g.vertices[p] for p in at]
            for j, row in enumerate(rows):
                signs = [row[p] for p in at]
                cases = _reference_cases(signs)
                for case in cases:
                    moved = transform_path(g, path, j, case)
                    assert (moved.start, moved.edges) == ref.transform(
                        j, verts, signs, path.edges, case)
                made += len(cases)
                rejected = [case for case in (1, 2, 3, 4) if case not in cases]
                case = rejected[j % len(rejected)]
                try:
                    transform_path(g, path, j, case)
                except ValueError as exc:
                    assert str(exc) == _CASE_NEEDS[case]
                else:
                    raise AssertionError(f"case {case} accepted by {path!r}, j = {j}")
    return made


@pytest.mark.parametrize("cartan_type,rank,J", KERNEL_GRAPHS)
def test_the_kernel_is_the_record_level_surgery(cartan_type, rank, J):
    # only the one-vertex graph of J = every node makes no surgery
    assert _checked_surgeries(cartan_type, rank, J) or J == tuple(range(1, rank + 1))


def _find(g, holds):
    """The first (j, path, vertex positions, signs) of a shortest path whose
    sign list satisfies holds."""
    for u in g.vertices:
        for path, at in _shortest_paths(g, u):
            for j in range(g.rs.rank + 1):
                signs = [g.sign_row(j)[p] for p in at]
                if holds(signs):
                    return j, path, at, signs
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
    j, path, at, signs = _find(g, lambda s: s[-1] < 0 and max(s) >= 0)
    transform_path(g, path, j, 1)
    k = max(i for i, s in enumerate(signs) if s >= 0)
    _sabotage(g, j, floors={at[k + 1]: _other(g, g.vertices[at[k]])})
    with pytest.raises(GraphInvariantError, match="^transition vertex does not fold back$"):
        transform_path(g, path, j, 1)


def test_a_floor_that_does_not_fold_forward_raises():
    g = _a3()
    j, path, at, signs = _find(g, lambda s: s[0] > 0 and s[-1] >= 0 and min(s) <= 0)
    transform_path(g, path, j, 3)
    k = min(i for i, s in enumerate(signs) if s <= 0)
    _sabotage(g, j, floors={at[k - 1]: _other(g, g.vertices[at[k]])})
    with pytest.raises(GraphInvariantError, match="^transition vertex does not fold forward$"):
        transform_path(g, path, j, 3)


def _descent_case():
    """A3 J = {1}, s_j, a path signed for cases 1 and 2, and the position
    of floor(s_j start)."""
    g = _a3()
    j, path, at, signs = _find(g, lambda s: s[0] < 0 and s[-1] < 0 and max(s) >= 0)
    transform_path(g, path, j, 2)
    return g, j, path, g.vertex_pos[g._left_steps(j)[2][at[0]]]


def test_a_missing_descent_into_the_start_raises():
    g, j, path, floor = _descent_case()
    _sabotage(g, j, steps={floor: -1})
    with pytest.raises(GraphInvariantError, match="^descent edge into the start is missing$"):
        transform_path(g, path, j, 2)
    transform_path(g, path, j, 1)  # case 1 takes no descent


def test_a_descent_to_another_vertex_raises():
    g, j, path, floor = _descent_case()
    # a slot out of the floor that does not enter the start
    wrong = next(k for k in range(g._offsets[floor], g._offsets[floor + 1])
                 if g.vertices[g._targets[k]] != path.start)
    _sabotage(g, j, steps={floor: wrong})
    with pytest.raises(GraphInvariantError, match="^descent edge into the start is missing$"):
        transform_path(g, path, j, 2)


def test_a_missing_ascent_out_of_the_end_raises():
    g = _a3()
    j, path, at, signs = _find(g, lambda s: s[0] > 0 and s[-1] > 0 and min(s) <= 0)
    transform_path(g, path, j, 4)
    _sabotage(g, j, steps={at[-1]: -1})
    with pytest.raises(GraphInvariantError, match="^ascent edge out of the end is missing$"):
        transform_path(g, path, j, 4)
    transform_path(g, path, j, 3)  # case 3 takes no ascent


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


def _heavier(g):
    """A copy of g whose first quantum edge weighs one more in every coordinate."""
    edges = list(g.edges)
    i = next(i for i, e in enumerate(edges) if e.kind == "quantum")
    e = edges[i]
    edges[i] = QbgEdge(e.source, e.target, e.label, e.kind, tuple(c + 1 for c in e.weight))
    return QbgGraph(g.W, g.J, g.vertices, edges)


def test_the_weight_row_follows_a_sabotaged_edge_weight():
    W = _group("B", 3)
    g = build_qbg(W, W.rs.parabolic((2,)))
    broken = _heavier(g)
    moved = 0
    for u in g.vertices:
        row, kept = broken.weights_from(u), g.weights_from(u)
        for p, v in enumerate(g.vertices):
            assert row[p] == broken.shortest_path(u, v).weight(W.rank), (u, v)
            moved += row[p] != kept[p]
    assert moved


COUNT_GRAPHS = (
    [(t, r, J) for t, r in [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2)]
     for J in all_parabolics(r)]
    + [(t, 3, J) for t in "BC" for J in all_parabolics(3, proper=True) if J]
)


@pytest.mark.parametrize("cartan_type,rank,J", COUNT_GRAPHS)
def test_the_surgery_count_is_the_kernels_over_every_shortest_path(cartan_type, rank, J):
    W = _group(cartan_type, rank)
    want = _checked_surgeries(cartan_type, rank, J)
    assert path_claims(build_qbg(W, W.rs.parabolic(J))) == want


def test_a_redirected_pushed_slot_fails_the_edge_checks():
    g = _a3()
    path_claims(g)  # fills every pushed slot
    table = g._pushed(2)
    k = next(k for k, q in enumerate(table) if q >= 0)
    table[k] = next(q for q in range(len(table)) if g._targets[q] != g._targets[table[k]])
    with pytest.raises(AssertionError, match="^pushed edge is wrong$"):
        path_claims(g)


def test_a_quantum_weight_plus_one_fails_the_edge_checks():
    W = _group("B", 3)
    g = build_qbg(W, W.rs.parabolic((2,)))
    path_claims(g)  # the graph as built passes
    with pytest.raises(AssertionError, match="^pushed edge is wrong$"):
        path_claims(_heavier(g))


@pytest.mark.parametrize("j", range(4))
def test_a_changed_floor_fails_the_edge_checks(j):
    # every third floor of s_j, each on its own copy, whatever its sign
    for p in range(0, 12, 3):
        g = _a3()
        _sabotage(g, j, floors={p: _other(g, g._left_steps(j)[2][p])})
        with pytest.raises(AssertionError):
            path_claims(g)


def test_build_qbg_with_the_shift_of_j_empty_fails_the_edge_checks():
    # the quantum test reads <alpha^vee, 2rho> for <alpha^vee, 2rho - 2rho_J>
    W = _group("B", 3)
    J = copy.copy(W.rs.parabolic((2,)))
    J.quantum_shift = W.rs.parabolic(()).quantum_shift
    with pytest.raises(GraphInvariantError, match="^left step by 0 at .* is not a graph edge$"):
        path_claims(build_qbg(W, J))


def test_a_raised_weight_row_entry_fails_the_potential_check():
    g = _a3()
    real, source, p = g.weights_from, g.vertices[0], 5

    def weights_from(u):
        row = real(u)
        if u == source:
            row[p] = tuple(c + 1 for c in row[p])
        return row

    g.weights_from = weights_from
    with pytest.raises(AssertionError, match=r"^edge into \d+ breaks the potential$"):
        path_claims(g)


def test_a_raised_distance_fails_the_shortestness_check():
    # the last source's row is read by earlier sources before its own check
    with pytest.raises(AssertionError, match="^surgery lost shortestness$"):
        path_claims(_shifted_distance(11, 1, 1))


def _shifted_distance(source, p, by):
    """A3 J = {1} with entry p of the distance row of vertex position source
    moved by `by`."""
    g = _a3()
    u = g.vertices[source]
    row = array("H", g.distances_from(u))
    row[p] += by
    g._dist[u] = row
    return g


# the first four raise an entry and the last lowers one, and none of these
# five breaks a surgery's shortestness read; (0, 0, 1) moves the source's own
# entry off 0
@pytest.mark.parametrize("source,p,by", [(0, 11, 1), (5, 3, 1), (6, 8, 1), (10, 2, 1),
                                         (0, 0, 1), (0, 11, -1)])
def test_a_distance_row_off_the_bfs_fails_the_row_check(source, p, by):
    with pytest.raises(AssertionError, match="^distance row is wrong$"):
        path_claims(_shifted_distance(source, p, by))
