"""QB(W^J) decided on the weight orbit W.lambda_J, for every J.

``build_qbg`` reads only the root system and the orbit's own search, over
the orbit's ids or over W's, which ``WeylGroup.min_coset_ids`` reads from
the orbit's words.  ``quotient_reference_edges`` reads only the enumerated
group's reflections, coset floors and lengths, and takes W^J from a scan of
W by the descent definition (``descent_scan``).  The two share no tables,
so each checks the other.
"""

import hashlib
from array import array
from itertools import combinations

import pytest

from qbgraph import render
from qbgraph.cli import main
from qbgraph.qbg import BRUHAT, QUANTUM, build_qbg
from qbgraph.root_system import ConfigurationError, build_root_system, weyl_order
from qbgraph.verify import all_parabolics, context
from qbgraph.weyl import CANDIDATE_EDGE_CAP, WeightOrbit, WeylGroup
from test_weyl_enumeration import apply, reference

QUOTIENT_TYPES = [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("B", 2), ("B", 3), ("B", 4),
                  ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4)]

E6_QUOTIENT_SHA256 = "746d121d924e5cfbc847cfd6b57a69c38a662fb98c72a44a430b01b0707b0f7c"
A8_QUOTIENT_SHA256 = "3db6a656e67b4d689787c16d89ccffbaefc4ef227a63d05386120fbb06d198a0"
A6_GRAPH_SHA256 = "65f5f7ced07673f476f5e0d872d2ae5ca78d02465a43f33d18db3eaed6e9ff7d"


def _quotients():
    """Every parabolic J of QUOTIENT_TYPES, J = {} too, and E6's six
    maximal ones."""
    for t, r in QUOTIENT_TYPES:
        for nodes in all_parabolics(r):
            yield t, r, nodes
    for nodes in combinations(range(1, 7), 5):
        yield "E", 6, nodes


def descent_scan(W, J):
    """W^J by its definition, from a scan of all of W: the ids with no
    right descent in J, in id order."""
    length, right = W._length, W._right
    return tuple(w for w in range(len(W))
                 if all(length[right[j - 1][w]] > length[w] for j in J.nodes))


def quotient_reference_edges(rs, W, J):
    """QB(W^J) edge by edge as (source, target, label, kind, weight) over W
    ids, per w in W^J and alpha in Phi+ minus Phi_J+: the target
    floor(w r_alpha) is Bruhat when its length is l(w) + 1, and quantum when
    it is l(w) + 1 - <alpha^vee, 2rho - 2rho_J>, where 2rho - 2rho_J is the
    sum of the labels."""
    labels = [a for a in rs.positive_roots if a not in J.phi_plus]
    two_rho = tuple(map(sum, zip(*labels)))
    length = W._length
    edges = []
    for w in descent_scan(W, J):
        for a in labels:
            x = W.coset_floor(W.right_reflect(w, a), J)
            if length[x] == length[w] + 1:
                edges.append((w, x, a, BRUHAT, rs.zero))
            elif length[x] == length[w] + 1 - rs.pairing(rs.coroot(a), two_rho):
                edges.append((w, x, a, QUANTUM, rs.coroot(a)))
    return edges


def test_orbit_graph_equals_build_qbg_on_every_quotient():
    # over the orbit's ids and over W's, the graph is the reference's, and
    # renders to the same text
    rendered = {("A", 3, (1, 3)), ("B", 4, (2,)), ("G", 2, (1,)), ("F", 4, (1,)),
                ("E", 6, (2, 3, 4, 5, 6))}
    seen = 0
    for t, r, nodes in _quotients():
        rs, W, _ = context(t, r)
        J = rs.parabolic(nodes)
        ids = descent_scan(W, J)
        orbit = WeightOrbit(rs, J)
        case = f"{t}{r} J={nodes}"
        assert [W._word[v] for v in ids] == orbit._word, case
        assert [W._length[v] for v in ids] == orbit._length, case
        ref = quotient_reference_edges(rs, W, J)
        graph = build_qbg(W, J)
        assert graph.vertices == ids, case
        assert [(e.source, e.target, e.label, e.kind, e.weight) for e in graph.edges] == ref, case
        on_orbit = build_qbg(orbit, J)
        assert on_orbit.vertices == tuple(range(len(ids))), case
        assert [(ids[e.source], ids[e.target], e.label, e.kind, e.weight)
                for e in on_orbit.edges] == ref, case
        if (t, r, nodes) in rendered:
            for chunks in (render.graph_json_chunks, render.graph_text_chunks,
                           render.graph_dot_chunks):
                assert "".join(chunks(on_orbit)) == "".join(chunks(graph)), case
            seen += 1
    assert seen == len(rendered)


def _unpack(orbit, key):
    """The weight over the fundamental weights that a packed name is."""
    out = []
    for _ in range(orbit.rank):
        key, d = divmod(key, orbit._base)
        out.append(d - orbit._offset)
    return tuple(out)


def test_orbit_names_and_lengths():
    # each name is w(lambda_J), entry j being <w^{-1}(alpha_j^vee), lambda_J>
    # from the matrix-keyed reference's comatrix of w^{-1}; the length is the
    # number of positive coroots that pair negatively with it
    rs, W, _ = context("B", 3)
    J = rs.parabolic((2,))
    orbit = WeightOrbit(rs, J)
    assert J.lambda_J == (1, 0, 1)
    mats, comats, *_, inverse, _ = reference("B", 3)
    coroots = [rs.coroot(a) for a in rs.positive_roots]
    for i, w in enumerate(descent_scan(W, J)):
        v = _unpack(orbit, orbit._key[i])
        assert v == tuple(sum(map(int.__mul__, row, J.lambda_J)) for row in comats[inverse[w]])
        assert orbit._length[i] == sum(sum(map(int.__mul__, c, v)) < 0 for c in coroots)
        # w(beta) over the fundamental weights, for every positive root beta
        for b, beta in enumerate(rs.positive_roots):
            img = apply(mats[w], beta)
            assert orbit.signed_rows[orbit._perm[i][b]] == tuple(
                rs.pairing(rs.simple_coroot(k + 1), img) for k in range(rs.rank))
    assert len(set(orbit._key)) == len(orbit)


def _act(rs, word, beta):
    """w(beta) over the simple roots, for w given by a word."""
    beta = list(beta)
    for k in reversed(word):
        beta[k - 1] -= rs.pairing(rs.simple_coroot(k), tuple(beta))
    return tuple(beta)


@pytest.mark.parametrize("cartan_type,rank,nodes,kind", [
    ("B", 3, (2,), bytes),
    ("A", 16, range(2, 17), array),  # 2|Phi+| = 272 positions pass a byte
])
def test_root_images_follow_the_words(cartan_type, rank, nodes, kind):
    rs = build_root_system(cartan_type, rank)
    orbit = WeightOrbit(rs, rs.parabolic(nodes))
    for i, word in enumerate(orbit._word):
        assert type(orbit._perm[i]) is kind
        for b, beta in enumerate(rs.positive_roots):
            img = _act(rs, word, beta)
            assert orbit.signed_rows[orbit._perm[i][b]] == tuple(
                rs.pairing(rs.simple_coroot(k), img) for k in range(1, rank + 1))


def test_the_a16_orbit_of_the_first_fundamental_weight_is_a_cycle():
    # W^J is a Bruhat chain of 17 points, and theta's quantum edge closes it
    rs = build_root_system("A", 16)
    J = rs.parabolic(range(2, 17))
    graph = build_qbg(WeightOrbit(rs, J), J)
    assert [(e.source, e.target, e.kind) for e in graph.edges] == sorted(
        [(i, i + 1, "bruhat") for i in range(16)] + [(16, 0, "quantum")])
    assert graph.diameter() == 16


@pytest.mark.parametrize("cartan_type,rank", QUOTIENT_TYPES + [("D", 5), ("E", 6)])
def test_subgroup_order_counts_the_parabolic_subgroup(cartan_type, rank):
    rs, W, _ = context(cartan_type, rank)
    for nodes in all_parabolics(rank):
        J = rs.parabolic(nodes)
        assert J.subgroup_order() == len(W.subgroup_elements(nodes)), nodes


@pytest.mark.parametrize("cartan_type,rank", [
    ("A", 1), ("A", 9), ("B", 7), ("C", 6), ("D", 7), ("E", 6), ("E", 7), ("E", 8),
    ("F", 4), ("G", 2),
])
def test_subgroup_order_of_all_nodes_is_the_group_order(cartan_type, rank):
    rs = build_root_system(cartan_type, rank)
    assert rs.parabolic(range(1, rank + 1)).subgroup_order() == weyl_order(cartan_type, rank)


class Searched(Exception):
    pass


@pytest.fixture
def no_search(monkeypatch):
    # the search packs its names first, after the cap is checked
    def refuse(*_args):
        raise Searched

    monkeypatch.setattr(WeightOrbit, "_packing", refuse)


@pytest.mark.parametrize("nodes,size,labels", [
    ((1, 2), 174182400, 118),
    ((3, 4, 5, 6, 7), 967680, 105),
])
def test_orbit_past_the_cap_raises_before_the_search(no_search, nodes, size, labels):
    rs = build_root_system("E", 8)
    J = rs.parabolic(nodes)
    assert weyl_order("E", 8) // J.subgroup_order() == size
    assert size * labels > CANDIDATE_EDGE_CAP
    with pytest.raises(ConfigurationError, match=rf"= {size} \* {labels} exceeds"):
        WeightOrbit(rs, J)


@pytest.mark.parametrize("cartan_type,rank,nodes", [
    ("B", 7, ()), ("C", 7, ()), ("A", 8, ()), ("E", 8, (1, 2, 3, 4, 6, 7, 8)),
])
def test_the_cap_admits_every_graph_the_group_cap_did(no_search, cartan_type, rank, nodes):
    # B7 and C7's full graphs, 645,120 * 49 candidate edges, are the most
    # that |W| <= ENUMERATION_CAP let build_qbg check; E8 over A4 x A3 has
    # 241,920 * 104
    rs = build_root_system(cartan_type, rank)
    with pytest.raises(Searched):
        WeightOrbit(rs, rs.parabolic(nodes))


def _qbg(capsys, *argv):
    code = main(["qbg", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_weyl_group(monkeypatch):
    def refuse(*_args):
        raise AssertionError("W was enumerated")

    monkeypatch.setattr(WeylGroup, "__init__", refuse)


def test_e6_quotient_export_never_builds_w(capsys, no_weyl_group):
    code, out, err = _qbg(capsys, "--type", "E", "--rank", "6", "--parabolic", "2,3,4,5,6",
                          "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == E6_QUOTIENT_SHA256


def test_a8_quotient_keeps_its_output_without_w(capsys, no_weyl_group):
    code, out, err = _qbg(capsys, "--type", "A", "--rank", "8", "--parabolic", "1,2,3,4,5,6,7")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == A8_QUOTIENT_SHA256


def test_the_full_a6_graph_export_never_builds_w(capsys, no_weyl_group):
    code, out, err = _qbg(capsys, "--type", "A", "--rank", "6", "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == A6_GRAPH_SHA256


@pytest.mark.parametrize("rank,nodes,vertices,edges,quantum", [
    (7, "1,2,3,4,5,6", 56, 96, 12),
    (8, "1,2,3,4,5,6,7", 240, 529, 59),
])
def test_e7_and_e8_quotients_build(capsys, rank, nodes, vertices, edges, quantum):
    code, out, err = _qbg(capsys, "--type", "E", "--rank", str(rank), "--parabolic", nodes)
    assert (code, err) == (0, "")
    head = out.splitlines()[1]
    assert head == f"# vertices={vertices} edges={edges} quantum={quantum}"
    assert vertices == weyl_order("E", rank) // weyl_order("E", rank - 1)
    # the diameter is |Phi+ minus Phi_J+| here too, as on every graph checked
    rs = build_root_system("E", rank)
    J = rs.parabolic(range(1, rank))
    graph = build_qbg(WeightOrbit(rs, J), J)
    assert graph.diameter() == len(rs.positive_roots) - len(J.phi_plus)


def test_e8_quotient_past_the_cap_exits_two_before_the_search(capsys, no_search):
    code, out, err = _qbg(capsys, "--type", "E", "--rank", "8", "--parabolic", "1,2")
    assert code == 2 and out == ""
    assert err == ("error: |W^J| * |Phi+ - Phi_J+| = 174182400 * 118 exceeds the "
                   "candidate-edge cap 32000000\n")
