import pytest

from qbgraph.cli import main
from qbgraph.root_system import (
    ROOT_CAP,
    ConfigurationError,
    RootSystem,
    build_root_system,
    cartan_matrix,
    is_positive_vec,
    neg_vec,
    positive_root_count,
    sub_vec,
)
from qbgraph.verify import ROOT_TYPES, all_parabolics

# closed-form positive root counts, used as an independent oracle
COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("B", 2): 4, ("B", 3): 9, ("B", 4): 16, ("B", 6): 36,
    ("C", 2): 4, ("C", 3): 9, ("C", 4): 16, ("C", 5): 25,
    ("D", 4): 12, ("D", 5): 20, ("F", 4): 24, ("G", 2): 6,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120,
}


@pytest.mark.parametrize("key", sorted(COUNTS))
def test_positive_root_counts(key):
    t, r = key
    rs = build_root_system(t, r)
    assert len(rs.positive_roots) == COUNTS[key]
    assert len(set(rs.positive_roots)) == COUNTS[key]


@pytest.mark.parametrize("key", sorted(COUNTS))
def test_closed_form_root_counts(key):
    assert positive_root_count(*key) == COUNTS[key]


def test_root_cap_refuses_before_the_closure(monkeypatch):
    def refuse(*_args):
        raise AssertionError("a root system was built past the root cap")

    monkeypatch.setattr(RootSystem, "__init__", refuse)
    assert positive_root_count("A", 24) == ROOT_CAP
    for t, r in [("A", 25), ("B", 18), ("D", 18), ("A", 80)]:
        with pytest.raises(ConfigurationError, match="exceeds the root cap"):
            build_root_system(t, r)


def test_invalid_configurations():
    for t, r in [("A", 0), ("B", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("X", 2)]:
        with pytest.raises(ConfigurationError):
            build_root_system(t, r)
    with pytest.raises(ConfigurationError):
        cartan_matrix("Q", 2)


def test_cartan_axioms():
    for t, r in sorted(COUNTS):
        a = cartan_matrix(t, r)
        for i in range(r):
            assert a[i][i] == 2
            for j in range(r):
                if i != j:
                    assert a[i][j] <= 0
                    assert (a[i][j] == 0) == (a[j][i] == 0)


def test_a2_data():
    rs = build_root_system("A", 2)
    assert rs.theta == (1, 1)
    assert rs.two_rho == (2, 2)
    assert rs.pairing(rs.coroot(rs.theta), rs.two_rho) == 4
    assert rs.pairing(rs.simple_coroot(1), (1, 0)) == 2


def test_c2_data():
    rs = build_root_system("C", 2)
    assert rs.cartan[0][1] == -2 and rs.cartan[1][0] == -1
    assert rs.theta == (2, 1)
    assert rs.two_rho == (4, 3)
    assert rs.pairing(rs.simple_coroot(1), rs.two_rho) == 2
    # reflection identity used to cross-check the closure
    assert rs.reflect((1, 0), (0, 1)) == (2, 1)


def test_reflect_examples():
    rs = build_root_system("A", 2)
    assert rs.reflect((1, 0), (1, 0)) == (-1, 0)
    assert rs.reflect(rs.theta, (1, 0)) == (0, -1)
    # involution
    for beta in rs.positive_roots:
        for v in rs.positive_roots:
            assert rs.reflect(beta, rs.reflect(beta, v)) == v


def test_roots_have_single_sign():
    for t, r in sorted(COUNTS):
        rs = build_root_system(t, r)
        for a in rs.positive_roots:
            assert all(c >= 0 for c in a)
            assert is_positive_vec(a) and not is_positive_vec(neg_vec(a))


def test_closure_under_all_reflections():
    for t, r in [("A", 3), ("B", 2), ("C", 3), ("G", 2)]:
        rs = build_root_system(t, r)
        for beta in rs.positive_roots:
            for a in rs.positive_roots:
                img = rs.reflect(beta, a)
                assert rs.is_positive_root(img) or rs.is_positive_root(neg_vec(img))
                assert (img if is_positive_vec(img) else neg_vec(img)) in rs.positive_roots


def test_theta_dominant_and_maximal():
    for t, r in sorted(COUNTS):
        rs = build_root_system(t, r)
        for i in range(1, r + 1):
            assert rs.pairing(rs.simple_coroot(i), rs.theta) >= 0
        for a in rs.positive_roots:
            assert all(x <= y for x, y in zip(a, rs.theta))


def test_quantum_roots_simply_laced():
    rs = build_root_system("A", 2)
    assert all(rs.is_quantum_root(a) for a in rs.positive_roots)


def test_quantum_roots_c2():
    rs = build_root_system("C", 2)
    assert rs.coroot((1, 1)) == (1, 2)
    assert not rs.is_quantum_root((1, 1))
    assert rs.reflection_length((1, 1)) == 3
    assert rs.pairing(rs.coroot((1, 1)), rs.two_rho) - 1 == 5
    assert rs.is_quantum_root(rs.theta)
    assert rs.reflection_length(rs.theta) == rs.pairing(rs.coroot(rs.theta), rs.two_rho) - 1


@pytest.mark.parametrize("key", sorted(COUNTS))
def test_quantum_length_bound(key):
    rs = build_root_system(*key)
    for a in rs.positive_roots:
        bound = rs.pairing(rs.coroot(a), rs.two_rho) - 1
        assert rs.reflection_length(a) <= bound
        assert (rs.reflection_length(a) == bound) == rs.is_quantum_root(a)


def test_root_systems_and_exports_count_no_reflection_length(monkeypatch, capsys):
    # only verify reads reflection lengths, so building a root system, its
    # group and a graph export counts none
    def refuse(*_args):
        raise AssertionError("a reflection length was counted")

    monkeypatch.setattr(RootSystem, "_reflection_length", refuse)
    for t, r in ROOT_TYPES:
        build_root_system(t, r)
    assert main(["qbg", "--type", "B", "--rank", "3", "--format", "json"]) == 0
    assert capsys.readouterr().out.startswith("{")


def test_coroot_equivariance_under_generators():
    for t, r in [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("F", 4)]:
        rs = build_root_system(t, r)
        for i, s in enumerate(rs.simple_roots()):
            for a in rs.positive_roots:
                img = rs.reflect(s, a)
                assert rs.coroot(img) == rs.reflect_coroot(s, rs.coroot(a))


def test_special_node_coefficient_bound():
    for t, r in sorted(COUNTS):
        rs = build_root_system(t, r)
        for i in rs.special_nodes():
            assert all(a[i - 1] <= 1 for a in rs.positive_roots)


def test_special_nodes_per_type():
    assert build_root_system("A", 3).special_nodes() == (1, 2, 3)
    assert build_root_system("B", 3).special_nodes() == (1,)
    assert build_root_system("C", 3).special_nodes() == (3,)
    assert build_root_system("D", 4).special_nodes() == (1, 3, 4)
    assert build_root_system("D", 5).special_nodes() == (1, 4, 5)
    assert build_root_system("G", 2).special_nodes() == ()
    assert build_root_system("F", 4).special_nodes() == ()
    assert build_root_system("E", 6).special_nodes() == (1, 6)
    assert build_root_system("E", 7).special_nodes() == (7,)
    assert build_root_system("E", 8).special_nodes() == ()


def test_simply_laced_types_are_all_quantum():
    for t, r in [("D", 5), ("E", 6), ("E", 7), ("E", 8)]:
        rs = build_root_system(t, r)
        assert all(rs.is_quantum_root(a) for a in rs.positive_roots)


def test_parabolic_data():
    rs = build_root_system("A", 3)
    J = rs.parabolic((1, 3))
    assert J.phi_plus == ((0, 0, 1), (1, 0, 0))
    assert J.two_rho_J == (1, 0, 1)
    assert J.components == ((1,), (3,))
    J2 = rs.parabolic((1, 2))
    assert J2.components == ((1, 2),)
    assert len(J2.phi_plus) == 3
    empty = rs.parabolic(())
    assert empty.phi_plus == () and empty.two_rho_J == (0, 0, 0)
    with pytest.raises(ConfigurationError):
        rs.parabolic((0,))


def cartan_pairing(cartan, c, v):
    """<c, v> from the definition: sum over i, j of c_i a_ij v_j."""
    n = len(cartan)
    return sum(c[i] * cartan[i][j] * v[j] for i in range(n) for j in range(n))


@pytest.mark.parametrize("cartan_type,rank", ROOT_TYPES)
def test_pairing_rows_match_the_cartan_definition(cartan_type, rank):
    rs = build_root_system(cartan_type, rank)
    roots = rs.positive_roots + tuple(neg_vec(a) for a in rs.positive_roots)
    for alpha in roots:
        c = rs.coroot(alpha)
        for beta in roots:
            assert rs.pairing(c, beta) == cartan_pairing(rs.cartan, c, beta)
    stored = len(rs._rows)
    # 2rho - 2rho_J is not a root: it is multiplied out and never stored
    for nodes in all_parabolics(rank):
        J = rs.parabolic(nodes)
        v = sub_vec(rs.two_rho, J.two_rho_J)
        for alpha in rs.positive_roots:
            want = cartan_pairing(rs.cartan, rs.coroot(alpha), v)
            assert rs.pairing(rs.coroot(alpha), v) == want
            assert J.quantum_shift[alpha] == want
        assert J.in_phi_J == tuple(a in J.phi_plus for a in rs.positive_roots)
        assert tuple(rs.positive_roots[b] for b in J.phi_plus_pos) == J.phi_plus
    assert len(rs._rows) == stored == len(roots)


def test_pairing_rank_mismatch():
    rs = build_root_system("B", 3)
    root = rs.positive_roots[0]
    for c, v in [((1, 0), root), ((1, 0, 0, 0), root), ((1, 0, 0), (1, 0)),
                 ((1, 0, 0), (1, 1, 1, 1))]:
        with pytest.raises(ValueError, match="rank mismatch"):
            rs.pairing(c, v)
