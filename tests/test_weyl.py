import pytest

from qbgraph.root_system import ConfigurationError, build_root_system, is_positive_vec
from qbgraph.verify import ROOT_TYPES
from qbgraph.weyl import Trichotomy, WeylGroup


@pytest.fixture(scope="module")
def a2():
    rs = build_root_system("A", 2)
    return rs, WeylGroup(rs)


@pytest.fixture(scope="module")
def a3():
    rs = build_root_system("A", 3)
    return rs, WeylGroup(rs)


def test_orders(a2, a3):
    assert len(a2[1]) == 6
    assert len(a3[1]) == 24
    assert len(WeylGroup(build_root_system("G", 2))) == 12


def test_enumeration_cap():
    with pytest.raises(ConfigurationError):
        WeylGroup(build_root_system("E", 7))


def test_from_word(a2):
    rs, W = a2
    w = W.from_word([1, 2, 1])
    assert w.length == 3
    assert w == W.from_word([2, 1, 2])
    assert W.from_word([]) == W.identity
    assert W.from_word([1, 1]) == W.identity
    with pytest.raises(ValueError):
        W.from_word([3])


def test_length_is_inversion_count(a3):
    rs, W = a3
    for w in W.elements():
        assert w.length == len(W.inversions(w))


def test_inverse_and_products(a3):
    rs, W = a3
    for w in list(W.elements())[::5]:
        assert (w * w.inverse()) == W.identity
        assert w.inverse().inverse() == w


def test_action_permutes_roots(a2):
    rs, W = a2
    allroots = set(rs.positive_roots) | {tuple(-c for c in a) for a in rs.positive_roots}
    for w in W.elements():
        assert {w.act(a) for a in allroots} == allroots


def test_min_coset_rep_examples(a2):
    rs, W = a2
    J1 = rs.parabolic((1,))
    w0 = W.longest_element()
    assert W.min_coset_rep(w0, J1) == W.from_word([1, 2])
    J2 = rs.parabolic((2,))
    assert W.min_coset_rep(W.from_word([1, 2]), J2) == W.simple_reflection(1)
    # elements of W_J decompose as (identity, themselves)
    for wid in W.subgroup_elements((1,)):
        u, v = W.parabolic_decompose(W.element(wid), J1)
        assert u == W.identity and v.index == wid


def test_parabolic_decompose_length_additive(a3):
    rs, W = a3
    for nodes in [(), (1,), (2,), (1, 3), (1, 2), (1, 2, 3)]:
        J = rs.parabolic(nodes)
        for w in W.elements():
            u, v = W.parabolic_decompose(w, J)
            assert (u * v) == w
            assert u.length + v.length == w.length
            assert W.in_min_coset_reps(u, J)


def test_longest_elements(a2, a3):
    rs, W = a2
    assert W.longest_element().length == 3
    assert W.longest_element(()).length == 0
    w0 = W.longest_element()
    assert w0 * w0 == W.identity
    rs3, W3 = a3
    w0J = W3.longest_element((1, 3))
    assert w0J.length == 2
    assert w0J == W3.from_word([1, 3])


def test_special_v(a2):
    rs, W = a2
    v1 = W.special_v(1)
    assert v1.length == 2 == rs.two_rho[0]
    rs1 = build_root_system("A", 1)
    W1 = WeylGroup(rs1)
    assert W1.special_v(1) == W1.longest_element()
    assert W1.special_v(1).length == 1


def test_special_v_c2():
    rs = build_root_system("C", 2)
    W = WeylGroup(rs)
    assert rs.special_nodes() == (2,)
    v = W.special_v(2)
    assert v.length == rs.two_rho[1] == 3
    with pytest.raises(ValueError):
        W.special_v(1)


def test_trichotomy(a2):
    rs, W = a2
    J = rs.parabolic((1,))
    e = W.identity
    assert W.trichotomy(e, (0, 1), J) is Trichotomy.UP
    assert W.trichotomy(e, (1, 0), J) is Trichotomy.FIXED
    w0 = W.longest_element()
    J0 = rs.parabolic(())
    for a in rs.positive_roots:
        assert W.trichotomy(w0, a, J0) is Trichotomy.DOWN
    with pytest.raises(ValueError):
        W.trichotomy(e, (-1, 0), J)


def test_bruhat_covers(a2):
    rs, W = a2
    assert set(W.bruhat_covers(W.identity)) == {
        W.simple_reflection(1),
        W.simple_reflection(2),
    }
    assert set(W.bruhat_covers(W.simple_reflection(1))) == {
        W.from_word([1, 2]),
        W.from_word([2, 1]),
    }


def test_bruhat_leq_against_cover_closure(a2):
    rs, W = a2
    # independent oracle: transitive closure of the cover relation
    reach = {w.index: {w.index} for w in W.elements()}
    changed = True
    while changed:
        changed = False
        for w in W.elements():
            for c in W.bruhat_covers(w):
                for t in reach[c.index]:
                    if t not in reach[w.index]:
                        reach[w.index].add(t)
                        changed = True
    for v in W.elements():
        for w in W.elements():
            assert W.bruhat_leq(v, w) == (w.index in reach[v.index])
    assert all(W.bruhat_leq(W.identity, w) for w in W.elements())


def test_one_line_rendering(a3):
    rs, W = a3
    assert W.one_line(W.identity) == (1, 2, 3, 4)
    assert W.describe(W.from_word([1, 2])) == "2314"
    rsb = build_root_system("B", 2)
    Wb = WeylGroup(rsb)
    assert Wb.describe(Wb.identity) == "e"
    assert Wb.describe(Wb.from_word([1, 2])) == "r1r2"
    with pytest.raises(ValueError):
        Wb.one_line(Wb.identity)


def test_conjugation_by_longest_preserves_length(a3):
    rs, W = a3
    w0 = W.longest_element()
    for w in W.elements():
        assert (w0 * w * w0).length == w.length


@pytest.mark.parametrize("cartan_type,rank", ROOT_TYPES)
def test_descents_and_inversion_flags_match_the_matrix_action(cartan_type, rank):
    rs = build_root_system(cartan_type, rank)
    W = WeylGroup(rs)
    simples = rs.simple_roots()
    # longest elements first, so the lazy flags walk whole words at once
    for wid in reversed(range(len(W))):
        w = W.element(wid)
        for i in range(1, rank + 1):
            assert W.has_right_descent(w, i) == (not is_positive_vec(w.act(simples[i - 1])))
        flags = W.inversion_flags(wid)
        assert len(flags) == len(rs.positive_roots)
        assert tuple(a for a, f in zip(rs.positive_roots, flags) if f) == W.inversions(w)
        assert sum(flags) == w.length
