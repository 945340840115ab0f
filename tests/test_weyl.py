import pytest

from qbgraph.root_system import ConfigurationError, build_root_system, is_positive_vec
from qbgraph.verify import ROOT_TYPES, all_parabolics
from qbgraph.weyl import Trichotomy, WeylGroup, build_weyl_group
from test_weyl_enumeration import apply, reference


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
    with pytest.raises(ConfigurationError, match="enumeration cap"):
        build_weyl_group("E", 7)


def test_build_weyl_group_rejects_invalid_pairs():
    assert len(build_weyl_group("G", 2)) == 12
    for t, r in [("A", 0), ("B", 1), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 3), ("X", 2)]:
        with pytest.raises(ConfigurationError, match="invalid Cartan data"):
            build_weyl_group(t, r)


def test_from_word(a2):
    rs, W = a2
    w = W.from_word([1, 2, 1])
    assert w.length == 3
    assert w == W.from_word([2, 1, 2])
    assert W.from_word([]) == W.identity
    assert W.from_word([1, 1]) == W.identity
    with pytest.raises(ValueError):
        W.from_word([3])


def _inversions(W, w):
    """Reference: the positive roots that the element id w sends negative."""
    return tuple(a for a in W.rs.positive_roots if not is_positive_vec(W.act(w, a)))


def test_length_is_inversion_count(a3):
    rs, W = a3
    for w in range(len(W)):
        assert W._length[w] == len(_inversions(W, w))


def test_inverse_and_products(a3):
    rs, W = a3
    inverse = W._inverse
    for w in range(0, len(W), 5):
        assert W.mul(w, inverse[w]) == 0
        assert inverse[inverse[w]] == w


def test_action_permutes_roots(a2):
    rs, W = a2
    allroots = set(rs.positive_roots) | {tuple(-c for c in a) for a in rs.positive_roots}
    for w in range(len(W)):
        assert {W.act(w, a) for a in allroots} == allroots


def test_min_coset_rep_examples(a2):
    rs, W = a2
    J1 = rs.parabolic((1,))
    w0 = W.longest_element()
    assert W.min_coset_rep(w0, J1) == W.from_word([1, 2])
    J2 = rs.parabolic((2,))
    assert W.min_coset_rep(W.from_word([1, 2]), J2) == W.from_word([1])
    # elements of W_J decompose as (identity, themselves)
    for wid in W.subgroup_elements((1,)):
        u, v = W.parabolic_decompose(wid, J1)
        assert u == W.identity.index and v == wid


def test_parabolic_decompose_length_additive(a3):
    rs, W = a3
    for nodes in [(), (1,), (2,), (1, 3), (1, 2), (1, 2, 3)]:
        J = rs.parabolic(nodes)
        for w in range(len(W)):
            u, v = W.parabolic_decompose(w, J)
            assert W.mul(u, v) == w
            assert W._length[u] + W._length[v] == W._length[w]
            assert W.coset_floor(u, J) == u


def test_longest_elements(a2, a3):
    rs, W = a2
    assert W.longest_element().length == 3
    assert W.longest_element(()).length == 0
    w0 = W.longest()
    assert W.mul(w0, w0) == 0
    rs3, W3 = a3
    w0J = W3.longest_element((1, 3))
    assert w0J.length == 2
    assert w0J == W3.from_word([1, 3])


def _climb_to_longest(W, nodes):
    """Reference: go up by the given simple reflections until none lengthens."""
    length = W._length
    cur = 0
    while True:
        up = [s for s in (W.from_word((j,)).index for j in nodes)
              if length[W.mul(cur, s)] > length[cur]]
        if not up:
            return cur
        cur = W.mul(cur, up[0])


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("D", 4), ("G", 2)])
def test_longest_is_the_last_id_of_its_subgroup(cartan_type, rank):
    W = build_weyl_group(cartan_type, rank)
    assert W.longest() == len(W) - 1
    for nodes in all_parabolics(rank):
        want = _climb_to_longest(W, nodes)
        assert W.longest_element(nodes).index == W.longest(nodes) == want
        assert W._length[want] == max(W._length[i] for i in W.subgroup_elements(nodes))


@pytest.mark.parametrize("node", [0, -1, 4, 7])
def test_subgroup_elements_rejects_nodes_out_of_range(a3, node):
    rs, W = a3
    with pytest.raises(ValueError, match=f"generator index {node} out of range"):
        W.subgroup_elements((1, node))
    with pytest.raises(ValueError, match="out of range"):
        W.longest_element((node,))


def test_special_v(a2):
    rs, W = a2
    v1 = W.special_v(1)
    assert W._length[v1] == 2 == rs.two_rho[0]
    rs1 = build_root_system("A", 1)
    W1 = WeylGroup(rs1)
    assert W1.special_v(1) == W1.longest()
    assert W1._length[W1.special_v(1)] == 1


def test_special_v_c2():
    rs = build_root_system("C", 2)
    W = WeylGroup(rs)
    assert rs.special_nodes() == (2,)
    v = W.special_v(2)
    assert W._length[v] == rs.two_rho[1] == 3
    with pytest.raises(ValueError):
        W.special_v(1)


def test_trichotomy(a2):
    rs, W = a2
    J = rs.parabolic((1,))
    e = 0
    assert W.trichotomy(e, (0, 1), J) is Trichotomy.UP
    assert W.trichotomy(e, (1, 0), J) is Trichotomy.FIXED
    w0 = W.longest()
    J0 = rs.parabolic(())
    for a in rs.positive_roots:
        assert W.trichotomy(w0, a, J0) is Trichotomy.DOWN
    with pytest.raises(ValueError):
        W.trichotomy(e, (-1, 0), J)


def test_bruhat_covers(a2):
    rs, W = a2
    assert set(W.bruhat_covers(W.identity)) == {
        W.from_word([1]),
        W.from_word([2]),
    }
    assert set(W.bruhat_covers(W.from_word([1]))) == {
        W.from_word([1, 2]),
        W.from_word([2, 1]),
    }


def test_bruhat_leq_against_cover_closure(a2):
    rs, W = a2
    # independent oracle: transitive closure of the cover relation
    elements = [W.element(i) for i in range(len(W))]
    reach = {w.index: {w.index} for w in elements}
    changed = True
    while changed:
        changed = False
        for w in elements:
            for c in W.bruhat_covers(w):
                for t in reach[c.index]:
                    if t not in reach[w.index]:
                        reach[w.index].add(t)
                        changed = True
    for v in elements:
        for w in elements:
            assert W.bruhat_leq(v, w) == (w.index in reach[v.index])
    assert all(W.bruhat_leq(W.identity, w) for w in elements)


def test_one_line_rendering(a3):
    rs, W = a3
    assert W.one_line(0) == (1, 2, 3, 4)
    assert W.describe(W.from_word([1, 2]).index) == "2314"
    assert repr(W.from_word([1, 2])) == "W[2314]"
    rsb = build_root_system("B", 2)
    Wb = WeylGroup(rsb)
    assert Wb.describe(0) == "e"
    assert Wb.describe(Wb.from_word([1, 2]).index) == "r1r2"
    assert repr(Wb.identity) == "W[e]"
    with pytest.raises(ValueError):
        Wb.one_line(0)


def test_conjugation_by_longest_preserves_length(a3):
    rs, W = a3
    w0 = W.longest()
    for w in range(len(W)):
        assert W._length[W.mul(W.mul(w0, w), w0)] == W._length[w]


@pytest.mark.parametrize("cartan_type,rank", ROOT_TYPES)
def test_descents_and_inversion_flags_match_the_matrix_action(cartan_type, rank):
    # the inversions come from the matrix-keyed reference, not from the
    # permutation that both act and inversion_flags read
    rs = build_root_system(cartan_type, rank)
    W = WeylGroup(rs)
    mats = reference(cartan_type, rank)[0]
    simples = rs.simple_roots()
    length = W._length
    for w in reversed(range(len(W))):
        for i in range(1, rank + 1):
            descent = length[W._right[i - 1][w]] < length[w]
            assert descent == (not is_positive_vec(W.act(w, simples[i - 1])))
        flags = W.inversion_flags(w)
        assert len(flags) == len(rs.positive_roots)
        want = tuple(a for a in rs.positive_roots if not is_positive_vec(apply(mats[w], a)))
        assert tuple(a for a, f in zip(rs.positive_roots, flags) if f) == want
        assert sum(flags) == length[w]


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_multiply_equals_the_right_walk(cartan_type, rank):
    W = build_weyl_group(cartan_type, rank)
    for w in range(len(W)):
        for u in range(len(W)):
            cur = w
            for k in W._word[u]:
                cur = W._right[k - 1][cur]
            assert W.mul(w, u) == cur


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_parabolic_decompose_matches_concatenated_words(cartan_type, rank):
    # the reference product is from_word on the concatenated words, which
    # shares no code with mul
    W = build_weyl_group(cartan_type, rank)
    for nodes in all_parabolics(rank):
        J = W.rs.parabolic(nodes)
        wj = set(W.subgroup_elements(J.nodes))
        for w in range(len(W)):
            u, v = map(W.element, W.parabolic_decompose(w, J))
            assert W.coset_floor(u.index, J) == u.index and v.index in wj
            assert W.from_word(u.word + v.word).index == w
            assert u.length + v.length == W._length[w]


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_theta_twist_is_the_parabolic_factor_of_r_theta_floor(cartan_type, rank):
    W = build_weyl_group(cartan_type, rank)
    r_theta = W.reflection(W.rs.theta).word
    for nodes in all_parabolics(rank):
        J = W.rs.parabolic(nodes)
        wj = set(W.subgroup_elements(J.nodes))
        for w in map(W.element, range(len(W))):
            lhs = W.from_word(r_theta + W.min_coset_rep(w, J).word)
            z = W.element(W.theta_twist(w.index, J))
            # the factorization lhs = floor(lhs) z with z in W_J is unique
            assert z.index in wj
            assert W.from_word(W.min_coset_rep(lhs, J).word + z.word) == lhs
