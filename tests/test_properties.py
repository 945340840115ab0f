"""Property-based checks over randomly drawn words and coweights."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbgraph.affine import AffineElement, AffineRoot, AffineWeyl
from qbgraph.qbg import reflection_ordering_from_word
from qbgraph.root_system import add_vec, build_root_system, is_positive_vec
from qbgraph.weyl import WeylGroup

RS = build_root_system("A", 2)
W = WeylGroup(RS)
AW = AffineWeyl(W)
RS_B = build_root_system("B", 2)
W_B = WeylGroup(RS_B)
AW_B = AffineWeyl(W_B)

words = st.lists(st.integers(1, 2), max_size=8)
coweights = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@given(words, words)
def test_from_word_is_a_homomorphism(w1, w2):
    assert W.mul(W.from_word(w1).index, W.from_word(w2).index) == W.from_word(w1 + w2).index


@given(words)
def test_length_bounded_by_word_length(word):
    w = W.from_word(word)
    assert w.length <= len(word)
    assert (w.length - len(word)) % 2 == 0
    assert W._length[W._inverse[w.index]] == w.length


@given(words)
def test_action_preserves_pairing(word):
    w = W_B.from_word([min(i, 2) for i in word]).index
    for a in RS_B.positive_roots:
        for b in RS_B.positive_roots:
            lhs = RS_B.pairing(W_B.act_coroot(w, RS_B.coroot(a)), W_B.act(w, b))
            assert lhs == RS_B.pairing(RS_B.coroot(a), b)


@given(words, st.sampled_from([(), (1,), (2,)]))
def test_parabolic_decomposition_properties(word, nodes):
    J = RS.parabolic(nodes)
    w = W.from_word(word).index
    u, v = W.parabolic_decompose(w, J)
    assert W.mul(u, v) == w
    assert W._length[u] + W._length[v] == W._length[w]
    assert all(is_positive_vec(W.act(u, a)) for a in J.phi_plus)


@given(coweights, coweights, st.sampled_from([(), (1,), (2,)]))
def test_factor_map_homomorphism(mu, nu, nodes):
    J = RS.parabolic(nodes)
    za = AW.z_mu(mu, J)
    zb = AW.z_mu(nu, J)
    assert AW.z_mu(add_vec(mu, nu), J) == W.mul(za, zb)


@given(coweights, words, st.sampled_from([(), (1,), (2,)]))
def test_projection_idempotent(mu, word, nodes):
    J = RS.parabolic(nodes)
    x = AffineElement(W.from_word(word).index, mu)
    px = AW.project(x, J)
    assert AW.project(px, J) == px
    assert AW.in_wj_af(px, J)


@given(coweights, words)
def test_affine_length_formula(mu, word):
    x = AffineElement(W.from_word(word).index, mu)
    assert AW.length(x) == AW.length_by_inversions(x)


@given(coweights, coweights, words, words)
def test_affine_group_law(mu, nu, w1, w2):
    x = AffineElement(W.from_word(w1).index, mu)
    y = AffineElement(W.from_word(w2).index, nu)
    z = AW.mul(x, y)
    # lengths of products obey the triangle inequality
    assert AW.length(z) <= AW.length(x) + AW.length(y)
    assert AW.mul(z, AW.inv(y)) == x


@given(coweights, st.integers(-3, 3), st.sampled_from(RS.positive_roots), words)
def test_affine_action_is_linear_on_reflections(mu, k, alpha, word):
    x = AffineElement(W.from_word(word).index, mu)
    beta = AffineRoot(alpha, k)
    r = AW.reflection(beta)
    # conjugation moves the reflection to the image root
    img = AW.act(x, beta)
    assert AW.mul(AW.mul(x, r), AW.inv(x)) == AW.reflection(img)


@settings(deadline=None)
@given(st.permutations([1, 2, 1]))
def test_reduced_words_give_orderings(word):
    w = W.from_word(word)
    if w.length == 3:
        ordering = reflection_ordering_from_word(W, word)
        assert sorted(ordering.sequence) == sorted(RS.positive_roots)
        ordering.validate()
    else:
        with pytest.raises(ValueError):
            reflection_ordering_from_word(W, word)


@settings(deadline=None, max_examples=25)
@given(st.sampled_from([(), (1,), (2,)]), coweights)
def test_observable_membership(nodes, mu):
    J = RS_B.parabolic(nodes)
    mu = (max(-3, min(3, mu[0])), max(-3, min(3, mu[1])))
    adjusted = AW_B.is_adjusted(mu, J)
    assert adjusted == (AW_B.phi_correction(mu, J) == (0, 0))
    if adjusted:
        z = W_B.element(AW_B.z_mu(mu, J))
        assert z.length == -RS_B.pairing(mu, J.two_rho_J)
