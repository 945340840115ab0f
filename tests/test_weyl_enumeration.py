"""Weyl enumeration from the orbit of rho against a matrix-keyed reference.

The reference is a breadth-first search that interns each element by its
matrix action on the simple roots, composing with a simple reflection by
rewriting the rows it moves; it never looks at weights.  The engine must
give the same ids, words, lengths, right table, inverses and reflection
rows; its action, read from each element's signed root permutation, must
send the simple roots and coroots where the reference matrices do; and it
must build permutations, comatrices and rows only when they are asked for.

Other test modules import ``reference``, ``word_matrix`` and ``apply``
from here as their matrix references of the group's action.
"""

import gc
import random
import sys
import threading
import tracemalloc
from operator import sub

import pytest

from qbgraph.qbg import build_qbg
from qbgraph.root_system import build_root_system
from qbgraph.verify import ROOT_TYPES
from qbgraph.weyl import WeylGroup, build_weyl_group

EXTRA_TYPES = [("D", 5), ("A", 6), ("E", 6), ("B", 5), ("C", 5)]


def _times_simple(mat, k, coeffs):
    out = list(mat)
    for j, c in coeffs:
        out[j] = tuple(map(sub, mat[j], map(c.__mul__, mat[k])))
    return tuple(out)


def reference_enumeration(rs):
    """(matrices, comatrices, lengths, words, right table, inverses, index
    by matrix), with ids in breadth-first order over right multiplication."""
    n = rs.rank
    a = rs.cartan
    root_coeffs = [[(j, a[k][j]) for j in range(n) if a[k][j]] for k in range(n)]
    coroot_coeffs = [[(j, a[j][k]) for j in range(n) if a[j][k]] for k in range(n)]
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    mats, comats, length, word = [ident], [ident], [0], [()]
    index = {ident: 0}
    right = [[-1] * n]
    head = 0
    while head < len(mats):
        cur = head
        head += 1
        for k in range(n):
            new = _times_simple(mats[cur], k, root_coeffs[k])
            found = index.get(new)
            if found is None:
                found = index[new] = len(mats)
                mats.append(new)
                comats.append(_times_simple(comats[cur], k, coroot_coeffs[k]))
                length.append(length[cur] + 1)
                word.append(word[cur] + (k + 1,))
                right.append([-1] * n)
            right[cur][k] = found
    inverse = []
    for wrd in word:
        cur = 0
        for k in reversed(wrd):
            cur = right[cur][k - 1]
        inverse.append(cur)
    return mats, comats, length, word, right, inverse, index


def word_matrix(rs, word):
    """The rows w(alpha_j) over the simple roots, for w the product of a
    word of 1-based node indices, from the word and the Cartan matrix
    alone."""
    n, a = rs.rank, rs.cartan
    mat = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for k in word:
        k -= 1
        mat = _times_simple(mat, k, [(j, a[k][j]) for j in range(n) if a[k][j]])
    return mat


def apply(mat, v):
    """The image of v under the matrix whose rows are the images of the
    basis vectors."""
    return tuple(map(sum, zip(*([c * x for x in row] for c, row in zip(v, mat)))))


def simple_images(W, w):
    """The rows w(alpha_j), read from the engine's action."""
    return tuple(W.act(w, s) for s in W.rs.simple_roots())


_REFERENCES: dict = {}


def reference(cartan_type, rank):
    key = (cartan_type, rank)
    if key not in _REFERENCES:
        _REFERENCES[key] = reference_enumeration(build_root_system(cartan_type, rank))
    return _REFERENCES[key]


def times_reflection(rs, mat, beta):
    """The matrix of w r_beta from w's: (w r_beta)(alpha_j) is
    w(alpha_j) - <beta^vee, alpha_j> w(beta), with w(beta) the sum of
    beta_i w(alpha_i)."""
    w_beta = [0] * rs.rank
    for c, row in zip(beta, mat):
        for i, x in enumerate(row):
            w_beta[i] += c * x
    cor = rs.coroot(beta)
    out = []
    for j, row in enumerate(mat):
        pair = rs.pairing(cor, tuple(int(i == j) for i in range(rs.rank)))
        out.append(tuple(x - pair * y for x, y in zip(row, w_beta)))
    return tuple(out)


_ROWS: dict = {}


def reference_row(rs, w):
    """The ids of w r_beta over the positive roots, by the matrix definition."""
    key = (rs.cartan_type, rs.rank, w)
    if key not in _ROWS:
        mats, *_, index = reference(rs.cartan_type, rs.rank)
        _ROWS[key] = [index[times_reflection(rs, mats[w], beta)] for beta in rs.positive_roots]
    return _ROWS[key]


@pytest.mark.parametrize("cartan_type,rank", ROOT_TYPES + EXTRA_TYPES)
def test_enumeration_matches_the_matrix_keyed_reference(cartan_type, rank):
    mats, comats, length, word, right, inverse, _ = reference(cartan_type, rank)
    W = WeylGroup(build_root_system(cartan_type, rank))
    assert len(W) == len(mats)
    # the tables are compared through tuple views of their compact layout:
    # byte words, and the right table held as one column per node
    assert [tuple(wrd) for wrd in W._word] == word
    assert list(W._length) == length
    assert [list(row) for row in zip(*W._right)] == right
    assert list(W._inverse) == inverse
    assert [simple_images(W, i) for i in range(len(W))] == mats
    assert [W.comatrix(i) for i in range(len(W))] == comats
    assert [W.from_word(wrd).index for wrd in word] == list(range(len(mats)))
    # ids run in (length, shortlex word) order, which vertex lists rely on
    assert sorted(range(len(W)), key=lambda i: (length[i], word[i])) == list(range(len(W)))


@pytest.mark.parametrize("order", ["longest-first", "reversed", "shuffled"])
@pytest.mark.parametrize("cartan_type,rank", [("B", 3), ("F", 4), ("G", 2)])
def test_lazy_matrices_do_not_depend_on_query_order(cartan_type, rank, order):
    mats, comats, length, *_ = reference(cartan_type, rank)
    W = WeylGroup(build_root_system(cartan_type, rank))
    ids = list(range(len(W)))
    if order == "longest-first":
        ids.sort(key=lambda i: -length[i])
    elif order == "reversed":
        ids.reverse()
    else:
        random.Random(7).shuffle(ids)
    for i in ids:
        assert simple_images(W, i) == mats[i]
        assert W.act_coroot(i, (1,) * rank) == tuple(map(sum, zip(*comats[i])))
    for i in ids:
        assert W.comatrix(i) == comats[i]


def test_lazy_matrices_under_threads():
    # threads reading one group: fills racing down shared word prefixes
    # must still leave every permutation, comatrix and reflection row right
    rs = build_root_system("F", 4)
    mats, comats, *_ = reference("F", 4)
    rows = [reference_row(rs, w) for w in range(len(mats))]
    W = WeylGroup(rs)
    errors = []

    def work(seed):
        try:
            ids = list(range(len(W)))
            random.Random(seed).shuffle(ids)
            for i in ids:
                if (simple_images(W, i) != mats[i] or W.comatrix(i) != comats[i]
                        or W.reflection_row(i) != rows[i]):
                    errors.append(i)
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


@pytest.mark.parametrize("cartan_type,rank", ROOT_TYPES)
def test_reflection_is_the_element_whose_matrix_is_r_alpha(cartan_type, rank):
    rs = build_root_system(cartan_type, rank)
    *_, index = reference(cartan_type, rank)
    W = WeylGroup(rs)
    for alpha in rs.positive_roots:
        want = tuple(rs.reflect(alpha, s) for s in rs.simple_roots())
        r = W.reflection(alpha)
        assert r.index == index[want]
        assert simple_images(W, r.index) == want
        assert W.reflection(tuple(-c for c in alpha)) == r
    with pytest.raises(ValueError):
        W.reflection((2,) * rank)


@pytest.mark.parametrize("cartan_type,rank", [("A", 1), ("A", 3), ("B", 3), ("G", 2), ("F", 4)])
def test_reflecting_by_key_is_multiplication_by_the_reflection(cartan_type, rank):
    rs = build_root_system(cartan_type, rank)
    W = WeylGroup(rs)
    refl = {a: W.reflection(a).index for a in rs.positive_roots}
    for w in range(len(W)):
        for a, r in refl.items():
            neg = tuple(-c for c in a)
            assert W.right_reflect(w, a) == W.mul(w, r)
            assert W.right_reflect(w, neg) == W.mul(w, r)
            assert W.left_reflect(w, a) == W.mul(r, w)
            assert W.left_reflect(w, neg) == W.mul(r, w)


def test_graph_build_builds_few_matrices():
    rs = build_root_system("E", 6)
    W = WeylGroup(rs)
    graph = build_qbg(W, rs.parabolic((2, 3, 4, 5, 6)))
    assert len(graph.vertices) == 27
    built = len(W._perms)
    assert built < len(W) // 100 and len(W._comat) < len(W) // 100
    assert len(W._refl_rows) < len(W) // 100
    # asking for one comatrix builds its permutation and those of the
    # prefixes of its word only
    w0 = W.longest_element().index
    W.comatrix(w0)
    assert len(W._perms) <= built + W._length[w0]
    assert len(W._comat) < len(W) // 100


def fill_order(ids, length, order):
    ids = list(ids)
    if order == "longest-first":
        ids.sort(key=lambda i: -length[i])
    elif order == "shuffled":
        random.Random(11).shuffle(ids)
    return ids


@pytest.mark.parametrize("order", ["id", "longest-first", "shuffled"])
@pytest.mark.parametrize("cartan_type,rank", ROOT_TYPES)
def test_reflection_rows_match_the_matrix_definition(cartan_type, rank, order):
    rs = build_root_system(cartan_type, rank)
    ref = reference(cartan_type, rank)
    W = WeylGroup(rs)
    for w in fill_order(range(len(W)), ref[2], order):
        assert W.reflection_row(w) == reference_row(rs, w), w


@pytest.mark.parametrize("order", ["id", "longest-first", "shuffled"])
@pytest.mark.parametrize("cartan_type,rank", [("A", 6), ("E", 6)])
def test_reflection_rows_of_a_sample_match_the_matrix_definition(cartan_type, rank, order):
    rs = build_root_system(cartan_type, rank)
    ref = reference(cartan_type, rank)
    W = WeylGroup(rs)
    sample = random.Random(5).sample(range(len(W)), 150) + [len(W) - 1]
    for w in fill_order(sample, ref[2], order):
        assert W.reflection_row(w) == reference_row(rs, w), w


@pytest.mark.parametrize("cartan_type,rank", [("A", 1), ("B", 3), ("G", 2)])
def test_right_reflect_rejects_non_roots(cartan_type, rank):
    W = WeylGroup(build_root_system(cartan_type, rank))
    for bad in [(0,) * rank, (2,) * rank, (1,) * (rank + 1), (3,) + (0,) * (rank - 1)]:
        with pytest.raises(ValueError):
            W.right_reflect(len(W) - 1, bad)
        with pytest.raises(ValueError):
            W.left_reflect(0, bad)


@pytest.mark.parametrize("cartan_type,rank", ROOT_TYPES)
def test_words_are_tuples_at_the_boundary(cartan_type, rank):
    _, _, _, word, *_ = reference(cartan_type, rank)
    W = WeylGroup(build_root_system(cartan_type, rank))
    for w in map(W.element, range(len(W))):
        assert type(w.word) is tuple
        assert w.word == word[w.index]


@pytest.mark.parametrize("cartan_type,rank", [("A", 6), ("D", 5)])
def test_enumeration_stays_under_300_bytes_per_element(cartan_type, rank):
    """The peak of the memory traced while the group is built, over its
    order: the packed keys, byte words and right columns keep it low."""
    build_weyl_group(cartan_type, rank)  # module-level caches fill first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        W = build_weyl_group(cartan_type, rank)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (peak - before) / len(W) <= 300
