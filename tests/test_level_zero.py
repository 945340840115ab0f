import random
from collections import Counter

import pytest

from qbgraph.affine import AffineRoot, affine_simple_root
from qbgraph.level_zero import InconclusiveWindow, LevelZeroPoset, LevelZeroWeight, PosetCover
from qbgraph.qbg import BRUHAT, QUANTUM, GraphInvariantError
from qbgraph.root_system import build_root_system, neg_vec
from qbgraph.verify import run_suite
from qbgraph.weyl import WeylGroup


@pytest.fixture(scope="module")
def a2():
    rs = build_root_system("A", 2)
    return rs, WeylGroup(rs)


@pytest.fixture(scope="module")
def poset(a2):
    return LevelZeroPoset(a2[1], (2, 1))


def window(poset):
    return 3 + poset.margin()


def test_context(a2, poset):
    rs, W = a2
    assert poset.J.nodes == ()
    assert poset.d == 1
    lam10 = LevelZeroPoset(W, (1, 0))
    assert lam10.J.nodes == (2,)
    assert len(lam10.graph.vertices) == 3


def test_rejects_bad_weights(a2):
    rs, W = a2
    with pytest.raises(ValueError):
        LevelZeroPoset(W, (0, 0))
    with pytest.raises(ValueError):
        LevelZeroPoset(W, (1, -1))
    with pytest.raises(ValueError):
        LevelZeroPoset(W, (1,))


def test_defining_relation(a2, poset):
    rs, W = a2
    lam = LevelZeroWeight(W.identity.index, 0)
    win = window(poset)
    # lambda regular: lambda < r_{alpha_1} lambda at the same delta layer
    up = poset.reflect(lam, AffineRoot((1, 0), 0))
    assert up.n == 0 and up.w == W.from_word([1]).index
    assert poset.leq(lam, up, win)
    assert poset.leq(lam, lam, win)
    assert not poset.leq(up, lam, win)


def test_window_certification(a2, poset):
    rs, W = a2
    deep = LevelZeroWeight(W.identity.index, 3 + 1)
    with pytest.raises(InconclusiveWindow):
        poset.leq(deep, LevelZeroWeight(W.identity.index, 0), window(poset))


def test_slice_sizes(poset):
    assert len(poset.slice_elements(1)) == 18
    assert len(poset.slice_elements(0)) == 6


def test_covers_project_to_graph(a2, poset):
    rs, W = a2
    for mu in poset.slice_elements(0):
        covers = poset.covers(mu)
        assert len(covers) == len(poset.graph.out[mu.w])
        for c in covers:
            assert (c.kind == BRUHAT) == (c.label.k == 0)
            # the classical part of the label moves back to the edge label
            gamma = W.act(W._inverse[mu.w], c.label.alpha)
            edge = poset.graph.edge(mu.w, gamma)
            assert edge is not None
            assert edge.target == c.upper.w and edge.kind == c.kind


def test_quantum_cover_delta_drop(a2, poset):
    rs, W = a2
    w0 = W.longest_element()
    mu = LevelZeroWeight(w0.index, 0)
    quantum = [c for c in poset.covers(mu) if c.kind == QUANTUM]
    theta_cover = [c for c in quantum if c.upper.w == W.identity.index]
    assert len(theta_cover) == 1
    c = theta_cover[0]
    # label delta - theta, delta layer drops by <theta^vee, lambda> = 3
    assert c.label == AffineRoot(neg_vec(rs.theta), 1)
    assert c.upper.n == -3
    # agreement with the brute-force order
    win = window(poset)
    hasse = poset.hasse_covers(win)
    assert any(
        hc.upper == c.upper and hc.label == c.label for hc in hasse[mu]
    )


def test_hasse_equals_graph_covers(a2):
    rs, W = a2
    for lam in [(2, 1), (1, 0), (1, 1)]:
        P = LevelZeroPoset(W, lam)
        win = 3 + P.margin()
        for mu, covers in P.hasse_covers(win).items():
            brute = sorted(
                ((c.upper.w, c.upper.n), (c.label.alpha, c.label.k)) for c in covers
            )
            theo = sorted(
                ((c.upper.w, c.upper.n), (c.label.alpha, c.label.k))
                for c in P.covers(mu)
            )
            assert brute == theo


def test_simple_reflection_covers(a2, poset):
    rs, W = a2
    win = window(poset)
    for mu in poset.hasse_covers(win):
        for i in range(0, rs.rank + 1):
            if poset.affine_simple_pairing(i, mu) > 0:
                nu = poset.reflect(mu, affine_simple_root(rs, i))
                if poset.certified(nu, win):
                    assert poset.dist(mu, nu, win) == 1


def test_dist(a2, poset):
    rs, W = a2
    win = window(poset)
    e = LevelZeroWeight(W.identity.index, 0)
    assert poset.dist(e, e, win) == 0
    r1 = LevelZeroWeight(W.from_word([1]).index, 0)
    assert poset.dist(e, r1, win) == 1
    # distance two realized by two stacked simple covers, cross-checked
    # against explicit chain enumeration
    r1r2 = LevelZeroWeight(W.from_word([1, 2]).index, 0)
    assert poset.dist(e, r1r2, win) == 2
    hasse = poset.hasse_covers(win)
    lengths = []

    def chains(cur, depth):
        if cur == r1r2:
            lengths.append(depth)
            return
        for c in hasse.get(cur, ()):
            if c.upper == r1r2 or (
                c.upper in hasse and poset.leq(c.upper, r1r2, win)
            ):
                chains(c.upper, depth + 1)

    chains(e, 0)
    assert lengths and max(lengths) == 2
    with pytest.raises(ValueError):
        poset.dist(r1, e, win)


def test_not_graded(a2, poset):
    rs, W = a2
    win = window(poset)
    hasse = poset.hasse_covers(win)
    mu = LevelZeroWeight(W.identity.index, -1)
    nu = LevelZeroWeight(W.identity.index, -3)
    assert poset.leq(mu, nu, win)
    lengths = set()

    def chains(cur, depth):
        if cur == nu:
            lengths.add(depth)
            return
        for c in hasse.get(cur, ()):
            if c.upper == nu or (c.upper in hasse and poset.leq(c.upper, nu, win)):
                chains(c.upper, depth + 1)

    chains(mu, 0)
    # saturated chains of different lengths: the poset is not graded
    assert lengths == {2, 4}
    assert poset.dist(mu, nu, win) == 4


def test_duality(a2, poset):
    rs, W = a2
    win = window(poset)
    neg = LevelZeroPoset(W, (-2, -1))
    hasse = poset.hasse_covers(win)
    for mu in list(hasse)[::4]:
        for c in hasse[mu][:2]:
            nu = c.upper
            if not poset.certified(nu, win):
                continue
            assert neg.leq(
                LevelZeroWeight(nu.w, -nu.n), LevelZeroWeight(mu.w, -mu.n), win
            )
    with pytest.raises(ValueError):
        neg.covers(LevelZeroWeight(0, 0))


def test_rerun_with_larger_window_is_stable(a2):
    rs, W = a2
    P = LevelZeroPoset(W, (1, 1))
    win = 2 + P.margin()
    base = {
        mu: [(c.upper, c.label) for c in covers]
        for mu, covers in P.hasse_covers(win).items()
    }
    bigger = P.hasse_covers(win + 4)
    for mu, covers in base.items():
        assert [(c.upper, c.label) for c in bigger[mu]] == covers


@pytest.mark.parametrize("lower_is_bad", [True, False], ids=["lower", "upper"])
@pytest.mark.parametrize("bad", [(0, 1), ("r1", 0)], ids=["odd-n", "w-not-in-WJ"])
def test_off_grid_elements_raise_in_either_position(lower_is_bad, bad):
    # B2, lambda = (0, 2): J = {1} and d = 2, so n = 1 and r_1 are off grid
    rs = build_root_system("B", 2)
    W = WeylGroup(rs)
    P = LevelZeroPoset(W, (0, 2))
    w, n = bad
    bad = LevelZeroWeight(W.from_word([1]).index if w == "r1" else w, n)
    good = LevelZeroWeight(W.identity.index, 0)
    args = (bad, good) if lower_is_bad else (good, bad)
    win = 2 + P.margin()
    for query in (P.leq, P.dist):
        with pytest.raises(ValueError, match="off the orbit grid") as info:
            query(*args, win)
        assert str(bad) in str(info.value)


@pytest.mark.parametrize("cartan_type,rank,lam", [("A", 2, (2, 1)), ("B", 2, (1, 1)), ("G", 2, (1, 0))])
def test_dist_reuses_its_table_without_changing_answers(cartan_type, rank, lam):
    """One poset answers every certified comparable pair, in a shuffled
    order and at two windows, exactly as a poset with an empty memo does."""
    W = WeylGroup(build_root_system(cartan_type, rank))
    P = LevelZeroPoset(W, lam)
    fresh = LevelZeroPoset(W, lam)
    rng = random.Random(7)
    checked = 0
    for window in (P.margin() + 1, P.margin() + 2):
        elems = [m for m in P.slice_elements(window) if P.certified(m, window)]
        pairs = [(a, b) for a in elems for b in elems if P.leq(a, b, window)]
        rng.shuffle(pairs)
        for mu, nu in pairs:
            fresh._dist_cache.clear()
            assert P.dist(mu, nu, window) == fresh.dist(mu, nu, window), (mu, nu, window)
            checked += 1
    assert checked > 100


def test_dist_walks_each_step_list_once(monkeypatch):
    """Over the level-zero suite, dist walks each element's raising steps at
    most once per (poset, window, element, level): a new nu prunes the kept
    list instead of walking it again."""
    step_ids, dist = LevelZeroPoset._step_ids, LevelZeroPoset.dist
    inside = []
    walks, yields = Counter(), Counter()

    def counted_step_ids(self, w, lev, levels):
        key = (self, w, lev, levels)  # holds self, so no id is reused
        if inside:
            walks[key] += 1
        for got in step_ids(self, w, lev, levels):
            if inside:
                yields[key] += 1
            yield got

    def flagged_dist(self, mu, nu, window):
        inside.append(True)
        try:
            return dist(self, mu, nu, window)
        finally:
            inside.pop()

    monkeypatch.setattr(LevelZeroPoset, "_step_ids", counted_step_ids)
    monkeypatch.setattr(LevelZeroPoset, "dist", flagged_dist)
    assert run_suite("level-zero").passed
    assert len(walks) > 100 and sum(yields.values()) > 1000
    assert max(walks.values()) == 1


def reference_covers(P, mu):
    """The graph-derived covers of mu computed from its edges, per call."""
    out = []
    for edge in P.graph.out[mu.w]:
        wgamma = P.W.act(mu.w, edge.label)
        if edge.kind == BRUHAT:
            upper, label = LevelZeroWeight(edge.target, mu.n), AffineRoot(wgamma, 0)
        else:
            drop = sum(c * v for c, v in zip(P.rs.coroot(edge.label), P.lam))
            upper, label = LevelZeroWeight(edge.target, mu.n - drop), AffineRoot(wgamma, 1)
        out.append(PosetCover(mu, upper, label, edge.kind))
    return sorted(out, key=lambda c: (c.upper.w, c.upper.n, c.label.k))


@pytest.mark.parametrize("cartan_type,rank,lam", [
    ("A", 2, (2, 1)), ("A", 3, (1, 0, 1)), ("B", 2, (0, 1)), ("C", 3, (0, 1, 0)),
    ("G", 2, (1, 0)),
])
def test_covers_are_the_per_coset_covers_shifted_by_n(cartan_type, rank, lam):
    P = LevelZeroPoset(WeylGroup(build_root_system(cartan_type, rank)), lam)
    for mu in P.slice_elements(2 * P.d):
        assert P.covers(mu) == reference_covers(P, mu)


def test_leq_computes_one_layout_per_query(monkeypatch):
    """A batch of leq queries against a built closure reads the window's
    layout once per query, for both of its ids, with the same answers."""
    W = WeylGroup(build_root_system("A", 2))
    P = LevelZeroPoset(W, (2, 1))
    window = P.margin() + 2
    elems = [m for m in P.slice_elements(window) if P.certified(m, window)]
    pairs = [(a, b) for a in elems for b in elems if a != b]
    want = [P.leq(a, b, window) for a, b in pairs]
    calls = []
    layout = P._layout
    monkeypatch.setattr(P, "_layout", lambda win: calls.append(win) or layout(win))
    assert [P.leq(a, b, window) for a, b in pairs] == want
    assert any(want) and not all(want)
    assert len(calls) == len(pairs)


@pytest.mark.parametrize(
    "cartan_type,lam,window,d",
    [("A", (2, 2), 3, 2), ("G", (2, 0), 5, 2), ("C", (0, 2, 2), 7, 2), ("B", (0, 1), 2, 1)],
)
def test_window_covers_are_the_covers_inside_the_window(cartan_type, lam, window, d):
    poset = LevelZeroPoset(WeylGroup(build_root_system(cartan_type, len(lam))), lam)
    assert poset.d == d
    elems = poset.slice_elements(window)
    pos = {mu: i for i, mu in enumerate(elems)}
    every = [(mu, c) for mu in elems for c in poset.covers(mu)]
    want = [(pos[mu], pos[c.upper], c.label, c.kind) for mu, c in every if c.upper in pos]
    assert 0 < len(want) < len(every)  # some covers fall below the window
    assert list(poset.window_covers(window)) == want


@pytest.mark.parametrize("cartan_type,rank,lam", [("A", 2, (2, 1)), ("B", 2, (0, 1)),
                                                  ("G", 2, (1, 0))])
def test_a_raising_step_that_keeps_its_height_trips_its_check(cartan_type, rank, lam):
    # with the height pairing sabotaged to zero, every step at k = 0 keeps
    # the height, so the first coset with such a step raises, named
    rs = build_root_system(cartan_type, rank)
    P = LevelZeroPoset(WeylGroup(rs), lam)
    # a coset other than e's with a raising step at k = 0
    intact = LevelZeroPoset(P.W, lam)
    w = next(v for v in P.graph.vertices[1:] if any(k == 0 for *_, k in intact._steps(v)))
    P._two_rho_vee = rs.zero
    for _ in range(2):
        with pytest.raises(GraphInvariantError,
                           match=rf"^raising step from coset {w} keeps its height$"):
            list(P._step_ids(w, 0, 1))
    assert w not in P._steps_cache
