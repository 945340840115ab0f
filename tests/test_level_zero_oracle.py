"""The level-zero poset against a plain reference closure.

The reference recomputes every raising step from the definition (pairings
through w^{-1} acting on coroots, by the matrix-keyed reference's comatrix
of w^{-1}, targets by minimal coset representatives) and closes them with
one breadth-first search per element, into Python sets.  It shares no table
with the poset: only the slice enumeration and the certification rule.
"""

import sys
from collections import deque

import pytest

from qbgraph.affine import AffineRoot
from qbgraph.level_zero import LevelZeroPoset, LevelZeroWeight
from qbgraph.qbg import BRUHAT, QUANTUM
from qbgraph.root_system import build_root_system, is_positive_vec, neg_vec
from qbgraph.weyl import WeylGroup
from test_weyl_enumeration import apply, reference

CASES = [("A", 2, (2, 1)), ("B", 2, (1, 1)), ("G", 2, (1, 0))]
EXTRA = (3, 5)  # the two windows are margin + 3 and margin + 5


class Reference:
    def __init__(self, P: LevelZeroPoset, window: int):
        self.P = P
        self.window = window
        _, self._comats, *_, self._inverse, _ = reference(P.rs.cartan_type, P.rs.rank)
        self.elems = P.slice_elements(window)
        self._steps: dict[LevelZeroWeight, list] = {}
        self.up = {mu: self._bfs(mu) for mu in self.elems}
        self._covers: dict[LevelZeroWeight, set] = {}
        self._longest: dict[LevelZeroWeight, dict] = {}

    def pair(self, coroot, w):
        moved = apply(self._comats[self._inverse[w]], coroot)
        return sum(c * v for c, v in zip(moved, self.P.lam))

    def steps(self, mu):
        """(nu, beta) for r_beta(mu) > mu with nu's delta part in the window."""
        got = self._steps.get(mu)
        if got is None:
            P, W, rs = self.P, self.P.W, self.P.rs
            got = []
            for alpha in rs.positive_roots:
                for root in (alpha, neg_vec(alpha)):
                    p = self.pair(rs.coroot(root), mu.w)
                    if p <= 0:
                        continue
                    target = W.coset_floor(W.mul(W.reflection(root).index, mu.w), P.J)
                    k = 0 if is_positive_vec(root) else 1
                    while mu.n - k * p >= -self.window:
                        got.append((LevelZeroWeight(target, mu.n - k * p),
                                    AffineRoot(root, k)))
                        k += 1
            self._steps[mu] = got
        return got

    def _bfs(self, mu):
        seen = set()
        queue = deque([mu])
        while queue:
            for nu, _ in self.steps(queue.popleft()):
                if nu not in seen:
                    seen.add(nu)
                    queue.append(nu)
        return seen

    def covers(self, mu):
        got = self._covers.get(mu)
        if got is None:
            ups = self.up[mu]
            got = {nu for nu in ups if not any(nu in self.up[rho] for rho in ups)}
            self._covers[mu] = got
        return got

    def labelled_covers(self, mu):
        out = []
        for nu in self.covers(mu):
            for tgt, b in self.steps(mu):
                if tgt == nu and b.k == (0 if is_positive_vec(b.alpha) else 1):
                    out.append((nu, b, BRUHAT if b.k == 0 else QUANTUM))
        return sorted(out, key=lambda c: (c[0].w, c[0].n, c[1].k, c[1].alpha))

    def dist(self, mu, nu):
        memo = self._longest.setdefault(nu, {nu: 0})

        def longest(rho):
            if rho not in memo:
                memo[rho] = 1 + max(
                    longest(up) for up in self.covers(rho)
                    if up == nu or nu in self.up[up]
                )
            return memo[rho]

        return longest(mu)


@pytest.fixture(scope="module", params=[(c, e) for c in CASES for e in EXTRA],
                ids=lambda p: f"{p[0][0]}{p[0][1]}-{p[0][2]}-m+{p[1]}")
def pair(request):
    (t, r, lam), extra = request.param
    P = LevelZeroPoset(WeylGroup(build_root_system(t, r)), lam)
    window = P.margin() + extra
    return P, Reference(P, window), window


def test_raising_steps_match(pair):
    # the steps the closure, covers and dist read: (target id, root, k) per
    # step out of an element's dense id, expanded from its coset's steps
    P, ref, window = pair
    levels = len(P.slice_levels(window))
    for mu in ref.elems:
        (i,) = P._ids(window, mu)
        got = [(ref.elems[j], AffineRoot(root, k))
               for j, root, k in P._step_ids(mu.w, i % levels, levels)]
        assert got == ref.steps(mu)


def test_leq_on_all_certified_pairs(pair):
    P, ref, window = pair
    cert = [mu for mu in ref.elems if P.certified(mu, window)]
    assert cert
    related = 0
    for mu in cert:
        for nu in cert:
            want = mu == nu or nu in ref.up[mu]
            assert P.leq(mu, nu, window) == want, (mu, nu)
            related += want and mu != nu
    assert related


def test_dist_on_comparable_pairs(pair):
    P, ref, window = pair
    cert = [mu for mu in ref.elems if P.certified(mu, window)]
    checked = 0
    for mu in cert:
        for nu in cert:
            if mu == nu or nu in ref.up[mu]:
                assert P.dist(mu, nu, window) == ref.dist(mu, nu), (mu, nu)
                checked += 1
    assert checked > len(cert)


def test_hasse_covers_match(pair):
    P, ref, window = pair
    hasse = P.hasse_covers(window)
    assert list(hasse) == [mu for mu in ref.elems if P.certified(mu, window)]
    for mu, covers in hasse.items():
        got = [(c.upper, c.label, c.kind) for c in covers]
        assert got == ref.labelled_covers(mu), mu
        assert all(c.lower == mu for c in covers)


def test_window_60_needs_no_recursion():
    """Closure, covers and a chain far longer than the stack allows."""
    W = WeylGroup(build_root_system("A", 2))
    P = LevelZeroPoset(W, (2, 1))
    window = 60
    e = W.identity.index
    low = window - P.margin()
    mu, nu = LevelZeroWeight(e, low), LevelZeroWeight(e, -low)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        reach = P._closure(window)
        length = P.dist(mu, nu, window)
    finally:
        sys.setrecursionlimit(limit)
    assert len(reach) == len(P.slice_elements(window))
    assert length > 200
