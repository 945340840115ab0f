"""The level-zero weight poset on the affine orbit of a dominant weight.

Elements w(lambda) + n*delta are stored as (coset id, n).  The order is the
transitive closure of mu < r_beta(mu) whenever the positive affine root beta
pairs positively with mu; ascending chains never increase n, so reachability
inside an n-window is exact for pairs inside it.

Layout.  Everything that depends on the coset alone is computed once per
coset id and kept:

- ``_weights[w]``: w(lambda) over the fundamental weights, entry i being
  <(w^{-1} alpha_i)^vee, lambda>, read through ``W.act``; every pairing
  <beta^vee, w(lambda)> is then one dot product;
- ``_steps_cache[w]``: the raising-step data (root, pairing p > 0, target
  coset, first k) of every root pairing positively, alpha before -alpha in
  the order of the positive roots.  The steps out of (w, n) are the elements
  (target, n - k*p) for k = first k, first k + 1, ..., so ``_step_ids``
  only expands n;
- ``_cover_cache[w]``: the graph-derived covers out of w(lambda) + 0*delta
  (target coset, delta drop, label, kind), in output order, as
  ``coset_covers`` returns them; ``covers`` shifts them by n, and
  ``window_covers`` by level, onto dense ids.

An n-window numbers its slice elements densely: the element (w, n) gets id
``c * levels + (n - n_lo) // d``, where c is the position of w in
``graph.vertices`` and ``n_lo`` the lowest delta part of the window; that
is the order of ``slice_elements``.  The window's closure is a list of
Python-int bitsets over these ids: bit j of ``reach[i]`` is set when element
j lies strictly above element i.  It is built in one loop, with no recursion,
over the elements in increasing (n, <2rho^vee, cl(mu)>): a raising step
lowers n, or keeps n and lowers that height, so every element's steps land
on elements already done (a post-order of the step graph).  A raising step
nu of mu is a cover exactly when nu's bit is absent from the OR of
``reach[rho]`` over the rho above mu; that OR equals the OR over the raising
steps of mu alone.  ``dist`` finds longest chains over the raising steps
that stay at or above nu's level, testing "reaches nu" with one bit
operation, and keeps one table of chain lengths per (window, nu).  It
reads each element's raising steps from one list per (window, element),
walked on first use; a step list shifted by nu's level serves every nu.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import NamedTuple

from .qbg import BRUHAT, QUANTUM, GraphInvariantError, QbgGraph, build_qbg
from .root_system import AffineRoot, Coroot, Root, add_vec, is_positive_vec, neg_vec
from .weyl import WeylGroup

#: a raising step of one coset: (root, pairing p > 0, target coset id, first k)
Step = tuple[Root, int, int, int]
#: a graph-derived cover of one coset at n = 0: (target coset id, delta drop, label, kind)
CosetCover = tuple[int, int, AffineRoot, str]


class InconclusiveWindow(RuntimeError):
    """The requested query cannot be certified inside the given window."""


class LevelZeroWeight(NamedTuple):
    """The orbit element w(lambda) + n*delta, by coset id and delta part."""

    w: int
    n: int


class PosetCover(NamedTuple):
    lower: LevelZeroWeight
    upper: LevelZeroWeight
    label: AffineRoot
    kind: str


class LevelZeroPoset:
    """Order queries and cover relations for one weight orbit.

    ``lam`` is given over the fundamental weights; it must be dominant
    (all entries >= 0) or antidominant (all <= 0) and nonzero.  Cover
    computation through the graph is only offered for dominant ``lam``.
    """

    def __init__(self, W: WeylGroup, lam: tuple[int, ...]):
        rs = W.rs
        if len(lam) != rs.rank:
            raise ValueError("lambda has the wrong rank")
        if all(c == 0 for c in lam):
            raise ValueError("lambda must be nonzero (stabilizer would be all of W)")
        if not (all(c >= 0 for c in lam) or all(c <= 0 for c in lam)):
            raise ValueError("lambda must be dominant or antidominant")
        self.W = W
        self.rs = rs
        self.lam = tuple(lam)
        self.dominant = all(c >= 0 for c in lam)
        self.J = rs.parabolic(i + 1 for i, c in enumerate(lam) if c == 0)
        self.d = gcd(*(abs(c) for c in lam))
        self.graph: QbgGraph = build_qbg(W, self.J)
        two_rho_vee = (0,) * rs.rank
        for a in rs.positive_roots:
            two_rho_vee = add_vec(two_rho_vee, rs.coroot(a))
        self._two_rho_vee = two_rho_vee
        self._weights: dict[int, tuple[int, ...]] = {}
        self._steps_cache: dict[int, tuple[Step, ...]] = {}
        self._cover_cache: dict[int, tuple[CosetCover, ...]] = {}
        self._margin = len(rs.positive_roots) * max(
            abs(self.pair(rs.coroot(a), 0)) for a in rs.positive_roots
        )
        self._closure_cache: dict[int, list[int]] = {}
        self._hasse_cache: dict[int, dict[LevelZeroWeight, list[PosetCover]]] = {}
        # longest chain from each id up to nu, per (window, id of nu)
        self._dist_cache: dict[tuple[int, int], dict[int, int]] = {}
        # the distinct raising-step targets of each id, per (window, id)
        self._step_lists: dict[tuple[int, int], tuple[int, ...]] = {}

    # -- pairings ------------------------------------------------------------

    def _weight(self, w: int) -> tuple[int, ...]:
        """w(lambda) over the fundamental weights, kept per coset id: entry i
        is <alpha_i^vee, w(lambda)> = <(w^{-1} alpha_i)^vee, lambda>."""
        got = self._weights.get(w)
        if got is None:
            W, coroot = self.W, self.rs.coroot
            winv = W._inverse[w]
            got = self._weights[w] = tuple(
                sum(map(mul, coroot(W.act(winv, a)), self.lam)) for a in self.rs.simple_roots()
            )
        return got

    def pair(self, coroot: Coroot, w: int) -> int:
        """<coroot, w(lambda)>."""
        return sum(map(mul, coroot, self._weight(w)))

    def weight_coordinates(self, mu: LevelZeroWeight) -> tuple[int, ...]:
        """Coefficients of cl(mu) over the fundamental weights."""
        return self._weight(mu.w)

    # -- generating steps -----------------------------------------------------

    def _steps(self, w: int) -> tuple[Step, ...]:
        """(root, pairing, target coset, first k) per root pairing positively.

        Also checks the order the closure relies on: a step at k = 0 keeps n,
        so it must lower the height <2rho^vee, cl(mu)>.
        """
        got = self._steps_cache.get(w)
        if got is not None:
            return got
        W, rs = self.W, self.rs
        height = self.pair(self._two_rho_vee, w)
        steps = []
        for alpha in rs.positive_roots:
            p = self.pair(rs.coroot(alpha), w)
            if p == 0:
                continue
            root, k = (alpha, 0) if p > 0 else (neg_vec(alpha), 1)
            target = W.coset_floor(W.left_reflect(w, alpha), self.J)
            if k == 0 and self.pair(self._two_rho_vee, target) >= height:
                raise GraphInvariantError(f"raising step from coset {w} keeps its height")
            steps.append((root, abs(p), target, k))
        got = self._steps_cache[w] = tuple(steps)
        return got

    # -- reachability inside a window ------------------------------------------

    def margin(self) -> int:
        """Window margin reserved for intermediate chain elements."""
        return self._margin

    def slice_levels(self, window: int) -> range:
        """The delta parts n of the window's slice, lowest first: the
        multiples of d with |n| <= window."""
        return range(-(window // self.d) * self.d, window + 1, self.d)

    def _layout(self, window: int) -> tuple[int, int]:
        """(levels, n_lo): delta layers per coset and the lowest delta part."""
        ns = self.slice_levels(window)
        return len(ns), ns.start

    def _ids(self, window: int, *weights: LevelZeroWeight) -> list[int]:
        """Dense ids of on-grid weights inside the window's slice, from one
        layout."""
        levels, n_lo = self._layout(window)
        pos, d = self.graph.vertex_pos, self.d
        return [pos[mu.w] * levels + (mu.n - n_lo) // d for mu in weights]

    def _require_on_grid(self, *weights: LevelZeroWeight) -> None:
        """Raise ValueError naming the first weight off the orbit's grid.

        An orbit element (w, n) has w a vertex of the graph (a minimal
        coset representative) and n a multiple of d.
        """
        for mu in weights:
            if mu.w not in self.graph.vertex_pos or mu.n % self.d:
                raise ValueError(
                    f"{mu} is off the orbit grid: w must be a minimal coset "
                    f"representative and n a multiple of {self.d}"
                )

    def slice_elements(self, window: int) -> tuple[LevelZeroWeight, ...]:
        """All orbit elements with |n| <= window, in display order."""
        ns = self.slice_levels(window)
        return tuple(LevelZeroWeight(w, n) for w in self.graph.vertices for n in ns)

    def _step_ids(self, w: int, lev: int, levels: int):
        """(target id, root, k) for every raising step out of (w, level lev)."""
        pos, d = self.graph.vertex_pos, self.d
        for root, p, target, k in self._steps(w):
            base, q = pos[target] * levels, p // d
            j = lev - k * q
            while j >= 0:
                yield base + j, root, k
                k += 1
                j -= q

    def _closure(self, window: int) -> list[int]:
        """Strict up-sets of the window's slice, as bitsets over dense ids."""
        cached = self._closure_cache.get(window)
        if cached is not None:
            return cached
        levels, _ = self._layout(window)
        verts = self.graph.vertices
        by_height = sorted(
            range(len(verts)), key=lambda c: self.pair(self._two_rho_vee, verts[c])
        )
        reach = [0] * (len(verts) * levels)
        up = [0] * len(reach)  # reach plus the element's own bit
        for lev in range(levels):
            for c in by_height:
                acc = 0
                for j, _root, _k in self._step_ids(verts[c], lev, levels):
                    acc |= up[j]
                i = c * levels + lev
                reach[i] = acc
                up[i] = acc | 1 << i
        self._closure_cache[window] = reach
        return reach

    def certified(self, mu: LevelZeroWeight, window: int) -> bool:
        return abs(mu.n) <= window - self._margin

    def leq(self, mu: LevelZeroWeight, nu: LevelZeroWeight, window: int) -> bool:
        """Brute-force order test; raises ValueError for an element off the
        orbit grid and InconclusiveWindow if the window cannot certify it."""
        self._require_on_grid(mu, nu)
        if mu == nu:
            return True
        if not (self.certified(mu, window) and self.certified(nu, window)):
            raise InconclusiveWindow(
                f"window {window} too small (margin {self._margin})"
            )
        i, j = self._ids(window, mu, nu)
        return self._closure(window)[i] >> j & 1 == 1

    def hasse_covers(self, window: int) -> dict[LevelZeroWeight, list[PosetCover]]:
        """Covers of the brute-force order, for certified lower elements.

        A relation is a cover when no third element sits strictly between;
        every intermediate has its delta part between the endpoints', so the
        computation inside the window is exact.
        """
        cached = self._hasse_cache.get(window)
        if cached is not None:
            return cached
        reach = self._closure(window)
        elems = self.slice_elements(window)
        levels, _ = self._layout(window)
        out: dict[LevelZeroWeight, list[PosetCover]] = {}
        for c, w in enumerate(self.graph.vertices):
            for lev in range(levels):
                mu = elems[c * levels + lev]
                if not self.certified(mu, window):
                    continue
                steps = list(self._step_ids(w, lev, levels))
                above = deeper = 0
                for j, _root, _k in steps:
                    above |= 1 << j
                    deeper |= reach[j]
                tops = above & ~deeper
                labels: dict[int, list[AffineRoot]] = {}
                for j, root, k in steps:
                    if tops >> j & 1:
                        labels.setdefault(j, []).append(AffineRoot(root, k))
                covers = []
                for j, found in labels.items():
                    good = [
                        b
                        for b in found
                        if (b.k == 0 and is_positive_vec(b.alpha))
                        or (b.k == 1 and not is_positive_vec(b.alpha))
                    ]
                    if not good:
                        raise GraphInvariantError(
                            f"cover {mu} < {elems[j]} has no admissible label"
                        )
                    for b in good:
                        kind = BRUHAT if b.k == 0 else QUANTUM
                        covers.append(PosetCover(mu, elems[j], b, kind))
                out[mu] = sorted(
                    covers,
                    key=lambda x: (x.upper.w, x.upper.n, x.label.k, x.label.alpha),
                )
        self._hasse_cache[window] = out
        return out

    # -- covers through the graph ------------------------------------------------

    def covers(self, mu: LevelZeroWeight) -> list[PosetCover]:
        """Graph-derived covers: one per graph edge out of cl(mu).

        A Bruhat edge with label gamma gives the cover by w(gamma) at the
        same delta part; a quantum edge gives the cover by w(gamma) + delta
        with the delta part dropped by <gamma^vee, lambda>.
        """
        n = mu.n
        return [
            PosetCover(mu, LevelZeroWeight(target, n - drop), label, kind)
            for target, drop, label, kind in self.coset_covers(mu.w)
        ]

    def window_covers(self, window: int):
        """The graph-derived covers inside the window's slice, by dense id:
        (lower id, upper id, label, kind) per cover, lower elements in the
        order of ``slice_elements`` and each one's covers in the order of
        ``covers``.  The cover (target, drop) of the element at level lev
        lands at level lev - drop/d of target's ids, and is kept when that
        level is not below the window."""
        levels, _ = self._layout(window)
        pos, d = self.graph.vertex_pos, self.d
        for c, w in enumerate(self.graph.vertices):
            ups = [(pos[target] * levels, drop // d, label, kind)
                   for target, drop, label, kind in self.coset_covers(w)]
            src = c * levels
            for lev in range(levels):
                for base, q, label, kind in ups:
                    if q <= lev:
                        yield src + lev, base + lev - q, label, kind

    def coset_covers(self, w: int) -> tuple[CosetCover, ...]:
        """(target, delta drop, label, kind) per edge out of coset w, in the
        order of ``covers``: by (target, n - drop, label k), which a shift of
        n keeps."""
        if not self.dominant:
            raise ValueError("covers through the graph need a dominant weight")
        got = self._cover_cache.get(w)
        if got is not None:
            return got
        rs = self.rs
        out = []
        for edge in self.graph.out[w]:
            wgamma = self.W.act(w, edge.label)
            if edge.kind == BRUHAT:
                if not is_positive_vec(wgamma):
                    raise GraphInvariantError("Bruhat edge moved the label negative")
                out.append((edge.target, 0, AffineRoot(wgamma, 0), edge.kind))
            else:
                if is_positive_vec(wgamma):
                    raise GraphInvariantError("quantum edge kept the label positive")
                drop = sum(c * v for c, v in zip(rs.coroot(edge.label), self.lam))
                out.append((edge.target, drop, AffineRoot(wgamma, 1), edge.kind))
        out.sort(key=lambda c: (c[0], -c[1], c[2].k))
        got = self._cover_cache[w] = tuple(out)
        return got

    def reflect(self, mu: LevelZeroWeight, beta: AffineRoot) -> LevelZeroWeight:
        """r_beta applied to the orbit element."""
        p = self.pair(self.rs.coroot(beta.alpha), mu.w)
        target_w = self.W.coset_floor(self.W.left_reflect(mu.w, beta.alpha), self.J)
        return LevelZeroWeight(target_w, mu.n - beta.k * p)

    def affine_simple_pairing(self, i: int, mu: LevelZeroWeight) -> int:
        """<alpha_i^vee, mu> for an affine simple root index in 0..rank."""
        if not 0 <= i <= self.rs.rank:
            raise ValueError(f"affine node index {i} out of range")
        if i == 0:
            return -self.pair(self.rs.coroot(self.rs.theta), mu.w)
        return self._weight(mu.w)[i - 1]

    # -- distance ----------------------------------------------------------------

    def dist(self, mu: LevelZeroWeight, nu: LevelZeroWeight, window: int) -> int:
        """Maximum chain length from mu to nu, over the certified window.

        A longest-path pass over the raising steps, iterative and memoised
        by id, restricted to steps that still reach nu.  Every cover is a
        raising step and every raising step refines into a chain of covers,
        so the longest step path is the longest chain.  The memo holds
        longest chains up to nu, whatever the start, so there is one per
        (window, nu) and every later mu reuses it; an entry enters it only
        once every step above it is done.
        """
        if not self.leq(mu, nu, window):
            raise ValueError("dist requires mu <= nu")
        start, top = self._ids(window, mu, nu)
        best = self._dist_cache.get((window, top))
        if best is None:
            best = self._dist_cache[(window, top)] = {top: 0}
        elif start in best:
            return best[start]
        levels, verts, reach = self._layout(window)[0], self.graph.vertices, self._closure(window)
        floor = top % levels  # nu's level: a step to a lower one cannot reach nu
        uppers: dict[int, set[int]] = {}
        stack = [start]
        while stack:
            i = stack.pop()
            if i in best:
                continue
            ups = uppers.get(i)
            if ups is None:
                # ids shift with the level, so the steps of the id floor levels
                # below i, shifted by floor, are the steps that stay at or
                # above nu's level; each id's steps are walked once per window
                below = i - floor
                steps = self._step_lists.get((window, below))
                if steps is None:
                    c, lev = divmod(below, levels)
                    steps = self._step_lists[(window, below)] = tuple(
                        {j for j, _root, _k in self._step_ids(verts[c], lev, levels)}
                    )
                ups = uppers[i] = {
                    u for j in steps if (u := j + floor) == top or reach[u] >> top & 1
                }
                todo = [u for u in ups if u not in best]
                if todo:  # come back to i once everything above it is done
                    stack.append(i)
                    stack.extend(todo)
                    continue
            best[i] = 1 + max([best[u] for u in ups])
        return best[start]
