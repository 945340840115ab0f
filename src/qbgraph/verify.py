"""Exhaustive small-rank verification suites.

Each suite checks one family of structural claims over a set of Cartan
types and reports one line per (type, rank, parabolic, check) case with a
counterexample dump on failure.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from .affine import (
    AffineElement,
    AffineRoot,
    AffineWeyl,
    DIAMOND_CASES,
    SIMPLE_BRUHAT,
    SIMPLE_QUANTUM,
    THETA_BRUHAT,
    THETA_QUANTUM,
    THETA_BRUHAT_ORTHO,
    THETA_QUANTUM_ORTHO,
    complete_bottom,
    complete_top,
    iter_bottom_configurations,
    iter_top_configurations,
)
from .level_zero import LevelZeroPoset, LevelZeroWeight
from .qbg import (
    BRUHAT,
    QUANTUM,
    QbgPath,
    build_qbg,
    build_subsystem_qbg,
    dual_involution,
    increasing_path,
    induced_coset_subgraph,
    lambda_ordering,
    reflection_ordering_from_word,
    subsystem_word_ordering,
)
from .root_system import (
    add_vec,
    build_root_system,
    is_positive_vec,
    neg_vec,
    scale_vec,
    sub_vec,
)
from .tilted import (
    TiltedOrder,
    compare_path_weights,
    expected_weight_shift,
    left_multiplication_step,
    left_step_edge,
    left_step_subgraph_strongly_connected,
    quantum_length,
    transform_path,
    weight_class,
    weights_congruent,
)
from .weyl import Trichotomy, WeylGroup


@dataclass
class CaseResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    claim: str
    cases: list[CaseResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.cases.append(CaseResult(name, bool(ok), detail))

    def run(self, name: str, fn) -> None:
        """Run a check that returns a detail string, recording exceptions."""
        try:
            detail = fn()
            self.cases.append(CaseResult(name, True, detail or ""))
        except Exception as exc:  # noqa: BLE001 - the report captures it
            self.cases.append(CaseResult(name, False, f"{type(exc).__name__}: {exc}"))


def _require(ok: bool, detail: object = "") -> None:
    """Fail the running case; unlike assert, this check survives python -O."""
    if not ok:
        raise AssertionError(detail)


#: contexts kept by ``context``; at least the 13 (type, rank) pairs that the
#: default suites use, so ``--suite all`` builds each one once
CONTEXT_CACHE_SIZE = 16
_context_cache: dict[tuple[str, int], tuple] = {}
_context_lock = threading.Lock()


def context(cartan_type: str, rank: int):
    """(root system, Weyl group, affine operations) of one type, shared
    between suites; past ``CONTEXT_CACHE_SIZE`` the oldest is dropped."""
    key = (cartan_type, rank)
    got = _context_cache.get(key)
    if got is None:
        rs = build_root_system(cartan_type, rank)
        W = WeylGroup(rs)
        got = (rs, W, AffineWeyl(W))
        with _context_lock:
            _context_cache[key] = got
            while len(_context_cache) > CONTEXT_CACHE_SIZE:
                del _context_cache[next(iter(_context_cache))]
    return got


def all_parabolics(rank: int, proper: bool = False):
    top = rank if proper else rank + 1
    for size in range(0, top):
        yield from itertools.combinations(range(1, rank + 1), size)


def _tag(t: str, r: int, J=None) -> str:
    base = f"{t}{r}"
    if J is not None:
        base += " J={" + ",".join(str(j) for j in J) + "}"
    return base


# -- suites ---------------------------------------------------------------------


def suite_quantum_roots(types) -> SuiteResult:
    res = SuiteResult(
        "quantum-roots",
        "long/short classification of quantum roots agrees with the "
        "reflection-length criterion len(r_a) = <a^vee, 2rho> - 1",
    )
    for t, r in types:
        rs = build_root_system(t, r)

        def one(rs=rs, t=t, r=r):
            n = 0
            for alpha in rs.positive_roots:
                bound = rs.pairing(rs.coroot(alpha), rs.two_rho) - 1
                actual = rs.reflection_length(alpha)
                if actual > bound:
                    raise AssertionError(f"length bound fails at {alpha}")
                if (actual == bound) != rs.is_quantum_root(alpha):
                    raise AssertionError(f"classification fails at {alpha}")
                n += 1
            # coroot equivariance under the generators
            for i in range(rs.rank):
                s = rs.simple_roots()[i]
                for alpha in rs.positive_roots:
                    img = rs.reflect(s, alpha)
                    lhs = rs.coroot(img)
                    rhs = rs.reflect_coroot(s, rs.coroot(alpha))
                    if lhs != rhs:
                        raise AssertionError(f"coroot equivariance fails at {alpha}")
            for i in rs.special_nodes():
                if any(a[i - 1] > 1 for a in rs.positive_roots):
                    raise AssertionError(f"special node {i} has coefficient > 1")
            return f"{n} roots"

        res.run(_tag(t, r), one)
    return res


def suite_special_lengths(types) -> SuiteResult:
    res = SuiteResult(
        "special-lengths",
        "the factor v_i of the longest element over a special node has "
        "length <omega_i^vee, 2rho>",
    )
    for t, r in types:
        rs, W, _ = context(t, r)

        def one(rs=rs, W=W):
            checked = []
            for i in rs.special_nodes():
                v = W.special_v(i)
                expect = rs.two_rho[i - 1]
                if v.length != expect:
                    raise AssertionError(f"node {i}: len {v.length} != {expect}")
                rest = tuple(j for j in range(1, rs.rank + 1) if j != i)
                if v.length + W.longest_element(rest).length != W.longest_element().length:
                    raise AssertionError(f"node {i}: factorization not length-additive")
                checked.append(i)
            return f"special nodes {checked}" if checked else "no special nodes"

        res.run(_tag(t, r), one)
    return res


def suite_weyl_basics(types) -> SuiteResult:
    res = SuiteResult(
        "weyl-basics",
        "parabolic decomposition is length-additive, the coset trichotomy "
        "is exhaustive, and conjugation by the longest element preserves length",
    )
    for t, r in types:
        rs, W, _ = context(t, r)

        def one(rs=rs, W=W):
            w0 = W.longest_element()
            for w in W.elements():
                conj = w0 * w * w0
                if conj.length != w.length:
                    raise AssertionError("conjugation by w0 changed a length")
            for J_nodes in all_parabolics(rs.rank):
                J = rs.parabolic(J_nodes)
                wjset = set(W.subgroup_elements(J.nodes))
                for w in W.elements():
                    u, v = W.parabolic_decompose(w, J)
                    if (u * v).index != w.index or v.index not in wjset:
                        raise AssertionError("decomposition broke")
                    if u.length + v.length != w.length:
                        raise AssertionError("decomposition not length-additive")
                for v in W.min_coset_reps(J):
                    for i in range(1, rs.rank + 1):
                        rv = W.left_mul(i, v)
                        down = rv.length < v.length
                        inside = (v.inverse() * rv).index in wjset
                        if down:
                            ok = W.in_min_coset_reps(rv, J) and not inside
                        elif inside:
                            ok = W.min_coset_rep(rv, J).index == v.index
                        else:
                            ok = W.in_min_coset_reps(rv, J)
                        if not ok:
                            raise AssertionError("coset trichotomy failed")
                        alpha = tuple(
                            1 if j == i - 1 else 0 for j in range(rs.rank)
                        )
                        sign = W.trichotomy(v, alpha, J)
                        want = (
                            Trichotomy.DOWN
                            if down
                            else Trichotomy.FIXED if inside else Trichotomy.UP
                        )
                        if sign != want:
                            raise AssertionError("trichotomy classification failed")
            return f"|W|={len(W)}"

        res.run(_tag(t, r), one)
    return res


def _independent_edge_oracle(rs, W, aw, J, w, alpha):
    """Edge classification from raw lengths and the affine membership test."""
    x = w * W.reflection(alpha)
    if x.length == w.length + 1:
        if not W.in_min_coset_reps(x, J):
            raise AssertionError("Bruhat target left W^J")
        return (BRUHAT, x.index)
    quantum_in_w = (
        x.length == w.length - rs.reflection_length(alpha)
        and rs.is_quantum_root(alpha)
    )
    if quantum_in_w and aw.in_wj_af(AffineElement(x.index, rs.coroot(alpha)), J):
        return (QUANTUM, W.min_coset_rep(x, J).index)
    return None


def suite_qbg_structure(types) -> SuiteResult:
    res = SuiteResult(
        "qbg-structure",
        "graph edges match the raw-length oracle with the affine membership "
        "form of the quantum condition; duality reverses edges preserving "
        "kind; the graph is strongly connected; coset copies embed",
    )
    for t, r in types:
        rs, W, aw = context(t, r)
        g0 = build_qbg(W, rs.parabolic(()))
        for J_nodes in all_parabolics(r):
            J = rs.parabolic(J_nodes)

            def one(J=J, t=t, r=r):
                g = build_qbg(W, J)
                # oracle comparison over every (w, alpha)
                labels = [a for a in rs.positive_roots if not J.supports(a)]
                want = {}
                for v in g.vertices:
                    w = W.element(v)
                    for a in labels:
                        got = _independent_edge_oracle(rs, W, aw, J, w, a)
                        if got is not None:
                            want[(v, a)] = got
                have = {(e.source, e.label): (e.kind, e.target) for e in g.edges}
                if want != have:
                    extra = set(have) ^ set(want)
                    raise AssertionError(f"edge sets differ at {sorted(extra)[:3]}")
                g.diameter()  # also asserts strong connectivity
                # duality
                for v in g.vertices:
                    vv = dual_involution(g, W.element(v))
                    if dual_involution(g, vv).index != v:
                        raise AssertionError("duality is not an involution")
                    expect = len(rs.positive_roots) - len(J.phi_plus) - W.element(v).length
                    if vv.length != expect:
                        raise AssertionError("duality length formula failed")
                w0J = W.longest_element(J.nodes)
                for e in g.edges:
                    src = dual_involution(g, W.element(e.target))
                    dst = dual_involution(g, W.element(e.source))
                    # floored quantum targets twist the label rule by the
                    # W_J remainder of the unfloored product
                    u = (
                        W.element(e.target).inverse()
                        * W.element(e.source)
                        * W.reflection(e.label)
                    )
                    lab = w0J.act(u.act(e.label))
                    if not is_positive_vec(lab):
                        lab = neg_vec(lab)
                    mirror = g.edge(src.index, lab)
                    if mirror is None or mirror.target != dst.index or mirror.kind != e.kind:
                        raise AssertionError(f"dual edge missing for {e}")
                    if u.index == 0 and lab != w0J.act(e.label):
                        raise AssertionError("plain dual label rule failed")
                    back = (
                        W.element(mirror.target).inverse()
                        * W.element(mirror.source)
                        * W.reflection(mirror.label)
                    )
                    lab2 = w0J.act(back.act(mirror.label))
                    if not is_positive_vec(lab2):
                        lab2 = neg_vec(lab2)
                    if g.edge(dual_involution(g, W.element(mirror.target)).index, lab2) != e:
                        raise AssertionError("dual edge map is not an involution")
                # embedded copies w -> wz inside the full graph; a quantum
                # edge lands in the copy twisted by the label's Weyl factor,
                # so its image target is the unfloored product
                for zid in aw.sigma_J(J):
                    z = W.element(zid)
                    zinv = z.inverse()
                    for e in g.edges:
                        src = (W.element(e.source) * z).index
                        img = g0.edge(src, zinv.act(e.label))
                        want = (W.element(e.source) * W.reflection(e.label) * z).index
                        if e.kind == BRUHAT and want != (W.element(e.target) * z).index:
                            raise AssertionError("Bruhat image left the coset copy")
                        if img is None or img.kind != e.kind or img.target != want:
                            raise AssertionError("coset embedding broke an edge")
                return f"{len(g.vertices)} vertices, {len(g.edges)} edges"

            res.run(_tag(t, r, J_nodes), one)
    return res


def suite_reference_graphs(_types=None) -> SuiteResult:
    res = SuiteResult(
        "reference-graphs",
        "the rank-2 and rank-3 reference graphs have the expected "
        "vertex, edge and quantum-edge structure",
    )

    def a2_full():
        rs, W, _ = context("A", 2)
        g = build_qbg(W, rs.parabolic(()))
        _require(len(g.edges) == 15 and len(g.quantum_edges()) == 7)
        w0 = W.longest_element()
        theta_edge = g.edge(w0.index, rs.theta)
        _require(theta_edge is not None and theta_edge.kind == QUANTUM)
        _require(theta_edge.target == W.identity.index)
        _require(all(
            e.source == w0.index for e in g.edges if e.label == rs.theta and e.kind == QUANTUM
        ))
        return "15 edges, 7 quantum, theta edge from the top"

    def a3_parabolic():
        rs, W, _ = context("A", 3)
        g = build_qbg(W, rs.parabolic((1, 3)))
        by_line = {W.describe(W.element(v)): v for v in g.vertices}
        _require(sorted(by_line) == ["1234", "1324", "1423", "2314", "2413", "3412"])
        expect = {
            ("1234", "1324", (0, 1, 0), BRUHAT),
            ("1324", "1423", (0, 1, 1), BRUHAT),
            ("1324", "2314", (1, 1, 0), BRUHAT),
            ("2314", "2413", (0, 1, 1), BRUHAT),
            ("1423", "2413", (1, 1, 0), BRUHAT),
            ("2413", "3412", (1, 1, 1), BRUHAT),
            ("2413", "1234", (0, 1, 0), QUANTUM),
            ("3412", "1324", (0, 1, 0), QUANTUM),
        }
        have = {
            (
                W.describe(W.element(e.source)),
                W.describe(W.element(e.target)),
                e.label,
                e.kind,
            )
            for e in g.edges
        }
        _require(have == expect, have ^ expect)
        return "8 edges, 2 quantum, matching the reference edge list"

    def a2_cycle():
        rs, W, _ = context("A", 2)
        g = build_qbg(W, rs.parabolic((1,)))
        _require(len(g.vertices) == 3 and len(g.edges) == 3)
        _require(len(g.quantum_edges()) == 1)
        for v in g.vertices:
            _require(len(g.out[v]) == 1)
        _require(g.distance(g.vertices[0], g.vertices[0]) == 0)
        r2 = W.simple_reflection(2)
        r1r2 = W.from_word((1, 2))
        _require(g.distance(r1r2.index, r2.index) == 2)
        return "3-cycle with one quantum edge"

    res.run("A2 full graph", a2_full)
    res.run("A3 J={1,3}", a3_parabolic)
    res.run("A2 J={1} cycle", a2_cycle)
    return res


def suite_affine_core(types) -> SuiteResult:
    res = SuiteResult(
        "affine-core",
        "the closed-form affine length matches the inversion count; the "
        "parabolic projection obeys its factorization, idempotence and "
        "product rules; adjusted coweights behave as a homomorphism",
    )
    for t, r in types:
        rs, W, aw = context(t, r)

        def one(rs=rs, W=W, aw=aw):
            coords = range(-2, 3)
            box = [mu for mu in itertools.product(coords, repeat=rs.rank)]
            sample_w = sorted({0, len(W) // 3, len(W) // 2, len(W) - 1})
            checked = 0
            if rs.rank <= 3:
                for mu in itertools.product(range(-6, 7), repeat=rs.rank):
                    for wid in sample_w:
                        x = AffineElement(wid, mu)
                        if aw.length(x) != aw.length_by_inversions(x):
                            raise AssertionError(f"length mismatch at {x}")
                        checked += 1
            # group law spot checks across the box
            for mu in box[:: max(1, len(box) // 12)]:
                for wid in sample_w:
                    x = AffineElement(wid, mu)
                    y = AffineElement(sample_w[-1], box[7 % len(box)])
                    t_mu = aw.translation(mu)
                    w_el = W.element(wid)
                    conj = aw.mul(aw.mul(aw.from_finite(w_el), t_mu),
                                  aw.inv(aw.from_finite(w_el)))
                    if conj != aw.translation(w_el.act_coroot(mu)):
                        raise AssertionError("translation conjugation failed")
                    if aw.mul(x, aw.inv(x)) != AffineElement(0, (0,) * rs.rank):
                        raise AssertionError("inverse failed")
                    del y
            for J_nodes in all_parabolics(rs.rank):
                J = rs.parabolic(J_nodes)
                wj_ids = set(W.subgroup_elements(J.nodes))
                for mu in box:
                    adj = aw.is_adjusted(mu, J)
                    if adj != (aw.phi_correction(mu, J) == (0,) * rs.rank):
                        raise AssertionError("adjusted test disagrees with phi")
                    if adj:
                        z = aw.z_mu(mu, J)
                        if z.length != -rs.pairing(mu, J.two_rho_J):
                            raise AssertionError("adjusted z-length formula failed")
                        invariant = all(
                            rs.pairing(mu, rs.simple_roots()[j - 1]) == 0
                            for j in J.nodes
                        )
                        if invariant != (adj and z.index == 0):
                            raise AssertionError("invariance criterion failed")
                    # membership criterion over a couple of finite parts
                    for wid in sample_w:
                        w_el = W.element(wid)
                        if not W.in_min_coset_reps(w_el, J):
                            continue
                        for zid in (0, next(iter(wj_ids - {0}), 0)):
                            x = AffineElement((w_el * W.element(zid)).index, mu)
                            member = aw.in_wj_af(x, J)
                            expect = aw.is_adjusted(mu, J) and aw.z_mu(mu, J).index == zid
                            if member != expect:
                                raise AssertionError("membership criterion failed")
                # homomorphism and W_J-invariance of the factor map
                small = [mu for mu in itertools.product(range(-1, 2), repeat=rs.rank)]
                for mua in small:
                    za = aw.z_mu(mua, J)
                    for mub in small[:: max(1, len(small) // 8)]:
                        zb = aw.z_mu(mub, J)
                        if aw.z_mu(add_vec(mua, mub), J).index != (za * zb).index:
                            raise AssertionError("factor map is not a homomorphism")
                    for vj in list(wj_ids)[:4]:
                        if aw.z_mu(W.element(vj).act_coroot(mua), J).index != za.index:
                            raise AssertionError("factor map moved under W_J")
                # projection properties on sampled elements
                for wid in sample_w:
                    for mu in box[:: max(1, len(box) // 10)]:
                        x = AffineElement(wid, mu)
                        px = aw.project(x, J)
                        if not aw.in_wj_af(px, J):
                            raise AssertionError("projection left (W^J)_af")
                        if aw.project(px, J) != px:
                            raise AssertionError("projection is not idempotent")
                        rest = aw.mul(aw.inv(px), x)
                        if not aw.in_wjaf_parabolic_factor(rest, J):
                            raise AssertionError("projection residue not in (W_J)_af")
                        nu = box[3 % len(box)]
                        lhs = aw.project(aw.mul(x, aw.translation(nu)), J)
                        rhs = aw.mul(aw.project(x, J), aw.project(aw.translation(nu), J))
                        if lhs != rhs:
                            raise AssertionError("projection product rule failed")
                        for vid in list(wj_ids)[:3]:
                            v = aw.from_finite(W.element(vid))
                            if aw.project(aw.mul(x, v), J) != px:
                                raise AssertionError("projection moved under (W_J)_af")
                # minimum coset representatives survive the projection
                for wid in sample_w:
                    for mu in box[:: max(1, len(box) // 8)]:
                        anti = tuple(-abs(c) for c in mu)
                        x = AffineElement(wid, anti)
                        if aw.in_waf_minus(x) and not aw.in_waf_minus(aw.project(x, J)):
                            raise AssertionError("projection left the minimum coset set")
                # strict antidominant length formula
                h = aw.invariant_depth_vector(J)
                for wid in sample_w:
                    w_el = W.element(wid)
                    if not W.in_min_coset_reps(w_el, J):
                        continue
                    for mu0 in small[:: max(1, len(small) // 6)]:
                        if not aw.is_adjusted(mu0, J):
                            continue
                        mu = sub_vec(mu0, scale_vec(3, h))
                        if not aw.is_superantidominant(mu, J, 1):
                            continue
                        z = aw.z_mu(mu, J)
                        x = AffineElement((w_el * z).index, mu)
                        expect = -rs.pairing(mu, sub_vec(rs.two_rho, J.two_rho_J)) - w_el.length
                        if aw.length(x) != expect:
                            raise AssertionError("antidominant length formula failed")
                        if not aw.in_waf_minus(x):
                            raise AssertionError("expected a minimum coset element")
            return f"length window {checked}, box +-2"

        res.run(_tag(t, r), one)
    return res


def suite_lift_roundtrip(types) -> SuiteResult:
    res = SuiteResult(
        "lift-roundtrip",
        "every graph edge lifts to a length-one affine cover that projects "
        "back to it, and every affine cover in the window projects to an edge",
    )
    for t, r in types:
        rs, W, aw = context(t, r)
        for J_nodes in all_parabolics(r, proper=True):
            J = rs.parabolic(J_nodes)

            def one(J=J):
                g = build_qbg(W, J)
                depth = aw.lift_depth(g)
                sigma = aw.sigma_J(J)
                lifted = 0
                for zid in sorted(sigma):
                    z = W.element(zid)
                    mu = aw.superantidominant_mu(z, J, depth)
                    for e in g.edges:
                        x, y, gamma = aw.lift_edge(g, e, z, mu)
                        e2, z2, chi, gamma2 = aw.project_cover(x, y, J)
                        if e2 != e or z2.index != zid or gamma2 != gamma:
                            raise AssertionError(f"roundtrip failed at {e}")
                        if chi != (1 if e.kind == QUANTUM else 0):
                            raise AssertionError("kind discriminant mismatch")
                        lifted += 1
                covered = 0
                for zid in sorted(sigma):
                    z = W.element(zid)
                    mu = aw.superantidominant_mu(z, J, depth)
                    for v in g.vertices:
                        x = AffineElement((W.element(v) * z).index, mu)
                        for y, gamma, outer in aw.cocovers(x, J, depth=2):
                            if not outer:
                                continue
                            edge, z2, chi, gamma2 = aw.project_cover(x, y, J)
                            if g.edge(edge.source, edge.label) != edge:
                                raise AssertionError("cocover projected off the graph")
                            x2, y2, gamma3 = aw.lift_edge(g, edge, z2, x.mu)
                            if (x2, y2) != (x, y) or gamma3 != gamma2:
                                raise AssertionError("cover did not round-trip")
                            covered += 1
                return f"{lifted} lifts, {covered} covers"

            res.run(_tag(t, r, J_nodes), one)
    return res


def suite_example_chain(_types=None) -> SuiteResult:
    res = SuiteResult(
        "example-chain",
        "the worked rank-2 parabolic ladder: the 3-cycle lifts over "
        "mu = (-2,-4) to the chain with labels 6d-a2, 6d-a1-a2, 5d-a2",
    )

    def one():
        from .render import affine_root_text

        rs, W, aw = context("A", 2)
        J = rs.parabolic((1,))
        g = build_qbg(W, J)
        mu = (-2, -4)
        e1 = g.edge(W.identity.index, (0, 1))
        e2 = g.edge(e1.target, (1, 1))
        e3 = g.edge(e2.target, (0, 1))
        _require((e1.kind, e2.kind, e3.kind) == (BRUHAT, BRUHAT, QUANTUM))
        chain = aw.lift_path(g, QbgPath(W.identity.index, (e1, e2, e3)), mu)
        labels = [affine_root_text(gam) for _, gam in chain[1:]]
        _require(labels == ["6d-a2", "6d-a1-a2", "5d-a2"], labels)
        words = [W.element(x.w).word for x, _ in chain]
        _require(words == [(), (2,), (1, 2), (1,)], words)
        mus = [x.mu for x, _ in chain]
        _require(mus == [(-2, -4)] * 3 + [(-2, -3)], mus)
        lens = [aw.length(x) for x, _ in chain]
        _require(lens == [12, 11, 10, 9], lens)
        return "chain of three covers with the expected labels"

    res.run("A2 J={1} ladder", one)
    return res


def suite_diamond(types) -> SuiteResult:
    res = SuiteResult(
        "diamond",
        "in all six diamond families the given pair of edges forces the "
        "opposite pair, with path weights congruent mod Q_J^vee",
    )
    for t, r in types:
        rs, W, _ = context(t, r)
        for J_nodes in all_parabolics(r):
            J = rs.parabolic(J_nodes)

            def one(J=J):
                g = build_qbg(W, J)
                counts = []
                for case in DIAMOND_CASES:
                    n = 0
                    for w, gamma, alpha in iter_bottom_configurations(g, case):
                        complete_bottom(g, case, w, gamma, alpha)
                        n += 1
                    m = 0
                    for w, gamma, alpha in iter_top_configurations(g, case):
                        complete_top(g, case, w, gamma, alpha)
                        m += 1
                    counts.append((case, n, m))
                pair = {
                    SIMPLE_BRUHAT: SIMPLE_BRUHAT,
                    SIMPLE_QUANTUM: SIMPLE_QUANTUM,
                    THETA_BRUHAT: THETA_QUANTUM,
                    THETA_QUANTUM: THETA_BRUHAT,
                    THETA_BRUHAT_ORTHO: THETA_BRUHAT_ORTHO,
                    THETA_QUANTUM_ORTHO: THETA_QUANTUM_ORTHO,
                }
                ups = {case: n for case, n, _ in counts}
                for case, _n, m in counts:
                    if m != ups[pair[case]]:
                        raise AssertionError(f"relabel count mismatch in {case}")
                total = sum(n + m for _, n, m in counts)
                return f"{total} completions"

            res.run(_tag(t, r, J_nodes), one)
    return res


def suite_level_zero(cases=None) -> SuiteResult:
    res = SuiteResult(
        "level-zero",
        "brute-force cover relations of the weight poset match the "
        "graph-derived covers with labels; raising by admissible simple "
        "roots is a cover; the diamond and duality laws hold",
    )
    for t, r, lam in LEVEL_ZERO_CASES if cases is None else cases:
        rs, W, _ = context(t, r)

        def one(lam=lam):
            P = LevelZeroPoset(W, lam)
            window = 3 + P.margin()
            hasse = P.hasse_covers(window)
            checked = 0
            for mu, covers in hasse.items():
                brute = sorted(
                    ((c.upper.w, c.upper.n), (c.label.alpha, c.label.k), c.kind)
                    for c in covers
                )
                theo = sorted(
                    ((c.upper.w, c.upper.n), (c.label.alpha, c.label.k), c.kind)
                    for c in P.covers(mu)
                )
                if brute != theo:
                    raise AssertionError(f"covers differ at {mu}")
                for c in covers:
                    if (c.label.k == 0) != (c.kind == BRUHAT):
                        raise AssertionError("label form disagrees with kind")
                checked += 1
            # admissible simple raisings are covers at distance one
            for mu in hasse:
                for i in range(0, rs.rank + 1):
                    if P.affine_simple_pairing(i, mu) > 0:
                        nu = P.reflect(mu, P.affine_simple_root(i))
                        if not P.certified(nu, window):
                            continue
                        if P.dist(mu, nu, window) != 1:
                            raise AssertionError("simple raising is not a cover")
            # diamond law: two covers from mu by a simple root and any root
            for mu, covers in hasse.items():
                for i in range(0, rs.rank + 1):
                    if P.affine_simple_pairing(i, mu) <= 0:
                        continue
                    alpha = P.affine_simple_root(i)
                    nu_a = P.reflect(mu, alpha)
                    if not P.certified(nu_a, window):
                        continue
                    for c in covers:
                        if c.label == alpha:
                            continue
                        top1 = P.reflect(c.upper, alpha)
                        top2 = P.reflect(nu_a, _reflect_affine(P, alpha, c.label))
                        if top1 != top2:
                            raise AssertionError("diamond tops disagree")
                        if not P.certified(top1, window):
                            continue
                        if not (
                            P.leq(c.upper, top1, window)
                            and P.dist(c.upper, top1, window) == 1
                        ):
                            raise AssertionError("diamond top cover missing")
                        if not (
                            P.leq(nu_a, top1, window)
                            and P.dist(nu_a, top1, window) == 1
                        ):
                            raise AssertionError("diamond side cover missing")
            # contraction: a sign split across a comparable pair raises the bottom
            littel = 0
            elems = [mu for mu in P.slice_elements(window) if P.certified(mu, window)]
            reach = {mu: {c.upper for c in hasse[mu]} for mu in elems}
            for mu in elems:
                for nu in _descendants(P, hasse, mu):
                    for i in range(0, rs.rank + 1):
                        pm = P.affine_simple_pairing(i, mu)
                        pn = P.affine_simple_pairing(i, nu)
                        if pm >= 0 > pn:
                            down = P.reflect(nu, P.affine_simple_root(i))
                            if not P.certified(down, window):
                                continue
                            if not P.leq(mu, down, window):
                                raise AssertionError("contraction left the interval")
                            if P.dist(mu, down, window) >= P.dist(mu, nu, window):
                                raise AssertionError("contraction did not shorten")
                            littel += 1
            del reach
            # duality against the antidominant orbit
            N = LevelZeroPoset(W, tuple(-c for c in lam))
            for mu in elems[:10]:
                for nu in list(_descendants(P, hasse, mu))[:6]:
                    a = LevelZeroWeight(mu.w, -mu.n)
                    b = LevelZeroWeight(nu.w, -nu.n)
                    if not N.leq(b, a, window):
                        raise AssertionError("duality order reversal failed")
            return f"{checked} certified elements, {littel} contractions"

        res.run(f"{t}{r} lambda={lam}", one)
    return res


def _reflect_affine(P: LevelZeroPoset, alpha: AffineRoot, beta: AffineRoot) -> AffineRoot:
    """r_alpha(beta) for affine roots, alpha of the simple or theta form."""
    rs = P.rs
    pair = rs.pairing(rs.coroot(alpha.alpha), beta.alpha)
    new_alpha = sub_vec(beta.alpha, scale_vec(pair, alpha.alpha))
    new_k = beta.k - pair * alpha.k
    return AffineRoot(new_alpha, new_k)


def _descendants(P, hasse, mu):
    seen = set()
    stack = [mu]
    while stack:
        cur = stack.pop()
        for c in hasse.get(cur, ()):  # uncertified uppers have no entry
            if c.upper not in seen and c.upper in hasse:
                seen.add(c.upper)
                stack.append(c.upper)
    return seen


def suite_reference_slice(_types=None) -> SuiteResult:
    res = SuiteResult(
        "reference-slice",
        "the rank-2 regular slice has 18 vertices over three delta layers "
        "and its n = 0 layer carries exactly the non-quantum edges",
    )

    def one():
        rs, W, _ = context("A", 2)
        P = LevelZeroPoset(W, (2, 1))
        elems = P.slice_elements(1)
        _require(len(elems) == 18, len(elems))
        inslice = [
            c
            for mu in P.slice_elements(0)
            for c in P.covers(mu)
            if c.upper.n == 0
        ]
        _require(len(inslice) == 8 and all(c.kind == BRUHAT for c in inslice))
        g = build_qbg(W, rs.parabolic(()))
        proj = {
            (c.lower.w, c.upper.w, c.kind)
            for mu in P.slice_elements(0)
            for c in P.covers(mu)
        }
        edges = {(e.source, e.target, e.kind) for e in g.edges}
        _require(proj == edges)
        return "18 vertices; projection recovers the full graph"

    res.run("A2 lambda=(2,1)", one)
    return res


def suite_tilted(types) -> SuiteResult:
    res = SuiteResult(
        "tilted",
        "every coset has a unique distance-minimizer from every base point, "
        "below the whole coset in the tilted order, and equal to the "
        "minimum-length representative from the identity",
    )
    for t, r in types:
        rs, W, _ = context(t, r)

        def one(rs=rs, W=W, t=t, r=r):
            g = build_qbg(W, rs.parabolic(()))
            T = TiltedOrder(g)
            triples = 0
            for J_nodes in all_parabolics(r):
                J = rs.parabolic(J_nodes)
                for u in g.vertices:
                    for z in W.elements():
                        x0 = T.coset_min(u, z, J)
                        if u == W.identity.index:
                            if x0.index != W.min_coset_rep(z, J).index:
                                raise AssertionError("identity base disagrees")
                        triples += 1
            return f"{triples} (u, z, J) triples"

        res.run(_tag(t, r), one)
    return res


def suite_orderings(types) -> SuiteResult:
    res = SuiteResult(
        "orderings",
        "weight-scaled orderings are reflection orderings; the increasing "
        "path to the coset minimizer avoids Phi_J labels, for several "
        "choices of ordering; coset subgraphs are copies of the subsystem graph",
    )
    for t, r in types:
        rs, W, _ = context(t, r)

        def one(rs=rs, W=W, t=t, r=r):
            g = build_qbg(W, rs.parabolic(()))
            T = TiltedOrder(g)
            # unique increasing path between every ordered pair, word ordering
            word = W.longest_element().word
            order0 = reflection_ordering_from_word(W, word)
            for u in g.vertices:
                for v in g.vertices:
                    p = increasing_path(g, u, v, order0)
                    if len(p) != g.distance(u, v):
                        raise AssertionError("increasing path is not shortest")
            checked = 0
            for J_nodes in all_parabolics(r, proper=True):
                if not J_nodes:
                    continue
                J = rs.parabolic(J_nodes)
                lam1 = tuple(0 if (i + 1) in J.nodes else 1 for i in range(r))
                lam2 = tuple(0 if (i + 1) in J.nodes else 2 + i for i in range(r))
                sub2 = tuple(reversed(subsystem_word_ordering(W, J)))
                orderings = [
                    lambda_ordering(W, lam1, J),
                    lambda_ordering(W, lam2, J),
                    lambda_ordering(W, lam1, J, sub_order=sub2),
                ]
                for ordering in orderings:
                    for u in g.vertices:
                        for z in list(W.elements())[:: max(1, len(W) // 8)]:
                            x0 = T.coset_min(u, z, J)
                            p = increasing_path(g, u, x0.index, ordering)
                            if any(J.supports(e.label) for e in p.edges):
                                raise AssertionError("minimizer path used a Phi_J label")
                            checked += 1
                ref = build_subsystem_qbg(W, J)
                for z in list(W.elements())[:: max(1, len(W) // 6)]:
                    z0 = W.min_coset_rep(z, J)
                    sub = induced_coset_subgraph(g, z, J)
                    mapped = {
                        (
                            (z0 * W.element(e.source)).index,
                            (z0 * W.element(e.target)).index,
                            e.label,
                            e.kind,
                        )
                        for e in ref.edges
                    }
                    got = {(e.source, e.target, e.label, e.kind) for e in sub.edges}
                    if mapped != got:
                        raise AssertionError("coset subgraph is not a copy")
            return f"{checked} minimizer paths"

        res.run(_tag(t, r), one)
    return res


def suite_path_weights(cases=None) -> SuiteResult:
    res = SuiteResult(
        "path-weights",
        "against a shortest path, any path's extra weight is nonnegative "
        "off Q_J^vee and zero for other shortest paths; surgery by a simple "
        "or theta step preserves weights up to the stated correction",
    )
    for t, r, J_nodes in PATH_WEIGHT_CASES if cases is None else cases:
        rs, W, _ = context(t, r)

        def one(J_nodes=J_nodes):
            J = rs.parabolic(J_nodes)
            g = build_qbg(W, J)
            cap = g.diameter() + 3
            walks = 0
            for u in g.vertices:
                dist_u = g.distances_from(u)
                base_cls = {
                    v: weight_class(g, g.shortest_path(u, v).weight(rs.rank))
                    for v in g.vertices
                }
                # a path's contribution depends only on (endpoint, weight,
                # length), so iterate over distinct weight states per depth
                frontier = {(u, (0,) * rs.rank)}
                for depth in range(cap + 1):
                    for cur, wt in frontier:
                        cls = weight_class(g, wt)
                        diff = sub_vec(cls, base_cls[cur])
                        if any(c < 0 for c in diff):
                            raise AssertionError(f"negative weight class at {cur}")
                        if depth == dist_u[cur] and any(diff):
                            raise AssertionError("shortest paths not congruent")
                        walks += 1
                    if depth < cap:
                        frontier = {
                            (e.target, add_vec(wt, e.weight))
                            for cur, wt in frontier
                            for e in g.out[cur]
                        }
            # surgery on every shortest path, every applicable case
            moved = 0
            for u in g.vertices:
                for v in g.vertices:
                    d = g.distance(u, v)
                    for p in g.iter_paths(u, v, d):
                        if len(p) != d:
                            continue
                        for j in range(0, rs.rank + 1):
                            for case in (1, 2, 3, 4):
                                try:
                                    p2 = transform_path(g, p, j, case)
                                except ValueError:
                                    continue
                                want_len = d - 1 if case in (1, 3) else d
                                if len(p2) != want_len:
                                    raise AssertionError("surgery length wrong")
                                shift = expected_weight_shift(g, p, j, case)
                                if not weights_congruent(
                                    g,
                                    p2.weight(rs.rank),
                                    add_vec(p.weight(rs.rank), shift),
                                ):
                                    raise AssertionError("surgery weight wrong")
                                if len(p2) != g.distance(p2.start, p2.end):
                                    raise AssertionError("surgery lost shortestness")
                                moved += 1
            return f"{walks} weight states, {moved} surgeries"

        res.run(_tag(t, r, J_nodes), one)
    return res


def suite_connectivity(types) -> SuiteResult:
    res = SuiteResult(
        "connectivity",
        "the subgraph of left multiplication steps by simple or theta "
        "reflections is strongly connected and computes the quantum length",
    )
    for t, r in types:
        rs, W, _ = context(t, r)
        for J_nodes in all_parabolics(r, proper=True):
            J = rs.parabolic(J_nodes)

            def one(J=J):
                g = build_qbg(W, J)
                if not left_step_subgraph_strongly_connected(g):
                    raise AssertionError("left-step subgraph not strongly connected")
                for v in g.vertices:
                    for i in range(0, rs.rank + 1):
                        left_step_edge(g, i, W.element(v))  # asserts edge membership
                        step = left_multiplication_step(g, W.element(v), i)
                        if step.edge is not None:
                            want = QUANTUM if i == 0 else BRUHAT
                            if step.edge.kind != want:
                                raise AssertionError("left step has the wrong kind")
                qls = [quantum_length(g, v) for v in g.vertices]
                return f"max quantum length {max(qls)}"

            res.run(_tag(t, r, J_nodes), one)
    return res


def suite_determinism(_types=None) -> SuiteResult:
    res = SuiteResult(
        "determinism",
        "repeated renders of the same graph and slice are byte-identical",
    )

    def one():
        from . import render

        rs, W, _ = context("A", 2)
        g1 = build_qbg(W, rs.parabolic((1,)))
        rs2 = build_root_system("A", 2)
        W2 = WeylGroup(rs2)
        g2 = build_qbg(W2, rs2.parabolic((1,)))
        for fn in (render.graph_to_dot, render.graph_to_json, render.graph_to_text):
            if fn(g1).encode() != fn(g2).encode():
                raise AssertionError(f"{fn.__name__} varies across rebuilds")
        P1 = LevelZeroPoset(W, (2, 1))
        P2 = LevelZeroPoset(W2, (2, 1))
        for fn in (render.slice_to_dot, render.slice_to_json):
            if fn(P1, 1).encode() != fn(P2, 1).encode():
                raise AssertionError(f"{fn.__name__} varies across rebuilds")
        return "renders stable across independent rebuilds"

    res.run("A2", one)
    return res


# -- registry ----------------------------------------------------------------------

SMALL_TYPES = [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2)]
ROOT_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 4), ("F", 4), ("G", 2),
]
LEVEL_ZERO_CASES = [
    ("A", 2, (2, 1)),
    ("A", 2, (1, 0)),
    ("A", 2, (1, 1)),
    ("C", 2, (1, 0)),
    ("C", 2, (0, 1)),
    ("B", 2, (0, 1)),
    ("B", 2, (1, 1)),
    ("G", 2, (1, 0)),
    ("A", 3, (1, 0, 1)),
]
PATH_WEIGHT_CASES = [
    ("A", 2, ()),
    ("A", 3, ()),
    ("A", 3, (1,)),
    ("A", 3, (1, 3)),
    ("B", 2, ()),
    ("B", 2, (1,)),
    ("B", 2, (2,)),
    ("C", 2, ()),
    ("G", 2, ()),
]

SUITES = {
    "quantum-roots": (suite_quantum_roots, ROOT_TYPES),
    "special-lengths": (suite_special_lengths, ROOT_TYPES),
    "weyl-basics": (suite_weyl_basics, [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2)]),
    "reference-graphs": (suite_reference_graphs, None),
    "qbg-structure": (suite_qbg_structure, SMALL_TYPES),
    "affine-core": (suite_affine_core, [("A", 2), ("B", 2), ("C", 2), ("A", 3)]),
    "lift-roundtrip": (suite_lift_roundtrip, SMALL_TYPES),
    "example-chain": (suite_example_chain, None),
    "diamond": (suite_diamond, [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2)]),
    "level-zero": (suite_level_zero, None),
    "reference-slice": (suite_reference_slice, None),
    "tilted": (suite_tilted, [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2)]),
    "orderings": (suite_orderings, [("A", 2), ("A", 3), ("B", 2), ("C", 2), ("G", 2)]),
    "path-weights": (suite_path_weights, None),
    "connectivity": (suite_connectivity, SMALL_TYPES),
    "determinism": (suite_determinism, None),
}


def run_suite(name: str, types=None) -> SuiteResult:
    fn, default = SUITES[name]
    if default is None:
        return fn()  # suite has structured cases of its own; type list ignored
    return fn(types if types is not None else default)


def run_suites(names, types=None, jobs: int = 1) -> list[SuiteResult]:
    """Run suites (optionally on worker threads); output order is fixed."""
    names = list(names)
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {name: pool.submit(run_suite, name, types) for name in names}
        return [futures[name].result() for name in names]
    return [run_suite(name, types) for name in names]
