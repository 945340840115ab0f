"""Exhaustive small-rank verification suites.

Each suite checks one family of structural claims over a set of Cartan
types and reports one line per (type, rank, parabolic, check) case with a
counterexample dump on failure.  A suite is one module-level check that
returns its detail string, registered with ``@suite`` together with a case
generator; one runner calls the check on every case the generator yields.
"""

from __future__ import annotations

import itertools
import os
import pickle
import select
import signal
import struct
import sys
import threading
from dataclasses import dataclass, field

from . import render
from .affine import (
    AffineElement,
    AffineWeyl,
    DIAMOND_CASES,
    THETA_BRUHAT,
    THETA_QUANTUM,
    affine_simple_root,
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
    increasing_paths,
    induced_coset_subgraph,
    lambda_ordering,
    reflection_ordering_from_word,
    subsystem_word_ordering,
)
from .root_system import (
    add_vec,
    build_root_system,
    is_positive_vec,
    scale_vec,
    sub_vec,
)
from .tilted import (
    TiltedOrder,
    expected_weight_shift,
    left_multiplication_step,
    left_step_edge,
    left_step_subgraph_strongly_connected,
    quantum_length,
    surgery_cases,
    transform_path,
)
from .weyl import Trichotomy, build_weyl_group


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
        W = build_weyl_group(cartan_type, rank)
        got = (W.rs, W, AffineWeyl(W))
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


# -- registration and case generators --------------------------------------------

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

#: name -> (run(types) -> SuiteResult, default types or None), filled by
#: ``@suite`` in report order; None marks a suite with its own case list
SUITES: dict[str, tuple] = {}
#: name -> the claim its report states
CLAIMS: dict[str, str] = {}


def suite(name: str, claim: str, cases, types=None):
    """Register the decorated check as suite NAME.

    ``cases(types)`` yields (case name, argument tuple) pairs and builds
    each case's context before the case runs, so a bad type raises out of
    the runner instead of failing a case.  ``types`` is the default type
    list; a suite that leaves it None runs its own cases and ignores any.
    """

    def register(check):
        def run(override=None) -> SuiteResult:
            res = SuiteResult(name, claim)
            for case, args in cases(types if override is None else override):
                try:
                    detail = check(*args)
                    res.cases.append(CaseResult(case, True, detail or ""))
                except Exception as exc:  # noqa: BLE001 - the report captures it
                    res.cases.append(CaseResult(case, False, f"{type(exc).__name__}: {exc}"))
            return res

        SUITES[name] = (run, types)
        CLAIMS[name] = claim
        return check

    return register


def per_type(types):
    """One case per type; the check takes (rs, W, aw)."""
    for t, r in types:
        yield _tag(t, r), context(t, r)


def per_parabolic(types, proper: bool = False):
    """One case per type and parabolic J; the check takes (rs, W, aw, J)."""
    for t, r in types:
        rs, W, aw = context(t, r)
        for J_nodes in all_parabolics(r, proper):
            yield _tag(t, r, J_nodes), (rs, W, aw, rs.parabolic(J_nodes))


def per_proper_parabolic(types):
    """``per_parabolic`` over the proper J, the quotients a graph lifts from."""
    return per_parabolic(types, proper=True)


def own_cases(table, tag):
    """The rows (type, rank, extra) of TABLE; the check takes (rs, W, aw, extra)."""
    return lambda _types: (
        (tag(t, r, extra), (*context(t, r), extra)) for t, r, extra in table
    )


def fixed(*cases):
    """A constant list of (case name, argument tuple) pairs."""
    return lambda _types: cases


# -- suites ---------------------------------------------------------------------


@suite("quantum-roots",
       "long/short classification of quantum roots agrees with the "
       "reflection-length criterion len(r_a) = <a^vee, 2rho> - 1",
       lambda types: ((_tag(t, r), (build_root_system(t, r),)) for t, r in types),
       ROOT_TYPES)
def quantum_roots(rs):
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


@suite("special-lengths",
       "the factor v_i of the longest element over a special node has "
       "length <omega_i^vee, 2rho>",
       per_type, ROOT_TYPES)
def special_lengths(rs, W, _aw):
    length = W._length
    checked = []
    for i in rs.special_nodes():
        v = length[W.special_v(i)]
        expect = rs.two_rho[i - 1]
        if v != expect:
            raise AssertionError(f"node {i}: len {v} != {expect}")
        rest = tuple(j for j in range(1, rs.rank + 1) if j != i)
        if v + length[W.longest(rest)] != length[W.longest()]:
            raise AssertionError(f"node {i}: factorization not length-additive")
        checked.append(i)
    return f"special nodes {checked}" if checked else "no special nodes"


@suite("weyl-basics",
       "parabolic decomposition is length-additive, the coset trichotomy "
       "is exhaustive, and conjugation by the longest element preserves length",
       per_type, SMALL_TYPES)
def weyl_basics(rs, W, _aw):
    length, mul = W._length, W.mul
    w0 = W.longest()
    for w in range(len(W)):
        if length[mul(mul(w0, w), w0)] != length[w]:
            raise AssertionError("conjugation by w0 changed a length")
    for J_nodes in all_parabolics(rs.rank):
        J = rs.parabolic(J_nodes)
        wjset = set(W.subgroup_elements(J.nodes))
        for w in range(len(W)):
            u, v = W.parabolic_decompose(w, J)
            if mul(u, v) != w or v not in wjset:
                raise AssertionError("decomposition broke")
            if length[u] + length[v] != length[w]:
                raise AssertionError("decomposition not length-additive")
        for v in W.min_coset_ids(J):
            for i in range(1, rs.rank + 1):
                rv = mul(W._right[i - 1][0], v)  # r_i v
                down = length[rv] < length[v]
                inside = mul(W._inverse[v], rv) in wjset
                if down:
                    ok = W.coset_floor(rv, J) == rv and not inside
                elif inside:
                    ok = W.coset_floor(rv, J) == v
                else:
                    ok = W.coset_floor(rv, J) == rv
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


def _a2_full_graph():
    rs, W, _ = context("A", 2)
    g = build_qbg(W, rs.parabolic(()))
    _require(len(g.edges) == 15 and len(g.quantum_edges()) == 7)
    w0 = W.longest()
    theta_edge = g.edge(w0, rs.theta)
    _require(theta_edge is not None and theta_edge.kind == QUANTUM)
    _require(theta_edge.target == 0)
    _require(all(
        e.source == w0 for e in g.edges if e.label == rs.theta and e.kind == QUANTUM
    ))
    return "15 edges, 7 quantum, theta edge from the top"


def _a3_parabolic_graph():
    rs, W, _ = context("A", 3)
    g = build_qbg(W, rs.parabolic((1, 3)))
    by_line = {W.describe(v): v for v in g.vertices}
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
        (W.describe(e.source), W.describe(e.target), e.label, e.kind)
        for e in g.edges
    }
    _require(have == expect, have ^ expect)
    return "8 edges, 2 quantum, matching the reference edge list"


def _a2_cycle():
    rs, W, _ = context("A", 2)
    g = build_qbg(W, rs.parabolic((1,)))
    _require(len(g.vertices) == 3 and len(g.edges) == 3)
    _require(len(g.quantum_edges()) == 1)
    for v in g.vertices:
        _require(len(g.out[v]) == 1)
    _require(g.distance(g.vertices[0], g.vertices[0]) == 0)
    r1, r2 = (col[0] for col in W._right)
    _require(g.distance(W.mul(r1, r2), r2) == 2)
    return "3-cycle with one quantum edge"


@suite("reference-graphs",
       "the rank-2 and rank-3 reference graphs have the expected "
       "vertex, edge and quantum-edge structure",
       fixed(("A2 full graph", (_a2_full_graph,)),
             ("A3 J={1,3}", (_a3_parabolic_graph,)),
             ("A2 J={1} cycle", (_a2_cycle,))))
def reference_graphs(graph_check):
    return graph_check()


def _independent_edge_oracle(rs, W, aw, J, w, alpha):
    """Edge classification from raw lengths and the affine membership test."""
    length = W._length
    x = W.mul(w, W.right_reflect(0, alpha))
    if length[x] == length[w] + 1:
        if W.coset_floor(x, J) != x:
            raise AssertionError("Bruhat target left W^J")
        return (BRUHAT, x)
    quantum_in_w = (
        length[x] == length[w] - rs.reflection_length(alpha)
        and rs.is_quantum_root(alpha)
    )
    if quantum_in_w and aw.in_wj_af(AffineElement(x, rs.coroot(alpha)), J):
        return (QUANTUM, W.coset_floor(x, J))
    return None


def _dual_label(W, w0J, e):
    """(label of the dual of edge e, u) with u = target^-1 source r_label."""
    # floored quantum targets twist the label rule by the
    # W_J remainder of the unfloored product
    u = W.mul(W.mul(W._inverse[e.target], e.source), W.right_reflect(0, e.label))
    lab = W.act(w0J, W.act(u, e.label))
    _require(is_positive_vec(lab), f"dual label {lab} of {e} is not positive")
    return lab, u


@suite("qbg-structure",
       "graph edges match the raw-length oracle with the affine membership "
       "form of the quantum condition; duality reverses edges preserving "
       "kind; the graph is strongly connected; coset copies embed",
       per_parabolic, SMALL_TYPES)
def qbg_structure(rs, W, aw, J):
    g0 = build_qbg(W, rs.parabolic(()))
    g = build_qbg(W, J)
    # oracle comparison over every (w, alpha)
    labels = [a for a in rs.positive_roots if not J.supports(a)]
    want = {}
    for v in g.vertices:
        for a in labels:
            got = _independent_edge_oracle(rs, W, aw, J, v, a)
            if got is not None:
                want[(v, a)] = got
    have = {(e.source, e.label): (e.kind, e.target) for e in g.edges}
    if want != have:
        extra = set(have) ^ set(want)
        raise AssertionError(f"edge sets differ at {sorted(extra)[:3]}")
    g.diameter()  # also asserts strong connectivity
    # duality
    for v in g.vertices:
        vv = dual_involution(g, v)
        if dual_involution(g, vv) != v:
            raise AssertionError("duality is not an involution")
        expect = len(rs.positive_roots) - len(J.phi_plus) - W._length[v]
        if W._length[vv] != expect:
            raise AssertionError("duality length formula failed")
    w0J = W.longest(J.nodes)
    for e in g.edges:
        src = dual_involution(g, e.target)
        dst = dual_involution(g, e.source)
        lab, u = _dual_label(W, w0J, e)
        mirror = g.edge(src, lab)
        if mirror is None or mirror.target != dst or mirror.kind != e.kind:
            raise AssertionError(f"dual edge missing for {e}")
        if u == 0 and lab != W.act(w0J, e.label):
            raise AssertionError("plain dual label rule failed")
        lab2, _ = _dual_label(W, w0J, mirror)
        if g.edge(dual_involution(g, mirror.target), lab2) != e:
            raise AssertionError("dual edge map is not an involution")
    # embedded copies w -> wz inside the full graph; a quantum
    # edge lands in the copy twisted by the label's Weyl factor,
    # so its image target is the unfloored product
    for z in aw.sigma_J(J):
        zinv = W._inverse[z]
        for e in g.edges:
            img = g0.edge(W.mul(e.source, z), W.act(zinv, e.label))
            want = W.mul(W.mul(e.source, W.right_reflect(0, e.label)), z)
            if e.kind == BRUHAT and want != W.mul(e.target, z):
                raise AssertionError("Bruhat image left the coset copy")
            if img is None or img.kind != e.kind or img.target != want:
                raise AssertionError("coset embedding broke an edge")
    return f"{len(g.vertices)} vertices, {len(g.edges)} edges"


@suite("affine-core",
       "the closed-form affine length matches the inversion count; the "
       "parabolic projection obeys its factorization, idempotence and "
       "product rules; adjusted coweights behave as a homomorphism",
       per_type, [("A", 2), ("B", 2), ("C", 2), ("A", 3)])
def affine_core(rs, W, aw):
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
            t_mu = aw.translation(mu)
            w = AffineElement(wid, rs.zero)
            conj = aw.mul(aw.mul(w, t_mu), aw.inv(w))
            if conj != aw.translation(W.act_coroot(wid, mu)):
                raise AssertionError("translation conjugation failed")
            if aw.mul(x, aw.inv(x)) != AffineElement(0, (0,) * rs.rank):
                raise AssertionError("inverse failed")
    for J_nodes in all_parabolics(rs.rank):
        J = rs.parabolic(J_nodes)
        wj_ids = set(W.subgroup_elements(J.nodes))
        for mu in box:
            adj = aw.is_adjusted(mu, J)
            if adj != (aw.phi_correction(mu, J) == (0,) * rs.rank):
                raise AssertionError("adjusted test disagrees with phi")
            if adj:
                z = aw.z_mu(mu, J)
                if W._length[z] != -rs.pairing(mu, J.two_rho_J):
                    raise AssertionError("adjusted z-length formula failed")
                invariant = all(
                    rs.pairing(mu, rs.simple_roots()[j - 1]) == 0
                    for j in J.nodes
                )
                if invariant != (adj and z == 0):
                    raise AssertionError("invariance criterion failed")
            # membership criterion over a couple of finite parts
            for wid in sample_w:
                if W.coset_floor(wid, J) != wid:
                    continue
                for zid in (0, next(iter(wj_ids - {0}), 0)):
                    x = AffineElement(W.mul(wid, zid), mu)
                    member = aw.in_wj_af(x, J)
                    expect = aw.is_adjusted(mu, J) and aw.z_mu(mu, J) == zid
                    if member != expect:
                        raise AssertionError("membership criterion failed")
        # homomorphism and W_J-invariance of the factor map
        small = [mu for mu in itertools.product(range(-1, 2), repeat=rs.rank)]
        for mua in small:
            za = aw.z_mu(mua, J)
            for mub in small[:: max(1, len(small) // 8)]:
                zb = aw.z_mu(mub, J)
                if aw.z_mu(add_vec(mua, mub), J) != W.mul(za, zb):
                    raise AssertionError("factor map is not a homomorphism")
            for vj in list(wj_ids)[:4]:
                if aw.z_mu(W.act_coroot(vj, mua), J) != za:
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
                    v = AffineElement(vid, rs.zero)
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
            if W.coset_floor(wid, J) != wid:
                continue
            for mu0 in small[:: max(1, len(small) // 6)]:
                if not aw.is_adjusted(mu0, J):
                    continue
                mu = sub_vec(mu0, scale_vec(3, h))
                if not aw.is_superantidominant(mu, J, 1):
                    continue
                x = AffineElement(W.mul(wid, aw.z_mu(mu, J)), mu)
                expect = -rs.pairing(mu, sub_vec(rs.two_rho, J.two_rho_J)) - W._length[wid]
                if aw.length(x) != expect:
                    raise AssertionError("antidominant length formula failed")
                if not aw.in_waf_minus(x):
                    raise AssertionError("expected a minimum coset element")
    return f"length window {checked}, box +-2"


@suite("lift-roundtrip",
       "every graph edge lifts to a length-one affine cover that projects "
       "back to it, and every affine cover in the window projects to an edge",
       per_proper_parabolic, SMALL_TYPES)
def lift_roundtrip(_rs, W, aw, J):
    g = build_qbg(W, J)
    depth = aw.lift_depth(g)
    sigma = aw.sigma_J(J)
    lifted = 0
    for zid in sorted(sigma):
        mu = aw.superantidominant_mu(W.element(zid), J, depth)
        for e in g.edges:
            x, y, gamma = aw.lift_edge(g, e, zid, mu)
            e2, z2, chi, gamma2 = aw.project_cover(x, y, J)
            if e2 != e or z2 != zid or gamma2 != gamma:
                raise AssertionError(f"roundtrip failed at {e}")
            if chi != (1 if e.kind == QUANTUM else 0):
                raise AssertionError("kind discriminant mismatch")
            lifted += 1
    covered = 0
    for zid in sorted(sigma):
        mu = aw.superantidominant_mu(W.element(zid), J, depth)
        for v in g.vertices:
            x = AffineElement(W.mul(v, zid), mu)
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


@suite("example-chain",
       "the worked rank-2 parabolic ladder: the 3-cycle lifts over "
       "mu = (-2,-4) to the chain with labels 6d-a2, 6d-a1-a2, 5d-a2",
       fixed(("A2 J={1} ladder", ())))
def example_chain():
    rs, W, aw = context("A", 2)
    J = rs.parabolic((1,))
    g = build_qbg(W, J)
    mu = (-2, -4)
    e1 = g.edge(0, (0, 1))
    e2 = g.edge(e1.target, (1, 1))
    e3 = g.edge(e2.target, (0, 1))
    _require((e1.kind, e2.kind, e3.kind) == (BRUHAT, BRUHAT, QUANTUM))
    chain = aw.lift_path(g, QbgPath(0, (e1, e2, e3)), mu)
    labels = [render.affine_root_text(gam) for _, gam in chain[1:]]
    _require(labels == ["6d-a2", "6d-a1-a2", "5d-a2"], labels)
    words = [tuple(W._word[x.w]) for x, _ in chain]
    _require(words == [(), (2,), (1, 2), (1,)], words)
    mus = [x.mu for x, _ in chain]
    _require(mus == [(-2, -4)] * 3 + [(-2, -3)], mus)
    lens = [aw.length(x) for x, _ in chain]
    _require(lens == [12, 11, 10, 9], lens)
    return "chain of three covers with the expected labels"


@suite("diamond",
       "in all six diamond families the given pair of edges forces the "
       "opposite pair, with path weights congruent mod Q_J^vee",
       per_parabolic, SMALL_TYPES)
def diamond(_rs, W, _aw, J):
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
    # the theta-Bruhat and theta-quantum families swap; the others pair with themselves
    pair = {case: case for case in DIAMOND_CASES}
    pair.update({THETA_BRUHAT: THETA_QUANTUM, THETA_QUANTUM: THETA_BRUHAT})
    ups = {case: n for case, n, _ in counts}
    for case, _n, m in counts:
        if m != ups[pair[case]]:
            raise AssertionError(f"relabel count mismatch in {case}")
    total = sum(n + m for _, n, m in counts)
    return f"{total} completions"


@suite("level-zero",
       "brute-force cover relations of the weight poset match the "
       "graph-derived covers with labels; raising by admissible simple "
       "roots is a cover; the diamond and duality laws hold",
       own_cases(LEVEL_ZERO_CASES, lambda t, r, lam: f"{t}{r} lambda={lam}"))
def level_zero(rs, W, aw, lam):
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
                nu = P.reflect(mu, affine_simple_root(rs, i))
                if not P.certified(nu, window):
                    continue
                if P.dist(mu, nu, window) != 1:
                    raise AssertionError("simple raising is not a cover")
    # diamond law: two covers from mu by a simple root and any root
    for mu, covers in hasse.items():
        for i in range(0, rs.rank + 1):
            if P.affine_simple_pairing(i, mu) <= 0:
                continue
            alpha = affine_simple_root(rs, i)
            nu_a = P.reflect(mu, alpha)
            if not P.certified(nu_a, window):
                continue
            for c in covers:
                if c.label == alpha:
                    continue
                top1 = P.reflect(c.upper, alpha)
                top2 = P.reflect(nu_a, aw.act(aw.reflection(alpha), c.label))
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
    nodes = range(0, rs.rank + 1)
    for mu in elems:
        pms = [P.affine_simple_pairing(i, mu) for i in nodes]
        for nu in _descendants(P, hasse, mu):
            for i, pm in zip(nodes, pms):
                pn = P.affine_simple_pairing(i, nu)
                if pm >= 0 > pn:
                    down = P.reflect(nu, affine_simple_root(rs, i))
                    if not P.certified(down, window):
                        continue
                    if not P.leq(mu, down, window):
                        raise AssertionError("contraction left the interval")
                    if P.dist(mu, down, window) >= P.dist(mu, nu, window):
                        raise AssertionError("contraction did not shorten")
                    littel += 1
    # duality against the antidominant orbit
    N = LevelZeroPoset(W, tuple(-c for c in lam))
    for mu in elems[:10]:
        for nu in list(_descendants(P, hasse, mu))[:6]:
            a = LevelZeroWeight(mu.w, -mu.n)
            b = LevelZeroWeight(nu.w, -nu.n)
            if not N.leq(b, a, window):
                raise AssertionError("duality order reversal failed")
    return f"{checked} certified elements, {littel} contractions"


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


@suite("reference-slice",
       "the rank-2 regular slice has 18 vertices over three delta layers "
       "and its n = 0 layer carries exactly the non-quantum edges",
       fixed(("A2 lambda=(2,1)", ())))
def reference_slice():
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


@suite("tilted",
       "every coset has a unique distance-minimizer from every base point, "
       "below the whole coset in the tilted order, and equal to the "
       "minimum-length representative from the identity",
       per_type, SMALL_TYPES)
def tilted(rs, W, _aw):
    g = build_qbg(W, rs.parabolic(()))
    T = TiltedOrder(g)
    triples = 0
    for J_nodes in all_parabolics(rs.rank):
        J = rs.parabolic(J_nodes)
        for u in g.vertices:
            for z in range(len(W)):
                x0 = T.coset_min(u, W.element(z), J).index
                if u == 0 and x0 != W.coset_floor(z, J):
                    raise AssertionError("identity base disagrees")
                triples += 1
    return f"{triples} (u, z, J) triples"


@suite("orderings",
       "weight-scaled orderings are reflection orderings; the increasing "
       "path to the coset minimizer avoids Phi_J labels, for several "
       "choices of ordering; coset subgraphs are copies of the subsystem graph",
       per_type, SMALL_TYPES)
def reflection_orderings(rs, W, _aw):
    g = build_qbg(W, rs.parabolic(()))
    T = TiltedOrder(g)
    # unique increasing path between every ordered pair, word ordering
    order0 = reflection_ordering_from_word(W, W._word[W.longest()])
    for u in g.vertices:
        row = g.distances_from(u)
        for v, p in increasing_paths(g, u, order0).items():
            if len(p) != row[g.vertex_pos[v]]:
                raise AssertionError("increasing path is not shortest")
    checked = 0
    for J_nodes in all_parabolics(rs.rank, proper=True):
        if not J_nodes:
            continue
        J = rs.parabolic(J_nodes)
        lam1 = tuple(0 if (i + 1) in J.nodes else 1 for i in range(rs.rank))
        lam2 = tuple(0 if (i + 1) in J.nodes else 2 + i for i in range(rs.rank))
        sub2 = tuple(reversed(subsystem_word_ordering(W, J)))
        orderings = [
            lambda_ordering(W, lam1, J),
            lambda_ordering(W, lam2, J),
            lambda_ordering(W, lam1, J, sub_order=sub2),
        ]
        for ordering in orderings:
            for u in g.vertices:
                paths = increasing_paths(g, u, ordering)
                for z in range(0, len(W), max(1, len(W) // 8)):
                    x0 = T.coset_min(u, W.element(z), J).index
                    p = paths[x0]
                    if any(J.supports(e.label) for e in p.edges):
                        raise AssertionError("minimizer path used a Phi_J label")
                    checked += 1
        ref = build_subsystem_qbg(W, J)
        for z in range(0, len(W), max(1, len(W) // 6)):
            z0 = W.coset_floor(z, J)
            sub = induced_coset_subgraph(g, z, J)
            mapped = {
                (W.mul(z0, e.source), W.mul(z0, e.target), e.label, e.kind)
                for e in ref.edges
            }
            got = {(e.source, e.target, e.label, e.kind) for e in sub.edges}
            if mapped != got:
                raise AssertionError("coset subgraph is not a copy")
    return f"{checked} minimizer paths"


@suite("path-weights",
       "against a shortest path, any path's extra weight is nonnegative "
       "off Q_J^vee and zero for other shortest paths; surgery by a simple "
       "or theta step preserves weights up to the stated correction",
       own_cases(PATH_WEIGHT_CASES, _tag))
def path_weights(rs, W, _aw, J_nodes):
    J = rs.parabolic(J_nodes)
    g = build_qbg(W, J)
    cap = g.diameter() + 3
    pos = g.vertex_pos
    walks = 0
    for u in g.vertices:
        dist_u = g.distances_from(u)
        base_cls = {
            v: J.weight_class(g.shortest_path(u, v).weight(rs.rank))
            for v in g.vertices
        }
        # a path's contribution depends only on (endpoint, weight,
        # length), so iterate over distinct weight states per depth
        frontier = {(u, (0,) * rs.rank)}
        for depth in range(cap + 1):
            for cur, wt in frontier:
                cls = J.weight_class(wt)
                diff = sub_vec(cls, base_cls[cur])
                if any(c < 0 for c in diff):
                    raise AssertionError(f"negative weight class at {cur}")
                if depth == dist_u[pos[cur]] and any(diff):
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
        for p, weight in g.shortest_paths_from(u):
            d = len(p)
            cls = J.weight_class(weight)
            for j in range(0, rs.rank + 1):
                for case in surgery_cases(g, p, j):
                    p2 = transform_path(g, p, j, case)
                    want_len = d - 1 if case in (1, 3) else d
                    if len(p2) != want_len:
                        raise AssertionError("surgery length wrong")
                    shift = expected_weight_shift(g, p, j, case)
                    want = J.weight_class(add_vec(weight, shift)) if any(shift) else cls
                    if J.weight_class(p2.weight(rs.rank)) != want:
                        raise AssertionError("surgery weight wrong")
                    if len(p2) != g.distance(p2.start, p2.end):
                        raise AssertionError("surgery lost shortestness")
                    moved += 1
    return f"{walks} weight states, {moved} surgeries"


@suite("connectivity",
       "the subgraph of left multiplication steps by simple or theta "
       "reflections is strongly connected and computes the quantum length",
       per_proper_parabolic, SMALL_TYPES)
def connectivity(rs, W, _aw, J):
    g = build_qbg(W, J)
    if not left_step_subgraph_strongly_connected(g):
        raise AssertionError("left-step subgraph not strongly connected")
    for v in g.vertices:
        for i in range(0, rs.rank + 1):
            left_step_edge(g, i, v)  # asserts edge membership
            step = left_multiplication_step(g, v, i)
            if step.edge is not None:
                want = QUANTUM if i == 0 else BRUHAT
                if step.edge.kind != want:
                    raise AssertionError("left step has the wrong kind")
    qls = [quantum_length(g, v) for v in g.vertices]
    return f"max quantum length {max(qls)}"


@suite("determinism",
       "repeated renders of the same graph and slice are byte-identical",
       fixed(("A2", ())))
def determinism():
    rs, W, _ = context("A", 2)
    g1 = build_qbg(W, rs.parabolic((1,)))
    W2 = build_weyl_group("A", 2)
    g2 = build_qbg(W2, W2.rs.parabolic((1,)))
    for fn in (render.graph_to_dot, render.graph_to_json, render.graph_to_text):
        if fn(g1).encode() != fn(g2).encode():
            raise AssertionError(f"{fn.__name__} varies across rebuilds")
    P1 = LevelZeroPoset(W, (2, 1))
    P2 = LevelZeroPoset(W2, (2, 1))
    for fn in (render.slice_to_dot, render.slice_to_json):
        if fn(P1, 1).encode() != fn(P2, 1).encode():
            raise AssertionError(f"{fn.__name__} varies across rebuilds")
    return "renders stable across independent rebuilds"


def run_suite(name: str, types=None) -> SuiteResult:
    """Run one suite over TYPES, or over its default cases when None."""
    return SUITES[name][0](types)


#: the suites that take longest over their default cases, pulled first so
#: that none of them starts last and leaves the other workers idle
HEAVIEST = ("path-weights", "affine-core", "level-zero")

_POSITION = struct.Struct("<H")  # one queue entry: a position in the names
_FRAME = struct.Struct("<I")  # the byte length of the pickle that follows


def _queue(names) -> list[int]:
    """Positions in NAMES in the order workers take them: the HEAVIEST
    suites first, then the rest in report order."""
    rank = {name: i for i, name in enumerate(HEAVIEST)}
    return sorted(range(len(names)), key=lambda i: (rank.get(names[i], len(HEAVIEST)), i))


def _workers(count: int) -> int:
    """How many processes run COUNT suites: one per usable CPU, at most one
    per suite.  One, the caller alone, for a single suite; when fork is
    missing; when another thread is alive, since a child would inherit any
    lock that thread holds, such as ``_context_lock``; or when the queue
    would not fit in one atomic pipe write, so that filling it can never
    block."""
    if (count < 2 or not hasattr(os, "fork") or threading.active_count() > 1
            or count * _POSITION.size > select.PIPE_BUF):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, count)


def _attempt(name: str, types):
    """(True, the suite's result), or (False, the exception it raised
    outside any case)."""
    try:
        return True, run_suite(name, types)
    except Exception as exc:  # noqa: BLE001 - re-raised by run_suites in report order
        return False, exc


def _taken(queue_fd: int):
    """The positions this process takes from the queue pipe, until it is
    empty.  Every write end is closed before any worker reads, and a pipe
    read is atomic, so each position goes to exactly one worker."""
    while entry := os.read(queue_fd, _POSITION.size):
        yield _POSITION.unpack(entry)[0]


def _helper(names, types, queue_fd: int, out_fd: int, inherited) -> None:
    """A forked worker: close the INHERITED pipe ends, run suites from the
    queue, send each outcome back as one length-prefixed pickle, and leave
    by ``os._exit`` so that no exit handler or stdio buffer of the parent
    runs twice."""
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        with open(out_fd, "wb") as out:
            for pos in _taken(queue_fd):
                blob = pickle.dumps((pos, _attempt(names[pos], types)))
                out.write(_FRAME.pack(len(blob)) + blob)
                out.flush()
        code = 0
    finally:
        os._exit(code)


def _unpack(data: bytes, outcomes: dict) -> None:
    """Add the outcomes in DATA, up to its first short or unreadable frame."""
    at = 0
    while at + _FRAME.size <= len(data):
        (size,) = _FRAME.unpack_from(data, at)
        at += _FRAME.size
        if at + size > len(data):
            return
        try:
            pos, outcome = pickle.loads(data[at:at + size])
        except Exception:  # noqa: BLE001 - a damaged frame ends what this helper sent
            return
        outcomes[pos] = outcome
        at += size


def _wait_status(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"wait status {status}, killed by signal {os.WTERMSIG(status)}"
    return f"wait status {status}, exit code {os.WEXITSTATUS(status)}"


def _run_parallel(names, types, workers: int) -> dict:
    """Outcomes by position: the caller runs its share and WORKERS - 1
    forked helpers run theirs.  Helpers are reaped on every path; if the
    caller's own share raises, the ones still running are killed first."""
    queue_r, queue_w = os.pipe()
    try:
        os.write(queue_w, b"".join(_POSITION.pack(i) for i in _queue(names)))
    finally:
        os.close(queue_w)
    sys.stdout.flush()
    sys.stderr.flush()
    outcomes: dict[int, tuple] = {}
    helpers: dict[int, int] = {}  # pid -> read end of its outcome pipe
    statuses = []
    try:
        for _ in range(workers - 1):
            out_r, out_w = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no process to spare: the workers so far share the queue
                os.close(out_r)
                os.close(out_w)
                break
            if pid == 0:
                _helper(names, types, queue_r, out_w, (out_r, *helpers.values()))
            os.close(out_w)
            helpers[pid] = out_r
        for pos in _taken(queue_r):
            outcomes[pos] = _attempt(names[pos], types)
        for pid, out_r in list(helpers.items()):
            with open(out_r, "rb", closefd=False) as sent:
                _unpack(sent.read(), outcomes)
            os.close(helpers.pop(pid))
            statuses.append(_wait_status(os.waitpid(pid, 0)[1]))
    finally:
        os.close(queue_r)
        for pid, out_r in helpers.items():
            os.close(out_r)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    lost = f"no result arrived; worker processes ended with {'; '.join(statuses)}"
    for pos, name in enumerate(names):
        if pos not in outcomes:
            res = SuiteResult(name, CLAIMS[name], [CaseResult("all cases", False, lost)])
            outcomes[pos] = (True, res)
    return outcomes


def run_suites(names, types=None) -> list[SuiteResult]:
    """Run suites and return their results in the order given.

    Whole suites run in one process per usable CPU (see ``_workers``): the
    caller forks the helpers before any suite runs, and every worker takes
    positions from one queue filled beforehand, HEAVIEST first.  Fork, not
    spawn, so that helpers share the caller's state, patched code included.
    Results do not depend on the worker count or the queue order: each
    suite's cases are the same run alone as in any mix.  A suite that
    raises outside its cases raises here, the first such in the order
    given, after every suite has run.  A suite whose helper died without
    reporting it fails with one case that names the helpers' wait statuses.
    """
    names = list(names)
    workers = _workers(len(names))
    if workers == 1:
        outcomes = {pos: _attempt(names[pos], types) for pos in _queue(names)}
    else:
        outcomes = _run_parallel(names, types, workers)
    for pos in range(len(names)):
        ok, value = outcomes[pos]
        if not ok:
            raise value
    return [outcomes[pos][1] for pos in range(len(names))]
