import itertools
import random

import pytest

from qbgraph.affine import (
    AffineElement,
    AffineRoot,
    AffineWeyl,
    DIAMOND_CASES,
    SIMPLE_BRUHAT,
    SIMPLE_QUANTUM,
    THETA_BRUHAT,
    THETA_BRUHAT_ORTHO,
    THETA_QUANTUM,
    THETA_QUANTUM_ORTHO,
    complete_bottom,
    complete_top,
    cover_label,
    coweight_box,
    iter_bottom_configurations,
)
from qbgraph.qbg import BRUHAT, QUANTUM, QbgPath, build_qbg
from qbgraph.root_system import RootSystem, build_root_system, is_positive_vec, neg_vec
from qbgraph.verify import all_parabolics
from qbgraph.weyl import WeylGroup


@pytest.fixture(scope="module")
def a2():
    rs = build_root_system("A", 2)
    W = WeylGroup(rs)
    return rs, W, AffineWeyl(W)


def test_affine_length_examples(a2):
    rs, W, aw = a2
    assert aw.length(AffineElement(0, (0, 0))) == 0
    assert aw.length(aw.translation((-2, -4))) == 12
    assert aw.length(aw.from_finite(W.simple_reflection(1))) == 1


def test_length_matches_inversion_oracle(a2):
    rs, W, aw = a2
    for mu in itertools.product(range(-3, 4), repeat=2):
        for wid in (0, 2, 5):
            x = AffineElement(wid, mu)
            assert aw.length(x) == aw.length_by_inversions(x)


class _Tripwire:
    """Stands in for a fast table; any use of it fails the test."""

    def _trip(self, *_args, **_kwargs):
        raise AssertionError("a fast table was used")

    __iter__ = __getitem__ = __len__ = get = _trip


def test_length_oracle_does_not_use_the_fast_tables(monkeypatch):
    rs = build_root_system("B", 3)
    W = WeylGroup(rs)
    aw = AffineWeyl(W)
    xs = [
        AffineElement(wid, mu)
        for wid in range(0, len(W), 5)
        for mu in itertools.product(range(-2, 3), repeat=3)
    ]
    expect = [aw.length(x) for x in xs]
    monkeypatch.setattr(RootSystem, "pairing", _Tripwire._trip)
    monkeypatch.setattr(WeylGroup, "inversion_flags", _Tripwire._trip)
    for table in ("_rows", "positive_rows", "simple_rows"):
        monkeypatch.setattr(rs, table, _Tripwire())
    with pytest.raises(AssertionError, match="fast table"):
        aw.length(xs[0])
    assert [aw.length_by_inversions(x) for x in xs] == expect


def cartan_pairing(rs, c, v):
    n = rs.rank
    return sum(c[i] * rs.cartan[i][j] * v[j] for i in range(n) for j in range(n))


@pytest.mark.parametrize("cartan_type,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_table_predicates_match_their_definitions(cartan_type, rank):
    # in_waf_minus, in_wj_af, is_adjusted and is_superantidominant read the
    # pairing rows and the inversion flags; recompute each from w.act and
    # the Cartan matrix
    rs = build_root_system(cartan_type, rank)
    W = WeylGroup(rs)
    aw = AffineWeyl(W)
    rnd = random.Random(rank)
    simples = rs.simple_roots()
    for nodes in all_parabolics(rank):
        J = rs.parabolic(nodes)
        for _ in range(40):
            w = W.element(rnd.randrange(len(W)))
            mu = tuple(rnd.randint(-3, 2) for _ in range(rank))
            x = AffineElement(w.index, mu)
            pair = {a: cartan_pairing(rs, mu, a) for a in rs.positive_roots}
            assert aw.length(x) == sum(
                abs((0 if is_positive_vec(w.act(a)) else 1) + pair[a])
                for a in rs.positive_roots
            )
            waf_minus = all(
                cartan_pairing(rs, mu, s) < 0
                or (cartan_pairing(rs, mu, s) == 0 and is_positive_vec(w.act(s)))
                for s in simples
            )
            assert aw.in_waf_minus(x) == waf_minus
            assert aw.in_wj_af(x, J) == all(
                pair[a] == (0 if is_positive_vec(w.act(a)) else -1) for a in J.phi_plus
            )
            assert aw.is_adjusted(mu, J) == all(pair[a] in (0, -1) for a in J.phi_plus)
            for depth in (0, 1, 2):
                assert aw.is_superantidominant(mu, J, depth) == all(
                    pair[a] <= (0 if J.supports(a) else -depth) for a in rs.positive_roots
                )


def test_affine_action(a2):
    rs, W, aw = a2
    ident = AffineElement(0, (0, 0))
    for k in (-1, 0, 2):
        for a in rs.positive_roots:
            assert aw.act(ident, AffineRoot(a, k)) == AffineRoot(a, k)
    t = aw.translation((-2, -4))  # pairs to -6 against alpha_2
    assert aw.act(t, AffineRoot((0, 1), 0)) == AffineRoot((0, 1), 6)
    r1 = aw.from_finite(W.simple_reflection(1))
    assert aw.act(r1, AffineRoot((1, 0), 0)) == AffineRoot((-1, 0), 0)


def test_group_law(a2):
    rs, W, aw = a2
    mus = list(itertools.product(range(-2, 3), repeat=2))
    for wid in (1, 3):
        w = W.element(wid)
        for mu in mus[::3]:
            x = AffineElement(wid, mu)
            assert aw.mul(x, aw.inv(x)) == AffineElement(0, (0, 0))
            conj = aw.mul(aw.mul(aw.from_finite(w), aw.translation(mu)),
                          aw.from_finite(w.inverse()))
            assert conj == aw.translation(w.act_coroot(mu))


def test_affine_reflection_form(a2):
    rs, W, aw = a2
    r = aw.reflection(AffineRoot((0, 1), 3))
    assert r.w == W.simple_reflection(2).index
    assert r.mu == (0, 3)
    r0 = aw.simple_affine_reflection(0)
    assert r0.w == W.reflection(rs.theta).index
    assert r0.mu == neg_vec(rs.coroot(rs.theta))


def test_adjusted_examples(a2):
    rs, W, aw = a2
    J = rs.parabolic((1,))
    # W_J-invariant coweights are adjusted with trivial factor
    mu = (-2, -4)
    assert rs.pairing(mu, (1, 0)) == 0
    assert aw.is_adjusted(mu, J)
    assert aw.z_mu(mu, J) == W.identity
    # -theta^vee pairs to -1 against alpha_1
    mtheta = neg_vec(rs.coroot(rs.theta))
    assert rs.pairing(mtheta, (1, 0)) == -1
    assert aw.is_adjusted(mtheta, J)
    z = aw.z_mu(mtheta, J)
    assert z == W.simple_reflection(1)
    assert z.length == -rs.pairing(mtheta, J.two_rho_J) == 1
    # -alpha_1^vee pairs to -2: not adjusted
    assert not aw.is_adjusted((-1, 0), J)
    assert aw.phi_correction((-1, 0), J) == (1, 0)


def test_projection_examples(a2):
    rs, W, aw = a2
    J = rs.parabolic((1,))
    # finite elements project to their coset floor
    for w in W.elements():
        px = aw.project(aw.from_finite(w), J)
        assert px == aw.from_finite(W.min_coset_rep(w, J))
    mtheta = neg_vec(rs.coroot(rs.theta))
    p = aw.project(aw.translation(mtheta), J)
    assert p == AffineElement(W.simple_reflection(1).index, mtheta)
    # right multiplication by the parabolic affinization is invisible
    x = AffineElement(W.from_word([1, 2]).index, (-1, -2))
    for u in (AffineElement(W.simple_reflection(1).index, (0, 0)),
              AffineElement(0, (2, 0))):
        assert aw.project(aw.mul(x, u), J) == aw.project(x, J)


def test_membership_criterion(a2):
    rs, W, aw = a2
    J = rs.parabolic((1,))
    for mu in itertools.product(range(-2, 3), repeat=2):
        for w in W.min_coset_reps(J):
            for zid in W.subgroup_elements((1,)):
                x = AffineElement((w * W.element(zid)).index, mu)
                expect = aw.is_adjusted(mu, J) and aw.z_mu(mu, J).index == zid
                assert aw.in_wj_af(x, J) == expect


def test_sigma_and_witnesses(a2):
    rs, W, aw = a2
    J = rs.parabolic((1,))
    sigma = aw.sigma_J(J)
    assert sorted(sigma) == sorted(
        [W.identity.index, W.simple_reflection(1).index]
    )
    for zid in sigma:
        mu = aw.superantidominant_mu(W.element(zid), J, 5)
        assert aw.is_adjusted(mu, J)
        assert aw.is_superantidominant(mu, J, 5)
        assert aw.z_mu(mu, J).index == zid
    with pytest.raises(ValueError):
        aw.superantidominant_mu(W.simple_reflection(2), J, 3)


def fraction_box(rs):
    """Reference for coweight_box: the coordinates p C^-1 in Fractions."""
    inv = rs.inverse_cartan()
    out = []
    for pairs in itertools.product(range(-2, 3), repeat=rs.rank):
        coords = []
        for b in range(rs.rank):
            c = sum(p * inv[a][b] for a, p in enumerate(pairs) if p)
            if c.denominator != 1:
                break
            coords.append(int(c))
        else:
            out.append(tuple(coords))
    return out


@pytest.mark.parametrize(
    "cartan_type,rank",
    [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("B", 5), ("D", 5), ("E", 6)],
)
def test_coweight_box_matches_fraction_reference(cartan_type, rank):
    rs = build_root_system(cartan_type, rank)
    got = list(coweight_box(rs))
    assert got == fraction_box(rs)
    assert (0,) * rank in got and len(got) > 1
    for mu in got:
        assert all(-2 <= rs.pairing(mu, a) <= 2 for a in rs.simple_roots())


@pytest.mark.parametrize(
    "cartan_type,rank", [("A", 4), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]
)
def test_component_decomposition_meets_its_definition(cartan_type, rank):
    # per component of J, mu plus the correction pairs with the component's
    # simple roots as minus the chosen fundamental coweight (zero for None)
    rs = build_root_system(cartan_type, rank)
    aw = AffineWeyl(WeylGroup(rs))
    rnd = random.Random(rank)
    for size in range(1, rank + 1):
        for J in itertools.combinations(range(1, rank + 1), size):
            par = rs.parabolic(J)
            for _ in range(12):
                mu = tuple(rnd.randint(-5, 5) for _ in range(rank))
                for comp, jm, corr in aw._component_decomposition(mu, par):
                    assert jm is None or jm in comp
                    full = list(mu)
                    for node, c in zip(comp, corr):
                        full[node - 1] += c
                    pairs = [rs.pairing(tuple(full), rs.simple_roots()[j - 1]) for j in comp]
                    assert pairs == [-1 if j == jm else 0 for j in comp]


def test_sigma_proper_subgroup():
    rs = build_root_system("A", 3)
    W = WeylGroup(rs)
    aw = AffineWeyl(W)
    J = rs.parabolic((1, 2))
    sigma = aw.sigma_J(J)
    assert len(sigma) == 3  # rotations only; W_J has order 6
    assert all(W.element(z).length in (0, 2) for z in sigma)
    # twisting by an element outside the image leaves the distinguished coset
    r1 = W.simple_reflection(1)
    assert r1.index not in sigma
    mu = aw.superantidominant_mu(W.identity, J, 4)
    x = AffineElement((W.min_coset_reps(J)[1] * r1).index, mu)
    assert not aw.in_wj_af(x, J)


def test_lift_chain_reproduces_ladder(a2):
    rs, W, aw = a2
    J = rs.parabolic((1,))
    g = build_qbg(W, J)
    mu = (-2, -4)
    e1 = g.edge(W.identity.index, (0, 1))
    e2 = g.edge(e1.target, (1, 1))
    e3 = g.edge(e2.target, (0, 1))
    chain = aw.lift_path(g, QbgPath(W.identity.index, (e1, e2, e3)), mu)
    labels = [cover_label(gam) for _, gam in chain[1:]]
    assert labels == [
        AffineRoot(neg_vec((0, 1)), 6),
        AffineRoot(neg_vec((1, 1)), 6),
        AffineRoot(neg_vec((0, 1)), 5),
    ]
    xs = [x for x, _ in chain]
    assert [aw.length(x) for x in xs] == [12, 11, 10, 9]
    r0r1r2tmu = aw.mul(
        aw.simple_affine_reflection(0),
        aw.mul(aw.from_finite(W.from_word([1, 2])), aw.translation(mu)),
    )
    assert xs[-1] == r0r1r2tmu


def test_lift_trivial_bruhat(a2):
    rs, W, aw = a2
    J = rs.parabolic(())
    g = build_qbg(W, J)
    mu = aw.superantidominant_mu(W.identity, J, aw.lift_depth(g))
    e = g.edge(W.identity.index, (1, 0))
    x, y, gamma = aw.lift_edge(g, e, W.identity, mu)
    assert x == aw.translation(mu)
    assert y == AffineElement(W.simple_reflection(1).index, mu)
    assert gamma.k == rs.pairing(mu, (1, 0))


def test_lift_validation_errors(a2):
    rs, W, aw = a2
    J = rs.parabolic((1,))
    g = build_qbg(W, J)
    e = g.edge(W.identity.index, (0, 1))
    with pytest.raises(ValueError):
        aw.lift_edge(g, e, W.identity, (-1, 0))  # not adjusted
    with pytest.raises(ValueError):
        aw.lift_edge(g, e, W.identity, (0, -1))  # not deep enough
    mu = aw.superantidominant_mu(W.identity, J, aw.lift_depth(g))
    with pytest.raises(ValueError):
        aw.lift_edge(g, e, W.simple_reflection(1), mu)  # z mismatch


def test_lift_every_shortest_path_a3():
    """All 144 shortest paths of A3 J={1} lift from the CLI's mu, and each
    step drops the inversion-count length by exactly one."""
    rs = build_root_system("A", 3)
    W = WeylGroup(rs)
    aw = AffineWeyl(W)
    J = rs.parabolic((1,))
    g = build_qbg(W, J)
    mu = aw.superantidominant_mu(W.identity, J, aw.lift_depth(g))
    pairs = 0
    for u in g.vertices:
        for v in g.vertices:
            path = g.shortest_path(u, v)
            chain = aw.lift_path(g, path, mu)
            assert len(chain) == len(path) + 1
            lengths = [aw.length_by_inversions(x) for x, _ in chain]
            assert all(a - b == 1 for a, b in zip(lengths, lengths[1:])), lengths
            pairs += 1
    assert pairs == 144


def test_lift_path_checks_the_starting_mu(a2):
    rs, W, aw = a2
    J = rs.parabolic((1,))
    g = build_qbg(W, J)
    e = g.edge(W.identity.index, (0, 1))
    with pytest.raises(ValueError):
        aw.lift_path(g, QbgPath(W.identity.index, (e,)), (-1, 0))  # not adjusted
    with pytest.raises(ValueError):
        aw.lift_path(g, QbgPath(W.identity.index, (e,)), (0, -1))  # not deep enough


def test_project_cover_validation(a2):
    rs, W, aw = a2
    J = rs.parabolic((1,))
    mu = aw.superantidominant_mu(W.identity, J, 8)
    x = aw.project(aw.translation(mu), J)
    # not a length-one cover
    y = aw.mul(x, aw.reflection(AffineRoot((1, 0), 0)))
    with pytest.raises(ValueError):
        aw.project_cover(x, y, J)
    # x outside the distinguished set
    bad = AffineElement(W.simple_reflection(1).index, (0, 0))
    with pytest.raises(ValueError):
        aw.project_cover(bad, aw.mul(bad, aw.reflection(AffineRoot((1, 0), 0))), J)
    # from a well-formed x, every length-one cover in the window already has
    # its classical part off Phi_J (the inner directions only move up)
    window = 2 + max(abs(rs.pairing(x.mu, a)) for a in rs.positive_roots)
    for beta in J.phi_plus:
        for n in range(-window, window + 1):
            y = aw.mul(x, aw.reflection(AffineRoot(beta, n)))
            assert aw.length(y) != aw.length(x) - 1


def test_roundtrip_all_edges(a2):
    rs, W, aw = a2
    for nodes in [(), (1,), (2,)]:
        J = rs.parabolic(nodes)
        g = build_qbg(W, J)
        depth = aw.lift_depth(g)
        for zid in aw.sigma_J(J):
            z = W.element(zid)
            mu = aw.superantidominant_mu(z, J, depth)
            for e in g.edges:
                x, y, gamma = aw.lift_edge(g, e, z, mu)
                assert not gamma.is_positive()
                edge, z2, chi, gamma2 = aw.project_cover(x, y, J)
                assert edge == e and z2 == z and gamma2 == gamma
                assert chi == (1 if e.kind == QUANTUM else 0)


def test_cocovers_project(a2):
    rs, W, aw = a2
    J = rs.parabolic((1,))
    g = build_qbg(W, J)
    depth = aw.lift_depth(g)
    mu = aw.superantidominant_mu(W.identity, J, depth)
    x = aw.project(aw.translation(mu), J)
    covers = aw.cocovers(x, J, depth=2)
    outer = [c for c in covers if c[2]]
    assert len(outer) == len(g.out[W.identity.index])
    for y, gamma, _flag in outer:
        edge, _z, _chi, _g = aw.project_cover(x, y, J)
        assert edge.source == W.identity.index


def test_classical_diamond_case(a2):
    rs, W, aw = a2
    J = rs.parabolic(())
    g = build_qbg(W, J)
    # both bottom edges Bruhat, trivial parabolic: the classical diamond
    d = complete_bottom(g, SIMPLE_BRUHAT, W.identity, (0, 1), (1, 0))
    assert d.z == W.identity and d.z2 == W.identity
    assert d.top_left.kind == BRUHAT and d.top_right.kind == BRUHAT
    assert d.top_left.target == d.top_right.target
    # matches the cover structure: both tops end at the length-2 element
    assert W.element(d.top_left.target).length == 2


def test_diamond_hypothesis_errors(a2):
    rs, W, aw = a2
    g = build_qbg(W, rs.parabolic(()))
    with pytest.raises(ValueError):
        complete_bottom(g, SIMPLE_BRUHAT, W.identity, (1, 0), (1, 0))  # gamma clash
    with pytest.raises(ValueError):
        complete_bottom(g, SIMPLE_BRUHAT, W.identity, (0, 1), (1, 1))  # not simple
    with pytest.raises(ValueError):
        complete_bottom(g, THETA_BRUHAT, W.identity, (0, 1))  # theta sign wrong
    with pytest.raises(ValueError):
        complete_bottom(g, "nonsense", W.identity, (0, 1), (1, 0))


PAIRED = {
    SIMPLE_BRUHAT: SIMPLE_BRUHAT,
    SIMPLE_QUANTUM: SIMPLE_QUANTUM,
    THETA_BRUHAT: THETA_QUANTUM,
    THETA_QUANTUM: THETA_BRUHAT,
    THETA_BRUHAT_ORTHO: THETA_BRUHAT_ORTHO,
    THETA_QUANTUM_ORTHO: THETA_QUANTUM_ORTHO,
}


@pytest.mark.parametrize("cartan", [("A", 2), ("B", 2)])
def test_descending_is_relabeled_ascending(cartan):
    rs = build_root_system(*cartan)
    W = WeylGroup(rs)
    for nodes in [(), (1,), (2,)]:
        J = rs.parabolic(nodes)
        g = build_qbg(W, J)
        for case in DIAMOND_CASES:
            for w, gamma, alpha in iter_bottom_configurations(g, case):
                asc = complete_bottom(g, case, w, gamma, alpha)
                if case in (SIMPLE_BRUHAT, SIMPLE_QUANTUM):
                    w2 = W.reflection(alpha) * w
                    gamma2 = gamma
                else:
                    w2 = W.min_coset_rep(W.reflection(rs.theta) * w, J)
                    twist = w2.inverse() * W.reflection(rs.theta) * w
                    gamma2 = twist.act(gamma)
                desc = complete_top(g, PAIRED[case], w2, gamma2, alpha)
                assert {asc.bottom_left, asc.bottom_right, asc.top_left, asc.top_right} == {
                    desc.bottom_left,
                    desc.bottom_right,
                    desc.top_left,
                    desc.top_right,
                }
