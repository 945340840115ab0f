import itertools
import random

import pytest

from qbgraph import affine
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
    affine_simple_root,
    iter_bottom_configurations,
    iter_top_configurations,
)
from qbgraph.qbg import (
    BRUHAT,
    QUANTUM,
    GraphInvariantError,
    QbgGraph,
    QbgPath,
    build_qbg,
    build_subsystem_qbg,
    induced_coset_subgraph,
)
from qbgraph.root_system import (
    RootSystem,
    build_root_system,
    cover_label,
    is_positive_vec,
    neg_vec,
)
from qbgraph.verify import SMALL_TYPES, all_parabolics
from qbgraph.weyl import WeylGroup, build_weyl_group


@pytest.fixture(scope="module")
def a2():
    rs = build_root_system("A", 2)
    W = WeylGroup(rs)
    return rs, W, AffineWeyl(W)


def test_affine_length_examples(a2):
    rs, W, aw = a2
    assert aw.length(AffineElement(0, (0, 0))) == 0
    assert aw.length(aw.translation((-2, -4))) == 12
    assert aw.length(aw.from_finite(W.from_word([1]))) == 1


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
    for method in ("inversion_flags", "act", "comatrix"):
        monkeypatch.setattr(WeylGroup, method, _Tripwire._trip)
    for table in ("_rows", "positive_rows", "simple_rows"):
        monkeypatch.setattr(rs, table, _Tripwire())
    # the signed root permutations, filled or not
    monkeypatch.setattr(W, "_perms", _Tripwire())
    with pytest.raises(AssertionError, match="fast table"):
        aw.length(xs[0])
    assert [aw.length_by_inversions(x) for x in xs] == expect


ORACLE_TYPES = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)]


@pytest.mark.parametrize("cartan_type,rank", ORACLE_TYPES)
def test_length_equals_its_oracle_while_rows_are_dropped(monkeypatch, cartan_type, rank):
    # length reads mu's pairing row from the fact table; with 8 entries the
    # rows of 12 coweights are dropped and rebuilt mid-run, and every length
    # still equals the oracle's, which keeps nothing in the table
    monkeypatch.setattr(affine, "FACT_TABLE_SIZE", 8)
    W = build_weyl_group(cartan_type, rank)
    aw = AffineWeyl(W)
    rnd = random.Random(29)
    mus = [tuple(rnd.randint(-4, 4) for _ in range(rank)) for _ in range(12)]
    seen, rebuilt = set(), 0
    for _ in range(400):
        x = AffineElement(rnd.randrange(len(W)), rnd.choice(mus))
        rebuilt += x.mu in seen and (x.mu,) not in aw._facts
        seen.add(x.mu)
        assert aw.length(x) == aw.length_by_inversions(x), x
        assert len(aw._facts) <= 8
    assert rebuilt > 0 and all(len(key) == 1 for key in aw._facts)


@pytest.mark.parametrize("cartan_type,rank", ORACLE_TYPES)
def test_a_corrupt_pairing_row_fails_the_oracle_comparison(cartan_type, rank):
    # |a + 1| - |a| is +-1 for any int a: one entry of mu's row off by one
    # moves every length read from the row by one, and the oracle, which
    # reads no row, sees it
    W = build_weyl_group(cartan_type, rank)
    rs = W.rs
    mu = tuple(range(-rank, 0))
    xs = [AffineElement(w, mu) for w in range(0, len(W), 7)]
    for b in range(len(rs.positive_roots)):
        aw = AffineWeyl(W)
        assert [aw.length(x) for x in xs] == [aw.length_by_inversions(x) for x in xs]
        row = list(aw._facts[(mu,)])
        row[b] += 1
        aw._facts[(mu,)] = tuple(row)
        assert all(aw.length(x) != aw.length_by_inversions(x) for x in xs), b


@pytest.mark.parametrize("cartan_type,rank,nodes", [("A", 3, (1,)), ("B", 3, (2,)), ("G", 2, (1,))])
def test_mu_predicates_read_only_the_pairing_rows(monkeypatch, cartan_type, rank, nodes):
    # once mu's row is in the fact table, length, the membership tests and
    # the lift form no pairing of their own: every other source of
    # <mu, alpha> trips
    W, J, g, aw, depth = lift_table_context(cartan_type, rank, nodes)
    mu = aw.superantidominant_mu(W.identity, J, depth)
    z = aw.z_mu(mu, J)
    xs = [AffineElement(w, mu) for w in range(len(W))]

    def answers():
        lifts = []
        for e in g.edges:
            x = AffineElement(W.mul(e.source, z), mu)
            lifts.append(aw._lift_below(x, aw.length(x), e, W._inverse[z]))
        return ([aw.length(x) for x in xs], [aw.in_waf_minus(x) for x in xs],
                [aw.in_wj_af(x, J) for x in xs], aw.is_adjusted(mu, J),
                aw.is_superantidominant(mu, J, depth), lifts)

    want = answers()
    monkeypatch.setattr(RootSystem, "pairing", _Tripwire._trip)
    for table in ("_rows", "positive_rows", "simple_rows", "cartan"):
        monkeypatch.setattr(W.rs, table, _Tripwire())
    with pytest.raises(AssertionError, match="fast table"):
        aw.length(AffineElement(0, tuple(c - 1 for c in mu)))  # a row not yet kept
    assert answers() == want


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
            w = rnd.randrange(len(W))
            mu = tuple(rnd.randint(-3, 2) for _ in range(rank))
            x = AffineElement(w, mu)
            pair = {a: cartan_pairing(rs, mu, a) for a in rs.positive_roots}
            assert aw.length(x) == sum(
                abs((0 if is_positive_vec(W.act(w, a)) else 1) + pair[a])
                for a in rs.positive_roots
            )
            waf_minus = all(
                cartan_pairing(rs, mu, s) < 0
                or (cartan_pairing(rs, mu, s) == 0 and is_positive_vec(W.act(w, s)))
                for s in simples
            )
            assert aw.in_waf_minus(x) == waf_minus
            assert aw.in_wj_af(x, J) == all(
                pair[a] == (0 if is_positive_vec(W.act(w, a)) else -1) for a in J.phi_plus
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
    r1 = aw.from_finite(W.from_word([1]))
    assert aw.act(r1, AffineRoot((1, 0), 0)) == AffineRoot((-1, 0), 0)


def test_group_law(a2):
    rs, W, aw = a2
    mus = list(itertools.product(range(-2, 3), repeat=2))
    for wid in (1, 3):
        w = W.element(wid)
        w_inv = W.element(W._inverse[wid])
        for mu in mus[::3]:
            x = AffineElement(wid, mu)
            assert aw.mul(x, aw.inv(x)) == AffineElement(0, (0, 0))
            conj = aw.mul(aw.mul(aw.from_finite(w), aw.translation(mu)),
                          aw.from_finite(w_inv))
            assert conj == aw.translation(W.act_coroot(wid, mu))


def test_affine_reflection_form(a2):
    rs, W, aw = a2
    r = aw.reflection(AffineRoot((0, 1), 3))
    assert r.w == W.from_word([2]).index
    assert r.mu == (0, 3)
    r0 = aw.reflection(affine_simple_root(rs, 0))
    assert r0.w == W.reflection(rs.theta).index
    assert r0.mu == neg_vec(rs.coroot(rs.theta))


def test_adjusted_examples(a2):
    rs, W, aw = a2
    J = rs.parabolic((1,))
    # W_J-invariant coweights are adjusted with trivial factor
    mu = (-2, -4)
    assert rs.pairing(mu, (1, 0)) == 0
    assert aw.is_adjusted(mu, J)
    assert aw.z_mu(mu, J) == W.identity.index
    # -theta^vee pairs to -1 against alpha_1
    mtheta = neg_vec(rs.coroot(rs.theta))
    assert rs.pairing(mtheta, (1, 0)) == -1
    assert aw.is_adjusted(mtheta, J)
    z = W.element(aw.z_mu(mtheta, J))
    assert z == W.from_word([1])
    assert z.length == -rs.pairing(mtheta, J.two_rho_J) == 1
    # -alpha_1^vee pairs to -2: not adjusted
    assert not aw.is_adjusted((-1, 0), J)
    assert aw.phi_correction((-1, 0), J) == (1, 0)


def test_projection_examples(a2):
    rs, W, aw = a2
    J = rs.parabolic((1,))
    # finite elements project to their coset floor
    for w in map(W.element, range(len(W))):
        px = aw.project(aw.from_finite(w), J)
        assert px == aw.from_finite(W.min_coset_rep(w, J))
    mtheta = neg_vec(rs.coroot(rs.theta))
    p = aw.project(aw.translation(mtheta), J)
    assert p == AffineElement(W.from_word([1]).index, mtheta)
    # right multiplication by the parabolic affinization is invisible
    x = AffineElement(W.from_word([1, 2]).index, (-1, -2))
    for u in (AffineElement(W.from_word([1]).index, (0, 0)),
              AffineElement(0, (2, 0))):
        assert aw.project(aw.mul(x, u), J) == aw.project(x, J)


def test_membership_criterion(a2):
    rs, W, aw = a2
    J = rs.parabolic((1,))
    for mu in itertools.product(range(-2, 3), repeat=2):
        for w in W.min_coset_ids(J):
            for zid in W.subgroup_elements((1,)):
                x = AffineElement(W.mul(w, zid), mu)
                expect = aw.is_adjusted(mu, J) and aw.z_mu(mu, J) == zid
                assert aw.in_wj_af(x, J) == expect


def test_sigma_and_witnesses(a2):
    rs, W, aw = a2
    J = rs.parabolic((1,))
    sigma = aw.sigma_J(J)
    assert sorted(sigma) == sorted(
        [W.identity.index, W.from_word([1]).index]
    )
    for zid in sigma:
        mu = aw.superantidominant_mu(W.element(zid), J, 5)
        assert aw.is_adjusted(mu, J)
        assert aw.is_superantidominant(mu, J, 5)
        assert aw.z_mu(mu, J) == zid
    with pytest.raises(ValueError):
        aw.superantidominant_mu(W.from_word([2]), J, 3)


def test_superantidominant_mu_needs_a_proper_j(a2):
    rs, W, aw = a2
    with pytest.raises(ValueError, match="J must be proper"):
        aw.superantidominant_mu(W.identity, rs.parabolic((1, 2)), 1)


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
    assert all(W._length[z] in (0, 2) for z in sigma)
    # twisting by an element outside the image leaves the distinguished coset
    r1 = W.from_word([1])
    assert r1.index not in sigma
    mu = aw.superantidominant_mu(W.identity, J, 4)
    x = AffineElement(W.mul(W.min_coset_ids(J)[1], r1.index), mu)
    assert not aw.in_wj_af(x, J)


@pytest.mark.parametrize(
    "cartan_type,rank,nodes", [("A", 3, (1, 2)), ("B", 3, (2,)), ("D", 4, (1, 3, 4)), ("G", 2, (1,))]
)
def test_sigma_seeds_only_from_the_simple_coroots(cartan_type, rank, nodes):
    rs = build_root_system(cartan_type, rank)
    aw = AffineWeyl(WeylGroup(rs))
    seen = []
    z_mu = aw.z_mu
    aw.z_mu = lambda mu, J: seen.append(mu) or z_mu(mu, J)
    aw.sigma_J(rs.parabolic(nodes))
    assert 0 < len(seen) <= rank + 1


@pytest.mark.parametrize(
    "cartan_type,rank",
    [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("C", 2), ("C", 3), ("D", 4), ("G", 2)],
)
def test_sigma_is_the_closed_image_of_z_mu(cartan_type, rank):
    # a group under W.mul whose witnesses map to their keys, and which holds
    # z_mu of every mu with simple-coroot coordinates in [-1, 1]
    rs = build_root_system(cartan_type, rank)
    W = WeylGroup(rs)
    aw = AffineWeyl(W)
    for nodes in all_parabolics(rank, proper=True):
        J = rs.parabolic(nodes)
        sigma = aw.sigma_J(J)
        assert 0 in sigma
        assert all(W.mul(a, b) in sigma for a in sigma for b in sigma), nodes
        assert all(aw.z_mu(mu, J) == z for z, mu in sigma.items()), nodes
        for mu in itertools.product((-1, 0, 1), repeat=rank):
            assert aw.z_mu(mu, J) in sigma, (nodes, mu)


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
        aw.reflection(affine_simple_root(rs, 0)),
        aw.mul(aw.from_finite(W.from_word([1, 2])), aw.translation(mu)),
    )
    assert xs[-1] == r0r1r2tmu


def test_lift_trivial_bruhat(a2):
    rs, W, aw = a2
    J = rs.parabolic(())
    g = build_qbg(W, J)
    mu = aw.superantidominant_mu(W.identity, J, aw.lift_depth(g))
    e = g.edge(W.identity.index, (1, 0))
    x, y, gamma = aw.lift_edge(g, e, mu)
    assert x == aw.translation(mu)
    assert y == AffineElement(W.from_word([1]).index, mu)
    assert gamma.k == rs.pairing(mu, (1, 0))


def test_lift_validation_errors(a2):
    rs, W, aw = a2
    J = rs.parabolic((1,))
    g = build_qbg(W, J)
    e = g.edge(W.identity.index, (0, 1))
    with pytest.raises(ValueError, match="^mu has the wrong rank$"):
        aw.lift_edge(g, e, (-1, 0, 0))
    with pytest.raises(ValueError, match="^mu is not J-adjusted$"):
        aw.lift_edge(g, e, (-1, 0))
    with pytest.raises(ValueError, match="^mu is not superantidominant to depth 4$"):
        aw.lift_edge(g, e, (0, 0))


def test_the_lift_api_refuses_a_graph_that_is_not_qb_wj():
    # the lift depth is read from J, so a graph on other vertices than
    # W^J's is refused; one with W^J's vertices and fewer edges is not
    # caught, and gets QB(W^J)'s depth
    rs = build_root_system("A", 3)
    W = WeylGroup(rs)
    aw = AffineWeyl(W)
    J = rs.parabolic((1,))
    g = build_qbg(W, J)
    mu = aw.superantidominant_mu(W.identity, J, aw.lift_depth(g))
    e = g.edge(W.identity.index, (0, 1, 0))
    assert e is not None
    coset = induced_coset_subgraph(build_qbg(W, rs.parabolic(())), W.identity.index, J)
    for h in (coset, build_subsystem_qbg(W, J), build_subsystem_qbg(W, rs.parabolic((1, 2)))):
        with pytest.raises(ValueError, match="^the graph is not QB"):
            aw.lift_depth(h)
        with pytest.raises(ValueError, match="^the graph is not QB"):
            aw.lift_edge(h, e, mu)
        with pytest.raises(ValueError, match="^the graph is not QB"):
            aw.lift_table(h, mu)
        with pytest.raises(ValueError, match="^the graph is not QB"):
            aw.lift_path(h, QbgPath(e.source, (e,)), mu)
    fewer = QbgGraph(W, J, g.vertices, [f for f in g.edges if f != e])
    assert aw.lift_depth(fewer) == aw.lift_depth(g) == 5 + 2


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
    path = QbgPath(W.identity.index, (e,))
    for mu, message in [((-1, 0, 0), "mu has the wrong rank"), ((-1, 0), "mu is not J-adjusted"),
                        ((0, 0), "mu is not superantidominant to depth 4")]:
        assert raised(lambda: aw.lift_path(g, path, mu)) == (ValueError, message)
        assert raised(lambda: aw.lift_path(g, QbgPath(path.start, ()), mu)) == (ValueError, message)


def test_project_cover_validation(a2):
    rs, W, aw = a2
    J = rs.parabolic((1,))
    g = build_qbg(W, J)
    mu = aw.superantidominant_mu(W.identity, J, 8)
    x = aw.project(aw.translation(mu), J)
    # not a length-one cover
    y = aw.mul(x, aw.reflection(AffineRoot((1, 0), 0)))
    with pytest.raises(ValueError):
        aw.project_cover(g, x, y)
    # x outside the distinguished set
    bad = AffineElement(W.from_word([1]).index, (0, 0))
    with pytest.raises(ValueError):
        aw.project_cover(g, bad, aw.mul(bad, aw.reflection(AffineRoot((1, 0), 0))))
    # from a well-formed x, every length-one cover in the window already has
    # its classical part off Phi_J (the inner directions only move up)
    window = 2 + max(abs(rs.pairing(x.mu, a)) for a in rs.positive_roots)
    for beta in J.phi_plus:
        for n in range(-window, window + 1):
            y = aw.mul(x, aw.reflection(AffineRoot(beta, n)))
            assert aw.length(y) != aw.length(x) - 1


LIFT_TABLE_CASES = (
    [(t, r, J) for t, r in SMALL_TYPES for J in all_parabolics(r, proper=True)]
    + [("B", 3, J) for J in all_parabolics(3, proper=True)]
    + [("A", 5, (3,))]
)


def lift_table_context(cartan_type, rank, nodes):
    W = build_weyl_group(cartan_type, rank)
    J = W.rs.parabolic(nodes)
    g = build_qbg(W, J)
    aw = AffineWeyl(W)
    return W, J, g, aw, aw.lift_depth(g)


def edge_by_edge(aw, g, mu):
    return [aw.lift_edge(g, e, mu) for v in g.vertices for e in g.out[v]]


def row_by_row(aw, g, mu):
    z = aw.z_mu(mu, g.J)
    rows = []
    for x, lifts in aw.lift_table(g, mu):
        for e, y, gamma in lifts:
            assert aw.W.mul(e.source, z) == x.w
            rows.append((x, y, gamma))
    return rows


@pytest.mark.parametrize("cartan_type,rank,nodes", LIFT_TABLE_CASES,
                         ids=lambda c: str(c).replace(" ", ""))
def test_lift_table_equals_lift_edge_row_for_row(cartan_type, rank, nodes):
    W, J, g, aw, depth = lift_table_context(cartan_type, rank, nodes)
    zs = [0] if rank == 5 else sorted(aw.sigma_J(J))
    for z in zs:
        mu = aw.superantidominant_mu(W.element(z), J, depth)
        want = edge_by_edge(aw, g, mu)
        assert len(want) == len(g.edges) > 0
        assert row_by_row(aw, g, mu) == want


def raised(fn):
    """(type, message) of the lift error fn raises, or None."""
    try:
        fn()
    except (ValueError, GraphInvariantError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("cartan_type,rank,nodes", [("A", 2, (1,)), ("B", 3, (2,)),
                                                    ("A", 5, (3,))])
def test_lift_table_raises_as_lift_edge_does(monkeypatch, cartan_type, rank, nodes):
    W, J, g, aw, depth = lift_table_context(cartan_type, rank, nodes)
    mu = aw.superantidominant_mu(W.identity, J, depth)
    z = aw.z_mu(mu, J)
    j = J.nodes[0]
    shallow = aw.superantidominant_mu(W.identity, J, 1)
    assert not aw.is_superantidominant(shallow, J, depth)
    bad_inputs = {
        "wrong rank": mu + (0,),
        "not adjusted": tuple(c + 2 * (i == j - 1) for i, c in enumerate(mu)),
        "too shallow": shallow,
    }
    for name, mm in bad_inputs.items():
        got = raised(lambda: list(aw.lift_table(g, mm)))
        assert got is not None and got[0] is ValueError, name
        assert got == raised(lambda: edge_by_edge(aw, g, mm)), name
        with pytest.raises(ValueError):
            aw.lift_table(g, mm)  # mu's lift hypothesis is checked before any lift
    # an x that leaves the target set: the identity's x = (z, mu), which no
    # edge's y equals (no Bruhat edge ends at e, and a quantum edge moves mu)
    monkeypatch.setattr(aw, "in_omega", lambda el, J, depth=1: el != AffineElement(z, mu))
    got = raised(lambda: list(aw.lift_table(g, mu)))
    assert got == (GraphInvariantError, "lift left the target set")
    assert got == raised(lambda: edge_by_edge(aw, g, mu))
    # a y that leaves the target set: every quantum edge's y moves mu
    monkeypatch.setattr(aw, "in_omega", lambda el, J, depth=1: el.mu == mu)
    got = raised(lambda: list(aw.lift_table(g, mu)))
    assert got == (GraphInvariantError, "lift left the target set")
    assert got == raised(lambda: edge_by_edge(aw, g, mu))


def count_decompositions(monkeypatch, aw):
    """The (mu, J.nodes) of every component decomposition aw runs from now on."""
    calls = []
    decompose = aw._component_decomposition
    monkeypatch.setattr(aw, "_component_decomposition",
                        lambda m, JJ: calls.append((m, JJ.nodes)) or decompose(m, JJ))
    return calls


@pytest.mark.parametrize("cartan_type,rank,nodes", [("B", 3, (2,)), ("A", 5, (3,))])
def test_lift_table_decomposes_each_mu_once(monkeypatch, cartan_type, rank, nodes):
    # in_omega reads z_mu of every lifted y, whose mu is one of a few per
    # table: the fact table decomposes each (mu, J) once per AffineWeyl,
    # across tables and walks
    W, J, g, aw, depth = lift_table_context(cartan_type, rank, nodes)
    calls = count_decompositions(monkeypatch, aw)
    mu = aw.superantidominant_mu(W.identity, J, depth)
    z = aw.z_mu(mu, J)
    want = row_by_row(aw, g, mu)
    mus = {mu} | {y.mu for _x, y, _gamma in want}
    assert 1 < len(mus) < len(want)
    assert len(calls) == len(set(calls)) and {(m, J.nodes) for m in mus} <= set(calls)
    seen = list(calls)
    assert row_by_row(aw, g, mu) == want
    assert [aw.in_omega(y, J) for _x, y, _gamma in want[:2]] == [True, True]
    assert calls == seen
    # a walk decomposes only the mus no table has met
    chain = aw.lift_path(g, g.shortest_path(g.vertices[-1], g.vertices[0]), mu)
    assert len(calls) == len(set(calls))
    assert {(x.mu, J.nodes) for x, _gamma in chain} <= set(calls)
    # the table belongs to its AffineWeyl: another one decomposes afresh
    other = AffineWeyl(W)
    fresh = count_decompositions(monkeypatch, other)
    assert other.z_mu(mu, J) == z and fresh == [(mu, J.nodes)]


WALK_CASES = [("A", 3, (1,)), ("B", 3, (2,)), ("C", 3, (1,)), ("G", 2, (1,))]


def walk_by_lift_edge(aw, g, path, mu):
    """``lift_path`` as a walk of ``lift_edge`` calls: mu's lift hypothesis
    at the lift depth, then per step the source and coset checks and one
    lift at depth 1."""
    J = g.J
    z = aw._lift_factor(mu, J, aw.lift_depth(g))
    x = AffineElement(aw.W.mul(path.start, z), mu)
    chain = [(x, None)]
    for edge in path.edges:
        w, rest = aw.W.parabolic_decompose(x.w, J)
        if w != edge.source:
            raise ValueError("path does not start where the chain is")
        if rest != aw.z_mu(x.mu, J):
            raise ValueError("path does not start in W^J")
        x2, y, gamma = aw.lift_edge(g, edge, x.mu, depth=1)
        assert x2 == x
        chain.append((y, gamma))
        x = y
    return chain


@pytest.mark.parametrize("cartan_type,rank,nodes", WALK_CASES,
                         ids=lambda c: str(c).replace(" ", ""))
def test_lift_path_equals_the_walk_of_lift_edge(cartan_type, rank, nodes):
    W, J, g, aw, depth = lift_table_context(cartan_type, rank, nodes)
    kinds = set()
    for z in sorted(aw.sigma_J(J)):
        mu = aw.superantidominant_mu(W.element(z), J, depth)
        for u in g.vertices:
            for v in g.vertices:
                path = g.shortest_path(u, v)
                chain = aw.lift_path(g, path, mu)
                assert chain == walk_by_lift_edge(aw, g, path, mu)
                kinds.update(e.kind for e in path.edges)
    assert kinds == {BRUHAT, QUANTUM}


@pytest.mark.parametrize("cartan_type,rank,nodes", WALK_CASES,
                         ids=lambda c: str(c).replace(" ", ""))
def test_lift_below_follows_the_group_law(cartan_type, rank, nodes):
    # y = (w r_beta, mu + chi beta^vee) is x r_gamma
    W, J, g, aw, depth = lift_table_context(cartan_type, rank, nodes)
    for z in sorted(aw.sigma_J(J)):
        mu = aw.superantidominant_mu(W.element(z), J, depth)
        for e in g.edges:
            x = AffineElement(W.mul(e.source, z), mu)
            y, gamma = aw._lift_below(x, aw.length(x), e, W._inverse[z])
            assert y == aw.mul(x, aw.reflection(gamma))
            assert (y.mu == mu) == (e.kind == BRUHAT)


def walk_context(cartan_type, rank, nodes):
    """A lift context and a shortest path, with a quantum edge, from the
    last vertex to the first, lifted from the CLI's mu."""
    W, J, g, aw, depth = lift_table_context(cartan_type, rank, nodes)
    mu = aw.superantidominant_mu(W.identity, J, depth)
    path = g.shortest_path(g.vertices[-1], g.vertices[0])
    assert len(path) >= 2 and QUANTUM in {e.kind for e in path.edges}
    return W, J, g, aw, mu, path


@pytest.mark.parametrize("check,where,want", [
    ("in_omega", 0, "lift left the target set"),
    ("in_omega", -1, "lift left the target set"),
    ("in_waf_minus", 0, "lift left the distinguished cosets"),
    ("in_waf_minus", -1, "lift left the distinguished cosets"),
    ("in_wj_af", 0, "lift left the distinguished cosets"),
    ("in_wj_af", -1, "lift left the distinguished cosets"),
])
def test_lift_path_checks_x_once_and_every_y(monkeypatch, check, where, want):
    # one chain element fails one membership check: the starting x, checked
    # after the first step's lift, or the last step's y
    W, J, g, aw, mu, path = walk_context("B", 3, (2,))
    bad = aw.lift_path(g, path, mu)[where][0]
    real = getattr(aw, check)
    monkeypatch.setattr(aw, check, lambda el, *a, **k: el != bad and real(el, *a, **k))
    assert raised(lambda: aw.lift_path(g, path, mu)) == (GraphInvariantError, want)
    assert raised(lambda: walk_by_lift_edge(aw, g, path, mu)) == (GraphInvariantError, want)


def test_lift_path_checks_where_each_step_starts():
    W, J, g, aw, mu, path = walk_context("B", 3, (2,))
    first = path.edges[0]
    elsewhere = next(e for e in g.edges if e.source not in (first.source, first.target))
    s2 = W.from_word([2]).index  # 2 is in J: start s2 lies in the coset of start
    bad_paths = {
        "path does not start where the chain is": [
            QbgPath(path.start, (elsewhere,) + path.edges[1:]),
            QbgPath(path.start, (first, elsewhere) + path.edges[2:]),
        ],
        "path does not start in W^J": [
            QbgPath(W.mul(path.start, s2), path.edges),
        ],
    }
    for message, paths in bad_paths.items():
        for bad in paths:
            assert raised(lambda: aw.lift_path(g, bad, mu)) == (ValueError, message)
            assert raised(lambda: walk_by_lift_edge(aw, g, bad, mu)) == (ValueError, message)


@pytest.mark.parametrize("cartan_type,rank,nodes", WALK_CASES,
                         ids=lambda c: str(c).replace(" ", ""))
def test_lift_path_decomposes_each_chain_element_once(monkeypatch, cartan_type, rank, nodes):
    # each step's x is the previous y, decomposed for its in_omega check:
    # one W.parabolic_decompose per step, plus the start's
    W, J, g, aw, depth = lift_table_context(cartan_type, rank, nodes)
    mu = aw.superantidominant_mu(W.identity, J, depth)
    calls = []
    decompose = W.parabolic_decompose
    monkeypatch.setattr(W, "parabolic_decompose",
                        lambda w, JJ: calls.append(w) or decompose(w, JJ))
    steps = 0
    for u in g.vertices:
        for v in g.vertices:
            path = g.shortest_path(u, v)
            if not path.edges:
                continue
            walker = AffineWeyl(W)  # nothing remembered from another walk
            calls.clear()
            chain = walker.lift_path(g, path, mu)
            assert calls == [x.w for x, _gamma in chain]
            steps += len(path)
    assert steps > 0


def test_lift_path_walks_without_lift_edge_or_the_group_law(monkeypatch):
    W, J, g, aw, mu, path = walk_context("B", 3, (2,))
    want = walk_by_lift_edge(aw, g, path, mu)

    def forbidden(*args, **kwargs):
        raise AssertionError("lift_path must not call this")

    monkeypatch.setattr(aw, "lift_edge", forbidden)
    monkeypatch.setattr(aw, "mul", forbidden)
    assert aw.lift_path(g, path, mu) == want


def test_lift_path_decomposes_each_mu_once(monkeypatch):
    # the fact table keeps mu's facts across walks and tables
    W, J, g, aw, mu, path = walk_context("B", 3, (2,))
    aw._facts.clear()
    calls = count_decompositions(monkeypatch, aw)
    want = aw.lift_path(g, path, mu)
    mus = {x.mu for x, _gamma in want}
    assert 1 < len(mus) < len(want)
    # one decomposition per distinct mu, the starting one included
    assert sorted(calls) == sorted((m, J.nodes) for m in mus)
    assert aw.lift_path(g, path, mu) == want
    list(aw.lift_table(g, mu))
    assert len(calls) == len(set(calls))


BOX_TYPES = [("A", 3), ("B", 3), ("C", 3), ("G", 2)]


@pytest.mark.parametrize("cartan_type,rank", BOX_TYPES)
def test_fact_table_matches_a_fresh_affine_weyl(cartan_type, rank):
    # one AffineWeyl answers every J from its table; each J's reference
    # decomposes every mu afresh
    W = build_weyl_group(cartan_type, rank)
    rs, aw = W.rs, AffineWeyl(W)
    box = list(itertools.product(range(-3, 4), repeat=rank))
    for nodes in all_parabolics(rank):
        J = rs.parabolic(nodes)
        fresh = AffineWeyl(W)
        for mu in box:
            want = fresh._factor_and_correction(mu, J)
            facts = {depth: fresh._mu_facts(mu, J, depth) for depth in (1, 2)}
            for _ in range(2):  # computed, then read back from the table
                assert (aw.z_mu(mu, J), aw.phi_correction(mu, J)) == want, (nodes, mu)
                assert aw._facts[(mu, J.nodes)] == want
                for depth, got in facts.items():
                    assert aw._mu_facts(mu, J, depth) == got, (nodes, mu, depth)
                    assert aw._facts[(mu, J.nodes, depth)] == got
            assert aw.project(AffineElement(0, mu), J) == fresh.project(AffineElement(0, mu), J)


def test_a_decomposition_that_raises_is_not_kept(monkeypatch):
    W = build_weyl_group("B", 3)
    rs, aw = W.rs, AffineWeyl(W)
    J = rs.parabolic((2, 3))
    mu = AffineWeyl(W).superantidominant_mu(W.identity, J, 1)
    # no candidate lift: every decomposition raises, and keeps nothing; only
    # mu's pairing row, read by in_omega's adjusted check before the
    # decomposition, stays in the table
    real = aw._component_data
    monkeypatch.setattr(aw, "_component_data", lambda comp: real(comp)[:2] + ((),) + real(comp)[3:])
    for _ in range(2):
        with pytest.raises(GraphInvariantError, match="no integral lift"):
            aw.z_mu(mu, J)
        with pytest.raises(GraphInvariantError, match="no integral lift"):
            aw.in_omega(AffineElement(0, mu), J)
        assert list(aw._facts) == [(mu,)]
    for _ in range(2):
        with pytest.raises(ValueError, match="rank mismatch"):
            aw.phi_correction((1, 2), J)
        assert list(aw._facts) == [(mu,)]
    monkeypatch.undo()
    assert aw._factor_and_correction(mu, J) == AffineWeyl(W)._factor_and_correction(mu, J)
    assert list(aw._facts) == [(mu,), (mu, J.nodes)]


def test_fact_table_stays_within_its_cap(monkeypatch):
    monkeypatch.setattr(affine, "FACT_TABLE_SIZE", 8)
    W = build_weyl_group("A", 2)
    rs, aw = W.rs, AffineWeyl(W)
    J = rs.parabolic((1,))
    mus = [(a, b) for a in range(-3, 3) for b in range(-2, 2)]
    want = {mu: AffineWeyl(W).z_mu(mu, J) for mu in mus}
    for k, mu in enumerate(mus, 1):
        assert aw.z_mu(mu, J) == want[mu]
        assert len(aw._facts) == min(k, 8)
    # the oldest are dropped first; a dropped mu is decomposed again
    assert list(aw._facts) == [(mu, J.nodes) for mu in mus[-8:]]
    assert aw.z_mu(mus[0], J) == want[mus[0]]
    assert list(aw._facts)[-1] == (mus[0], J.nodes) and len(aw._facts) == 8


@pytest.mark.parametrize("broken", ["gamma positive", "length drop", "in_omega False"])
def test_lift_table_checks_in_the_order_of_lift_edge(monkeypatch, broken):
    # every x leaves the target set and, unless only that is broken, every
    # edge's lift is broken as well: lift_edge checks the lift before x,
    # and so must lift_table and lift_path
    W, J, g, aw, mu, path = walk_context("B", 3, (2,))
    monkeypatch.setattr(aw, "in_omega", lambda el, J, depth=1: False)
    if broken == "gamma positive":
        monkeypatch.setattr(AffineRoot, "is_positive", lambda self: True)
        want = (GraphInvariantError, "lift label should be a negative affine root")
    elif broken == "length drop":
        monkeypatch.setattr(aw, "length", lambda el: 7)
        want = (GraphInvariantError, "lift is not a length-one cover")
    else:
        want = (GraphInvariantError, "lift left the target set")
    assert raised(lambda: edge_by_edge(aw, g, mu)) == want
    assert raised(lambda: list(aw.lift_table(g, mu))) == want
    assert raised(lambda: walk_by_lift_edge(aw, g, path, mu)) == want
    assert raised(lambda: aw.lift_path(g, path, mu)) == want


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
                x, y, gamma = aw.lift_edge(g, e, mu)
                assert not gamma.is_positive()
                edge, z2, chi, gamma2 = aw.project_cover(g, x, y)
                assert edge == e and W.element(z2) == z and gamma2 == gamma
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
        edge, _z, _chi, _g = aw.project_cover(g, x, y)
        assert edge.source == W.identity.index


def _reference_cocovers(aw, x, J, depth):
    """``cocovers`` by the group law: y = x * r_{beta + n delta} per n."""
    rs = aw.rs
    lx = aw.length(x)
    window = 2 + max(abs(rs.pairing(x.mu, a)) for a in rs.positive_roots)
    out = []
    for beta in rs.positive_roots:
        for n in range(-window, window + 1):
            y = aw.mul(x, aw.reflection(AffineRoot(beta, n)))
            if (
                aw.length(y) == lx - 1
                and aw.in_wj_af(y, J)
                and aw.in_waf_minus(y)
                and aw.in_omega(y, J, depth)
            ):
                out.append((y, AffineRoot(beta, n), not J.supports(beta)))
    return out


@pytest.mark.parametrize("cartan", [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("C", 2)])
def test_cocovers_match_the_group_law(cartan):
    rs = build_root_system(*cartan)
    W = WeylGroup(rs)
    aw = AffineWeyl(W)
    rng = random.Random(11)
    found = 0
    for J_nodes in all_parabolics(rs.rank):
        J = rs.parabolic(J_nodes)
        # lift-target elements of the proper quotients, where covers
        # exist, and arbitrary elements for every J
        xs = []
        if len(J_nodes) < rs.rank:
            g = build_qbg(W, J)
            depth = aw.lift_depth(g)
            for zid in sorted(aw.sigma_J(J)):
                mu = aw.superantidominant_mu(W.element(zid), J, depth)
                for v in rng.sample(g.vertices, min(4, len(g.vertices))):
                    xs.append(AffineElement(W.mul(v, zid), mu))
        for _ in range(4):
            mu = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            xs.append(AffineElement(rng.randrange(len(W)), mu))
        for x in xs:
            for d in (1, 2):
                got = aw.cocovers(x, J, depth=d)
                assert got == _reference_cocovers(aw, x, J, d), (x, J_nodes, d)
                found += len(got)
    assert found > 0


def test_classical_diamond_case(a2):
    rs, W, aw = a2
    J = rs.parabolic(())
    g = build_qbg(W, J)
    # both bottom edges Bruhat, trivial parabolic: the classical diamond
    d = complete_bottom(g, SIMPLE_BRUHAT, W.identity.index, (0, 1), (1, 0))
    assert d.z == W.identity.index and d.z2 == W.identity.index
    assert d.top_left.kind == BRUHAT and d.top_right.kind == BRUHAT
    assert d.top_left.target == d.top_right.target
    # matches the cover structure: both tops end at the length-2 element
    assert W._length[d.top_left.target] == 2


def test_diamond_hypothesis_errors(a2):
    rs, W, aw = a2
    g = build_qbg(W, rs.parabolic(()))
    with pytest.raises(ValueError):
        complete_bottom(g, SIMPLE_BRUHAT, W.identity.index, (1, 0), (1, 0))  # gamma clash
    with pytest.raises(ValueError):
        complete_bottom(g, SIMPLE_BRUHAT, W.identity.index, (0, 1), (1, 1))  # not simple
    with pytest.raises(ValueError):
        complete_bottom(g, THETA_BRUHAT, W.identity.index, (0, 1))  # theta sign wrong
    with pytest.raises(ValueError):
        complete_bottom(g, "nonsense", W.identity.index, (0, 1), (1, 0))


def test_complete_top_hypothesis_errors(a2):
    rs, W, aw = a2
    g = build_qbg(W, rs.parabolic(()))
    r1 = W.from_word([1]).index
    with pytest.raises(ValueError, match="unknown diamond case"):
        complete_top(g, "nonsense", r1, (0, 1), (1, 0))
    with pytest.raises(ValueError, match="simple root"):
        complete_top(g, SIMPLE_BRUHAT, r1, (0, 1), (1, 1))
    with pytest.raises(ValueError, match="Phi-"):  # w^-1 alpha is positive
        complete_top(g, SIMPLE_BRUHAT, W.identity.index, (0, 1), (1, 0))
    with pytest.raises(ValueError, match="Phi\\+"):  # w0^-1 theta is negative
        complete_top(g, THETA_BRUHAT, W.longest_element().index, (0, 1))
    with pytest.raises(ValueError, match="gamma must differ"):
        complete_top(g, SIMPLE_BRUHAT, r1, (1, 0), (1, 0))


@pytest.mark.parametrize("cartan", [("A", 3), ("B", 3), ("G", 2)])
def test_complete_raises_exactly_off_configurations(cartan):
    # complete_* rejects with ValueError exactly the inputs its iterator
    # does not yield, on both sides of every case
    rs = build_root_system(*cartan)
    W = WeylGroup(rs)
    sides = (
        (iter_bottom_configurations, complete_bottom),
        (iter_top_configurations, complete_top),
    )
    for nodes in all_parabolics(rs.rank):
        J = rs.parabolic(nodes)
        g = build_qbg(W, J)
        labels = [a for a in rs.positive_roots if a not in J.phi_plus]
        for case in DIAMOND_CASES:
            alphas = rs.simple_roots() if case in (SIMPLE_BRUHAT, SIMPLE_QUANTUM) else (None,)
            for configurations, complete in sides:
                given = set(configurations(g, case))
                for wid, gamma, alpha in itertools.product(g.vertices, labels, alphas):
                    try:
                        complete(g, case, wid, gamma, alpha)
                    except ValueError:
                        assert (wid, gamma, alpha) not in given
                    else:
                        assert (wid, gamma, alpha) in given


PAIRED = {
    SIMPLE_BRUHAT: SIMPLE_BRUHAT,
    SIMPLE_QUANTUM: SIMPLE_QUANTUM,
    THETA_BRUHAT: THETA_QUANTUM,
    THETA_QUANTUM: THETA_BRUHAT,
    THETA_BRUHAT_ORTHO: THETA_BRUHAT_ORTHO,
    THETA_QUANTUM_ORTHO: THETA_QUANTUM_ORTHO,
}


@pytest.mark.parametrize("cartan", [("A", 2), ("B", 2), ("A", 3), ("B", 3), ("G", 2)])
def test_descending_is_relabeled_ascending(cartan):
    rs = build_root_system(*cartan)
    W = WeylGroup(rs)
    for nodes in all_parabolics(rs.rank):
        J = rs.parabolic(nodes)
        g = build_qbg(W, J)
        for case in DIAMOND_CASES:
            for wid, gamma, alpha in iter_bottom_configurations(g, case):
                asc = complete_bottom(g, case, wid, gamma, alpha)
                if case in (SIMPLE_BRUHAT, SIMPLE_QUANTUM):
                    w2 = W.mul(W.reflection(alpha).index, wid)
                    gamma2 = gamma
                else:
                    r_theta_w = W.mul(W.reflection(rs.theta).index, wid)
                    w2 = W.coset_floor(r_theta_w, J)
                    twist = W.mul(W._inverse[w2], r_theta_w)
                    gamma2 = W.act(twist, gamma)
                desc = complete_top(g, PAIRED[case], w2, gamma2, alpha)
                assert desc.case == PAIRED[case]
                assert desc.bottom_left == asc.bottom_left
                assert desc.bottom_right == asc.bottom_right
                assert desc.top_left == asc.top_left
                assert desc.top_right == asc.top_right
                # the twists of the top vertices undo those of the bottom ones
                assert desc.z == W._inverse[asc.z]
                assert desc.z2 == W._inverse[asc.z2]
