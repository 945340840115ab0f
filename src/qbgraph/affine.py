"""Affine Weyl group elements w t_mu: exact length, the parabolic projection
onto (W^J)_af, adjusted coweights, edge lifting, and diamond completions."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from .qbg import BRUHAT, QUANTUM, GraphInvariantError, QbgEdge, QbgGraph, edge_between
from .root_system import (
    Coroot,
    ParabolicIndex,
    Root,
    add_vec,
    is_positive_vec,
    neg_vec,
    scale_vec,
    scaled_inverse,
    sub_vec,
)
from .weyl import WeylElement, WeylGroup


@dataclass(frozen=True)
class AffineRoot:
    """A real affine root alpha + k*delta."""

    alpha: Root
    k: int

    def is_positive(self) -> bool:
        return self.k > 0 or (self.k == 0 and is_positive_vec(self.alpha))

    def __neg__(self) -> "AffineRoot":
        return AffineRoot(neg_vec(self.alpha), -self.k)


@dataclass(frozen=True)
class AffineElement:
    """The element w * t_mu of W_af = W x Q^vee."""

    w: int
    mu: Coroot


class AffineWeyl:
    """Operation context for W_af over an enumerated finite Weyl group."""

    def __init__(self, W: WeylGroup):
        self.W = W
        self.rs = W.rs
        self._sigma_cache: dict[tuple[int, ...], dict[int, Coroot]] = {}
        self._component_cache: dict[tuple[int, ...], tuple] = {}

    # -- group structure ---------------------------------------------------

    def from_finite(self, w: WeylElement) -> AffineElement:
        return AffineElement(w.index, (0,) * self.rs.rank)

    def translation(self, mu: Coroot) -> AffineElement:
        return AffineElement(0, tuple(mu))

    def finite_part(self, x: AffineElement) -> WeylElement:
        return self.W.element(x.w)

    def mul(self, x: AffineElement, y: AffineElement) -> AffineElement:
        # (w t_mu)(v t_nu) = wv t_{v^{-1} mu + nu}
        v = self.W.element(y.w)
        w = self.W.element(x.w)
        return AffineElement((w * v).index, add_vec(v.inverse().act_coroot(x.mu), y.mu))

    def inv(self, x: AffineElement) -> AffineElement:
        w = self.W.element(x.w)
        return AffineElement(w.inverse().index, neg_vec(w.act_coroot(x.mu)))

    def reflection(self, beta: AffineRoot) -> AffineElement:
        """r_{alpha + k delta} = r_alpha t_{k alpha^vee}."""
        r = self.W.reflection(beta.alpha)
        return AffineElement(r.index, scale_vec(beta.k, self.rs.coroot(beta.alpha)))

    def simple_affine_reflection(self, i: int) -> AffineElement:
        """r_i for i in 0..rank, with r_0 = r_theta t_{-theta^vee}."""
        if i == 0:
            return self.reflection(AffineRoot(neg_vec(self.rs.theta), 1))
        return self.from_finite(self.W.simple_reflection(i))

    def act(self, x: AffineElement, beta: AffineRoot) -> AffineRoot:
        """w t_mu sends alpha + k delta to w(alpha) + (k - <mu, alpha>) delta."""
        w = self.W.element(x.w)
        return AffineRoot(w.act(beta.alpha), beta.k - self.rs.pairing(x.mu, beta.alpha))

    # -- length ---------------------------------------------------------------

    def length(self, x: AffineElement) -> int:
        """Sum over alpha in Phi+ of |chi(w alpha < 0) + <mu, alpha>|.

        chi is w's inversion flag at alpha and <mu, alpha> one dot product
        with alpha's pairing row.
        """
        mu = x.mu
        if len(mu) != self.rs.rank:
            raise ValueError("rank mismatch")
        return sum(
            abs(chi + sum(map(mul, mu, row)))
            for chi, row in zip(self.W.inversion_flags(x.w), self.rs.positive_rows)
        )

    def length_by_inversions(self, x: AffineElement) -> int:
        """Independent oracle: count positive affine roots sent negative.

        The delta coefficient is scanned over a window wide enough to cover
        every possible inversion of x; the image of alpha + k delta is
        w(alpha) + (k - <mu, alpha>) delta, so each root's classical image
        is computed once and the scan compares delta parts.  The pairings
        come from the Cartan matrix and the images from w's matrix, not from
        the tables behind ``length``.
        """
        rs = self.rs
        pairs = [_pairing_by_definition(rs.cartan, x.mu, a) for a in rs.positive_roots]
        bound = 1 + max((abs(p) for p in pairs), default=0)
        w = self.W.element(x.w)
        count = 0
        for alpha, p in zip(rs.positive_roots, pairs):
            wpos = is_positive_vec(w.act(alpha))
            for k in range(0, bound + 1):  # alpha + k delta
                if k - p < 0 or (k - p == 0 and not wpos):
                    count += 1
            for k in range(1, bound + 1):  # -alpha + k delta
                if k + p < 0 or (k + p == 0 and wpos):
                    count += 1
        return count

    # -- distinguished coset representatives -----------------------------------

    def in_waf_minus(self, x: AffineElement) -> bool:
        """Minimum-length representative of x W: all finite simples stay positive.

        x sends alpha_i to w(alpha_i) - <mu, alpha_i> delta, which is
        positive unless the pairing is positive, or zero with w(alpha_i) < 0,
        i.e. with a right descent of w at i.
        """
        mu, w = x.mu, x.w
        length = self.W._length
        right = self.W._right[w]
        for i, row in enumerate(self.rs.simple_rows):
            pair = sum(map(mul, mu, row))
            if pair > 0 or (pair == 0 and length[right[i]] < length[w]):
                return False
        return True

    def in_wj_af(self, x: AffineElement, J: ParabolicIndex) -> bool:
        """Membership in (W^J)_af: for alpha in Phi_J^+, w alpha > 0 forces
        <mu, alpha> = 0 and w alpha < 0 forces <mu, alpha> = -1."""
        mu = x.mu
        flags = self.W.inversion_flags(x.w)
        rows = self.rs.positive_rows
        return all(sum(map(mul, mu, rows[b])) == -flags[b] for b in J.phi_plus_pos)

    def in_wjaf_parabolic_factor(self, x: AffineElement, J: ParabolicIndex) -> bool:
        """Membership in (W_J)_af = W_J x Q_J^vee."""
        in_wj = x.w in self.W.subgroup_elements(J.nodes)
        in_qj = all(c == 0 or (i + 1) in J.nodes for i, c in enumerate(x.mu))
        return in_wj and in_qj

    # -- adjusted coweights and the projection ---------------------------------

    def is_adjusted(self, mu: Coroot, J: ParabolicIndex) -> bool:
        """<mu, alpha> in {0, -1} for every alpha in Phi_J^+."""
        if len(mu) != self.rs.rank:
            raise ValueError("rank mismatch")
        rows = self.rs.positive_rows
        return all(sum(map(mul, mu, rows[b])) in (0, -1) for b in J.phi_plus_pos)

    def _component_decomposition(self, mu: Coroot, J: ParabolicIndex):
        """Per component: the special node j_m (or None) and the integral
        correction, so that the component part of mu plus the correction is
        the negative of the chosen fundamental coweight.

        Integer arithmetic: with D the component's inverse Cartan
        denominator, D times the projection is an integer vector, and a
        candidate lift is integral exactly when D divides every entry.
        """
        if len(mu) != self.rs.rank:
            raise ValueError("rank mismatch")
        out = []
        for comp in J.components:
            den, cols, candidates = self._component_data(comp)
            proj = [sum(map(mul, mu, col)) for col in cols]
            chosen = None
            for cand, shift in candidates:
                lift = [p + r for p, r in zip(proj, shift)]
                if all(x % den == 0 for x in lift):
                    if chosen is not None:
                        raise GraphInvariantError("ambiguous coweight class")
                    chosen = (cand, tuple(-(x // den) for x in lift))
            if chosen is None:
                raise GraphInvariantError("no integral lift of the coweight class")
            out.append((comp, chosen[0], chosen[1]))
        return out

    def _component_data(self, comp: tuple[int, ...]):
        """(D, columns, candidates) of one component of J.

        D * C_comp^-1 is the component's scaled inverse Cartan matrix.
        Column b maps mu to D times coordinate b of its projection:
        sum_a <mu, alpha_{comp[a]}> (D C_comp^-1)[a][b].  The candidates
        pair None and every special node j with the shift added to that
        scaled projection: zero, or row j of D C_comp^-1.
        """
        got = self._component_cache.get(comp)
        if got is None:
            cartan = self.rs.cartan
            den, scaled = scaled_inverse(
                tuple(tuple(cartan[i - 1][j - 1] for j in comp) for i in comp)
            )
            cols = tuple(
                tuple(
                    sum(cartan[i][j - 1] * scaled[a][b] for a, j in enumerate(comp))
                    for i in range(self.rs.rank)
                )
                for b in range(len(comp))
            )
            candidates = ((None, (0,) * len(comp)),) + tuple(
                (j, scaled[comp.index(j)]) for j in _component_special_nodes(self.rs, comp)
            )
            got = self._component_cache[comp] = (den, cols, candidates)
        return got

    def phi_correction(self, mu: Coroot, J: ParabolicIndex) -> Coroot:
        """The Q_J^vee correction phi_J(mu) in the canonical decomposition."""
        phi = [0] * self.rs.rank
        for comp, _jm, corr in self._component_decomposition(mu, J):
            for node, c in zip(comp, corr):
                phi[node - 1] = c
        return tuple(phi)

    def z_mu(self, mu: Coroot, J: ParabolicIndex) -> WeylElement:
        """The Weyl factor of pi_J(t_mu), a product of one special element
        per component of J."""
        z = self.W.identity
        for comp, jm, _corr in self._component_decomposition(mu, J):
            if jm is not None:
                z = z * _component_special_v(self.W, comp, jm)
        return z

    def project(self, x: AffineElement, J: ParabolicIndex) -> AffineElement:
        """pi_J(w t_mu) = floor(w) z_mu t_{mu + phi_J(mu)}."""
        wfloor = self.W.min_coset_rep(self.W.element(x.w), J)
        z = self.z_mu(x.mu, J)
        mu = add_vec(x.mu, self.phi_correction(x.mu, J))
        return AffineElement((wfloor * z).index, mu)

    def sigma_J(self, J: ParabolicIndex) -> dict[int, Coroot]:
        """The group of Weyl factors z_mu, as a map element id -> witness mu.

        Seeded from simple coroots and the integral coweights whose pairings
        with the simple roots lie in [-2, 2], then closed under the group
        law (mu -> z_mu is a homomorphism).
        """
        cached = self._sigma_cache.get(J.nodes)
        if cached is not None:
            return cached
        rs = self.rs
        seeds: dict[int, Coroot] = {}

        def note(mu: Coroot) -> None:
            z = self.z_mu(mu, J)
            if z.index not in seeds:
                seeds[z.index] = mu

        note((0,) * rs.rank)
        for i in range(1, rs.rank + 1):
            note(rs.simple_coroot(i))
        for mu in coweight_box(rs):
            note(mu)
        # close under the group law
        changed = True
        while changed:
            changed = False
            for za, mua in list(seeds.items()):
                for zb, mub in list(seeds.items()):
                    prod = (self.W.element(za) * self.W.element(zb)).index
                    if prod not in seeds:
                        seeds[prod] = add_vec(mua, mub)
                        changed = True
        self._sigma_cache[J.nodes] = seeds
        return seeds

    def invariant_depth_vector(self, J: ParabolicIndex) -> Coroot:
        """A W_J-invariant coweight pairing positively with Phi+ minus Phi_J+."""
        rs = self.rs
        h = (0,) * rs.rank
        for a in rs.positive_roots:
            if not J.supports(a):
                h = add_vec(h, rs.coroot(a))
        for j in J.nodes:
            if rs.pairing(h, rs.simple_roots()[j - 1]) != 0:
                raise GraphInvariantError("depth vector is not W_J-invariant")
        for a in rs.positive_roots:
            if not J.supports(a) and rs.pairing(h, a) <= 0:
                raise GraphInvariantError("depth vector is not J-dominant")
        return h

    def superantidominant_mu(self, z: WeylElement, J: ParabolicIndex, depth: int) -> Coroot:
        """A J-adjusted mu with z_mu = z and <mu, alpha> <= -depth off Phi_J."""
        reps = self.sigma_J(J)
        if z.index not in reps:
            raise ValueError("z is not realized by any coweight (not in Sigma_J)")
        nu = reps[z.index]
        mu = add_vec(nu, self.phi_correction(nu, J))
        h = self.invariant_depth_vector(J)
        worst = max(
            self.rs.pairing(mu, a) for a in self.rs.positive_roots if not J.supports(a)
        )
        step = min(
            self.rs.pairing(h, a) for a in self.rs.positive_roots if not J.supports(a)
        )
        m = max(0, -(-(worst + depth) // step))  # ceil((worst+depth)/step)
        mu = sub_vec(mu, scale_vec(m, h))
        if not self.is_superantidominant(mu, J, depth) or not self.is_adjusted(mu, J):
            raise GraphInvariantError("failed to build a superantidominant witness")
        if self.z_mu(mu, J).index != z.index:
            raise GraphInvariantError("witness has the wrong Weyl factor")
        return mu

    def is_superantidominant(self, mu: Coroot, J: ParabolicIndex, depth: int) -> bool:
        """<mu, alpha> <= 0 on Phi_J^+ and <= -depth on Phi^+ minus Phi_J^+."""
        if len(mu) != self.rs.rank:
            raise ValueError("rank mismatch")
        return all(
            sum(map(mul, mu, row)) <= (0 if inside else -depth)
            for inside, row in zip(J.in_phi_J, self.rs.positive_rows)
        )

    def in_omega(self, x: AffineElement, J: ParabolicIndex, depth: int = 1) -> bool:
        """Membership in the lift target: floor part in W^J, mu adjusted with
        matching Weyl factor, and mu at least `depth` antidominant off Phi_J."""
        wfloor, rest = self.W.parabolic_decompose(self.W.element(x.w), J)
        return (
            self.is_adjusted(x.mu, J)
            and self.z_mu(x.mu, J).index == rest.index
            and self.is_superantidominant(x.mu, J, depth)
        )

    # -- lifting edges and projecting covers ------------------------------------

    def lift_depth(self, graph: QbgGraph) -> int:
        """Operational bound for 'very antidominant': graph diameter plus 2.

        The diameter is exact, from bit-parallel reachability; no all-pairs
        distance table is built.
        """
        return graph.diameter() + 2

    def lift_edge(
        self,
        graph: QbgGraph,
        edge: QbgEdge,
        z: WeylElement,
        mu: Coroot,
        depth: int | None = None,
    ) -> tuple[AffineElement, AffineElement, AffineRoot]:
        """Lift a graph edge to a length-one downward cover x > x r_gamma.

        Requires mu J-adjusted and superantidominant to ``depth`` (default:
        the diameter-based lift depth) with Weyl factor exactly z.
        """
        J = graph.J
        if depth is None:
            depth = self.lift_depth(graph)
        if not self.is_adjusted(mu, J):
            raise ValueError("mu is not J-adjusted")
        if not self.is_superantidominant(mu, J, depth):
            raise ValueError(f"mu is not superantidominant to depth {depth}")
        if self.z_mu(mu, J).index != z.index:
            raise ValueError("z does not match the Weyl factor of mu")
        rs = self.rs
        W = self.W
        w = W.element(edge.source)
        chi = 1 if edge.kind == QUANTUM else 0
        zinv_alpha = z.inverse().act(edge.label)
        gamma = AffineRoot(zinv_alpha, chi + rs.pairing(mu, zinv_alpha))
        x = AffineElement((w * z).index, mu)
        y = self.mul(x, self.reflection(gamma))
        if gamma.is_positive():
            raise GraphInvariantError("lift label should be a negative affine root")
        if self.length(x) - self.length(y) != 1:
            raise GraphInvariantError("lift is not a length-one cover")
        for el in (x, y):
            if not self.in_wj_af(el, J) or not self.in_waf_minus(el):
                raise GraphInvariantError("lift left the distinguished cosets")
            if not self.in_omega(el, J, depth=1):
                raise GraphInvariantError("lift left the target set")
        return x, y, gamma

    def project_cover(
        self, x: AffineElement, y: AffineElement, J: ParabolicIndex
    ) -> tuple[QbgEdge, WeylElement, int, AffineRoot]:
        """Project a cover y < x back to a graph edge (with its z and chi).

        x must factor as w z t_mu with w in W^J, z = z_mu; the connecting
        root's classical part must avoid Phi_J.
        """
        rs = self.rs
        W = self.W
        w, z = W.parabolic_decompose(W.element(x.w), J)
        mu = x.mu
        if not self.is_adjusted(mu, J) or self.z_mu(mu, J).index != z.index:
            raise ValueError("x does not factor through the projection")
        if self.length(x) - self.length(y) != 1:
            raise ValueError("not a length-one cover")
        u = self.mul(self.inv(x), y)
        beta = _reflection_root(W, W.element(u.w))
        cor = rs.coroot(beta)
        ns = {
            Fraction(c, d) for c, d in zip(u.mu, cor) if d != 0
        }
        if len(ns) != 1 or any(c != 0 and d == 0 for c, d in zip(u.mu, cor)):
            raise ValueError("cover is not by an affine reflection")
        n = next(iter(ns))
        if n.denominator != 1:
            raise ValueError("cover is not by an affine reflection")
        n = int(n)
        alpha = z.act(beta)
        if not is_positive_vec(alpha):
            alpha = neg_vec(alpha)
            beta, n = neg_vec(beta), -n
        if J.supports(alpha):
            raise ValueError("connecting root has classical part in Phi_J")
        gamma = AffineRoot(beta, n)
        chi = n - rs.pairing(mu, beta)
        if chi not in (0, 1):
            raise GraphInvariantError("cover discriminant chi outside {0, 1}")
        if gamma.is_positive():
            raise GraphInvariantError("cover label should be a negative affine root")
        edge = edge_between(W, J, w, alpha)
        if edge is None:
            raise GraphInvariantError("projected cover is not a graph edge")
        want = QUANTUM if chi == 1 else BRUHAT
        if edge.kind != want:
            raise GraphInvariantError("projected edge kind disagrees with chi")
        return edge, z, chi, gamma

    def cocovers(
        self, x: AffineElement, J: ParabolicIndex, depth: int = 1
    ) -> list[tuple[AffineElement, AffineRoot, bool]]:
        """All y = x r_{beta + n delta} with length drop one, y in the lift
        target, over the full reflection window for x's translation part.

        The flag records whether the connecting root's classical part lies
        outside Phi_J (the covers the projection applies to).
        """
        rs = self.rs
        lx = self.length(x)
        window = 2 + max(
            (abs(rs.pairing(x.mu, a)) for a in rs.positive_roots), default=0
        )
        out = []
        for beta in rs.positive_roots:
            for n in range(-window, window + 1):
                y = self.mul(x, self.reflection(AffineRoot(beta, n)))
                if self.length(y) != lx - 1:
                    continue
                if not self.in_wj_af(y, J) or not self.in_waf_minus(y):
                    continue
                if not self.in_omega(y, J, depth):
                    continue
                out.append((y, AffineRoot(beta, n), not J.supports(beta)))
        return out

    def lift_path(
        self, graph: QbgGraph, path, mu: Coroot
    ) -> list[tuple[AffineElement, AffineRoot | None]]:
        """Lift a directed path to a saturated downward chain.

        Returns the chain elements paired with the connecting root used to
        step down into each (None for the starting element).  Only the
        starting mu must be superantidominant to the lift depth; a step may
        make the next mu shallower, and each step checks that its result is
        a length-one cover that stays in the lift target.
        """
        J = graph.J
        if not self.is_adjusted(mu, J):
            raise ValueError("starting mu must be J-adjusted")
        depth = self.lift_depth(graph)
        if not self.is_superantidominant(mu, J, depth):
            raise ValueError(f"starting mu is not superantidominant to depth {depth}")
        edges = path.edges if hasattr(path, "edges") else tuple(path)
        start = path.start if hasattr(path, "start") else edges[0].source
        z0 = self.z_mu(mu, J)
        x = AffineElement((self.W.element(start) * z0).index, mu)
        chain: list[tuple[AffineElement, AffineRoot | None]] = [(x, None)]
        for edge in edges:
            w, z = self.W.parabolic_decompose(self.W.element(x.w), J)
            if w.index != edge.source:
                raise ValueError("path does not start where the chain is")
            x, y, gamma = self.lift_edge(graph, edge, z, x.mu, depth=1)
            chain.append((y, gamma))
            x = y
        return chain


def coweight_box(rs):
    """The integral coweights whose pairings with the simple roots all lie
    in [-2, 2], in lexicographic order of those pairings.

    A pairing vector p has coweight coordinates p C^-1; with D the
    denominator of C^-1 they are integral iff D divides every entry of
    p (D C^-1), so the scan stays in integer arithmetic.
    """
    den, scaled = rs.scaled_inverse_cartan()
    cols = tuple(zip(*scaled))
    for pairs in product(range(-2, 3), repeat=rs.rank):
        if all(sum(map(mul, pairs, col)) % den == 0 for col in cols):
            yield tuple(sum(map(mul, pairs, col)) // den for col in cols)


def _pairing_by_definition(cartan, c: Coroot, v: Root) -> int:
    """<c, v> = sum_ij c_i a_ij v_j, straight from the Cartan matrix."""
    if len(c) != len(cartan) or len(v) != len(cartan):
        raise ValueError("rank mismatch")
    return sum(
        ci * aij * vj for ci, row in zip(c, cartan) for aij, vj in zip(row, v)
    )


def cover_label(gamma: AffineRoot) -> AffineRoot:
    """Positive representative of a cover's connecting root."""
    return gamma if gamma.is_positive() else -gamma


def _reflection_root(W: WeylGroup, w: WeylElement) -> Root:
    """The positive root beta with w = r_beta, or raise ValueError."""
    for beta in W.rs.positive_roots:
        if W.reflection(beta).index == w.index:
            return beta
    raise ValueError("finite part is not a reflection")


def _component_positive_roots(rs, comp: tuple[int, ...]) -> tuple[Root, ...]:
    node_set = set(comp)
    return tuple(
        a
        for a in rs.positive_roots
        if all(c == 0 or (i + 1) in node_set for i, c in enumerate(a))
        and any(c != 0 and (i + 1) in node_set for i, c in enumerate(a))
    )


def _component_special_nodes(rs, comp: tuple[int, ...]) -> tuple[int, ...]:
    roots = _component_positive_roots(rs, comp)
    theta = max(roots, key=lambda a: (sum(a), a))
    return tuple(j for j in comp if theta[j - 1] == 1)


def _component_special_v(W: WeylGroup, comp: tuple[int, ...], j: int) -> WeylElement:
    return W.longest_element(comp) * W.longest_element(tuple(k for k in comp if k != j))


# -- diamond completions -------------------------------------------------------

SIMPLE_BRUHAT = "simple-bruhat"
SIMPLE_QUANTUM = "simple-quantum"
THETA_BRUHAT = "theta-bruhat"
THETA_BRUHAT_ORTHO = "theta-bruhat-orthogonal"
THETA_QUANTUM = "theta-quantum"
THETA_QUANTUM_ORTHO = "theta-quantum-orthogonal"

DIAMOND_CASES = (
    SIMPLE_BRUHAT,
    SIMPLE_QUANTUM,
    THETA_BRUHAT,
    THETA_BRUHAT_ORTHO,
    THETA_QUANTUM,
    THETA_QUANTUM_ORTHO,
)

#: kinds (bottom-left, bottom-right, top-left, top-right) of the ascending
#: diamond for each case
_LEFT_KINDS = {
    SIMPLE_BRUHAT: (BRUHAT, BRUHAT, BRUHAT, BRUHAT),
    SIMPLE_QUANTUM: (BRUHAT, QUANTUM, QUANTUM, BRUHAT),
    THETA_BRUHAT: (QUANTUM, BRUHAT, QUANTUM, QUANTUM),
    THETA_BRUHAT_ORTHO: (QUANTUM, BRUHAT, BRUHAT, QUANTUM),
    THETA_QUANTUM: (QUANTUM, QUANTUM, BRUHAT, QUANTUM),
    THETA_QUANTUM_ORTHO: (QUANTUM, QUANTUM, QUANTUM, QUANTUM),
}


@dataclass(frozen=True)
class Diamond:
    """A completed diamond: the four edges plus the coset twists z, z2."""

    case: str
    bottom_left: QbgEdge
    bottom_right: QbgEdge
    top_left: QbgEdge
    top_right: QbgEdge
    z: WeylElement
    z2: WeylElement


def _require_edge(graph: QbgGraph, source: int, label: Root, kind: str,
                  target: int, who: str) -> QbgEdge:
    edge = graph.edge(source, label)
    if edge is None:
        raise GraphInvariantError(f"{who}: missing edge at label {label}")
    if edge.kind != kind:
        raise GraphInvariantError(f"{who}: expected {kind}, found {edge.kind}")
    if edge.target != target:
        raise GraphInvariantError(f"{who}: wrong target")
    return edge


def _congruent_mod_qj(rank: int, J: ParabolicIndex, a: Coroot, b: Coroot) -> bool:
    return all(
        (x - y) == 0 for i, (x, y) in enumerate(zip(a, b)) if (i + 1) not in J.nodes
    )


def complete_bottom(graph: QbgGraph, case: str, w: WeylElement, gamma: Root,
                    alpha: Root | None = None) -> Diamond:
    """Given the two ascending edges out of w, derive and verify the two
    edges that close the diamond above them.

    For the simple cases alpha is a simple root moving w up inside W^J; for
    the theta cases the left edge is the quantum step through r_theta.
    Raises ValueError when the configuration does not satisfy the case's
    hypotheses and GraphInvariantError if the implied edges are absent.
    """
    W, rs, J = graph.W, graph.rs, graph.J
    winv = w.inverse()
    if case in (SIMPLE_BRUHAT, SIMPLE_QUANTUM):
        if alpha is None or sum(alpha) != 1:
            raise ValueError("simple cases need a simple root alpha")
        wia = winv.act(alpha)
        if not is_positive_vec(wia) or J.supports(wia):
            raise ValueError("w^{-1} alpha must lie in Phi+ minus Phi_J+")
        if case == SIMPLE_BRUHAT and gamma == wia:
            raise ValueError("gamma must differ from w^{-1} alpha")
        kinds = _LEFT_KINDS[case]
        ra_w = W.reflection(alpha) * w
        bottom_left = _require_edge(
            graph, w.index, wia, kinds[0], ra_w.index, "bottom-left"
        )
        bottom_right = graph.edge(w.index, gamma)
        if bottom_right is None or bottom_right.kind != kinds[1]:
            raise ValueError(f"bottom-right edge of kind {kinds[1]} absent at {gamma}")
        wg = W.element(bottom_right.target)
        top = W.reflection(alpha) * wg
        if W.min_coset_rep(W.reflection(alpha) * w * W.reflection(gamma), J).index != top.index:
            raise GraphInvariantError("floors of the top vertex disagree")
        top_left = _require_edge(graph, ra_w.index, gamma, kinds[2], top.index, "top-left")
        top_right = _require_edge(
            graph, wg.index, wg.inverse().act(alpha), kinds[3], top.index, "top-right"
        )
        z = z2 = W.identity
    elif case in (THETA_BRUHAT, THETA_BRUHAT_ORTHO, THETA_QUANTUM, THETA_QUANTUM_ORTHO):
        theta = rs.theta
        witheta = winv.act(theta)
        if is_positive_vec(witheta) or J.supports(witheta):
            raise ValueError("w^{-1} theta must lie in Phi- minus Phi_J-")
        pair = rs.pairing(rs.coroot(gamma), witheta)
        ortho = case in (THETA_BRUHAT_ORTHO, THETA_QUANTUM_ORTHO)
        if ortho != (pair == 0):
            raise ValueError("orthogonality side condition violated")
        if case in (THETA_QUANTUM, THETA_QUANTUM_ORTHO) and gamma == neg_vec(witheta):
            raise ValueError("gamma must differ from -w^{-1} theta")
        kinds = _LEFT_KINDS[case]
        rtheta_w = W.min_coset_rep(W.reflection(theta) * w, J)
        bottom_left = _require_edge(
            graph, w.index, neg_vec(witheta), kinds[0], rtheta_w.index, "bottom-left"
        )
        bottom_right = graph.edge(w.index, gamma)
        if bottom_right is None or bottom_right.kind != kinds[1]:
            raise ValueError(f"bottom-right edge of kind {kinds[1]} absent at {gamma}")
        wg = W.element(bottom_right.target)
        z = W.theta_twist(w, J)
        z2 = W.theta_twist(wg, J)
        top = W.min_coset_rep(W.reflection(theta) * w * W.reflection(gamma), J)
        if W.min_coset_rep(W.reflection(theta) * wg, J).index != top.index:
            raise GraphInvariantError("floors of the top vertex disagree")
        top_left = _require_edge(
            graph, rtheta_w.index, z.act(gamma), kinds[2], top.index, "top-left"
        )
        top_right = _require_edge(
            graph, wg.index, neg_vec(wg.inverse().act(theta)), kinds[3], top.index,
            "top-right",
        )
    else:
        raise ValueError(f"unknown diamond case {case!r}")

    left_wt = add_vec(bottom_left.weight, top_left.weight)
    right_wt = add_vec(bottom_right.weight, top_right.weight)
    if not _congruent_mod_qj(rs.rank, J, left_wt, right_wt):
        raise GraphInvariantError("diamond path weights differ mod Q_J^vee")
    return Diamond(case, bottom_left, bottom_right, top_left, top_right, z, z2)


def complete_top(graph: QbgGraph, case: str, w: WeylElement, gamma: Root,
                 alpha: Root | None = None) -> Diamond:
    """Given the two edges converging on the diamond's top vertex, derive
    and verify the two edges below them (the descending statement)."""
    W, rs, J = graph.W, graph.rs, graph.J
    winv = w.inverse()
    if case in (SIMPLE_BRUHAT, SIMPLE_QUANTUM):
        if alpha is None or sum(alpha) != 1:
            raise ValueError("simple cases need a simple root alpha")
        wia = winv.act(alpha)
        if is_positive_vec(wia) or J.supports(wia):
            raise ValueError("w^{-1} alpha must lie in Phi- minus Phi_J-")
        if case == SIMPLE_BRUHAT and gamma == neg_vec(wia):
            raise ValueError("gamma must differ from -w^{-1} alpha")
        kinds = _LEFT_KINDS[case]
        top_left = graph.edge(w.index, gamma)
        if top_left is None or top_left.kind != kinds[2]:
            raise ValueError(f"top-left edge of kind {kinds[2]} absent at {gamma}")
        wg = W.element(top_left.target)
        wgia = wg.inverse().act(alpha)
        if is_positive_vec(wgia) or J.supports(wgia):
            raise ValueError("floor(w r_gamma)^{-1} alpha must lie in Phi- minus Phi_J-")
        ra_w = W.reflection(alpha) * w
        ra_wg = W.reflection(alpha) * wg
        given_tr = graph.edge(ra_wg.index, neg_vec(wgia))
        if given_tr is None or given_tr.kind != kinds[3] or given_tr.target != wg.index:
            raise ValueError("top-right edge of the descending diamond is absent")
        top_right = given_tr
        if W.min_coset_rep(W.reflection(alpha) * w * W.reflection(gamma), J).index != ra_wg.index:
            raise GraphInvariantError("floors of the right vertex disagree")
        bottom_left = _require_edge(
            graph, ra_w.index, neg_vec(wia), kinds[0], w.index, "bottom-left"
        )
        bottom_right = _require_edge(
            graph, ra_w.index, gamma, kinds[1], ra_wg.index, "bottom-right"
        )
        z = z2 = W.identity
    elif case in (THETA_BRUHAT, THETA_BRUHAT_ORTHO, THETA_QUANTUM, THETA_QUANTUM_ORTHO):
        theta = rs.theta
        witheta = winv.act(theta)
        if not is_positive_vec(witheta) or J.supports(witheta):
            raise ValueError("w^{-1} theta must lie in Phi+ minus Phi_J+")
        pair = rs.pairing(rs.coroot(gamma), witheta)
        ortho = case in (THETA_BRUHAT_ORTHO, THETA_QUANTUM_ORTHO)
        if ortho != (pair == 0):
            raise ValueError("orthogonality side condition violated")
        if case in (THETA_BRUHAT, THETA_BRUHAT_ORTHO) and gamma == witheta:
            raise ValueError("gamma must differ from w^{-1} theta")
        # the descending theta/Bruhat shape completes with a quantum lower
        # edge and vice versa; the orthogonal shapes keep their kind
        want_tl = BRUHAT if case in (THETA_BRUHAT, THETA_BRUHAT_ORTHO) else QUANTUM
        implied_br = {
            THETA_BRUHAT: QUANTUM,
            THETA_BRUHAT_ORTHO: BRUHAT,
            THETA_QUANTUM: BRUHAT,
            THETA_QUANTUM_ORTHO: QUANTUM,
        }[case]
        top_left = graph.edge(w.index, gamma)
        if top_left is None or top_left.kind != want_tl:
            raise ValueError(f"top-left edge of kind {want_tl} absent at {gamma}")
        wg = W.element(top_left.target)
        z = W.theta_twist(w, J)
        z2 = W.theta_twist(wg, J)
        rtheta_w = W.min_coset_rep(W.reflection(theta) * w, J)
        rtheta_wg = W.min_coset_rep(W.reflection(theta) * wg, J)
        given_tr = graph.edge(rtheta_wg.index, z2.act(wg.inverse().act(theta)))
        if given_tr is None or given_tr.kind != QUANTUM or given_tr.target != wg.index:
            raise ValueError("top-right edge of the descending diamond is absent")
        top_right = given_tr
        bottom_left = _require_edge(
            graph, rtheta_w.index, z.act(witheta), QUANTUM, w.index, "bottom-left"
        )
        bottom_right = _require_edge(
            graph, rtheta_w.index, z.act(gamma), implied_br, rtheta_wg.index,
            "bottom-right",
        )
    else:
        raise ValueError(f"unknown diamond case {case!r}")

    left_wt = add_vec(bottom_left.weight, top_left.weight)
    right_wt = add_vec(bottom_right.weight, top_right.weight)
    if not _congruent_mod_qj(rs.rank, J, left_wt, right_wt):
        raise GraphInvariantError("diamond path weights differ mod Q_J^vee")
    return Diamond(case, bottom_left, bottom_right, top_left, top_right, z, z2)


def iter_top_configurations(graph: QbgGraph, case: str):
    """All (w, gamma, alpha) satisfying the descending case's hypotheses."""
    W, rs, J = graph.W, graph.rs, graph.J
    simples = rs.simple_roots()
    for wid in graph.vertices:
        w = W.element(wid)
        winv = w.inverse()
        for edge in graph.out[wid]:
            gamma = edge.label
            wg = W.element(edge.target)
            if case in (SIMPLE_BRUHAT, SIMPLE_QUANTUM):
                if edge.kind != (BRUHAT if case == SIMPLE_BRUHAT else QUANTUM):
                    continue
                for alpha in simples:
                    wia = winv.act(alpha)
                    if is_positive_vec(wia) or J.supports(wia):
                        continue
                    wgia = wg.inverse().act(alpha)
                    if is_positive_vec(wgia) or J.supports(wgia):
                        continue
                    if case == SIMPLE_BRUHAT and gamma == neg_vec(wia):
                        continue
                    yield w, gamma, alpha
            else:
                want = BRUHAT if case in (THETA_BRUHAT, THETA_BRUHAT_ORTHO) else QUANTUM
                if edge.kind != want:
                    continue
                witheta = winv.act(rs.theta)
                if not is_positive_vec(witheta) or J.supports(witheta):
                    continue
                wgitheta = wg.inverse().act(rs.theta)
                if not is_positive_vec(wgitheta) or J.supports(wgitheta):
                    continue
                pair = rs.pairing(rs.coroot(gamma), witheta)
                ortho = case in (THETA_BRUHAT_ORTHO, THETA_QUANTUM_ORTHO)
                if ortho != (pair == 0):
                    continue
                if case in (THETA_BRUHAT, THETA_BRUHAT_ORTHO) and gamma == witheta:
                    continue
                yield w, gamma, None


def iter_bottom_configurations(graph: QbgGraph, case: str):
    """All (w, gamma, alpha) satisfying the ascending case's hypotheses."""
    W, rs, J = graph.W, graph.rs, graph.J
    simples = rs.simple_roots()
    for wid in graph.vertices:
        w = W.element(wid)
        winv = w.inverse()
        for edge in graph.out[wid]:
            gamma = edge.label
            if case in (SIMPLE_BRUHAT, SIMPLE_QUANTUM):
                if edge.kind != (BRUHAT if case == SIMPLE_BRUHAT else QUANTUM):
                    continue
                for alpha in simples:
                    wia = winv.act(alpha)
                    if not is_positive_vec(wia) or J.supports(wia):
                        continue
                    if case == SIMPLE_BRUHAT and gamma == wia:
                        continue
                    yield w, gamma, alpha
            else:
                want = BRUHAT if case in (THETA_BRUHAT, THETA_BRUHAT_ORTHO) else QUANTUM
                if edge.kind != want:
                    continue
                witheta = winv.act(rs.theta)
                if is_positive_vec(witheta) or J.supports(witheta):
                    continue
                pair = rs.pairing(rs.coroot(gamma), witheta)
                ortho = case in (THETA_BRUHAT_ORTHO, THETA_QUANTUM_ORTHO)
                if ortho != (pair == 0):
                    continue
                if case in (THETA_QUANTUM, THETA_QUANTUM_ORTHO) and gamma == neg_vec(witheta):
                    continue
                yield w, gamma, None
