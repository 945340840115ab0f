"""Affine Weyl group elements w t_mu: exact length, the parabolic projection
onto (W^J)_af, adjusted coweights, edge lifting, and diamond completions."""

from __future__ import annotations

from operator import add, mul
from typing import NamedTuple

from .qbg import BRUHAT, QUANTUM, GraphInvariantError, QbgEdge, QbgGraph, QbgPath, quotient_diameter
from .root_system import (
    AffineRoot,
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

#: entries kept in each ``AffineWeyl``'s fact table, whose keys take three
#: shapes: (mu,) for mu's pairing row, (mu, J.nodes) for (z_mu, phi_J(mu))
#: and (mu, J.nodes, depth) for the facts ``in_omega`` reads; past this
#: many the oldest entry is dropped, whatever its shape
FACT_TABLE_SIZE = 4096


class AffineElement(NamedTuple):
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
        # the fact table, under three key shapes: per (mu,) its pairing row
        # (<mu, alpha> over rs.positive_roots), per (mu, J.nodes) its
        # (z_mu, phi_J(mu)), and per (mu, J.nodes, depth) the facts
        # ``in_omega`` reads; at most FACT_TABLE_SIZE entries, oldest
        # dropped first
        self._facts: dict[tuple, tuple] = {}
        # (w, J.nodes, W.parabolic_decompose(w, J)) of the last element
        # ``_decompose`` was asked about
        self._last_decomposed: tuple = (None, None, None)
        # per element id the sign of w(alpha) over Phi+, read only by the
        # oracle ``length_by_inversions``
        self._oracle_signs: dict[int, tuple[bool, ...]] = {}
        # the positions of the simple roots in rs.positive_roots
        self._simple_pos = tuple(map(W._root_pos.__getitem__, self.rs.simple_roots()))

    # -- group structure ---------------------------------------------------

    def from_finite(self, w: WeylElement) -> AffineElement:
        return AffineElement(w.index, (0,) * self.rs.rank)

    def translation(self, mu: Coroot) -> AffineElement:
        return AffineElement(0, tuple(mu))

    def mul(self, x: AffineElement, y: AffineElement) -> AffineElement:
        # (w t_mu)(v t_nu) = wv t_{v^{-1} mu + nu}
        W = self.W
        return AffineElement(W.mul(x.w, y.w), add_vec(W.act_coroot(W._inverse[y.w], x.mu), y.mu))

    def inv(self, x: AffineElement) -> AffineElement:
        return AffineElement(self.W._inverse[x.w], neg_vec(self.W.act_coroot(x.w, x.mu)))

    def reflection(self, beta: AffineRoot) -> AffineElement:
        """r_{alpha + k delta} = r_alpha t_{k alpha^vee}."""
        r = self.W.right_reflect(0, beta.alpha)
        return AffineElement(r, scale_vec(beta.k, self.rs.coroot(beta.alpha)))

    def act(self, x: AffineElement, beta: AffineRoot) -> AffineRoot:
        """w t_mu sends alpha + k delta to w(alpha) + (k - <mu, alpha>) delta."""
        return AffineRoot(self.W.act(x.w, beta.alpha), beta.k - self.rs.pairing(x.mu, beta.alpha))

    # -- length ---------------------------------------------------------------

    def length(self, x: AffineElement) -> int:
        """Sum over alpha in Phi+ of |chi(w alpha < 0) + <mu, alpha>|.

        chi is w's inversion flag at alpha and <mu, alpha> the entry of mu's
        pairing row at alpha: the row is kept in the fact table under
        (mu,), beside the (mu, J.nodes) and (mu, J.nodes, depth) facts, so
        a length makes no dot product once mu's row is there.
        """
        return sum(map(abs, map(add, self.W.inversion_flags(x.w), self._pairing_row(x.mu))))

    def _pairing_row(self, mu: Coroot) -> tuple[int, ...]:
        """<mu, alpha> over alpha in ``rs.positive_roots``, in that order:
        every such pairing that ``length``, the membership tests and the
        lifts read comes from this row.  Kept in the fact table under
        (mu,); a mu of the wrong rank raises ValueError."""
        key = (mu,)
        got = self._facts.get(key)
        if got is None:
            if len(mu) != self.rs.rank:
                raise ValueError("rank mismatch")
            got = self._remember(key, tuple(sum(map(mul, mu, row)) for row in self.rs.positive_rows))
        return got

    def length_by_inversions(self, x: AffineElement) -> int:
        """Independent oracle: count positive affine roots sent negative.

        The delta coefficient is scanned, per root alpha, over a window
        wide enough to cover every inversion among alpha's translates: the
        image of alpha + k delta is w(alpha) + (k - <mu, alpha>) delta, so a
        translate of +-alpha is sent negative only for k <= |<mu, alpha>|.
        The scan compares delta parts against the sign of w(alpha).  The
        pairings and the signs come from the Cartan matrix and w's word,
        not from any table of the group's: <mu, alpha> is (C mu) . alpha,
        with C mu formed per call, and w's signs are formed once per w, in a
        table only this oracle reads.
        """
        rs, mu = self.rs, x.mu
        cartan = rs.cartan
        if len(mu) != len(cartan):
            raise ValueError("rank mismatch")
        # entry j of C mu is sum_i mu_i a_ij = <mu, alpha_j>
        c_mu = [sum(map(mul, mu, col)) for col in zip(*cartan)]
        count = 0
        for alpha, wpos in zip(rs.positive_roots, self._root_signs(x.w)):
            p = sum(map(mul, c_mu, alpha))
            bound = 1 + abs(p)
            for k in range(0, bound + 1):  # alpha + k delta
                if k - p < 0 or (k - p == 0 and not wpos):
                    count += 1
            for k in range(1, bound + 1):  # -alpha + k delta
                if k + p < 0 or (k + p == 0 and wpos):
                    count += 1
        return count

    def _root_signs(self, w: int) -> tuple[bool, ...]:
        """Whether w(alpha) > 0, per alpha in Phi+, from w's word and the
        Cartan matrix: the word's letters act from the last, and r_k
        changes only coordinate k of v, by -<alpha_k^vee, v> = -(C v)_k."""
        got = self._oracle_signs.get(w)
        if got is None:
            cartan, word = self.rs.cartan, self.W._word[w][::-1]
            signs = []
            for alpha in self.rs.positive_roots:
                v = list(alpha)
                for k in word:
                    v[k - 1] -= sum(map(mul, cartan[k - 1], v))
                signs.append(is_positive_vec(v))
            got = self._oracle_signs[w] = tuple(signs)
        return got

    # -- distinguished coset representatives -----------------------------------

    def in_waf_minus(self, x: AffineElement) -> bool:
        """Minimum-length representative of x W: all finite simples stay positive.

        x sends alpha_i to w(alpha_i) - <mu, alpha_i> delta, which is
        positive unless the pairing is positive, or zero with w(alpha_i) < 0,
        i.e. with a right descent of w at i.
        """
        w, pairs = x.w, self._pairing_row(x.mu)
        length = self.W._length
        for col, b in zip(self.W._right, self._simple_pos):
            pair = pairs[b]
            if pair > 0 or (pair == 0 and length[col[w]] < length[w]):
                return False
        return True

    def in_wj_af(self, x: AffineElement, J: ParabolicIndex) -> bool:
        """Membership in (W^J)_af: for alpha in Phi_J^+, w alpha > 0 forces
        <mu, alpha> = 0 and w alpha < 0 forces <mu, alpha> = -1."""
        pairs = self._pairing_row(x.mu)
        flags = self.W.inversion_flags(x.w)
        return all(pairs[b] == -flags[b] for b in J.phi_plus_pos)

    def in_wjaf_parabolic_factor(self, x: AffineElement, J: ParabolicIndex) -> bool:
        """Membership in (W_J)_af = W_J x Q_J^vee."""
        in_wj = x.w in self.W.subgroup_elements(J.nodes)
        in_qj = all(c == 0 or (i + 1) in J.nodes for i, c in enumerate(x.mu))
        return in_wj and in_qj

    # -- adjusted coweights and the projection ---------------------------------

    def is_adjusted(self, mu: Coroot, J: ParabolicIndex) -> bool:
        """<mu, alpha> in {0, -1} for every alpha in Phi_J^+."""
        pairs = self._pairing_row(mu)
        return all(pairs[b] in (0, -1) for b in J.phi_plus_pos)

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
            den, cols, candidates, _factors = self._component_data(comp)
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
        """(D, columns, candidates, factors) of one component of J.

        D * C_comp^-1 is the component's scaled inverse Cartan matrix.
        Column b maps mu to D times coordinate b of its projection:
        sum_a <mu, alpha_{comp[a]}> (D C_comp^-1)[a][b].  The candidates
        pair None and every special node j with the shift added to that
        scaled projection: zero, or row j of D C_comp^-1.  The factors map
        None to the identity and j to the id of v_j = w_0^comp
        w_0^(comp minus j).
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
            specials = _component_special_nodes(self.rs, comp)
            candidates = ((None, (0,) * len(comp)),) + tuple(
                (j, scaled[comp.index(j)]) for j in specials
            )
            W = self.W
            factors = {None: 0} | {
                j: W.mul(W.longest(comp), W.longest(tuple(k for k in comp if k != j)))
                for j in specials
            }
            got = self._component_cache[comp] = (den, cols, candidates, factors)
        return got

    def _factor_and_correction(self, mu: Coroot, J: ParabolicIndex) -> tuple[int, Coroot]:
        """(z_mu, phi_J(mu)) from one component decomposition: z_mu is the
        product of one special element per component of J.  Kept in the
        fact table; a decomposition that raises keeps nothing."""
        key = (mu, J.nodes)
        got = self._facts.get(key)
        if got is None:
            z, phi = 0, [0] * self.rs.rank
            for comp, jm, corr in self._component_decomposition(mu, J):
                z = self.W.mul(z, self._component_data(comp)[3][jm])
                for node, c in zip(comp, corr):
                    phi[node - 1] = c
            got = self._remember(key, (z, tuple(phi)))
        return got

    def _remember(self, key: tuple, value: tuple) -> tuple:
        """Keep value in the fact table under key, dropping the oldest entry
        past FACT_TABLE_SIZE."""
        facts = self._facts
        facts[key] = value
        if len(facts) > FACT_TABLE_SIZE:
            del facts[next(iter(facts))]
        return value

    def phi_correction(self, mu: Coroot, J: ParabolicIndex) -> Coroot:
        """The Q_J^vee correction phi_J(mu) in the canonical decomposition."""
        return self._factor_and_correction(mu, J)[1]

    def z_mu(self, mu: Coroot, J: ParabolicIndex) -> int:
        """The Weyl factor of pi_J(t_mu), as an element id."""
        return self._factor_and_correction(mu, J)[0]

    def project(self, x: AffineElement, J: ParabolicIndex) -> AffineElement:
        """pi_J(w t_mu) = floor(w) z_mu t_{mu + phi_J(mu)}."""
        z, phi = self._factor_and_correction(x.mu, J)
        return AffineElement(self.W.mul(self.W.coset_floor(x.w, J), z), add_vec(x.mu, phi))

    def sigma_J(self, J: ParabolicIndex) -> dict[int, Coroot]:
        """The group of Weyl factors z_mu, as a map element id -> witness mu.

        mu -> z_mu is a homomorphism on Q^vee and the simple coroots generate
        Q^vee, so Sigma_J is the closure of z_0 = e and the factors of the
        simple coroots under the group law.
        """
        cached = self._sigma_cache.get(J.nodes)
        if cached is not None:
            return cached
        rs = self.rs
        zero = (0,) * rs.rank
        seeds = {self.z_mu(zero, J): zero}
        for i in range(1, rs.rank + 1):
            mu = rs.simple_coroot(i)
            seeds.setdefault(self.z_mu(mu, J), mu)
        # close under the group law
        changed = True
        while changed:
            changed = False
            for za, mua in list(seeds.items()):
                for zb, mub in list(seeds.items()):
                    prod = self.W.mul(za, zb)
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
        pairs = self._pairing_row(h)
        for j in J.nodes:
            if pairs[self._simple_pos[j - 1]] != 0:
                raise GraphInvariantError("depth vector is not W_J-invariant")
        if any(p <= 0 for inside, p in zip(J.in_phi_J, pairs) if not inside):
            raise GraphInvariantError("depth vector is not J-dominant")
        return h

    def superantidominant_mu(self, z: WeylElement, J: ParabolicIndex, depth: int) -> Coroot:
        """A J-adjusted mu with z_mu = z and <mu, alpha> <= -depth off Phi_J."""
        if len(J.nodes) == self.rs.rank:
            raise ValueError("J must be proper: no positive root lies outside Phi_J")
        reps = self.sigma_J(J)
        if z.index not in reps:
            raise ValueError("z is not realized by any coweight (not in Sigma_J)")
        nu = reps[z.index]
        mu = add_vec(nu, self.phi_correction(nu, J))
        h = self.invariant_depth_vector(J)
        worst = max(p for inside, p in zip(J.in_phi_J, self._pairing_row(mu)) if not inside)
        step = min(p for inside, p in zip(J.in_phi_J, self._pairing_row(h)) if not inside)
        m = max(0, -(-(worst + depth) // step))  # ceil((worst+depth)/step)
        mu = sub_vec(mu, scale_vec(m, h))
        if not self.is_superantidominant(mu, J, depth) or not self.is_adjusted(mu, J):
            raise GraphInvariantError("failed to build a superantidominant witness")
        if self.z_mu(mu, J) != z.index:
            raise GraphInvariantError("witness has the wrong Weyl factor")
        return mu

    def is_superantidominant(self, mu: Coroot, J: ParabolicIndex, depth: int) -> bool:
        """<mu, alpha> <= 0 on Phi_J^+ and <= -depth on Phi^+ minus Phi_J^+."""
        return all(
            pair <= (0 if inside else -depth)
            for inside, pair in zip(J.in_phi_J, self._pairing_row(mu))
        )

    def in_omega(self, x: AffineElement, J: ParabolicIndex, depth: int = 1) -> bool:
        """Membership in the lift target: floor part in W^J, mu adjusted with
        matching Weyl factor, and mu at least `depth` antidominant off Phi_J."""
        rest = self._decompose(x.w, J)[1]
        adjusted, z, deep = self._mu_facts(x.mu, J, depth)
        return adjusted and z == rest and deep

    def _decompose(self, w: int, J: ParabolicIndex) -> tuple[int, int]:
        """``W.parabolic_decompose(w, J)``, keeping the last answer: a walk
        asks for each chain element's twice, in its ``in_omega`` check and
        at the next step."""
        last = self._last_decomposed
        if last[0] != w or last[1] != J.nodes:
            last = self._last_decomposed = (w, J.nodes, self.W.parabolic_decompose(w, J))
        return last[2]

    def _mu_facts(self, mu: Coroot, J: ParabolicIndex, depth: int):
        """(J-adjusted, z_mu or None when not adjusted, superantidominant to
        depth) of mu, kept in the fact table: each mu a lifted y carries is
        decomposed once per ``AffineWeyl``, across tables and walks."""
        key = (mu, J.nodes, depth)
        got = self._facts.get(key)
        if got is None:
            adjusted = self.is_adjusted(mu, J)
            got = self._remember(key, (
                adjusted,
                self.z_mu(mu, J) if adjusted else None,
                adjusted and self.is_superantidominant(mu, J, depth),
            ))
        return got

    # -- lifting edges and projecting covers ------------------------------------

    def lift_depth(self, graph: QbgGraph) -> int:
        """Operational bound for 'very antidominant': the diameter of
        QB(W^J) plus 2, which is |Phi+ minus Phi_J+| + 2
        (``quotient_diameter`` gives the closed form and its proof).

        No search is run, so graph must be QB(W^J) itself, as ``build_qbg``
        makes it.  A graph whose vertex count is not |W| / |W_J| (a coset
        subgraph, the graph of W_J) raises ValueError; one with all of
        W^J's vertices but edges left out is not caught.
        """
        if len(graph.vertices) * graph.J.subgroup_order() != len(self.W):
            raise ValueError(f"the graph is not QB(W^J) for J = {graph.J.nodes}")
        return quotient_diameter(graph.J) + 2

    def _lift_factor(self, mu: Coroot, J: ParabolicIndex, depth: int) -> int:
        """z_mu of a mu that meets the lift hypothesis: of the rank,
        J-adjusted and superantidominant to depth.  Raises ValueError at
        the first that fails; the facts come from the fact table."""
        if len(mu) != self.rs.rank:
            raise ValueError("mu has the wrong rank")
        adjusted, z, deep = self._mu_facts(mu, J, depth)
        if not adjusted:
            raise ValueError("mu is not J-adjusted")
        if not deep:
            raise ValueError(f"mu is not superantidominant to depth {depth}")
        return z

    def lift_edge(
        self, graph: QbgGraph, edge: QbgEdge, mu: Coroot, depth: int | None = None
    ) -> tuple[AffineElement, AffineElement, AffineRoot]:
        """Lift a graph edge to a length-one downward cover x > x r_gamma,
        x = (source z_mu, mu): ``lift_table``'s row for the one edge.  mu
        must meet the lift hypothesis to ``depth`` (default: the lift depth,
        which needs graph to be QB(W^J) itself, see ``lift_depth``).
        """
        if depth is None:
            depth = self.lift_depth(graph)
        z = self._lift_factor(mu, graph.J, depth)
        [(x, [(_edge, y, gamma)])] = self._lift_rows(graph.J, z, mu, [(edge.source, (edge,))])
        return x, y, gamma

    def lift_table(self, graph: QbgGraph, mu: Coroot):
        """Lift every edge of the graph with one mu, as ``lift_edge`` does.

        Yields (x, lifts) per vertex with out-edges, in the order of
        ``graph.vertices``: x = (source z_mu, mu) and one (edge, y, gamma)
        per edge out of the source, in the order of ``graph.out``.  mu's
        lift hypothesis is checked here, before any lift, to the lift depth:
        graph must be QB(W^J) itself (``lift_depth``).
        """
        z = self._lift_factor(mu, graph.J, self.lift_depth(graph))
        out = graph.out
        return self._lift_rows(graph.J, z, mu, ((v, out[v]) for v in graph.vertices if out[v]))

    def _lift_rows(self, J: ParabolicIndex, z: int, mu: Coroot, rows):
        """(x, [(edge, y, gamma), ...]) per (source, edges) of rows.  x is
        checked once, after its first edge's lift, and every y after its
        own; y's mu is mu or mu shifted by a coroot, so the facts
        ``in_omega`` reads of it come from the fact table."""
        W = self.W
        zinv = W._inverse[z]
        for v, out in rows:
            x = AffineElement(W.mul(v, z), mu)
            lx = self.length(x)
            lifts = []
            for edge in out:
                y, gamma = self._lift_below(x, lx, edge, zinv)
                if not lifts:
                    self._require_lifted(x, J)
                self._require_lifted(y, J)
                lifts.append((edge, y, gamma))
            yield x, lifts

    def _lift_below(self, x: AffineElement, lx: int, edge: QbgEdge,
                    zinv: int) -> tuple[AffineElement, AffineRoot]:
        """(y, gamma) with y = x r_gamma the lift of the edge below x, of
        length lx; gamma must be negative and y one shorter than x.

        With beta = z^{-1}(alpha), gamma = beta + (chi + <mu, beta>) delta
        and r_gamma = r_beta t_{(chi + <mu, beta>) beta^vee}, so y is
        w r_beta t_{mu + chi beta^vee}: beta is an entry of z^{-1}'s signed
        root permutation (``WeylGroup.act``), r_beta an entry of row 0 of
        the reflection rows, w r_beta one product of ids, and no matrix
        product is needed: w's own reflection row is never filled.
        <mu, beta> is +-the entry of mu's pairing row at the position of
        +-beta.
        """
        W = self.W
        beta = W.act(zinv, edge.label)
        b = W._root_pos[beta]
        pair = self._pairing_row(x.mu)[b]
        chi = 1 if edge.kind == QUANTUM else 0
        gamma = AffineRoot(beta, chi + (pair if is_positive_vec(beta) else -pair))
        mu = add_vec(x.mu, self.rs.coroot(beta)) if chi else x.mu
        y = AffineElement(W.mul(x.w, W.reflection_row(0)[b]), mu)
        if gamma.is_positive():
            raise GraphInvariantError("lift label should be a negative affine root")
        if lx - self.length(y) != 1:
            raise GraphInvariantError("lift is not a length-one cover")
        return y, gamma

    def _require_lifted(self, el: AffineElement, J: ParabolicIndex) -> None:
        """Raise GraphInvariantError unless el lies in (W^J)_af, in W_af^-
        and in the lift target."""
        if not self.in_wj_af(el, J) or not self.in_waf_minus(el):
            raise GraphInvariantError("lift left the distinguished cosets")
        if not self.in_omega(el, J, depth=1):
            raise GraphInvariantError("lift left the target set")

    def project_cover(
        self, graph: QbgGraph, x: AffineElement, y: AffineElement
    ) -> tuple[QbgEdge, int, int, AffineRoot]:
        """Project a cover y < x back to an edge of graph (with its z and
        chi), read with ``graph.edge``.

        x must factor as w z t_mu with w in W^J for the graph's J, z = z_mu;
        the connecting root's classical part must avoid Phi_J.
        """
        rs, W, J = self.rs, self.W, graph.J
        w, z = W.parabolic_decompose(x.w, J)
        mu = x.mu
        if not self.is_adjusted(mu, J) or self.z_mu(mu, J) != z:
            raise ValueError("x does not factor through the projection")
        if self.length(x) - self.length(y) != 1:
            raise ValueError("not a length-one cover")
        u = self.mul(self.inv(x), y)
        reflections = W.reflection_row(0)  # r_beta over the positive roots beta
        if u.w not in reflections:
            raise ValueError("finite part is not a reflection")
        b = reflections.index(u.w)
        beta, p = rs.positive_roots[b], self._pairing_row(mu)[b]
        cor = rs.coroot(beta)
        # u = r_beta t_{n beta^vee}: n from any nonzero coordinate of beta^vee
        i = next(i for i, d in enumerate(cor) if d)
        n = u.mu[i] // cor[i]
        if u.mu != scale_vec(n, cor):
            raise ValueError("cover is not by an affine reflection")
        alpha = W.act(z, beta)
        if not is_positive_vec(alpha):
            alpha = neg_vec(alpha)
            beta, n, p = neg_vec(beta), -n, -p
        if J.supports(alpha):
            raise ValueError("connecting root has classical part in Phi_J")
        gamma = AffineRoot(beta, n)
        chi = n - p
        if chi not in (0, 1):
            raise GraphInvariantError("cover discriminant chi outside {0, 1}")
        if gamma.is_positive():
            raise GraphInvariantError("cover label should be a negative affine root")
        edge = graph.edge(w, alpha)
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
        outside Phi_J (the covers the projection applies to).  With
        r_{beta + n delta} = r_beta t_{n beta^vee}, y is w r_beta t_nu for
        nu = r_beta(mu) + n beta^vee, so w r_beta and r_beta(mu) are found
        once per beta.  So are two rows over alpha in Phi+: a_alpha, the
        inversion flag of w r_beta plus <r_beta(mu), alpha>, and b_alpha =
        <beta^vee, alpha>.  l(y) is then sum_alpha |a_alpha + n b_alpha|
        (``length``'s sum), and y is built and checked only for the n where
        that is l(x) - 1.
        """
        rs = self.rs
        lx = self.length(x)
        mu = x.mu
        pairs = self._pairing_row(mu)
        window = 2 + max(map(abs, pairs), default=0)
        out = []
        for beta, p in zip(rs.positive_roots, pairs):
            wr = self.W.right_reflect(x.w, beta)
            cor = rs.coroot(beta)
            base = sub_vec(mu, scale_vec(p, cor))
            b = self._pairing_row(cor)
            # <r_beta(mu), alpha> = <mu, alpha> - <mu, beta> b_alpha
            a = [chi + pa - p * q for chi, pa, q in zip(self.W.inversion_flags(wr), pairs, b)]
            for n in range(-window, window + 1):
                if sum([abs(s + n * q) for s, q in zip(a, b)]) != lx - 1:
                    continue
                y = AffineElement(wr, add_vec(base, scale_vec(n, cor)))
                if not self.in_wj_af(y, J) or not self.in_waf_minus(y):
                    continue
                if not self.in_omega(y, J, depth):
                    continue
                out.append((y, AffineRoot(beta, n), not J.supports(beta)))
        return out

    def lift_path(
        self, graph: QbgGraph, path: QbgPath, mu: Coroot
    ) -> list[tuple[AffineElement, AffineRoot | None]]:
        """Lift a directed path to a saturated downward chain.

        Returns the chain elements paired with the connecting root used to
        step down into each (None for the starting element).  graph must be
        QB(W^J) itself (``lift_depth``).  Only the starting mu must meet the
        lift hypothesis to the lift depth; a step may make the next mu
        shallower, and each step checks that its result is a length-one
        cover that stays in the lift target.

        The path is lifted as one walk: each step gives the y, and raises
        the error, of ``lift_edge`` at depth 1.  x is checked once, after
        the first step's lift; each later x is the previous y, whose
        ``in_omega`` check implies the lift hypothesis of its mu at depth 1.
        l(x) is computed once and carried, and each chain element's finite
        part is decomposed once (``_decompose``), for its ``in_omega`` check
        and the next step alike.  Every step checks that the path starts
        where the chain is, and the start that it lies in W^J.
        """
        J, W = graph.J, self.W
        z = self._lift_factor(mu, J, self.lift_depth(graph))
        x = AffineElement(W.mul(path.start, z), mu)
        chain: list[tuple[AffineElement, AffineRoot | None]] = [(x, None)]
        lx = self.length(x)
        for k, edge in enumerate(path.edges):
            w, rest = self._decompose(x.w, J)
            if w != edge.source:
                raise ValueError("path does not start where the chain is")
            if k == 0 and rest != z:
                raise ValueError("path does not start in W^J")
            y, gamma = self._lift_below(x, lx, edge, W._inverse[rest])
            if k == 0:
                self._require_lifted(x, J)
            self._require_lifted(y, J)
            chain.append((y, gamma))
            x, lx = y, lx - 1
        return chain


def affine_simple_root(rs, i: int) -> AffineRoot:
    """The affine simple root alpha_i for i in 0..rank: tilde alpha_i, plus
    delta for i = 0 (alpha_0 = delta - theta)."""
    return AffineRoot(rs.tilde_root(i), int(i == 0))


def _component_special_nodes(rs, comp: tuple[int, ...]) -> tuple[int, ...]:
    roots = rs.parabolic(comp).phi_plus
    theta = max(roots, key=lambda a: (sum(a), a))
    return tuple(j for j in comp if theta[j - 1] == 1)


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

_SIMPLE_CASES = (SIMPLE_BRUHAT, SIMPLE_QUANTUM)

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

#: the ascending case whose diamond, read down from its top vertex, is the
#: descending case: the non-orthogonal theta shapes swap Bruhat and quantum
_MIRROR = {
    SIMPLE_BRUHAT: SIMPLE_BRUHAT,
    SIMPLE_QUANTUM: SIMPLE_QUANTUM,
    THETA_BRUHAT: THETA_QUANTUM,
    THETA_BRUHAT_ORTHO: THETA_BRUHAT_ORTHO,
    THETA_QUANTUM: THETA_BRUHAT,
    THETA_QUANTUM_ORTHO: THETA_QUANTUM_ORTHO,
}

#: per side (True: ascending), the cases whose label gamma must differ from
#: the positive one of +-w^{-1} alpha (simple) or +-w^{-1} theta
_CLASH = {
    True: (SIMPLE_BRUHAT, THETA_QUANTUM, THETA_QUANTUM_ORTHO),
    False: (SIMPLE_BRUHAT, THETA_BRUHAT, THETA_BRUHAT_ORTHO),
}


class Diamond(NamedTuple):
    """A completed diamond: the four edges plus the coset twists z, z2."""

    case: str
    bottom_left: QbgEdge
    bottom_right: QbgEdge
    top_left: QbgEdge
    top_right: QbgEdge
    z: int
    z2: int


def _require_edge(who: str, edge: QbgEdge | None, kind: str, target: int) -> QbgEdge:
    if edge is None:
        raise GraphInvariantError(f"{who}: missing edge")
    if edge.kind != kind:
        raise GraphInvariantError(f"{who}: expected {kind}, found {edge.kind}")
    if edge.target != target:
        raise GraphInvariantError(f"{who}: wrong target")
    return edge


def _step_index(case: str, alpha: Root | None) -> int:
    """The j of s_j the case acts by: alpha's node, or 0 for theta."""
    return alpha.index(1) + 1 if case in _SIMPLE_CASES else 0


def _broken_hypothesis(graph: QbgGraph, case: str, up: bool, w: int,
                       gamma: Root, alpha: Root | None) -> str | None:
    """The first hypothesis of the case that (w, gamma, alpha) breaks, or
    None.  Ascending (up), w is the diamond's bottom vertex and the edge at
    gamma its bottom-right edge; descending, w is the top vertex and that
    edge its top-left edge."""
    if case not in _LEFT_KINDS:
        return f"unknown diamond case {case!r}"
    rs, W, J = graph.rs, graph.W, graph.J
    simple = case in _SIMPLE_CASES
    if simple and (alpha is None or sum(alpha) != 1 or min(alpha) < 0):
        return "simple cases need a simple root alpha"
    beta, name = (alpha, "alpha") if simple else (rs.theta, "theta")
    # w^{-1} alpha goes up positive, w^{-1} theta goes up negative
    positive = up == simple
    sign = "+" if positive else "-"
    v = W.act(W._inverse[w], beta)
    if is_positive_vec(v) != positive or J.supports(v):
        return f"w^{{-1}} {name} must lie in Phi{sign} minus Phi_J{sign}"
    if not simple:
        ortho = case in (THETA_BRUHAT_ORTHO, THETA_QUANTUM_ORTHO)
        if ortho != (rs.pairing(rs.coroot(gamma), v) == 0):
            return "orthogonality side condition violated"
    if case in _CLASH[up] and gamma == (v if positive else neg_vec(v)):
        return f"gamma must differ from {'' if positive else '-'}w^{{-1}} {name}"
    # the given edge has the case's own kind on both sides:
    # _LEFT_KINDS[case][1] == _LEFT_KINDS[_MIRROR[case]][2]
    kind = _LEFT_KINDS[case][1]
    edge = graph.edge(w, gamma)
    if edge is None or edge.kind != kind:
        return f"{kind} edge out of w absent at {gamma}"
    if not up:
        u = W.act(W._inverse[edge.target], beta)
        if is_positive_vec(u) != positive or J.supports(u):
            return f"floor(w r_gamma)^{{-1}} {name} must lie in Phi{sign} minus Phi_J{sign}"
    return None


def _complete(graph: QbgGraph, case: str, b: int, gamma: Root,
              alpha: Root | None) -> Diamond:
    """The ascending diamond of the case on the bottom vertex b, read from
    the left action of s_j (j = 0 for the theta cases): the step out of b,
    the edge at gamma, that edge pushed across s_j and the step out of its
    target, each checked against the floors of the diamond's vertices."""
    W, J = graph.W, graph.J
    j = _step_index(case, alpha)
    beta = graph.rs.tilde_root(j)
    bg = W.right_reflect(b, gamma)
    right = W.coset_floor(bg, J)
    left = W.coset_floor(W.left_reflect(b, beta), J)
    top = W.coset_floor(W.left_reflect(right, beta), J)
    if W.coset_floor(W.left_reflect(bg, beta), J) != top:
        raise GraphInvariantError("floors of the top vertex disagree")
    if j:
        z = z2 = 0
    else:
        z, z2 = W.theta_twist(b, J), W.theta_twist(right, J)
    kl, kr, ktl, ktr = _LEFT_KINDS[case]
    bl = _require_edge("bottom-left", graph.left_step(j, b)[1], kl, left)
    br = _require_edge("bottom-right", graph.edge(b, gamma), kr, right)
    tl = _require_edge("top-left", graph.push_edge(j, br), ktl, top)
    tr = _require_edge("top-right", graph.left_step(j, right)[1], ktr, top)
    if J.weight_class(add_vec(bl.weight, tl.weight)) != J.weight_class(
        add_vec(br.weight, tr.weight)
    ):
        raise GraphInvariantError("diamond path weights differ mod Q_J^vee")
    return Diamond(case, bl, br, tl, tr, z, z2)


def complete_bottom(graph: QbgGraph, case: str, w: int, gamma: Root,
                    alpha: Root | None = None) -> Diamond:
    """Given the two ascending edges out of w, derive and verify the two
    edges that close the diamond above them.

    For the simple cases alpha is a simple root moving w up inside W^J; for
    the theta cases the left edge is the quantum step through r_theta.
    Raises ValueError when the configuration does not satisfy the case's
    hypotheses and GraphInvariantError if the implied edges are absent.
    """
    broken = _broken_hypothesis(graph, case, True, w, gamma, alpha)
    if broken:
        raise ValueError(broken)
    return _complete(graph, case, w, gamma, alpha)


def complete_top(graph: QbgGraph, case: str, w: int, gamma: Root,
                 alpha: Root | None = None) -> Diamond:
    """Given the two edges converging on the diamond's top vertex, derive
    and verify the two edges below them (the descending statement).

    The descending diamond is the ascending diamond of the mirrored case on
    its bottom vertex: r_alpha w with the label gamma, or floor(r_theta w)
    with the label z(gamma) for the theta twist z of w.
    """
    broken = _broken_hypothesis(graph, case, False, w, gamma, alpha)
    if broken:
        raise ValueError(broken)
    W, J = graph.W, graph.J
    bottom = graph.left_step(_step_index(case, alpha), w)[0]
    if case in _SIMPLE_CASES:
        return _complete(graph, case, bottom, gamma, alpha)
    z = W.theta_twist(w, J)
    d = _complete(graph, _MIRROR[case], bottom, W.act(z, gamma), None)
    return d._replace(case=case, z=z, z2=W.theta_twist(d.top_left.target, J))


def _configurations(graph: QbgGraph, case: str, up: bool):
    if case not in _LEFT_KINDS:
        raise ValueError(f"unknown diamond case {case!r}")
    alphas = graph.rs.simple_roots() if case in _SIMPLE_CASES else (None,)
    for w in graph.vertices:
        for edge in graph.out[w]:
            for alpha in alphas:
                if _broken_hypothesis(graph, case, up, w, edge.label, alpha) is None:
                    yield w, edge.label, alpha


def iter_top_configurations(graph: QbgGraph, case: str):
    """All (w, gamma, alpha) satisfying the descending case's hypotheses."""
    return _configurations(graph, case, False)


def iter_bottom_configurations(graph: QbgGraph, case: str):
    """All (w, gamma, alpha) satisfying the ascending case's hypotheses."""
    return _configurations(graph, case, True)
