"""Exact arithmetic for finite crystallographic root systems.

Roots and coroots are plain integer tuples of coefficients over the simple
roots (resp. simple coroots); everything is exact, no floating point.
"""

from __future__ import annotations

import math
from collections import Counter
from operator import add, mul, sub
from typing import NamedTuple

Root = tuple[int, ...]
Coroot = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class ConfigurationError(ValueError):
    """Unsupported Cartan type / rank combination."""


#: order of the Weyl group, used for the enumeration cap in weyl.py
def weyl_order(cartan_type: str, rank: int) -> int:
    if not _valid_pair(cartan_type, rank):
        raise ConfigurationError(f"invalid Cartan data {cartan_type}{rank}")
    n = rank
    if cartan_type == "A":
        return math.factorial(n + 1)
    if cartan_type in ("B", "C"):
        return 2**n * math.factorial(n)
    if cartan_type == "D":
        return 2 ** (n - 1) * math.factorial(n)
    if cartan_type == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[n]
    if cartan_type == "F":
        return 1152
    return 12  # G2


#: largest |Phi+| built: the root closure costs O(|Phi+|^2 rank), and A24
#: (300 positive roots) still builds in under a second
ROOT_CAP = 300


def positive_root_count(cartan_type: str, rank: int) -> int:
    """|Phi+| in closed form, for a valid (type, rank) pair."""
    n = rank
    if cartan_type == "A":
        return n * (n + 1) // 2
    if cartan_type in ("B", "C"):
        return n * n
    if cartan_type == "D":
        return n * (n - 1)
    if cartan_type == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    if cartan_type == "F":
        return 24
    return 6  # G2


def _valid_pair(cartan_type: str, rank: int) -> bool:
    if cartan_type == "A":
        return rank >= 1
    if cartan_type in ("B", "C"):
        return rank >= 2
    if cartan_type == "D":
        return rank >= 4
    if cartan_type == "E":
        return rank in (6, 7, 8)
    if cartan_type == "F":
        return rank == 4
    if cartan_type == "G":
        return rank == 2
    return False


def cartan_matrix(cartan_type: str, rank: int) -> Matrix:
    """Cartan matrix a[i][j] = <alpha_i^vee, alpha_j>, Bourbaki numbering."""
    if not _valid_pair(cartan_type, rank):
        raise ConfigurationError(f"invalid Cartan data {cartan_type}{rank}")
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if cartan_type in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if cartan_type == "B" and n >= 2:
            bond(n - 2, n - 1, -1, -2)  # alpha_n short
        if cartan_type == "C" and n >= 2:
            bond(n - 2, n - 1, -2, -1)  # alpha_n long
    elif cartan_type == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif cartan_type == "E":
        # chain 1-3-4-5-6(-7)(-8), node 2 attached to node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for x, y in zip(chain, chain[1:]):
            bond(x, y)
        bond(1, 3)
    elif cartan_type == "F":
        bond(0, 1)
        bond(1, 2, -1, -2)  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        bond(2, 3)
    elif cartan_type == "G":
        bond(0, 1, -3, -1)  # alpha_1 short, alpha_2 long
    return tuple(tuple(row) for row in a)


def is_positive_vec(v: tuple[int, ...]) -> bool:
    """Sign of a root vector: positive iff its first nonzero coefficient is."""
    for x in v:
        if x:
            return x > 0
    return False


def add_vec(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, u, v))


def sub_vec(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(sub, u, v))


def neg_vec(v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-a for a in v)


def scale_vec(c: int, v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(c * a for a in v)


class AffineRoot(NamedTuple):
    """A real affine root alpha + k*delta."""

    alpha: Root
    k: int

    def is_positive(self) -> bool:
        return self.k > 0 or (self.k == 0 and is_positive_vec(self.alpha))

    def __neg__(self) -> "AffineRoot":
        return AffineRoot(neg_vec(self.alpha), -self.k)


def cover_label(gamma: AffineRoot) -> AffineRoot:
    """Positive representative of a cover's connecting root."""
    return gamma if gamma.is_positive() else -gamma


class ParabolicIndex:
    """A subset J of Dynkin nodes with its derived root data.

    Nodes are 1-based (Bourbaki); ``phi_plus`` is Phi_J^+ in lexicographic
    order and ``components`` partitions J into Dynkin-connected pieces.
    ``quantum_shift`` holds <alpha^vee, 2rho - 2rho_J> for every alpha in
    Phi^+ (the drop in length that a quantum edge labelled alpha makes up
    for), ``in_phi_J`` whether each positive root, in
    ``RootSystem.positive_roots`` order, lies in Phi_J, ``phi_plus_pos``
    the positions of ``phi_plus`` there, and ``lambda_J`` the sum of the
    fundamental weights off J, over the fundamental weights: its
    stabilizer is W_J.  Equality, hash and repr read the first four
    fields alone.
    """

    __slots__ = ("nodes", "phi_plus", "two_rho_J", "components", "quantum_shift",
                 "in_phi_J", "phi_plus_pos", "lambda_J")

    def __init__(self, nodes: tuple[int, ...], phi_plus: tuple[Root, ...],
                 two_rho_J: tuple[int, ...], components: tuple[tuple[int, ...], ...],
                 quantum_shift: dict[Root, int], in_phi_J: tuple[bool, ...],
                 phi_plus_pos: tuple[int, ...], lambda_J: tuple[int, ...]):
        self.nodes = nodes
        self.phi_plus = phi_plus
        self.two_rho_J = two_rho_J
        self.components = components
        self.quantum_shift = quantum_shift
        self.in_phi_J = in_phi_J
        self.phi_plus_pos = phi_plus_pos
        self.lambda_J = lambda_J

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.nodes, self.phi_plus, self.two_rho_J, self.components)
                == (other.nodes, other.phi_plus, other.two_rho_J, other.components))

    def __hash__(self) -> int:
        return hash((self.nodes, self.phi_plus, self.two_rho_J, self.components))

    def __repr__(self) -> str:
        return (f"ParabolicIndex(nodes={self.nodes!r}, phi_plus={self.phi_plus!r}, "
                f"two_rho_J={self.two_rho_J!r}, components={self.components!r})")

    def __contains__(self, node: int) -> bool:
        return node in self.nodes

    def supports(self, root: Root) -> bool:
        """Whether the root lies in Phi_J, i.e. is supported on J."""
        return all(c == 0 or (i + 1) in self.nodes for i, c in enumerate(root))

    def weight_class(self, vec: Coroot) -> Coroot:
        """Representative of vec modulo Q_J^vee: zero out the J coordinates."""
        return tuple(0 if (i + 1) in self.nodes else c for i, c in enumerate(vec))

    def subgroup_order(self) -> int:
        """|W_J| in closed form, with no enumeration: the product of the
        degrees of Phi_J, so of its components' orders.  By Kostant, as
        many exponents of Phi_J are at least k as Phi_J^+ has roots of
        height k, so exactly n_k - n_{k+1} degrees equal k + 1."""
        heights = Counter(map(sum, self.phi_plus))
        order = 1
        for k, n in heights.items():
            order *= (k + 1) ** (n - heights[k + 1])
        return order


class RootSystem:
    """Cartan data plus the positive roots, coroots, theta and 2*rho.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, cartan_type: str, rank: int):
        self.cartan_type = cartan_type
        self.rank = rank
        self.cartan = cartan_matrix(cartan_type, rank)
        self._symmetrizer = self._compute_symmetrizer()
        self.positive_roots = self._generate_positive_roots()
        self._root_index = {a: b for b, a in enumerate(self.positive_roots)}
        # C beta for every root beta, so that <c, beta> = c . (C beta)
        self.positive_rows = tuple(self._cartan_image(a) for a in self.positive_roots)
        self._rows: dict[Root, tuple[int, ...]] = {}
        for a, row in zip(self.positive_roots, self.positive_rows):
            self._rows[a] = row
            self._rows[neg_vec(a)] = neg_vec(row)
        self.simple_rows = tuple(self._rows[s] for s in self.simple_roots())
        self._norm2 = {a: self._form(a, a) for a in self.positive_roots}
        self._max_norm2 = max(self._norm2.values())
        self._coroot = {a: self._coroot_of(a) for a in self.positive_roots}
        self.theta = self._highest_root()
        self._tilde_roots = (neg_vec(self.theta),) + self.simple_roots()
        #: the zero coroot, one tuple shared by every Bruhat edge's weight
        self.zero = (0,) * rank
        self.two_rho = tuple(
            sum(col) for col in zip(*self.positive_roots)
        )
        self._parabolic_cache: dict[tuple[int, ...], ParabolicIndex] = {}
        #: filled by ``reflection_length`` on first use: only verify reads it
        self._refl_len: dict[Root, int] = {}

    # -- construction helpers -------------------------------------------

    def _compute_symmetrizer(self) -> tuple[int, ...]:
        # minimal positive integers d with d_i a_ij = d_j a_ji, spread from node
        # 1: d_j = d_i a_ij / a_ji, every d found so far scaled by a_ji first
        n, a = self.rank, self.cartan
        d = [1] + [0] * (n - 1)
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and a[i][j] != 0 and not d[j]:
                    di = d[i]
                    d = [x * a[j][i] for x in d]
                    d[j] = di * a[i][j]
                    stack.append(j)
        g = math.gcd(*d)
        return tuple(abs(x) // g for x in d)

    def _form(self, u: tuple[int, ...], v: tuple[int, ...]) -> int:
        # W-invariant symmetric form (alpha_i, alpha_j) = d_i a_ij
        total = 0
        for i, ui in enumerate(u):
            if ui:
                row = self.cartan[i]
                di = self._symmetrizer[i]
                total += ui * di * sum(row[j] * v[j] for j in range(self.rank) if v[j])
        return total

    def _cartan_image(self, v: tuple[int, ...]) -> tuple[int, ...]:
        # entry i is <alpha_i^vee, v>
        return tuple(sum(map(mul, row, v)) for row in self.cartan)

    def _simple_reflect(self, i: int, v: tuple[int, ...]) -> tuple[int, ...]:
        # r_i acting on the root lattice, 0-based index
        pair = sum(self.cartan[i][j] * v[j] for j in range(self.rank))
        out = list(v)
        out[i] -= pair
        return tuple(out)

    def _generate_positive_roots(self) -> tuple[Root, ...]:
        simple = [
            tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)
        ]
        seen = set(simple)
        frontier = list(simple)
        while frontier:
            fresh = []
            for beta in frontier:
                for i in range(self.rank):
                    img = self._simple_reflect(i, beta)
                    if is_positive_vec(img) and img not in seen:
                        seen.add(img)
                        fresh.append(img)
            frontier = fresh
        return tuple(sorted(seen))

    def _coroot_of(self, alpha: Root) -> Coroot:
        norm2 = self._norm2[alpha]
        out = []
        for j, c in enumerate(alpha):
            num = 2 * c * self._symmetrizer[j]
            if num % norm2:
                raise AssertionError(f"non-integral coroot for {alpha}")
            out.append(num // norm2)
        return tuple(out)

    def _highest_root(self) -> Root:
        theta = max(self.positive_roots, key=lambda a: (sum(a), a))
        if any(self.pairing(self.coroot(s), theta) < 0 for s in self.simple_roots()):
            raise AssertionError("highest root is not dominant")
        return theta

    def _reflection_length(self, alpha: Root) -> int:
        return sum(
            1 for beta in self.positive_roots if not is_positive_vec(self.reflect(alpha, beta))
        )

    # -- basic queries ---------------------------------------------------

    def simple_roots(self) -> tuple[Root, ...]:
        return tuple(
            tuple(1 if j == i else 0 for j in range(self.rank)) for i in range(self.rank)
        )

    def simple_coroot(self, i: int) -> Coroot:
        """Simple coroot alpha_i^vee for a 1-based node index."""
        return tuple(1 if j == i - 1 else 0 for j in range(self.rank))

    def tilde_root(self, j: int) -> Root:
        """The finite part of the affine simple root alpha_j, for j in
        0..rank: alpha_j for j >= 1 and minus theta for j = 0."""
        if not 0 <= j <= self.rank:
            raise ValueError(f"affine node index {j} out of range")
        return self._tilde_roots[j]

    def is_positive_root(self, v: tuple[int, ...]) -> bool:
        return v in self._root_index

    def pairing(self, c: Coroot, v: tuple[int, ...]) -> int:
        """Evaluation pairing <c, v> of a coroot vector against a root vector.

        For a root v this is one dot product with its stored row C v; any
        other vector (a weight, 2rho - 2rho_J) is multiplied out and not
        stored.
        """
        row = self._rows.get(v)
        if row is None:
            if len(v) != self.rank:
                raise ValueError("rank mismatch")
            row = self._cartan_image(v)
        if len(c) != self.rank:
            raise ValueError("rank mismatch")
        return sum(map(mul, c, row))

    def coroot(self, alpha: tuple[int, ...]) -> Coroot:
        """Coroot alpha^vee of a root (negative roots allowed)."""
        if alpha in self._coroot:
            return self._coroot[alpha]
        neg = neg_vec(alpha)
        if neg in self._coroot:
            return neg_vec(self._coroot[neg])
        raise ValueError(f"{alpha} is not a root")

    def reflect(self, beta: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        """Reflection r_beta applied to a root-lattice vector."""
        return sub_vec(v, scale_vec(self.pairing(self.coroot(beta), v), beta))

    def reflect_coroot(self, beta: tuple[int, ...], c: Coroot) -> Coroot:
        """Reflection r_beta applied to a coroot-lattice vector."""
        return sub_vec(c, scale_vec(self.pairing(c, beta), self.coroot(beta)))

    def is_long(self, alpha: tuple[int, ...]) -> bool:
        """Long/short classification; in simply-laced types every root is long."""
        a = alpha if alpha in self._root_index else neg_vec(alpha)
        return self._norm2[a] == self._max_norm2

    def reflection_length(self, alpha: tuple[int, ...]) -> int:
        """Coxeter length of the reflection r_alpha, by inversion count;
        counted on first use and kept."""
        a = alpha if alpha in self._root_index else neg_vec(alpha)
        got = self._refl_len.get(a)
        if got is None:
            got = self._refl_len[a] = self._reflection_length(a)
        return got

    def is_quantum_root(self, alpha: Root) -> bool:
        """Whether r_alpha has the maximal length <alpha^vee, 2rho> - 1.

        Characterization: alpha is long, or alpha is short and its coroot
        has coefficient zero on every long simple coroot.
        """
        if alpha not in self._root_index:
            raise ValueError(f"{alpha} is not a positive root")
        if self.is_long(alpha):
            return True
        cor = self.coroot(alpha)
        simples = self.simple_roots()
        return all(
            cor[i] == 0 for i in range(self.rank) if self.is_long(simples[i])
        )

    def special_nodes(self) -> tuple[int, ...]:
        """The 1-based nodes whose coefficient in the highest root is 1."""
        return tuple(i + 1 for i, c in enumerate(self.theta) if c == 1)

    # -- parabolic data ----------------------------------------------------

    def parabolic(self, nodes) -> ParabolicIndex:
        key = tuple(sorted(set(nodes)))
        if any(i < 1 or i > self.rank for i in key):
            raise ConfigurationError(f"parabolic nodes {key} out of range")
        if key in self._parabolic_cache:
            return self._parabolic_cache[key]
        node_set = set(key)
        phi_plus = tuple(
            a
            for a in self.positive_roots
            if all(c == 0 or (i + 1) in node_set for i, c in enumerate(a))
        )
        two_rho_J = tuple(sum(col) for col in zip(*phi_plus)) if phi_plus else (0,) * self.rank
        comps = _connected_components(key, self.cartan)
        shift_row = self._cartan_image(sub_vec(self.two_rho, two_rho_J))
        shift = {a: sum(map(mul, self._coroot[a], shift_row)) for a in self.positive_roots}
        in_J = tuple(a in phi_plus for a in self.positive_roots)
        par = ParabolicIndex(
            key, phi_plus, two_rho_J, comps, shift, in_J,
            tuple(b for b, inside in enumerate(in_J) if inside),
            tuple(int(i not in node_set) for i in range(1, self.rank + 1)),
        )
        self._parabolic_cache[key] = par
        return par

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type}{self.rank})"


def _connected_components(nodes: tuple[int, ...], cartan: Matrix) -> tuple[tuple[int, ...], ...]:
    remaining = set(nodes)
    comps = []
    while remaining:
        start = min(remaining)
        comp = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in remaining - comp:
                if cartan[i - 1][j - 1] != 0:
                    comp.add(j)
                    stack.append(j)
        comps.append(tuple(sorted(comp)))
        remaining -= comp
    return tuple(sorted(comps))


def scaled_inverse(m: Matrix) -> tuple[int, Matrix]:
    """(D, D * m^-1) for an invertible integer matrix, D the least common
    denominator of the entries of m^-1, by integer Gauss-Jordan elimination:
    rows cleared by cross multiplication take [m | I] to [P | R], P diagonal
    and m^-1 = P^-1 R, so L m^-1 is integral for L the lcm of the pivots,
    and D is L divided by its gcd with every entry of L m^-1."""
    n = len(m)
    aug = [list(m[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p, prow = aug[col][col], aug[col]
        for r in range(n):
            f = aug[r][col]
            if r != col and f != 0:
                aug[r] = [p * x - f * y for x, y in zip(aug[r], prow)]
    lcm = math.lcm(*(aug[i][i] for i in range(n)))
    scaled = [[x * (lcm // aug[i][i]) for x in aug[i][n:]] for i in range(n)]
    g = math.gcd(lcm, *(x for row in scaled for x in row))
    return lcm // g, tuple(tuple(x // g for x in row) for row in scaled)


def build_root_system(cartan_type: str, rank: int) -> RootSystem:
    """Validated constructor for a finite root system.

    |Phi+| is checked against ``ROOT_CAP`` before the root closure runs, so
    a type past the cap fails at once.
    """
    if not _valid_pair(cartan_type, rank):
        raise ConfigurationError(f"invalid Cartan data {cartan_type}{rank}")
    count = positive_root_count(cartan_type, rank)
    if count > ROOT_CAP:
        raise ConfigurationError(f"|Phi+| = {count} exceeds the root cap {ROOT_CAP}")
    return RootSystem(cartan_type, rank)
