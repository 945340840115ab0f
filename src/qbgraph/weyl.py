"""Finite Weyl groups: enumeration, length, Bruhat order, parabolic quotients.

Elements are interned with stable integer ids; the canonical identity of an
element is its matrix action on the simple roots.  The interning tables are
built once and then only read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import add, mul

from .root_system import (
    ConfigurationError,
    Coroot,
    ParabolicIndex,
    Root,
    RootSystem,
    is_positive_vec,
    neg_vec,
    weyl_order,
)

ENUMERATION_CAP = 10**6


class Trichotomy(Enum):
    DOWN = "down"
    FIXED = "fixed"
    UP = "up"


@dataclass(frozen=True, eq=False)
class WeylElement:
    """A Weyl group element, identified by its interning index."""

    group: "WeylGroup"
    index: int

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.group is other.group
            and self.index == other.index
        )

    def __hash__(self) -> int:
        return hash((id(self.group), self.index))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return self.group.multiply(self, other)

    @property
    def length(self) -> int:
        return self.group._length[self.index]

    @property
    def word(self) -> tuple[int, ...]:
        """Shortlex-minimal reduced word (1-based generator indices)."""
        return self.group._word[self.index]

    def inverse(self) -> "WeylElement":
        return self.group.element(self.group._inverse[self.index])

    def act(self, v: tuple[int, ...]) -> tuple[int, ...]:
        """Image of a root-lattice vector."""
        return _apply(self.group._mat[self.index], v)

    def act_coroot(self, c: Coroot) -> Coroot:
        """Image of a coroot-lattice vector."""
        return _apply(self.group._comat[self.index], c)

    def is_identity(self) -> bool:
        return self.index == 0

    def __repr__(self) -> str:
        return f"W[{self.group.describe(self)}]"


def _apply(mat: tuple[tuple[int, ...], ...], v: tuple[int, ...]) -> tuple[int, ...]:
    n = len(v)
    out = [0] * n
    for j, vj in enumerate(v):
        if vj:
            row = mat[j]
            for i in range(n):
                out[i] += vj * row[i]
    return tuple(out)


def _times_simple(mat, k: int, coeffs):
    """The matrix of mat composed with the simple reflection r_k.

    Rows are images of basis vectors; r_k sends basis vector j to
    e_j - c e_k for each (j, c) in coeffs and fixes the others, so only
    those rows change.
    """
    mk = mat[k]
    out = list(mat)
    for j, c in coeffs:
        out[j] = tuple(map(add, mat[j], map((-c).__mul__, mk)))
    return tuple(out)


class WeightPairings:
    """The pairings <beta^vee, w(lam)> of one weight's orbit.

    ``lam`` is given over the fundamental weights.  Each w(lam) is computed
    once per element id, over the fundamental weights: entry i is
    <alpha_i^vee, w(lam)> = <w^{-1}(alpha_i^vee), lam>.  A pairing with any
    coroot is then one dot product with it.
    """

    def __init__(self, W: WeylGroup, lam: tuple[int, ...]):
        self.W = W
        self.lam = tuple(lam)
        self._weights: dict[int, tuple[int, ...]] = {}

    def weight(self, w: int) -> tuple[int, ...]:
        """w(lam) over the fundamental weights."""
        got = self._weights.get(w)
        if got is None:
            comat = self.W._comat[self.W._inverse[w]]
            got = tuple(sum(map(mul, row, self.lam)) for row in comat)
            self._weights[w] = got
        return got

    def pair(self, coroot: Coroot, w: int) -> int:
        """<coroot, w(lam)>."""
        return sum(map(mul, coroot, self.weight(w)))


class WeylGroup:
    """Fully enumerated Weyl group over a root system.

    Enumeration is a breadth-first search from the identity over right
    multiplication by simple reflections, so ids are stable and words are
    shortlex-minimal reduced words.
    """

    def __init__(self, rs: RootSystem):
        order = weyl_order(rs.cartan_type, rs.rank)
        if order > ENUMERATION_CAP:
            raise ConfigurationError(
                f"|W| = {order} exceeds the enumeration cap {ENUMERATION_CAP}"
            )
        self.rs = rs
        self.rank = rs.rank
        self._build()
        self._simple_perms = self._build_simple_perms()
        self._flags: dict[int, bytes] = {0: bytes(len(rs.positive_roots))}
        self._reflection_ids: dict[Root, int] = {}
        self._pairings_cache: dict[tuple[int, ...], WeightPairings] = {}
        self._longest_cache: dict[tuple[int, ...], int] = {}
        self._subgroup_cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    # -- enumeration -------------------------------------------------------

    def _build(self) -> None:
        rs = self.rs
        n = self.rank
        ident = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        # r_k(alpha_j) = alpha_j - a_kj alpha_k and
        # r_k(alpha_j^vee) = alpha_j^vee - a_jk alpha_k^vee
        a = rs.cartan
        root_coeffs = [[(j, a[k][j]) for j in range(n) if a[k][j]] for k in range(n)]
        coroot_coeffs = [[(j, a[j][k]) for j in range(n) if a[j][k]] for k in range(n)]

        mats = [ident]
        comats = [ident]
        length = [0]
        word: list[tuple[int, ...]] = [()]
        index = {ident: 0}
        right = [[-1] * n]
        head = 0
        while head < len(mats):
            cur = head
            head += 1
            for k in range(n):
                new_mat = _times_simple(mats[cur], k, root_coeffs[k])
                found = index.get(new_mat)
                if found is None:
                    found = len(mats)
                    index[new_mat] = found
                    mats.append(new_mat)
                    comats.append(_times_simple(comats[cur], k, coroot_coeffs[k]))
                    length.append(length[cur] + 1)
                    word.append(word[cur] + (k + 1,))
                    right.append([-1] * n)
                right[cur][k] = found
        inverse = [0] * len(mats)
        for i, wrd in enumerate(word):
            cur = 0
            for k in reversed(wrd):
                cur = right[cur][k - 1]
            inverse[i] = cur
        self._mat = mats
        self._comat = comats
        self._length = length
        self._word = word
        self._index = index
        self._right = right
        self._inverse = inverse

    def _build_simple_perms(self) -> list[tuple[tuple[int, ...], int]]:
        """Per simple reflection r_k: the position of r_k(beta) for every
        positive root beta, and the position of alpha_k, the one positive
        root r_k sends negative (listed at its own position)."""
        rs = self.rs
        pos = {a: b for b, a in enumerate(rs.positive_roots)}
        perms = []
        for k in range(self.rank):
            simple = pos[tuple(1 if j == k else 0 for j in range(self.rank))]
            perm = tuple(
                pos.get(rs._simple_reflect(k, a), simple) for a in rs.positive_roots
            )
            perms.append((perm, simple))
        return perms

    # -- element access ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._mat)

    def element(self, index: int) -> WeylElement:
        return WeylElement(self, index)

    @property
    def identity(self) -> WeylElement:
        return WeylElement(self, 0)

    def simple_reflection(self, i: int) -> WeylElement:
        """r_i for a 1-based node index."""
        if not 1 <= i <= self.rank:
            raise ValueError(f"generator index {i} out of range")
        return self.element(self._right[0][i - 1])

    def from_word(self, word) -> WeylElement:
        """Product of simple reflections; indices are 1-based."""
        cur = 0
        for i in word:
            if not 1 <= i <= self.rank:
                raise ValueError(f"generator index {i} out of range")
            cur = self._right[cur][i - 1]
        return self.element(cur)

    def multiply(self, w: WeylElement, u: WeylElement) -> WeylElement:
        cur = w.index
        for k in u.word:
            cur = self._right[cur][k - 1]
        return self.element(cur)

    def left_mul(self, i: int, w: WeylElement) -> WeylElement:
        """r_i * w for a 1-based node index."""
        inv = self._inverse[w.index]
        return self.element(self._inverse[self._right[inv][i - 1]])

    def reflection(self, alpha: tuple[int, ...]) -> WeylElement:
        """The reflection r_alpha as a group element."""
        a = alpha if is_positive_vec(alpha) else neg_vec(alpha)
        cached = self._reflection_ids.get(a)
        if cached is None:
            rs = self.rs
            n = self.rank
            mat = tuple(
                rs.reflect(a, tuple(1 if j == i else 0 for j in range(n)))
                for i in range(n)
            )
            cached = self._index[mat]
            self._reflection_ids[a] = cached
        return self.element(cached)

    def weight_pairings(self, lam: tuple[int, ...]) -> WeightPairings:
        """The shared pairing table of the orbit of lam (fundamental-weight
        coordinates)."""
        key = tuple(lam)
        got = self._pairings_cache.get(key)
        if got is None:
            got = self._pairings_cache[key] = WeightPairings(self, key)
        return got

    def elements(self):
        return (self.element(i) for i in range(len(self._mat)))

    # -- length, descents, Bruhat order ---------------------------------------

    def inversions(self, w: WeylElement) -> tuple[Root, ...]:
        return tuple(
            a for a in self.rs.positive_roots if not is_positive_vec(w.act(a))
        )

    def inversion_flags(self, w: int) -> bytes:
        """Per positive root beta, in ``rs.positive_roots`` order, 1 when
        w(beta) < 0 and 0 otherwise; w is an element id.

        Filled lazily by id from the last letter of the shortlex word: with
        w = u r_k and l(w) = l(u) + 1, w(beta) = u(r_k beta), so w's flags
        are u's read through the permutation r_k makes of Phi^+, except at
        alpha_k, whose sign flips.  Only the elements asked for and the
        prefixes of their words get flags, at most |W| |Phi^+| bytes.
        """
        flags = self._flags
        got = flags.get(w)
        if got is not None:
            return got
        chain = []
        cur = w
        while got is None:
            chain.append(cur)
            cur = self._right[cur][self._word[cur][-1] - 1]
            got = flags.get(cur)
        for cur in reversed(chain):
            perm, simple = self._simple_perms[self._word[cur][-1] - 1]
            row = [got[b] for b in perm]
            row[simple] ^= 1
            got = flags[cur] = bytes(row)
        return got

    def simple_image(self, w: WeylElement, i: int) -> Root:
        """w(alpha_i) for a 1-based node index: a row of w's matrix."""
        return self._mat[w.index][i - 1]

    def has_right_descent(self, w: WeylElement, i: int) -> bool:
        """Whether l(w r_i) < l(w), i.e. w(alpha_i) < 0.  1-based index."""
        length = self._length
        return length[self._right[w.index][i - 1]] < length[w.index]

    def bruhat_covers(self, w: WeylElement) -> tuple[WeylElement, ...]:
        """All u = w r_alpha with l(u) = l(w) + 1, sorted by id."""
        out = []
        lw = w.length
        for a in self.rs.positive_roots:
            u = w * self.reflection(a)
            if u.length == lw + 1:
                out.append(u.index)
        return tuple(self.element(i) for i in sorted(set(out)))

    def bruhat_leq(self, v: WeylElement, w: WeylElement) -> bool:
        vi, wi = v.index, w.index
        while True:
            if vi == wi:
                return True
            if self._length[vi] >= self._length[wi]:
                return False
            # first left descent of w
            winv = self._inverse[wi]
            i = next(
                k
                for k in range(self.rank)
                if self._length[self._right[winv][k]] < self._length[winv]
            )
            vinv = self._inverse[vi]
            if self._length[self._right[vinv][i]] < self._length[vi]:
                vi = self._inverse[self._right[vinv][i]]
            wi = self._inverse[self._right[winv][i]]

    # -- parabolic machinery -----------------------------------------------

    def min_coset_rep(self, w: WeylElement, J: ParabolicIndex) -> WeylElement:
        """The minimum-length representative of the coset w W_J."""
        cur = w.index
        changed = True
        while changed:
            changed = False
            for j in J.nodes:
                nxt = self._right[cur][j - 1]
                if self._length[nxt] < self._length[cur]:
                    cur = nxt
                    changed = True
        return self.element(cur)

    def parabolic_decompose(
        self, w: WeylElement, J: ParabolicIndex
    ) -> tuple[WeylElement, WeylElement]:
        """w = u * v with u in W^J, v in W_J, lengths adding."""
        u = self.min_coset_rep(w, J)
        v = u.inverse() * w
        return u, v

    def theta_twist(self, w: WeylElement, J: ParabolicIndex) -> WeylElement:
        """The z in W_J with r_theta floor(w) = floor(r_theta w) z."""
        lhs = self.reflection(self.rs.theta) * self.min_coset_rep(w, J)
        return self.min_coset_rep(lhs, J).inverse() * lhs

    def in_min_coset_reps(self, w: WeylElement, J: ParabolicIndex) -> bool:
        return all(not self.has_right_descent(w, j) for j in J.nodes)

    def subgroup_elements(self, nodes) -> tuple[int, ...]:
        """Ids of the standard parabolic subgroup generated by the given nodes."""
        key = tuple(sorted(set(nodes)))
        cached = self._subgroup_cache.get(key)
        if cached is not None:
            return cached
        seen = {0}
        frontier = [0]
        while frontier:
            fresh = []
            for cur in frontier:
                for j in key:
                    nxt = self._right[cur][j - 1]
                    if nxt not in seen:
                        seen.add(nxt)
                        fresh.append(nxt)
            frontier = fresh
        out = tuple(sorted(seen))
        self._subgroup_cache[key] = out
        return out

    def min_coset_reps(self, J: ParabolicIndex) -> tuple[WeylElement, ...]:
        """W^J in id order: the elements with no right descent in J."""
        length = self._length
        cols = [j - 1 for j in J.nodes]
        return tuple(
            self.element(i)
            for i, row in enumerate(self._right)
            if all(length[row[c]] > length[i] for c in cols)
        )

    def coset(self, z: WeylElement, J: ParabolicIndex) -> tuple[WeylElement, ...]:
        """The coset z W_J, sorted by id."""
        ids = sorted(
            self.multiply(z, self.element(u)).index for u in self.subgroup_elements(J.nodes)
        )
        return tuple(self.element(i) for i in ids)

    def longest_element(self, nodes=None) -> WeylElement:
        """Longest element of the standard parabolic subgroup (default: W)."""
        key = (
            tuple(range(1, self.rank + 1)) if nodes is None else tuple(sorted(set(nodes)))
        )
        cached = self._longest_cache.get(key)
        if cached is not None:
            return self.element(cached)
        cur = 0
        changed = True
        while changed:
            changed = False
            for j in key:
                nxt = self._right[cur][j - 1]
                if self._length[nxt] > self._length[cur]:
                    cur = nxt
                    changed = True
        self._longest_cache[key] = cur
        return self.element(cur)

    def special_v(self, i: int) -> WeylElement:
        """The factor v_i with w_0 = v_i w_0^(I minus i), for a special node i."""
        if i not in self.rs.special_nodes():
            raise ValueError(f"node {i} is not special (theta coefficient != 1)")
        rest = tuple(j for j in range(1, self.rank + 1) if j != i)
        return self.longest_element() * self.longest_element(rest)

    def trichotomy(self, v: WeylElement, alpha: Root, J: ParabolicIndex) -> Trichotomy:
        """Classify v^{-1} alpha against Phi_J for a positive root alpha."""
        if not self.rs.is_positive_root(alpha):
            raise ValueError(f"{alpha} is not a positive root")
        img = v.inverse().act(alpha)
        if J.supports(img):
            return Trichotomy.FIXED
        return Trichotomy.UP if is_positive_vec(img) else Trichotomy.DOWN

    # -- rendering ------------------------------------------------------------

    def one_line(self, w: WeylElement) -> tuple[int, ...]:
        """One-line permutation form; only in type A (acting on 1..rank+1)."""
        if self.rs.cartan_type != "A":
            raise ValueError("one-line form only defined in type A")
        perm = list(range(1, self.rank + 2))
        for i in w.word:
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        return tuple(perm)

    def describe(self, w: WeylElement) -> str:
        """Readable element name: one-line form in type A, word otherwise."""
        if self.rs.cartan_type == "A":
            return "".join(str(x) for x in self.one_line(w))
        if w.index == 0:
            return "e"
        return "".join(f"r{i}" for i in w.word)
