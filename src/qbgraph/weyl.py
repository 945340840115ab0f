"""Finite Weyl groups: enumeration, length, Bruhat order, parabolic quotients.

Elements have stable integer ids: W is the orbit W.rho (``WeightOrbit``
for J empty), and w's id, shortlex word and length are those of its orbit
point w(rho).  The right and inverse tables are read off the points' names
once, and then only read; they are held compactly: each word in one
``bytes`` object, and the right table as one list of ids per simple
reflection, all sharing one int object per id.  Two kinds
of per-element table are built the first time they are used, along the
prefixes of the element's word, and kept in dicts that hold only the filled
entries: its signed root permutation, so that w(beta) is one lookup, and
its reflection row, the ids of w r_beta over the positive roots beta, so
that w r_beta is one list lookup.  The permutation is the only form of w's
action: w's inversion flags and its action on coroots are read from it.

The group operations take and return ids.  ``WeylElement`` is a plain
value naming an id at the API boundary (its word, length and name); the
few methods that take or return one wrap the id method beside them.

``WeightOrbit`` lists W^J alone, as the orbit W.lambda_J, with the words
and names ``WeylGroup`` gives W^J; the two share the names of ids
(``_Named``).  ``WeylGroup.min_coset_ids`` reads W^J from it, and
``qbg.build_qbg`` decides the edges of QB(W^J) on it, whether or not W is
enumerated.
"""

from __future__ import annotations

from array import array
from enum import Enum
from typing import NamedTuple

from .root_system import (
    ConfigurationError,
    Coroot,
    ParabolicIndex,
    Root,
    RootSystem,
    build_root_system,
    is_positive_vec,
    neg_vec,
    weyl_order,
)

ENUMERATION_CAP = 10**6


def _check_order(cartan_type: str, rank: int) -> None:
    order = weyl_order(cartan_type, rank)
    if order > ENUMERATION_CAP:
        raise ConfigurationError(
            f"|W| = {order} exceeds the enumeration cap {ENUMERATION_CAP}"
        )


class Trichotomy(Enum):
    DOWN = "down"
    FIXED = "fixed"
    UP = "up"


class WeylElement(NamedTuple):
    """A Weyl group element, identified by its interning index: a value
    that names an id at the API boundary; the group operations take ids."""

    group: "WeylGroup"
    index: int

    @property
    def length(self) -> int:
        return self.group._length[self.index]

    @property
    def word(self) -> tuple[int, ...]:
        """Shortlex-minimal reduced word (1-based generator indices)."""
        return tuple(self.group._word[self.index])

    def __repr__(self) -> str:
        return f"W[{self.group.describe(self.index)}]"


def _apply(mat: tuple[tuple[int, ...], ...], v: tuple[int, ...]) -> tuple[int, ...]:
    n = len(v)
    out = [0] * n
    for j, vj in enumerate(v):
        if vj:
            row = mat[j]
            for i in range(n):
                out[i] += vj * row[i]
    return tuple(out)


def _signed_roots(rs: RootSystem):
    """The roots with sign: the positive roots in ``rs.positive_roots``
    order, then their negatives.  Returns them, the position of each, and
    per simple node k the position of r_k(gamma) for gamma at each
    position, where r_k(beta) = beta - <alpha_k^vee, beta> alpha_k and
    C beta (``rs.positive_rows``) holds the pairings."""
    roots, rows = rs.positive_roots, rs.positive_rows
    m = len(roots)
    signed = roots + tuple(map(neg_vec, roots))
    pos = {gamma: i for i, gamma in enumerate(signed)}
    steps = []
    for k in range(rs.rank):
        img = [pos[beta[:k] + (beta[k] - row[k],) + beta[k + 1:]]
               for beta, row in zip(roots, rows)]
        steps.append(img + [(i + m) % (2 * m) for i in img])
    return signed, pos, steps


def _one_line(rank: int, word) -> tuple[int, ...]:
    """The one-line form, on 1..rank+1, of the type A element with this word."""
    perm = list(range(1, rank + 2))
    for i in word:
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
    return tuple(perm)


def element_name(cartan_type: str, rank: int, word) -> str:
    """The readable name of the element with this word of 1-based nodes:
    its one-line form in type A ('2413'), the word otherwise ('r1r2', 'e'
    for the empty word).  It reads nothing but its arguments."""
    if cartan_type == "A":
        return "".join(map(str, _one_line(rank, word)))
    if not word:
        return "e"
    return "r" + "r".join(map(str, word))


class _Named:
    """The names of element ids, read from their shortlex words alone:
    ``WeylGroup`` and ``WeightOrbit`` share them, and each keeps ``rs``,
    ``rank``, ``_word`` and ``_length`` by id."""

    rs: RootSystem
    rank: int
    _word: list[bytes]
    _length: list[int]

    def one_line(self, w: int) -> tuple[int, ...]:
        """One-line permutation form of an element id; only in type A
        (acting on 1..rank+1)."""
        if self.rs.cartan_type != "A":
            raise ValueError("one-line form only defined in type A")
        return _one_line(self.rs.rank, self._word[w])

    def describe(self, w: int) -> str:
        """Readable name of an element id: one-line form in type A, word
        otherwise (``element_name``)."""
        return element_name(self.rs.cartan_type, self.rs.rank, self._word[w])

    def __len__(self) -> int:
        return len(self._word)


class WeylGroup(_Named):
    """Fully enumerated Weyl group over a root system.

    W is the orbit of rho, whose search (``WeightOrbit`` for J empty) gives
    the ids, in (length, word) order, the shortlex-minimal reduced words
    and the lengths.  The tables are read off the orbit's packed names
    w(rho), which live only while the group is built: w r_k is named
    w(rho) - w(alpha_k), with w(alpha_k) read from the permutation the
    search made for w, and r_i w, for the first letter r_i of w's word, is
    named r_i(w(rho)), which gives w^{-1} = (r_i w)^{-1} r_i.

    ``_word[w]`` is w's shortlex word as ``bytes`` of 1-based node indices
    (``WeylElement.word`` gives it as a tuple), and ``_right[k][w]`` is the
    id of w r_{k+1}: one column per node.  ``act`` fills an element's signed
    root permutation on first use along its word's prefixes: byte i of w's
    is the position of w(gamma) for gamma at position i of ``_signed``, the
    positive roots and then their negatives (2|Phi+| is at most 98, in B7
    and C7, for every group within ``ENUMERATION_CAP``).  It is the only
    form of w's action: ``inversion_flags`` is one ``bytes.translate`` of
    it, and ``comatrix``, for ``act_coroot``, the coroots of the w(alpha_j)
    read from it; both are kept per id.

    ``reflection_row`` fills the same way: the row of w holds the ids of
    w r_beta for beta over ``rs.positive_roots``.  Row 0 holds the
    reflections, found by their names r_beta(rho); the row of u r_k follows
    from u's by (u r_k) r_beta = (u r_{r_k beta}) r_k.  ``right_reflect``,
    ``left_reflect``, ``reflection`` and ``bruhat_covers`` read the rows.
    """

    def __init__(self, rs: RootSystem):
        _check_order(rs.cartan_type, rs.rank)
        self.rs = rs
        self.rank = n = rs.rank
        orbit = WeightOrbit(rs, rs.parabolic(()))
        self._length, self._word = orbit._length, orbit._word
        keys, perms, moves = orbit._key, orbit._perm, orbit._moves()
        # the values are the one int object per id that every table shares
        index = {key: w for w, key in enumerate(keys)}
        simple = [rs.positive_roots.index(s) for s in rs.simple_roots()]
        right = [[] for _ in range(n)]
        # w r_k is named w(rho) - w(alpha_k); each permutation is dropped once
        # read, so the columns grow as the permutations go
        for key, w in index.items():
            perm = perms[w]
            perms[w] = None
            for s, col in zip(simple, right):
                col.append(index[key - moves[perm[s]]])
        # w^{-1} = (r_i w)^{-1} r_i for the first letter r_i of w's word, and
        # r_i w, one shorter, is named r_i(w(rho)) = w(rho) - c alpha_i
        base, off = orbit._base, orbit._offset
        inverse = [0] * len(keys)
        for w in range(1, len(keys)):
            i = self._word[w][0] - 1
            key = keys[w]
            c = key // base**i % base - off
            inverse[w] = right[i][inverse[index[key - c * moves[simple[i]]]]]
        self._right, self._inverse = right, inverse
        # r_beta is named r_beta(rho) = rho - <beta^vee, rho> beta
        self._build_root_tables([index[keys[0] - sum(rs.coroot(beta)) * move]
                                 for beta, move in zip(rs.positive_roots, moves)])
        self._subgroup_cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def _build_root_tables(self, reflections: list[int]) -> None:
        rs = self.rs
        roots = rs.positive_roots
        m = len(roots)
        signed, signed_pos, steps = _signed_roots(rs)
        # the pad makes a permutation a ``bytes.translate`` table
        self._signed, self._signed_pos, self._pad = signed, signed_pos, bytes(256 - 2 * m)
        self._signed_steps = list(map(bytes, steps))
        self._perms: dict[int, bytes] = {0: bytes(range(2 * m))}
        # the coroot at each position, the positions of the simple roots,
        # and the table that sends a position to 1 when its root is negative;
        # then the inversion flags and comatrices read from permutations
        self._signed_coroots = tuple(map(rs.coroot, signed))
        self._simple_signed = tuple(map(signed_pos.__getitem__, rs.simple_roots()))
        self._negative = bytes(i >= m for i in range(256))
        self._flags: dict[int, bytes] = {}
        self._comat: dict[int, tuple[Coroot, ...]] = {}
        # the position of each root +-beta in ``rs.positive_roots``:
        # r_{-beta} = r_beta; and per simple node k, that of r_k(beta)
        self._root_pos = {gamma: i % m for gamma, i in signed_pos.items()}
        self._root_perms = [[i % m for i in step[:m]] for step in steps]
        self._refl_rows: dict[int, list[int]] = {0: reflections}

    # -- element access ------------------------------------------------------

    def _fill(self, table: dict, w: int, step):
        """table[w], computing it and every missing entry along its word.

        The entry of w = u r_k, with r_k the last letter of w's shortlex
        word, is step(table[u], k) for a 0-based k; the walk goes down the
        word's prefixes to the first one already filled.  Fills are
        idempotent, so concurrent readers at worst repeat work.
        """
        right, word = self._right, self._word
        chain = []
        cur = w
        got = table.get(cur)
        while got is None:
            chain.append(cur)
            cur = right[word[cur][-1] - 1][cur]
            got = table.get(cur)
        for cur in reversed(chain):
            got = table[cur] = step(got, word[cur][-1] - 1)
        return got

    def _signed_perm(self, w: int) -> bytes:
        """w's signed root permutation: byte i is the position of w(gamma)
        for gamma at position i of ``_signed``.  Built the first time it is
        asked for, along the prefixes of w's word, with one
        ``bytes.translate`` per letter."""
        perm = self._perms.get(w)
        if perm is None:
            steps, pad = self._signed_steps, self._pad
            perm = self._fill(self._perms, w, lambda p, k: steps[k].translate(p + pad))
        return perm

    def comatrix(self, w: int) -> tuple[Coroot, ...]:
        """The rows w(alpha_j^vee) = (w alpha_j)^vee over the simple coroots;
        w is an element id.  Read from w's permutation on first use and
        kept."""
        got = self._comat.get(w)
        if got is None:
            perm, cor = self._signed_perm(w), self._signed_coroots
            got = self._comat[w] = tuple(cor[perm[i]] for i in self._simple_signed)
        return got

    def reflection_row(self, w: int) -> list[int]:
        """The ids of w r_beta for beta over ``rs.positive_roots``; w is an
        element id.  Built the first time it is asked for."""
        got = self._refl_rows.get(w)
        if got is None:
            right, perms = self._right, self._root_perms

            def step(row, k):
                col = right[k]
                return [col[row[b]] for b in perms[k]]

            got = self._fill(self._refl_rows, w, step)
        return got

    def element(self, index: int) -> WeylElement:
        return WeylElement(self, index)

    @property
    def identity(self) -> WeylElement:
        return WeylElement(self, 0)

    def from_word(self, word) -> WeylElement:
        """Product of simple reflections; indices are 1-based."""
        cur = 0
        for i in word:
            if not 1 <= i <= self.rank:
                raise ValueError(f"generator index {i} out of range")
            cur = self._right[i - 1][cur]
        return self.element(cur)

    def mul(self, w: int, u: int) -> int:
        """The id of w u, walking the word of the shorter factor: when u is
        longer, (w u)^{-1} = u^{-1} w^{-1} is u^{-1} walked along w^{-1}'s
        word."""
        right, inv = self._right, self._inverse
        if self._length[u] <= self._length[w]:
            for k in self._word[u]:
                w = right[k - 1][w]
            return w
        cur = inv[u]
        for k in self._word[inv[w]]:
            cur = right[k - 1][cur]
        return inv[cur]

    def act(self, w: int, v: Root) -> Root:
        """w(v) for an element id w and a root v (either sign): one entry of
        w's signed root permutation.  Raises ValueError when v is not a
        root."""
        i = self._signed_pos.get(v)
        if i is None:
            raise ValueError(f"{v} is not a root")
        # the inline get spares a filled permutation a call: act is hot
        perm = self._perms.get(w) or self._signed_perm(w)
        return self._signed[perm[i]]

    def act_coroot(self, w: int, c: Coroot) -> Coroot:
        """w(c) for an element id w and a coroot-lattice vector c."""
        return _apply(self.comatrix(w), c)

    def reflection(self, alpha: tuple[int, ...]) -> WeylElement:
        """The reflection r_alpha as a group element: an entry of row 0."""
        return self.element(self.right_reflect(0, alpha))

    def right_reflect(self, w: int, alpha: Root) -> int:
        """The id of w r_alpha, for an element id w and a root alpha (either
        sign): an entry of w's reflection row."""
        b = self._root_pos.get(alpha)
        if b is None:
            raise ValueError(f"{alpha} is not a root")
        return self.reflection_row(w)[b]

    def left_reflect(self, w: int, alpha: Root) -> int:
        """The id of r_alpha w, for an element id w and a root alpha:
        r_alpha w = (w^{-1} r_alpha)^{-1}."""
        inverse = self._inverse
        return inverse[self.right_reflect(inverse[w], alpha)]

    # -- inversions, Bruhat order ------------------------------------------

    def inversion_flags(self, w: int) -> bytes:
        """Per positive root beta, in ``rs.positive_roots`` order, 1 when
        w(beta) < 0 and 0 otherwise; w is an element id.

        One ``bytes.translate`` of w's permutation, kept per id: position i
        of ``_signed`` holds a negative root exactly when i >= |Phi+|.
        """
        got = self._flags.get(w)
        if got is None:
            perm = self._signed_perm(w)
            got = self._flags[w] = perm[:len(self.rs.positive_roots)].translate(self._negative)
        return got

    def bruhat_covers(self, w: WeylElement) -> tuple[WeylElement, ...]:
        """All u = w r_alpha with l(u) = l(w) + 1, sorted by id."""
        length = self._length
        up = length[w.index] + 1
        out = {u for u in self.reflection_row(w.index) if length[u] == up}
        return tuple(self.element(i) for i in sorted(out))

    def bruhat_leq(self, v: WeylElement, w: WeylElement) -> bool:
        vi, wi = v.index, w.index
        length, inverse = self._length, self._inverse
        while True:
            if vi == wi:
                return True
            if length[vi] >= length[wi]:
                return False
            # first left descent of w
            winv = inverse[wi]
            col = next(col for col in self._right if length[col[winv]] < length[winv])
            vinv = inverse[vi]
            if length[col[vinv]] < length[vi]:
                vi = inverse[col[vinv]]
            wi = inverse[col[winv]]

    # -- parabolic machinery -----------------------------------------------

    def min_coset_rep(self, w: WeylElement, J: ParabolicIndex) -> WeylElement:
        """The minimum-length representative of the coset w W_J."""
        return self.element(self.coset_floor(w.index, J))

    def coset_floor(self, w: int, J: ParabolicIndex) -> int:
        """The id of the minimum-length representative of w W_J, for an
        element id w: right descents in J are stripped until none is left."""
        right, length = self._right, self._length
        cur = w
        changed = True
        while changed:
            changed = False
            for j in J.nodes:
                nxt = right[j - 1][cur]
                if length[nxt] < length[cur]:
                    cur = nxt
                    changed = True
        return cur

    def parabolic_decompose(self, w: int, J: ParabolicIndex) -> tuple[int, int]:
        """The ids u in W^J and v in W_J with w = u v, lengths adding."""
        u = self.coset_floor(w, J)
        return u, self.mul(self._inverse[u], w)

    def theta_twist(self, w: int, J: ParabolicIndex) -> int:
        """The id of the z in W_J with r_theta floor(w) = floor(r_theta w) z."""
        lhs = self.left_reflect(self.coset_floor(w, J), self.rs.theta)
        return self.mul(self._inverse[self.coset_floor(lhs, J)], lhs)

    def subgroup_elements(self, nodes) -> tuple[int, ...]:
        """Ids of the standard parabolic subgroup generated by the given nodes."""
        key = tuple(sorted(set(nodes)))
        cached = self._subgroup_cache.get(key)
        if cached is not None:
            return cached
        for j in key:
            if not 1 <= j <= self.rank:
                raise ValueError(f"generator index {j} out of range")
        seen = {0}
        frontier = [0]
        while frontier:
            fresh = []
            for cur in frontier:
                for j in key:
                    nxt = self._right[j - 1][cur]
                    if nxt not in seen:
                        seen.add(nxt)
                        fresh.append(nxt)
            frontier = fresh
        out = tuple(sorted(seen))
        self._subgroup_cache[key] = out
        return out

    def min_coset_ids(self, J: ParabolicIndex, orbit=None) -> tuple[int, ...]:
        """The ids of W^J, in order: every id for J empty, otherwise the
        element each point of the orbit W.lambda_J spells with its shortlex
        word, the orbit being given or searched here (``WeightOrbit``).  The
        orbit lists W^J in (length, shortlex) order, which is id order."""
        if not J.nodes:
            return tuple(range(len(self)))
        right = self._right
        ids = []
        for word in (orbit or WeightOrbit(self.rs, J))._word:
            cur = 0
            for k in word:
                cur = right[k - 1][cur]
            ids.append(cur)
        return tuple(ids)

    def min_coset_reps(self, J: ParabolicIndex) -> tuple[WeylElement, ...]:
        """W^J in id order."""
        return tuple(map(self.element, self.min_coset_ids(J)))

    def coset_ids(self, z: int, J: ParabolicIndex) -> tuple[int, ...]:
        """The ids of the coset z W_J, sorted."""
        return tuple(sorted(self.mul(z, u) for u in self.subgroup_elements(J.nodes)))

    def coset(self, z: WeylElement, J: ParabolicIndex) -> tuple[WeylElement, ...]:
        """The coset z W_J, sorted by id."""
        return tuple(map(self.element, self.coset_ids(z.index, J)))

    def longest_element(self, nodes=None) -> WeylElement:
        """Longest element of the standard parabolic subgroup (default: W)."""
        return self.element(self.longest(nodes))

    def longest(self, nodes=None) -> int:
        """The id of ``longest_element(nodes)``: ids follow (length,
        shortlex) order, so it is the subgroup's last id."""
        if nodes is None:
            return len(self) - 1
        return self.subgroup_elements(nodes)[-1]

    def special_v(self, i: int) -> int:
        """The id of the factor v_i with w_0 = v_i w_0^(I minus i), for a
        special node i."""
        if i not in self.rs.special_nodes():
            raise ValueError(f"node {i} is not special (theta coefficient != 1)")
        rest = tuple(j for j in range(1, self.rank + 1) if j != i)
        return self.mul(self.longest(), self.longest(rest))

    def trichotomy(self, v: int, alpha: Root, J: ParabolicIndex) -> Trichotomy:
        """Classify v^{-1} alpha against Phi_J for an element id v and a
        positive root alpha."""
        if not self.rs.is_positive_root(alpha):
            raise ValueError(f"{alpha} is not a positive root")
        img = self.act(self._inverse[v], alpha)
        if J.supports(img):
            return Trichotomy.FIXED
        return Trichotomy.UP if is_positive_vec(img) else Trichotomy.DOWN


def build_weyl_group(cartan_type: str, rank: int) -> WeylGroup:
    """The enumerated Weyl group of a Cartan type.

    The order is checked against ``ENUMERATION_CAP`` before the root system
    is built, so a type past the cap fails at once instead of after the
    O(|Phi+|^2 n) root closure.
    """
    _check_order(cartan_type, rank)
    return WeylGroup(build_root_system(cartan_type, rank))


#: largest |W^J| * |Phi+ minus Phi_J+|, a candidate edge per vertex and
#: label, for an orbit: it admits the full graphs of B7 and C7, 645,120 * 49
#: = 31,610,880, the largest that ``ENUMERATION_CAP`` admits.
CANDIDATE_EDGE_CAP = 32 * 10**6


class WeightOrbit(_Named):
    """W^J as the orbit W.lambda_J of lambda_J (``J.lambda_J``), the sum of
    the fundamental weights off J, with no element outside W^J.  For J
    empty, lambda_J is rho and the orbit is W itself, which ``WeylGroup``
    is built from.

    Each w in W^J is named by w(lambda_J) over the fundamental weights,
    which is unique, since lambda_J has stabilizer W_J.  Its coordinates are
    pairings with coroots, so lie in [-h, h] for the largest coroot height
    h, and the name is packed into one int, coordinate j + h being digit j
    in base 2h + 1 (``_pack``).  For w in W^J with name v, r_k w lies in W^J
    one step up when v_k > 0, and r_k is a left descent of w when v_k < 0.
    So the search goes layer by layer, the layer being the length: u = r_k v
    for v one layer down with v_k > 0 is kept when k is u's least left
    descent.  That makes each element once, with shortlex word k followed
    by v's word, and, running k in order over the layer below in order, in
    (length, word) order, which is the order of W's ids:
    ``WeylGroup.min_coset_ids(J)`` is the ids the words spell, and
    ``describe`` and ``one_line`` read as ``WeylGroup``'s do.

    Per id the search carries ``_key`` (the packed name), ``_length`` and
    ``_perm``, w's signed root permutation: ``_perm[w][b]`` is the position
    of w(beta) in ``signed_rows`` for beta at position b of
    ``rs.positive_roots``.  ``signed_rows`` holds the pairings C beta of
    the positive roots and then those of their negatives, so w(beta) over
    the fundamental weights is one lookup.  A permutation is one ``bytes``
    object when its 2|Phi+| positions fit in a byte, and ``bytes.translate``
    applies r_k to it; otherwise an ``array``.  Before the search, |W^J| =
    |W| / |W_J| times the labels of an edge out of each vertex is checked
    against ``CANDIDATE_EDGE_CAP``, from closed forms.
    """

    def __init__(self, rs: RootSystem, J: ParabolicIndex):
        size = weyl_order(rs.cartan_type, rs.rank) // J.subgroup_order()
        labels = len(rs.positive_roots) - len(J.phi_plus)
        if size * labels > CANDIDATE_EDGE_CAP:
            raise ConfigurationError(
                f"|W^J| * |Phi+ - Phi_J+| = {size} * {labels} exceeds the "
                f"candidate-edge cap {CANDIDATE_EDGE_CAP}"
            )
        self.rs, self.J, self.rank = rs, J, rs.rank
        n, rows = rs.rank, rs.positive_rows
        m = len(rows)
        self.signed_rows = rows + tuple(map(neg_vec, rows))
        # steps[k][i]: the position of r_k(gamma) for gamma at position i
        steps = _signed_roots(rs)[2]
        if 2 * m <= 256:
            tables = [bytes(step + list(range(2 * m, 256))) for step in steps]
            perm = [bytes(range(m))]

            def move(p, k):
                return p.translate(tables[k])
        else:
            perm = [array("H", range(m))]

            def move(p, k):
                return array("H", map(steps[k].__getitem__, p))
        # coordinate j of w(lambda_J) is <w^{-1}(alpha_j^vee), lambda_J>
        shift = self._packing()
        base, off = self._base, self._offset
        keys, length, word = [self._pack(J.lambda_J)], [0], [b""]
        start, end = 0, 1
        while start < end:
            up = length[start] + 1
            for k in range(n):
                digit, letter = base**k, bytes((k + 1,))
                for cur in range(start, end):
                    key = keys[cur]
                    c = key // digit % base - off
                    if c <= 0:
                        continue
                    u = key - c * shift[k]
                    # keep u when no coordinate below k is negative
                    low = u % digit
                    for _ in range(k):
                        low, d = divmod(low, base)
                        if d < off:
                            break
                    else:
                        keys.append(u)
                        length.append(up)
                        word.append(letter + word[cur])
                        perm.append(move(perm[cur], k))
            start, end = end, len(keys)
        self._key, self._length, self._word, self._perm = keys, length, word, perm

    def _packing(self) -> list[int]:
        """Set the base 2h + 1 and offset h that ``_pack`` uses, and return
        each alpha_k packed with no offset (its coordinates a_jk are column
        k of the Cartan matrix), so a weight minus c alpha_k packs to its
        key minus c times that."""
        rs, n = self.rs, self.rank
        self._offset = off = max(sum(rs.coroot(beta)) for beta in rs.positive_roots)
        self._base = base = 2 * off + 1
        return [sum(rs.cartan[j][k] * base**j for j in range(n)) for k in range(n)]

    def _pack(self, v) -> int:
        """The packed key of a weight over the fundamental weights."""
        base, off = self._base, self._offset
        key = 0
        for c in reversed(v):
            key = key * base + c + off
        return key

    def _moves(self) -> list[int]:
        """Per position i of ``signed_rows``, that root packed with no
        offset, so a key minus it is the key of the weight minus the root."""
        origin = self._pack(self.rs.zero)
        return [self._pack(row) - origin for row in self.signed_rows]


def build_weight_orbit(cartan_type: str, rank: int, nodes) -> WeightOrbit:
    """The orbit W.lambda_J of the parabolic nodes J.  For J empty the
    orbit is W itself, so |W| is checked as ``build_weyl_group`` checks it,
    before the root system is built: a type past that cap may have too
    many roots to build, and the cap admits exactly the types whose full
    graph is within ``CANDIDATE_EDGE_CAP``."""
    if not nodes:
        _check_order(cartan_type, rank)
    rs = build_root_system(cartan_type, rank)
    return WeightOrbit(rs, rs.parabolic(nodes))
