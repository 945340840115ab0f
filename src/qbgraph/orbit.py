"""QB(W^J) built from the weight orbit W.lambda_J, with no W.

The paper names each w in W^J by the weight w(lambda_J), and QB(W^J) needs
no element outside W^J: ``WeightOrbit`` lists W^J as that orbit, with the
ids, words and names ``WeylGroup`` gives W^J, and ``build_orbit_qbg``
decides each edge on it, making exactly ``qbg.build_qbg``'s graph.  The
``qbg`` command, which only renders the graph, builds it so for every J
(rho's orbit, W itself, for J empty) and imports this module when it runs;
every caller that goes on to use group operations takes ``build_qbg``.

The size of the work is known in closed form before anything is
enumerated: |W^J| = |W| / |W_J|, and each vertex has one candidate edge per
label in Phi+ minus Phi_J+, so their product is checked against
``CANDIDATE_EDGE_CAP``.
"""

from __future__ import annotations

from array import array
from operator import mul

from .qbg import BRUHAT, QUANTUM, QbgEdge, QbgGraph
from .root_system import (
    ConfigurationError,
    ParabolicIndex,
    RootSystem,
    build_root_system,
    neg_vec,
    weyl_order,
)
from .weyl import _check_order, _Named

#: largest |W^J| * |Phi+ minus Phi_J+| for a graph built from the orbit: a
#: candidate edge per vertex and label.  That is the most the |W| cap let
#: ``build_qbg`` check, on B7 and C7: 645,120 * 49 = 31,610,880.
CANDIDATE_EDGE_CAP = 32 * 10**6


class WeightOrbit(_Named):
    """W^J as the orbit W.lambda_J of lambda_J, the sum of the fundamental
    weights off J, with no element outside W^J.  For J empty, lambda_J is
    rho and the orbit is W itself.

    Each w in W^J is named by w(lambda_J) over the fundamental weights,
    which is unique, since lambda_J has stabilizer W_J, and the name is
    packed into one int as ``WeylGroup`` packs its keys.  For w in W^J with
    name v, r_k w lies in W^J one step up when v_k > 0, and r_k is a left
    descent of w when v_k < 0.  So the search goes layer by layer, the
    layer being the length: u = r_k v for v one layer down with v_k > 0 is
    kept when k is u's least left descent.  That makes each element once,
    with shortlex word k followed by v's word, and, running k in order
    over the layer below in order, in (length, word) order: ids, words and
    lengths are those of ``WeylGroup.min_coset_ids(J)``, and
    ``describe`` and ``one_line`` read as ``WeylGroup``'s do.

    Per id the search carries ``_key`` (the packed name), ``_length`` and
    ``_perm``, w's signed root permutation: ``_perm[w][b]`` is the position
    of w(beta) in ``signed_rows`` for beta at position b of
    ``rs.positive_roots``.  ``signed_rows`` holds the pairings C beta of
    the positive roots and then those of their negatives, so w(beta) over
    the fundamental weights is one lookup.  A permutation is one ``bytes``
    object when its 2|Phi+| positions fit in a byte, and ``bytes.translate``
    applies r_k to it; otherwise an ``array``.  ``_id`` maps each key to its
    id.  Before the search, |W^J| = |W| / |W_J| times the labels of an
    edge out of each vertex is checked against ``CANDIDATE_EDGE_CAP``, from
    closed forms.
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
        n, roots, rows = rs.rank, rs.positive_roots, rs.positive_rows
        m = len(roots)
        self.signed_rows = rows + tuple(map(neg_vec, rows))
        pos = {}
        for b, beta in enumerate(roots):
            pos[beta], pos[neg_vec(beta)] = b, m + b
        # steps[k][i]: the position of r_k(gamma) for gamma at position i,
        # where r_k(beta) = beta - <alpha_k^vee, beta> alpha_k
        steps = []
        for k in range(n):
            img = [pos[beta[:k] + (beta[k] - row[k],) + beta[k + 1:]]
                   for beta, row in zip(roots, rows)]
            steps.append(img + [(i + m) % (2 * m) for i in img])
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
        self.lam = lam = tuple(int(i + 1 not in J.nodes) for i in range(n))
        keys, length, word = [self._pack(lam)], [0], [b""]
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
        self._id = {key: i for i, key in enumerate(keys)}

    def weight(self, w: int) -> tuple[int, ...]:
        """w(lambda_J) over the fundamental weights, for an id w."""
        return self._unpack(self._key[w])

    def __len__(self) -> int:
        return len(self._word)


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


def build_orbit_qbg(orbit: WeightOrbit) -> QbgGraph:
    """QB(W^J) over the ids of the orbit W.lambda_J, with no W: the vertex
    order, words and edges of ``build_qbg``.

    The target floor(w r_alpha) is the orbit point w r_alpha(lambda_J) =
    v - <alpha^vee, lambda_J> w(alpha) for w's name v, with w(alpha) read
    from w's signed root permutation; names are packed, so the target's key
    is w's key minus one precomputed int.  The edge is Bruhat when the
    target's length is l(w) + 1, and quantum when it is l(w) + 1 -
    <alpha^vee, 2rho - 2rho_J>; that shift is at least 2 off Phi_J, so the
    kinds never collide.
    """
    rs, J = orbit.rs, orbit.J
    # per signed root position, the packed w(alpha) with no offset
    origin = orbit._pack(rs.zero)
    images = [orbit._pack(row) - origin for row in orbit.signed_rows]
    plan = []
    for b, alpha in enumerate(rs.positive_roots):
        if not J.in_phi_J[b]:
            coroot = rs.coroot(alpha)
            c = sum(map(mul, coroot, orbit.lam))
            plan.append((b, alpha, J.quantum_shift[alpha], coroot, [c * x for x in images]))
    length, found, zero = orbit._length, orbit._id, rs.zero
    edges = []
    for w, (key, perm) in enumerate(zip(orbit._key, orbit._perm)):
        up = length[w] + 1
        for b, alpha, shift, coroot, moved in plan:
            x = found[key - moved[perm[b]]]
            lx = length[x]
            if lx == up:
                edges.append(QbgEdge(w, x, alpha, BRUHAT, zero))
            elif lx == up - shift:
                edges.append(QbgEdge(w, x, alpha, QUANTUM, coroot))
    return QbgGraph(orbit, J, range(len(orbit)), edges)
