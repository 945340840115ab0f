"""The integer root data equal a rational reference computed here with
``Fraction``: the symmetrizer of every root system up to rank 8, the scaled
inverse of every connected sub-diagram of their Cartan matrices, and the
weight-scaled reflection orderings of the orderings suite."""

import itertools
import math
from fractions import Fraction

import pytest

from qbgraph.qbg import lambda_ordering, subsystem_word_ordering
from qbgraph.root_system import RootSystem, cartan_matrix, scaled_inverse
from qbgraph.verify import all_parabolics
from qbgraph.weyl import build_weyl_group

VALID = ([("A", r) for r in range(1, 9)] + [(t, r) for t in "BC" for r in range(2, 9)]
         + [("D", r) for r in range(4, 9)] + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def fraction_symmetrizer(cartan) -> tuple[int, ...]:
    """Minimal positive integers d with d_i a_ij = d_j a_ji, by rationals."""
    n = len(cartan)
    d = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if i != j and cartan[i][j] and d[j] is None:
                    d[j] = d[i] * cartan[i][j] / cartan[j][i]
                    stack.append(j)
    lcm = math.lcm(*(x.denominator for x in d))
    ints = [int(x * lcm) for x in d]
    return tuple(x // math.gcd(*ints) for x in ints)


def fraction_scaled_inverse(m):
    """(D, D * m^-1) by Gauss-Jordan elimination over the rationals."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    inv = [row[n:] for row in aug]
    den = math.lcm(*(x.denominator for row in inv for x in row))
    return den, tuple(tuple(int(x * den) for x in row) for row in inv)


def connected_subsets(cartan):
    n = len(cartan)
    for size in range(1, n + 1):
        for nodes in itertools.combinations(range(n), size):
            reached, stack = {nodes[0]}, [nodes[0]]
            while stack:
                i = stack.pop()
                for j in nodes:
                    if j not in reached and cartan[i][j]:
                        reached.add(j)
                        stack.append(j)
            if len(reached) == size:
                yield nodes


@pytest.mark.parametrize("cartan_type, rank", VALID)
def test_the_symmetrizer_equals_the_rational_one(cartan_type, rank):
    rs = RootSystem(cartan_type, rank)
    assert rs._symmetrizer == fraction_symmetrizer(rs.cartan)


def test_scaled_inverse_equals_the_rational_one_on_every_connected_sub_diagram():
    seen = set()
    for cartan_type, rank in VALID:
        c = cartan_matrix(cartan_type, rank)
        for nodes in connected_subsets(c):
            sub = tuple(tuple(c[i][j] for j in nodes) for i in nodes)
            if sub not in seen:
                seen.add(sub)
                assert scaled_inverse(sub) == fraction_scaled_inverse(sub), (cartan_type, nodes)
    # every type A-G is among the components checked, and so are
    # sub-diagrams that are no whole Cartan matrix, such as F4's nodes 2, 3, 4
    assert {cartan_matrix(t, r) for t, r in VALID} < seen
    # a matrix that needs a row swap and has a negative pivot
    m = ((0, 1, 2), (1, 0, 3), (4, -3, 8))
    assert scaled_inverse(m) == fraction_scaled_inverse(m)


def fraction_lambda_sequence(W, lam, J):
    rs = W.rs
    keys = []
    for a in rs.positive_roots:
        if not J.supports(a):
            cor = rs.coroot(a)
            pair = sum(c * v for c, v in zip(cor, lam))
            keys.append((tuple(Fraction(c, pair) for c in cor), a))
    return tuple(a for _, a in sorted(keys)) + tuple(subsystem_word_ordering(W, J))


@pytest.mark.parametrize("cartan_type, rank",
                         [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2)])
def test_lambda_orderings_equal_the_rational_ones(cartan_type, rank):
    W = build_weyl_group(cartan_type, rank)
    for nodes in all_parabolics(rank, proper=True):
        J = W.rs.parabolic(nodes)
        # the orderings suite's two weights: lambda_J, and 2 + i off J
        lam2 = tuple(0 if i + 1 in J.nodes else 2 + i for i in range(rank))
        for lam in (J.lambda_J, lam2):
            assert lambda_ordering(W, lam, J).sequence == fraction_lambda_sequence(W, lam, J)
