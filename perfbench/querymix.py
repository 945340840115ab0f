"""The query-mix workload: warm reads against prebuilt A5 and A2 contexts.

`make_queries` runs in the benchmark's parent process and needs no qbgraph
import: it turns a seed into plain data (reduced-word inputs as generator
lists, coweights, node lists), which is all the program ever sees.
`Context` builds the contexts the queries read, `run_query` issues one
query through the public API, and `Oracle.check` runs outside the timed
span.
"""

from __future__ import annotations

import random
from collections import deque

KINDS = ("tilted", "qlen", "lift", "project", "poset")

RANK = 5  # A5: 720 elements; the full graph is the tilted base
LIFT_J = (1,)  # the J = {1} quotient (360 vertices) carries qlen and the lifts
POSET_LAMBDA = (2, 1)  # an A2 orbit; regular, so the poset graph is all of W
POSET_MARGIN_WINDOW = 3  # the closure is built at 3 + margin, as level-zero does
MU_BOX = 3  # project queries draw mu from [-MU_BOX, MU_BOX]^rank


def _word(rng: random.Random, rank: int, max_len: int) -> list[int]:
    return [rng.randint(1, rank) for _ in range(rng.randint(0, max_len))]


def _nodes(rng: random.Random, rank: int, lo: int, hi: int) -> list[int]:
    return sorted(rng.sample(range(1, rank + 1), rng.randint(lo, hi)))


def make_queries(seed: int, count: int) -> list[dict]:
    """`count` queries in equal shares across KINDS, in a seeded order."""
    rng = random.Random(seed)
    kinds = [KINDS[i % len(KINDS)] for i in range(count)]
    rng.shuffle(kinds)
    out = []
    for kind in kinds:
        if kind == "tilted":
            q = {"u": _word(rng, RANK, 20), "z": _word(rng, RANK, 20),
                 "J": _nodes(rng, RANK, 1, 3)}
        elif kind == "qlen":
            q = {"u": _word(rng, RANK, 20)}
        elif kind == "lift":
            q = {"u": _word(rng, RANK, 20), "v": _word(rng, RANK, 20)}
        elif kind == "project":
            q = {"w": _word(rng, RANK, 20),
                 "mu": [rng.randint(-MU_BOX, MU_BOX) for _ in range(RANK)],
                 "J": _nodes(rng, RANK, 1, 3)}
        else:
            q = {"a": _word(rng, 2, 4), "m": rng.randint(-3, 3),
                 "b": _word(rng, 2, 4), "n": rng.randint(-3, 3)}
        q["kind"] = kind
        out.append(q)
    return out


class Context:
    """Everything the queries read, built and warmed before the first one."""

    def __init__(self):
        from qbgraph import (AffineWeyl, LevelZeroPoset, LevelZeroWeight, WeylGroup,
                             build_qbg, build_root_system)
        from qbgraph.render import chain_to_json
        from qbgraph.tilted import TiltedOrder, quantum_length

        self.weight, self.chain_to_json, self.quantum_length = (
            LevelZeroWeight, chain_to_json, quantum_length)
        rs = build_root_system("A", RANK)
        self.W = WeylGroup(rs)
        self.full = build_qbg(self.W, rs.parabolic(()))
        self.order = TiltedOrder(self.full)
        self.J1 = rs.parabolic(LIFT_J)
        self.quotient = build_qbg(self.W, self.J1)
        self.aw = AffineWeyl(self.W)
        # lift_path needs every chain element deep, not just the first:
        # twice the lift depth keeps a diameter-long path inside it
        depth = self.aw.lift_depth(self.quotient)
        self.mu = self.aw.superantidominant_mu(self.W.identity, self.J1, 2 * depth)
        self.rs = rs
        W2 = WeylGroup(build_root_system("A", 2))
        self.poset = LevelZeroPoset(W2, POSET_LAMBDA)
        self.window = POSET_MARGIN_WINDOW + self.poset.margin()
        self.poset.hasse_covers(self.window)


def run_query(ctx: Context, q: dict):
    """Issue one query; returns the raw result for `answer` and `check`."""
    W, kind = ctx.W, q["kind"]
    if kind == "tilted":
        J = ctx.rs.parabolic(q["J"])
        return ctx.order.coset_min(W.from_word(q["u"]).index, W.from_word(q["z"]), J)
    if kind == "qlen":
        u = W.min_coset_rep(W.from_word(q["u"]), ctx.J1).index
        return ctx.quantum_length(ctx.quotient, u)
    if kind == "lift":
        u = W.min_coset_rep(W.from_word(q["u"]), ctx.J1).index
        v = W.min_coset_rep(W.from_word(q["v"]), ctx.J1).index
        path = ctx.quotient.shortest_path(u, v)
        chain = ctx.aw.lift_path(ctx.quotient, path, ctx.mu)
        return path, chain, ctx.chain_to_json(ctx.aw, chain)
    if kind == "project":
        aw = ctx.aw
        x = aw.mul(aw.from_finite(W.from_word(q["w"])), aw.translation(tuple(q["mu"])))
        p = aw.project(x, ctx.rs.parabolic(q["J"]))
        return aw.length(x), p, aw.length(p)
    P = ctx.poset
    mu = ctx.weight(P.W.min_coset_rep(P.W.from_word(q["a"]), P.J).index, q["m"])
    nu = ctx.weight(P.W.min_coset_rep(P.W.from_word(q["b"]), P.J).index, q["n"])
    below = P.leq(mu, nu, ctx.window)
    return below, (P.dist(mu, nu, ctx.window) if below else None)


def answer(ctx: Context, q: dict, result) -> list:
    """The result as plain data, free of interning ids."""
    kind = q["kind"]
    if kind == "tilted":
        return list(result.word)
    if kind == "qlen":
        return result
    if kind == "lift":
        return result[2]
    if kind == "project":
        lx, p, lp = result
        return [lx, list(ctx.W.element(p.w).word), list(p.mu), lp]
    return list(result)


class Oracle:
    """Independent checks on query results, with a BFS cache of its own."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self._dist: dict[int, dict[int, int]] = {}

    def _bfs(self, u: int) -> dict[int, int]:
        got = self._dist.get(u)
        if got is None:
            got = {u: 0}
            queue = deque([u])
            out = self.ctx.full.out
            while queue:
                cur = queue.popleft()
                for e in out[cur]:
                    if e.target not in got:
                        got[e.target] = got[cur] + 1
                        queue.append(e.target)
            self._dist[u] = got
        return got

    def check(self, q: dict, result) -> str:
        """An empty string when the result passes, else what failed."""
        ctx, W, kind = self.ctx, self.ctx.W, q["kind"]
        if kind == "tilted":
            coset = W.coset(W.from_word(q["z"]), ctx.rs.parabolic(q["J"]))
            if result not in coset:
                return "coset minimum outside the coset"
            dist = self._bfs(W.from_word(q["u"]).index)
            if any(dist[y.index] < dist[result.index] for y in coset):
                return "a coset member is strictly closer"
        elif kind == "lift":
            path, chain, _ = result
            if len(chain) != len(path.edges) + 1:
                return "chain length differs from the path length"
            lengths = [ctx.aw.length_by_inversions(x) for x, _ in chain]
            if any(a - b != 1 for a, b in zip(lengths, lengths[1:])):
                return f"chain lengths {lengths} do not drop by one"
        elif kind == "project":
            if not ctx.aw.in_wj_af(result[1], ctx.rs.parabolic(q["J"])):
                return "projection outside (W^J)_af"
        return ""
