"""Command line front end: build and export graphs, run queries, verify.

Exit codes: 0 success, 1 a verification suite failed, 2 bad arguments.
Each command imports the layers it runs: ``qbg`` loads no affine,
level-zero, tilted or verify code.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import render
from .qbg import QbgPath, build_qbg
from .root_system import ConfigurationError, cartan_matrix
from .weyl import WeylGroup, build_weyl_group


class UsageError(Exception):
    pass


def _parse_nodes(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad node list {text!r}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


def _parse_word(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    return _parse_ints(text)


def _element(W: WeylGroup, text: str):
    """The Weyl group element of a comma separated word."""
    try:
        return W.from_word(_parse_word(text))
    except ValueError as exc:  # a generator index outside 1..rank
        raise UsageError(f"bad word {text!r}: {exc}") from exc


def _context(args):
    try:
        W = build_weyl_group(args.cartan_type, args.rank)
    except ConfigurationError as exc:
        raise UsageError(str(exc)) from exc
    rs = W.rs
    nodes = _parse_nodes(args.parabolic)
    if any(not 1 <= j <= rs.rank for j in nodes):
        raise UsageError(f"parabolic nodes {nodes} out of range")
    return rs, W, rs.parabolic(nodes)


def _emit(args, chunks) -> None:
    """Write an iterable of text chunks to stdout, or to --out, as they come.

    --out is written through a sibling temporary file that replaces it only
    once the last chunk is written: a failure part way leaves no file, and
    a file already there untouched.  A device or pipe is written in place.
    """
    if not args.out:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    target = os.path.realpath(args.out)
    in_place = os.path.exists(target) and not os.path.isfile(target)
    path = target if in_place else f"{target}.{os.getpid()}.tmp"
    try:
        f = open(path, "w" if in_place else "x", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror}") from exc
    try:
        with f:
            for chunk in chunks:
                f.write(chunk)
        if not in_place:
            os.replace(path, target)
    except BaseException as exc:
        if not in_place:
            with contextlib.suppress(OSError):
                os.unlink(path)
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write {args.out}: {exc.strerror}") from exc
        raise


def cmd_qbg(args) -> int:
    rs, W, J = _context(args)
    graph = build_qbg(W, J)
    if args.format == "dot":
        _emit(args, render.graph_dot_chunks(graph))
    elif args.format == "json":
        _emit(args, render.graph_json_chunks(graph))
    else:
        _emit(args, render.graph_text_chunks(graph))
    return 0


def cmd_lift(args) -> int:
    try:
        return _lift(args)
    except ValueError as exc:  # a lift precondition the input does not meet
        raise UsageError(str(exc)) from exc


def _lift(args) -> int:
    from .affine import AffineWeyl

    rs, W, J = _context(args)
    if len(J.nodes) == rs.rank:
        raise UsageError("the parabolic set must be proper for lifting")
    if args.start and not args.walk:
        raise UsageError("--start is read only with --walk")
    graph = build_qbg(W, J)
    aw = AffineWeyl(W)
    depth = aw.lift_depth(graph)
    if args.mu:
        mu = _parse_ints(args.mu)
        if len(mu) != rs.rank:
            raise UsageError("mu has the wrong rank")
        if not aw.is_adjusted(mu, J):
            raise UsageError("mu is not J-adjusted")
        if not aw.is_superantidominant(mu, J, depth):
            raise UsageError(f"mu is not superantidominant to depth {depth}")
    else:
        mu = aw.superantidominant_mu(W.identity, J, depth)

    if args.walk:
        start = cur = W.coset_floor(_element(W, args.start).index, J)
        edges = []
        for part in args.walk.split(";"):
            label = _parse_ints(part)
            edge = graph.edge(cur, label)
            if edge is None:
                raise UsageError(
                    f"no edge with label {label} out of vertex {W.describe(cur)}"
                )
            edges.append(edge)
            cur = edge.target
        chain = aw.lift_path(graph, QbgPath(start, tuple(edges)), mu)
        if args.format == "dot":
            _emit(args, [render.chain_to_dot(aw, chain)])
        elif args.format == "json":
            _emit(args, [render.chain_to_json(aw, chain)])
        else:
            _emit(args, [render.chain_to_text(aw, chain)])
        return 0

    table = aw.lift_table(graph, aw.z_mu(mu, J), mu)
    if args.format == "json":
        _emit(args, render.lifts_json_chunks(W, mu, table))
    elif args.format == "dot":
        _emit(args, render.lifts_dot_chunks(W, table))
    else:
        _emit(args, render.lifts_text_chunks(W, table))
    return 0


def cmd_poset(args) -> int:
    from .level_zero import LevelZeroPoset

    rs, W, J = _context(args)
    lam = _parse_ints(args.lam)
    if len(lam) != rs.rank:
        raise UsageError("lambda has the wrong rank")
    if any(c < 0 for c in lam):
        raise UsageError(f"lambda {list(lam)} is not dominant")
    try:
        poset = LevelZeroPoset(W, lam)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if args.parabolic and J != poset.J:
        raise UsageError("parabolic set disagrees with the zero set of lambda")
    if args.window < poset.d:
        raise UsageError(
            f"window {args.window} is smaller than the orbit delta step {poset.d}"
        )
    if args.format == "dot":
        _emit(args, render.slice_dot_chunks(poset, args.window))
    elif args.format == "json":
        _emit(args, render.slice_json_chunks(poset, args.window))
    else:
        _emit(args, render.slice_text_chunks(poset, args.window))
    return 0


def cmd_tilted(args) -> int:
    from .tilted import TiltedOrder

    rs, W, J = _context(args)
    graph = build_qbg(W, rs.parabolic(()))
    order = TiltedOrder(graph)
    u = _element(W, args.u).index
    z = _element(W, args.z)
    x = order.coset_min(u, z, J).index
    lines = [
        f"base    : {W.describe(u)}",
        f"coset   : {W.describe(z.index)} W_J, J={list(J.nodes)}",
        f"minimum : {W.describe(x)}",
        f"distance: {graph.distance(u, x)}",
    ]
    _emit(args, ["\n".join(lines) + "\n"])
    return 0


def cmd_qlen(args) -> int:
    from .tilted import quantum_length

    rs, W, J = _context(args)
    graph = build_qbg(W, J)
    u = W.coset_floor(_element(W, args.u).index, J)
    value = quantum_length(graph, u)
    _emit(args, [f"{value}\n"])
    return 0


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suites

    if args.suite == "all":
        names = list(SUITES)
    else:
        names = [s.strip() for s in args.suite.split(",")]
        unknown = [s for s in names if s not in SUITES]
        if unknown:
            raise UsageError(f"unknown suites {unknown}; pick from {sorted(SUITES)}")
    types = _parse_types(args.types) if args.types else None
    if types is not None and args.suite != "all":
        fixed = [s for s in names if SUITES[s][1] is None]
        if fixed:
            raise UsageError(
                f"suites {fixed} run their own case lists and take no --types"
            )
    try:
        results = run_suites(names, types=types)
    except ConfigurationError as exc:  # e.g. a type past the enumeration cap
        raise UsageError(str(exc)) from exc
    if args.format == "json":
        _emit(args, [render.report_to_json(results)])
    else:
        _emit(args, [render.report_to_text(results)])
    return 0 if all(res.passed for res in results) else 1


def _parse_types(text: str) -> list[tuple[str, int]]:
    """Parse 'A2,B2' or 'A1..A4,G2' into valid (type, rank) pairs."""
    out: list[tuple[str, int]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            if ".." in chunk:
                lo, hi = chunk.split("..")
                if lo[0] != hi[0]:
                    raise ValueError("the ends name different types")
                pairs = [(lo[0], r) for r in range(int(lo[1:]), int(hi[1:]) + 1)]
                if not pairs:
                    raise ValueError("the range is empty")
            else:
                pairs = [(chunk[0], int(chunk[1:]))]
            for t, r in pairs:
                cartan_matrix(t, r)  # raises ConfigurationError on a bad pair
        except (ValueError, IndexError) as exc:
            raise UsageError(f"bad type {chunk!r}: {exc}") from exc
        out.extend(pairs)
    if not out:
        raise UsageError(f"no types in {text!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbgraph",
        description="exact quantum Bruhat graph engine and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", dest="cartan_type", required=True,
                       choices=list("ABCDEFG"))
        p.add_argument("--rank", type=int, required=True)
        p.add_argument("--parabolic", default="",
                       help="comma separated Dynkin nodes (Bourbaki numbering)")
        p.add_argument("--format", choices=("dot", "json", "text"), default="text")
        p.add_argument("--out", default="", help="output file (default stdout)")

    p = sub.add_parser("qbg", help="export the (parabolic) quantum Bruhat graph")
    common(p)
    p.set_defaults(fn=cmd_qbg)

    p = sub.add_parser("pqbg", help="alias of qbg")
    common(p)
    p.set_defaults(fn=cmd_qbg)

    p = sub.add_parser("lift", help="lift edges or a walk into the affine order")
    common(p)
    p.add_argument("--mu", default="", help="translation part, simple-coroot coords")
    p.add_argument("--start", default="", help="start vertex as a reduced word")
    p.add_argument("--walk", default="",
                   help="semicolon separated edge labels, each a coefficient list")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("poset", help="export a slice of the level-zero weight poset")
    common(p)
    p.add_argument("--lambda", dest="lam", required=True,
                   help="dominant weight over the fundamental weights")
    p.add_argument("--window", type=int, default=3)
    p.set_defaults(fn=cmd_poset)

    p = sub.add_parser("tilted", help="coset minimum in the tilted order")
    common(p)
    p.add_argument("--u", default="", help="base point as a reduced word")
    p.add_argument("--z", default="", help="coset representative as a reduced word")
    p.set_defaults(fn=cmd_tilted)

    p = sub.add_parser("qlen", help="quantum length of a coset representative")
    common(p)
    p.add_argument("--u", default="", help="element as a reduced word")
    p.set_defaults(fn=cmd_qlen)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument("--suite", default="all",
                   help="comma separated suite names, or 'all'")
    p.add_argument("--types", default="",
                   help="override type list, e.g. 'A1..A4,B2,G2'; a named suite "
                        "with its own case list rejects it, and with --suite all "
                        "those suites run their own cases")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default="")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
