"""One fresh interpreter's share of a benchmark run.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  Every
mode writes a JSON status file; time stamps are CLOCK_MONOTONIC, which the
parent reads too, so the parent can measure set-up from its own spawn stamp.
With --sample, a `speed.Sampler` probes the host from a timer signal for as
long as the worker runs; the status file then holds its samples, and every
`paused_*` stamp is the probe time spent before the matching time stamp.

  probe [--sample] [--context]        import qbgraph.cli, or build the
                                      query-mix contexts, then exit
  cli --status F [--sample] [--trace T] ARGV...
                                      run qbgraph.cli.main(ARGV)
  queries --inputs I --status F [--sample] [--trace T]
                                      build the contexts, run the queries
  figures --outdir D --status F       regenerate scripts/export_figures.py
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import pathlib

from speed import Sampler, now


def _write(args, doc: dict) -> None:
    args.sampler.stop()
    doc.update(samples=args.sampler.samples, paused=args.sampler.paused)
    with open(args.status, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def _tracer(path: str):
    if not path:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _finish_trace(tracer, path: str) -> None:
    if tracer is not None:
        tracer.uninstall()
        tracer.save(path)


def cmd_probe(args) -> None:
    if args.context:
        import querymix

        querymix.Context()
    else:
        import qbgraph.cli  # noqa: F401
    _write(args, {"ready": now(), "paused_ready": args.sampler.paused})


def cmd_cli(args) -> None:
    import qbgraph.cli as cli

    tracer = _tracer(args.trace)
    ready, paused_ready = now(), args.sampler.paused
    code = cli.main(args.argv)
    _finish_trace(tracer, args.trace)
    _write(args, {"ready": ready, "paused_ready": paused_ready, "code": code})


def cmd_queries(args) -> None:
    import querymix

    with open(args.inputs, encoding="utf-8") as f:
        queries = json.load(f)
    tracer = _tracer(args.trace)
    ctx = querymix.Context()
    ready, paused_ready = now(), args.sampler.paused
    results, starts, latencies, errors = [], [], [], {}
    for i, q in enumerate(queries):
        t0, p0 = now(), args.sampler.paused
        try:
            results.append(querymix.run_query(ctx, q))
        except Exception as exc:  # noqa: BLE001 - a failed query is counted, not fatal
            results.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
        starts.append(t0)
        latencies.append(now() - t0 - (args.sampler.paused - p0))
    done, paused_done = now(), args.sampler.paused
    _finish_trace(tracer, args.trace)

    oracle = querymix.Oracle(ctx)
    answers = hashlib.sha256()
    for i, (q, result) in enumerate(zip(queries, results)):
        if i not in errors:
            problem = oracle.check(q, result)
            if problem:
                errors[i] = problem
        value = errors.get(i) if i in errors else querymix.answer(ctx, q, result)
        answers.update(json.dumps(value, sort_keys=True).encode() + b"\n")
    _write(args, {
        "ready": ready, "paused_ready": paused_ready, "done": done,
        "paused_done": paused_done, "starts": starts, "latencies": latencies,
        "errors": {str(i): e for i, e in errors.items()},
        "answers_digest": answers.hexdigest(),
    })


def cmd_figures(args) -> None:
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "export_figures", root / "scripts" / "export_figures.py")
    figures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(figures)
    codes = {}
    for name, argv in figures.JOBS:
        codes[name] = figures.main(argv + ["--out", str(pathlib.Path(args.outdir) / name)])
    _write(args, {"codes": codes})


def main() -> None:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("probe")
    p.add_argument("--context", action="store_true")
    p.add_argument("--status", required=True)
    p.add_argument("--sample", action="store_true")
    p.set_defaults(fn=cmd_probe)
    p = sub.add_parser("cli")
    p.add_argument("--status", required=True)
    p.add_argument("--sample", action="store_true")
    p.add_argument("--trace", default="")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p.set_defaults(fn=cmd_cli)
    p = sub.add_parser("queries")
    p.add_argument("--inputs", required=True)
    p.add_argument("--status", required=True)
    p.add_argument("--sample", action="store_true")
    p.add_argument("--trace", default="")
    p.set_defaults(fn=cmd_queries)
    p = sub.add_parser("figures")
    p.add_argument("--outdir", required=True)
    p.add_argument("--status", required=True)
    p.set_defaults(fn=cmd_figures)
    args = parser.parse_args()
    args.sampler = Sampler()
    if getattr(args, "sample", False):
        args.sampler.start()
    args.fn(args)


if __name__ == "__main__":
    main()
