"""The CLI streams graph, slice and lift-table exports chunk by chunk.

Streamed output equals the string functions of ``render`` byte for byte, a
failed ``--out`` export leaves no file behind, streaming a document to a
file needs less memory than the document itself, and a reader that closes
the pipe early ends the export quietly.
"""

import errno
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

from qbgraph import cli, render
from qbgraph.affine import AffineWeyl
from qbgraph.cli import main
from qbgraph.level_zero import LevelZeroPoset
from qbgraph.qbg import build_qbg
from qbgraph.weyl import build_weyl_group

FORMATS = ("dot", "json", "text")


def cli_outputs(argv, tmp_path, capsys) -> tuple[bytes, bytes]:
    """(stdout, the --out file) of one export, as bytes."""
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    path = tmp_path / "export"
    assert main(argv + ["--out", str(path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["export"]
    return stdout, path.read_bytes()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("cartan_type,rank,nodes", [("A", 3, (1,)), ("B", 2, ()), ("G", 2, ())])
def test_graph_exports_stream_the_string_functions(tmp_path, capsys, fmt, cartan_type,
                                                   rank, nodes):
    W = build_weyl_group(cartan_type, rank)
    graph = build_qbg(W, W.rs.parabolic(nodes))
    to_text = {"dot": render.graph_to_dot, "json": render.graph_to_json,
               "text": render.graph_to_text}[fmt]
    want = to_text(graph).encode()
    argv = ["qbg", "--type", cartan_type, "--rank", str(rank),
            "--parabolic", ",".join(map(str, nodes)), "--format", fmt]
    assert cli_outputs(argv, tmp_path, capsys) == (want, want)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("cartan_type,lam,window", [("A", (2, 1), 1), ("B", (0, 1), 2)])
def test_slice_exports_stream_the_string_functions(tmp_path, capsys, fmt, cartan_type,
                                                   lam, window):
    poset = LevelZeroPoset(build_weyl_group(cartan_type, 2), lam)
    to_text = {"dot": render.slice_to_dot, "json": render.slice_to_json,
               "text": lambda *a: "".join(render.slice_text_chunks(*a))}[fmt]
    want = to_text(poset, window).encode()
    argv = ["poset", "--type", cartan_type, "--rank", "2",
            "--lambda", ",".join(map(str, lam)), "--window", str(window), "--format", fmt]
    assert cli_outputs(argv, tmp_path, capsys) == (want, want)


@pytest.mark.parametrize("fmt", FORMATS)
def test_lift_table_exports_stream_the_string_functions(tmp_path, capsys, fmt):
    W = build_weyl_group("A", 2)
    J = W.rs.parabolic((1,))
    graph = build_qbg(W, J)
    aw = AffineWeyl(W)
    mu = aw.superantidominant_mu(W.identity, J, aw.lift_depth(graph))
    table = []
    for v in graph.vertices:
        lifts = []
        for e in graph.out[v]:
            x, y, gamma = aw.lift_edge(graph, e, mu)
            lifts.append((e, y, gamma))
        if lifts:
            table.append((x, lifts))
    assert table
    chunks = {
        "dot": lambda: render.lifts_dot_chunks(W, table),
        "json": lambda: render.lifts_json_chunks(W, mu, table),
        "text": lambda: render.lifts_text_chunks(W, table),
    }[fmt]()
    want = "".join(chunks).encode()
    argv = ["lift", "--type", "A", "--rank", "2", "--parabolic", "1", "--format", fmt]
    assert cli_outputs(argv, tmp_path, capsys) == (want, want)


QBG_DOT = ["qbg", "--type", "A", "--rank", "2", "--format", "dot"]


def failing_after_one_chunk(exc):
    def chunks(_graph):
        yield "digraph qbg {\n"
        raise exc

    return chunks


def test_an_export_failing_part_way_leaves_no_file(monkeypatch, tmp_path):
    monkeypatch.setattr(render, "graph_dot_chunks",
                        failing_after_one_chunk(RuntimeError("render failed")))
    target = tmp_path / "qb.dot"
    with pytest.raises(RuntimeError, match="render failed"):
        main(QBG_DOT + ["--out", str(target)])
    assert list(tmp_path.iterdir()) == []


def test_an_export_failing_part_way_leaves_an_existing_file_untouched(monkeypatch, tmp_path):
    target = tmp_path / "qb.dot"
    target.write_text("the previous export\n", encoding="utf-8")
    monkeypatch.setattr(render, "graph_dot_chunks",
                        failing_after_one_chunk(RuntimeError("render failed")))
    with pytest.raises(RuntimeError):
        main(QBG_DOT + ["--out", str(target)])
    assert target.read_text(encoding="utf-8") == "the previous export\n"
    assert list(tmp_path.iterdir()) == [target]


def test_a_write_error_part_way_exits_two_and_leaves_no_file(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(render, "graph_dot_chunks",
                        failing_after_one_chunk(OSError(errno.ENOSPC, "No space left")))
    target = tmp_path / "qb.dot"
    assert main(QBG_DOT + ["--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {target}: No space left\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_a_successful_export_replaces_an_existing_file(tmp_path, capsys):
    target = tmp_path / "qb.dot"
    target.write_text("the previous export\n", encoding="utf-8")
    assert main(QBG_DOT) == 0
    want = capsys.readouterr().out
    assert main(QBG_DOT + ["--out", str(target)]) == 0
    assert target.read_text(encoding="utf-8") == want
    assert list(tmp_path.iterdir()) == [target]


def test_an_export_through_a_symlink_replaces_the_file_it_names(tmp_path, capsys):
    target = tmp_path / "qb.dot"
    target.write_text("the previous export\n", encoding="utf-8")
    link = tmp_path / "link.dot"
    link.symlink_to(target)
    assert main(QBG_DOT) == 0
    want = capsys.readouterr().out
    assert main(QBG_DOT + ["--out", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == want
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_an_export_to_a_pipe_writes_into_the_pipe(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    # a non-blocking reader lets the export open the pipe; the A2 graph
    # fits in the pipe's buffer, so it is read back after the export ends
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(QBG_DOT + ["--out", str(fifo)]) == 0
        got = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert main(QBG_DOT) == 0
    assert got == capsys.readouterr().out.encode()
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_streaming_the_a5_graph_json_peaks_below_the_document_size(tmp_path):
    W = build_weyl_group("A", 5)
    graph = build_qbg(W, W.rs.parabolic(()))
    target = tmp_path / "a5.json"
    tracemalloc.start()
    try:
        cli._emit(SimpleNamespace(out=str(target)), render.graph_json_chunks(graph))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = target.stat().st_size
    assert size > 1_000_000
    assert peak < size


def test_a_closed_stdout_ends_an_export_quietly():
    # the reader takes 300 bytes of the 1.1 MB A5 graph JSON, more than a
    # pipe buffers, and closes the pipe: no traceback, and the export's code
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import sys; from qbgraph.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.Popen(
        [sys.executable, "-c", script, "qbg", "--type", "A", "--rank", "5", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(300)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")
    assert len(head) == 300 and head.startswith(b"{")
