"""`verify.run_suites` spreads whole suites over forked workers.

Every report must be byte-identical whatever the worker count and the
order workers take suites in; failures outside the cases, and helpers that
die, must end the command exactly as a single process would, never hang,
and leave no child behind.
"""

import hashlib
import os
import select
import signal
import struct
import sys
import threading

import pytest

from qbgraph import verify
from qbgraph.cli import main
from qbgraph.root_system import ConfigurationError

#: sha256 of `qbgraph verify --suite all --format json`, as in test_acceptance
REPORT_SHA256 = "1f86e38f8156b33b2b300d0b82c5b17d33007e37568765ad8c489217ef7fd458"


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the runner sees."""
    return lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(n)))


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers each call forks, appended as they start."""
    pids = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def test_heaviest_suites_are_registered():
    assert set(verify.HEAVIEST) <= set(verify.SUITES)
    names = list(verify.SUITES)
    order = [names[i] for i in verify._queue(names)]
    assert order == [*verify.HEAVIEST, *(n for n in names if n not in verify.HEAVIEST)]


def test_the_queue_orders_every_suite_once_by_cost():
    # every registered suite has its place in the measured order, so none
    # falls back on report order behind the cheap ones
    assert sorted(verify.HEAVIEST) == sorted(verify.SUITES)
    names = list(verify.SUITES)
    assert [names[i] for i in verify._queue(names)] == list(verify.HEAVIEST)
    # a name given twice keeps its place in report order among its copies
    names = ["tilted", "example-chain", "tilted"]
    assert verify._queue(names) == [0, 2, 1]


def test_one_worker_per_cpu_at_most_one_per_suite(monkeypatch, cpus):
    cpus(2)
    assert verify._workers(16) == 2
    assert verify._workers(1) == 1
    # a queue that one pipe write cannot hold runs in the caller alone
    assert verify._workers(select.PIPE_BUF) == 1
    cpus(8)
    assert verify._workers(3) == 3
    cpus(1)
    assert verify._workers(16) == 1
    cpus(2)
    monkeypatch.delattr(os, "fork")
    assert verify._workers(16) == 1


def test_serial_while_another_thread_is_alive(cpus):
    cpus(2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert verify._workers(16) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert verify._workers(16) == 2


@pytest.mark.parametrize("workers,queue", [(1, None), (2, None), (2, "reversed")])
def test_report_is_the_same_under_any_split(monkeypatch, capfd, cpus, forks, workers, queue):
    cpus(workers)
    if queue == "reversed":
        monkeypatch.setattr(verify, "_queue", lambda names: list(range(len(names)))[::-1])
    code = main(["verify", "--suite", "all", "--format", "json"])
    out = capfd.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256
    assert len(forks) == workers - 1
    assert no_children_left()


def test_duplicate_names_report_twice(capfd, cpus, forks):
    cpus(2)
    assert main(["verify", "--suite", "tilted,tilted"]) == 0
    out = capfd.readouterr().out
    assert out.count("RESULT suite=tilted pass\n") == 2
    assert len(forks) == 1
    cpus(1)
    assert main(["verify", "--suite", "tilted,tilted"]) == 0
    assert capfd.readouterr().out == out


def test_report_is_printed_once(monkeypatch, capfd, cpus, forks):
    # a helper that flushes stdout writes only what it printed itself
    cpus(2)
    parent = os.getpid()
    real = verify.run_suite

    def run_suite(name, types=None):
        if os.getpid() != parent:
            sys.stdout.flush()
        return real(name, types)

    monkeypatch.setattr(verify, "run_suite", run_suite)
    with open(os.dup(1), "w", buffering=1 << 16) as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        print("before the run")  # held in the buffer until a flush
        assert main(["verify", "--suite", "reference-graphs,example-chain,tilted"]) == 0
    out = capfd.readouterr().out
    assert out.count("before the run") == 1
    assert out.count("RESULT suite=example-chain pass") == 1
    assert len(forks) == 1


def test_an_error_outside_the_cases_exits_two(capfd, cpus, forks):
    cpus(2)
    code = main(["verify", "--suite", "all", "--types", "E8"])
    captured = capfd.readouterr()
    assert code == 2
    assert captured.err == "error: |W| = 696729600 exceeds the enumeration cap 1000000\n"
    assert captured.out == ""
    assert len(forks) == 1
    assert no_children_left()


def test_the_first_error_in_report_order_is_raised(monkeypatch, capfd, cpus, forks):
    # path-weights is taken first, by the parent; tilted goes to the helper
    cpus(2)

    def fail(name, types=None):
        raise ConfigurationError(f"{name} refused")

    monkeypatch.setattr(verify, "run_suite", fail)
    assert main(["verify", "--suite", "tilted,path-weights"]) == 2
    assert capfd.readouterr().err == "error: tilted refused\n"
    assert len(forks) == 1
    assert no_children_left()


class _LongFrame(struct.Struct):
    """A frame header that promises ten bytes more than the pickle holds."""

    def pack(self, size):
        return super().pack(size + 10)


def _sync_helper(monkeypatch, death):
    """Make the parent wait, inside its first suite, until the helper has
    taken one; the helper then ends as DEATH says."""
    parent = os.getpid()
    taken_r, taken_w = os.pipe()
    real = verify.run_suite

    def run_suite(name, types=None):
        if os.getpid() != parent:
            os.write(taken_w, b"x")
            if death == "exit":
                os._exit(3)
            if death == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
        elif select.select([taken_r], [], [], 60)[0]:
            os.read(taken_r, 1)
        return real(name, types)

    monkeypatch.setattr(verify, "run_suite", run_suite)
    if death == "short":
        monkeypatch.setattr(verify, "_FRAME", _LongFrame(verify._FRAME.format))
    return taken_r, taken_w


@pytest.mark.parametrize("death,status", [
    ("exit", "wait status 768, exit code 3"),
    ("kill", "wait status 9, killed by signal 9"),
    ("short", "wait status 0, exit code 0"),
])
def test_a_dead_helper_fails_the_suite_it_took(monkeypatch, capfd, cpus, forks, death, status):
    cpus(2)
    fds = _sync_helper(monkeypatch, death)
    try:
        code = main(["verify", "--suite", "reference-graphs,example-chain"])
    finally:
        for fd in fds:
            os.close(fd)
    out = capfd.readouterr().out
    assert code == 1
    assert len(forks) == 1
    assert no_children_left()
    # the parent's suite passed; the helper's failed with one case
    results = [line.split()[-1] for line in out.splitlines() if line.startswith("RESULT")]
    assert sorted(results) == ["FAIL", "pass"]
    lost = [line for line in out.splitlines() if "FAIL" in line]
    assert len(lost) == 2, out
    assert lost[0] == (f"  all cases: FAIL (no result arrived; worker processes "
                       f"ended with {status})")
    assert lost[1].startswith("RESULT suite=") and lost[1].endswith(" FAIL")


def test_a_failed_fork_leaves_the_suites_to_the_workers_so_far(monkeypatch, capfd, cpus):
    cpus(3)
    real = os.fork
    calls = []

    def fork():
        calls.append(None)
        if len(calls) > 1:
            raise BlockingIOError("no process to spare")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    argv = ["verify", "--suite", "reference-graphs,example-chain,tilted"]
    assert main(argv) == 0
    out = capfd.readouterr().out
    assert len(calls) == 2
    assert no_children_left()
    cpus(1)
    assert main(argv) == 0
    assert capfd.readouterr().out == out


def test_helpers_are_reaped_when_the_parent_share_raises(monkeypatch, cpus, forks):
    cpus(2)
    parent = os.getpid()
    real = verify.run_suite

    def run_suite(name, types=None):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        return real(name, types)

    monkeypatch.setattr(verify, "run_suite", run_suite)
    with pytest.raises(KeyboardInterrupt):
        main(["verify", "--suite", "reference-graphs,example-chain"])
    assert len(forks) == 1
    assert no_children_left()
