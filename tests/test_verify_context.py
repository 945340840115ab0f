import sys
import threading

from qbgraph import verify

PAIRS = [("A", 1), ("A", 2), ("B", 2), ("G", 2), ("A", 3)]


def default_pairs():
    """The (type, rank) pairs whose contexts the default suites use."""
    pairs = {("A", 2), ("A", 3)}  # the suites with fixed cases of their own
    for _fn, types in verify.SUITES.values():
        pairs.update(types or ())
    pairs.update((t, r) for t, r, _ in verify.LEVEL_ZERO_CASES + verify.PATH_WEIGHT_CASES)
    return pairs


def test_cache_holds_every_context_of_the_default_suites():
    assert len(default_pairs()) <= verify.CONTEXT_CACHE_SIZE


def test_context_cache_stays_bounded(monkeypatch):
    monkeypatch.setattr(verify, "CONTEXT_CACHE_SIZE", 3)
    monkeypatch.setattr(verify, "_context_cache", {})
    for t, r in PAIRS:
        got = verify.context(t, r)
        assert verify.context(t, r) is got
        assert len(verify._context_cache) <= 3
    # oldest first out: the last three stay
    assert list(verify._context_cache) == PAIRS[-3:]
    assert verify.context("A", 1) is not None
    assert list(verify._context_cache) == PAIRS[-2:] + [("A", 1)]


def test_context_cache_under_threads(monkeypatch):
    # builds and evictions from several threads at once, as verify --jobs
    # runs suites: no lost eviction, no error, the bound holds
    monkeypatch.setattr(verify, "CONTEXT_CACHE_SIZE", 2)
    monkeypatch.setattr(verify, "_context_cache", {})
    errors = []

    def work(offset):
        try:
            for k in range(40):
                verify.context(*PAIRS[(offset + k) % 4])
        except Exception as exc:  # noqa: BLE001 - reported by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(verify._context_cache) <= 2
