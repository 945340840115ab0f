"""The pin manifest is well formed, and its runner tells a match from a
mismatch.

`scripts/check_pins.py` runs every entry of `scripts/pins.json` and the
benchmark's exports; it is loaded by path, as `test_benchmark_api.py` loads
`perfbench`.
"""

import hashlib
import importlib.util
import pathlib
import re

from qbgraph.cli import build_parser, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIELDS = {"name", "argv", "sha256", "python", "cpus"}


def _runner():
    spec = importlib.util.spec_from_file_location("check_pins", ROOT / "scripts" / "check_pins.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_manifest_entry_is_well_formed():
    runner = _runner()
    pins = runner.manifest()
    names = [pin["name"] for pin in pins + runner.exports()]
    assert len(names) == len(set(names))
    parser = build_parser()
    for pin in pins:
        assert set(pin) <= FIELDS and {"name", "argv", "sha256"} <= set(pin), pin
        assert re.fullmatch(r"[0-9a-f]{64}", pin["sha256"]), pin["name"]
        parser.parse_args(pin["argv"])


def test_ci_holds_no_pin_of_its_own():
    ci = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert not re.search(r"[0-9a-fA-F]{64}", ci)
    assert "q()" not in ci


def test_the_runner_names_a_pin_whose_output_differs(capsys):
    runner = _runner()
    argv = ["qbg", "--type", "A", "--rank", "2"]
    assert main(argv) == 0
    right = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    pin = {"name": "a2.txt", "argv": argv}

    assert runner.check([{**pin, "sha256": "0" * 64}], ROOT / "src") == ["a2.txt"]
    line = capsys.readouterr().out
    assert line.startswith("MISMATCH") and line.rstrip().endswith("a2.txt")

    assert runner.check([{**pin, "sha256": right}], ROOT / "src") == []
    line = capsys.readouterr().out
    assert line.startswith("ok") and line.rstrip().endswith("a2.txt")

    bad = {"name": "z2.txt", "argv": ["qbg", "--type", "Z", "--rank", "2"], "sha256": right}
    assert runner.check([bad], ROOT / "src") == ["z2.txt"]
    assert capsys.readouterr().out.startswith("FAILED (exit 2)")
