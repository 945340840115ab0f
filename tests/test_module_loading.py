"""Each CLI path loads only the layers it runs, no command loads
``dataclasses``, ``fractions`` or ``inspect``, and the package resolves its
public names on first access.

Every load check starts a fresh interpreter, runs one command through
``qbgraph.cli.main`` with stdout discarded and reports which ``qbgraph``
modules, and which of those three stdlib modules, got loaded.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbgraph

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib
import io
import json
import sys

argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    from qbgraph.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
else:
    import qbgraph.cli  # noqa: F401
print(json.dumps({"code": code,
                  "loaded": sorted(m for m in sys.modules if m.startswith("qbgraph.")),
                  "stdlib": sorted({"dataclasses", "fractions", "inspect"} & set(sys.modules))}))
"""

ENGINE = {"affine", "level_zero", "tilted", "verify"}

CASES = {
    "import": (None, ENGINE),
    "qbg-text": (["qbg", "--type", "A", "--rank", "3", "--parabolic", "1"], ENGINE),
    "qbg-json": (["qbg", "--type", "B", "--rank", "2", "--format", "json"], ENGINE),
    "qbg-dot": (["pqbg", "--type", "G", "--rank", "2", "--format", "dot"], ENGINE),
    "lift-table": (["lift", "--type", "A", "--rank", "2", "--parabolic", "1",
                    "--format", "json"], {"level_zero", "tilted", "verify"}),
    "lift-walk": (["lift", "--type", "A", "--rank", "2", "--parabolic", "1", "--start=",
                   "--walk=0,1", "--format", "json"], {"level_zero", "tilted", "verify"}),
    "poset": (["poset", "--type", "A", "--rank", "2", "--lambda", "1,1", "--window", "1",
               "--format", "text"], {"affine", "tilted", "verify"}),
    "tilted": (["tilted", "--type", "A", "--rank", "2", "--parabolic", "1", "--u", "1,2",
                "--z", "1"], {"level_zero", "verify"}),
    "qlen": (["qlen", "--type", "B", "--rank", "2", "--u", "1,2,1"], {"level_zero", "verify"}),
    "verify": (["verify", "--suite", "determinism"], set()),
}


def loaded_modules(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    return report["code"], {m.split(".", 1)[1] for m in report["loaded"]}, set(report["stdlib"])


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_command_loads_only_the_layers_it_runs(name):
    argv, absent = CASES[name]
    code, loaded, stdlib = loaded_modules(argv)
    assert code in (None, 0)
    assert {"cli", "render", "qbg", "weyl", "root_system"} <= loaded
    assert not loaded & absent, sorted(loaded & absent)
    assert not stdlib, sorted(stdlib)


def test_the_lift_and_poset_paths_load_their_layers():
    # the negative checks above would also pass if the command did nothing
    _, lift, _ = loaded_modules(CASES["lift-table"][0])
    _, poset, _ = loaded_modules(CASES["poset"][0])
    assert "affine" in lift
    assert "level_zero" in poset


def test_every_public_name_resolves():
    for name in qbgraph.__all__:
        value = getattr(qbgraph, name)
        home = importlib.import_module(f"qbgraph.{qbgraph._HOMES[name]}")
        assert value is getattr(home, name), name
    from qbgraph import AffineWeyl, build_qbg

    assert AffineWeyl.__module__ == "qbgraph.affine" and build_qbg.__module__ == "qbgraph.qbg"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        qbgraph.nonexistent  # noqa: B018
    assert not hasattr(qbgraph, "build_weyl")
    with pytest.raises(ImportError):
        from qbgraph import nonexistent  # noqa: F401
